"""Operator correctness: identities, degeneracies, exact oracle equivalence."""

import tracemalloc

import numpy as np
import pytest

from ddcn import ops
from ddcn.numerics import Param, ShapeError, Tape, Tensor, backward, mul, reduce_sum
from ddcn.train import finite_difference, max_relative_error
from oracles import (
    bilinear_oracle,
    ddc_oracle,
    involution3d_oracle,
    patch_embed_oracle,
    pixel_shuffle_index_oracle,
    pointwise_conv_oracle,
    shared_conv_oracle,
    standard_conv_oracle,
)


def _t(rng, shape, lo=-2.0, hi=2.0, dtype=np.float64):
    return Tensor(rng.uniform(lo, hi, shape), dtype=dtype)


@pytest.fixture
def shards(request, monkeypatch):
    """Force the exact-order conv forward to split every batch, however
    small, into up to ``request.param`` shards on its thread pool. Unforced
    (no param), the tiny shapes of these tests run inline as one shard."""
    count = getattr(request, "param", None)
    if count is not None:
        monkeypatch.setattr(ops, "_SHARD_MIN_MACS", 0)
        monkeypatch.setattr(ops, "_POOL_SIZE", count)
    return count


# Each dtype unforced, under its usual id, then with 2 and 3 forced shards.
SHARDED_DTYPES = [
    pytest.param(dtype, count, id=dtype.__name__ + ("" if count is None else f"-shards{count}"))
    for count in (None, 2, 3)
    for dtype in (np.float32, np.float64)
]


# ---------------------------------------------------------------------------
# Pointwise convolution
# ---------------------------------------------------------------------------


def test_pointwise_scalar_affine():
    x = Tensor(np.array([[[[3.0]]]], dtype=np.float32))
    w = Tensor(np.array([[2.0]], dtype=np.float32))
    b = Tensor(np.array([1.0], dtype=np.float32))
    out = ops.pointwise_conv(x, w, b)
    assert out.data.reshape(-1)[0] == 7.0


def test_pointwise_identity():
    rng = np.random.default_rng(0)
    x = _t(rng, (2, 4, 3, 3), dtype=np.float32)
    w = Tensor(np.eye(4, dtype=np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    out = ops.pointwise_conv(x, w, b)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
def test_pointwise_matches_loop_oracle_exactly(dtype, shards):
    rng = np.random.default_rng(1)
    x = _t(rng, (1, 3, 4, 4), dtype=dtype)
    w = _t(rng, (5, 3), dtype=dtype)
    b = _t(rng, (5,), dtype=dtype)
    out = ops.pointwise_conv(x, w, b)
    assert np.array_equal(out.data, pointwise_conv_oracle(x.data, w.data, b.data))


def test_pointwise_3d_spatial_rank():
    rng = np.random.default_rng(2)
    x = _t(rng, (2, 3, 2, 3, 3))
    w = _t(rng, (4, 3))
    b = _t(rng, (4,))
    out = ops.pointwise_conv(x, w, b)
    assert out.shape == (2, 4, 2, 3, 3)
    assert np.array_equal(out.data, pointwise_conv_oracle(x.data, w.data, b.data))


def test_pointwise_channel_mismatch_rejected():
    with pytest.raises(ShapeError, match="channel mismatch"):
        ops.pointwise_conv(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# Standard convolution
# ---------------------------------------------------------------------------


def test_standard_conv_k1_equals_pointwise_exactly():
    rng = np.random.default_rng(3)
    x = _t(rng, (2, 3, 4, 4), dtype=np.float32)
    w1 = _t(rng, (4, 3), dtype=np.float32)
    b = _t(rng, (4,), dtype=np.float32)
    wk = Tensor(w1.data.reshape(4, 3, 1, 1))
    assert np.array_equal(
        ops.standard_conv(x, wk, b).data, ops.pointwise_conv(x, w1, b).data
    )


def test_standard_conv_delta_kernel_identity():
    rng = np.random.default_rng(4)
    x = _t(rng, (2, 3, 5, 5), dtype=np.float32)
    w = np.zeros((3, 3, 3, 3), dtype=np.float32)
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = ops.standard_conv(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
def test_standard_conv_matches_loop_oracle_exactly(dtype, shards):
    rng = np.random.default_rng(5)
    x = _t(rng, (2, 3, 5, 4), dtype=dtype)
    w = _t(rng, (4, 3, 3, 3), dtype=dtype)
    b = _t(rng, (4,), dtype=dtype)
    out = ops.standard_conv(x, w, b)
    assert np.array_equal(out.data, standard_conv_oracle(x.data, w.data, b.data))


def test_standard_conv3d_matches_loop_oracle_exactly():
    rng = np.random.default_rng(6)
    x = _t(rng, (1, 2, 3, 4, 4))
    w = _t(rng, (3, 2, 3, 3, 3))
    b = _t(rng, (3,))
    out = ops.standard_conv(x, w, b)
    assert np.array_equal(out.data, standard_conv_oracle(x.data, w.data, b.data))


@pytest.mark.parametrize("op, shapes", [
    (ops.standard_conv, [(1, 2, 2, 3, 4), (3, 2, 5, 3, 1), (3,)]),
    (ops.shared_conv, [(2, 2, 2, 3, 4), (5, 3, 1), (1,)]),
    (lambda x, k, b: ops.involution3d_forward(x, k, b, 3), [(1, 2, 1, 2, 3), (1, 1, 27, 1, 2, 3), (2,)]),
], ids=["standard_conv", "shared_conv", "involution3d"])
def test_clipped_tap_gradients_match_finite_differences(op, shapes):
    # Kernels wider than the input: the outer taps of the size-2 (size-1)
    # axis miss the input entirely, and every other tap is clipped.
    rng = np.random.default_rng(28)
    args = [_t(rng, s) for s in shapes]
    proj = _t(rng, op(*args).shape)

    def run():
        return reduce_sum(mul(op(*args), proj))

    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [a.data for a in args])
    for a, g in zip(args, fd):
        assert max_relative_error(a.grad, g) < 1e-6


def _bits(a):
    """Raw float bits: unlike ``array_equal``, tells -0.0 from +0.0."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _signed_zero_case(rng, shape, dtype):
    """A non-contiguous (N, C, T, H, W) input with an all-zero corner.

    The data is laid out (N, T, C, H, W) and viewed transposed (the axis
    swap ``STAttBlock`` makes, left as a strided view). About a third of the values are zero and a
    3x3x3 corner is zero in every channel, so zero inputs meet negative
    weights and some outputs sum only -0.0 products.
    """
    n, c, t, h, w = shape
    base = rng.uniform(-2.0, 2.0, (n, t, c, h, w)).astype(dtype)
    base[rng.random(base.shape) < 0.3] = 0
    base[:, :3, :, :3, :3] = 0
    view = base.transpose(0, 2, 1, 3, 4)
    assert not view.flags.c_contiguous
    return Tensor._wrap(view)


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
def test_pointwise_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, with_bias):
    rng = np.random.default_rng(40)
    x = _signed_zero_case(rng, (2, 3, 4, 4, 5), dtype)
    w = _t(rng, (7, 3), dtype=dtype)  # c_out > c_in
    w.data[0] = -np.abs(w.data[0])  # at all-zero positions, channel 0 sums only -0.0
    b = _t(rng, (7,), dtype=dtype) if with_bias else None
    out = ops.pointwise_conv(x, w, b).data
    ref = pointwise_conv_oracle(x.data, w.data, None if b is None else b.data)
    assert out.flags.c_contiguous
    assert np.array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
def test_standard_conv_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, with_bias):
    rng = np.random.default_rng(41)
    x = _signed_zero_case(rng, (1, 2, 4, 5, 5), dtype)
    b = _t(rng, (5,), dtype=dtype) if with_bias else None
    bd = None if b is None else b.data
    for w in (_t(rng, (5, 2, 3, 3, 3), dtype=dtype), _t(rng, (5, 2, 1, 1, 1), dtype=dtype)):
        w.data[0] = -np.abs(w.data[0])
        out = ops.standard_conv(x, w, b).data
        assert out.flags.c_contiguous
        assert np.array_equal(_bits(out), _bits(standard_conv_oracle(x.data, w.data, bd)))
    x2 = Tensor._wrap(x.data[:, :, 0])  # 2D, still non-contiguous
    w2 = _t(rng, (5, 2, 3, 3), dtype=dtype)
    w2.data[0] = -np.abs(w2.data[0])
    out2 = ops.standard_conv(x2, w2, b).data
    assert np.array_equal(_bits(out2), _bits(standard_conv_oracle(x2.data, w2.data, bd)))


@pytest.mark.parametrize("shards", [1, 2, 3], indirect=True, ids=lambda c: f"shards{c}")
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_sharded_conv_bits_match_oracle_for_any_batch(n, shards):
    # Batches smaller than, equal to and not divisible by the shard count,
    # and an empty one: the partition never changes a bit.
    rng = np.random.default_rng(42)
    for x_shape, w_shape in [((n, 3, 4, 5), (4, 3)), ((n, 3, 2, 3, 4), (4, 3)),
                             ((n, 3, 4, 5), (4, 3, 3, 3)), ((n, 2, 3, 4, 4), (3, 2, 3, 3, 3))]:
        x = Tensor._wrap(rng.uniform(-2.0, 2.0, x_shape).astype(np.float32))  # N=0 allowed
        w = _t(rng, w_shape, dtype=np.float32)
        b = _t(rng, w_shape[:1], dtype=np.float32)
        if len(w_shape) == 2:
            out, ref = ops.pointwise_conv(x, w, b).data, pointwise_conv_oracle(x.data, w.data, b.data)
        else:
            out, ref = ops.standard_conv(x, w, b).data, standard_conv_oracle(x.data, w.data, b.data)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert np.array_equal(_bits(out), _bits(ref))


def test_sharded_forward_peak_bytes_match_serial():
    # The calling thread allocates the result and every shard's buffers,
    # which together are as large as the serial ones.
    rng = np.random.default_rng(43)
    x = _t(rng, (8, 64, 32, 32), dtype=np.float32)
    w = _t(rng, (32, 64), dtype=np.float32)
    b = _t(rng, (32,), dtype=np.float32)

    def peak(count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_SHARD_MIN_MACS", 0)
            mp.setattr(ops, "_POOL_SIZE", count)
            ops.pointwise_conv(x, w, b)  # start the pool's threads untraced
            tracemalloc.start()
            try:
                ops.pointwise_conv(x, w, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # Results allocated per shard, or a concatenated copy, would add at
    # least a whole result. The slack covers the row buffer (32 KiB), the
    # extra shard's Future, views and frames (3-5 KiB) and the transient
    # iterator buffer numpy's broadcasting ops may take per concurrent shard
    # (32-64 KiB on short rows).
    result_bytes = 8 * 32 * 32 * 32 * 4
    slack = result_bytes // 8
    serial = peak(1)
    # The result, the accumulator and the product buffer, and little else.
    assert 3 * result_bytes < serial <= 3 * result_bytes + slack
    assert peak(2) <= serial + slack


# ---------------------------------------------------------------------------
# Shared-filter convolution
# ---------------------------------------------------------------------------


def test_shared_conv_matches_oracle_2d_and_3d():
    rng = np.random.default_rng(8)
    x2 = _t(rng, (2, 3, 4, 4))
    w2 = _t(rng, (3, 3))
    b = _t(rng, (1,))
    assert np.array_equal(
        ops.shared_conv(x2, w2, b).data, shared_conv_oracle(x2.data, w2.data, b.data)
    )
    x3 = _t(rng, (1, 2, 3, 3, 3))
    w3 = _t(rng, (3, 3, 3))
    assert np.array_equal(
        ops.shared_conv(x3, w3, b).data, shared_conv_oracle(x3.data, w3.data, b.data)
    )


@pytest.mark.parametrize("op, x_shape, w_shape", [
    ("standard_conv", (1, 2, 4, 4), (3, 2, 3, 3, 3)),  # 3D kernel, 2D input
    ("standard_conv", (1, 2, 3, 4, 4), (3, 2, 3, 3)),  # 2D kernel, 3D input
    ("standard_conv", (1, 2, 4, 4), (3, 2, 2, 2)),  # even
    ("standard_conv", (1, 2, 3, 4, 4), (3, 2, 3, 4, 3)),  # even on one axis
    ("shared_conv", (1, 2, 4, 4), (3, 3, 3)),
    ("shared_conv", (1, 2, 3, 4, 4), (3, 3)),
    ("shared_conv", (1, 2, 4, 4), (2, 2)),
    ("shared_conv", (1, 2, 3, 4, 4), (3, 3, 4)),
])
def test_kernel_of_wrong_rank_or_even_size_rejected(op, x_shape, w_shape):
    with pytest.raises(ShapeError):
        getattr(ops, op)(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------


def test_bilinear_lattice_points_exact():
    rng = np.random.default_rng(9)
    x = _t(rng, (2, 3, 4, 5), dtype=np.float32)
    for (n, c, r, q) in [(0, 0, 0, 0), (1, 2, 3, 4), (0, 1, 2, 2)]:
        out = ops.bilinear_sample(x, n, c, float(r), float(q))
        assert out.data[0] == x.data[n, c, r, q]


def test_bilinear_midpoint_of_corners():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    x[0, 0] = [[0.0, 1.0], [2.0, 3.0]]
    out = ops.bilinear_sample(Tensor(x), 0, 0, 0.5, 0.5)
    assert out.data[0] == 1.5


@pytest.mark.parametrize("n, c", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_bilinear_rejects_channel_out_of_range(n, c):
    # Negative indices would wrap to the last batch element or channel.
    x = Tensor(np.arange(36, dtype=np.float32).reshape(2, 2, 3, 3))
    with pytest.raises(ShapeError, match="out of range"):
        ops.bilinear_sample(x, n, c, 1.0, 1.0)


def test_bilinear_out_of_bounds_zero():
    rng = np.random.default_rng(10)
    x = _t(rng, (1, 1, 3, 3))
    assert ops.bilinear_sample(x, 0, 0, -1.0, -1.0).data[0] == 0.0
    assert ops.bilinear_sample(x, 0, 0, 10.0, 1.0).data[0] == 0.0


def test_bilinear_linear_along_each_axis():
    rng = np.random.default_rng(11)
    x = _t(rng, (1, 1, 5, 5))
    # Along rows at fixed integer column: value must be linear in r.
    v0 = ops.bilinear_sample(x, 0, 0, 1.0, 2.0).data[0]
    v1 = ops.bilinear_sample(x, 0, 0, 2.0, 2.0).data[0]
    for frac in (0.25, 0.5, 0.75):
        v = ops.bilinear_sample(x, 0, 0, 1.0 + frac, 2.0).data[0]
        assert abs(v - ((1 - frac) * v0 + frac * v1)) < 1e-12
    v0 = ops.bilinear_sample(x, 0, 0, 3.0, 1.0).data[0]
    v1 = ops.bilinear_sample(x, 0, 0, 3.0, 2.0).data[0]
    for frac in (0.3, 0.6):
        v = ops.bilinear_sample(x, 0, 0, 3.0, 1.0 + frac).data[0]
        assert abs(v - ((1 - frac) * v0 + frac * v1)) < 1e-12


def test_bilinear_matches_oracle_random():
    rng = np.random.default_rng(12)
    x = _t(rng, (1, 2, 5, 5))
    for _ in range(30):
        r = rng.uniform(-1.5, 5.5)
        q = rng.uniform(-1.5, 5.5)
        got = ops.bilinear_sample(x, 0, 1, r, q).data[0]
        assert got == bilinear_oracle(x.data[0, 1], r, q)


def test_bilinear_gradient_to_cells_and_coords():
    rng = np.random.default_rng(13)
    x = _t(rng, (1, 1, 4, 4))
    r = Tensor([1.37], dtype=np.float64)
    q = Tensor([2.41], dtype=np.float64)

    def run():
        return ops.bilinear_sample(x, 0, 0, r, q)

    with Tape() as tape:
        out = run()
    backward(out, tape)
    fd = finite_difference(lambda: run().item(), [x.data, r.data, q.data])
    assert max_relative_error(x.grad, fd[0]) < 1e-6
    assert max_relative_error(r.grad, fd[1]) < 1e-6
    assert max_relative_error(q.grad, fd[2]) < 1e-6


# ---------------------------------------------------------------------------
# Deformable dynamic convolution
# ---------------------------------------------------------------------------


def _one_hot_center_kernels(n, g, k, h, w, dtype=np.float64):
    kern = np.zeros((n, g, k * k, h, w), dtype=dtype)
    kern[:, :, (k * k) // 2] = 1.0
    return kern


def test_ddc_zero_offsets_one_hot_center_is_identity():
    rng = np.random.default_rng(14)
    x = _t(rng, (2, 4, 5, 5))
    offsets = Tensor(np.zeros((2, 18, 5, 5)))
    kernels = Tensor(_one_hot_center_kernels(2, 2, 3, 5, 5))
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, x.data)


def test_ddc_uniform_kernels_average_with_zero_padding():
    x = Tensor(np.ones((1, 1, 3, 3)))
    offsets = Tensor(np.zeros((1, 18, 3, 3)))
    kernels = Tensor(np.full((1, 1, 9, 3, 3), 1.0 / 9.0))
    out = ops.ddc_forward(x, offsets, kernels, 3).data[0, 0]
    assert abs(out[1, 1] - 1.0) < 1e-12
    assert out[0, 0] < 1.0 and out[0, 1] < 1.0 and out[2, 2] < 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ddc_matches_loop_oracle_exactly(dtype):
    rng = np.random.default_rng(15)
    x = _t(rng, (1, 1, 5, 5), dtype=dtype)
    offsets = Tensor(rng.uniform(-1, 1, (1, 18, 5, 5)), dtype=dtype)
    kernels = Tensor(rng.uniform(-1, 1, (1, 1, 9, 5, 5)), dtype=dtype)
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, ddc_oracle(x.data, offsets.data, kernels.data, 3))


def test_ddc_grouped_matches_oracle():
    rng = np.random.default_rng(16)
    x = _t(rng, (2, 4, 4, 4))
    offsets = Tensor(rng.uniform(-1, 1, (2, 18, 4, 4)))
    kernels = Tensor(rng.uniform(-1, 1, (2, 2, 9, 4, 4)))
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, ddc_oracle(x.data, offsets.data, kernels.data, 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ddc_matches_loop_oracle_bitwise(dtype):
    # Compared as raw bits, so a zero of the wrong sign counts as a mismatch.
    # Offsets reach 4 cells: some taps have all four corners off the grid and
    # some rows of the sampling matrix send two or three corners to its
    # dummy column. Integer offsets put some samples exactly on lattice points.
    rng = np.random.default_rng(29)
    n, c, h, w = 2, 4, 5, 5
    xd = rng.uniform(-2, 2, (n, c, h, w))
    xd[0, 1] = -0.0
    xd[1, 2] = 0.0
    xd[:, 3, 2] = -0.0
    od = rng.uniform(-4, 4, (n, 18, h, w))
    od[:, 4:8] = np.round(od[:, 4:8])
    x, offsets = Tensor(xd, dtype=dtype), Tensor(od, dtype=dtype)
    kernels = Tensor(rng.uniform(-1, 1, (n, 2, 9, h, w)), dtype=dtype)

    taps = np.arange(9).reshape(1, 9, 1, 1)
    r0 = np.floor(np.arange(h).reshape(1, 1, h, 1) + taps // 3 - 1 + offsets.data[:, 0::2])
    q0 = np.floor(np.arange(w).reshape(1, 1, 1, w) + taps % 3 - 1 + offsets.data[:, 1::2])
    rows_in = ((r0 >= 0) & (r0 < h)).astype(int) + ((r0 + 1 >= 0) & (r0 + 1 < h))
    cols_in = ((q0 >= 0) & (q0 < w)).astype(int) + ((q0 + 1 >= 0) & (q0 + 1 < w))
    corners_off = 4 - rows_in * cols_in
    assert {0, 2, 3, 4} <= set(np.unique(corners_off))

    out = ops.ddc_forward(x, offsets, kernels, 3).data
    expected = ddc_oracle(x.data, offsets.data, kernels.data, 3)
    assert np.array_equal(_bits(out), _bits(expected))


def test_ddc_tape_bytes_bounded():
    # Bytes a taped call keeps alive beyond its output, as a multiple of the
    # input's bytes. Per tap the tape holds the sparse sampling matrix (four
    # weights and four int64 column indices per position) and the two
    # fractional coordinates; per call it holds the kernel weights in
    # tap-major layout and the matrices' shared row pointer. The backward
    # pass rebuilds the input's gather layout from the input and reads no
    # samples, so neither is kept. That is about 5.8x at C=32 float32, and
    # 6.8x with the gather-layout copy kept. Keeping each tap's C samples per
    # position as well reads about 16x, and keeping the four gathered
    # corners of every tap instead of the matrix about 48x.
    rng = np.random.default_rng(30)
    n, c, h, w = 2, 32, 8, 8
    x = _t(rng, (n, c, h, w), dtype=np.float32)
    offsets = _t(rng, (n, 18, h, w), dtype=np.float32)
    kernels = _t(rng, (n, 1, 9, h, w), dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = ops.ddc_forward(x, offsets, kernels, 3)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held < 10 * x.data.nbytes, f"tape holds {held / x.data.nbytes:.1f}x the input bytes"


@pytest.mark.parametrize("op, shapes", [
    (lambda x, w: ops.standard_conv(x, w), [(2, 16, 12, 12), (18, 16, 3, 3)]),
    (lambda x, w: ops.shared_conv(x, w), [(2, 8, 4, 8, 8), (3, 3, 3)]),
    (lambda x, k, b: ops.involution3d_forward(x, k, b, 3),
     [(2, 8, 4, 8, 8), (2, 1, 27, 4, 8, 8), (8,)]),
], ids=["standard_conv", "shared_conv3d", "involution3d"])
def test_conv_tape_holds_no_padded_copy(op, shapes):
    # Each VJP reads the input it already holds through clipped tap slices,
    # so a taped call keeps only small index objects beyond its output
    # (0.2-0.45x the input bytes here). A kept padded copy alone is more
    # than 1x.
    rng = np.random.default_rng(31)
    args = [_t(rng, s, dtype=np.float32) for s in shapes]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = op(*args)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    x_bytes = args[0].data.nbytes
    assert held < x_bytes, f"tape holds {held / x_bytes:.2f}x the input bytes"


@pytest.mark.parametrize("op, shapes, bound", [
    (lambda x, w: ops.standard_conv(x, w), [(4, 16, 32, 32), (18, 16, 3, 3)], 4.0),
    (lambda x, w: ops.shared_conv(x, w), [(4, 16, 32, 32), (3, 3)], 3.0),
    (lambda x, w: ops.shared_conv(x, w), [(2, 16, 4, 16, 16), (3, 3, 3)], 3.0),
    (lambda x, k, b: ops.involution3d_forward(x, k, b, 3),
     [(2, 16, 4, 16, 16), (2, 1, 27, 4, 16, 16), (16,)], 5.0),
    (lambda x, w: ops.pointwise_conv(x, w), [(8, 64, 8, 8), (32, 64)], 1.25),
], ids=["standard_conv", "shared_conv2d", "shared_conv3d", "involution3d", "pointwise_conv"])
def test_conv_vjp_peak_bytes_bounded(op, shapes, bound, monkeypatch):
    # Peak bytes a VJP allocates, as a multiple of its input's bytes. Taps
    # are clipped to the input, so no zero-padded input or gradient exists:
    # the peak is the input gradient plus one tap's temporaries, 2.2-4.1x at
    # these shapes (the standard conv's output gradient and the involution's
    # kernel gradient outsize the input here), and 1.07x for the pointwise
    # conv, whose one tap is its input gradient. A padded input and gradient
    # take the first four to 3.5-7x; reducing the pointwise weight gradient
    # while its input gradient is live takes the last to 1.57x.
    vjps = []
    monkeypatch.setattr(ops, "record", lambda inputs, out, vjp: vjps.append(vjp))
    rng = np.random.default_rng(32)
    args = [_t(rng, s, dtype=np.float32) for s in shapes]
    g = rng.uniform(-1, 1, op(*args).shape).astype(np.float32)
    tracemalloc.start()
    try:
        vjps[0](g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x_bytes = args[0].data.nbytes
    assert peak < bound * x_bytes, f"VJP peak is {peak / x_bytes:.2f}x the input bytes"


def test_ddc_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    x = _t(rng, (1, 1, 5, 5))
    offsets = Tensor(rng.uniform(-1, 1, (1, 18, 5, 5)), dtype=np.float64)
    kernels = Tensor(rng.uniform(-1, 1, (1, 1, 9, 5, 5)), dtype=np.float64)
    proj = Tensor(rng.uniform(-1, 1, (1, 1, 5, 5)), dtype=np.float64)

    def run():
        return reduce_sum(mul(ops.ddc_forward(x, offsets, kernels, 3), proj))

    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [x.data, offsets.data, kernels.data])
    assert max_relative_error(x.grad, fd[0]) < 1e-4
    assert max_relative_error(offsets.grad, fd[1]) < 1e-4
    assert max_relative_error(kernels.grad, fd[2]) < 1e-4


def test_ddc_gradients_batched_grouped_far_offsets():
    # Offsets up to 3 cells: some taps sample wholly outside the grid and
    # several taps land on one cell, across two batch items and two groups.
    rng = np.random.default_rng(28)
    n, c, h, w = 2, 4, 4, 4
    x = _t(rng, (n, c, h, w))
    offsets = _t(rng, (n, 18, h, w), lo=-3.0, hi=3.0)
    kernels = _t(rng, (n, 2, 9, h, w), lo=-1.0, hi=1.0)
    proj = _t(rng, (n, c, h, w), lo=-1.0, hi=1.0)

    taps = np.arange(9).reshape(1, 9, 1, 1)
    r = np.arange(h).reshape(1, 1, h, 1) + taps // 3 - 1 + offsets.data[:, 0::2]
    q = np.arange(w).reshape(1, 1, 1, w) + taps % 3 - 1 + offsets.data[:, 1::2]
    outside = (r < -1) | (r >= h) | (q < -1) | (q >= w)
    assert outside.any() and not outside.all()
    batch = np.broadcast_to(np.arange(n).reshape(n, 1, 1, 1), r.shape)
    cells = np.stack([batch[~outside], np.floor(r[~outside]), np.floor(q[~outside])], axis=1)
    assert np.unique(cells, axis=0, return_counts=True)[1].max() > 1

    def run():
        return reduce_sum(mul(ops.ddc_forward(x, offsets, kernels, 3), proj))

    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [x.data, offsets.data, kernels.data])
    assert max_relative_error(x.grad, fd[0]) < 1e-4
    assert max_relative_error(offsets.grad, fd[1]) < 1e-4
    assert max_relative_error(kernels.grad, fd[2]) < 1e-4


def test_ddc_misaligned_fields_rejected():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError, match="offsets"):
        ops.ddc_forward(x, Tensor(np.zeros((1, 18, 5, 5))), Tensor(np.zeros((1, 1, 9, 4, 4))), 3)
    with pytest.raises(ShapeError, match="kernels"):
        ops.ddc_forward(x, Tensor(np.zeros((1, 18, 4, 4))), Tensor(np.zeros((1, 1, 8, 4, 4))), 3)


@pytest.mark.parametrize("k", [2, -1])
def test_dynamic_ops_reject_a_kernel_size_that_is_even_or_below_1(k):
    # Every field is aligned with K*K (or K^3) taps, so only K itself is wrong.
    x = Tensor(np.zeros((1, 2, 4, 4)))
    offsets = Tensor(np.zeros((1, 2 * k * k, 4, 4)))
    with pytest.raises(ShapeError, match="kernel sizes must be odd"):
        ops.ddc_forward(x, offsets, Tensor(np.zeros((1, 1, k * k, 4, 4))), k)
    if k > 0:
        x3 = Tensor(np.zeros((1, 2, 3, 4, 4)))
        kernels = Tensor(np.zeros((1, 1, k ** 3, 3, 4, 4)))
        with pytest.raises(ShapeError, match="kernel sizes must be odd"):
            ops.involution3d_forward(x3, kernels, Tensor(np.zeros(2)), k)


# ---------------------------------------------------------------------------
# DDC layer (both branches)
# ---------------------------------------------------------------------------


def test_ddc_layer_offsets_start_at_exact_zero():
    rng = np.random.default_rng(18)
    layer = ops.DDCLayer(4, rng=rng, dtype=np.float64)
    assert np.all(layer.offset_conv.weight.data == 0.0)
    assert np.all(layer.offset_conv.bias.data == 0.0)
    x = _t(rng, (1, 4, 4, 4))
    offsets = layer.offset_conv.forward(x)
    assert np.all(offsets.data == 0.0)
    # With zero offsets the layer is pure dynamic convolution: same output as
    # ddc_forward on explicitly zero offsets.
    kern = layer.kernel_conv.forward(x)
    kern = Tensor(kern.data.reshape(1, 1, 9, 4, 4))
    direct = ops.ddc_forward(x, Tensor(np.zeros((1, 18, 4, 4))), kern, 3)
    assert np.array_equal(layer.forward(x).data, direct.data)


def test_ddc_layer_constant_kernels_equal_standard_conv():
    # Kernel branch forced constant across positions (weights zero, bias set)
    # and offsets zero: the layer must act as a standard convolution whose
    # weight is that kernel placed on the channel diagonal.
    rng = np.random.default_rng(19)
    c, k = 3, 3
    layer = ops.DDCLayer(c, kernel_size=k, rng=rng, dtype=np.float64)
    taps = rng.uniform(-1, 1, k * k)
    layer.kernel_conv.weight.data[...] = 0.0
    layer.kernel_conv.bias.data[...] = taps
    x = _t(rng, (2, c, 5, 5))
    got = layer.forward(x).data

    w = np.zeros((c, c, k, k), dtype=np.float64)
    for ci in range(c):
        w[ci, ci] = taps.reshape(k, k)
    ref = ops.standard_conv(x, Tensor(w), Tensor(np.zeros(c))).data
    assert np.max(np.abs(got - ref)) < 1e-6


def test_ddc_layer_gradcheck():
    rng = np.random.default_rng(20)
    layer = ops.DDCLayer(2, rng=rng, dtype=np.float64)
    for _, p in layer.named_params():
        p.data[...] = rng.uniform(-0.5, 0.5, p.data.shape)
    layer.offset_conv.weight.data *= 0.5
    x = _t(rng, (1, 2, 4, 4))
    proj = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), dtype=np.float64)

    def run():
        return reduce_sum(mul(layer.forward(x), proj))

    params = [("x", x)] + list(layer.named_params())
    for _, p in params:
        p.grad = np.zeros_like(p.data) if isinstance(p, Param) else None
    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [p.data for _, p in params])
    for (name, p), g in zip(params, fd):
        assert max_relative_error(p.grad, g) < 1e-4, name


# ---------------------------------------------------------------------------
# Involution3D
# ---------------------------------------------------------------------------


def _inv_force_kernels(layer, tap_value_fn):
    """Zero the generator weights so kernels come purely from the span bias."""
    layer.reduce.weight.data[...] = 0.0
    layer.reduce.bias.data[...] = 0.0
    layer.span.weight.data[...] = 0.0
    k3 = layer.kernel_size ** 3
    for g in range(layer.groups):
        for tap in range(k3):
            layer.span.bias.data[g * k3 + tap] = tap_value_fn(tap)


def test_involution_one_hot_center_identity():
    rng = np.random.default_rng(21)
    layer = ops.Involution3D(4, kernel_size=3, groups=2, reduction=2, rng=rng, dtype=np.float64)
    center = 27 // 2
    _inv_force_kernels(layer, lambda tap: 1.0 if tap == center else 0.0)
    layer.bias.data[...] = 0.0
    x = _t(rng, (2, 4, 3, 4, 4))
    assert np.array_equal(layer.forward(x).data, x.data)


def test_involution_zero_kernels_bias_half():
    rng = np.random.default_rng(22)
    layer = ops.Involution3D(2, kernel_size=3, groups=1, reduction=2, rng=rng, dtype=np.float64)
    _inv_force_kernels(layer, lambda tap: 0.0)
    layer.bias.data[...] = 0.5
    x = _t(rng, (1, 2, 2, 3, 3))
    out = layer.forward(x).data
    assert np.all(out == 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_involution_agg_matches_quintuple_loop_oracle(dtype):
    rng = np.random.default_rng(23)
    x = _t(rng, (1, 2, 3, 4, 4), dtype=dtype)
    kernels = Tensor(rng.uniform(-1, 1, (1, 1, 27, 3, 4, 4)), dtype=dtype)
    bias = Tensor(rng.uniform(-1, 1, (2,)), dtype=dtype)
    out = ops.involution3d_forward(x, kernels, bias, 3)
    assert np.array_equal(
        out.data, involution3d_oracle(x.data, kernels.data, bias.data, 3)
    )


def test_involution_layer_gradcheck():
    rng = np.random.default_rng(24)
    layer = ops.Involution3D(4, kernel_size=3, groups=2, reduction=2, rng=rng, dtype=np.float64)
    x = _t(rng, (1, 4, 2, 3, 3))
    proj = Tensor(rng.uniform(-1, 1, (1, 4, 2, 3, 3)), dtype=np.float64)

    def run():
        return reduce_sum(mul(layer.forward(x), proj))

    params = [("x", x)] + list(layer.named_params())
    for _, p in params:
        p.grad = np.zeros_like(p.data) if isinstance(p, Param) else None
    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [p.data for _, p in params])
    for (name, p), g in zip(params, fd):
        assert max_relative_error(p.grad, g) < 1e-4, name


def test_involution_batch_permutation_equivariance():
    rng = np.random.default_rng(25)
    layer = ops.Involution3D(2, kernel_size=3, groups=1, reduction=2, rng=rng, dtype=np.float64)
    x = rng.uniform(-2, 2, (4, 2, 2, 3, 3))
    perm = np.array([2, 0, 3, 1])
    out = layer.forward(Tensor(x)).data
    out_perm = layer.forward(Tensor(x[perm])).data
    assert np.array_equal(out_perm, out[perm])


def test_involution_invalid_construction_rejected():
    with pytest.raises(ShapeError, match="reduction"):
        ops.Involution3D(3, reduction=2)
    with pytest.raises(ShapeError, match="groups"):
        ops.Involution3D(4, groups=3, reduction=2)


# ---------------------------------------------------------------------------
# Patch embed / patch back
# ---------------------------------------------------------------------------


def test_patch_embed_identity_when_p1_and_identity_projection():
    rng = np.random.default_rng(26)
    layer = ops.PatchEmbed(3, 1, 3, rng=rng, dtype=np.float64)
    layer.proj.weight.data[...] = np.eye(3)
    layer.proj.bias.data[...] = 0.0
    x = _t(rng, (2, 2, 3, 4, 4))
    assert np.array_equal(layer.forward(x).data, x.data)


def test_patch_embed_shape_contract():
    rng = np.random.default_rng(27)
    layer = ops.PatchEmbed(2, 2, 64, rng=rng, dtype=np.float32)
    x = _t(rng, (2, 4, 2, 16, 8), dtype=np.float32)
    assert layer.forward(x).shape == (2, 4, 64, 8, 4)


def test_patch_embed_matches_per_patch_matmul_oracle():
    rng = np.random.default_rng(28)
    layer = ops.PatchEmbed(2, 2, 5, rng=rng, dtype=np.float64)
    x = _t(rng, (1, 2, 2, 4, 6))
    out = layer.forward(x)
    ref = patch_embed_oracle(x.data, layer.proj.weight.data, layer.proj.bias.data, 2)
    assert np.array_equal(out.data, ref)


def test_patch_embed_indivisible_rejected_with_divisor():
    layer = ops.PatchEmbed(1, 3, 4)
    with pytest.raises(ShapeError, match="patch size 3 must divide"):
        layer.forward(Tensor(np.zeros((1, 1, 1, 4, 6), dtype=np.float32)))


def test_patch_back_shape_contract():
    rng = np.random.default_rng(29)
    layer = ops.PatchBack(4, 64, 2, 2, rng=rng, dtype=np.float32)
    x = _t(rng, (2, 4, 64, 8, 4), dtype=np.float32)
    assert layer.forward(x).shape == (2, 2, 16, 8)


def test_patch_back_identity_when_p1_t1():
    rng = np.random.default_rng(30)
    layer = ops.PatchBack(1, 3, 1, 3, rng=rng, dtype=np.float64)
    layer.proj.weight.data[...] = np.eye(3)
    layer.proj.bias.data[...] = 0.0
    x = _t(rng, (2, 1, 3, 4, 4))
    out = layer.forward(x)
    assert np.array_equal(out.data, x.data.reshape(2, 3, 4, 4))


def test_pixel_shuffle_matches_index_oracle():
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, (2, 8, 3, 2))
    out = ops.pixel_shuffle(Tensor(x), 2).data
    src = pixel_shuffle_index_oracle(x.shape, 2)
    assert np.array_equal(out, x.reshape(-1)[src])


def test_pixel_unshuffle_inverts_shuffle():
    rng = np.random.default_rng(32)
    x = Tensor(rng.uniform(-1, 1, (2, 12, 4, 6)))
    assert np.array_equal(
        ops.pixel_unshuffle(ops.pixel_shuffle(x, 2), 2).data, x.data
    )


# ---------------------------------------------------------------------------
# Shape preservation property over random small shapes
# ---------------------------------------------------------------------------


def test_shape_preservation_random_shapes():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4)) * 2
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        x2 = _t(rng, (n, c, h, w), dtype=np.float32)
        layer = ops.DDCLayer(c, rng=rng, dtype=np.float32)
        assert layer.forward(x2).shape == x2.shape
        conv = ops.StandardConv2d(c, c, 3, dtype=np.float32)
        assert conv.forward(x2).shape == x2.shape
        t = int(rng.integers(1, 4))
        x3 = _t(rng, (n, c, t, h, w), dtype=np.float32)
        inv = ops.Involution3D(c, reduction=2, rng=rng, dtype=np.float32)
        assert inv.forward(x3).shape == x3.shape
