"""Operator correctness: identities, degeneracies, exact oracle equivalence."""

import functools
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ddcn import cli, ops
from ddcn.numerics import (
    FlopCounter,
    KinkProbe,
    Param,
    ShapeError,
    Tape,
    Tensor,
    backward,
    mul,
    reduce_sum,
)
from ddcn.train import finite_difference, max_relative_error
from oracles import (
    bilinear_oracle,
    conv_vjp_oracle,
    ddc_oracle,
    involution3d_oracle,
    involution3d_vjp_oracle,
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


def _strided(a):
    """``a``'s values, bit for bit, in a view with a strided last axis: every
    other element of an array twice as wide whose other axes keep ``a``'s
    memory order (a transposed ``a`` stays transposed)."""
    view = np.empty_like(a, shape=a.shape[:-1] + (2 * a.shape[-1],))[..., ::2]
    view[...] = a
    return view


@pytest.fixture(params=["contiguous", "strided"])
def layout(request, monkeypatch):
    """Give the ops their inputs as made or, "strided", with each input
    Tensor's data swapped once for ``_strided`` data on the way in. The
    kernels cannot read a strided plane in place, so every conv, involution,
    DDC and bilinear sample then takes its one copy path. The Tensors stay
    the same objects, so gradients still land on them, and a swapped array
    stays theirs, so a finite difference taken on it still reaches the op."""
    if request.param == "strided":
        def strided_inputs(op):
            def run(*args, **kwargs):
                for a in args:
                    if (isinstance(a, Tensor) and a.data.ndim
                            and a.data.strides[-1] == a.data.itemsize):
                        a.data = _strided(a.data)
                return op(*args, **kwargs)
            return run

        for name in ("pointwise_conv", "standard_conv", "shared_conv", "bilinear_sample",
                     "ddc_forward", "involution3d_forward"):
            monkeypatch.setattr(ops, name, strided_inputs(getattr(ops, name)))
    return request.param


# Each dtype unforced, under its usual id, then with 2 and 3 forced shards.
SHARDED_DTYPES = [
    pytest.param(dtype, count, id=dtype.__name__ + ("" if count is None else f"-shards{count}"))
    for count in (None, 2, 3)
    for dtype in (np.float32, np.float64)
]
# Each dtype with 1, 2 and 3 forced shards.
FORCED_SHARDS = [
    pytest.param(dtype, count, id=f"{dtype.__name__}-shards{count}")
    for count in (1, 2, 3)
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


@pytest.mark.usefixtures("layout")
def test_pointwise_identity():
    rng = np.random.default_rng(0)
    x = _t(rng, (2, 4, 3, 3), dtype=np.float32)
    w = Tensor(np.eye(4, dtype=np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    out = ops.pointwise_conv(x, w, b)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_pointwise_matches_loop_oracle_exactly(dtype, shards):
    rng = np.random.default_rng(1)
    x = _t(rng, (1, 3, 4, 4), dtype=dtype)
    w = _t(rng, (5, 3), dtype=dtype)
    b = _t(rng, (5,), dtype=dtype)
    out = ops.pointwise_conv(x, w, b)
    assert np.array_equal(out.data, pointwise_conv_oracle(x.data, w.data, b.data))


@pytest.mark.usefixtures("layout")
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


def test_pointwise_rejects_more_than_three_spatial_axes():
    # The compiled core takes one to three spatial axes.
    with pytest.raises(ShapeError, match="1 to 3 spatial axes"):
        ops.pointwise_conv(Tensor(np.zeros((1, 2, 2, 2, 2, 2))), Tensor(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# Standard convolution
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("layout")
def test_standard_conv_k1_equals_pointwise_exactly():
    rng = np.random.default_rng(3)
    x = _t(rng, (2, 3, 4, 4), dtype=np.float32)
    w1 = _t(rng, (4, 3), dtype=np.float32)
    b = _t(rng, (4,), dtype=np.float32)
    wk = Tensor(w1.data.reshape(4, 3, 1, 1))
    assert np.array_equal(
        ops.standard_conv(x, wk, b).data, ops.pointwise_conv(x, w1, b).data
    )


@pytest.mark.usefixtures("layout")
def test_standard_conv_delta_kernel_identity():
    rng = np.random.default_rng(4)
    x = _t(rng, (2, 3, 5, 5), dtype=np.float32)
    w = np.zeros((3, 3, 3, 3), dtype=np.float32)
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = ops.standard_conv(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_standard_conv_matches_loop_oracle_exactly(dtype, shards):
    rng = np.random.default_rng(5)
    x = _t(rng, (2, 3, 5, 4), dtype=dtype)
    w = _t(rng, (4, 3, 3, 3), dtype=dtype)
    b = _t(rng, (4,), dtype=dtype)
    out = ops.standard_conv(x, w, b)
    assert np.array_equal(out.data, standard_conv_oracle(x.data, w.data, b.data))


@pytest.mark.usefixtures("layout")
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
@pytest.mark.usefixtures("layout")
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


def _subnormal(rng, a):
    """``a`` with about half its entries scaled by the smallest normal number:
    those below 1 in magnitude become subnormal, zeros keep their sign."""
    return np.where(rng.random(a.shape) < 0.5, a * np.finfo(a.dtype).tiny, a).astype(a.dtype)


def _signed_zeros(rng, shape, dtype):
    """Uniform values in (-1, 1), a third of them +0.0 or -0.0."""
    a = rng.uniform(-1.0, 1.0, shape).astype(dtype)
    a[rng.random(shape) < 0.15] = 0
    a[rng.random(shape) < 0.15] = -0.0
    return a


def _signed_zero_case(rng, shape, dtype, subnormal=False):
    """A non-contiguous (N, C, T, H, W) input with an all-zero corner.

    The data is laid out (N, T, C, H, W) and viewed transposed, so the op
    copies it to C order before a kernel reads it (the model's
    ``transpose`` is materialized, so it never passes such a view). About a
    third of the values are zero and a 3x3x3 corner is zero in every
    channel, so zero inputs meet negative weights and some outputs sum only
    -0.0 products. With ``subnormal``, about half the values are scaled
    toward the subnormal range (``_subnormal``).
    """
    n, c, t, h, w = shape
    base = rng.uniform(-2.0, 2.0, (n, t, c, h, w)).astype(dtype)
    base[rng.random(base.shape) < 0.3] = 0
    base[:, :3, :, :3, :3] = 0
    if subnormal:
        base = _subnormal(rng, base)
    view = base.transpose(0, 2, 1, 3, 4)
    assert not view.flags.c_contiguous
    return Tensor._wrap(view)


def _weight(rng, shape, dtype, subnormal, negative_first=True):
    """A weight (or bias) whose first output channel is non-positive, with
    subnormal entries too if ``subnormal``."""
    w = _t(rng, shape, dtype=dtype)
    if negative_first:
        w.data[0] = -np.abs(w.data[0])
    if subnormal:
        w.data[...] = _subnormal(rng, w.data)
    return w


# Each signed-zero case runs as is, then with subnormal inputs and weights:
# products of two subnormals underflow to signed zeros, and sums of
# subnormals are exact, so flushing either to zero changes bits.
@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_pointwise_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, with_bias):
    rng = np.random.default_rng(40)
    for subnormal in (False, True):
        x = _signed_zero_case(rng, (2, 3, 4, 4, 5), dtype, subnormal)
        # c_out > c_in; at all-zero positions, channel 0 sums only -0.0
        w = _weight(rng, (7, 3), dtype, subnormal)
        b = _weight(rng, (7,), dtype, subnormal, negative_first=False) if with_bias else None
        out = ops.pointwise_conv(x, w, b).data
        ref = pointwise_conv_oracle(x.data, w.data, None if b is None else b.data)
        assert out.flags.c_contiguous
        assert np.array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("dtype, shards", SHARDED_DTYPES, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_standard_conv_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, with_bias):
    rng = np.random.default_rng(41)
    for subnormal in (False, True):
        x = _signed_zero_case(rng, (1, 2, 4, 5, 5), dtype, subnormal)
        b = _weight(rng, (5,), dtype, subnormal, negative_first=False) if with_bias else None
        bd = None if b is None else b.data
        for shape in ((5, 2, 3, 3, 3), (5, 2, 1, 1, 1)):
            w = _weight(rng, shape, dtype, subnormal)
            out = ops.standard_conv(x, w, b).data
            assert out.flags.c_contiguous
            assert np.array_equal(_bits(out), _bits(standard_conv_oracle(x.data, w.data, bd)))
        x2 = Tensor._wrap(x.data[:, :, 0])  # 2D, still non-contiguous
        w2 = _weight(rng, (5, 2, 3, 3), dtype, subnormal)
        out2 = ops.standard_conv(x2, w2, b).data
        assert np.array_equal(_bits(out2), _bits(standard_conv_oracle(x2.data, w2.data, bd)))
        # The shared conv, the core's one-channel case, on the same inputs: a
        # non-positive filter sums only -0.0 products at all-zero positions.
        b1 = _weight(rng, (1,), dtype, subnormal, negative_first=False) if with_bias else None
        for xs, ws in ((x, (3, 3, 3)), (x2, (3, 3))):
            w1 = _weight(rng, ws, dtype, subnormal, negative_first=False)
            w1.data[...] = -np.abs(w1.data)
            out1 = ops.shared_conv(xs, w1, b1).data
            ref1 = shared_conv_oracle(xs.data, w1.data, None if b1 is None else b1.data)
            assert out1.flags.c_contiguous
            assert np.array_equal(_bits(out1), _bits(ref1))


@pytest.mark.parametrize("shards", [1, 2, 3], indirect=True, ids=lambda c: f"shards{c}")
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
@pytest.mark.usefixtures("layout")
def test_sharded_conv_bits_match_oracle_for_any_batch(n, shards):
    # Batches smaller than, equal to and not divisible by the shard count,
    # and an empty one: the partition never changes a bit.
    # The shared conv shards the N*C planes, and its last two kernels are
    # wider than the input: 5x5 on 4x4, and 3x3x3 on a size-1 axis.
    rng = np.random.default_rng(42)
    pointwise = (ops.pointwise_conv, pointwise_conv_oracle)
    standard = (ops.standard_conv, standard_conv_oracle)
    shared = (ops.shared_conv, shared_conv_oracle)
    for (op, oracle), x_shape, w_shape, b_shape in [
        (pointwise, (n, 3, 4, 5), (4, 3), (4,)), (pointwise, (n, 3, 2, 3, 4), (4, 3), (4,)),
        (standard, (n, 3, 4, 5), (4, 3, 3, 3), (4,)),
        (standard, (n, 2, 3, 4, 4), (3, 2, 3, 3, 3), (3,)),
        (shared, (n, 3, 4, 5), (3, 3), (1,)), (shared, (n, 2, 3, 4, 4), (3, 3, 3), (1,)),
        (shared, (n, 2, 4, 4), (5, 5), (1,)), (shared, (n, 3, 1, 4, 4), (3, 3, 3), (1,)),
    ]:
        x = Tensor._wrap(rng.uniform(-2.0, 2.0, x_shape).astype(np.float32))  # N=0 allowed
        w = _t(rng, w_shape, dtype=np.float32)
        b = _t(rng, b_shape, dtype=np.float32)
        out, ref = op(x, w, b).data, oracle(x.data, w.data, b.data)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert np.array_equal(_bits(out), _bits(ref))


# In-plane positions: under one tile, one float64 tile, a float32 tile and
# one, whole float32 tiles, and whole tiles and five.
@pytest.mark.parametrize("plane", [(1, 1), (4, 8), (5, 13), (8, 16), (7, 19)],
                         ids=lambda p: f"plane{p[0] * p[1]}")
@pytest.mark.parametrize("c_out", [1, 3, 4, 5, 8, 11])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bits_match_oracle_across_channel_blocks_and_position_tiles(dtype, c_out, plane):
    # The compiled contraction runs output channels four at a time, then the
    # rest one by one, over tiles of 64 float32 or 32 float64 in-plane
    # positions, the last one partial: no split changes a bit.
    rng = np.random.default_rng(59)
    x = Tensor._wrap(_signed_zeros(rng, (1, 2, *plane), dtype))
    w = Tensor._wrap(_signed_zeros(rng, (c_out, 2, 3, 3), dtype))
    b = Tensor._wrap(_signed_zeros(rng, (c_out,), dtype))
    out = ops.standard_conv(x, w, b).data
    assert np.array_equal(_bits(out), _bits(standard_conv_oracle(x.data, w.data, b.data)))


# Planes of 1, 4, 16 and 15 positions, under one tile: T of them make one
# tile or several, so tiles start and end inside planes.
@pytest.mark.parametrize("index, plane", [
    pytest.param(i, p, id=f"plane{p[0]}x{p[1]}")
    for i, p in enumerate([(1, 1), (2, 2), (4, 4), (3, 5)])
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bits_match_oracle_when_position_tiles_cross_planes(dtype, index, plane):
    # The compiled contraction walks a batch element's T*H*W positions flat,
    # in tiles of 64 float32 or 32 float64 positions that run across the T
    # planes. A tap whose read leaves the volume along T, H or W adds no
    # term, wherever its position falls in a tile: no walk changes a bit.
    rng = np.random.default_rng(61)

    def draw(shape):  # signed zeros, about half of the rest subnormal
        return _subnormal(rng, _signed_zeros(rng, shape, dtype))

    def check(op, oracle, x, w, b):
        ref = oracle(x, w, b)
        for count in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "_SHARD_MIN_MACS", 0)
                mp.setattr(ops, "_POOL_SIZE", count)
                out = op(*(Tensor._wrap(a) for a in (x, w, b))).data
            assert np.array_equal(_bits(out), _bits(ref)), (op.__name__, x.shape, w.shape, count)

    c_outs = (1, 3, 4, 5)
    for i, t in enumerate((1, 3, 5, 17)):
        x = draw((2, 2, t, *plane))
        for c_out in c_outs:
            check(ops.pointwise_conv, pointwise_conv_oracle, x, draw((c_out, 2)), draw((c_out,)))
        # each plane pairs its T values with another output-channel count
        c_out = c_outs[(i + index) % len(c_outs)]
        for k in (3, 5):
            check(ops.standard_conv, standard_conv_oracle, x, draw((c_out, 2, k, k, k)),
                  draw((c_out,)))
        check(ops.shared_conv, shared_conv_oracle, x, draw((3, 3, 3)), draw((1,)))


def test_compiled_forward_peak_is_its_result(monkeypatch):
    # The compiled kernel allocates no accumulator, product or row buffer in
    # Python: serial or sharded, a forward peaks at its result plus small
    # objects (the kernel's int64 geometry, views, the extra shard's Future).
    rng = np.random.default_rng(44)
    x = _t(rng, (8, 64, 32, 32), dtype=np.float32)
    pointwise = (ops.pointwise_conv, (x, _t(rng, (32, 64), dtype=np.float32),
                                      _t(rng, (32,), dtype=np.float32)))
    shared = (ops.shared_conv, (x, _t(rng, (3, 3), dtype=np.float32),
                                _t(rng, (1,), dtype=np.float32)))
    for op, args in (pointwise, shared):
        result_bytes = op(*args).data.nbytes
        slack = result_bytes // 64
        peaks = []
        for count in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "_SHARD_MIN_MACS", 0)
                mp.setattr(ops, "_POOL_SIZE", count)
                op(*args)  # start the pool's threads untraced
                tracemalloc.start()
                try:
                    op(*args)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert result_bytes <= peaks[0] <= result_bytes + slack
        assert peaks[1] <= result_bytes + slack


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, oracle, shapes", [
    (ops.standard_conv, standard_conv_oracle, [(2, 3, 4, 5), (4, 3, 3, 3), (4,)]),
    (ops.standard_conv, standard_conv_oracle, [(2, 2, 3, 4, 5), (3, 2, 3, 3, 3), (3,)]),
    (ops.shared_conv, shared_conv_oracle, [(2, 3, 4, 5), (3, 3), (1,)]),
    (ops.shared_conv, shared_conv_oracle, [(2, 2, 3, 4, 5), (3, 3, 3), (1,)]),
    (lambda x, k, b: ops.involution3d_forward(x, k, b, 3),
     lambda x, k, b: involution3d_oracle(x, k, b, 3), [(2, 4, 2, 3, 5), (2, 2, 27, 2, 3, 5), (4,)]),
    (lambda x, o, k: ops.ddc_forward(x, o, k, 3),
     lambda x, o, k: ddc_oracle(x, o, k, 3), [(2, 4, 4, 5), (2, 18, 4, 5), (2, 2, 9, 4, 5)]),
], ids=["standard_conv2d", "standard_conv3d", "shared_conv2d", "shared_conv3d", "involution3d",
        "ddc"])
def test_strided_inputs_give_the_oracle_bits_and_the_contiguous_gradients(op, oracle, shapes,
                                                                          dtype):
    # The kernels read aligned, C-contiguous arrays, so every op copies an
    # input with a strided last axis once: its forward keeps the oracle's
    # bits, and its gradients are bit for bit those of the same call on
    # contiguous copies.
    rng = np.random.default_rng(58)
    args = [rng.uniform(-2, 2, s).astype(dtype) for s in shapes]
    strided = [_strided(a) for a in args]
    assert not strided[0].flags.c_contiguous
    out = op(*(Tensor._wrap(a) for a in strided)).data
    assert np.array_equal(_bits(out), _bits(oracle(*strided)))
    g = rng.uniform(-1, 1, out.shape).astype(dtype)
    for got, want in zip(_grads(op, strided, g), _grads(op, args, g), strict=True):
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# Building and loading the compiled kernel
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty kernel cache under ``tmp_path`` and a loader that has not
    loaded anything yet. Returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(ops, "_load_kernel", functools.cache(ops._load_kernel.__wrapped__))
    return tmp_path / "ddcn"


def test_kernel_is_built_once_then_loaded_from_the_cache(fresh_loader, monkeypatch):
    calls, run = [], subprocess.run

    def spy(argv, *args, **kwargs):
        calls.append(list(argv))
        return run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    kernels = ops._load_kernel()
    assert set(kernels) == {(name, np.dtype(dtype))
                            for name in ("contract", "contract_wgrad", "involution",
                                         "involution_vjp", "ddc", "ddc_vjp")
                            for dtype in (np.float32, np.float64)}
    assert any("-o" in argv for argv in calls)
    built = sorted(fresh_loader.iterdir())
    assert len(built) == 1 and fresh_loader.stat().st_mode & 0o777 == 0o700
    # A second process: the compiler is asked for its version, the cache
    # key, and nothing is built.
    calls.clear()
    ops._load_kernel.cache_clear()
    assert set(ops._load_kernel()) == set(kernels)
    assert calls == [[ops._CC, "--version"]]
    assert sorted(fresh_loader.iterdir()) == built


@pytest.mark.parametrize("fault", ["missing-compiler", "failing-compiler", "unwritable-cache"])
def test_kernel_fault_raises_kernel_build_error_and_the_cli_exits_2(fault, fresh_loader, tmp_path,
                                                                    monkeypatch, capsys):
    # No numpy twin runs: every conv raises, naming the cause (the
    # compiler's stderr for a failed build), leaves no temporary file, and
    # the CLI reports an I/O error without a traceback.
    if fault == "missing-compiler":
        cause = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(ops, "_CC", cause)
    elif fault == "failing-compiler":
        cc = tmp_path / "failing-cc"
        cc.write_text('#!/bin/sh\nif [ "$1" = --version ]; then echo failing-cc 1.0; exit 0; fi\n'
                      'echo "failing-cc: error" >&2\nexit 1\n')
        cc.chmod(0o755)
        monkeypatch.setattr(ops, "_CC", str(cc))
        cause = "failing-cc: error"
    else:
        fresh_loader.write_text("")  # a file where the cache directory goes
        cause = str(fresh_loader)
    rng = np.random.default_rng(45)
    x = _t(rng, (2, 3, 4, 5), dtype=np.float32)
    with pytest.raises(ops.KernelBuildError, match=re.escape(cause)):
        ops.standard_conv(x, _t(rng, (4, 3, 3, 3), dtype=np.float32))
    assert cli.main(["profile", "--time", "--shape", "1,4,2,8,8"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("io error: ") and err.count("\n") == 1 and cause in err
    assert [p.name for p in tmp_path.rglob("*") if p.suffix == ".so"] == []


def test_two_processes_building_into_one_empty_cache_both_load_the_kernel(tmp_path):
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import numpy as np\n"
        "from ddcn import ops\n"
        "from ddcn.numerics import Tensor\n"
        "from oracles import standard_conv_oracle\n"
        "rng = np.random.default_rng(46)\n"
        "x, w = (Tensor(rng.uniform(-2, 2, s).astype(np.float32)) for s in [(2, 3, 4, 5), (4, 3, 3, 3)])\n"
        "out = ops.standard_conv(x, w).data\n"
        "ref = standard_conv_oracle(x.data, w.data)\n"
        "sys.exit(0 if np.array_equal(out.view(np.uint32), ref.view(np.uint32)) else 'bits')\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    paths = [str(Path(ops.__file__).parents[1]), str(Path(__file__).parent)]
    procs = [subprocess.Popen([sys.executable, "-c", script, *paths], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    results = [(p.wait(timeout=300), p.stderr.read()) for p in procs]
    for p in procs:
        p.stdout.close()
        p.stderr.close()
    assert results == [(0, ""), (0, "")]
    assert len(list((tmp_path / "ddcn").iterdir())) == 1


def test_kernel_source_builds_warning_free_without_fused_multiply_adds(tmp_path):
    # The forward bits rest on one rounded multiply and one rounded add per
    # term: a fused multiply-add rounds once and changes them.
    asm = tmp_path / "exact_conv.s"
    proc = subprocess.run([ops._CC, *ops._CFLAGS, "-Wall", "-Wextra", "-Werror", "-S",
                           "-o", str(asm), str(ops._KERNEL_SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # x86 vfmadd/vfmsub/vfnmadd/vfnmsub, aarch64 fmadd/fmsub/fnmadd/fnmsub/fmla/fmls
    fused = re.findall(r"^\s*(v?fn?m(?:add|sub)\w*|fml[as]\b)", asm.read_text(), re.M)
    assert fused == []


def test_kernel_cache_key_holds_the_cpu_features_of_an_arm_host(fresh_loader, monkeypatch):
    # /proc/cpuinfo names the CPU's features "flags" on x86 and "Features"
    # on aarch64: two ARM hosts that differ there must not share a
    # -march=native build.
    real_open = open

    def cpuinfo(features):
        def fake_open(path, *args, **kwargs):
            if path == "/proc/cpuinfo":
                return io.BytesIO(b"processor\t: 0\nBogoMIPS\t: 50.00\nFeatures\t: "
                                  + features + b"\nCPU implementer\t: 0x41\n")
            return real_open(path, *args, **kwargs)
        return fake_open

    for features in (b"fp asimd evtstrm aes", b"fp asimd evtstrm aes sve"):
        monkeypatch.setattr(ops, "open", cpuinfo(features), raising=False)
        ops._load_kernel.cache_clear()
        ops._load_kernel()
    assert len(list(fresh_loader.glob("*.so"))) == 2


def _every_entry_point(rng) -> int:
    """Runs every entry point of ``exact_conv.c`` in float32 and float64,
    in 1 and 2 forced shards, for batches of 0, 1 and 3, on planes of 1x1,
    2x3 and 5x13 with K=3 and K=5 taps (clipped on the small planes), each
    op's first input as made and transposed (copied before a kernel reads
    it). Every op's VJP runs too. Returns the number of op calls."""
    calls, vjps = 0, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "record", lambda inputs, out, vjp: vjps.append(vjp))
        mp.setattr(ops, "_SHARD_MIN_MACS", 0)
        for dtype, shards, n, (h, w), k in itertools.product(
                (np.float32, np.float64), (1, 2), (0, 1, 3), ((1, 1), (2, 3), (5, 13)), (3, 5)):
            mp.setattr(ops, "_POOL_SIZE", shards)
            cases = [  # (op, input shapes)
                (ops.pointwise_conv, [(n, 3, w), (4, 3), (4,)]),
                (ops.standard_conv, [(n, 3, h, w), (5, 3, k, k), (5,)]),
                (ops.standard_conv, [(n, 2, 2, h, w), (3, 2, k, k, k), (3,)]),
                (ops.shared_conv, [(n, 3, h, w), (k, k), (1,)]),
                (ops.shared_conv, [(n, 3, 2, h, w), (k, k, k), (1,)]),
                (lambda x, kern, b: ops.involution3d_forward(x, kern, b, k),
                 [(n, 4, 2, h, w), (n, 2, k ** 3, 2, h, w), (4,)]),
                (lambda x, off, kern: ops.ddc_forward(x, off, kern, k),
                 [(n, 4, h, w), (n, 2 * k * k, h, w), (n, 2, k * k, h, w)]),
            ]
            if n:
                cases.append((lambda x: ops.bilinear_sample(x, n - 1, 3, h - 0.5, -0.25),
                              [(n, 4, h, w)]))
            for (op, shapes), transposed in itertools.product(cases, (False, True)):
                args = [rng.uniform(-2, 2, s).astype(dtype) for s in shapes]
                if transposed:
                    args[0] = np.ascontiguousarray(args[0].swapaxes(0, 1)).swapaxes(0, 1)
                out = op(*(Tensor._wrap(a) for a in args)).data
                vjps.pop()(rng.uniform(-1, 1, out.shape).astype(dtype))
                calls += 1
    return calls


def test_every_entry_point_runs_clean_under_address_and_undefined_behavior_sanitizers(tmp_path):
    # Built with ASan and UBSan, a kernel that reads or writes outside the
    # arrays it is given, or does anything undefined, aborts the run.
    runtime = subprocess.run([ops._CC, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, timeout=60).stdout.strip()
    if not (os.path.isabs(runtime) and os.path.isfile(runtime)):
        pytest.skip(f"{ops._CC} has no AddressSanitizer runtime")
    # The kernels are counted per (entry point, dtype) through the dict that
    # _load_kernel returns, so an entry point that no op reaches fails here.
    script = (
        "import collections, json, sys; sys.path[:0] = sys.argv[2:]\n"
        "import numpy as np\n"
        "from ddcn import ops\n"
        "ops._CFLAGS += ('-fsanitize=address,undefined', '-fno-sanitize-recover=all',\n"
        "                '-fno-omit-frame-pointer')\n"
        "calls = collections.Counter()\n"
        "def counted(key, fn):\n"
        "    def run(*args):\n"
        "        calls[key] += 1\n"
        "        return fn(*args)\n"
        "    return run\n"
        "kernels = {key: counted(key, fn) for key, fn in ops._load_kernel().items()}\n"
        "ops._load_kernel = lambda: kernels\n"
        "import test_ops\n"
        "print(test_ops._every_entry_point(np.random.default_rng(60)))\n"
        "with open(sys.argv[1], 'w') as f:\n"
        "    json.dump([[name, str(dtype), n] for (name, dtype), n in calls.items()], f)\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), LD_PRELOAD=runtime,
               ASAN_OPTIONS="detect_leaks=0")
    paths = [str(Path(ops.__file__).parents[1]), str(Path(__file__).parent)]
    calls = tmp_path / "calls.json"
    proc = subprocess.run([sys.executable, "-c", script, str(calls), *paths], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    # 72 settings of 7 ops, two layouts each, plus bilinear_sample where n > 0
    assert int(proc.stdout) == 72 * 7 * 2 + 48 * 2
    ran = {(name, dtype) for name, dtype, n in json.loads(calls.read_text()) if n}
    assert ran == {(name, dtype) for name in ops._ENTRY_POINTS for dtype in ("float32", "float64")}
    assert len(list((tmp_path / "ddcn").glob("*.so"))) == 1


# ---------------------------------------------------------------------------
# Shared-filter convolution
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_bilinear_lattice_points_exact():
    rng = np.random.default_rng(9)
    x = _t(rng, (2, 3, 4, 5), dtype=np.float32)
    for (n, c, r, q) in [(0, 0, 0, 0), (1, 2, 3, 4), (0, 1, 2, 2)]:
        out = ops.bilinear_sample(x, n, c, float(r), float(q))
        assert out.data[0] == x.data[n, c, r, q]


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_bilinear_out_of_bounds_zero():
    rng = np.random.default_rng(10)
    x = _t(rng, (1, 1, 3, 3))
    assert ops.bilinear_sample(x, 0, 0, -1.0, -1.0).data[0] == 0.0
    assert ops.bilinear_sample(x, 0, 0, 10.0, 1.0).data[0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("layout")
def test_bilinear_at_a_non_finite_or_huge_coordinate_is_nan_or_plus_zero_without_a_warning(dtype):
    # Corners are tested on the floats, never cast to an integer first: a
    # NaN or infinite coordinate reads no cell and gives NaN, and one far
    # off the grid reads +0 cells. Tier-1 turns a numpy warning into an error.
    rng = np.random.default_rng(57)
    x = _t(rng, (2, 3, 4, 5), dtype=dtype)
    for value, want in [(np.nan, np.nan), (np.inf, np.nan), (-np.inf, np.nan),
                        (1e30, 0.0), (-1e30, 0.0)]:
        for r, q in [(value, 1.5), (2.0, value), (value, value)]:
            rt, qt = (Tensor._wrap(np.array([v], dtype=dtype)) for v in (r, q))
            with Tape() as tape:
                out = ops.bilinear_sample(x, 1, 2, rt, qt)
            backward(out, tape)
            if np.isnan(want):
                assert np.isnan(out.data).all()
            else:
                assert _bits(out.data).tolist() == [0]


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_bilinear_matches_oracle_random():
    rng = np.random.default_rng(12)
    x = _t(rng, (1, 2, 5, 5))
    for _ in range(30):
        r = rng.uniform(-1.5, 5.5)
        q = rng.uniform(-1.5, 5.5)
        got = ops.bilinear_sample(x, 0, 1, r, q).data[0]
        assert got == bilinear_oracle(x.data[0, 1], r, q)


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_ddc_zero_offsets_one_hot_center_is_identity():
    rng = np.random.default_rng(14)
    x = _t(rng, (2, 4, 5, 5))
    offsets = Tensor(np.zeros((2, 18, 5, 5)))
    kernels = Tensor(_one_hot_center_kernels(2, 2, 3, 5, 5))
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, x.data)


@pytest.mark.usefixtures("layout")
def test_ddc_uniform_kernels_average_with_zero_padding():
    x = Tensor(np.ones((1, 1, 3, 3)))
    offsets = Tensor(np.zeros((1, 18, 3, 3)))
    kernels = Tensor(np.full((1, 1, 9, 3, 3), 1.0 / 9.0))
    out = ops.ddc_forward(x, offsets, kernels, 3).data[0, 0]
    assert abs(out[1, 1] - 1.0) < 1e-12
    assert out[0, 0] < 1.0 and out[0, 1] < 1.0 and out[2, 2] < 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("layout")
def test_ddc_matches_loop_oracle_exactly(dtype):
    rng = np.random.default_rng(15)
    x = _t(rng, (1, 1, 5, 5), dtype=dtype)
    offsets = Tensor(rng.uniform(-1, 1, (1, 18, 5, 5)), dtype=dtype)
    kernels = Tensor(rng.uniform(-1, 1, (1, 1, 9, 5, 5)), dtype=dtype)
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, ddc_oracle(x.data, offsets.data, kernels.data, 3))


@pytest.mark.usefixtures("layout")
def test_ddc_grouped_matches_oracle():
    rng = np.random.default_rng(16)
    x = _t(rng, (2, 4, 4, 4))
    offsets = Tensor(rng.uniform(-1, 1, (2, 18, 4, 4)))
    kernels = Tensor(rng.uniform(-1, 1, (2, 2, 9, 4, 4)))
    out = ops.ddc_forward(x, offsets, kernels, 3)
    assert np.array_equal(out.data, ddc_oracle(x.data, offsets.data, kernels.data, 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("layout")
def test_ddc_matches_loop_oracle_bitwise(dtype):
    # Compared as raw bits, so a zero of the wrong sign counts as a mismatch.
    # Offsets reach 4 cells: some taps have all four corners off the grid and
    # some two or three. Integer offsets put some samples exactly on lattice
    # points.
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


def _ddc_case(rng, n, c, h, w, groups, dtype, subnormal=False):
    """DDC fields: an input viewed transposed from (C, N, H, W), a third of
    it +0.0 or -0.0 (about half of it subnormal with ``subnormal``), offsets
    reaching 4 cells with integer offsets for taps 2 and 3, and kernels that
    are non-positive in batch 0 (subnormal too with ``subnormal``)."""
    base = _signed_zeros(rng, (c, n, h, w), dtype) * dtype(2)
    x = (_subnormal(rng, base) if subnormal else base).transpose(1, 0, 2, 3)
    od = rng.uniform(-4, 4, (n, 18, h, w)).astype(dtype)
    od[:, 4:8] = np.round(od[:, 4:8])
    kd = rng.uniform(-1, 1, (n, groups, 9, h, w)).astype(dtype)
    kd[:1] = -np.abs(kd[:1])
    return x, od, (_subnormal(rng, kd) if subnormal else kd)


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("dtype, shards", FORCED_SHARDS, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_ddc_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, groups):
    # Batches smaller than, equal to and not divisible by the shard count,
    # and an empty one; taps with all four corners off the grid and on
    # lattice points; zero samples met by non-positive kernels.
    rng = np.random.default_rng(52)
    h, w = 4, 5
    for n in (0, 1, 3, 5):
        for subnormal in (False, True):
            x, od, kd = _ddc_case(rng, n, 4, h, w, groups, dtype, subnormal)
            assert n < 2 or not x.flags.c_contiguous  # n = 1 is contiguous
            taps = np.arange(9).reshape(1, 9, 1, 1)
            r = np.arange(h).reshape(1, 1, h, 1) + taps // 3 - 1 + od[:, 0::2]
            q = np.arange(w).reshape(1, 1, 1, w) + taps % 3 - 1 + od[:, 1::2]
            assert n == 0 or ((r < -1) | (r >= h) | (q < -1) | (q >= w)).any()
            out = ops.ddc_forward(Tensor._wrap(x), Tensor._wrap(od), Tensor._wrap(kd), 3).data
            assert out.flags.c_contiguous
            assert np.array_equal(_bits(out), _bits(ddc_oracle(x, od, kd, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("layout")
def test_compiled_ddc_gives_nan_exactly_where_an_offset_is_not_finite(dtype):
    # Corners are tested on the floats: a NaN or infinite coordinate reads
    # no cell and makes NaN at its position, in every channel; a finite one
    # far off the grid reads +0 cells. Every other bit is the oracle's.
    rng = np.random.default_rng(53)
    n, c, h, w = 2, 4, 4, 5
    x = _signed_zeros(rng, (n, c, h, w), dtype)
    od = rng.uniform(-1.5, 1.5, (n, 18, h, w)).astype(dtype)
    kd = rng.uniform(-1, 1, (n, 2, 9, h, w)).astype(dtype)
    od[0, 0, 0, 0], od[1, 17, 3, 4] = 1e30, -1e30
    finite = od.copy()
    bad = np.zeros((n, 1, h, w), dtype=bool)
    for (b, i, y, xx), value in [((0, 4, 1, 2), np.nan), ((1, 9, 2, 0), np.inf),
                                 ((1, 0, 3, 3), -np.inf), ((0, 17, 0, 4), np.nan)]:
        od[b, i, y, xx] = value
        bad[b, 0, y, xx] = True
    out = ops.ddc_forward(Tensor._wrap(x), Tensor._wrap(od), Tensor._wrap(kd), 3).data
    bad = np.broadcast_to(bad, out.shape)
    assert np.array_equal(np.isnan(out), bad)
    ref = ddc_oracle(x, finite, kd, 3)
    assert np.array_equal(_bits(out)[~bad], _bits(ref)[~bad])


@pytest.mark.usefixtures("layout")
def test_ddc_under_a_kink_probe_reports_its_nearest_lattice_distance():
    # The smallest distance of any tap's (row, col) to a lattice line; an
    # empty batch reports nothing (it once raised ValueError from a
    # reduction over no points).
    rng = np.random.default_rng(56)
    x, od, kd = (Tensor._wrap(rng.uniform(-1, 1, s)) for s in [(2, 2, 4, 4), (2, 18, 4, 4),
                                                                (2, 1, 9, 4, 4)])
    with KinkProbe() as probe:
        ops.ddc_forward(x, od, kd, 3)
    taps = np.arange(9).reshape(1, 9, 1, 1)
    r = np.arange(4).reshape(1, 1, 4, 1) + taps // 3 - 1 + od.data[:, 0::2]
    q = np.arange(4).reshape(1, 1, 1, 4) + taps % 3 - 1 + od.data[:, 1::2]
    nearest = min(np.abs(r - np.round(r)).min(), np.abs(q - np.round(q)).min())
    assert probe.margins == {"bilinear_coord": nearest}
    empty = [Tensor._wrap(np.zeros((0,) + a.shape[1:])) for a in (x, od, kd)]
    with KinkProbe() as probe:
        assert ops.ddc_forward(*empty, 3).shape == (0, 2, 4, 4)
    assert probe.margins == {}
    # bilinear_sample, the DDC at K=1 on one plane, reports its own point
    # only: every other position of its plane sits on a lattice point.
    with KinkProbe() as probe:
        ops.bilinear_sample(x, 1, 0, 1.3, 2.45)
    assert probe.margins == {"bilinear_coord": min(1.3 - 1.0, 2.45 - 2.0)}


def _grads(op, args, g, shards=None):
    """The gradients of one taped ``op`` of the arrays ``args`` at output
    gradient ``g``, run in ``shards`` forced shards."""
    vjps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "record", lambda inputs, out, vjp: vjps.append(vjp))
        if shards is not None:
            mp.setattr(ops, "_SHARD_MIN_MACS", 0)
            mp.setattr(ops, "_POOL_SIZE", shards)
        op(*(Tensor._wrap(a) for a in args))
        return vjps[0](g)


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
    ops._load_kernel()  # count the op, not the loader's first-call objects
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
@pytest.mark.usefixtures("layout")
def test_conv_vjp_peak_bytes_bounded(op, shapes, bound, monkeypatch):
    # Peak bytes a VJP allocates, as a multiple of its input's bytes. Taps
    # are clipped to the input, so no zero-padded input or gradient exists.
    # The multi-tap fixed-weight convs form the weight gradient in compiled
    # calls that allocate only its small result, then the input gradient in
    # one compiled call: 1.0-1.1x at these shapes. The involution peaks at
    # its two gradients, 2.7x (its kernel gradient outsizes the input), and
    # the pointwise conv at 1.07x, its one tap being its input gradient. A
    # padded input and gradient take the first four to 3.5-7x. Forming the
    # pointwise weight gradient while its input gradient is live takes it to
    # 1.64x.
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


@pytest.mark.parametrize("op, shapes", [
    (ops.pointwise_conv, [(0, 3, 4, 5), (2, 3), (2,)]),
    (ops.standard_conv, [(0, 3, 4, 5), (2, 3, 3, 3), (2,)]),
    (ops.standard_conv, [(0, 3, 2, 4, 5), (2, 3, 3, 3, 3), (2,)]),
    (ops.shared_conv, [(0, 3, 4, 5), (3, 3), (1,)]),
], ids=["pointwise_conv", "standard_conv2d", "standard_conv3d", "shared_conv"])
def test_conv_vjps_return_empty_gradients_for_an_empty_batch(op, shapes):
    # An empty batch gives an empty input gradient and zero weight and bias
    # gradients, each in its input's shape and dtype.
    rng = np.random.default_rng(61)
    args = [rng.uniform(-1, 1, s).astype(np.float32) for s in shapes]
    g = np.zeros(op(*(Tensor._wrap(a) for a in args)).shape, dtype=np.float32)
    grads = _grads(op, args, g)
    for got, arg in zip(grads, args, strict=True):
        assert got.shape == arg.shape and got.dtype == arg.dtype
        assert not got.any()


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_conv_vjp_bits_match_for_any_shards_and_layout_and_stay_near_the_loop_oracle(n):
    # One order whatever the shard count or the output gradient's layout:
    # a transposed gradient or one with a strided plane is copied to C order
    # first. Pointwise convs over one to three spatial axes; standard convs
    # with K=5 on 2x3 planes, so most taps are clipped, in 2D and 3D; shared
    # convs in 2D and 3D. Within rounding of the float64 loop oracle.
    rng = np.random.default_rng(62)
    cases = [  # (op, x, w, b shapes, whether w is one shared filter)
        (ops.pointwise_conv, [(n, 3, 7), (4, 3), (4,)], False),
        (ops.pointwise_conv, [(n, 5, 2, 3), (2, 5), (2,)], False),
        (ops.pointwise_conv, [(n, 4, 2, 3, 4), (3, 4), (3,)], False),
        (ops.standard_conv, [(n, 3, 2, 3), (4, 3, 5, 5), (4,)], False),
        (ops.standard_conv, [(n, 2, 2, 2, 3), (3, 2, 5, 5, 5), (3,)], False),
        (ops.shared_conv, [(n, 3, 4, 5), (3, 3), (1,)], True),
        (ops.shared_conv, [(n, 2, 2, 3, 4), (3, 3, 3), (1,)], True),
    ]
    for (op, shapes, shared), (dtype, tol) in itertools.product(
            cases, [(np.float32, 1e-5), (np.float64, 1e-12)]):
        args = [_signed_zeros(rng, s, dtype) for s in shapes]
        g = _signed_zeros(rng, op(*(Tensor._wrap(a) for a in args)).shape, dtype)
        serial = _grads(op, args, g, shards=1)
        transposed = np.ascontiguousarray(g.swapaxes(0, 1)).swapaxes(0, 1)
        strided = np.repeat(g, 2, axis=-1)[..., ::2]
        assert n == 0 or not strided.flags.c_contiguous
        for shards, g_run in [(2, g), (3, g), (1, transposed), (3, strided)]:
            for got, want in zip(_grads(op, args, g_run, shards=shards), serial, strict=True):
                assert np.array_equal(_bits(got), _bits(want))
        for got, want in zip(serial, conv_vjp_oracle(args[0], args[1], g, shared), strict=True):
            assert got.shape == want.shape and got.dtype == dtype
            assert np.abs(got - want).max(initial=0) <= tol * np.abs(want).max(initial=0)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("op, shapes, shared", [
    (ops.shared_conv, [(3, 2, 5, 6), (3, 3), (1,)], True),
    (ops.shared_conv, [(2, 2, 3, 4, 5), (3, 3, 3), (1,)], True),
    (ops.standard_conv, [(2, 2, 5, 6), (3, 2, 3, 3), (3,)], False),
], ids=["shared_conv2d", "shared_conv3d", "standard_conv"])
def test_conv_weight_gradient_bits_match_for_any_row_split(op, shapes, shared, dtype, tol):
    # The weight gradient shards over its panel rows (input channel, tap):
    # 9, 27 and 2 * 9 here. Every element sums all its terms in one shard, so
    # 1, 2, 3, 4 and 16 shards give the same bits; a count above the rows
    # runs one row per shard. Within rounding of the float64 loop oracle. An
    # empty batch's weight gradient is zero, not the kernel's untouched buffer.
    rng = np.random.default_rng(64)
    args = [_signed_zeros(rng, s, dtype) for s in shapes]
    g = _signed_zeros(rng, op(*(Tensor._wrap(a) for a in args)).shape, dtype)
    serial = _grads(op, args, g, shards=1)[1]
    for shards in (2, 3, 4, 16):
        assert np.array_equal(_bits(_grads(op, args, g, shards=shards)[1]), _bits(serial))
    want = conv_vjp_oracle(args[0], args[1], g, shared)[1]
    assert serial.shape == want.shape and serial.dtype == dtype
    assert np.abs(serial - want).max() <= tol * np.abs(want).max()
    for shards in (1, 2):
        np.full(serial.shape, np.nan, dtype)  # leave NaN in a freed buffer of gw's size
        empty = [np.zeros((0,) + a.shape[1:], dtype) for a in (args[0], g)]
        gw = _grads(op, [empty[0], *args[1:]], empty[1], shards=shards)[1]
        assert gw.shape == serial.shape and not gw.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_weight_gradient_is_nan_where_an_infinite_gradient_meets_a_clipped_tap(dtype):
    # A clipped read packs +0 and its term is still added: an infinite g at
    # output (0, 0) of channel 1 makes gw[1, ci, t] NaN (inf * (+0)) for the
    # taps t that read above or left of the plane there, and +inf for the
    # others, which read x = 1. Channel 0's gradient stays zero.
    x = np.ones((1, 2, 3, 4), dtype)
    w = np.ones((2, 2, 3, 3), dtype)
    g = np.zeros((1, 2, 3, 4), dtype)
    g[0, 1, 0, 0] = np.inf
    gw = _grads(ops.standard_conv, [x, w], g)[1]
    clipped = np.broadcast_to([[True] * 3, [True, False, False], [True, False, False]], (2, 3, 3))
    assert np.array_equal(np.isnan(gw[1]), clipped)
    assert np.isposinf(gw[1][~clipped]).all() and not gw[0].any()


@pytest.mark.parametrize("op, shapes", [
    (ops.pointwise_conv, [(2, 8, 6, 6), (4, 8), (4,)]),
    (ops.pointwise_conv, [(2, 8, 3, 6, 6), (4, 8), (4,)]),
    (ops.standard_conv, [(2, 8, 6, 6), (4, 8, 3, 3), (4,)]),
    (ops.standard_conv, [(2, 8, 3, 6, 6), (4, 8, 3, 3, 3), (4,)]),
    (ops.shared_conv, [(2, 8, 6, 6), (3, 3), (1,)]),
    (ops.shared_conv, [(2, 8, 3, 6, 6), (3, 3, 3), (1,)]),
], ids=["pointwise_conv2d", "pointwise_conv3d", "standard_conv2d", "standard_conv3d",
        "shared_conv2d", "shared_conv3d"])
def test_taped_conv_keeps_no_output_and_its_backward_counts_no_flops(op, shapes):
    # The VJP keeps the input, the kernel and shapes, never the output: with
    # the tape alive, dropping the output frees its array (and the array it
    # views). The backward pass's compiled input gradient is not counted as
    # forward FLOPs.
    rng = np.random.default_rng(63)
    args = [_t(rng, s, dtype=np.float32) for s in shapes]
    with Tape():
        out = op(*args)
        refs = [weakref.ref(a) for a in (out.data, out.data.base) if a is not None]
        del out
        gc.collect()
        assert all(ref() is None for ref in refs)
    with Tape() as tape:
        loss = reduce_sum(op(*args))
    with FlopCounter() as counter:
        backward(loss, tape)
    assert counter.flops == 0


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
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


def _ddc(x, offsets, kernels):
    return ops.ddc_forward(x, offsets, kernels, 3)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_ddc_vjp_bits_match_for_any_shards_and_float32_stays_near_float64(n):
    # The VJP has one order, whatever the shard count or the output
    # gradient's layout (transposed or with a strided plane: copied first).
    # In float32 it differs from the float64 VJP of the same fields by
    # rounding only. Four, three, one and eleven channels per group (padded
    # to whole vectors in the kernel), offsets reaching 2 cells.
    rng = np.random.default_rng(54)
    for dtype, c, groups in [(np.float32, 4, 1), (np.float64, 6, 2), (np.float32, 3, 3),
                             (np.float64, 33, 3)]:
        h, w = 4, 5
        fields = (_signed_zeros(rng, (n, c, h, w), dtype),
                  rng.uniform(-2, 2, (n, 18, h, w)).astype(dtype),
                  _signed_zeros(rng, (n, groups, 9, h, w), dtype))
        g = _signed_zeros(rng, (n, c, h, w), dtype)
        serial = _grads(_ddc, fields, g, shards=1)
        transposed = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        strided = np.repeat(g, 2, axis=3)[..., ::2]
        assert n < 2 or not transposed.flags.c_contiguous  # n = 1 is contiguous
        assert n == 0 or not strided.flags.c_contiguous
        for shards, g_run in [(2, g), (3, g), (1, transposed), (3, strided)]:
            for got, want in zip(_grads(_ddc, fields, g_run, shards=shards), serial, strict=True):
                assert got.flags.c_contiguous
                assert np.array_equal(_bits(got), _bits(want))
        if dtype == np.float32:
            wide = _grads(_ddc, [a.astype(np.float64) for a in fields], g.astype(np.float64))
            for got, want in zip(serial, wide, strict=True):
                assert got.shape == want.shape and got.dtype == dtype
                assert np.abs(got - want).max(initial=0) <= 1e-5 * np.abs(want).max(initial=0)


def test_compiled_ddc_tape_holds_only_its_inputs():
    # Bytes a taped call keeps alive beyond its output. The VJP reads
    # nothing but the three input fields, which the caller holds anyway, so
    # the tape holds under 1x the input.
    rng = np.random.default_rng(30)
    n, c, h, w = 2, 32, 8, 8
    x = _t(rng, (n, c, h, w), dtype=np.float32)
    offsets = _t(rng, (n, 18, h, w), dtype=np.float32)
    kernels = _t(rng, (n, 1, 9, h, w), dtype=np.float32)
    ops._load_kernel()  # count the op, not the loader's first-call objects
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = ops.ddc_forward(x, offsets, kernels, 3)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held < x.data.nbytes, f"tape holds {held / x.data.nbytes:.2f}x the input bytes"


def test_compiled_ddc_vjp_peak_is_its_gradients(monkeypatch):
    # The calling thread allocates the three gradients and the shards write
    # into them: serial or sharded, a VJP peaks at those plus small objects
    # (the geometry, views, Futures). The kernel's channel-last rows are one
    # batch element per shard, in C.
    vjps = []
    monkeypatch.setattr(ops, "record", lambda inputs, out, vjp: vjps.append(vjp))
    rng = np.random.default_rng(55)
    args = [_t(rng, s, dtype=np.float32) for s in [(8, 64, 16, 16), (8, 18, 16, 16),
                                                    (8, 1, 9, 16, 16)]]
    ops.ddc_forward(*args, 3)
    g = rng.uniform(-1, 1, args[0].shape).astype(np.float32)
    grads = sum(a.data.nbytes for a in args)
    for count in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_SHARD_MIN_MACS", 0)
            mp.setattr(ops, "_POOL_SIZE", count)
            vjps[0](g)  # start the pool's threads untraced
            tracemalloc.start()
            try:
                vjps[0](g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert grads <= peak <= grads + grads // 64


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


@pytest.mark.parametrize("make, shape", [
    (lambda: ops.DDCLayer(2, kernel_size=2), (1, 2, 4, 4)),
    (lambda: ops.DDCLayer(2, kernel_size=-1), (1, 2, 4, 4)),
    (lambda: ops.Involution3D(4, kernel_size=2), (1, 4, 3, 4, 4)),
], ids=["ddc-even", "ddc-negative", "involution-even"])
def test_dynamic_layers_reject_a_kernel_size_that_is_even_or_below_1_by_the_first_call(make, shape):
    # The layers check the kernel size by their op's tap helper's rule.
    with pytest.raises(ShapeError, match="kernel sizes must be odd"):
        make()(Tensor(np.zeros(shape, dtype=np.float32)))


@pytest.mark.parametrize("layer", [ops.DDCLayer, ops.Involution3D])
@pytest.mark.parametrize("k", [2, 0, -1])
def test_dynamic_layers_reject_a_kernel_size_that_is_even_or_below_1_at_construction(layer, k):
    # One rule with ``_clipped_taps``: no weight is drawn for K*K or K^3
    # taps that are not there (K = -1 once asked numpy for -1 rows).
    with pytest.raises(ShapeError, match="kernel sizes must be odd"):
        layer(4, kernel_size=k)


@pytest.mark.parametrize("make, name", [
    (lambda v: ops.DDCLayer(8, groups=v), "groups"),
    (lambda v: ops.Involution3D(8, groups=v), "groups"),
    (lambda v: ops.Involution3D(8, reduction=v), "reduction"),
    (lambda v: ops.DDCLayer(v), "channels"),
    (lambda v: ops.Involution3D(v), "channels"),
], ids=["ddc-groups", "involution-groups", "involution-reduction", "ddc-channels",
        "involution-channels"])
@pytest.mark.parametrize("value", [0, -2])
def test_dynamic_layers_reject_a_count_below_1_at_construction(make, name, value):
    # Checked before the count divides anything: 0 once raised
    # ZeroDivisionError, a negative count numpy's "negative dimensions".
    with pytest.raises(ShapeError, match=f"{name} must be >= 1, got {value}"):
        make(value)


@pytest.mark.parametrize("make, name", [
    (lambda v: ops.PointwiseConv(v, 4), "in_channels"),
    (lambda v: ops.PointwiseConv(4, v), "out_channels"),
    (lambda v: ops.StandardConv2d(v, 4), "in_channels"),
    (lambda v: ops.StandardConv2d(4, v), "out_channels"),
    (lambda v: ops.PatchEmbed(v, 2, 8), "in_channels"),
    (lambda v: ops.PatchEmbed(2, v, 8), "patch_size"),
    (lambda v: ops.PatchEmbed(2, 2, v), "embed_dim"),
    (lambda v: ops.PatchBack(v, 8, 2, 2), "input_steps"),
    (lambda v: ops.PatchBack(4, v, 2, 2), "embed_dim"),
    (lambda v: ops.PatchBack(4, 8, v, 2), "patch_size"),
    (lambda v: ops.PatchBack(4, 8, 2, v), "out_channels"),
])
@pytest.mark.parametrize("value", [0, -1])
def test_layers_reject_a_count_below_1_at_construction(make, name, value):
    # 0 once raised ZeroDivisionError from the weight init's 1/sqrt(fan_in),
    # a negative count numpy's "negative dimensions".
    with pytest.raises(ShapeError, match=f"{name} must be >= 1, got {value}"):
        make(value)


@pytest.mark.parametrize("make", [
    lambda k: ops.StandardConv2d(4, 4, k), lambda k: ops.SharedConv(k),
    lambda k: ops.SharedConv(k, dims=3),
], ids=["standard", "shared2d", "shared3d"])
@pytest.mark.parametrize("k", [2, 0, -1])
def test_conv_layers_reject_a_kernel_size_that_is_even_or_below_1_at_construction(make, k):
    # An even size once constructed, and 0 raised ZeroDivisionError.
    with pytest.raises(ShapeError, match="kernel sizes must be odd"):
        make(k)


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


@pytest.mark.usefixtures("layout")
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


def test_ddc_layer_rejects_input_of_wrong_rank():
    with pytest.raises(ShapeError, match="standard_conv: kernel sizes"):
        ops.DDCLayer(4)(Tensor(np.zeros((1, 4, 4), dtype=np.float32)))


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_involution_one_hot_center_identity():
    rng = np.random.default_rng(21)
    layer = ops.Involution3D(4, kernel_size=3, groups=2, reduction=2, rng=rng, dtype=np.float64)
    center = 27 // 2
    _inv_force_kernels(layer, lambda tap: 1.0 if tap == center else 0.0)
    layer.bias.data[...] = 0.0
    x = _t(rng, (2, 4, 3, 4, 4))
    assert np.array_equal(layer.forward(x).data, x.data)


@pytest.mark.usefixtures("layout")
def test_involution_zero_kernels_bias_half():
    rng = np.random.default_rng(22)
    layer = ops.Involution3D(2, kernel_size=3, groups=1, reduction=2, rng=rng, dtype=np.float64)
    _inv_force_kernels(layer, lambda tap: 0.0)
    layer.bias.data[...] = 0.5
    x = _t(rng, (1, 2, 2, 3, 3))
    out = layer.forward(x).data
    assert np.all(out == 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("layout")
def test_involution_agg_matches_quintuple_loop_oracle(dtype):
    rng = np.random.default_rng(23)
    x = _t(rng, (1, 2, 3, 4, 4), dtype=dtype)
    kernels = Tensor(rng.uniform(-1, 1, (1, 1, 27, 3, 4, 4)), dtype=dtype)
    bias = Tensor(rng.uniform(-1, 1, (2,)), dtype=dtype)
    out = ops.involution3d_forward(x, kernels, bias, 3)
    assert np.array_equal(
        out.data, involution3d_oracle(x.data, kernels.data, bias.data, 3)
    )


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("dtype, shards", FORCED_SHARDS, indirect=["shards"])
@pytest.mark.usefixtures("layout")
def test_involution_bits_match_oracle_on_transposed_input_with_signed_zeros(dtype, shards, groups):
    # Taps clipped on a size-2 axis (T) and a size-1 axis (H) of a strided
    # input with all-zero regions, met by batch 0's non-positive kernels, so
    # some outputs sum only -0.0 products; then subnormal inputs and weights.
    # The last volume's 80 positions run past one float32 position tile.
    rng = np.random.default_rng(47)
    for subnormal in (False, True):
        for shape in ((3, 4, 2, 1, 5), (2, 4, 3, 4, 5), (2, 4, 5, 4, 4)):
            x = _signed_zero_case(rng, shape, dtype, subnormal)
            kernels = _weight(rng, (shape[0], groups, 27) + shape[2:], dtype, subnormal)
            bias = _weight(rng, shape[1:2], dtype, subnormal, negative_first=False)
            out = ops.involution3d_forward(x, kernels, bias, 3).data
            ref = involution3d_oracle(x.data, kernels.data, bias.data, 3)
            assert out.flags.c_contiguous
            assert np.array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.usefixtures("layout")
def test_involution_skips_a_non_finite_kernel_at_a_clipped_tap(value):
    # A tap whose read leaves the volume is an absent term, not k * (+0):
    # the result is the oracle's with those kernel values 0.
    rng = np.random.default_rng(48)
    x = _t(rng, (2, 4, 2, 3, 4), dtype=np.float32)
    kernels = _t(rng, (2, 2, 27, 2, 3, 4), lo=-1.0, hi=1.0, dtype=np.float32)
    kernels.data[:, :, 0, 0] = value  # tap (-1, -1, -1) at t = 0 reads t = -1
    kernels.data[:, :, 26, :, :, -1] = value  # tap (1, 1, 1) at the last column
    bias = _t(rng, (4,), dtype=np.float32)
    out = ops.involution3d_forward(x, kernels, bias, 3).data
    finite = np.where(np.isfinite(kernels.data), kernels.data, 0).astype(np.float32)
    assert np.isfinite(out).all()
    assert np.array_equal(_bits(out), _bits(involution3d_oracle(x.data, finite, bias.data, 3)))


def _involution(x, kernels, bias):
    return ops.involution3d_forward(x, kernels, bias, 3)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_involution_vjp_bits_match_for_any_shards_and_layout_and_stay_near_the_loop_oracle(n):
    # One order whatever the shard count or the output gradient's layout:
    # a transposed gradient or one with a strided plane is copied to C order
    # first, so even the bias gradient's numpy sum keeps its bits. Batches
    # smaller than, equal to and not divisible by the shard count, and an
    # empty one; one and several groups; taps clipped on size-1 and size-2
    # axes; a group of 8 channels over one-position tap regions; and volumes
    # past one position tile (64 float32 or 32 float64 positions). Within
    # rounding of the float64 loop oracle.
    rng = np.random.default_rng(49)
    for dtype, (c, t, h, w), groups, tol in [
        (np.float32, (4, 3, 4, 5), 1, 1e-5), (np.float64, (6, 1, 2, 5), 2, 1e-12),
        (np.float32, (9, 2, 3, 4), 3, 1e-5), (np.float64, (8, 2, 2, 2), 1, 1e-12),
        (np.float32, (4, 5, 4, 4), 2, 1e-5), (np.float64, (6, 3, 5, 7), 3, 1e-12),
    ]:
        args = (_signed_zeros(rng, (n, c, t, h, w), dtype),
                _signed_zeros(rng, (n, groups, 27, t, h, w), dtype),
                _signed_zeros(rng, (c,), dtype))
        g = _signed_zeros(rng, (n, c, t, h, w), dtype)
        serial = _grads(_involution, args, g, shards=1)
        transposed = np.ascontiguousarray(g.transpose(0, 2, 1, 3, 4)).transpose(0, 2, 1, 3, 4)
        strided = np.repeat(g, 2, axis=4)[..., ::2]
        assert n == 0 or not strided.flags.c_contiguous
        for shards, g_run in [(2, g), (3, g), (1, transposed), (3, strided)]:
            for got, want in zip(_grads(_involution, args, g_run, shards=shards), serial,
                                 strict=True):
                assert np.array_equal(_bits(got), _bits(want))
        for got, want in zip(serial, involution3d_vjp_oracle(args[0], args[1], g, 3),
                             strict=True):
            assert got.shape == want.shape and got.dtype == dtype
            assert np.abs(got - want).max(initial=0) <= tol * np.abs(want).max(initial=0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dtype, shards", FORCED_SHARDS, indirect=["shards"])
def test_involution_vjp_keeps_non_finite_values_at_clipped_taps_out_of_its_gradients(
        dtype, shards, value):
    # A non-finite kernel at a clipped (tap, position) pair leaves the input
    # gradient as a zero there would; a non-finite output gradient, met by
    # a clipped read's absent input, leaves the kernel gradient +0 there.
    # The 90 positions run past one position tile in both dtypes.
    rng = np.random.default_rng(52)
    n, c, groups, spatial = 3, 4, 2, (3, 5, 6)
    # True at each (tap, position) pair whose read leaves the volume.
    clipped = np.ones((27,) + spatial, dtype=bool)
    for i, _, out_sl, _ in ops._clipped_taps("test", spatial, (3, 3, 3)):
        clipped[i][out_sl] = False
    assert clipped.any() and not clipped.all()
    x = _signed_zeros(rng, (n, c) + spatial, dtype)
    kernels = _signed_zeros(rng, (n, groups, 27) + spatial, dtype)
    bias = _signed_zeros(rng, (c,), dtype)
    g = _signed_zeros(rng, x.shape, dtype)
    poisoned = kernels.copy()
    poisoned[:, :, clipped] = value
    zeroed = kernels.copy()
    zeroed[:, :, clipped] = 0
    got = _grads(_involution, (x, poisoned, bias), g)
    for a, b in zip(got, _grads(_involution, (x, zeroed, bias), g), strict=True):
        assert np.array_equal(_bits(a), _bits(b))
    _, g_kern, _ = _grads(_involution, (x, poisoned, bias), np.full_like(g, value))
    assert not _bits(g_kern)[:, :, clipped].any()  # +0: every bit clear


def test_clipped_taps_mirror_each_other():
    # Tap taps - 1 - i is displaced by -d_i and feeds exactly the outputs
    # that tap i reads: output p - d_i is inside the input exactly where the
    # mirrored tap reads inside it at p, which the involution VJP's input
    # gradient relies on.
    violations = []
    for rank in (1, 2, 3):
        for k in (1, 3, 5):
            for spatial in itertools.product((1, 2, 3, 6), repeat=rank):
                taps = ops._clipped_taps("test", spatial, (k,) * rank)
                for i, ds, _, in_sl in taps:
                    _, ds_m, out_m, _ = taps[len(taps) - 1 - i]
                    if ds_m != tuple(-d for d in ds) or out_m != in_sl:
                        violations.append((spatial, k, i))
    assert violations == []


def test_compiled_involution_vjp_peak_is_its_gradients(monkeypatch):
    # The calling thread allocates the input and kernel gradients, and the
    # shards write into them: serial or sharded, a VJP peaks at those two
    # plus small objects (the bias gradient, the geometry, views, Futures).
    vjps = []
    monkeypatch.setattr(ops, "record", lambda inputs, out, vjp: vjps.append(vjp))
    rng = np.random.default_rng(51)
    args = [_t(rng, s, dtype=np.float32) for s in [(4, 32, 4, 16, 16), (4, 1, 27, 4, 16, 16),
                                                    (32,)]]
    ops.involution3d_forward(*args, 3)
    g = rng.uniform(-1, 1, args[0].shape).astype(np.float32)
    grads = args[0].data.nbytes + args[1].data.nbytes
    for count in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_SHARD_MIN_MACS", 0)
            mp.setattr(ops, "_POOL_SIZE", count)
            vjps[0](g)  # start the pool's threads untraced
            tracemalloc.start()
            try:
                vjps[0](g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert grads <= peak <= grads + grads // 64


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
def test_involution_batch_permutation_equivariance():
    rng = np.random.default_rng(25)
    layer = ops.Involution3D(2, kernel_size=3, groups=1, reduction=2, rng=rng, dtype=np.float64)
    x = rng.uniform(-2, 2, (4, 2, 2, 3, 3))
    perm = np.array([2, 0, 3, 1])
    out = layer.forward(Tensor(x)).data
    out_perm = layer.forward(Tensor(x[perm])).data
    assert np.array_equal(out_perm, out[perm])


def test_involution_layer_rejects_input_of_wrong_rank():
    with pytest.raises(ShapeError, match="involution3d: input must be"):
        ops.Involution3D(4)(Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)))


def test_involution_invalid_construction_rejected():
    with pytest.raises(ShapeError, match="reduction"):
        ops.Involution3D(3, reduction=2)
    with pytest.raises(ShapeError, match="groups"):
        ops.Involution3D(4, groups=3, reduction=2)


# ---------------------------------------------------------------------------
# Patch embed / patch back
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
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


@pytest.mark.usefixtures("layout")
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
