"""Convolution variants with forward and backward passes.

Pointwise and standard convolutions, bilinear sampling, deformable dynamic
convolution (per-position kernels applied at offset-displaced sampling
locations), 3D involution over (T, H, W) volumes, and patch embed/back.
Parameter and FLOP counts live in ``profile`` (``count_params``,
``cost_report``), not on the layers.

Forward accumulation orders are fixed and documented per operation so that
independent nested-loop oracles can reproduce outputs bit-for-bit. The
pointwise convolution is the standard convolution's K=1 case: both run one
core (``_conv``), which evaluates the contracted order on channel-first rows.
Each input channel's tap window is copied into one contiguous row, and every
output channel takes ``w * row`` through one reused product buffer, so the
additions happen in the contracted order as long, contiguous row updates.
Above a work threshold the core splits the batch into shards, one per CPU up
to 8, on one module-level thread pool. That is a partition, not an order:
each output element sums within its own batch element, so the bits do not
depend on the shard count. The calling thread allocates every buffer and
keeps all tape, FLOP and probe bookkeeping; pool threads run numpy only.
One helper (``_clipped_taps``) checks the kernel sizes of every tap operator
and owns their centred, row-major tap order: it gives each tap's displacement,
which the deformable convolution samples around, and its window clipped to the
input, so no zero-padded input or gradient is ever built. A read from the
padding is an absent term: it would add an exact zero to a sum that starts at
+0, which never changes the sum. Bilinear sampling has one primitive: a sparse
(CSR) sampling matrix (``_sampling_matrix``), whose product sums each row's
four corner terms from zero in the contracted corner order, and its backward
(``_sampling_grads``). The deformable convolution samples each tap through it
and accumulates the taps left to right; ``bilinear_sample``, the
gradient-checked scalar op, is a one-position view of it.

A taped call keeps only what its backward pass reads. The deformable
convolution keeps each tap's sampling matrix, not its samples: its kernel
and offset gradients come from four per-corner channel reductions of the
input against the output gradient. The standard, shared and involution
convolutions keep their input and the clipped tap slices. Their VJPs assign
the centre tap's input gradient and add every other tap into its clipped
region.

Backward passes are free to use faster reductions since gradients are
validated against finite differences rather than an exact summation order.
Backward channel contractions run as BLAS ``matmul``, and the deformable
convolution scatters its input gradient through the transpose of each tap's
sampling matrix. Both sum in the same order on every call for a fixed thread
count, so training stays bit-reproducible per seed.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

from .numerics import (
    F32,
    Module,
    Param,
    ShapeError,
    Tensor,
    add_flops,
    gelu,
    probe_kink,
    probing_active,
    record,
    reshape,
    transpose,
)

__all__ = [
    "pointwise_conv",
    "standard_conv",
    "shared_conv",
    "bilinear_sample",
    "ddc_forward",
    "involution3d_forward",
    "pixel_shuffle",
    "pixel_unshuffle",
    "PointwiseConv",
    "StandardConv2d",
    "SharedConv",
    "DDCLayer",
    "Involution3D",
    "PatchEmbed",
    "PatchBack",
]


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=F32) -> np.ndarray:
    """Uniform in +-1/sqrt(fan_in); the library's default weight init."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# The exact-order conv forward shards its batch over one pool, created once;
# its threads start on first use. Calls below _SHARD_MIN_MACS multiply-adds
# run inline as one shard. Tests force sharding by patching these constants.
_SHARD_MIN_MACS = 1 << 22
_POOL_SIZE = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1, 8)
_POOL = ThreadPoolExecutor(_POOL_SIZE, thread_name_prefix="ddcn-conv")


def _check_weights(op: str, x: Tensor, *weights):
    for wt in weights:
        if wt is not None and wt.data.dtype != x.data.dtype:
            raise ShapeError(
                f"{op}: weight dtype {wt.data.dtype} does not match input dtype {x.data.dtype}"
            )


# ---------------------------------------------------------------------------
# Clipped tap windows and the ordered channel contraction of one conv core
# ---------------------------------------------------------------------------


def _ordered_contract(w2, x, taps, bias, out, acc, tmp, buf):
    """out[n, co, pos] = sum_k w2[co, k] * row_k[n, pos] + bias[co], in ascending ``k``.

    Row ``k`` is the k-th (channel, tap) window of (N, C, *spatial) ``x``
    (``_window_rows``, through row buffer ``buf``). The sum starts from the
    zeroed (C_out, N * prod(spatial)) accumulator ``acc`` and adds one outer
    product ``w2[:, k] * row_k`` at a time through the product buffer
    ``tmp``, bias last, which is the scalar oracle's order for every output
    element. It is then copied into the C-contiguous (N, C_out, *spatial)
    ``out``: later pairwise reductions depend on memory layout, so the
    result must not be a transposed view. Runs numpy only, so it may run on
    a pool thread: it calls no primitive and enters no scope.
    """
    for w_k, row in zip(w2.T, _window_rows(x, taps, buf)):
        np.multiply.outer(w_k, row, out=tmp)
        acc += tmp
    if bias is not None:
        acc += bias
    np.copyto(out, acc.reshape((acc.shape[0], x.shape[0]) + x.shape[2:]).swapaxes(0, 1))


def _clipped_taps(op: str, spatial: tuple, ksizes: tuple) -> list:
    """The row-major taps of a centred, shape-preserving kernel, one odd size
    per spatial axis, each clipped to the input.

    A tap displaced by ``d`` along an axis reads input ``o + d`` for output
    ``o``; only outputs whose read stays inside the input take part. Returns
    ``(i, ds, out_sl, in_sl)`` per tap: its row-major index, its displacement
    per axis, the outputs it feeds and the equally shaped input block they
    read. The slices lead with an Ellipsis, so they index an (N, C, *spatial)
    array or a grouped reshape. Raises ShapeError unless ``ksizes`` holds one
    odd size >= 1 per axis of ``spatial``.
    """
    if len(ksizes) != len(spatial) or any(k < 1 or k % 2 == 0 for k in ksizes):
        raise ShapeError(
            f"{op}: kernel sizes must be odd and >= 1, one per spatial axis of {spatial}, "
            f"got {ksizes}"
        )
    per_axis = []
    for s, k in zip(spatial, ksizes):
        axis = []
        for d in range(-(k // 2), k // 2 + 1):
            lo = max(0, -d)
            hi = max(lo, min(s, s - d))  # lo == hi: the tap misses the input
            axis.append((d, slice(lo, hi), slice(lo + d, hi + d)))
        per_axis.append(axis)
    taps = []
    for i, axes in enumerate(itertools.product(*per_axis)):
        ds, out_sl, in_sl = zip(*axes)
        taps.append((i, ds, (...,) + out_sl, (...,) + in_sl))
    return taps


def _centre_first(taps: list) -> list:
    """``taps`` with the centre tap, never clipped, moved to the front."""
    c = len(taps) // 2
    return [taps[c]] + taps[:c] + taps[c + 1:]


def _add_tap(gx, part, in_sl):
    """A VJP's input gradient after one more tap (taps in ``_centre_first``
    order): the centre tap's ``part`` becomes ``gx``, every other tap's is
    added into its clipped region. Passed as an argument, ``part`` is freed
    before the next tap's temporaries are allocated."""
    if gx is None:
        return part
    gx[in_sl] += part
    return gx


def _window_rows(x, taps, buf):
    """Each (channel, tap) of (N, C, *spatial) ``x`` in lexicographic order,
    copied into the reused contiguous (N, *spatial) buffer ``buf`` and
    yielded as its flat row.

    ``taps`` come from ``_clipped_taps``. A clipped tap's row is zero where
    its window leaves the input: the buffer is zero filled before the copy,
    so the row holds the same bytes as the tap's window into a zero-padded
    input. The buffer holds one row, so no input-sized channel-first copy is
    ever live.
    """
    row = buf.reshape(-1)
    windows = [(out_sl, x[in_sl]) for _, _, out_sl, in_sl in taps]
    for ci in range(x.shape[1]):
        for out_sl, window in windows:
            if window.shape != x.shape:
                buf.fill(0)
            np.copyto(buf[out_sl], window[:, ci])
            yield row


def _conv(op: str, x: Tensor, w: Tensor, wk: np.ndarray, b: Tensor | None) -> Tensor:
    """Shape-preserving cross-correlation with kernel ``wk``, ``w.data``
    viewed as (C_out, C_in, *K) with one odd K per spatial axis of ``x``.

    The forward sums each output over (input channel, tap row-major) in
    lexicographic order, bias last, through channel-first rows
    (``_window_rows``, ``_ordered_contract``). Taps are clipped to the input
    (``_clipped_taps``), so no zero-padded input or gradient exists. The VJP
    returns the weight gradient in ``w``'s own shape.
    """
    xd = x.data
    if xd.ndim < 3:
        raise ShapeError(f"{op}: input must be (N, C, *spatial), got {xd.shape}")
    c_out, c_in = wk.shape[:2]
    if xd.shape[1] != c_in:
        raise ShapeError(
            f"{op}: channel mismatch: input has {xd.shape[1]} channels, weight expects {c_in}"
        )
    _check_weights(op, x, w, b)
    if b is not None and b.data.shape != (c_out,):
        raise ShapeError(f"{op}: bias must be ({c_out},), got {b.data.shape}")

    n, spatial = xd.shape[0], xd.shape[2:]
    taps = _clipped_taps(op, spatial, wk.shape[2:])
    w3 = wk.reshape(c_out, c_in, len(taps))
    positions = math.prod(spatial)
    macs = n * c_out * c_in * positions * len(taps)
    shards = max(1, min(n, _POOL_SIZE)) if macs >= _SHARD_MIN_MACS else 1
    bounds = [n * i // shards for i in range(shards + 1)]
    # This thread allocates the result first and then every shard's buffers,
    # so the buffers sit above it in the heap, where the allocator can hand
    # them back on return. With the result allocated after them, peak RSS of
    # a training step rose by ~2%; with buffers allocated by each worker and
    # the shards concatenated, by ~9%.
    out = np.empty((n, c_out) + spatial, dtype=xd.dtype)
    bias = None if b is None else b.data[:, None]
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        acc = np.zeros((c_out, (hi - lo) * positions), dtype=xd.dtype)
        tmp = np.empty_like(acc)
        buf = np.empty((hi - lo,) + spatial, dtype=xd.dtype)
        jobs.append((xd[lo:hi], taps, bias, out[lo:hi], acc, tmp, buf))
    w2 = w3.reshape(c_out, -1)
    futures = [_POOL.submit(_ordered_contract, w2, *job) for job in jobs[1:]]
    try:
        _ordered_contract(w2, *jobs[0])
    finally:
        for f in futures:
            f.result()
    add_flops(2 * macs)

    result = Tensor._wrap(out)

    def vjp(g):
        gw = np.empty_like(w3)
        gx = None
        for i, _, out_sl, in_sl in _centre_first(taps):
            g_tap = g[out_sl].reshape(n, c_out, -1)
            window = xd[in_sl]
            gw[:, :, i] = np.matmul(
                g_tap, window.reshape(n, c_in, -1).transpose(0, 2, 1)
            ).sum(axis=0)
            gx = _add_tap(gx, np.matmul(w3[:, :, i].T, g_tap).reshape(window.shape), in_sl)
        gw = gw.reshape(w.data.shape)
        if b is None:
            return (gx, gw)
        gb = g.sum(axis=(0,) + tuple(range(2, xd.ndim)))
        return (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


def pointwise_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1x1 convolution: out[n, co, pos] = sum_ci w[co, ci] * x[n, ci, pos] + b[co].

    ``x`` is (N, C_in, *spatial) with any spatial rank >= 1 and ``w`` is
    (C_out, C_in). This is the standard convolution's K=1 case: ``w`` runs
    viewed as (C_out, C_in, 1, ...). Channel contributions accumulate in
    ascending ``ci`` order with the bias added last, the order the
    brute-force oracle reproduces exactly.
    """
    wd = w.data
    if wd.ndim != 2:
        raise ShapeError(f"pointwise_conv: weight must be (C_out, C_in), got {wd.shape}")
    return _conv("pointwise_conv", x, w, wd.reshape(wd.shape + (1,) * (x.data.ndim - 2)), b)


def standard_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Shape-preserving cross-correlation with zero padding (K-1)/2.

    ``w`` is (C_out, C_in, K, K) for 2D inputs (N, C, H, W) or
    (C_out, C_in, K, K, K) for 3D inputs (N, C, T, H, W). Contributions
    accumulate in (input channel, tap row-major) lexicographic order with
    the bias added last; a tap's reads from the padding are absent terms.
    K=1 computes exactly what ``pointwise_conv`` does.
    """
    if w.data.ndim not in (4, 5):
        raise ShapeError(f"standard_conv: weight rank {w.data.ndim} not supported")
    return _conv("standard_conv", x, w, w.data, b)


# ---------------------------------------------------------------------------
# Shared-filter convolution: one K^d filter slid over every channel
# ---------------------------------------------------------------------------


def shared_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Depthwise convolution with a single filter shared by all channels.

    ``w`` is (K, K) for 2D inputs or (K, K, K) for 3D inputs; ``b`` is a
    single-element tensor added to every output. This is the ablation
    stand-in for the dynamic operators: a position-agnostic, channel-shared
    filter. Taps accumulate in row-major order, bias last; reads outside
    the input are absent terms (zero padding).
    """
    xd, wd = x.data, w.data
    if wd.ndim not in (2, 3):
        raise ShapeError(f"shared_conv: filter rank {wd.ndim} not supported")
    _check_weights("shared_conv", x, w, b)
    if b is not None and b.data.shape != (1,):
        raise ShapeError(f"shared_conv: bias must be shape (1,), got {b.data.shape}")

    taps = _clipped_taps("shared_conv", xd.shape[2:], wd.shape)
    w_flat = wd.reshape(-1)
    out = np.zeros_like(xd)
    for i, _, out_sl, in_sl in taps:
        out[out_sl] += w_flat[i] * xd[in_sl]
    if b is not None:
        out += b.data[0]
    add_flops(2 * xd.size * len(taps))

    result = Tensor._wrap(out)

    def vjp(g):
        gw = np.empty_like(w_flat)
        gx = None
        for i, _, out_sl, in_sl in _centre_first(taps):
            gw[i] = np.sum(g[out_sl] * xd[in_sl])
            gx = _add_tap(gx, w_flat[i] * g[out_sl], in_sl)
        gw = gw.reshape(wd.shape)
        if b is None:
            return (gx, gw)
        return (gx, gw, np.array([g.sum()], dtype=g.dtype))

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------


def _sampling_matrix(r, q, h: int, w: int, indptr):
    """The bilinear sampling matrix S of fractional (row, col) points.

    ``r`` and ``q`` hold one point per position, with a leading batch axis:
    a point of batch ``i`` samples plane ``i`` of an (N, H, W) grid. S is a
    CSR matrix of shape (positions, N*H*W + 1): one row per position, four
    entries per row in corner order 00, 01, 10, 11, each holding its
    bilinear weight and the flat (n, y, x) index of its corner. An
    out-of-bounds corner points at the dummy last column, which the caller's
    table fills with a zero row. ``indptr`` is ``arange(0, 4 * positions + 1,
    4)``, shared by every matrix of a call. Returns S and the fractional
    parts ``wr``, ``wq`` (shaped like ``r``), which the backward pass needs.

    ``S @ table`` sums each row from zero in stored-entry order, without
    fused multiply-adds, so a sample is exactly
    ((v00*w00 + v01*w01) + v10*w10) + v11*w11.

    Under a ``KinkProbe``, the points' distance to the nearest lattice line,
    min(|r - round(r)|, |q - round(q)|), is reported as "bilinear_coord".
    """
    if probing_active():
        probe_kink("bilinear_coord", min(float(np.abs(r - np.round(r)).min()),
                                         float(np.abs(q - np.round(q)).min())))
    dtype = r.dtype
    one = dtype.type(1)
    npos = r.size
    dummy = r.shape[0] * h * w
    row_base = (np.arange(r.shape[0]) * h).reshape((-1,) + (1,) * (r.ndim - 1))
    r0 = np.floor(r)
    q0 = np.floor(q)
    wr = r - r0
    wq = q - q0
    r0i = r0.astype(np.int64)
    q0i = q0.astype(np.int64)
    base = (row_base + r0i) * w + q0i
    row_ok = ((r0i >= 0) & (r0i < h), (r0i >= -1) & (r0i < h - 1))
    col_ok = ((q0i >= 0) & (q0i < w), (q0i >= -1) & (q0i < w - 1))
    corner_cols = np.empty((npos, 4), dtype=np.int64)
    corner_wts = np.empty((npos, 4), dtype=dtype)
    weights = ((one - wr) * (one - wq), (one - wr) * wq, wr * (one - wq), wr * wq)
    for k, wt in enumerate(weights):
        di, dj = divmod(k, 2)
        inside = row_ok[di] & col_ok[dj]
        corner_cols[:, k] = np.where(inside, base + (di * w + dj), dummy).reshape(-1)
        corner_wts[:, k] = wt.reshape(-1)
    sampling = sparse.csr_array(
        (corner_wts.reshape(-1), corner_cols.reshape(-1), indptr), shape=(npos, dummy + 1)
    )
    return sampling, wr, wq


def _sampling_grads(sampling, table, g, kern, wr, wq):
    """Backward of ``out = kern * (sampling @ table)`` for output gradient ``g``.

    ``g`` is (positions, groups, rep): the table's channels split into
    ``groups`` of ``rep``, each group scaled by its per-position weight in
    ``kern`` (positions, groups). Returns ``(g_table, g_kern, g_r, g_q)``:
    the table gradient ``sampling.T @ (g * kern)`` (its last, dummy row is
    the caller's to drop), the gradient of ``kern``, and the gradients of the
    sampling coordinates, shaped like ``wr``.

    The samples themselves are not needed. Each corner's values are read
    back from ``table`` through S's column indices, by their position in the
    row, and reduced against ``g`` over each group's channels once, giving
    q_k (positions, groups) for corners k = 00, 01, 10, 11. Then
    g_kern = sum_k w_k q_k, with the bilinear weights w_k read from S's
    stored entries, and, since d(sample)/dr = (v10 - v00)(1 - wq)
    + (v11 - v01) wq (and likewise for q), the coordinate gradients combine
    p_k = sum_g kern[g] q_k[g] with the fractional parts. S is never
    canonicalized (sorted or with its duplicate dummy entries summed).
    """
    one = wr.dtype.type(1)
    npos, groups, rep = g.shape
    gs = (g * kern[..., None]).reshape(npos, groups * rep)
    corners = sampling.indices.reshape(npos, 4)
    weights = sampling.data.reshape(npos, 4)
    q = [
        np.einsum("igr,igr->ig", g, np.take(table, corners[:, k], axis=0).reshape(g.shape))
        for k in range(4)
    ]
    g_kern = np.zeros((npos, groups), dtype=g.dtype)
    for k in range(4):
        g_kern += weights[:, k, None] * q[k]
    p00, p01, p10, p11 = (np.einsum("ig,ig->i", kern, q_k).reshape(wr.shape) for q_k in q)
    g_r = (p10 - p00) * (one - wq) + (p11 - p01) * wq
    g_q = (p01 - p00) * (one - wr) + (p11 - p10) * wr
    return sampling.T @ gs, g_kern, g_r, g_q


def bilinear_sample(x: Tensor, n: int, c: int, r, q) -> Tensor:
    """Sample channel (n, c) of a (N, C, H, W) tensor at fractional (row, col).

    Bilinear interpolation of the four surrounding cells; cells outside
    [0, H) x [0, W) contribute zero. ``r`` and ``q`` may be floats or
    single-element Tensors; gradient flows to the four cells and, for Tensor
    coordinates, to (r, q). Exact on lattice points, linear along each axis
    in between.

    This is a one-position view of the sampling primitive ``ddc_forward``
    runs: one sampling matrix row (``_sampling_matrix``) over a one-channel
    table holding the (n, c) plane plus a zero row, and its backward through
    ``_sampling_grads``.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"bilinear_sample: input must be (N, C, H, W), got {xd.shape}")
    if not (0 <= n < xd.shape[0] and 0 <= c < xd.shape[1]):
        raise ShapeError(f"bilinear_sample: channel ({n}, {c}) out of range for {xd.shape}")
    h, w = xd.shape[2:]
    dtype = xd.dtype

    r_t = r if isinstance(r, Tensor) else None
    q_t = q if isinstance(q, Tensor) else None
    rv = dtype.type(r.item() if r_t is not None else r)
    qv = dtype.type(q.item() if q_t is not None else q)

    table = np.zeros((h * w + 1, 1), dtype=dtype)
    table[: h * w, 0] = xd[n, c].reshape(-1)
    sampling, wr, wq = _sampling_matrix(
        np.full((1, 1), rv), np.full((1, 1), qv), h, w, np.arange(0, 5, 4)
    )
    add_flops(8)

    result = Tensor._wrap((sampling @ table).reshape(1))
    inputs = [t for t in (x, r_t, q_t) if t is not None]
    want_r, want_q = r_t is not None, q_t is not None

    def vjp(g):
        g_table, _, g_r, g_q = _sampling_grads(
            sampling, table, g.reshape(1, 1, 1), np.ones((1, 1), dtype=dtype), wr, wq
        )
        gx = np.zeros_like(xd)
        gx[n, c] = g_table[: h * w].reshape(h, w)
        grads = [gx]
        if want_r:
            grads.append(g_r.reshape(1))
        if want_q:
            grads.append(g_q.reshape(1))
        return tuple(grads)

    record(tuple(inputs), result, vjp)
    return result


# ---------------------------------------------------------------------------
# Deformable dynamic convolution
# ---------------------------------------------------------------------------


def ddc_forward(x: Tensor, offsets: Tensor, kernels: Tensor, kernel_size: int) -> Tensor:
    """Per-position dynamic kernels applied at offset-displaced sampling points.

    out[n, c, y, x] = sum over the K*K taps (row-major, centered) of
    kernels[n, g(c), tap, y, x] * sample where sample is the bilinear sample
    of channel c at (y + dy + offsets[n, 2*tap, y, x],
    x + dx + offsets[n, 2*tap + 1, y, x]). Offsets are in grid-cell units;
    out-of-bounds corners contribute zero. Kernels carry one weight set per
    channel group (g(c) = c // (C/G)); no channel mixing and no
    normalization of the dynamic weights.

    Each tap samples through its bilinear sampling matrix S
    (``_sampling_matrix``, the one sampling primitive, which
    ``bilinear_sample`` also runs): a CSR matrix with one row per output
    position and four corner entries per row. The samples of a tap are
    ``S @ table``, where ``table`` holds the input in (N*H*W, C) layout plus
    one zero row for S's dummy out-of-bounds column.

    Exact accumulation order (matched by the nested-loop oracle): the sparse
    product sums each row from zero in stored-entry order, so for each tap the
    four corner terms sum as ((v00*w00 + v01*w01) + v10*w10) + v11*w11; then
    the kernel-weighted taps accumulate left to right from zero.

    Under a tape, each tap keeps S and the fractional parts of its
    coordinates, not its samples; the call keeps the kernels in tap-major
    layout, and the taps of one call share S's ``indptr``. The backward pass
    rebuilds ``table`` from the input and reuses S for the input, kernel and
    offset gradients (``_sampling_grads``): ``S.T`` times the kernel-weighted
    output gradient, and the table's corner values reduced against it.
    """
    xd, od, kd = x.data, offsets.data, kernels.data
    if xd.ndim != 4:
        raise ShapeError(f"ddc_forward: input must be (N, C, H, W), got {xd.shape}")
    n, c, h, w = xd.shape
    kk = kernel_size * kernel_size
    if od.shape != (n, 2 * kk, h, w):
        raise ShapeError(
            f"ddc_forward: offsets must be {(n, 2 * kk, h, w)} for K={kernel_size}, got {od.shape}"
        )
    if kd.ndim != 5 or kd.shape[0] != n or kd.shape[2] != kk or kd.shape[3:] != (h, w):
        raise ShapeError(
            f"ddc_forward: kernels must be (N, G, {kk}, H, W) aligned with input, got {kd.shape}"
        )
    groups = kd.shape[1]
    if c % groups != 0:
        raise ShapeError(f"ddc_forward: groups {groups} must divide channels {c}")
    _check_weights("ddc_forward", x, offsets, kernels)
    taps = _clipped_taps("ddc_forward", (h, w), (kernel_size,) * 2)

    dtype = xd.dtype
    rep = c // groups
    npos = n * h * w
    rows = np.arange(h, dtype=dtype).reshape(1, h, 1)
    cols = np.arange(w, dtype=dtype).reshape(1, 1, w)

    def gather_table():
        table = np.empty((npos + 1, c), dtype=dtype)
        table[:npos].reshape(n, h, w, c)[...] = xd.transpose(0, 2, 3, 1)
        table[npos] = 0
        return table

    table = gather_table()
    kd_t = np.ascontiguousarray(kd.transpose(0, 2, 3, 4, 1))  # (n, kk, h, w, groups)
    indptr = np.arange(0, 4 * npos + 1, 4)

    out_t = np.zeros((n, h, w, groups, rep), dtype=dtype)
    saved = []
    for tap, (dy, dx), _, _ in taps:
        r = (rows + dtype.type(dy)) + od[:, 2 * tap]
        q = (cols + dtype.type(dx)) + od[:, 2 * tap + 1]
        sampling, wr, wq = _sampling_matrix(r, q, h, w, indptr)
        out_t += kd_t[:, tap, ..., None] * (sampling @ table).reshape(n, h, w, groups, rep)
        saved.append((sampling, wr, wq))
    add_flops(10 * n * c * h * w * kk)

    out = np.ascontiguousarray(out_t.reshape(n, h, w, c).transpose(0, 3, 1, 2))
    result = Tensor._wrap(out)

    def vjp(g):
        # Gradients are formed in the (N*H*W, C) table layout; the dummy
        # column's row of the input gradient is dropped at the end.
        g_t = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(npos, groups, rep)
        gx_flat = np.zeros((npos + 1, c), dtype=dtype)
        g_off = np.empty((n, 2 * kk, h, w), dtype=dtype)
        g_kern = np.empty((n, groups, kk, h, w), dtype=dtype)
        table = gather_table()
        for tap, (sampling, wr, wq) in enumerate(saved):
            g_table, g_k, g_off[:, 2 * tap], g_off[:, 2 * tap + 1] = _sampling_grads(
                sampling, table, g_t, kd_t[:, tap].reshape(npos, groups), wr, wq
            )
            g_kern[:, :, tap] = g_k.reshape(n, h, w, groups).transpose(0, 3, 1, 2)
            gx_flat += g_table
            # Freed here, not when the next tap rebinds it: alive through the
            # next tap's corner reductions, it raised the backward peak by
            # one input-sized array.
            del g_table
        gx = np.ascontiguousarray(gx_flat[:npos].reshape(n, h, w, c).transpose(0, 3, 1, 2))
        return (gx, g_off, g_kern)

    record((x, offsets, kernels), result, vjp)
    return result


# ---------------------------------------------------------------------------
# 3D involution aggregation
# ---------------------------------------------------------------------------


def involution3d_forward(x: Tensor, kernels: Tensor, bias: Tensor, kernel_size: int) -> Tensor:
    """Neighborhood-local dynamic aggregation over a K^3 volume plus bias.

    out[n, c, t, y, x] = sum over taps (dt, dy, dx) in row-major order of
    kernels[n, g(c), tap, t, y, x] * x[n, c, t+dt-h, y+dy-h, x+dx-h]
    + bias[c], with h = (K-1)/2; reads outside the volume are absent terms
    (zero padding). Kernels are shared across the channels of each group and
    left unnormalized.
    """
    xd, kd = x.data, kernels.data
    if xd.ndim != 5:
        raise ShapeError(f"involution3d: input must be (N, C, T, H, W), got {xd.shape}")
    n, c, t, h, w = xd.shape
    k3 = kernel_size ** 3
    if kd.ndim != 6 or kd.shape[0] != n or kd.shape[2] != k3 or kd.shape[3:] != (t, h, w):
        raise ShapeError(
            f"involution3d: kernels must be (N, G, {k3}, T, H, W) aligned with input, got {kd.shape}"
        )
    groups = kd.shape[1]
    if c % groups != 0:
        raise ShapeError(f"involution3d: groups {groups} must divide channels {c}")
    if bias.data.shape != (c,):
        raise ShapeError(f"involution3d: bias must be ({c},), got {bias.data.shape}")
    _check_weights("involution3d", x, kernels, bias)

    grouped = (n, groups, c // groups, t, h, w)
    taps = _clipped_taps("involution3d", (t, h, w), (kernel_size,) * 3)
    x_g = xd.reshape(grouped)
    out = np.zeros_like(xd)
    out_g = out.reshape(grouped)
    for i, _, out_sl, in_sl in taps:
        out_g[out_sl] += kd[:, :, i, None][out_sl] * x_g[in_sl]
    out += bias.data.reshape(1, c, 1, 1, 1)
    add_flops(2 * xd.size * k3)

    result = Tensor._wrap(out)

    def vjp(g):
        x_g = xd.reshape(grouped)
        g_g = g.reshape(grouped)
        g_kern = np.zeros_like(kd)
        gx = None
        for i, _, out_sl, in_sl in _centre_first(taps):
            g_out = g_g[out_sl]
            g_kern[:, :, i][out_sl] = (g_out * x_g[in_sl]).sum(axis=2)
            gx = _add_tap(gx, g_out * kd[:, :, i, None][out_sl], in_sl)
        gx = gx.reshape(xd.shape)
        gb = g.sum(axis=(0, 2, 3, 4))
        return (gx, g_kern, gb)

    record((x, kernels, bias), result, vjp)
    return result


# ---------------------------------------------------------------------------
# Sub-pixel rearrangements
# ---------------------------------------------------------------------------


def pixel_unshuffle(x: Tensor, p: int) -> Tensor:
    """(N, C, H, W) -> (N, C*p*p, H/p, W/p): patch (py, px) lands on channel c*p*p + py*p + px."""
    if x.data.ndim != 4:
        raise ShapeError(f"pixel_unshuffle: input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    if h % p != 0 or w % p != 0:
        raise ShapeError(f"pixel_unshuffle: patch size {p} must divide H={h} and W={w}")
    hp, wp = h // p, w // p
    patches = transpose(reshape(x, (n, c, hp, p, wp, p)), (0, 1, 3, 5, 2, 4))
    return reshape(patches, (n, c * p * p, hp, wp))


def pixel_shuffle(x: Tensor, p: int) -> Tensor:
    """(N, C*p*p, H, W) -> (N, C, H*p, W*p): channel c*p*p + py*p + px lands on pixel (py, px)."""
    if x.data.ndim != 4:
        raise ShapeError(f"pixel_shuffle: input must be (N, C, H, W), got {x.shape}")
    n, cpp, h, w = x.shape
    if cpp % (p * p) != 0:
        raise ShapeError(f"pixel_shuffle: channel count {cpp} must be divisible by p*p={p * p}")
    c = cpp // (p * p)
    pixels = transpose(reshape(x, (n, c, p, p, h, w)), (0, 1, 4, 2, 5, 3))
    return reshape(pixels, (n, c, h * p, w * p))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class PointwiseConv(Module):
    """Learnable 1x1 convolution over the channel axis, any spatial rank."""

    def __init__(self, in_channels, out_channels, rng=None, dtype=F32):
        rng = rng or np.random.default_rng(0)
        self.weight = Param(uniform_init(rng, (out_channels, in_channels), in_channels, dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return pointwise_conv(x, self.weight, self.bias)


class StandardConv2d(Module):
    """Learnable KxK convolution, zero padded, shape preserving.

    Weights start at zero: the layer is ``DDCLayer``'s offset branch, which
    starts training as plain dynamic convolution.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, dtype=F32):
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Param(np.zeros(shape, dtype=dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return standard_conv(x, self.weight, self.bias)


class SharedConv(Module):
    """Single learned K^d filter applied depthwise to every channel.

    The ablation replacement for the dynamic operators: a plain spatially
    shared filter (one filter applied per channel axis) of matching kernel
    size, so switching a dynamic path off always shrinks the model.
    """

    def __init__(self, kernel_size=3, dims=2, rng=None, dtype=F32):
        rng = rng or np.random.default_rng(0)
        shape = (kernel_size,) * dims
        self.weight = Param(uniform_init(rng, shape, kernel_size ** dims, dtype))
        self.bias = Param(np.zeros(1, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return shared_conv(x, self.weight, self.bias)


class DDCLayer(Module):
    """Deformable dynamic convolution with its two generating branches.

    A deformable branch (standard 3x3 convolution, zero-initialized so
    training starts from plain dynamic convolution) predicts 2*K*K per-tap
    offsets at every position, and a dynamic branch (pointwise convolution)
    generates G*K*K region-specific kernel weights. Shape preserving;
    channels stay unmixed within groups.
    """

    OFFSET_KERNEL = 3

    def __init__(self, channels, kernel_size=3, groups=1, rng=None, dtype=F32):
        if kernel_size % 2 == 0:
            raise ShapeError(f"DDC kernel size must be odd, got {kernel_size}")
        if channels % groups != 0:
            raise ShapeError(f"groups {groups} must divide channels {channels}")
        self.kernel_size = kernel_size
        self.groups = groups
        kk = kernel_size * kernel_size
        self.offset_conv = StandardConv2d(channels, 2 * kk, self.OFFSET_KERNEL, dtype=dtype)
        self.kernel_conv = PointwiseConv(channels, groups * kk, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        n, _, h, w = x.shape
        kk = self.kernel_size * self.kernel_size
        offsets = self.offset_conv(x)
        kernels = reshape(self.kernel_conv(x), (n, self.groups, kk, h, w))
        return ddc_forward(x, offsets, kernels, self.kernel_size)


class Involution3D(Module):
    """Involution over the (T, H, W) volume with per-position K^3 kernels.

    The kernel-generation subnetwork is pointwise conv C -> C/r, GELU,
    pointwise conv C/r -> G*K^3; generated kernels are shared across the
    channels of each group, applied to the zero-padded K^3 neighborhood,
    and a per-channel bias is added to the aggregate.
    """

    def __init__(self, channels, kernel_size=3, groups=1, reduction=4, rng=None, dtype=F32):
        if kernel_size % 2 == 0:
            raise ShapeError(f"involution kernel size must be odd, got {kernel_size}")
        if channels % reduction != 0:
            raise ShapeError(f"reduction {reduction} must divide channels {channels}")
        if channels % groups != 0:
            raise ShapeError(f"groups {groups} must divide channels {channels}")
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.groups = groups
        hidden = channels // reduction
        self.reduce = PointwiseConv(channels, hidden, rng=rng, dtype=dtype)
        self.span = PointwiseConv(hidden, groups * kernel_size ** 3, rng=rng, dtype=dtype)
        self.bias = Param(np.zeros(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        n, _, t, h, w = x.shape
        k3 = self.kernel_size ** 3
        kernels = reshape(self.span(gelu(self.reduce(x))), (n, self.groups, k3, t, h, w))
        return involution3d_forward(x, kernels, self.bias, self.kernel_size)


class PatchEmbed(Module):
    """Non-overlapping p x p patch projection: (B, T, C, H, W) -> (B, T, D, H/p, W/p).

    Each patch's C*p*p values (ordered channel-major, then row-major within
    the patch) are linearly projected to D channels; equivalent to a
    kernel-p convolution applied per frame at every p-th position.
    """

    def __init__(self, in_channels, patch_size, embed_dim, rng=None, dtype=F32):
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.proj = PointwiseConv(in_channels * patch_size ** 2, embed_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if len(x.shape) != 5:
            raise ShapeError(f"patch_embed: input must be (B, T, C, H, W), got {x.shape}")
        b, t, c, h, w = x.shape
        p = self.patch_size
        folded = reshape(x, (b * t, c, h, w))
        patches = pixel_unshuffle(folded, p)
        return reshape(self.proj(patches), (b, t, self.embed_dim, h // p, w // p))


class PatchBack(Module):
    """Temporal fold and sub-pixel restore: (B, T, D, H', W') -> (B, C, H'*p, W'*p).

    The T steps are folded into the channel axis (channel index t*D + d),
    a pointwise projection maps T*D -> C*p*p, and a sub-pixel rearrangement
    distributes the p*p factor back onto the spatial axes.
    """

    def __init__(self, input_steps, embed_dim, patch_size, out_channels, rng=None, dtype=F32):
        self.input_steps = input_steps
        self.embed_dim = embed_dim
        self.patch_size = patch_size
        self.proj = PointwiseConv(
            input_steps * embed_dim, out_channels * patch_size ** 2, rng=rng, dtype=dtype
        )

    def forward(self, x: Tensor) -> Tensor:
        if len(x.shape) != 5:
            raise ShapeError(f"patch_back: input must be (B, T, D, H', W'), got {x.shape}")
        b, t, d, hp, wp = x.shape
        if t != self.input_steps or d != self.embed_dim:
            raise ShapeError(
                f"patch_back: expected (B, {self.input_steps}, {self.embed_dim}, H', W'), got {x.shape}"
            )
        folded = reshape(x, (b, t * d, hp, wp))
        return pixel_shuffle(self.proj(folded), self.patch_size)
