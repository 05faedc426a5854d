"""Convolution variants with forward and backward passes.

Pointwise and standard convolutions, bilinear sampling, deformable dynamic
convolution (per-position kernels applied at offset-displaced sampling
locations), 3D involution over (T, H, W) volumes, and patch embed/back.

Forward accumulation orders are fixed and documented per operation so that
independent nested-loop oracles can reproduce outputs bit-for-bit. The
pointwise and standard convolutions evaluate their contracted order on
channel-first rows: each input channel's tap window (the whole channel for
pointwise) is copied into one contiguous row, and every output channel takes
``w * row`` through one reused product buffer, so the additions happen in the
contracted order as long, contiguous row updates.

Backward passes are free to use faster reductions since gradients are
validated against finite differences rather than an exact summation order.
Backward channel contractions run as BLAS ``matmul``, and the deformable
convolution scatters its input gradient through the transpose of each tap's
sparse bilinear sampling matrix. Both sum in the same order on every call
for a fixed thread count, so training stays bit-reproducible per seed.
"""

from __future__ import annotations

import itertools
import math

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
)

__all__ = [
    "ConvSpec",
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


class ConvSpec:
    """Static description of a convolution: channels, kernel, stride, rank.

    Kernel sizes must be odd (centered receptive field); shape-preserving
    layers use padding (K-1)/2, which is what every layer in this library
    does.
    """

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, dims=2, bias=True):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {kernel_size}")
        if stride < 1:
            raise ShapeError(f"stride must be >= 1, got {stride}")
        if dims not in (2, 3):
            raise ShapeError(f"dims must be 2 or 3, got {dims}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.dims = int(dims)
        self.bias = bool(bias)

    @property
    def padding(self) -> int:
        return (self.kernel_size - 1) // 2


def _check_weights(op: str, x: Tensor, *weights):
    for wt in weights:
        if wt is None:
            continue
        if wt.data.dtype != x.data.dtype:
            raise ShapeError(
                f"{op}: weight dtype {wt.data.dtype} does not match input dtype {x.data.dtype}"
            )


# ---------------------------------------------------------------------------
# Ordered channel contraction shared by the pointwise and standard forwards
# ---------------------------------------------------------------------------


def _ordered_contract(w2, rows, n, spatial, b) -> np.ndarray:
    """out[:, co, pos] = sum_k w2[co, k] * row_k[pos] + b[co], in ascending ``k``.

    ``rows`` yields the ``w2.shape[1]`` contraction rows, each a contiguous
    flat (N * prod(spatial),) array, in contraction order (see
    ``_window_rows``). The sum starts from zeros and adds one outer product
    ``w2[:, k] * row_k`` at a time through a single reused (C_out, M) buffer,
    bias last, which is the scalar oracle's order for every output element.
    Returns a C-contiguous (N, C_out, *spatial) array: later pairwise
    reductions depend on memory layout, so the result must not be a
    transposed view.
    """
    c_out = w2.shape[0]
    # The result is allocated first: the accumulator and the product buffer,
    # freed on return, then sit above it in the heap, where the allocator can
    # hand them back. Allocated after them, the result left a freed block
    # below it, and peak RSS of a training step rose by ~2%.
    result = np.empty((n, c_out) + spatial, dtype=w2.dtype)
    out = np.zeros((c_out, n * math.prod(spatial)), dtype=w2.dtype)
    tmp = np.empty_like(out)
    for w_k, row in zip(w2.T, rows):
        np.multiply.outer(w_k, row, out=tmp)
        out += tmp
    if b is not None:
        out += b.data[:, None]
    np.copyto(result, out.reshape((c_out, n) + spatial).swapaxes(0, 1))
    return result


def _window_rows(x, window_slices, out_spatial):
    """Each (channel, window) of (N, C, *spatial) ``x`` in lexicographic order,
    copied into one reused contiguous (N, *out_spatial) buffer and yielded
    as its flat row.

    A single whole-channel window gives the pointwise rows. The buffer holds
    one row, so no input-sized channel-first copy is ever live.
    """
    buf = np.empty((x.shape[0],) + out_spatial, dtype=x.dtype)
    row = buf.reshape(-1)
    windows = [x[(slice(None), slice(None)) + sl] for sl in window_slices]
    for ci in range(x.shape[1]):
        for window in windows:
            np.copyto(buf, window[:, ci])
            yield row


# ---------------------------------------------------------------------------
# Pointwise convolution (K = 1), rank agnostic over trailing spatial axes
# ---------------------------------------------------------------------------


def pointwise_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1x1 convolution: out[n, co, pos] = sum_ci w[co, ci] * x[n, ci, pos] + b[co].

    ``x`` is (N, C_in, *spatial) with any spatial rank >= 1. Channel
    contributions accumulate in ascending ``ci`` order with the bias added
    last, the order the brute-force oracle reproduces exactly. The sum runs
    over channel-first rows, each channel copied into one reused contiguous
    buffer (see ``_ordered_contract``).
    """
    xd, wd = x.data, w.data
    if xd.ndim < 3:
        raise ShapeError(f"pointwise_conv: input must be (N, C, *spatial), got {xd.shape}")
    if wd.ndim != 2:
        raise ShapeError(f"pointwise_conv: weight must be (C_out, C_in), got {wd.shape}")
    c_in = xd.shape[1]
    if wd.shape[1] != c_in:
        raise ShapeError(
            f"pointwise_conv: channel mismatch: input has {c_in} channels, weight expects {wd.shape[1]}"
        )
    _check_weights("pointwise_conv", x, w, b)
    c_out = wd.shape[0]
    n = xd.shape[0]
    spatial = xd.shape[2:]
    if b is not None and b.data.shape != (c_out,):
        raise ShapeError(f"pointwise_conv: bias must be ({c_out},), got {b.data.shape}")

    whole_channel = [(slice(None),) * len(spatial)]
    out = _ordered_contract(wd, _window_rows(xd, whole_channel, spatial), n, spatial, b)
    add_flops(2 * n * c_out * c_in * int(np.prod(spatial)))

    result = Tensor._wrap(out)
    spatial_axes = tuple(range(2, xd.ndim))

    def vjp(g):
        g2 = g.reshape(n, c_out, -1)
        x2 = xd.reshape(n, c_in, -1)
        gx = np.matmul(wd.T, g2).reshape(xd.shape)
        gw = np.matmul(g2, x2.transpose(0, 2, 1)).sum(axis=0)
        if b is None:
            return (gx, gw)
        gb = g.sum(axis=(0,) + spatial_axes)
        return (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


# ---------------------------------------------------------------------------
# Standard (textbook) convolution with zero padding, 2D or 3D
# ---------------------------------------------------------------------------


def standard_conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Cross-correlation with zero padding (K-1)/2, shape preserving at stride 1.

    ``w`` is (C_out, C_in, K, K) for 2D inputs (N, C, H, W) or
    (C_out, C_in, K, K, K) for 3D inputs (N, C, T, H, W). Contributions
    accumulate in (input channel, tap row-major) lexicographic order with
    the bias added last. The sum runs over channel-first rows: each
    (channel, tap) window is copied into one reused contiguous buffer (see
    ``_ordered_contract``), so K=1 computes exactly what ``pointwise_conv``
    does.
    """
    xd, wd = x.data, w.data
    d = wd.ndim - 2
    if d not in (2, 3):
        raise ShapeError(f"standard_conv: weight rank {wd.ndim} not supported")
    if xd.ndim != d + 2:
        raise ShapeError(
            f"standard_conv: input rank {xd.ndim} does not match weight spatial rank {d}"
        )
    c_out, c_in = wd.shape[:2]
    if xd.shape[1] != c_in:
        raise ShapeError(
            f"standard_conv: channel mismatch: input has {xd.shape[1]} channels, weight expects {c_in}"
        )
    _check_weights("standard_conv", x, w, b)
    ksizes = wd.shape[2:]
    for k in ksizes:
        if k % 2 == 0:
            raise ShapeError(f"standard_conv: kernel sizes must be odd, got {ksizes}")
    if b is not None and b.data.shape != (c_out,):
        raise ShapeError(f"standard_conv: bias must be ({c_out},), got {b.data.shape}")

    n = xd.shape[0]
    in_spatial = xd.shape[2:]
    pads = tuple((k - 1) // 2 for k in ksizes)
    out_spatial = tuple(
        (s + 2 * p - k) // stride + 1 for s, p, k in zip(in_spatial, pads, ksizes)
    )

    xpad = np.zeros((n, c_in) + tuple(s + 2 * p for s, p in zip(in_spatial, pads)), dtype=xd.dtype)
    center = tuple(slice(p, p + s) for p, s in zip(pads, in_spatial))
    xpad[(slice(None), slice(None)) + center] = xd

    taps = list(itertools.product(*(range(k) for k in ksizes)))
    window_slices = [
        tuple(slice(t, t + stride * (os - 1) + 1, stride) for t, os in zip(tap, out_spatial))
        for tap in taps
    ]
    out = _ordered_contract(
        wd.reshape(c_out, -1), _window_rows(xpad, window_slices, out_spatial), n, out_spatial, b
    )
    add_flops(2 * n * c_out * c_in * int(np.prod(out_spatial)) * int(np.prod(ksizes)))

    result = Tensor._wrap(out)
    spatial_axes = tuple(range(2, xd.ndim))

    def vjp(g):
        gw = np.empty_like(wd)
        gxpad = np.zeros_like(xpad)
        g2 = g.reshape(n, c_out, -1)
        for tap, sl in zip(taps, window_slices):
            window = xpad[(slice(None), slice(None)) + sl].reshape(n, c_in, -1)
            tap_w = (slice(None), slice(None)) + tap
            gw[tap_w] = np.matmul(g2, window.transpose(0, 2, 1)).sum(axis=0)
            gxpad[(slice(None), slice(None)) + sl] += np.matmul(wd[tap_w].T, g2).reshape(
                (n, c_in) + out_spatial
            )
        gx = gxpad[(slice(None), slice(None)) + center]
        if b is None:
            return (gx, gw)
        gb = g.sum(axis=(0,) + spatial_axes)
        return (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


# ---------------------------------------------------------------------------
# Shared-filter convolution: one K^d filter slid over every channel
# ---------------------------------------------------------------------------


def shared_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Depthwise convolution with a single filter shared by all channels.

    ``w`` is (K, K) for 2D inputs or (K, K, K) for 3D inputs; ``b`` is a
    single-element tensor added to every output. This is the ablation
    stand-in for the dynamic operators: a position-agnostic, channel-shared
    filter. Taps accumulate in row-major order, bias last.
    """
    xd, wd = x.data, w.data
    d = wd.ndim
    if d not in (2, 3):
        raise ShapeError(f"shared_conv: filter rank {d} not supported")
    if xd.ndim != d + 2:
        raise ShapeError(f"shared_conv: input rank {xd.ndim} does not match filter rank {d}")
    _check_weights("shared_conv", x, w, b)
    for k in wd.shape:
        if k % 2 == 0:
            raise ShapeError(f"shared_conv: kernel sizes must be odd, got {wd.shape}")
    if b is not None and b.data.shape != (1,):
        raise ShapeError(f"shared_conv: bias must be shape (1,), got {b.data.shape}")

    n, c = xd.shape[:2]
    spatial = xd.shape[2:]
    pads = tuple((k - 1) // 2 for k in wd.shape)
    xpad = np.zeros((n, c) + tuple(s + 2 * p for s, p in zip(spatial, pads)), dtype=xd.dtype)
    center = tuple(slice(p, p + s) for p, s in zip(pads, spatial))
    xpad[(slice(None), slice(None)) + center] = xd

    taps = list(itertools.product(*(range(k) for k in wd.shape)))
    slices = [tuple(slice(t, t + s) for t, s in zip(tap, spatial)) for tap in taps]
    out = np.zeros_like(xd)
    for tap, sl in zip(taps, slices):
        out += wd[tap] * xpad[(slice(None), slice(None)) + sl]
    if b is not None:
        out += b.data[0]
    add_flops(2 * xd.size * len(taps))

    result = Tensor._wrap(out)

    def vjp(g):
        gw = np.empty_like(wd)
        gxpad = np.zeros_like(xpad)
        for tap, sl in zip(taps, slices):
            window = xpad[(slice(None), slice(None)) + sl]
            gw[tap] = np.sum(g * window)
            gxpad[(slice(None), slice(None)) + sl] += wd[tap] * g
        gx = gxpad[(slice(None), slice(None)) + center]
        if b is None:
            return (gx, gw)
        return (gx, gw, np.array([g.sum()], dtype=g.dtype))

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------


def _corner_weights(wr, wq, dtype):
    one = dtype.type(1)
    return (one - wr) * (one - wq), (one - wr) * wq, wr * (one - wq), wr * wq


def bilinear_sample(x: Tensor, n: int, c: int, r, q) -> Tensor:
    """Sample channel (n, c) of a (N, C, H, W) tensor at fractional (row, col).

    Bilinear interpolation of the four surrounding cells; cells outside
    [0, H) x [0, W) contribute zero. ``r`` and ``q`` may be floats or
    single-element Tensors; gradient flows to the four cells and, for Tensor
    coordinates, to (r, q). Exact on lattice points, linear along each axis
    in between.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"bilinear_sample: input must be (N, C, H, W), got {xd.shape}")
    h, w = xd.shape[2:]
    dtype = xd.dtype

    r_t = r if isinstance(r, Tensor) else None
    q_t = q if isinstance(q, Tensor) else None
    rv = dtype.type(r.item() if r_t is not None else r)
    qv = dtype.type(q.item() if q_t is not None else q)

    r0 = int(np.floor(rv))
    q0 = int(np.floor(qv))
    wr = rv - dtype.type(r0)
    wq = qv - dtype.type(q0)

    def cell(ri, qi):
        if 0 <= ri < h and 0 <= qi < w:
            return xd[n, c, ri, qi]
        return dtype.type(0)

    v00, v01, v10, v11 = cell(r0, q0), cell(r0, q0 + 1), cell(r0 + 1, q0), cell(r0 + 1, q0 + 1)
    w00, w01, w10, w11 = _corner_weights(wr, wq, dtype)
    value = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    add_flops(8)
    if probing_active():
        probe_kink("bilinear_coord", min(abs(rv - round(float(rv))), abs(qv - round(float(qv)))))

    result = Tensor._wrap(np.array([value], dtype=dtype))
    inputs: list[Tensor] = [x]
    if r_t is not None:
        inputs.append(r_t)
    if q_t is not None:
        inputs.append(q_t)

    def vjp(g):
        gs = g[0]
        gx = np.zeros_like(xd)
        for (ri, qi), wt in (((r0, q0), w00), ((r0, q0 + 1), w01),
                             ((r0 + 1, q0), w10), ((r0 + 1, q0 + 1), w11)):
            if 0 <= ri < h and 0 <= qi < w:
                gx[n, c, ri, qi] += gs * wt
        grads = [gx]
        one = dtype.type(1)
        if r_t is not None:
            dr = (v10 - v00) * (one - wq) + (v11 - v01) * wq
            grads.append(np.array([gs * dr], dtype=dtype))
        if q_t is not None:
            dq = (v01 - v00) * (one - wr) + (v11 - v10) * wr
            grads.append(np.array([gs * dq], dtype=dtype))
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

    Exact accumulation order (matched by the nested-loop oracle): for each
    tap the four corner terms sum as ((v00*w00 + v01*w01) + v10*w10) +
    v11*w11, then the kernel-weighted taps accumulate left to right.
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

    dtype = xd.dtype
    rep = c // groups
    half = (kernel_size - 1) // 2
    rows = np.arange(h, dtype=dtype).reshape(1, h, 1)
    cols = np.arange(w, dtype=dtype).reshape(1, 1, w)
    xt = np.ascontiguousarray(xd.transpose(0, 2, 3, 1))  # (n, h, w, c) gather layout
    bidx = np.arange(n).reshape(n, 1, 1)

    def gather(ri, qi):
        mask = (ri >= 0) & (ri < h) & (qi >= 0) & (qi < w)
        v = xt[bidx, np.clip(ri, 0, h - 1), np.clip(qi, 0, w - 1)]
        v[~mask] = 0
        return v, mask

    out = np.zeros_like(xd)
    out_g = out.reshape(n, groups, rep, h, w)
    saved = []
    probe = probing_active()
    worst = np.inf
    for tap in range(kk):
        dy = tap // kernel_size - half
        dx = tap % kernel_size - half
        r = (rows + dtype.type(dy)) + od[:, 2 * tap]
        q = (cols + dtype.type(dx)) + od[:, 2 * tap + 1]
        if probe:
            worst = min(
                worst,
                float(np.abs(r - np.round(r)).min()),
                float(np.abs(q - np.round(q)).min()),
            )
        r0 = np.floor(r)
        q0 = np.floor(q)
        wr = r - r0
        wq = q - q0
        r0i = r0.astype(np.int64)
        q0i = q0.astype(np.int64)
        v00, m00 = gather(r0i, q0i)
        v01, m01 = gather(r0i, q0i + 1)
        v10, m10 = gather(r0i + 1, q0i)
        v11, m11 = gather(r0i + 1, q0i + 1)
        w00, w01, w10, w11 = _corner_weights(wr, wq, dtype)
        sampled = (
            v00 * w00[..., None]
            + v01 * w01[..., None]
            + v10 * w10[..., None]
            + v11 * w11[..., None]
        )
        out_g += kd[:, :, tap, None] * sampled.transpose(0, 3, 1, 2).reshape(n, groups, rep, h, w)
        saved.append((r0i, q0i, wr, wq, (v00, v01, v10, v11), (m00, m01, m10, m11), sampled))
    add_flops(10 * n * c * h * w * kk)
    if probe:
        probe_kink("bilinear_coord", worst)

    result = Tensor._wrap(out)

    def vjp(g):
        # Gradients are formed in the (n, h, w, c) gather layout. The input
        # gradient of each tap is S.T @ gs, where S is that tap's bilinear
        # sampling matrix: one row per output position, four entries per row,
        # columns indexing flattened input positions plus one dummy column
        # that absorbs out-of-bounds corners and is dropped at the end.
        npos = n * h * w
        g_t = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, h, w, groups, rep)
        gx_flat = np.zeros((npos + 1, c), dtype=dtype)
        g_off = np.zeros_like(od)
        g_kern = np.empty_like(kd)
        one = dtype.type(1)
        indptr = np.arange(0, 4 * npos + 1, 4)
        corner_cols = np.empty((npos, 4), dtype=np.int64)
        corner_wts = np.empty((npos, 4), dtype=dtype)
        for tap, (r0i, q0i, wr, wq, corners, masks, sampled) in enumerate(saved):
            v00, v01, v10, v11 = corners
            g_kern[:, :, tap] = (
                (g_t * sampled.reshape(n, h, w, groups, rep)).sum(axis=4).transpose(0, 3, 1, 2)
            )
            gs = (g_t * kd[:, :, tap].transpose(0, 2, 3, 1)[..., None]).reshape(n, h, w, c)
            base = (bidx * h + r0i) * w + q0i
            for k, (shift, m) in enumerate(zip((0, 1, w, w + 1), masks)):
                corner_cols[:, k] = np.where(m, base + shift, npos).reshape(-1)
            for k, wt in enumerate(_corner_weights(wr, wq, dtype)):
                corner_wts[:, k] = wt.reshape(-1)
            sampling = sparse.csr_array(
                (corner_wts.reshape(-1), corner_cols.reshape(-1), indptr), shape=(npos, npos + 1)
            )
            gx_flat += sampling.T @ gs.reshape(npos, c)
            dr = (v10 - v00) * (one - wq)[..., None] + (v11 - v01) * wq[..., None]
            dq = (v01 - v00) * (one - wr)[..., None] + (v11 - v10) * wr[..., None]
            g_off[:, 2 * tap] = (gs * dr).sum(axis=3)
            g_off[:, 2 * tap + 1] = (gs * dq).sum(axis=3)
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
    kernels[n, g(c), tap, t, y, x] * x_padded[n, c, t+dt-h, y+dy-h, x+dx-h]
    + bias[c], with h = (K-1)/2 and zero padding. Kernels are shared across
    the channels of each group and left unnormalized.
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

    half = (kernel_size - 1) // 2
    rep = c // groups
    xpad = np.zeros((n, c, t + 2 * half, h + 2 * half, w + 2 * half), dtype=xd.dtype)
    xpad[:, :, half : half + t, half : half + h, half : half + w] = xd

    taps = list(itertools.product(range(kernel_size), repeat=3))
    slices = [
        (slice(dt, dt + t), slice(dy, dy + h), slice(dx, dx + w)) for dt, dy, dx in taps
    ]
    xpad_g = xpad.reshape((n, groups, rep) + xpad.shape[2:])
    out = np.zeros_like(xd)
    out_g = out.reshape(n, groups, rep, t, h, w)
    for tap_idx, sl in enumerate(slices):
        out_g += kd[:, :, tap_idx, None] * xpad_g[(slice(None),) * 3 + sl]
    out += bias.data.reshape(1, c, 1, 1, 1)
    add_flops(2 * xd.size * k3)

    result = Tensor._wrap(out)

    def vjp(g):
        g_kern = np.empty_like(kd)
        gxpad = np.zeros_like(xpad)
        gxpad_g = gxpad.reshape(xpad_g.shape)
        g_g = g.reshape(n, groups, rep, t, h, w)
        for tap_idx, sl in enumerate(slices):
            window = xpad_g[(slice(None),) * 3 + sl]
            g_kern[:, :, tap_idx] = (g_g * window).sum(axis=2)
            gxpad_g[(slice(None),) * 3 + sl] += g_g * kd[:, :, tap_idx, None]
        gx = gxpad[:, :, half : half + t, half : half + h, half : half + w]
        gb = g.sum(axis=(0, 2, 3, 4))
        return (gx, g_kern, gb)

    record((x, kernels, bias), result, vjp)
    return result


# ---------------------------------------------------------------------------
# Sub-pixel rearrangements
# ---------------------------------------------------------------------------


def pixel_unshuffle(x: Tensor, p: int) -> Tensor:
    """(N, C, H, W) -> (N, C*p*p, H/p, W/p): patch (py, px) lands on channel c*p*p + py*p + px."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"pixel_unshuffle: input must be (N, C, H, W), got {xd.shape}")
    n, c, h, w = xd.shape
    if h % p != 0 or w % p != 0:
        raise ShapeError(
            f"pixel_unshuffle: patch size {p} must divide H={h} and W={w}"
        )
    hp, wp = h // p, w // p
    out = xd.reshape(n, c, hp, p, wp, p).transpose(0, 1, 3, 5, 2, 4).reshape(n, c * p * p, hp, wp)
    result = Tensor._wrap(np.ascontiguousarray(out))

    def vjp(g):
        gi = g.reshape(n, c, p, p, hp, wp).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h, w)
        return (np.ascontiguousarray(gi),)

    record((x,), result, vjp)
    return result


def pixel_shuffle(x: Tensor, p: int) -> Tensor:
    """(N, C*p*p, H, W) -> (N, C, H*p, W*p): channel c*p*p + py*p + px lands on pixel (py, px)."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"pixel_shuffle: input must be (N, C, H, W), got {xd.shape}")
    n, cpp, h, w = xd.shape
    if cpp % (p * p) != 0:
        raise ShapeError(f"pixel_shuffle: channel count {cpp} must be divisible by p*p={p * p}")
    c = cpp // (p * p)
    out = xd.reshape(n, c, p, p, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * p, w * p)
    result = Tensor._wrap(np.ascontiguousarray(out))

    def vjp(g):
        gi = g.reshape(n, c, h, p, w, p).transpose(0, 1, 3, 5, 2, 4).reshape(n, cpp, h, w)
        return (np.ascontiguousarray(gi),)

    record((x,), result, vjp)
    return result


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class PointwiseConv(Module):
    """Learnable 1x1 convolution over the channel axis, any spatial rank."""

    def __init__(self, in_channels, out_channels, bias=True, rng=None, dtype=F32):
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Param(uniform_init(rng, (out_channels, in_channels), in_channels, dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return pointwise_conv(x, self.weight, self.bias)

    __call__ = forward

    def param_count(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)

    def flops(self, n_positions: int) -> int:
        return 2 * n_positions * self.in_channels * self.out_channels


class StandardConv2d(Module):
    """Learnable KxK convolution, zero padded, shape preserving."""

    def __init__(self, in_channels, out_channels, kernel_size=3, bias=True,
                 rng=None, dtype=F32, zero_init=False):
        rng = rng or np.random.default_rng(0)
        self.spec = ConvSpec(in_channels, out_channels, kernel_size, dims=2, bias=bias)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        if zero_init:
            self.weight = Param(np.zeros(shape, dtype=dtype))
        else:
            self.weight = Param(uniform_init(rng, shape, in_channels * kernel_size ** 2, dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return standard_conv(x, self.weight, self.bias)

    __call__ = forward

    def param_count(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)

    def flops(self, n_positions: int) -> int:
        s = self.spec
        return 2 * n_positions * s.in_channels * s.out_channels * s.kernel_size ** 2


class SharedConv(Module):
    """Single learned K^d filter applied depthwise to every channel.

    The ablation replacement for the dynamic operators: a plain spatially
    shared filter (one filter applied per channel axis) of matching kernel
    size, so switching a dynamic path off always shrinks the model.
    """

    def __init__(self, kernel_size=3, dims=2, rng=None, dtype=F32):
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.dims = dims
        shape = (kernel_size,) * dims
        self.weight = Param(uniform_init(rng, shape, kernel_size ** dims, dtype))
        self.bias = Param(np.zeros(1, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return shared_conv(x, self.weight, self.bias)

    __call__ = forward

    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    def flops(self, n_positions: int, channels: int) -> int:
        return 2 * n_positions * channels * self.kernel_size ** self.dims


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
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.groups = groups
        kk = kernel_size * kernel_size
        self.offset_conv = StandardConv2d(
            channels, 2 * kk, self.OFFSET_KERNEL, rng=rng, dtype=dtype, zero_init=True
        )
        self.kernel_conv = PointwiseConv(channels, groups * kk, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"DDCLayer: expected {self.channels} channels, got {c}")
        kk = self.kernel_size * self.kernel_size
        offsets = self.offset_conv.forward(x)
        kernels = reshape(self.kernel_conv.forward(x), (n, self.groups, kk, h, w))
        return ddc_forward(x, offsets, kernels, self.kernel_size)

    __call__ = forward

    def param_count(self) -> int:
        return self.offset_conv.param_count() + self.kernel_conv.param_count()

    def flops(self, n_positions: int) -> int:
        kk = self.kernel_size * self.kernel_size
        agg = 10 * n_positions * self.channels * kk  # 2 MAC + 8 per bilinear sample
        return self.offset_conv.flops(n_positions) + self.kernel_conv.flops(n_positions) + agg


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
        self.channels = channels
        self.kernel_size = kernel_size
        self.groups = groups
        self.reduction = reduction
        hidden = channels // reduction
        self.reduce = PointwiseConv(channels, hidden, rng=rng, dtype=dtype)
        self.span = PointwiseConv(hidden, groups * kernel_size ** 3, rng=rng, dtype=dtype)
        self.bias = Param(np.zeros(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        n, c, t, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"Involution3D: expected {self.channels} channels, got {c}")
        k3 = self.kernel_size ** 3
        kernels = self.span.forward(gelu(self.reduce.forward(x)))
        kernels = reshape(kernels, (n, self.groups, k3, t, h, w))
        return involution3d_forward(x, kernels, self.bias, self.kernel_size)

    __call__ = forward

    def param_count(self) -> int:
        return self.reduce.param_count() + self.span.param_count() + self.bias.size

    def flops(self, n_positions: int) -> int:
        hidden = self.channels // self.reduction
        agg = 2 * n_positions * self.channels * self.kernel_size ** 3
        return (
            self.reduce.flops(n_positions)
            + 8 * n_positions * hidden  # GELU in the generator
            + self.span.flops(n_positions)
            + agg
        )


class PatchEmbed(Module):
    """Non-overlapping p x p patch projection: (B, T, C, H, W) -> (B, T, D, H/p, W/p).

    Each patch's C*p*p values (ordered channel-major, then row-major within
    the patch) are linearly projected to D channels; equivalent to a
    stride-p, kernel-p convolution applied per frame.
    """

    def __init__(self, in_channels, patch_size, embed_dim, rng=None, dtype=F32):
        self.in_channels = in_channels
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.proj = PointwiseConv(in_channels * patch_size ** 2, embed_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if len(x.shape) != 5:
            raise ShapeError(f"patch_embed: input must be (B, T, C, H, W), got {x.shape}")
        b, t, c, h, w = x.shape
        p = self.patch_size
        if h % p != 0 or w % p != 0:
            raise ShapeError(f"patch_embed: patch size {p} must divide H={h} and W={w}")
        folded = reshape(x, (b * t, c, h, w))
        patches = pixel_unshuffle(folded, p)
        emb = self.proj.forward(patches)
        return reshape(emb, (b, t, self.embed_dim, h // p, w // p))

    __call__ = forward

    def param_count(self) -> int:
        return self.proj.param_count()

    def flops(self, n_positions: int) -> int:
        return self.proj.flops(n_positions)


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
        self.out_channels = out_channels
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
        y = self.proj.forward(folded)
        return pixel_shuffle(y, self.patch_size)

    __call__ = forward

    def param_count(self) -> int:
        return self.proj.param_count()

    def flops(self, n_positions: int) -> int:
        return self.proj.flops(n_positions)
