"""Independent brute-force reference implementations for oracle tests.

Everything here is written as plain scalar loops over numpy scalars, with
no calls into the library, so equality checks against the vectorized
implementations are meaningful. Accumulation orders mirror the documented
contracts: channel-ascending for pointwise, (channel, tap) lexicographic
for standard convolution, row-major taps for the dynamic operators, bias
always last.
"""

import math

import numpy as np


def pointwise_conv_oracle(x, w, b=None):
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    o = w.shape[0]
    zero = x.dtype.type(0)
    out = np.zeros((n, o) + spatial, dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for pos in np.ndindex(*spatial):
                acc = zero
                for ci in range(c):
                    acc = acc + w[oi, ci] * x[(ni, ci) + pos]
                if b is not None:
                    acc = acc + b[oi]
                out[(ni, oi) + pos] = acc
    return out


def standard_conv_oracle(x, w, b=None):
    """Zero-padded cross-correlation, shape preserving, stride 1."""
    n, c_in = x.shape[:2]
    spatial = x.shape[2:]
    c_out = w.shape[0]
    ksizes = w.shape[2:]
    halves = tuple((k - 1) // 2 for k in ksizes)
    zero = x.dtype.type(0)
    out = np.zeros((n, c_out) + spatial, dtype=x.dtype)
    for ni in range(n):
        for oi in range(c_out):
            for pos in np.ndindex(*spatial):
                acc = zero
                for ci in range(c_in):
                    for tap in np.ndindex(*ksizes):
                        src = tuple(p + t - h for p, t, h in zip(pos, tap, halves))
                        inside = all(0 <= s < dim for s, dim in zip(src, spatial))
                        val = x[(ni, ci) + src] if inside else zero
                        acc = acc + w[(oi, ci) + tap] * val
                if b is not None:
                    acc = acc + b[oi]
                out[(ni, oi) + pos] = acc
    return out


def shared_conv_oracle(x, w, b=None):
    """Single filter slid over every channel independently."""
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    ksizes = w.shape
    halves = tuple((k - 1) // 2 for k in ksizes)
    zero = x.dtype.type(0)
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for pos in np.ndindex(*spatial):
                acc = zero
                for tap in np.ndindex(*ksizes):
                    src = tuple(p + t - h for p, t, h in zip(pos, tap, halves))
                    inside = all(0 <= s < dim for s, dim in zip(src, spatial))
                    val = x[(ni, ci) + src] if inside else zero
                    acc = acc + w[tap] * val
                if b is not None:
                    acc = acc + b[0]
                out[(ni, ci) + pos] = acc
    return out


def conv_vjp_oracle(x, w, g, shared=False):
    """The gradients of a fixed-weight conv at output gradient ``g``, in
    float64: the input gradient, the weight gradient and the bias gradient.
    ``w`` is (C_out, C_in, *K), or (C_out, C_in) for a pointwise conv; with
    ``shared``, ``w`` is one (*K) filter slid over every channel, with one
    bias. A loop over outputs, each spreading its gradient over the row-major
    taps whose read stays in the input."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    n, c_in = x.shape[:2]
    spatial = x.shape[2:]
    kernel = w if shared else w.reshape(w.shape[:2] + (w.shape[2:] or (1,) * len(spatial)))
    ksizes = kernel.shape if shared else kernel.shape[2:]
    c_out = c_in if shared else w.shape[0]
    halves = tuple((k - 1) // 2 for k in ksizes)
    gx = np.zeros_like(x)
    gw = np.zeros_like(kernel)
    gb = np.zeros(1 if shared else c_out)
    for ni in range(n):
        for oi in range(c_out):
            for pos in np.ndindex(*spatial):
                go = g[(ni, oi) + pos]
                gb[0 if shared else oi] += go
                for ci in [oi] if shared else range(c_in):
                    for tap in np.ndindex(*ksizes):
                        src = tuple(p + t - h for p, t, h in zip(pos, tap, halves))
                        if all(0 <= s < dim for s, dim in zip(src, spatial)):
                            wi = tap if shared else (oi, ci) + tap
                            gx[(ni, ci) + src] += go * kernel[wi]
                            gw[wi] += go * x[(ni, ci) + src]
    return gx, gw.reshape(w.shape), gb


def bilinear_oracle(plane, r, q):
    """Interpolate a 2D plane at fractional (row, col) with zero padding."""
    h, w = plane.shape
    dt = plane.dtype
    zero = dt.type(0)
    one = dt.type(1)
    r = dt.type(r)
    q = dt.type(q)
    r0 = int(np.floor(r))
    q0 = int(np.floor(q))
    wr = r - dt.type(r0)
    wq = q - dt.type(q0)

    def cell(ri, qi):
        if 0 <= ri < h and 0 <= qi < w:
            return plane[ri, qi]
        return zero

    w00 = (one - wr) * (one - wq)
    w01 = (one - wr) * wq
    w10 = wr * (one - wq)
    w11 = wr * wq
    return (
        cell(r0, q0) * w00
        + cell(r0, q0 + 1) * w01
        + cell(r0 + 1, q0) * w10
        + cell(r0 + 1, q0 + 1) * w11
    )


def ddc_oracle(x, offsets, kernels, k):
    """Quadruple loop over output positions, taps interpolated explicitly."""
    n, c, h, w = x.shape
    groups = kernels.shape[1]
    rep = c // groups
    half = (k - 1) // 2
    dt = x.dtype
    zero = dt.type(0)
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            gi = ci // rep
            for y in range(h):
                for xx in range(w):
                    acc = zero
                    for tap in range(k * k):
                        dy = tap // k - half
                        dx = tap % k - half
                        r = dt.type(y + dy) + offsets[ni, 2 * tap, y, xx]
                        q = dt.type(xx + dx) + offsets[ni, 2 * tap + 1, y, xx]
                        sample = bilinear_oracle(x[ni, ci], r, q)
                        acc = acc + kernels[ni, gi, tap, y, xx] * sample
                    out[ni, ci, y, xx] = acc
    return out


def involution3d_oracle(x, kernels, bias, k):
    """Quintuple loop over (n, c, t, y, x) with row-major K^3 taps, bias last."""
    n, c, t, h, w = x.shape
    groups = kernels.shape[1]
    rep = c // groups
    half = (k - 1) // 2
    dt = x.dtype
    zero = dt.type(0)
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            gi = ci // rep
            for ti in range(t):
                for y in range(h):
                    for xx in range(w):
                        acc = zero
                        tap = 0
                        for dt_ in range(k):
                            for dy in range(k):
                                for dx in range(k):
                                    st = ti + dt_ - half
                                    sy = y + dy - half
                                    sx = xx + dx - half
                                    inside = 0 <= st < t and 0 <= sy < h and 0 <= sx < w
                                    val = x[ni, ci, st, sy, sx] if inside else zero
                                    acc = acc + kernels[ni, gi, tap, ti, y, xx] * val
                                    tap += 1
                        out[ni, ci, ti, y, xx] = acc + bias[ci]
    return out


def involution3d_vjp_oracle(x, kernels, g, k):
    """The involution's gradients at output gradient ``g``, in float64: the
    input gradient, the kernel gradient and the bias gradient (``g`` summed
    over all but the channel axis). A quintuple loop over outputs, each
    spreading its gradient over the row-major K^3 taps whose read stays in
    the volume."""
    x, kernels, g = (np.asarray(a, dtype=np.float64) for a in (x, kernels, g))
    n, c, t, h, w = x.shape
    rep = c // kernels.shape[1]
    half = (k - 1) // 2
    gx = np.zeros_like(x)
    g_kern = np.zeros_like(kernels)
    gb = np.zeros(c)
    for ni in range(n):
        for ci in range(c):
            gi = ci // rep
            for ti in range(t):
                for y in range(h):
                    for xx in range(w):
                        go = g[ni, ci, ti, y, xx]
                        gb[ci] += go
                        tap = 0
                        for dt_ in range(k):
                            for dy in range(k):
                                for dx in range(k):
                                    st = ti + dt_ - half
                                    sy = y + dy - half
                                    sx = xx + dx - half
                                    if 0 <= st < t and 0 <= sy < h and 0 <= sx < w:
                                        kv = kernels[ni, gi, tap, ti, y, xx]
                                        gx[ni, ci, st, sy, sx] += go * kv
                                        g_kern[ni, gi, tap, ti, y, xx] += go * x[ni, ci, st, sy, sx]
                                    tap += 1
    return gx, g_kern, gb


def patch_embed_oracle(x, w, b, p):
    """Per-patch matrix multiply; patch vector order is (c, py, px) row-major."""
    bsz, t, c, h, w_dim = x.shape
    d = w.shape[0]
    hp, wp = h // p, w_dim // p
    zero = x.dtype.type(0)
    out = np.zeros((bsz, t, d, hp, wp), dtype=x.dtype)
    for bi in range(bsz):
        for ti in range(t):
            for oh in range(hp):
                for ow in range(wp):
                    patch = np.empty(c * p * p, dtype=x.dtype)
                    for ci in range(c):
                        for py in range(p):
                            for px in range(p):
                                patch[ci * p * p + py * p + px] = x[
                                    bi, ti, ci, oh * p + py, ow * p + px
                                ]
                    for di in range(d):
                        acc = zero
                        for j in range(c * p * p):
                            acc = acc + w[di, j] * patch[j]
                        out[bi, ti, di, oh, ow] = acc + b[di]
    return out


def pixel_shuffle_index_oracle(shape_in, p):
    """Index map of the sub-pixel rearrangement as pure integer arithmetic.

    Returns an array ``src`` with src[n, c, y, x] = flat index into the
    (N, C*p*p, H', W') input that lands at output (n, c, y, x).
    """
    n, cpp, hp, wp = shape_in
    c = cpp // (p * p)
    src = np.empty((n, c, hp * p, wp * p), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for y in range(hp * p):
                for x in range(wp * p):
                    py, px = y % p, x % p
                    ch = ci * p * p + py * p + px
                    flat = ((ni * cpp + ch) * hp + y // p) * wp + x // p
                    src[ni, ci, y, x] = flat
    return src


def metrics_oracle(pred, actual, threshold):
    """Scalar-loop RMSE / MAE / MAPE with masking."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    se = 0.0
    ae = 0.0
    pe = 0.0
    n_eval = 0
    for p_i, a_i in zip(pred, actual):
        d = p_i - a_i
        se += d * d
        ae += abs(d)
        if abs(a_i) > threshold:
            pe += abs(d / a_i)
            n_eval += 1
    n = pred.size
    rmse = (se / n) ** 0.5
    mae = ae / n
    mape = 100.0 * pe / n_eval if n_eval else float("nan")
    return rmse, mae, mape, n_eval, n - n_eval


def erf_series(z, terms=40):
    """Maclaurin series for erf, independent of scipy."""
    total = 0.0
    for n in range(terms):
        num = (-1) ** n * z ** (2 * n + 1)
        den = math.factorial(n) * (2 * n + 1)
        total += num / den
    return 2.0 / np.sqrt(np.pi) * total


def adam_recurrence(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Hand-rolled AdamW on one scalar parameter."""
    p = float(p0)
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        p = p * (1.0 - lr * wd)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (vhat ** 0.5 + eps)
    return p
