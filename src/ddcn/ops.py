"""Convolution variants with forward and backward passes.

Pointwise and standard convolutions, bilinear sampling, deformable dynamic
convolution (per-position kernels applied at offset-displaced sampling
locations), 3D involution over (T, H, W) volumes, and patch embed/back.
Parameter and FLOP counts live in ``profile`` (``count_params``,
``cost_report``), not on the layers.

Forward accumulation orders are fixed and documented per operation so that
independent nested-loop oracles can reproduce outputs bit-for-bit. Every
fixed-weight conv forward, and the involution's and the deformable
convolution's forwards and VJPs, run on one compiled file (``exact_conv.c``,
built with the system C compiler and cached per user by ``_load_kernel``).
There is no numpy twin: where the file cannot be built, each of these ops
raises ``KernelBuildError``. The kernels take aligned, C-contiguous arrays
and one geometry layout (``_geometry``); an input that is not aligned and
C-contiguous is copied once (``_c_array``).

The pointwise convolution is the standard convolution's K=1 case, and the
shared-filter convolution its one-channel case on the input's (N*C, 1,
*spatial) planes: all three run one forward (``_conv_forward``), which
evaluates the contracted order, output element by output element, from +0
over (input channel, tap) with the bias last. It holds a tile of
accumulators in registers across all terms, with one rounded multiply and
one rounded add per term, so it has the bits of the scalar loop. Above a
work threshold every compiled call splits the batch into shards, one per CPU
up to 8, on one module-level thread pool (``_compiled_shards``). Shards are
partitions, not orders: each output element sums within its own batch
element, so the bits do not depend on the shard count. The calling thread
allocates every result and keeps all tape, FLOP and probe bookkeeping; pool
threads run the kernels only.
One helper (``_clipped_taps``) checks the kernel sizes of every tap operator
(by ``_check_kernel_sizes``, which the layers' constructors call too)
and owns their centred, row-major tap order: it gives each tap's displacement,
which the deformable convolution samples around, and its window clipped to the
input, so no zero-padded input or gradient is ever built. A read from the
padding is the term ``w * (+0)``: for a finite weight an exact zero, which
never changes a sum that starts at +0. The involution skips such a term, so
a non-finite kernel value at a clipped tap reaches no output. Bilinear
sampling sums each point's four corner terms from +0 in the contracted
corner order, an off-grid corner's term being ``w * (+0)``. The deformable
convolution samples every tap of a position in one pass over the channels,
and accumulates the taps left to right; ``bilinear_sample``, the
gradient-checked scalar op, is its K=1 case on one plane.

A taped call keeps only what its backward pass reads. The deformable
convolution keeps nothing but its three input fields: its VJP recomputes
each tap's corners and weights, and takes the kernel and offset gradients
from four per-corner channel reductions of the input against the output
gradient. The standard, shared and involution convolutions keep their input
and the clipped tap slices. Their VJPs assign the centre tap's input
gradient and add every other tap into its clipped region.

Backward passes are free to use faster reductions since gradients are
validated against finite differences rather than an exact summation order.
The fixed-weight convs' backward channel contractions run as BLAS
``matmul``. The deformable convolution scatters its input gradient corner by
corner in one fixed order for any shard count (``ddc_forward``). The
involution VJP's input gradient takes the centre tap's ``g * k`` and adds
every other tap's in ``_centre_first`` order; its kernel gradient sums
``g * x`` over each group's channels in ascending order from +0, +0 where
the tap is clipped; its bias gradient is one whole-batch sum on the calling
thread. Each sums in the same order on every call for a fixed thread count,
so training stays bit-reproducible per seed.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import math
import os
import platform
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .numerics import (
    F32,
    F64,
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
    "KernelBuildError",
]


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=F32) -> np.ndarray:
    """Uniform in +-1/sqrt(fan_in); the library's default weight init."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# Every compiled call shards its batch over one pool, created once; its
# threads start on first use. Calls below _SHARD_MIN_MACS multiply-adds run
# inline as one shard. Tests force sharding by patching these constants.
_SHARD_MIN_MACS = 1 << 22
_POOL_SIZE = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1, 8)
_POOL = ThreadPoolExecutor(_POOL_SIZE, thread_name_prefix="ddcn-conv")

# The compiled kernels (``exact_conv.c``), built by ``_load_kernel`` on first
# use. Tests force a missing compiler by patching _CC.
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_SOURCE = Path(__file__).with_name("exact_conv.c")
# The entry points of exact_conv.c, each built per dtype as ddcn_<name>_f32
# and _f64, and their pointer-argument counts. Each returns 0, or -1 where it
# could not allocate a buffer.
_ENTRY_POINTS = {"contract": 5, "involution": 5, "involution_vjp": 6, "ddc": 5, "ddc_vjp": 8}


class KernelBuildError(OSError):
    """``exact_conv.c`` could not be built or loaded: no C compiler, a failed
    build (the message carries the compiler's stderr), or a cache directory
    that cannot be written. The CLI reports it as an I/O error (exit 2)."""


@functools.cache
def _load_kernel() -> dict:
    """The compiled kernels, keyed by (entry point, dtype).

    Builds ``exact_conv.c`` with the system C compiler into
    ``$XDG_CACHE_HOME/ddcn`` (else ``~/.cache/ddcn``, created mode 0700) and
    loads it with ``ctypes``, which releases the GIL during each call. The
    file is named by SHA-256 over the source, the flags, the compiler's
    ``--version`` and the host CPU, so a cache shared between hosts never
    loads a ``-march=native`` build for another CPU. The result holds every
    entry point of _ENTRY_POINTS in float32 and float64. A build writes a
    temporary file and renames it into place, so processes building at once
    leave one working file, and a failed build leaves none. Any failure
    raises ``KernelBuildError``; failures are not cached, so the next call
    tries again.
    """
    try:
        digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes())
        digest.update(" ".join(_CFLAGS).encode())
        digest.update(subprocess.run([_CC, "--version"], capture_output=True, check=True,
                                     timeout=60).stdout)
        digest.update(platform.machine().encode())
        try:
            with open("/proc/cpuinfo", "rb") as f:  # x86 lists "flags", aarch64 "Features"
                digest.update(next((line for line in f
                                    if line.startswith((b"flags", b"Features"))), b""))
        except OSError:
            pass
        root = os.environ.get("XDG_CACHE_HOME", "")
        cache = (Path(root) if os.path.isabs(root) else Path.home() / ".cache") / "ddcn"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        lib = cache / f"exact_conv-{digest.hexdigest()[:32]}.so"
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                               capture_output=True, check=True, timeout=300)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        dll = ctypes.CDLL(str(lib))
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip()
        raise KernelBuildError(f"cannot build {_KERNEL_SOURCE.name}: {exc.cmd[0]} exited "
                               f"{exc.returncode}: {stderr}") from exc
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(f"cannot build {_KERNEL_SOURCE.name} with {_CC}: {exc}") from exc
    kernels = {}
    for name, args in _ENTRY_POINTS.items():
        for dtype, suffix in ((np.dtype(F32), "f32"), (np.dtype(F64), "f64")):
            fn = getattr(dll, f"ddcn_{name}_{suffix}")
            fn.argtypes, fn.restype = [ctypes.c_void_p] * args, ctypes.c_int
            kernels[name, dtype] = fn
    return kernels


def _c_array(a: np.ndarray, dtype=None) -> np.ndarray:
    """``a`` as the compiled kernels read it: aligned, C-contiguous and, if
    given, in ``dtype``. ``a`` itself where it is already, else one copy, so
    the kernels never read memory that ``a`` does not own."""
    return np.require(a, dtype, "CA")


def _shard_bounds(n: int, macs: int) -> list:
    """The batch bounds of the shards that a call of ``macs`` multiply-adds
    over ``n`` batch elements runs in: one per pool thread (at most ``n``)
    from _SHARD_MIN_MACS up, else one."""
    shards = max(1, min(n, _POOL_SIZE)) if macs >= _SHARD_MIN_MACS else 1
    return [n * i // shards for i in range(shards + 1)]


def _run_shards(fn, jobs: list):
    """``fn(*job)`` for every job: the first on this thread, the others on
    _POOL. Waits for all of them, and re-raises the first error."""
    futures = [_POOL.submit(fn, *job) for job in jobs[1:]]
    try:
        fn(*jobs[0])
    finally:
        for f in futures:
            f.result()


def _compiled_shards(name: str, macs: int, geom: list, *arrays):
    """Runs entry point ``name`` of ``exact_conv.c`` on ``(*arrays, geom)``
    in batch shards (``_shard_bounds`` of ``macs``). Every array is aligned
    and C-contiguous (``_c_array``), so the kernel finds each element from
    the sizes in ``geom`` (``_geometry``), whose batch size each shard
    replaces with its own. Each shard gets its batch slice of every array
    but a 1-D one, and a null pointer for None; the calling thread allocated
    every result, so shards write disjoint slices. Looks the kernel up on
    the calling thread, so a failed build raises there
    (``KernelBuildError``)."""
    fn = _load_kernel()[name, arrays[0].dtype]
    geom = np.array(geom, dtype=np.int64)

    def shard(lo, hi):
        shard_geom = geom.copy()
        shard_geom[0] = hi - lo
        if fn(*(None if a is None else (a[lo:hi] if a.ndim > 1 else a).ctypes.data
                for a in arrays), shard_geom.ctypes.data):
            raise MemoryError(f"{name} kernel: buffer allocation failed")

    bounds = _shard_bounds(len(arrays[0]), macs)
    _run_shards(shard, list(zip(bounds, bounds[1:])))


def _check_weights(op: str, x, *weights):
    for wt in weights:
        if wt is not None and wt.dtype != x.dtype:
            raise ShapeError(f"{op}: weight dtype {wt.dtype} does not match input dtype {x.dtype}")


# ---------------------------------------------------------------------------
# Clipped tap windows and the ordered channel contraction of one conv core
# ---------------------------------------------------------------------------


def _geometry(x: np.ndarray, m: int, taps: list) -> list:
    """The int64 geometry that every entry point of ``exact_conv.c`` takes
    for the (N, C, *spatial) input ``x``: N, C, ``m`` (the contraction's
    output channels, the involution's and the DDC's groups), the tap count
    and three spatial sizes, led by axes of size 1 where ``x`` has fewer;
    then per tap and axis, so led too, its displacement and the first and
    end output it feeds."""
    n, c, *spatial = x.shape
    pad = 3 - len(spatial)
    geom = [n, c, m, len(taps), *(1,) * pad, *spatial]
    for _, ds, out_sl, _ in taps:
        geom += (0, 0, 1) * pad
        for d, sl in zip(ds, out_sl[1:]):
            geom += (d, sl.start, sl.stop)
    return geom


def _clipped_taps(op: str, spatial: tuple, ksizes: tuple) -> list:
    """The row-major taps of a centred, shape-preserving kernel, one odd size
    per spatial axis, each clipped to the input.

    A tap displaced by ``d`` along an axis reads input ``o + d`` for output
    ``o``; only outputs whose read stays inside the input take part. Returns
    ``(i, ds, out_sl, in_sl)`` per tap: its row-major index, its displacement
    per axis, the outputs it feeds and the equally shaped input block they
    read. The slices lead with an Ellipsis, so they index an (N, C, *spatial)
    array or a grouped reshape. Raises ShapeError unless ``ksizes`` holds one
    odd size >= 1 per axis of ``spatial`` (``_check_kernel_sizes``).
    """
    _check_kernel_sizes(op, ksizes, len(spatial))
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


def _check_kernel_sizes(op: str, ksizes: tuple, rank: int):
    """The kernel-size rule of every tap operator, which ``_clipped_taps``
    and the dynamic layers' constructors share: ``rank`` sizes, each odd and
    >= 1. Raises ShapeError otherwise."""
    if len(ksizes) != rank or any(k < 1 or k % 2 == 0 for k in ksizes):
        raise ShapeError(
            f"{op}: kernel sizes must be odd and >= 1, one per spatial axis ({rank}), "
            f"got {ksizes}"
        )


def _check_counts(**counts):
    """The layers' rule for their channel, group, reduction and patch
    counts, checked before any sizes a weight or divides: each >= 1. Raises
    ShapeError naming the first that is not."""
    for name, value in counts.items():
        if value < 1:
            raise ShapeError(f"{name} must be >= 1, got {value}")


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


def _conv_forward(op: str, xd: np.ndarray, wk: np.ndarray, b: Tensor | None):
    """The exact-order forward of every fixed-weight convolution: (N, C_in,
    *spatial) ``xd``, with one to three spatial axes, aligned and
    C-contiguous (``_c_array``), cross-correlated with (C_out, C_in, *K)
    ``wk`` on clipped taps, plus the optional (C_out,) bias ``b``.

    out[n, co, pos] = sum_k wk[co, k] * row_k[n, pos] + b[co], in ascending
    ``k`` = (input channel, row-major tap), where row ``k`` is the tap's
    window of the channel, +0 where the tap leaves the input. One compiled
    call per shard (``ddcn_contract``) reads ``xd`` and each tap's clipped
    window in place, and the weights and bias through ``_c_array``. Checks
    the dtypes and the bias shape and counts the FLOPs. Returns the
    C-contiguous (N, C_out, *spatial) result and the taps, for the VJP."""
    c_out, c_in = wk.shape[:2]
    _check_weights(op, xd, wk, b)
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"{op}: bias must be ({c_out},), got {b.shape}")
    n, spatial = xd.shape[0], xd.shape[2:]
    taps = _clipped_taps(op, spatial, wk.shape[2:])
    macs = n * c_out * c_in * math.prod(spatial) * len(taps)
    out = np.empty((n, c_out) + spatial, dtype=xd.dtype)
    _compiled_shards("contract", macs, _geometry(xd, c_out, taps), xd,
                     _c_array(wk).reshape(-1), None if b is None else _c_array(b.data), out)
    add_flops(2 * macs)
    return out, taps


def _conv(op: str, x: Tensor, w: Tensor, wk: np.ndarray, b: Tensor | None) -> Tensor:
    """Shape-preserving cross-correlation with kernel ``wk``, ``w.data`` viewed
    as (C_out, C_in, *K); the forward is ``_conv_forward``. The VJP returns the
    weight gradient in ``w``'s own shape."""
    if not 3 <= x.data.ndim <= 5:
        raise ShapeError(f"{op}: input must be (N, C, *spatial) with 1 to 3 spatial axes, "
                         f"got {x.data.shape}")
    xd = _c_array(x.data)
    c_out, c_in = wk.shape[:2]
    if xd.shape[1] != c_in:
        raise ShapeError(
            f"{op}: channel mismatch: input has {xd.shape[1]} channels, weight expects {c_in}"
        )
    out, taps = _conv_forward(op, xd, wk, b)
    n = xd.shape[0]
    w3 = wk.reshape(c_out, c_in, len(taps))
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
        return (gx, gw, g.sum(axis=(0,) + tuple(range(2, xd.ndim))))

    inputs = (x, w) if b is None else (x, w, b)
    record(inputs, result, vjp)
    return result


def pointwise_conv(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1x1 convolution: out[n, co, pos] = sum_ci w[co, ci] * x[n, ci, pos] + b[co].

    ``x`` is (N, C_in, *spatial) with one to three spatial axes and ``w`` is
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
    filter. Its forward is the exact-order core's one-channel case, on the
    (N*C, 1, *spatial) planes of ``x`` with ``w`` as a (1, 1, *K) kernel: taps
    sum row-major from +0, bias last; reads outside the input are absent.
    """
    xd, wd = _c_array(x.data), w.data
    if wd.ndim not in (2, 3):
        raise ShapeError(f"shared_conv: filter rank {wd.ndim} not supported")
    planes = xd.reshape((math.prod(xd.shape[:2]), 1) + xd.shape[2:])
    out, taps = _conv_forward("shared_conv", planes, wd.reshape((1, 1) + wd.shape), b)
    result = Tensor._wrap(out.reshape(xd.shape))
    w_flat = wd.reshape(-1)

    # Not the core's VJP: on the planes its input gradient is one batched
    # (1, 1) @ (1, positions) matmul per plane and tap, 2.3-3.0 ms per tap
    # against 0.4 ms for ``w * g`` at 4,096 planes of 16x16 (2 vCPUs): 41-47
    # against 25-34 ms per VJP in 2D, 133-140 against 73-84 ms in 3D.
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


def _probe_coords(r, q):
    """Under a ``KinkProbe``, reports the fractional sampling points' (row
    ``r``, col ``q``) distance to the nearest lattice line, min(|r - round(r)|,
    |q - round(q)|), as "bilinear_coord". No points report nothing."""
    if probing_active() and r.size:
        probe_kink("bilinear_coord", min(float(np.abs(r - np.round(r)).min()),
                                         float(np.abs(q - np.round(q)).min())))


def bilinear_sample(x: Tensor, n: int, c: int, r, q) -> Tensor:
    """Sample channel (n, c) of a (N, C, H, W) tensor at fractional (row, col).

    Bilinear interpolation of the four surrounding cells; cells outside
    [0, H) x [0, W) contribute zero. ``r`` and ``q`` may be floats or
    single-element Tensors; gradient flows to the four cells and, for Tensor
    coordinates, to (r, q). Exact on lattice points, linear along each axis
    in between. A NaN or infinite coordinate gives NaN.

    This is the deformable convolution at K=1 (``_ddc_compiled``) on the
    (n, c) plane: the offset at position (0, 0) is (r, q) and its kernel
    weight 1, every other offset and weight 0. The sample, the plane's
    gradient and the coordinate gradients are read at (0, 0). Only (r, q)
    goes to a ``KinkProbe``: the plane's other positions sit on lattice
    points.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"bilinear_sample: input must be (N, C, H, W), got {xd.shape}")
    if not (0 <= n < xd.shape[0] and 0 <= c < xd.shape[1]):
        raise ShapeError(f"bilinear_sample: channel ({n}, {c}) out of range for {xd.shape}")
    h, w = xd.shape[2:]
    if h == 0 or w == 0:
        raise ShapeError(f"bilinear_sample: empty plane in {xd.shape}")
    dtype = xd.dtype

    coords = [i for i, v in enumerate((r, q)) if isinstance(v, Tensor)]  # (r, q) taking a gradient
    rq = np.array([v.item() if isinstance(v, Tensor) else v for v in (r, q)], dtype=dtype)
    _probe_coords(rq[:1], rq[1:])
    offsets = np.zeros((1, 2, h, w), dtype=dtype)
    offsets[0, :, 0, 0] = rq
    weights = np.zeros((1, 1, 1, h, w), dtype=dtype)
    weights[0, 0, 0, 0, 0] = 1
    plane = _c_array(xd[n:n + 1, c:c + 1])
    taps = _clipped_taps("bilinear_sample", (h, w), (1, 1))
    out, ddc_vjp = _ddc_compiled(plane, offsets, weights, taps, 10 * h * w)
    add_flops(8)
    result = Tensor._wrap(out[0, 0, 0, :1].copy())

    def vjp(g):
        g_plane = np.zeros(plane.shape, dtype=dtype)
        g_plane[0, 0, 0, :1] = g
        g_cells, g_off, _ = ddc_vjp(g_plane)
        gx = np.zeros_like(xd)
        gx[n, c] = g_cells[0, 0]
        return (gx, *g_off[0, coords, 0, :1])

    inputs = (x, *((r, q)[i] for i in coords))
    record(inputs, result, vjp)
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
    normalization of the dynamic weights. The result is C-contiguous.

    Exact accumulation order (matched by the nested-loop oracle): each tap's
    four corner terms sum from +0 as (((+0 + v00*w00) + v01*w01) + v10*w10)
    + v11*w11, an out-of-bounds corner's term being ``w * (+0)``; then the
    kernel-weighted taps accumulate left to right from +0.

    The compiled kernels (``exact_conv.c``) run the forward and the VJP in
    batch shards on the conv pool, sampling each tap in one pass over the
    channels (``_ddc_compiled``); a taped call keeps only its three inputs.
    A NaN or infinite offset gives NaN at its position and reads no cell.
    Under a ``KinkProbe``, every tap's sampling point is reported.

    The VJP has one order, fixed for any shard count (gradients have no
    order contract; they are checked against finite differences). It walks
    each batch element's positions row-major and its taps in order: it
    scatters ``w_k * g * k`` into the four corners, reduces each corner's
    values against ``g`` over a group's channels (q_k), and forms the kernel
    gradient sum_k w_k q_k and the offset gradients from p_k = sum_g k q_k
    and the fractional coordinates.
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
    if probing_active():
        dy, dx = (np.array([ds[i] for _, ds, _, _ in taps], dtype=xd.dtype).reshape(1, -1, 1, 1)
                  for i in (0, 1))
        _probe_coords((np.arange(h, dtype=xd.dtype).reshape(1, 1, h, 1) + dy) + od[:, 0::2],
                      (np.arange(w, dtype=xd.dtype).reshape(1, 1, 1, w) + dx) + od[:, 1::2])
    flops = 10 * n * c * h * w * kk
    out, vjp = _ddc_compiled(_c_array(xd), _c_array(od), _c_array(kd), taps, flops)
    add_flops(flops)
    result = Tensor._wrap(out)
    record((x, offsets, kernels), result, vjp)
    return result


def _ddc_compiled(xd, od, kd, taps, flops):
    """The deformable convolution of aligned, C-contiguous fields
    (``_c_array``) on the compiled kernels, in batch shards sized by
    ``flops``: its result, and its VJP, which keeps nothing but the three
    input fields. ``ddc_forward`` and ``bilinear_sample`` run it."""
    geom = _geometry(xd, kd.shape[1], taps)
    out = np.empty(xd.shape, dtype=xd.dtype)
    _compiled_shards("ddc", flops // 2, geom, xd, od, kd, out)

    def vjp(g):
        g = _c_array(g, xd.dtype)
        gx, g_off, g_kern = (np.empty(a.shape, dtype=xd.dtype) for a in (xd, od, kd))
        _compiled_shards("ddc_vjp", flops, geom, xd, od, kd, g, gx, g_off, g_kern)
        return (gx, g_off, g_kern)

    return out, vjp


# ---------------------------------------------------------------------------
# 3D involution aggregation
# ---------------------------------------------------------------------------


def involution3d_forward(x: Tensor, kernels: Tensor, bias: Tensor, kernel_size: int) -> Tensor:
    """Neighborhood-local dynamic aggregation over a K^3 volume plus bias.

    out[n, c, t, y, x] = sum over taps (dt, dy, dx) in row-major order of
    kernels[n, g(c), tap, t, y, x] * x[n, c, t+dt-h, y+dy-h, x+dx-h]
    + bias[c], with h = (K-1)/2; reads outside the volume are absent terms
    (zero padding). Kernels are shared across the channels of each group and
    left unnormalized. The result is C-contiguous.

    Exact order (matched by the quintuple-loop oracle): each output element
    sums from +0 over the taps in row-major order, then adds the bias. A tap
    whose read leaves the volume is skipped, not multiplied by a zero, so a
    non-finite kernel value there reaches no output. The compiled kernels
    (``exact_conv.c``) run the forward and the VJP in batch shards on the
    conv pool.

    The VJP's input gradient takes the centre tap's ``g * k`` and adds every
    other tap's in ``_centre_first`` order into its clipped region; the
    kernel gradient of tap i sums ``g * x`` over the group's channels in
    ascending order from +0, and is +0 where the tap is clipped. The bias
    gradient is one whole-batch numpy sum on the calling thread, which a
    batch split would change; ``g`` is made C-contiguous first, so that sum
    has one order for any layout of ``g``.
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
    xd, kd = _c_array(xd), _c_array(kd)
    taps = _clipped_taps("involution3d", (t, h, w), (kernel_size,) * 3)
    macs = xd.size * k3
    geom = _geometry(xd, groups, taps)
    out = np.empty(xd.shape, dtype=xd.dtype)
    _compiled_shards("involution", macs, geom, xd, kd, _c_array(bias.data), out)
    add_flops(2 * macs)
    result = Tensor._wrap(out)

    def vjp(g):
        g = _c_array(g, xd.dtype)
        gx, g_kern = np.empty(xd.shape, dtype=xd.dtype), np.empty(kd.shape, dtype=xd.dtype)
        _compiled_shards("involution_vjp", 2 * macs, geom, xd, kd, g, gx, g_kern)
        return (gx, g_kern, g.sum(axis=(0, 2, 3, 4)))

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
    """Learnable 1x1 convolution over the channel axis, one to three spatial axes."""

    def __init__(self, in_channels, out_channels, rng=None, dtype=F32):
        _check_counts(in_channels=in_channels, out_channels=out_channels)
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
        _check_kernel_sizes("standard_conv", (kernel_size,) * 2, 2)
        _check_counts(in_channels=in_channels, out_channels=out_channels)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Param(np.zeros(shape, dtype=dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return standard_conv(x, self.weight, self.bias)


class SharedConv(Module):
    """Single learned K^d filter applied depthwise to every channel.

    The ablation replacement for the dynamic operators: the conv core's
    one-channel case (``shared_conv``) with a matching kernel size, so
    switching a dynamic path off always shrinks the model.
    """

    def __init__(self, kernel_size=3, dims=2, rng=None, dtype=F32):
        _check_kernel_sizes("shared_conv", (kernel_size,) * dims, dims)
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
        _check_kernel_sizes("ddc_forward", (kernel_size,) * 2, 2)
        _check_counts(channels=channels, groups=groups)
        if channels % groups != 0:
            raise ShapeError(f"groups {groups} must divide channels {channels}")
        self.kernel_size = kernel_size
        self.groups = groups
        kk = kernel_size * kernel_size
        self.offset_conv = StandardConv2d(channels, 2 * kk, self.OFFSET_KERNEL, dtype=dtype)
        self.kernel_conv = PointwiseConv(channels, groups * kk, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        offsets = self.offset_conv(x)  # checks the input's rank and channels
        n, _, h, w = x.shape
        kk = self.kernel_size * self.kernel_size
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
        _check_kernel_sizes("involution3d", (kernel_size,) * 3, 3)
        _check_counts(channels=channels, groups=groups, reduction=reduction)
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
        k3 = self.kernel_size ** 3
        shape = x.shape[:1] + (self.groups, k3) + x.shape[2:]  # the op checks the rank
        kernels = reshape(self.span(gelu(self.reduce(x))), shape)
        return involution3d_forward(x, kernels, self.bias, self.kernel_size)


class PatchEmbed(Module):
    """Non-overlapping p x p patch projection: (B, T, C, H, W) -> (B, T, D, H/p, W/p).

    Each patch's C*p*p values (ordered channel-major, then row-major within
    the patch) are linearly projected to D channels; equivalent to a
    kernel-p convolution applied per frame at every p-th position.
    """

    def __init__(self, in_channels, patch_size, embed_dim, rng=None, dtype=F32):
        _check_counts(in_channels=in_channels, patch_size=patch_size, embed_dim=embed_dim)
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
        _check_counts(input_steps=input_steps, embed_dim=embed_dim, patch_size=patch_size,
                      out_channels=out_channels)
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
