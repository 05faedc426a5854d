"""Dense tensor core with tape-based reverse-mode differentiation.

Float32 is the working precision for training and inference; float64 is used
by the gradient-check harness so finite-difference tolerances are meaningful.
Elementwise arithmetic is strict about shapes: there is no implicit
broadcasting anywhere in this library, reshapes and tiles must be explicit.

Reductions and accumulations run in a fixed order, so forward results are
bit-identical across runs and replays of the same tape produce identical
gradients.

Concurrency: forward/backward over one parameter set is single-writer (no
concurrent mutation of Params or an active Tape); pure tensor math on
distinct tensors is safe to run in parallel, and tensors may be handed
between threads freely. Scopes (``Tape``, ``FlopCounter``, ``KinkProbe``,
``Capture``) are per thread: a primitive or module call is seen only by the
scopes its own thread has entered. So pool threads that share a primitive's
work (``ops``' sharded convolution forward) run numpy only and never call a
primitive or a scope; the primitive records from its calling thread.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import secrets
import struct
import threading
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "F32",
    "F64",
    "ShapeError",
    "TapeError",
    "NumericalError",
    "CheckpointFormatError",
    "Tensor",
    "Param",
    "Tape",
    "Module",
    "FlopCounter",
    "KinkProbe",
    "Capture",
    "add",
    "sub",
    "mul",
    "gelu",
    "reshape",
    "transpose",
    "reduce_sum",
    "backward",
    "atomic_write",
    "save_checkpoint",
    "load_checkpoint",
]

F32 = np.float32
F64 = np.float64
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class ShapeError(ValueError):
    """Operand shapes (or dtypes) violate an operation's contract."""


class TapeError(RuntimeError):
    """backward() was called with a loss the tape cannot differentiate."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where the pipeline requires finite math."""


class CheckpointFormatError(ValueError):
    """A checkpoint file does not match the DDCNCKPT format."""


# ---------------------------------------------------------------------------
# Value carriers
# ---------------------------------------------------------------------------


class Tensor:
    """Dense N-rank float array, the universal value carrier.

    ``data`` is a row-major numpy array (last axis fastest) of dtype float32
    or float64. Construction validates the carrier invariants: every
    dimension size is at least 1, and every element is finite. ``node`` is
    ``(tape serial, entry index)`` on a taped primitive's output, else None.
    """

    __slots__ = ("data", "grad", "node")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in _SUPPORTED_DTYPES else np.float32
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if arr.dtype not in _SUPPORTED_DTYPES:
            raise ShapeError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
        if any(s < 1 for s in arr.shape):
            raise ShapeError(f"all dimension sizes must be >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericalError("tensor construction requires finite values")
        self.data = arr
        self.grad = None
        self.node = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Fast path for op outputs: validation already holds by construction.
        out = object.__new__(cls)
        out.data = arr
        out.grad = None
        out.node = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Param(Tensor):
    """Tensor with a paired gradient buffer.

    The gradient buffer is zero-initialized and accumulated into by
    ``backward``; callers (optimizers) zero it between steps. A Param's name
    is its attribute path in the owning Module (``Module.named_params``).
    """

    __slots__ = ()

    def __init__(self, value, dtype=None):
        super().__init__(value, dtype=dtype)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param(shape={self.shape})"


# ---------------------------------------------------------------------------
# Scopes and the tape
# ---------------------------------------------------------------------------


class _ThreadStack(threading.local):
    def __init__(self):
        self.items = []


class _Scope:
    """Context-scoped instrumentation: ``with`` pushes the instance on its
    subclass's stack for this thread (``_local.items``) and pops it on exit."""

    def __init_subclass__(cls):
        cls._local = _ThreadStack()

    def __enter__(self):
        self._local.items.append(self)
        return self

    def __exit__(self, *exc):
        self._local.items.pop()


_tape_serials = itertools.count()


class Tape(_Scope):
    """Ordered record of executed primitives.

    Used as a context manager: primitives executed inside the ``with`` block
    are recorded; ``backward`` replays the record in exact reverse execution
    order. With no active tape, primitives are pure forward computations.

    The record holds keys, not Tensors: entry ``i`` is (input keys, vjp)
    and its output, marked ``node = (serial, i)``, has key ``i``. An input
    not produced on this tape (a Param, a batch, another tape's output) is
    a leaf, held in ``_leaves`` under the key ``~id(leaf)``, which is
    stable while held. No other Tensor is kept alive by the tape itself.
    """

    def __init__(self):
        self._serial = next(_tape_serials)
        self._entries: list[tuple[tuple[int, ...], Callable]] = []
        self._leaves: dict[int, Tensor] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, tensor: Tensor) -> int:
        node = tensor.node
        if node is not None and node[0] == self._serial:
            return node[1]
        self._leaves[~id(tensor)] = tensor
        return ~id(tensor)


def record(inputs: Sequence[Tensor], output: Tensor, vjp: Callable):
    """Record a primitive on the active tape, if any.

    ``vjp(out_grad)`` must return one gradient array (or None) per input, in
    input order. ``output`` gets its entry's ``node``; the tape keeps only
    the input keys, the leaf inputs and ``vjp``, which captures what it reads.
    """
    if stack := Tape._local.items:
        tape = stack[-1]
        keys = tuple([tape._key(t) for t in inputs])
        output.node = (tape._serial, len(tape._entries))
        tape._entries.append((keys, vjp))


def backward(loss: Tensor, tape: Tape):
    """Accumulate d(loss)/d(leaf) into every leaf tensor reachable on the tape.

    The tape is walked by key in exact reverse execution order from the
    loss's entry. Leaf tensors (Params, inputs, other tapes' outputs)
    receive accumulated gradients in ``.grad``; intermediate gradients live
    only for the duration of the call, so repeated backward calls add
    identical contributions (callers zero Param grads between optimizer steps).
    """
    if loss.size != 1:
        raise TapeError(f"loss must be a single-element tensor, got shape {loss.shape}")
    if loss.node is None or loss.node[0] != tape._serial:
        raise TapeError("loss was not produced by an operation recorded on this tape")

    last = loss.node[1]
    grads: dict[int, np.ndarray] = {last: np.ones_like(loss.data)}
    for index in range(last, -1, -1):
        out_grad = grads.pop(index, None)
        if out_grad is None:
            continue
        keys, vjp = tape._entries[index]
        for key, g in zip(keys, vjp(out_grad)):
            if g is None:
                continue
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    # Each taped output's gradient was popped at its own entry; the rest are leaves'.
    for key, g in grads.items():
        leaf = tape._leaves[key]
        if leaf.grad is None:
            leaf.grad = np.array(g, copy=True)
        else:
            leaf.grad = leaf.grad + g


# ---------------------------------------------------------------------------
# Instrumentation: FLOP counting and kink probing
# ---------------------------------------------------------------------------


class FlopCounter(_Scope):
    """Counts the floating-point cost of every primitive executed in scope.

    Conventions (shared with the analytic profiler): one multiply-accumulate
    is 2 FLOPs, conv bias adds are excluded, elementwise ops cost 1 FLOP per
    output element, GELU costs 8, data movement (reshape/transpose/shuffle)
    costs 0.
    """

    def __init__(self):
        self.flops = 0


def add_flops(n: int):
    for counter in FlopCounter._local.items:
        counter.flops += int(n)


class KinkProbe(_Scope):
    """Collects distances to non-smooth points seen during a forward pass.

    The gradient-check harness uses this to reject instances whose sampling
    coordinates (bilinear lattice crossings) or loss ties (L1 at zero) sit
    too close to a kink for central finite differences to be valid.
    """

    def __init__(self):
        self.margins: dict[str, float] = {}


def probe_kink(kind: str, margin: float):
    for probe in KinkProbe._local.items:
        probe.margins[kind] = min(float(margin), probe.margins.get(kind, math.inf))


def probing_active() -> bool:
    return bool(KinkProbe._local.items)


class Capture(_Scope):
    """``outputs`` maps the attribute path under ``root`` of each module
    called in scope (``"blocks.0.st_att.value_proj"``; ``root`` is ``""``) to
    its outputs, in call order."""

    def __init__(self, root: Module):
        self._paths = {id(m): path for path, m in root.named_modules()}
        self.outputs: dict[str, list[Tensor]] = {}

    def take(self, module: Module, out):
        path = self._paths.get(id(module))
        if path is not None:
            self.outputs.setdefault(path, []).append(out)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------


def _check_binary(op: str, a: Tensor, b: Tensor):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{op}: operands must be Tensors")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes differ: {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: operand dtypes differ: {a.data.dtype} vs {b.data.dtype}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b. Shapes must match exactly (no broadcasting)."""
    _check_binary("add", a, b)
    out = Tensor._wrap(a.data + b.data)
    add_flops(out.data.size)
    record((a, b), out, lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b. Shapes must match exactly (no broadcasting)."""
    _check_binary("sub", a, b)
    out = Tensor._wrap(a.data - b.data)
    add_flops(out.data.size)
    record((a, b), out, lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise Hadamard product. Shapes must match exactly."""
    _check_binary("mul", a, b)
    out = Tensor._wrap(a.data * b.data)
    add_flops(out.data.size)
    ad, bd = a.data, b.data
    record((a, b), out, lambda g: (g * bd, g * ad))
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU activation x * Phi(x), with Phi the exact normal CDF via erf.

    Under a tape the derivative Phi(x) + x * pdf(x) is formed here, so the
    VJP keeps that one array rather than both ``x`` and Phi(x).
    """
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * xd.dtype.type(_INV_SQRT2)))
    out = Tensor._wrap(xd * phi)
    add_flops(8 * out.data.size)
    if Tape._local.items:
        pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(_INV_SQRT_2PI)
        dydx = phi + xd * pdf
        record((x,), out, lambda g: (g * dydx,))
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Reinterpret the row-major buffer under a new shape (explicit, checked)."""
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"reshape: all dimension sizes must be >= 1, got {shape}")
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")
    out = Tensor._wrap(x.data.reshape(shape))
    in_shape = x.data.shape
    record((x,), out, lambda g: (g.reshape(in_shape),))
    return out


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes (materialized contiguous)."""
    axes = tuple(int(a) for a in axes)
    out = Tensor._wrap(np.ascontiguousarray(np.transpose(x.data, axes)))
    inverse = tuple(np.argsort(axes))
    record((x,), out, lambda g: (np.ascontiguousarray(np.transpose(g, inverse)),))
    return out


def reduce_sum(x: Tensor) -> Tensor:
    """Sum all elements into a shape-(1,) tensor."""
    out = Tensor._wrap(np.array([x.data.sum()], dtype=x.data.dtype))
    add_flops(x.data.size)
    shape = x.data.shape
    record((x,), out, lambda g: (np.full(shape, g[0], dtype=g.dtype),))
    return out


# ---------------------------------------------------------------------------
# Module: a composite of Params and sub-Modules
# ---------------------------------------------------------------------------


class Module:
    """Base for layers/models: hierarchical Param discovery by attribute path.

    Calling a module runs its ``forward`` and hands the output to every
    active ``Capture``. Library code calls sub-modules, never their
    ``forward``, so every module call of a model passes through ``__call__``.
    """

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        for capture in Capture._local.items:
            capture.take(self, out)
        return out

    def _walk(self, path: str = "") -> Iterator[tuple[str, Module | Param]]:
        # Pre-order, in attribute declaration order; list and tuple items are
        # named by index. This order is the checkpoint layout.
        yield path, self
        prefix = path + "." if path else ""
        for key, val in vars(self).items():
            if isinstance(val, Param):
                yield prefix + key, val
            elif isinstance(val, Module):
                yield from val._walk(prefix + key)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item._walk(f"{prefix}{key}.{i}")

    def named_modules(self) -> Iterator[tuple[str, Module]]:
        """This module (path ``""``) and every sub-module, by attribute path."""
        return ((path, m) for path, m in self._walk() if isinstance(m, Module))

    def named_params(self) -> Iterator[tuple[str, Param]]:
        return ((path, p) for path, p in self._walk() if isinstance(p, Param))

    def params(self) -> list[Param]:
        return [p for _, p in self.named_params()]

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_params()}

    def load_state(self, state: dict[str, np.ndarray]):
        own = dict(self.named_params())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise CheckpointFormatError(
                f"parameter set mismatch: missing={missing} unexpected={extra}"
            )
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise CheckpointFormatError(
                    f"shape mismatch for {name!r}: checkpoint {arr.shape} vs model {p.data.shape}"
                )
            p.data[...] = arr.astype(p.data.dtype)


# ---------------------------------------------------------------------------
# Atomic file writes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Write ``path`` as a whole: readers see the old file or the complete new one.

    Yields a file opened with ``mode`` ("w" or "wb") on a temporary file in
    the same directory. When the block finishes, the file is flushed to disk
    and moved over ``path`` with ``os.replace``. If the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    # Not tempfile.mkstemp: its files are created 0600, and the artifact would
    # lose the permissions the umask gives a plain open().
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DDCNCKPT"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_params: dict):
    """Write params to the DDCNCKPT v1 container.

    Layout: magic "DDCNCKPT", version u32, count u32, then per param:
    name length u32 + UTF-8 name, rank u32, dims u32 each, payload
    little-endian float32 row-major. The file is replaced atomically.
    """
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(named_params)))
        for name, p in named_params.items():
            data = p.data if isinstance(p, Tensor) else np.asarray(p)
            arr = np.ascontiguousarray(data, dtype="<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


# Parameters are at most rank 5 (3D convolution weights); the cap leaves room
# and rejects a corrupt rank field before its dims are read.
CHECKPOINT_MAX_RANK = 8


def _read_exact(f, n: int, end: int, what: str) -> bytes:
    # Checked against the file size first, so a corrupt length field fails
    # here instead of asking read() for an allocation of that size.
    if n > end - f.tell():
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return f.read(n)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a DDCNCKPT v1 container into a name -> float32 array mapping.

    Any malformed input raises CheckpointFormatError, including non-finite
    values and bytes after the last entry.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", _read_exact(f, 8, end, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, end, "name length"))
            raw_name = _read_exact(f, name_len, end, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(f"parameter name is not UTF-8: {raw_name!r}") from exc
            if name in out:
                raise CheckpointFormatError(f"duplicate parameter name {name!r}")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, end, "rank"))
            if rank > CHECKPOINT_MAX_RANK:
                raise CheckpointFormatError(
                    f"rank {rank} of {name!r} exceeds the maximum {CHECKPOINT_MAX_RANK}"
                )
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, end, "dims"))
            n_elem = math.prod(dims)
            payload = _read_exact(f, 4 * n_elem, end, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            if not np.isfinite(arr).all():
                raise CheckpointFormatError(f"non-finite values in {name!r}")
            out[name] = arr
        if f.tell() != end:
            raise CheckpointFormatError(f"{end - f.tell()} trailing bytes after the last entry")
        return out
