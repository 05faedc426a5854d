"""Outside-in tracer for the DDCN benchmark.

Spans are recorded by wrapping the library's public functions, its tape's
VJP closures and a few module instances from this file; nothing under
``src/`` is edited. ``install`` swaps the wrappers in, ``uninstall`` puts
every original back, so one process can alternate traced and untraced
training steps and measure the tracing overhead.

A span is a name, a start, an end and the span open around it. Spans are
folded into totals as they close (seconds, calls, FLOPs, bytes, and the
time covered by child spans, for self time) keyed by ``(phase, name)``;
the phase is set by the benchmark (setup, train, eval, verify).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import ddcn
from ddcn import data as D
from ddcn import metrics as M
from ddcn import model as MD
from ddcn import numerics as N
from ddcn import ops as O
from ddcn import train as T

# Library modules whose namespaces may hold a reference to a wrapped function.
_NAMESPACES = (ddcn, D, M, MD, N, O, T)

# Primitives reported under ``ops.<name>``: the operators the model runs.
OPS_PRIMITIVES = ("pointwise_conv", "standard_conv", "shared_conv", "ddc_forward",
                  "involution3d_forward", "pixel_shuffle", "pixel_unshuffle")
# Numerics primitives reported as one row each under ``numerics.``.
NUMERICS_PRIMITIVES = {"gelu": "gelu", "add": "elementwise", "sub": "elementwise",
                       "mul": "elementwise"}

_NO_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "start", "children")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.children = 0.0

    def __enter__(self):
        self.tracer._open.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        seconds = time.perf_counter() - self.start
        tracer = self.tracer
        tracer._open.pop()
        if tracer._open:
            tracer._open[-1].children += seconds
        row = tracer.rows[(tracer.phase, self.name)]
        row[0] += seconds
        row[1] += 1
        row[4] += seconds - self.children
        return False


class Tracer:
    """Collects span totals while installed; a no-op when not."""

    def __init__(self):
        self.phase = "setup"
        # (phase, name) -> [seconds, calls, flops, bytes, self_seconds]
        self.rows = defaultdict(lambda: [0.0, 0, 0, 0, 0.0])
        self.installed = False
        self._open: list[_Span] = []
        self._prim: str | None = None
        self._path: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name) if self.installed else _NO_SPAN

    def row(self, phase: str, name: str) -> list:
        return self.rows.get((phase, name), [0.0, 0, 0, 0, 0.0])

    # -- wrappers ---------------------------------------------------------

    def _primitive(self, name: str, fn):
        tracer = self
        label = f"prim.{name}"

        def traced(*args, **kwargs):
            outer = tracer._prim
            tracer._prim = name
            try:
                with N.FlopCounter() as counter, tracer.span(label):
                    out = fn(*args, **kwargs)
            finally:
                tracer._prim = outer
            row = tracer.rows[(tracer.phase, label)]
            row[2] += counter.flops
            row[3] += out.data.nbytes + sum(
                a.data.nbytes for a in args if isinstance(a, N.Tensor))
            return out

        return traced

    def _record(self, fn):
        tracer = self

        def traced(inputs, output, vjp):
            label = f"vjp.{tracer._prim or 'other'}"
            path = tracer._path

            def timed_vjp(g):
                with tracer.span(label):
                    start = time.perf_counter()
                    grads = vjp(g)
                    seconds = time.perf_counter() - start
                if path is not None:
                    row = tracer.rows[(tracer.phase, f"vjp.model.{path}")]
                    row[0] += seconds
                    row[1] += 1
                return grads

            fn(inputs, output, timed_vjp)

        return traced

    def _timed(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def _module(self, path: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            outer = tracer._path
            tracer._path = path
            try:
                with tracer.span(f"model.{path}"):
                    return fn(*args, **kwargs)
            finally:
                tracer._path = outer

        return traced

    def _finite_difference(self, fn):
        tracer = self

        def traced(f, arrays, *args, **kwargs):
            def counted():
                tracer.rows[(tracer.phase, "train.fd_forward")][1] += 1
                return f()

            return fn(counted, arrays, *args, **kwargs)

        return traced

    # -- install / uninstall ----------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for module in _NAMESPACES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_instance(self, obj, attr, wrapper):
        self._patches.append((obj, attr, None))
        setattr(obj, attr, wrapper)

    def install(self, model=None, optimizer=None):
        """Wrap the library functions, and the given model and optimizer."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for name in OPS_PRIMITIVES:
            self._patch_everywhere(getattr(O, name), self._primitive(name, getattr(O, name)))
        for name in NUMERICS_PRIMITIVES:
            self._patch_everywhere(getattr(N, name), self._primitive(name, getattr(N, name)))
        self._patch_everywhere(N.record, self._record(N.record))
        self._patch_everywhere(N.backward, self._timed("numerics.backward", N.backward))
        self._patch_everywhere(T.l1_loss, self._timed("train.l1_loss", T.l1_loss))
        self._patch_everywhere(T.eval_metrics, self._timed("train.eval", T.eval_metrics))
        self._patch_everywhere(T.gradcheck_ops, self._timed("train.gradcheck_ops", T.gradcheck_ops))
        self._patch_everywhere(T.gradcheck_model,
                               self._timed("train.gradcheck_model", T.gradcheck_model))
        self._patch_everywhere(T.finite_difference, self._finite_difference(T.finite_difference))
        self._patch_everywhere(D.load_dataset, self._timed("data.load", D.load_dataset))
        self._patch_everywhere(M.compute_metrics,
                               self._timed("metrics.compute_metrics", M.compute_metrics))
        if model is not None:
            for path, module in model_paths(model):
                self._patch_instance(module, "forward", self._module(path, module.forward))
            self._patch_instance(model, "predict", self._timed("model.predict", model.predict))
        if optimizer is not None:
            self._patch_instance(optimizer, "step", self._timed("train.adamw_step", optimizer.step))
        self.installed = True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)  # drop the instance attribute, exposing the method
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    @contextmanager
    def traced(self, model=None, optimizer=None):
        """Installed inside the block, every original restored after it."""
        self.install(model, optimizer)
        try:
            yield self
        finally:
            self.uninstall()


def model_paths(model) -> list[tuple[str, object]]:
    """Submodules timed inclusively, named as ``profile.cost_report`` row prefixes."""
    paths = [("patch_embed", model.patch_embed)]
    for i, block in enumerate(model.blocks):
        for part in ("st_att", "spatial_att", "ffn"):
            paths.append((f"blocks.{i}.{part}", getattr(block, part)))
    paths.append(("patch_back", model.patch_back))
    return paths
