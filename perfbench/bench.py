"""DDCN benchmark workloads, correctness gates and metrics.

Each workload drives the library through its public functions in the
order ``train_loop`` uses them: ``synth_traffic`` -> ``save_dataset`` /
``load_dataset`` -> ``make_windows`` / ``split`` / ``stats_from_windows`` ->
``iter_batches`` -> ``DDCN.forward`` under a ``Tape`` -> ``l1_loss`` ->
``backward`` -> ``AdamW.step``, then ``eval_metrics``, then a fixed
gradient-check set. It is a closed loop: one caller, and each operation
starts when the previous one returns.

After set-up and one untimed warm-up step, a run cycles through turns:
train, eval, one part of the gradient-check set, and again, until every
part ran once (one cycle) -- for at least ``--seconds`` and ``min_cycles``
cycles. Interleaving makes every metric sample the whole run, so a
machine that speeds up and slows down over tens of seconds (a shared
vCPU) moves all of them alike instead of whichever phase it hit.

``run_workload`` returns the end-to-end metrics (untraced run) or the
per-layer metrics (traced run), plus the count of operations attempted and
failed. Every gate failure and every exception inside an operation counts
as one failed operation instead of ending the run.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ddcn import data as D
from ddcn import model as MD
from ddcn import numerics as N
from ddcn import profile as P
from ddcn import train as T

import tracing

# f32 forecast vs the f64 copy of the same weights, in normalized units,
# where outputs are O(1). Float32 rounding (2**-24 relative) accumulated
# over the model's ~10^3-term sums stays below 1e-5; the gap measured at
# both model shapes is about 2e-7.
F64_GATE_ATOL = 1e-4
BATCH = 16     # training protocol batch size, also the eval chunk
FRAMES = 256   # synthetic frames: about 176 train and 51 test windows
GATE_WINDOWS = 2
SETUP_REPEATS = 15  # set-up takes ~0.07 s: a median of many steadies it
# The model's initial weights are part of the workload, like its shape; the
# seed makes the inputs (traffic data and batch order). On the tiny model a
# seeded initialisation doubles the seed-to-seed spread of final_train_l1.
MODEL_SEED = 0
# A turn repeats its operation until it has run this long, so one sample
# covers many 10 ms steps on the tiny model: on a shared vCPU a 10 ms step
# runs at one of two speeds, and a median of single steps jumps between them.
MIN_SAMPLE_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One fixed input set and the operations a run repeats on it."""

    name: str
    grid: int
    model: MD.ModelConfig
    min_steps: int        # final_train_l1 is the mean L1 of the first min_steps steps
    min_cycles: int
    gradcheck_ops: tuple    # parts, each a tuple of operator names for gradcheck_ops
    gradcheck_model: bool


_TINY = replace(T.tiny_model_config(), in_channels=2)

WORKLOADS = {
    "ref_train": Workload(
        "ref_train", grid=32, model=MD.ModelConfig(),
        min_steps=4, min_cycles=3,
        gradcheck_ops=(("pointwise_conv", "standard_conv", "ddc_forward", "involution3d",
                        "patch_embed", "patch_back", "gelu", "l1_loss"),),
        gradcheck_model=False,
    ),
    "ablation_train": Workload(
        "ablation_train", grid=32, model=MD.ModelConfig(use_ddc=False, use_involution3d=False),
        min_steps=4, min_cycles=4,
        gradcheck_ops=(("pointwise_conv", "shared_conv", "patch_embed", "patch_back",
                        "gelu", "l1_loss"),),
        gradcheck_model=False,
    ),
    "verify": Workload(
        "verify", grid=4, model=_TINY,
        min_steps=100, min_cycles=3,
        # every gradcheck_ops case, in two parts of about equal time
        gradcheck_ops=(("pointwise_conv", "standard_conv", "standard_conv3d", "shared_conv",
                        "bilinear_sample", "ddc_forward"),
                       ("ddc_layer", "involution3d", "patch_embed", "patch_back", "gelu",
                        "l1_loss")),
        gradcheck_model=True,
    ),
}

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "eval_samples_per_s": ("1/s", "higher"),
    "final_train_l1": ("l1", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
# Printed with the end-to-end metrics but left out of the result line, so
# no bound gates it: the gradient-check set is interpreter-bound, and on a
# shared vCPU interpreter speed drifts by +-25% between runs minutes apart
# while staying level within one run, so no run length that fits the
# benchmark's budget makes its spread over seeds smaller than 0.25.
REPORTED = {
    "verify_s": ("s", "lower"),
}

# Per-layer metrics are keyed by the ``src/ddcn`` module they measure.
# Submodule paths are those of the depth-2 reference model, named as the
# ``profile.cost_report`` row prefixes; a shallower model reports 0 for
# the blocks it does not have.
MODEL_PATHS = ("patch_embed", "blocks.0.st_att", "blocks.0.spatial_att", "blocks.0.ffn",
               "blocks.1.st_att", "blocks.1.spatial_att", "blocks.1.ffn", "patch_back")


def _per_layer_spec() -> dict:
    spec = {}
    for prim in tracing.OPS_PRIMITIVES:
        spec[f"ops.{prim}.fwd_s"] = ("s", "lower")
        spec[f"ops.{prim}.bwd_s"] = ("s", "lower")
        spec[f"ops.{prim}.calls"] = ("count", "lower")
        spec[f"ops.{prim}.gflop_per_s"] = ("GFLOP/s", "higher")
        spec[f"ops.{prim}.bytes_computed"] = ("B", "lower")
    spec["ops.us_per_call"] = ("us", "lower")
    for name in ("backward_s", "backward_self_s"):
        spec[f"numerics.{name}"] = ("s", "lower")
    spec["numerics.tape_entries"] = ("count", "lower")
    spec["numerics.tape_peak_mib"] = ("MiB", "lower")
    spec["numerics.gelu_s"] = ("s", "lower")
    spec["numerics.elementwise_s"] = ("s", "lower")
    spec["model.forward_s"] = ("s", "lower")
    spec["model.predict_s"] = ("s", "lower")
    for path in MODEL_PATHS:
        spec[f"model.{path}.fwd_s"] = ("s", "lower")
        spec[f"model.{path}.bwd_s"] = ("s", "lower")
    spec["model.forward_gflop_per_s"] = ("GFLOP/s", "higher")
    for name in ("step_s", "l1_loss_s", "adamw_step_s", "eval_s", "gradcheck_ops_s",
                 "gradcheck_model_s"):
        spec[f"train.{name}"] = ("s", "lower")
    spec["train.fd_forwards"] = ("count", "lower")
    spec["train.trace_overhead_s"] = ("s", "lower")
    spec["data.load_s"] = ("s", "lower")
    spec["data.batch_s"] = ("s", "lower")
    spec["data.batches"] = ("count", "higher")
    spec["metrics.compute_metrics_s"] = ("s", "lower")
    spec["profile.forward_gflop"] = ("GFLOP", "lower")
    return spec


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


class Ledger:
    """Counts operations attempted and failed; failures are logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str):
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


@dataclass
class State:
    parts: D.Split
    stats: D.ChannelStats
    model: MD.DDCN
    optimizer: T.AdamW


def setup(wl: Workload, seed: int, workdir: Path, ledger: Ledger) -> State:
    """Seed -> ready state: data, GRDT round trip, windows, model, optimizer."""
    spec = D.SynthSpec(height=wl.grid, width=wl.grid, steps=FRAMES, seed=seed)
    ds = D.synth_traffic(spec)
    path = workdir / "traffic.grdt"
    D.save_dataset(ds, path)
    loaded = D.load_dataset(path)
    ledger.check(np.array_equal(loaded.frames, ds.frames), "GRDT round trip changed the frames")
    windows = D.make_windows(loaded, wl.model.input_steps)
    parts = D.split(windows)
    stats = D.stats_from_windows(parts.train)
    model = MD.DDCN(wl.model, (wl.grid, wl.grid), seed=MODEL_SEED)
    optimizer = T.AdamW(model.params())
    return State(parts, stats, model, optimizer)


def train_batches(state: State, seed: int):
    """Endless closed-loop batch stream: a fresh permutation every epoch."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(len(state.parts.train))
        yield from T.iter_batches(state.parts.train, state.stats, BATCH, order,
                                  state.model.dtype)


def train_step(state: State, xb, yb, tracer, ledger: Ledger, flop_gate: bool) -> float:
    model = state.model
    x = N.Tensor(xb)
    with N.Tape() as tape:
        with N.FlopCounter() as counter, tracer.span("model.forward"):
            pred = model.forward(x)
        loss = T.l1_loss(pred, N.Tensor(yb))
    if flop_gate:
        expected = P.cost_report(model.config, xb.shape).total_flops
        ledger.check(counter.flops == expected,
                     f"FlopCounter forward {counter.flops} != cost_report {expected}")
    value = loss.item()
    if not ledger.check(math.isfinite(value), f"non-finite train loss {value}"):
        return value
    state.optimizer.zero_grad()
    N.backward(loss, tape)
    state.optimizer.step()
    return value


def f64_gate(state: State, wl: Workload, ledger: Ledger):
    """The f32 forecast must match an f64 copy of the same weights."""
    windows = state.parts.test[:GATE_WINDOWS]
    xb, _ = next(T.iter_batches(windows, state.stats, len(windows), dtype=np.float32))
    pred32 = state.model.predict(xb)
    twin = MD.DDCN(wl.model, (wl.grid, wl.grid), dtype=np.float64)
    twin.load_state(state.model.state())
    pred64 = twin.predict(xb.astype(np.float64))
    err = float(np.max(np.abs(pred32.astype(np.float64) - pred64)))
    ledger.check(err <= F64_GATE_ATOL,
                 f"f32 forecast differs from f64 by {err:.3e} > {F64_GATE_ATOL:g}")
    return err


def _check(report, ledger: Ledger):
    for r in report.results:
        ledger.check(r.passed, f"gradcheck {r.name} max_rel_err={r.max_rel_err:.3e} "
                               f"tol={r.tolerance:g}")


def verify_parts(wl: Workload, ledger: Ledger) -> list:
    """The workload's fixed gradient-check set, as parts run on separate turns."""
    parts = [lambda names=names: _check(T.gradcheck_ops(instances=1, names=names), ledger)
             for names in wl.gradcheck_ops]
    if wl.gradcheck_model:
        parts.append(lambda: _check(T.gradcheck_model(), ledger))
    return parts


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns metrics, sample counts and the ledger totals."""
    ledger = Ledger()
    tracer = tracing.Tracer()
    samples: dict[str, list] = {}
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result = _run(wl, seed, seconds, trace, workdir, ledger, tracer, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    result.update(attempted=ledger.attempted, failed=ledger.failed, samples=samples)
    return result


def _run(wl, seed, seconds, trace, workdir, ledger, tracer, samples) -> dict:
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            with (tracer.traced() if trace else nullcontext()):
                state = setup(wl, seed, workdir, ledger)
        except Exception:
            ledger.crashed("setup")
            continue
        setup_times.append(time.perf_counter() - start)
    if state is None:
        return {"metrics": {}}

    run = _Turns(wl, seed, state, tracer, ledger, trace)
    run.train_step(timed=False)  # warm-up: allocator, caches, lazy imports
    start = time.perf_counter()
    parts = verify_parts(wl, ledger)
    cycles = 0
    while (cycles < wl.min_cycles or time.perf_counter() - start < seconds
           or len(run.losses) < wl.min_steps):
        pass_seconds = 0.0
        for part in parts:
            run.train_turn()
            run.eval_turn()
            pass_seconds += run.verify_turn(part)
        run.verify_times.append(pass_seconds)
        cycles += 1
    try:
        f64_gate(state, wl, ledger)
    except Exception:
        ledger.crashed("f64 gate")

    if trace:
        if not wl.gradcheck_model:
            # train.gradcheck_model_s is reported on every workload: one call,
            # in a phase of its own so it stays out of the per-set counts.
            run.verify_turn(lambda: _check(T.gradcheck_model(), ledger), phase="model_check")
        try:
            tape_peak_mib, tape_entries = _tape_peak(state, run.first_batch)
        except Exception:
            ledger.crashed("taped forward under tracemalloc")
            tape_peak_mib, tape_entries = math.nan, 0
        metrics = _per_layer(wl, tracer, run, tape_peak_mib, tape_entries)
    else:
        n = wl.min_steps
        samples.update(setup_s=setup_times, train_samples_per_s=run.train_rates,
                       eval_samples_per_s=run.eval_rates, final_train_l1=run.losses[:n],
                       verify_s=run.verify_times)
        metrics = {
            "setup_s": _median(setup_times),
            "train_samples_per_s": _median(run.train_rates),
            "eval_samples_per_s": _median(run.eval_rates),
            "final_train_l1": sum(run.losses[:n]) / n if len(run.losses) >= n else math.nan,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "verify_s": _median(run.verify_times),
        }
    return {"metrics": metrics}


class _Turns:
    """The three interleaved operations of a run and the samples they yield.

    With tracing on, each train turn is followed by a traced one, so the
    two sample the same stretch of the run; the difference of their median
    step times is the tracing overhead. Eval and verify turns are always
    traced then.
    """

    def __init__(self, wl, seed, state, tracer, ledger, trace):
        self.wl, self.state, self.tracer, self.ledger, self.trace = (
            wl, state, tracer, ledger, trace)
        self.batches = train_batches(state, seed)
        test = state.parts.test
        self.chunks = [test[i:i + BATCH] for i in range(0, len(test) - BATCH + 1, BATCH)]
        self.losses: list[float] = []
        self.first_batch = None
        self.step_times = {False: [], True: []}
        self.train_rates: list[float] = []
        self.eval_rates: list[float] = []
        self.verify_times: list[float] = []
        self._eval_calls = 0

    def _traced(self, model=None):
        return self.tracer.traced(model) if self.trace else nullcontext()

    def train_step(self, timed=True, traced=False) -> int | None:
        """One step; returns the windows it trained on, None if it raised."""
        self.tracer.phase = "train"
        try:
            start = time.perf_counter()
            with self.tracer.span("data.batch"):
                xb, yb = next(self.batches)
            if self.first_batch is None:
                self.first_batch = (xb, yb)
            self.losses.append(train_step(self.state, xb, yb, self.tracer, self.ledger,
                                          flop_gate=not self.losses))
            if timed:
                self.step_times[traced].append(time.perf_counter() - start)
            return len(xb)
        except Exception:
            self.ledger.crashed(f"train step {len(self.losses)}")
            return None

    def train_turn(self):
        windows, seconds, _ = _repeat(self.train_step)
        if windows:
            self.train_rates.append(windows / seconds)
        if self.trace:
            with self.tracer.traced(self.state.model, self.state.optimizer):
                _repeat(lambda: self.train_step(traced=True))

    def _eval_once(self) -> int | None:
        chunk = self.chunks[self._eval_calls % len(self.chunks)]
        self._eval_calls += 1
        try:
            report = T.eval_metrics(self.state.model, chunk, self.state.stats, BATCH)
        except Exception:
            self.ledger.crashed("eval_metrics")
            return None
        ok = self.ledger.check(math.isfinite(report.rmse + report.mae),
                               f"non-finite eval metrics {report.format()}")
        return len(chunk) if ok else 0

    def eval_turn(self):
        self.tracer.phase = "eval"
        with self._traced(self.state.model):
            windows, seconds, _ = _repeat(self._eval_once)
        if windows:
            self.eval_rates.append(windows / seconds)

    def verify_turn(self, part, phase="verify") -> float:
        """Runs one gradient-check part; returns its mean seconds per run."""
        self.tracer.phase = phase

        def once():
            try:
                part()
                return 1
            except Exception:
                self.ledger.crashed("gradcheck")
                return None

        with self._traced():
            _, seconds, calls = _repeat(once)
        return seconds / calls


def _repeat(op) -> tuple[int, float, int]:
    """Calls ``op`` until MIN_SAMPLE_S has passed, or until it returns None
    (it failed); returns the sum of its results, the seconds and the calls."""
    work = calls = 0
    start = time.perf_counter()
    while True:
        done = op()
        calls += 1
        if done is None:
            break
        work += done
        if time.perf_counter() - start >= MIN_SAMPLE_S:
            break
    return work, time.perf_counter() - start, calls


def _tape_peak(state: State, batch) -> tuple[float, int]:
    """Peak traced bytes over one taped forward + loss (tracemalloc)."""
    xb, yb = batch
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with N.Tape() as tape:
            T.l1_loss(state.model.forward(N.Tensor(xb)), N.Tensor(yb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, len(tape)


def _per_layer(wl, tracer, run, tape_peak_mib, tape_entries) -> dict:
    cfg = wl.model
    step_times = run.step_times
    n = max(len(step_times[True]), 1)
    row = tracer.row
    out = {}
    for prim in tracing.OPS_PRIMITIVES:
        fwd = row("train", f"prim.{prim}")
        out[f"ops.{prim}.fwd_s"] = fwd[0] / n
        out[f"ops.{prim}.bwd_s"] = row("train", f"vjp.{prim}")[0] / n
        out[f"ops.{prim}.calls"] = fwd[1] / n
        out[f"ops.{prim}.gflop_per_s"] = fwd[2] / fwd[0] / 1e9 if fwd[0] else 0.0
        out[f"ops.{prim}.bytes_computed"] = fwd[3] / n
    verify_prims = [v for (phase, name), v in tracer.rows.items()
                    if phase == "verify" and name.startswith("prim.")]
    calls = sum(v[1] for v in verify_prims)
    out["ops.us_per_call"] = sum(v[0] for v in verify_prims) / calls * 1e6 if calls else 0.0

    backward = row("train", "numerics.backward")
    out["numerics.backward_s"] = backward[0] / n
    out["numerics.backward_self_s"] = backward[4] / n
    out["numerics.tape_entries"] = float(tape_entries)
    out["numerics.tape_peak_mib"] = tape_peak_mib

    def fwd_bwd(prims):
        return sum(row("train", f"prim.{p}")[0] + row("train", f"vjp.{p}")[0] for p in prims) / n

    groups = tracing.NUMERICS_PRIMITIVES
    out["numerics.gelu_s"] = fwd_bwd([p for p, g in groups.items() if g == "gelu"])
    out["numerics.elementwise_s"] = fwd_bwd([p for p, g in groups.items() if g == "elementwise"])

    forward_s = row("train", "model.forward")[0] / n
    out["model.forward_s"] = forward_s
    predict = row("eval", "model.predict")
    out["model.predict_s"] = predict[0] / max(predict[1], 1)
    for path in MODEL_PATHS:
        out[f"model.{path}.fwd_s"] = row("train", f"model.{path}")[0] / n
        out[f"model.{path}.bwd_s"] = row("train", f"vjp.model.{path}")[0] / n
    flops = P.cost_report(cfg, (BATCH, cfg.input_steps, cfg.in_channels, wl.grid,
                                wl.grid)).total_flops
    out["model.forward_gflop_per_s"] = flops / forward_s / 1e9 if forward_s else 0.0

    traced_step = _median(step_times[True])
    out["train.step_s"] = traced_step
    out["train.l1_loss_s"] = row("train", "train.l1_loss")[0] / n
    out["train.adamw_step_s"] = row("train", "train.adamw_step")[0] / n
    ev = row("eval", "train.eval")
    out["train.eval_s"] = ev[0] / max(ev[1], 1)
    ops_calls = row("verify", "train.gradcheck_ops")
    model_calls = row("verify" if wl.gradcheck_model else "model_check", "train.gradcheck_model")
    sets = max(ops_calls[1] / len(wl.gradcheck_ops), 1)  # calls per gradient-check set
    out["train.gradcheck_ops_s"] = ops_calls[0] / sets
    out["train.gradcheck_model_s"] = model_calls[0] / max(model_calls[1], 1)
    out["train.fd_forwards"] = row("verify", "train.fd_forward")[1] / sets
    out["train.trace_overhead_s"] = traced_step - _median(step_times[False])

    load = row("setup", "data.load")
    out["data.load_s"] = load[0] / max(load[1], 1)
    batch = row("train", "data.batch")
    out["data.batch_s"] = batch[0] / max(batch[1], 1)
    out["data.batches"] = float(len(run.losses))
    cm = row("eval", "metrics.compute_metrics")
    out["metrics.compute_metrics_s"] = cm[0] / max(cm[1], 1)
    out["profile.forward_gflop"] = flops / 1e9
    return out
