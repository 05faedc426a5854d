"""L1-loss training with AdamW, plus the finite-difference gradient checker.

Training runs in normalized space (min-max per channel, stats from the
training split only), selects the best checkpoint by validation L1, and
reports test metrics after denormalizing predictions back to actual value
ranges.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import numerics, ops
from .data import ChannelStats, TrafficDataset, WindowSample, make_windows, minmax_denormalize, \
    minmax_normalize, split, stats_from_windows
from .metrics import MAPE_MASK_THRESHOLD, MetricsReport, compute_metrics
from .model import DDCN, ModelConfig, TypedConfig
from .numerics import (
    KinkProbe,
    NumericalError,
    Param,
    ShapeError,
    Tape,
    Tensor,
    add_flops,
    atomic_write,
    backward,
    mul,
    probe_kink,
    probing_active,
    record,
    reduce_sum,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "RunRecord",
    "l1_loss",
    "AdamW",
    "iter_batches",
    "eval_metrics",
    "evaluate",
    "train_loop",
    "GradCheckResult",
    "GradCheckReport",
    "gradcheck_ops",
    "gradcheck_model",
    "max_relative_error",
    "finite_difference",
]


@dataclass
class TrainConfig(TypedConfig):
    """Optimization hyperparameters. Defaults follow the training protocol
    (batch 16, AdamW, L1 loss, 100 epochs); learning rate and weight decay
    are conventional optimizer settings, configurable and logged."""

    batch_size: int = 16
    epochs: int = 100
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    patience: int | None = None

    def validate(self):
        self.check_types()
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # lr == 0 is allowed as an explicit null optimizer (useful for tests).
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or null, got {self.patience}")
        return self


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference; gradient is sign(pred - target)/n.

    The subgradient at exact ties is 0 (ties are measure-zero under
    continuous data and this keeps updates finite). Shapes and dtypes must
    match, as for ``numerics.add``.
    """
    numerics._check_binary("l1_loss", pred, target)
    diff = pred.data - target.data
    if probing_active():
        probe_kink("l1_tie", float(np.abs(diff).min()))
    out = Tensor._wrap(np.array([np.abs(diff).mean()], dtype=pred.data.dtype))
    add_flops(2 * diff.size)
    n = pred.data.dtype.type(diff.size)

    def vjp(g):
        gp = g[0] * np.sign(diff) / n
        return (gp, -gp)

    record((pred, target), out, vjp)
    return out


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay: p *= (1 - lr*wd) before the
    bias-corrected moment update. With wd = 0 this is plain Adam."""

    def __init__(self, params: Iterable[Param], learning_rate=1e-3, weight_decay=1e-2,
                 beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    @classmethod
    def from_config(cls, params, cfg: TrainConfig) -> "AdamW":
        return cls(params, cfg.learning_rate, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.epsilon)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        lr = self.learning_rate
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if self.weight_decay != 0.0:
                p.data *= p.data.dtype.type(1.0 - lr * self.weight_decay)
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            p.data -= (lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# Batching and evaluation
# ---------------------------------------------------------------------------


def iter_batches(
    windows: Sequence[WindowSample],
    stats: ChannelStats,
    batch_size: int,
    order: np.ndarray | None = None,
    dtype=np.float32,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield normalized (inputs, targets) batches in deterministic order.

    Normalization is elementwise, so it runs once per stacked batch array.
    """
    idx = np.arange(len(windows)) if order is None else order
    for start in range(0, len(idx), batch_size):
        chunk = idx[start : start + batch_size]
        xb = minmax_normalize(np.stack([windows[i].input for i in chunk]), stats)
        yb = minmax_normalize(np.stack([windows[i].target for i in chunk]), stats)
        yield xb.astype(dtype), yb.astype(dtype)


def evaluate(model: DDCN, windows: Sequence[WindowSample], stats: ChannelStats, batch_size: int,
             mask_threshold: float = MAPE_MASK_THRESHOLD) -> tuple[float, MetricsReport]:
    """Normalized L1 and denormalized metrics from one forward pass per batch.

    The L1 is the mean absolute error over all elements in normalized space;
    the metrics score the denormalized predictions against the raw targets.
    """
    total = 0.0
    preds = []
    for xb, yb in iter_batches(windows, stats, batch_size, dtype=model.dtype):
        pred = model.predict(xb)
        total += float(np.abs(pred - yb).sum())
        preds.append(minmax_denormalize(pred, stats))
    pred = np.concatenate(preds)
    actual = np.stack([s.target for s in windows])
    return total / pred.size, compute_metrics(pred, actual, mask_threshold)


def eval_metrics(model: DDCN, windows: Sequence[WindowSample], stats: ChannelStats,
                 batch_size: int, mask_threshold: float = MAPE_MASK_THRESHOLD) -> MetricsReport:
    """Denormalize predictions and score them against raw targets."""
    return evaluate(model, windows, stats, batch_size, mask_threshold)[1]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_l1: float
    val_l1: float
    wall_time_s: float
    samples_per_s: float  # training windows over the training part of the wall time


@dataclass
class RunRecord:
    """Per-epoch curves plus the best-validation checkpoint and final metrics."""

    epochs: list
    best_epoch: int
    best_val_l1: float
    final: dict
    checkpoint_path: str | None = None

    def write_jsonl(self, path):
        with atomic_write(path) as f:
            for rec in self.epochs:
                f.write(json.dumps(asdict(rec)) + "\n")

    def summary(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_val_l1": self.best_val_l1,
            "epochs_run": len(self.epochs),
            "checkpoint": self.checkpoint_path,
            "final": self.final,
        }

    def write_summary(self, path):
        with atomic_write(path) as f:
            json.dump(self.summary(), f, indent=2)


def _first_nonfinite_param(model: DDCN) -> str:
    for name, p in model.named_params():
        if not np.isfinite(p.data).all():
            return f"{name} (value)"
    for name, p in model.named_params():
        if p.grad is not None and not np.isfinite(p.grad).all():
            return f"{name} (grad)"
    return "none (all parameter values and gradients finite)"


def train_loop(
    model: DDCN,
    dataset: TrafficDataset,
    cfg: TrainConfig,
    out_dir=None,
    mask_threshold: float = MAPE_MASK_THRESHOLD,
    log: Callable[[str], None] | None = None,
) -> RunRecord:
    """Train on the chronological 7:1:2 ``split`` (which ``ddcn eval`` and
    ``errmap`` re-create), checkpoint the best validation epoch, and
    evaluate every split with the restored best parameters.

    Raises ShapeError, before ``out_dir`` is created, if the dataset's
    (C, H, W) is not the model's, and NumericalError naming the first
    offending parameter if the loss goes non-finite.
    """
    cfg.validate()
    expected = (model.config.in_channels, *model.grid_size)
    if dataset.frames.shape[1:] != expected:
        raise ShapeError(f"dataset frames are (C, H, W) = {dataset.frames.shape[1:]}, "
                         f"model expects {expected}")
    windows = make_windows(dataset, model.config.input_steps)
    parts = split(windows)
    stats = stats_from_windows(parts.train)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    opt = AdamW.from_config(model.params(), cfg)
    rng = np.random.default_rng(cfg.seed)
    records: list[EpochRecord] = []
    best_val = math.inf
    best_state = None
    best_epoch = -1

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(parts.train))
        batches = iter_batches(parts.train, stats, cfg.batch_size, order, model.dtype)
        total = 0.0
        seen = 0
        for batch_idx, (xb, yb) in enumerate(batches):
            with Tape() as tape:
                pred = model(Tensor(xb))
                loss = l1_loss(pred, Tensor(yb))
            lv = loss.item()
            if not math.isfinite(lv):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {batch_idx}; "
                    f"first offending parameter: {_first_nonfinite_param(model)}"
                )
            opt.zero_grad()
            backward(loss, tape)
            opt.step()
            total += lv * xb.shape[0]
            seen += xb.shape[0]
        train_l1 = total / seen
        samples_per_s = seen / (time.perf_counter() - t0)
        val_l1 = evaluate(model, parts.val, stats, cfg.batch_size)[0]
        records.append(
            EpochRecord(epoch, train_l1, val_l1, time.perf_counter() - t0, samples_per_s)
        )
        if log:
            log(f"epoch {epoch}: train_l1={train_l1:.6f} val_l1={val_l1:.6f}")
        if val_l1 < best_val:
            best_val = val_l1
            best_state = model.state()
            best_epoch = epoch
        if cfg.patience is not None and epoch - best_epoch >= cfg.patience:
            break

    if best_state is None:
        # Zero-epoch run: the initial parameters are the checkpoint.
        best_state = model.state()
        best_val = evaluate(model, parts.val, stats, cfg.batch_size)[0]
        best_epoch = -1
    model.load_state(best_state)

    final = {}
    for name, part in zip(("train", "val", "test"), parts):
        l1, report = evaluate(model, part, stats, cfg.batch_size, mask_threshold)
        final[name] = {"l1_normalized": l1, "metrics": report.to_dict()}

    run = RunRecord(records, best_epoch, best_val, final)
    if out_dir is not None:
        run.checkpoint_path = str(out_dir / "best.ckpt")
        save_checkpoint(run.checkpoint_path, dict(model.named_params()))
        run.write_jsonl(out_dir / "record.jsonl")
        run.write_summary(out_dir / "summary.json")
    return run


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

FD_STEP = 1e-4
# Conditioning margins for rejection-sampling gradcheck instances: bilinear
# sampling coordinates must sit at least COORD_MARGIN from any lattice line,
# and L1 residuals at least TIE_MARGIN from zero, so a +-h parameter
# perturbation cannot cross a kink.
COORD_MARGIN = 2e-3
TIE_MARGIN = 2e-2


def finite_difference(f: Callable[[], float], arrays: Sequence[np.ndarray],
                      h: float = FD_STEP) -> list[np.ndarray]:
    """Central finite differences of scalar f with respect to each array,
    perturbing elements in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max |a - f| normalized by the larger of the two gradient inf-norms
    (floored at 1e-6 so identically-zero gradients compare cleanly)."""
    denom = max(float(np.abs(analytic).max()), float(np.abs(fd).max()), 1e-6)
    return float(np.abs(analytic - fd).max() / denom)


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


@dataclass
class GradCheckReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            out.append(f"{status}  {r.name:<42s} max_rel_err={r.max_rel_err:.3e} tol={r.tolerance:g}")
        return out


def _check_case(checks: list, run: Callable[[], Tensor]) -> dict[str, float] | None:
    """Relative error of the gradient of each checked (label, Tensor) of the
    loss ``run()``, or None if one probed, taped forward finds the instance
    within COORD_MARGIN/TIE_MARGIN of a kink."""
    for _, tensor in checks:
        tensor.grad = np.zeros_like(tensor.data) if isinstance(tensor, Param) else None
    with KinkProbe() as probe, Tape() as tape:
        loss = run()
    if (probe.margins.get("bilinear_coord", math.inf) < COORD_MARGIN
            or probe.margins.get("l1_tie", math.inf) < TIE_MARGIN):
        return None
    backward(loss, tape)
    analytic = {
        label: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        for label, t in checks
    }
    fd = finite_difference(lambda: run().item(), [t.data for _, t in checks])
    return {
        label: max_relative_error(analytic[label], g)
        for (label, _), g in zip(checks, fd)
    }


def _run_cases(name: str, builder, instances: int, seed: int,
               tol: float) -> list[GradCheckResult]:
    if instances < 1 or not tol > 0:
        raise ValueError(f"need instances >= 1 and tol > 0, got {instances} and {tol}")
    worst: dict[str, float] = {}
    accepted = 0
    attempt = seed
    limit = seed + 400 * instances
    while accepted < instances:
        if attempt >= limit:
            raise RuntimeError(f"could not build {instances} conditioned instances for {name}")
        errors = _check_case(*builder(attempt))
        attempt += 1
        if errors is None:
            continue
        for label, err in errors.items():
            key = f"{name}.{label}"
            worst[key] = max(worst.get(key, 0.0), err)
        accepted += 1
    return [GradCheckResult(key, err, tol) for key, err in sorted(worst.items())]


def _projection_loss(out: Tensor, rng: np.random.Generator) -> Tensor:
    proj = Tensor(rng.uniform(-1.0, 1.0, out.shape), dtype=out.dtype)
    return reduce_sum(mul(out, proj))


# Case builders (all float64). Each returns a fresh instance per seed as a
# (checks, run) pair: the (label, Tensor) list to check and the loss. The
# checked operator is looked up on its module when the case runs, so a
# wrapper swapped into the module (a tracer's, say) is what gets checked.


def _op_case(module, op: str, shapes: dict, *static):
    """Case for ``module.op(*tensors, *static)``, one tensor per (label, shape)
    of ``shapes``: the first drawn from U(-2, 2), each further one from
    U(-1, 1)."""

    def build(seed):
        rng = np.random.default_rng(seed)
        tensors = [
            Tensor(rng.uniform(-2, 2, shape) if i == 0 else rng.uniform(-1, 1, shape),
                   dtype=np.float64)
            for i, shape in enumerate(shapes.values())
        ]
        run = lambda: _projection_loss(
            getattr(module, op)(*tensors, *static), np.random.default_rng(seed + 7)
        )
        return list(zip(shapes, tensors)), run

    return build


def _layer_case(layer: str, kwargs: dict, x_shape: tuple, redraw: bool = False):
    """Case for the layer ``ops.<layer>(**kwargs)`` on x ~ U(-2, 2).

    With ``redraw``, every parameter is first redrawn from U(-0.5, 0.5), the
    zero-initialized offset branch too, so the deformable path is actually
    exercised; its weight is then halved.
    """

    def build(seed):
        rng = np.random.default_rng(seed)
        module = getattr(ops, layer)(**kwargs, rng=rng, dtype=np.float64)
        if redraw:
            for name, p in module.named_params():
                p.data[...] = rng.uniform(-0.5, 0.5, p.data.shape)
                if name == "offset_conv.weight":
                    p.data *= 0.5
        x = Tensor(rng.uniform(-2, 2, x_shape), dtype=np.float64)
        run = lambda: _projection_loss(module(x), np.random.default_rng(seed + 7))
        return [("x", x)] + list(module.named_params()), run

    return build


def _case_bilinear(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-2, 2, (1, 2, 5, 5)), dtype=np.float64)
    r = Tensor([rng.integers(0, 4) + rng.uniform(0.15, 0.85)], dtype=np.float64)
    q = Tensor([rng.integers(0, 4) + rng.uniform(0.15, 0.85)], dtype=np.float64)
    run = lambda: _projection_loss(
        ops.bilinear_sample(x, 0, 1, r, q), np.random.default_rng(seed + 7)
    )
    return [("x", x), ("r", r), ("q", q)], run


def _case_l1(seed):
    rng = np.random.default_rng(seed)
    pred = Tensor(rng.uniform(-2, 2, (2, 3, 4)), dtype=np.float64)
    target = Tensor(rng.uniform(-2, 2, (2, 3, 4)), dtype=np.float64)
    return [("pred", pred), ("target", target)], lambda: l1_loss(pred, target)


def tiny_model_config() -> ModelConfig:
    """Smallest full architecture used by the end-to-end gradient check."""
    return ModelConfig(
        in_channels=1, input_steps=2, patch_size=2, embed_dim=4, depth=1,
        ddc_kernel=3, involution_kernel=3, groups=1, reduction=4, ffn_expansion=2,
    )


def _case_model(seed):
    """The tiny float64 model with every parameter randomized, under L1 loss.

    The offset branch is deliberately non-zero (scaled down) so deformable
    sampling happens at generic fractional coordinates.
    """
    cfg = tiny_model_config()
    model = DDCN(cfg, grid_size=(4, 4), dtype=np.float64, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, p in model.named_params():
        p.data[...] = rng.uniform(-0.6, 0.6, p.data.shape)
        if "offset_conv" in name:
            p.data *= 0.25
    rng = np.random.default_rng(seed + 2)
    x = Tensor(
        rng.uniform(-1, 1, (1, cfg.input_steps, cfg.in_channels) + model.grid_size),
        dtype=np.float64,
    )
    y = Tensor(
        rng.uniform(-1, 1, (1, cfg.in_channels) + model.grid_size), dtype=np.float64
    )
    return [("input", x)] + list(model.named_params()), lambda: l1_loss(model(x), y)


_OP_CASES = {
    "pointwise_conv": (_op_case(ops, "pointwise_conv",
                                {"x": (2, 3, 4, 4), "w": (5, 3), "b": (5,)}), 1e-6),
    "standard_conv": (_op_case(ops, "standard_conv",
                               {"x": (2, 3, 5, 5), "w": (4, 3, 3, 3), "b": (4,)}), 1e-6),
    "standard_conv3d": (_op_case(ops, "standard_conv",
                                 {"x": (1, 2, 3, 4, 4), "w": (3, 2, 3, 3, 3), "b": (3,)}), 1e-6),
    "shared_conv": (_op_case(ops, "shared_conv", {"x": (2, 3, 4, 4), "w": (3, 3), "b": (1,)}),
                    1e-6),
    "bilinear_sample": (_case_bilinear, 1e-4),
    "ddc_forward": (_op_case(ops, "ddc_forward", {"x": (1, 2, 4, 4), "offsets": (1, 18, 4, 4),
                                                  "kernels": (1, 1, 9, 4, 4)}, 3), 1e-4),
    "ddc_layer": (_layer_case("DDCLayer", dict(channels=2, kernel_size=3, groups=1),
                              (1, 2, 4, 4), redraw=True), 1e-4),
    "involution3d": (_layer_case("Involution3D",
                                 dict(channels=4, kernel_size=3, groups=2, reduction=2),
                                 (1, 4, 3, 3, 3), redraw=True), 1e-4),
    "patch_embed": (_layer_case("PatchEmbed", dict(in_channels=2, patch_size=2, embed_dim=3),
                                (1, 2, 2, 4, 4)), 1e-6),
    "patch_back": (_layer_case("PatchBack",
                               dict(input_steps=2, embed_dim=4, patch_size=2, out_channels=1),
                               (1, 2, 4, 2, 2)), 1e-6),
    "gelu": (_op_case(numerics, "gelu", {"x": (3, 5)}), 1e-4),
    "l1_loss": (_case_l1, 1e-4),
}


def gradcheck_ops(tol: float | None = None, instances: int = 20, seed: int = 0,
                  names: Sequence[str] | None = None) -> GradCheckReport:
    """Analytic-vs-finite-difference check for every operator, or for the
    ``names`` cases, aggregated over ``instances`` well-conditioned random
    instances each. Raises ValueError for a name with no case."""
    unknown = sorted(set(names or ()) - _OP_CASES.keys())
    if unknown:
        raise ValueError(f"gradcheck_ops: unknown cases {unknown}; known: {', '.join(_OP_CASES)}")
    results = []
    for name, (builder, default_tol) in _OP_CASES.items():
        if names is not None and name not in names:
            continue
        results.extend(_run_cases(name, builder, instances, seed,
                                  default_tol if tol is None else tol))
    return GradCheckReport(results)


def gradcheck_model(tol: float | None = None, instances: int = 1,
                    seed: int = 0) -> GradCheckReport:
    """End-to-end gradient check of the tiny DDCN under L1 loss (default
    tolerance 1e-4)."""
    results = _run_cases("ddcn", _case_model, instances, seed, 1e-4 if tol is None else tol)
    return GradCheckReport(results)
