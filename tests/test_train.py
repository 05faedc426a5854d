"""Loss, optimizer, training loop behavior, and the gradcheck harness."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddcn
from ddcn import ops
from ddcn.data import (
    SynthSpec,
    make_windows,
    minmax_denormalize,
    minmax_normalize,
    split,
    stats_from_windows,
    synth_traffic,
)
from ddcn.metrics import compute_metrics
from ddcn.model import DDCN, ModelConfig
from ddcn.numerics import (
    NumericalError,
    Param,
    ShapeError,
    Tape,
    Tensor,
    backward,
    load_checkpoint,
    save_checkpoint,
)
from ddcn.train import (
    AdamW,
    TrainConfig,
    eval_metrics,
    evaluate,
    finite_difference,
    gradcheck_ops,
    iter_batches,
    l1_loss,
    max_relative_error,
    train_loop,
)
from oracles import adam_recurrence


def tiny_dataset(steps=40, seed=0, h=8, w=8):
    return synth_traffic(SynthSpec(height=h, width=w, steps=steps, seed=seed))


def tiny_model(seed=0, **overrides):
    cfg = dict(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1)
    cfg.update(overrides)
    return DDCN(ModelConfig(**cfg), (8, 8), seed=seed)


# ---------------------------------------------------------------------------
# L1 loss
# ---------------------------------------------------------------------------


def test_l1_identity_zero():
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 4)).astype(np.float32))
    assert l1_loss(x, Tensor(x.data.copy())).data[0] == 0.0


def test_l1_hand_case():
    assert l1_loss(Tensor([2.0]), Tensor([0.0])).data[0] == 2.0


def test_l1_gradient_matches_fd_away_from_ties():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.uniform(-2, 2, (3, 4)), dtype=np.float64)
    target = Tensor(rng.uniform(-2, 2, (3, 4)), dtype=np.float64)
    with Tape() as tape:
        loss = l1_loss(pred, target)
    backward(loss, tape)
    fd = finite_difference(lambda: l1_loss(pred, target).item(), [pred.data])
    assert max_relative_error(pred.grad, fd[0]) < 1e-6
    assert np.array_equal(pred.grad, np.sign(pred.data - target.data) / pred.data.size)


def test_l1_tie_subgradient_zero():
    pred = Tensor([1.0, 2.0], dtype=np.float64)
    target = Tensor([1.0, 0.0], dtype=np.float64)
    with Tape() as tape:
        loss = l1_loss(pred, target)
    backward(loss, tape)
    assert pred.grad[0] == 0.0 and pred.grad[1] == 0.5


def test_l1_shape_mismatch():
    with pytest.raises(ShapeError):
        l1_loss(Tensor([1.0, 2.0]), Tensor([1.0]))


def test_l1_dtype_mismatch():
    # Like add, sub and mul: a float64 target would send a float64 gradient
    # into a float32 graph.
    with pytest.raises(ShapeError, match="dtypes differ"):
        l1_loss(Tensor([1.0, 2.0], dtype=np.float32), Tensor([1.0, 0.0], dtype=np.float64))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_first_step_hand_value():
    p = Param(np.array([1.0], dtype=np.float64))
    opt = AdamW([p], learning_rate=0.1, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adamw_matches_hand_recurrence():
    rng = np.random.default_rng(2)
    grads = rng.uniform(-1, 1, 10)
    p = Param(np.array([0.7], dtype=np.float64))
    opt = AdamW([p], learning_rate=0.05, weight_decay=0.02)
    for g in grads:
        p.grad[...] = g
        opt.step()
    expected = adam_recurrence(0.7, grads, lr=0.05, wd=0.02)
    assert abs(p.data[0] - expected) < 1e-12


def test_adamw_zero_grad_fixed_point():
    p = Param(np.array([0.5, -0.25], dtype=np.float32))
    before = p.data.copy()
    opt = AdamW([p], learning_rate=0.1, weight_decay=0.0)
    for _ in range(3):
        opt.zero_grad()
        opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_decay_factor_exact():
    p = Param(np.array([2.0, -3.0], dtype=np.float32))
    lr, wd = 0.1, 0.5
    opt = AdamW([p], learning_rate=lr, weight_decay=wd)
    expected = p.data.copy()
    factor = np.float32(1.0 - lr * wd)
    for _ in range(4):
        opt.zero_grad()
        opt.step()
        expected = expected * factor
        assert np.array_equal(p.data, expected)


def test_adamw_wd_zero_equals_plain_adam():
    rng = np.random.default_rng(3)
    init = rng.uniform(-1, 1, (4, 3))
    grads = [rng.uniform(-1, 1, (4, 3)) for _ in range(5)]
    p = Param(init.copy(), dtype=np.float64)
    opt = AdamW([p], learning_rate=0.01, weight_decay=0.0)
    # Plain Adam written out with the optimizer's exact float expressions.
    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    m = np.zeros_like(init)
    v = np.zeros_like(init)
    ref = init.copy()
    for t, g in enumerate(grads, start=1):
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert np.array_equal(p.data, ref)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_train_two_runs_bit_identical():
    cfg = TrainConfig(batch_size=8, epochs=3, learning_rate=1e-3, seed=5)
    curves = []
    for _ in range(2):
        run = train_loop(tiny_model(seed=5), tiny_dataset(seed=5), cfg)
        curves.append([(r.train_l1, r.val_l1) for r in run.epochs])
    assert curves[0] == curves[1]


def test_train_lr_zero_constant_curve():
    cfg = TrainConfig(batch_size=8, epochs=3, learning_rate=0.0, weight_decay=0.0, seed=0)
    run = train_loop(tiny_model(), tiny_dataset(), cfg)
    vals = [r.val_l1 for r in run.epochs]
    assert all(v == vals[0] for v in vals)


def test_train_loss_decreases():
    cfg = TrainConfig(batch_size=8, epochs=12, learning_rate=3e-3, weight_decay=0.0, seed=1)
    run = train_loop(tiny_model(seed=1), tiny_dataset(steps=60, seed=1), cfg)
    assert run.epochs[-1].train_l1 < run.epochs[0].train_l1


def test_best_val_is_min_over_epochs():
    cfg = TrainConfig(batch_size=8, epochs=6, learning_rate=3e-3, seed=2)
    run = train_loop(tiny_model(seed=2), tiny_dataset(seed=2), cfg)
    vals = [r.val_l1 for r in run.epochs]
    assert run.best_val_l1 == min(vals)
    assert vals[run.best_epoch] == min(vals)


def test_zero_epochs_emits_initial_metrics():
    cfg = TrainConfig(batch_size=8, epochs=0, seed=0)
    run = train_loop(tiny_model(), tiny_dataset(), cfg)
    assert run.epochs == []
    assert run.best_epoch == -1
    assert set(run.final) == {"train", "val", "test"}
    assert math.isfinite(run.final["test"]["metrics"]["rmse"])


def test_early_stop_patience():
    cfg = TrainConfig(batch_size=8, epochs=50, learning_rate=0.0, weight_decay=0.0,
                      seed=0, patience=3)
    run = train_loop(tiny_model(), tiny_dataset(), cfg)
    assert len(run.epochs) == 4  # epoch 0 is best; stop after 3 stale epochs


def test_nonfinite_loss_names_offending_param():
    model = tiny_model(seed=3)
    params = dict(model.named_params())
    params["blocks.0.ffn.expand.weight"].data[...] = np.inf
    cfg = TrainConfig(batch_size=8, epochs=1, seed=0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalError, match="blocks.0.ffn.expand.weight"):
            train_loop(model, tiny_dataset(), cfg)


def test_checkpoint_roundtrip_reproduces_eval_bitwise(tmp_path):
    model = tiny_model(seed=7)
    ds = tiny_dataset(seed=7)
    cfg = TrainConfig(batch_size=8, epochs=2, seed=7)
    train_loop(model, ds, cfg)
    windows = make_windows(ds, 4)
    parts = split(windows)
    stats = stats_from_windows(parts.train)
    before = eval_metrics(model, parts.test, stats, 8)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, dict(model.named_params()))
    fresh = tiny_model(seed=99)
    fresh.load_state(load_checkpoint(path))
    after = eval_metrics(fresh, parts.test, stats, 8)
    assert (before.rmse, before.mae, before.mape) == (after.rmse, after.mae, after.mape)


def test_evaluate_one_pass_matches_separate_l1_and_metrics_passes():
    ds = tiny_dataset(seed=9)
    parts = split(make_windows(ds, 4))
    stats = stats_from_windows(parts.train)
    model = tiny_model(seed=9)
    predict = model.predict
    # The two separate passes the one-pass evaluation replaces.
    total = count = 0.0
    preds = []
    for start in range(0, len(parts.test), 3):
        chunk = parts.test[start : start + 3]
        xb = np.stack([minmax_normalize(s.input, stats) for s in chunk]).astype(model.dtype)
        yb = np.stack([minmax_normalize(s.target, stats) for s in chunk]).astype(model.dtype)
        pred = predict(xb)
        total += float(np.abs(pred - yb).sum())
        count += pred.size
        preds.append(minmax_denormalize(pred, stats))
    actual = np.stack([s.target for s in parts.test])
    expected = compute_metrics(np.concatenate(preds), actual, 0.05)

    calls = []

    def counting_predict(xb):
        calls.append(len(xb))
        return predict(xb)

    model.predict = counting_predict
    l1, report = evaluate(model, parts.test, stats, 3, mask_threshold=0.05)
    assert sum(calls) == len(parts.test)  # each window predicted once
    assert l1 == total / count
    assert report == expected
    assert eval_metrics(model, parts.test, stats, 3, mask_threshold=0.05) == report


def test_run_record_files(tmp_path):
    cfg = TrainConfig(batch_size=8, epochs=2, seed=8)
    run = train_loop(tiny_model(seed=8), tiny_dataset(seed=8), cfg, out_dir=tmp_path)
    assert (tmp_path / "best.ckpt").exists()
    lines = (tmp_path / "record.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    import json

    n_train = len(split(make_windows(tiny_dataset(seed=8), 4)).train)
    for line, rec in zip(lines, run.epochs):
        fields = json.loads(line)
        assert fields["samples_per_s"] == rec.samples_per_s
        # Every training window once, timed without the validation pass
        # that the epoch's wall time includes.
        assert fields["samples_per_s"] * fields["wall_time_s"] > n_train
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["best_val_l1"] == run.best_val_l1
    assert set(summary["final"]) == {"train", "val", "test"}


@pytest.mark.parametrize("in_channels, grid", [(1, (8, 8)), (2, (4, 8))],
                         ids=["channels", "grid"])
def test_train_loop_rejects_model_dataset_mismatch_before_out_dir(tmp_path, in_channels, grid):
    model = DDCN(ModelConfig(in_channels=in_channels, embed_dim=8, depth=1), grid)
    with pytest.raises(ShapeError) as exc:
        train_loop(model, tiny_dataset(), TrainConfig(batch_size=8, epochs=1),
                   out_dir=tmp_path / "run")
    assert "(2, 8, 8)" in str(exc.value) and str((in_channels, *grid)) in str(exc.value)
    assert not (tmp_path / "run").exists()


def one_epoch_sha(**flags):
    """SHA-256 of every parameter after one training epoch of a tiny DDCN."""
    model = tiny_model(seed=3, **flags)
    train_loop(model, tiny_dataset(seed=3), TrainConfig(batch_size=8, epochs=1, seed=3))
    digest = hashlib.sha256()
    for name, p in model.named_params():
        digest.update(name.encode() + p.data.tobytes())
    return digest.hexdigest()


def test_training_bits_do_not_depend_on_shards_or_blas_threads(monkeypatch):
    monkeypatch.setattr(ops, "_SHARD_MIN_MACS", 0)
    by_shards, ablation = set(), set()
    for count in (1, 2):
        monkeypatch.setattr(ops, "_POOL_SIZE", count)
        by_shards.add(one_epoch_sha())
        # The ablation model's shared convs shard their channel planes.
        ablation.add(one_epoch_sha(use_ddc=False, use_involution3d=False))
    assert len(by_shards) == len(ablation) == 1
    # The BLAS thread count is fixed when numpy loads, so each runs in its
    # own interpreter; these run the default partition.
    script = "import sys; sys.path[:0] = sys.argv[1:]; import test_train; print(test_train.one_epoch_sha())"
    paths = [str(Path(__file__).parent), str(Path(ddcn.__file__).parents[1])]
    by_blas = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        by_blas.add(proc.stdout.strip())
    assert by_blas == by_shards


def test_iter_batches_shapes_and_order():
    ds = tiny_dataset(steps=20)
    windows = make_windows(ds, 4)
    stats = stats_from_windows(windows)
    batches = list(iter_batches(windows, stats, batch_size=6))
    assert [b[0].shape[0] for b in batches] == [6, 6, 4]
    assert batches[0][0].shape[1:] == (4, 2, 8, 8)
    assert batches[0][1].shape[1:] == (2, 8, 8)
    # Normalized values live in [0, 1] because stats cover these windows.
    assert all(b[0].min() >= 0.0 and b[0].max() <= 1.0 for b in batches)


def test_gradcheck_ops_subset_passes():
    report = gradcheck_ops(instances=2, seed=100, names=("pointwise_conv", "gelu", "l1_loss"))
    assert report.passed
    assert any("pointwise_conv" in r.name for r in report.results)


@pytest.mark.parametrize("names", [["nope"], ["gelu", "glue"]])
def test_gradcheck_ops_rejects_a_name_with_no_case(names):
    # A misspelt name would otherwise check nothing and pass.
    with pytest.raises(ValueError, match=r"unknown cases \['(nope|glue)'\]; known: pointwise_conv"):
        gradcheck_ops(names=names, instances=1)


def test_gradcheck_ops_reaches_operators_through_module_attributes(monkeypatch):
    # The benchmark tracer times gradient checks by swapping module
    # attributes, so each case must look its operator up when it runs.
    from ddcn import numerics, ops

    called = set()
    targets = [(ops, "pointwise_conv"), (ops, "standard_conv"), (ops, "shared_conv"),
               (ops, "ddc_forward"), (numerics, "gelu")]
    for module, name in targets:
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    names = [name for _, name in targets]
    assert gradcheck_ops(names=names, instances=1).passed
    assert called == set(names)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0).validate()
    for bad in (dict(patience=0), dict(patience=-2), dict(epsilon=0.0), dict(epsilon=-1e-8)):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
    assert TrainConfig.from_dict({"weight_decay": 0, "patience": 1}).weight_decay == 0
    with pytest.raises(ValueError, match="unknown TrainConfig fields"):
        TrainConfig.from_dict({"lr": 1e-3})
