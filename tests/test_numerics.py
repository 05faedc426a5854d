"""Tensor core: elementwise ops, GELU, tape semantics, checkpoint format."""

import contextlib
import errno
import os
import weakref
from unittest import mock

import numpy as np
import pytest

from ddcn.metrics import save_error_map_csv, save_error_map_pgm
from ddcn.numerics import (
    NumericalError,
    Param,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    gelu,
    load_checkpoint,
    mul,
    reduce_sum,
    reshape,
    save_checkpoint,
    sub,
    transpose,
)
from oracles import erf_series


def test_add_basic():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, np.array([4.0, 6.0], dtype=np.float32))


def test_mul_identity():
    x = Tensor(np.random.default_rng(0).uniform(-2, 2, (3, 4)).astype(np.float32))
    out = mul(x, Tensor(np.ones_like(x.data)))
    assert np.array_equal(out.data, x.data)


def test_sub():
    out = sub(Tensor([5.0, 2.0]), Tensor([1.0, 7.0]))
    assert np.array_equal(out.data, np.array([4.0, -5.0], dtype=np.float32))


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_no_broadcasting():
    with pytest.raises(ShapeError):
        mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3,))))


def test_tensor_validation():
    with pytest.raises(NumericalError):
        Tensor([np.nan, 1.0])
    with pytest.raises(NumericalError):
        Tensor([np.inf])
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 0)))


def test_mul_gradient_is_other_operand():
    rng = np.random.default_rng(1)
    a = Tensor(rng.uniform(-2, 2, (4, 5)), dtype=np.float64)
    b = Tensor(rng.uniform(-2, 2, (4, 5)), dtype=np.float64)
    with Tape() as tape:
        loss = reduce_sum(mul(a, b))
    backward(loss, tape)
    assert np.allclose(a.grad, b.data, rtol=0, atol=0)
    assert np.allclose(b.grad, a.data, rtol=0, atol=0)


def test_gelu_points():
    assert gelu(Tensor([0.0])).data[0] == 0.0
    assert abs(gelu(Tensor([10.0], dtype=np.float64)).data[0] - 10.0) < 1e-6
    # Independent erf-series evaluation of 1 * Phi(1)
    expected = 1.0 * 0.5 * (1.0 + erf_series(1.0 / np.sqrt(2.0)))
    got = gelu(Tensor([1.0], dtype=np.float64)).data[0]
    assert abs(got - expected) < 1e-12


def test_backward_linear_case_exact():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(-2, 2, (3, 4)).astype(np.float32))
    w = Param(rng.uniform(-1, 1, (3, 4)).astype(np.float32))
    with Tape() as tape:
        loss = reduce_sum(mul(w, x))
    backward(loss, tape)
    assert np.array_equal(w.grad, x.data)


def test_backward_accumulates_exactly_double():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2, 2, (3, 4)).astype(np.float32))
    w = Param(rng.uniform(-1, 1, (3, 4)).astype(np.float32))
    with Tape() as tape:
        loss = reduce_sum(mul(gelu(w), x))
    backward(loss, tape)
    once = w.grad.copy()
    backward(loss, tape)
    assert np.array_equal(w.grad, 2.0 * once)


def test_backward_rejects_nonscalar_and_untaped():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = add(x, x)
    with pytest.raises(TapeError, match="single-element"):
        backward(y, tape)
    stray = Tensor([1.0])
    with pytest.raises(TapeError, match="not produced"):
        backward(stray, tape)


def test_backward_gives_grad_to_leaves_only():
    x = Tensor(np.array([0.5, -1.0, 2.0]), dtype=np.float64)
    with Tape() as outer:
        h = gelu(x)
        with Tape() as inner:
            y = mul(h, h)
            loss = reduce_sum(y)
    assert len(outer) == 1 and len(inner) == 2
    backward(loss, inner)
    # h was made on the outer tape, so it is a leaf of the inner one.
    assert np.array_equal(h.grad, 2.0 * h.data)
    assert x.grad is None and y.grad is None and loss.grad is None

    with Tape() as tape:
        h = gelu(x)
        y = mul(h, h)
        loss = reduce_sum(y)
    backward(loss, tape)
    assert h.grad is None and y.grad is None and loss.grad is None
    assert x.grad is not None


def test_tape_keeps_no_intermediate_alive():
    # The tape records keys, so an intermediate that no VJP reads is freed
    # as soon as its caller drops it, while the tape lives on.
    x = Tensor(np.array([1.0, -2.0, 0.5]), dtype=np.float64)
    with Tape() as tape:
        h = add(x, x)
        loss = reduce_sum(add(h, h))
    h_data = weakref.ref(h.data)
    del h
    assert h_data() is None
    backward(loss, tape)
    assert np.array_equal(x.grad, np.full(3, 4.0))


def test_long_chain_with_freed_intermediates_exact_gradient():
    # Each step's add output is dropped once mul has read it, so its id can
    # be reused by a later Tensor; the tape routes by entry, not by id.
    x = Tensor(np.array([1.0, -2.0, 0.5]), dtype=np.float64)
    w = Param(np.ones(3))
    ids = set()
    with Tape() as tape:
        t = x
        for _ in range(50):
            s = add(t, t)
            t = mul(s, w)
            ids.update((id(s), id(t)))
        loss = reduce_sum(t)
    assert len(ids) < 100  # some dead intermediate's id was reused
    del s, t
    backward(loss, tape)
    # t = (2w)^50 x, so dx = 2^50 and dw = 50 * 2^50 * x at w = 1, exactly.
    assert np.array_equal(x.grad, np.full(3, 2.0 ** 50))
    assert np.array_equal(w.grad, 50 * 2.0 ** 50 * x.data)


def test_output_of_one_tape_is_a_leaf_of_another_nested_and_reentered():
    x = Tensor(np.array([0.5, -1.0, 2.0]), dtype=np.float64)
    w = Param(np.array([1.5, 2.0, -0.5]))
    a = Tape()
    with a:
        h = mul(x, w)
        with Tape() as b:  # nested: h was made on a, so it is a leaf of b
            loss_b = reduce_sum(mul(h, h))
    with a:  # re-entered: a's record continues, and h is still a's output
        loss_a = reduce_sum(mul(h, x))
    assert len(a) == 3 and len(b) == 2
    backward(loss_b, b)
    assert np.array_equal(h.grad, 2.0 * h.data)
    assert x.grad is None and not w.grad.any()
    backward(loss_a, a)
    # loss_a = sum(w * x * x): x gets h from mul(h, x), then w * x through h.
    assert np.array_equal(x.grad, h.data + x.data * w.data)
    assert np.array_equal(w.grad, x.data * x.data)
    assert np.array_equal(h.grad, 2.0 * h.data)  # not a leaf of a
    with pytest.raises(TapeError, match="not produced"):
        backward(loss_a, b)


def test_tape_replay_identical_gradients():
    rng = np.random.default_rng(4)
    w = Param(rng.uniform(-1, 1, (2, 3)), dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), dtype=np.float64)
    with Tape() as tape:
        loss = reduce_sum(gelu(mul(w, x)))
    backward(loss, tape)
    first = w.grad.copy()
    w.zero_grad()
    backward(loss, tape)
    assert np.array_equal(w.grad, first)


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(5)
    data = rng.uniform(-2, 2, (6, 7)).astype(np.float32)
    runs = [gelu(mul(Tensor(data), Tensor(data))).data for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_primitive_gradients_match_finite_differences_100_trials():
    # Central differences at h=1e-4 in f64 on inputs in [-2, 2].
    from ddcn.train import finite_difference, max_relative_error

    rng = np.random.default_rng(6)
    ops_under_test = {
        "add": lambda a, b: add(a, b),
        "sub": lambda a, b: sub(a, b),
        "mul": lambda a, b: mul(a, b),
    }
    for trial in range(100):
        name = list(ops_under_test)[trial % 3]
        fn = ops_under_test[name]
        a = Tensor(rng.uniform(-2, 2, (2, 3)), dtype=np.float64)
        b = Tensor(rng.uniform(-2, 2, (2, 3)), dtype=np.float64)
        proj = Tensor(rng.uniform(-1, 1, (2, 3)), dtype=np.float64)

        def run():
            return reduce_sum(mul(fn(a, b), proj))

        a.grad = None
        b.grad = None
        with Tape() as tape:
            loss = run()
        backward(loss, tape)
        fd = finite_difference(lambda: run().item(), [a.data, b.data])
        assert max_relative_error(a.grad, fd[0]) < 1e-4, name
        assert max_relative_error(b.grad, fd[1]) < 1e-4, name


def test_gelu_gradient_finite_differences():
    from ddcn.train import finite_difference, max_relative_error

    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-2, 2, (4, 4)), dtype=np.float64)
    proj = Tensor(rng.uniform(-1, 1, (4, 4)), dtype=np.float64)

    def run():
        return reduce_sum(mul(gelu(x), proj))

    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [x.data])
    assert max_relative_error(x.grad, fd[0]) < 1e-6


def test_reshape_transpose_roundtrip():
    rng = np.random.default_rng(8)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)).astype(np.float32))
    y = transpose(reshape(x, (6, 4)), (1, 0))
    assert y.shape == (4, 6)
    with pytest.raises(ShapeError):
        reshape(x, (5, 5))


def test_reshape_transpose_gradients_are_permutations():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), dtype=np.float64)
    proj = Tensor(rng.uniform(-1, 1, (4, 6)), dtype=np.float64)
    with Tape() as tape:
        y = transpose(reshape(x, (6, 4)), (1, 0))
        loss = reduce_sum(mul(y, proj))
    backward(loss, tape)
    assert np.array_equal(x.grad, proj.data.T.reshape(2, 3, 4))


def test_checkpoint_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(10)
    params = {
        "layer.weight": Param(rng.uniform(-1, 1, (3, 4)).astype(np.float32)),
        "layer.bias": Param(rng.uniform(-1, 1, (3,)).astype(np.float32)),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert np.array_equal(loaded[name], p.data)

    from ddcn.numerics import CheckpointFormatError

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)

    blob = path.read_bytes()
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(truncated)


def _raw_checkpoint(tmp_path, entries):
    """A DDCNCKPT file from (raw name bytes, dims, payload bytes) entries."""
    import struct

    blob = b"DDCNCKPT" + struct.pack("<II", 1, len(entries))
    for name, dims, payload in entries:
        blob += struct.pack("<I", len(name)) + name
        blob += struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload
    path = tmp_path / "raw.ckpt"
    path.write_bytes(blob)
    return path


def test_checkpoint_huge_dims_rejected_before_allocation(tmp_path):
    from ddcn.numerics import CheckpointFormatError

    path = _raw_checkpoint(tmp_path, [(b"w", (2 ** 20, 2 ** 20), b"\x00" * 16)])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rank_above_cap_rejected(tmp_path):
    from ddcn.numerics import CHECKPOINT_MAX_RANK, CheckpointFormatError

    dims = (1,) * (CHECKPOINT_MAX_RANK + 1)
    path = _raw_checkpoint(tmp_path, [(b"w", dims, b"\x00" * 4)])
    with pytest.raises(CheckpointFormatError, match="rank"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_name_rejected(tmp_path):
    from ddcn.numerics import CheckpointFormatError

    path = _raw_checkpoint(tmp_path, [(b"\xff\xfe", (1,), b"\x00" * 4)])
    with pytest.raises(CheckpointFormatError, match="UTF-8"):
        load_checkpoint(path)


def test_checkpoint_duplicate_name_rejected(tmp_path):
    from ddcn.numerics import CheckpointFormatError

    entry = (b"w", (1,), b"\x00" * 4)
    path = _raw_checkpoint(tmp_path, [entry, entry])
    with pytest.raises(CheckpointFormatError, match="duplicate"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    from ddcn.numerics import CheckpointFormatError

    path = _raw_checkpoint(tmp_path, [(b"w", (1,), b"\x00" * 4)])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_payload_rejected(tmp_path, value):
    from ddcn.numerics import CheckpointFormatError

    payload = np.array([1.0, value], dtype="<f4").tobytes()
    path = _raw_checkpoint(tmp_path, [(b"w", (2,), payload)])
    with pytest.raises(CheckpointFormatError, match="non-finite"):
        load_checkpoint(path)


def _write_checkpoint(path, good):
    save_checkpoint(path, {"a": np.ones(3), "b": np.zeros(2) if good else "not a number"})


def _write_summary(path, good):
    from ddcn.train import RunRecord

    RunRecord([], 0, 0.5, {"test": 1.0 if good else object()}).write_summary(path)


def _write_record(path, good):
    from ddcn.train import EpochRecord, RunRecord

    second = EpochRecord(1, 0.4, 0.5 if good else object(), 1.0, 8.0)
    RunRecord([EpochRecord(0, 0.5, 0.6, 1.0, 8.0), second], 0, 0.5, {}).write_jsonl(path)


def _write_config(path, good):
    from dataclasses import asdict

    from ddcn.cli import _write_json
    from ddcn.model import ModelConfig
    from ddcn.train import TrainConfig

    _write_json(path, {**asdict(ModelConfig()), **asdict(TrainConfig()),
                       "data": "x" if good else object()})


def _write_eval(path, good):
    from argparse import Namespace

    from ddcn import cli
    from ddcn.metrics import MetricsReport
    from ddcn.train import TrainConfig

    report = MetricsReport(1.0, 2.0, 3.0, 4 if good else object(), 0)
    run = (None, None, TrainConfig(), Namespace(test=[]), None)
    with mock.patch.object(cli, "_load_run", return_value=run), \
            mock.patch.object(cli.train_mod, "evaluate", return_value=(0.5, report)):
        cli.cmd_eval(Namespace(split="test", out=str(path), mape_threshold=1e-6))


def _profile_args(path, **kwargs):
    from argparse import Namespace

    return Namespace(shape="1,4,2,8,8", config=None, time=False, out=str(path), **kwargs)


def _write_profile(path, good):
    from ddcn import cli
    from ddcn.profile import CostReport

    bad = mock.patch.object(CostReport, "to_dict", lambda self: {"total": 1, "x": object()})
    with contextlib.nullcontext() if good else bad:
        cli.cmd_profile(_profile_args(path, search=False))


def _write_profile_search(path, good):
    from ddcn import cli
    from ddcn.profile import CandidateCost

    hit = CandidateCost(64, 2 if good else object(), 2, 600_000, 300_000_000, 150_000_000,
                        True, True)
    with mock.patch.object(cli.profile_mod, "search_reference_configs", return_value=[hit]):
        cli.cmd_profile(_profile_args(path, search=True, limit=5))


class _FailingSecondWrite:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "no space left on device")
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _full_disk():
    """Patch ``open`` so that every file opened for writing fails its second write."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _FailingSecondWrite(f) if set(mode) & set("wx") else f

    return mock.patch("builtins.open", failing_open)


def _write_dataset(path, good):
    from ddcn.data import SynthSpec, save_dataset, synth_traffic

    ds = synth_traffic(SynthSpec(height=2, width=2, steps=3, seed=0 if good else 1))
    with contextlib.nullcontext() if good else _full_disk():
        save_dataset(ds, path)


def _error_map_writer(save):
    def writer(path, good):
        emap = np.arange(12.0).reshape(3, 4)
        if good:
            return save(emap, path)
        with _full_disk():
            save(emap + 1, path)

    writer.__name__ = "_write_" + save.__name__.removeprefix("save_")
    return writer


@pytest.mark.parametrize("writer, name", [
    (_write_checkpoint, "best.ckpt"),
    (_write_summary, "summary.json"),
    (_write_record, "record.jsonl"),
    (_write_config, "config.json"),
    (_write_eval, "eval_test.json"),
    (_write_profile, "profile.json"),
    (_write_profile_search, "hits.json"),
    (_error_map_writer(save_error_map_csv), "errmap_0.csv"),
    (_error_map_writer(save_error_map_pgm), "errmap_0.pgm"),
    (_write_dataset, "data.grdt"),
])
def test_artifact_write_failing_midway_keeps_previous_file(tmp_path, writer, name):
    # Each writer fails after writing part of its output (the second
    # parameter, a value json cannot encode, or a second write to a full
    # disk); the file from the previous write must survive byte for byte,
    # with no temporary file left over.
    path = tmp_path / name
    writer(path, good=True)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError, OSError)):
        writer(path, good=False)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_param_names_and_uniqueness():
    from ddcn.numerics import Module

    class Tiny(Module):
        def __init__(self):
            self.weight = Param(np.zeros((2, 2), dtype=np.float32))
            self.bias = Param(np.zeros(2, dtype=np.float32))

    class Nested(Module):
        def __init__(self):
            self.head = Tiny()
            self.tails = [Tiny(), Tiny()]

    # Involution3D's layout: a Param declared after its sub-modules.
    class LateParam(Module):
        def __init__(self):
            self.reduce = Tiny()
            self.span = Tiny()
            self.bias = Param(np.zeros(2, dtype=np.float32))

    net = Nested()
    names = [n for n, _ in net.named_params()]
    assert names == [
        "head.weight", "head.bias",
        "tails.0.weight", "tails.0.bias",
        "tails.1.weight", "tails.1.bias",
    ]
    assert [n for n, _ in LateParam().named_params()] == [
        "reduce.weight", "reduce.bias", "span.weight", "span.bias", "bias",
    ]
    assert [n for n, _ in net.named_modules()] == ["", "head", "tails.0", "tails.1"]


def test_tapes_in_two_threads_record_only_their_own_primitives():
    import threading

    x = Tensor(np.ones(3, dtype=np.float32))
    a_entered, b_entered, a_done = threading.Event(), threading.Event(), threading.Event()
    lengths = {}

    def thread_a():
        with Tape() as tape:
            a_entered.set()
            b_entered.wait(10)
            gelu(x)
        lengths["A"] = len(tape)
        a_done.set()

    def thread_b():
        a_entered.wait(10)
        with Tape() as tape:
            b_entered.set()
            a_done.wait(10)
        lengths["B"] = len(tape)

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert lengths == {"A": 1, "B": 0}
