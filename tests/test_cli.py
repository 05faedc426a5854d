"""CLI contract: subcommands, exit codes, artifact listing, seed precedence."""

import json
import os
import struct

import numpy as np
import pytest

from ddcn.cli import main

pytestmark = pytest.mark.usefixtures("in_tmp_dir")


@pytest.fixture
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DDCN_SEED", raising=False)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def synth(path="data.grdt", h=8, w=8, steps=48, seed=3):
    code = run_cli("synth", "--out", path, "--h", str(h), "--w", str(w),
                   "--steps", str(steps), "--seed", str(seed))
    assert code == 0
    return path


TRAIN_FLAGS = ["--epochs", "2", "--batch-size", "8", "--embed-dim", "8",
               "--depth", "1", "--patch-size", "2"]


def test_synth_deterministic_and_echoed(capsys):
    synth("a.grdt")
    out = capsys.readouterr().out.strip()
    assert out == "a.grdt"
    synth("b.grdt")
    assert open("a.grdt", "rb").read() == open("b.grdt", "rb").read()


def test_synth_usage_error_exit_1(capsys):
    assert run_cli("synth", "--out", "x.grdt", "--h", "0") == 1
    assert "usage error" in capsys.readouterr().err


def test_synth_unwritable_path_exit_2():
    assert run_cli("synth", "--out", "no/such/dir/x.grdt") == 2


def test_unknown_flag_exit_1():
    assert run_cli("synth", "--out", "x.grdt", "--bogus", "1") == 1


def test_missing_dataset_exit_2(capsys):
    code = run_cli("train", "--data", "missing.grdt", "--out", "run")
    assert code == 2
    assert "missing.grdt" in capsys.readouterr().err


def test_bad_magic_exit_2():
    with open("corrupt.grdt", "wb") as f:
        f.write(b"JUNKJUNKJUNK" + b"\x00" * 64)
    assert run_cli("train", "--data", "corrupt.grdt", "--out", "run") == 2


def test_non_object_metadata_exit_2(capsys):
    with open("list_meta.grdt", "wb") as f:
        f.write(b"GRDT" + struct.pack("<6I", 1, 1, 1, 1, 1, 30) + b"\x00" * 4)
        f.write(struct.pack("<I", 3) + b"[1]")
    assert run_cli("train", "--data", "list_meta.grdt", "--out", "run") == 2
    assert "format error" in capsys.readouterr().err


def test_train_on_too_few_windows_exit_1_and_writes_nothing(capsys):
    # 12 frames give 8 windows of 4 steps: too few for a 7:1:2 split.
    synth(h=4, w=4, steps=12)
    capsys.readouterr()
    assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: split of 8 windows ")
    assert captured.out == ""
    assert not os.path.exists("run")


def test_train_writes_run_dir_and_lists_artifacts(capsys):
    synth()
    code = run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS)
    assert code == 0
    out = capsys.readouterr().out
    for name in ("config.json", "best.ckpt", "record.jsonl", "summary.json"):
        assert os.path.exists(os.path.join("run", name))
        assert os.path.join("run", name) in out
    config = json.loads(open("run/config.json").read())
    assert config["epochs"] == 2 and config["embed_dim"] == 8
    assert config["data"] == "data.grdt"


def test_train_epochs_zero_emits_initial_checkpoint():
    synth()
    code = run_cli("train", "--data", "data.grdt", "--out", "run0",
                   "--epochs", "0", "--embed-dim", "8", "--depth", "1")
    assert code == 0
    assert os.path.exists("run0/best.ckpt")
    assert open("run0/record.jsonl").read() == ""
    summary = json.loads(open("run0/summary.json").read())
    assert summary["epochs_run"] == 0
    assert summary["final"]["test"]["metrics"]["rmse"] >= 0


def test_flags_override_config_file():
    synth()
    with open("cfg.json", "w") as f:
        json.dump({"epochs": 7, "embed_dim": 8, "depth": 1, "patch_size": 2,
                   "batch_size": 8, "seed": 11}, f)
    code = run_cli("train", "--config", "cfg.json", "--data", "data.grdt",
                   "--out", "run_cfg", "--epochs", "1")
    assert code == 0
    effective = json.loads(open("run_cfg/config.json").read())
    assert effective["epochs"] == 1      # flag wins
    assert effective["seed"] == 11       # file value kept
    lines = open("run_cfg/record.jsonl").read().strip().splitlines()
    assert len(lines) == 1


def test_unknown_config_field_exit_1(capsys):
    synth()
    with open("bad.json", "w") as f:
        json.dump({"learning_rat": 0.1}, f)
    assert run_cli("train", "--config", "bad.json", "--data", "data.grdt",
                   "--out", "x") == 1
    assert "learning_rat" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("train", {"seed": [1]}),
    ("train", {"seed": None}),
    ("profile", {"depth": "2"}),
    ("eval", [1]),
    ("eval", {"depth": "1"}),
    ("errmap", [1]),
    ("errmap", {"depth": "1"}),
    ("train", {"epochs": 1.5}),
    ("train", {"embed_dim": 8.0}),
    ("train", {"seed": 1.5}),
    ("train", {"depth": True}),
    ("train", {"seed": "3"}),
    ("train", {"use_ddc": "false"}),
    ("train", {"learning_rate": True}),
    ("train", {"learning_rate": float("nan")}),
    ("profile", {"epochs": 1.5}),
])
def test_malformed_config_value_is_usage_error(command, doc, capsys):
    synth()
    if command in ("eval", "errmap"):
        # The run's config echo is read before its checkpoint is parsed.
        os.mkdir("run")
        open("run/best.ckpt", "wb").close()
        path = "run/config.json"
    else:
        path = "cfg.json"
    with open(path, "w") as f:
        json.dump(doc, f)
    argv = {
        "train": ["train", "--config", path, "--data", "data.grdt", "--out", "x"],
        "profile": ["profile", "--config", path],
        "eval": ["eval", "--checkpoint", "run", "--data", "data.grdt"],
        "errmap": ["errmap", "--checkpoint", "run", "--data", "data.grdt", "--out", "maps"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_ddcn_seed_env_lowest_precedence(monkeypatch):
    synth()
    monkeypatch.setenv("DDCN_SEED", "21")
    assert run_cli("train", "--data", "data.grdt", "--out", "run_env", *TRAIN_FLAGS) == 0
    assert json.loads(open("run_env/config.json").read())["seed"] == 21
    # Flag beats the environment.
    assert run_cli("train", "--data", "data.grdt", "--out", "run_flag",
                   "--seed", "5", *TRAIN_FLAGS) == 0
    assert json.loads(open("run_flag/config.json").read())["seed"] == 5


def test_ddcn_seed_env_feeds_gradcheck_and_synth(monkeypatch, capsys):
    gradcheck = ["gradcheck", "--scope", "ops", "--instances", "1"]
    assert run_cli(*gradcheck, "--seed", "5") == 0
    flag_out = capsys.readouterr().out
    synth("flag5.grdt", seed=5)
    synth("flag6.grdt", seed=6)
    monkeypatch.setenv("DDCN_SEED", "5")
    capsys.readouterr()
    assert run_cli(*gradcheck) == 0
    assert capsys.readouterr().out == flag_out
    assert run_cli("synth", "--out", "env.grdt", "--h", "8", "--w", "8", "--steps", "48") == 0
    assert open("env.grdt", "rb").read() == open("flag5.grdt", "rb").read()
    # Flag beats the environment.
    synth("env_flag.grdt", seed=6)
    assert open("env_flag.grdt", "rb").read() == open("flag6.grdt", "rb").read()


def test_eval_reproduces_training_summary(capsys):
    synth()
    assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS) == 0
    summary = json.loads(open("run/summary.json").read())
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", "run", "--data", "data.grdt",
                   "--split", "train", "--out", "eval.json") == 0
    report = json.loads(open("eval.json").read())
    expected = summary["final"]["train"]
    assert report["rmse"] == expected["metrics"]["rmse"]
    assert report["mae"] == expected["metrics"]["mae"]
    assert report["l1_normalized"] == expected["l1_normalized"]


def test_eval_matches_library_metrics():
    synth()
    assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS) == 0
    assert run_cli("eval", "--checkpoint", "run", "--data", "data.grdt",
                   "--split", "test", "--out", "eval.json") == 0
    report = json.loads(open("eval.json").read())

    from ddcn.data import load_dataset, make_windows, split, stats_from_windows
    from ddcn.model import DDCN, ModelConfig
    from ddcn.numerics import load_checkpoint
    from ddcn.train import eval_metrics

    ds = load_dataset("data.grdt")
    cfg_doc = json.loads(open("run/config.json").read())
    model_cfg = ModelConfig.from_dict(
        {k: v for k, v in cfg_doc.items()
         if k in {f.name for f in __import__("dataclasses").fields(ModelConfig)}}
    )
    model = DDCN(model_cfg, ds.frames.shape[2:])
    model.load_state(load_checkpoint("run/best.ckpt"))
    parts = split(make_windows(ds, model_cfg.input_steps))
    stats = stats_from_windows(parts.train)
    direct = eval_metrics(model, parts.test, stats, cfg_doc["batch_size"])
    assert report["rmse"] == direct.rmse
    assert report["mae"] == direct.mae


def test_gradcheck_ops_passes_exit_0(capsys):
    code = run_cli("gradcheck", "--scope", "ops", "--instances", "1")
    out = capsys.readouterr().out
    assert code == 0
    assert "gradient check passed" in out


def test_gradcheck_absurd_tolerance_exit_3(capsys):
    code = run_cli("gradcheck", "--scope", "ops", "--instances", "1", "--tol", "1e-30")
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scope", ["ops", "model"])
@pytest.mark.parametrize("flag, value", [("--instances", "0"), ("--tol", "0"), ("--tol", "nan")])
def test_gradcheck_that_checks_nothing_is_usage_error(scope, flag, value, capsys):
    assert run_cli("gradcheck", "--scope", scope, flag, value) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:")


def test_profile_report_and_json(capsys):
    code = run_cli("profile", "--shape", "1,4,2,8,8", "--out", "prof.json")
    assert code == 0
    doc = json.loads(open("prof.json").read())
    assert doc["total_flops"] == sum(l["flops"] for l in doc["layers"])
    assert doc["total_params"] == sum(l["params"] for l in doc["layers"])
    out = capsys.readouterr().out
    assert "TOTAL" in out


def test_profile_search_reports_match(capsys):
    code = run_cli("profile", "--search", "--shape", "1,4,2,32,32", "--out", "hits.json")
    assert code == 0
    hits = json.loads(open("hits.json").read())
    assert len(hits) >= 1
    assert all(h["params_ok"] and h["macs_ok"] for h in hits)
    assert "MAC" in capsys.readouterr().out


def test_profile_bad_shape_exit_1():
    assert run_cli("profile", "--shape", "1,2,3") == 1


@pytest.mark.parametrize("shape", ["1,4,2,-32,32", "0,4,2,8,8", "1,4,2,8,0"])
@pytest.mark.parametrize("search", [False, True], ids=["report", "search"])
def test_profile_dimension_below_1_exit_1(capsys, shape, search):
    assert run_cli("profile", *(["--search"] if search else []), "--shape", shape) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


def test_errmap_writes_csv_and_pgm(capsys):
    synth()
    assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS) == 0
    capsys.readouterr()
    code = run_cli("errmap", "--checkpoint", "run", "--data", "data.grdt",
                   "--index", "0", "--out", "maps")
    assert code == 0
    out = capsys.readouterr().out
    assert os.path.join("maps", "errmap_0.csv") in out
    assert os.path.exists("maps/errmap_0.pgm")
    grid = np.loadtxt("maps/errmap_0.csv", delimiter=",")
    assert grid.shape == (8, 8)
    with open("maps/errmap_0.pgm", "rb") as f:
        assert f.read(2) == b"P5"


def test_errmap_index_out_of_range_exit_1():
    synth()
    assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS) == 0
    assert run_cli("errmap", "--checkpoint", "run", "--data", "data.grdt",
                   "--index", "9999", "--out", "maps") == 1


def test_ingest_roundtrip(capsys):
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 9, (12, 4, 6, 2)).astype(np.float32)
    np.save("raw.npy", raw)
    code = run_cli("ingest", "--raw", "raw.npy", "--layout", "thwc",
                   "--interval", "60", "--out", "ingested.grdt")
    assert code == 0
    from ddcn.data import load_dataset

    ds = load_dataset("ingested.grdt")
    assert ds.meta.interval_minutes == 60
    assert np.array_equal(ds.frames, raw.transpose(0, 3, 1, 2))


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--interval", "0"),
    ("synth", "--interval", "-5"),
    ("synth", "--interval", "2000"),
    ("ingest", "--interval", "0"),
    ("ingest", "--interval", "5000000000"),
    ("train", "--mape-threshold", "nan"),
    ("train", "--mape-threshold", "-1"),
    ("eval", "--mape-threshold", "nan"),
    ("eval", "--mape-threshold", "-1"),
    ("eval", "--mape-threshold", "inf"),
])
def test_out_of_range_flag_is_usage_error(command, flag, value, capsys):
    synth()
    np.save("raw.npy", np.ones((12, 2, 3, 3), np.float32))
    if command == "eval":
        assert run_cli("train", "--data", "data.grdt", "--out", "run", *TRAIN_FLAGS,
                       "--epochs", "0") == 0
    argv = {
        "synth": ["synth", "--out", "s.grdt", "--h", "4", "--w", "4", "--steps", "20"],
        "ingest": ["ingest", "--raw", "raw.npy", "--out", "i.grdt"],
        "train": ["train", "--data", "data.grdt", "--out", "fresh", *TRAIN_FLAGS],
        "eval": ["eval", "--checkpoint", "run", "--data", "data.grdt"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    # Nothing is written, and train rejects the value before it trains.
    for path in ("s.grdt", "i.grdt", "fresh", "run/eval_test.json"):
        assert not os.path.exists(path)


@pytest.mark.parametrize("kind", ["empty", "text", "npz"])
def test_unreadable_raw_file_is_format_error_exit_2(kind, capsys):
    with open("raw.npy", "wb") as f:
        if kind == "text":
            f.write(b"1 2 3\n4 5 6\n")
        elif kind == "npz":
            np.savez(f, frames=np.ones((12, 2, 3, 3), np.float32))
    assert run_cli("ingest", "--raw", "raw.npy", "--out", "i.grdt") == 2
    err = capsys.readouterr().err
    assert err.startswith("format error:") and "Traceback" not in err
    assert not os.path.exists("i.grdt")


def test_perfect_oracle_stub_scores_zero_rmse():
    # A target-copying stub evaluated through the same path as a model.
    from ddcn.data import load_dataset, make_windows, minmax_normalize, split, \
        stats_from_windows
    from ddcn.train import eval_metrics

    synth()
    ds = load_dataset("data.grdt")
    parts = split(make_windows(ds, 4))
    stats = stats_from_windows(parts.train)

    class Oracle:
        dtype = np.float32

        def __init__(self, windows):
            self._targets = [minmax_normalize(s.target, stats) for s in windows]
            self._cursor = 0

        def predict(self, xb):
            n = xb.shape[0]
            out = np.stack(self._targets[self._cursor : self._cursor + n])
            self._cursor += n
            return out

    report = eval_metrics(Oracle(parts.test), parts.test, stats, 8)
    assert report.rmse < 1e-3
    assert report.mae < 1e-3
