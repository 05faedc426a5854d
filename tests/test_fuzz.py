"""Property tests: the file parsers are total.

For any byte string, ``load_dataset`` and ``load_checkpoint`` either parse
it or raise their own typed format error, and nothing else. Inputs are raw
bytes, valid files with bytes overwritten, cut or appended, and valid
headers followed by arbitrary bytes, so that examples get past the magic.
Any JSON object over the config field names, read by ``ddcn profile
--config``, either profiles (exit 0) or is a usage error (exit 1). Any
bytes given there end in exit 0, 1 or 2; bytes that are not UTF-8 JSON, or
JSON nested too deep to parse, are a config parse error (exit 2). Any argv
for ``synth``, ``ingest`` and ``eval`` over small sizes, wide integers and
any float ends in the exit code its values call for (0, 1 or 2), never in a
traceback.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddcn.cli import main
from ddcn.data import DatasetFormatError, SynthSpec, load_dataset, save_dataset, synth_traffic
from ddcn.model import ModelConfig
from ddcn.numerics import CheckpointFormatError, load_checkpoint, save_checkpoint
from ddcn.train import TrainConfig

FUZZ = settings(max_examples=150, deadline=None, database=None)


def _valid_bytes(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid")
        write(path)
        with open(path, "rb") as f:
            return f.read()


VALID_GRDT = _valid_bytes(
    lambda p: save_dataset(synth_traffic(SynthSpec(height=2, width=2, steps=3, seed=0)), p)
)
VALID_CKPT = _valid_bytes(
    lambda p: save_checkpoint(p, {"w": np.ones((2, 3), np.float32), "b": np.zeros(3, np.float32)})
)
GRDT_HEADER = b"GRDT" + struct.pack("<6I", 1, 1, 1, 1, 1, 30) + b"\x00" * 4

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes overwritten, then cut and/or extended."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(0, 4))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    blob = blob[: draw(st.integers(0, len(blob)))]
    return bytes(blob) + draw(st.binary(max_size=16))


def _meta_block(payload: bytes) -> bytes:
    return GRDT_HEADER + struct.pack("<I", len(payload)) + payload


def _load_or_format_error(load, blob: bytes, error):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            load(path)
        except error:
            pass


@FUZZ
@given(st.one_of(
    st.binary(max_size=128),
    _mutated(VALID_GRDT),
    st.binary(max_size=64).map(lambda b: GRDT_HEADER + b),
    st.binary(max_size=32).map(_meta_block),
    _json.map(lambda doc: _meta_block(json.dumps(doc).encode("utf-8"))),
))
def test_load_dataset_parses_or_raises_format_error(blob):
    _load_or_format_error(load_dataset, blob, DatasetFormatError)


@FUZZ
@given(st.one_of(
    st.binary(max_size=128),
    _mutated(VALID_CKPT),
    st.binary(max_size=64).map(lambda b: VALID_CKPT[:16] + b),
))
def test_load_checkpoint_parses_or_raises_format_error(blob):
    _load_or_format_error(load_checkpoint, blob, CheckpointFormatError)


CONFIG_FIELDS = {f.name: f.type for cls in (ModelConfig, TrainConfig) for f in fields(cls)}


def _fits(annotation: str, value) -> bool:
    if annotation == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if annotation == "float":
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, int) or annotation == "int | None" and value is None


@FUZZ
@given(st.dictionaries(
    st.sampled_from(sorted(CONFIG_FIELDS)),
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    max_size=6,
))
def test_profile_config_is_profiled_or_usage_error(doc):
    # profile builds no model, so unbounded integers cannot allocate.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(doc, f)  # NaN and +-Infinity included, as Python's json reads them
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["profile", "--config", path])
    assert code in (0, 1), err.getvalue()
    if not all(_fits(CONFIG_FIELDS[k], v) for k, v in doc.items()):
        assert code == 1 and err.getvalue().startswith("usage error:")


def _quiet_main(argv) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def _profile_config_bytes(blob: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "wb") as f:
            f.write(blob)
        return _quiet_main(["profile", "--config", path])


@FUZZ
@given(st.one_of(
    st.binary(max_size=64),
    _json.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.binary(max_size=16).map(lambda b: b'{"depth": 1, "' + b + b'": 2}'),
))
def test_profile_config_bytes_end_in_a_documented_exit_code(blob):
    code, err = _profile_config_bytes(blob)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("usage error:" if code == 1 else "config parse error:"), err
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2, err


@pytest.mark.parametrize("blob", [
    b'{"depth": 1,',  # JSON syntax error
    b"[" * 200_000 + b"]" * 200_000,  # nested deeper than the parser recurses
    b'{"depth": 1, "\xff": 2}',  # not UTF-8
    "{}".encode("utf-16"),  # JSON, but not UTF-8
], ids=["syntax", "deep", "bad-utf8", "utf16"])
def test_profile_config_that_does_not_decode_exit_2(blob):
    code, err = _profile_config_bytes(blob)
    assert code == 2 and err.startswith("config parse error:"), err


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """Raw files for ``ingest`` and one tiny trained run for ``eval``."""
    root = tmp_path_factory.mktemp("argv")
    frames = np.ones((12, 2, 3, 3), np.float32)
    (root / "empty.npy").write_bytes(b"")
    (root / "text.npy").write_bytes(b"1 2 3\n4 5 6\n")
    with open(root / "npz.npy", "wb") as f:
        np.savez(f, frames=frames)
    np.save(root / "valid.npy", frames)
    np.save(root / "string.npy", frames.astype(str))
    np.save(root / "complex.npy", frames + 1j)
    data = str(root / "data.grdt")
    assert _quiet_main(["synth", "--out", data, "--h", "4", "--w", "4", "--steps", "20"])[0] == 0
    assert _quiet_main(["train", "--data", data, "--out", str(root / "run"), "--epochs", "0",
                        "--embed-dim", "4", "--depth", "1", "--patch-size", "2"])[0] == 0
    return root


_SIZE = st.integers(-2, 6)  # small, so no example can allocate much
_WIDE = st.one_of(st.integers(-2, 2000), st.sampled_from([2 ** 32 - 1, 2 ** 32]),
                  st.integers(-(2 ** 70), 2 ** 70))


def _check_exit(argv, expected: int):
    code, err = _quiet_main(argv)
    assert code == expected, err
    assert "Traceback" not in err
    if code:
        assert err.startswith("usage error:" if code == 1 else "format error:"), err


@FUZZ
@given(_SIZE, _SIZE, _SIZE, _WIDE, _WIDE)
def test_synth_argv_ends_in_a_documented_exit_code(argv_dir, h, w, steps, interval, seed):
    _check_exit(["synth", "--out", str(argv_dir / "s.grdt"), "--h", str(h), "--w", str(w),
                 "--steps", str(steps), f"--interval={interval}", f"--seed={seed}"],
                0 if min(h, w, steps) >= 1 and 1 <= interval <= 1440 and seed >= 0 else 1)


@FUZZ
@given(st.sampled_from(["empty", "text", "npz", "string", "complex", "valid"]),
       st.sampled_from(["tchw", "thwc"]),
       _WIDE)
def test_ingest_argv_ends_in_a_documented_exit_code(argv_dir, raw, layout, interval):
    _check_exit(["ingest", "--raw", str(argv_dir / f"{raw}.npy"), "--layout", layout,
                 f"--interval={interval}", "--out", str(argv_dir / "i.grdt")],
                2 if raw != "valid" else 0 if 1 <= interval < 2 ** 32 else 1)


@FUZZ
@given(st.floats())
def test_eval_argv_ends_in_a_documented_exit_code(argv_dir, threshold):
    _check_exit(["eval", "--checkpoint", str(argv_dir / "run"), "--data",
                 str(argv_dir / "data.grdt"), f"--mape-threshold={threshold!r}"],
                0 if 0 <= threshold < math.inf else 1)
