"""Dataset pipeline: normalization, windows, splits, synthesis, GRDT IO."""

import struct
import tracemalloc

import numpy as np
import pytest

from ddcn.data import (
    BadMagicError,
    ChannelStats,
    DatasetFormatError,
    DatasetMeta,
    DimensionOverflowError,
    SynthSpec,
    TrafficDataset,
    TruncatedPayloadError,
    ingest_array,
    load_dataset,
    make_windows,
    minmax_denormalize,
    minmax_normalize,
    save_dataset,
    split,
    stats_from_windows,
    synth_traffic,
)


def _dataset(frames, interval=30, name="test"):
    return TrafficDataset(DatasetMeta(name, interval), frames)


def test_minmax_basic():
    stats = ChannelStats(np.array([0.0], np.float32), np.array([10.0], np.float32))
    x = np.full((1, 2, 2), 5.0, np.float32)
    assert np.all(minmax_normalize(x, stats) == 0.5)


def test_minmax_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 50, (4, 2, 3, 3)).astype(np.float32)
    stats = ChannelStats(x.min(axis=(0, 2, 3)), x.max(axis=(0, 2, 3)))
    back = minmax_denormalize(minmax_normalize(x, stats), stats)
    assert np.max(np.abs(back - x)) < 1e-4


def test_minmax_constant_channel():
    stats = ChannelStats(np.array([7.0], np.float32), np.array([7.0], np.float32))
    x = np.full((3, 1, 2, 2), 7.0, np.float32)
    norm = minmax_normalize(x, stats)
    assert np.all(norm == 0.0)
    assert np.all(minmax_denormalize(norm, stats) == 7.0)


def test_make_windows_count_and_alignment():
    rng = np.random.default_rng(1)
    frames = rng.uniform(0, 10, (10, 2, 3, 3)).astype(np.float32)
    ds = _dataset(frames)
    windows = make_windows(ds, 4)
    assert len(windows) == 6
    for k, sample in enumerate(windows):
        assert np.array_equal(sample.input, frames[k : k + 4])
        assert np.array_equal(sample.target, frames[k + 4])
    # target(k) equals the last input frame of window k+1
    for k in range(len(windows) - 1):
        assert np.array_equal(windows[k].target, windows[k + 1].input[-1])


def test_make_windows_too_short_rejected():
    ds = _dataset(np.zeros((4, 1, 2, 2), np.float32))
    with pytest.raises(ValueError, match="needs more than"):
        make_windows(ds, 4)


def test_windows_never_cross_dataset_boundaries():
    low = _dataset(np.full((12, 1, 2, 2), 1.0, np.float32))
    high = _dataset(np.full((9, 1, 2, 2), 100.0, np.float32))
    windows = make_windows(low, 4) + make_windows(high, 4)
    assert len(windows) == (12 - 4) + (9 - 4)
    for sample in windows:
        values = np.concatenate([sample.input.reshape(-1), sample.target.reshape(-1)])
        assert np.all(values == 1.0) or np.all(values == 100.0)


def test_split_sizes():
    windows = list(range(100))
    parts = split(windows)
    assert (len(parts.train), len(parts.val), len(parts.test)) == (70, 10, 20)
    parts = split(list(range(10)))
    assert (len(parts.train), len(parts.val), len(parts.test)) == (7, 1, 2)


def test_split_chronological_no_leakage():
    windows = list(range(53))
    parts = split(windows)
    assert max(parts.train) < min(parts.val) < max(parts.val) < min(parts.test)
    assert parts.train + parts.val + parts.test == windows


def test_split_empty_partition_rejected():
    with pytest.raises(ValueError, match="at least"):
        split(list(range(5)))


def test_stats_train_only():
    rng = np.random.default_rng(2)
    frames = rng.uniform(0, 10, (40, 2, 3, 3)).astype(np.float32)
    # Plant extreme values in the tail so any leakage is visible.
    frames[-3] = 1000.0
    ds = _dataset(frames)
    windows = make_windows(ds, 4)
    parts = split(windows)
    stats = stats_from_windows(parts.train)
    assert stats.maximum.max() < 1000.0
    # Recompute independently from the raw frames the train windows touch.
    last = parts.train[-1].index + 4
    ref_lo = frames[: last + 1].min(axis=(0, 2, 3))
    ref_hi = frames[: last + 1].max(axis=(0, 2, 3))
    assert np.array_equal(stats.minimum, ref_lo)
    assert np.array_equal(stats.maximum, ref_hi)


@pytest.mark.parametrize("t_in, pick", [(1, slice(None, None, 3)), (4, slice(7, 8))],
                         ids=["every_third", "single"])
def test_stats_any_window_set(t_in, pick):
    rng = np.random.default_rng(5)
    frames = rng.uniform(0, 10, (30, 2, 3, 3)).astype(np.float32)
    # Frame 2 is in no picked window; its extremes must not leak in.
    frames[2, 0] = 1000.0
    frames[2, 1] = 0.0
    windows = make_windows(_dataset(frames), t_in)[pick]
    stats = stats_from_windows(windows)
    touched = [frame for s in windows for frame in (*s.input, s.target)]
    for c in range(2):
        values = [float(v) for frame in touched for v in frame[c].ravel()]
        ref = np.array([min(values), max(values)], dtype=np.float32)
        got = np.array([stats.minimum[c], stats.maximum[c]], dtype=np.float32)
        assert got.view(np.uint32).tolist() == ref.view(np.uint32).tolist()
    assert stats.minimum.dtype == stats.maximum.dtype == np.float32


def test_stats_peak_bytes_do_not_grow_with_the_window_count():
    # Each window reduces to per-channel extremes, so a window adds a few
    # small arrays to the peak. Copying the frames each window touches, as
    # one concatenation does, adds T_in + 1 frames (40 KiB here) per window.
    frames = np.random.default_rng(6).uniform(0, 10, (200, 2, 32, 32)).astype(np.float32)
    windows = make_windows(_dataset(frames), 4)

    def peak(ws):
        tracemalloc.start()
        try:
            stats_from_windows(ws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, every = peak(windows[:16]), peak(windows)
    assert (every - few) / (len(windows) - 16) < frames[0].nbytes / 4


def test_synth_deterministic_and_nonnegative():
    spec = SynthSpec(height=8, width=6, steps=128, seed=7)
    a = synth_traffic(spec)
    b = synth_traffic(spec)
    assert np.array_equal(a.frames, b.frames)
    assert (a.frames >= 0).all()
    assert a.frames.shape == (128, 2, 8, 6)
    c = synth_traffic(SynthSpec(height=8, width=6, steps=128, seed=8))
    assert not np.array_equal(a.frames, c.frames)


def test_synth_dominant_period_by_autocorrelation():
    spec = SynthSpec(height=8, width=8, steps=480, seed=3, interval_minutes=30)
    ds = synth_traffic(spec)
    series = ds.frames.mean(axis=(1, 2, 3))
    series = series - series.mean()
    ac = np.correlate(series, series, mode="full")[len(series) - 1 :]
    lo, hi = spec.period // 2, spec.period * 3 // 2
    peak = lo + int(np.argmax(ac[lo : hi + 1]))
    assert peak == spec.period


def test_grdt_roundtrip_bit_exact(tmp_path):
    ds = synth_traffic(SynthSpec(height=5, width=4, steps=32, seed=1, name="roundtrip"))
    path = tmp_path / "ds.grdt"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.frames, ds.frames)
    assert back.meta == ds.meta
    # Round trip of the round trip stays byte-identical on disk.
    path2 = tmp_path / "ds2.grdt"
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_grdt_header_field_order(tmp_path):
    # A swap shared by writer and reader survives the round trip; this cannot.
    ds = synth_traffic(SynthSpec(height=4, width=3, steps=5, seed=1, interval_minutes=15))
    t, c, h, w = ds.frames.shape
    assert len({t, c, h, w}) == 4
    path = tmp_path / "ds.grdt"
    save_dataset(ds, path)
    assert struct.unpack_from("<6I", path.read_bytes(), 4) == (1, t, c, h, w, 15)


def test_grdt_bad_magic(tmp_path):
    path = tmp_path / "bad.grdt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagicError):
        load_dataset(path)


def test_grdt_truncated_payload(tmp_path):
    ds = synth_traffic(SynthSpec(height=4, width=4, steps=16, seed=2))
    path = tmp_path / "ok.grdt"
    save_dataset(ds, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.grdt"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedPayloadError):
        load_dataset(cut)
    tiny = tmp_path / "tiny.grdt"
    tiny.write_bytes(b"GRDT\x01\x00\x00")
    with pytest.raises(TruncatedPayloadError):
        load_dataset(tiny)


def test_grdt_dimension_overflow_rejected_before_allocation(tmp_path):
    path = tmp_path / "huge.grdt"
    header = b"GRDT" + struct.pack("<6I", 1, 0xFFFFFF, 64, 512, 512, 30)
    path.write_bytes(header + b"\x00" * 128)
    with pytest.raises(DimensionOverflowError, match="claims"):
        load_dataset(path)


def test_grdt_zero_dimension_rejected(tmp_path):
    path = tmp_path / "zero.grdt"
    path.write_bytes(b"GRDT" + struct.pack("<6I", 1, 10, 0, 4, 4, 30))
    with pytest.raises(DatasetFormatError, match=">= 1"):
        load_dataset(path)


def test_grdt_metadata_not_an_object_rejected(tmp_path):
    path = tmp_path / "list_meta.grdt"
    header = b"GRDT" + struct.pack("<6I", 1, 1, 1, 1, 1, 30)
    path.write_bytes(header + b"\x00" * 4 + struct.pack("<I", 3) + b"[1]")
    with pytest.raises(DatasetFormatError, match="JSON object"):
        load_dataset(path)


def test_grdt_trailing_bytes_after_metadata_rejected(tmp_path):
    ds = synth_traffic(SynthSpec(height=2, width=2, steps=3, seed=0))
    path = tmp_path / "ok.grdt"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError, match="1 bytes after the metadata"):
        load_dataset(path)


def test_grdt_zero_interval_rejected(tmp_path):
    path = tmp_path / "zero_interval.grdt"
    path.write_bytes(b"GRDT" + struct.pack("<6I", 1, 1, 1, 1, 1, 0) + b"\x00" * 4)
    with pytest.raises(DatasetFormatError, match="interval"):
        load_dataset(path)


def test_dataset_rejects_negative_frames():
    with pytest.raises(DatasetFormatError, match="non-negative"):
        _dataset(np.full((4, 1, 2, 2), -1.0, np.float32))


def test_ingest_layouts():
    rng = np.random.default_rng(4)
    tchw = rng.uniform(0, 5, (6, 2, 3, 4)).astype(np.float32)
    ds = ingest_array(tchw, layout="tchw", interval_minutes=60, name="raw")
    assert np.array_equal(ds.frames, tchw)
    assert ds.meta.interval_minutes == 60
    thwc = tchw.transpose(0, 2, 3, 1)
    ds2 = ingest_array(thwc, layout="thwc")
    assert np.array_equal(ds2.frames, tchw)
    with pytest.raises(ValueError, match="unknown layout"):
        ingest_array(tchw, layout="chwt")


@pytest.mark.parametrize("dtype", [str, np.complex64, bool])
def test_ingest_rejects_non_real_dtypes_before_the_interval(dtype):
    frames = np.ones((6, 2, 3, 4)).astype(dtype)
    with pytest.raises(DatasetFormatError, match="real numbers"):
        ingest_array(frames, interval_minutes=0)
    ds = ingest_array(np.ones((6, 2, 3, 4), np.uint8))
    assert ds.frames.dtype == np.float32 and np.array_equal(ds.frames, np.ones((6, 2, 3, 4)))
