"""Dataset persistence, normalization, windowing, splits and synthesis.

Grid traffic data is a (T_total, C, H, W) stack of non-negative frames.
The native on-disk container is GRDT: magic "GRDT", version u32 = 1, then
u32 fields T_total, C, H, W, interval_minutes, then T_total*C*H*W
little-endian float32 values in (t, c, h, w) row-major order, and an
optional trailing UTF-8 JSON metadata object prefixed by its u32 length,
which ends the file.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import atomic_write

__all__ = [
    "DatasetFormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "DimensionOverflowError",
    "DatasetMeta",
    "ChannelStats",
    "TrafficDataset",
    "WindowSample",
    "Split",
    "minmax_normalize",
    "minmax_denormalize",
    "stats_from_windows",
    "make_windows",
    "split",
    "synth_traffic",
    "SynthSpec",
    "save_dataset",
    "load_dataset",
    "ingest_array",
]


class DatasetFormatError(ValueError):
    """A dataset file does not satisfy the GRDT format contract."""


class BadMagicError(DatasetFormatError):
    """Leading magic bytes are not 'GRDT'."""


class TruncatedPayloadError(DatasetFormatError):
    """The file ends before the declared header or payload is complete."""


class DimensionOverflowError(DatasetFormatError):
    """Header dimensions demand more data than could possibly be present."""


GRDT_MAGIC = b"GRDT"
GRDT_VERSION = 1
# Element count above which an undersized file is treated as a hostile header
# rather than an accidentally truncated dump.
_SANE_MAX_ELEMENTS = 1 << 31


@dataclass
class DatasetMeta:
    """What the frames do not say: T, C, H and W are ``frames.shape``."""

    name: str
    interval_minutes: int


@dataclass
class ChannelStats:
    """Per-channel min/max, computed on the training portion only."""

    minimum: np.ndarray  # (C,)
    maximum: np.ndarray  # (C,)


class TrafficDataset:
    """Immutable frame stack plus metadata."""

    def __init__(self, meta: DatasetMeta, frames: np.ndarray):
        frames = np.ascontiguousarray(frames, dtype=np.float32)
        if frames.ndim != 4:
            raise DatasetFormatError(f"frames must be (T, C, H, W), got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise DatasetFormatError("frames must be finite")
        if (frames < 0).any():
            raise DatasetFormatError("traffic frames must be non-negative")
        self.meta = meta
        self.frames = frames

    def __len__(self) -> int:
        return self.frames.shape[0]


class WindowSample(NamedTuple):
    """One sliding-window sample: T_in input frames and the frame after them."""

    input: np.ndarray   # (T_in, C, H, W)
    target: np.ndarray  # (C, H, W)
    index: int


class Split(NamedTuple):
    train: list
    val: list
    test: list


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _stat_shape(x: np.ndarray, stats: ChannelStats):
    # Channel axis is third from the end for every carrier layout used here:
    # (T, C, H, W), (B, T, C, H, W) and (C, H, W).
    c = stats.minimum.shape[0]
    if x.ndim < 3 or x.shape[-3] != c:
        raise DatasetFormatError(
            f"array shape {x.shape} has no channel axis of size {c} at position -3"
        )
    target = (c, 1, 1)
    return stats.minimum.reshape(target), stats.maximum.reshape(target)


def minmax_normalize(x: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """Map values to [0, 1] per channel: (x - min) / (max - min).

    Channels with max == min normalize to exactly 0 so the transform stays
    invertible on constants.
    """
    x = np.asarray(x, dtype=np.float32)
    lo, hi = _stat_shape(x, stats)
    scale = hi - lo
    safe = np.where(scale > 0, scale, 1.0).astype(np.float32)
    out = (x - lo) / safe
    return np.where(scale > 0, out, 0.0).astype(np.float32)


def minmax_denormalize(x: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """Inverse of minmax_normalize; constant channels return the constant."""
    x = np.asarray(x, dtype=np.float32)
    lo, hi = _stat_shape(x, stats)
    return (x * (hi - lo) + lo).astype(np.float32)


def stats_from_windows(windows: Sequence[WindowSample]) -> ChannelStats:
    """Per-channel min/max over every frame a window set touches."""
    if not windows:
        raise ValueError("cannot compute stats from an empty window set")
    frames = np.concatenate([s.input for s in windows] + [s.target[None] for s in windows])
    return ChannelStats(minimum=frames.min(axis=(0, 2, 3)), maximum=frames.max(axis=(0, 2, 3)))


# ---------------------------------------------------------------------------
# Windowing and splitting
# ---------------------------------------------------------------------------


def make_windows(ds: TrafficDataset, t_in: int = 4) -> list[WindowSample]:
    """Sliding windows at every start offset: count == total_steps - t_in."""
    total = len(ds)
    if t_in < 1:
        raise ValueError(f"t_in must be >= 1, got {t_in}")
    if total <= t_in:
        raise ValueError(
            f"dataset has {total} frames; needs more than t_in={t_in} to form windows"
        )
    return [
        WindowSample(ds.frames[k : k + t_in], ds.frames[k + t_in], k)
        for k in range(total - t_in)
    ]


def split(windows: Sequence[WindowSample]) -> Split:
    """Chronological contiguous 7:1:2 partition; sizes floor(7n/10) and
    floor(n/10), with the tail to test."""
    n = len(windows)
    n_train = n * 7 // 10
    n_val = n // 10
    if min(n_train, n_val, n - n_train - n_val) < 1:
        raise ValueError(
            f"split of {n} windows at 7:1:2 produces an empty partition; need at least 10 windows"
        )
    train = list(windows[:n_train])
    val = list(windows[n_train : n_train + n_val])
    test = list(windows[n_train + n_val :])
    return Split(train, val, test)


# ---------------------------------------------------------------------------
# Synthetic traffic
# ---------------------------------------------------------------------------


SYNTH_NOISE_STD = 0.08
SYNTH_HOTSPOTS = 3


@dataclass
class SynthSpec:
    """Desk-scale synthetic inflow/outflow grids with daily periodicity.

    Every cell gets its own phase and amplitude (spatially heterogeneous
    dynamics), ``SYNTH_HOTSPOTS`` Gaussian hotspots pulse on the same daily
    period, and seeded noise of std ``SYNTH_NOISE_STD`` is added before
    clamping at zero. ``interval_minutes`` is in [1, 1440], so a day holds
    at least one frame.
    """

    height: int = 16
    width: int = 8
    steps: int = 512
    seed: int = 0
    interval_minutes: int = 30
    name: str = "synth"

    @property
    def period(self) -> int:
        return (24 * 60) // self.interval_minutes


def synth_traffic(spec: SynthSpec) -> TrafficDataset:
    if spec.height < 1 or spec.width < 1 or spec.steps < 1:
        raise ValueError(f"synthetic dims must be positive, got {spec}")
    if not 1 <= spec.interval_minutes <= 24 * 60:
        raise ValueError(f"interval_minutes must be in [1, 1440], got {spec.interval_minutes}")
    rng = np.random.default_rng(spec.seed)
    h, w, steps = spec.height, spec.width, spec.steps
    period = spec.period

    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # Phase sweeps across the grid plus per-cell jitter; amplitude varies per cell.
    phase = 2.0 * np.pi * (0.35 * yy / max(h, 1) + 0.2 * xx / max(w, 1))
    phase = phase + rng.uniform(0.0, 2.0 * np.pi, size=(h, w)) * 0.55
    amp = rng.uniform(0.4, 1.6, size=(2, h, w))

    t = np.arange(steps).reshape(steps, 1, 1, 1)
    # Outflow mirrors inflow half a period later.
    chan_shift = np.array([0.0, np.pi]).reshape(1, 2, 1, 1)
    wave = np.sin(2.0 * np.pi * t / period + phase.reshape(1, 1, h, w) + chan_shift)
    base = amp.reshape(1, 2, h, w) * (1.0 + wave)

    hotspots = np.zeros((steps, 1, h, w))
    for _ in range(SYNTH_HOTSPOTS):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(0.8, 2.0)
        strength = rng.uniform(0.8, 2.0)
        pulse_phase = rng.uniform(0.0, 2.0 * np.pi)
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2)))
        pulse = np.maximum(0.0, np.sin(2.0 * np.pi * np.arange(steps) / period + pulse_phase))
        hotspots += strength * pulse.reshape(steps, 1, 1, 1) * blob.reshape(1, 1, h, w)

    noise = rng.normal(0.0, SYNTH_NOISE_STD, size=(steps, 2, h, w))
    frames = 25.0 * np.clip(base + hotspots + noise, 0.0, None)
    return TrafficDataset(DatasetMeta(spec.name, spec.interval_minutes), frames.astype(np.float32))


# ---------------------------------------------------------------------------
# GRDT container
# ---------------------------------------------------------------------------


def save_dataset(ds: TrafficDataset, path):
    """Write ``ds`` as GRDT; the file is replaced atomically."""
    meta_doc = json.dumps({"name": ds.meta.name}).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(GRDT_MAGIC)
        f.write(struct.pack("<6I", GRDT_VERSION, *ds.frames.shape, ds.meta.interval_minutes))
        f.write(np.ascontiguousarray(ds.frames, dtype="<f4").tobytes())
        f.write(struct.pack("<I", len(meta_doc)))
        f.write(meta_doc)


def load_dataset(path) -> TrafficDataset:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(GRDT_MAGIC) or blob[: len(GRDT_MAGIC)] != GRDT_MAGIC:
        raise BadMagicError(f"bad dataset magic {blob[:4]!r}; expected {GRDT_MAGIC!r}")
    offset = len(GRDT_MAGIC)
    header_size = struct.calcsize("<6I")
    if len(blob) < offset + header_size:
        raise TruncatedPayloadError("truncated payload: file ends inside the GRDT header")
    version, t_total, channels, height, width, interval = struct.unpack_from("<6I", blob, offset)
    offset += header_size
    if version != GRDT_VERSION:
        raise DatasetFormatError(f"unsupported GRDT version {version}")
    if interval < 1:
        raise DatasetFormatError("GRDT interval_minutes must be >= 1, got 0")
    if min(t_total, channels, height, width) < 1:
        raise DatasetFormatError(
            f"all GRDT dimensions must be >= 1, got T={t_total} C={channels} H={height} W={width}"
        )
    n_elem = t_total * channels * height * width
    payload_bytes = 4 * n_elem
    remaining = len(blob) - offset
    if payload_bytes > remaining:
        # Reject before any allocation happens.
        if n_elem > _SANE_MAX_ELEMENTS:
            raise DimensionOverflowError(
                f"header claims {n_elem} elements ({payload_bytes} bytes) but only "
                f"{remaining} bytes are present"
            )
        raise TruncatedPayloadError(
            f"truncated payload: header promises {payload_bytes} bytes, file has {remaining}"
        )
    frames = (
        np.frombuffer(blob, dtype="<f4", count=n_elem, offset=offset)
        .reshape(t_total, channels, height, width)
        .copy()
    )
    offset += payload_bytes
    name = "dataset"
    if offset < len(blob):
        if len(blob) < offset + 4:
            raise TruncatedPayloadError("truncated payload: metadata length field incomplete")
        (meta_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if len(blob) < offset + meta_len:
            raise TruncatedPayloadError("truncated payload: metadata block incomplete")
        if len(blob) > offset + meta_len:
            raise DatasetFormatError(f"{len(blob) - offset - meta_len} bytes after the metadata")
        try:
            doc = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise DatasetFormatError(f"metadata block is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DatasetFormatError(
                f"metadata block must hold a JSON object, got {type(doc).__name__}"
            )
        name = str(doc.get("name", name))
    return TrafficDataset(DatasetMeta(name, interval), frames)


def ingest_array(
    array: np.ndarray,
    layout: str = "tchw",
    interval_minutes: int = 30,
    name: str = "ingested",
) -> TrafficDataset:
    """Convert a raw array dump into a TrafficDataset.

    Accepted layouts: "tchw" for (T, C, H, W) and "thwc" for (T, H, W, C),
    the two orders public grid-flow dumps ship in. Values must be
    non-negative integer or float counts; ``interval_minutes`` must fit
    GRDT's u32 field.
    """
    arr = np.asarray(array)
    if arr.dtype.kind not in "iuf":
        raise DatasetFormatError(f"raw array must hold real numbers, got dtype {arr.dtype}")
    if not 0 < interval_minutes < 1 << 32:
        raise ValueError(f"interval_minutes must be in [1, 2**32 - 1], got {interval_minutes}")
    arr = arr.astype(np.float32, copy=False)
    if arr.ndim != 4:
        raise DatasetFormatError(f"raw array must have 4 axes, got shape {arr.shape}")
    if layout == "thwc":
        arr = np.ascontiguousarray(arr.transpose(0, 3, 1, 2))
    elif layout != "tchw":
        raise ValueError(f"unknown layout {layout!r}; expected 'tchw' or 'thwc'")
    return TrafficDataset(DatasetMeta(name, interval_minutes), arr)
