"""RMSE / MAE / MAPE scoring and per-cell error-map export.

Metrics are computed in float64 over already-denormalized values. MAPE
excludes elements whose actual value is within ``mask_threshold`` of zero
(percentage error is undefined there); the masked count is reported.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import ShapeError, atomic_write

__all__ = ["MAPE_MASK_THRESHOLD", "MetricsReport", "compute_metrics", "error_map",
           "save_error_map_csv", "save_error_map_pgm", "load_error_map_pgm"]

MAPE_MASK_THRESHOLD = 1e-6  # default mask_threshold of every MAPE in the library


@dataclass
class MetricsReport:
    """Scores for one prediction batch; mape is NaN when every cell is masked."""

    rmse: float
    mae: float
    mape: float
    n_evaluated: int
    n_masked: int

    def to_dict(self) -> dict:
        return {**asdict(self), "mape": None if math.isnan(self.mape) else self.mape}

    def format(self) -> str:
        mape = "undefined (all masked)" if math.isnan(self.mape) else f"{self.mape:.4f}%"
        return (
            f"RMSE {self.rmse:.4f}  MAE {self.mae:.4f}  MAPE {mape}  "
            f"(evaluated {self.n_evaluated}, masked {self.n_masked})"
        )


def compute_metrics(pred: np.ndarray, actual: np.ndarray,
                    mask_threshold: float = MAPE_MASK_THRESHOLD) -> MetricsReport:
    """RMSE = sqrt(mean (p-a)^2); MAE = mean |p-a|; MAPE = 100 * mean |(p-a)/a|
    over elements with |a| > mask_threshold."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise ShapeError(f"compute_metrics: shapes differ: {pred.shape} vs {actual.shape}")
    diff = pred - actual
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    mae = float(np.mean(np.abs(diff)))
    mask = np.abs(actual) > mask_threshold
    n_eval = int(mask.sum())
    if n_eval == 0:
        mape = math.nan
    else:
        mape = float(100.0 * np.mean(np.abs(diff[mask] / actual[mask])))
    return MetricsReport(rmse, mae, mape, n_eval, pred.size - n_eval)


def error_map(pred: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-cell absolute error |pred - actual| summed over channels -> (H, W)."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise ShapeError(f"error_map: shapes differ: {pred.shape} vs {actual.shape}")
    if pred.ndim != 3:
        raise ShapeError(f"error_map: inputs must be (C, H, W), got {pred.shape}")
    return np.abs(pred - actual).sum(axis=0)


def save_error_map_csv(emap: np.ndarray, path):
    """One CSV row per grid row, plain decimal floats; the file is replaced atomically."""
    with atomic_write(path) as f:
        np.savetxt(f, np.asarray(emap, dtype=np.float64), delimiter=",", fmt="%.9g")


def save_error_map_pgm(emap: np.ndarray, path):
    """8-bit binary portable graymap, scaled so the max error maps to 255.

    An all-zero map stays all black; brighter pixels mean larger errors.
    The file is replaced atomically.
    """
    emap = np.asarray(emap, dtype=np.float64)
    h, w = emap.shape
    peak = emap.max()
    if peak > 0:
        scaled = np.rint(emap * (255.0 / peak)).astype(np.uint8)
    else:
        scaled = np.zeros((h, w), dtype=np.uint8)
    with atomic_write(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())


def load_error_map_pgm(path) -> tuple[np.ndarray, int]:
    """Read back a P5 graymap written by save_error_map_pgm -> (pixels, maxval)."""
    with open(path, "rb") as f:
        blob = f.read()
    # P5, width, height and maxval, whitespace-separated, then one whitespace byte.
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if header is None or header[3] != b"255":
        raise ValueError(f"not a P5 graymap written by this library: {blob[:32]!r}")
    w, h = int(header[1]), int(header[2])
    pixels = blob[header.end():]
    if len(pixels) != w * h:
        raise ValueError(f"graymap has {len(pixels)} pixel bytes, expected {w}x{h} = {w * h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy(), 255
