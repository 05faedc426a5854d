"""Synthetic grid traffic: generation, windowing, splits, normalization.

Run: python3 demos/03_synthetic_data.py
"""

import numpy as np

from ddcn.data import (
    SynthSpec,
    make_windows,
    minmax_denormalize,
    minmax_normalize,
    split,
    stats_from_windows,
    synth_traffic,
)

spec = SynthSpec(height=8, width=8, steps=384, seed=7, interval_minutes=30)
ds = synth_traffic(spec)
t, c, h, w = ds.frames.shape
print(f"dataset: {t} frames of {c}x{h}x{w}, one every {ds.meta.interval_minutes} min")
print(f"value range: [{ds.frames.min():.2f}, {ds.frames.max():.2f}] (counts, non-negative)")

print()
print("== The dominant period equals one synthetic day ==")
series = ds.frames.mean(axis=(1, 2, 3))
centered = series - series.mean()
ac = np.correlate(centered, centered, mode="full")[len(series) - 1 :]
lo, hi = spec.period // 2, spec.period * 3 // 2
peak = lo + int(np.argmax(ac[lo : hi + 1]))
print(f"autocorrelation peak at lag {peak} (configured period {spec.period})")

print()
print("== Cells are heterogeneous: phases differ across the grid ==")
phases = [int(np.argmax(ds.frames[: spec.period, 0, y, x])) for y, x in
          [(0, 0), (0, 7), (7, 0), (7, 7)]]
print("first-day argmax step per corner cell:", phases)

print()
print("== Sliding windows and the chronological 7:1:2 split ==")
windows = make_windows(ds, t_in=4)
print(f"{len(windows)} windows (= {len(ds)} frames - 4)")
parts = split(windows)
print(f"train/val/test sizes: {len(parts.train)}/{len(parts.val)}/{len(parts.test)}")
print("window 0 target equals window 1's last input frame:",
      np.array_equal(parts.train[0].target, parts.train[1].input[-1]))

print()
print("== Min-max stats come from the training portion only ==")
stats = stats_from_windows(parts.train)
print("per-channel min:", stats.minimum, " max:", stats.maximum)
norm = minmax_normalize(parts.train[0].input, stats)
print(f"normalized train window range: [{norm.min():.3f}, {norm.max():.3f}]")
back = minmax_denormalize(norm, stats)
print(f"round trip max error: {np.max(np.abs(back - parts.train[0].input)):.2e}")
test_norm = minmax_normalize(parts.test[0].input, stats)
print(f"a test window may exceed [0, 1] under train stats: max = {test_norm.max():.3f}")
