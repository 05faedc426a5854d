"""End to end: train a small model on synthetic traffic, score it, export maps.

Takes roughly half a minute on a laptop CPU and writes its artifacts into
demo_run/.

Run: python3 demos/04_train_and_evaluate.py
"""

from pathlib import Path

import numpy as np

from ddcn.data import SynthSpec, make_windows, minmax_denormalize, split, \
    stats_from_windows, synth_traffic
from ddcn.metrics import error_map, save_error_map_csv, save_error_map_pgm
from ddcn.model import DDCN, ModelConfig
from ddcn.profile import count_params
from ddcn.train import TrainConfig, iter_batches, train_loop

out_dir = Path("demo_run")
ds = synth_traffic(SynthSpec(height=8, width=8, steps=256, seed=3))
cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=16, depth=1)
model = DDCN(cfg, (8, 8), seed=3)
print(f"model: {count_params(model)} parameters, grid 8x8, patch 2, embed 16")

tc = TrainConfig(batch_size=16, epochs=20, learning_rate=2e-3, seed=3)
run = train_loop(model, ds, tc, out_dir=out_dir)

print()
print("epoch  train_l1   val_l1")
for rec in run.epochs[::4] + run.epochs[-1:]:
    print(f"{rec.epoch:>5d}  {rec.train_l1:.5f}   {rec.val_l1:.5f}")
print(f"best epoch {run.best_epoch} (val L1 {run.best_val_l1:.5f})")
for name, report in run.final.items():
    m = report["metrics"]
    print(f"{name:>5s}: RMSE {m['rmse']:.3f}  MAE {m['mae']:.3f}  MAPE {m['mape']:.2f}%")

print()
print("== Error map for the first test window ==")
windows = make_windows(ds, 4)
parts = split(windows)
stats = stats_from_windows(parts.train)
sample = parts.test[0]
xb, _ = next(iter_batches([sample], stats, 1))
pred = minmax_denormalize(model.predict(xb)[0], stats)
emap = error_map(pred, sample.target)
save_error_map_csv(emap, out_dir / "errmap.csv")
save_error_map_pgm(emap, out_dir / "errmap.pgm")
print(np.round(emap, 1))
print(f"wrote {out_dir}/errmap.csv and {out_dir}/errmap.pgm "
      f"(max cell error {emap.max():.2f} maps to 255)")
