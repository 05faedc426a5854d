"""Analytic cost accounting and the reference-scale configuration search.

Run: python3 demos/05_profile_costs.py
"""

import numpy as np

from ddcn.model import DDCN, ModelConfig
from ddcn.numerics import FlopCounter, Tensor
from ddcn.profile import cost_report, count_flops, search_reference_configs

cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=16, depth=1)
shape = (1, 4, 2, 16, 16)
print(cost_report(cfg, shape).format())

print()
print("== The analytic count equals an instrumented forward exactly ==")
model = DDCN(cfg, (16, 16), seed=0)
x = Tensor(np.random.default_rng(0).uniform(0, 1, shape).astype(np.float32))
with FlopCounter() as counter:
    model(x)
print(f"analytic {count_flops(model, shape)} vs instrumented {counter.flops}: "
      f"{count_flops(model, shape) == counter.flops}")

print()
print("== Ablations always cost less ==")
for flags, label in [({"use_ddc": False}, "w/o DDC"),
                     ({"use_involution3d": False}, "w/o Involution3D"),
                     ({"use_ddc": False, "use_involution3d": False}, "w/o all")]:
    ab = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=16,
                     depth=1, **flags)
    rep = cost_report(ab, shape)
    print(f"{label:>18s}: {rep.total_params} params, {rep.total_flops} FLOPs")

print()
print("== Which (D, depth, p) lands near 0.61M params / 0.15G published FLOPs? ==")
print("(published profiler numbers count MACs; the MAC=2 figure is shown too)")
hits = [c for c in search_reference_configs(input_shape=(1, 4, 2, 32, 32)) if c.matches]
for c in hits[:5]:
    print(f"  D={c.embed_dim:<4d} depth={c.depth} p={c.patch_size}  "
          f"params={c.params / 1e6:.3f}M  macs={c.macs / 1e9:.4f}G  "
          f"flops(MAC=2)={c.flops / 1e9:.4f}G")
print(f"{len(hits)} candidate configurations within the 20% band")
