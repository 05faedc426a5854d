"""The two dynamic operators: deformable dynamic convolution and 3D involution.

Shows the degeneracy ladder (one-hot kernels -> identity; constant kernels +
zero offsets -> standard convolution) and what the learned offsets do to the
sampling grid.

Run: python3 demos/02_dynamic_operators.py
"""

import numpy as np

from ddcn import ops
from ddcn.numerics import Tensor

rng = np.random.default_rng(0)

print("== DDC with one-hot center kernels and zero offsets is the identity ==")
x = Tensor(rng.uniform(0, 1, (1, 2, 5, 5)), dtype=np.float64)
offsets = Tensor(np.zeros((1, 18, 5, 5)))
kernels = np.zeros((1, 1, 9, 5, 5))
kernels[:, :, 4] = 1.0  # center tap of the 3x3 receptive field
out = ops.ddc_forward(x, offsets, Tensor(kernels), 3)
print("identity holds exactly:", np.array_equal(out.data, x.data))

print()
print("== Constant kernels + zero offsets degenerate to a standard conv ==")
layer = ops.DDCLayer(2, kernel_size=3, rng=rng, dtype=np.float64)
taps = rng.uniform(-1, 1, 9)
layer.kernel_conv.weight.data[...] = 0.0  # kernels no longer depend on content
layer.kernel_conv.bias.data[...] = taps
diag = np.zeros((2, 2, 3, 3))
for c in range(2):
    diag[c, c] = taps.reshape(3, 3)
ref = ops.standard_conv(x, Tensor(diag), Tensor(np.zeros(2)))
err = np.max(np.abs(layer(x).data - ref.data))
print(f"max deviation from the diagonal standard conv: {err:.2e}")

print()
print("== Offsets bend the sampling grid per position ==")
layer = ops.DDCLayer(2, kernel_size=3, rng=rng, dtype=np.float64)
print("offset branch starts at exact zero (plain dynamic convolution):",
      float(np.abs(layer.offset_conv(x).data).max()) == 0.0)
layer.offset_conv.weight.data[...] = rng.uniform(-0.3, 0.3, layer.offset_conv.weight.shape)
offsets = layer.offset_conv(x).data
print(f"after randomizing the branch, offsets span [{offsets.min():+.2f}, {offsets.max():+.2f}] cells")
center_tap = 4
dy = offsets[0, 2 * center_tap]
dx = offsets[0, 2 * center_tap + 1]
print("center-tap displacement at each output position (rows = dy):")
print(np.round(dy, 2))
print(np.round(dx, 2))

print()
print("== Involution3D: per-position kernels over a K^3 volume ==")
inv = ops.Involution3D(4, kernel_size=3, groups=2, reduction=2, rng=rng, dtype=np.float64)
vol = Tensor(rng.uniform(0, 1, (1, 4, 3, 4, 4)), dtype=np.float64)
out = inv(vol)
print("shape preserved:", out.shape == vol.shape)

# Force the generator so every position sees the same one-hot center kernel.
inv.reduce.weight.data[...] = 0.0
inv.reduce.bias.data[...] = 0.0
inv.span.weight.data[...] = 0.0
inv.span.bias.data[...] = 0.0
inv.span.bias.data[27 // 2] = 1.0
inv.span.bias.data[27 + 27 // 2] = 1.0  # second group
inv.bias.data[...] = 0.0
print("one-hot center kernels give the exact identity:",
      np.array_equal(inv(vol).data, vol.data))

inv.span.bias.data[...] = 0.0
inv.bias.data[...] = 0.5
print("zero kernels + bias 0.5 give a constant field:",
      bool(np.all(inv(vol).data == 0.5)))
