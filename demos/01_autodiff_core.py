"""Walk through the tensor core: strict elementwise math, tapes, gradients.

Run: python3 demos/01_autodiff_core.py
"""

import numpy as np

from ddcn.numerics import Param, ShapeError, Tape, Tensor, backward, gelu, mul, reduce_sum
from ddcn.train import finite_difference, max_relative_error

print("== Tensors are strict about shape: no implicit broadcasting ==")
a = Tensor([1.0, 2.0])
b = Tensor([3.0, 4.0])
print("a + b =", (a + b).data)
try:
    mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
except ShapeError as exc:
    print("mismatched mul rejected:", exc)

print()
print("== A tape records primitives; backward replays it in reverse ==")
rng = np.random.default_rng(0)
w = Param(rng.uniform(-1, 1, (3, 3)), dtype=np.float64)
x = Tensor(rng.uniform(-1, 1, (3, 3)), dtype=np.float64)
with Tape() as tape:
    loss = reduce_sum(mul(gelu(w), x))
print(f"taped {len(tape)} primitives, loss = {loss.item():.6f}")
backward(loss, tape)
print("dloss/dw (first row):", np.round(w.grad[0], 4))

print()
print("== Central finite differences confirm the analytic gradient ==")


def run():
    return reduce_sum(mul(gelu(w), x))


fd = finite_difference(lambda: run().item(), [w.data])
print(f"max relative error vs finite differences: {max_relative_error(w.grad, fd[0]):.2e}")

print()
print("== Gradients accumulate until the caller zeroes them ==")
first = w.grad.copy()
backward(loss, tape)
print("second backward doubles the gradient exactly:", np.array_equal(w.grad, 2 * first))
