# Walk through the float64 autodiff core: build a small computation,
# pull gradients out of it, confirm them against finite differences by
# hand, and take a few Adam steps on a toy least-squares problem.

import numpy as np

import mome.numcore as nc

rng = nc.rng_stream(42)

# --- forward and backward -------------------------------------------------
x = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
w = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
bias = nc.Tensor(rng.standard_normal(2), requires_grad=True)


def squared_norm():
    """Sum of squares of x @ w + bias (the bias row broadcasts over rows)."""
    hidden = nc.add(nc.matmul(x, w), bias)
    return nc.reduce_sum(nc.mul(hidden, hidden))


loss = squared_norm()
loss.backward()

print("loss:", loss.item())
print("gradient shapes:", x.grad.shape, w.grad.shape, bias.grad.shape)

# --- spot-check one entry against a central difference ----------------------
h = 1e-5
orig = w.data[1, 0]
w.data[1, 0] = orig + h
hi = squared_norm().item()
w.data[1, 0] = orig - h
lo = squared_norm().item()
w.data[1, 0] = orig
numeric = (hi - lo) / (2 * h)
print(f"analytic {w.grad[1, 0]:+.8f}  numeric {numeric:+.8f}")

# --- Adam on a toy regression ----------------------------------------------
true_w = rng.standard_normal((4, 1))
inputs = rng.standard_normal((64, 4))
targets = inputs @ true_w

param = nc.Tensor(np.zeros((4, 1)), requires_grad=True)
optimizer = nc.Adam([param], lr=0.05, weight_decay=0.0)
for step in range(200):
    optimizer.zero_grad()
    residual = nc.add(nc.matmul(nc.Tensor(inputs), param), nc.Tensor(-targets))
    nc.mul(nc.reduce_sum(nc.mul(residual, residual)), 1.0 / len(inputs)).backward()
    optimizer.step()

print("recovered weights close to truth:", np.allclose(param.data, true_w, atol=1e-3))
