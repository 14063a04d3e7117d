"""Tape-based reverse-mode autodiff, verified against finite differences.

Every training feature in this package rests on the little autodiff kernel in
`gatedfusion.tensor`: float64 matrices and stacks of them, a tape that records
one vector-Jacobian product per operand of each op run inside its `with` block,
and a central-difference gradient checker. This script builds a small expression by
hand, checks its gradients, then runs the checker over the full fusion model in
each gating mode.
"""

import numpy as np

from gatedfusion import tensor as T
from gatedfusion.diagnostics import full_model_gradcheck
from gatedfusion.gating import GatingMode


def main():
    rng = np.random.default_rng(0)
    w = T.Parameter("w", rng.normal(size=(4, 3)))
    b = T.Parameter("b", np.zeros((1, 3)))
    x = rng.normal(size=(5, 4))

    def loss_fn():
        hidden = T.sigmoid(T.add(T.matmul(T.constant(x), w), b))
        return T.sum_all(T.mul(hidden, hidden))

    print("== hand-built expression: sum(sigmoid(xW + b)^2) ==")
    with T.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    print(f"loss = {loss.item():.6f}")
    print(f"dL/db = {np.array2string(b.grad, precision=4)}")

    report = T.gradcheck(loss_fn, [w, b], tol=1e-6)
    print(f"\ngradcheck vs central finite differences (step 1e-5):\n{report}")

    print("\n== full fusion model, every parameter, every gating mode ==")
    for mode in GatingMode:
        rep = full_model_gradcheck(mode)
        status = "ok" if rep.passed else "FAILED"
        print(f"mode {mode.value:12s}: worst relative error {rep.worst:.3e}  [{status}]")


if __name__ == "__main__":
    main()
