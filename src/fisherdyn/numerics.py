"""Dense small-matrix kernels: RK4, its adjoint, dominant singular value.

Matrices and vectors are plain float64 numpy arrays. Everything here is a pure
function, safe to call concurrently.

``rk4`` is the package's one Runge-Kutta step and ``rk4_adjoint`` its one
reverse-mode pass: simulation (``rk4_step``), the inverse-regime rollout
gradient and the coefficient estimator's physics step all call them. A caller
that already holds the first-stage rate f(x), as simulation does once it has
recorded the derivative at x, passes it as ``k1`` and saves that evaluation.
A stage's aux is whatever its ``vjp`` needs: the estimator's stage partials,
or, in the rollout gradient, the stage's slot in buffers where the stage
wrote its layer outputs. ``rk4_adjoint`` only hands each aux back to ``vjp``.

``largest_singular_value`` takes one matrix or a (..., m, n) stack of them
and reads sigma_max off the largest eigenvalue of the smaller Gram matrix
(``np.linalg.eigvalsh``), one batched call for a whole Fisher field. Each
matrix is first divided by its largest |entry|, so that the Gram matrix of a
finite matrix cannot overflow; sigma_max then agrees with LAPACK's singular
values to round-off.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EvaluationError",
    "rk4",
    "rk4_adjoint",
    "rk4_step",
    "largest_singular_value",
]

class EvaluationError(ValueError):
    """A model evaluation produced a non-finite value."""


def rk4(f, x, dt: float, k1=None):
    """One classical RK4 step of ``x`` under ``f``, where ``f(x)`` returns a
    (rate, aux) pair; returns the new state and the four stage auxes.

    ``k1``, when given, is the first-stage rate f(x)[0] and is used instead of
    calling ``f`` at ``x``; that stage's aux is then None."""
    k1, a1 = f(x) if k1 is None else (k1, None)
    k2, a2 = f(x + 0.5 * dt * k1)
    k3, a3 = f(x + 0.5 * dt * k2)
    k4, a4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (a1, a2, a3, a4)


def rk4_adjoint(vjp, auxes, lam, dt: float):
    """Reverse mode through one ``rk4`` step: the cotangent of the old state
    given ``lam``, that of the new one. ``vjp(aux, b)`` maps the cotangent
    ``b`` of a stage's rate to that of the stage's input (and accumulates any
    parameter cotangents itself); the stages run last to first."""
    a1, a2, a3, a4 = auxes
    g4 = vjp(a4, (dt / 6.0) * lam)
    g3 = vjp(a3, (dt / 3.0) * lam + dt * g4)
    g2 = vjp(a2, (dt / 3.0) * lam + 0.5 * dt * g3)
    g1 = vjp(a1, (dt / 6.0) * lam + 0.5 * dt * g2)
    return lam + g4 + g3 + g2 + g1


def rk4_step(f, x, u=None, dt: float = 0.1, k1=None) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update of ``x`` under ``f`` with ``u``
    held; ``k1``, when given, is the rate ``f`` has at ``x``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    call = (lambda xx: (np.asarray(f(xx), dtype=float), None)) if u is None else (
        lambda xx: (np.asarray(f(xx, u), dtype=float), None))
    out, _ = rk4(call, np.asarray(x, dtype=float), dt, k1)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("non-finite intermediate in rk4 step")
    return out


def largest_singular_value(a):
    """Largest singular value of the matrix ``a``, or of each matrix in a
    (..., m, n) stack: a float for one matrix, an array of shape (...,) for
    a stack."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    scale[scale == 0.0] = 1.0
    b = a / scale
    gram = b @ b.swapaxes(-2, -1) if a.shape[-2] < a.shape[-1] else b.swapaxes(-2, -1) @ b
    lam = np.linalg.eigvalsh(gram)[..., -1]
    sigma = scale[..., 0, 0] * np.sqrt(np.maximum(lam, 0.0))
    return float(sigma) if a.ndim == 2 else sigma
