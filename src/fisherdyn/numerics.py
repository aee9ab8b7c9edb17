"""Dense small-matrix kernels: finite-difference Jacobians, RK4, dominant singular value.

Matrices and vectors are plain float64 numpy arrays. Everything here is a pure
function, safe to call concurrently.

``largest_singular_value`` takes one matrix or a (..., m, n) stack of them
and reads sigma_max off LAPACK's singular values (``np.linalg.svd`` without
vectors): exact to round-off, with one batched call for a whole Fisher field.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EvaluationError",
    "central_difference_jacobian",
    "rk4_step",
    "largest_singular_value",
]

# Finite-difference step; per-coordinate it is scaled by max(1, |x_j|) to balance
# truncation against round-off in double precision.
DEFAULT_FD_STEP = 1e-5


class EvaluationError(ValueError):
    """A model evaluation produced a non-finite value."""


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def central_difference_jacobian(f, x, u=None, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Second-order central-difference Jacobian of ``f`` w.r.t. ``x``.

    ``f(x, u)`` (or ``f(x)`` when ``u`` is None) must return a 1-d array.
    Entry (i, j) is (f(x + h_j e_j)_i - f(x - h_j e_j)_i) / (2 h_j) with
    h_j = h * max(1, |x_j|).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = _as_vector(x)
    call = (lambda xx: f(xx)) if u is None else (lambda xx: f(xx, u))

    cols = []
    for j in range(x.size):
        hj = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += hj
        xm[j] -= hj
        fp = np.asarray(call(xp), dtype=float)
        fm = np.asarray(call(xm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise EvaluationError(f"non-finite evaluation while differencing coordinate {j}")
        cols.append((fp - fm) / (2.0 * hj))
    return np.column_stack(cols)


def rk4_step(f, x, u=None, dt: float = 0.1) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update of ``x`` under ``f`` with ``u`` held."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    call = (lambda xx: np.asarray(f(xx), dtype=float)) if u is None else (
        lambda xx: np.asarray(f(xx, u), dtype=float))

    k1 = call(x)
    k2 = call(x + 0.5 * dt * k1)
    k3 = call(x + 0.5 * dt * k2)
    k4 = call(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
    sigma = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(sigma) if a.ndim == 2 else sigma
