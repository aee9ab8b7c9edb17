"""Dense small-matrix kernels: RK4, its adjoint, dominant singular value.

Matrices and vectors are plain float64 numpy arrays. Everything here is a pure
function, safe to call concurrently.

``rk4`` is the package's one Runge-Kutta step and ``rk4_adjoint`` its one
reverse-mode pass: simulation (``rk4_step``, a rate f(x, u) with u held),
the inverse-regime rollout gradient and the coefficient estimator's physics
step all call them. A caller that already holds the first-stage rate f(x),
as simulation does once it has recorded the derivative at x, passes it as
``k1`` and saves that evaluation.
A stage's aux is whatever its ``vjp`` needs: the estimator's stage partials,
or, in the rollout gradient, the stage's slot in buffers where the stage
wrote its layer outputs. ``rk4_adjoint`` only hands each aux back to ``vjp``.

``largest_singular_value`` takes one matrix or a (..., m, n) stack of them
and reads sigma_max off the largest eigenvalue of the smaller Gram matrix
(``np.linalg.eigvalsh``). Each matrix is first divided by its largest
|entry|, so that the Gram matrix of a finite matrix cannot overflow;
sigma_max then agrees with LAPACK's singular values to round-off. A stack
runs in blocks of :data:`SIGMA_BLOCK` matrices, each block's scale, scaled
copy, Gram and eigenvalues written into one result array: a whole Fisher
field's temporaries would each take a fresh stack-sized allocation that the
allocator hands back to the system on free and faults in again on the next
call, while a block of 6 x 6 matrices (a 74 KB Gram) stays under glibc's
default 128 KB mmap threshold and is reused from the heap. Every matrix's
arithmetic is that of an unblocked call, so the result is the same to the
bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EvaluationError",
    "rk4",
    "rk4_adjoint",
    "rk4_step",
    "largest_singular_value",
    "SIGMA_BLOCK",
]

# Matrices per block of a largest_singular_value stack (see the module docstring).
SIGMA_BLOCK = 256


class EvaluationError(ValueError):
    """A model evaluation produced a non-finite value; ``rows`` lists the
    (flat) indices of the offending points of a stack, when known."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=int)


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


def rk4_step(f, x, u, dt: float, k1=None) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update of ``x`` under the rate
    ``f(x, u)`` with ``u`` held; ``k1``, when given, is f(x, u). A
    non-finite result raises :class:`EvaluationError` naming the points
    (rows of a stack of states) that hold it."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out, _ = rk4(lambda xx: (np.asarray(f(xx, u), dtype=float), None),
                 np.asarray(x, dtype=float), dt, k1)
    if not np.all(np.isfinite(out)):
        rows = np.flatnonzero(~np.isfinite(out).all(axis=-1))
        raise EvaluationError(f"non-finite state after the rk4 step at points {rows.tolist()}",
                              rows)
    return out


def largest_singular_value(a):
    """Largest singular value of the matrix ``a``, or of each matrix in a
    (..., m, n) stack: a float for one matrix, an array of shape (...,) for
    a stack. The stack is read :data:`SIGMA_BLOCK` matrices at a time, so
    the call's temporaries do not grow with the stack."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    m, n = a.shape[-2:]
    mats = a.reshape(-1, m, n)
    sigma = np.empty(mats.shape[0])
    for lo in range(0, mats.shape[0], SIGMA_BLOCK):
        block = mats[lo:lo + SIGMA_BLOCK]
        if not np.isfinite(block).all():
            raise ValueError("matrix entries must be finite")
        b = np.abs(block)
        scale = np.max(b, axis=(-2, -1), keepdims=True)
        scale[scale == 0.0] = 1.0
        np.divide(block, scale, out=b)
        gram = b @ b.swapaxes(-2, -1) if m < n else b.swapaxes(-2, -1) @ b
        lam = np.linalg.eigvalsh(gram)[:, -1]
        np.multiply(scale[:, 0, 0], np.sqrt(np.maximum(lam, 0.0)), out=sigma[lo:lo + SIGMA_BLOCK])
    return float(sigma[0]) if a.ndim == 2 else sigma.reshape(a.shape[:-2])
