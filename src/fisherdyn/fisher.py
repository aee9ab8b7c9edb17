"""Classical Fisher information of linearized deterministic dynamics.

For a stability matrix A = grad_x F(x, u) and a unit perturbation du, the
information scalar is the variance of the logarithmic derivative L = 2 Abar,
Abar = A - <A> I:

    g = 4 (<A^T A> - <A>^2),     <X> = du^T X du.

Under the flow-aligned direction du = xdot/|xdot| this equals
4 kappa^2 |xdot|^2 with kappa the phase-space trajectory curvature, and it is
always bounded by 0 <= g/4 <= sigma_max(A)^2.

``evaluate_field`` sweeps a system's (rhs, jacobian) pair over a point set and
returns a :class:`FisherField` that stores g together with sigma_max^2 so the
bound stays auditable after the fact. The sweep is stacked: the system sees
all points in one ``jacobian`` call and, for flow alignment, one ``rhs``
call; g comes from one ``einsum`` over the stack and sigma_max from one
batched SVD. A point that cannot be evaluated is kept with a skip reason
instead of aborting the sweep:

* ``"domain: <reason>"``: the system raised :class:`DomainError` for it;
* ``"equilibrium"``: the flow norm is at most :data:`FLOW_FLOOR`, so the
  flow-aligned direction is undefined;
* ``"nonfinite"``: the Jacobian, the flow, its norm, g or sigma_max^2 is
  not finite (an overflowing or diverged system).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import DomainError
from .numerics import largest_singular_value

__all__ = [
    "EquilibriumError",
    "AlignmentError",
    "FLOW_FLOOR",
    "PerturbationDirection",
    "FisherSample",
    "FisherField",
    "expectation",
    "log_derivative",
    "classical_fisher",
    "flow_direction",
    "curvature_fisher",
    "stack_points",
    "evaluate_field",
]

# Below this flow norm a point is treated as an equilibrium: the flow-aligned
# direction (and with it g) is undefined there.
FLOW_FLOOR = 1e-8


class EquilibriumError(ValueError):
    """Flow-aligned direction requested at (numerically) zero flow."""


class AlignmentError(ValueError):
    """Two Fisher fields do not share point lists / direction policies."""


class _Direction(NamedTuple):
    du: np.ndarray
    policy: str = "fixed"


class PerturbationDirection(_Direction):
    """A unit perturbation vector plus the policy that produced it."""

    __slots__ = ()

    def __new__(cls, du, policy: str = "fixed"):
        du = np.asarray(du, dtype=float)
        norm = np.linalg.norm(du)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"|du| = {norm!r}, expected a unit vector")
        return super().__new__(cls, du, policy)

    @classmethod
    def rows(cls, du, policy: str) -> list:
        """One direction per row of the (n, d) array ``du``; the unit norms
        are checked for all rows at once."""
        du = np.asarray(du, dtype=float)
        norms = np.linalg.norm(du, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
        if off.size:
            raise ValueError(f"|du| = {norms[off[0]]!r} in row {off[0]}, expected a unit vector")
        return list(map(cls._make, zip(du, itertools.repeat(policy))))


def basis_axis(index: int, dim: int) -> PerturbationDirection:
    du = np.zeros(dim)
    du[index] = 1.0
    return PerturbationDirection(du, policy=f"basis_axis({index})")


def expectation(x, direction: PerturbationDirection) -> float:
    """<X> = du^T X du (equals Tr(X rho) with rho = du du^T)."""
    x = np.asarray(x, dtype=float)
    du = direction.du
    if x.shape != (du.size, du.size):
        raise ValueError(f"matrix shape {x.shape} does not match direction dim {du.size}")
    return float(du @ x @ du)


def log_derivative(a, direction: PerturbationDirection):
    """Return (Abar, L) with Abar = A - <A> I and L = 2 Abar.

    L is the operator satisfying rho-dot = (L rho + rho L)/2 for the pure
    perturbation state rho = du du^T; by construction <Abar> = 0.
    """
    a = np.asarray(a, dtype=float)
    mean = expectation(a, direction)
    a_bar = a - mean * np.eye(a.shape[0])
    return a_bar, 2.0 * a_bar


def classical_fisher(a, direction: PerturbationDirection) -> float:
    """g = 4 (<A^T A> - <A>^2) >= 0 (round-off negatives clamp to zero)."""
    a = np.asarray(a, dtype=float)
    du = direction.du
    if a.shape != (du.size, du.size):
        raise ValueError(f"matrix shape {a.shape} does not match direction dim {du.size}")
    adu = a @ du
    g = 4.0 * (float(adu @ adu) - float(du @ adu) ** 2)
    return max(g, 0.0)


def flow_direction(xdot, flow_floor: float = FLOW_FLOOR) -> PerturbationDirection:
    """Unit direction along the flow; equilibria are rejected."""
    xdot = np.asarray(xdot, dtype=float)
    norm = np.linalg.norm(xdot)
    if norm <= flow_floor:
        raise EquilibriumError(f"|xdot| = {norm:.3e} <= flow floor {flow_floor:.1e}")
    return PerturbationDirection(xdot / norm, policy="flow_aligned")


def curvature_fisher(a, xdot, flow_floor: float = FLOW_FLOOR) -> float:
    """g via the curvature form 4 kappa^2 |xdot|^2 with xddot = A xdot.

    Algebraically identical to ``classical_fisher(a, flow_direction(xdot))``;
    kept separate as the geometric cross-check.
    """
    a = np.asarray(a, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    speed = np.linalg.norm(xdot)
    if speed <= flow_floor:
        raise EquilibriumError(f"|xdot| = {speed:.3e} <= flow floor {flow_floor:.1e}")
    u = xdot / speed
    xddot = a @ xdot
    perp = xddot - (u @ xddot) * u
    kappa = np.linalg.norm(perp) / speed**2
    return 4.0 * kappa**2 * speed**2


class FisherSample(NamedTuple):
    """g and the singular-value bound at one (state, input) point."""

    state: np.ndarray
    input: np.ndarray
    g: float
    sigma_max_sq: float
    direction: PerturbationDirection | None
    t: float = 0.0
    skip: str = ""  # "", "equilibrium", "nonfinite" or "domain: ..."

    @property
    def skipped(self) -> bool:
        return bool(self.skip)


@dataclass
class FisherField:
    """Ordered Fisher samples over a domain, plus provenance."""

    samples: list
    policy: str
    domain_descriptor: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def g_values(self) -> np.ndarray:
        """g per sample; NaN where skipped."""
        return np.array([np.nan if s.skipped else s.g for s in self.samples])

    def valid_mask(self) -> np.ndarray:
        return np.array([not s.skipped for s in self.samples])

    def to_csv(self, path) -> None:
        n_state = self.samples[0].state.size if self.samples else 0
        n_input = self.samples[0].input.size if self.samples else 0
        header = ([f"state_{i}" for i in range(n_state)]
                  + [f"input_{i}" for i in range(n_input)]
                  + ["g", "sigma_max_sq", "skip_flag"])
        lines = [",".join(header)]
        for s in self.samples:
            vals = [repr(float(v)) for v in s.state] + [repr(float(v)) for v in s.input]
            if s.skipped:
                vals += ["nan", "nan", s.skip]
            else:
                vals += [repr(float(s.g)), repr(float(s.sigma_max_sq)), ""]
            lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "domain_descriptor": self.domain_descriptor,
            "samples": [
                {
                    "state": [float(v) for v in s.state],
                    "input": [float(v) for v in s.input],
                    "t": float(s.t),
                    "g": None if s.skipped else float(s.g),
                    "sigma_max_sq": None if s.skipped else float(s.sigma_max_sq),
                    "skip_flag": s.skip,
                }
                for s in self.samples
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _fixed_direction(policy, dim) -> PerturbationDirection:
    if isinstance(policy, PerturbationDirection):
        if policy.du.size != dim:
            raise ValueError(f"direction dim {policy.du.size} does not match state dim {dim}")
        return policy
    if isinstance(policy, str) and policy.startswith("basis_axis"):
        index = int(policy[policy.index("(") + 1:policy.index(")")])
        return basis_axis(index, dim)
    raise ValueError(f"unknown direction policy {policy!r}")


def stack_points(points):
    """(states (n, d), inputs (n, m), times (n,)) from (state, input[, t])
    tuples; t defaults to 0."""
    points = list(points)
    states = np.array([p[0] for p in points], dtype=float)
    inputs = np.array([p[1] for p in points], dtype=float)
    times = np.array([float(p[2]) if len(p) > 2 else 0.0 for p in points])
    return states, inputs, times


def _evaluable(system, states, inputs, times, with_rhs: bool):
    """Evaluate the system on every point it accepts.

    Returns (rows, jacobians, flows, domain reasons by point index); flows is
    None unless ``with_rhs``. Points named by a :class:`DomainError` are
    dropped and the call is repeated on the rest.
    """
    rows = np.arange(times.size)
    reasons = {}
    while True:
        s, u, t = states[rows], inputs[rows], times[rows]
        try:
            return (rows, system.jacobian(s, u, t),
                    system.rhs(s, u, t) if with_rhs else None, reasons)
        except DomainError as err:
            if err.rows.size == 0:
                raise
            reasons.update(zip(rows[err.rows].tolist(), err.reasons))
            rows = np.delete(rows, err.rows)


def evaluate_field(system, points, policy="flow_aligned",
                   domain_descriptor: dict | None = None) -> FisherField:
    """Evaluate g over ``points`` = iterable of (state, input[, t]).

    ``system.jacobian`` (and, for the flow-aligned policy, ``system.rhs``)
    is called once on the stacked points, states (n, d), inputs (n, m) and
    times (n,). Other policies are a fixed :class:`PerturbationDirection` or
    ``"basis_axis(i)"``. g and sigma_max^2 are stored per point; points out
    of the system's envelope, at equilibria or with non-finite values are
    recorded with a skip reason (see the module docstring) instead of
    aborting the sweep.
    """
    flow = policy == "flow_aligned"
    policy_name = policy.policy if isinstance(policy, PerturbationDirection) else str(policy)
    points = list(points)
    states, inputs, times = stack_points(points)
    n = times.size
    if n == 0:
        return FisherField([], policy_name, domain_descriptor or {})
    fixed = None if flow else _fixed_direction(policy, states.shape[1])

    rows, a, xdot, domain = _evaluable(system, states, inputs, times, flow)
    with np.errstate(all="ignore"):
        finite = np.isfinite(a).all(axis=(1, 2))
        if flow:
            speed = np.linalg.norm(xdot, axis=1)
            finite &= np.isfinite(speed)
            du = xdot / speed[:, None]
        else:
            du = np.broadcast_to(fixed.du, (rows.size, fixed.du.size))
        a[~finite] = 0.0  # keeps the SVD defined
        adu = np.einsum("nij,nj->ni", a, du)
        g = np.maximum(4.0 * (np.einsum("ni,ni->n", adu, adu)
                              - np.einsum("ni,ni->n", du, adu) ** 2), 0.0)
        sig2 = largest_singular_value(a) ** 2
    ok = finite & np.isfinite(g) & np.isfinite(sig2)

    skip = np.full(n, "", dtype=object)
    skip[list(domain)] = [f"domain: {reason}" for reason in domain.values()]
    skip[rows[~ok]] = "nonfinite"
    if flow:
        skip[rows[finite & (speed <= FLOW_FLOOR)]] = "equilibrium"
    valid = skip == ""
    g_all, sig2_all = np.full(n, math.nan), np.full(n, math.nan)
    g_all[rows], sig2_all[rows] = g, sig2
    g_all[~valid] = sig2_all[~valid] = math.nan
    if flow:
        directions = iter(PerturbationDirection.rows(du[valid[rows]], "flow_aligned"))
    else:
        directions = itertools.repeat(fixed)
    directions = [next(directions) if v else None for v in valid.tolist()]
    # Samples hold the caller's point arrays; _make builds each tuple
    # directly from the zipped fields.
    samples = list(map(FisherSample._make, zip(
        (np.asarray(p[0], float) for p in points), (np.asarray(p[1], float) for p in points),
        g_all.tolist(), sig2_all.tolist(), directions, times.tolist(), skip.tolist())))
    return FisherField(samples, policy_name, domain_descriptor or {})
