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
call; g comes from one ``classical_fisher`` call over the stack and
sigma_max from one scaled-Gram ``largest_singular_value`` call. A point that
cannot be evaluated is kept with a skip reason instead of aborting the sweep:

* ``"domain: <reason>"``: the system raised :class:`DomainError` for it;
* ``"equilibrium"``: the flow norm is at most :data:`FLOW_FLOOR`, so the
  flow-aligned direction is undefined;
* ``"nonfinite"``: the Jacobian, the flow, its norm, g or sigma_max^2 is
  not finite (an overflowing or diverged system).

A field is stored as columns, one row per point: ``states`` (n, d),
``inputs`` (n, m), ``times``, ``g``, ``sigma_max_sq``, the unit directions
``du`` (n, d) and the ``skip`` reasons ("" at a valid point); ``g``,
``sigma_max_sq`` and ``du`` are NaN at skipped points. ``FisherField.samples``
is a per-point view of :class:`FisherSample` tuples that is built from the
columns on first read, so its cost falls on whoever reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._codec import write_csv, write_json
from .dynamics import DomainError
from .numerics import largest_singular_value

__all__ = [
    "EquilibriumError",
    "AlignmentError",
    "FLOW_FLOOR",
    "PerturbationDirection",
    "FisherSample",
    "FisherField",
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


def _unit_rows(du: np.ndarray) -> np.ndarray:
    """``du`` (n, d) after checking in one pass that every row has unit norm."""
    norms = np.linalg.norm(du, axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if off.size:
        raise ValueError(f"|du| = {norms[off[0]]!r} in row {off[0]}, expected a unit vector")
    return du


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
        du = _unit_rows(np.asarray(du, dtype=float))
        return list(map(cls._make, zip(du, itertools.repeat(policy))))


def basis_axis(index: int, dim: int) -> PerturbationDirection:
    return PerturbationDirection(np.eye(dim)[index], policy=f"basis_axis({index})")


def classical_fisher(a, du):
    """g = 4 (<A^T A> - <A>^2) >= 0 (round-off negatives clamp to zero).

    ``a`` is one matrix (d, d) and ``du`` one unit direction (d,), or stacks
    (..., d, d) and (..., d) of them; returns a float or an array (...,).
    """
    a = np.asarray(a, dtype=float)
    du = np.asarray(du, dtype=float)
    adu = np.einsum("...ij,...j->...i", a, du)
    return np.maximum(4.0 * (np.einsum("...i,...i->...", adu, adu)
                             - np.einsum("...i,...i->...", du, adu) ** 2), 0.0)


def flow_direction(xdot, flow_floor: float = FLOW_FLOOR) -> PerturbationDirection:
    """Unit direction along the flow; equilibria are rejected."""
    xdot = np.asarray(xdot, dtype=float)
    norm = np.linalg.norm(xdot)
    if norm <= flow_floor:
        raise EquilibriumError(f"|xdot| = {norm:.3e} <= flow floor {flow_floor:.1e}")
    return PerturbationDirection(xdot / norm, policy="flow_aligned")


def curvature_fisher(a, xdot, flow_floor: float = FLOW_FLOOR) -> float:
    """g via the curvature form 4 kappa^2 |xdot|^2 with xddot = A xdot.

    Algebraically identical to ``classical_fisher(a, flow_direction(xdot).du)``;
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
    """A Fisher field as columns over an ordered point set, plus provenance;
    ``g``, ``sigma_max_sq`` and ``du`` are NaN where ``skip`` is not ""."""

    states: np.ndarray        # (n, d)
    inputs: np.ndarray        # (n, m)
    times: np.ndarray         # (n,)
    g: np.ndarray             # (n,)
    sigma_max_sq: np.ndarray  # (n,)
    du: np.ndarray            # (n, d) unit directions
    skip: np.ndarray          # (n,) str: "", "equilibrium", "nonfinite" or "domain: ..."
    policy: str
    domain_descriptor: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.times.size

    def g_values(self) -> np.ndarray:
        """g per point; NaN where skipped."""
        return self.g

    def valid_mask(self) -> np.ndarray:
        return self.skip == ""

    @cached_property
    def samples(self) -> list:
        """One :class:`FisherSample` per point, built from the columns on
        first read and cached."""
        valid = self.valid_mask()
        directions = iter(PerturbationDirection.rows(self.du[valid], self.policy))
        return list(map(FisherSample._make, zip(
            self.states, self.inputs, self.g.tolist(), self.sigma_max_sq.tolist(),
            [next(directions) if v else None for v in valid.tolist()],
            self.times.tolist(), self.skip.tolist())))

    def to_csv(self, path) -> None:
        write_csv(path, [*(f"state_{i}" for i in range(self.states.shape[1])),
                         *(f"input_{i}" for i in range(self.inputs.shape[1])),
                         "g", "sigma_max_sq", "skip_flag"],
                  [self.states, self.inputs, self.g, self.sigma_max_sq, self.skip])

    def to_json_dict(self) -> dict:
        valid = self.valid_mask().tolist()
        g, sig2 = ([v if ok else None for v, ok in zip(col.tolist(), valid)]
                   for col in (self.g, self.sigma_max_sq))
        keys = ("state", "input", "t", "g", "sigma_max_sq", "skip_flag")
        return {
            "policy": self.policy,
            "domain_descriptor": self.domain_descriptor,
            "samples": [dict(zip(keys, row)) for row in zip(
                self.states.tolist(), self.inputs.tolist(), self.times.tolist(),
                g, sig2, self.skip.tolist())],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())


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
    states, inputs, times = stack_points(points)
    n = times.size
    if n == 0:
        empty = np.empty((0, 0))
        return FisherField(empty, empty, times, times, times, empty,
                           np.array([], dtype=str), policy_name, domain_descriptor or {})
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
        a[~finite] = 0.0  # keeps sigma_max defined
        g = classical_fisher(a, du)
        sig2 = largest_singular_value(a) ** 2
    ok = finite & np.isfinite(g) & np.isfinite(sig2)

    skip = np.full(n, "", dtype=object)
    skip[list(domain)] = [f"domain: {reason}" for reason in domain.values()]
    skip[rows[~ok]] = "nonfinite"
    if flow:
        skip[rows[finite & (speed <= FLOW_FLOOR)]] = "equilibrium"
    skip = skip.astype(str)
    valid = skip == ""
    g_all, sig2_all = np.full(n, math.nan), np.full(n, math.nan)
    du_all = np.full(states.shape, math.nan)
    g_all[rows], sig2_all[rows], du_all[rows] = g, sig2, du
    g_all[~valid] = sig2_all[~valid] = du_all[~valid] = math.nan
    _unit_rows(du_all[valid])
    return FisherField(states, inputs, times, g_all, sig2_all, du_all, skip,
                       policy_name, domain_descriptor or {})
