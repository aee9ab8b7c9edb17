"""Classical Fisher information of linearized deterministic dynamics.

For a stability matrix A = grad_x F(x, u) and a unit perturbation du, the
information scalar is the variance of the logarithmic derivative L = 2 Abar,
Abar = A - <A> I:

    g = 4 (<A^T A> - <A>^2),     <X> = du^T X du.

Under the flow-aligned direction du = xdot/|xdot| this equals
4 kappa^2 |xdot|^2 with kappa the phase-space trajectory curvature (the
tests check g against that curvature form, written in ``tests/oracles.py``),
and it is always bounded by 0 <= g/4 <= sigma_max(A)^2.

``evaluate_field`` sweeps a system's (rhs, jacobian) pair over a point set and
returns a :class:`FisherField` that stores g together with sigma_max^2 so the
bound stays auditable after the fact. du is the flow direction at each
point (policy ``"flow_aligned"``) or one unit (d,) array at every point
(policy ``"fixed"``). The sweep is stacked: :func:`stack_points` builds the
state, input and time columns, the system sees all points in one
``jacobian`` call and, for flow alignment, one ``rhs`` call; g comes from one
``classical_fisher`` call over the stack and sigma_max from one scaled-Gram
``largest_singular_value`` call, which reads the stack in fixed blocks. A
point that cannot be evaluated is kept with a skip reason instead of
aborting the sweep:

* ``"domain: <reason>"``: the system raised :class:`DomainError` for it;
* ``"equilibrium"``: the flow norm is at most :data:`FLOW_FLOOR`, so the
  flow-aligned direction is undefined;
* ``"nonfinite"``: the Jacobian, the flow, its norm, g or sigma_max^2 is
  not finite (an overflowing or diverged system).

A field is its direction ``policy`` and columns, one row per point:
``states`` (n, d), ``inputs`` (n, m), ``times``, ``g``, ``sigma_max_sq``, the
unit directions ``du`` (n, d) and the ``skip`` reasons ("" at a valid point);
``g``, ``sigma_max_sq`` and ``du`` are NaN at skipped points. ``skip`` is
built as a str array as wide as its longest reason (``<U1`` when every point
is valid): empty strings, then the domain reasons, then "nonfinite", then
"equilibrium", which wins at an equilibrium whose g is not finite. The
per-point view ``FisherField.samples`` holds :class:`FisherSample` tuples
(``direction`` is the ``du`` row, None if skipped), built from the columns on
first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._codec import write_csv, write_json
from .dynamics import on_accepted_rows
from .numerics import largest_singular_value

__all__ = [
    "AlignmentError",
    "FLOW_FLOOR",
    "FisherSample",
    "FisherField",
    "classical_fisher",
    "stack_points",
    "evaluate_field",
]

# Below this flow norm a point is treated as an equilibrium: the flow-aligned
# direction (and with it g) is undefined there.
FLOW_FLOOR = 1e-8


class AlignmentError(ValueError):
    """Two Fisher fields do not share point lists or perturbation directions."""


def _unit_rows(du: np.ndarray) -> None:
    """Check in one pass that every row of ``du`` (n, d) has unit norm."""
    norms = np.linalg.norm(du, axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if off.size:
        raise ValueError(f"|du| = {float(norms[off[0]])!r} in row {off[0]}, "
                         "expected a unit vector")


def classical_fisher(a, du):
    """g = 4 (<A^T A> - <A>^2) >= 0 (round-off negatives clamp to zero).

    ``a`` is one matrix (d, d) and ``du`` one unit direction (d,), or stacks
    (..., d, d) and (..., d) of them over the same leading axes; returns a
    float or an array (...,). Other shapes raise ``ValueError`` naming both.
    """
    a = np.asarray(a, dtype=float)
    du = np.asarray(du, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[:-1] != du.shape:
        raise ValueError(f"classical_fisher takes a (..., d, d) and du (..., d) over the "
                         f"same leading axes, got {a.shape} and {du.shape}")
    adu = np.einsum("...ij,...j->...i", a, du)
    return np.maximum(4.0 * (np.einsum("...i,...i->...", adu, adu)
                             - np.einsum("...i,...i->...", du, adu) ** 2), 0.0)


class FisherSample(NamedTuple):
    """g and the singular-value bound at one (state, input) point."""

    state: np.ndarray
    input: np.ndarray
    g: float
    sigma_max_sq: float
    direction: np.ndarray | None  # the field's du row
    t: float = 0.0
    skip: str = ""  # "", "equilibrium", "nonfinite" or "domain: ..."

    @property
    def skipped(self) -> bool:
        return bool(self.skip)


@dataclass
class FisherField:
    """A Fisher field as columns over an ordered point set and its direction
    policy; ``g``, ``sigma_max_sq`` and ``du`` are NaN where ``skip`` is not ""."""

    states: np.ndarray        # (n, d)
    inputs: np.ndarray        # (n, m)
    times: np.ndarray         # (n,)
    g: np.ndarray             # (n,)
    sigma_max_sq: np.ndarray  # (n,)
    du: np.ndarray            # (n, d) unit directions
    skip: np.ndarray          # (n,) str: "", "equilibrium", "nonfinite" or "domain: ..."
    policy: str

    def __len__(self) -> int:
        return self.times.size

    def valid_mask(self) -> np.ndarray:
        return self.skip == ""

    @cached_property
    def samples(self) -> list:
        """One :class:`FisherSample` per point, built from the columns on
        first read and cached."""
        return list(map(FisherSample._make, zip(
            self.states, self.inputs, self.g.tolist(), self.sigma_max_sq.tolist(),
            [du if ok else None for du, ok in zip(self.du, self.valid_mask().tolist())],
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
            "samples": [dict(zip(keys, row)) for row in zip(
                self.states.tolist(), self.inputs.tolist(), self.times.tolist(),
                g, sig2, self.skip.tolist())],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def stack_points(points):
    """(states (n, d), inputs (n, m), times (n,)) from (state, input[, t])
    tuples; t defaults to 0. A point with fewer than 2 entries, or whose
    state or input length differs from point 0's, raises ``ValueError``
    naming the first such point. Each column is one concatenation of the
    points' entries, taken once every entry has point 0's length."""
    points = list(points)
    n = len(points)
    if not n:
        return np.empty(0), np.empty(0), np.empty(0)
    try:
        cols = [[p[k] for p in points] for k in (0, 1)]
        if any(list(map(len, col)).count(len(col[0])) != n for col in cols):
            raise ValueError("the points' states or inputs differ in length")
        states, inputs = (np.concatenate(col, dtype=float).reshape(n, -1) for col in cols)
    except (IndexError, TypeError, ValueError) as err:
        for i, p in enumerate(points):
            if len(p) < 2:
                raise ValueError(f"point {i} has {len(p)} entries, expected "
                                 "(state, input[, t])") from err
            for k, what in ((0, "a state"), (1, "an input")):
                if np.size(p[k]) != np.size(points[0][k]):
                    raise ValueError(f"point {i} has {what} of length {np.size(p[k])}, "
                                     f"point 0 one of length {np.size(points[0][k])}") from err
        raise
    times = np.array([float(p[2]) if len(p) > 2 else 0.0 for p in points])
    return states, inputs, times


def evaluate_field(system, points, policy="flow_aligned") -> FisherField:
    """Evaluate g over ``points`` = iterable of (state, input[, t]).

    ``system.jacobian`` (and, for the flow-aligned policy, ``system.rhs``)
    is called once on the stacked points, states (n, d), inputs (n, m) and
    times (n,). ``policy`` is ``"flow_aligned"`` (du = xdot/|xdot| per
    point) or one unit (d,) array, recorded as ``"fixed"``; any other string
    or an array of another shape or norm raises ``ValueError``. Points out
    of the system's envelope, at equilibria or with non-finite values get a
    skip reason (see the module docstring) instead of aborting the sweep.
    """
    # a string first: ``policy == "flow_aligned"`` on an array compares entries
    flow = isinstance(policy, str)
    if flow and policy != "flow_aligned":
        raise ValueError(f"unknown direction policy {policy!r}: expected "
                         "'flow_aligned' or a unit (d,) array")
    policy_name = "flow_aligned" if flow else "fixed"
    if not flow:
        fixed = np.asarray(policy, dtype=float)
        if fixed.ndim != 1:
            raise ValueError(f"direction shape {fixed.shape} does not match "
                             "a state: expected a unit (d,) array")
        _unit_rows(fixed[None])
    states, inputs, times = stack_points(points)
    n = times.size
    if n == 0:
        empty = np.empty((0, 0))
        return FisherField(empty, empty, times, times, times, empty,
                           np.array([], dtype=str), policy_name)
    if not flow and fixed.shape != states.shape[1:]:
        raise ValueError(f"direction shape {fixed.shape} does not match "
                         f"the state shape {states.shape[1:]}")

    def jacobian_and_flow(rows):
        s, u, t = states[rows], inputs[rows], times[rows]
        return system.jacobian(s, u, t), system.rhs(s, u, t) if flow else None

    result, rows, domain = on_accepted_rows(jacobian_and_flow, np.arange(n))
    a, xdot = result or jacobian_and_flow(rows)  # no row left: the empty stack
    with np.errstate(all="ignore"):
        finite = np.isfinite(a).all(axis=(1, 2))
        if flow:
            speed = np.linalg.norm(xdot, axis=1)
            finite &= np.isfinite(speed)
            du = xdot / speed[:, None]
        else:
            du = np.broadcast_to(fixed, (rows.size, fixed.size))
        a[~finite] = 0.0  # keeps sigma_max defined
        g = classical_fisher(a, du)
        sig2 = largest_singular_value(a) ** 2
    ok = finite & np.isfinite(g) & np.isfinite(sig2)

    # the skip column, written in place as a str array of its final width
    labels = {"nonfinite": rows[~ok]}
    if flow:
        labels["equilibrium"] = rows[finite & (speed <= FLOW_FLOOR)]
    domain_reasons = [f"domain: {reason}" for reason in domain.values()]
    width = max([1, *map(len, domain_reasons),
                 *(len(label) for label, at in labels.items() if at.size)])
    skip = np.zeros(n, dtype=f"<U{width}")
    skip[list(domain)] = domain_reasons
    for label, at in labels.items():
        skip[at] = label
    valid = skip == ""
    g_all, sig2_all = np.full(n, math.nan), np.full(n, math.nan)
    du_all = np.full(states.shape, math.nan)
    g_all[rows], sig2_all[rows], du_all[rows] = g, sig2, du
    g_all[~valid] = sig2_all[~valid] = du_all[~valid] = math.nan
    _unit_rows(du_all[valid])
    return FisherField(states, inputs, times, g_all, sig2_all, du_all, skip, policy_name)
