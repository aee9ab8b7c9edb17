"""Geometric-fidelity evaluation between a true and a learned system.

The integrated Fisher-field discrepancy is quadrature-weighted:

    e_fi = V * mean_valid[(g_true - g_learned)^2]

with V the domain volume of the evaluation scheme (grid studies pass the
product of the swept interval lengths; trajectory/dataset studies use V = 1,
i.e. a normalized measure). The coordinate-dependent mean Frobenius Jacobian
difference is reported alongside as the baseline it is meant to improve on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._codec import csv_text
from .dynamics import on_accepted_rows
from .fisher import AlignmentError, FisherField, stack_points

__all__ = [
    "ParameterBiasTable",
    "fisher_discrepancy",
    "jacobian_baseline",
    "well_trained_verdict",
    "parameter_bias_table",
    "DEFAULT_TOLERANCES",
]

# (epsilon_d, epsilon_p, epsilon) defaults: normalized trajectory RMS, physics
# residual MSE, relative Fisher discrepancy.
DEFAULT_TOLERANCES = {"eps_d": 1e-2, "eps_p": 1e-3, "eps": 0.05}


def _aligned_valid(true_field: FisherField, learned_field: FisherField):
    if len(true_field) != len(learned_field):
        raise AlignmentError(
            f"field lengths differ: {len(true_field)} vs {len(learned_field)}")
    if true_field.policy != learned_field.policy:
        raise AlignmentError(
            f"direction policies differ: {true_field.policy!r} vs {learned_field.policy!r}")
    for mine, theirs in ((true_field.states, learned_field.states),
                         (true_field.inputs, learned_field.inputs)):
        if mine.shape != theirs.shape or np.any(np.abs(mine - theirs) > 1e-12):
            raise AlignmentError("fields were not evaluated at identical points")
    mask = true_field.valid_mask() & learned_field.valid_mask()
    # every fixed direction is named "fixed", so compare the directions
    if true_field.policy != "flow_aligned" and np.any(
            np.abs(true_field.du[mask] - learned_field.du[mask]) > 1e-12):
        raise AlignmentError("fields were evaluated along different fixed directions")
    return true_field.g[mask], learned_field.g[mask]


def fisher_discrepancy(true_field: FisherField, learned_field: FisherField,
                       volume: float = 1.0):
    """(e_fi, e_fi_relative). Skip-flagged points are excluded pairwise."""
    g_true, g_learned = _aligned_valid(true_field, learned_field)
    if g_true.size == 0:
        return 0.0, 0.0
    sq = (g_true - g_learned) ** 2
    e_fi = float(volume * np.mean(sq))
    denom = float(np.sum(g_true**2))
    rel = 0.0 if denom == 0.0 and np.sum(sq) == 0.0 else (
        math.inf if denom == 0.0 else float(np.sum(sq) / denom))
    return e_fi, rel


def jacobian_baseline(system_true, system_learned, points) -> float:
    """Mean Frobenius norm of A - Ahat over the points (the coordinate-
    dependent comparison the Fisher metric is held against). Each system's
    Jacobian is evaluated on the stacked points; a point that either system
    rejects as outside its envelope is left out, as ``evaluate_field`` skips
    it, and ``ValueError`` is raised when no point is left."""
    states, inputs, times = stack_points(points)
    if times.size == 0:
        raise ValueError("jacobian_baseline needs at least one point; the point list is empty")

    def difference(rows):
        point = states[rows], inputs[rows], times[rows]
        diff = system_true.jacobian(*point)
        diff -= system_learned.jacobian(*point)
        return diff

    diff = on_accepted_rows(difference, np.arange(times.size))[0]
    if diff is None:
        raise ValueError(f"none of the {times.size} points lies in both systems' envelopes")
    return float(np.mean(np.sqrt(np.einsum("nij,nij->n", diff, diff))))


def well_trained_verdict(traj_err: float, physics_resid: float,
                         e_fi_relative: float, tolerances: dict | None = None) -> dict:
    """Pass iff all three strict inequalities hold; echoes values and
    thresholds and names the failing criteria. A negative or NaN value
    raises ``ValueError``."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    for name, val in (("traj_err", traj_err), ("physics_resid", physics_resid),
                      ("e_fi_relative", e_fi_relative)):
        if not val >= 0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    failing = []
    if not traj_err < tol["eps_d"]:
        failing.append("trajectory_error")
    if not physics_resid < tol["eps_p"]:
        failing.append("physics_residual")
    if not e_fi_relative < tol["eps"]:
        failing.append("fisher_discrepancy")
    return {
        "verdict": "geometric_fidelity_pass" if not failing else "fail",
        "failing": failing,
        "traj_err": traj_err,
        "physics_resid": physics_resid,
        "e_fi_relative": e_fi_relative,
        "tolerances": tol,
    }


@dataclass
class ParameterBiasTable:
    names: list
    means: np.ndarray
    stds: np.ndarray
    true_values: np.ndarray

    def relative_deviation(self) -> np.ndarray:
        return np.abs(self.means - self.true_values) / np.abs(self.true_values)

    def most_deviated(self) -> list:
        """Coefficient names sorted by |mean - true| / |true|, worst first."""
        order = np.argsort(-self.relative_deviation())
        return [self.names[i] for i in order]

    def to_csv(self) -> str:
        return csv_text(["parameter", "mean", "std", "true"],
                        [self.names, self.means, self.stds, self.true_values])


def parameter_bias_table(names, records, true_values) -> ParameterBiasTable:
    """Sample mean and population standard deviation per coefficient.

    ``records`` has one row per estimate, one column per coefficient.
    """
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[0] < 2:
        raise ValueError("need at least two estimate records per coefficient")
    if records.shape[1] != len(names):
        raise ValueError("record width does not match the coefficient names")
    return ParameterBiasTable(list(names), records.mean(axis=0),
                              records.std(axis=0),
                              np.asarray(true_values, dtype=float))
