"""Geometric-fidelity evaluation between a true and a learned system.

The Fisher-field discrepancy e_fi = mean[(g_true - g_learned)^2] runs over
the points valid in both fields and comes with its relative form
sum(dg^2) / sum(g_true^2). The coordinate-dependent mean Frobenius Jacobian
difference is reported alongside as the baseline it is meant to improve on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._codec import csv_text
from .dynamics import _check_fields, on_accepted_rows
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
    if not mask.any():
        skips = [int(np.sum(~f.valid_mask())) for f in (true_field, learned_field)]
        raise ValueError(f"no point is valid in both fields: the true field skips {skips[0]} "
                         f"and the learned field {skips[1]} of {len(true_field)} points")
    return true_field.g[mask], learned_field.g[mask]


def fisher_discrepancy(true_field: FisherField, learned_field: FisherField):
    """(e_fi, e_fi_relative) over the points valid in both fields (``ValueError`` if none)."""
    g_true, g_learned = _aligned_valid(true_field, learned_field)
    sq = (g_true - g_learned) ** 2
    e_fi = float(np.mean(sq))
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
    thresholds and names the failing criteria. A negative or NaN value, an
    unknown tolerance or one that is not finite and > 0 raises ``ValueError``."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    if tol.keys() != DEFAULT_TOLERANCES.keys():
        raise ValueError(f"unknown tolerances {sorted(tol.keys() - DEFAULT_TOLERANCES.keys())}: "
                         f"the known ones are {sorted(DEFAULT_TOLERANCES)}")
    _check_fields("tolerance ", tol, dict.fromkeys(tol, "> 0"))
    failing = []
    for name, val, key, criterion in (
            ("traj_err", traj_err, "eps_d", "trajectory_error"),
            ("physics_resid", physics_resid, "eps_p", "physics_residual"),
            ("e_fi_relative", e_fi_relative, "eps", "fisher_discrepancy")):
        if not val >= 0:
            raise ValueError(f"{name} must be >= 0, got {val}")
        if not val < tol[key]:
            failing.append(criterion)
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
        """|mean - true| / |true| per coefficient; a true value of 0 has none."""
        zero = [name for name, t in zip(self.names, self.true_values) if t == 0.0]
        if zero:
            raise ValueError(f"no relative deviation for the coefficients {zero}, "
                             "whose true value is 0")
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

    ``records`` has one row per estimate, one column per coefficient, and
    ``true_values`` one finite value per coefficient.
    """
    records = np.asarray(records, dtype=float)
    truth = np.asarray(true_values, dtype=float)
    if records.ndim != 2 or records.shape[0] < 2:
        raise ValueError("need at least two estimate records per coefficient")
    if records.shape[1] != len(names):
        raise ValueError("record width does not match the coefficient names")
    if truth.shape != (len(names),) or not np.all(np.isfinite(truth)):
        raise ValueError(f"true values {truth.tolist()} are not {len(names)} finite "
                         "values, one per coefficient name")
    return ParameterBiasTable(list(names), records.mean(axis=0),
                              records.std(axis=0), truth)
