"""Analytical reference vehicle models.

Two single-track (bicycle) systems with closed-form Jacobians:

* kinematic: state (x, y, theta), input (v, delta), rear-axle reference,
  theta-dot = v tan(delta) / L;
* dynamic: state (x, y, theta, vx, vy, omega), input (throttle, delta),
  lateral tire forces from the magic-formula law
  F = K + D sin(C arctan(B a - E (B a - arctan(B a G)))) and a net
  longitudinal force F_rx = (Cm1 T - Cm2 vx) - Cr0 - Cd vx^2.

Five unmodeled-disturbance channels (crosswind, road bank, bumps, roll-induced
stiffness loss, tire temperature) can be attached to the dynamic model; force
kinds add to the lateral acceleration, the other two rescale the tire peak
factor D.

States and inputs are plain float64 arrays in the component orders above.
A car's laws are its model's ``rhs`` and ``jacobian`` methods, pure functions
of the point: a model is fixed once it is built.

Stacked points. The ``rhs`` and ``jacobian`` methods take either one point,
states (d,) and inputs (m,), or a stack of n points, states (n, d) and
inputs (n, m), with t a scalar or (n,). They return (d,)/(d, d) or
(n, d)/(n, d, d). Out-of-envelope points raise :class:`DomainError`, whose
``rows`` and ``reasons`` name every offending point of the stack.

The dynamic model's laws are written once over stacks; a single point is a
stack of one. The private ``_VelocityTerms`` holds the only rate law, its
only velocity Jacobian and the rates' partials in the twelve coefficients,
over intermediates (slip angles, tire terms and slopes, sin/cos delta) that
it evaluates once per call. ``DynamicModel.rhs`` reads its rates,
``DynamicModel.jacobian`` its velocity Jacobian, and, at the per-point
coefficients of the coefficient estimator, ``velocity_rates`` its
disturbance-free rates and ``velocity_rate_partials`` all three at once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = [
    "DomainError",
    "on_accepted_rows",
    "ConfigError",
    "GRAVITY",
    "VX_MIN",
    "DELTA_MAX",
    "VehicleParams",
    "PacejkaCoefficients",
    "TirePair",
    "DrivetrainCoefficients",
    "DisturbanceConfig",
    "COEFFICIENT_NAMES",
    "coefficient_vector",
    "velocity_rates",
    "velocity_rate_partials",
    "KinematicModel",
    "DynamicModel",
    "wrap_angle",
]

GRAVITY = 9.81
# Slip angles divide by vx; below this speed the model is outside its envelope.
VX_MIN = 0.5
# Steering bound used across sampling and controllers (30 deg).
DELTA_MAX = 0.5236


class DomainError(ValueError):
    """Evaluation requested outside a model's valid envelope.

    A stacked evaluation lists the indices of the offending points in
    ``rows`` and one message per point in ``reasons``.
    """

    def __init__(self, message: str, rows=(), reasons=()):
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=int)
        self.reasons = list(reasons)


def on_accepted_rows(f, rows):
    """(f(rows), rows, {row: reason}) on the index array ``rows``, minus the
    rows a :class:`DomainError` names (``f`` is called again without them);
    an error naming no row is re-raised, and f(rows) is None once none is left."""
    reasons = {}
    while rows.size:
        try:
            return f(rows), rows, reasons
        except DomainError as err:
            if not err.rows.size:
                raise
            reasons.update(zip(rows[err.rows].tolist(), err.reasons))
            rows = np.delete(rows, err.rows)
    return None, rows, reasons


class ConfigError(ValueError):
    """Malformed model or disturbance configuration."""


def _check_fields(owner: str, values: dict, rules: dict) -> None:
    """Raise :class:`ConfigError` naming the first of ``values`` (scalars or
    arrays) with an entry that is not finite or breaks its rule in ``rules``."""
    for name, val in values.items():
        rule = rules.get(name)
        if not np.all(np.isfinite(np.asarray(val, dtype=float))):
            raise ConfigError(f"{owner}{name} must be finite, got {val}")
        if rule == "> 0" and np.any(val <= 0) or rule == ">= 0" and np.any(val < 0):
            raise ConfigError(f"{owner}{name} must be {rule}")


def _check_envelope(bad, values, reason: str) -> None:
    """Raise :class:`DomainError` for the points where ``bad`` holds;
    ``reason`` is formatted with each point's entry of ``values``."""
    if bad.any():
        rows = np.flatnonzero(bad)
        reasons = [reason.format(v) for v in np.ravel(values)[rows]]
        more = f" (and {rows.size - 1} more points)" if rows.size > 1 else ""
        raise DomainError(reasons[0] + more, rows, reasons)


def _check_point_shapes(model: str, s, u, d: int, m: int) -> None:
    """Raise ``ValueError`` unless the states are (..., d) and the inputs
    (..., m) over the same leading axes."""
    if s.shape[-1:] != (d,) or u.shape[-1:] != (m,):
        raise ValueError(f"the {model} model takes states of shape (..., {d}) and inputs "
                         f"of shape (..., {m}), got {s.shape} and {u.shape}")
    if s.shape[:-1] != u.shape[:-1]:
        raise ValueError(f"the {model} model takes states and inputs over the same "
                         f"leading axes, got {s.shape} and {u.shape}")


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(theta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class VehicleParams:
    """Mass, yaw inertia and axle distances lf, lr of the desk-scale (1:43)
    racecar, consistent with the default tire peak forces of ~0.17-0.19 N; L
    is the full-size wheelbase of the kinematic case study (no dynamic law reads it)."""

    m: float = 0.041
    Iz: float = 27.8e-6
    lf: float = 0.029
    lr: float = 0.033
    L: float = 2.5

    def __post_init__(self):
        _check_fields("VehicleParams.", vars(self), dict.fromkeys(vars(self), "> 0"))


@dataclass(frozen=True)
class PacejkaCoefficients:
    """One axle's magic-formula coefficients (D carries the force unit)."""

    B: float
    C: float
    D: float
    E: float
    G: float = 1.0
    K: float = 0.0

    def __post_init__(self):
        _check_fields("PacejkaCoefficients.", vars(self), {"B": "> 0", "C": "> 0", "D": ">= 0"})


@dataclass(frozen=True)
class TirePair:
    front: PacejkaCoefficients
    rear: PacejkaCoefficients

    @classmethod
    def default(cls) -> "TirePair":
        return cls(
            front=PacejkaCoefficients(B=5.579, C=1.2, D=0.192, E=-0.083),
            rear=PacejkaCoefficients(B=5.3852, C=1.2691, D=0.1737, E=-0.019),
        )


@dataclass(frozen=True)
class DrivetrainCoefficients:
    Cm1: float = 0.287
    Cm2: float = 0.0545
    Cr0: float = 0.0518
    Cd: float = 0.00035

    def __post_init__(self):
        _check_fields("DrivetrainCoefficients.", vars(self), dict.fromkeys(vars(self), ">= 0"))


# Layout of the coefficient vectors the stacked dynamic code reads (one per
# model, or one row per point); the tires' G and K are not part of it.
COEFFICIENT_NAMES = ("Bf", "Cf", "Df", "Ef", "Br", "Cr", "Dr", "Er",
                     "Cm1", "Cm2", "Cr0", "Cd")


def coefficient_vector(tires: TirePair, drivetrain: DrivetrainCoefficients) -> np.ndarray:
    """The twelve coefficients in :data:`COEFFICIENT_NAMES` order."""
    f, r = tires.front, tires.rear
    return np.array([f.B, f.C, f.D, f.E, r.B, r.C, r.D, r.E,
                     drivetrain.Cm1, drivetrain.Cm2, drivetrain.Cr0, drivetrain.Cd])


_DISTURBANCE_KEYS = {
    "wind": ("rho", "area", "Cw", "vw"),
    "bank": ("beta",),
    "bump": ("ks", "cs", "z_amplitude", "z_frequency"),
    "roll": ("k_phi", "c_phi", "stiffness_sensitivity"),
    "tire_temperature": ("mu0", "kT", "T0", "T_initial", "T_rate"),
}

SCALE_KINDS = ("roll", "tire_temperature")


@dataclass(frozen=True)
class DisturbanceConfig:
    """One active disturbance channel. Multiple configs compose additively on
    forces; scale kinds compose multiplicatively on the tire D factor.

    The tire-temperature profile is linear in time,
    T_tire(t) = T_initial + T_rate * t, and the bump road profile is
    z(t) = z_amplitude * sin(2 pi z_frequency t).

    ``params`` is stored as a read-only copy, so the checks below hold for
    the config's lifetime whatever happens to the caller's dict.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.kind not in _DISTURBANCE_KEYS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        keys = _DISTURBANCE_KEYS[self.kind]
        missing = [k for k in keys if k not in self.params]
        if missing:
            raise ConfigError(f"disturbance {self.kind!r} missing parameters {missing}")
        unknown = [k for k in self.params if k not in keys]
        if unknown:
            raise ConfigError(f"disturbance {self.kind!r} has unknown parameters {unknown}")
        # beta and the temperatures are signed; k_phi divides the roll angle
        signed = ("beta", "T_initial", "T_rate", "T0")
        _check_fields(f"disturbance {self.kind!r} parameter ", self.params,
                      {k: "> 0" if k == "k_phi" else ">= 0" for k in keys if k not in signed})

    @classmethod
    def wind(cls, rho: float, area: float, Cw: float, vw: float) -> "DisturbanceConfig":
        return cls("wind", {"rho": rho, "area": area, "Cw": Cw, "vw": vw})

    @classmethod
    def bank(cls, beta: float) -> "DisturbanceConfig":
        return cls("bank", {"beta": beta})

    @classmethod
    def bump(cls, ks: float, cs: float, z_amplitude: float, z_frequency: float) -> "DisturbanceConfig":
        return cls("bump", {"ks": ks, "cs": cs, "z_amplitude": z_amplitude,
                            "z_frequency": z_frequency})

    @classmethod
    def roll(cls, k_phi: float, c_phi: float, stiffness_sensitivity: float) -> "DisturbanceConfig":
        return cls("roll", {"k_phi": k_phi, "c_phi": c_phi,
                            "stiffness_sensitivity": stiffness_sensitivity})

    @classmethod
    def tire_temperature(cls, mu0: float, kT: float, T0: float,
                         T_initial: float, T_rate: float = 0.0) -> "DisturbanceConfig":
        return cls("tire_temperature", {"mu0": mu0, "kT": kT, "T0": T0,
                                        "T_initial": T_initial, "T_rate": T_rate})


# ---------------------------------------------------------------------------
# kinematic bicycle


def _kinematic_point(s, u):
    """(theta, v, delta) of one or stacked kinematic points, shape- and
    envelope-checked."""
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    _check_point_shapes("kinematic", s, u, 3, 2)
    steer = np.abs(u[..., 1])
    _check_envelope(steer >= math.pi / 2, steer, "|delta|={:.3f} >= pi/2")
    return s[..., 2], u[..., 0], u[..., 1]


class KinematicModel:
    """Kinematic bicycle as an (rhs, jacobian) system."""

    state_dim = 3
    input_dim = 2
    state_names = ("x", "y", "theta")
    input_names = ("v", "delta")

    def __init__(self, params: VehicleParams | None = None):
        self.params = params or VehicleParams()

    def rhs(self, s, u, t: float = 0.0) -> np.ndarray:
        """(x-dot, y-dot, theta-dot) = (v cos th, v sin th, v tan d / L)."""
        theta, v, delta = _kinematic_point(s, u)
        out = np.empty(theta.shape + (3,))
        out[..., 0] = v * np.cos(theta)
        out[..., 1] = v * np.sin(theta)
        out[..., 2] = v * np.tan(delta) / self.params.L
        return out

    def jacobian(self, s, u, t: float = 0.0) -> np.ndarray:
        """d(rhs)/d(x, y, theta); only the theta column is nonzero."""
        theta, v, _ = _kinematic_point(s, u)
        jac = np.zeros(theta.shape + (3, 3))
        jac[..., 0, 2] = -v * np.sin(theta)
        jac[..., 1, 2] = v * np.cos(theta)
        return jac


# ---------------------------------------------------------------------------
# dynamic bicycle: stacked laws


def _dynamic_point(s, u):
    """Shape- and envelope-checked (s, u, vx, vy, sin theta, cos theta) of
    dynamic points."""
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    _check_point_shapes("dynamic", s, u, 6, 2)
    _check_envelope(s[..., 3] <= VX_MIN, s[..., 3],
                    f"vx={{:.3f}} <= vx_min={VX_MIN}; slip angles undefined")
    return s, u, s[..., 3], s[..., 4], np.sin(s[..., 2]), np.cos(s[..., 2])


def _slip_terms(vx, vy, omega, delta, p: VehicleParams):
    """Arctan arguments (qf, qr) and slip angles (alpha_f, alpha_r)."""
    qf = (vy + p.lf * omega) / vx
    qr = (vy - p.lr * omega) / vx
    return qf, qr, delta - np.arctan(qf), -np.arctan(qr)


def _tire_terms(alpha, B, E, G):
    """(B a, arctan(B a G), psi, arctan(psi)) of the magic formula
    F = K + D sin(C arctan(psi)), psi = B a - E (B a - arctan(B a G))."""
    ba = B * alpha
    atan_bag = np.arctan(ba * G)
    psi = ba - E * (ba - atan_bag)
    return ba, atan_bag, psi, np.arctan(psi)


def _tire_slope(axle):
    """The :class:`_Axle` ``axle`` and cos(arg), cos(arg) C, X and 1 + psi^2
    for its arg = C arctan(psi), where X = d psi/d(B a). psi reads alpha and
    B only through their product, so the alpha-slope of sin(arg) is
    cos(arg) C (B X) / (1 + psi^2) and its B-slope the same with alpha for B."""
    ba, _, psi, _ = axle.terms
    cos_arg = np.cos(axle.arg)
    E, G = axle.E, axle.tire.G
    return axle, (cos_arg, cos_arg * axle.C, 1.0 - E * (1.0 - G / (1.0 + (ba * G) ** 2)),
                  1.0 + psi * psi)


def _scale_factor(dist: DisturbanceConfig, vx, omega, t, p: VehicleParams):
    """Stacked factor of one scale-kind disturbance on the tire D (clamped at 0)."""
    q = dist.params
    if dist.kind == "roll":
        # Quasi-static roll angle from centripetal acceleration through the
        # spring law k_phi * phi = m * a_y (unit moment arm), a_y = vx * omega.
        phi = p.m * vx * omega / q["k_phi"]
        return np.maximum(0.0, 1.0 - q["stiffness_sensitivity"] * np.abs(phi))
    T_tire = q["T_initial"] + q["T_rate"] * t
    return np.maximum(0.0, 1.0 - np.exp(-q["kT"] * (T_tire - q["T0"])))


def _lateral_forcing(disturbances, vy, t, p: VehicleParams):
    """Sum of the force-kind disturbances over stacked points [N]."""
    force = 0.0
    for dist in disturbances:
        q = dist.params
        if dist.kind == "wind":
            # v_w is the *effective* crosswind: the car's own lateral velocity
            # reduces the relative airflow. At vy = 0 this is 1/2 rho A Cw vw^2.
            v_rel = q["vw"] - vy
            force = force + 0.5 * q["rho"] * q["area"] * q["Cw"] * v_rel * np.abs(v_rel)
        elif dist.kind == "bank":
            force = force + p.m * GRAVITY * math.sin(q["beta"])
        elif dist.kind == "bump":
            w = 2.0 * math.pi * q["z_frequency"]
            z = q["z_amplitude"] * np.sin(w * t)
            zdot = q["z_amplitude"] * w * np.cos(w * t)
            force = force + (q["ks"] * z + q["cs"] * zdot)
    return force


# One axle of a _VelocityTerms: slip angle alpha = (delta or 0) - arctan(q),
# q = (vy +- l omega) / vx, arm = -lf or lr in d(alpha)/d(omega) =
# arm / (vx (1 + q^2)), its coefficients, its tire (for G and K), the
# _tire_terms, arg = C arctan(psi) and sin(arg).
_Axle = namedtuple("_Axle", "alpha q arm B C D E tire terms arg sin_arg")


class _VelocityTerms:
    """The velocity laws at stacked velocities (..., 3) and inputs (..., 2),
    ``coef`` (12,) or (..., 12) in :data:`COEFFICIENT_NAMES` order.

    The rates, their velocity Jacobian and their coefficient partials read
    the slip angles and sin/cos delta, evaluated here, and each axle's tire
    terms, which :meth:`axles` evaluates. The rates take the axles, the
    partials their :func:`_tire_slope` pairs, as an iterable: a lazy one when
    one law reads them, so that only one axle's arrays are alive at a time
    (which measurably speeds up a Jacobian over a thousand points), or a
    list evaluated once when several laws share them."""

    def __init__(self, vel, u, p: VehicleParams, coef, tires: TirePair):
        self.p, self.coef, self.tires = p, coef, tires
        self.vx, self.vy, self.omega = vx, vy, omega = vel[..., 0], vel[..., 1], vel[..., 2]
        self.throttle, delta = u[..., 0], u[..., 1]
        self.slip = _slip_terms(vx, vy, omega, delta, p)
        self.sd, self.cd = np.sin(delta), np.cos(delta)

    def axles(self):
        """Each axle's :class:`_Axle`, evaluated as the iterator is read."""
        qf, qr, alpha_f, alpha_r = self.slip
        coef, p = self.coef, self.p
        for alpha, q, arm, k, tire in ((alpha_f, qf, -p.lf, 0, self.tires.front),
                                       (alpha_r, qr, p.lr, 4, self.tires.rear)):
            B, C, D, E = coef[..., k], coef[..., k + 1], coef[..., k + 2], coef[..., k + 3]
            terms = _tire_terms(alpha, B, E, tire.G)
            arg = C * terms[3]
            yield _Axle(alpha, q, arm, B, C, D, E, tire, terms, arg, np.sin(arg))

    def rates(self, axles, disturbances=(), t=0.0, out=None):
        """(vx-dot, vy-dot, omega-dot) (..., 3), written into ``out`` if given."""
        p, c, vx, vy, omega = self.p, self.coef, self.vx, self.vy, self.omega
        scale = 1.0
        for dist in disturbances:
            if dist.kind in SCALE_KINDS:
                scale = scale * _scale_factor(dist, vx, omega, t, p)
        F_fy, F_ry = (a.tire.K + scale * a.D * a.sin_arg for a in axles)
        F_rx = (c[..., 8] * self.throttle - c[..., 9] * vx) - c[..., 10] - c[..., 11] * vx * vx
        F_lat = _lateral_forcing(disturbances, vy, t, p)
        sd, cd = self.sd, self.cd
        out = np.empty(vx.shape + (3,)) if out is None else out
        out[..., 0] = (F_rx - F_fy * sd) / p.m + vy * omega
        out[..., 1] = (F_ry + F_fy * cd + F_lat) / p.m - vx * omega
        out[..., 2] = (F_fy * p.lf * cd - F_ry * p.lr) / p.Iz
        return out

    def jacobian(self, slopes, disturbances=(), t=0.0):
        """d(rates)/d(vx, vy, omega) (..., 3, 3) from the axles'
        :func:`_tire_slope`: the tire forces through the slip angles and the
        tire scale, the wind drag, and the drivetrain and coupling terms."""
        p, c, vx, vy, omega = self.p, self.coef, self.vx, self.vy, self.omega

        # tire scale and its (vx, omega) gradient, composed by the product rule;
        # the temperature factor is time-only, the roll factor flat where clamped
        scale, dscale_vx, dscale_om = 1.0, 0.0, 0.0
        for dist in disturbances:
            if dist.kind in SCALE_KINDS:
                factor = _scale_factor(dist, vx, omega, t, p)
                g_vx = g_om = 0.0
                if dist.kind == "roll":
                    q = dist.params
                    g = np.where(factor > 0.0, -q["stiffness_sensitivity"] * p.m / q["k_phi"]
                                 * np.sign(vx * omega), 0.0)
                    g_vx, g_om = g * omega, g * vx
                dscale_vx = dscale_vx * factor + scale * g_vx
                dscale_om = dscale_om * factor + scale * g_om
                scale = scale * factor

        # each axle's lateral force over (vx, vy, omega), through its slip angle
        dF_fy, dF_ry = [], []
        for dF, (a, (_, cos_c, x, den)) in zip((dF_fy, dF_ry), slopes):
            F, k = a.D * a.sin_arg, scale * a.D * (cos_c * (a.B * x) / den)
            vx_q = vx * (1.0 + a.q * a.q)
            dF += [k * (a.q / vx_q) + F * dscale_vx, k * (-1.0 / vx_q),
                   k * (a.arm / vx_q) + F * dscale_om]

        # the rates' own (vx, vy, omega) terms: drivetrain drag and the coupling
        dF_rx = (-c[..., 9] - 2.0 * c[..., 11] * vx, 0.0, 0.0)
        coupling = ((0.0, omega, vy), (-omega, 0.0, -vx))
        sd, cd = self.sd, self.cd
        jac = np.empty(vx.shape + (3, 3))
        for j in range(3):
            jac[..., 0, j] = (dF_rx[j] - sd * dF_fy[j]) / p.m + coupling[0][j]
            jac[..., 1, j] = (dF_ry[j] + cd * dF_fy[j]) / p.m + coupling[1][j]
            jac[..., 2, j] = (p.lf * cd * dF_fy[j] - p.lr * dF_ry[j]) / p.Iz
        for dist in disturbances:
            if dist.kind == "wind":
                q = dist.params
                jac[..., 1, 1] -= q["rho"] * q["area"] * q["Cw"] * np.abs(q["vw"] - vy) / p.m
        return jac

    def coefficient_partials(self, slopes):
        """d(rates)/d(coef) (..., 3, 12) without disturbances, from the axles'
        :func:`_tire_slope`: the magic formula's closed-form B, C, D and E
        partials and the linear drivetrain terms."""
        p, vx = self.p, self.vx
        dF = []
        for a, (cos_arg, cos_c, x, den) in slopes:
            (ba, atan_bag, _, atan_psi), D = a.terms, a.D
            dF.append(np.stack((D * (cos_c * (a.alpha * x) / den), D * cos_arg * atan_psi,
                                a.sin_arg, -D * cos_arg * a.C / den * (ba - atan_bag))))
        # weights of each axle's lateral force in the (vx, vy, omega) rates
        sd, cd = self.sd, self.cd
        front = np.stack([-sd / p.m, cd / p.m, p.lf * cd / p.Iz])
        rear = np.array([0.0, 1.0 / p.m, -p.lr / p.Iz])
        # filled as (3, 12, n) with n innermost, returned as an (n, 3, 12) view
        d_coef = np.zeros((3, 12) + vx.shape)
        d_coef[:, :4] = front[:, None] * dF[0]
        d_coef[:, 4:8] = np.multiply.outer(rear, dF[1])
        d_coef[0, 8:] = np.stack([self.throttle, -vx, np.full_like(vx, -1.0), -vx * vx]) / p.m
        return np.moveaxis(d_coef, (0, 1), (-2, -1))


def velocity_rates(vel, u, p: VehicleParams, coef, tires: TirePair) -> np.ndarray:
    """Disturbance-free (vx-dot, vy-dot, omega-dot) over stacked velocities
    (..., 3) and inputs (..., 2).

    ``coef`` holds the coefficients in :data:`COEFFICIENT_NAMES` order,
    either (12,) for every point or (..., 12) per point; the tires' G and K
    come from ``tires``. There is no envelope check: callers make sure that
    vx > 0. The disturbed law is :meth:`DynamicModel.rhs`.
    """
    terms = _VelocityTerms(vel, u, p, coef, tires)
    return terms.rates(terms.axles())


def velocity_rate_partials(vel, u, p: VehicleParams, coef, tires: TirePair):
    """Disturbance-free :func:`velocity_rates` with its exact partials.

    Returns (rates (n, 3), d(rates)/d(vel) (n, 3, 3), d(rates)/d(coef)
    (n, 3, 12)) over stacked velocities (n, 3) and inputs (n, 2); ``coef`` is
    (12,) or (n, 12) in :data:`COEFFICIENT_NAMES` order. All three share one
    evaluation of the slip angles, the tire terms and their slopes, and
    sin/cos delta. The velocity block is that of :meth:`DynamicModel.jacobian`,
    the tire partials in B, C, D and E are closed-form, the drivetrain terms
    are linear. Like :func:`velocity_rates`, there is no envelope check.
    """
    terms = _VelocityTerms(vel, u, p, coef, tires)
    slopes = [_tire_slope(a) for a in terms.axles()]
    return (terms.rates(a for a, _ in slopes), terms.jacobian(slopes),
            terms.coefficient_partials(slopes))


class DynamicModel:
    """Dynamic bicycle (optionally disturbed) as an (rhs, jacobian) system;
    fixed once it is built, so the :func:`coefficient_vector` its laws read,
    ``coef``, is built once, here."""

    state_dim = 6
    input_dim = 2
    state_names = ("x", "y", "theta", "vx", "vy", "omega")
    input_names = ("throttle", "delta")

    def __init__(self, params: VehicleParams | None = None,
                 tires: TirePair | None = None,
                 drivetrain: DrivetrainCoefficients | None = None,
                 disturbances=()):
        self.params = params or VehicleParams()
        self.tires = tires or TirePair.default()
        self.drivetrain = drivetrain or DrivetrainCoefficients()
        self.disturbances = tuple(disturbances)
        self.coef = coefficient_vector(self.tires, self.drivetrain)

    def rhs(self, s, u, t: float = 0.0) -> np.ndarray:
        """Continuous-time derivatives of (x, y, theta, vx, vy, omega): (6,)
        for one point, (n, 6) for stacked points."""
        s, u, vx, vy, st, ct = _dynamic_point(s, u)
        out = np.empty(vx.shape + (6,))
        out[..., 0] = vx * ct - vy * st
        out[..., 1] = vx * st + vy * ct
        out[..., 2] = s[..., 5]
        terms = _VelocityTerms(s[..., 3:], u, self.params, self.coef, self.tires)
        terms.rates(terms.axles(), self.disturbances, t, out[..., 3:])
        return out

    def jacobian(self, s, u, t: float = 0.0) -> np.ndarray:
        """Exact state Jacobian of :meth:`rhs` (inputs held): (6, 6) for one
        point, (n, 6, 6) for stacked points."""
        s, u, vx, vy, st, ct = _dynamic_point(s, u)
        jac = np.zeros(vx.shape + (6, 6))
        jac[..., 0, 2] = -vx * st - vy * ct
        jac[..., 0, 3] = ct
        jac[..., 0, 4] = -st
        jac[..., 1, 2] = vx * ct - vy * st
        jac[..., 1, 3] = st
        jac[..., 1, 4] = ct
        jac[..., 2, 5] = 1.0
        terms = _VelocityTerms(s[..., 3:], u, self.params, self.coef, self.tires)
        jac[..., 3:, 3:] = terms.jacobian(map(_tire_slope, terms.axles()), self.disturbances, t)
        return jac

    def without_disturbances(self) -> "DynamicModel":
        return DynamicModel(self.params, self.tires, self.drivetrain, ())
