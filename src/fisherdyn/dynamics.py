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
All functions are pure.

Stacked points. The rhs and Jacobian functions (and the model wrappers) take
either one point, states (d,) and inputs (m,), or a stack of n points, states
(n, d) and inputs (n, m), with t a scalar or (n,). They return (d,)/(d, d) or
(n, d)/(n, d, d). Out-of-envelope points raise :class:`DomainError`, whose
``rows`` and ``reasons`` name every offending point of the stack.

The dynamic model's tire, slip, disturbance and drivetrain laws are written
once over stacks (``velocity_rates`` and ``dynamic_jacobian``); a single point
is a stack of one.

``velocity_rate_partials`` gives the disturbance-free velocity rates together
with their exact partials in the velocities and in the twelve coefficients,
for the gradient of the coefficient estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
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
    "kinematic_rhs",
    "kinematic_jacobian",
    "velocity_rates",
    "velocity_rate_partials",
    "dynamic_rhs",
    "dynamic_jacobian",
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


class ConfigError(ValueError):
    """Malformed model or disturbance configuration."""


def _check_envelope(bad, values, reason: str) -> None:
    """Raise :class:`DomainError` for the points where ``bad`` holds;
    ``reason`` is formatted with each point's entry of ``values``."""
    if bad.any():
        rows = np.flatnonzero(bad)
        reasons = [reason.format(v) for v in np.ravel(values)[rows]]
        more = f" (and {rows.size - 1} more points)" if rows.size > 1 else ""
        raise DomainError(reasons[0] + more, rows, reasons)


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
    """Geometry and inertia. L is the kinematic wheelbase; lf/lr split the
    dynamic model's axle distances. Ts is the discrete sampling step."""

    m: float = 0.041
    Iz: float = 27.8e-6
    lf: float = 0.029
    lr: float = 0.033
    L: float = 2.5
    Ts: float = 0.02

    def __post_init__(self):
        for name in ("m", "Iz", "lf", "lr", "L", "Ts"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"VehicleParams.{name} must be > 0")

    @classmethod
    def kinematic_default(cls) -> "VehicleParams":
        # Full-size wheelbase and 0.1 s step of the kinematic case study.
        return cls(L=2.5, Ts=0.1)

    @classmethod
    def dynamic_default(cls) -> "VehicleParams":
        # Desk-scale (1:43) racecar; consistent with the default tire peak
        # forces of ~0.17-0.19 N.
        return cls(m=0.041, Iz=27.8e-6, lf=0.029, lr=0.033, L=0.062, Ts=0.02)


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
        if self.B <= 0 or self.C <= 0 or self.D < 0:
            raise ConfigError("PacejkaCoefficients require B > 0, C > 0, D >= 0")


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
        for name in ("Cm1", "Cm2", "Cr0", "Cd"):
            if getattr(self, name) < 0:
                raise ConfigError(f"DrivetrainCoefficients.{name} must be >= 0")


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
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _DISTURBANCE_KEYS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        missing = [k for k in _DISTURBANCE_KEYS[self.kind] if k not in self.params]
        if missing:
            raise ConfigError(f"disturbance {self.kind!r} missing parameters {missing}")
        for key, val in self.params.items():
            if key in ("beta", "T_initial", "T_rate", "T0"):
                continue  # signed quantities
            if val < 0:
                raise ConfigError(f"disturbance {self.kind!r} parameter {key} must be >= 0")

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
    """(theta, v, delta) of one or stacked kinematic points, envelope-checked."""
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    steer = np.abs(u[..., 1])
    _check_envelope(steer >= math.pi / 2, steer, "|delta|={:.3f} >= pi/2")
    return s[..., 2], u[..., 0], u[..., 1]


def kinematic_rhs(s, u, p: VehicleParams) -> np.ndarray:
    """(x-dot, y-dot, theta-dot) = (v cos th, v sin th, v tan d / L)."""
    theta, v, delta = _kinematic_point(s, u)
    out = np.empty(theta.shape + (3,))
    out[..., 0] = v * np.cos(theta)
    out[..., 1] = v * np.sin(theta)
    out[..., 2] = v * np.tan(delta) / p.L
    return out


def kinematic_jacobian(s, u, p: VehicleParams) -> np.ndarray:
    """d(rhs)/d(x, y, theta); only the theta column is nonzero."""
    theta, v, _ = _kinematic_point(s, u)
    jac = np.zeros(theta.shape + (3, 3))
    jac[..., 0, 2] = -v * np.sin(theta)
    jac[..., 1, 2] = v * np.cos(theta)
    return jac


# ---------------------------------------------------------------------------
# dynamic bicycle: stacked laws


def _check_speed(vx) -> None:
    _check_envelope(vx <= VX_MIN, vx,
                    f"vx={{:.3f}} <= vx_min={VX_MIN}; slip angles undefined")


def _slip_terms(vx, vy, omega, delta, p: VehicleParams):
    """Arctan arguments (qf, qr) and slip angles (alpha_f, alpha_r)."""
    qf = (vy + p.lf * omega) / vx
    qr = (vy - p.lr * omega) / vx
    return qf, qr, delta - np.arctan(qf), -np.arctan(qr)


def _tire_terms(alpha, B, C, E, G):
    """(B a, psi, C arctan(psi)) of the magic formula; F = K + D sin(C arctan(psi))."""
    ba = B * alpha
    psi = ba - E * (ba - np.arctan(ba * G))
    return ba, psi, C * np.arctan(psi)


def _tire_slope(alpha, c: PacejkaCoefficients):
    """sin(C arctan(psi)) and its alpha-derivative over stacked slip angles."""
    ba, psi, arg = _tire_terms(alpha, c.B, c.C, c.E, c.G)
    dpsi = c.B * (1.0 - c.E * (1.0 - c.G / (1.0 + (ba * c.G) ** 2)))
    return np.sin(arg), np.cos(arg) * c.C * dpsi / (1.0 + psi * psi)


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


def _scale_slope(dist: DisturbanceConfig, vx, omega, p: VehicleParams):
    """(dS/dvx, dS/domega) of one scale factor; the temperature factor is
    time-only, and the roll factor is flat where it is clamped."""
    q = dist.params
    if dist.kind != "roll":
        return 0.0, 0.0
    phi = p.m * vx * omega / q["k_phi"]
    unclamped = 1.0 - q["stiffness_sensitivity"] * np.abs(phi) > 0.0
    coef = np.where(unclamped,
                    -q["stiffness_sensitivity"] * np.sign(phi) * p.m / q["k_phi"], 0.0)
    return coef * omega, coef * vx


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


def velocity_rates(vel, u, p: VehicleParams, coef, tires: TirePair,
                   disturbances=(), t=0.0) -> np.ndarray:
    """(vx-dot, vy-dot, omega-dot) over stacked velocities (..., 3) and
    inputs (..., 2).

    ``coef`` holds the coefficients in :data:`COEFFICIENT_NAMES` order,
    either (12,) for every point or (..., 12) per point; the tires' G and K
    come from ``tires``. There is no envelope check: callers make sure that
    vx > 0.
    """
    vx, vy, omega = vel[..., 0], vel[..., 1], vel[..., 2]
    throttle, delta = u[..., 0], u[..., 1]
    _, _, alpha_f, alpha_r = _slip_terms(vx, vy, omega, delta, p)
    scale = 1.0
    for dist in disturbances:
        if dist.kind in SCALE_KINDS:
            scale = scale * _scale_factor(dist, vx, omega, t, p)
    f, r = tires.front, tires.rear
    arg_f = _tire_terms(alpha_f, coef[..., 0], coef[..., 1], coef[..., 3], f.G)[2]
    arg_r = _tire_terms(alpha_r, coef[..., 4], coef[..., 5], coef[..., 7], r.G)[2]
    F_fy = f.K + scale * coef[..., 2] * np.sin(arg_f)
    F_ry = r.K + scale * coef[..., 6] * np.sin(arg_r)
    F_rx = (coef[..., 8] * throttle - coef[..., 9] * vx) - coef[..., 10] - coef[..., 11] * vx * vx
    F_lat = _lateral_forcing(disturbances, vy, t, p)
    sd, cd = np.sin(delta), np.cos(delta)
    return np.stack([
        (F_rx - F_fy * sd) / p.m + vy * omega,
        (F_ry + F_fy * cd + F_lat) / p.m - vx * omega,
        (F_fy * p.lf * cd - F_ry * p.lr) / p.Iz,
    ], axis=-1)


def _tire_partials(alpha, B, C, D, E, G):
    """Magic-formula force D sin(C arctan(psi)) (K excluded), its
    alpha-derivative and the tuple of its B, C, D and E partials."""
    ba, psi, arg = _tire_terms(alpha, B, C, E, G)
    sin_arg, cos_arg = np.sin(arg), np.cos(arg)
    w = D * cos_arg * C / (1.0 + psi * psi)  # dF/dpsi
    shape = 1.0 - E * (1.0 - G / (1.0 + (ba * G) ** 2))  # dpsi/d(B a)
    return D * sin_arg, w * B * shape, (w * alpha * shape,
                                        D * cos_arg * np.arctan(psi),
                                        sin_arg,
                                        -w * (ba - np.arctan(ba * G)))


def velocity_rate_partials(vel, u, p: VehicleParams, coef, tires: TirePair):
    """Disturbance-free :func:`velocity_rates` with its exact partials.

    Returns (rates (n, 3), d(rates)/d(vel) (n, 3, 3), d(rates)/d(coef)
    (n, 3, 12)) over stacked velocities (n, 3) and inputs (n, 2); ``coef`` is
    (12,) or (n, 12) in :data:`COEFFICIENT_NAMES` order. The tire partials in
    B, C, D and E are closed-form, the drivetrain terms are linear. Like
    :func:`velocity_rates`, there is no envelope check.
    """
    vx, vy, omega = vel[..., 0], vel[..., 1], vel[..., 2]
    throttle, delta = u[..., 0], u[..., 1]
    qf, qr, alpha_f, alpha_r = _slip_terms(vx, vy, omega, delta, p)
    # one contiguous row per coefficient
    c = np.ascontiguousarray(np.moveaxis(np.broadcast_to(coef, vx.shape + (12,)), -1, 0))
    f, r = tires.front, tires.rear
    Ff, dFf_da, dFf_dc = _tire_partials(alpha_f, c[0], c[1], c[2], c[3], f.G)
    Fr, dFr_da, dFr_dc = _tire_partials(alpha_r, c[4], c[5], c[6], c[7], r.G)
    F_fy, F_ry = f.K + Ff, r.K + Fr
    F_rx = (c[8] * throttle - c[9] * vx) - c[10] - c[11] * vx * vx
    sd, cd = np.sin(delta), np.cos(delta)
    rates = np.stack([
        (F_rx - F_fy * sd) / p.m + vy * omega,
        (F_ry + F_fy * cd) / p.m - vx * omega,
        (F_fy * p.lf * cd - F_ry * p.lr) / p.Iz,
    ], axis=-1)

    # weights of each axle's lateral force in the (vx, vy, omega) rates
    front = (-sd / p.m, cd / p.m, p.lf * cd / p.Iz)
    rear = (0.0, 1.0 / p.m, -p.lr / p.Iz)
    # the lateral forces over (vx, vy, omega), through the slip angles
    k_f = dFf_da / (vx * (1.0 + qf * qf))
    k_r = dFr_da / (vx * (1.0 + qr * qr))
    dF_fy = (k_f * qf, -k_f, -p.lf * k_f)
    dF_ry = (k_r * qr, -k_r, p.lr * k_r)

    # filled as (3, 3, n) and (3, 12, n), returned as (n, 3, 3) and (n, 3, 12) views
    d_vel = np.empty((3, 3) + vx.shape)
    d_coef = np.zeros((3, 12) + vx.shape)
    for i in range(3):
        for k in range(3):
            d_vel[i, k] = front[i] * dF_fy[k] + rear[i] * dF_ry[k]
        for k in range(4):
            d_coef[i, k] = front[i] * dFf_dc[k]
            d_coef[i, 4 + k] = rear[i] * dFr_dc[k]
    d_vel[0, 0] += (-c[9] - 2.0 * c[11] * vx) / p.m
    d_vel[0, 1] += omega
    d_vel[0, 2] += vy
    d_vel[1, 0] -= omega
    d_vel[1, 2] -= vx
    d_coef[0, 8:] = np.stack([throttle, -vx, np.full_like(vx, -1.0), -vx * vx]) / p.m
    return (rates, np.moveaxis(d_vel, (0, 1), (-2, -1)),
            np.moveaxis(d_coef, (0, 1), (-2, -1)))


def dynamic_rhs(s, u, p: VehicleParams, tires: TirePair,
                drivetrain: DrivetrainCoefficients,
                disturbances=(), t=0.0) -> np.ndarray:
    """Continuous-time derivatives of (x, y, theta, vx, vy, omega): (6,) for
    one point, (n, 6) for stacked points."""
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    theta, vx, vy = s[..., 2], s[..., 3], s[..., 4]
    _check_speed(vx)
    st, ct = np.sin(theta), np.cos(theta)
    pose = np.stack([vx * ct - vy * st, vx * st + vy * ct, s[..., 5]], axis=-1)
    vel = velocity_rates(s[..., 3:], u, p, coefficient_vector(tires, drivetrain),
                         tires, disturbances, t)
    return np.concatenate([pose, vel], axis=-1)


def dynamic_jacobian(s, u, p: VehicleParams, tires: TirePair,
                     drivetrain: DrivetrainCoefficients,
                     disturbances=(), t=0.0) -> np.ndarray:
    """Exact state Jacobian of :func:`dynamic_rhs` (inputs held): (6, 6) for
    one point, (n, 6, 6) for stacked points."""
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    theta, vx, vy, omega = s[..., 2], s[..., 3], s[..., 4], s[..., 5]
    delta = u[..., 1]
    _check_speed(vx)
    qf, qr, alpha_f, alpha_r = _slip_terms(vx, vy, omega, delta, p)

    # tire scale and its (vx, omega) gradient, composed by the product rule
    scale, dscale_vx, dscale_om = 1.0, 0.0, 0.0
    for dist in disturbances:
        if dist.kind in SCALE_KINDS:
            factor = _scale_factor(dist, vx, omega, t, p)
            g_vx, g_om = _scale_slope(dist, vx, omega, p)
            dscale_vx = dscale_vx * factor + scale * g_vx
            dscale_om = dscale_om * factor + scale * g_om
            scale = scale * factor

    # tire force partials over (vx, vy, omega) through the slip angles
    f, r = tires.front, tires.rear
    sin_f, dsin_f = _tire_slope(alpha_f, f)
    sin_r, dsin_r = _tire_slope(alpha_r, r)
    vx_f = vx * (1.0 + qf * qf)
    vx_r = vx * (1.0 + qr * qr)
    k_f, k_r = scale * f.D * dsin_f, scale * r.D * dsin_r
    dF_fy = (k_f * (qf / vx_f) + f.D * sin_f * dscale_vx,
             k_f * (-1.0 / vx_f),
             k_f * (-p.lf / vx_f) + f.D * sin_f * dscale_om)
    dF_ry = (k_r * (qr / vx_r) + r.D * sin_r * dscale_vx,
             k_r * (-1.0 / vx_r),
             k_r * (p.lr / vx_r) + r.D * sin_r * dscale_om)
    dF_rx_dvx = -drivetrain.Cm2 - 2.0 * drivetrain.Cd * vx

    sd, cd = np.sin(delta), np.cos(delta)
    st, ct = np.sin(theta), np.cos(theta)
    jac = np.zeros(vx.shape + (6, 6))
    jac[..., 0, 2] = -vx * st - vy * ct
    jac[..., 0, 3] = ct
    jac[..., 0, 4] = -st
    jac[..., 1, 2] = vx * ct - vy * st
    jac[..., 1, 3] = st
    jac[..., 1, 4] = ct
    jac[..., 2, 5] = 1.0

    jac[..., 3, 3] = (dF_rx_dvx - sd * dF_fy[0]) / p.m
    jac[..., 3, 4] = -sd * dF_fy[1] / p.m + omega
    jac[..., 3, 5] = -sd * dF_fy[2] / p.m + vy

    jac[..., 4, 3] = (dF_ry[0] + cd * dF_fy[0]) / p.m - omega
    jac[..., 4, 4] = (dF_ry[1] + cd * dF_fy[1]) / p.m
    jac[..., 4, 5] = (dF_ry[2] + cd * dF_fy[2]) / p.m - vx
    for dist in disturbances:
        if dist.kind == "wind":
            q = dist.params
            jac[..., 4, 4] -= q["rho"] * q["area"] * q["Cw"] * np.abs(q["vw"] - vy) / p.m

    for k in range(3):
        jac[..., 5, 3 + k] = (p.lf * cd * dF_fy[k] - p.lr * dF_ry[k]) / p.Iz
    return jac


# ---------------------------------------------------------------------------
# system wrappers (the rhs+jacobian pair consumed by Fisher-field evaluation)


class KinematicModel:
    """Kinematic bicycle as an (rhs, jacobian) system."""

    state_dim = 3
    input_dim = 2
    state_names = ("x", "y", "theta")
    input_names = ("v", "delta")

    def __init__(self, params: VehicleParams | None = None):
        self.params = params or VehicleParams.kinematic_default()

    def rhs(self, s, u, t: float = 0.0) -> np.ndarray:
        return kinematic_rhs(s, u, self.params)

    def jacobian(self, s, u, t: float = 0.0) -> np.ndarray:
        return kinematic_jacobian(s, u, self.params)


class DynamicModel:
    """Dynamic bicycle (optionally disturbed) as an (rhs, jacobian) system."""

    state_dim = 6
    input_dim = 2
    state_names = ("x", "y", "theta", "vx", "vy", "omega")
    input_names = ("throttle", "delta")

    def __init__(self, params: VehicleParams | None = None,
                 tires: TirePair | None = None,
                 drivetrain: DrivetrainCoefficients | None = None,
                 disturbances=()):
        self.params = params or VehicleParams.dynamic_default()
        self.tires = tires or TirePair.default()
        self.drivetrain = drivetrain or DrivetrainCoefficients()
        self.disturbances = tuple(disturbances)

    def rhs(self, s, u, t: float = 0.0) -> np.ndarray:
        return dynamic_rhs(s, u, self.params, self.tires, self.drivetrain,
                           self.disturbances, t)

    def jacobian(self, s, u, t: float = 0.0) -> np.ndarray:
        return dynamic_jacobian(s, u, self.params, self.tires, self.drivetrain,
                                self.disturbances, t)

    def without_disturbances(self) -> "DynamicModel":
        return DynamicModel(self.params, self.tires, self.drivetrain, ())
