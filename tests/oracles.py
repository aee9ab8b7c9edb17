"""Independent reference implementations used only to cross-check the library.

These deliberately avoid the code paths they verify: the eigenvalue oracle is
a cyclic Jacobi sweep (no power iteration or LAPACK), the summation oracles
are plain Python loops, the Fisher expectation and logarithmic derivative are
written for one point, g has a geometric curvature form, derivatives have a
central-difference Jacobian, the dynamic bicycle's rhs and Jacobian are
written point by point in scalar ``math`` arithmetic, and the estimator's
history windows are cut one at a time.
"""

import math

import numpy as np

from fisherdyn.dynamics import GRAVITY, VX_MIN, DomainError
from fisherdyn.fisher import FLOW_FLOOR
from fisherdyn.numerics import EvaluationError

SCALE_KINDS = ("roll", "tire_temperature")


def jacobi_eigenvalues(sym, sweeps: int = 50, tol: float = 1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def sigma_max_oracle(mat) -> float:
    """Largest singular value via the Jacobi eigen-oracle on A^T A."""
    mat = np.asarray(mat, dtype=float)
    eigs = jacobi_eigenvalues(mat.T @ mat)
    return float(np.sqrt(max(eigs[-1], 0.0)))


def loop_mean_sq_norm(pred, target):
    """Plain-loop mean over rows of the squared error norm."""
    total = 0.0
    for p, t in zip(pred, target):
        total += sum((float(a) - float(b)) ** 2 for a, b in zip(p, t))
    return total / len(pred)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def expectation(x, du) -> float:
    """<X> = du^T X du (equals Tr(X rho) with rho = du du^T) at one point."""
    x = np.asarray(x, dtype=float)
    du = np.asarray(du, dtype=float)
    if x.shape != (du.size, du.size):
        raise ValueError(f"matrix shape {x.shape} does not match direction dim {du.size}")
    return float(du @ x @ du)


def log_derivative(a, du):
    """Return (Abar, L) with Abar = A - <A> I and L = 2 Abar at one point.

    L is the operator satisfying rho-dot = (L rho + rho L)/2 for the pure
    perturbation state rho = du du^T; by construction <Abar> = 0.
    """
    a = np.asarray(a, dtype=float)
    mean = expectation(a, du)
    a_bar = a - mean * np.eye(a.shape[0])
    return a_bar, 2.0 * a_bar


class EquilibriumError(ValueError):
    """Flow-aligned direction requested at (numerically) zero flow."""


def flow_direction(xdot, flow_floor: float = FLOW_FLOOR) -> np.ndarray:
    """Unit direction (d,) along the flow; equilibria are rejected."""
    xdot = np.asarray(xdot, dtype=float)
    norm = np.linalg.norm(xdot)
    if norm <= flow_floor:
        raise EquilibriumError(f"|xdot| = {norm:.3e} <= flow floor {flow_floor:.1e}")
    return xdot / norm


def curvature_fisher(a, xdot, flow_floor: float = FLOW_FLOOR) -> float:
    """g via the curvature form 4 kappa^2 |xdot|^2 with xddot = A xdot.

    Algebraically identical to ``classical_fisher(a, flow_direction(xdot))``;
    the geometric cross-check of the library's one formula for g.
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


# ---------------------------------------------------------------------------
# central differences

# Finite-difference step; per-coordinate it is scaled by max(1, |x_j|) to balance
# truncation against round-off in double precision.
DEFAULT_FD_STEP = 1e-5


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


# ---------------------------------------------------------------------------
# the dynamic bicycle's per-point laws in scalar ``math`` arithmetic


def _pacejka_parts(alpha, c):
    """sin(C arctan(psi)) and its alpha-derivative, with
    psi = B a - E (B a - arctan(B a G))."""
    ba = c.B * alpha
    psi = ba - c.E * (ba - math.atan(ba * c.G))
    arg = c.C * math.atan(psi)
    dpsi = c.B * (1.0 - c.E * (1.0 - c.G / (1.0 + (ba * c.G) ** 2)))
    return math.sin(arg), math.cos(arg) * c.C * dpsi / (1.0 + psi * psi)


def pacejka_lateral_force(alpha, c):
    """Lateral tire force K + D sin(C arctan(psi)) at slip angle ``alpha``."""
    return c.K + c.D * _pacejka_parts(alpha, c)[0]


def pacejka_derivative(alpha, c):
    """dF/dalpha of the tire force law."""
    return c.D * _pacejka_parts(alpha, c)[1]


def slip_angles(s, u, p, vx_min=VX_MIN):
    """alpha_f = delta - arctan((vy + lf w) / vx), alpha_r = -arctan((vy - lr w) / vx)."""
    vx, vy, omega = s[3], s[4], s[5]
    if vx <= vx_min:
        raise DomainError(f"vx={vx:.3f} <= vx_min={vx_min}; slip angles undefined")
    return (u[1] - math.atan((vy + p.lf * omega) / vx),
            -math.atan((vy - p.lr * omega) / vx))


def longitudinal_force(throttle, vx, d):
    """Propulsion minus rolling resistance and drag."""
    return (d.Cm1 * throttle - d.Cm2 * vx) - d.Cr0 - d.Cd * vx * vx


def disturbance_lateral_force(dist, s, t, p):
    """One disturbance channel at one point: the lateral force [N] of a force
    kind, the multiplicative tire-D factor (clamped at 0) of a scale kind."""
    q = dist.params
    if dist.kind == "wind":
        v_rel = q["vw"] - s[4]
        return 0.5 * q["rho"] * q["area"] * q["Cw"] * v_rel * abs(v_rel)
    if dist.kind == "bank":
        return p.m * GRAVITY * math.sin(q["beta"])
    if dist.kind == "bump":
        w = 2.0 * math.pi * q["z_frequency"]
        z = q["z_amplitude"] * math.sin(w * t)
        zdot = q["z_amplitude"] * w * math.cos(w * t)
        return q["ks"] * z + q["cs"] * zdot
    if dist.kind == "roll":
        phi = p.m * s[3] * s[5] / q["k_phi"]
        return max(0.0, 1.0 - q["stiffness_sensitivity"] * abs(phi))
    T_tire = q["T_initial"] + q["T_rate"] * t
    return max(0.0, 1.0 - math.exp(-q["kT"] * (T_tire - q["T0"])))


def scalar_dynamic_rhs(s, u, p, tires, drivetrain, disturbances=(), t=0.0):
    """Derivatives of (x, y, theta, vx, vy, omega) at one point, in scalar
    arithmetic from the per-point laws above; a reference for the stacked
    ``dynamic_rhs``."""
    theta, vx, vy, omega = s[2], s[3], s[4], s[5]
    throttle, delta = u
    alpha_f, alpha_r = slip_angles(s, u, p)
    scale = math.prod(disturbance_lateral_force(d, s, t, p)
                      for d in disturbances if d.kind in SCALE_KINDS)
    f, r = tires.front, tires.rear
    F_fy = f.K + scale * f.D * _pacejka_parts(alpha_f, f)[0]
    F_ry = r.K + scale * r.D * _pacejka_parts(alpha_r, r)[0]
    F_rx = longitudinal_force(throttle, vx, drivetrain)
    F_lat = sum(disturbance_lateral_force(d, s, t, p)
                for d in disturbances if d.kind not in SCALE_KINDS)
    sd, cd = math.sin(delta), math.cos(delta)
    return np.array([
        vx * math.cos(theta) - vy * math.sin(theta),
        vx * math.sin(theta) + vy * math.cos(theta),
        omega,
        (F_rx - F_fy * sd) / p.m + vy * omega,
        (F_ry + F_fy * cd + F_lat) / p.m - vx * omega,
        (F_fy * p.lf * cd - F_ry * p.lr) / p.Iz,
    ])


def scalar_dynamic_jacobian(s, u, p, tires, drivetrain, disturbances=(), t=0.0):
    """6x6 state Jacobian of the dynamic bicycle at one point, in scalar
    arithmetic from the per-point laws above; a reference for the stacked
    ``dynamic_jacobian``.

    The tire-scale gradient is the product rule written as a sum over the
    factors of the product of the other factors.
    """
    theta, vx, vy, omega = s[2], s[3], s[4], s[5]
    delta = u[1]
    alpha_f, alpha_r = slip_angles(s, u, p)
    factors = []
    for dist in disturbances:
        if dist.kind in SCALE_KINDS:
            q = dist.params
            grad = (0.0, 0.0)
            if dist.kind == "roll":
                phi = p.m * vx * omega / q["k_phi"]
                if 1.0 - q["stiffness_sensitivity"] * abs(phi) > 0.0:
                    c = -q["stiffness_sensitivity"] * np.sign(phi) * p.m / q["k_phi"]
                    grad = (c * omega, c * vx)
            factors.append((disturbance_lateral_force(dist, s, t, p), grad))
    scale = math.prod(f for f, _ in factors)
    dscale_vx = dscale_om = 0.0
    for i, (_, (g_vx, g_om)) in enumerate(factors):
        others = math.prod(f for j, (f, _) in enumerate(factors) if j != i)
        dscale_vx += others * g_vx
        dscale_om += others * g_om

    f, r = tires.front, tires.rear
    d_sin_f = pacejka_lateral_force(alpha_f, f) - f.K  # D sin(...)
    d_sin_r = pacejka_lateral_force(alpha_r, r) - r.K
    slope_f = scale * pacejka_derivative(alpha_f, f)
    slope_r = scale * pacejka_derivative(alpha_r, r)
    den_f = vx * (1.0 + ((vy + p.lf * omega) / vx) ** 2)
    den_r = vx * (1.0 + ((vy - p.lr * omega) / vx) ** 2)
    daf = ((vy + p.lf * omega) / vx / den_f, -1.0 / den_f, -p.lf / den_f)
    dar = ((vy - p.lr * omega) / vx / den_r, -1.0 / den_r, p.lr / den_r)
    dscale = (dscale_vx, 0.0, dscale_om)
    dF_fy = [slope_f * daf[k] + d_sin_f * dscale[k] for k in range(3)]
    dF_ry = [slope_r * dar[k] + d_sin_r * dscale[k] for k in range(3)]
    sd, cd = math.sin(delta), math.cos(delta)
    st, ct = math.sin(theta), math.cos(theta)

    jac = np.zeros((6, 6))
    jac[0, 2:5] = (-vx * st - vy * ct, ct, -st)
    jac[1, 2:5] = (vx * ct - vy * st, st, ct)
    jac[2, 5] = 1.0
    jac[3, 3] = (-drivetrain.Cm2 - 2.0 * drivetrain.Cd * vx - sd * dF_fy[0]) / p.m
    jac[3, 4] = -sd * dF_fy[1] / p.m + omega
    jac[3, 5] = -sd * dF_fy[2] / p.m + vy
    wind = sum(d.params["rho"] * d.params["area"] * d.params["Cw"]
               * abs(d.params["vw"] - vy) for d in disturbances if d.kind == "wind")
    jac[4, 3] = (dF_ry[0] + cd * dF_fy[0]) / p.m - omega
    jac[4, 4] = (dF_ry[1] + cd * dF_fy[1] - wind) / p.m
    jac[4, 5] = (dF_ry[2] + cd * dF_fy[2]) / p.m - vx
    for k in range(3):
        jac[5, 3 + k] = (p.lf * cd * dF_fy[k] - p.lr * dF_ry[k]) / p.Iz
    return jac


def loop_windows(trajectories, tau: int):
    """(features, base states, targets, sources) of ``estimator.build_windows``,
    one window per loop turn."""
    feats, bases, targets, sources = [], [], [], []
    for ti, traj in enumerate(trajectories):
        vel = traj.states[:, 3:6]
        u = traj.inputs
        du = np.diff(u, axis=0)  # du[k] applied at step k
        step_feats = np.column_stack([vel[:-1], u[:-1], du])
        for t in range(tau - 1, len(traj) - 1):
            feats.append(step_feats[t - tau + 1:t + 1])
            bases.append(np.concatenate([vel[t], u[t]]))
            targets.append(vel[t + 1])
            sources.append((ti, t))
    return np.stack(feats), np.stack(bases), np.stack(targets), sources
