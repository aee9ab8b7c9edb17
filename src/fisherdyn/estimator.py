"""Recurrent coefficient estimator for the dynamic bicycle model.

A history of tau (state, input, input-increment) steps feeds a GRU; a small
mish head maps the final hidden state to unconstrained outputs; the Physics
Guard squashes them into per-coefficient bounds; the guarded coefficients
drive one RK4 step of the nominal velocity dynamics, and the loss is the mean
squared (vx, vy, omega) prediction error.

The physics step is ``numerics.rk4``: over ``dynamics.velocity_rates`` for
plain predictions, and in training over ``dynamics.velocity_rate_partials``,
whose stages give the same rates with their closed-form partials. The
velocity partials are the dynamic model's own Jacobian block; the coefficient
partials are the magic formula's B, C, D, E partials and the linear
drivetrain terms.
Gradients are exact throughout: through the physics step by
``numerics.rk4_adjoint`` over those partials, then through guard, head and
GRU (backprop through time). Only training keeps that backward state, one
batch's at a time, in a ``nets.Workspace`` that the first (largest) batch
sizes and every later batch writes into: the normalized features, the GRU's
hidden states and gates, the head's layers and gradient, and one scratch
buffer that the batch gather, the GRU steps, the physics stage partials and
the backward passes take in turn. A batch allocates no array of a batch's
size, so the heap is not returned to the system and faulted back in batch
after batch. Inference, such as the final estimate over every window, runs
GRU and head forward-only, in a workspace of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datagen import time_step
from .dynamics import (COEFFICIENT_NAMES, DrivetrainCoefficients,
                       PacejkaCoefficients, TirePair, VehicleParams,
                       _check_fields, coefficient_vector,
                       velocity_rate_partials, velocity_rates)
from .nets import (LayerSpec, PhysicsGuardBounds, _epoch_batches, adam_step,
                   gru_backward, gru_forward, gru_forward_cache, init_adam, init_gru,
                   init_network, mlp_forward, mlp_forward_cache, mlp_vjp,
                   Workspace, physics_guard, physics_guard_derivative)
from .numerics import rk4, rk4_adjoint

__all__ = [
    "COEFFICIENT_NAMES",
    "EstimatorConfig",
    "EstimatorModel",
    "EstimatorRun",
    "true_coefficients",
    "coefficients_to_structs",
    "default_guard_bounds",
    "build_windows",
    "predict_next_velocities",
    "train_coefficient_estimator",
]

# The estimated coefficients are the dynamic model's coefficient vector.
true_coefficients = coefficient_vector


def coefficients_to_structs(vec, template: TirePair):
    """Rebuild parameter structs from a coefficient vector (G and K are not
    estimated; they come from the template tires)."""
    vec = np.asarray(vec, dtype=float)
    front = PacejkaCoefficients(B=vec[0], C=vec[1], D=vec[2], E=vec[3],
                                G=template.front.G, K=template.front.K)
    rear = PacejkaCoefficients(B=vec[4], C=vec[5], D=vec[6], E=vec[7],
                               G=template.rear.G, K=template.rear.K)
    drive = DrivetrainCoefficients(Cm1=vec[8], Cm2=vec[9], Cr0=vec[10], Cd=vec[11])
    return TirePair(front, rear), drive


# Each coefficient's guard half-width (rel, abs) is rel |v| + abs around its
# nominal value v: B, C wide (surface dependent), D and the drivetrain narrower
# (measurable on a skidpad / dyno), E absolute (tiny nominal value, real drift).
_GUARD_HALF_WIDTHS = {**dict.fromkeys(("Bf", "Cf", "Br", "Cr"), (0.5, 0.0)),
                      **dict.fromkeys(("Df", "Dr", "Cm1", "Cm2", "Cr0", "Cd"), (0.15, 0.0)),
                      **dict.fromkeys(("Ef", "Er"), (0.0, 0.1))}


def default_guard_bounds(tires: TirePair, drivetrain: DrivetrainCoefficients) -> PhysicsGuardBounds:
    """Brackets of the ``_GUARD_HALF_WIDTHS`` around the nominal values."""
    truth = true_coefficients(tires, drivetrain)
    rel, absolute = np.array([_GUARD_HALF_WIDTHS[name] for name in COEFFICIENT_NAMES]).T
    half = rel * np.abs(truth) + absolute
    return PhysicsGuardBounds(truth - half, truth + half)


# ---------------------------------------------------------------------------
# nominal physics step


def predict_next_velocities(states, coef, p: VehicleParams, template: TirePair,
                            Ts: float) -> np.ndarray:
    """One RK4 step of the nominal velocity subsystem with held inputs.

    ``states`` (..., 5) holds (vx, vy, omega, throttle, delta) and ``coef``
    (..., 12) the coefficients of each state; the rates are the disturbance-free
    velocity slice of the dynamic model. Matches the data generator's
    integrator so that exact coefficients give exact predictions.
    """
    states = np.asarray(states, dtype=float)
    vel, u = states[..., :3], states[..., 3:5]
    pred, _ = rk4(lambda v: (velocity_rates(v, u, p, coef, template), None), vel, Ts)
    return pred


def _physics_step(model, base_states, phi, *, work=None):
    """``predict_next_velocities`` over the stage partials J_i (velocity) and
    C_i (coefficients); returns the prediction and its pullback from dLoss/dpred
    to dLoss/dPhi, an ``rk4_adjoint`` whose stages add b C_i and pass b J_i.
    The partials and the pullback's terms are ``work``'s scratch: no other
    kernel may use it between the step and its pullback."""
    work = Workspace() if work is None else work
    vel, u = base_states[:, :3], base_states[:, 3:5]
    n = len(vel)
    # stage i's partials and pullback term; C_i is the (n, 3, 12) view of a
    # (3, 12, n) array, the layout velocity_rate_partials fills fastest
    d_vels, d_coefs, terms = work.arrays("scratch", (4, n, 3, 3), (4, 3, 12, n), (4, n, 12))
    d_coefs = np.moveaxis(d_coefs, (1, 2), (2, 3))
    slots = iter(zip(d_vels, d_coefs))

    def stage(v):
        rates, *partials = velocity_rate_partials(v, u, model.params, phi, model.template,
                                                  out=next(slots))
        return rates, partials

    pred, partials = rk4(stage, vel, model.Ts)

    def pullback(grad_pred):
        slots = iter(terms[::-1])  # the adjoint runs stage 4 first

        def vjp(aux, b):
            d_vel, d_coef = aux
            np.einsum("ni,nij->nj", b, d_coef, out=next(slots))
            return np.einsum("ni,nij->nj", b, d_vel)

        rk4_adjoint(vjp, partials, grad_pred, model.Ts)
        return sum(terms)  # stage 1 first, in the forward order

    return pred, pullback


# ---------------------------------------------------------------------------
# window assembly


@dataclass
class WindowSet:
    """tau-step feature histories plus the sample each one predicts."""

    features: np.ndarray   # (n, tau, 7): vx, vy, omega, T, delta, dT, ddelta
    base_states: np.ndarray  # (n, 5): vx, vy, omega, T, delta at the window end
    targets: np.ndarray    # (n, 3): next (vx, vy, omega)
    sources: list          # (trajectory index, sample index of the window end)

    def __len__(self) -> int:
        return self.features.shape[0]


def build_windows(trajectories, tau: int) -> WindowSet:
    """Assemble histories from dynamic-model trajectories (states include
    (.., vx, vy, omega), inputs are (throttle, delta)): one window per sample
    t >= tau - 1 that has a successor, whose history is steps t - tau + 1..t."""
    feats, bases, targets, sources = [], [], [], []
    for ti, traj in enumerate(trajectories):
        widths = traj.states.shape[-1], traj.inputs.shape[-1]
        if widths != (6, 2):
            raise ValueError(f"trajectory {ti} has state/input widths {widths[0]}/{widths[1]}, "
                             "expected 6/2: the estimator takes dynamic-model trajectories")
        n = len(traj)
        if n - 1 < tau:
            continue
        vel = traj.states[:, 3:6]
        u = traj.inputs
        du = np.diff(u, axis=0)  # du[k] applied at step k
        step_feats = np.column_stack([vel[:-1], u[:-1], du])
        feats.append(sliding_window_view(step_feats, (tau, step_feats.shape[1]))[:, 0])
        bases.append(np.column_stack([vel, u])[tau - 1:n - 1])
        targets.append(vel[tau:])
        sources.extend((ti, t) for t in range(tau - 1, n - 1))
    if not feats:
        raise ValueError("trajectories too short for the requested history length")
    return WindowSet(np.concatenate(feats), np.concatenate(bases), np.concatenate(targets),
                     sources)


# ---------------------------------------------------------------------------
# the estimator


@dataclass(frozen=True)
class EstimatorConfig:
    tau: int = 5
    hidden_size: int = 32
    head_width: int = 32
    lr: float = 1.9e-3
    epochs: int = 150
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        rules = {**dict.fromkeys(("tau", "hidden_size", "head_width", "batch_size"), "int > 0"),
                 "lr": "> 0", "epochs": "int >= 0", "seed": "int >= 0"}
        _check_fields("EstimatorConfig.", {k: getattr(self, k) for k in rules}, rules)


class EstimatorModel:
    """GRU + mish head + Physics Guard over the twelve nominal coefficients."""

    def __init__(self, cfg: EstimatorConfig, bounds: PhysicsGuardBounds,
                 params: VehicleParams, template: TirePair, Ts: float,
                 feat_offset, feat_scale):
        n_coef = len(COEFFICIENT_NAMES)
        if bounds.lower.shape != (n_coef,):
            raise ValueError(f"guard bounds of shape {bounds.lower.shape}, expected one bracket "
                             f"per coefficient of COEFFICIENT_NAMES ({n_coef},)")
        self.bounds = bounds
        self.params = params
        self.template = template
        self.Ts = Ts
        self.feat_offset = np.asarray(feat_offset, dtype=float)
        self.feat_scale = np.asarray(feat_scale, dtype=float)
        self.gru = init_gru(7, cfg.hidden_size, seed=cfg.seed)
        self.head = init_network(cfg.hidden_size,
                                 (LayerSpec(cfg.head_width, "mish"),
                                  LayerSpec(n_coef, "linear")),
                                 seed=cfg.seed + 1)
        # Small head output weights start the guard near mid-bounds.
        self.head.weights[-1] *= 0.01

    def param_list(self) -> list:
        return self.gru.param_list() + self.head.param_list()

    def estimate(self, features, with_cache: bool = False, *, work=None):
        """Guarded coefficient estimates for a (n, tau, 7) feature batch.

        With ``with_cache`` it also returns the cache of ``backward``; without
        it, GRU and head keep no backward state (``gru_forward``,
        ``mlp_forward``), so inference over n windows holds a few (n, hidden)
        arrays, not the 4 tau of backprop through time. Both give the same
        estimates, bit for bit. With a :class:`Workspace` ``work`` the
        normalized features, the GRU's state and cache and the head's cache
        are its arrays, overwritten by its next use.
        """
        if np.ndim(features) != 3 or np.shape(features)[2] != 7:
            raise ValueError(f"features of shape {np.shape(features)}, expected (n, tau, 7)")
        work = Workspace() if work is None else work
        x = np.subtract(features, self.feat_offset,
                        out=work.arrays("features", np.shape(features))[0])
        x /= self.feat_scale
        if not with_cache:
            z = mlp_forward(self.head, gru_forward(self.gru, x, work=work), check_finite=False,
                            work=work)
            return physics_guard(z, self.bounds)
        h, gru_cache = gru_forward_cache(self.gru, x, work=work)
        z, head_cache = mlp_forward_cache(self.head, h, work=work)
        return physics_guard(z, self.bounds), (z, gru_cache, head_cache)

    def backward(self, cache, grad_phi, *, work=None):
        """Gradients for ``param_list()`` given dLoss/dPhi; ``work`` is
        the workspace of the ``estimate`` that made ``cache``, if any."""
        z, gru_cache, head_cache = cache
        grad_z = grad_phi * physics_guard_derivative(z, self.bounds)
        grad_h, head_grads = mlp_vjp(self.head, head_cache, grad_z, work=work)
        gru_grads = gru_backward(self.gru, gru_cache, grad_h, work=work)
        return gru_grads + [a for pair in head_grads for a in pair]


def _batch_step(model, windows, idx, opt, work) -> float:
    """One Adam step on windows ``idx`` (none if the loss is not finite),
    returning the loss; the batch's state is in ``work``'s arrays."""
    features = np.take(windows.features, idx, axis=0,
                       out=work.arrays("scratch", (idx.size,) + windows.features.shape[1:])[0])
    phi, cache = model.estimate(features, with_cache=True, work=work)
    pred, pullback = _physics_step(model, windows.base_states[idx], phi, work=work)
    resid = pred - windows.targets[idx]
    loss = float(np.mean(resid * resid))
    if math.isfinite(loss):
        grad_phi = pullback(resid * (2.0 / resid.size))
        adam_step(model.param_list(), model.backward(cache, grad_phi, work=work), opt)
    return loss


@dataclass
class EstimatorRun:
    model: EstimatorModel
    loss_curve: list
    phi_records: np.ndarray  # (n_windows, 12) final per-window estimates
    sources: list
    diverged: bool = False


def train_coefficient_estimator(cfg: EstimatorConfig, trajectories,
                                params: VehicleParams, template: TirePair,
                                bounds: PhysicsGuardBounds | None = None) -> EstimatorRun:
    """Fit the estimator on (possibly disturbed) trajectories against the
    nominal physics, stepped by their shared ``time_step``; returns the
    trained model plus per-window estimates.

    Training memory is bounded by one batch beyond the window arrays: every
    batch's state lives in one :class:`Workspace`, allocated by the first
    (largest) batch and dropped on return.
    """
    if not len(trajectories):
        raise ValueError("no trajectories were given")
    windows = build_windows(trajectories, cfg.tau)
    flat = windows.features.reshape(-1, windows.features.shape[2])
    offset = flat.mean(axis=0)
    scale = np.maximum(flat.std(axis=0), 1e-6)
    if bounds is None:
        bounds = default_guard_bounds(template, DrivetrainCoefficients())

    model = EstimatorModel(cfg, bounds, params, template, time_step(trajectories), offset, scale)
    opt = init_adam(model.param_list(), lr=cfg.lr)
    work = Workspace()

    n = len(windows)
    curve = []
    diverged = False
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(cfg.seed * 913 + epoch)
        epoch_loss = 0.0
        seen = 0
        for idx in _epoch_batches(n, cfg.batch_size, rng):
            loss = _batch_step(model, windows, idx, opt, work)
            if not math.isfinite(loss):
                diverged = True
                break
            epoch_loss += loss * idx.size
            seen += idx.size
        if diverged:
            curve.append(math.inf)
            break
        curve.append(epoch_loss / max(seen, 1))

    # The final estimate runs one batch at a time, without backward state,
    # so its transients do not grow with the dataset. The remainder joins the
    # last chunk, so that no chunk is shorter than a batch: BLAS may round the
    # products of a short chunk differently. Its workspace replaces the
    # training one, so the backward state is freed before the estimates are
    # allocated, and the last (largest) chunk runs first, so it is sized once.
    work = Workspace()
    phi_final = np.empty((n, len(COEFFICIENT_NAMES)))
    starts = range(0, max(n - cfg.batch_size, 0) + 1, cfg.batch_size)
    for lo, hi in reversed([*zip(starts, [*starts[1:], n])]):
        phi_final[lo:hi] = model.estimate(windows.features[lo:hi], work=work)
    return EstimatorRun(model, curve, phi_final, windows.sources, diverged)
