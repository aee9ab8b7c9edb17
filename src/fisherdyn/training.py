"""Training regimes for learned dynamics nets.

Three regimes share one composite objective L = lambda_p * L_physics +
lambda_d * L_data:

* physics_only: residual ||F(x,u) - Fhat(x,u)||^2 at collocation points
  (the analytic right-hand side supplies xdot exactly);
* hybrid: physics residual plus supervised derivative data;
* inverse: physics residual plus trajectory matching, where predictions come
  from unrolling Fhat with RK4 over short windows and gradients flow through
  the unrolled integration.

One function, ``_composite_grad``, writes the lambda-weighted gradient of that
objective: the minibatch step calls it on batch rows and the gradient check on
all rows. Also here: collocation sampling and the training-data bundle.

The rollout kernel, ``_rollout_loss_grad``, serves both the trajectory loss and
its gradient. It folds the fixed input normalization into layer 0, so that a
stage's first product covers the state columns alone and the held input's
term is computed once per RK4 step. Its backward pass runs only the
input-cotangent chain stage by stage and takes each layer's weight gradient
as one product per RK4 step over the step's four stacked stages, the way
recurrent-network training sums the weight gradients of all time steps
outside the sequential chain. The layer loops it runs are ``nets``' own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._codec import csv_text
from .datagen import derivative_samples, time_step
from .dynamics import KinematicModel, _check_fields
from .nets import (LearnedDynamicsModel, _activation_deriv, _epoch_batches, _layer_deltas,
                   _layer_outputs, _weight_grad, adam_step, init_adam, init_network,
                   mlp_forward, mlp_param_gradient)
from .numerics import rk4, rk4_adjoint

__all__ = [
    "CollocationBounds",
    "RegimeConfig",
    "TrainReport",
    "TrainingData",
    "DivergedRolloutError",
    "sample_collocation",
    "data_loss",
    "trajectory_loss",
    "train_regime",
    "build_kinematic_net",
    "build_training_data",
]

REGIMES = ("physics_only", "hybrid", "inverse")


class DivergedRolloutError(FloatingPointError):
    """A trajectory rollout left the finite range."""


@dataclass(frozen=True)
class CollocationBounds:
    """Closed sampling intervals over a model's states and then its inputs.
    The default box is the kinematic car's (x, y, theta, v, delta)."""

    lower: np.ndarray = field(default_factory=lambda: np.array(
        [-100.0, -10.0, -0.5236, 0.0, -0.5236]))
    upper: np.ndarray = field(default_factory=lambda: np.array(
        [100.0, 10.0, 0.5236, 5.0, 0.5236]))

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        _check_fields("CollocationBounds.", {"lower": lo, "upper": hi}, {})
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("collocation bounds need lower <= upper per coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def half_width(self) -> np.ndarray:
        hw = 0.5 * (self.upper - self.lower)
        return np.where(hw == 0.0, 1.0, hw)


def sample_collocation(bounds: CollocationBounds, n: int, seed: int, state_dim: int):
    """n i.i.d. uniform samples inside the bounds as (states (n, d), inputs
    (n, m)) arrays, the states being the first ``state_dim`` coordinates."""
    if n < 1:
        raise ValueError("need n >= 1 collocation samples")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.lower.size))
    return raw[:, :state_dim].copy(), raw[:, state_dim:].copy()


@dataclass(frozen=True)
class RegimeConfig:
    regime: str = "physics_only"
    lambda_p: float = 1.0
    lambda_d: float = 1.0
    epochs: int = 1000
    batch_size: int = 256
    horizon: int = 5
    lr: float = 1e-3
    seed: int = 0
    grad_check: bool = True

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        rules = {"lambda_p": ">= 0", "lambda_d": ">= 0", "batch_size": "> 0",
                 "horizon": "> 0", "epochs": ">= 0", "lr": "> 0"}
        _check_fields("RegimeConfig.", {k: getattr(self, k) for k in rules}, rules)
        if self.regime == "physics_only" and self.lambda_d != 0.0:
            object.__setattr__(self, "lambda_d", 0.0)


@dataclass
class TrainReport:
    regime: str
    seed: int
    epochs: int
    initial_losses: tuple  # (total, physics, data) before the first update
    loss_curve: list  # one (total, physics, data) triple per epoch
    validation_loss: float = math.nan
    grad_check_rel_err: float = math.nan
    diverged: bool = False

    def curve_csv(self) -> str:
        rows = [self.initial_losses, *self.loss_curve]
        return csv_text(["epoch", "total", "physics", "data"],
                        [list(map(str, range(len(rows)))), rows])


@dataclass
class TrainingData:
    """Precomputed arrays for the three regimes (all optional but the physics
    block). Windows have shape (W, H+1, dim)."""

    phys_states: np.ndarray
    phys_inputs: np.ndarray
    phys_targets: np.ndarray
    val_states: np.ndarray | None = None
    val_inputs: np.ndarray | None = None
    val_targets: np.ndarray | None = None
    data_states: np.ndarray | None = None
    data_inputs: np.ndarray | None = None
    data_xdot: np.ndarray | None = None
    win_states: np.ndarray | None = None
    win_inputs: np.ndarray | None = None
    dt: float = 0.1


# ---------------------------------------------------------------------------
# loss surfaces (evaluation only; training uses the fused loss+grad versions)


def data_loss(model: LearnedDynamicsModel, states, inputs, xdot_data) -> float:
    """Mean over samples of ||Fhat(x,u) - xdot_data||^2; with the analytic
    right-hand side as ``xdot_data`` this is the physics residual."""
    pred = mlp_forward(model.params, model.normalize(states, inputs))
    return float(np.mean(np.sum((pred - np.asarray(xdot_data, float)) ** 2, axis=1)))


def trajectory_loss(model: LearnedDynamicsModel, win_states, win_inputs,
                    horizon: int, dt: float) -> float:
    """Mean squared deviation of RK4 rollouts from recorded states."""
    loss, _, _ = _rollout_loss_grad(model, win_states, win_inputs, horizon, dt,
                                    want_grad=False)
    return loss


# ---------------------------------------------------------------------------
# fused loss + gradient kernels


def _rollout_loss_grad(model: LearnedDynamicsModel, win_states, win_inputs,
                       horizon: int, dt: float, want_grad: bool = True):
    """Loss (and exact gradient) of RK4 rollouts over all windows at once.

    Layer 0 sees the input map folded in: a stage's pre-activation is
    x @ (W0x / scale_x).T + c, where c, the normalized held input's term plus
    the bias less the state offset's term, is computed once per RK4 step.
    Each step is one ``rk4`` call. With ``want_grad`` the stages write their
    state, layer outputs and (mish only) pre-activations into per-rollout
    stage buffers of shape (horizon, 4, n, width), and the buffer slot is the
    stage's aux. One ``rk4_adjoint`` call per step, last first, then runs only
    the input-cotangent chain of each stage, writing its per-layer deltas
    into a (4, n, width) step buffer. Each layer's weight and bias gradient is
    one product per step over the 4 n stacked rows; layer 0's input columns
    take the step's deltas summed over its stages against the held input, so
    no per-stage copy of the input is built. Without ``want_grad`` no stage
    buffer is made, and the loss is the same to the bit."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_w = win_states.shape[0]
    if n_w == 0:
        raise ValueError("no trajectory windows to roll out")
    params = model.params
    d = model.state_dim
    w0, b0 = params.weights[0], params.biases[0]
    x_off, u_off = model.offset[:d], model.offset[d:]
    x_scale, u_scale = model.scale[:d], model.scale[d:]
    w0x = w0[:, :d] / x_scale
    b0x = b0 - w0x @ x_off
    weights_t = [np.ascontiguousarray(w.T) for w in (w0x, *params.weights[1:])]
    if want_grad:
        shape = (horizon, 4, n_w)
        xs = np.empty(shape + (d,))
        acts = [np.empty(shape + (spec.width,)) for spec in params.layers]
        # only mish's derivative reads the pre-activation
        pres = [np.empty(shape + (spec.width,)) if spec.activation == "mish" else None
                for spec in params.layers]

    def stage(x, c):
        k, s = next(slots)
        z = x @ weights_t[0]
        z += c
        for l, (z, a) in enumerate(_layer_outputs(params, z, weights_t)):
            if want_grad:
                acts[l][k, s] = a
                if pres[l] is not None:
                    pres[l][k, s] = z
        if want_grad:
            xs[k, s] = x
        return a, (k, s)

    slots = np.ndindex(horizon, 4)
    xhat = win_states[:, 0, :].copy()
    held, steps, preds = [], [], []
    for k in range(horizon):
        u = (win_inputs[:, k, :] - u_off) / u_scale
        c = u @ w0[:, d:].T + b0x
        xhat, auxes = rk4(lambda x: stage(x, c), xhat, dt)
        if not np.all(np.isfinite(xhat)):
            bad = int(np.argwhere(~np.isfinite(xhat).all(axis=1))[0, 0])
            raise DivergedRolloutError(f"rollout diverged in window {bad} at step {k}")
        held.append(u)
        steps.append(auxes)
        preds.append(xhat)

    norm = n_w * horizon
    resids = [preds[k] - win_states[:, k + 1, :] for k in range(horizon)]
    loss = float(sum(np.sum(r * r) for r in resids) / norm)
    if not want_grad:
        return loss, None, None

    grads = [(np.zeros_like(w), np.zeros_like(b))
             for w, b in zip(params.weights, params.biases)]
    deltas = [np.empty((4, n_w, spec.width)) for spec in params.layers]

    def vjp(slot, b):
        s = slot[1]  # a slot of step k, whose derivatives are in ``derivs``
        for delta in _layer_deltas(params, [dv if dv is None else dv[s] for dv in derivs], b,
                                   [dl[s] for dl in deltas]):
            pass
        return delta @ w0x

    lam_next = np.zeros((n_w, d))
    for k in range(horizon - 1, -1, -1):
        derivs = [_activation_deriv(spec.activation, None if z is None else z[k], a[k])
                  for spec, z, a in zip(params.layers[::-1], pres[::-1], acts[::-1])]
        lam_next = rk4_adjoint(vjp, steps[k], lam_next + 2.0 * resids[k] / norm, dt)
        inputs = [(xs[k] - x_off) / x_scale, *(a[k] for a in acts[:-1])]
        for (gw, gb), delta, x in zip(grads, deltas, inputs):
            dw, db = _weight_grad(delta, x)
            gw[:, :dw.shape[1]] += dw  # layer 0's product covers its state columns only
            gb += db
        grads[0][0][:, d:] += deltas[0].sum(axis=0).T @ held[k]  # layer 0's input columns
    return loss, grads, preds


# ---------------------------------------------------------------------------
# the training loop


def _composite_losses(model, cfg, data):
    phys = data_loss(model, data.phys_states, data.phys_inputs, data.phys_targets)
    dterm = 0.0
    if cfg.regime == "hybrid":
        dterm = data_loss(model, data.data_states, data.data_inputs, data.data_xdot)
    elif cfg.regime == "inverse":
        dterm = trajectory_loss(model, data.win_states, data.win_inputs,
                                cfg.horizon, data.dt)
    total = cfg.lambda_p * phys + cfg.lambda_d * dterm
    return total, phys, dterm


def _composite_grad(model, cfg, data, p_idx, d_idx):
    """The lambda-weighted parameter gradient of the composite loss on rows
    ``p_idx`` of the physics block and rows ``d_idx`` of the data block
    (``d_idx=None``: no data term), flat in ``param_list`` order; None when
    no term has a positive weight."""
    terms = []
    if cfg.lambda_p > 0:
        _, g = mlp_param_gradient(
            model.params, model.normalize(data.phys_states[p_idx], data.phys_inputs[p_idx]),
            data.phys_targets[p_idx])
        terms.append((cfg.lambda_p, g))
    if cfg.lambda_d > 0 and d_idx is not None:
        if cfg.regime == "hybrid":
            _, g = mlp_param_gradient(
                model.params, model.normalize(data.data_states[d_idx], data.data_inputs[d_idx]),
                data.data_xdot[d_idx])
        else:
            _, g, _ = _rollout_loss_grad(model, data.win_states[d_idx], data.win_inputs[d_idx],
                                         cfg.horizon, data.dt)
        terms.append((cfg.lambda_d, g))
    grads = None
    for w, g in terms:
        scaled = [w * a for pair in g for a in pair]
        grads = scaled if grads is None else [acc + a for acc, a in zip(grads, scaled)]
    return grads


def _check_gradient(model, cfg, data, rng) -> float:
    """Central-difference spot check of the composite gradient on 10 random
    parameter entries; returns the max relative error."""
    def composite():
        t, _, _ = _composite_losses(model, cfg, data)
        return t

    flat_params = model.params.param_list()
    flat_grads = (_composite_grad(model, cfg, data, slice(None), slice(None))
                  or [np.zeros_like(a) for a in flat_params])
    worst = 0.0
    for _ in range(10):
        gi = rng.integers(len(flat_params))
        arr, ga = flat_params[gi], flat_grads[gi]
        idx = tuple(rng.integers(s) for s in arr.shape)
        h = 1e-6 * max(1.0, abs(arr[idx]))
        old = arr[idx]
        arr[idx] = old + h
        lp = composite()
        arr[idx] = old - h
        lm = composite()
        arr[idx] = old
        fd = (lp - lm) / (2.0 * h)
        an = ga[idx]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, err)
    return worst


def train_regime(model: LearnedDynamicsModel, cfg: RegimeConfig,
                 data: TrainingData) -> TrainReport:
    """Minibatch Adam over the composite regime loss, updating ``model``'s
    weights in place; deterministic per seed."""
    if cfg.regime == "hybrid" and data.data_states is None:
        raise ValueError("hybrid regime needs derivative data")
    if cfg.regime == "inverse" and data.win_states is None:
        raise ValueError("inverse regime needs trajectory windows")

    rng = np.random.default_rng(cfg.seed)
    params = model.params.param_list()
    opt = init_adam(params, lr=cfg.lr)

    initial = _composite_losses(model, cfg, data)
    grad_err = _check_gradient(model, cfg, data, rng) if cfg.grad_check else math.nan

    n_p = data.phys_states.shape[0]
    curve = []
    diverged = False
    for epoch in range(cfg.epochs):
        erng = np.random.default_rng(cfg.seed * 1_000_003 + epoch + 1)
        p_batches = _epoch_batches(n_p, cfg.batch_size, erng)
        if cfg.regime == "hybrid":
            d_batches = _epoch_batches(data.data_states.shape[0], cfg.batch_size, erng)
        elif cfg.regime == "inverse":
            d_batches = _epoch_batches(data.win_states.shape[0],
                                       max(1, cfg.batch_size // cfg.horizon), erng)
        else:
            d_batches = []
        n_steps = max(len(p_batches), len(d_batches)) or 1

        try:
            for step in range(n_steps):
                grads = _composite_grad(model, cfg, data, p_batches[step % len(p_batches)],
                                        d_batches[step % len(d_batches)] if d_batches else None)
                if grads is not None:
                    adam_step(params, grads, opt)
            losses = _composite_losses(model, cfg, data)
        except FloatingPointError:
            diverged = True
            losses = (math.inf, math.inf, math.inf)
        if not all(math.isfinite(v) for v in losses):
            diverged = True
            curve.append(losses)
            break
        curve.append(losses)

    val = math.nan
    if data.val_states is not None and not diverged:
        val = data_loss(model, data.val_states, data.val_inputs, data.val_targets)
    return TrainReport(cfg.regime, cfg.seed, cfg.epochs, initial, curve,
                       validation_loss=val, grad_check_rel_err=grad_err, diverged=diverged)


# ---------------------------------------------------------------------------
# building nets and data


def build_kinematic_net(layers, bounds: CollocationBounds, seed: int) -> LearnedDynamicsModel:
    """A net for the kinematic car, its inputs normalized to the bounds' box."""
    d, m = KinematicModel.state_dim, KinematicModel.input_dim
    params = init_network(d + m, layers, seed=seed)
    return LearnedDynamicsModel(params, d, m, offset=bounds.center, scale=bounds.half_width)


def build_training_data(analytic_model, bounds: CollocationBounds,
                        n_collocation: int, seed: int,
                        trajectories=None, horizon: int = 5,
                        n_validation: int = 1024) -> TrainingData:
    """Assemble the regime data bundle from an analytic model (physics
    targets) and optional recorded trajectories (data / window terms).

    The bounds cover the model's states, then its inputs. The physics targets
    of each point set come from one ``rhs`` call on the stacked points.
    """
    d, m = analytic_model.state_dim, analytic_model.input_dim
    if bounds.lower.size != d + m:
        raise ValueError(f"collocation bounds of width {bounds.lower.size} do not cover "
                         f"the model's state_dim {d} + input_dim {m}")
    phys_states, phys_inputs = sample_collocation(bounds, n_collocation, seed, d)
    phys_targets = analytic_model.rhs(phys_states, phys_inputs)
    val_states, val_inputs = sample_collocation(bounds, n_validation, seed + 7919, d)
    val_targets = analytic_model.rhs(val_states, val_inputs)

    bundle = TrainingData(phys_states, phys_inputs, phys_targets,
                          val_states, val_inputs, val_targets)
    if trajectories:
        bundle.data_states, bundle.data_inputs, bundle.data_xdot = derivative_samples(
            trajectories)
        ws, wi = [], []
        for traj in trajectories:
            n = len(traj)
            for k0 in range(0, n - horizon, horizon):
                ws.append(traj.states[k0:k0 + horizon + 1])
                wi.append(traj.inputs[k0:k0 + horizon + 1])
        if ws:
            bundle.win_states = np.stack(ws)
            bundle.win_inputs = np.stack(wi)
            bundle.dt = time_step(trajectories)
    return bundle

