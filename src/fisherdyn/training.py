"""Training regimes for learned dynamics nets.

Three regimes share one composite objective L = lambda_p * L_physics +
lambda_d * L_data:

* physics_only: residual ||F(x,u) - Fhat(x,u)||^2 at collocation points
  (the analytic right-hand side supplies xdot exactly);
* hybrid: physics residual plus supervised derivative data;
* inverse: physics residual plus trajectory matching, where predictions come
  from unrolling Fhat with RK4 over short windows and gradients flow through
  the unrolled integration.

Also here: collocation sampling, the coefficient estimator's velocity-component
loss, and architecture sweeps ranked by validation residual.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._codec import csv_text
from .nets import (LayerSpec, LearnedDynamicsModel, NetworkParams, adam_step,
                   init_adam, init_network, mlp_forward, mlp_forward_cache,
                   mlp_param_gradient, mlp_vjp)
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
    "ddm_loss",
    "train_regime",
    "architecture_sweep",
    "default_architectures",
    "build_kinematic_net",
    "build_training_data",
]

REGIMES = ("physics_only", "hybrid", "inverse")


class DivergedRolloutError(FloatingPointError):
    """A trajectory rollout left the finite range."""


@dataclass(frozen=True)
class CollocationBounds:
    """Closed sampling intervals for (x, y, theta, v, delta)."""

    lower: np.ndarray = field(default_factory=lambda: np.array(
        [-100.0, -10.0, -0.5236, 0.0, -0.5236]))
    upper: np.ndarray = field(default_factory=lambda: np.array(
        [100.0, 10.0, 0.5236, 5.0, 0.5236]))

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
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


def sample_collocation(bounds: CollocationBounds, n: int, seed: int = 0,
                       state_dim: int = 3) -> list:
    """n i.i.d. uniform (state, input) samples inside the bounds."""
    if n < 1:
        raise ValueError("need n >= 1 collocation samples")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.lower.size))
    return [(row[:state_dim].copy(), row[state_dim:].copy()) for row in raw]


@dataclass(frozen=True)
class RegimeConfig:
    regime: str = "physics_only"
    lambda_p: float = 1.0
    lambda_d: float = 1.0
    epochs: int = 1000
    batch_size: int = 256
    collocation_count: int = 2048
    horizon: int = 5
    lr: float = 1e-3
    seed: int = 0
    grad_check: bool = True

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.lambda_p < 0 or self.lambda_d < 0:
            raise ValueError("loss weights must be >= 0")
        if self.regime == "physics_only" and self.lambda_d != 0.0:
            object.__setattr__(self, "lambda_d", 0.0)


@dataclass
class TrainReport:
    regime: str
    seed: int
    architecture: str
    epochs: int
    initial_losses: tuple  # (total, physics, data) before the first update
    loss_curve: list  # one (total, physics, data) triple per epoch
    final_params: NetworkParams
    wall_time_s: float
    validation_loss: float = math.nan
    grad_check_rel_err: float = math.nan
    diverged: bool = False
    rank: int = 0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "regime": self.regime,
            "seed": self.seed,
            "architecture": self.architecture,
            "epochs": self.epochs,
            "initial_losses": list(self.initial_losses),
            "loss_curve": [list(row) for row in self.loss_curve],
            "validation_loss": self.validation_loss,
            "grad_check_rel_err": self.grad_check_rel_err,
            "diverged": self.diverged,
            "rank": self.rank,
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        return doc

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


def ddm_loss(predicted, observed) -> float:
    """Mean of the squared (vx, vy, omega) component errors."""
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.shape[-1] != 3:
        raise ValueError("ddm loss expects matching (..., 3) velocity blocks")
    return float(np.mean((pred - obs) ** 2))


# ---------------------------------------------------------------------------
# fused loss + gradient kernels


def _stage_forward(model, x_stage, u):
    xn = (np.concatenate([x_stage, u], axis=1) - model.offset) / model.scale
    return mlp_forward_cache(model.params, xn)


def _rollout_loss_grad(model: LearnedDynamicsModel, win_states, win_inputs,
                       horizon: int, dt: float, want_grad: bool = True):
    """Loss (and exact gradient) of RK4 rollouts over all windows at once: one
    ``rk4`` call per step, whose stages keep their MLP caches, then one
    ``rk4_adjoint`` call per step, last first, whose vjp sums the weight gradients."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = model.state_dim
    n_w = win_states.shape[0]
    state_scale = model.scale[:d]

    xhat = win_states[:, 0, :].copy()
    steps = []
    preds = []
    for k in range(horizon):
        u = win_inputs[:, k, :]
        xhat, caches = rk4(lambda x: _stage_forward(model, x, u), xhat, dt)
        if not np.all(np.isfinite(xhat)):
            bad = int(np.argwhere(~np.isfinite(xhat).all(axis=1))[0, 0])
            raise DivergedRolloutError(f"rollout diverged in window {bad} at step {k}")
        steps.append(caches)
        preds.append(xhat)

    norm = n_w * horizon
    resids = [preds[k] - win_states[:, k + 1, :] for k in range(horizon)]
    loss = float(sum(np.sum(r * r) for r in resids) / norm)
    if not want_grad:
        return loss, None, None

    grads = [np.zeros_like(w) for w in model.params.weights]
    gbias = [np.zeros_like(b) for b in model.params.biases]

    def vjp(cache, lam):
        gin, gparams = mlp_vjp(model.params, cache, lam)
        for acc_w, acc_b, (dw, db) in zip(grads, gbias, gparams):
            acc_w += dw
            acc_b += db
        return gin[:, :d] / state_scale

    lam_next = np.zeros((n_w, d))
    for k in range(horizon - 1, -1, -1):
        lam_next = rk4_adjoint(vjp, steps[k], lam_next + 2.0 * resids[k] / norm, dt)
    return loss, list(zip(grads, gbias)), preds


def _scale_add(acc, grads, w):
    if acc is None:
        return [(w * dw, w * db) for dw, db in grads]
    return [(aw + w * dw, ab + w * db) for (aw, ab), (dw, db) in zip(acc, grads)]


# ---------------------------------------------------------------------------
# the training loop


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


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


def _check_gradient(model, cfg, data, rng) -> float:
    """Central-difference spot check of the composite gradient on 10 random
    parameter entries; returns the max relative error."""
    def composite():
        t, _, _ = _composite_losses(model, cfg, data)
        return t

    grads = None
    _, g_phys = mlp_param_gradient(
        model.params, model.normalize(data.phys_states, data.phys_inputs),
        data.phys_targets)
    grads = _scale_add(grads, g_phys, cfg.lambda_p)
    if cfg.regime == "hybrid" and cfg.lambda_d > 0:
        _, g_data = mlp_param_gradient(
            model.params, model.normalize(data.data_states, data.data_inputs),
            data.data_xdot)
        grads = _scale_add(grads, g_data, cfg.lambda_d)
    elif cfg.regime == "inverse" and cfg.lambda_d > 0:
        _, g_traj, _ = _rollout_loss_grad(model, data.win_states, data.win_inputs,
                                          cfg.horizon, data.dt)
        grads = _scale_add(grads, g_traj, cfg.lambda_d)

    flat_params = model.params.param_list()
    flat_grads = [a for pair in grads for a in pair]
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
    """Minibatch Adam over the composite regime loss; deterministic per seed."""
    if cfg.regime == "hybrid" and data.data_states is None:
        raise ValueError("hybrid regime needs derivative data")
    if cfg.regime == "inverse" and data.win_states is None:
        raise ValueError("inverse regime needs trajectory windows")

    start = time.perf_counter()
    arch = "-".join(f"{sp.activation}{sp.width}" for sp in model.params.layers)
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
            n_d = data.data_states.shape[0]
            d_batches = _epoch_batches(n_d, cfg.batch_size, erng)
        elif cfg.regime == "inverse":
            n_d = data.win_states.shape[0]
            d_batches = _epoch_batches(n_d, max(1, cfg.batch_size // cfg.horizon), erng)
        else:
            d_batches = []
        n_steps = max(len(p_batches), len(d_batches)) or 1

        try:
            for step in range(n_steps):
                grads = None
                if cfg.lambda_p > 0:
                    bi = p_batches[step % len(p_batches)]
                    _, g = mlp_param_gradient(
                        model.params,
                        model.normalize(data.phys_states[bi], data.phys_inputs[bi]),
                        data.phys_targets[bi])
                    grads = _scale_add(grads, g, cfg.lambda_p)
                if cfg.lambda_d > 0 and d_batches:
                    bi = d_batches[step % len(d_batches)]
                    if cfg.regime == "hybrid":
                        _, g = mlp_param_gradient(
                            model.params,
                            model.normalize(data.data_states[bi], data.data_inputs[bi]),
                            data.data_xdot[bi])
                    else:
                        _, g, _ = _rollout_loss_grad(model, data.win_states[bi],
                                                     data.win_inputs[bi],
                                                     cfg.horizon, data.dt)
                    grads = _scale_add(grads, g, cfg.lambda_d)
                if grads is not None:
                    adam_step(params, [a for pair in grads for a in pair], opt)
            losses = _composite_losses(model, cfg, data)
        except (FloatingPointError, DivergedRolloutError):
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
    return TrainReport(cfg.regime, cfg.seed, arch, cfg.epochs, initial, curve,
                       model.params.copy(), time.perf_counter() - start,
                       validation_loss=val, grad_check_rel_err=grad_err,
                       diverged=diverged)


# ---------------------------------------------------------------------------
# architecture sweeps


def default_architectures(output_dim: int = 3) -> list:
    """Widths {16, 32, 64} x depths {2, 3} x activations {tanh, sigmoid, mish},
    always capped with a linear output layer."""
    archs = []
    for width in (16, 32, 64):
        for depth in (2, 3):
            for act in ("tanh", "sigmoid", "mish"):
                hidden = tuple(LayerSpec(width, act) for _ in range(depth))
                archs.append(hidden + (LayerSpec(output_dim, "linear"),))
    return archs


def build_kinematic_net(layers, bounds: CollocationBounds, seed: int,
                        state_dim: int = 3, input_dim: int = 2) -> LearnedDynamicsModel:
    params = init_network(state_dim + input_dim, layers, seed=seed)
    return LearnedDynamicsModel(params, state_dim, input_dim,
                                offset=bounds.center, scale=bounds.half_width)


def build_training_data(analytic_model, bounds: CollocationBounds,
                        n_collocation: int, seed: int,
                        trajectories=None, noise_sigma: float = 0.0,
                        horizon: int = 5, n_validation: int = 1024,
                        state_dim: int = 3) -> TrainingData:
    """Assemble the regime data bundle from an analytic model (physics
    targets) and optional recorded trajectories (data / window terms).

    The physics targets of each point set come from one ``rhs`` call on the
    stacked points.
    """
    pts = sample_collocation(bounds, n_collocation, seed, state_dim)
    phys_states = np.stack([p[0] for p in pts])
    phys_inputs = np.stack([p[1] for p in pts])
    phys_targets = analytic_model.rhs(phys_states, phys_inputs)

    vpts = sample_collocation(bounds, n_validation, seed + 7919, state_dim)
    val_states = np.stack([p[0] for p in vpts])
    val_inputs = np.stack([p[1] for p in vpts])
    val_targets = analytic_model.rhs(val_states, val_inputs)

    bundle = TrainingData(phys_states, phys_inputs, phys_targets,
                          val_states, val_inputs, val_targets)
    if trajectories:
        from .datagen import derivative_samples  # local import to avoid a cycle
        ds, di, dx = derivative_samples(trajectories, noise_sigma, seed)
        bundle.data_states, bundle.data_inputs, bundle.data_xdot = ds, di, dx
        ws, wi = [], []
        for traj in trajectories:
            n = len(traj)
            for k0 in range(0, n - horizon, horizon):
                ws.append(traj.states[k0:k0 + horizon + 1])
                wi.append(traj.inputs[k0:k0 + horizon + 1])
        if ws:
            bundle.win_states = np.stack(ws)
            bundle.win_inputs = np.stack(wi)
            bundle.dt = float(traj.times[1] - traj.times[0])
    return bundle


def _train_candidate(args):
    layers, cfg, data, bounds, state_dim, input_dim = args
    model = build_kinematic_net(layers, bounds, cfg.seed, state_dim, input_dim)
    return train_regime(model, cfg, data)


def architecture_sweep(candidates, cfg: RegimeConfig, data: TrainingData,
                       bounds: CollocationBounds, state_dim: int = 3,
                       input_dim: int = 2, jobs: int = 1) -> list:
    """Train every candidate with a per-candidate seed derived from the
    master seed; rank by validation loss (ties: parameter count, then order)."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate architecture")
    tasks = [(tuple(layers), replace(cfg, seed=cfg.seed + 101 * i), data,
              bounds, state_dim, input_dim)
             for i, layers in enumerate(candidates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_train_candidate, tasks))
    else:
        reports = [_train_candidate(t) for t in tasks]

    def sort_key(item):
        i, rep = item
        val = rep.validation_loss if math.isfinite(rep.validation_loss) else math.inf
        return (val, rep.final_params.n_params(), i)

    ranked = sorted(enumerate(reports), key=sort_key)
    for rank, (_, rep) in enumerate(ranked, start=1):
        rep.rank = rank
    return [rep for _, rep in ranked]
