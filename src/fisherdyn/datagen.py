"""Synthetic experiment data.

Circular reference paths, a pure-pursuit look-ahead controller, closed-loop
RK4 rollouts (controller re-evaluated every step, disturbance forces held
within a step like the inputs), and dataset files that round-trip
bit-exactly: a CSV per trajectory and a JSON manifest, written by ``_codec``.

``simulate`` steps a stack of runs together: each time step makes one
controller call on all (n, d) states and one ``rhs`` and one RK4 call on the
runs still inside the model's envelope. A run that leaves the envelope (a
``DomainError`` naming its row) is truncated there with the reason recorded,
and the step is redone for the others.

Recorded headings are left unwrapped (continuous) so that rollout losses and
finite differences across a lap stay smooth; the (-pi, pi] convention is
applied only inside controller geometry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._codec import read_csv, read_json, require_keys, write_csv, write_json
from .dynamics import DELTA_MAX, DomainError, ConfigError, wrap_angle
from .fisher import stack_points
from .numerics import rk4_step

__all__ = [
    "ReferencePath",
    "SimulationConfig",
    "Trajectory",
    "circular_path",
    "lookahead_steer",
    "PurePursuitController",
    "ManeuverController",
    "simulate",
    "write_dataset",
    "read_dataset",
    "write_points",
    "read_points",
    "derivative_samples",
    "generate_kinematic_dataset",
    "generate_dynamic_dataset",
]


@dataclass(frozen=True)
class ReferencePath:
    waypoints: np.ndarray  # (n, 2)
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ConfigError("a path needs at least two (x, y) waypoints")
        if np.any(np.all(np.diff(pts, axis=0) == 0.0, axis=1)):
            raise ConfigError("consecutive waypoints must be distinct")
        object.__setattr__(self, "waypoints", pts)


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 0.1
    total_time: float = 31.0
    wheelbase: float = 2.5
    lookahead: float = 3.0
    speed: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.total_time < self.dt or self.lookahead <= 0:
            raise ConfigError("need dt > 0, total_time >= dt, lookahead > 0")

    @property
    def n_samples(self) -> int:
        return int(round(self.total_time / self.dt)) + 1


@dataclass
class Trajectory:
    """One rollout: aligned times, states, inputs and recorded RHS values."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    derivs: np.ndarray
    disturbance_kind: str = "none"
    exit_reason: str = ""
    state_names: tuple = ()
    input_names: tuple = ()

    def __len__(self) -> int:
        return self.times.size


def circular_path(radius: float, n: int) -> ReferencePath:
    """n evenly spaced samples of (R cos th, R sin th), th over one turn."""
    if radius <= 0 or n < 3:
        raise ConfigError("need radius > 0 and n >= 3")
    theta = 2.0 * math.pi * np.arange(n) / n
    return ReferencePath(np.column_stack([radius * np.cos(theta),
                                          radius * np.sin(theta)]), closed=True)


def _segment_lengths(path: ReferencePath) -> np.ndarray:
    pts = path.waypoints
    nxt = np.roll(pts, -1, axis=0) if path.closed else pts[1:]
    base = pts if path.closed else pts[:-1]
    return np.linalg.norm(nxt - base, axis=1)


def lookahead_steer(state, path: ReferencePath, d_lookahead: float, L: float,
                    delta_max: float = DELTA_MAX) -> float:
    """Pure-pursuit steering toward the path point >= d_lookahead ahead.

    delta = arctan(2 L sin(alpha) / d_lookahead), alpha the heading error to
    the target point, clamped to +-delta_max.
    """
    x, y, theta = state[0], state[1], state[2]
    pts = path.waypoints
    nearest = int(np.argmin(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))
    seg = _segment_lengths(path)
    n = pts.shape[0]

    target = pts[-1]
    acc = 0.0
    steps = n if path.closed else n - 1 - nearest
    idx = nearest
    for _ in range(steps):
        acc += seg[idx % seg.size]
        idx = (idx + 1) % n
        if acc >= d_lookahead:
            target = pts[idx]
            break
    else:
        target = pts[idx % n]

    alpha = wrap_angle(math.atan2(target[1] - y, target[0] - x) - theta)
    delta = math.atan(2.0 * L * math.sin(alpha) / d_lookahead)
    return float(np.clip(delta, -delta_max, delta_max))


class PurePursuitController:
    """Constant-speed pure pursuit for the kinematic bicycle."""

    def __init__(self, path: ReferencePath, cfg: SimulationConfig):
        self.path = path
        self.cfg = cfg

    def __call__(self, states, t: float) -> np.ndarray:
        delta = [lookahead_steer(s, self.path, self.cfg.lookahead, self.cfg.wheelbase)
                 for s in states]
        return np.column_stack([np.full(len(delta), self.cfg.speed), delta])


class ManeuverController:
    """Scripted steering plus proportional speed hold for the dynamic model.

    steering(t) and throttle feedback T = clip(T_ff + k_speed (v_set(t) - vx))
    give repeatable slalom maneuvers without needing a racing line; a time-
    varying setpoint keeps the longitudinal channel excited. ``steer_fn(t)``
    and ``v_set(t)`` return a scalar for every run or an (n,) array, one
    value per run.
    """

    def __init__(self, steer_fn, v_set, k_speed: float = 1.0,
                 throttle_ff: float = 0.2, delta_max: float = DELTA_MAX):
        self.steer_fn = steer_fn
        self.v_set = v_set if callable(v_set) else (lambda t: v_set)
        self.k_speed = k_speed
        self.throttle_ff = throttle_ff
        self.delta_max = delta_max

    def __call__(self, states, t: float) -> np.ndarray:
        vx = states[:, 3]
        throttle = np.clip(self.throttle_ff + self.k_speed * (self.v_set(t) - vx),
                           0.0, 1.0)
        delta = np.clip(self.steer_fn(t), -self.delta_max, self.delta_max)
        return np.column_stack([throttle, np.broadcast_to(delta, vx.shape)])


def _on_running_rows(f, live, t: float, exits: list):
    """``f(live)`` for the rows still running. A row that a ``DomainError``
    names leaves ``live``, its exit reason goes to ``exits``, and ``f`` is
    redone without it; returns the result (None once no row is left) and
    the rows it covers."""
    while live.size:
        try:
            return f(live), live
        except DomainError as err:
            if not err.rows.size:
                raise
            for row, reason in zip(live[err.rows], err.reasons):
                exits[row] = f"envelope exit at t={t:g}: {reason}"
            live = np.delete(live, err.rows)
    return None, live


def simulate(model, controller, cfg: SimulationConfig, initial_states) -> list:
    """Closed-loop rollouts of ``model`` (which carries its own disturbances)
    from (n, d) initial states; returns n trajectories.

    ``controller(states, t)`` maps all (n, d) states to (n, m) inputs; the
    rows of runs that have left the envelope keep their last state. Each run
    records n = total_time/dt + 1 samples with t_i = i*dt exactly; on an
    envelope exit it is truncated and the reason recorded.
    """
    state = np.array(initial_states, dtype=float)
    if state.ndim != 2:
        raise ConfigError(f"initial states must be (n, d), got shape {state.shape}")
    n, runs = cfg.n_samples, state.shape[0]
    states, derivs = np.empty((n,) + state.shape), np.empty((n,) + state.shape)
    inputs = np.empty((n, runs, len(model.input_names)))
    length, exits = np.zeros(runs, dtype=int), [""] * runs
    live = np.arange(runs)
    for i in range(n):
        t = i * cfg.dt
        inputs[i] = controller(state, t)
        xdot, live = _on_running_rows(
            lambda rows: model.rhs(state[rows], inputs[i, rows], t), live, t, exits)
        if not live.size:
            break
        states[i], derivs[i, live], length[live] = state, xdot, i + 1
        if i == n - 1:
            break
        new, live = _on_running_rows(
            lambda rows: rk4_step(lambda xx, uu: model.rhs(xx, uu, t), state[rows],
                                  inputs[i, rows], cfg.dt), live, t + cfg.dt, exits)
        if not live.size:
            break
        state[live] = new
    kinds = sorted({d.kind for d in getattr(model, "disturbances", ())})
    times = np.arange(n) * cfg.dt
    return [Trajectory(times[:k].copy(), states[:k, r].copy(), inputs[:k, r].copy(),
                       derivs[:k, r].copy(),
                       disturbance_kind="+".join(kinds) if kinds else "none",
                       exit_reason=exits[r],
                       state_names=tuple(model.state_names),
                       input_names=tuple(model.input_names))
            for r, k in enumerate(length)]


# ---------------------------------------------------------------------------
# dataset files: one CSV per trajectory, t | states | inputs | xdot (one per
# state) | disturbance_kind, plus a JSON manifest


def write_dataset(trajectories, directory, manifest_extra: dict | None = None) -> list:
    """Write one CSV per trajectory plus a provenance manifest; returns paths."""
    os.makedirs(directory, exist_ok=True)
    paths, entries = [], []
    for i, traj in enumerate(trajectories):
        s_names = traj.state_names or [f"s{k}" for k in range(traj.states.shape[1])]
        i_names = traj.input_names or [f"u{k}" for k in range(traj.inputs.shape[1])]
        paths.append(os.path.join(directory, f"traj_{i:03d}.csv"))
        write_csv(paths[-1], ["t", *s_names, *i_names, *(f"xdot_{n}" for n in s_names),
                              "disturbance_kind"],
                  [traj.times, traj.states, traj.inputs, traj.derivs,
                   [traj.disturbance_kind] * len(traj)])
        entries.append({"file": os.path.basename(paths[-1]), "samples": len(traj),
                        "disturbance_kind": traj.disturbance_kind,
                        "exit_reason": traj.exit_reason})
    write_json(os.path.join(directory, "manifest.json"),
               {"trajectories": entries, **(manifest_extra or {})})
    return paths


def read_dataset(directory) -> list:
    """The manifest's trajectories, each file checked against its ``samples``."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = read_json(manifest_path)
    require_keys(manifest, manifest_path, ["trajectories"])
    out = []
    for i, entry in enumerate(manifest["trajectories"]):
        require_keys(entry, f"{manifest_path} trajectories[{i}]", ["file", "samples"])
        path = os.path.join(directory, entry["file"])
        header, block, kinds = read_csv(path, text_last=True)
        n_state = sum(h.startswith("xdot_") for h in header)
        if not n_state:
            raise ConfigError(f"{path}:1: missing xdot columns in header")
        if len(block) != entry["samples"]:
            raise ConfigError(f"{path}: {len(block)} rows, the manifest says "
                              f"{entry['samples']} samples")
        times, states, inputs, derivs = (c.copy() for c in np.split(
            block, [1, 1 + n_state, block.shape[1] - n_state], axis=1))
        out.append(Trajectory(times[:, 0], states, inputs, derivs,
                              kinds[-1] if kinds else entry.get("disturbance_kind", "none"),
                              entry.get("exit_reason", ""), tuple(header[1:1 + n_state]),
                              tuple(header[1 + n_state:-1 - n_state])))
    return out


def write_points(points, path) -> None:
    """Collocation samples [(state, input), ...] to a two-block CSV."""
    states, inputs, _ = stack_points(points)
    if not len(states):
        raise ConfigError("refusing to write an empty collocation file")
    write_csv(path, [*(f"state_{i}" for i in range(states.shape[1])),
                     *(f"input_{i}" for i in range(inputs.shape[1]))], [states, inputs])


def read_points(path) -> list:
    header, block, _ = read_csv(path)
    ns = sum(1 for h in header if h.startswith("state_"))
    return list(zip(block[:, :ns], block[:, ns:]))


def derivative_samples(trajectories, noise_sigma: float = 0.0, seed: int = 0):
    """Stack (states, inputs, xdot) from trajectories; optional zero-mean
    Gaussian noise on the derivative channel only."""
    states = np.concatenate([t.states for t in trajectories])
    inputs = np.concatenate([t.inputs for t in trajectories])
    derivs = np.concatenate([t.derivs for t in trajectories])
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        derivs = derivs + rng.normal(0.0, noise_sigma, size=derivs.shape)
    return states, inputs, derivs


# ---------------------------------------------------------------------------
# stock dataset generators


def generate_kinematic_dataset(model, cfg: SimulationConfig,
                               radius: float = 20.0, n_waypoints: int = 1000,
                               n_arcs: int = 4, n_straights: int = 3) -> list:
    """Circular tracking run + random constant-steer arcs + straight runs.

    Covers the heading/speed/steering box the collocation bounds describe
    while keeping every trajectory dynamically feasible.
    """
    rng = np.random.default_rng(cfg.seed)
    path = circular_path(radius, n_waypoints)
    start = np.array([[radius, 0.0, math.pi / 2.0]])  # tangent start on the circle
    trajs = simulate(model, PurePursuitController(path, cfg), cfg, start)

    short = SimulationConfig(dt=cfg.dt, total_time=min(cfg.total_time, 8.0),
                             wheelbase=cfg.wheelbase, lookahead=cfg.lookahead,
                             speed=cfg.speed, seed=cfg.seed)
    inputs, starts = [], []
    for k in range(n_arcs + n_straights):
        v = rng.uniform(0.5, 5.0)
        inputs.append([v, rng.uniform(-DELTA_MAX, DELTA_MAX) if k < n_arcs else 0.0])
        starts.append([rng.uniform(-20, 20), rng.uniform(-5, 5),
                       rng.uniform(-0.5236, 0.5236)])
    inputs = np.array(inputs).reshape(-1, 2)
    return trajs + simulate(model, lambda states, t: inputs, short,
                            np.array(starts).reshape(-1, 3))


# designed excitation schedule for the desk-scale car: two straight-line
# speed sweeps that pin the drivetrain, then a slalom severity ladder that
# walks the tires from moderate slip to full saturation.
_LONGITUDINAL_RUNS = ((1.6, 0.7, 0.15), (2.6, 0.6, 0.25))  # (v0, dv, fv)
_SLALOM_RUNS = (  # (amplitude, v0, steer frequency)
    (0.25, 1.6, 0.20), (0.30, 2.8, 0.45), (0.36, 2.0, 0.30),
    (0.42, 3.0, 0.35), (0.48, 2.4, 0.25), (DELTA_MAX, 2.6, 0.40),
)


def generate_dynamic_dataset(model, n_runs: int = 8, duration: float = 20.0,
                             dt: float = 0.02, seed: int = 0) -> list:
    """Designed maneuver ladder for the desk-scale car.

    Straight-line speed sweeps pin the drivetrain coefficients; the slalom
    ladder sweeps steering severity up to tire saturation. The seed only
    jitters the slalom phases, so every seed sees the same excitation ladder.
    """
    rng = np.random.default_rng(seed)
    cfg = SimulationConfig(dt=dt, total_time=duration, speed=0.0, seed=seed)
    schedule = []
    for v0, dv, fv in _LONGITUDINAL_RUNS:
        schedule.append((0.0, v0, 0.3, dv, fv, 0.0))
    for amp, v0, f1 in _SLALOM_RUNS:
        schedule.append((amp, v0, f1, 0.2, 0.2, rng.uniform(0.0, 2.0 * math.pi)))
    if not 0 <= n_runs <= len(schedule):
        raise ConfigError(f"n_runs={n_runs}: the ladder has 0..{len(schedule)} runs")
    amp, v0, f1, dv, fv, phase = np.array(schedule[:n_runs]).reshape(-1, 6).T

    def steer(t):
        return (amp * np.sin(2.0 * math.pi * f1 * t + phase)
                + 0.2 * amp * math.sin(2.0 * math.pi * 0.8 * t))

    def v_set(t):
        return v0 + dv * np.sin(2.0 * math.pi * fv * t)

    controller = ManeuverController(steer, v_set, k_speed=1.5, throttle_ff=0.25)
    s0 = np.zeros((v0.size, 6))
    s0[:, 3] = v0
    return simulate(model, controller, cfg, s0)
