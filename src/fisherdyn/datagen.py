"""Synthetic experiment data.

Looped reference paths, a pure-pursuit controller (constant :data:`LOOKAHEAD`
and :data:`SPEED`), closed-loop RK4 rollouts (controller re-evaluated every
step, disturbance forces held within a step like the inputs), and dataset files
that round-trip bit-exactly: a CSV per trajectory and a JSON manifest.

``simulate`` steps a stack of runs together: each time step makes one
controller call on all (n, d) states and, on the runs still inside the
model's envelope, 1 + 3 ``rhs`` calls: the recorded derivative, which is also
the first RK4 stage, then the RK4 step's three later stages. A run that
leaves the envelope (a ``DomainError`` naming its row) is truncated there
with the reason recorded, and the step is redone for the others. While
every run is live, a step reads and writes the state, input and derivative
buffers through full slices, views that gather no rows; after the first
exit it indexes them with the live rows. A controller output that does not
fit the (n, m) inputs raises ``ConfigError`` naming both shapes and t, and a
step that leaves a run's state non-finite raises ``EvaluationError`` naming
t, the runs and whether their inputs were already non-finite.

Recorded headings are left unwrapped (continuous) so that rollout losses and
finite differences across a lap stay smooth; the (-pi, pi] convention is
applied only inside controller geometry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._codec import read_csv, read_json, require_keys, write_csv, write_json
from .dynamics import DELTA_MAX, ConfigError, _check_fields, on_accepted_rows, wrap_angle
from .numerics import EvaluationError, rk4_step

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
    "derivative_samples",
    "time_step",
    "generate_kinematic_dataset",
    "generate_dynamic_dataset",
]

# Pure pursuit's look-ahead and speed; the kinematic tracking circle's radius and size.
LOOKAHEAD, SPEED = 3.0, 2.0
TRACK_RADIUS, TRACK_WAYPOINTS = 20.0, 1000


@dataclass(frozen=True)
class ReferencePath:
    waypoints: np.ndarray  # (n, 2)

    def __post_init__(self):
        pts = np.asarray(self.waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ConfigError("a path needs at least two (x, y) waypoints")
        _check_fields("ReferencePath.", {"waypoints": pts}, {})
        if np.any(np.all(np.diff(pts, axis=0, append=pts[:1]) == 0.0, axis=1)):
            raise ConfigError("consecutive waypoints (the last and the first too) must be distinct")
        object.__setattr__(self, "waypoints", pts)

    @cached_property
    def segment_lengths(self) -> np.ndarray:
        """Length of each segment, the last closing the loop; computed once."""
        pts = self.waypoints
        return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 0.1
    total_time: float = 31.0
    seed: int = 0

    def __post_init__(self):
        _check_fields("SimulationConfig.", {"dt": self.dt, "total_time": self.total_time},
                      {"dt": "> 0"})
        if self.total_time < self.dt:
            raise ConfigError("need SimulationConfig.total_time >= dt")

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
    return ReferencePath(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))


def lookahead_steer(state, path: ReferencePath, d_lookahead: float, L: float) -> float:
    """Pure-pursuit steering toward the path point >= d_lookahead ahead.

    delta = arctan(2 L sin(alpha) / d_lookahead), alpha the heading error to
    the target point, clamped to +-DELTA_MAX.
    """
    x, y, theta = state[0], state[1], state[2]
    pts = path.waypoints
    idx = int(np.argmin(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))
    seg = path.segment_lengths
    n = pts.shape[0]
    acc = 0.0
    for _ in range(n):
        acc += seg[idx]
        idx = (idx + 1) % n
        if acc >= d_lookahead:
            break
    target = pts[idx]

    alpha = wrap_angle(math.atan2(target[1] - y, target[0] - x) - theta)
    delta = math.atan(2.0 * L * math.sin(alpha) / d_lookahead)
    return float(np.clip(delta, -DELTA_MAX, DELTA_MAX))


class PurePursuitController:
    """Constant-speed pure pursuit for the kinematic bicycle of wheelbase L."""

    def __init__(self, path: ReferencePath, L: float):
        self.path = path
        self.L = L

    def __call__(self, states, t: float) -> np.ndarray:
        delta = [lookahead_steer(s, self.path, LOOKAHEAD, self.L) for s in states]
        return np.column_stack([np.full(len(delta), SPEED), delta])


class ManeuverController:
    """Scripted steering plus proportional speed hold for the dynamic model.

    steering(t) and throttle feedback T = clip(T_ff + k_speed (v_set(t) - vx))
    give repeatable slalom maneuvers without needing a racing line; a time-
    varying setpoint keeps the longitudinal channel excited. ``steer_fn(t)``
    and ``v_set(t)`` return a scalar for every run or an (n,) array, one
    value per run.
    """

    def __init__(self, steer_fn, v_set, k_speed: float = 1.0, throttle_ff: float = 0.2):
        self.steer_fn = steer_fn
        self.v_set = v_set
        self.k_speed = k_speed
        self.throttle_ff = throttle_ff

    def __call__(self, states, t: float) -> np.ndarray:
        vx = states[:, 3]
        out = np.empty((vx.size, 2))
        np.clip(self.throttle_ff + self.k_speed * (self.v_set(t) - vx), 0.0, 1.0, out=out[:, 0])
        np.clip(self.steer_fn(t), -DELTA_MAX, DELTA_MAX, out=out[:, 1])
        return out


def _on_running_rows(f, live, t: float, exits: list):
    """(f(rows), rows) on the ``live`` rows that stay in the envelope; the
    exit reasons of the others go to ``exits``."""
    result, live, reasons = on_accepted_rows(f, live)
    for row, reason in reasons.items():
        exits[row] = f"envelope exit at t={t:g}: {reason}"
    return result, live


def _nonfinite_step(t: float, runs, inputs) -> EvaluationError:
    """The error of the step from ``t`` that left ``runs`` with a non-finite
    state, naming those whose ``inputs`` (one row per run) are not finite."""
    bad = [r for r in runs.tolist() if not np.isfinite(inputs[r]).all()]
    cause = f"non-finite controller inputs in runs {bad}" if bad else "the state overflowed"
    return EvaluationError(f"the step from t={t:g} left runs {runs.tolist()} with a "
                           f"non-finite state: {cause}", runs)


def simulate(model, controller, cfg: SimulationConfig, initial_states) -> list:
    """Closed-loop rollouts of ``model`` (which carries its own disturbances)
    from (n, d) initial states; returns n trajectories.

    ``controller(states, t)`` maps all (n, d) states to (n, m) inputs; the
    rows of runs that have left the envelope keep their last state. Each run
    records n = total_time/dt + 1 samples with t_i = i*dt exactly; on an
    envelope exit it is truncated and the reason recorded. A controller
    output that does not fit (n, m) and a step that leaves a run's state
    non-finite raise the errors the module docstring describes.
    """
    state = np.array(initial_states, dtype=float)
    if state.ndim != 2:
        raise ConfigError(f"initial states must be (n, d), got shape {state.shape}")
    n, runs = cfg.n_samples, state.shape[0]
    states, derivs = np.empty((n,) + state.shape), np.empty((n,) + state.shape)
    inputs = np.empty((n, runs, len(model.input_names)))
    length, exits = np.zeros(runs, dtype=int), [""] * runs

    def at(rows):
        """``rows`` as a buffer index: the full slice, a view, while every run is live."""
        return rows if rows.size < runs else slice(None)

    def record(rows):
        return model.rhs(state[at(rows)], inputs[i, at(rows)], t)

    def advance(rows):
        try:
            return rk4_step(lambda xx, uu: model.rhs(xx, uu, t), state[at(rows)],
                            inputs[i, at(rows)], cfg.dt, derivs[i, at(rows)])
        except EvaluationError as err:
            raise _nonfinite_step(t, rows[err.rows], inputs[i]) from err

    live = np.arange(runs)
    for i in range(n):
        t = i * cfg.dt
        u = controller(state, t)
        try:
            inputs[i] = u
        except (TypeError, ValueError) as err:
            raise ConfigError(f"the controller's output at t={t:g} has shape {np.shape(u)}, "
                              f"not that of the inputs, {inputs.shape[1:]}") from err
        xdot, live = _on_running_rows(record, live, t, exits)
        if not live.size:
            break
        states[i], derivs[i, at(live)], length[at(live)] = state, xdot, i + 1
        if i == n - 1:
            break
        new, live = _on_running_rows(advance, live, t + cfg.dt, exits)
        if not live.size:
            break
        state[at(live)] = new
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


def write_dataset(trajectories, directory) -> list:
    """Write one CSV per trajectory plus a manifest of them; returns paths."""
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
    write_json(os.path.join(directory, "manifest.json"), {"trajectories": entries})
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
        header, block, kinds = read_csv(path)
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


def derivative_samples(trajectories):
    """Stack (states, inputs, xdot) from trajectories."""
    return tuple(np.concatenate([getattr(t, key) for t in trajectories])
                 for key in ("states", "inputs", "derivs"))


def time_step(trajectories) -> float:
    """The step of the trajectories with two or more samples; ``ValueError``
    if none has two, or naming those whose step differs from the first's."""
    steps = {i: float(t.times[1] - t.times[0])
             for i, t in enumerate(trajectories) if len(t) >= 2}
    if not steps:
        raise ValueError("no trajectory has two samples to read a time step from")
    first, dt = next(iter(steps.items()))
    differ = {i: s for i, s in steps.items() if not math.isclose(s, dt, rel_tol=1e-9)}
    if differ:
        raise ValueError(f"trajectories {sorted(differ)} have time steps "
                         f"{list(differ.values())}, trajectory {first} has {dt}")
    return dt


# ---------------------------------------------------------------------------
# stock dataset generators


def generate_kinematic_dataset(model, cfg: SimulationConfig,
                               n_arcs: int = 4, n_straights: int = 3) -> list:
    """Circular tracking run + random constant-steer arcs + straight runs.

    Covers the heading/speed/steering box the collocation bounds describe
    while keeping every trajectory dynamically feasible.
    """
    rng = np.random.default_rng(cfg.seed)
    path = circular_path(TRACK_RADIUS, TRACK_WAYPOINTS)
    start = np.array([[TRACK_RADIUS, 0.0, math.pi / 2.0]])  # tangent start on the circle
    trajs = simulate(model, PurePursuitController(path, model.params.L), cfg, start)

    short = replace(cfg, total_time=min(cfg.total_time, 8.0))
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
    cfg = SimulationConfig(dt=dt, total_time=duration)
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
