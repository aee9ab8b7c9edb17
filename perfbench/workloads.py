"""The benchmark's three workloads.

Each workload has three parts:

* ``setup(seed, size, workdir)`` builds the models and generates every input
  from the seed; the library never sees the seed itself, only what is derived
  from it. ``workdir`` is a directory the pipeline may write to;
* ``run(inputs, system)`` is the timed pipeline. ``system`` is applied to every
  system object before it is handed to the library, so that a traced run can
  wrap its ``rhs``/``jacobian`` pair; an untraced run passes the identity;
* ``check(inputs, out)`` raises :class:`CheckError` when an output is wrong.

The workloads are chosen so that the layers split cleanly between them:
``kinematic`` is dominated by MLP training, ``dynamic`` by stepped simulation,
CSV I/O and the GRU estimator, and ``dynamic_field`` by point-wise Jacobian,
sigma_max and Fisher-field work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from fisherdyn import datagen, estimator, fidelity, fisher, training
from fisherdyn.dynamics import (DELTA_MAX, VX_MIN, DisturbanceConfig,
                                DynamicModel, KinematicModel)
from fisherdyn.nets import LayerSpec


class CheckError(AssertionError):
    """An output of the benchmarked program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def same_system(system, kind: str):
    """The untraced ``system`` hook: hand the library the object itself."""
    return system


# Relative tolerance on 0 <= g/4 <= sigma_max^2: sigma_max comes from a power
# iteration stopped at a 1e-12 relative change, so it may sit just below the
# exact value.
BOUND_RTOL = 1e-8


def check_field_bound(field) -> float:
    """Check 0 <= g/4 <= sigma_max^2 at every valid point; return min slack."""
    valid = field.valid_mask()
    g = np.array([s.g for s in field.samples])[valid]
    sig2 = np.array([s.sigma_max_sq for s in field.samples])[valid]
    require(np.all(np.isfinite(g)) and np.all(g >= 0.0), "g < 0 or non-finite")
    slack = sig2 - g / 4.0
    require(np.all(slack >= -BOUND_RTOL * np.maximum(sig2, 1e-300)),
            f"g/4 > sigma_max^2 at {int(np.sum(slack < 0))} points")
    return float(np.min(slack)) if slack.size else math.inf


def skip_counts(fields) -> dict:
    domain = sum(s.skip.startswith("domain") for f in fields for s in f.samples)
    equilibrium = sum(s.skip == "equilibrium" for f in fields for s in f.samples)
    return {"fisher.skipped.domain": domain,
            "fisher.skipped.equilibrium": equilibrium}


# ---------------------------------------------------------------------------
# kinematic: dataset -> inverse-regime MLP -> true and learned fields -> verdict

# The inverse regime (physics residual plus RK4 trajectory matching) runs every
# kernel the physics-only regime runs, plus the rollout gradient.
KINEMATIC_LAYERS = (LayerSpec(32, "tanh"), LayerSpec(32, "tanh"),
                    LayerSpec(3, "linear"))
KINEMATIC_NET_SEED = 7
HORIZON = 5
GRAD_CHECK_MAX = 1e-4


@dataclass(frozen=True)
class KinematicSize:
    epochs: int = 20
    collocation: int = 1024
    total_time: float = 31.0


@dataclass
class KinematicInputs:
    model: KinematicModel
    sim: datagen.SimulationConfig
    bounds: training.CollocationBounds
    data_seed: int
    size: KinematicSize


def kinematic_setup(seed: int, size: KinematicSize, workdir: str) -> KinematicInputs:
    rng = np.random.default_rng(seed)
    sim_seed, data_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    return KinematicInputs(KinematicModel(),
                           datagen.SimulationConfig(total_time=size.total_time,
                                                    seed=sim_seed),
                           training.CollocationBounds(), data_seed, size)


def kinematic_run(inp: KinematicInputs, system) -> dict:
    model = system(inp.model, "analytic")
    trajs = datagen.generate_kinematic_dataset(model, inp.sim)
    data = training.build_training_data(model, inp.bounds, inp.size.collocation,
                                        seed=inp.data_seed, trajectories=trajs,
                                        horizon=HORIZON)
    net = training.build_kinematic_net(KINEMATIC_LAYERS, inp.bounds,
                                       seed=KINEMATIC_NET_SEED)
    cfg = training.RegimeConfig(regime="inverse", epochs=inp.size.epochs,
                                horizon=HORIZON, seed=KINEMATIC_NET_SEED,
                                grad_check=True)
    report = training.train_regime(net, cfg, data)

    points = [(s, u, t) for tr in trajs
              for s, u, t in zip(tr.states, tr.inputs, tr.times)]
    learned = system(net, "learned")
    true_field = fisher.evaluate_field(model, points)
    learned_field = fisher.evaluate_field(learned, points)
    _, e_fi_rel = fidelity.fisher_discrepancy(true_field, learned_field)
    jac_base = fidelity.jacobian_baseline(model, learned, points)
    traj_err = training.trajectory_loss(net, data.win_states, data.win_inputs,
                                        HORIZON, data.dt)
    verdict = fidelity.well_trained_verdict(traj_err, report.validation_loss,
                                            e_fi_rel)
    return {"report": report, "fields": (true_field, learned_field),
            "trajectories": trajs, "verdict": verdict["verdict"],
            "quality": {"e_fi_rel": e_fi_rel,
                        "physics_resid": report.validation_loss,
                        "traj_err": traj_err, "jacobian_baseline": jac_base}}


def kinematic_check(inp: KinematicInputs, out: dict) -> dict:
    rep = out["report"]
    require(not rep.diverged, "kinematic training diverged")
    require(len(rep.loss_curve) == inp.size.epochs, "training stopped early")
    require(rep.grad_check_rel_err < GRAD_CHECK_MAX,
            f"gradient check error {rep.grad_check_rel_err:.3e} >= {GRAD_CHECK_MAX}")
    require(rep.loss_curve[-1][0] < rep.initial_losses[0],
            "final training loss is not below the initial loss")
    require(all(math.isfinite(v) for v in out["quality"].values()),
            "non-finite kinematic quality metric")
    fields = out["fields"]
    slack = min(check_field_bound(f) for f in fields)
    n_points = len(fields[0])
    skips = skip_counts(fields)
    return {"attempted": rep.epochs + 2 * n_points,
            "failed": sum(skips.values()),
            "counters": {**skips, "fisher.bound_slack_min": slack,
                         "datagen.envelope_exits": sum(
                             bool(t.exit_reason) for t in out["trajectories"]),
                         "training.grad_check_rel_err": rep.grad_check_rel_err}}


# ---------------------------------------------------------------------------
# dynamic: disturbed maneuver ladder -> CSV round trip -> GRU estimator -> bias

# The combined bank + roll + tire-temperature set of the dynamics tests.
LADDER_DISTURBANCES = (
    DisturbanceConfig.bank(0.05),
    DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0, stiffness_sensitivity=3.0),
    DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=20.0,
                                       T_initial=60.0, T_rate=0.5),
)
ESTIMATOR_SEED = 3
SATURATION_BAND = 0.01  # share of the bracket width that counts as "at a bound"


@dataclass(frozen=True)
class DynamicSize:
    runs: int = 8
    duration: float = 4.0
    epochs: int = 3


@dataclass
class DynamicInputs:
    model: DynamicModel
    ladder_seed: int
    io_dir: str
    size: DynamicSize


def dynamic_setup(seed: int, size: DynamicSize, workdir: str) -> DynamicInputs:
    rng = np.random.default_rng(seed)
    return DynamicInputs(DynamicModel(disturbances=LADDER_DISTURBANCES),
                         int(rng.integers(0, 2**31)), workdir, size)


def dynamic_run(inp: DynamicInputs, system) -> dict:
    model = system(inp.model, "analytic")
    trajs = datagen.generate_dynamic_dataset(model, n_runs=inp.size.runs,
                                             duration=inp.size.duration,
                                             dt=0.02, seed=inp.ladder_seed)
    datagen.write_dataset(trajs, inp.io_dir)
    read_back = datagen.read_dataset(inp.io_dir)
    cfg = estimator.EstimatorConfig(epochs=inp.size.epochs, seed=ESTIMATOR_SEED)
    run = estimator.train_coefficient_estimator(cfg, read_back, inp.model.params,
                                                inp.model.tires)
    truth = estimator.true_coefficients(inp.model.tires, inp.model.drivetrain)
    table = fidelity.parameter_bias_table(estimator.COEFFICIENT_NAMES,
                                          run.phi_records, truth)
    return {"trajectories": trajs, "read_back": read_back, "run": run,
            "quality": {"est_loss": run.loss_curve[-1],
                        "bias_max_rel": float(np.max(table.relative_deviation()))}}


def _same_trajectory(a, b) -> bool:
    return (all(np.array_equal(getattr(a, k), getattr(b, k))
                for k in ("times", "states", "inputs", "derivs"))
            and (a.disturbance_kind, a.exit_reason, a.state_names, a.input_names)
            == (b.disturbance_kind, b.exit_reason, b.state_names, b.input_names))


def dynamic_check(inp: DynamicInputs, out: dict) -> dict:
    trajs, run = out["trajectories"], out["run"]
    exits = sum(bool(t.exit_reason) for t in trajs)
    require(exits == 0, f"{exits} ladder runs left the model envelope")
    require(len(out["read_back"]) == len(trajs)
            and all(map(_same_trajectory, trajs, out["read_back"])),
            "CSV round trip is not bit-exact")
    require(not run.diverged and len(run.loss_curve) == inp.size.epochs,
            "estimator training diverged")
    require(all(math.isfinite(v) for v in out["quality"].values()),
            "non-finite dynamic quality metric")
    lo, hi = run.model.bounds.lower, run.model.bounds.upper
    phi = run.phi_records
    require(np.all(phi > lo) and np.all(phi < hi),
            "Physics Guard output on or outside its bounds")
    band = SATURATION_BAND * (hi - lo)
    saturated = (phi - lo < band) | (hi - phi < band)
    return {"attempted": len(trajs) + inp.size.epochs,
            "failed": exits + int(run.diverged),
            "counters": {"datagen.envelope_exits": exits,
                         "estimator.guard_saturation": float(np.mean(saturated))}}


# ---------------------------------------------------------------------------
# dynamic_field: fully disturbed model vs its nominal twin at independent points

FIELD_DISTURBANCES = (
    DisturbanceConfig.wind(rho=1.2, area=0.002, Cw=1.0, vw=5.0),
    DisturbanceConfig.bank(0.08),
    DisturbanceConfig.bump(ks=20.0, cs=0.5, z_amplitude=0.005, z_frequency=2.0),
    DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0, stiffness_sensitivity=3.0),
    DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=20.0,
                                       T_initial=60.0, T_rate=0.5),
)
# Sampling box over (x, y, theta, vx, vy, omega, throttle, delta, t). The vx
# interval puts 0.2 / 3.3 ~ 6% of the points below VX_MIN, so the domain-skip
# path runs at a known share.
FIELD_LOWER = np.array([-5.0, -5.0, -math.pi, 0.3, -0.6, -4.0, 0.0, -DELTA_MAX, 0.0])
FIELD_UPPER = np.array([5.0, 5.0, math.pi, 3.6, 0.6, 4.0, 1.0, DELTA_MAX, 20.0])


@dataclass(frozen=True)
class FieldSize:
    points: int = 1500


@dataclass
class FieldInputs:
    model: DynamicModel
    nominal: DynamicModel
    points: list
    below_vx_min: np.ndarray  # indices the generator put outside the envelope
    size: FieldSize


def field_setup(seed: int, size: FieldSize, workdir: str) -> FieldInputs:
    raw = np.random.default_rng(seed).uniform(FIELD_LOWER, FIELD_UPPER,
                                              size=(size.points, FIELD_LOWER.size))
    points = [(row[:6], row[6:8], float(row[8])) for row in raw]
    model = DynamicModel(disturbances=FIELD_DISTURBANCES)
    return FieldInputs(model, model.without_disturbances(), points,
                       np.flatnonzero(raw[:, 3] <= VX_MIN), size)


def field_run(inp: FieldInputs, system) -> dict:
    disturbed = system(inp.model, "analytic")
    nominal = system(inp.nominal, "analytic")
    true_field = fisher.evaluate_field(disturbed, inp.points)
    nominal_field = fisher.evaluate_field(nominal, inp.points)
    _, e_fi_rel = fidelity.fisher_discrepancy(true_field, nominal_field)
    valid = [p for p, ok in zip(inp.points, true_field.valid_mask()) if ok]
    jac_base = fidelity.jacobian_baseline(disturbed, nominal, valid)
    return {"fields": (true_field, nominal_field),
            "quality": {"e_fi_rel": e_fi_rel, "jacobian_baseline": jac_base}}


def field_check(inp: FieldInputs, out: dict) -> dict:
    fields = out["fields"]
    for f in fields:
        skipped = np.flatnonzero(~f.valid_mask())
        require(np.array_equal(skipped, inp.below_vx_min),
                f"skipped {skipped.size} points, expected exactly the "
                f"{inp.below_vx_min.size} generated below VX_MIN")
    slack = min(check_field_bound(f) for f in fields)
    require(all(math.isfinite(v) for v in out["quality"].values()),
            "non-finite field quality metric")
    # Planted out-of-envelope points are skipped by design: they are counted
    # in fisher.skipped.domain, not as failed operations.
    return {"attempted": sum(len(f) for f in fields), "failed": 0,
            "counters": {**skip_counts(fields), "fisher.bound_slack_min": slack}}


# ---------------------------------------------------------------------------
# registry and reference probes


@dataclass(frozen=True)
class Workload:
    setup: object   # (seed, size, workdir) -> inputs
    run: object     # (inputs, system) -> outputs, with a "quality" dict
    check: object   # (inputs, outputs) -> {"attempted", "failed", "counters"}
    full: object    # the size the benchmark measures
    tiny: object    # the size of the reference probe and the smoke tests
    reference_rtol: float


# The analytic pipeline agrees with any re-ordered but equivalent computation
# to ~1e-12; training amplifies such round-off differences, so the learned
# pipelines get looser tolerances.
WORKLOADS = {
    "kinematic": Workload(kinematic_setup, kinematic_run, kinematic_check,
                          KinematicSize(),
                          KinematicSize(epochs=3, collocation=64, total_time=5.0),
                          1e-6),
    "dynamic": Workload(dynamic_setup, dynamic_run, dynamic_check,
                        DynamicSize(), DynamicSize(runs=3, duration=2.0, epochs=1),
                        1e-5),
    "dynamic_field": Workload(field_setup, field_run, field_check,
                              FieldSize(), FieldSize(points=400), 1e-9),
}

# Every run re-evaluates its workload at the tiny size on this seed and
# compares the quality values with those recorded in reference.json.
REFERENCE_SEED = 20260117
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def reference_values(name: str, workdir: str) -> dict:
    wl = WORKLOADS[name]
    inp = wl.setup(REFERENCE_SEED, wl.tiny, workdir)
    out = wl.run(inp, same_system)
    wl.check(inp, out)
    return out["quality"]


def check_reference(name: str, workdir: str, recorded: dict) -> None:
    now = reference_values(name, workdir)
    rtol = WORKLOADS[name].reference_rtol
    for key, value in recorded.items():
        require(math.isclose(now[key], value, rel_tol=rtol),
                f"reference probe {name}.{key} = {now[key]!r}, recorded "
                f"{value!r} (rtol {rtol})")
