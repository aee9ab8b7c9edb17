import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fisherdyn import dynamics, estimator
from fisherdyn.datagen import generate_dynamic_dataset
from fisherdyn.dynamics import (DrivetrainCoefficients, DynamicModel, TirePair,
                                VehicleParams, velocity_rate_partials, velocity_rates)
from fisherdyn.estimator import (EstimatorConfig, EstimatorModel,
                                 _physics_step, build_windows,
                                 coefficients_to_structs, default_guard_bounds,
                                 predict_next_velocities, train_coefficient_estimator,
                                 true_coefficients)
from fisherdyn.nets import physics_guard, physics_guard_derivative
from fisherdyn.numerics import rk4_step

from oracles import loop_windows, scalar_dynamic_rhs
from test_dynamics import DISTURBANCE_SETS, TIRE_PAIRS


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def training_peak_and_window_bytes(cfg, duration):
    """Traced peak of training ``cfg`` on a ``duration`` s ladder, and the
    bytes of its window arrays."""
    trajs = generate_dynamic_dataset(DynamicModel(), duration=duration, seed=3)
    windows = build_windows(trajs, cfg.tau)
    peak = traced_peak(lambda: train_coefficient_estimator(cfg, trajs, P, TEMPLATE))
    return peak, sum(a.nbytes for a in (windows.features, windows.base_states,
                                         windows.targets))


def velocity_batch(rng, n):
    """Rows (vx, vy, omega, throttle, delta) and per-row coefficients near the truth."""
    states = np.column_stack([rng.uniform(0.8, 3.5, n), rng.uniform(-0.5, 0.5, n),
                              rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, 1.0, n),
                              rng.uniform(-0.5, 0.5, n)])
    truth = true_coefficients(TirePair.default(), DrivetrainCoefficients())
    return states, truth * rng.uniform(0.8, 1.2, size=(n, 12))


class TestPredictNextVelocities:
    p = VehicleParams()
    template = TirePair.default()

    def test_matches_scalar_rk4_per_row(self):
        states, coef = velocity_batch(np.random.default_rng(51), 64)
        pred = predict_next_velocities(states, coef, self.p, self.template, 0.02)
        for row, c, out in zip(states, coef, pred):
            tires, drive = coefficients_to_structs(c, self.template)

            def velocity_rhs(vel, u):
                s = np.concatenate([np.zeros(3), vel])
                return scalar_dynamic_rhs(s, u, self.p, tires, drive)[3:]

            ref = rk4_step(velocity_rhs, row[:3], row[3:], 0.02)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rates_compute_no_jacobian_partials(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Jacobian partial was computed")

        monkeypatch.setattr(dynamics, "_tire_slope", forbidden)
        for name in ("jacobian", "coefficient_partials"):
            monkeypatch.setattr(dynamics._VelocityTerms, name, forbidden)
        states, coef = velocity_batch(np.random.default_rng(52), 8)
        predict_next_velocities(states, coef, self.p, self.template, 0.02)
        s = np.column_stack([np.zeros((8, 3)), states[:, :3]])
        roll = [dynamics.DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0,
                                                stiffness_sensitivity=3.0)]
        model = DynamicModel(self.p, self.template, DrivetrainCoefficients(), roll)
        model.rhs(s, states[:, 3:])
        with pytest.raises(AssertionError, match="partial"):
            model.jacobian(s, states[:, 3:])

    def test_jacobian_computes_no_rates_or_coefficient_partials(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("rates or coefficient partials were computed")

        for name in ("velocity_rates", "_lateral_forcing"):
            monkeypatch.setattr(dynamics, name, forbidden)
        for name in ("rates", "coefficient_partials"):
            monkeypatch.setattr(dynamics._VelocityTerms, name, forbidden)
        states, _ = velocity_batch(np.random.default_rng(53), 8)
        s = np.column_stack([np.zeros((8, 3)), states[:, :3]])
        every_kind = [d for dists in DISTURBANCE_SETS[1:6] for d in dists]
        DynamicModel(self.p, self.template, DrivetrainCoefficients(),
                     every_kind).jacobian(s, states[:, 3:])


# ---------------------------------------------------------------------------
# exact gradient of the physics step, backward pass and training


P = VehicleParams()
TEMPLATE = TirePair.default()
TRUTH = true_coefficients(TEMPLATE, DrivetrainCoefficients())
BOUNDS = default_guard_bounds(TEMPLATE, DrivetrainCoefficients())
WIDTH = BOUNDS.upper - BOUNDS.lower


@pytest.fixture(scope="module")
def clean_trajectories():
    """A short disturbance-free maneuver ladder: speed sweeps and slaloms."""
    return generate_dynamic_dataset(DynamicModel(), n_runs=8, duration=1.0, dt=0.02, seed=3)


def stub_model(cfg=EstimatorConfig()):
    """An estimator with the default brackets and unnormalized features."""
    return EstimatorModel(cfg, BOUNDS, P, TEMPLATE, 0.02, np.zeros(7), np.ones(7))


def column_rel_err(exact, fd):
    """Largest error of each coefficient column relative to that column's scale."""
    axes = tuple(range(exact.ndim - 1))
    return np.max(np.abs(exact - fd), axis=axes) / np.max(np.abs(fd), axis=axes)


class TestVelocityRatePartials:
    def test_rates_are_velocity_rates(self):
        states, coef = velocity_batch(np.random.default_rng(61), 64)
        for tires in TIRE_PAIRS:
            rates, _, _ = velocity_rate_partials(states[:, :3], states[:, 3:], P, coef, tires)
            assert np.array_equal(rates, velocity_rates(states[:, :3], states[:, 3:], P,
                                                        coef, tires))

    def test_velocity_block_is_dynamic_jacobian(self):
        states, _ = velocity_batch(np.random.default_rng(62), 64)
        s = np.column_stack([np.zeros((64, 3)), states[:, :3]])
        for tires in TIRE_PAIRS:
            coef = true_coefficients(tires, DrivetrainCoefficients())
            _, d_vel, _ = velocity_rate_partials(states[:, :3], states[:, 3:], P, coef, tires)
            jac = DynamicModel(P, tires, DrivetrainCoefficients()).jacobian(s, states[:, 3:])
            scale = np.max(np.abs(jac[:, 3:, 3:]), axis=(1, 2))[:, None, None]
            assert np.all(np.abs(d_vel - jac[:, 3:, 3:]) <= 1e-12 * scale)

    def test_one_tire_evaluation_per_axle(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return tire_terms(*args)

        tire_terms = dynamics._tire_terms
        monkeypatch.setattr(dynamics, "_tire_terms", counted)
        states, coef = velocity_batch(np.random.default_rng(60), 64)
        vel, u = states[:, :3], states[:, 3:]
        _, d_vel, _ = velocity_rate_partials(vel, u, P, coef, TEMPLATE)
        assert len(calls) == 2
        # the dynamic model's Jacobian law, at per-row coefficients
        terms = dynamics._VelocityTerms(vel, u, P, coef, TEMPLATE)
        assert np.array_equal(d_vel, terms.jacobian(map(dynamics._tire_slope, terms.axles())))

    def test_coefficient_partials_vs_central_differences(self):
        states, coef = velocity_batch(np.random.default_rng(63), 64)
        vel, u = states[:, :3], states[:, 3:]
        _, _, d_coef = velocity_rate_partials(vel, u, P, coef, TEMPLATE)
        fd = np.empty_like(d_coef)
        for j in range(12):
            h = np.zeros(12)
            h[j] = 1e-5 * WIDTH[j]
            fd[..., j] = (velocity_rates(vel, u, P, coef + h, TEMPLATE)
                          - velocity_rates(vel, u, P, coef - h, TEMPLATE)) / (2.0 * h[j])
        assert np.all(column_rel_err(d_coef, fd) <= 1e-6)


class TestPhiGradient:
    def test_matches_central_differences_of_batch_loss(self):
        rng = np.random.default_rng(64)
        states, phi = velocity_batch(rng, 96)
        targets = (predict_next_velocities(states, TRUTH, P, TEMPLATE, 0.02)
                   + rng.normal(scale=1e-3, size=(96, 3)))

        def row_losses(c):
            resid = predict_next_velocities(states, c, P, TEMPLATE, 0.02) - targets
            return np.sum(resid * resid, axis=1) / resid.size

        pred, pullback = _physics_step(stub_model(), states, phi)
        # the stages of the partials give the rates-only prediction exactly
        assert np.array_equal(pred, predict_next_velocities(states, phi, P, TEMPLATE, 0.02))
        exact = pullback((pred - targets) * (2.0 / pred.size))
        # each row's loss depends on that row's coefficients only, so one
        # perturbed column gives the central difference of every row
        fd = np.empty_like(exact)
        for j in range(12):
            h = np.zeros(12)
            h[j] = 1e-4 * WIDTH[j]
            fd[:, j] = (row_losses(phi + h) - row_losses(phi - h)) / (2.0 * h[j])
        assert np.all(column_rel_err(exact, fd) <= 1e-6)

    def test_true_coefficients_give_zero_loss_on_clean_data(self, clean_trajectories):
        windows = build_windows(clean_trajectories, 5)
        phi = np.broadcast_to(TRUTH, (len(windows), 12))
        pred = predict_next_velocities(windows.base_states, phi, P, TEMPLATE, 0.02)
        # the simulation steps the same stacked rates, so the loss is zero up
        # to round-off
        scale = np.max(np.abs(windows.targets))
        assert np.mean((pred - windows.targets) ** 2) <= (1e-14 * scale) ** 2


class TestBuildWindows:
    def test_matches_the_window_loop_bit_for_bit(self, clean_trajectories):
        short = replace(clean_trajectories[2], times=clean_trajectories[2].times[:5],
                        states=clean_trajectories[2].states[:5],
                        inputs=clean_trajectories[2].inputs[:5])
        trajs = [clean_trajectories[0], short, clean_trajectories[1]]
        for tau in (1, 4, 5):
            windows = build_windows(trajs, tau)
            features, bases, targets, sources = loop_windows(trajs, tau)
            assert np.array_equal(windows.features, features)
            assert np.array_equal(windows.base_states, bases)
            assert np.array_equal(windows.targets, targets)
            assert windows.sources == sources
            assert windows.features.flags.c_contiguous

    def test_too_short_is_named(self, clean_trajectories):
        with pytest.raises(ValueError, match="too short"):
            build_windows(clean_trajectories, len(clean_trajectories[0]))


class TestEstimatorModel:
    def test_backward_vs_finite_differences(self, clean_trajectories):
        windows = build_windows(clean_trajectories, 3)
        cfg = EstimatorConfig(tau=3, hidden_size=6, head_width=5, seed=4)
        model = stub_model(cfg)
        model.head.weights[-1] *= 100.0  # undo the small start, so the GRU matters
        idx = np.arange(0, len(windows), 4)

        def loss():
            phi = model.estimate(windows.features[idx])
            pred = predict_next_velocities(windows.base_states[idx], phi, P, TEMPLATE, 0.02)
            return float(np.mean((pred - windows.targets[idx]) ** 2))

        phi, cache = model.estimate(windows.features[idx], with_cache=True)
        pred, pullback = _physics_step(model, windows.base_states[idx], phi)
        grads = model.backward(cache, pullback((pred - windows.targets[idx])
                                               * (2.0 / pred.size)))
        params = model.param_list()
        rng = np.random.default_rng(65)
        # Wz, Un, bn of the GRU and both head weight matrices
        for k in (0, 7, 8, 9, 11):
            for _ in range(3):
                i = tuple(rng.integers(s) for s in params[k].shape)
                old = params[k][i]
                h = 1e-6 * max(1.0, abs(old))
                params[k][i] = old + h
                up = loss()
                params[k][i] = old - h
                dn = loss()
                params[k][i] = old
                fd = (up - dn) / (2.0 * h)
                assert abs(grads[k][i] - fd) <= 1e-5 * max(abs(fd), np.max(np.abs(grads[k])))

    def test_estimate_without_cache_is_the_cached_estimate_bit_for_bit(self):
        model = stub_model(EstimatorConfig(seed=3))
        model.head.weights[-1] *= 100.0
        feats = np.random.default_rng(3).normal(size=(300, 5, 7))
        phi = model.estimate(feats)
        assert np.array_equal(phi, model.estimate(feats, with_cache=True)[0])

    def test_inference_peaks_below_one_gru_cache(self):
        """Backprop through time keeps 4 (n, hidden) arrays per step; the
        inference pass keeps none of them."""
        cfg = EstimatorConfig(seed=2)
        model = stub_model(cfg)
        n = 2000
        feats = np.random.default_rng(2).normal(size=(n, cfg.tau, 7))
        gru_cache_bytes = cfg.tau * 4 * n * cfg.hidden_size * 8

        def peak(**kwargs):
            return traced_peak(lambda: model.estimate(feats, **kwargs))

        assert peak() < gru_cache_bytes < peak(with_cache=True)

    def test_guard_stays_inside_bounds_for_large_z(self):
        model = stub_model()
        for z in (-800.0, -40.0, 40.0, 800.0):
            with np.errstate(all="raise"):
                phi = physics_guard(np.full((2, 12), z), model.bounds)
                slope = physics_guard_derivative(np.full((2, 12), z), model.bounds)
            assert np.all(phi > BOUNDS.lower) and np.all(phi < BOUNDS.upper)
            assert np.all(np.isfinite(slope)) and np.all(slope > 0.0)


class TestTraining:
    def test_deterministic_per_seed(self, clean_trajectories):
        cfg = EstimatorConfig(epochs=2, batch_size=128, hidden_size=8, head_width=8, seed=5)
        runs = [train_coefficient_estimator(cfg, clean_trajectories, P, TEMPLATE)
                for _ in range(2)]
        assert runs[0].loss_curve == runs[1].loss_curve
        assert np.array_equal(runs[0].phi_records, runs[1].phi_records)
        other = train_coefficient_estimator(replace(cfg, seed=6), clean_trajectories, P, TEMPLATE)
        assert other.loss_curve != runs[0].loss_curve

    def test_peak_grows_with_the_windows_not_their_transients(self):
        # The final estimate runs batch by batch: from a 4 s to a 20 s ladder
        # (1,568 to 7,968 windows) the peak grows by the window arrays alone.
        cfg = EstimatorConfig(epochs=1)
        (short, short_windows), (long, long_windows) = (
            training_peak_and_window_bytes(cfg, duration) for duration in (4.0, 20.0))
        assert long - short <= long_windows - short_windows + 2**20

    def test_training_keeps_one_batch_of_backward_state(self):
        """Beyond the window arrays, training holds one batch's GRU cache (4
        tau (batch, hidden) arrays) plus smaller head and physics state, not
        two batches' caches at once."""
        cfg = EstimatorConfig(epochs=1)
        gru_cache_bytes = cfg.tau * 4 * cfg.batch_size * cfg.hidden_size * 8
        peak, window_bytes = training_peak_and_window_bytes(cfg, 4.0)
        assert peak - window_bytes < 2.5 * gru_cache_bytes

    def test_one_batch_evaluates_each_stage_once(self, clean_trajectories, monkeypatch):
        """The stage partials give the prediction too: 4 partial calls a batch
        and no rates-only call."""
        calls = {"velocity_rate_partials": 0, "velocity_rates": 0}

        def counted(name):
            original = getattr(dynamics, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(estimator, name, counted(name))
        cfg = EstimatorConfig(epochs=1, hidden_size=4, head_width=4)
        assert len(build_windows(clean_trajectories, cfg.tau)) <= cfg.batch_size
        train_coefficient_estimator(cfg, clean_trajectories, P, TEMPLATE)
        assert calls == {"velocity_rate_partials": 4, "velocity_rates": 0}

    def test_final_estimate_keeps_no_backward_state(self, clean_trajectories, monkeypatch):
        """Only training batches run the cached GRU forward; the final
        estimate over every window runs ``gru_forward``."""
        windows = {"cached": 0, "plain": 0}

        def counted(kind, original):
            def wrapper(spec, history):
                windows[kind] += len(history)
                return original(spec, history)
            return wrapper

        monkeypatch.setattr(estimator, "gru_forward_cache",
                            counted("cached", estimator.gru_forward_cache))
        monkeypatch.setattr(estimator, "gru_forward", counted("plain", estimator.gru_forward))
        cfg = EstimatorConfig(epochs=2, batch_size=128, hidden_size=4, head_width=4)
        run = train_coefficient_estimator(cfg, clean_trajectories, P, TEMPLATE)
        n = len(build_windows(clean_trajectories, cfg.tau))
        assert windows == {"cached": 2 * n, "plain": n} and len(run.phi_records) == n

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("hidden_size", 0), ("head_width", 0), ("epochs", -1),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("tau", 0)])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"EstimatorConfig.{field} must be"):
            EstimatorConfig(**{field: value})

    def test_one_sample_trajectory_first_or_last(self, clean_trajectories):
        first = clean_trajectories[0]
        one = replace(first, times=first.times[:1], states=first.states[:1],
                      inputs=first.inputs[:1], derivs=first.derivs[:1])
        cfg = EstimatorConfig(epochs=0)
        for trajs in ([one, *clean_trajectories], [*clean_trajectories, one]):
            run = train_coefficient_estimator(cfg, trajs, P, TEMPLATE)
            assert run.model.Ts == 0.02 and len(run.phi_records) > 0

    def test_mixed_time_steps_are_rejected(self, clean_trajectories):
        fine = generate_dynamic_dataset(DynamicModel(), n_runs=1, duration=1.0, dt=0.01)
        with pytest.raises(ValueError, match=r"trajectories \[8\] have time steps \[0\.01\]"):
            train_coefficient_estimator(EstimatorConfig(epochs=0),
                                        [*clean_trajectories, *fine], P, TEMPLATE)

    def test_no_trajectories_is_named(self):
        with pytest.raises(ValueError, match="no trajectories were given"):
            train_coefficient_estimator(EstimatorConfig(epochs=1), [], P, TEMPLATE)

    def test_short_run_lowers_the_loss(self, clean_trajectories):
        cfg = EstimatorConfig(epochs=5, batch_size=128, seed=1)
        run = train_coefficient_estimator(cfg, clean_trajectories, P, TEMPLATE)
        assert not run.diverged and len(run.loss_curve) == 5
        assert run.loss_curve[-1] < 0.5 * run.loss_curve[0]
        assert np.all(run.phi_records > BOUNDS.lower) and np.all(run.phi_records < BOUNDS.upper)
