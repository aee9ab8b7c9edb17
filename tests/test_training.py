import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fisherdyn.datagen import SimulationConfig, generate_kinematic_dataset
from fisherdyn.dynamics import DynamicModel, KinematicModel
from fisherdyn.nets import LayerSpec, LearnedDynamicsModel, init_network, mlp_forward
from fisherdyn.training import (CollocationBounds, DivergedRolloutError, RegimeConfig,
                                build_kinematic_net, build_training_data, data_loss,
                                sample_collocation, trajectory_loss, train_regime,
                                _rollout_loss_grad)

from oracles import loop_mean_sq_norm, stagewise_rollout_loss_grad


class LinearSystem:
    """xdot = A x + B u; exactly representable by a linear net."""

    state_dim = 3
    input_dim = 2

    def __init__(self):
        self.A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.2, 0.3], [0.1, 0.0, -0.5]])
        self.B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.7]])

    def rhs(self, s, u, t=0.0):
        """One point (3,) or stacked points (n, 3)."""
        return np.asarray(s, float) @ self.A.T + np.asarray(u, float) @ self.B.T


SMALL_BOUNDS = CollocationBounds(np.array([-1.0, -1.0, -1.0, -1.0, -1.0]),
                                 np.array([1.0, 1.0, 1.0, 1.0, 1.0]))


class TestSampleCollocation:
    @pytest.mark.parametrize("field", ["lower", "upper"])
    def test_bounds_must_be_finite(self, field):
        box = {"lower": np.zeros(5), "upper": np.ones(5)}
        box[field][2] = math.nan
        with pytest.raises(ValueError, match=f"CollocationBounds.{field} must be finite"):
            CollocationBounds(**box)

    def test_degenerate_bounds(self):
        b = CollocationBounds(np.array([1.0, 2.0, 0.5, 3.0, -0.1]),
                              np.array([1.0, 2.0, 0.5, 3.0, -0.1]))
        states, inputs = sample_collocation(b, 1, seed=0, state_dim=3)
        assert np.allclose(states, [[1.0, 2.0, 0.5]])
        assert np.allclose(inputs, [[3.0, -0.1]])

    def test_uniform_statistics(self):
        b = CollocationBounds()
        arr = np.hstack(sample_collocation(b, 10_000, seed=1, state_dim=3))
        assert np.all(arr.min(axis=0) >= b.lower)
        assert np.all(arr.max(axis=0) <= b.upper)
        width = b.upper - b.lower
        sem = width / math.sqrt(12.0) / math.sqrt(10_000)
        mid = 0.5 * (b.lower + b.upper)
        assert np.all(np.abs(arr.mean(axis=0) - mid) < 3.0 * sem)

    def test_determinism(self):
        b = CollocationBounds()
        (s1, u1), (s2, u2) = (sample_collocation(b, 32, seed=9, state_dim=3) for _ in range(2))
        assert s1.shape == (32, 3) and u1.shape == (32, 2)
        assert np.array_equal(s1, s2) and np.array_equal(u1, u2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_collocation(CollocationBounds(), 0, seed=0, state_dim=3)


def exact_linear_net(sys: LinearSystem) -> LearnedDynamicsModel:
    params = init_network(5, (LayerSpec(3, "linear"),), seed=0)
    params.weights[0][:] = np.hstack([sys.A, sys.B])
    params.biases[0][:] = 0.0
    return LearnedDynamicsModel(params, 3, 2)


class TestLosses:
    # the physics residual is data_loss with the analytic rhs as targets
    def test_physics_loss_zero_for_exact_net(self):
        sys = LinearSystem()
        model = exact_linear_net(sys)
        states, inputs = sample_collocation(SMALL_BOUNDS, 50, seed=2, state_dim=3)
        assert data_loss(model, states, inputs, sys.rhs(states, inputs)) == pytest.approx(
            0.0, abs=1e-28)

    def test_physics_loss_zero_net_unit_targets(self):
        params = init_network(5, (LayerSpec(3, "linear"),), seed=0)
        params.weights[0][:] = 0.0
        model = LearnedDynamicsModel(params, 3, 2)
        targets = np.tile([1.0, 0.0, 0.0], (4, 1))  # |F|^2 = 1 everywhere
        assert data_loss(model, np.zeros((4, 3)), np.zeros((4, 2)), targets) == \
            pytest.approx(1.0)

    def test_physics_loss_vs_loop_oracle(self):
        sys = LinearSystem()
        model = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                    SMALL_BOUNDS, seed=3)
        states, inputs = sample_collocation(SMALL_BOUNDS, 37, seed=4, state_dim=3)
        pred = mlp_forward(model.params, model.normalize(states, inputs))
        targets = [sys.rhs(s, u) for s, u in zip(states, inputs)]
        assert data_loss(model, states, inputs, sys.rhs(states, inputs)) == pytest.approx(
            loop_mean_sq_norm(pred, targets), abs=1e-12)

    def test_data_loss_trivial(self):
        params = init_network(5, (LayerSpec(1, "linear"),), seed=0)
        params.weights[0][:] = 0.0
        model = LearnedDynamicsModel(params, 1, 4)
        s = np.zeros((1, 1))
        u = np.zeros((1, 4))
        assert data_loss(model, s, u, np.array([[2.0]])) == pytest.approx(4.0)

    def test_data_loss_additivity(self):
        sys = LinearSystem()
        model = build_kinematic_net((LayerSpec(8, "mish"), LayerSpec(3, "linear")),
                                    SMALL_BOUNDS, seed=5)
        rng = np.random.default_rng(5)
        s = rng.normal(size=(21, 3))
        u = rng.normal(size=(21, 2))
        d = rng.normal(size=(21, 3))
        full = data_loss(model, s, u, d)
        l1 = data_loss(model, s[:8], u[:8], d[:8])
        l2 = data_loss(model, s[8:], u[8:], d[8:])
        assert full == pytest.approx((8 * l1 + 13 * l2) / 21, rel=1e-12)


def make_windows(model, n_windows=3, horizon=4, dt=0.1, seed=6):
    """Roll the true kinematic model to build exact windows."""
    from fisherdyn.numerics import rk4_step
    rng = np.random.default_rng(seed)
    ws, wi = [], []
    for _ in range(n_windows):
        x = np.array([rng.uniform(-5, 5), rng.uniform(-2, 2), rng.uniform(-0.4, 0.4)])
        u = np.array([rng.uniform(1.0, 4.0), rng.uniform(-0.4, 0.4)])
        states = [x]
        inputs = []
        for _ in range(horizon):
            inputs.append(u)
            x = rk4_step(lambda s, uu: model.rhs(s, uu), x, u, dt)
            states.append(x)
        inputs.append(u)
        ws.append(np.stack(states))
        wi.append(np.stack(inputs))
    return np.stack(ws), np.stack(wi)


class TestTrajectoryLoss:
    def test_exact_net_matches_integrator(self):
        sys = LinearSystem()
        net = exact_linear_net(sys)
        ws, wi = make_windows(sys, horizon=5)
        assert trajectory_loss(net, ws, wi, 5, 0.1) == pytest.approx(0.0, abs=1e-22)

    def test_constant_data_zero_net(self):
        params = init_network(5, (LayerSpec(3, "linear"),), seed=0)
        params.weights[0][:] = 0.0
        net = LearnedDynamicsModel(params, 3, 2)
        ws = np.tile(np.array([1.0, 2.0, 0.5]), (2, 4, 1))
        wi = np.zeros((2, 4, 2))
        assert trajectory_loss(net, ws, wi, 3, 0.1) == 0.0

    def test_zero_horizon_rejected(self):
        net = exact_linear_net(LinearSystem())
        with pytest.raises(ValueError):
            trajectory_loss(net, np.zeros((1, 1, 3)), np.zeros((1, 1, 2)), 0, 0.1)

    def test_loss_is_the_gradient_passs_loss_bit_for_bit(self):
        net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=9)
        ws, wi = make_windows(KinematicModel(), n_windows=6, horizon=4)
        loss, _, _ = _rollout_loss_grad(net, ws, wi, 4, 0.1)
        assert trajectory_loss(net, ws, wi, 4, 0.1) == loss

    def test_loss_keeps_no_stage_buffers(self):
        # The gradient pass keeps every stage's layer outputs, 4 n sum(widths)
        # floats more per step; the loss alone keeps about one (n, d) array per step.
        widths = (32, 32, 3)
        net = build_kinematic_net(tuple(LayerSpec(w, a) for w, a in zip(
            widths, ("tanh", "tanh", "linear"))), SMALL_BOUNDS, seed=9)
        ws, wi = make_windows(KinematicModel(), n_windows=64, horizon=8)
        stage_bytes = ws.shape[0] * sum(widths) * 8

        def peak_growth(**kwargs):
            peaks = []
            for horizon in (2, 8):
                tracemalloc.start()
                try:
                    _rollout_loss_grad(net, ws, wi, horizon, 0.1, **kwargs)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks[1] - peaks[0]

        assert peak_growth(want_grad=False) < 6 * stage_bytes < peak_growth()

    def test_zero_windows_rejected(self):
        net = exact_linear_net(LinearSystem())
        with pytest.raises(ValueError, match="no trajectory windows"):
            trajectory_loss(net, np.zeros((0, 4, 3)), np.zeros((0, 4, 2)), 3, 0.1)

    def test_rollout_gradient_vs_finite_difference(self):
        model = KinematicModel()
        net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=7)
        ws, wi = make_windows(model, n_windows=3, horizon=4)
        _, grads, _ = _rollout_loss_grad(net, ws, wi, 4, 0.1)
        flat_p = net.params.param_list()
        flat_g = [a for pair in grads for a in pair]
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(len(flat_p)))
            idx = tuple(rng.integers(s) for s in flat_p[k].shape)
            arr = flat_p[k]
            old = arr[idx]
            h = 1e-6 * max(1.0, abs(old))
            arr[idx] = old + h
            lp = trajectory_loss(net, ws, wi, 4, 0.1)
            arr[idx] = old - h
            lm = trajectory_loss(net, ws, wi, 4, 0.1)
            arr[idx] = old
            fd = (lp - lm) / (2 * h)
            an = flat_g[k][idx]
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-7)


# Bounds whose centre is off the origin, so that the offset folded into layer 0
# is not zero.
OFFSET_BOUNDS = CollocationBounds(np.array([-3.0, -4.0, -0.5, 0.5, -0.3]),
                                  np.array([7.0, 2.0, 0.9, 4.0, 0.4]))


class TestStageStackedRollout:
    """``_rollout_loss_grad`` folds the input map into layer 0 and takes one
    weight-gradient product per layer and RK4 step; the oracle runs a full
    network pass and weight gradient per stage."""

    @pytest.mark.parametrize("horizon", [1, 4])
    @pytest.mark.parametrize("act", ["linear", "tanh", "sigmoid", "relu", "mish"])
    def test_agrees_with_the_stagewise_oracle(self, act, horizon):
        net = build_kinematic_net((LayerSpec(16, act), LayerSpec(8, act),
                                   LayerSpec(3, "linear")), OFFSET_BOUNDS, seed=31)
        ws, wi = make_windows(KinematicModel(), n_windows=7, horizon=horizon, seed=32)
        loss, grads, preds = _rollout_loss_grad(net, ws, wi, horizon, 0.1)
        ref_loss, ref_grads, ref_preds = stagewise_rollout_loss_grad(net, ws, wi, horizon, 0.1)
        assert loss == pytest.approx(ref_loss, rel=1e-13, abs=0.0)
        flat = [a for pair in grads for a in pair]
        ref = [a for pair in ref_grads for a in pair]
        assert [a.shape for a in flat] == [a.shape for a in ref]
        largest = max(np.max(np.abs(a)) for a in ref)
        assert largest > 0.0
        for a, b in zip(flat, ref):
            assert np.all(np.abs(a - b) <= 1e-12 * largest)
        for p, q in zip(preds, ref_preds, strict=True):
            assert np.allclose(p, q, rtol=1e-13, atol=0.0)

    def test_divergence_names_the_same_window_and_step(self):
        params = init_network(5, (LayerSpec(3, "linear"),), seed=0)
        params.weights[0][:] = np.hstack([1e30 * np.eye(3), np.zeros((3, 2))])
        net = LearnedDynamicsModel(params, 3, 2)
        ws = np.zeros((4, 6, 3))
        ws[:, 0, 0] = [1e-290, 1e-200, 1.0, 1e-250]
        wi = np.zeros((4, 6, 2))
        messages = []
        with np.errstate(all="ignore"):
            for rollout in (_rollout_loss_grad, stagewise_rollout_loss_grad):
                with pytest.raises(DivergedRolloutError) as err:
                    rollout(net, ws, wi, 5, 0.1)
                messages.append(str(err.value))
        assert messages[0] == messages[1] == "rollout diverged in window 2 at step 2"

    def test_gradient_peak_is_not_above_the_oracles(self):
        net = build_kinematic_net((LayerSpec(32, "tanh"), LayerSpec(32, "tanh"),
                                   LayerSpec(3, "linear")), OFFSET_BOUNDS, seed=33)
        ws, wi = make_windows(KinematicModel(), n_windows=51, horizon=5, seed=34)

        def peak(rollout):
            tracemalloc.start()
            try:
                rollout(net, ws, wi, 5, 0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(_rollout_loss_grad) <= peak(stagewise_rollout_loss_grad)


class TestBuildTrainingData:
    def test_stacked_targets_equal_per_point_rhs(self):
        model = KinematicModel()
        data = build_training_data(model, CollocationBounds(), 512, seed=22,
                                   n_validation=256)
        for states, inputs, targets in ((data.phys_states, data.phys_inputs, data.phys_targets),
                                        (data.val_states, data.val_inputs, data.val_targets)):
            per_point = np.stack([model.rhs(s, u) for s, u in zip(states, inputs)])
            assert np.array_equal(targets, per_point)

    def test_state_size_comes_from_the_model(self):
        model = DynamicModel()
        # (x, y, theta, vx, vy, omega, throttle, delta), vx above VX_MIN
        bounds = CollocationBounds(np.array([-1.0, -1.0, -0.5, 1.0, -0.3, -2.0, 0.0, -0.4]),
                                   np.array([1.0, 1.0, 0.5, 3.0, 0.3, 2.0, 1.0, 0.4]))
        data = build_training_data(model, bounds, 64, seed=23, n_validation=32)
        for states, inputs, targets in ((data.phys_states, data.phys_inputs, data.phys_targets),
                                        (data.val_states, data.val_inputs, data.val_targets)):
            assert states.shape[1:] == (6,) and inputs.shape[1:] == (2,)
            per_point = np.stack([model.rhs(s, u) for s, u in zip(states, inputs)])
            assert np.array_equal(targets, per_point)

    def test_bounds_must_cover_the_model(self):
        with pytest.raises(ValueError, match="collocation bounds of width 5 do not cover the "
                                             "model's state_dim 6 \\+ input_dim 2"):
            build_training_data(DynamicModel(), CollocationBounds(), 8, seed=0)

    def window_data(self, trajs):
        return build_training_data(KinematicModel(), CollocationBounds(), 16, seed=3,
                                   trajectories=trajs, horizon=5, n_validation=16)

    def test_one_sample_trajectory_first_or_last(self):
        trajs = generate_kinematic_dataset(KinematicModel(), SimulationConfig(total_time=2.0),
                                           n_arcs=1, n_straights=0)
        one = replace(trajs[0], times=trajs[0].times[:1], states=trajs[0].states[:1],
                      inputs=trajs[0].inputs[:1], derivs=trajs[0].derivs[:1])
        plain = self.window_data(trajs)
        for mixed in ([one, *trajs], [*trajs, one]):
            data = self.window_data(mixed)
            assert data.dt == plain.dt == 0.1
            assert np.array_equal(data.win_states, plain.win_states)

    def test_mixed_time_steps_are_rejected(self):
        coarse, fine = (generate_kinematic_dataset(KinematicModel(), SimulationConfig(
            dt=dt, total_time=2.0), n_arcs=1, n_straights=0) for dt in (0.1, 0.05))
        with pytest.raises(ValueError, match=r"trajectories \[2, 3\] have time steps"):
            self.window_data(coarse + fine)


class TestTrainRegime:
    def linear_data(self):
        sys = LinearSystem()
        return sys, build_training_data(sys, SMALL_BOUNDS, 256, seed=11)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("horizon", 0), ("epochs", -1), ("lr", 0.0), ("lr", -1.0),
        ("lr", float("nan")), ("lr", float("inf")), ("lambda_p", float("nan")),
        ("lambda_d", float("inf")), ("lambda_p", -1.0)])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"RegimeConfig.{field} must be"):
            RegimeConfig(**{field: value})

    def test_regime1_converges_on_linear_system(self):
        sys, data = self.linear_data()
        net = LearnedDynamicsModel(init_network(5, (LayerSpec(3, "linear"),), seed=12), 3, 2)
        cfg = RegimeConfig(regime="physics_only", epochs=2000, batch_size=256,
                           lr=1e-2, seed=12)
        report = train_regime(net, cfg, data)
        assert report.loss_curve[-1][0] < 1e-6
        assert report.grad_check_rel_err < 1e-4
        assert not report.diverged

    def test_regime1_total_equals_physics(self):
        sys, data = self.linear_data()
        net = build_kinematic_net((LayerSpec(4, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=13)
        cfg = RegimeConfig(regime="physics_only", lambda_d=5.0, epochs=3, seed=13,
                           grad_check=False)
        assert cfg.lambda_d == 0.0  # regime 1 forces the data weight off
        report = train_regime(net, cfg, data)
        for total, phys, dterm in report.loss_curve:
            assert total == phys and dterm == 0.0

    def test_epochs_zero_keeps_params(self):
        sys, data = self.linear_data()
        net = build_kinematic_net((LayerSpec(4, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=14)
        before = [w.copy() for w in net.params.weights]
        report = train_regime(net, RegimeConfig(epochs=0, seed=14, grad_check=False), data)
        assert report.loss_curve == []
        assert all(math.isfinite(v) for v in report.initial_losses)
        for w0, w1 in zip(before, net.params.weights):
            assert np.array_equal(w0, w1)

    def test_seed_determinism(self):
        sys, data = self.linear_data()
        curves = []
        for _ in range(2):
            net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                      SMALL_BOUNDS, seed=15)
            rep = train_regime(net, RegimeConfig(epochs=20, seed=15, grad_check=False),
                               data)
            curves.append(rep.loss_curve)
        assert curves[0] == curves[1]

    def trajectory_data(self, seed):
        model = KinematicModel()
        trajs = generate_kinematic_dataset(model, SimulationConfig(total_time=5.0),
                                           n_arcs=1, n_straights=1)
        return build_training_data(model, CollocationBounds(), 128, seed=seed,
                                   trajectories=trajs, horizon=5)

    def test_hybrid_and_inverse_run(self):
        data = self.trajectory_data(16)
        for regime in ("hybrid", "inverse"):
            net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                      CollocationBounds(), seed=16)
            rep = train_regime(net, RegimeConfig(regime=regime, epochs=3, seed=16,
                                                 batch_size=64, grad_check=True), data)
            assert len(rep.loss_curve) == 3
            assert rep.grad_check_rel_err < 1e-4
            assert not rep.diverged

    def test_zero_weights_physics_only_keeps_params(self):
        # no term has weight: the gradient check compares zeros, no step is taken
        sys, data = self.linear_data()
        net = build_kinematic_net((LayerSpec(4, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=23)
        before = [a.copy() for a in net.params.param_list()]
        rep = train_regime(net, RegimeConfig(regime="physics_only", lambda_p=0.0,
                                             epochs=3, seed=23, grad_check=True), data)
        assert rep.grad_check_rel_err == 0.0
        assert len(rep.loss_curve) == 3 and not rep.diverged
        for a0, a1 in zip(before, net.params.param_list()):
            assert np.array_equal(a0, a1)

    def test_zero_physics_weight_inverse_gradient_check(self):
        net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                  CollocationBounds(), seed=24)
        rep = train_regime(net, RegimeConfig(regime="inverse", lambda_p=0.0, epochs=2,
                                             seed=24, batch_size=64, grad_check=True),
                           self.trajectory_data(24))
        assert rep.grad_check_rel_err < 1e-4
        assert not rep.diverged

    def test_curve_csv_shape(self):
        sys, data = self.linear_data()
        net = build_kinematic_net((LayerSpec(4, "tanh"), LayerSpec(3, "linear")),
                                  SMALL_BOUNDS, seed=17)
        rep = train_regime(net, RegimeConfig(epochs=2, seed=17, grad_check=False), data)
        lines = rep.curve_csv().strip().split("\n")
        assert lines[0] == "epoch,total,physics,data"
        assert len(lines) == 4  # header + initial + 2 epochs

