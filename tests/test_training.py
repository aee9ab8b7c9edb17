import math

import numpy as np
import pytest

from fisherdyn.datagen import SimulationConfig, generate_kinematic_dataset
from fisherdyn.dynamics import KinematicModel
from fisherdyn.nets import LayerSpec, LearnedDynamicsModel, init_network, mlp_forward
from fisherdyn.training import (CollocationBounds, RegimeConfig, TrainingData,
                                architecture_sweep, build_kinematic_net,
                                build_training_data, data_loss, ddm_loss,
                                default_architectures,
                                sample_collocation, trajectory_loss,
                                train_regime, _rollout_loss_grad)

from oracles import loop_mean_sq_norm


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
    def test_degenerate_bounds(self):
        b = CollocationBounds(np.array([1.0, 2.0, 0.5, 3.0, -0.1]),
                              np.array([1.0, 2.0, 0.5, 3.0, -0.1]))
        (state, inp), = sample_collocation(b, 1, seed=0)
        assert np.allclose(state, [1.0, 2.0, 0.5])
        assert np.allclose(inp, [3.0, -0.1])

    def test_uniform_statistics(self):
        b = CollocationBounds()
        pts = sample_collocation(b, 10_000, seed=1)
        arr = np.array([np.concatenate([s, u]) for s, u in pts])
        assert np.all(arr.min(axis=0) >= b.lower)
        assert np.all(arr.max(axis=0) <= b.upper)
        width = b.upper - b.lower
        sem = width / math.sqrt(12.0) / math.sqrt(10_000)
        mid = 0.5 * (b.lower + b.upper)
        assert np.all(np.abs(arr.mean(axis=0) - mid) < 3.0 * sem)

    def test_determinism(self):
        b = CollocationBounds()
        p1 = sample_collocation(b, 32, seed=9)
        p2 = sample_collocation(b, 32, seed=9)
        for (s1, u1), (s2, u2) in zip(p1, p2):
            assert np.array_equal(s1, s2) and np.array_equal(u1, u2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_collocation(CollocationBounds(), 0)


def stacked(points):
    """(states, inputs) arrays of [(state, input), ...] points."""
    return np.stack([p[0] for p in points]), np.stack([p[1] for p in points])


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
        states, inputs = stacked(sample_collocation(SMALL_BOUNDS, 50, seed=2))
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
        pts = sample_collocation(SMALL_BOUNDS, 37, seed=4)
        states, inputs = stacked(pts)
        pred = mlp_forward(model.params, model.normalize(states, inputs))
        targets = [sys.rhs(s, u) for s, u in pts]
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

    def test_ddm_loss(self):
        assert ddm_loss(np.zeros(3), np.zeros(3)) == 0.0
        assert ddm_loss(np.array([1.0, 1.0, 1.0]), np.zeros(3)) == pytest.approx(1.0)
        assert ddm_loss(np.array([3.0, 0.0, 0.0]), np.zeros(3)) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            ddm_loss(np.zeros(2), np.zeros(2))


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


class TestBuildTrainingData:
    def test_stacked_targets_equal_per_point_rhs(self):
        model = KinematicModel()
        data = build_training_data(model, CollocationBounds(), 512, seed=22,
                                   n_validation=256)
        for states, inputs, targets in ((data.phys_states, data.phys_inputs, data.phys_targets),
                                        (data.val_states, data.val_inputs, data.val_targets)):
            per_point = np.stack([model.rhs(s, u) for s, u in zip(states, inputs)])
            assert np.array_equal(targets, per_point)


class TestTrainRegime:
    def linear_data(self):
        sys = LinearSystem()
        return sys, build_training_data(sys, SMALL_BOUNDS, 256, seed=11)

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

    def test_hybrid_and_inverse_run(self):
        model = KinematicModel()
        cfg_sim = SimulationConfig(total_time=5.0)
        trajs = generate_kinematic_dataset(model, cfg_sim, n_arcs=1, n_straights=1)
        bounds = CollocationBounds()
        data = build_training_data(model, bounds, 128, seed=16, trajectories=trajs,
                                   horizon=5)
        for regime in ("hybrid", "inverse"):
            net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                      bounds, seed=16)
            rep = train_regime(net, RegimeConfig(regime=regime, epochs=3, seed=16,
                                                 batch_size=64, grad_check=True), data)
            assert len(rep.loss_curve) == 3
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


class TestArchitectureSweep:
    def test_default_space_has_18(self):
        assert len(default_architectures()) == 18

    def test_single_candidate_rank_one(self):
        sys = LinearSystem()
        data = build_training_data(sys, SMALL_BOUNDS, 64, seed=18)
        reports = architecture_sweep([(LayerSpec(4, "tanh"), LayerSpec(3, "linear"))],
                                     RegimeConfig(epochs=2, seed=18, grad_check=False),
                                     data, SMALL_BOUNDS)
        assert len(reports) == 1 and reports[0].rank == 1

    def test_trained_beats_bottleneck(self):
        sys = LinearSystem()
        data = build_training_data(sys, SMALL_BOUNDS, 256, seed=19)
        good = (LayerSpec(16, "tanh"), LayerSpec(3, "linear"))
        bottleneck = (LayerSpec(1, "linear"), LayerSpec(3, "linear"))
        reports = architecture_sweep([bottleneck, good],
                                     RegimeConfig(epochs=300, seed=19, lr=1e-2,
                                                  grad_check=False),
                                     data, SMALL_BOUNDS)
        assert reports[0].architecture == "tanh16-linear3"

    def test_tie_break_by_param_count_then_order(self):
        # degenerate bounds: every tanh net outputs exactly zero untrained,
        # so validation losses tie exactly and the tie-break is observable
        sys = LinearSystem()
        b = CollocationBounds(np.full(5, 0.5), np.full(5, 0.5))
        data = build_training_data(sys, b, 8, seed=20, n_validation=8)
        wide = (LayerSpec(32, "tanh"), LayerSpec(3, "linear"))
        narrow = (LayerSpec(16, "tanh"), LayerSpec(3, "linear"))
        reports = architecture_sweep([wide, narrow, wide],
                                     RegimeConfig(epochs=0, seed=20, grad_check=False),
                                     data, b)
        assert [r.architecture for r in reports] == [
            "tanh16-linear3", "tanh32-linear3", "tanh32-linear3"]

    def test_parallel_matches_sequential(self):
        sys = LinearSystem()
        data = build_training_data(sys, SMALL_BOUNDS, 64, seed=21)
        cands = [(LayerSpec(4, "tanh"), LayerSpec(3, "linear")),
                 (LayerSpec(8, "tanh"), LayerSpec(3, "linear"))]
        cfg = RegimeConfig(epochs=5, seed=21, grad_check=False)
        seq = architecture_sweep(cands, cfg, data, SMALL_BOUNDS, jobs=1)
        par = architecture_sweep(cands, cfg, data, SMALL_BOUNDS, jobs=2)
        for a, b in zip(seq, par):
            assert a.architecture == b.architecture
            assert a.loss_curve == b.loss_curve
