import json
import math
import re
import warnings

import numpy as np
import pytest

from fisherdyn.nets import (ADAM_EPSILON, AdamState, GruSpec, LayerSpec,
                            LearnedDynamicsModel, NetworkParams,
                            PhysicsGuardBounds, _activation_deriv, adam_step, gru_backward,
                            gru_forward, gru_forward_cache, init_adam,
                            init_gru, init_network, mish, mlp_forward,
                            mlp_forward_cache, mlp_input_jacobian,
                            mlp_param_gradient, mlp_vjp, physics_guard,
                            physics_guard_derivative)

from oracles import central_difference_jacobian

ACTIVATIONS = ["tanh", "sigmoid", "mish", "relu"]


def fd_param_gradient(params, inputs, targets, entries, h=1e-6):
    """Central differences of the batch MSE loss over chosen parameter entries."""
    def loss():
        y = mlp_forward(params, inputs)
        return float(np.mean(np.sum((y - targets) ** 2, axis=1)))

    out = []
    for arr, idx in entries:
        old = arr[idx]
        step = h * max(1.0, abs(old))
        arr[idx] = old + step
        lp = loss()
        arr[idx] = old - step
        lm = loss()
        arr[idx] = old
        out.append((lp - lm) / (2 * step))
    return out


class TestForward:
    def test_zero_net_is_zero(self):
        params = init_network(3, (LayerSpec(4, "tanh"), LayerSpec(2, "linear")))
        for w in params.weights:
            w[:] = 0.0
        assert np.allclose(mlp_forward(params, np.array([1.0, -2.0, 0.5])), 0.0)

    def test_identity_layer(self):
        params = init_network(3, (LayerSpec(3, "linear"),))
        params.weights[0][:] = np.eye(3)
        x = np.array([0.3, -0.7, 2.0])
        assert np.allclose(mlp_forward(params, x), x)

    def test_hand_composition(self):
        params = init_network(2, (LayerSpec(2, "tanh"), LayerSpec(1, "linear")))
        params.weights[0][:] = [[0.1, 0.2], [-0.3, 0.4]]
        params.biases[0][:] = [0.05, -0.05]
        params.weights[1][:] = [[0.5, -0.6]]
        params.biases[1][:] = [0.1]
        x = np.array([0.3, 0.7])
        h1 = math.tanh(0.1 * 0.3 + 0.2 * 0.7 + 0.05)
        h2 = math.tanh(-0.3 * 0.3 + 0.4 * 0.7 - 0.05)
        expect = 0.5 * h1 - 0.6 * h2 + 0.1
        assert mlp_forward(params, x)[0] == pytest.approx(expect, abs=1e-12)

    def test_batched_matches_single(self):
        params = init_network(4, (LayerSpec(8, "mish"), LayerSpec(3, "linear")), seed=3)
        xs = np.random.default_rng(0).normal(size=(10, 4))
        batched = mlp_forward(params, xs)
        for i in range(10):
            assert np.allclose(batched[i], mlp_forward(params, xs[i]))

    def test_dimension_mismatch(self):
        params = init_network(3, (LayerSpec(2, "linear"),))
        with pytest.raises(ValueError):
            mlp_forward(params, np.zeros(4))

    def test_nonfinite_output_raises_unless_unchecked(self):
        params = init_network(2, (LayerSpec(1, "linear"),))
        params.weights[0][:] = 1.0
        x = np.array([[1.0, 1.0], [1e308, 1e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                mlp_forward(params, x)
            out = mlp_forward(params, x, check_finite=False)
        assert out[0, 0] == 2.0 and np.isinf(out[1, 0])


class TestParamGradient:
    def test_perfect_fit_zero_gradient(self):
        params = init_network(2, (LayerSpec(3, "tanh"), LayerSpec(2, "linear")), seed=1)
        xs = np.random.default_rng(1).normal(size=(5, 2))
        targets = mlp_forward(params, xs)
        loss, grads = mlp_param_gradient(params, xs, targets)
        assert loss == pytest.approx(0.0, abs=1e-28)
        for dw, db in grads:
            assert np.allclose(dw, 0.0, atol=1e-13)
            assert np.allclose(db, 0.0, atol=1e-13)

    def test_single_linear_neuron(self):
        params = init_network(1, (LayerSpec(1, "linear"),))
        params.weights[0][:] = 1.0
        loss, grads = mlp_param_gradient(params, np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(1.0)
        assert grads[0][0][0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 1), (3, 3)])
    def test_targets_must_have_the_outputs_shape(self, shape):
        params = init_network(2, (LayerSpec(5, "tanh"), LayerSpec(3, "linear")), seed=2)
        with pytest.raises(ValueError, match=re.escape(
                f"targets of shape {shape} do not match the outputs' shape (4, 3)")):
            mlp_param_gradient(params, np.ones((4, 2)), np.zeros(shape))

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_gradient_vs_finite_difference(self, act):
        # a fixed seed per activation: hash(act) changes with PYTHONHASHSEED
        rng = np.random.default_rng(ACTIVATIONS.index(act))
        params = init_network(3, (LayerSpec(16, act), LayerSpec(12, act),
                                  LayerSpec(2, "linear")), seed=5)
        xs = rng.normal(size=(20, 3))
        targets = rng.normal(size=(20, 2))
        if act == "relu":  # keep away from the kink
            xs = xs + 0.05
        _, grads = mlp_param_gradient(params, xs, targets)
        flat_p = params.param_list()
        flat_g = [a for dw_db in grads for a in dw_db]
        entries = []
        for _ in range(50):
            k = rng.integers(len(flat_p))
            idx = tuple(rng.integers(s) for s in flat_p[k].shape)
            entries.append((k, idx))
        fd = fd_param_gradient(params, xs, targets, [(flat_p[k], i) for k, i in entries])
        for (k, idx), fd_val in zip(entries, fd):
            an = flat_g[k][idx]
            assert abs(an - fd_val) <= 1e-5 * max(abs(an), abs(fd_val), 1e-6)


def vjp_from_pre_activations(params, cache, grad_out):
    """``mlp_vjp`` with the tanh, sigmoid and relu derivatives evaluated
    afresh at the pre-activations, linear layers multiplied by ones."""
    acts, pres = cache
    delta = np.asarray(grad_out, dtype=float)
    grads = [None] * len(params.weights)
    for l in range(len(params.weights) - 1, -1, -1):
        z, act = pres[l], params.layers[l].activation
        if act == "tanh":
            deriv = 1.0 - np.tanh(z) * np.tanh(z)
        elif act == "sigmoid":
            s = 0.5 * (1.0 + np.tanh(0.5 * z))
            deriv = s * (1.0 - s)
        elif act == "relu":
            deriv = (z > 0.0).astype(float)
        else:
            deriv = np.ones_like(z)
        delta = delta * deriv
        grads[l] = (delta.T @ acts[l], delta.sum(axis=0))
        delta = delta @ params.weights[l]
    return delta, grads


class TestVjpFromOutputs:
    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu", "linear"])
    def test_bit_identical_to_derivatives_of_pre_activations(self, act):
        params = init_network(4, (LayerSpec(9, act), LayerSpec(7, act),
                                  LayerSpec(3, "linear")), seed=12)
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(30, 4))
        xs[0] = 0.0  # relu at its kink, sigmoid and tanh at 0
        _, cache = mlp_forward_cache(params, xs)
        grad_out = rng.normal(size=(30, 3))
        got = mlp_vjp(params, cache, grad_out)
        want = vjp_from_pre_activations(params, cache, grad_out)
        assert np.array_equal(got[0], want[0])
        for (dw, db), (rw, rb) in zip(got[1], want[1]):
            assert np.array_equal(dw, rw) and np.array_equal(db, rb)

    def test_does_not_evaluate_tanh_again(self, monkeypatch):
        params = init_network(4, (LayerSpec(9, "tanh"), LayerSpec(3, "linear")), seed=14)
        _, cache = mlp_forward_cache(params, np.ones((5, 4)))

        def no_tanh(*args, **kwargs):
            raise AssertionError("mlp_vjp evaluated tanh")

        monkeypatch.setattr(np, "tanh", no_tanh)
        mlp_vjp(params, cache, np.ones((5, 3)))


class TestInputJacobian:
    def test_all_linear_net_keeps_the_point_axis(self):
        params = init_network(3, (LayerSpec(4, "linear"), LayerSpec(2, "linear")), seed=2)
        jac = mlp_input_jacobian(params, np.ones((5, 3)), [0, 2])
        assert jac.shape == (5, 2, 2)
        assert np.allclose(jac, (params.weights[1] @ params.weights[0])[:, [0, 2]])

    def test_linear_layer_columns(self):
        params = init_network(3, (LayerSpec(2, "linear"),), seed=2)
        jac = mlp_input_jacobian(params, np.array([0.1, 0.2, 0.3]), [0, 2])
        assert np.allclose(jac, params.weights[0][:, [0, 2]])

    def test_zero_net(self):
        params = init_network(3, (LayerSpec(4, "tanh"), LayerSpec(2, "linear")))
        for w in params.weights:
            w[:] = 0.0
        assert np.allclose(mlp_input_jacobian(params, np.ones(3)), 0.0)

    def test_vs_finite_difference(self):
        params = init_network(5, (LayerSpec(32, "tanh"), LayerSpec(32, "mish"),
                                  LayerSpec(3, "linear")), seed=7)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=5)
            analytic = mlp_input_jacobian(params, x)
            fd = central_difference_jacobian(lambda xx: mlp_forward(params, xx), x)
            assert np.linalg.norm(fd - analytic) <= 1e-6 * max(
                1.0, np.linalg.norm(analytic))

    def test_stacked_matches_rows_and_finite_difference(self):
        params = init_network(5, (LayerSpec(32, "tanh"), LayerSpec(16, "sigmoid"),
                                  LayerSpec(3, "linear")), seed=8)
        xs = np.random.default_rng(8).normal(size=(25, 5))
        stacked = mlp_input_jacobian(params, xs, [0, 1, 3])
        assert stacked.shape == (25, 3, 3)
        for x, jac in zip(xs, stacked):
            single = mlp_input_jacobian(params, x, [0, 1, 3])
            assert np.linalg.norm(jac - single) <= 1e-12 * np.linalg.norm(single)
            fd = central_difference_jacobian(lambda xx: mlp_forward(params, xx), x)
            assert np.linalg.norm(fd[:, [0, 1, 3]] - jac) <= 1e-6 * max(
                1.0, np.linalg.norm(jac))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = [np.array([1.0, 2.0]), np.array([[3.0]])]
        st = init_adam(p)
        adam_step(p, [np.zeros(2), np.zeros((1, 1))], st)
        assert np.allclose(p[0], [1.0, 2.0]) and p[1][0, 0] == 3.0
        assert st.step_count == 1

    def test_first_step_closed_form(self):
        g = np.array([0.3, -4.0])
        p = [np.zeros(2)]
        st = init_adam(p, lr=1e-2)
        adam_step(p, [g.copy()], st)
        expect = -1e-2 * g / (np.abs(g) + ADAM_EPSILON)
        assert np.allclose(p[0], expect, rtol=1e-9)

    def test_constant_gradient_asymptote(self):
        p = [np.zeros(1)]
        st = init_adam(p, lr=1e-3)
        prev = 0.0
        for _ in range(5000):
            prev = p[0][0]
            adam_step(p, [np.array([2.5])], st)
        assert abs(prev - p[0][0]) == pytest.approx(1e-3, rel=1e-3)


class TestPhysicsGuard:
    bounds = PhysicsGuardBounds(np.array([-1.0, 2.0]), np.array([1.0, 6.0]))

    def test_midpoint(self):
        assert np.allclose(physics_guard(np.zeros(2), self.bounds), [0.0, 4.0])

    def test_saturation_near_upper(self):
        out = physics_guard(np.array([20.0, 20.0]), self.bounds)
        assert np.all(self.bounds.upper - out < 1e-8)
        assert np.all(out < self.bounds.upper)

    def test_strictly_inside_for_huge_z(self):
        for z in (-1e6, -50.0, 50.0, 1e6):
            out = physics_guard(np.full(2, z), self.bounds)
            assert np.all(out > self.bounds.lower) and np.all(out < self.bounds.upper)

    def test_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z1, z2 = sorted(rng.normal(scale=3.0, size=2))
            out1 = physics_guard(np.array([z1, z1]), self.bounds)
            out2 = physics_guard(np.array([z2, z2]), self.bounds)
            if z1 != z2:
                assert np.all(out1 < out2)

    def test_derivative_matches_fd(self):
        z = np.array([0.3, -1.2])
        h = 1e-6
        fd = (physics_guard(z + h, self.bounds) - physics_guard(z - h, self.bounds)) / (2 * h)
        assert np.allclose(physics_guard_derivative(z, self.bounds), fd, rtol=1e-6)

    def test_collapse_adjacent_bounds(self):
        b = PhysicsGuardBounds(np.array([1.0]), np.array([1.0 + 1e-6]))
        out = physics_guard(np.array([123.0]), b)
        assert 1.0 <= out[0] <= 1.0 + 1e-6

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PhysicsGuardBounds(np.array([1.0]), np.array([1.0]))

    def test_nonfinite_bounds(self):
        with pytest.raises(ValueError, match="PhysicsGuardBounds.lower must be finite"):
            PhysicsGuardBounds(np.array([np.nan, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="PhysicsGuardBounds.upper must be finite"):
            PhysicsGuardBounds(np.array([0.0, 0.0]), np.array([1.0, np.inf]))


class TestMish:
    def test_zero(self):
        assert mish(np.zeros(1))[0] == 0.0

    def test_derivative_at_zero_is_point_six(self):
        h = 1e-6
        fd = (mish(np.array([h])) - mish(np.array([-h])))[0] / (2 * h)
        assert fd == pytest.approx(0.6, abs=1e-6)

    def test_limits_at_infinity(self):
        z = np.array([-np.inf, np.inf, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mish(z)
            slope = _activation_deriv("mish", z, None)
        assert value.tolist() == [0.0, np.inf, 0.0, 1e308]
        assert slope.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_nan_stays_nan(self):
        assert np.isnan(mish(np.array([np.nan]))[0])
        assert np.isnan(_activation_deriv("mish", np.array([np.nan]), None)[0])


def tiny_gru():
    spec = init_gru(2, 2, seed=9)
    return spec


class TestGru:
    def test_zero_params_zero_hidden(self):
        spec = init_gru(3, 4, seed=0)
        for arr in spec.param_list():
            arr[:] = 0.0
        h, _ = gru_forward_cache(spec, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.allclose(h, 0.0)

    def test_single_step_base_case(self):
        spec = tiny_gru()
        x = np.array([[0.4, -0.2]])
        h1, _ = gru_forward_cache(spec, x)
        # manual single step from h = 0
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        z = sig(spec.Wz @ x[0] + spec.bz)
        r = sig(spec.Wr @ x[0] + spec.br)
        n = np.tanh(spec.Wn @ x[0] + spec.bn)
        assert np.allclose(h1, (1 - z) * n, atol=1e-12)

    def test_hand_unrolled_two_steps(self):
        spec = tiny_gru()
        xs = np.array([[0.4, -0.2], [-0.1, 0.3]])
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        h = np.zeros(2)
        for x in xs:
            z = sig(spec.Wz @ x + spec.Uz @ h + spec.bz)
            r = sig(spec.Wr @ x + spec.Ur @ h + spec.br)
            n = np.tanh(spec.Wn @ x + spec.Un @ (r * h) + spec.bn)
            h = (1 - z) * n + z * h
        assert np.allclose(gru_forward_cache(spec, xs)[0], h, atol=1e-12)

    def test_forward_is_the_cached_forwards_state_bit_for_bit(self):
        spec = init_gru(7, 16, seed=21)
        hist = np.random.default_rng(21).normal(size=(40, 5, 7))
        assert np.array_equal(gru_forward(spec, hist), gru_forward_cache(spec, hist)[0])
        single = gru_forward(spec, hist[3])
        assert single.shape == (16,)
        assert np.array_equal(single, gru_forward_cache(spec, hist[3])[0])
        with pytest.raises(ValueError, match="history shape"):
            gru_forward(spec, np.zeros((4, 5, 6)))

    def test_backward_vs_finite_difference(self):
        spec = init_gru(3, 5, seed=11)
        rng = np.random.default_rng(11)
        hist = rng.normal(size=(4, 6, 3))
        w = rng.normal(size=(4, 5))  # random linear functional of h_final

        def loss():
            return float(np.sum(w * gru_forward_cache(spec, hist)[0]))

        h_final, cache = gru_forward_cache(spec, hist)
        grads = gru_backward(spec, cache, w)
        params = spec.param_list()
        for k in range(len(params)):
            arr, ga = params[k], grads[k]
            for _ in range(4):
                idx = tuple(rng.integers(s) for s in arr.shape)
                old = arr[idx]
                h = 1e-6
                arr[idx] = old + h
                lp = loss()
                arr[idx] = old - h
                lm = loss()
                arr[idx] = old
                fd = (lp - lm) / (2 * h)
                assert abs(fd - ga[idx]) <= 1e-5 * max(abs(fd), abs(ga[idx]), 1e-6)

    def test_backward_leaves_its_cache_unchanged(self):
        spec = init_gru(3, 5, seed=12)
        rng = np.random.default_rng(12)
        _, cache = gru_forward_cache(spec, rng.normal(size=(4, 6, 3)))
        grad_h = rng.normal(size=(4, 5))
        before = [[a.copy() for a in step] for step in cache]
        saved_grad_h = grad_h.copy()
        gru_backward(spec, cache, grad_h)
        assert len(cache) == len(before)
        for step, old in zip(cache, before):
            assert len(step) == len(old)
            assert all(np.array_equal(a, b) for a, b in zip(step, old))
        assert np.array_equal(grad_h, saved_grad_h)


class TestDeterminism:
    def test_same_seed_same_net(self):
        a = init_network(4, (LayerSpec(8, "tanh"), LayerSpec(2, "linear")), seed=21)
        b = init_network(4, (LayerSpec(8, "tanh"), LayerSpec(2, "linear")), seed=21)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        x = np.ones(4)
        assert np.array_equal(mlp_forward(a, x), mlp_forward(b, x))


class TestLearnedDynamicsModel:
    def make(self):
        params = init_network(5, (LayerSpec(16, "tanh"), LayerSpec(3, "linear")), seed=13)
        return LearnedDynamicsModel(params, 3, 2,
                                    offset=np.array([0.0, 0.0, 0.0, 2.5, 0.0]),
                                    scale=np.array([100.0, 10.0, 0.5236, 2.5, 0.5236]))

    def test_jacobian_accounts_for_scaling(self):
        model = self.make()
        s, u = np.array([3.0, -1.0, 0.2]), np.array([2.0, 0.1])
        analytic = model.jacobian(s, u)
        fd = central_difference_jacobian(lambda x, uu: model.rhs(x, uu), s, u)
        assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))

    def test_stacked_rhs_and_jacobian_match_rows(self):
        model = self.make()
        rng = np.random.default_rng(14)
        s, u = rng.normal(size=(12, 3)), rng.normal(size=(12, 2))
        rhs, jac = model.rhs(s, u), model.jacobian(s, u)
        assert rhs.shape == (12, 3) and jac.shape == (12, 3, 3)
        for i in range(12):
            assert np.linalg.norm(rhs[i] - model.rhs(s[i], u[i])) <= 1e-12 * np.linalg.norm(rhs[i])
            single = model.jacobian(s[i], u[i])
            assert np.linalg.norm(jac[i] - single) <= 1e-12 * np.linalg.norm(single)

    def test_wrong_state_input_split_is_rejected(self):
        model = self.make()
        for (s, u), shapes in ((((4, 4), (4, 1)), r"\(4, 4\) and \(4, 1\)"),
                               (((2,), (3,)), r"\(2,\) and \(3,\)")):
            for method in (model.rhs, model.jacobian):
                with pytest.raises(ValueError, match="learned model takes states of shape "
                                   r"\(\.\.\., 3\) .*got " + shapes):
                    method(np.zeros(s), np.zeros(u))

    def test_disagreeing_leading_axes_are_rejected(self):
        model = self.make()
        for s, u in (((4, 3), (2, 2)), ((3,), (4, 2))):
            for method in (model.rhs, model.jacobian):
                with pytest.raises(ValueError, match="learned model .*same leading axes, "
                                   + re.escape(f"got {s} and {u}")):
                    method(np.zeros(s), np.zeros(u))

    def test_checkpoint_round_trip(self, tmp_path):
        model = self.make()
        path = tmp_path / "net.json"
        model.save(path)
        loaded = LearnedDynamicsModel.load(path)
        for wa, wb in zip(model.params.weights, loaded.params.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(model.offset, loaded.offset)
        s, u = np.array([1.0, 2.0, 0.1]), np.array([1.5, -0.2])
        assert np.array_equal(model.rhs(s, u), loaded.rhs(s, u))

    def test_checkpoint_missing_key_is_named(self):
        doc = self.make().to_checkpoint_dict()
        del doc["weights"]
        with pytest.raises(ValueError, match="checkpoint is missing key 'weights'"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)
        doc = self.make().to_checkpoint_dict()
        del doc["layers"][1]["width"]
        with pytest.raises(ValueError, match=r"layers\[1\] is missing key 'width'"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_wrong_weight_length_is_named(self):
        doc = self.make().to_checkpoint_dict()
        doc["weights"][1].pop()
        with pytest.raises(ValueError, match=r"weights\[1\] holds 47 values, expected 48"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)
        doc = self.make().to_checkpoint_dict()
        doc["biases"][0].append(0.0)
        with pytest.raises(ValueError, match=r"biases\[0\] holds 17 values"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_with_fewer_weights_than_layers(self):
        for key in ("weights", "biases"):
            doc = self.make().to_checkpoint_dict()
            doc[key].pop()
            with pytest.raises(ValueError, match=f"'{key}' has 1 entries for 2 layers; "
                                                 "layer 1 is unmatched"):
                LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_nan_weight_is_named(self):
        doc = self.make().to_checkpoint_dict()
        doc["weights"][0][3] = float("nan")
        with pytest.raises(ValueError, match=r"weights\[0\] holds a non-finite value"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_nonfinite_scale_is_named(self):
        doc = self.make().to_checkpoint_dict()
        doc["scale"][2] = float("nan")
        with pytest.raises(ValueError, match=r"input scale \[100.0, 10.0, nan, .* is not 5 finite"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)
        doc = self.make().to_checkpoint_dict()
        doc["offset"][0] = float("inf")
        with pytest.raises(ValueError, match=r"input offset \[inf, .* is not 5 finite"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_short_offset_is_named(self):
        doc = self.make().to_checkpoint_dict()
        doc["offset"].pop()
        with pytest.raises(ValueError, match=r"input offset \[0.0, 0.0, 0.0, 2.5\] is not 5"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)
        doc = self.make().to_checkpoint_dict()
        doc["scale"].append(1.0)
        with pytest.raises(ValueError, match=r"input scale \[.*, 1.0\] is not 5 finite"):
            LearnedDynamicsModel.from_checkpoint_dict(doc)

    def test_checkpoint_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a fisherdyn-net checkpoint"):
            LearnedDynamicsModel.load(path)

    def test_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            LearnedDynamicsModel.load(path)
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            LearnedDynamicsModel.load(path)
