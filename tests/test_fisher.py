import json
import math

import numpy as np
import pytest

from fisherdyn.dynamics import DomainError, DynamicModel, KinematicModel
from fisherdyn.fidelity import jacobian_baseline
from fisherdyn.nets import LayerSpec, LearnedDynamicsModel, init_network
from fisherdyn.fisher import classical_fisher, evaluate_field
from fisherdyn.numerics import largest_singular_value

from oracles import (EquilibriumError, curvature_fisher, expectation, flow_direction,
                     log_derivative, random_orthogonal, sigma_max_oracle)
from test_dynamics import (DISTURBANCE_SETS, sample_dynamic_input,
                           sample_dynamic_state)


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestExpectation:
    def test_identity(self):
        du = random_unit(np.random.default_rng(0), 4)
        assert expectation(np.eye(4), du) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_axis(self):
        assert expectation(np.diag([2.0, 4.0]), np.eye(2)[0]) == 2.0

    def test_trace_form_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 7)
            x = rng.normal(size=(n, n))
            du = random_unit(rng, n)
            rho = np.outer(du, du)
            assert expectation(x, du) == pytest.approx(
                float(np.trace(x @ rho)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(3), np.eye(2)[0])


class TestLogDerivative:
    def test_isotropic_flow(self):
        du = np.eye(3)[1]
        a_bar, ell = log_derivative(2.5 * np.eye(3), du)
        assert np.allclose(a_bar, 0.0) and np.allclose(ell, 0.0)

    def test_mean_subtraction(self):
        a_bar, ell = log_derivative(np.diag([1.0, 3.0]), np.eye(2)[0])
        assert np.allclose(a_bar, np.diag([0.0, 2.0]))
        assert np.allclose(ell, 2.0 * a_bar)

    def test_rho_expectation_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(2, 8)
            a = rng.normal(size=(n, n))
            du = random_unit(rng, n)
            a_bar, _ = log_derivative(a, du)
            rho = np.outer(du, du)
            assert abs(np.trace(a_bar @ rho)) < 1e-12


class TestClassicalFisher:
    def test_isotropic_zero(self):
        assert classical_fisher(-1.7 * np.eye(3), np.eye(3)[0]) == 0.0

    def test_rotation_generator(self):
        for omega in (0.5, 2.0, 13.0):
            a = np.array([[0.0, -omega], [omega, 0.0]])
            assert classical_fisher(a, np.eye(2)[0]) == pytest.approx(
                4.0 * omega**2, rel=1e-12)

    def test_variance_of_log_derivative_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=(5, 5))
            du = random_unit(rng, 5)
            a_bar, ell = log_derivative(a, du)
            half = 0.5 * ell
            var = expectation(half.T @ half, du) - expectation(half, du) ** 2
            assert classical_fisher(a, du) == pytest.approx(4.0 * var, abs=1e-10)

    def test_nonnegativity_and_bound_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
            g = classical_fisher(a, random_unit(rng, n))
            assert g >= 0.0
            assert g / 4.0 <= largest_singular_value(a) ** 2 + 1e-9

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            du = random_unit(rng, n)
            q = random_orthogonal(n, rng)
            g1 = classical_fisher(a, du)
            g2 = classical_fisher(q @ a @ q.T, q @ du)
            assert g2 == pytest.approx(g1, rel=1e-10, abs=1e-10)

    def test_scaling_law(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4))
        du = random_unit(rng, 4)
        g = classical_fisher(a, du)
        for c in (0.1, 3.0, -2.0):
            assert classical_fisher(c * a, du) == pytest.approx(c**2 * g, rel=1e-12)

    def test_symmetric_part_expectation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            du = random_unit(rng, 5)
            a_s = 0.5 * (a + a.T)
            assert expectation(a, du) == pytest.approx(expectation(a_s, du), abs=1e-13)


class TestFlowDirection:
    def test_normalization(self):
        assert np.allclose(flow_direction(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_equilibrium(self):
        with pytest.raises(EquilibriumError):
            flow_direction(np.zeros(5))

    def test_negative_axis(self):
        assert np.allclose(flow_direction(np.array([-2.0, 0.0, 0.0])), [-1, 0, 0])


class TestCurvatureFisher:
    def test_straight_trajectory(self):
        g = curvature_fisher(2.0 * np.eye(3), np.array([1.0, 2.0, 0.5]))
        assert g == pytest.approx(0.0, abs=1e-24)

    def test_circular_motion(self):
        omega, v = 1.7, 3.0
        a = np.array([[0.0, -omega], [omega, 0.0]])
        assert curvature_fisher(a, np.array([v, 0.0])) == pytest.approx(
            4.0 * omega**2, rel=1e-12)

    def test_matches_definition_form(self):
        # the module's central cross-check
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
            xdot = rng.normal(size=n) * rng.uniform(0.1, 10.0)
            g_def = classical_fisher(a, flow_direction(xdot))
            g_curv = curvature_fisher(a, xdot)
            assert abs(g_def - g_curv) <= 1e-9 * max(1.0, g_def)


class TestEvaluateField:
    def test_kinematic_straight_line_gives_zero(self):
        model = KinematicModel()
        pts = [(np.array([x, 0.0, 0.0]), np.array([2.0, 0.0])) for x in (0.0, 5.0, 9.0)]
        field = evaluate_field(model, pts)
        assert len(field) == 3
        assert np.allclose(field.g, 0.0, atol=1e-18)

    def test_single_point_bound(self):
        model = DynamicModel()
        s = np.array([0, 0, 0.1, 2.0, 0.1, 0.5])
        field = evaluate_field(model, [(s, np.array([0.3, 0.1]))])
        assert len(field) == 1
        smp = field.samples[0]
        assert 0.0 <= smp.g / 4.0 <= smp.sigma_max_sq + 1e-9

    def test_dynamic_envelope_sweep_bound(self):
        model = DynamicModel()
        rng = np.random.default_rng(9)
        pts = [(sample_dynamic_state(rng), sample_dynamic_input(rng))
               for _ in range(100)]
        field = evaluate_field(model, pts)
        for smp in field.samples:
            assert not smp.skipped
            assert 0.0 <= smp.g / 4.0 <= smp.sigma_max_sq + 1e-9

    def test_skip_flags(self):
        model = KinematicModel()
        pts = [(np.zeros(3), np.array([0.0, 0.0])),   # zero flow
               (np.zeros(3), np.array([2.0, 0.1]))]
        field = evaluate_field(model, pts)
        assert field.samples[0].skip == "equilibrium"
        assert not field.samples[1].skipped
        assert field.valid_mask().tolist() == [False, True]

        dyn = DynamicModel()
        slow = np.array([0, 0, 0, 0.1, 0.0, 0.0])
        dfield = evaluate_field(dyn, [(slow, np.array([0.2, 0.0]))])
        assert dfield.samples[0].skip.startswith("domain")

    @pytest.mark.parametrize("bad, message", [
        ((np.zeros(5), np.zeros(2)), "point 2 has a state of length 5, point 0 one of length 6"),
        ((np.zeros(6), np.zeros(3), 0.0), "point 2 has an input of length 3"),
        ((np.zeros(6),), "point 2 has 1 entries")])
    def test_malformed_point_is_named(self, bad, message):
        good = (np.array([0, 0, 0, 2.0, 0.1, 0.5]), np.array([0.3, 0.1]), 0.0)
        pts = [good, good, bad, good]
        with pytest.raises(ValueError, match=message):
            evaluate_field(DynamicModel(), pts)
        with pytest.raises(ValueError, match=message):
            jacobian_baseline(DynamicModel(), DynamicModel(), pts)

    def test_fixed_and_axis_policies(self):
        model = KinematicModel()
        pts = [(np.array([0.0, 0.0, 0.3]), np.array([2.0, 0.2]))]
        a = model.jacobian(*pts[0])
        for du in (np.eye(3)[2], np.array([0.6, 0.0, -0.8])):
            field = evaluate_field(model, pts, policy=du)
            assert field.policy == "fixed"
            assert field.g[0] == pytest.approx(classical_fisher(a, du), rel=1e-15)
            assert field.du.tolist() == [du.tolist()]

    @pytest.mark.parametrize("policy, message", [
        ("axis(5)", "unknown direction policy 'axis\\(5\\)'"),
        ("flow", "unknown direction policy 'flow'"),
        ("fixed", "unknown direction policy 'fixed'"),
        (np.eye(2)[0], r"direction shape \(2,\) does not match the state shape \(3,\)"),
        (np.eye(3), r"direction shape \(3, 3\) does not match"),
        (np.array([1.0, 1.0, 0.0]), r"\|du\| = 1\.414.*expected a unit vector"),
        (np.array([np.nan, 0.0, 0.0]), r"\|du\| = nan.*expected a unit vector"),
        (np.array([np.inf, 0.0, 0.0]), r"\|du\| = inf.*expected a unit vector")])
    def test_bad_policy_is_named(self, policy, message):
        pts = [(np.zeros(3), np.array([1.0, 0.1]))]
        with pytest.raises(ValueError, match=message):
            evaluate_field(KinematicModel(), pts, policy=policy)

    @pytest.mark.parametrize("policy, message", [
        (np.array([np.nan, 5.0]), r"\|du\| = nan.*expected a unit vector"),
        (np.array([np.inf, 0.0]), r"\|du\| = inf.*expected a unit vector"),
        (np.array([3.0, 4.0]), r"\|du\| = 5\.0.*expected a unit vector"),
        (np.array([]), r"\|du\| = 0\.0.*expected a unit vector"),
        (np.eye(2), r"direction shape \(2, 2\) does not match a state"),
        (np.float64(1.0), r"direction shape \(\) does not match a state")])
    def test_bad_direction_is_named_on_an_empty_point_list(self, policy, message):
        with pytest.raises(ValueError, match=message):
            evaluate_field(KinematicModel(), [], policy=policy)

    def test_unit_direction_on_an_empty_point_list(self):
        # no state yet, so its length cannot be checked
        field = evaluate_field(KinematicModel(), [], policy=np.array([0.6, 0.8]))
        assert field.policy == "fixed" and field.g.size == 0

    def test_serialization(self, tmp_path):
        model = KinematicModel()
        pts = [(np.array([0.0, 0.0, 0.3]), np.array([2.0, 0.2])),
               (np.zeros(3), np.array([0.0, 0.0]))]
        field = evaluate_field(model, pts)
        csv_path = tmp_path / "field.csv"
        field.to_csv(csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "state_0,state_1,state_2,input_0,input_1,g,sigma_max_sq,skip_flag"
        assert len(lines) == 3
        assert lines[2].endswith("equilibrium")
        json_path = tmp_path / "field.json"
        field.to_json(json_path)
        import json
        doc = json.loads(json_path.read_text())
        assert doc["policy"] == "flow_aligned"
        assert doc["samples"][1]["g"] is None


class RotationStub:
    """xdot = A x with A = [[0, -w], [w, 0]] and w = u[0]: g = 4 w^2 and
    sigma_max^2 = w^2 at every point off the origin. Points with u[1] < 0
    are outside the envelope."""

    def __init__(self):
        self.calls = 0

    def _check(self, u):
        bad = np.flatnonzero(u[:, 1] < 0.0)
        if bad.size:
            raise DomainError("u[1] < 0", bad, [f"u[1]={u[i, 1]}" for i in bad])

    def rhs(self, s, u, t):
        self._check(u)
        w = u[:, 0]
        return np.column_stack([-w * s[:, 1], w * s[:, 0]])

    def jacobian(self, s, u, t):
        self.calls += 1
        self._check(u)
        a = np.zeros((len(u), 2, 2))
        a[:, 0, 1], a[:, 1, 0] = -u[:, 0], u[:, 0]
        return a


class NanJacobianStub(RotationStub):
    """A rotation whose Jacobian is NaN where u[1] > 0."""

    def jacobian(self, s, u, t):
        a = super().jacobian(s, u, t)
        a[u[:, 1] > 0.0] = np.nan
        return a


class HugeJacobianStub:
    """xdot = A x with a dense 3x3 A, whose Jacobian is 1e200 A where
    u[0] > 0: finite, but its Gram matrix, sigma_max^2 and g overflow."""

    A = np.array([[0.3, -1.0, 0.5], [1.2, 0.1, -0.7], [-0.4, 0.8, 0.2]])

    def rhs(self, s, u, t):
        return s @ self.A.T

    def jacobian(self, s, u, t):
        a = np.repeat(self.A[None], len(s), axis=0)
        a[u[:, 0] > 0.0] *= 1e200
        return a


def rotation_points(n):
    rng = np.random.default_rng(31)
    return [(rng.normal(size=2), np.array([rng.uniform(0.5, 3.0), 0.0]), 0.1 * i)
            for i in range(n)]


class TestStackedField:
    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(32)
        for dists in DISTURBANCE_SETS:
            model = DynamicModel(disturbances=dists)
            pts = [(sample_dynamic_state(rng), sample_dynamic_input(rng),
                    rng.uniform(0.0, 20.0)) for _ in range(20)]
            field = evaluate_field(model, pts)
            for (s, u, t), smp in zip(pts, field.samples):
                a = model.jacobian(s, u, t)
                direction = flow_direction(model.rhs(s, u, t))
                assert smp.g == pytest.approx(classical_fisher(a, direction),
                                              rel=1e-10, abs=1e-12)
                assert smp.sigma_max_sq == pytest.approx(sigma_max_oracle(a) ** 2,
                                                         rel=1e-10)
                assert np.allclose(smp.direction, direction, rtol=0, atol=1e-15)
                assert smp.t == t

    def test_one_stacked_call_per_sweep(self):
        system = RotationStub()
        field = evaluate_field(system, rotation_points(50))
        assert system.calls == 1
        for smp, (_, u, _) in zip(field.samples, rotation_points(50)):
            assert smp.g == pytest.approx(4.0 * u[0] ** 2, rel=1e-12)
            assert smp.sigma_max_sq == pytest.approx(u[0] ** 2, rel=1e-12)

    def test_domain_rows_are_skipped_with_their_reason(self):
        pts = rotation_points(6)
        for i in (1, 4):
            pts[i][1][1] = -0.5 * i
        system = RotationStub()
        field = evaluate_field(system, pts)
        assert system.calls == 2  # the full stack, then the rest
        assert [smp.skip for smp in field.samples] == [
            "", "domain: u[1]=-0.5", "", "", "domain: u[1]=-2.0", ""]
        assert np.isfinite(field.g[[0, 2, 3, 5]]).all()

    def test_domain_error_without_rows_propagates(self):
        class Pointwise(RotationStub):
            def jacobian(self, s, u, t):
                raise DomainError("no rows")

        with pytest.raises(DomainError):
            evaluate_field(Pointwise(), rotation_points(3))

    def test_overflowing_flow_norm_is_nonfinite(self):
        pts = rotation_points(5)
        pts[2] = (np.array([1e200, 1e200]), pts[2][1], pts[2][2])
        field = evaluate_field(RotationStub(), pts)
        assert [smp.skip for smp in field.samples] == ["", "", "nonfinite", "", ""]
        assert field.valid_mask().tolist() == [True, True, False, True, True]

    def test_nan_jacobian_row_is_nonfinite(self):
        pts = rotation_points(5)
        pts[3][1][1] = 1.0
        field = evaluate_field(NanJacobianStub(), pts)
        assert [smp.skip for smp in field.samples] == ["", "", "", "nonfinite", ""]
        assert np.isnan(field.g[3]) and field.samples[3].direction is None

    def test_huge_finite_jacobian_row_is_nonfinite(self):
        rng = np.random.default_rng(33)
        pts = [(rng.normal(size=3), np.array([float(i == 1)])) for i in range(4)]
        field = evaluate_field(HugeJacobianStub(), pts)
        assert field.skip.tolist() == ["", "nonfinite", "", ""]
        a = HugeJacobianStub.A
        for i in (0, 2, 3):
            du = flow_direction(a @ pts[i][0])
            assert field.g[i] == pytest.approx(classical_fisher(a, du), rel=1e-12)
            assert field.sigma_max_sq[i] == pytest.approx(sigma_max_oracle(a) ** 2, rel=1e-12)
        assert np.isnan(field.g[1]) and np.isnan(field.sigma_max_sq[1])

    def test_learned_model_overflow_at_one_point(self):
        # a linear network xdot = (y + u, -x): finite everywhere, but its flow
        # norm overflows at a point with huge coordinates
        params = init_network(3, (LayerSpec(2, "linear"),))
        params.weights[0][:] = [[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]
        model = LearnedDynamicsModel(params, 2, 1)
        pts = [(np.array([1.0, 0.5]), np.array([0.2])),
               (np.array([1e200, -1e200]), np.array([0.0])),
               (np.array([-2.0, 1.0]), np.array([0.1]))]
        field = evaluate_field(model, pts)
        assert [smp.skip for smp in field.samples] == ["", "nonfinite", ""]
        for smp in (field.samples[0], field.samples[2]):
            assert 0.0 <= smp.g / 4.0 <= smp.sigma_max_sq + 1e-12

    def test_learned_model_infinite_output_at_one_point(self):
        # a linear network xdot = (x + y + u, -x) whose output overflows to
        # inf at one point of the stack
        params = init_network(3, (LayerSpec(2, "linear"),))
        params.weights[0][:] = [[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]
        model = LearnedDynamicsModel(params, 2, 1)
        pts = [(np.array([1.0, 0.5]), np.array([0.2])),
               (np.array([1e308, 1e308]), np.array([0.0])),
               (np.array([-2.0, 1.0]), np.array([0.1]))]
        with np.errstate(over="ignore"):
            flow = model.rhs(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
            field = evaluate_field(model, pts)
        assert np.isinf(flow[1, 0]) and np.isfinite(flow[[0, 2]]).all()
        assert [smp.skip for smp in field.samples] == ["", "nonfinite", ""]
        for smp in (field.samples[0], field.samples[2]):
            assert 0.0 <= smp.g / 4.0 <= smp.sigma_max_sq + 1e-12

    def test_fixed_direction_dimension_checked(self):
        with pytest.raises(ValueError, match="direction shape"):
            evaluate_field(KinematicModel(), [(np.zeros(3), np.array([1.0, 0.1]))],
                           policy=np.array([1.0, 0.0]))

    def test_direction_rows_check_norms(self):
        for bad in (np.array([0.0, 2.0]), np.array([np.nan, 0.0]), np.array([1.0, 1e-5])):
            with pytest.raises(ValueError, match="expected a unit vector"):
                evaluate_field(RotationStub(), rotation_points(2), policy=bad)


# to_csv/to_json output of the field in TestColumns.field, as written by the
# per-sample serializers that the column writers replaced.
PINNED_CSV = """\
state_0,state_1,input_0,input_1,g,sigma_max_sq,skip_flag
-0.39530128858657,0.2639148850157296,2.1818270352509104,0.0,19.04147684700711,4.760369211751778,
-0.9721597997272025,0.7676642531398922,0.5991451377615366,-0.5,nan,nan,domain: u[1]=-0.5
0.0,0.0,2.9466741462759702,0.0,nan,nan,equilibrium
1e+200,1e+200,2.9595762101348324,0.0,nan,nan,nonfinite
-0.5999578484570015,0.6601663130603562,1.5609783949726925,0.0,9.746614198286093,2.436653549571523,
"""
PINNED_JSON_SAMPLES = [
    (19.04147684700711, [2.1818270352509104, 0.0], 4.760369211751778, "",
     [-0.39530128858657, 0.2639148850157296], 0.0),
    (None, [0.5991451377615366, -0.5], None, "domain: u[1]=-0.5",
     [-0.9721597997272025, 0.7676642531398922], 0.1),
    (None, [2.9466741462759702, 0.0], None, "equilibrium", [0.0, 0.0], 0.2),
    (None, [2.9595762101348324, 0.0], None, "nonfinite", [1e+200, 1e+200],
     0.30000000000000004),
    (9.746614198286093, [1.5609783949726925, 0.0], 2.436653549571523, "",
     [-0.5999578484570015, 0.6601663130603562], 0.4),
]


def pinned_json() -> str:
    keys = ("g", "input", "sigma_max_sq", "skip_flag", "state", "t")
    doc = {"policy": "flow_aligned",
           "samples": [dict(zip(keys, row)) for row in PINNED_JSON_SAMPLES]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


class TestColumns:
    def field(self):
        """A valid, a domain, an equilibrium, a non-finite and a valid point."""
        pts = rotation_points(5)
        pts[1][1][1] = -0.5
        pts[2] = (np.zeros(2), pts[2][1], pts[2][2])
        pts[3] = (np.array([1e200, 1e200]), pts[3][1], pts[3][2])
        return pts, evaluate_field(RotationStub(), pts)

    def test_columns(self):
        pts, field = self.field()
        assert len(field) == 5
        assert np.array_equal(field.states, [p[0] for p in pts])
        assert np.array_equal(field.inputs, [p[1] for p in pts])
        assert np.array_equal(field.times, [p[2] for p in pts])
        assert field.skip.tolist() == ["", "domain: u[1]=-0.5", "equilibrium", "nonfinite", ""]
        valid = field.valid_mask()
        assert valid.tolist() == [True, False, False, False, True]
        for col in (field.g, field.sigma_max_sq, field.du):
            assert np.isnan(col[~valid]).all() and np.isfinite(col[valid]).all()
        assert np.linalg.norm(field.du[valid], axis=1) == pytest.approx(1.0, abs=1e-15)

    def test_samples_view_agrees_with_columns(self):
        _, field = self.field()
        samples = field.samples
        assert samples is field.samples  # built once, then cached
        assert [s.skip for s in samples] == field.skip.tolist()
        for i, smp in enumerate(samples):
            assert np.array_equal(smp.state, field.states[i])
            assert np.array_equal(smp.input, field.inputs[i])
            assert smp.t == field.times[i]
            assert np.array_equal([smp.g, smp.sigma_max_sq],
                                  [field.g[i], field.sigma_max_sq[i]], equal_nan=True)
            if smp.skipped:
                assert smp.direction is None
            else:
                assert np.array_equal(smp.direction, field.du[i])

    def test_fixed_policy_fills_the_direction_column(self):
        du = np.array([0.6, 0.8])
        field = evaluate_field(RotationStub(), rotation_points(3), policy=du)
        assert field.du.tolist() == [[0.6, 0.8]] * 3 and field.policy == "fixed"
        assert all(np.array_equal(s.direction, du) for s in field.samples)

    def test_serialization_is_byte_identical_to_pinned_output(self, tmp_path):
        _, field = self.field()
        field.to_csv(tmp_path / "field.csv")
        field.to_json(tmp_path / "field.json")
        assert (tmp_path / "field.csv").read_text() == PINNED_CSV
        assert (tmp_path / "field.json").read_text() == pinned_json()

    def test_empty_point_list(self, tmp_path):
        field = evaluate_field(RotationStub(), [])
        assert len(field) == 0 and field.samples == [] and field.valid_mask().size == 0
        field.to_csv(tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == "g,sigma_max_sq,skip_flag\n"
        assert field.to_json_dict()["samples"] == []
