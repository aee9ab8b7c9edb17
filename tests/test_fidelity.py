import math
from dataclasses import replace

import numpy as np
import pytest

from fisherdyn.dynamics import DynamicModel, KinematicModel
from fisherdyn.fidelity import (DEFAULT_TOLERANCES, fisher_discrepancy,
                                jacobian_baseline, parameter_bias_table,
                                well_trained_verdict)
from fisherdyn.fisher import AlignmentError, FisherField, evaluate_field
from fisherdyn.nets import LayerSpec
from fisherdyn.training import CollocationBounds, build_kinematic_net

from test_dynamics import DISTURBANCE_SETS, sample_dynamic_input, sample_dynamic_state


def make_field(gs, policy="flow_aligned", states=None):
    """A field with one point per g; None marks a skipped point."""
    n = len(gs)
    states = np.array([[float(i), 0.0] for i in range(n)] if states is None else states)
    skip = np.array(["equilibrium" if g is None else "" for g in gs])
    g = np.array([math.nan if g is None else g for g in gs])
    du = np.where((skip == "")[:, None], np.eye(states.shape[1])[0], math.nan)
    return FisherField(states, np.zeros((n, 1)), np.zeros(n), g, g.copy(), du, skip,
                       policy)


class TestFisherDiscrepancy:
    def test_hand_computed(self):
        # squared differences 1, 4, 0 over g_true = 1, 2, 3
        e_fi, rel = fisher_discrepancy(make_field([1.0, 2.0, 3.0]),
                                       make_field([2.0, 0.0, 3.0]))
        assert e_fi == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert rel == pytest.approx(5.0 / 14.0, rel=1e-15)

    def test_zero_over_zero_is_zero(self):
        assert fisher_discrepancy(make_field([0.0, 0.0]), make_field([0.0, 0.0])) == (0.0, 0.0)

    def test_zero_denominator_is_inf(self):
        e_fi, rel = fisher_discrepancy(make_field([0.0, 0.0]), make_field([1.0, 0.0]))
        assert e_fi == 0.5 and rel == math.inf

    def test_skips_are_excluded_pairwise(self):
        e_fi, rel = fisher_discrepancy(make_field([1.0, None, 3.0, 5.0]),
                                       make_field([1.0, 7.0, None, 6.0]))
        # only indices 0 and 3 pair up: differences 0 and 1
        assert e_fi == pytest.approx(0.5, rel=1e-15)
        assert rel == pytest.approx(1.0 / 26.0, rel=1e-15)

    def test_all_skipped(self):
        with pytest.raises(ValueError, match="no point is valid in both fields: the true "
                                             "field skips 1 and the learned field 0 of 1"):
            fisher_discrepancy(make_field([None]), make_field([2.0]))

    def test_nan_net_is_not_a_perfect_fit(self):
        # a diverged net: every learned point is "nonfinite", so nothing is compared
        model = KinematicModel()
        net = build_kinematic_net((LayerSpec(8, "tanh"), LayerSpec(3, "linear")),
                                  CollocationBounds(), seed=0)
        for w in net.params.weights:
            w[...] = math.nan
        pts = [(np.array([float(i), 0.0, 0.1 * i]), np.array([2.0, 0.1])) for i in range(4)]
        learned = evaluate_field(net, pts)
        assert learned.skip.tolist() == ["nonfinite"] * 4
        with pytest.raises(ValueError, match="the true field skips 0 and the learned "
                                             "field 4 of 4 points"):
            fisher_discrepancy(evaluate_field(model, pts), learned)


class TestAlignment:
    def test_length(self):
        with pytest.raises(AlignmentError, match="lengths"):
            fisher_discrepancy(make_field([1.0, 2.0]), make_field([1.0]))

    def test_policy(self):
        with pytest.raises(AlignmentError, match="policies"):
            fisher_discrepancy(make_field([1.0]), make_field([1.0], policy="fixed"))

    def test_fixed_directions(self):
        model = KinematicModel()
        pts = [(np.array([0.0, 0.0, 0.3]), np.array([2.0, 0.2])),
               (np.array([1.0, -2.0, 0.1]), np.array([1.0, -0.1]))]
        e0, e2 = (evaluate_field(model, pts, policy=np.eye(3)[i]) for i in (0, 2))
        assert fisher_discrepancy(e0, e0) == (0.0, 0.0)
        with pytest.raises(AlignmentError, match="different fixed directions"):
            fisher_discrepancy(e0, e2)
        # flow-aligned fields differ in du wherever the flows differ
        flow = make_field([1.0, 2.0])
        turned = replace(flow, du=np.tile([0.0, 1.0], (2, 1)))
        assert fisher_discrepancy(flow, turned) == (0.0, 0.0)

    def test_points_must_agree_to_1e_12(self):
        base = [np.array([0.5, 1.0]), np.array([2.0, -1.0])]
        close = [base[0] + 1e-13, base[1]]
        far = [base[0], base[1] + np.array([0.0, 2e-12])]
        fisher_discrepancy(make_field([1.0, 2.0], states=base),
                           make_field([1.0, 2.0], states=close))
        with pytest.raises(AlignmentError, match="identical points"):
            fisher_discrepancy(make_field([1.0, 2.0], states=base),
                               make_field([1.0, 2.0], states=far))

    def test_state_dimension(self):
        with pytest.raises(AlignmentError, match="identical points"):
            fisher_discrepancy(make_field([1.0], states=[np.zeros(2)]),
                               make_field([1.0], states=[np.zeros(3)]))


class TestJacobianBaseline:
    def test_equals_per_point_loop(self):
        rng = np.random.default_rng(41)
        true_model = DynamicModel(disturbances=DISTURBANCE_SETS[6])
        nominal = true_model.without_disturbances()
        pts = [(sample_dynamic_state(rng), sample_dynamic_input(rng),
                rng.uniform(0.0, 20.0)) for _ in range(40)]
        loop = np.mean([np.linalg.norm(true_model.jacobian(s, u, t) - nominal.jacobian(s, u, t))
                        for s, u, t in pts])
        assert jacobian_baseline(true_model, nominal, pts) == pytest.approx(loop, rel=1e-12)

    def test_time_defaults_to_zero(self):
        rng = np.random.default_rng(42)
        true_model = DynamicModel(disturbances=DISTURBANCE_SETS[5])  # Jacobian depends on t
        nominal = true_model.without_disturbances()
        pts = [(sample_dynamic_state(rng), sample_dynamic_input(rng)) for _ in range(5)]
        timed = [(s, u, 0.0) for s, u in pts]
        assert jacobian_baseline(true_model, nominal, pts) == jacobian_baseline(
            true_model, nominal, timed)


    def test_points_outside_the_envelope_are_left_out(self):
        rng = np.random.default_rng(43)
        true_model = DynamicModel(disturbances=DISTURBANCE_SETS[6])
        nominal = true_model.without_disturbances()
        pts = [(sample_dynamic_state(rng), sample_dynamic_input(rng), 1.0) for _ in range(6)]
        slow = pts[2][0].copy()
        slow[3] = 0.2  # below VX_MIN
        with_slow = pts[:2] + [(slow, pts[2][1], 1.0)] + pts[3:]
        assert jacobian_baseline(true_model, nominal, with_slow) == jacobian_baseline(
            true_model, nominal, pts[:2] + pts[3:])

    def test_no_point_inside_the_envelope_is_rejected(self):
        rng = np.random.default_rng(44)
        pts = []
        for _ in range(3):
            s = sample_dynamic_state(rng)
            s[3] = 0.2  # below VX_MIN
            pts.append((s, sample_dynamic_input(rng)))
        with pytest.raises(ValueError, match="none of the 3 points lies in both"):
            jacobian_baseline(DynamicModel(), DynamicModel(), pts)

    def test_empty_point_list_is_rejected(self):
        with pytest.raises(ValueError, match="point list is empty"):
            jacobian_baseline(DynamicModel(), DynamicModel(), [])


CRITERIA = (("traj_err", "eps_d", "trajectory_error"),
            ("physics_resid", "eps_p", "physics_residual"),
            ("e_fi_relative", "eps", "fisher_discrepancy"))


def verdict_at(**values):
    """The verdict with every criterion at zero except those given."""
    args = {"traj_err": 0.0, "physics_resid": 0.0, "e_fi_relative": 0.0, **values}
    tolerances = args.pop("tolerances", None)
    return well_trained_verdict(tolerances=tolerances, **args)


class TestWellTrainedVerdict:
    @pytest.mark.parametrize("arg,tol,label", CRITERIA)
    def test_value_at_its_tolerance_fails(self, arg, tol, label):
        result = verdict_at(**{arg: DEFAULT_TOLERANCES[tol]})
        assert result["verdict"] == "fail" and result["failing"] == [label]

    @pytest.mark.parametrize("arg,tol,label", CRITERIA)
    def test_value_just_below_its_tolerance_passes(self, arg, tol, label):
        value = np.nextafter(DEFAULT_TOLERANCES[tol], 0.0)
        result = verdict_at(**{arg: value})
        assert result["verdict"] == "geometric_fidelity_pass" and result["failing"] == []
        assert result[arg] == value

    @pytest.mark.parametrize("arg,tol,label", CRITERIA)
    def test_negative_value_raises(self, arg, tol, label):
        with pytest.raises(ValueError, match=arg):
            verdict_at(**{arg: -1e-300})

    @pytest.mark.parametrize("arg,tol,label", CRITERIA)
    def test_nan_value_raises(self, arg, tol, label):
        with pytest.raises(ValueError, match=f"{arg} must be >= 0, got nan"):
            verdict_at(**{arg: math.nan})

    def test_tolerance_override(self):
        assert verdict_at(e_fi_relative=0.3)["verdict"] == "fail"
        result = verdict_at(e_fi_relative=0.3, tolerances={"eps": 0.5})
        assert result["verdict"] == "geometric_fidelity_pass"
        assert result["tolerances"] == {**DEFAULT_TOLERANCES, "eps": 0.5}
        assert DEFAULT_TOLERANCES["eps"] == 0.05

    def test_unknown_tolerance_is_rejected(self):
        with pytest.raises(ValueError, match=r"unknown tolerances \['epsilon'\]: the known "
                                             r"ones are \['eps', 'eps_d', 'eps_p'\]"):
            verdict_at(tolerances={"epsilon": 1e-9})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1, "0.1", True])
    def test_unusable_threshold_is_rejected(self, value):
        with pytest.raises(ValueError, match="tolerance eps must be"):
            verdict_at(tolerances={"eps": value})

    def test_failing_names_every_failed_criterion_in_order(self):
        result = verdict_at(traj_err=1.0, physics_resid=1.0, e_fi_relative=1.0)
        assert result["failing"] == [label for _, _, label in CRITERIA]
        result = verdict_at(traj_err=1.0, e_fi_relative=1.0)
        assert result["failing"] == ["trajectory_error", "fisher_discrepancy"]


class TestParameterBiasTable:
    # columns: a = 1, 3, 2; b = 10, 10, 16; c = -2 three times
    RECORDS = [[1.0, 10.0, -2.0], [3.0, 10.0, -2.0], [2.0, 16.0, -2.0]]
    TRUTH = [4.0, 12.5, -1.0]

    def table(self):
        return parameter_bias_table(["a", "b", "c"], self.RECORDS, self.TRUTH)

    def test_hand_computed_mean_and_population_std(self):
        table = self.table()
        assert np.allclose(table.means, [2.0, 12.0, -2.0], rtol=1e-15, atol=0.0)
        # population variance: (1 + 1 + 0) / 3 and (4 + 4 + 16) / 3
        assert np.allclose(table.stds, [np.sqrt(2.0 / 3.0), np.sqrt(8.0), 0.0],
                           rtol=1e-15, atol=0.0)

    def test_relative_deviation_and_order(self):
        table = self.table()
        assert np.allclose(table.relative_deviation(), [0.5, 0.04, 1.0],
                           rtol=1e-15, atol=0.0)
        assert table.most_deviated() == ["c", "a", "b"]

    def test_to_csv(self):
        table = self.table()
        lines = table.to_csv().split("\n")
        assert lines[0] == "parameter,mean,std,true" and lines[-1] == ""
        for i, line in enumerate(lines[1:-1]):
            name, mean, std, true = line.split(",")
            assert name == "abc"[i]
            assert (float(mean), float(std), float(true)) == (
                table.means[i], table.stds[i], self.TRUTH[i])

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least two"):
            parameter_bias_table(["a", "b", "c"], self.RECORDS[:1], self.TRUTH)

    def test_record_width_must_match_names(self):
        with pytest.raises(ValueError, match="width"):
            parameter_bias_table(["a", "b"], self.RECORDS, self.TRUTH[:2])

    @pytest.mark.parametrize("truth", [[4.0, 12.5], [4.0, 12.5, -1.0, 2.0], [[4.0, 12.5, -1.0]],
                                       [4.0, float("nan"), -1.0], [float("inf"), 12.5, -1.0]])
    def test_truth_must_be_one_finite_value_per_name(self, truth):
        with pytest.raises(ValueError, match="are not 3 finite values, one per coefficient"):
            parameter_bias_table(["a", "b", "c"], self.RECORDS, truth)

    def test_zero_truth_has_no_relative_deviation(self):
        table = parameter_bias_table(["a", "b", "c"], self.RECORDS, [0.0, 12.5, -0.0])
        for method in (table.relative_deviation, table.most_deviated):
            with pytest.raises(ValueError, match=r"coefficients \['a', 'c'\], whose true "
                               "value is 0"):
                method()
