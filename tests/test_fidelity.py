import math

import numpy as np
import pytest

from fisherdyn.dynamics import DynamicModel
from fisherdyn.fidelity import fisher_discrepancy, jacobian_baseline
from fisherdyn.fisher import AlignmentError, FisherField, FisherSample

from test_dynamics import DISTURBANCE_SETS, sample_dynamic_input, sample_dynamic_state


def make_field(gs, policy="flow_aligned", states=None):
    """A field with one sample per g; None marks a skipped sample."""
    samples = []
    for i, g in enumerate(gs):
        state = np.array([float(i), 0.0]) if states is None else states[i]
        if g is None:
            samples.append(FisherSample(state, np.zeros(1), math.nan, math.nan, None,
                                        skip="equilibrium"))
        else:
            samples.append(FisherSample(state, np.zeros(1), g, g, None))
    return FisherField(samples, policy)


class TestFisherDiscrepancy:
    def test_hand_computed(self):
        # squared differences 1, 4, 0 over g_true = 1, 2, 3
        e_fi, rel = fisher_discrepancy(make_field([1.0, 2.0, 3.0]),
                                       make_field([2.0, 0.0, 3.0]))
        assert e_fi == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert rel == pytest.approx(5.0 / 14.0, rel=1e-15)

    def test_volume_scales_e_fi_only(self):
        e_fi, rel = fisher_discrepancy(make_field([1.0, 2.0]), make_field([2.0, 0.0]),
                                       volume=4.0)
        assert e_fi == pytest.approx(4.0 * 2.5, rel=1e-15)
        assert rel == pytest.approx(5.0 / 5.0, rel=1e-15)

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
        assert fisher_discrepancy(make_field([None]), make_field([2.0])) == (0.0, 0.0)


class TestAlignment:
    def test_length(self):
        with pytest.raises(AlignmentError, match="lengths"):
            fisher_discrepancy(make_field([1.0, 2.0]), make_field([1.0]))

    def test_policy(self):
        with pytest.raises(AlignmentError, match="policies"):
            fisher_discrepancy(make_field([1.0]), make_field([1.0], policy="basis_axis(0)"))

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
