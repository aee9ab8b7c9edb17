import math
import re

import numpy as np
import pytest

from fisherdyn import dynamics
from fisherdyn.dynamics import (DELTA_MAX, ConfigError, DisturbanceConfig,
                                DomainError, DrivetrainCoefficients,
                                DynamicModel, KinematicModel,
                                PacejkaCoefficients, TirePair, VehicleParams)

from oracles import (central_difference_jacobian, disturbance_lateral_force,
                     longitudinal_force, pacejka_derivative, pacejka_lateral_force,
                     scalar_dynamic_jacobian, scalar_dynamic_rhs, slip_angles)


def sample_dynamic_state(rng):
    """Random in-envelope state for the desk-scale car."""
    return np.array([
        rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi),
        rng.uniform(1.0, 3.5), rng.uniform(-0.6, 0.6), rng.uniform(-4.0, 4.0),
    ])


def sample_dynamic_input(rng):
    return np.array([rng.uniform(0.0, 1.0), rng.uniform(-DELTA_MAX, DELTA_MAX)])


class TestKinematic:
    model = KinematicModel(VehicleParams.kinematic_default())

    def test_straight_line(self):
        out = self.model.rhs(np.zeros(3), np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_heading_symmetry(self):
        out = self.model.rhs(np.array([0, 0, math.pi / 2]), np.array([2.0, 0.0]))
        assert np.allclose(out, [0.0, 2.0, 0.0], atol=1e-12)

    def test_max_steer_rate(self):
        out = self.model.rhs(np.zeros(3), np.array([5.0, 0.5236]))
        assert out[2] == pytest.approx(5.0 * math.tan(0.5236) / 2.5, rel=1e-12)
        assert out[2] == pytest.approx(1.1547, abs=2e-4)

    def test_speed_invariant_under_heading(self):
        for theta in np.linspace(-math.pi, math.pi, 17):
            out = self.model.rhs(np.array([0, 0, theta]), np.array([3.0, 0.2]))
            assert np.hypot(out[0], out[1]) == pytest.approx(3.0, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            self.model.rhs(np.zeros(3), np.array([1.0, math.pi / 2]))

    def test_jacobian_structure(self):
        jac = self.model.jacobian(np.zeros(3), np.array([1.0, 0.0]))
        assert np.allclose(jac, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.normal(size=3)
            u = np.array([rng.uniform(0, 5), rng.uniform(-0.5, 0.5)])
            assert np.all(self.model.jacobian(s, u)[:, :2] == 0.0)

    def test_jacobian_vs_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = np.array([rng.uniform(-50, 50), rng.uniform(-10, 10),
                          rng.uniform(-math.pi, math.pi)])
            u = np.array([rng.uniform(0.1, 5), rng.uniform(-0.5, 0.5)])
            analytic = self.model.jacobian(s, u)
            fd = central_difference_jacobian(self.model.rhs, s, u)
            assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))


class TestPacejka:
    def test_zero_slip_returns_offset(self):
        c = PacejkaCoefficients(B=5.0, C=1.3, D=2.0, E=-0.1, G=0.7, K=0.25)
        assert pacejka_lateral_force(0.0, c) == pytest.approx(0.25, abs=1e-15)

    def test_reduced_form_value(self):
        c = PacejkaCoefficients(B=5.579, C=1.2, D=1.0, E=0.0, G=1.0, K=0.0)
        expect = math.sin(1.2 * math.atan(0.5579))
        assert pacejka_lateral_force(0.1, c) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.573413, abs=1e-6)

    def test_odd_symmetry(self):
        c = PacejkaCoefficients(B=4.0, C=1.5, D=0.2, E=-0.3, G=1.0, K=0.0)
        for alpha in np.linspace(0.01, 0.6, 10):
            assert pacejka_lateral_force(-alpha, c) == pytest.approx(
                -pacejka_lateral_force(alpha, c), rel=1e-12)

    def test_slope_at_origin(self):
        c = PacejkaCoefficients(B=5.0, C=1.3, D=0.19, E=-0.4, G=1.0, K=0.0)
        assert pacejka_derivative(0.0, c) == pytest.approx(5.0 * 1.3 * 0.19, rel=1e-12)

    def test_derivative_vs_finite_difference(self):
        c = PacejkaCoefficients(B=5.3852, C=1.2691, D=0.1737, E=-0.019, G=0.9, K=0.05)
        h = 1e-6
        for alpha in np.linspace(-0.8, 0.8, 33):
            fd = (pacejka_lateral_force(alpha + h, c)
                  - pacejka_lateral_force(alpha - h, c)) / (2 * h)
            assert pacejka_derivative(alpha, c) == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_zero_peak(self):
        c = PacejkaCoefficients(B=5.0, C=1.2, D=0.0, E=-0.1)
        assert pacejka_derivative(0.3, c) == 0.0


class TestSlipAngles:
    p = VehicleParams.dynamic_default()

    def test_straight_driving(self):
        s = np.array([0, 0, 0, 2.0, 0.0, 0.0])
        assert slip_angles(s, np.array([0.2, 0.0]), self.p) == (0.0, 0.0)

    def test_pure_steer(self):
        s = np.array([0, 0, 0, 2.0, 0.0, 0.0])
        af, ar = slip_angles(s, np.array([0.2, 0.1]), self.p)
        assert af == pytest.approx(0.1) and ar == 0.0

    def test_formula(self):
        p = VehicleParams(m=1.0, Iz=1.0, lf=1.5, lr=1.5, L=3.0)
        s = np.array([0, 0, 0, 10.0, 1.0, 0.5])
        af, ar = slip_angles(s, np.array([0.0, 0.0]), p)
        assert af == pytest.approx(-math.atan(0.175), rel=1e-12)
        assert ar == pytest.approx(-math.atan(0.025), rel=1e-12)

    def test_low_speed_guard(self):
        s = np.array([0, 0, 0, 0.4, 0.0, 0.0])
        with pytest.raises(DomainError):
            slip_angles(s, np.array([0.0, 0.0]), self.p)


class TestLongitudinalForce:
    def test_standstill(self):
        d = DrivetrainCoefficients(Cm1=1.0, Cm2=0.1, Cr0=0.05, Cd=0.001)
        assert longitudinal_force(0.0, 0.0, d) == pytest.approx(-0.05)

    def test_arithmetic(self):
        d = DrivetrainCoefficients(Cm1=100.0, Cm2=1.0, Cr0=5.0, Cd=0.1)
        assert longitudinal_force(0.5, 10.0, d) == pytest.approx(25.0)

    def test_all_zero(self):
        d = DrivetrainCoefficients(0.0, 0.0, 0.0, 0.0)
        assert longitudinal_force(0.7, 3.0, d) == 0.0


def zero_force_setup():
    """Tires and drivetrain that produce no forces at all."""
    tires = TirePair(PacejkaCoefficients(B=1.0, C=1.0, D=0.0, E=0.0),
                     PacejkaCoefficients(B=1.0, C=1.0, D=0.0, E=0.0))
    return tires, DrivetrainCoefficients(0.0, 0.0, 0.0, 0.0)


class TestDynamicRhs:
    p = VehicleParams.dynamic_default()

    def test_force_free_coasting(self):
        tires, drive = zero_force_setup()
        s = np.array([0, 0, 0.3, 2.0, 0.0, 0.0])
        out = DynamicModel(self.p, tires, drive).rhs(s, np.array([0.0, 0.0]))
        assert np.allclose(out, [2 * math.cos(0.3), 2 * math.sin(0.3), 0, 0, 0, 0],
                           atol=1e-15)

    def test_bank_offset(self):
        tires, drive = zero_force_setup()
        s = np.array([0, 0, 0, 2.0, 0.0, 0.0])
        base = DynamicModel(self.p, tires, drive).rhs(s, np.array([0.0, 0.0]))
        banked = DynamicModel(self.p, tires, drive,
                              [DisturbanceConfig.bank(0.1)]).rhs(s, np.array([0.0, 0.0]))
        assert banked[4] - base[4] == pytest.approx(9.81 * math.sin(0.1), rel=1e-12)
        assert banked[4] - base[4] == pytest.approx(0.9794, abs=2e-4)

    def test_wind_offset(self):
        p = VehicleParams(m=1000.0, Iz=1.0, lf=1.0, lr=1.0, L=2.0)
        tires, drive = zero_force_setup()
        s = np.array([0, 0, 0, 2.0, 0.0, 0.0])
        wind = DisturbanceConfig.wind(rho=1.2, area=1.0, Cw=0.8, vw=10.0)
        base = DynamicModel(p, tires, drive).rhs(s, np.array([0.0, 0.0]))
        out = DynamicModel(p, tires, drive, [wind]).rhs(s, np.array([0.0, 0.0]))
        assert out[4] - base[4] == pytest.approx(0.048, rel=1e-12)

    def test_speed_preserved_without_forces(self):
        # pure rotation coupling cancels in kinetic energy when delta = 0
        tires, drive = zero_force_setup()
        model = DynamicModel(self.p, tires, drive)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = sample_dynamic_state(rng)
            out = model.rhs(s, np.array([0.0, 0.0]))
            assert out[3] * s[3] + out[4] * s[4] == pytest.approx(0.0, abs=1e-12)

    def test_disturbance_additivity(self):
        tires = TirePair.default()
        drive = DrivetrainCoefficients()
        s = np.array([0, 0, 0.1, 2.0, 0.2, 1.0])
        u = np.array([0.3, 0.1])
        d1 = DisturbanceConfig.bank(0.05)
        d2 = DisturbanceConfig.wind(rho=1.2, area=0.002, Cw=1.0, vw=4.0)
        base = DynamicModel(self.p, tires, drive).rhs(s, u)
        r1 = DynamicModel(self.p, tires, drive, [d1]).rhs(s, u) - base
        r2 = DynamicModel(self.p, tires, drive, [d2]).rhs(s, u) - base
        r12 = DynamicModel(self.p, tires, drive, [d1, d2]).rhs(s, u) - base
        assert np.allclose(r12, r1 + r2, atol=1e-14)


class TestDisturbanceForces:
    p = VehicleParams.dynamic_default()
    s = np.array([0, 0, 0, 2.0, 0.1, 0.5])

    def test_bank_zero(self):
        assert disturbance_lateral_force(DisturbanceConfig.bank(0.0), self.s, 0.0,
                                         self.p) == 0.0

    def test_bump_peak(self):
        d = DisturbanceConfig.bump(ks=1000.0, cs=0.0, z_amplitude=0.01, z_frequency=1.0)
        # sine peak at t = 1/4 period
        assert disturbance_lateral_force(d, self.s, 0.25, self.p) == pytest.approx(10.0)

    def test_temperature_at_reference_is_zero_grip(self):
        d = DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=20.0,
                                               T_initial=20.0, T_rate=0.0)
        assert disturbance_lateral_force(d, self.s, 0.0, self.p) == pytest.approx(0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DisturbanceConfig("gusts", {})

    def test_missing_params_rejected(self):
        with pytest.raises(ConfigError):
            DisturbanceConfig("wind", {"rho": 1.2})


DISTURBANCE_SETS = [
    [],
    [DisturbanceConfig.wind(rho=1.2, area=0.002, Cw=1.0, vw=5.0)],
    [DisturbanceConfig.bank(0.08)],
    [DisturbanceConfig.bump(ks=20.0, cs=0.5, z_amplitude=0.005, z_frequency=2.0)],
    [DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0, stiffness_sensitivity=3.0)],
    [DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=20.0,
                                        T_initial=60.0, T_rate=0.5)],
    [DisturbanceConfig.bank(0.05),
     DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0, stiffness_sensitivity=3.0),
     DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=20.0,
                                        T_initial=60.0, T_rate=0.5)],
]


class TestDynamicJacobian:
    p = VehicleParams.dynamic_default()
    tires = TirePair.default()
    drive = DrivetrainCoefficients()

    def test_row3_and_position_columns(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = sample_dynamic_state(rng)
            u = sample_dynamic_input(rng)
            jac = DynamicModel(self.p, self.tires, self.drive).jacobian(s, u)
            assert np.allclose(jac[2], [0, 0, 0, 0, 0, 1])
            assert np.all(jac[:, :2] == 0.0)

    @pytest.mark.parametrize("dists", DISTURBANCE_SETS)
    def test_vs_finite_difference(self, dists):
        model = DynamicModel(self.p, self.tires, self.drive, dists)
        rng = np.random.default_rng(13)
        t = 0.37
        for _ in range(60):
            s = sample_dynamic_state(rng)
            # keep roll's |phi| differentiable branch away from zero crossing
            if any(d.kind == "roll" for d in dists):
                s[5] = math.copysign(max(abs(s[5]), 0.05), s[5])
            u = sample_dynamic_input(rng)
            analytic = model.jacobian(s, u, t)
            fd = central_difference_jacobian(lambda x, uu: model.rhs(x, uu, t), s, u)
            err = np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic))
            assert err <= 1e-5


# the default tires (G = 1, K = 0) and a pair that reaches the G and K terms
TIRE_PAIRS = [
    TirePair.default(),
    TirePair(front=PacejkaCoefficients(B=5.579, C=1.2, D=0.192, E=-0.083, G=0.8, K=0.01),
             rear=PacejkaCoefficients(B=5.3852, C=1.2691, D=0.1737, E=-0.019,
                                      G=1.2, K=-0.02)),
]


def stacked_dynamic_points(rng, n: int = 120):
    """In-envelope (n, 6) states, (n, 2) inputs and per-row times t != 0.

    The first rows hold omega = 0 (roll angle phi = 0); the next ones have a
    yaw rate large enough to clamp the roll stiffness factor at 0."""
    s = np.array([sample_dynamic_state(rng) for _ in range(n)])
    u = np.array([sample_dynamic_input(rng) for _ in range(n)])
    s[:10, 5] = 0.0
    s[10:20, 5] = rng.choice([-1.0, 1.0], 10) * rng.uniform(700.0, 1000.0, 10)
    return s, u, rng.uniform(0.1, 20.0, n)


def rel_err(a, ref) -> float:
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300))


class TestStackedDynamics:
    p = VehicleParams.dynamic_default()
    tires = TirePair.default()
    drive = DrivetrainCoefficients()

    @pytest.mark.parametrize("dists", DISTURBANCE_SETS)
    def test_rhs_matches_scalar_path(self, dists):
        s, u, t = stacked_dynamic_points(np.random.default_rng(21))
        for tires in TIRE_PAIRS:
            model = DynamicModel(self.p, tires, self.drive, dists)
            stacked = model.rhs(s, u, t)
            assert stacked.shape == s.shape
            for i in range(len(t)):
                ref = scalar_dynamic_rhs(s[i], u[i], self.p, tires, self.drive, dists, t[i])
                assert rel_err(stacked[i], ref) <= 1e-12
                single = model.rhs(s[i], u[i], t[i])
                assert np.array_equal(single, stacked[i])

    @pytest.mark.parametrize("dists", DISTURBANCE_SETS)
    def test_jacobian_matches_scalar_oracle(self, dists):
        s, u, t = stacked_dynamic_points(np.random.default_rng(22))
        for tires in TIRE_PAIRS:
            model = DynamicModel(self.p, tires, self.drive, dists)
            stacked = model.jacobian(s, u, t)
            assert stacked.shape == (len(t), 6, 6)
            for i in range(len(t)):
                ref = scalar_dynamic_jacobian(s[i], u[i], self.p, tires, self.drive,
                                              dists, t[i])
                assert rel_err(stacked[i], ref) <= 1e-12
                single = model.jacobian(s[i], u[i], t[i])
                assert np.array_equal(single, stacked[i])

    def test_roll_clamp_rows_lose_lateral_grip(self):
        s, u, t = stacked_dynamic_points(np.random.default_rng(23))
        roll = [DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0, stiffness_sensitivity=3.0)]
        model = DynamicModel(self.p, self.tires, self.drive, roll)
        out = model.rhs(s[10:20], u[10:20], t[10:20])
        # the clamped factor zeroes both tire forces (K = 0), so omega-dot vanishes
        assert np.all(out[:, 5] == 0.0)

    def test_scalar_time_broadcasts(self):
        s, u, t = stacked_dynamic_points(np.random.default_rng(24))
        dists = DISTURBANCE_SETS[3]
        model = DynamicModel(self.p, self.tires, self.drive, dists)
        a = model.jacobian(s, u, 0.7)
        b = model.jacobian(s, u, np.full(len(t), 0.7))
        assert np.array_equal(a, b)

    def test_domain_error_names_rows(self):
        s, u, t = stacked_dynamic_points(np.random.default_rng(25))
        s[[1, 4], 3] = [0.2, 0.5]
        model = DynamicModel(self.p, self.tires, self.drive)
        for fn in (model.rhs, model.jacobian):
            with pytest.raises(DomainError) as err:
                fn(s, u, t)
            assert err.value.rows.tolist() == [1, 4]
            assert err.value.reasons == [
                "vx=0.200 <= vx_min=0.5; slip angles undefined",
                "vx=0.500 <= vx_min=0.5; slip angles undefined"]

    def test_model_wrappers_take_stacks(self):
        s, u, t = stacked_dynamic_points(np.random.default_rng(26))
        model = DynamicModel(disturbances=DISTURBANCE_SETS[6])
        assert np.array_equal(model.rhs(s, u, t), np.stack(
            [model.rhs(s[i], u[i], t[i]) for i in range(len(t))]))
        assert model.jacobian(s, u, t).shape == (len(t), 6, 6)

    def test_model_builds_its_coefficient_vector_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = dynamics.coefficient_vector
        monkeypatch.setattr(dynamics, "coefficient_vector", counted)
        model = DynamicModel(self.p, self.tires, self.drive, DISTURBANCE_SETS[6])
        s, u, t = stacked_dynamic_points(np.random.default_rng(28))
        for _ in range(10):
            model.rhs(s, u, t)
            model.jacobian(s, u, t)
        assert calls == [(self.tires, self.drive)]


class TestStackedKinematic:
    model = KinematicModel(VehicleParams.kinematic_default())

    def test_matches_per_point(self):
        rng = np.random.default_rng(27)
        s = rng.normal(size=(40, 3))
        u = np.column_stack([rng.uniform(0, 5, 40), rng.uniform(-0.5, 0.5, 40)])
        rhs = self.model.rhs(s, u)
        jac = self.model.jacobian(s, u)
        assert rhs.shape == (40, 3) and jac.shape == (40, 3, 3)
        for i in range(40):
            assert np.array_equal(rhs[i], self.model.rhs(s[i], u[i]))
            assert np.array_equal(jac[i], self.model.jacobian(s[i], u[i]))
        assert np.array_equal(KinematicModel().rhs(s, u), rhs)

    def test_domain_error_names_rows(self):
        s = np.zeros((3, 3))
        u = np.array([[1.0, 0.1], [1.0, -math.pi / 2], [1.0, 0.0]])
        with pytest.raises(DomainError) as err:
            self.model.jacobian(s, u)
        assert err.value.rows.tolist() == [1]
        assert err.value.reasons == ["|delta|=1.571 >= pi/2"]


class TestPointShapes:
    @pytest.mark.parametrize("model,d", [(KinematicModel(), 3), (DynamicModel(), 6)])
    @pytest.mark.parametrize("method", ["rhs", "jacobian"])
    def test_wrong_trailing_dimension_names_the_expected_shapes(self, model, d, method):
        call = getattr(model, method)
        expected = rf"\(\.\.\., {d}\) and inputs of shape \(\.\.\., 2\)"
        for s, u in ((np.ones(d - 1), np.ones(2)), (np.ones((4, d)), np.ones((4, 3))),
                     (np.ones((4, d + 1)), np.ones((4, 2))), (np.float64(1.0), np.ones(2))):
            with pytest.raises(ValueError, match=expected) as err:
                call(s, u)
            assert not isinstance(err.value, DomainError)

    @pytest.mark.parametrize("model,name,d", [(KinematicModel(), "kinematic", 3),
                                              (DynamicModel(), "dynamic", 6)])
    @pytest.mark.parametrize("method", ["rhs", "jacobian"])
    def test_disagreeing_leading_axes_name_both_shapes(self, model, name, d, method):
        call = getattr(model, method)
        for s, u in (((4, d), (2, 2)), ((d,), (4, 2)), ((4, d), (2,))):
            shapes = re.escape(f"got {s} and {u}")
            with pytest.raises(ValueError, match=f"the {name} model .*same leading axes, "
                               + shapes):
                call(np.ones(s), np.ones(u))

    def test_field_of_wrongly_shaped_points_fails_loudly(self):
        from fisherdyn.fisher import evaluate_field
        with pytest.raises(ValueError, match=r"got \(1, 5\) and \(1, 2\)"):
            evaluate_field(DynamicModel(), [(np.ones(5), np.ones(2))])


class TestParamValidation:
    def test_positive_params(self):
        with pytest.raises(ConfigError):
            VehicleParams(m=-1.0)

    def test_pacejka_invariants(self):
        with pytest.raises(ConfigError):
            PacejkaCoefficients(B=-1.0, C=1.0, D=1.0, E=0.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: VehicleParams(Iz=math.inf), r"VehicleParams\.Iz"),
        (lambda: PacejkaCoefficients(B=math.nan, C=1.0, D=1.0, E=0.0),
         r"PacejkaCoefficients\.B"),
        (lambda: DrivetrainCoefficients(Cd=math.nan), r"DrivetrainCoefficients\.Cd"),
        (lambda: DisturbanceConfig.bank(math.nan), "parameter beta must be finite"),
        (lambda: DisturbanceConfig.tire_temperature(mu0=1.0, kT=0.05, T0=math.inf,
                                                    T_initial=60.0),
         "parameter T0 must be finite"),
        (lambda: DisturbanceConfig.roll(k_phi=0.0, c_phi=1.0, stiffness_sensitivity=3.0),
         "parameter k_phi must be > 0"),
        (lambda: DisturbanceConfig("bank", {"beta": 0.05, "betta": 0.05}),
         r"unknown parameters \['betta'\]"),
    ], ids=["vehicle-inf", "pacejka-nan", "drivetrain-nan", "bank-nan",
            "temperature-inf", "roll-k_phi-zero", "unknown-key"])
    def test_bad_config_is_rejected_naming_the_field(self, make, field):
        with pytest.raises(ConfigError, match=field):
            make()

    def test_disturbance_params_are_a_read_only_copy(self):
        raw = {"k_phi": 80.0, "c_phi": 5.0, "stiffness_sensitivity": 3.0}
        d = DisturbanceConfig("roll", raw)
        model = DynamicModel(disturbances=[d])
        s = np.array([0.0, 0.0, 0.2, 2.0, 0.1, 0.5])
        u = np.array([0.3, 0.1])
        before = model.rhs(s, u)
        raw["k_phi"] = 0.0
        assert np.array_equal(model.rhs(s, u), before)
        with pytest.raises(TypeError):
            d.params["k_phi"] = 0.0
        assert d.params["k_phi"] == 80.0

    def test_model_wrappers_match_functions(self):
        model = DynamicModel()
        s = np.array([0, 0, 0.2, 2.0, 0.1, 0.5])
        u = np.array([0.3, 0.1])
        assert np.allclose(model.rhs(s, u), scalar_dynamic_rhs(
            s, u, model.params, model.tires, model.drivetrain))
        kin = KinematicModel()
        sk, uk = np.array([1.0, 2.0, 0.3]), np.array([2.0, 0.1])
        assert np.allclose(kin.rhs(sk, uk), [2.0 * math.cos(0.3), 2.0 * math.sin(0.3),
                                             2.0 * math.tan(0.1) / kin.params.L])
