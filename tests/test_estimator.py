import numpy as np
import pytest

from fisherdyn import dynamics
from fisherdyn.dynamics import (DrivetrainCoefficients, TirePair, VehicleParams,
                                dynamic_rhs)
from fisherdyn.estimator import (coefficients_to_structs, predict_next_velocities,
                                 true_coefficients)
from fisherdyn.numerics import rk4_step


def velocity_batch(rng, n):
    """Rows (vx, vy, omega, throttle, delta) and per-row coefficients near the truth."""
    states = np.column_stack([rng.uniform(0.8, 3.5, n), rng.uniform(-0.5, 0.5, n),
                              rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, 1.0, n),
                              rng.uniform(-0.5, 0.5, n)])
    truth = true_coefficients(TirePair.default(), DrivetrainCoefficients())
    return states, truth * rng.uniform(0.8, 1.2, size=(n, 12))


class TestPredictNextVelocities:
    p = VehicleParams.dynamic_default()
    template = TirePair.default()

    def test_matches_scalar_rk4_per_row(self):
        states, coef = velocity_batch(np.random.default_rng(51), 64)
        pred = predict_next_velocities(states, coef, self.p, self.template, 0.02)
        for row, c, out in zip(states, coef, pred):
            tires, drive = coefficients_to_structs(c, self.template)

            def velocity_rhs(vel, u):
                s = np.concatenate([np.zeros(3), vel])
                return dynamic_rhs(s, u, self.p, tires, drive)[3:]

            ref = rk4_step(velocity_rhs, row[:3], row[3:], 0.02)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rates_compute_no_jacobian_partials(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Jacobian partial was computed")

        monkeypatch.setattr(dynamics, "_tire_slope", forbidden)
        monkeypatch.setattr(dynamics, "_scale_slope", forbidden)
        states, coef = velocity_batch(np.random.default_rng(52), 8)
        predict_next_velocities(states, coef, self.p, self.template, 0.02)
        s = np.column_stack([np.zeros((8, 3)), states[:, :3]])
        roll = [dynamics.DisturbanceConfig.roll(k_phi=80.0, c_phi=1.0,
                                                stiffness_sensitivity=3.0)]
        dynamic_rhs(s, states[:, 3:], self.p, self.template, DrivetrainCoefficients(), roll)
        with pytest.raises(AssertionError, match="partial"):
            dynamics.dynamic_jacobian(s, states[:, 3:], self.p, self.template,
                                      DrivetrainCoefficients(), roll)
