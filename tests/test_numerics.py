import numpy as np
import pytest

from fisherdyn.numerics import (EvaluationError, central_difference_jacobian,
                                largest_singular_value, rk4_step)

from oracles import random_orthogonal, sigma_max_oracle


class TestCentralDifferenceJacobian:
    def test_identity_map(self):
        jac = central_difference_jacobian(lambda x: x, np.array([0.3, -1.2, 4.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-10)

    def test_quadratic(self):
        f = lambda x: np.array([x[0] ** 2, x[1]])
        jac = central_difference_jacobian(f, np.array([3.0, 5.0]))
        assert np.allclose(jac, [[6.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_second_order_convergence(self):
        # halving h should shrink the truncation error by about 4x
        f = lambda x: np.array([np.sin(x[0]) * x[1], np.exp(0.3 * x[0]) + x[1] ** 3])
        x = np.array([0.7, 1.3])
        exact = np.array([[np.cos(0.7) * 1.3, np.sin(0.7)],
                          [0.3 * np.exp(0.3 * 0.7), 3 * 1.3 ** 2]])
        e1 = np.max(np.abs(central_difference_jacobian(f, x, h=1e-3) - exact))
        e2 = np.max(np.abs(central_difference_jacobian(f, x, h=5e-4) - exact))
        assert 3.0 < e1 / e2 < 5.0

    def test_nonfinite_raises(self):
        f = lambda x: np.array([np.log(x[0])])
        with pytest.raises(EvaluationError):
            central_difference_jacobian(f, np.array([0.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            central_difference_jacobian(lambda x: x, np.zeros(2), h=0.0)


class TestRk4Step:
    def test_zero_field(self):
        out = rk4_step(lambda x: np.zeros(2), np.array([1.0, 2.0]), dt=0.1)
        assert np.allclose(out, [1.0, 2.0])

    def test_exponential_decay(self):
        # one step equals the degree-4 Taylor amplification exactly; its gap
        # to e^z at z=-0.1 is 8.2e-8, so that is the attainable tolerance
        out = rk4_step(lambda x: -x, np.array([1.0]), dt=0.1)
        z = -0.1
        amp = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert abs(out[0] - amp) < 1e-15
        assert abs(out[0] - np.exp(z)) < 1e-7
        fine = rk4_step(lambda x: -x, np.array([1.0]), dt=0.01)
        assert abs(fine[0] - np.exp(-0.01)) < 1e-8

    def test_rotation_closed_form(self):
        f = lambda x: np.array([x[1], -x[0]])
        x = np.array([1.0, 0.0])
        for _ in range(100):
            x = rk4_step(f, x, dt=0.01)
        assert np.allclose(x, [np.cos(1.0), -np.sin(1.0)], atol=1e-7)

    def test_fourth_order_global_error(self):
        def integrate(dt, n):
            x = np.array([1.0])
            for _ in range(n):
                x = rk4_step(lambda y: -y, x, dt=dt)
            return x[0]

        e1 = abs(integrate(0.1, 10) - np.exp(-1.0))
        e2 = abs(integrate(0.05, 20) - np.exp(-1.0))
        assert 10.0 < e1 / e2 < 24.0

    def test_nonfinite_raises(self):
        with pytest.raises(EvaluationError):
            rk4_step(lambda x: x * np.inf, np.array([1.0]), dt=0.1)


class TestLargestSingularValue:
    def test_identity(self):
        assert largest_singular_value(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diag(self):
        assert largest_singular_value(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix(self):
        assert largest_singular_value(np.zeros((4, 4))) == 0.0

    def test_ones_start_in_null_space(self):
        # a rank-one matrix whose A^T A annihilates the all-ones vector
        assert largest_singular_value(np.array([[1.0, -1.0]])) == pytest.approx(
            np.sqrt(2.0), rel=1e-10)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            assert largest_singular_value(a) == pytest.approx(
                sigma_max_oracle(a), rel=1e-6)

    def test_scaling_law(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        for c in (-2.5, 0.3, 7.0):
            assert largest_singular_value(c * a) == pytest.approx(
                abs(c) * largest_singular_value(a), rel=1e-9)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        q = random_orthogonal(6, rng)
        assert largest_singular_value(q @ a @ q.T) == pytest.approx(
            largest_singular_value(a), rel=1e-9)

    def test_rectangular(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 6))
        assert largest_singular_value(a) == pytest.approx(sigma_max_oracle(a), rel=1e-6)

    def test_stack_against_jacobi_oracle(self):
        rng = np.random.default_rng(43)
        stack = rng.normal(size=(4, 5, 6, 6)) * rng.uniform(0.1, 10.0, size=(4, 5, 1, 1))
        sigma = largest_singular_value(stack)
        assert sigma.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert sigma[idx] == pytest.approx(sigma_max_oracle(stack[idx]), rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            largest_singular_value(np.ones(3))
        with pytest.raises(ValueError):
            largest_singular_value(np.array([[[1.0, np.nan]]]))
