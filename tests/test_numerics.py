import tracemalloc

import numpy as np
import pytest

from fisherdyn.numerics import (SIGMA_BLOCK, EvaluationError, largest_singular_value, rk4,
                                rk4_adjoint, rk4_step)

from oracles import (central_difference_jacobian, random_orthogonal, sigma_max_oracle,
                     unblocked_sigma_max)


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
        with pytest.raises(EvaluationError), np.errstate(divide="ignore", invalid="ignore"):
            central_difference_jacobian(f, np.array([0.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            central_difference_jacobian(lambda x: x, np.zeros(2), h=0.0)


class TestRk4Step:
    def test_zero_field(self):
        out = rk4_step(lambda x, u: np.zeros(2), np.array([1.0, 2.0]), None, 0.1)
        assert np.allclose(out, [1.0, 2.0])

    def test_exponential_decay(self):
        # one step equals the degree-4 Taylor amplification exactly; its gap
        # to e^z at z=-0.1 is 8.2e-8, so that is the attainable tolerance
        out = rk4_step(lambda x, u: -x, np.array([1.0]), None, 0.1)
        z = -0.1
        amp = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert abs(out[0] - amp) < 1e-15
        assert abs(out[0] - np.exp(z)) < 1e-7
        fine = rk4_step(lambda x, u: -x, np.array([1.0]), None, 0.01)
        assert abs(fine[0] - np.exp(-0.01)) < 1e-8

    def test_rotation_closed_form(self):
        f = lambda x, u: np.array([x[1], -x[0]])
        x = np.array([1.0, 0.0])
        for _ in range(100):
            x = rk4_step(f, x, None, 0.01)
        assert np.allclose(x, [np.cos(1.0), -np.sin(1.0)], atol=1e-7)

    def test_fourth_order_global_error(self):
        def integrate(dt, n):
            x = np.array([1.0])
            for _ in range(n):
                x = rk4_step(lambda y, u: -y, x, None, dt)
            return x[0]

        e1 = abs(integrate(0.1, 10) - np.exp(-1.0))
        e2 = abs(integrate(0.05, 20) - np.exp(-1.0))
        assert 10.0 < e1 / e2 < 24.0

    def test_nonfinite_raises(self):
        with pytest.raises(EvaluationError):
            rk4_step(lambda x, u: x * np.inf, np.array([1.0]), None, 0.1)

    def test_given_first_stage_is_bit_identical(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.array([np.sin(x[1]) * x[0], -x[0] ** 3]), "aux"

        x, dt = np.array([0.7, -1.3]), 0.05
        full, _ = rk4(f, x, dt)
        k1 = f(x)[0]
        calls.clear()
        given, auxes = rk4(f, x, dt, k1)
        assert np.array_equal(given, full)
        assert len(calls) == 3 and auxes == (None, "aux", "aux", "aux")
        g = lambda xx, uu: f(xx)[0] + uu
        u = np.array([0.1, 0.2])
        assert np.array_equal(rk4_step(g, x, u, dt, k1=g(x, u)), rk4_step(g, x, u, dt))


class TestRk4Adjoint:
    """For f(x) = A x + c one step is P(dt A) x + dt Q(dt A) c with
    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and Q(z) = 1 + z/2 + z^2/6 + z^3/24,
    so the cotangents are P(dt A)^T lam for x and dt Q(dt A)^T lam for c."""

    A = np.array([[-0.7, 2.1, 0.3], [-1.9, -0.4, 1.2], [0.5, -1.1, -0.9]])
    c = np.array([0.2, -0.6, 1.4])
    dt = 0.3

    def polynomials(self):
        z = self.dt * self.A
        z2 = z @ z
        z3 = z2 @ z
        eye = np.eye(3)
        return (eye + z + z2 / 2 + z3 / 6 + z3 @ z / 24,
                eye + z / 2 + z2 / 6 + z3 / 24)

    def test_forward_closed_form(self):
        p, q = self.polynomials()
        x = np.random.default_rng(71).normal(size=(5, 3))
        out, auxes = rk4(lambda v: (v @ self.A.T + self.c, v), x, self.dt)
        ref = x @ p.T + self.dt * (q @ self.c)
        assert np.all(np.abs(out - ref) <= 1e-14 * np.max(np.abs(ref)))
        assert len(auxes) == 4 and auxes[0] is x

    def test_adjoint_closed_form(self):
        p, q = self.polynomials()
        rng = np.random.default_rng(72)
        x = rng.normal(size=(5, 3))
        lam = rng.normal(size=(5, 3))
        _, auxes = rk4(lambda v: (v @ self.A.T + self.c, None), x, self.dt)
        grad_c = np.zeros(3)

        def vjp(aux, b):
            grad_c[:] += b.sum(axis=0)
            return b @ self.A

        grad_x = rk4_adjoint(vjp, auxes, lam, self.dt)
        ref_x = lam @ p
        ref_c = self.dt * (q.T @ lam.sum(axis=0))
        assert np.all(np.abs(grad_x - ref_x) <= 1e-14 * np.max(np.abs(ref_x)))
        assert np.all(np.abs(grad_c - ref_c) <= 1e-14 * np.max(np.abs(ref_c)))

    def test_stages_run_last_to_first(self):
        seen = []

        def vjp(aux, b):
            seen.append(aux)
            return np.zeros_like(b)

        rk4_adjoint(vjp, ("k1", "k2", "k3", "k4"), np.ones(2), 0.1)
        assert seen == ["k4", "k3", "k2", "k1"]


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


class TestBlockedSingularValue:
    """Stacks run in blocks of SIGMA_BLOCK matrices with per-matrix arithmetic
    unchanged: the same bits as one unblocked pass, and temporaries bounded
    by the block, not the stack."""

    @pytest.mark.parametrize("shape", [
        (0, 6, 6), (1, 6, 6), (SIGMA_BLOCK - 1, 6, 6), (SIGMA_BLOCK, 6, 6),
        (SIGMA_BLOCK + 1, 6, 6), (1409, 6, 6), (2, 300, 6, 6),
        (SIGMA_BLOCK + 1, 3, 5), (SIGMA_BLOCK + 1, 5, 3)])
    def test_matches_svd_and_the_unblocked_pass(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-2] + (1, 1))
        sigma = largest_singular_value(stack)
        assert sigma.shape == shape[:-2]
        svd = np.linalg.svd(stack, compute_uv=False)[..., 0]
        assert np.all(np.abs(sigma - svd) <= 1e-13 * svd)
        assert sigma.tobytes() == unblocked_sigma_max(stack).tobytes()

    def test_zero_and_nonfinite_matrices_past_the_first_block(self):
        stack = np.random.default_rng(7).normal(size=(2 * SIGMA_BLOCK + 3, 6, 6))
        stack[SIGMA_BLOCK + 1] = 0.0
        assert largest_singular_value(stack)[SIGMA_BLOCK + 1] == 0.0
        stack[2 * SIGMA_BLOCK + 2, 3, 4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            largest_singular_value(stack)

    def test_temporaries_do_not_grow_with_the_stack(self):
        n = 4096
        stack = np.random.default_rng(8).normal(size=(n, 6, 6))
        largest_singular_value(stack[:SIGMA_BLOCK])
        tracemalloc.start()
        try:
            largest_singular_value(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n,) result plus a few block-sized temporaries; one unblocked
        # pass over the stack holds about 2.6 MB here
        block_bytes = SIGMA_BLOCK * 6 * 6 * 8
        assert peak <= 8 * n + 4 * block_bytes
