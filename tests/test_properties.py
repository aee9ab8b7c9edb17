"""Property tests of the Fisher scalar and the sigma_max kernel over generated
stacks. The examples are derandomized, so every run checks the same ones."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fisherdyn.fisher import classical_fisher, curvature_fisher  # noqa: E402
from fisherdyn.numerics import largest_singular_value  # noqa: E402

from oracles import random_orthogonal  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def matrix_stacks(draw, square=True):
    """A (k, m, n) stack with bounded entries; square stacks have m = n."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    n = m if square else draw(st.integers(1, 7))
    return draw(arrays(float, (k, m, n), elements=ENTRIES))


@st.composite
def fields(draw):
    """(A (k, d, d), du (k, d)) with unit rows du."""
    a = draw(matrix_stacks())
    v = draw(arrays(float, a.shape[:2], elements=ENTRIES))
    norms = np.linalg.norm(v, axis=1)
    assume(np.all(norms > 1e-3))
    return a, v / norms[:, None]


def frobenius_sq(a):
    return np.einsum("...ij,...ij->...", a, a)


@PROPERTY
@given(fields())
def test_g_is_bounded_by_sigma_max(field):
    a, du = field
    g = classical_fisher(a, du)
    sig2 = largest_singular_value(a) ** 2
    assert g.shape == sig2.shape == (a.shape[0],)
    assert np.all(g >= 0.0)
    assert np.all(g / 4.0 <= sig2 * (1.0 + 1e-12))


@PROPERTY
@given(fields(), st.integers(0, 2**32 - 1))
def test_g_is_invariant_under_rotation(field, seed):
    a, du = field
    q = random_orthogonal(a.shape[1], np.random.default_rng(seed))
    g = classical_fisher(a, du)
    rotated = classical_fisher(q @ a @ q.T, du @ q.T)
    assert np.all(np.abs(rotated - g) <= 1e-12 * (1.0 + frobenius_sq(a)))


@PROPERTY
@given(fields(), st.floats(1e-3, 1e3))
def test_curvature_form_equals_classical_form(field, speed):
    a, du = field
    g = classical_fisher(a, du)
    for i in range(a.shape[0]):
        g_curv = curvature_fisher(a[i], speed * du[i])
        assert abs(g_curv - g[i]) <= 1e-12 * (1.0 + frobenius_sq(a[i]))


@st.composite
def scaled_stacks(draw):
    """A stack whose matrices are each scaled by 10**e, e in -150..150, and
    each either dense, rank one or zero."""
    base = draw(matrix_stacks(square=False)) / 1e3
    k, m, n = base.shape
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["dense", "rank1", "zero"]),
                                           min_size=k, max_size=k))):
        if kind == "rank1":
            base[i] = np.outer(base[i, :, 0], base[i, 0, :])
        elif kind == "zero":
            base[i] = 0.0
    exponents = draw(arrays(int, k, elements=st.integers(-150, 150)))
    return base * 10.0 ** exponents[:, None, None]


@PROPERTY
@given(scaled_stacks())
def test_sigma_max_matches_svd_across_scales(stack):
    sigma = largest_singular_value(stack)
    svd = np.linalg.svd(stack, compute_uv=False)[:, 0]
    assert np.all(np.abs(sigma - svd) <= 1e-13 * svd)
    for one, ref in zip(stack, svd):
        assert largest_singular_value(one) == pytest.approx(ref, rel=1e-13, abs=0.0)
