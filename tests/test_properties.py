"""Property tests of the Fisher scalar and the sigma_max kernel over generated
stacks, of the dynamic model's velocity Jacobian, of mish against its
np.logaddexp form, and of the dataset and checkpoint file round trips. The
examples are derandomized, so every run checks the same ones."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fisherdyn.datagen import Trajectory, read_dataset, write_dataset  # noqa: E402
from fisherdyn.dynamics import (DELTA_MAX, DrivetrainCoefficients,  # noqa: E402
                                VehicleParams, velocity_rate_partials,
                                velocity_rates)
from fisherdyn.estimator import default_guard_bounds  # noqa: E402
from fisherdyn.fisher import classical_fisher  # noqa: E402
from fisherdyn.nets import (LayerSpec, LearnedDynamicsModel, NetworkParams,  # noqa: E402
                            _activation_deriv, _softplus, mish, sigmoid)
from fisherdyn.numerics import largest_singular_value  # noqa: E402

from oracles import curvature_fisher, random_orthogonal  # noqa: E402
from test_dynamics import TIRE_PAIRS  # noqa: E402

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


# (vx, vy, omega, throttle, delta) box of the dynamic model's tests
VELOCITY_LOWER = np.array([1.0, -0.6, -4.0, 0.0, -DELTA_MAX])
VELOCITY_UPPER = np.array([3.5, 0.6, 4.0, 1.0, DELTA_MAX])


@st.composite
def velocity_points(draw):
    """(rows (n, 5) in the box above, fractions (n, 12) of the way through
    each coefficient's guard bracket)."""
    n = draw(st.integers(1, 6))
    unit = lambda cols: draw(arrays(float, (n, cols), elements=st.floats(0.0, 1.0)))
    return VELOCITY_LOWER + (VELOCITY_UPPER - VELOCITY_LOWER) * unit(5), unit(12)


@PROPERTY
@given(velocity_points())
def test_velocity_block_matches_central_differences(points):
    rows, frac = points
    vel, u, p = rows[:, :3], rows[:, 3:], VehicleParams()
    for tires in TIRE_PAIRS:
        bounds = default_guard_bounds(tires, DrivetrainCoefficients())
        coef = bounds.lower + (bounds.upper - bounds.lower) * frac
        _, d_vel, _ = velocity_rate_partials(vel, u, p, coef, tires)
        fd = np.empty_like(d_vel)
        for k in range(3):
            h = np.zeros(3)
            h[k] = 1e-6
            fd[..., k] = (velocity_rates(vel + h, u, p, coef, tires)
                          - velocity_rates(vel - h, u, p, coef, tires)) / 2e-6
        scale = np.max(np.abs(fd), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(d_vel - fd) <= 1e-6 * scale)


@PROPERTY
@given(arrays(float, st.integers(1, 32), elements=st.floats(-1e300, 1e300)))
def test_mish_is_within_4_ulp_of_its_logaddexp_form(z):
    # Where softplus is subnormal (z < -708) mish = z t scales its last-place
    # difference by |z|, so mish is held to 4 ulp where softplus is normal.
    # The derivative t + z (1 - t^2) sigmoid(z) crosses zero near z = -1.19,
    # so it is held to 4 ulp of its larger term, not of its value.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(_softplus(np.array([np.inf, -np.inf])), [np.inf, 0.0])
        softplus = np.logaddexp(0.0, z)
        assert np.all(np.abs(_softplus(z) - softplus) <= 4 * np.spacing(softplus))
        t = np.tanh(softplus)
        normal = softplus >= np.finfo(float).tiny
        assert np.all((np.abs(mish(z) - z * t) <= 4 * np.spacing(np.abs(z * t)))[normal])
        slope = z * (1.0 - t * t) * sigmoid(z)
        assert np.all(np.abs(_activation_deriv("mish", z, None) - (t + slope))
                      <= 4 * np.spacing(np.maximum(np.abs(t), np.abs(slope))))


# Any finite float64, with -0.0, subnormals and +-1e308 drawn often.
EDGES = (-0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308)
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# Any text a CSV cell can hold: no separator and no line break.
CELL_TEXT = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"))
COLUMN_NAMES = CELL_TEXT.filter(lambda name: not name.startswith("xdot_"))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def trajectories(draw):
    n, d, m = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    names = lambda k: tuple(draw(st.lists(COLUMN_NAMES, min_size=k, max_size=k)))
    return Trajectory(draw(arrays(float, n, elements=FINITE)),
                      draw(arrays(float, (n, d), elements=FINITE)),
                      draw(arrays(float, (n, m), elements=FINITE)),
                      draw(arrays(float, (n, d), elements=FINITE)),
                      disturbance_kind=draw(CELL_TEXT), exit_reason=draw(st.text()),
                      state_names=names(d), input_names=names(m))


@PROPERTY
@given(trajectories())
def test_trajectory_csv_round_trip_is_bit_exact(traj):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset([traj], tmp)
        (back,) = read_dataset(tmp)
    for key in ("times", "states", "inputs", "derivs"):
        assert same_bits(getattr(back, key), getattr(traj, key)), key
    labels = ("disturbance_kind", "exit_reason", "state_names", "input_names")
    assert [getattr(back, k) for k in labels] == [getattr(traj, k) for k in labels]


@st.composite
def learned_models(draw):
    state_dim, input_dim = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    total = state_dim + input_dim
    widths = [*draw(st.lists(st.integers(1, 4), max_size=2)), state_dim]
    activations = st.sampled_from(["linear", "tanh", "sigmoid", "relu", "mish"])
    layers = tuple(LayerSpec(w, draw(activations)) for w in widths)
    weights = [draw(arrays(float, (w, f), elements=FINITE))
               for w, f in zip(widths, [total, *widths[:-1]])]
    biases = [draw(arrays(float, w, elements=FINITE)) for w in widths]
    scale = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return LearnedDynamicsModel(NetworkParams(total, layers, weights, biases),
                                state_dim, input_dim,
                                draw(arrays(float, total, elements=FINITE)),
                                draw(arrays(float, total, elements=scale)))


@PROPERTY
@given(learned_models())
def test_checkpoint_round_trip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        model.save(Path(tmp) / "net.json")
        back = LearnedDynamicsModel.load(Path(tmp) / "net.json")
    assert (back.state_dim, back.input_dim) == (model.state_dim, model.input_dim)
    assert back.params.layers == model.params.layers
    assert same_bits(back.offset, model.offset) and same_bits(back.scale, model.scale)
    for key in ("weights", "biases"):
        for a, b in zip(getattr(back.params, key), getattr(model.params, key), strict=True):
            assert same_bits(a, b), key
