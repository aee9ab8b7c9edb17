"""Minimal in-repo neural network stack.

Multilayer perceptrons with per-layer activations, exact reverse-mode
parameter gradients, forward-mode input Jacobians, a bias-corrected Adam
optimizer with the minibatch schedule of both training loops, the sigmoid
Physics Guard rescaling layer, and a single gated recurrent cell with
backprop-through-time. Everything runs on float64 numpy; no external autodiff.

Every kernel takes inputs over leading axes, as the car models do: (d,) for
one input, (..., d) for a stack, (..., tau, d) for a GRU history. Forward
passes come in two kinds with the same arithmetic, bit for bit:
``mlp_forward`` and ``gru_forward`` keep nothing but their output, for
inference and loss evaluation; ``mlp_forward_cache`` and
``gru_forward_cache`` also keep what ``mlp_vjp`` and ``gru_backward`` read,
for training. Private pieces make each decision once: ``_forward`` checks a
raw input; ``_ACTIVATIONS`` maps a name to its value, its derivative and
what the derivative reads; ``_layer_outputs`` and ``_layer_deltas`` are the
forward and backward layer loops, and both write into per-layer
destinations when given them, which is how the training rollout fills its
stage buffers; ``_weight_grad`` is a layer's (dW, db) summed over leading
axes, for the MLP backward, the rollout and the GRU gates.

The training kernels and the forward passes take a :class:`Workspace` as
the keyword ``work`` and then write their arrays into it, so that a loop
passing one to every batch allocates its batch state once; without one they
allocate as numpy does, with the same arithmetic, bit for bit.

``LearnedDynamicsModel`` wraps an MLP behind the same (rhs, jacobian) surface
as the analytical models, including the fixed affine input normalization the
Jacobian has to be corrected for, and owns the versioned JSON checkpoint
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._codec import read_json, require_keys, write_json
from .dynamics import _check_fields, _check_point_shapes

__all__ = [
    "LayerSpec",
    "NetworkParams",
    "AdamState",
    "PhysicsGuardBounds",
    "GruSpec",
    "Workspace",
    "init_network",
    "mlp_forward",
    "mlp_forward_cache",
    "mlp_vjp",
    "mlp_param_gradient",
    "mlp_input_jacobian",
    "init_adam",
    "adam_step",
    "physics_guard",
    "physics_guard_derivative",
    "init_gru",
    "gru_forward",
    "gru_forward_cache",
    "gru_backward",
    "LearnedDynamicsModel",
]

CHECKPOINT_FORMAT = "fisherdyn-net"
CHECKPOINT_VERSION = 1

_SIGMOID_CLIP = 1e-12  # keeps guard outputs strictly inside their bounds


class Workspace:
    """Named float64 buffers that repeated calls write their arrays into.

    ``arrays(name, *shapes)`` lays C-contiguous, 64-byte aligned arrays of
    ``shapes`` one after another over the name's buffer, which is allocated
    again only when they do not fit, and overwrites what the name's earlier
    arrays held. "scratch" holds temporaries that live within one kernel
    call (or between two calls that no other kernel runs between), so they
    share one buffer. A loop that passes one workspace to every batch
    allocates its batch state once, sized by its largest batch; a shorter
    batch takes the leading entries.
    """

    _ALIGN = 8  # entries: 64 bytes

    def __init__(self):
        self._buffers = {}

    def arrays(self, name: str, *shapes) -> list:
        sizes = [-(-math.prod(shape) // self._ALIGN) * self._ALIGN for shape in shapes]
        buf = self._buffers.get(name)
        if buf is None or buf.size < sum(sizes):
            buf = self._buffers[name] = np.empty(sum(sizes))
        starts = accumulate(sizes[:-1], initial=0)
        return [buf[i:i + math.prod(shape)].reshape(shape) for i, shape in zip(starts, shapes)]


def sigmoid(z, *, out=None):
    """0.5 (1 + tanh(z / 2)), written into ``out`` if given (it may be z).
    The tanh form cannot overflow and needs no masking by sign."""
    t = np.tanh(np.multiply(z, 0.5, out=out), out=out)
    return np.multiply(np.add(t, 1.0, out=out), 0.5, out=out)


def _softplus(z, out=None):
    """log(1 + e^z), as max(z, 0) + log1p(e^-|z|): the exponent is never
    positive, so nothing overflows. np.logaddexp(0, z) is the same formula,
    but numpy runs it element by element through libm, about 7x slower on a
    (512, 32) array on x86-64; the vectorized exp and log1p agree with it to
    a few ulp. Written into ``out`` if given, as are mish and its
    derivative."""
    e = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
    return np.add(np.log1p(e, out=out), np.maximum(z, 0.0), out=out)


# The largest finite float64. Where mish and its derivative multiply z by a
# factor that is 0 at z = +-inf, they read z clipped to it: that changes no
# finite value, and the product takes its limit instead of inf * 0 = NaN.
_FLOAT_MAX = np.finfo(float).max


def mish(z, out=None):
    # x * tanh(softplus(x)); 0 at -inf
    t = np.tanh(_softplus(z, out), out=out)
    return np.multiply(t, np.maximum(z, -_FLOAT_MAX), out=out)


def _mish_deriv(z, a, out):
    # t + (1 - t^2) z sigmoid(z), t = tanh(softplus(z)), in two temporaries;
    # 1 - t^2 is built in place as -t^2 + 1, which rounds the same
    t = np.tanh(_softplus(z, out), out=out)
    slope = t * t
    slope *= -1.0
    slope += 1.0
    factor = np.clip(z, -_FLOAT_MAX, _FLOAT_MAX)
    slope *= factor
    slope *= sigmoid(z, out=factor)
    return np.add(t, slope, out=out)


# name -> (value at z, written into ``out`` if one is given (linear returns z
# itself); derivative at z with outputs a: None for linear, and only mish
# reads z and writes into ``out``; which of "z" and "a" the derivative reads).
# sigmoid and mish are looked up by name when called, so that rebinding them
# reaches every layer.
_ACTIVATIONS = {
    "linear": (lambda z, out: z, lambda z, a, out: None, ""),
    "tanh": (np.tanh, lambda z, a, out: 1.0 - a * a, "a"),
    "sigmoid": (lambda z, out: sigmoid(z, out=out), lambda z, a, out: a * (1.0 - a), "a"),
    "relu": (lambda z, out: np.maximum(z, 0.0, out=out), lambda z, a, out: a > 0.0, "a"),
    "mish": (lambda z, out: mish(z, out), _mish_deriv, "z"),
}


def _activation(name, z, out=None):
    return _ACTIVATIONS[name][0](z, out)


def _activation_deriv(name, z, a, out=None):
    """d(activation)/dz at pre-activations ``z`` with outputs ``a``; of the
    two it reads only those named by ``_deriv_reads``."""
    return _ACTIVATIONS[name][1](z, a, out)


def _deriv_reads(name) -> str:
    """Which of "z" (pre-activation) and "a" (output) ``_activation_deriv``
    reads for an activation: "" for linear, "z" for mish, else "a"."""
    return _ACTIVATIONS[name][2]


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class NetworkParams:
    """Weights/biases of an MLP; weights[l] has shape (width_l, fan_in_l)."""

    input_dim: int
    layers: tuple
    weights: list
    biases: list

    @property
    def output_dim(self) -> int:
        return self.layers[-1].width

    def param_list(self) -> list:
        """Flat list view [W0, b0, W1, b1, ...] sharing the same arrays."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_network(input_dim: int, layers, seed: int = 0) -> NetworkParams:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    layers = tuple(layers)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    fan_in = input_dim
    for spec in layers:
        bound = np.sqrt(6.0 / (fan_in + spec.width))
        weights.append(rng.uniform(-bound, bound, size=(spec.width, fan_in)))
        biases.append(np.zeros(spec.width))
        fan_in = spec.width
    return NetworkParams(input_dim, layers, weights, biases)


def _layer_outputs(params: NetworkParams, x, weights_t, bias0=None, out=None):
    """(pre-activation, output) of each layer in turn at network inputs
    ``x``: the one layer loop of every MLP forward pass.

    ``weights_t[l]`` is layer l's weight as a (fan_in, width) array: the
    transposed view, or a contiguous copy of it, which a caller that runs
    many passes makes once because the product with it is faster. ``bias0``
    replaces layer 0's bias: the training rollout folds the input
    normalization into layer 0, so that its ``x`` is the raw state and its
    ``bias0`` carries the held input's term. With ``out``, layer l's
    pre-activation and output are written into the arrays ``out[l] = (z, a)``
    where they are not None; a linear layer's output is its pre-activation,
    so it has no destination of its own."""
    a = x
    for l, spec in enumerate(params.layers):
        z_out, a_out = (None, None) if out is None else out[l]
        z = np.matmul(a, weights_t[l], out=z_out)
        z += params.biases[l] if l or bias0 is None else bias0
        a = _activation(spec.activation, z, a_out)
        yield z, a


def _layer_deltas(params: NetworkParams, derivs, delta, out=None):
    """Yield the cotangent of each layer's pre-activation, last layer first,
    given the cotangent ``delta`` of the output. ``derivs`` gives each
    layer's ``_activation_deriv`` at the rows in the same order, and may be
    lazy: a layer's derivative is drawn once the layer above is done with.
    With ``out``, layer l's cotangent is written into ``out[l]``."""
    derivs = iter(derivs)
    for l in range(len(params.weights) - 1, -1, -1):
        slot = None if out is None else out[l]
        if l < len(params.weights) - 1:
            delta = np.matmul(delta, params.weights[l + 1], out=slot)
        deriv = next(derivs)
        if deriv is not None:
            delta = np.multiply(delta, deriv, out=slot)
        elif slot is not None and slot is not delta:
            slot[...] = delta
        yield delta


def _weight_grad(delta, x):
    """A layer's (dW, db) summed over the leading axes of its pre-activation
    cotangent ``delta`` (..., width) and its input ``x`` (..., fan_in): one
    product over the rows, whatever they stack."""
    delta = delta.reshape(-1, delta.shape[-1])
    return delta.T @ x.reshape(-1, x.shape[-1]), delta.sum(axis=0)


def _forward(params: NetworkParams, x, work=None):
    """(x as a float array, the ``_layer_outputs`` of the network at x): the
    one place a raw network input (..., input_dim) meets layer 0. With a
    :class:`Workspace` ``work``, layer l's pre-activation and (unless
    linear) output are its arrays "layer<l>.z" and "layer<l>.a"."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (params.input_dim,):
        raise ValueError(f"input shape {x.shape} does not match network dim {params.input_dim}")
    out = None
    if work is not None:
        shapes = [x.shape[:-1] + (spec.width,) for spec in params.layers]
        out = [(work.arrays(f"layer{l}.z", shape)[0],
                None if spec.activation == "linear" else work.arrays(f"layer{l}.a", shape)[0])
               for l, (spec, shape) in enumerate(zip(params.layers, shapes))]
    return x, _layer_outputs(params, x, [w.T for w in params.weights], out=out)


def mlp_forward(params: NetworkParams, x, check_finite: bool = True, *, work=None):
    """Forward pass of inputs (..., d) to outputs (..., outputs).

    It keeps no layer outputs: use it wherever no backward pass follows, and
    ``mlp_forward_cache`` (the same arithmetic, bit for bit) where one does.
    With a :class:`Workspace` ``work`` the layers write into its arrays, as
    in ``mlp_forward_cache``.

    A non-finite output raises ``FloatingPointError`` unless
    ``check_finite`` is false, in which case it is returned as it is.
    """
    for _, a in _forward(params, x, work)[1]:
        pass
    if check_finite and not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite network output")
    return a


def mlp_forward_cache(params: NetworkParams, x, *, work=None):
    """Forward pass keeping what ``mlp_vjp`` reads: the network input and
    every layer's output (``acts``) and pre-activation (``pres``); returns
    (output, (acts, pres)). With a :class:`Workspace` ``work`` the outputs
    and pre-activations are its arrays, overwritten by its next forward
    pass."""
    x, layers = _forward(params, x, work)
    pres, acts = zip(*layers)
    return acts[-1], ([x, *acts], pres)


def mlp_vjp(params: NetworkParams, cache, grad_out, *, work=None):
    """Backprop an upstream gradient; returns (grad_input, [(dW, db), ...]).

    Activation derivatives come from the cached layer outputs, so no
    activation is evaluated again (mish, whose derivative needs the
    pre-activation, excepted). With a :class:`Workspace` ``work`` the
    derivatives and cotangents are its scratch and grad_input is its array
    "mlp.grad_in"."""
    acts, pres = cache
    grad_out = np.asarray(grad_out, float)
    layers = range(len(params.weights) - 1, -1, -1)
    derivs_out = deltas_out = [None] * len(params.weights)
    if work is not None:
        shapes = [grad_out.shape[:-1] + (spec.width,) for spec in params.layers]
        bufs = work.arrays("scratch", *shapes, *shapes)
        derivs_out, deltas_out = bufs[:len(shapes)], bufs[len(shapes):]
    derivs = (_activation_deriv(params.layers[l].activation, pres[l], acts[l + 1], derivs_out[l])
              for l in layers)
    grads = [None] * len(params.weights)
    for l, delta in zip(layers, _layer_deltas(params, derivs, grad_out, deltas_out)):
        grads[l] = _weight_grad(delta, acts[l])
    if work is None:
        return delta @ params.weights[0], grads
    grad_in = work.arrays("mlp.grad_in", delta.shape[:-1] + (params.input_dim,))[0]
    return np.matmul(delta, params.weights[0], out=grad_in), grads


def mlp_param_gradient(params: NetworkParams, inputs, targets):
    """Mean-squared-error loss (mean over samples of |y - t|^2) and its
    exact parameter gradient; ``targets`` has the outputs' shape."""
    y, cache = mlp_forward_cache(params, inputs)
    rows = y.size // params.output_dim
    if rows == 0:
        raise ValueError("empty batch")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != y.shape:
        raise ValueError(f"targets of shape {targets.shape} do not match the outputs' "
                         f"shape {y.shape}")
    resid = y - targets
    loss = float(np.mean(np.sum(resid * resid, axis=-1)))
    _, grads = mlp_vjp(params, cache, 2.0 * resid / rows)
    return loss, grads


def mlp_input_jacobian(params: NetworkParams, x, input_indices=None) -> np.ndarray:
    """Forward-mode Jacobian of the outputs w.r.t. selected input coordinates.

    ``x`` is one input (d,) or a stack (..., d), giving (..., outputs, k):
    the tangent of every point is carried through the layers at once. The
    result is a writable array of its own.
    """
    x, layers = _forward(params, x)
    if input_indices is None:
        input_indices = range(params.input_dim)
    tangent = np.eye(params.input_dim)[:, list(input_indices)]
    for spec, w, (z, a) in zip(params.layers, params.weights, layers):
        tangent = w @ tangent
        deriv = _activation_deriv(spec.activation, z, a)
        if deriv is not None:
            tangent = deriv[..., None] * tangent
    if tangent.ndim <= x.ndim:  # every layer linear: one Jacobian for all points
        tangent = np.broadcast_to(tangent, x.shape[:-1] + tangent.shape).copy()
    return tangent


# ---------------------------------------------------------------------------
# Adam


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    first_moment: list
    second_moment: list
    step_count: int = 0
    lr: float = 1e-3


def init_adam(param_arrays, lr: float = 1e-3) -> AdamState:
    return AdamState([np.zeros_like(p) for p in param_arrays],
                     [np.zeros_like(p) for p in param_arrays], 0, lr)


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    """One epoch's minibatches: ``rng``'s permutation of range(n) cut into
    slices of ``batch_size`` rows (the last may be shorter)."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def adam_step(param_arrays, grad_arrays, state: AdamState):
    """Bias-corrected Adam update, in place on the parameter arrays."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(param_arrays, grad_arrays, state.first_moment,
                          state.second_moment):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
    return param_arrays, state


# ---------------------------------------------------------------------------
# Physics Guard


@dataclass(frozen=True)
class PhysicsGuardBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        _check_fields("PhysicsGuardBounds.", {"lower": lo, "upper": hi}, {})
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("guard bounds require lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def _clipped_sigmoid(z):
    return np.clip(sigmoid(z), _SIGMOID_CLIP, 1.0 - _SIGMOID_CLIP)


def physics_guard(z, bounds: PhysicsGuardBounds) -> np.ndarray:
    """sigmoid(z) * (upper - lower) + lower, strictly inside the bounds."""
    z = np.asarray(z, dtype=float)
    return bounds.lower + _clipped_sigmoid(z) * (bounds.upper - bounds.lower)


def physics_guard_derivative(z, bounds: PhysicsGuardBounds) -> np.ndarray:
    """Elementwise d(guard)/dz."""
    s = _clipped_sigmoid(np.asarray(z, dtype=float))
    return s * (1.0 - s) * (bounds.upper - bounds.lower)


# ---------------------------------------------------------------------------
# gated recurrent cell


@dataclass
class GruSpec:
    """Single GRU cell. Gate equations (h0 = 0):

    z = sig(Wz x + Uz h + bz), r = sig(Wr x + Ur h + br),
    n = tanh(Wn x + Un (r*h) + bn), h' = (1 - z)*n + z*h.
    """

    input_size: int
    hidden_size: int
    Wz: np.ndarray
    Uz: np.ndarray
    bz: np.ndarray
    Wr: np.ndarray
    Ur: np.ndarray
    br: np.ndarray
    Wn: np.ndarray
    Un: np.ndarray
    bn: np.ndarray

    def param_list(self) -> list:
        return [self.Wz, self.Uz, self.bz, self.Wr, self.Ur, self.br,
                self.Wn, self.Un, self.bn]


def init_gru(input_size: int, hidden_size: int, seed: int = 0) -> GruSpec:
    """Glorot-uniform W and U and zero b of each gate, in the order z, r, n."""
    if input_size < 1 or hidden_size < 1:
        raise ValueError(f"GRU sizes must be >= 1, got input size {input_size} and hidden "
                         f"size {hidden_size}")
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(3):
        for cols in (input_size, hidden_size):
            bound = np.sqrt(6.0 / (hidden_size + cols))
            params.append(rng.uniform(-bound, bound, size=(hidden_size, cols)))
        params.append(np.zeros(hidden_size))
    return GruSpec(input_size, hidden_size, *params)


def _gru_step(spec: GruSpec, x, h, h_new, z, r, n, prod, rh):
    """One step of the cell: writes the gates z, r, n and the next hidden
    rows ``h_new`` from the input rows ``x`` and the hidden rows ``h``;
    ``prod`` and ``rh`` are scratch of h's shape."""

    def pre(out, w, u, b, h_in):  # x w^T + h_in u^T + b, into out
        np.matmul(x, w.T, out=out)
        out += np.matmul(h_in, u.T, out=prod)
        out += b
        return out

    sigmoid(pre(z, spec.Wz, spec.Uz, spec.bz, h), out=z)
    sigmoid(pre(r, spec.Wr, spec.Ur, spec.br, h), out=r)
    np.tanh(pre(n, spec.Wn, spec.Un, spec.bn, np.multiply(r, h, out=rh)), out=n)
    np.subtract(1.0, z, out=h_new)
    h_new *= n
    h_new += np.multiply(z, h, out=prod)


def _gru_run(spec: GruSpec, history, work, keep: bool):
    """Final hidden state (..., hidden) over a history (..., tau, d), and,
    if ``keep``, each step's (x, h, z, r, n) for ``gru_backward``; without
    ``keep`` two hidden and one step's gate arrays serve every step. Every
    array is ``work``'s, so the state is a view into it."""
    hist = np.asarray(history, dtype=float)
    if hist.ndim < 2 or hist.shape[-2] < 1 or hist.shape[-1] != spec.input_size:
        raise ValueError(f"history shape {hist.shape} incompatible with input size "
                         f"{spec.input_size}")
    tau, rows = hist.shape[-2], hist.shape[:-2] + (spec.hidden_size,)
    hs, gates = work.arrays("gru", (tau + 1 if keep else 2,) + rows,
                            (tau if keep else 1, 3) + rows)
    prod, rh = work.arrays("scratch", rows, rows)
    hs[0] = 0.0
    steps = []
    for t in range(tau):
        x, h, h_new = hist[..., t, :], hs[t % len(hs)], hs[(t + 1) % len(hs)]
        z, r, n = gates[t % len(gates)]
        _gru_step(spec, x, h, h_new, z, r, n, prod, rh)
        if keep:
            steps.append((x, h, z, r, n))
    return h_new, steps


def gru_forward(spec: GruSpec, history, *, work=None):
    """Final hidden state (..., hidden) of the recurrence over a history
    (..., tau, d), keeping no per-step state: memory is a few (..., hidden)
    arrays whatever tau is. Bit-identical to ``gru_forward_cache``'s state.

    With a :class:`Workspace` ``work`` those arrays are its own, and the
    state is a view into it, valid until its next use."""
    return _gru_run(spec, history, Workspace() if work is None else work, False)[0]


def gru_forward_cache(spec: GruSpec, history, *, work=None):
    """``gru_forward`` over a history (..., tau, d) that also returns the
    per-step cache of ``gru_backward``: (x, h, z, r, n) per step, views of
    the history and of tau + 1 hidden and 3 tau gate arrays (..., hidden),
    ``work``'s if a :class:`Workspace` is given (its next forward pass
    overwrites them)."""
    return _gru_run(spec, history, Workspace() if work is None else work, True)


def gru_backward(spec: GruSpec, steps, grad_h, *, work=None):
    """Backprop-through-time from a gradient on the final hidden state.

    Returns gradients in the order of ``spec.param_list()``. Each step's
    temporaries are built in place in 6 arrays of grad_h's rows, ``work``'s
    scratch when a :class:`Workspace` is given; ``steps`` and ``grad_h`` are
    only read.
    """
    dh = np.asarray(grad_h, dtype=float).reshape(-1, spec.hidden_size)
    work = Workspace() if work is None else work
    dz_pre, dn_pre, dr_pre, drh, tmp, dh_next = work.arrays("scratch", *[dh.shape] * 6)
    grads = [np.zeros_like(p) for p in spec.param_list()]
    for step in reversed(steps):
        x, h_prev, z, r, n = (a.reshape(len(dh), -1) for a in step)
        np.subtract(h_prev, n, out=dz_pre)
        dz_pre *= dh
        dz_pre *= z
        dz_pre *= np.subtract(1.0, z, out=tmp)
        np.subtract(1.0, z, out=dn_pre)
        dn_pre *= dh
        dn_pre *= np.subtract(1.0, np.multiply(n, n, out=tmp), out=tmp)
        np.matmul(dn_pre, spec.Un, out=drh)  # gradient on r*h_prev
        np.multiply(drh, h_prev, out=dr_pre)
        dr_pre *= r
        dr_pre *= np.subtract(1.0, r, out=tmp)

        # gate i's (dW, dU, db) are grads[3i:3i + 3]; dU needs no bias sum
        for i, (pre, h_in) in enumerate(((dz_pre, h_prev), (dr_pre, h_prev),
                                         (dn_pre, np.multiply(r, h_prev, out=tmp)))):
            dw, db = _weight_grad(pre, x)
            grads[3 * i] += dw
            grads[3 * i + 1] += pre.T @ h_in
            grads[3 * i + 2] += db

        dh = np.multiply(dh, z, out=dh_next)  # the first dh may be the caller's grad_h
        dh += np.matmul(dz_pre, spec.Uz, out=tmp)
        dh += np.matmul(dr_pre, spec.Ur, out=tmp)
        drh *= r
        dh += drh
    return grads


# ---------------------------------------------------------------------------
# learned dynamics wrapper + checkpoints


def _layer_array(doc: dict, key: str, i: int, shape: tuple) -> np.ndarray:
    """Layer ``i``'s entry of the checkpoint list ``key``: finite, of ``shape``."""
    a = np.asarray(doc[key][i], dtype=float)
    if a.size != np.prod(shape):
        raise ValueError(f"checkpoint {key}[{i}] holds {a.size} values, "
                         f"expected {int(np.prod(shape))} for shape {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"checkpoint {key}[{i}] holds a non-finite value")
    return a.reshape(shape)


class LearnedDynamicsModel:
    """An MLP posing as a dynamical system.

    The network sees the affinely normalized vector
    ((state, input) - offset) / scale and outputs the state derivative; the
    state Jacobian therefore divides the forward-mode network Jacobian by the
    state part of ``scale``.
    """

    def __init__(self, params: NetworkParams, state_dim: int, input_dim: int,
                 offset=None, scale=None):
        total = state_dim + input_dim
        if params.input_dim != total:
            raise ValueError("network input dim must equal state_dim + input_dim")
        if params.output_dim != state_dim:
            raise ValueError("network output dim must equal state_dim")
        self.params = params
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.offset = np.zeros(total) if offset is None else np.asarray(offset, float)
        self.scale = np.ones(total) if scale is None else np.asarray(scale, float)
        for name, value in (("offset", self.offset), ("scale", self.scale)):
            if value.shape != (total,) or not np.all(np.isfinite(value)):
                raise ValueError(f"input {name} {value.tolist()} is not {total} finite "
                                 "values (state_dim + input_dim)")
        if np.any(self.scale <= 0):
            raise ValueError("input scale entries must be positive")

    def normalize(self, states, inputs) -> np.ndarray:
        """Network input (..., k) of states (..., d) and inputs (..., m)."""
        s, u = np.asarray(states, float), np.asarray(inputs, float)
        _check_point_shapes("learned", s, u, self.state_dim, self.input_dim)
        return (np.concatenate([s, u], axis=-1) - self.offset) / self.scale

    def rhs(self, s, u, t=0.0) -> np.ndarray:
        """Learned state derivative at one point (d,) or stacked points (n, d).

        Rows whose output is inf or NaN are returned as they are, so that a
        sweep over stacked points can skip them one by one.
        """
        return mlp_forward(self.params, self.normalize(s, u), check_finite=False)

    def jacobian(self, s, u, t=0.0) -> np.ndarray:
        """State Jacobian at one point (d, d) or stacked points (n, d, d)."""
        jac = mlp_input_jacobian(self.params, self.normalize(s, u),
                                 range(self.state_dim))
        return jac / self.scale[: self.state_dim]

    # -- checkpoint IO ------------------------------------------------------

    def to_checkpoint_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "state_dim": self.state_dim,
            "input_dim": self.input_dim,
            "offset": [float(v) for v in self.offset],
            "scale": [float(v) for v in self.scale],
            "layers": [{"width": sp.width, "activation": sp.activation}
                       for sp in self.params.layers],
            "weights": [[float(v) for v in w.ravel()] for w in self.params.weights],
            "biases": [[float(v) for v in b] for b in self.params.biases],
        }

    def save(self, path) -> None:
        write_json(path, self.to_checkpoint_dict())

    @classmethod
    def from_checkpoint_dict(cls, doc: dict) -> "LearnedDynamicsModel":
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
        require_keys(doc, "checkpoint", ("state_dim", "input_dim", "offset", "scale",
                                         "layers", "weights", "biases"))
        for i, layer in enumerate(doc["layers"]):
            require_keys(layer, f"checkpoint layers[{i}]", ("width", "activation"))
        layers = tuple(LayerSpec(l["width"], l["activation"]) for l in doc["layers"])
        for key in ("weights", "biases"):
            if len(doc[key]) != len(layers):
                raise ValueError(f"checkpoint {key!r} has {len(doc[key])} entries for "
                                 f"{len(layers)} layers; layer {min(len(doc[key]), len(layers))}"
                                 " is unmatched")
        state_dim, input_dim = int(doc["state_dim"]), int(doc["input_dim"])
        fan_in = state_dim + input_dim
        weights, biases = [], []
        for i, spec in enumerate(layers):
            weights.append(_layer_array(doc, "weights", i, (spec.width, fan_in)))
            biases.append(_layer_array(doc, "biases", i, (spec.width,)))
            fan_in = spec.width
        params = NetworkParams(state_dim + input_dim, layers, weights, biases)
        return cls(params, state_dim, input_dim, doc["offset"], doc["scale"])

    @classmethod
    def load(cls, path) -> "LearnedDynamicsModel":
        return cls.from_checkpoint_dict(read_json(path))
