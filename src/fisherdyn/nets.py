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
raw input and forms layer 0's pre-activation; ``_ACTIVATIONS`` maps a name to
its value and derivative; ``_layer_outputs`` and ``_layer_deltas`` are the
forward and backward layer loops, which the training rollout also runs on
its stage buffers; ``_weight_grad`` is a layer's (dW, db) summed over leading
axes, for the MLP backward, the rollout and the GRU gates.

``LearnedDynamicsModel`` wraps an MLP behind the same (rhs, jacobian) surface
as the analytical models, including the fixed affine input normalization the
Jacobian has to be corrected for, and owns the versioned JSON checkpoint
format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._codec import read_json, require_keys, write_json
from .dynamics import _check_fields, _check_point_shapes

__all__ = [
    "LayerSpec",
    "NetworkParams",
    "AdamState",
    "PhysicsGuardBounds",
    "GruSpec",
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


def sigmoid(z):
    # the tanh form cannot overflow and needs no masking by sign
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _softplus(z):
    """log(1 + e^z), as max(z, 0) + log1p(e^-|z|): the exponent is never
    positive, so nothing overflows. np.logaddexp(0, z) is the same formula,
    but numpy runs it element by element through libm, about 7x slower on a
    (512, 32) array on x86-64; the vectorized exp and log1p agree with it to
    a few ulp."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


# The largest finite float64. Where mish and its derivative multiply z by a
# factor that is 0 at z = +-inf, they read z clipped to it: that changes no
# finite value, and the product takes its limit instead of inf * 0 = NaN.
_FLOAT_MAX = np.finfo(float).max


def mish(z):
    # x * tanh(softplus(x)); 0 at -inf
    t = np.tanh(_softplus(z))
    t *= np.maximum(z, -_FLOAT_MAX)
    return t


def _mish_deriv(z, a):
    t = np.tanh(_softplus(z))
    return t + (1.0 - t * t) * np.clip(z, -_FLOAT_MAX, _FLOAT_MAX) * sigmoid(z)


# name -> (value at z, derivative at z with outputs a: None for linear, and
# only mish reads z). sigmoid and mish are looked up by name when called, so
# that rebinding them reaches every layer.
_ACTIVATIONS = {
    "linear": (lambda z: z, lambda z, a: None),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "sigmoid": (lambda z: sigmoid(z), lambda z, a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: a > 0.0),
    "mish": (lambda z: mish(z), _mish_deriv),
}


def _activation(name, z):
    return _ACTIVATIONS[name][0](z)


def _activation_deriv(name, z, a):
    """d(activation)/dz at pre-activations ``z`` with outputs ``a``."""
    return _ACTIVATIONS[name][1](z, a)


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


def _layer_outputs(params: NetworkParams, z, weights_t):
    """(pre-activation, output) of each layer in turn, given layer 0's
    pre-activation ``z``: the one layer loop of every MLP forward pass.
    ``weights_t[l]`` is layer l's weight as a (fan_in, width) array: the
    transposed view, or a contiguous copy of it, which a caller that runs
    many passes makes once because the product with it is faster. A caller
    that holds layer 0's input product in another form (the training rollout
    folds the input normalization into it) starts from there."""
    last = len(params.weights) - 1
    for l, spec in enumerate(params.layers):
        a = _activation(spec.activation, z)
        yield z, a
        if l < last:
            z = a @ weights_t[l + 1]
            z += params.biases[l + 1]


def _layer_deltas(params: NetworkParams, derivs, delta, out=None):
    """Yield the cotangent of each layer's pre-activation, last layer first,
    given the cotangent ``delta`` of the output. ``derivs`` gives each
    layer's ``_activation_deriv`` at the rows in the same order, and may be
    lazy: a layer's derivative is drawn once the layer above is done with.
    With ``out``, layer l's cotangent is written into ``out[l]``."""
    derivs = iter(derivs)
    for l in range(len(params.weights) - 1, -1, -1):
        if l < len(params.weights) - 1:
            delta = delta @ params.weights[l + 1]
        deriv = next(derivs)
        slot = None if out is None else out[l]
        if deriv is not None:
            delta = np.multiply(delta, deriv, out=slot)
        elif slot is not None:
            slot[...] = delta
        yield delta


def _weight_grad(delta, x):
    """A layer's (dW, db) summed over the leading axes of its pre-activation
    cotangent ``delta`` (..., width) and its input ``x`` (..., fan_in): one
    product over the rows, whatever they stack."""
    delta = delta.reshape(-1, delta.shape[-1])
    return delta.T @ x.reshape(-1, x.shape[-1]), delta.sum(axis=0)


def _forward(params: NetworkParams, x):
    """(x as a float array, the ``_layer_outputs`` of the network at x): the
    one place a raw network input (..., input_dim) meets layer 0."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (params.input_dim,):
        raise ValueError(f"input shape {x.shape} does not match network dim {params.input_dim}")
    weights_t = [w.T for w in params.weights]
    return x, _layer_outputs(params, x @ weights_t[0] + params.biases[0], weights_t)


def mlp_forward(params: NetworkParams, x, check_finite: bool = True):
    """Forward pass of inputs (..., d) to outputs (..., outputs).

    It keeps no layer outputs: use it wherever no backward pass follows, and
    ``mlp_forward_cache`` (the same arithmetic, bit for bit) where one does.

    A non-finite output raises ``FloatingPointError`` unless
    ``check_finite`` is false, in which case it is returned as it is.
    """
    for _, a in _forward(params, x)[1]:
        pass
    if check_finite and not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite network output")
    return a


def mlp_forward_cache(params: NetworkParams, x):
    """Forward pass keeping what ``mlp_vjp`` reads: the network input and
    every layer's output (``acts``) and pre-activation (``pres``); returns
    (output, (acts, pres))."""
    x, layers = _forward(params, x)
    pres, acts = zip(*layers)
    return acts[-1], ([x, *acts], pres)


def mlp_vjp(params: NetworkParams, cache, grad_out):
    """Backprop an upstream gradient; returns (grad_input, [(dW, db), ...]).

    Activation derivatives come from the cached layer outputs, so no
    activation is evaluated again (mish, whose derivative needs the
    pre-activation, excepted)."""
    acts, pres = cache
    layers = range(len(params.weights) - 1, -1, -1)
    derivs = (_activation_deriv(params.layers[l].activation, pres[l], acts[l + 1])
              for l in layers)
    grads = [None] * len(params.weights)
    for l, delta in zip(layers, _layer_deltas(params, derivs, np.asarray(grad_out, float))):
        grads[l] = _weight_grad(delta, acts[l])
    return delta @ params.weights[0], grads


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
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(3):
        for cols in (input_size, hidden_size):
            bound = np.sqrt(6.0 / (hidden_size + cols))
            params.append(rng.uniform(-bound, bound, size=(hidden_size, cols)))
        params.append(np.zeros(hidden_size))
    return GruSpec(input_size, hidden_size, *params)


def _gru_step(spec: GruSpec, x, h):
    """One step of the cell: (h', z, r, n) from the input rows ``x`` and the
    hidden rows ``h``."""
    z = sigmoid(x @ spec.Wz.T + h @ spec.Uz.T + spec.bz)
    r = sigmoid(x @ spec.Wr.T + h @ spec.Ur.T + spec.br)
    n = np.tanh(x @ spec.Wn.T + (r * h) @ spec.Un.T + spec.bn)
    return (1.0 - z) * n + z * h, z, r, n


def _gru_run(spec: GruSpec, history, steps=None):
    """Final hidden state (..., hidden) over a history (..., tau, d); each
    step's (x, h, z, r, n) is appended to the list ``steps`` if one is given."""
    hist = np.asarray(history, dtype=float)
    if hist.ndim < 2 or hist.shape[-2] < 1 or hist.shape[-1] != spec.input_size:
        raise ValueError(f"history shape {hist.shape} incompatible with input size "
                         f"{spec.input_size}")
    h = np.zeros(hist.shape[:-2] + (spec.hidden_size,))
    for t in range(hist.shape[-2]):
        x = hist[..., t, :]
        h_new, z, r, n = _gru_step(spec, x, h)
        if steps is not None:
            steps.append((x, h, z, r, n))
        h = h_new
    return h


def gru_forward(spec: GruSpec, history):
    """Final hidden state (..., hidden) of the recurrence over a history
    (..., tau, d), keeping no per-step state: memory is a few (..., hidden)
    arrays whatever tau is. Bit-identical to ``gru_forward_cache``'s state."""
    return _gru_run(spec, history)


def gru_forward_cache(spec: GruSpec, history):
    """``gru_forward`` over a history (..., tau, d) that also returns the
    per-step cache of ``gru_backward``: (x, h, z, r, n) per step, 4 tau
    (..., hidden) arrays."""
    steps = []
    return _gru_run(spec, history, steps), steps


def gru_backward(spec: GruSpec, steps, grad_h):
    """Backprop-through-time from a gradient on the final hidden state.

    Returns gradients in the order of ``spec.param_list()``. Each step's
    temporaries are built in place in arrays of its own; ``steps`` and
    ``grad_h`` are only read.
    """
    dh = np.asarray(grad_h, dtype=float).reshape(-1, spec.hidden_size)
    grads = [np.zeros_like(p) for p in spec.param_list()]
    for step in reversed(steps):
        x, h_prev, z, r, n = (a.reshape(len(dh), -1) for a in step)
        dz_pre = h_prev - n
        dz_pre *= dh
        dz_pre *= z
        dz_pre *= 1.0 - z
        dn_pre = 1.0 - z
        dn_pre *= dh
        dn_pre *= 1.0 - n * n
        drh = dn_pre @ spec.Un  # gradient on r*h_prev
        dr_pre = drh * h_prev
        dr_pre *= r
        dr_pre *= 1.0 - r

        # gate i's (dW, dU, db) are grads[3i:3i + 3]; dU needs no bias sum
        for i, (pre, h_in) in enumerate(((dz_pre, h_prev), (dr_pre, h_prev),
                                         (dn_pre, r * h_prev))):
            dw, db = _weight_grad(pre, x)
            grads[3 * i] += dw
            grads[3 * i + 1] += pre.T @ h_in
            grads[3 * i + 2] += db

        dh = dh * z  # a new array: the first dh may be the caller's grad_h
        dh += dz_pre @ spec.Uz
        dh += dr_pre @ spec.Ur
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
