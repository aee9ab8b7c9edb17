"""Minimal in-repo neural network stack.

Multilayer perceptrons with per-layer activations, exact reverse-mode
parameter gradients, forward-mode input Jacobians, a bias-corrected Adam
optimizer, the sigmoid Physics Guard rescaling layer, and a single gated
recurrent cell with backprop-through-time. Everything runs on float64 numpy;
no external autodiff.

Forward passes come in two kinds with the same arithmetic, bit for bit:
``mlp_forward`` and ``gru_forward`` keep nothing but their output, for
inference and loss evaluation; ``mlp_forward_cache`` and
``gru_forward_cache`` also keep what ``mlp_vjp`` and ``gru_backward`` read,
for training.

``LearnedDynamicsModel`` wraps an MLP behind the same (rhs, jacobian) surface
as the analytical models, including the fixed affine input normalization the
Jacobian has to be corrected for, and owns the versioned JSON checkpoint
format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._codec import read_json, require_keys, write_json

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


def mish(z):
    # x * tanh(softplus(x))
    return z * np.tanh(_softplus(z))


def _activation(name, z):
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "mish":
        return mish(z)
    raise ValueError(f"unknown activation {name!r}")


def _activation_deriv(name, z, a):
    """d(activation)/dz at pre-activations ``z`` with outputs ``a``, taken
    from ``a`` where it can be (only mish needs ``z``); None for linear,
    whose derivative is 1."""
    if name == "linear":
        return None
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "relu":
        return a > 0.0
    if name == "mish":
        t = np.tanh(_softplus(z))
        return t + z * (1.0 - t * t) * sigmoid(z)
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        _activation(self.activation, np.zeros(1))  # validates the name


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


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise ValueError(f"input dim {x.shape[1]} does not match network dim {dim}")
    return x, single


def mlp_forward(params: NetworkParams, x, check_finite: bool = True):
    """Forward pass; accepts (d,) or (n, d) and matches the output shape.

    It keeps no layer outputs: use it wherever no backward pass follows, and
    ``mlp_forward_cache`` (the same arithmetic, bit for bit) where one does.

    A non-finite output raises ``FloatingPointError`` unless
    ``check_finite`` is false, in which case it is returned as it is.
    """
    xb, single = _as_batch(x, params.input_dim)
    a = xb
    for spec, w, b in zip(params.layers, params.weights, params.biases):
        a = _activation(spec.activation, a @ w.T + b)
    if check_finite and not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite network output")
    return a[0] if single else a


def mlp_forward_cache(params: NetworkParams, x):
    """Forward pass keeping what ``mlp_vjp`` reads: the network input and
    every layer's output (``acts``) and pre-activation (``pres``); returns
    (output, (acts, pres))."""
    xb, _ = _as_batch(x, params.input_dim)
    acts = [xb]
    pres = []
    a = xb
    for spec, w, b in zip(params.layers, params.weights, params.biases):
        z = a @ w.T + b
        a = _activation(spec.activation, z)
        pres.append(z)
        acts.append(a)
    return a, (acts, pres)


def mlp_vjp(params: NetworkParams, cache, grad_out):
    """Backprop an upstream gradient; returns (grad_input, [(dW, db), ...]).

    Activation derivatives come from the cached layer outputs, so no
    activation is evaluated again (mish, whose derivative needs the
    pre-activation, excepted)."""
    acts, pres = cache
    delta = np.asarray(grad_out, dtype=float)
    grads = [None] * len(params.weights)
    for l in range(len(params.weights) - 1, -1, -1):
        deriv = _activation_deriv(params.layers[l].activation, pres[l], acts[l + 1])
        if deriv is not None:
            delta = delta * deriv
        grads[l] = (delta.T @ acts[l], delta.sum(axis=0))
        delta = delta @ params.weights[l]
    return delta, grads


def mlp_param_gradient(params: NetworkParams, inputs, targets):
    """Mean-squared-error loss (mean over samples of |y - t|^2) and its
    exact parameter gradient."""
    xb, _ = _as_batch(inputs, params.input_dim)
    tb = np.asarray(targets, dtype=float)
    if tb.ndim == 1:
        tb = tb[None, :]
    if xb.shape[0] == 0:
        raise ValueError("empty batch")
    y, cache = mlp_forward_cache(params, xb)
    resid = y - tb
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    _, grads = mlp_vjp(params, cache, 2.0 * resid / xb.shape[0])
    return loss, grads


def mlp_input_jacobian(params: NetworkParams, x, input_indices=None) -> np.ndarray:
    """Forward-mode Jacobian of the outputs w.r.t. selected input coordinates.

    ``x`` is one input (d,), giving (outputs, k), or a stack (n, d), giving
    (n, outputs, k): the tangent of every point is carried through the
    layers at once.
    """
    xb, single = _as_batch(x, params.input_dim)
    if input_indices is None:
        input_indices = range(params.input_dim)
    tangent = np.eye(params.input_dim)[:, list(input_indices)]
    a = xb
    for spec, w, b in zip(params.layers, params.weights, params.biases):
        z = a @ w.T + b
        a = _activation(spec.activation, z)
        tangent = w @ tangent
        deriv = _activation_deriv(spec.activation, z, a)
        if deriv is not None:
            tangent = deriv[:, :, None] * tangent
    if tangent.ndim == 2:  # every layer linear: one Jacobian for all points
        tangent = np.repeat(tangent[None], xb.shape[0], axis=0)
    return tangent[0] if single else tangent


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
    rng = np.random.default_rng(seed)
    def w(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))
    return GruSpec(input_size, hidden_size,
                   w(hidden_size, input_size), w(hidden_size, hidden_size),
                   np.zeros(hidden_size),
                   w(hidden_size, input_size), w(hidden_size, hidden_size),
                   np.zeros(hidden_size),
                   w(hidden_size, input_size), w(hidden_size, hidden_size),
                   np.zeros(hidden_size))


def _history_batch(history, input_size):
    h = np.asarray(history, dtype=float)
    single = h.ndim == 2
    if single:
        h = h[None, :, :]
    if h.ndim != 3 or h.shape[2] != input_size or h.shape[1] < 1:
        raise ValueError(f"history shape {h.shape} incompatible with input size {input_size}")
    return h, single


def _gru_step(spec: GruSpec, x, h):
    """One step of the cell: (h', z, r, n) from the input rows ``x`` and the
    hidden rows ``h``."""
    z = sigmoid(x @ spec.Wz.T + h @ spec.Uz.T + spec.bz)
    r = sigmoid(x @ spec.Wr.T + h @ spec.Ur.T + spec.br)
    n = np.tanh(x @ spec.Wn.T + (r * h) @ spec.Un.T + spec.bn)
    return (1.0 - z) * n + z * h, z, r, n


def gru_forward(spec: GruSpec, history):
    """Final hidden state of the recurrence over a (tau, d) history (or a
    (n, tau, d) batch), keeping no per-step state: memory is a few (n, hidden)
    arrays whatever tau is. Bit-identical to ``gru_forward_cache``'s state."""
    hist, single = _history_batch(history, spec.input_size)
    n_batch, tau, _ = hist.shape
    h = np.zeros((n_batch, spec.hidden_size))
    for t in range(tau):
        h = _gru_step(spec, hist[:, t, :], h)[0]
    return h[0] if single else h


def gru_forward_cache(spec: GruSpec, history):
    """``gru_forward`` that also returns the per-step cache of
    ``gru_backward``: (x, h, z, r, n) per step, 4 tau (n, hidden) arrays."""
    hist, single = _history_batch(history, spec.input_size)
    n_batch, tau, _ = hist.shape
    h = np.zeros((n_batch, spec.hidden_size))
    steps = []
    for t in range(tau):
        x = hist[:, t, :]
        h_new, z, r, n = _gru_step(spec, x, h)
        steps.append((x, h, z, r, n))
        h = h_new
    return (h[0] if single else h), steps


def gru_backward(spec: GruSpec, steps, grad_h):
    """Backprop-through-time from a gradient on the final hidden state.

    Returns gradients in the order of ``spec.param_list()``.
    """
    dh = np.asarray(grad_h, dtype=float)
    if dh.ndim == 1:
        dh = dh[None, :]
    grads = [np.zeros_like(p) for p in spec.param_list()]
    dWz, dUz, dbz, dWr, dUr, dbr, dWn, dUn, dbn = grads
    for x, h_prev, z, r, n in reversed(steps):
        dz_pre = dh * (h_prev - n) * z * (1.0 - z)
        dn_pre = dh * (1.0 - z) * (1.0 - n * n)
        drh = dn_pre @ spec.Un  # gradient on r*h_prev
        dr_pre = drh * h_prev * r * (1.0 - r)

        dWz += dz_pre.T @ x
        dUz += dz_pre.T @ h_prev
        dbz += dz_pre.sum(axis=0)
        dWr += dr_pre.T @ x
        dUr += dr_pre.T @ h_prev
        dbr += dr_pre.sum(axis=0)
        dWn += dn_pre.T @ x
        dUn += dn_pre.T @ (r * h_prev)
        dbn += dn_pre.sum(axis=0)

        dh = (dh * z + dz_pre @ spec.Uz + dr_pre @ spec.Ur + drh * r)
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
        """Network input of one point (k,) or of stacked points (n, k)."""
        raw = np.concatenate([np.asarray(states, float), np.asarray(inputs, float)],
                             axis=-1)
        return (raw - self.offset) / self.scale

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
