"""In-memory span tracer that times fisherdyn's layers from outside the library.

Two kinds of hook, both installed only for the length of a traced repetition:

* a module function is rebound, in every fisherdyn module that holds it
  (``fisher.largest_singular_value``, ``datagen.rk4_step``,
  ``training.mlp_vjp``, ``nets.sigmoid``, ...), to a wrapper that records a
  span around the original; the original is restored afterwards;
* a system object handed to ``simulate``, ``evaluate_field`` or
  ``jacobian_baseline`` is wrapped in a proxy whose ``rhs``/``jacobian`` record
  spans.

A span is (layer, start, end, parent, work units). A layer's self time is the
duration of its spans minus the durations of their direct children, so the
self times of all spans plus the untraced remainder (``other``) add up to the
traced wall time. A hooked function that no longer exists is reported as an
absent layer instead of failing the run.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _calls(args, result):
    return 1


def _rows(index):
    def rows(args, result):
        return np.shape(args[index])[0] if np.ndim(args[index]) > 1 else 1
    return rows


def _windows(args, result):
    return np.shape(args[1])[0] if np.ndim(args[1]) == 3 else 1


def _elements(args, result):
    return np.size(args[0])


def _result_len(args, result):
    return len(result)


def _epochs(args, result):
    return len(result.loss_curve)


def _points_arg(args, result):
    return len(args[2])


def _dir_bytes(index):
    def size(args, result):
        d = args[index]
        return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))
    return size


def per(scale):
    """Time per work unit, in seconds times ``scale``."""
    return lambda units, self_s: scale * self_s / units


def mb_per_s(units, self_s):
    return units / 1e6 / self_s


@dataclass(frozen=True)
class Layer:
    """One traced layer: ``<module>.<function>`` plus how to count its work.

    ``functions`` are the fisherdyn attributes ("module.name") whose bindings
    are rebound; ``system`` is a (kind, method) pair of a system proxy.
    ``rate`` is (stat, unit, f(units, self_s)).
    """

    name: str
    count: str
    units: object = _calls
    rate: tuple | None = None
    functions: tuple = ()
    system: tuple | None = None
    report_calls: bool = False


_US_CALL = ("us_per_call", "us", per(1e6))

LAYERS = (
    Layer("dynamics.rhs", "calls", rate=_US_CALL,
          system=("analytic", "rhs")),
    Layer("dynamics.jacobian", "calls", rate=_US_CALL,
          system=("analytic", "jacobian")),
    Layer("numerics.rk4_step", "calls", rate=_US_CALL,
          functions=("numerics.rk4_step",)),
    Layer("numerics.largest_singular_value", "calls", rate=_US_CALL,
          functions=("numerics.largest_singular_value",)),
    Layer("datagen.simulate", "steps", _result_len,
          ("us_per_step", "us", per(1e6)), functions=("datagen.simulate",)),
    Layer("datagen.io", "bytes", _dir_bytes(1),
          ("mb_per_s", "MB/s", mb_per_s), functions=("datagen.write_dataset",)),
    Layer("nets.mlp_forward_cache", "rows", _rows(1),
          ("ns_per_row", "ns", per(1e9)), functions=("nets.mlp_forward_cache",)),
    Layer("nets.mlp_vjp", "rows", _rows(2),
          ("ns_per_row", "ns", per(1e9)), functions=("nets.mlp_vjp",)),
    Layer("nets.mlp_forward", "rows", _rows(1),
          functions=("nets.mlp_forward",)),
    Layer("nets.adam_step", "calls", rate=_US_CALL,
          functions=("nets.adam_step",)),
    Layer("nets.mlp_input_jacobian", "calls", rate=_US_CALL,
          functions=("nets.mlp_input_jacobian",)),
    Layer("nets.learned_jacobian", "calls",
          system=("learned", "jacobian")),
    Layer("nets.gru_forward_cache", "windows", _windows,
          ("us_per_window", "us", per(1e6)), functions=("nets.gru_forward_cache",)),
    Layer("nets.gru_backward", "windows", _rows(2),
          ("us_per_window", "us", per(1e6)), functions=("nets.gru_backward",)),
    Layer("nets.sigmoid", "elements", _elements,
          ("ns_per_element", "ns", per(1e9)), functions=("nets.sigmoid",)),
    Layer("training.train_regime", "epochs", _epochs,
          ("ms_per_epoch", "ms", per(1e3)), functions=("training.train_regime",)),
    Layer("training.trajectory_loss", "calls",
          functions=("training.trajectory_loss",)),
    Layer("estimator.predict_next_velocities", "rows", _rows(0),
          ("ns_per_row", "ns", per(1e9)),
          functions=("estimator.predict_next_velocities",), report_calls=True),
    Layer("estimator.train_coefficient_estimator", "epochs", _epochs,
          ("ms_per_epoch", "ms", per(1e3)),
          functions=("estimator.train_coefficient_estimator",)),
    Layer("fisher.evaluate_field", "points", _result_len,
          ("us_per_point", "us", per(1e6)), functions=("fisher.evaluate_field",)),
    Layer("fidelity.jacobian_baseline", "points", _points_arg,
          ("us_per_point", "us", per(1e6)),
          functions=("fidelity.jacobian_baseline",)),
    Layer("fidelity.fisher_discrepancy", "calls",
          functions=("fidelity.fisher_discrepancy",)),
)
# read_dataset shares the io layer; its byte count is the directory it reads.
_EXTRA_FUNCTIONS = (("datagen.io", "datagen.read_dataset", _dir_bytes(0)),)


def metric_specs() -> list:
    """(name, unit) of every metric a traced run reports, in a fixed order."""
    specs = []
    for layer in LAYERS:
        if layer.report_calls:
            specs.append((f"{layer.name}.calls", "count"))
        specs.append((f"{layer.name}.{layer.count}",
                      "B" if layer.count == "bytes" else "count"))
        specs.append((f"{layer.name}.self_s", "s"))
        if layer.rate:
            specs.append((f"{layer.name}.{layer.rate[0]}", layer.rate[1]))
        specs.append((f"{layer.name}.share", "frac"))
    specs += [("other.self_s", "s"), ("other.share", "frac"),
              ("trace.wall_s", "s"), ("trace.overhead_frac", "frac"),
              ("trace.absent_layers", "count")]
    return specs


class _SystemProxy:
    """A system whose rhs/jacobian are traced; everything else passes through."""

    def __init__(self, system, rhs, jacobian):
        self._system = system
        self.rhs = rhs
        self.jacobian = jacobian

    def __getattr__(self, name):
        return getattr(self._system, name)


class Tracer:
    def __init__(self):
        self._spans = []
        self._stack = []
        self._totals = {}  # layer -> [spans, units, self seconds]
        self._other = 0.0
        self._wall = 0.0
        self._reps = 0
        self.absent = sorted({name for name, target, _ in _targets()
                              if _lookup(target) is None})

    def _wrap(self, name, fn, units):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, 0)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, units(args, result))
            return result
        return traced

    def system(self, system, kind: str):
        """Proxy ``system`` so that its rhs/jacobian calls record spans."""
        methods = {}
        for method in ("rhs", "jacobian"):
            fn = getattr(system, method)
            layer = next((l for l in LAYERS if l.system == (kind, method)), None)
            methods[method] = fn if layer is None else self._wrap(
                layer.name, fn, layer.units)
        return _SystemProxy(system, methods["rhs"], methods["jacobian"])

    @contextmanager
    def installed(self):
        """Rebind every hooked module function for the duration of the block."""
        saved = []
        try:
            for name, target, units in _targets():
                original = _lookup(target)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, units)
                for module in _fisherdyn_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def end_repetition(self, wall: float) -> None:
        """Fold the spans of one traced repetition into the layer totals."""
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent, units) in enumerate(spans):
            total = self._totals.setdefault(name, [0, 0, 0.0])
            total[0] += 1
            total[1] += units
            total[2] += end - start - child[i]
            if parent < 0:
                top += end - start
        self._other += wall - top
        self._wall += wall
        self._reps += 1
        spans.clear()

    def metrics(self, overhead_frac: float) -> dict:
        """Per-repetition layer metrics; absent or idle layers read 0."""
        reps, wall = self._reps, self._wall
        out = {}
        for layer in LAYERS:
            spans, units, self_s = self._totals.get(layer.name, (0, 0, 0.0))
            count = spans if layer.units is _calls else units
            if layer.report_calls:
                out[f"{layer.name}.calls"] = spans / reps
            out[f"{layer.name}.{layer.count}"] = count / reps
            out[f"{layer.name}.self_s"] = self_s / reps
            if layer.rate:
                out[f"{layer.name}.{layer.rate[0]}"] = (
                    layer.rate[2](count, self_s) if count and self_s else 0.0)
            out[f"{layer.name}.share"] = self_s / wall
        out["other.self_s"] = self._other / reps
        out["other.share"] = self._other / wall
        out["trace.wall_s"] = wall / reps
        out["trace.overhead_frac"] = overhead_frac
        out["trace.absent_layers"] = len(self.absent)
        return out


def _targets() -> list:
    """(layer, "module.function", units) of every hooked module function."""
    return ([(l.name, f, l.units) for l in LAYERS for f in l.functions]
            + list(_EXTRA_FUNCTIONS))


def _lookup(target: str):
    module, attr = target.split(".")
    return getattr(sys.modules.get(f"fisherdyn.{module}"), attr, None)


def _fisherdyn_modules():
    return [m for name, m in list(sys.modules.items())
            if name.startswith("fisherdyn.") and m is not None]
