"""Tests of the benchmark itself: smoke runs, the traced breakdown, the layer
mix each workload was designed for, and the failure paths.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fisherdyn import fisher, nets, numerics  # noqa: E402

with open(workloads.REFERENCE_PATH) as _fh:
    REFERENCE = json.load(_fh)

NAMES = tuple(workloads.WORKLOADS)


def measure(name, tmp_path, trace, tiny=True):
    wl = workloads.WORKLOADS[name]
    return bench.measure(name, 5, 0.0, trace, str(tmp_path), REFERENCE[name],
                         size=wl.tiny if tiny else wl.full)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name, tmp_path):
    result, details = measure(name, tmp_path, trace=False)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(math.isfinite(v) for v in details["quality"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name, tmp_path):
    result, details = measure(name, tmp_path, trace=True)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(metrics) == [n for n, _ in bench.per_layer_specs()]
    shares = sum(v for n, v in metrics.items() if n.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert metrics["trace.absent_layers"] == 0
    assert details["traced_repetitions"]


def test_tracer_restores_hooked_functions(tmp_path):
    originals = (fisher.largest_singular_value, nets.sigmoid, numerics.rk4_step)
    measure("dynamic_field", tmp_path, trace=True)
    assert (fisher.largest_singular_value, nets.sigmoid, numerics.rk4_step) == originals
    assert fisher.largest_singular_value is numerics.largest_singular_value


def test_missing_function_is_an_absent_layer(monkeypatch, tmp_path):
    gone = tracing.Layer("nets.gone", "calls", functions=("nets.no_such_function",))
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (gone,))
    result, details = measure("dynamic_field", tmp_path, trace=True)
    assert details["absent_layers"] == ["nets.gone"]
    assert result["metrics"]["trace.absent_layers"]["value"] == 1
    assert result["metrics"]["nets.gone.calls"]["value"] == 0


def test_reference_mismatch_fails(tmp_path):
    wrong = dict(REFERENCE["dynamic_field"])
    wrong["e_fi_rel"] *= 1.001
    with pytest.raises(workloads.CheckError):
        workloads.check_reference("dynamic_field", str(tmp_path), wrong)


def test_bound_violation_fails():
    inp = workloads.field_setup(5, workloads.FieldSize(points=50), "")
    field, _ = workloads.field_run(inp, workloads.same_system)["fields"]
    sample = next(s for s in field.samples if not s.skipped)
    field.samples[field.samples.index(sample)] = fisher.FisherSample(
        sample.state, sample.input, 4.0 * sample.sigma_max_sq * 1.01,
        sample.sigma_max_sq, sample.direction, sample.t)
    with pytest.raises(workloads.CheckError):
        workloads.check_field_bound(field)


def layer_values(result, suffix):
    return {n[:-len(suffix)]: m["value"] for n, m in result["metrics"].items()
            if n.endswith(suffix)}


@pytest.mark.parametrize("name", NAMES)
def test_designed_layer_mix(name, tmp_path):
    """Each full-size workload still stresses the layers it was chosen for."""
    result, _ = measure(name, tmp_path, trace=True, tiny=False)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    share = layer_values(result, ".share")
    nets_work = sum(metrics[f"{l.name}.{l.count}"] for l in tracing.LAYERS
                    if l.name.startswith("nets."))
    if name == "kinematic":
        assert sum(v for n, v in share.items()
                   if n.startswith(("nets.", "training."))) > 0.5
    elif name == "dynamic":
        assert metrics["dynamics.jacobian.calls"] == 0
        assert metrics["numerics.largest_singular_value.calls"] == 0
    else:
        assert share["dynamics.jacobian"] + share["numerics.largest_singular_value"] \
            + share["fisher.evaluate_field"] > 0.5
        assert nets_work == 0


def test_command_line_names_every_workload():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dynamic", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
