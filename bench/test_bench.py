"""Tests of the benchmark itself: tracer arithmetic, exact counts, failure counting.

    python3 -m pytest -q bench
"""

import os
import shutil
import subprocess
import sys

import pytest

import workloads as wl
from tracer import Span, Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def test_self_time_arithmetic():
    spans = [
        Span(0, "config", "run", 0.0, 10.0, hook_s=0.5),
        Span(1, "quasimodes", "joint_defect", 1.0, 3.0, parent=0),
        Span(2, "grid", "lp_norm", 2.0, 5.0, parent=0),   # overlaps span 1
        Span(3, "grid", "semiclassical_fft", 1.5, 2.5, parent=1),
        Span(4, "grid", "sfft1d", 9.5, 11.0, parent=0),   # runs past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 9.5) - 0.5)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.5)


def _traced_pass(experiments):
    tracer = Tracer()
    tracer.install()
    try:
        result = wl.run_pass(experiments, wl.load_reference(), None)
    finally:
        tracer.uninstall()
    return result, tracer.pass_metrics(0)


def test_egorov_traced_counts():
    inputs = wl.choose_inputs("egorov", 0)
    result, m = _traced_pass(wl.build("egorov", inputs, None))
    assert result.failures == {}
    assert m["propagator.evaluate_calls"] == 212
    assert m["propagator.unique_traj_ratio"] == pytest.approx(22 / 212)
    assert m["config.runs"] == 1


def test_cwt_roundtrip_traced_counts():
    inputs = wl.choose_inputs("roundtrip", 0)
    exp = wl.cwt_roundtrip_experiment(inputs["omega"])
    result, m = _traced_pass([exp])
    assert result.failures == {}
    assert m["wavelets.fft_calls"] == 672
    assert m["wavelets.fft_points"] == 423_112_704
    assert m["wavelets.scales"] == 134
    assert m["grid.fft_calls"] == 0


def test_refused_input_is_a_failure():
    text = wl.cli.load_shipped_config("sogge_baseline").replace(
        "h_list = 2^-5 2^-6 2^-7 2^-8 2^-9", "h_list = 2^-6 2^-7 2^-8 2^-9 2^-10")
    exp = wl.config_experiment("sogge_baseline", text)
    result = wl.run_pass([exp], wl.load_reference(), None)
    problems = result.failures["sogge_baseline"]
    assert any("UnderResolvedError" in p for p in problems)


def test_reference_drift_is_a_failure():
    exp = wl.config_experiment("kernel_k1", wl.cli.load_shipped_config("kernel_k1"))
    reference = wl.load_reference()
    assert wl.run_pass([exp], reference, None).failures == {}
    drifted = {k: v * (1 + 1e-5) for k, v in reference["kernel_k1"].items()}
    failures = wl.run_pass([exp], {"kernel_k1": drifted}, None).failures
    assert "differs from reference" in " ".join(failures["kernel_k1"])


def test_rendered_result_must_repeat_across_passes():
    calls = []

    def execute():
        calls.append(1)
        return len(calls)

    exp = wl.Experiment("flaky", execute,
                        lambda raw: wl.Outcome({"x": 1.0}, [], f"x,{raw}"))
    first = wl.run_pass([exp], {"flaky": {"x": 1.0}}, None)
    second = wl.run_pass([exp], {"flaky": {"x": 1.0}}, first)
    assert first.failures == {}
    assert "differs from the first pass" in " ".join(second.failures["flaky"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "egorov", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
