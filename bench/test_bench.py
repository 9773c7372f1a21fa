"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    # simulate keeps two timesteps with alpha >= 0.9 for the noise check
    grid = (1, 500, 950, 1000) if w.simulate else (1, 500, 1000)
    return dataclasses.replace(w, shape=(min(w.shape[0], 8), 16, 16), images=2, timesteps=grid)


@pytest.fixture
def tiny_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")

    def go(name: str, trace: int) -> tuple[dict, list[str]]:
        monkeypatch.setitem(run.WORKLOADS, name, _tiny(name))
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        return json.loads(lines[-1]), lines[:-1]

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_prints_every_declared_metric(tiny_run, name, trace):
    result, lines = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}") for line in lines)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    maps = _tiny(name).maps
    if not trace:
        assert values["success_rate"] == 1.0 and values["maps_per_s"] > 0
    elif name.startswith("simulate"):
        assert values["diffusion.sample_noise.calls"] == maps
        assert values["tensor_io.write_tensor.calls"] == maps
        assert values["fft.fft2.calls"] == 0
    else:
        assert values["fft.fft2.calls"] == values["spectral.hfr.calls"] == maps
        assert values["tensor_io.read_tensor.calls"] == maps
        assert values["diffusion.sample_noise.calls"] == 0


def test_wrong_curve_counts_as_failure(tiny_run, monkeypatch):
    real_step = run.run_step

    def step_with_wrong_curve(args, log, cwd):
        proc = real_step(args, log, cwd)
        if args[0] == "hfr":
            curve = cwd / args[args.index("--out") + 1]
            lines = curve.read_text().splitlines()
            t, mean, n = lines[1].split(",")
            lines[1] = f"{t},{float(mean) * (1 + 1e-6)!r},{n}"
            curve.write_text("\n".join(lines) + "\n")
        return proc

    monkeypatch.setattr(run, "run_step", step_with_wrong_curve)
    result, lines = tiny_run("latent_4x64", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_RUNS
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert any("differs from numpy.fft reference" in line for line in lines)


def test_child_usage_is_the_childs_own(tmp_path):
    # run.py's own resident set must not show up as the child's peak RSS
    ballast = np.ones(200 * (1 << 20) // 8)
    proc = run.spawn([sys.executable, "-c", "pass"], tmp_path / "pass.log")
    assert proc.returncode == 0 and proc.wall_s > 0 and proc.cpu_s > 0
    assert proc.rss_mb < ballast.nbytes / run.MB / 4


def test_hung_child_is_killed_and_reaped(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CLI_TIMEOUT_S", 0.5)
    proc = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path / "sleep.log")
    assert proc.returncode != 0 and proc.wall_s < 30


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "latent_4x64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_wrap_caller_bindings_and_count_errors(tmp_path):
    import freqsel.spectral
    import freqsel.tensor_io
    from freqsel.errors import IoFailure

    original = freqsel.spectral.fft2
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert freqsel.spectral.fft2 is not original
        fmap = freqsel.tensor_io.FeatureMap(np.ones((2, 8, 8)) + np.eye(8))
        freqsel.spectral.hfr(fmap)
        with pytest.raises(IoFailure):
            freqsel.tensor_io.read_tensor(tmp_path / "missing.npy")
    finally:
        recorder.uninstall()
    assert freqsel.spectral.fft2 is original
    figures = recorder.summary(threads=1)
    assert figures["fft.fft2.calls"] == 1 and figures["fft.fft2.points"] == 128
    assert figures["reduction.pairwise_sum.calls"] == 6  # 2 channels x 2 sums + 2 across channels
    assert figures["tensor_io.errors"] == 1 and figures["spectral.errors"] == 0
    hfr_span = next(s for s in recorder.spans if s[2] == "spectral.hfr")
    children = sum(s[5] - s[4] for s in recorder.spans if s[1] == hfr_span[0])
    assert hfr_span[6] == pytest.approx(hfr_span[5] - hfr_span[4] - children)


def test_deleted_function_reports_zero_calls(monkeypatch):
    import freqsel.spectral

    # the package re-exports the function fft under the submodule's name
    monkeypatch.delattr(importlib.import_module("freqsel.fft"), "fft2")
    recorder = SpanRecorder()
    recorder.install()
    try:
        freqsel.spectral.hfr(freqsel.tensor_io.FeatureMap(np.eye(8)))
    finally:
        recorder.uninstall()
    figures = recorder.summary(threads=1)
    assert figures["fft.fft2.calls"] == 0 and figures["spectral.hfr.calls"] == 1


def test_self_time_ignores_children_on_other_threads(tmp_path):
    import freqsel.selection

    inputs = run.build_inputs(_tiny("block_320x64"), 5, tmp_path / "data")
    manifest = freqsel.tensor_io.load_manifest(inputs.manifest)
    recorder = SpanRecorder()
    recorder.install()
    try:
        freqsel.selection.average_hfr(manifest, run.CUTOFF, threads=2)
    finally:
        recorder.uninstall()
    (outer,) = [s for s in recorder.spans if s[2] == "selection.average_hfr"]
    per_map = [s for s in recorder.spans if s[2] in ("spectral.hfr", "tensor_io.read_tensor")]
    assert all(s[1] is None and s[3] != outer[3] for s in per_map)
    # the waiting caller keeps its whole wall time, minus same-thread children only
    same_thread = sum(s[5] - s[4] for s in recorder.spans if s[1] == outer[0])
    assert outer[6] == pytest.approx(outer[5] - outer[4] - same_thread)
    assert 0.0 < recorder.summary(threads=2)["selection.average_hfr.pool_util"] <= 1.0


def _main_with_spans(recorder: SpanRecorder, args: list[str]) -> int:
    import freqsel.cli

    recorder.install()
    try:
        return freqsel.cli.main(args)
    finally:
        recorder.uninstall()


def _errors(recorder: SpanRecorder) -> dict[str, int]:
    return {k: v for k, v in recorder.summary(threads=1).items() if k.endswith(".errors") and v}


def test_error_raised_in_cli_code_counts_in_cli(tmp_path, capsys):
    inputs = run.build_inputs(_tiny("latent_4x64"), 5, tmp_path / "data")
    curve, cutoff = str(tmp_path / "curve.csv"), repr(run.CUTOFF)
    recorder = SpanRecorder()
    assert _main_with_spans(recorder, ["hfr", "--manifest", str(inputs.manifest), "--cutoff", cutoff,
                                       "--out", curve]) == 0
    assert _errors(recorder) == {}
    recorder.reset()
    # t=7 is not on the curve: cli._restrict_curve raises EmptyTimestep, which cli.main catches
    assert _main_with_spans(recorder, ["select", "--curve", curve, "--cutoff", cutoff,
                                       "--timesteps", "7"]) == 2
    assert "EmptyTimestep" in capsys.readouterr().err
    assert _errors(recorder) == {"cli.errors": 1}


def test_error_reraised_by_a_caller_counts_once(tmp_path, capsys):
    workload = _tiny("latent_4x64")
    inputs = run.build_inputs(workload, 5, tmp_path / "data")
    np.save(inputs.manifest.parent / "t0500_i001.npy", np.zeros(workload.shape, "<f4"))
    recorder = SpanRecorder()
    # spectral.hfr raises ZeroEnergyFeature; selection re-raises it with the file's path
    assert _main_with_spans(recorder, ["hfr", "--manifest", str(inputs.manifest), "--threads", "1",
                                       "--out", str(tmp_path / "curve.csv")]) == 2
    assert "t0500_i001.npy: zero-energy" in capsys.readouterr().err
    assert _errors(recorder) == {"spectral.errors": 1}
