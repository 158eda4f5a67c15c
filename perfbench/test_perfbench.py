"""Tests of the benchmark itself, on the smallest inputs of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import mixlap  # noqa: E402
import mixlap.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer, layer_metrics, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(workload, tmp_path, trace):
    tracer = Tracer()
    return run.measure(workload, tmp_path, 0.0, trace, tracer, setup_s=0.5), tracer


def test_benchmark_json_matches_emitted_names():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace):
    result, _ = _measure(workloads.solve_ladder(1, small=True), tmp_path, trace)
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    json.dumps(result)


def _corrupt(workload, index, mangle):
    """The same workload with job ``index``'s result passed through ``mangle``."""
    job = workload.jobs[index]
    bad = dataclasses.replace(job, call=lambda out: mangle(job.call(out), out))
    jobs = list(workload.jobs)
    jobs[index] = bad
    return dataclasses.replace(workload, jobs=jobs)


def test_corrupted_solution_counts_as_failed(tmp_path):
    def negate(report, _out):
        sol = mixlap.GridFunction(report.solution.mesh, -report.solution.coeffs)
        return dataclasses.replace(report, solution=sol)

    workload = _corrupt(workloads.solve_ladder(1, small=True), 0, negate)
    result, _ = _measure(workload, tmp_path, False)
    assert result["failed"] == 1 and not result["correct"]


def test_corrupted_energy_counts_as_failed(tmp_path):
    def shift(report, _out):
        return dataclasses.replace(report, energy=report.energy * (1 + 1e-3))

    workload = _corrupt(workloads.solve_ladder(1, small=True), 0, shift)
    outcomes = workloads.run_pass(workload, tmp_path, run.time.perf_counter)
    assert [o.status for o in outcomes][:2] == ["wrong", "ok"]
    assert "finest mesh" in outcomes[0].reason


def test_corrupted_certificate_counts_as_failed(tmp_path):
    def lower_lgamma(status, out):
        path = out / "certificate.txt"
        text = path.read_text().splitlines()
        path.write_text("\n".join(
            "certificate.lgamma_min = 0.5" if ln.startswith("certificate.lgamma_min")
            else ln for ln in text) + "\n")
        return status

    barrier_job = workloads.cli_batch(1, small=True).jobs[0]
    workload = _corrupt(workloads.Workload([barrier_job], (1, 0.5)), 0, lower_lgamma)
    outcomes = workloads.run_pass(workload, tmp_path, run.time.perf_counter)
    assert outcomes[0].status == "wrong" and "lgamma_min" in outcomes[0].reason


def test_garbled_artifact_counts_as_failed(tmp_path):
    def garble(status, out):
        (out / "solution.csv").write_text("x,u\n0.5,not-a-number\n")
        return status

    solve_job = workloads.cli_batch(1, small=True).jobs[-1]
    workload = workloads.Workload([solve_job], (1, 0.5))
    outcomes = workloads.run_pass(_corrupt(workload, 0, garble), tmp_path, run.time.perf_counter)
    assert outcomes[0].status == "wrong" and "ValueError" in outcomes[0].reason


def test_summary_and_artifact_checks_fire(tmp_path):
    (tmp_path / "s.txt").write_text("weak_mp: passed  measured=1\nsuite: FAILURES\n")
    assert workloads._summary_check("s.txt")(tmp_path)
    (tmp_path / "s.txt").write_text("weak_mp: FAILED  measured=1\nsuite: all passed\n")
    assert workloads._summary_check("s.txt")(tmp_path)
    (tmp_path / "s.txt").write_text("weak_mp: passed  measured=1\nsuite: all passed\n")
    assert workloads._summary_check("s.txt")(tmp_path) is None

    assert mixlap.cli.main(["solve", "--n", "15", "--output-dir", str(tmp_path)]) == 0
    check = workloads._solve_artifacts_check(15)
    assert check(tmp_path) is None
    csv = tmp_path / "solution.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:-1] + [lines[-1].split(",")[0] + ",-1.0"]) + "\n")
    assert check(tmp_path)


def test_typed_refusal_fails_without_marking_outputs_wrong(tmp_path):
    def refuse(_report, _out):
        raise mixlap.NumericalError("refused")

    workload = _corrupt(workloads.solve_ladder(1, small=True), 1, refuse)
    result, _ = _measure(workload, tmp_path, False)
    assert result["failed"] == 1 and result["correct"]


def test_pass_count_does_not_depend_on_machine_speed(tmp_path):
    job = workloads.Job("noop", lambda out: 0, lambda result, out: None)
    workload = workloads.Workload([job, job], (1, 0.5), pass_s=5.0)
    result = run.measure(workload, tmp_path, 25.0, False, Tracer(), setup_s=0.5)
    assert (result["attempted"], result["failed"]) == (10, 0)
    traced = run.measure(workload, tmp_path, 25.0, True, Tracer(), setup_s=0.5)
    assert traced["attempted"] == 8  # two rounds of an untraced and a traced pass

    ticks = iter(range(0, 10**6, 60))  # a clock 60 s further on at every read
    stalled = run.measure(workload, tmp_path, 25.0, False, Tracer(lambda: next(ticks)),
                          setup_s=0.5)
    assert stalled["attempted"] < 10  # stops at MAX_OVERRUN x the planned time


def test_ladder_seed_scales_the_load_by_a_power_of_two():
    mesh = mixlap.build_mesh(-1.0, 1.0, 63)
    loads = [mixlap.load_vector(workloads._ladder_load(np.random.default_rng(seed)), mesh)
             for seed in (1, 2, 3)]
    for b in loads[1:]:
        ratio = b / loads[0]
        assert np.all(ratio == ratio[0]) and np.log2(ratio[0]) == round(np.log2(ratio[0]))


# layers each small workload reaches, by a metric that must be nonzero there
REACHED = {
    "solve_ladder": ["kernel.normalization_constant.calls", "assembly.nonlocal_stiffness.calls",
                     "assembly.local_stiffness.self_s", "assembly.load_vector.calls",
                     "solve.solve_dirichlet.calls", "solve.solve_dirichlet.flops"],
    "cli_batch": ["kernel.frac_apply_1d.calls", "kernel.mixed_apply.calls",
                  "assembly.nonlocal_stiffness.calls", "assembly.export_matrix.self_s",
                  "solve.solve_dirichlet.calls", "solve.export_solution_csv.self_s",
                  "verify.run_suite.calls", "verify.counterexample.calls", "verify.checks",
                  "barrier.build_barrier.calls", "barrier.build_barrier.attempts",
                  "cli.main.calls", "cli.artifact_bytes"],
}


@pytest.mark.parametrize("name", sorted(REACHED))
def test_traced_run_counts_every_reached_layer(tmp_path, name):
    result, tracer = _measure(workloads.WORKLOADS[name](1, small=True), tmp_path, True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for key in REACHED[name]:
        assert metrics[key] > 0, key
    if name == "solve_ladder":  # the ladder bypasses the pointwise kernel
        assert metrics["kernel.frac_apply_1d.calls"] == 0
        assert metrics["barrier.build_barrier.calls"] == 0
    assert all(sp[2] >= sp[1] for sp in tracer.spans)
    # rebinding is undone: the package holds the original functions again
    assert mixlap.solve_dirichlet is mixlap.solve.solve_dirichlet
    assert not hasattr(mixlap.solve_dirichlet, "__wrapped__")


def test_radial_calls_are_split_from_1d_calls():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job("0:0"):
            value = mixlap.frac_apply(mixlap.radial_cutoff(2.0), np.array([0.5, 0.0]),
                                      mixlap.OperatorParams(2, 0.5), mixlap.QuadratureSpec())
    finally:
        tracer.uninstall()
    assert np.isfinite(value)
    assert [sp[0] for sp in tracer.spans if sp[0].startswith("kernel.frac")] == [
        "kernel.frac_apply_radial"]
    metrics = layer_metrics(tracer.spans)
    assert metrics["kernel.frac_apply_1d.calls"] == 0
    assert metrics["kernel.normalization_constant.calls"] == 1


def test_self_time_subtracts_children():
    spans = [["job", 0.0, 10.0, -1, "0:0", {}],
             ["solve.solve_dirichlet", 1.0, 9.0, 0, "0:0", {}],
             ["assembly.load_vector", 2.0, 3.0, 1, "0:0", {}],
             ["assembly.load_vector", 4.0, 6.0, 1, "0:0", {}]]
    assert self_times(spans) == [2.0, 5.0, 1.0, 2.0]
    assert self_times(spans[1:], offset=1) == [5.0, 1.0, 2.0]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "cli_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip()
