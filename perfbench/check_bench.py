"""Tests of the benchmark itself (not collected by the package's test run).

Run from the repository root:  python3 -m pytest -q perfbench/check_bench.py

The smoke tests start run.py on every workload at reduced size, with and
without tracing, and take about a minute on a two-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "references.json").read_text())


def _drive(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7, True) == workloads.make_inputs(workload, 7, True)


@pytest.mark.parametrize("workload", ["couplings_survey", "quick_commands"])
def test_seeds_change_inputs(workload):
    assert workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)


@pytest.mark.parametrize("seed", range(20))
def test_survey_covers_every_length_with_a_reference(seed):
    _, commands = workloads.make_inputs("couplings_survey", seed)
    keys = [c.params["ref"] for c in commands]
    assert all(key in REFS for key in keys)
    assert sorted(k.split("_")[0] for k in keys) == sorted(
        f"L{L:g}um" for L in workloads.SURVEY_L_UM)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _fake_curve(tmp: Path, f_shift: float) -> Path:
    ref = REFS["fig2"]
    out = tmp / "out" / "c00"
    out.mkdir(parents=True)
    rows = "\n".join(f"0,0,{f!r}" for f in ref["F"])
    (out / "fig2.csv").write_text(f"t_ns,lambda2_t_over_pi,F\n{rows}\n")
    summary = {"F_at_tau": ref["F_at_tau"] + f_shift, "convergence_delta": 1e-10}
    (out / "fig2_summary.json").write_text(json.dumps(summary))
    return tmp


@pytest.mark.parametrize("shift, ok",
                         [(0.0, True), (5e-9, True), (2e-8, False), (float("nan"), False)])
def test_curve_check_tolerance(shift, ok):
    tmp = HERE / "_work" / "check-curve"
    shutil.rmtree(tmp, ignore_errors=True)
    (_, (command,)) = workloads.make_inputs("fig2", 0)
    problems = workloads.check(command, _fake_curve(tmp, shift), REFS)
    shutil.rmtree(tmp)
    assert (problems == []) is ok, problems


def test_reference_splitting_matches_closed_limits():
    # E(0) = (pi/2) v_F/L: Lambda = 0 puts the root of x/tan(x) = 0 at pi/2.
    assert workloads.reference_splitting(5.0, 0.0) == pytest.approx(0.5 * 3.141592653589793 * 2e10)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = _drive("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_ratio"):
            assert any(line.startswith(name) for line in proc.stdout.splitlines())


def test_refuses_without_the_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = _drive("--workload", "fig2", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
