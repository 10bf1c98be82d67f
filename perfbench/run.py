"""topoqed benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 55 --trace 0

The runner writes the seeded inputs of one workload (see ``workloads.py``),
then starts fresh interpreters (``child.py``) one after another until
``--seconds`` have passed, each running the workload's commands through
``topoqed.cli.main`` once.  Each child runs on one CPU with one BLAS
thread (see ``_child_cpu``).  Every child's outputs are checked against the
stored references (``references.json``) and against the first child's
output bytes.  If fewer than five children ran, more start that only set
up, so that ``setup_s`` is a median over at least five samples.

With ``--trace 0`` it reports the end-to-end metrics ``wall_s``, ``setup_s``
and ``peak_rss_mb``.  With ``--trace 1`` it alternates untraced and traced
children and reports the per-layer metrics of the traced ones, plus the
tracing overhead; traced outputs must be byte-identical to untraced ones.
``--smoke`` shrinks every workload for a quick end-to-end test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
``cli.main`` call; it fails on a nonzero exit code or a failed output check.
The full record, with quartiles, sample counts and machine facts, is written
to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 5  # children that only set up fill the rest
MIN_CHILDREN = 2  # so every run compares the bytes of two repeated outputs
DEADLINE_S = 170.0  # the whole run, child processes included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

def _child_env() -> dict:
    env = dict(os.environ)
    # An absolute path, so the child finds the package from any directory.
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread, to match the one CPU the child runs on.
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def _child_cpu() -> int:
    """The one CPU every child runs on.

    On a shared host the two threads of the CLI's sweep pool hand the GIL
    back and forth across CPUs, and how long that takes depends on what else
    the host runs: the spectrum and phij sweeps ran up to twice as long on
    two CPUs as on one, by an amount that changed from minute to minute.  On
    one CPU the pool's threads take turns, and fig2 runs as fast as on two.
    """
    return min(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(env: dict, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "child_cpus": [_child_cpu()],
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "blas_thread_env": {k: env.get(k) for k in BLAS_THREAD_VARS},
        "blas_thread_env_outside": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_pinned_by_benchmark": True,
        "git_commit": _git_commit(),
    }


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the samples themselves."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


class Run:
    """One benchmark run: a work directory and the children started in it."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.files, self.commands = workloads.make_inputs(workload, seed, smoke)
        self.refs = json.loads((HERE / "references.json").read_text())
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for rel, text in self.files.items():
            path = self.dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        self.env = _child_env()
        self.cpu = _child_cpu()
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict | None] = [None] * len(self.commands)
        self.children: list[dict] = []  # reports of children that ran commands
        self.setup: list[float] = []
        self.versions: dict = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Start one child, wait for it, and check what it wrote."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        job_path, result_path = self.dir / "job.json", self.dir / "result.json"
        result_path.unlink(missing_ok=True)
        job = {"commands": [list(c.argv) for c in self.commands], "trace": trace,
               "setup_only": setup_only, "result": str(result_path)}
        job_path.write_text(json.dumps(job))
        with open(self.dir / "child.log", "ab") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                    cwd=self.dir, env=self.env, stdout=log, stderr=log,
                                    preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
            try:
                proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                pass
            finally:  # also when this process is stopped
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        report = None
        if proc.returncode == 0 and result_path.is_file():
            report = json.loads(result_path.read_text())
            report["setup_s"] = report["ready"] - spawned
            self.setup.append(report["setup_s"])
            self.versions = report["versions"]
        if setup_only:
            if report is None:
                self.problems.append(f"set-up child exited with {proc.returncode}")
            return report
        self.attempted += len(self.commands)
        if report is None:
            self.failed += len(self.commands)
            self.problems.append(f"child exited with {proc.returncode}; see {self.dir}/child.log")
            return None
        for i, (command, code) in enumerate(zip(self.commands, report["exit_codes"])):
            problems = [f"{' '.join(command.argv)}: exit code {code}"] if code else []
            if not problems:
                problems = workloads.check(command, self.dir, self.refs)
            if not problems:
                digest = workloads.output_digest(self.dir / command.out)
                if self.digests[i] is None:
                    self.digests[i] = digest
                elif digest != self.digests[i]:
                    what = "traced" if trace else "repeated"
                    problems = [f"{command.argv[0]}: {what} run wrote different bytes"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        report["traced"] = trace
        self.children.append(report)
        return report

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _repeat(run: Run, seconds: float, minimum: int, step) -> None:
    """Call ``step`` until ``seconds`` have passed and it ran ``minimum`` times.

    The run stops short of the next step if that step would likely end after
    the half-way point past ``seconds``, or too close to the deadline.
    """
    count, last = 0, 0.0
    while True:
        elapsed = time.monotonic() - run.started
        if count >= minimum and elapsed + 0.5 * last >= seconds:
            return
        if count and run.remaining() < 1.5 * last + 5.0:
            return
        start = time.monotonic()
        step()
        last = time.monotonic() - start
        count += 1


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Start the children; return (metrics, record) for the final report."""
    if trace:
        _repeat(run, seconds, 1, lambda: (run.child(trace=False), run.child(trace=True)))
    else:
        _repeat(run, seconds, MIN_CHILDREN, run.child)
        while len(run.setup) < MIN_SETUP_SAMPLES and run.remaining() > 10.0:
            run.child(setup_only=True)

    plain = [c for c in run.children if not c["traced"]]
    traced = [c for c in run.children if c["traced"]]
    record = {"wall_s": summarize([c["wall_s"] for c in plain]) if plain else None,
              "setup_s": summarize(run.setup) if run.setup else None}
    metrics: dict[str, dict] = {}
    if not trace:
        if plain:
            record["peak_rss_mb"] = summarize([c["peak_rss_mb"] for c in plain])
            for name, unit in metric_units("end_to_end").items():
                metrics[name] = {"value": record[name]["median"], "unit": unit}
        return metrics, record
    if traced and plain:
        units = metric_units("per_layer")
        layers = {}
        for name in units:
            if name == "config.load_s":
                values = [c["config_load_s"] for c in traced]
            elif name == "trace.overhead_s":
                values = [statistics.median(c["wall_s"] for c in traced)
                          - statistics.median(c["wall_s"] for c in plain)]
            else:
                values = [c["layers"][name] for c in traced]
            layers[name] = summarize(values)
            metrics[name] = {"value": layers[name]["median"], "unit": units[name]}
        record["traced_wall_s"] = summarize([c["wall_s"] for c in traced])
        record["layers"] = layers
    return metrics, record


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "topoqed" / "cli.py").is_file():
        print(f"no topoqed package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.smoke)
    try:
        metrics, record = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, attempted=run.attempted, failed=run.failed,
        fail_ratio=run.failed / run.attempted if run.attempted else 1.0,
        problems=run.problems[:20], machine=machine_facts(run.env, run.versions),
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                             f"{'-smoke' if args.smoke else ''}.json")
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    for name, unit in metric_units("end_to_end").items():
        if record.get(name):
            s = record[name]
            print(f"{name:<12} median {s['median']:.4f} {unit}  "
                  f"quartiles {s['q1']:.4f} .. {s['q3']:.4f}  n={s['n']}")
    print(f"fail_ratio   {record['fail_ratio']:.4f}  ({run.failed} of {run.attempted} operations)")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    m = record["machine"]
    print(f"machine: {m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, "
          f"numpy {m.get('numpy')}, scipy {m.get('scipy')}, commit {m['git_commit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    correct = run.attempted > 0 and run.failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
