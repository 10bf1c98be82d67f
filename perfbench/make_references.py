"""Write references.json: the outputs the benchmark's checks compare against.

Usage (from the repository root): python3 perfbench/make_references.py

Runs, in this process, the fig2 and gate curves at both sizes and
``couplings`` for every device of the survey pool, and stores F(tau) with
the full fidelity column and lambda1_max, lambda2_max and omega_t per
device.  The stored file was written by the commit that added the
benchmark; regenerate it only to adopt a deliberate change of the physics.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from topoqed import cli  # noqa: E402

import workloads  # noqa: E402


def _run(command: workloads.Command, files: dict) -> Path:
    """Write the command's inputs, run it in the working directory, return its outputs."""
    for rel, text in files.items():
        Path(rel).parent.mkdir(parents=True, exist_ok=True)
        Path(rel).write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(command.argv))
    if code != 0:
        raise SystemExit(f"{command.argv} exited with {code}")
    return Path(command.out)


def main() -> int:
    workdir = HERE / "_work" / "references"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    refs = {}
    for workload, smoke in (("fig2", False), ("gate_k9_dense", False),
                            ("gate_k9_dense", True)):
        files, (command,) = workloads.make_inputs(workload, seed=0, smoke=smoke)
        out = _run(command, files)
        stem = command.argv[0]
        summary = json.loads((out / f"{stem}_summary.json").read_text())
        with open(out / f"{stem}.csv", newline="") as fh:
            column = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        refs[command.params["ref"]] = {"F_at_tau": summary["F_at_tau"], "F": column}
    for L_um in workloads.SURVEY_L_UM:
        for e_j in workloads.SURVEY_E_J_GHZ:
            key = workloads.survey_key(L_um, e_j)
            path = f"inputs/{key}.json"
            doc = workloads.device_config(L_um=L_um, E_J_GHz=e_j)
            out = _run(workloads.Command(("couplings", "--config", path, "--out", f"out/{key}"),
                                         f"out/{key}", "couplings"), {path: json.dumps(doc)})
            summary = json.loads((out / "couplings_summary.json").read_text())
            refs[key] = {k: summary[k] for k in ("lambda1_max", "lambda2_max", "omega_t")}
    os.chdir(HERE)
    shutil.rmtree(workdir)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
