"""Seeded inputs and output checks for the benchmark workloads.

A workload turns a seed into the config files and the command lines that
``topoqed.cli.main`` receives.  The same seed gives byte-identical inputs.
Each command writes into its own output directory, and ``check`` compares
what it wrote with stored reference values or with an independent
recomputation written here in plain Python.

Workloads
---------
fig2              the zero-config headline curve (k = 1, N = 16 with the N + 4
                  certificate); all time in RK45 propagation.
gate_k9_dense     ``gate`` with lambda2 derived from the reference device,
                  k = 9, 641 grid points out to lambda2*t/pi = 3.2.
couplings_survey  ``couplings`` for six wire lengths (Delta0*L/v_F from 0.6
                  to 10), each with a seeded junction ratio eta.
quick_commands    ``spectrum`` and ``phij`` over seeded 20000-step sweeps,
                  then ``couplings`` for the reference device and ``validate``.

BENCHMARK.json lists fig2 and quick_commands; README.md says why the other
two are run only by hand.

The seed does not change the fig2 and gate_k9_dense inputs: each is one fixed
physics problem with a stored reference curve.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fig2", "gate_k9_dense", "couplings_survey", "quick_commands")

# Survey ranges, fixed before any measurement.  Wire lengths in micrometres
# give Delta0*L/v_F = 0.60, 0.90, 2.0, 4.0, 7.0 and 10.05 (two devices with
# only the x/tan x branch, four that also use the u/tanh u branch); the small
# junction energy sets eta = E_J/E_J0 to 0.05, 0.1 or 0.15.
SURVEY_L_UM = (0.3, 0.45, 1.0, 2.0, 3.5, 5.0)
SURVEY_E_J_GHZ = (8.0, 16.0, 24.0)

SWEEP_STEPS = 20000
SMOKE_SWEEP_STEPS = 500

# Tolerances of the output checks.
F_AT_TAU_TOL = 1e-8  # absolute, fidelity at the gate time
F_CURVE_TOL = 1e-6  # absolute, every curve row (the Fock-cutoff certificate)
LAMBDA_RTOL = 1e-6  # relative, the Richardson derivative's stated accuracy
OMEGA_T_RTOL = 1e-10  # relative, a root solve to 1e-12
SPLITTING_RTOL = 1e-8  # relative, CSV values carry 12 significant digits
PHIJ_TOL = 1e-10  # absolute, series value and residual of the exact root

# Files whose contents carry wall times and so differ between repeated runs.
TIMED_OUTPUTS = ("validate_summary.json",)


def _freq(value: float, unit: str = "GHz", times_2pi: bool = True) -> dict:
    return {"value": value, "unit": unit, "times_2pi": times_2pi}


def device_config(L_um: float = 5.0, E_J_GHz: float = 16.0,
                  schedule: dict | None = None, curve: dict | None = None) -> dict:
    """Full config document for the reference device with the given overrides."""
    return {
        "schema_version": 1,
        "wire": {"v_F_m_per_s": 1e5, "L_m": L_um * 1e-6, "W_m": 1e-7, "T_K": 0.02,
                 "Delta0": _freq(32.0)},
        "circuit": {"E_J": _freq(E_J_GHz), "E_J0": _freq(160.0), "E_c": _freq(160.0),
                    "omega_r": _freq(6.0), "n_g": 0.5, "g": 0.01,
                    "phi_e_rad": 0.0, "phi_c_rad": 0.5},
        "bath": {"kappa": _freq(1.0, "MHz", False), "gamma": _freq(1.0, "MHz", False),
                 "rate_convention": "plain"},
        "schedule": schedule or {"k": 1, "fock_cutoff": 16},
        "curve": curve or {"x_max": 1.1, "steps": 44},
        "output": {"directory": "out", "formats": ["csv", "json", "svg"]},
    }


@dataclass(frozen=True)
class Command:
    """One ``cli.main`` call and how to check what it wrote."""

    argv: tuple[str, ...]
    out: str  # output directory, relative to the run's work directory
    check: str  # "curve", "couplings", "spectrum", "phij" or "validate"
    params: dict = field(default_factory=dict)


def make_inputs(workload: str, seed: int, smoke: bool = False):
    """Config files {relative path: text} and the commands of one operation."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    commands: list[Command] = []

    def add_config(name: str, doc: dict) -> str:
        path = f"inputs/{name}.json"
        files[path] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return path

    def out_dir() -> str:
        return f"out/c{len(commands):02d}"

    if workload == "fig2":
        out = out_dir()
        commands.append(Command(("fig2", "--out", out), out, "curve", {"ref": "fig2"}))
    elif workload == "gate_k9_dense":
        # The smoke size keeps the derived lambda2 but closes one loop (k = 1)
        # on the default grid, a third of the horizon.
        if smoke:
            doc, ref = device_config(), "gate_k1_smoke"
        else:
            doc = device_config(schedule={"k": 9, "fock_cutoff": 16},
                                curve={"x_max": 3.2, "steps": 640})
            ref = "gate_k9_dense"
        path = add_config("gate", doc)
        out = out_dir()
        commands.append(Command(("gate", "--config", path, "--out", out), out, "curve",
                                {"ref": ref}))
    elif workload == "couplings_survey":
        lengths = (SURVEY_L_UM[0], SURVEY_L_UM[-1]) if smoke else SURVEY_L_UM
        devices = [(L_um, rng.choice(SURVEY_E_J_GHZ)) for L_um in lengths]
        rng.shuffle(devices)
        for L_um, e_j in devices:
            key = survey_key(L_um, e_j)
            path = add_config(key, device_config(L_um=L_um, E_J_GHz=e_j))
            out = out_dir()
            commands.append(Command(("couplings", "--config", path, "--out", out), out,
                                    "couplings", {"ref": key}))
    elif workload == "quick_commands":
        steps = SMOKE_SWEEP_STEPS if smoke else SWEEP_STEPS
        path = add_config("device", device_config())
        eps = (round(rng.uniform(0.0, 0.25), 6), round(rng.uniform(2.9, math.pi), 6))
        phi_e = (round(rng.uniform(0.0, 0.25), 6), round(rng.uniform(6.0, 2 * math.pi), 6))
        for name, var, (lo, hi) in (("spectrum", "eps", eps), ("phij", "phi_e", phi_e)):
            out = out_dir()
            commands.append(Command(
                (name, "--config", path, "--sweep", f"{var}:{lo}:{hi}:{steps}", "--out", out),
                out, name, {"lo": lo, "hi": hi, "steps": steps, "L_um": 5.0, "E_J_GHz": 16.0},
            ))
        # The reference device's couplings keep the wire derivative and the
        # working-point search in a workload that the benchmark runs.
        out = out_dir()
        commands.append(Command(("couplings", "--config", path, "--out", out), out,
                                "couplings", {"ref": survey_key(5.0, 16.0)}))
        out = out_dir()
        commands.append(Command(("validate", "--out", out), out, "validate"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return files, commands


def survey_key(L_um: float, E_J_GHz: float) -> str:
    return f"L{L_um:g}um_EJ{E_J_GHz:g}GHz"


def output_digest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except those that record wall times."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name not in TIMED_OUTPUTS
    }


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _sample(rows: list, count: int = 64) -> list:
    step = max(1, len(rows) // count)
    return rows[::step] + [rows[-1]]


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def check(command: Command, workdir: Path, refs: dict) -> list[str]:
    """Problems found in the outputs of ``command``; empty when all hold."""
    out = workdir / command.out
    try:
        return _CHECKS[command.check](command, out, refs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{command.argv[0]}: unreadable output ({exc!r})"]


def _check_curve(command: Command, out: Path, refs: dict) -> list[str]:
    ref = refs[command.params["ref"]]
    stem = command.argv[0]
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    fids = [float(row[2]) for row in _rows(out / f"{stem}.csv")]
    problems = []
    # Comparisons are written so that a NaN fails them.
    if not abs(summary["F_at_tau"] - ref["F_at_tau"]) <= F_AT_TAU_TOL:
        problems.append(f"{stem}: F(tau) = {summary['F_at_tau']!r}, "
                        f"reference {ref['F_at_tau']!r}")
    if not summary["convergence_delta"] <= 1e-6:
        problems.append(f"{stem}: cutoff delta {summary['convergence_delta']!r} above 1e-6")
    if len(fids) != len(ref["F"]):
        problems.append(f"{stem}: {len(fids)} curve rows, reference has {len(ref['F'])}")
    else:
        bad = [abs(f - r) for f, r in zip(fids, ref["F"]) if not abs(f - r) <= F_CURVE_TOL]
        if bad:
            problems.append(f"{stem}: {len(bad)} curve rows deviate from the reference "
                            f"by more than {F_CURVE_TOL:g}")
    return problems


def _check_couplings(command: Command, out: Path, refs: dict) -> list[str]:
    ref = refs[command.params["ref"]]
    summary = json.loads((out / "couplings_summary.json").read_text())
    problems = []
    for name, rtol in (("lambda1_max", LAMBDA_RTOL), ("lambda2_max", LAMBDA_RTOL),
                       ("omega_t", OMEGA_T_RTOL)):
        if not _close(summary[name], ref[name], rtol):
            problems.append(f"couplings {command.params['ref']}: {name} = "
                            f"{summary[name]!r}, reference {ref[name]!r}")
    return problems


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] (sign change assumed) to double precision."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_splitting(L_um: float, eps: float) -> float:
    """E(eps) in rad/s for v_F = 1e5 m/s and Delta0 = 2*pi*32 GHz.

    Solves x/tan(x) = Lambda on (0, pi) for Lambda < 1, else
    u/tanh(u) = Lambda, by bisection.
    """
    v_over_l = 1e5 / (L_um * 1e-6)
    lam = 2 * math.pi * 32e9 / v_over_l * abs(math.sin(0.5 * eps))
    if lam == 1.0:
        return v_over_l
    if lam < 1.0:
        x = _bisect(lambda x: x / math.tan(x) - lam, 1e-300, math.pi - 1e-12)
        return v_over_l * math.hypot(lam, x)
    u = _bisect(lambda u: u / math.tanh(u) - lam, 1e-300, lam)
    # Lambda**2 - u**2 = (Lambda - u)(Lambda + u), with Lambda - u written
    # as Lambda*(1 - tanh u) to avoid cancellation.
    return v_over_l * math.sqrt(lam * (1.0 - math.tanh(u)) * (lam + u))


def _check_sweep_grid(command: Command, rows: list) -> list[str]:
    p = command.params
    name = command.argv[0]
    if len(rows) != p["steps"] + 1:
        return [f"{name}: {len(rows)} rows for {p['steps']} steps"]
    first, last = float(rows[0][0]), float(rows[-1][0])
    span = p["hi"] - p["lo"]
    if abs(first - p["lo"]) > 1e-12 * span or abs(last - p["hi"]) > 1e-9 * span:
        return [f"{name}: sweep runs {first!r}..{last!r}, asked {p['lo']!r}..{p['hi']!r}"]
    return []


def _check_spectrum(command: Command, out: Path, refs: dict) -> list[str]:
    rows = _rows(out / "spectrum.csv")
    problems = _check_sweep_grid(command, rows)
    for row in _sample(rows):
        eps, energy = float(row[0]), float(row[2])
        ref = reference_splitting(command.params["L_um"], eps)
        if not _close(energy, ref, SPLITTING_RTOL):
            problems.append(f"spectrum: E({eps!r}) = {energy!r}, recomputed {ref!r}")
            break
    return problems


def _check_phij(command: Command, out: Path, refs: dict) -> list[str]:
    rows = _rows(out / "phij.csv")
    problems = _check_sweep_grid(command, rows)
    eta = command.params["E_J_GHz"] / 160.0
    for row in _sample(rows):
        phi_e, series, exact, diff = (float(v) for v in row)
        want = 2 * eta * math.sin(0.5 * phi_e) - eta**2 * math.sin(phi_e)
        residual = math.sin(exact) - 2 * eta * math.sin(0.5 * (phi_e - exact))
        if not (abs(series - want) <= PHIJ_TOL and abs(residual) <= PHIJ_TOL
                and abs(diff - abs(series - exact)) <= PHIJ_TOL):
            problems.append(f"phij: row at phi_e = {phi_e!r} fails "
                            f"(series {series!r} vs {want!r}, residual {residual:.2e})")
            break
    return problems


def _check_validate(command: Command, out: Path, refs: dict) -> list[str]:
    summary = json.loads((out / "validate_summary.json").read_text())
    failed = [name for name, r in summary["report"].items() if not r["passed"]]
    if failed or not summary["all_passed"] or not summary["report"]:
        return [f"validate: failed groups {failed}"]
    return []


_CHECKS = {
    "curve": _check_curve,
    "couplings": _check_couplings,
    "spectrum": _check_spectrum,
    "phij": _check_phij,
    "validate": _check_validate,
}
