"""Command-line surface: sweeps, coupling reports, gate curves, self-checks.

``COMMANDS`` is the command list: it maps each subcommand to its handler, its
help text and the flags it takes besides ``--out``.  Every command but
``validate`` and ``fig2`` takes ``--config``, and every command but
``validate`` writes its table and summary through ``_write_table``;
``validate`` checks the built-in reference device.  ``fig2`` is ``gate`` on
the built-in config, ``default_config_dict()``, so it takes only ``--out``.

A run builds the parser of its own command alone, ``topoqed <command>``,
which reports a flag that the command does not take with that command's
usage line.  Any other argument list (none, ``-h``, an unknown command, a
flag before the command) goes to the command list, a parser that only
prints the help listing or a usage error.

The gate curves are computed in closed form, with no Fock cutoff, so gate
and fig2 take no --fock flag (argparse rejects it with exit 2).

Exit codes: 0 success, 2 configuration error (an output directory or file
that cannot be created or written included; an output directory that is, or
lies under, a file is refused before any work), 3 numerical-convergence
failure (for gate and fig2: a reduced state fails its physicality check,
or F leaves [-1e-8, 1 + 1e-8]),
4 invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import circuit as _circuit
from . import validate as _validate
from .config import ConfigError, RunConfig, SweepSpec, load_config
from .dynamics import SERIES_ORDER, GateSchedule, fidelity_curve
from .interface import couplings, optimal_working_point
from .output import write_csv, write_json, write_svg_plot
from .qcore import ConvergenceError, IntegrationError
from .wire import thermal_leakage, wire_splitting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _parse_sweep_flag(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects VAR:MIN:MAX:STEPS")
    var, lo, hi, steps = parts
    try:
        return SweepSpec(variable=var, min=float(lo), max=float(hi), steps=int(steps))
    except ValueError as exc:
        raise ConfigError(f"bad --sweep value {text!r}: {exc}") from exc


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    # An empty value is a value: --out '' is the working directory, and
    # --sweep '' is refused.
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "sweep", None) is not None:
        updates["sweep"] = _parse_sweep_flag(args.sweep)
    return dataclasses.replace(config, **updates) if updates else config


def _check_out_dir(config: RunConfig) -> None:
    """Refuse an output directory that is, or lies under, a file.

    Runs before any work and creates nothing, so a configuration error found
    later still leaves no directory behind.
    """
    path = Path(config.out_dir)
    for ancestor in (path, *path.parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            return


def _write_table(config: RunConfig, stem: str, header, columns, summary: dict) -> Path:
    """Write ``<stem>.csv``, then ``<stem>_summary.json`` with the config echo.

    Returns the CSV path.
    """
    path = Path(config.out_dir) / f"{stem}.csv"
    write_csv(path, header, columns)
    write_json(path.with_name(f"{stem}_summary.json"), {**summary, "config": config.normalized()})
    return path


def cmd_spectrum(config: RunConfig) -> int:
    sweep = config.sweep or SweepSpec(variable="eps", min=0.0, max=math.pi, steps=200)
    if sweep.variable != "eps":
        raise ConfigError(f"spectrum sweeps over 'eps', got {sweep.variable!r}")

    eps = sweep.values()
    res = wire_splitting(config.wire, eps)
    path = _write_table(
        config, "spectrum",
        ["eps_rad", "Lambda", "E_rad_per_s", "E_GHz_over_2pi", "branch"],
        [eps, res.Lambda, res.E, res.E / (2.0 * math.pi * 1e9), res.branch],
        {"rows": len(eps)},
    )
    print(f"wrote {path} ({len(eps)} rows)")
    return EXIT_OK


def cmd_phij(config: RunConfig) -> int:
    sweep = config.sweep or SweepSpec(variable="phi", min=0.0, max=2.0 * math.pi, steps=200)
    if sweep.variable not in ("phi", "phi_e"):
        raise ConfigError(f"phij sweeps over 'phi' or 'phi_e', got {sweep.variable!r}")

    values = sweep.values()
    phi, phi_e = (values, None) if sweep.variable == "phi" else (0.0, values)
    series = _circuit.phi_J_series(config.circuit, phi, 0.0, phi_e)
    exact = _circuit.phi_J_exact(config.circuit, phi, 0.0, phi_e)
    path = _write_table(
        config, "phij",
        [f"{sweep.variable}_rad", "phi_J_series_rad", "phi_J_exact_rad", "abs_diff_rad"],
        [values, series, exact, np.abs(series - exact)],
        {"rows": len(values)},
    )
    print(f"wrote {path} ({len(values)} rows)")
    return EXIT_OK


def cmd_couplings(config: RunConfig) -> int:
    wire, circ = config.wire, config.circuit
    eta = circ.eta
    lam1_ref = eta * wire.Delta0
    lam2_ref = eta * circ.g * wire.Delta0
    # g = 0, or a product that underflows or overflows, leaves the optima
    # without a scale.
    for name, ref in (("eta*Delta0", lam1_ref), ("eta*g*Delta0", lam2_ref)):
        if ref == 0.0:
            raise ConfigError(f"{name} = 0: the optimal coupling cannot be quoted in its units")
        if not math.isfinite(ref):
            raise ConfigError(f"non-finite product {name} = {ref!r}: the optimal coupling "
                              "cannot be quoted in its units")
    cs = couplings(wire, circ)
    eff = cs.effective

    phi_c, lam1_max, lam2_max = optimal_working_point(wire, circ)
    # abs of the quotient: eta*g*Delta0 takes the sign of g.
    lam1_ratio, lam2_ratio = abs(lam1_max / lam1_ref), abs(lam2_max / lam2_ref)
    p_t_working = _circuit.tunneling_leakage(cs.lambda1, circ)
    p_e = thermal_leakage(wire)

    quantities = [
        ("omega_t", cs.omega_t, "rad_per_s"),
        ("lambda1", cs.lambda1, "rad_per_s"),
        ("lambda2", cs.lambda2, "rad_per_s"),
        ("E_J_bar", eff.E_J_bar, "rad_per_s"),
        ("xi", eff.xi, "rad_per_s"),
        ("eps_plus", eff.eps_plus, "rad"),
        ("eps_minus", eff.eps_minus, "rad"),
        ("working_phi", cs.working_phi, "rad"),
        ("lambda1_max", lam1_max, "rad_per_s"),
        ("lambda1_max_phi_c", phi_c, "rad"),
        ("lambda1_max_over_eta_Delta0", lam1_ratio, "dimensionless"),
        ("lambda2_max", lam2_max, "rad_per_s"),
        ("lambda2_max_phi_c", phi_c, "rad"),
        ("lambda2_max_over_eta_g_Delta0", lam2_ratio, "dimensionless"),
        ("P_t_working_point", p_t_working, "probability"),
        ("P_e_thermal", p_e, "probability"),
    ]
    path = _write_table(config, "couplings", ["quantity", "value", "unit"],
                        [np.array(c) for c in zip(*quantities)],
                        {name: value for name, value, _ in quantities})
    print(f"working point phi = {cs.working_phi:.6f} rad (phi_e = {circ.phi_e:.6f})")
    print(f"  omega_t  = 2*pi x {cs.omega_t / (2 * math.pi * 1e9):.4f} GHz")
    print(f"  lambda1  = 2*pi x {cs.lambda1 / (2 * math.pi * 1e6):.4f} MHz")
    print(f"  lambda2  = 2*pi x {cs.lambda2 / (2 * math.pi * 1e6):.4f} MHz")
    print(f"optimum |lambda1| (phi_e=pi): 2*pi x {abs(lam1_max) / (2 * math.pi * 1e9):.4f} GHz "
          f"at phi_c = {phi_c:.6f}  ({lam1_ratio:.3f} x eta*Delta0)")
    print(f"optimum |lambda2| (phi_e=0):  2*pi x {abs(lam2_max) / (2 * math.pi * 1e6):.4f} MHz "
          f"at phi_c = {phi_c:.6f}  ({lam2_ratio:.3f} x eta*g*Delta0)")
    print(f"diagnostics: P_t = {p_t_working:.3e}, P_e = {p_e:.3e}")
    print(f"wrote {path}")
    return EXIT_OK


def _write_curve(config: RunConfig, lambda2: float, stem: str) -> None:
    schedule = GateSchedule(k=config.k, lambda2=lambda2)
    # The grid's last time, a Python float in the grid's order of operations,
    # times the largest factor that a column or the closed form puts on it
    # (1e9 for t_ns, or 16 (nu + kappa) + 4 gamma, which bounds the rates of
    # the jump series and of the branch weights): an overflow is refused
    # before numpy sees it.  The cost grows with the grid alone, which
    # curve.steps bounds.
    t_end = max(config.curve_x_max * math.pi / lambda2, schedule.tau)
    rate = 16.0 * (schedule.nu + config.kappa) + 4.0 * config.gamma
    if not math.isfinite(t_end * max(1e9, rate)):
        raise ConfigError(f"the curve ends at t = {t_end} s; raise lambda2 or lower curve.x_max")
    xs = np.arange(config.curve_steps + 1) / config.curve_steps * config.curve_x_max
    # Make sure the gate time itself is on the grid (for k > 1 it sits at
    # lambda2*t/pi = sqrt(k), beyond the default range).
    # Sorted and without duplicates; np.unique (and np.union1d) would load
    # numpy.ma on first use.
    t_grid = np.sort(np.append(xs * math.pi / lambda2, schedule.tau))
    t_grid = t_grid[np.append(True, t_grid[1:] != t_grid[:-1])]
    fidelities, delta = fidelity_curve(schedule, config.kappa, config.gamma, t_grid)
    x_grid = lambda2 * t_grid / math.pi
    gate_idx = int(np.searchsorted(t_grid, schedule.tau))
    summary = {
        "schedule": {
            "k": schedule.k,
            "lambda2_rad_per_s": lambda2,
            "nu_rad_per_s": schedule.nu,
            "tau_s": schedule.tau,
            "kappa_per_s": config.kappa,
            "gamma_per_s": config.gamma,
        },
        "series_order": SERIES_ORDER,
        "convergence_delta": delta,
        "F_at_tau": float(fidelities[gate_idx]),
        "lambda2_t_over_pi_at_gate": float(x_grid[gate_idx]),
    }
    path = _write_table(config, stem, ["t_ns", "lambda2_t_over_pi", "F"],
                        [t_grid * 1e9, x_grid, fidelities], summary)
    if "svg" in config.formats:
        write_svg_plot(path.with_suffix(".svg"), x_grid, fidelities,
                       xlabel="λ₂t/π", ylabel="F", title="entangling-gate fidelity")
    print(f"F at gate time = {summary['F_at_tau']:.6f} "
          f"(series order {SERIES_ORDER}, convergence delta {delta:.2e})")
    print(f"wrote {path}")


def cmd_gate(config: RunConfig) -> int:
    if config.lambda2_pinned is not None:
        lambda2 = config.lambda2_pinned
    else:
        cs = couplings(config.wire, config.circuit)
        lambda2 = abs(cs.lambda2)
        if lambda2 == 0.0:
            raise ConfigError(
                f"lambda2 vanishes at working phase {cs.working_phi!r} rad with phi_e = "
                f"{config.circuit.phi_e!r} rad: phi_e = pi switches the cavity interface off, "
                "and at a working phase of 0 (mod 2*pi) the splitting has its cusp, where "
                "dE/dphi = 0; pin schedule.lambda2 or change phi_e or phi_c")
    _write_curve(config, lambda2, "gate")
    return EXIT_OK


def cmd_fig2(config: RunConfig) -> int:
    _write_curve(config, config.lambda2_pinned, "fig2")
    return EXIT_OK


def cmd_validate(config: RunConfig, mutations: tuple[str, ...]) -> int:
    report = _validate.run_validation(mutations=mutations)
    failed = [name for name, r in report.items() if not r["passed"]]
    for name, r in report.items():
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {name:<28} {r['seconds']:8.3f}s  {r['detail']}")
    out = Path(config.out_dir)
    write_json(out / "validate_summary.json",
               {"report": report, "mutations": list(mutations), "all_passed": not failed})
    if failed:
        print(f"FAILED groups: {', '.join(failed)}")
        return EXIT_INVARIANT
    print(f"all {len(report)} invariant groups passed")
    return EXIT_OK


# Each command registers only the flags it uses, so argparse rejects the
# others instead of ignoring them.
_CONFIG = ("--config", {"metavar": "PATH", "help": "JSON run configuration"})
_SWEEP = ("--sweep", {"metavar": "VAR:MIN:MAX:STEPS", "help": "sweep override"})
_MUTATE = ("--mutate", {"choices": list(_validate.MUTATIONS), "action": "append", "default": [],
                        "help": "seed a known defect (test fixture for the oracle groups)"})

# name -> (handler, help text, flags besides --out)
COMMANDS = {
    "spectrum": (cmd_spectrum, "sweep the wire splitting over the superconducting phase",
                 [_CONFIG, _SWEEP]),
    "phij": (cmd_phij, "compare series and exact large-junction phase drop", [_CONFIG, _SWEEP]),
    "couplings": (cmd_couplings, "report interface couplings, optima and leakage diagnostics",
                  [_CONFIG]),
    "gate": (cmd_gate, "dissipative entangling-gate fidelity curve", [_CONFIG]),
    "fig2": (cmd_fig2, "headline fidelity curve of the built-in device", []),
    "validate": (cmd_validate, "run the invariant self-check suite", [_MUTATE]),
}


def _command_list_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoqed",
        description="Tunable Majorana / charge-qubit / cavity interface simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"topoqed {name}")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    for flag, kwargs in COMMANDS[name][2]:
        parser.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        # Prints the help listing or a usage error, and exits.  It returns
        # only where argparse takes a command after a leading "--".
        parser = _command_list_parser()
        parser.parse_args(argv)
        parser.error(f"the command must come first, not {argv[0]!r}")
    handler = COMMANDS[argv[0]][0]
    args = _command_parser(argv[0]).parse_args(argv[1:])
    try:
        config = _apply_overrides(load_config(getattr(args, "config", None)), args)
        _check_out_dir(config)
        if "mutate" in args:  # validate's seeded defects, each applied once
            return handler(config, tuple(dict.fromkeys(args.mutate)))
        return handler(config)
    except ValueError as exc:  # ConfigError, or a value the parsers let through
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # --out names a file, or an output name is taken
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
