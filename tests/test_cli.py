import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import liouvillian_gate_states, reference_text
from topoqed import circuit as _circuit
from topoqed import cli as _cli
from topoqed import config as _config
from topoqed import dynamics as _dyn
from topoqed import interface as _interface
from topoqed import oracle as _oracle
from topoqed import qcore as _qcore
from topoqed import validate as _validate
from topoqed import wire as _wire
from topoqed.cli import cmd_fig2, main
from topoqed.config import (
    MAX_STEPS,
    ConfigError,
    RunConfig,
    SweepSpec,
    default_config_dict,
    load_config,
    parse_config,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package.

    The children run in ``tmp_path``, where a relative ``PYTHONPATH`` such as
    ``src`` no longer resolves, so the absolute ``src`` goes first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "topoqed", *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_written_numbers_finite(paths):
    """No NaN or infinity in any CSV, JSON or SVG file among ``paths``."""
    for path in paths:
        text = path.read_text()
        if path.suffix == ".csv":
            for field in text.replace("\n", ",").split(","):
                try:
                    number = float(field)
                except ValueError:
                    continue
                assert math.isfinite(number), (path, field)
        elif path.suffix == ".json":
            json.loads(text, parse_constant=pytest.fail)
        elif path.suffix == ".svg":
            assert not re.search(r"(?i)\b(nan|inf)\b", text), path


def test_child_imports_checkout_package(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", "import topoqed; print(topoqed.__file__)"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, f"child cannot import topoqed: {res.stderr}"
    origin = Path(res.stdout.strip()).resolve()
    assert origin.is_relative_to(SRC), f"child imported topoqed from {origin}, not from {SRC}"


START_UP_STAYS_LIGHT = """
import json, sys
import topoqed.cli

def loaded(prefix):
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith(prefix))

steps = [("import", 0, loaded("numpy."))]
for command in topoqed.cli.COMMANDS:
    before = loaded("numpy.")
    code = topoqed.cli.main([command, "--out", command])
    steps.append((command, code, sorted(set(loaded("numpy.")) - set(before))))
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def start_up_steps(tmp_path_factory):
    """Import the CLI, then run every command, in one child interpreter.

    Returns ``(step, exit code, modules)`` rows: the ``import`` row lists
    every ``scipy*`` and ``numpy.*`` module loaded after the import, and
    each command's row the ones that command loaded anew.
    """
    res = subprocess.run([sys.executable, "-c", START_UP_STAYS_LIGHT],
                         cwd=tmp_path_factory.mktemp("start_up"), env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_cli_import_leaves_oracle_scipy_modules_unloaded(start_up_steps):
    # Only the RK45 oracle and test code use scipy; importing its
    # scipy.sparse.linalg alone would double the start-up of every command.
    # Only test code draws random numbers, and numpy.random alone costs
    # every command about 6 MB of peak RSS.
    (step, _, modules), *_ = start_up_steps
    assert step == "import"
    assert [m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.random")] == []


def test_commands_load_no_numpy_submodule(start_up_steps):
    # numpy loads some submodules on first use (np.unique loads numpy.ma,
    # np.polynomial loads itself); inside a command that time would count as
    # the command's run time, not its start-up.  No command loads a scipy
    # module either.
    commands = start_up_steps[1:]
    assert [step for step, _, _ in commands] == list(_cli.COMMANDS)
    assert [step for step in commands if step[1:] != [0, []]] == []


def test_no_command_loads_numpy_polynomial(start_up_steps):
    # The jump-time integral is a closed-form series, so neither the package
    # nor any command loads numpy.polynomial (about 0.6 MB and 5 ms).
    assert [step for step, _, modules in start_up_steps
            if any(m.startswith("numpy.polynomial") for m in modules)] == []


RK45_FIRST_USE = """
import math, sys
import numpy as np
import topoqed.cli
from topoqed import qcore
from topoqed.oracle import basis_state
assert "scipy.integrate" not in sys.modules
original = qcore.solve_ivp
assert original is sys.modules["scipy.integrate"].solve_ivp
calls = []

def counted(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)

qcore.solve_ivp = counted  # rebinding the module attribute, as a tracer does
start = np.diag(basis_state(2, 0))
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
states = qcore.integrate_master_equation(lambda t: sigma_x, (), start, [0.0, 0.5 * math.pi])
print(len(calls), round(states[-1][1, 1].real, 6))
"""


def test_rk45_oracle_imports_scipy_integrate_on_first_use(tmp_path):
    # The RK45 oracle resolves solve_ivp through the qcore module, so the
    # first use loads scipy.integrate and a rebound attribute is the one
    # called.
    res = subprocess.run([sys.executable, "-c", RK45_FIRST_USE], cwd=tmp_path,
                         env=child_env(), capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "1.0"]


class TestConfig:
    def test_defaults_parse(self):
        config = load_config(None)
        assert config.wire.v_F == 1e5
        assert abs(config.wire.Delta0 - 2 * math.pi * 32e9) < 1e-3
        assert abs(config.circuit.eta - 0.1) < 1e-12
        assert config.kappa == 1e6 and config.gamma == 1e6
        assert abs(config.lambda2_pinned - 2 * math.pi * 32e6) < 1e-6

    def test_unit_normalization(self):
        doc = default_config_dict()
        doc["circuit"]["E_J"] = {"value": 16000.0, "unit": "MHz", "times_2pi": True}
        config = parse_config(doc)
        assert abs(config.circuit.E_J - 2 * math.pi * 16e9) < 1e-3

    def test_rad_per_s_passthrough(self):
        doc = default_config_dict()
        doc["wire"]["Delta0"] = {"value": 2.0e11, "unit": "rad_per_s", "times_2pi": False}
        config = parse_config(doc)
        assert config.wire.Delta0 == 2.0e11

    def test_angular_rate_convention(self, tmp_path, capsys):
        # A rate is read as written; the only other convention a document
        # could once name exits 2, and so does any value but "plain".
        doc = default_config_dict()
        assert "rate_convention" not in doc["bath"]
        doc["bath"]["rate_convention"] = "plain"
        assert parse_config(doc).kappa == 1e6
        for value in ("angular", "", None, ["plain"]):
            doc["bath"]["rate_convention"] = value
            argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"configuration error: bath.rate_convention must be 'plain', got {value!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("formats", [
        ["csv", "json"], ["csv", "json", "svg", "png"], "csv,json,svg", [{}], None,
    ])
    def test_output_formats_must_list_all_three(self, formats, tmp_path, capsys):
        # Every command writes its CSV and JSON, and a gate curve its SVG.
        # The element types are checked before the set is built, so an
        # unhashable element is a configuration error, not a traceback.
        doc = default_config_dict()
        doc["output"]["formats"] = formats
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("configuration error: output.formats must list "
                                           f"'csv', 'json' and 'svg', got {formats!r}\n")
        assert not (tmp_path / "o").exists()

    def test_output_formats_in_any_order_parse(self):
        doc = default_config_dict()
        assert "formats" not in doc["output"]
        for formats in (["csv", "json", "svg"], ["svg", "json", "csv", "svg"]):
            doc["output"]["formats"] = formats
            assert parse_config(doc).normalized() == load_config(None).normalized()

    def test_unknown_keys_rejected(self):
        doc = default_config_dict()
        doc["wire"]["typo_field"] = 1.0
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_unit_rejected(self):
        doc = default_config_dict()
        doc["circuit"]["E_J"] = {"value": 16.0, "unit": "THz", "times_2pi": True}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_schema_version_checked(self):
        doc = default_config_dict()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "literal, replacement",
        [
            pytest.param('"g": 0.01', '"g": 1e999', id="1e999"),
            # An int that a double cannot hold, and one past Python's
            # 4300-digit limit for converting text to int.
            pytest.param('"L_m": 5e-06', '"L_m": 1' + "0" * 400, id="L-401-digits"),
            pytest.param('"L_m": 5e-06', '"L_m": ' + "7" * 5000, id="L-5000-digits"),
            pytest.param('"k": 1,', '"k": 1' + "0" * 400 + ",", id="k-401-digits"),
        ],
    )
    def test_overflowing_number_rejected(self, literal, replacement, tmp_path):
        text = json.dumps(default_config_dict())
        assert literal in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(literal, replacement))
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(str(path))

    @pytest.mark.parametrize("section", ["wire", "circuit", "bath", "schedule", "curve",
                                         "output"])
    @pytest.mark.parametrize("value", [2.5, "x", [1]])
    def test_section_that_is_not_an_object_rejected(self, section, value):
        doc = default_config_dict()
        doc[section] = value
        with pytest.raises(ConfigError, match=f"{section} must be an object"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [2.5, "x", [1]])
    def test_sweep_section_is_an_unknown_key(self, value):
        # A sweep comes from the --sweep flag alone: a document's sweep of any
        # value is refused like any other unknown key.  An object and null
        # go through the commands in test_config_sweep_section_exits_2.
        doc = default_config_dict()
        doc["sweep"] = value
        with pytest.raises(ConfigError, match=r"^unknown keys \['sweep'\] in config document$"):
            parse_config(doc)

    @pytest.mark.parametrize("section, body", [
        ("curve", {"x_max": 1.1, "steps": True}),
    ])
    def test_boolean_step_count_rejected(self, section, body):
        doc = default_config_dict()
        doc[section] = body
        with pytest.raises(ConfigError, match=f"{section}.steps"):
            parse_config(doc)

    @pytest.mark.parametrize("steps", [1, 44, 640, 20000, MAX_STEPS])
    def test_step_counts_up_to_the_limit_parse(self, steps):
        doc = default_config_dict()
        doc["curve"] = {"x_max": 1.1, "steps": steps}
        assert parse_config(doc).curve_steps == steps
        assert SweepSpec(variable="phi", min=0.0, max=1.0, steps=steps).steps == steps

    @pytest.mark.parametrize("section", ["curve", "sweep"])
    def test_step_count_over_the_limit_rejected(self, section):
        # The message names the input that set the count: the config key
        # curve.steps, or the STEPS of the --sweep flag.
        doc = default_config_dict()
        doc["curve"] = {"x_max": 1.1, "steps": MAX_STEPS + 1}
        name = {"curve": "curve.steps", "sweep": "--sweep STEPS"}[section]
        with pytest.raises(ConfigError, match=f"^{name} = {MAX_STEPS + 1} exceeds"):
            if section == "curve":
                parse_config(doc)
            else:
                SweepSpec(variable="eps", min=0.0, max=1.0, steps=MAX_STEPS + 1)

    def test_any_single_replaced_key_parses_or_raises_config_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def key_paths(node, prefix=()):
            for key, value in node.items():
                yield prefix + (key,)
                if isinstance(value, dict):
                    yield from key_paths(value, prefix + (key,))

        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(), inner, max_size=3),
            max_leaves=4,
        )

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(st.sampled_from(list(key_paths(default_config_dict()))), json_values)
        def check(path, value):
            doc = default_config_dict()
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                config = parse_config(doc)
            except ConfigError:
                return
            assert isinstance(config, RunConfig)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n_g away from 1/2 and similar
            check()

    def test_fock_cutoff_key_is_checked_and_ignored(self):
        # Config files written for the Fock-space propagator still load: the
        # key is validated, a warning says it is ignored, and it is not echoed.
        doc = default_config_dict()
        assert "fock_cutoff" not in doc["schedule"]
        doc["schedule"]["fock_cutoff"] = 16
        with pytest.warns(UserWarning, match="fock_cutoff is ignored"):
            config = parse_config(doc)
        assert config == parse_config(default_config_dict())
        assert "fock_cutoff" not in config.normalized()["schedule"]
        for bad in (4, 16.0, "16", True, None):
            doc["schedule"]["fock_cutoff"] = bad
            with pytest.raises(ConfigError, match="fock_cutoff"):
                parse_config(doc)

    def test_fock_cutoff_in_a_config_file_warns_on_stderr(self, tmp_path):
        doc = default_config_dict()
        doc["schedule"]["fock_cutoff"] = 16
        doc["curve"] = {"x_max": 0.5, "steps": 2}
        path = write_config(tmp_path, doc)
        res = run_cli("gate", "--config", path, "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        # The warning names the file, with no source line of the package.
        assert f"{path}:0: UserWarning: schedule.fock_cutoff is ignored" in res.stderr
        assert str(Path("src", "topoqed")) not in res.stderr
        doc["schedule"]["fock_cutoff"] = 7
        res = run_cli("gate", "--config", write_config(tmp_path, doc), "--out", "p", cwd=tmp_path)
        assert res.returncode == 2
        assert "schedule.fock_cutoff must be an integer >= 8" in res.stderr

    def test_normalized_echo_round_trips(self):
        config = load_config(None)
        echo = config.normalized()
        assert echo["circuit"]["E_J_rad_per_s"] == config.circuit.E_J
        assert echo["bath"]["kappa_per_s"] == config.kappa

    @pytest.mark.parametrize("minimal", [False, True], ids=["default", "required-only"])
    def test_normalized_echo_is_pinned(self, minimal):
        # Every key of the echo.  In the document holding only the required
        # keys, each omitted key takes the default of its parameter class.
        doc = default_config_dict()
        wire = {"v_F_m_per_s": 1e5, "L_m": 5e-6, "Delta0_rad_per_s": 2 * math.pi * 32e9,
                "W_m": 1e-7, "T_K": 0.02}
        circuit = {"E_J_rad_per_s": 2 * math.pi * 16e9, "E_J0_rad_per_s": 2 * math.pi * 160e9,
                   "E_c_rad_per_s": 2 * math.pi * 160e9, "eta": 0.1, "n_g": 0.5, "g": 0.01,
                   "phi_e_rad": 0.0, "phi_c_rad": 0.5, "omega_r_rad_per_s": 2 * math.pi * 6e9}
        schedule = {"k": 1, "lambda2_rad_per_s": 2 * math.pi * 32e6}
        if minimal:
            doc = {
                "schema_version": 1,
                "wire": {key: doc["wire"][key] for key in ("v_F_m_per_s", "L_m", "Delta0")},
                "circuit": {key: doc["circuit"][key] for key in ("E_J", "E_J0", "E_c")},
                "bath": {key: doc["bath"][key] for key in ("kappa", "gamma")},
                "schedule": {"k": 1},
            }
            wire.update(W_m=0.0, T_K=0.02)
            circuit.update(n_g=0.5, g=0.01, phi_e_rad=0.0, phi_c_rad=0.0, omega_r_rad_per_s=0.0)
            schedule["lambda2_rad_per_s"] = None
        assert parse_config(doc).normalized() == {
            "schema_version": 1,
            "wire": wire,
            "circuit": circuit,
            "bath": {"kappa_per_s": 1e6, "gamma_per_s": 1e6},
            "schedule": schedule,
            "curve": {"x_max": 1.1, "steps": 44},
            "output": {"directory": "out"},
        }

    @pytest.mark.parametrize("section, key", [
        (section, key) for section in ("wire", "circuit") for key in default_config_dict()[section]
    ])
    def test_deleted_key_is_required_or_takes_the_parameter_default(self, section, key):
        doc = default_config_dict()
        del doc[section][key]
        if key in ("v_F_m_per_s", "L_m", "Delta0", "E_J", "E_J0", "E_c"):
            with pytest.raises(ConfigError, match=rf"^missing keys \['{key}'\] in {section}$"):
                parse_config(doc)
            return
        field = {"v_F_m_per_s": "v_F", "L_m": "L", "W_m": "W", "T_K": "T",
                 "phi_e_rad": "phi_e", "phi_c_rad": "phi_c"}.get(key, key)
        params = _wire.WireParams if section == "wire" else _circuit.CircuitParams
        default = {f.name: f.default for f in dataclasses.fields(params)}[field]
        assert getattr(getattr(parse_config(doc), section), field) == default

    def test_omitted_keys_take_the_built_in_defaults(self, monkeypatch):
        # The defaults are stated once, in default_config_dict, so a changed
        # default reaches a document that leaves the key out.
        doc = default_config_dict()
        del doc["curve"], doc["output"]
        built_in = default_config_dict

        def changed():
            defaults = built_in()
            defaults["curve"] = {"x_max": 0.5, "steps": 60}
            defaults["output"] = {"directory": "elsewhere"}
            return defaults

        monkeypatch.setattr(_config, "default_config_dict", changed)
        config = parse_config(doc)
        assert (config.curve_x_max, config.curve_steps, config.out_dir) == (0.5, 60, "elsewhere")


class TestSpectrumCommand:
    def test_csv_structure_and_first_row(self, tmp_path):
        res = run_cli("spectrum", "--out", "o", "--sweep", "eps:0:3.141592653589793:50", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "o" / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "eps_rad,Lambda,E_rad_per_s,E_GHz_over_2pi,branch"
        assert len(lines) == 52  # header + steps + 1 rows
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[3]) - 5.0) < 1e-9
        lambdas = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(lambdas, lambdas[1:]))

    def test_summary_written(self, tmp_path):
        res = run_cli("spectrum", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0
        summary = json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())
        assert summary["config"]["wire"]["v_F_m_per_s"] == 1e5

    @pytest.mark.parametrize("command, sweep", [
        ("spectrum", {"variable": "eps", "min": 0.0, "max": math.pi, "steps": 200}),
        ("phij", {"variable": "phi", "min": 0.0, "max": 2.0 * math.pi, "steps": 200}),
        ("phij", {"variable": "phi_e", "min": -0.3, "max": 6.5, "steps": 7}),
    ], ids=["spectrum-default", "phij-default", "phij-flag"])
    def test_summary_records_the_sweep_it_ran(self, command, sweep, tmp_path):
        # The default sweep, or the one the flag gave, sits beside the rows;
        # the config echo is the document alone.
        argv = [command, "--out", str(tmp_path)]
        if sweep["steps"] != 200:
            argv += ["--sweep", "{variable}:{min!r}:{max!r}:{steps}".format(**sweep)]
        assert main(argv) == 0
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        assert summary["sweep"] == sweep
        assert summary["rows"] == sweep["steps"] + 1
        assert summary["config"] == load_config(None).normalized() | {
            "output": {"directory": str(tmp_path)}}

    def test_long_wire_splitting_is_finite(self, tmp_path):
        # Delta0*L/v_F is about 1005: u/tanh(u) is inverted for u up to 1005,
        # where sinh(2u) would overflow a double.
        doc = default_config_dict()
        doc["wire"]["L_m"] = 5e-4
        res = run_cli("spectrum", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        energies = [
            float(line.split(",")[2])
            for line in (tmp_path / "o" / "spectrum.csv").read_text().strip().splitlines()[1:]
        ]
        assert len(energies) == 201
        assert all(math.isfinite(e) and e >= 0.0 for e in energies)


class TestSweepCsvBytes:
    # 2,501 rows span several of the CSV writer's slices of rows; every line
    # must be the row rule applied to the numpy scalars of the solved arrays.
    def test_spectrum_csv_is_the_row_rule_of_the_splitting(self, tmp_path):
        assert main(["spectrum", "--sweep", "eps:0.05:3.1:2500", "--out", str(tmp_path)]) == 0
        eps = SweepSpec(variable="eps", min=0.05, max=3.1, steps=2500).values()
        res = _wire.wire_splitting(load_config(None).wire, eps)
        rows = zip(eps, res.Lambda, res.E, res.E / (2.0 * math.pi * 1e9), res.branch)
        header = ["eps_rad", "Lambda", "E_rad_per_s", "E_GHz_over_2pi", "branch"]
        assert (tmp_path / "spectrum.csv").read_text() == reference_text(header, rows)

    @pytest.mark.parametrize("variable", ["phi", "phi_e"])
    def test_phij_csv_is_the_row_rule_of_the_phase_drops(self, variable, tmp_path):
        assert main(["phij", "--sweep", f"{variable}:-0.3:6.5:2500", "--out", str(tmp_path)]) == 0
        values = SweepSpec(variable=variable, min=-0.3, max=6.5, steps=2500).values()
        phi, phi_e = (values, None) if variable == "phi" else (0.0, values)
        circ = load_config(None).circuit
        series = _circuit.phi_J_series(circ, phi, 0.0, phi_e)
        exact = _circuit.phi_J_exact(circ, phi, 0.0, phi_e)
        rows = zip(values, series, exact, np.abs(series - exact))
        header = [f"{variable}_rad", "phi_J_series_rad", "phi_J_exact_rad", "abs_diff_rad"]
        assert (tmp_path / "phij.csv").read_text() == reference_text(header, rows)


class TestPhijCommand:
    def test_series_tracks_exact(self, tmp_path):
        res = run_cli("phij", "--out", "o", "--sweep", "phi:0:6.283185307:40", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "o" / "phij.csv").read_text().strip().splitlines()
        assert lines[0] == "phi_rad,phi_J_series_rad,phi_J_exact_rad,abs_diff_rad"
        diffs = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(diffs) <= 5e-3  # 5 * eta^3 at eta = 0.1


class TestCouplingsCommand:
    def test_half_flux_switches_cavity_coupling_off(self, tmp_path):
        doc = default_config_dict()
        doc["circuit"]["phi_e_rad"] = math.pi
        res = run_cli("couplings", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = {
            line.split(",")[0]: line.split(",")[1]
            for line in (tmp_path / "o" / "couplings.csv").read_text().strip().splitlines()[1:]
        }
        assert float(rows["lambda2"]) == 0.0
        assert float(rows["P_e_thermal"]) < 1e-3
        ratio = float(rows["lambda2_max_over_eta_g_Delta0"])
        assert 0.1 <= ratio <= 1.0

    def test_csv_is_the_row_rule_of_the_quantities(self, tmp_path):
        # The reference device's 16 rows, each value a float recomputed here
        # from the layers: the arrays that the command builds print as the
        # row rule prints the floats.
        assert main(["couplings", "--out", str(tmp_path)]) == 0
        config = load_config(None)
        wire, circ = config.wire, config.circuit
        cs = _interface.couplings(wire, circ)
        eff = cs.effective
        phi_c, lam1_max, lam2_max = _interface.optimal_working_point(wire, circ)
        rate, rad, ratio, prob = "rad_per_s", "rad", "dimensionless", "probability"
        rows = [
            ("omega_t", cs.omega_t, rate),
            ("lambda1", cs.lambda1, rate),
            ("lambda2", cs.lambda2, rate),
            ("E_J_bar", eff.E_J_bar, rate),
            ("xi", eff.xi, rate),
            ("eps_plus", eff.eps_plus, rad),
            ("eps_minus", eff.eps_minus, rad),
            ("working_phi", cs.working_phi, rad),
            ("lambda1_max", lam1_max, rate),
            ("lambda1_max_phi_c", phi_c, rad),
            ("lambda1_max_over_eta_Delta0", abs(lam1_max / (circ.eta * wire.Delta0)), ratio),
            ("lambda2_max", lam2_max, rate),
            ("lambda2_max_phi_c", phi_c, rad),
            ("lambda2_max_over_eta_g_Delta0", abs(lam2_max / (circ.eta * circ.g * wire.Delta0)),
             ratio),
            ("P_t_working_point", _circuit.tunneling_leakage(cs.lambda1, circ), prob),
            ("P_e_thermal", _wire.thermal_leakage(wire), prob),
        ]
        expected = reference_text(["quantity", "value", "unit"], rows)
        assert (tmp_path / "couplings.csv").read_bytes() == expected.encode()

    def test_two_root_solves(self, tmp_path, monkeypatch):
        # One for the working point and one for both optima: the lambda1 and
        # lambda2 optima share the derivative at PHI_C_MIN.
        calls = []
        newton_bisect = _wire.newton_bisect

        def counting(*args, **kwargs):
            calls.append(args)
            return newton_bisect(*args, **kwargs)

        monkeypatch.setattr(_wire, "newton_bisect", counting)
        config = dataclasses.replace(load_config(None), out_dir=str(tmp_path / "o"))
        assert _cli.cmd_couplings(config) == 0
        assert len(calls) == 2

    def test_optimum_ratios_are_magnitudes_for_either_sign_of_g(self, tmp_path, capsys):
        # eta*g*Delta0 takes the sign of g; the quoted ratios must not.
        quoted = []
        for g in (0.01, -0.01):
            doc = default_config_dict()
            doc["circuit"]["g"] = g
            out = tmp_path / f"g{g}"
            assert main(["couplings", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
            lines = (out / "couplings.csv").read_text().splitlines()[1:]
            rows = dict(line.split(",")[:2] for line in lines)
            summary = json.loads((out / "couplings_summary.json").read_text())
            stdout = capsys.readouterr().out
            quoted.append([rows["lambda1_max_over_eta_Delta0"], rows["lambda2_max_over_eta_g_Delta0"],
                           summary["lambda1_max_over_eta_Delta0"],
                           summary["lambda2_max_over_eta_g_Delta0"],
                           stdout.split(" x eta*g*Delta0)")[0].rsplit("(", 1)[1]])
        assert quoted[0] == quoted[1]
        assert quoted[0][1] == "0.318006535041" and quoted[0][4] == "0.318"

    @pytest.mark.parametrize("key, value, message", [
        ("n_g", 0.3, "n_g = 0.3 is away from the degeneracy point 1/2"),
        ("E_c", {"value": 8.0, "unit": "GHz", "times_2pi": True}, "E_J >= E_c"),
    ], ids=["n_g", "E_c"])
    def test_device_warning_appears_once_from_the_package(self, tmp_path, key, value, message):
        # The couplings report must neither repeat the warning nor blame the
        # stdlib for it, and a device read from a file warns at the file.
        doc = default_config_dict()
        doc["circuit"][key] = value
        path = write_config(tmp_path, doc)
        res = run_cli("couplings", "--config", path, "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr.count(message) == 1, res.stderr
        assert "dataclasses.py" not in res.stderr
        assert f"{path}:0: UserWarning: {message}" in res.stderr
        assert str(SRC / "topoqed") not in res.stderr


class TestBathRates:
    @pytest.mark.parametrize("convention", ["plain", "angular"])
    @pytest.mark.parametrize("rate", ["kappa", "gamma"])
    def test_times_2pi_on_a_rate_exits_2(self, convention, rate, tmp_path, capsys):
        # A rate is read as written, so an angular rate carries its 2*pi in
        # its value; a flag that would add one is an error, whatever the
        # document's convention key says.
        doc = default_config_dict()
        doc["bath"]["rate_convention"] = convention
        doc["bath"][rate]["times_2pi"] = True
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        expected = (f"bath.{rate}: a rate is read as written (1 MHz -> 1e6 1/s); set "
                    "times_2pi false and give an angular rate its 2*pi in its value"
                    if convention == "plain" else
                    "bath.rate_convention must be 'plain', got 'angular'")
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "o").exists()


class TestGateCommand:
    def test_document_without_output_writes_the_svg(self, tmp_path):
        # Every gate curve writes its plot: the same bytes as fig2's, whose
        # physics the document keeps.
        doc = default_config_dict()
        del doc["output"]
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert main(["fig2", "--out", str(tmp_path / "f")]) == 0
        assert ((tmp_path / "o" / "gate.svg").read_bytes()
                == (tmp_path / "f" / "fig2.svg").read_bytes())

    def test_closed_system_summary(self, tmp_path):
        doc = default_config_dict()
        doc["bath"]["kappa"] = {"value": 0.0, "unit": "MHz", "times_2pi": False}
        doc["bath"]["gamma"] = {"value": 0.0, "unit": "MHz", "times_2pi": False}
        doc["curve"] = {"x_max": 1.0, "steps": 5}
        res = run_cli("gate", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 1.0) <= 1e-6
        lines = (tmp_path / "o" / "gate.csv").read_text().strip().splitlines()
        assert lines[0] == "t_ns,lambda2_t_over_pi,F"
        assert abs(float(lines[1].split(",")[2]) - 0.5) < 1e-9

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_f_at_tau_is_the_curve_at_the_gate_time(self, k, tmp_path):
        # The summary reads F at the grid point the command inserted at tau.
        config = dataclasses.replace(load_config(None), k=k, out_dir=str(tmp_path / "o"))
        assert _cli.cmd_gate(config) == 0
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        schedule = _dyn.GateSchedule(k=k, lambda2=config.lambda2_pinned)
        fids, _ = _dyn.fidelity_curve(schedule, config.kappa, config.gamma, [0.0, schedule.tau])
        assert abs(summary["F_at_tau"] - fids[-1]) <= 1e-14
        assert summary["lambda2_t_over_pi_at_gate"] == schedule.lambda2 * schedule.tau / math.pi

    def test_cavity_that_decays_faster_than_it_turns_runs(self, tmp_path, monkeypatch):
        # kappa = 10 MHz against nu = 2*pi x 0.12 MHz: half a cavity period
        # spans about 42 cavity decay times 1/kappa.
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": 0.06, "unit": "MHz", "times_2pi": True}
        doc["bath"]["kappa"]["value"] = 10.0
        doc["bath"]["gamma"]["value"] = 0.1
        blocks = []

        def recorded(schedule, kappa, gamma, t_grid):
            states, delta = branch_states(schedule, kappa, gamma, t_grid)
            blocks.append((schedule, kappa, gamma, t_grid, states))
            return states, delta

        branch_states = _dyn._branch_states
        monkeypatch.setattr(_dyn, "_branch_states", recorded)
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        (schedule, kappa, gamma, t_grid, states), = blocks
        assert kappa == 1e7 and 2.0 * kappa > schedule.nu
        oracle = liouvillian_gate_states(schedule, kappa, gamma, t_grid, fock_cutoff=8)
        assert np.max(np.abs(states - oracle)) <= 1e-8

    def test_curve_of_thousands_of_decay_times_runs(self, tmp_path):
        # lambda2 = 1e3 rad/s at the default rates of 1 MHz: the curve ends
        # after about 6,900 decay times.  Both qubits have decayed by the
        # gate time, so F(tau) = |<target|00>|^2 = 1/4.
        config = dataclasses.replace(load_config(None), lambda2_pinned=1e3,
                                     out_dir=str(tmp_path / "o"))
        assert _cli.cmd_gate(config) == 0
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 0.25) <= 1e-12

    def test_loop_count_of_ten_million_runs(self, tmp_path):
        # k = 10**7 on the default grid: the gate time sits at
        # lambda2 t/pi = sqrt(k), after about 49 decay times, and the
        # jump series costs the same at every time.  Both qubits have decayed
        # by then, so F(tau) = 1/4.
        doc = default_config_dict()
        doc["schedule"]["k"] = 10**7
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 0.25) <= 1e-12

    def test_curve_of_1e300_cavity_periods_raises_no_warning(self, tmp_path):
        # lambda2 = 1e3 rad/s, kappa = 1 MHz and no qubit decay, out to
        # lambda2 t/pi = 1e300 cavity periods: the diagonal's exponent, 0 in
        # exact arithmetic, reached 1e282 through rounding and its
        # exponential overflowed, although the populations replace it.  The
        # CSV keeps the bytes it had with the warning: F = 0.5 at t = 0,
        # 0.498442661757 at the gate time and 0.375 from the next point on.
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": 1e3, "unit": "rad_per_s"}
        doc["bath"]["gamma"]["value"] = 0.0
        doc["curve"]["x_max"] = 1e300
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        csv = (tmp_path / "o" / "gate.csv").read_bytes()
        fidelities = [line.split(",")[2] for line in csv.decode().splitlines()[1:]]
        assert fidelities == ["0.5", "0.498442661757"] + ["0.375"] * 44
        assert hashlib.sha256(csv).hexdigest() == (
            "d207bc52bf442a15b01860f2ffc87dcbf79de866cd6f428428d9ccdb999a528c")


class TestFig2Command:
    def test_preset_outputs(self, tmp_path):
        res = run_cli("fig2", "--out", "a", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        csv_a = (tmp_path / "a" / "fig2.csv").read_bytes()
        lines = csv_a.decode().strip().splitlines()
        assert lines[0] == "t_ns,lambda2_t_over_pi,F"
        xs = [float(line.split(",")[1]) for line in lines[1:]]
        assert any(abs(x - 1.0) < 1e-9 for x in xs)
        summary = json.loads((tmp_path / "a" / "fig2_summary.json").read_text())
        assert 0.90 <= summary["F_at_tau"] <= 0.98
        # the headline parameters of the built-in config
        assert summary["schedule"]["k"] == 1
        assert summary["schedule"]["kappa_per_s"] == 1e6
        assert abs(summary["schedule"]["lambda2_rad_per_s"] - 2 * math.pi * 32e6) < 1e-3

        tree = ET.parse(tmp_path / "a" / "fig2.svg")
        assert tree.getroot().tag.endswith("svg")

        res2 = run_cli("fig2", "--out", "b", cwd=tmp_path)
        assert res2.returncode == 0
        assert csv_a == (tmp_path / "b" / "fig2.csv").read_bytes()

    def test_fig2_is_gate_on_the_built_in_config(self, tmp_path):
        # The same curve, plot and summary; only the output directory that
        # the config echo names differs.
        assert main(["fig2", "--out", str(tmp_path / "a")]) == 0
        assert main(["gate", "--out", str(tmp_path / "b")]) == 0
        for suffix in (".csv", ".svg"):
            assert ((tmp_path / "a" / f"fig2{suffix}").read_bytes()
                    == (tmp_path / "b" / f"gate{suffix}").read_bytes())
        fig2, gate = (json.loads((tmp_path / out / f"{stem}_summary.json").read_text())
                      for out, stem in (("a", "fig2"), ("b", "gate")))
        assert fig2["config"]["output"].pop("directory") == str(tmp_path / "a")
        assert gate["config"]["output"].pop("directory") == str(tmp_path / "b")
        assert fig2 == gate

    def test_fig2_runs_without_the_liouvillian(self, tmp_path, monkeypatch):
        # The curve is the closed form: the Liouvillian propagator, the oracle
        # of validate and the tests, is not on its path.
        def refuse(*args, **kwargs):
            raise AssertionError("the fig2 curve stepped the Liouvillian")

        monkeypatch.setattr(_oracle, "evolve_master_equation", refuse)
        config = dataclasses.replace(load_config(None), out_dir=str(tmp_path / "o"))
        assert cmd_fig2(config) == 0
        summary = json.loads((tmp_path / "o" / "fig2_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 0.9695548406) <= 1e-10
        assert summary["series_order"] == 15  # of the jump-time integral
        assert "fock_cutoff_used" not in summary


class TestValidateCommand:
    def test_all_groups_pass(self, tmp_path):
        res = run_cli("validate", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        report = json.loads((tmp_path / "o" / "validate_summary.json").read_text())["report"]
        assert len(report) >= 6
        assert all(entry["passed"] for entry in report.values())
        assert all("seconds" in entry for entry in report.values())

    @pytest.mark.parametrize("name, mutation", _validate.MUTATIONS.items(),
                             ids=list(_validate.MUTATIONS))
    def test_seeded_defect_fails_its_group_alone(self, tmp_path, name, mutation):
        # The corruption is undone when its group ends: a fig2 run in the
        # same process afterwards gives the headline F(tau).
        assert main(["validate", "--out", str(tmp_path / "v"), "--mutate", name]) == 4
        report = json.loads((tmp_path / "v" / "validate_summary.json").read_text())["report"]
        assert [group for group, entry in report.items() if not entry["passed"]] == [mutation[0]]
        config = dataclasses.replace(load_config(None), out_dir=str(tmp_path / "o"))
        assert cmd_fig2(config) == 0
        summary = json.loads((tmp_path / "o" / "fig2_summary.json").read_text())
        assert summary["F_at_tau"] == 0.9695548405521919

    @pytest.mark.parametrize("name, mutation", _validate.MUTATIONS.items(),
                             ids=list(_validate.MUTATIONS))
    def test_repeated_mutate_flag_applies_the_defect_once(self, tmp_path, name, mutation):
        # Each corruption undoes itself when applied twice, so a repeated
        # flag must not apply it twice; the summary lists it once.
        argv = ["validate", "--out", str(tmp_path), "--mutate", name, "--mutate", name]
        assert main(argv) == 4
        summary = json.loads((tmp_path / "validate_summary.json").read_text())
        assert summary["mutations"] == [name]
        assert [group for group, entry in summary["report"].items()
                if not entry["passed"]] == [mutation[0]]

    def test_seeded_defect_in_the_closed_form_curve_is_caught(self, tmp_path):
        # branch-phase-sign corrupts the branches that gate and fig2 run;
        # only the group that checks them fails, also in a separate process.
        res = run_cli("validate", "--out", "o", "--mutate", "branch-phase-sign", cwd=tmp_path)
        assert res.returncode == 4
        report = json.loads((tmp_path / "o" / "validate_summary.json").read_text())["report"]
        assert [name for name, entry in report.items() if not entry["passed"]] == [
            "coherent_state_branches"]

    def test_branch_mutation_leaves_the_curve_untouched(self, tmp_path):
        # The mutation is undone when its group ends, also when run_validation
        # is called directly rather than through the command.
        report = _validate.run_validation(("branch-phase-sign",))
        assert not report["coherent_state_branches"]["passed"]
        config = dataclasses.replace(load_config(None), out_dir=str(tmp_path / "o"))
        assert cmd_fig2(config) == 0
        summary = json.loads((tmp_path / "o" / "fig2_summary.json").read_text())
        assert summary["F_at_tau"] == 0.9695548405521919

    def test_early_jump_series_error_fails_its_group(self, monkeypatch):
        # The jump series takes its short-time Taylor branch only early in
        # the gate: an error of 1e-7 in J confined to t < 0.1 tau fails
        # coherent_state_branches, and no other group.
        tau = _dyn.GateSchedule(k=1, lambda2=load_config(None).lambda2_pinned).tau
        jump_terms = _dyn._jump_terms

        def early_error(lam, z, gamma, t):
            jump, last_order = jump_terms(lam, z, gamma, t)
            return jump + np.where((t > 0.0) & (t < 0.1 * tau), 1e-7, 0.0), last_order

        monkeypatch.setattr(_dyn, "_jump_terms", early_error)
        report = _validate.run_validation()
        assert [name for name, entry in report.items() if not entry["passed"]] == [
            "coherent_state_branches"]

    def test_reference_is_parsed_once_per_run(self, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_config(path)

        monkeypatch.setattr(_validate, "load_config", counting)
        report = _validate.run_validation()
        assert calls == [None]
        assert list(report) == [
            "schedule_algebra", "propagator_periodicity", "transcendental_inversion",
            "splitting_continuity", "circuit_series_vs_exact", "switching_exactness",
            "hermitian_builders", "propagator_oracle", "closed_gate",
            "coherent_state_branches", "master_equation_limits",
        ]
        assert all(entry["passed"] for entry in report.values())


COMMAND_LIST_USAGE = "usage: topoqed [-h] {spectrum,phij,couplings,gate,fig2,validate} ...\n"
COMMAND_LIST_HELP = COMMAND_LIST_USAGE + """
Tunable Majorana / charge-qubit / cavity interface simulator

positional arguments:
  {spectrum,phij,couplings,gate,fig2,validate}
    spectrum            sweep the wire splitting over the superconducting
                        phase
    phij                compare series and exact large-junction phase drop
    couplings           report interface couplings, optima and leakage
                        diagnostics
    gate                dissipative entangling-gate fidelity curve
    fig2                headline fidelity curve of the built-in device
    validate            run the invariant self-check suite

options:
  -h, --help            show this help message and exit
"""
COMMAND_CHOICES = "(choose from 'spectrum', 'phij', 'couplings', 'gate', 'fig2', 'validate')"


class TestArgumentParsing:
    @pytest.mark.parametrize("command", list(_cli.COMMANDS))
    def test_a_run_builds_its_command_parser_alone(self, command, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main([command, "--out", str(tmp_path)]) == 0
        assert built == [f"topoqed {command}"]

    @pytest.mark.parametrize("command", list(_cli.COMMANDS))
    def test_each_flag_is_a_handler_parameter(self, command):
        # Flags besides --out and --config reach the handler by name, so a
        # flag registered for a command that its handler does not take fails
        # here instead of being ignored.
        parser = _cli._command_parser(command)
        dests = {action.dest for action in parser._actions} - {"help", "out", "config"}
        handler = _cli.COMMANDS[command][0]
        params = list(inspect.signature(handler).parameters.values())[1:]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty
                   for p in params)
        assert dests == {p.name for p in params}

    def test_main_without_argv_reads_sys_argv(self, tmp_path, monkeypatch):
        # The console script calls main() with no argument.
        monkeypatch.setattr(sys, "argv", ["topoqed", "fig2", "--out", str(tmp_path)])
        assert main() == 0
        assert (tmp_path / "fig2.csv").exists()

    @pytest.mark.parametrize("argv, code, out, err", [
        ([], 2, "",
         COMMAND_LIST_USAGE + "topoqed: error: the following arguments are required: command\n"),
        (["-h"], 0, COMMAND_LIST_HELP, ""),
        (["--help"], 0, COMMAND_LIST_HELP, ""),
        (["bogus"], 2, "", COMMAND_LIST_USAGE
         + f"topoqed: error: argument command: invalid choice: 'bogus' {COMMAND_CHOICES}\n"),
        (["--out", "x", "fig2"], 2, "", COMMAND_LIST_USAGE
         + "topoqed: error: the command must come first, not '--out'\n"),
        (["--", "fig2"], 2, "", COMMAND_LIST_USAGE
         + "topoqed: error: the command must come first, not '--'\n"),
    ], ids=["bare", "-h", "--help", "bogus", "out_before_command", "separator"])
    def test_command_list_prints_help_and_usage_errors(self, argv, code, out, err, tmp_path,
                                                        monkeypatch, capsys):
        # Any argument list that does not start with a command goes to the
        # command list.  Its help and its error for a missing or unknown
        # command read as when one parser held every command; a flag before
        # the command, "--" included, is refused by name.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == err
        assert list(tmp_path.iterdir()) == []


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --fock 16",
            "spectrum --rate-convention angular",
            "phij --fock 16",
            "phij --rate-convention angular",
            "couplings --fock 16",
            "couplings --rate-convention angular",
            "couplings --sweep eps:0:1:3",
            "gate --sweep eps:0:1:3",
            "gate --rate-convention angular",
            "fig2 --rate-convention angular",
            "fig2 --sweep eps:0:1:3",
            "validate --fock 16",
            "validate --rate-convention angular",
            "validate --sweep eps:0:1:3",
            # validate checks the built-in device, so it reads no document;
            # fig2 is gate on the built-in config, so it reads none either.
            "validate --config x.json",
            "fig2 --config x.json",
            # The gate curves have no Fock cutoff, so no command takes --fock.
            "gate --fock 0",
            "gate --fock 16",
            "fig2 --fock 8",
            "fig2 --fock 16",
        ],
    )
    def test_unused_flag_or_bad_value_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        # A flag a command does not use is rejected by argparse.
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        # The command's own parser reports it, with the command's usage line.
        assert f"usage: topoqed {argv.split()[0]} " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectrum", "phij", "couplings", "gate"])
    @pytest.mark.parametrize("sweep", [{"variable": "eps", "min": 0.0, "max": 1.0, "steps": 4},
                                       None], ids=["object", "null"])
    def test_config_sweep_section_exits_2(self, command, sweep, tmp_path, capsys):
        # A sweep comes from --sweep alone: every command that reads a
        # document refuses one there instead of echoing it unused.
        doc = default_config_dict()
        doc["sweep"] = sweep
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "unknown keys ['sweep'] in config document" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        doc = default_config_dict()
        doc["extra"] = 1
        res = run_cli("spectrum", "--config", write_config(tmp_path, doc), cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr

    @pytest.mark.parametrize("command, written", [
        ("spectrum", "spectrum.csv"),
        ("couplings", "couplings.csv"),
        ("fig2", "fig2.csv"),
        ("validate", "validate_summary.json"),
    ])
    @pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file",
                                      "output_name_is_a_directory"])
    def test_unwritable_output_exits_2(self, command, written, case, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("kept\n")
        if case == "out_is_a_file":
            out = blocked = Path("f")
        elif case == "out_under_a_file":
            out = blocked = Path("f", "x")
        else:
            out = Path("d")
            blocked = out / written
            blocked.mkdir(parents=True)
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output error" in err and f"'{blocked}'" in err
        assert Path("f").read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        "validate --out f",
        "spectrum --sweep eps:0:3:200000 --out f/x",
        # A bad --sweep is the handler's to refuse, after --out is checked.
        "spectrum --sweep bad --out f/x",
        "phij --out f",
        "fig2 --out f/x/y",
    ])
    def test_unusable_out_is_refused_before_any_work(self, argv, tmp_path, monkeypatch,
                                                      capsys):
        # An --out that is, or lies under, a file is reported before the
        # command's work starts, and nothing is created.
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("kept\n")

        def refuse(*args, **kwargs):
            raise AssertionError("the command started work before checking --out")

        for module, name in ((_validate, "run_validation"), (_cli, "wire_splitting"),
                             (_circuit, "phi_J_exact"), (_cli, "fidelity_curve")):
            monkeypatch.setattr(module, name, refuse)
        assert main(argv.split()) == 2
        out = argv.split()[-1]
        assert f"output error: [Errno 20] Not a directory: '{out}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]
        assert Path("f").read_text() == "kept\n"

    def test_out_naming_a_file_exits_2_without_traceback(self, tmp_path):
        (tmp_path / "f").write_text("")
        res = run_cli("couplings", "--out", "f", cwd=tmp_path)
        assert res.returncode == 2
        assert "output error" in res.stderr and "Traceback" not in res.stderr

    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_cli("spectrum", "--config", "nope.json", cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr

    def test_bad_sweep_flag_exits_2(self, tmp_path):
        res = run_cli("spectrum", "--sweep", "eps:0:1", cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr

    def test_empty_sweep_flag_exits_2(self, tmp_path, capsys):
        # An empty --sweep is a malformed sweep, not the default one.
        assert main(["spectrum", "--sweep", "", "--out", str(tmp_path / "o")]) == 2
        assert "--sweep expects VAR:MIN:MAX:STEPS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_out_flag_is_the_empty_config_directory(self, tmp_path, monkeypatch):
        # --out '' names the working directory, as "output": {"directory": ""}
        # does, and not the default ./out.
        doc = default_config_dict()
        doc["output"]["directory"] = ""
        config = write_config(tmp_path, doc)
        for run, argv in (("flag", ["phij", "--out", ""]),
                          ("config", ["phij", "--config", config])):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(argv) == 0
        written = ["phij.csv", "phij_summary.json"]
        assert sorted(os.listdir(tmp_path / "flag")) == written
        for name in written:
            flag, config = (tmp_path / run / name for run in ("flag", "config"))
            assert flag.read_bytes() == config.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            "phij --sweep phi:0:inf:3",
            "phij --sweep phi_e:-inf:0:3",
            "phij --sweep phi:0:nan:3",
            "spectrum --sweep eps:0:inf:5",
            "spectrum --sweep eps:nan:1:5",
            # Finite bounds whose difference, and so the step, overflows.
            "spectrum --sweep eps:-1e308:1e308:5",
        ],
    )
    def test_non_finite_sweep_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        # A NaN bound also fails max > min, but the message names the NaN.
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "sweep bounds and their difference must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, bound", [("phij", "abc"), ("spectrum", "inf")])
    def test_sweep_bound_given_as_string_exits_2(self, command, bound, tmp_path, capsys):
        # The bound reaches float() in the flag parser: "abc" raises a plain
        # ValueError there, "inf" parses to a non-finite bound.
        variable = "phi" if command == "phij" else "eps"
        argv = [command, "--sweep", f"{variable}:0:{bound}:3", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("couplings", "circuit", "g", float("nan")),
            ("gate", "schedule", "lambda2", {"value": float("inf"), "unit": "MHz", "times_2pi": True}),
            ("couplings", "wire", "T_K", 0.0),
            ("couplings", "wire", "T_K", -1.0),
            # Finite as written, infinite once scaled to rad/s.
            ("couplings", "circuit", "omega_r", {"value": 1e300, "unit": "GHz"}),
            # Every command writes CSV and JSON; a list without them is an error.
            ("spectrum", "output", "formats", ["svg"]),
            # Positive, but k_B*T underflows to 0 and P_e would divide by it.
            ("couplings", "wire", "T_K", 1e-310),
            # The optima are quoted in units of eta*g*Delta0 and eta*Delta0,
            # which vanish or underflow to 0.
            ("couplings", "circuit", "g", 0.0),
            ("couplings", "circuit", "E_J", {"value": 5e-324, "unit": "rad_per_s"}),
            # A charging energy must be positive, a wire width non-negative.
            ("couplings", "circuit", "E_c", {"value": 0.0, "unit": "GHz", "times_2pi": True}),
            ("couplings", "circuit", "E_c", {"value": -160.0, "unit": "GHz", "times_2pi": True}),
            ("couplings", "wire", "W_m", -1e-7),
        ],
    )
    def test_non_finite_config_value_exits_2(self, command, section, key, value, tmp_path):
        doc = default_config_dict()
        doc[section][key] = value
        res = run_cli(command, "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, circuit, wire, message", [
        # g = 1e308 parses, but with the reference junction g*E_J overflows
        # (xi = g*E_J*sin(phi_e/2) would be inf * 0 = NaN).
        ("phij", {"g": 1e308}, {}, "non-finite product g*E_J = inf"),
        ("couplings", {"g": 1e308}, {}, "non-finite product g*E_J = inf"),
        # g*E_J = 1e308 is finite, and the series forms its photon factor
        # as 2*eta times g, 2e306, not as 2*g, which overflows: this run
        # writes its table (message None).
        ("phij", {"g": 1e308, "E_J": {"value": 1.0, "unit": "rad_per_s"},
                  "E_J0": {"value": 100.0, "unit": "rad_per_s"},
                  "E_c": {"value": 1000.0, "unit": "rad_per_s"}}, {}, None),
        # g*E_J is finite, but the unit of the lambda2 optimum is not.
        ("couplings", {"g": 1e299, "E_J": {"value": 0.1, "unit": "GHz", "times_2pi": True},
                       "E_J0": {"value": 1.0, "unit": "GHz", "times_2pi": True}},
         {"Delta0": {"value": 1e6, "unit": "GHz", "times_2pi": True}, "W_m": 0.0},
         "non-finite product eta*g*Delta0 = inf"),
    ], ids=["phij", "couplings", "phij-series", "couplings-optimum-unit"])
    def test_non_finite_result_exits_2_without_csv(self, command, circuit, wire, message,
                                                   tmp_path, capsys):
        # Each run is refused, with the overflowing quantity named, before
        # the output directory is created.
        doc = default_config_dict()
        doc["circuit"].update(circuit)
        doc["wire"].update(wire)
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        if message is None:
            assert main(argv) == 0
            series = np.loadtxt(tmp_path / "o" / "phij.csv", delimiter=",", skiprows=1,
                                usecols=1)
            assert np.isfinite(series).all()
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_random_finite_config_values_keep_the_exit_contract(self, tmp_path):
        # Finite values of any magnitude, subnormal and near-overflow
        # included, in up to three numeric keys of the device and the bounds
        # of the --sweep flag, written with repr: every run returns 0, 2, 3
        # or 4, raises nothing and writes no NaN or infinity.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        keys = [("wire", "v_F_m_per_s"), ("wire", "L_m"), ("wire", "W_m"), ("wire", "T_K"),
                ("wire", "Delta0", "value"), ("circuit", "E_J", "value"),
                ("circuit", "E_J0", "value"), ("circuit", "E_c", "value"),
                ("circuit", "omega_r", "value"), ("circuit", "n_g"), ("circuit", "g"),
                ("circuit", "phi_e_rad"), ("circuit", "phi_c_rad"),
                ("sweep", "min"), ("sweep", "max")]
        magnitudes = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-30, 1e30, 1e300, 1.7e308])
        values = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([1, -1])))
        # couplings takes no --sweep; its drawn bounds go unused.
        sweeps = {"spectrum": "eps", "phij": "phi_e", "couplings": None}
        runs = iter(range(10**6))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(sweeps)),
                          st.lists(st.tuples(st.sampled_from(keys), values),
                                   min_size=1, max_size=3))
        def check(command, replacements):
            doc = default_config_dict()
            doc["sweep"] = {"min": 0.1, "max": 3.0}
            for path, value in replacements:
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
            bounds = doc.pop("sweep")
            out = tmp_path / f"o{next(runs)}"
            argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
            if sweeps[command] is not None:
                argv += ["--sweep", f"{sweeps[command]}:{bounds['min']!r}:{bounds['max']!r}:4"]
            assert main(argv) in (0, 2, 3, 4)
            assert_written_numbers_finite(out.glob("*"))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check()

    def test_random_flags_keep_the_exit_contract(self, tmp_path, monkeypatch):
        # gate, fig2 and validate under random flag sets, empty values and
        # flags of other commands included, run in tmp_path so that every
        # output lands there: each run returns 0, 2, 3 or 4 (argparse exits
        # 2), raises nothing else and writes no NaN or infinity to a CSV.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("a file\n")
        doc = default_config_dict()
        doc["curve"] = {"x_max": 1.5, "steps": 6}
        doc["schedule"]["k"] = 4
        Path("small.json").write_text(json.dumps(doc))
        runs = iter(range(10**6))
        outs = st.sampled_from(["", ".", "o", "f", "f/o", "out/sub"]) | st.builds(
            lambda: f"run{next(runs)}")
        out = ("--out", outs)
        # Valid values are drawn more often, so that runs also get to write.
        config = ("--config", st.sampled_from(["small.json"] * 3 + ["", "missing.json", "f", "."]))
        mutate = ("--mutate", st.sampled_from([*_validate.MUTATIONS, ""]))
        own = {"gate": [out, config], "fig2": [out], "validate": [out, mutate]}
        foreign = [("--sweep", st.sampled_from(["", "eps:0:1:3"])), config,
                   ("--rate-convention", st.sampled_from(["plain", "angular", ""]))]

        @hypothesis.settings(max_examples=50, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(own)), st.data())
        def check(command, data):
            argv = [command]
            for flag, values in data.draw(st.lists(st.sampled_from(own[command] * 4 + foreign),
                                                   max_size=3)):
                argv += [flag, data.draw(values)]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the flag or its value
                code = exc.code
            assert code in (0, 2, 3, 4), argv
            assert_written_numbers_finite(tmp_path.rglob("*.csv"))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check()

    def test_random_documents_keep_the_exit_contract(self, tmp_path, monkeypatch):
        # Whole config documents: each value of the default document, and
        # of its sections, is kept, deleted or replaced by random JSON of
        # any type, extreme numbers included.  spectrum, phij, couplings
        # and gate each run on every document: each returns 0, 2 or 3,
        # raises nothing and writes no NaN or infinity.  Between the
        # extremes the numbers stay small:
        # test_random_mid_range_gate_documents_keep_the_exit_contract draws
        # them over many decades for gate.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monkeypatch.chdir(tmp_path)
        extremes = [0, -1, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, -1e300,
                    1.7976931348623157e308, -1.7976931348623157e308, 10**13, 2**64, 10**400]
        numbers = (st.sampled_from(extremes) | st.integers(-2, 16)
                   | st.floats(-16.0, 16.0, allow_nan=False))
        words = st.sampled_from(["MHz", "GHz", "rad_per_s", "plain", "angular", "eps", "phi",
                                 "csv", ""]) | st.text(max_size=6)
        scalars = numbers | words | st.booleans() | st.none()
        values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(words, inner, max_size=3), max_leaves=5)
        fates = st.sampled_from(["keep"] * 30 + ["delete", "replace"])
        runs = iter(range(10**6))

        def varied(data, node: dict) -> dict:
            doc = {}
            for key, value in node.items():
                fate = data.draw(fates)
                if fate == "replace":  # most values are numbers, so numbers are drawn most
                    doc[key] = data.draw(numbers | values)
                elif fate == "keep":
                    doc[key] = varied(data, value) if isinstance(value, dict) else value
            return doc

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            config = write_config(tmp_path, varied(data, default_config_dict()))
            for command in ("spectrum", "phij", "couplings", "gate"):
                out = tmp_path / f"o{next(runs)}"
                assert main([command, "--config", config, "--out", str(out)]) in (0, 2, 3)
                if out.exists():
                    assert_written_numbers_finite(out.iterdir())
                    shutil.rmtree(out)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check()

    def test_random_mid_range_gate_documents_keep_the_exit_contract(self, tmp_path,
                                                                    monkeypatch):
        # Gate documents with k, curve.x_max, curve.steps, lambda2 and the
        # two rates drawn over many decades between the extremes.  Each run
        # returns 0, 2 or 3, raises nothing (a RuntimeWarning included) and
        # writes no NaN or infinity, and at least a third of the runs write
        # a curve.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def decades(lo, hi):
            return st.floats(lo, hi).map(lambda e: 10.0**e)

        def mhz(value):
            return {"value": value, "unit": "MHz", "times_2pi": False}

        rates = st.just(0.0) | decades(-6, 10)
        codes = []
        runs = iter(range(10**6))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(decades(0, 6).map(round), decades(-6, 6), st.integers(1, 300),
                          decades(-9, 9), rates, rates)
        def check(k, x_max, steps, lambda2, kappa, gamma):
            doc = default_config_dict()
            doc["schedule"] = {"k": k, "lambda2": mhz(lambda2)}
            doc["curve"] = {"x_max": x_max, "steps": steps}
            doc["bath"]["kappa"], doc["bath"]["gamma"] = mhz(kappa), mhz(gamma)
            out = tmp_path / f"o{next(runs)}"
            codes.append(main(["gate", "--config", write_config(tmp_path, doc),
                               "--out", str(out)]))
            assert codes[-1] in (0, 2, 3)
            if out.exists():
                assert_written_numbers_finite(out.iterdir())
                shutil.rmtree(out)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check()
        assert 3 * codes.count(0) >= len(codes)

    def test_overflowing_lambda_scale_exits_2(self, tmp_path, capsys):
        # v_F and L are finite, but Delta0*L/v_F overflows; the config is
        # rejected before any root solve.
        doc = default_config_dict()
        doc["wire"]["v_F_m_per_s"] = 1e-300
        doc["wire"]["L_m"] = 1e10
        argv = ["spectrum", "--config", write_config(tmp_path, doc), "--sweep", "eps:0.1:3:4",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "Delta0*L/v_F = inf" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lambda2, rate", [(1e-320, 0.0)])
    def test_gate_over_too_many_decay_times_exits_2(self, lambda2, rate, tmp_path):
        # A subnormal lambda2 puts the gate time itself at infinity, even
        # without decay, and the schedule is refused for it.
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": lambda2, "unit": "rad_per_s"}
        doc["bath"]["kappa"]["value"] = rate
        doc["bath"]["gamma"]["value"] = rate
        res = run_cli("gate", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr and "gate time tau = inf s" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_tiny_lambda2_with_decay_runs(self, tmp_path):
        # With lambda2 = 1e-90 rad/s the curve runs to 1.1 pi/lambda2, about
        # 3e96 decay times at the default rates.  Both qubits have decayed
        # long before the gate time, so F(tau) = 1/4.
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": 1e-90, "unit": "rad_per_s"}
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 0.25) <= 1e-12

    @pytest.mark.parametrize("lambda2, rate, x_max, message", [
        # nu = 2 lambda2 overflows, with and without decay.
        (1e308, 0.0, 1.1, "lambda2 = 1e+308"),
        (1e308, 1.0, 1.1, "lambda2 = 1e+308"),
        # The gate time pi/lambda2 overflows.
        (1e-320, 0.0, 1.1, "lambda2 = 1e-320"),
        # The gate time is finite, but the curve's end x_max * pi/lambda2 is not.
        (1e-10, 0.0, 1e300, "the curve ends at t = inf s; raise lambda2"),
        # The curve's end is finite in seconds, but not in the nanoseconds
        # of the t_ns column, nor times nu, nor times the rates of 1e10 MHz.
        (1e-300, 0.0, 1.1, "the curve ends at t = 3.455751918948773e+300 s; raise lambda2"),
        (1e10, 0.0, 5e307, "the curve ends at t = 1.5707963267948965e+298 s; raise lambda2"),
        (1e-298, 1e10, 1.1, "the curve ends at t = 3.455751918948773e+298 s; raise lambda2"),
        # The curve's end times nu is finite, but not times the rates of the
        # jump series, which reach 16 (nu + kappa) + 4 gamma.
        (1e10, 1.0, 5e306, "the curve ends at t = 1.5707963267948967e+297 s; raise lambda2"),
    ], ids=["nu", "nu-with-decay", "tau", "curve-end", "ns", "nu-t", "rate-t", "series-rate-t"])
    def test_schedule_that_overflows_exits_2_without_warnings(self, lambda2, rate, x_max,
                                                              message, tmp_path):
        # The run is refused, with the cause named, before any numpy
        # arithmetic can warn.
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": lambda2, "unit": "rad_per_s"}
        doc["bath"]["kappa"]["value"] = rate
        doc["bath"]["gamma"]["value"] = rate
        doc["curve"]["x_max"] = x_max
        res = run_cli("gate", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 2
        assert "configuration error" in res.stderr and message in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_curve_of_a_billion_cavity_periods_runs(self, tmp_path):
        # At 1e-3 1/s, but 1e9 gate times long: the jump series costs the
        # same at every time.  At the end, 15.6 s, the rates have acted for
        # about 0.016 decay times.
        doc = default_config_dict()
        doc["bath"]["kappa"]["value"] = 1e-9
        doc["bath"]["gamma"]["value"] = 1e-9
        doc["curve"] = {"x_max": 1e9, "steps": 2}
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        lines = (tmp_path / "o" / "gate.csv").read_text().splitlines()
        assert len(lines) == 5  # the header, x = 0, 1 (the gate time), 5e8 and 1e9

    def test_tiny_lambda2_without_decay_runs(self, tmp_path):
        doc = default_config_dict()
        doc["schedule"]["lambda2"] = {"value": 1e-90, "unit": "rad_per_s"}
        doc["bath"]["kappa"]["value"] = 0.0
        doc["bath"]["gamma"]["value"] = 0.0
        res = run_cli("gate", "--config", write_config(tmp_path, doc), "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "o" / "gate_summary.json").read_text())
        assert abs(summary["F_at_tau"] - 1.0) <= 1e-6

    def test_gate_at_half_flux_without_pin_exits_2(self, tmp_path):
        doc = default_config_dict()
        doc["circuit"]["phi_e_rad"] = math.pi
        doc["schedule"]["lambda2"] = None
        res = run_cli("gate", "--config", write_config(tmp_path, doc), cwd=tmp_path)
        assert res.returncode == 2
        assert "lambda2" in res.stderr

    @pytest.mark.parametrize("phi_e, phi_c", [
        (math.pi, 0.5),  # the half-angle factor of lambda2 is 0
        (0.0, 0.0),  # the working phase sits on the splitting's cusp, dE/dphi = 0
        (0.0, 2 * math.pi),
    ])
    def test_gate_with_vanishing_derived_lambda2_names_both_causes(self, phi_e, phi_c, tmp_path,
                                                                   capsys):
        # At phi_e = 0 or pi the working phase is phi_c itself.
        doc = default_config_dict()
        doc["circuit"]["phi_e_rad"] = phi_e
        doc["circuit"]["phi_c_rad"] = phi_c
        del doc["schedule"]["lambda2"]
        argv = ["gate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"working phase {phi_c!r} rad with phi_e = {phi_e!r} rad" in err
        assert "phi_e = pi switches the cavity interface off" in err
        assert "0 (mod 2*pi) the splitting has its cusp" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section", [
        ("gate", "curve"), ("spectrum", "sweep"), ("phij", "flag"), ("spectrum", "flag"),
    ])
    def test_step_count_of_ten_trillion_exits_2(self, command, section, tmp_path, capsys):
        # np.arange would ask for 80 TB; the count is refused before that.  A
        # "sweep" case gives the --sweep flag alone, a "flag" case gives it
        # beside a config document.
        doc = default_config_dict()
        argv = [command, "--out", str(tmp_path / "o")]
        variable = "phi" if command == "phij" else "eps"
        if section == "curve":
            doc["curve"] = {"x_max": 1.1, "steps": 10**13}
        else:
            argv += ["--sweep", f"{variable}:0:1:{10**13}"]
        if section != "sweep":
            argv += ["--config", write_config(tmp_path, doc)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "exceeds the limit" in err
        assert not (tmp_path / "o").exists()

    def test_one_unconverged_sweep_row_exits_3(self, tmp_path, monkeypatch, capsys):
        # u/tanh(u) made NaN above u = 10: of the eleven phases only the last
        # (Lambda = Delta0*L/v_F, about 10.05) has its root there, and its
        # failure fails the whole sweep, which writes nothing.
        original = _wire._u_over_tanh
        monkeypatch.setattr(_wire, "_u_over_tanh",
                            lambda u: np.where(u > 10.0, np.nan, original(u)))
        argv = ["spectrum", "--sweep", f"eps:0.1:{math.pi}:10", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "1 of" in err
        assert not (tmp_path / "o" / "spectrum.csv").exists()

    def test_fidelity_above_one_exits_3(self, tmp_path, monkeypatch, capsys):
        # Eigenvalues 1 + 2e-8 along the target and -6.7e-9, -6.7e-9, -6.6e-9
        # off it: the states pass their physicality check (unit trace,
        # eigenvalues >= -1e-8), but F = 1 + 2e-8 is out of band, a
        # numerical failure rather than a configuration error.
        target = _dyn.target_entangled_state()
        basis = np.linalg.qr(np.column_stack([target, np.eye(4)[:, :3]]))[0]
        rho = (basis * [1 + 2e-8, -6.7e-9, -6.7e-9, -6.6e-9]) @ basis.conj().T

        def out_of_band(schedule, kappa, gamma, t_grid):
            return _qcore._checked_states(np.stack([rho] * len(t_grid)), t_grid), 0.0

        monkeypatch.setattr(_dyn, "_branch_states", out_of_band)
        assert main(["fig2", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "fidelities outside" in err
        assert not (tmp_path / "o" / "fig2.csv").exists()
