"""Per-layer counts and times for topoqed, taken from outside the package.

``Tracer.install`` wraps the public functions of each layer.  Every binding
of a traced function in a loaded ``topoqed`` module is replaced, so calls
through ``from .wire import wire_splitting`` and calls inside the defining
module both pass the wrapper.  Two outside references are wrapped too:
qcore's ``solve_ivp`` (for the RHS evaluation count) and
``numpy.linalg.eigvalsh`` (the positivity check of a density matrix).

A wrapper counts calls and sums time; it keeps no record per call, because
leaf functions such as ``wire_splitting`` run 10**4 to 10**6 times.  For each
function it keeps the inclusive time of outermost calls (a recursive call is
not counted twice) and the self time, which is the call's duration minus the
part covered by traced calls beneath it on the same thread.  Work that a
thread pool runs for ``cli.main`` has no traced parent, so the main thread's
wait for it is part of ``cli.self_s``.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

TRACED = {
    "wire": ("wire_splitting", "splitting_derivative", "inverse_x_over_tan",
             "inverse_x_over_tanh"),
    "circuit": ("effective_qubit", "phi_J_exact"),
    "interface": ("couplings", "optimal_working_point", "build_H_I"),
    "dynamics": ("fidelity_curve",),
    "qcore": ("integrate_master_equation", "partial_trace", "state_fidelity", "solve_ivp"),
    "output": ("write_csv", "write_json", "write_svg_plot"),
    "validate": ("run_validation",),
    "cli": ("main",),
}

VALIDATE_GROUPS = (
    "schedule_algebra", "propagator_periodicity", "transcendental_inversion",
    "splitting_continuity", "circuit_series_vs_exact", "switching_exactness",
    "hermitian_builders", "propagator_oracle", "closed_gate", "master_equation_limits",
)


class _ThreadState:
    __slots__ = ("stack", "active", "stats", "counts")

    def __init__(self):
        self.stack = []  # one [time covered by child calls] per open call
        self.active = defaultdict(int)  # open calls per function name
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._validation: dict = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            state = self._state()
            depth = state.active[name]
            state.active[name] = depth + 1
            frame = [0.0]
            state.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.stack.pop()
                state.active[name] = depth
                record = state.stats[name]
                record[0] += 1
                if depth == 0:
                    record[1] += elapsed
                record[2] += elapsed - frame[0]
                if state.stack:
                    state.stack[-1][0] += elapsed
            if after is not None:
                after(state, args, result, elapsed)
            return result

        return traced

    # Hooks that read a traced call's arguments or result.

    @staticmethod
    def _after_solve_ivp(state, args, sol, elapsed):
        state.counts["rhs_evals"] += sol.nfev

    @staticmethod
    def _after_integrate(state, args, states, elapsed):
        state.counts["output_states"] += len(states)
        if state.active["dynamics.fidelity_curve"]:
            # fidelity_curve integrates at cutoff N, then at N + 4.
            nth = state.counts["curve_integrations"]
            state.counts["curve_integrations"] = nth + 1
            key = "cutoff_check_s" if nth % 2 else "propagate_s"
            state.counts[key] += elapsed
            state.counts["curve_states"] += len(states)

    @staticmethod
    def _after_couplings(state, args, result, elapsed):
        if state.active["interface.optimal_working_point"]:
            state.counts["working_point_evals"] += 1

    @staticmethod
    def _after_write(state, args, result, elapsed):
        state.counts["bytes_written"] += os.path.getsize(args[0])

    def _after_validation(self, state, args, report, elapsed):
        self._validation = report

    def install(self) -> None:
        """Wrap the traced functions; import topoqed.cli before calling."""
        import numpy.linalg

        hooks = {
            "qcore.solve_ivp": self._after_solve_ivp,
            "qcore.integrate_master_equation": self._after_integrate,
            "interface.couplings": self._after_couplings,
            "output.write_csv": self._after_write,
            "output.write_json": self._after_write,
            "output.write_svg_plot": self._after_write,
            "validate.run_validation": self._after_validation,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "topoqed" or n.startswith("topoqed."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"topoqed.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        numpy.linalg.eigvalsh = self._wrap("numpy.linalg.eigvalsh", numpy.linalg.eigvalsh)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        with self._lock:
            for state in self._states:
                for name, (calls, incl, own) in state.stats.items():
                    total = stats[name]
                    total[0] += calls
                    total[1] += incl
                    total[2] += own
                for key, value in state.counts.items():
                    counts[key] += value

        def calls(name):
            return stats[name][0]

        def seconds(*names):
            return sum(stats[n][1] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "qcore.rhs_evals": counts["rhs_evals"],
            "qcore.integrate_s": seconds("qcore.integrate_master_equation"),
            "qcore.physicality_checks_per_state":
                ratio(calls("numpy.linalg.eigvalsh"), counts["output_states"]),
            "dynamics.propagate_s": counts["propagate_s"],
            "dynamics.cutoff_check_s": counts["cutoff_check_s"],
            "dynamics.fidelity_eval_s": seconds("qcore.partial_trace", "qcore.state_fidelity"),
            "dynamics.output_states": counts["curve_states"],
            "interface.build_H_I_calls": calls("interface.build_H_I"),
            "wire.splitting_calls": calls("wire.wire_splitting"),
            "wire.splitting_s": seconds("wire.wire_splitting"),
            "wire.root_solves":
                calls("wire.inverse_x_over_tan") + calls("wire.inverse_x_over_tanh"),
            "wire.derivative_calls": calls("wire.splitting_derivative"),
            "wire.derivative_s": seconds("wire.splitting_derivative"),
            "wire.splittings_per_derivative":
                ratio(calls("wire.wire_splitting"), calls("wire.splitting_derivative")),
            "interface.couplings_calls": calls("interface.couplings"),
            "interface.working_point_s": seconds("interface.optimal_working_point"),
            "interface.evals_per_working_point":
                ratio(counts["working_point_evals"], calls("interface.optimal_working_point")),
            "circuit.effective_qubit_s": seconds("circuit.effective_qubit"),
            "circuit.phi_J_exact_calls": calls("circuit.phi_J_exact"),
            "circuit.phi_J_exact_s": seconds("circuit.phi_J_exact"),
            "output.write_s":
                seconds("output.write_csv", "output.write_json", "output.write_svg_plot"),
            "output.bytes_written": counts["bytes_written"],
            "cli.self_s": stats["cli.main"][2],
        }
        for group in VALIDATE_GROUPS:
            metrics[f"validate.{group}_s"] = float(
                self._validation.get(group, {}).get("seconds", 0.0))
        return {k: float(v) for k, v in metrics.items()}
