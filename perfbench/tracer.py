"""Per-layer tracing of su11lso from outside the package.

Each hooked name is replaced, in every su11lso module namespace that holds
it, by a thin wrapper that times the call and credits it to one in-memory
record: call count, inclusive seconds, and self seconds (inclusive time
minus the time of wrapped calls made inside it).  Methods are patched on
their class.  Nothing is written while the workload runs; the caller reads
the records at the end.

The layers are single-threaded and have no queues, so there is no wait
time to record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (record, module, attribute, workloads that must fire it)
HOOKS = (
    ("series.series_exp", "su11lso.series", "series_exp", ("figures", "points", "validate")),
    ("moments.MomentTable", "su11lso.moments", "MomentTable.__init__", ("figures", "points", "validate")),
    ("moments.moment_table", "su11lso.moments", "moment_table", ("figures", "points", "validate")),
    ("moments.quadrature_stats", "su11lso.moments", "quadrature_stats", ("figures", "points", "validate")),
    ("metrology.optimal_phase", "su11lso.metrology", "optimal_phase", ("figures",)),
    ("metrology.sensitivity_curve", "su11lso.metrology", "sensitivity_curve", ("figures",)),
    ("metrology.phase_sensitivity", "su11lso.metrology", "phase_sensitivity", ("figures", "points", "validate")),
    ("metrology.total_photon_number", "su11lso.metrology", "total_photon_number", ("figures", "points", "validate")),
    ("metrology.sql_hl", "su11lso.metrology", "sql_hl", ("figures", "points", "validate")),
    ("metrology.qfi_ideal", "su11lso.metrology", "qfi_ideal", ("figures", "points", "validate")),
    ("metrology.qfi_lossy", "su11lso.metrology", "qfi_lossy", ("figures", "points", "validate")),
    ("sweeps.run_sweep", "su11lso.sweeps", "run_sweep", ("figures",)),
    ("sweeps.render_csv", "su11lso.sweeps", "render_csv", ("figures",)),
    ("sweeps.write_sweep", "su11lso.sweeps", "write_sweep", ("figures",)),
    ("cli.main", "su11lso.cli", "main", ("figures",)),
    ("fock.auto_prepared_state", "su11lso.fock", "auto_prepared_state", ("validate",)),
    ("fock.prepared_state", "su11lso.fock", "prepared_state", ("validate",)),
    ("fock.SensitivityOracle", "su11lso.fock", "SensitivityOracle.__init__", ("validate",)),
    ("fock.quadrature_statistics", "su11lso.fock", "SensitivityOracle.quadrature_statistics", ("validate",)),
    ("fock.probe", "su11lso.fock", "SensitivityOracle._evaluate_at_dims", ("validate",)),
    ("fock.squeezer_sweep", "su11lso.fock", "apply_two_mode_squeezer_batch", ("validate",)),
    ("fock.factorization", "su11lso.fock", "eigh_tridiagonal", ("validate",)),
    ("fock.mixed_qfi", "su11lso.fock", "mixed_qfi_from_state", ("validate",)),
    ("crosscheck.run_cross_check", "su11lso.crosscheck", "run_cross_check", ("validate",)),
)

POINT_QUANTITIES = ("phase_sensitivity", "total_photon_number", "sql_hl", "qfi_ideal", "qfi_lossy")

# extra per-call amounts: probe grid cells, bytes pushed through the gate,
# cells compared
_AMOUNTS = {
    "fock.probe": lambda args, kwargs, result: args[4] * args[5],
    "fock.squeezer_sweep": lambda args, kwargs, result: args[0].nbytes,
    "crosscheck.run_cross_check": lambda args, kwargs, result: len(result.cells),
}


class Record:
    __slots__ = ("calls", "total", "self_time", "amount")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.amount = 0


class Tracer:
    """Installs the hooks; ``records`` maps record name to Record."""

    def __init__(self):
        self.records = {name: Record() for name, *_ in HOOKS}
        self.records["crosscheck.analytic"] = Record()
        self._stack = [0.0]  # child time of the open frames; bottom is the root
        self._undo = []

    def _wrap(self, fn, rec, also=None, amount=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec.calls += 1
                rec.total += dt
                rec.self_time += dt - child
                if also is not None:
                    also.calls += 1
                    also.total += dt
            if amount is not None:
                rec.amount += amount(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every hooked name; on a missing name, undo and raise."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "su11lso" or name.startswith("su11lso."))
        ]
        for name, module_name, attr, _ in HOOKS:
            module = importlib.import_module(module_name)
            rec = self.records[name]
            amount = _AMOUNTS.get(name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = owner.__dict__.get(method) if owner is not None else None
                if not callable(fn):
                    raise RuntimeError(f"hooked name {module_name}.{attr} is missing")
                self._patch(owner, method, self._wrap(fn, rec, amount=amount))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise RuntimeError(f"hooked name {module_name}.{attr} is missing")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is not fn:
                        continue
                    also = None
                    if mod.__name__ == "su11lso.crosscheck" and name.startswith("metrology."):
                        also = self.records["crosscheck.analytic"]
                    self._patch(mod, key, self._wrap(fn, rec, also, amount))

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def silent_hooks(self, workload: str) -> list[str]:
        """Hooks that should have fired on this workload but did not."""
        return [
            name for name, _, _, fires_on in HOOKS
            if workload in fires_on and self.records[name].calls == 0
        ]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer numbers named in BENCHMARK.json, from the records."""
        r = self.records
        builds = r["moments.MomentTable"].calls
        table_calls = r["moments.moment_table"].calls
        optima = r["metrology.optimal_phase"].calls
        probes = r["fock.probe"].calls
        sweep = r["fock.squeezer_sweep"]
        factor = r["fock.factorization"]
        out = {
            "series.series_exp.calls": r["series.series_exp"].calls,
            "series.series_exp.self_s": r["series.series_exp"].self_time,
            "moments.MomentTable.builds": builds,
            "moments.MomentTable.build_s": r["moments.MomentTable"].total,
            "moments.moment_table.calls": table_calls,
            "moments.moment_table.hit_ratio": 1.0 - builds / table_calls if table_calls else 0.0,
            "moments.quadrature_stats.calls": r["moments.quadrature_stats"].calls,
            "moments.quadrature_stats.s": r["moments.quadrature_stats"].total,
            "metrology.optimal_phase.calls": optima,
            "metrology.optimal_phase.self_s": r["metrology.optimal_phase"].self_time,
            "metrology.sensitivity_curve.calls": r["metrology.sensitivity_curve"].calls,
            "metrology.curve_evals_per_optimum": (
                r["metrology.sensitivity_curve"].calls / optima if optima else 0.0
            ),
            "metrology.point_quantities.self_s": sum(
                r[f"metrology.{q}"].self_time for q in POINT_QUANTITIES
            ),
            "sweeps.run_sweep.self_s": r["sweeps.run_sweep"].self_time,
            "sweeps.render_csv.s": r["sweeps.render_csv"].total,
            "sweeps.write_sweep.io_s": r["sweeps.write_sweep"].self_time,
            "cli.main.self_s": r["cli.main"].self_time,
            "fock.auto_prepared_state.calls": r["fock.auto_prepared_state"].calls,
            "fock.auto_prepared_state.s": r["fock.auto_prepared_state"].total,
            "fock.prepared_state.calls": r["fock.prepared_state"].calls,
            "fock.SensitivityOracle.init_s": r["fock.SensitivityOracle"].total,
            "fock.quadrature_statistics.calls": r["fock.quadrature_statistics"].calls,
            "fock.quadrature_statistics.s": r["fock.quadrature_statistics"].total,
            "fock.probes": probes,
            "fock.probe_useful_ratio": (
                r["fock.quadrature_statistics"].calls / probes if probes else 0.0
            ),
            "fock.work_cells": r["fock.probe"].amount,
            "fock.squeezer_sweep.calls": sweep.calls,
            "fock.squeezer_sweep.s": sweep.total,
            "fock.squeezer_sweep.self_s": sweep.self_time,
            "fock.sweep_bytes": sweep.amount,
            "fock.factorizations.calls": factor.calls,
            "fock.factorizations.s": factor.total,
            "fock.mixed_qfi.calls": r["fock.mixed_qfi"].calls,
            "fock.mixed_qfi.s": r["fock.mixed_qfi"].total,
            "crosscheck.engines": r["fock.SensitivityOracle"].calls,
            "crosscheck.cells": r["crosscheck.run_cross_check"].amount,
            "crosscheck.run_cross_check.self_s": r["crosscheck.run_cross_check"].self_time,
            "crosscheck.analytic_s": r["crosscheck.analytic"].total,
        }
        layers = self.layer_self_times()
        for layer in ("moments", "metrology", "sweeps", "fock", "crosscheck"):
            out[f"{layer}.self_s"] = layers.get(layer, 0.0)
        out["trace.unattributed_s"] = wall_s - sum(layers.values())
        out["trace.hook_calls"] = sum(self.records[name].calls for name, *_ in HOOKS)
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds summed by package module."""
        out: dict[str, float] = {}
        for name, *_ in HOOKS:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.records[name].self_time
        return out

    def table(self) -> dict[str, dict]:
        return {
            name: {"calls": rec.calls, "s": rec.total, "self_s": rec.self_time,
                   **({"amount": rec.amount} if rec.amount else {})}
            for name, rec in self.records.items()
        }
