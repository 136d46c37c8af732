"""Span tracer for the traced benchmark run.

The tracer rebinds the public functions of each ucscreen module wherever
an importing module bound them (``from x import f`` makes a second name,
so every module in the package is scanned for the original object).
Each call becomes a span: name, start, end, parent span and op id.  A
few spans also note counts taken from their arguments or results, such
as simplex pivots or branch-and-bound nodes.  Spans stay in memory and
are written out once, at the end.  Nothing under src/ changes.

The span stack assumes one thread, which holds for the benchmark's
``--jobs 1`` runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _lp_note(args, sol):
    problem = args[0]
    return {"pivots": sol.iterations, "rows": problem.n_rows,
            "vars": problem.n_vars, "optimal": sol.status == "optimal"}


def _apriori_count(inst, box) -> int:
    """Bound LPs whose optimum equals a limit known without solving:
    x in [0, x_max] and u in [0, 1]."""
    G = inst.n_gens
    x_max = [g.x_max for g in inst.case.generators]
    count = 0
    for p, origin in enumerate(box.provenance):
        if origin != "lp_solved":
            continue
        hi = x_max[p] if p < G else 1.0
        for value, known in ((box.upper[p], hi), (box.lower[p], 0.0)):
            count += bool(abs(value - known) <= 1e-9 * max(1.0, abs(known)))
    return count


# (defining module, function, span name, note taken at span end)
TARGETS = (
    ("ucscreen.case", "parse_case", "case.parse", None),
    ("ucscreen.case", "compute_ptdf", "case.ptdf", None),
    ("ucscreen.model", "build_uc", "model.build_uc", None),
    ("ucscreen.model", "apply_cuts", "model.apply_cuts", None),
    ("ucscreen.model", "solve_uc", "model.solve_uc", None),
    ("ucscreen.lp", "solve_lp", "lp.solve_lp", _lp_note),
    ("ucscreen.lp", "solve_milp", "lp.solve_milp",
     lambda a, sol: {"nodes": sol.nodes}),
    ("ucscreen.screening", "eovl", "screening.eovl",
     lambda a, rep: {"lps": rep.lp_count, "removed": len(rep.redundant)}),
    ("ucscreen.screening", "variable_bounds", "screening.bounds",
     lambda a, box: {"lps": box.lp_count,
                        "apriori": _apriori_count(a[0], box)}),
    ("ucscreen.screening", "vgs_screen", "screening.vgs",
     lambda a, rep: {"removed": len(rep.redundant)}),
    ("ucscreen.screening", "lfgs_screen", "screening.lfgs",
     lambda a, rep: {"lps": rep.lp_count, "removed": len(rep.redundant)}),
    ("ucscreen.screening", "reduce_model", "screening.reduce", None),
    ("ucscreen.oracle", "verify_zero_gap", "oracle.zero_gap", None),
    ("ucscreen.predictors", "generate_dataset", "predictors.generate_dataset", None),
    ("ucscreen.predictors", "cost_bound", "predictors.knn", None),
    ("ucscreen.predictors", "commitment_fixes", "predictors.knn", None),
    ("ucscreen.cli", "main", "cli.main", None),
    ("ucscreen.cli", "run_scheme", "cli.run_scheme", None),
)


class Tracer:
    """In-memory spans over rebound ucscreen functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = None  # id of the benchmark op in progress

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.update(note(args, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ucscreen" or n.startswith("ucscreen.")]
        for modname, fname, span_name, note in TARGETS:
            original = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(span_name, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every span recorded: {name: (value, unit)}."""
        spans = self.spans
        dur = [s["end"] - s["start"] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                child[s["parent"]] += dur[i]
        self_time = [d - c for d, c in zip(dur, child)]

        def ancestors(i):
            p = spans[i]["parent"]
            while p is not None:
                yield spans[p]["name"]
                p = spans[p]["parent"]

        def total(name, key=None):
            return sum(s.get(key, 0) if key else dur[i]
                       for i, s in enumerate(spans) if s["name"] == name)

        def calls(name):
            return sum(1 for s in spans if s["name"] == name)

        lp = [i for i, s in enumerate(spans) if s["name"] == "lp.solve_lp"]
        pivots_screen = pivots_bnb = 0
        for i in lp:
            above = set(ancestors(i))
            if "lp.solve_milp" in above:
                pivots_bnb += spans[i]["pivots"]
            elif any(a.startswith("screening.") for a in above):
                pivots_screen += spans[i]["pivots"]
        pivots = sum(spans[i]["pivots"] for i in lp)
        lp_count = total("screening.eovl", "lps")
        milp_calls = calls("lp.solve_milp")
        cli_self = sum(self_time[i] for i, s in enumerate(spans)
                       if s["name"].startswith("cli."))
        return {
            "case.parse_ms": (1e3 * total("case.parse"), "ms"),
            "case.ptdf_ms": (1e3 * total("case.ptdf"), "ms"),
            "case.ptdf_calls": (calls("case.ptdf"), "count"),
            "model.build_uc_ms": (1e3 * total("model.build_uc"), "ms"),
            "model.build_uc_calls": (calls("model.build_uc"), "count"),
            "model.apply_cuts_ms": (1e3 * total("model.apply_cuts"), "ms"),
            "screening.bounds_s": (total("screening.bounds"), "s"),
            "screening.bound_lps": (total("screening.bounds", "lps"), "count"),
            "screening.bound_lps_apriori": (total("screening.bounds", "apriori"), "count"),
            "screening.vgs_ms": (1e3 * total("screening.vgs"), "ms"),
            "screening.vgs_removed": (total("screening.vgs", "removed"), "count"),
            "screening.lfgs_s": (total("screening.lfgs"), "s"),
            "screening.lfgs_lps": (total("screening.lfgs", "lps"), "count"),
            "screening.lfgs_removed": (total("screening.lfgs", "removed"), "count"),
            "screening.lp_count": (lp_count, "count"),
            "screening.removals_per_lp": (
                total("screening.eovl", "removed") / max(lp_count, 1), "1"),
            "screening.reduce_ms": (1e3 * total("screening.reduce"), "ms"),
            "lp.solve_lp_calls": (len(lp), "count"),
            "lp.solve_lp_s": (sum(self_time[i] for i in lp), "s"),
            "lp.lp_ms_p50": (1e3 * statistics.median(dur[i] for i in lp) if lp else 0.0,
                             "ms"),
            "lp.pivots.screen": (pivots_screen, "count"),
            "lp.pivots.bnb": (pivots_bnb, "count"),
            "lp.pivots_per_lp": (pivots / max(len(lp), 1), "1"),
            "lp.nonoptimal": (sum(1 for i in lp if not spans[i]["optimal"]), "count"),
            # Computed from input shape: one float64 row update per pivot
            # over an (m, n + m) tableau; not a measured transfer.
            "lp.pivot_bytes_computed": (
                sum(spans[i]["pivots"] * 8 * spans[i]["rows"]
                    * (spans[i]["vars"] + spans[i]["rows"]) for i in lp), "B"),
            "lp.milp_calls": (milp_calls, "count"),
            "lp.milp_nodes": (total("lp.solve_milp", "nodes"), "count"),
            "lp.milp_nodes_per_solve": (
                total("lp.solve_milp", "nodes") / max(milp_calls, 1), "1"),
            "lp.milp_s": (total("lp.solve_milp"), "s"),
            "oracle.zero_gap_s": (total("oracle.zero_gap"), "s"),
            "predictors.generate_dataset_s": (total("predictors.generate_dataset"), "s"),
            "predictors.knn_ms": (1e3 * total("predictors.knn"), "ms"),
            "cli.self_ms": (1e3 * cli_self, "ms"),
        }
