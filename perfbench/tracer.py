"""Span recorder that wraps homspec's public functions from outside the package.

A span is (name, start, end, parent, thread) plus optional counters. Spans are
kept in memory and summarised into per-layer metrics when the operation ends.
Wrapping rebinds a function in every ``homspec`` namespace that holds it, so
both ``homspec.torus.solve_cell`` and the ``solve_cell`` imported into
``homspec.expansion`` and ``homspec.classical`` are traced. ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # --- spans ---

    def open(self, name: str, start: float | None = None, **counts) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to whatever the main
                # thread is blocked in (pipeline.run waiting on pool.map)
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            idx = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "thread": tid,
                               "start": time.monotonic() if start is None else start,
                               "end": None, **counts})
            stack.append(idx)
        return idx

    def close(self, idx: int):
        end = time.monotonic()
        with self._lock:
            self.spans[idx]["end"] = end
            self._stacks[threading.get_ident()].remove(idx)

    def record(self, name: str, start: float, end: float):
        """A finished span with no parent (e.g. work before the root span)."""
        with self._lock:
            self.spans.append({"name": name, "parent": None,
                               "thread": threading.get_ident(),
                               "start": start, "end": end})

    # --- wrapping ---

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Trace ``owner.attr`` under ``name``.

        ``before(*args, **kwargs)`` and ``after(result)`` return counters
        stored on the span. ``owner`` is a module or a class.
        """
        orig = vars(owner)[attr]
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.open(name, **(before(*args, **kwargs) if before else {}))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                tracer.spans[idx].update(after(result))
            return result

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [mod for key, mod in list(sys.modules.items())
                       if key.split(".")[0] == "homspec" and mod is not None
                       and vars(mod).get(attr) is orig]
        for target in targets:
            self._patches.append((target, attr, orig))
            setattr(target, attr, traced)

    def restore(self):
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)


def install(tracer: Tracer):
    """Wrap the public boundary of every homspec layer."""
    import numpy as np

    from homspec import (classical, cli, expansion, hermite, pipeline,
                         reference, torus)

    def torus_points(field, points):
        m = np.atleast_2d(np.asarray(points)).shape[0]
        n, d = field.grid.modes_per_axis, field.grid.dim
        return {"points": m, "macs": m * n ** d}

    def assemble_points(branch, eps, points=None, *args, **kwargs):
        return {"points": 0 if points is None else len(points)}

    def unknowns(coeff, W, eps, grid, *args, **kwargs):
        fine = reference.FineGrid(grid.dim, grid.radius, grid.h / 2.0)
        return {"unknowns": grid.n_interior ** grid.dim
                + fine.n_interior ** grid.dim}

    def corrector_entries(result):
        branches = result if isinstance(result, list) else [result]
        return {"entries": sum(len(br.table.residuals) for br in branches)}

    def text_bytes(out_dir, name, text):
        return {"bytes": len(text.encode())}

    w = tracer.wrap
    w(pipeline, "run", "pipeline.run")
    for stage in ("stage_homogenize", "stage_spectrum", "stage_expand"):
        w(pipeline, stage, f"pipeline.{stage}")
    w(pipeline, "rows_to_csv", "artifacts.rows_to_csv")
    w(pipeline, "emit_plot_data", "artifacts.emit_plot_data")
    w(pipeline.RunManifest, "to_json", "artifacts.to_json")
    w(cli, "_write", "artifacts.write", before=text_bytes)
    w(classical, "build_suite", "classical.build_suite")
    w(hermite, "solve_spectrum", "hermite.solve_spectrum")
    w(hermite.MacroFunction, "evaluate", "hermite.evaluate")
    w(torus, "solve_cell", "torus.solve_cell")
    w(torus.PeriodicField, "evaluate", "torus.evaluate", before=torus_points)
    w(expansion, "simple_recursion", "expansion.recursion", after=corrector_entries)
    w(expansion, "multiple_recursion", "expansion.recursion", after=corrector_entries)
    w(expansion, "assemble", "expansion.assemble", before=assemble_points)
    w(reference, "solve_Leps", "reference.solve_Leps", before=unknowns)
    w(reference, "match_and_compare", "reference.match_and_compare")


# --- summaries ----------------------------------------------------------------


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], root: int) -> dict:
    """Per-layer numbers for one traced operation whose root span is ``root``."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]["name"]
            p = spans[p]["parent"]

    def self_time(i):
        s = spans[i]
        return _dur(s) - _union((max(spans[c]["start"], s["start"]),
                                 min(spans[c]["end"], s["end"]))
                                for c in children.get(i, []))

    def named(prefix):
        return [i for i, s in enumerate(spans)
                if s["name"] == prefix or s["name"].startswith(prefix + ".")]

    def busy(prefix):
        """Wall time inside spans of ``prefix``, not counting nested repeats."""
        return sum(_dur(spans[i]) for i in named(prefix)
                   if not any(a == prefix or a.startswith(prefix + ".")
                              for a in ancestors(i)))

    def calls(name):
        return len(named(name))

    def total(name, key):
        return sum(spans[i].get(key, 0) for i in named(name))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    run_s = _dur(spans[root])
    cli_self = self_time(root)
    pipeline_self = sum(self_time(i) for i in named("pipeline"))
    macs = total("torus.evaluate", "macs")
    return {
        "config.load_config_s": busy("config.load_config"),
        "classical.build_suite_s": busy("classical.build_suite"),
        "hermite.solve_spectrum_s": busy("hermite.solve_spectrum"),
        "hermite.evaluate_calls": calls("hermite.evaluate"),
        "hermite.evaluate_s": busy("hermite.evaluate"),
        "torus.evaluate_calls": calls("torus.evaluate"),
        "torus.evaluate_points": total("torus.evaluate", "points"),
        "torus.evaluate_s": busy("torus.evaluate"),
        "torus.evaluate_macs": macs,
        "torus.evaluate_gmacs_per_s": rate(macs / 1e9, busy("torus.evaluate")),
        "torus.solve_cell_calls": calls("torus.solve_cell"),
        "torus.solve_cell_s": busy("torus.solve_cell"),
        "expansion.recursion_s": busy("expansion.recursion"),
        "expansion.corrector_entries": sum(
            spans[i].get("entries", 0) for i in named("expansion.recursion")
            if "expansion.recursion" not in ancestors(i)),
        "expansion.assemble_calls": calls("expansion.assemble"),
        "expansion.assemble_points": total("expansion.assemble", "points"),
        "expansion.assemble_s": busy("expansion.assemble"),
        "reference.solve_Leps_calls": calls("reference.solve_Leps"),
        "reference.solve_Leps_s": busy("reference.solve_Leps"),
        "reference.unknowns": total("reference.solve_Leps", "unknowns"),
        "reference.unknowns_per_s": rate(total("reference.solve_Leps", "unknowns"),
                                         busy("reference.solve_Leps")),
        "reference.match_and_compare_s": busy("reference.match_and_compare"),
        "pipeline.self_s": pipeline_self,
        "pipeline.artifacts_s": busy("artifacts"),
        "pipeline.artifact_bytes": total("artifacts.write", "bytes"),
        "cli.self_s": cli_self,
        # share of run_s inside a layer's span: pipeline.run and the stages
        # wrap nearly everything, so their own time counts as uncovered
        "trace.coverage": 1.0 - rate(cli_self + pipeline_self, run_s),
        "run_s": run_s,
    }
