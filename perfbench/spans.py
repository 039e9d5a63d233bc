"""Span and counter recorder for the traced benchmark run.

The recorder wraps public ``tubealg`` entry points from outside the
package: each wrapped call records a span (name, start, end, parent
span, job id), and the hot functions ``mult_basis`` and ``gamma`` only
bump a counter.  Spans stay in memory until the run ends; every
per-layer metric is derived from them.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

# Span name -> (module, attribute path).  The CLI's own span is cli.main;
# its self time is argument parsing, input hashing, report building and
# JSON encoding.
SPANS = {
    "cli.main": ("tubealg.cli", "main"),
    "grp.group_from_json": ("tubealg.grp", "group_from_json"),
    "grp.conjugacy_data": ("tubealg.grp", "conjugacy_data"),
    "phase.cocycle_from_json": ("tubealg.phase", "cocycle_from_json"),
    "phase.cocycle3_check": ("tubealg.phase", "cocycle3_check"),
    "coho.gauge_fix_bh": ("tubealg.coho", "gauge_fix_bh"),
    "coho.gl_relations_check": ("tubealg.coho", "gl_relations_check"),
    "coho.phi_class": ("tubealg.coho", "phi_class"),
    "staralg.check_associativity":
        ("tubealg.staralg", "MonomialStarAlgebra.check_associativity"),
    "staralg.check_star_laws":
        ("tubealg.staralg", "MonomialStarAlgebra.check_star_laws"),
    "staralg.check_trace": ("tubealg.staralg", "MonomialStarAlgebra.check_trace"),
    "staralg.check_gram_identity":
        ("tubealg.staralg", "MonomialStarAlgebra.check_gram_identity"),
    "staralg.check_unit": ("tubealg.staralg", "MonomialStarAlgebra.check_unit"),
    "tube_diag.tube_algebra_init": ("tubealg.tube_diag", "TubeAlgebra.__init__"),
    "tube_diag.verify_star_iso": ("tubealg.tube_diag", "verify_star_iso"),
    "tube_diag.structure_constants_json":
        ("tubealg.tube_diag", "structure_constants_json"),
    "tube_diag.simple_count": ("tubealg.tube_diag", "simple_count"),
    "annular_bh.annular_algebra_init":
        ("tubealg.annular_bh", "AnnularAlgebra.__init__"),
    "annular_bh.box_checks": ("tubealg.annular_bh", "box_checks"),
    "annular_bh.bh_verify_star_iso": ("tubealg.annular_bh", "bh_verify_star_iso"),
    "annular_bh.end_xg_algebra": ("tubealg.annular_bh", "end_xg_algebra"),
    "annular_bh.tube_cutdown": ("tubealg.annular_bh", "tube_cutdown"),
    "rep.regular_representation": ("tubealg.rep", "regular_representation"),
    "rep.decompose": ("tubealg.rep", "decompose"),
    "rep.check": ("tubealg.rep", "Representation.check"),
    "rep.induce": ("tubealg.rep", "induce"),
    "rep.rep_to_json": ("tubealg.rep", "rep_to_json"),
    "rep.center_dimension": ("tubealg.rep", "center_dimension"),
    "cyclotomic.nullspace_dimension": ("tubealg.cyclotomic", "nullspace_dimension"),
}

def _label_pairs(alg, *_):
    return len(alg.labels()) ** 2


# Work counts computed from a span's arguments: span -> (count, amount).
WORK = {
    "phase.cocycle3_check":
        ("phase.cocycle3_quadruples", lambda omega, *_: omega.group.order ** 4),
    "staralg.check_star_laws": ("staralg.pairs", _label_pairs),
    "staralg.check_trace": ("staralg.pairs", _label_pairs),
    "staralg.check_gram_identity": ("staralg.pairs", _label_pairs),
}

# Counted calls (or, for the triple generator, counted items).
COUNTERS = {
    "coho.gamma.calls": ("tubealg.coho", "gamma"),
    "staralg.triples": ("tubealg.staralg", "MonomialStarAlgebra._triples"),
}
MULT_BASIS = "staralg.mult_basis.calls"

SUBCOMMANDS = ("tube_check", "tube_build", "tube_simples", "gauge_fix",
               "bh_check", "bh_simples", "bh_build", "rep_decompose",
               "rep_induce")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["cli.self_s" if s == "cli.main" else f"{s}_s" for s in SPANS]
    names += sorted({count for count, _ in WORK.values()})
    names += list(COUNTERS) + [MULT_BASIS]
    names += [f"job.{sub}_s" for sub in SUBCOMMANDS]
    return names + ["cli.report_mb", "trace_overhead_s"]


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or ``None`` if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.job = None
        self.missing: list[str] = []
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, work):
        spans, stack = self.spans, self._stack
        cell, amount = (self._cell(work[0]), work[1]) if work else (None, None)

        def wrapper(*args, **kwargs):
            if cell is not None:
                cell[0] += amount(*args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _cell(self, key: str) -> list[int]:
        return self._cells.setdefault(key, [0])

    def _counter(self, key, fn):
        cell = self._cell(key)
        if inspect.isgeneratorfunction(fn):
            def counted_items(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    cell[0] += 1
                    yield item
            return counted_items

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ----------------------------------------------------------

    def _patch(self, label: str, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.append(label)
            return
        owner, attr, original = found
        wrapped = make(original)
        owners = [owner]
        if inspect.ismodule(owner):
            # also rebind names imported with ``from module import name``
            owners += [m for n, m in list(sys.modules.items())
                       if n.startswith("tubealg") and m is not owner
                       and vars(m).get(attr) is original]
        for o in owners:
            self._undo.append((o, attr, original))
            setattr(o, attr, wrapped)

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            self._patch(name, module, path,
                        lambda fn, n=name: self._span(n, fn, WORK.get(n)))
        for key, (module, path) in COUNTERS.items():
            self._patch(key, module, path, lambda fn, k=key: self._counter(k, fn))
        base = importlib.import_module("tubealg.staralg").MonomialStarAlgebra
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("tubealg"):
                continue
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == modname
                        and issubclass(cls, base) and cls is not base
                        and "mult_basis" in vars(cls)):
                    self._patch(MULT_BASIS, modname, f"{cls.__name__}.mult_basis",
                                lambda fn: self._counter(MULT_BASIS, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {key: cell[0] for key, cell in self._cells.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": self.counts(),
                       "missing": self.missing}, fh)

    def layer_metrics(self, subcommand_of: dict) -> dict[str, float]:
        """Self time per span name, work counts, and inclusive time per
        subcommand (``subcommand_of`` maps job id -> subcommand)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {m: 0 for m in metric_names()}
        for i, (name, start, end, _, job) in enumerate(self.spans):
            key = "cli.self_s" if name == "cli.main" else f"{name}_s"
            out[key] += (end - start) - child[i]
            if name == "cli.main":
                out[f"job.{subcommand_of[job]}_s"] += end - start
        out.update(self.counts())
        return out
