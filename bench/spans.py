"""Spans recorded from outside the program, and the per-layer metrics built from them.

``install`` replaces every binding of each public function named in
``FUNCTIONS`` (in every ``starweight`` module that imported it) and each
method named in ``METHODS`` (on its class) with a wrapper that records a
span: name, start, end, parent span and input id. Spans are kept in
memory and written out once, when the pass ends. Nothing under ``src/``
changes, and a process that never calls ``install`` runs the original
function objects.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter

MODULES = ("words", "scenario", "stargraph", "facts", "weights", "search", "cli")

# (module, function): every module-level binding of the function is wrapped.
FUNCTIONS = (
    ("scenario", "parse_scenario"),
    ("stargraph", "build_star_graph"),
    ("stargraph", "canonical_atom_cycle"),
    ("words", "canonical_cyclic_class"),
    ("words", "cyclically_reduce"),
    ("weights", "verify_weight_test"),
    ("weights", "enumerate_light_cycles"),
    ("weights", "reduced_closed_walks"),
    ("weights", "canonical_atom_edge_cycle"),
    ("weights", "render_report"),
    ("search", "search_weights"),
    ("search", "solve_feasible"),
    ("search", "infeasible_certificate"),
)

# (module, class, method, span name): wrapped on the class itself.
METHODS = (
    ("stargraph", "StarGraph", "incident", "stargraph.incident"),
    ("facts", "FactBase", "__init__", "facts.FactBase"),
    ("facts", "FactBase", "refute_trivial", "facts.refute_trivial"),
    ("facts", "FactBase", "refute_template", "facts.refute_template"),
    ("facts", "FactBase", "normalize_any", "facts.normalize_any"),
)

FACT_QUERIES = ("facts.refute_trivial", "facts.refute_template")

# Per-layer metrics as (name, unit). Self times come from spans; the rest
# are counts taken from arguments and return values at the same boundaries.
PER_LAYER = (
    ("scenario.parse_scenario.calls", "count"),
    ("scenario.parse_scenario.self_s", "s"),
    ("stargraph.build_star_graph.self_s", "s"),
    ("stargraph.incident.calls", "count"),
    ("stargraph.incident.self_s", "s"),
    ("stargraph.canonical_atom_cycle.calls", "count"),
    ("stargraph.canonical_atom_cycle.self_s", "s"),
    ("words.canonical_cyclic_class.calls", "count"),
    ("words.canonical_cyclic_class.self_s", "s"),
    ("words.cyclically_reduce.calls", "count"),
    ("words.cyclically_reduce.self_s", "s"),
    ("facts.FactBase.calls", "count"),
    ("facts.FactBase.self_s", "s"),
    ("facts.refute_trivial.calls", "count"),
    ("facts.refute_trivial.distinct", "count"),
    ("facts.refute_trivial.self_s", "s"),
    ("facts.refute_trivial.refuted_share", "share"),
    ("facts.refute_template.calls", "count"),
    ("facts.refute_template.self_s", "s"),
    ("facts.normalize_any.calls", "count"),
    ("facts.normalize_any.distinct", "count"),
    ("facts.normalize_any.self_s", "s"),
    ("facts.rule.R2", "count"),
    ("facts.rule.R3", "count"),
    ("facts.rule.R4", "count"),
    ("facts.rule.FP", "count"),
    ("facts.rule.unknown", "count"),
    ("weights.verify_weight_test.calls", "count"),
    ("weights.verify_weight_test.total_s", "s"),
    ("weights.verify_weight_test.self_s", "s"),
    ("weights.enumerate_light_cycles.calls", "count"),
    ("weights.enumerate_light_cycles.self_s", "s"),
    ("weights.enumerate_light_cycles.families", "count"),
    ("weights.reduced_closed_walks.calls", "count"),
    ("weights.reduced_closed_walks.self_s", "s"),
    ("weights.reduced_closed_walks.walks", "count"),
    ("weights.canonical_atom_edge_cycle.calls", "count"),
    ("weights.canonical_atom_edge_cycle.self_s", "s"),
    ("weights.render_report.self_s", "s"),
    ("weights.guard_uncovered", "count"),
    ("weights.notes", "count"),
    ("search.search_weights.calls", "count"),
    ("search.search_weights.total_s", "s"),
    ("search.solve_feasible.calls", "count"),
    ("search.solve_feasible.self_s", "s"),
    ("search.solve_feasible.rows_max", "count"),
    ("search.solve_feasible.rows_sum", "count"),
    ("search.solve_feasible.cols_max", "count"),
    ("search.infeasible_certificate.calls", "count"),
    ("search.infeasible_certificate.total_s", "s"),
    ("search.iterations", "count"),
    ("search.cuts_added", "count"),
    ("search.candidates_verified", "count"),
    ("search.candidate_hit_share", "share"),
    ("search.status.found", "count"),
    ("search.status.infeasible", "count"),
    ("search.status.gave-up", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.unspanned_s", "s"),
    ("trace.inputs_per_s", "1/s"),
    ("trace.overhead_inputs_per_s", "1/s"),
)
UNITS = dict(PER_LAYER)


class Tracer:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.input_id = -1
        self.active = False
        self.counts: Counter = Counter()
        self._distinct: dict[str, set] = {"facts.refute_trivial": set(), "facts.normalize_any": set()}
        self._fact_bases: list = []  # keeps ids unique for the distinct keys

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name)
            parent = stack[-1]
            self.name.append(nid)
            self.parent.append(parent)
            self.input.append(self.input_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result, parent)
            return result

        wrapper.__benchmark_span__ = name
        return wrapper

    def parent_name(self, parent: int) -> str:
        return self.names[self.name[parent]] if parent >= 0 else ""

    def write(self, path) -> None:
        """Spans as tab-separated name, start, end, parent, input id (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\tinput\n")
            names = self.names
            for i in range(len(self.name)):
                f.write(
                    f"{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.input[i]}\n"
                )


# -- observers: counts taken from arguments and return values ---------------


def _refute_trivial(t: Tracer, args, verdict, parent: int) -> None:
    t._distinct["facts.refute_trivial"].add((id(args[0]), args[1]))
    t.counts["facts.refute_trivial.refuted"] += verdict.refuted
    _fact_query(t, args, verdict, parent)


def _fact_query(t: Tracer, args, verdict, parent: int) -> None:
    if t.parent_name(parent) not in FACT_QUERIES:
        # one answer per fact-base query; nested calls are its sub-steps
        t.counts["facts.rule." + (verdict.rule if verdict.refuted else "unknown")] += 1


def _fact_base(t: Tracer, args, result, parent: int) -> None:
    t._fact_bases.append(args[0])


def _normalize_any(t: Tracer, args, result, parent: int) -> None:
    t._distinct["facts.normalize_any"].add((id(args[0]), args[1]))


def _verify(t: Tracer, args, report, parent: int) -> None:
    t.counts["weights.guard_uncovered"] += sum(
        1 for fv in report.families if fv.witness == "guard walk not covered"
    )
    t.counts["weights.notes"] += len(report.notes)
    if t.parent_name(parent) == "search.search_weights":
        t.counts["search.candidates_verified"] += 1
        t.counts["search.candidates_hit"] += report.verdict == "Aspherical"


def _families(t: Tracer, args, families, parent: int) -> None:
    t.counts["weights.enumerate_light_cycles.families"] += len(families)


def _walks(t: Tracer, args, walks, parent: int) -> None:
    t.counts["weights.reduced_closed_walks.walks"] += len(walks)


def _solve(t: Tracer, args, result, parent: int) -> None:
    rows, cols = len(args[1]), len(args[0])
    t.counts["search.solve_feasible.rows_sum"] += rows
    t.counts["search.solve_feasible.rows_max"] = max(t.counts["search.solve_feasible.rows_max"], rows)
    t.counts["search.solve_feasible.cols_max"] = max(t.counts["search.solve_feasible.cols_max"], cols)


def _search(t: Tracer, args, out, parent: int) -> None:
    t.counts["search.status." + out.status] += 1
    t.counts["search.iterations"] += out.iterations
    t.counts["search.cuts_added"] += sum(
        1 for c in out.constraints if not c.label.startswith(("bound ", "relator "))
    )


OBSERVERS = {
    "facts.refute_trivial": _refute_trivial,
    "facts.refute_template": _fact_query,
    "facts.FactBase": _fact_base,
    "facts.normalize_any": _normalize_any,
    "weights.verify_weight_test": _verify,
    "weights.enumerate_light_cycles": _families,
    "weights.reduced_closed_walks": _walks,
    "search.solve_feasible": _solve,
    "search.search_weights": _search,
}


def install(tracer: Tracer) -> int:
    """Wrap every target binding; returns the number of bindings replaced."""
    mods = {m: importlib.import_module(f"starweight.{m}") for m in MODULES}
    loaded = [m for n, m in sys.modules.items() if n == "starweight" or n.startswith("starweight.")]
    replaced = 0
    for mod_name, fn_name in FUNCTIONS:
        orig = getattr(mods[mod_name], fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", orig)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    replaced += 1
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(mods[mod_name], cls_name)
        setattr(cls, meth, tracer.wrap(span, vars(cls)[meth]))
        replaced += 1
    return replaced


def wrapped_bindings() -> int:
    """Number of target bindings in the loaded program that are span wrappers."""
    mods = [m for n, m in sys.modules.items() if n == "starweight" or n.startswith("starweight.")]
    count = 0
    for mod in mods:
        for value in vars(mod).values():
            if hasattr(value, "__benchmark_span__"):
                count += 1
            elif isinstance(value, type):
                count += sum(hasattr(v, "__benchmark_span__") for v in vars(value).values())
    return count


# -- aggregation -------------------------------------------------------------


def self_times(name, parent, start, end) -> tuple[list[float], list[float]]:
    """(duration, self time) per span; self time excludes direct children."""
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    return dur, [dur[i] - child[i] for i in range(n)]


def layer_metrics(t: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass (overhead is added by the caller)."""
    dur, self_s = self_times(t.name, t.parent, t.start, t.end)
    calls: Counter = Counter()
    self_by: Counter = Counter()
    total_by: Counter = Counter()
    for i, nid in enumerate(t.name):
        name = t.names[nid]
        calls[name] += 1
        self_by[name] += self_s[i]
        if t.parent[i] < 0 or t.names[t.name[t.parent[i]]] != name:
            total_by[name] += dur[i]
    roots = sum(dur[i] for i in range(len(dur)) if t.parent[i] < 0)
    c = t.counts
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "self_s":
            out[metric] = self_by[layer]
        elif stat == "total_s":
            out[metric] = total_by[layer]
        elif stat == "distinct":
            out[metric] = len(t._distinct[layer])
        else:
            out[metric] = c[metric]
    out["facts.refute_trivial.refuted_share"] = _share(
        c["facts.refute_trivial.refuted"], calls["facts.refute_trivial"]
    )
    out["search.candidate_hit_share"] = _share(
        c["search.candidates_hit"], c["search.candidates_verified"]
    )
    out["trace.spans"] = len(t.name)
    out["trace.wall_s"] = wall_s
    out["trace.unspanned_s"] = wall_s - roots
    out["trace.self_sum_s"] = sum(self_s)
    return out


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def is_count(metric: str) -> bool:
    return UNITS.get(metric) in ("count", "share")


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, timings as the median over passes."""
    return {
        k: passes[0][k] if is_count(k) else statistics.median(p[k] for p in passes)
        for k in passes[0]
    }
