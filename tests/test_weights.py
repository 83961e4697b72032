import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_eager_witness
import oracle_keyed_families
import oracle_rooted_walker
import oracle_unbounded_walker
import oracle_walker
import starweight
import starweight.weights as weights_module
from expansions import expansion, expansions_to_length, expansions_upto
from oracle_guard import GUARD_BUDGET, GUARD_LEN, NOT_COVERED, guarded_report
from starweight.cli import main
from starweight.facts import UNKNOWN, FactBase
from starweight.scenario import parse_scenario
from starweight.search import _edge_counts, _implied
from starweight.stargraph import (
    Edge,
    StarGraph,
    Traversal,
    Vertex,
    build_star_graph,
    canonical_atom_cycle,
    path_label,
)
from starweight.weights import (
    MAX_MARKED,
    DegenerateZeroCycleError,
    EntangledZeroSubgraphError,
    Pump,
    WalkBudgetError,
    WeightError,
    WeightFunction,
    _ZeroSubgraph,
    _closed_walks,
    _walk_tables,
    _weight_scale,
    canonical_atom_edge_cycle,
    check_relator_condition,
    enumerate_light_cycles,
    enumerate_trivial_cycles,
    reduced_closed_walks,
    reduced_closed_walks_by_length,
    render_report,
    verify_weight_test,
    zero_cycle_families,
)
from starweight.words import Word, canonical_cyclic_class, decode, encode, word_from_tokens
from test_facts import _random_eq_facts

ORDER = ["a1", "a2", "a3", "a4", "t"]
CODE = {name: 2 * i for i, name in enumerate(ORDER)}


def W(text):
    return word_from_tokens(text.split()) if text != "1" else Word()


def cls(text):
    return canonical_cyclic_class(encode(W(text), CODE))


SEC3_BASE = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t{exp} a2 t a3 t a4 t
fact: neq a1 1
fact: neq a2 1
fact: neq a3 1
fact: neq a4 1
"""

FN1_WEIGHTS = """\
weight: label:a1 = 1/2
weight: label:a2 = 1/2
weight: label:a3 = 1/2
weight: label:a4 = 1/2
"""

FN2_WEIGHTS = """\
weight: label:a1 = 1
weight: label:a2 = 0
weight: label:a3 = 1
weight: label:a4 = 0
"""

PAIRWISE_DISTINCT = "".join(
    f"fact: neq a{i} a{j}\n" for i in range(1, 5) for j in range(i + 1, 5)
)


def scenario_fn1():
    text = SEC3_BASE.format(exp="") + PAIRWISE_DISTINCT + FN1_WEIGHTS
    return parse_scenario(text, name="sec3 case1 fn1")


def scenario_fn2():
    # one identity edge so that the 1-labelled families (iv), (v) appear
    text = SEC3_BASE.format(exp="^2") + FN2_WEIGHTS + "weight: label:1 = 1\n"
    return parse_scenario(text, name="sec3 case1 fn2")


def test_relator_condition_fn1_sum_exactly_two():
    s = scenario_fn1()
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    checks = check_relator_condition(g, wf)
    assert checks[0].total == 2 and checks[0].passed


def test_relator_condition_fn2_sum_exactly_two():
    s = parse_scenario(SEC3_BASE.format(exp="") + FN2_WEIGHTS)
    g = build_star_graph(s.presentation)
    checks = check_relator_condition(g, WeightFunction.from_scenario(s, g))
    assert checks[0].total == 2 and checks[0].passed


def test_relator_condition_all_zero_three_corners():
    text = "factor A\ngens A: a1 a2 a3\nindet: t\nrelator: a1 t a2 t a3 t\n"
    text += "".join(f"weight: label:a{i} = 0\n" for i in (1, 2, 3))
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    checks = check_relator_condition(g, WeightFunction.from_scenario(s, g))
    assert checks[0].total == 3 and checks[0].passed


def test_missing_weight_names_edge():
    s = parse_scenario(SEC3_BASE.format(exp="") + "weight: label:a1 = 1\n")
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    with pytest.raises(WeightError) as exc:
        check_relator_condition(g, wf)
    assert "0.0" in str(exc.value) or "a2" in str(exc.value)


def test_sec3_fn2_exactly_the_five_family_shapes():
    s = scenario_fn2()
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    fams = enumerate_light_cycles(g, wf)
    got = set()
    pump_cls = cls("a2^-1 a4")
    for f in fams:
        base_cls = canonical_cyclic_class(f.base_label())
        if f.kind == "power":
            got.add(("power", base_cls))
        else:
            pumps = {canonical_cyclic_class(p.label()) for p in f.pumps}
            assert pumps == {pump_cls}
            got.add(("cycle", base_cls))
    expected = {
        ("power", pump_cls),                # (i)  (a2^-1 a4)^m
        ("cycle", cls("a1^-1 a4")),         # (ii) x = a1
        ("cycle", cls("a3^-1 a4")),         # (ii) x = a3
        ("cycle", cls("a1^-1 a2")),         # (iii) x = a1
        ("cycle", cls("a3^-1 a2")),         # (iii) x = a3
        ("cycle", cls("a4")),               # (iv) 1^-1 a4 ...
        ("cycle", cls("a2")),               # (v)  a2^-1 1 ...
    }
    assert got == expected
    assert len(fams) == 7


def test_sec3_fn2_brute_force_completeness_to_length_10():
    s = scenario_fn2()
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    fams = enumerate_light_cycles(g, wf)
    covered = set()
    for f in fams:
        for exp in expansions_upto(f, 5):
            if len(exp) <= 12:
                covered.add(canonical_atom_edge_cycle(exp))
    walks = reduced_closed_walks(g, 10, wf, Fraction(2))
    assert walks, "expected some light walks"
    for w in walks:
        assert canonical_atom_edge_cycle(w) in covered, f"family list missed {w}"


def test_all_weights_one_single_loops_only():
    text = """\
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a2 a3 a4
gens B: b1 b2 b3 b4
indet: X
relator: a1 X b1 X^-1 a2 X b2 X^-1 a3 X b3 X^-1 a4 X b4 X^-1
"""
    text += "".join(f"weight: label:a{i} = 1\nweight: label:b{i} = 1\n" for i in range(1, 5))
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    fams = enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
    # brute force: the only reduced closed walks of weight < 2 are the 8 loops
    order = s.presentation.symbol_order
    labels = {decode(canonical_cyclic_class(f.base_label()), order) for f in fams}
    expected = {W(f"{x}{i}") for x in "ab" for i in range(1, 5)}
    assert labels == expected
    assert all(f.kind == "cycle" and not f.pumps for f in fams)


def test_verify_fn1_pairwise_distinct_aspherical():
    report = verify_weight_test(scenario_fn1())
    assert report.verdict == "Aspherical"
    assert all(rc.passed for rc in report.relator_checks)


def test_verify_fn1_missing_fact_reports_violation():
    text = SEC3_BASE.format(exp="") + PAIRWISE_DISTINCT.replace("fact: neq a2 a4\n", "")
    s = parse_scenario(text + FN1_WEIGHTS, name="mutated")
    report = verify_weight_test(s)
    assert report.verdict == "PotentialViolations"
    survivors = {canonical_cyclic_class(v.family.base_label()) for v in report.violations}
    assert cls("a2 a4^-1") in survivors


def test_verify_fn2_reports_the_paper_families():
    report = verify_weight_test(scenario_fn2())
    # (i) is refuted when a2 != a4 is known; without that fact it survives too
    assert report.verdict == "PotentialViolations"
    assert len(report.violations) == 7


def test_monotone_in_facts():
    base = SEC3_BASE.format(exp="") + FN1_WEIGHTS
    weak = verify_weight_test(parse_scenario(base))
    strong = verify_weight_test(parse_scenario(base.replace("fact: neq a4 1\n",
                                                            "fact: neq a4 1\n" + PAIRWISE_DISTINCT)))
    weak_refuted = {v.family.display() for v in weak.families if v.refuted}
    strong_refuted = {v.family.display() for v in strong.families if v.refuted}
    assert weak_refuted <= strong_refuted
    assert strong.verdict == "Aspherical"


def test_gamma8_style_scenario_aspherical():
    text = """\
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a3
gens B: b1 b2 b3
indet: X Y
relator: Y^-1 X a1^-1 X^-1 b2 X a3 X^-1
relator: b1 Y b3 Y^-1
fact: neq a1 1
fact: neq a3 1
fact: neq b1 1
fact: neq b2 1
fact: neq b3 1
fact: notincyclic a3 a1   # A = <a1, a3> noncyclic
fact: notincyclic a1 a3   # A = <a1, a3> noncyclic
weight: label:1#0 = 1
weight: label:1#1 = 1
weight: label:a3 = 1
weight: label:a1^-1 = 0
weight: label:b2 = 0
weight: label:b3 = 0
weight: label:b1 = 0
"""
    report = verify_weight_test(parse_scenario(text, name="gamma8"))
    assert report.verdict == "Aspherical", [v.family.display() for v in report.violations]


DEGENERATE = """\
factor A
gens A: a1 a2
indet: t
relator: a1 t^2 a2 t^2
weight: label:a1 = 1
weight: label:a2 = 1
weight: label:1#0 = 0
weight: label:1#1 = 0
"""


def test_degenerate_zero_cycle_error():
    s = parse_scenario(DEGENERATE)
    g = build_star_graph(s.presentation)
    with pytest.raises(DegenerateZeroCycleError):
        enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))


def test_check_weights_reports_a_degenerate_zero_cycle_as_a_violation(tmp_path, capsys):
    # the zero cycle 1 1^-1 weighs 0 and its label is trivial: a closed path
    # the weight test cannot refute, so a verdict, not an input error
    path = tmp_path / "degenerate.scn"
    path.write_text(DEGENERATE)
    assert main(["check-weights", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "note: degenerate zero cycle: zero-weight cycle 1 1^-1 has empty label" in out
    assert out[-1] == "verdict: PotentialViolations"


def test_entangled_zero_subgraph_error():
    text = """\
factor A
factor B
gens A: a1 a2
gens B: b1 b2
indet: X
relator: a1 X b1 X^-1 a2 X b2 X^-1
weight: label:b1 = 0
weight: label:b2 = 0
weight: label:a1 = 1
weight: label:a2 = 1
"""
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    with pytest.raises(EntangledZeroSubgraphError):
        enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
    report = verify_weight_test(s)
    assert report.verdict == "PotentialViolations" and report.notes


def test_trivial_cycles_length_two():
    # Case 1(ii) style graph with two identity edges: candidates are a1 a3^-1
    # (no fact separates a1 from a3) and 1 1^-1 (two distinct identity edges)
    text = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t^2 a2 t a3 t a4 t^2
fact: neq a1 1
fact: neq a2 1
fact: neq a3 1
fact: neq a4 1
fact: neq a1 a2
fact: neq a2 a3
fact: neq a3 a4
fact: neq a4 a1
fact: neq a2 a4
"""
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    cycles = enumerate_trivial_cycles(g, 2, fb)
    displays = sorted(c.display() for c in cycles)
    assert displays == ["1 1^-1", "a1 a3^-1"]


def test_trivial_cycles_empty_factbase_lists_all_pairs():
    text = "factor A\ngens A: a1 a2\nindet: t\nrelator: a1 t a2 t\n"
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    cycles = enumerate_trivial_cycles(g, 2, fb)
    assert sorted(c.display() for c in cycles) == ["a1 a2^-1"]


def test_trivial_cycles_length_four_candidates():
    # degree-4 vertex labels: the four length-4 label words survive while
    # powers and mixed pairs are refuted by the declared facts
    text = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t^2 a2 t a3 t a4 t^2
fact: neq a1 1
fact: neq a2 1
fact: neq a3 1
fact: neq a4 1
fact: neq a1 a2
fact: neq a2 a3
fact: neq a3 a4
fact: neq a4 a1
fact: neq a2 a4
fact: notincyclic a2 a4
fact: notincyclic a4 a2
"""
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    cycles = {c.atoms for c in enumerate_trivial_cycles(g, 4, fb)}

    def key(tokens):
        atoms = [
            (t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in tokens.split()
        ]
        inv = [(n, -d) for n, d in reversed(atoms)]
        cands = [tuple(seq[i:] + seq[:i]) for seq in (atoms, inv) for i in range(len(seq))]
        return min(cands, key=lambda c: [(n, 0 if d > 0 else 1) for n, d in c])

    for expected in (
        "a1 a4^-1 a2 a4^-1",
        "a3 a4^-1 a2 a4^-1",
        "a1 a2^-1 a4 a2^-1",
        "a3 a2^-1 a4 a2^-1",
    ):
        assert key(expected) in cycles, expected
    assert key("a2 a4^-1 a2 a4^-1") not in cycles  # (a2 a4^-1)^2 refuted, torsion-free


# -- the rooted walker against the unrooted DFS it replaced -------------------

CORPUS = Path(starweight.__file__).parent / "corpus"


def _corpus():
    out = []
    for path in sorted(CORPUS.glob("*.scn")):
        s = parse_scenario(path.read_text(), name=path.stem)
        out.append((s, build_star_graph(s.presentation)))
    return out


def _grid_text(k, q):
    """Relator a1 t ... ak t, facts ai != 1 and ai != aj, weight 1/q per corner."""
    gens = [f"a{i}" for i in range(1, k + 1)]
    lines = ["factor A noncyclic nontrivial", "gens A: " + " ".join(gens), "indet: t"]
    lines.append("relator: " + " ".join(f"{x} t" for x in gens))
    lines += [f"fact: neq {x} 1" for x in gens]
    lines += [f"fact: neq {x} {y}" for i, x in enumerate(gens) for y in gens[i + 1 :]]
    lines += [f"weight: 0.{c} = 1/{q}" for c in range(k)]
    return "\n".join(lines) + "\n"


# The reducedness check that the walker's mends and the family builder
# asked before ``_ZeroSubgraph.fits``, kept verbatim as the oracle of the
# fit test and of the reference walkers below.
def is_reduced(traversals: list[Traversal], cyclic: bool = False) -> bool:
    """No immediate backtracking (same edge, opposite direction, adjacent)."""
    n = len(traversals)
    pairs = range(n - 1) if not cyclic else range(n)
    for i in pairs:
        a, b = traversals[i], traversals[(i + 1) % n]
        if a.edge is b.edge and a.direction == -b.direction:
            return False
    return True


# The two DFS copies the rooted walker replaced, kept verbatim as oracles:
# both start from both directions of every edge and keep every rotation.


def _reference_skeletons(
    g: StarGraph,
    wf: WeightFunction,
    threshold: Fraction,
    zsub: "_ZeroSubgraph",
    budget: int = 2_000_000,
    max_marked: int = 4,
    max_len: int = 40,
) -> list[tuple[tuple[Traversal, ...], frozenset]]:
    """Closed paths with >= 1 positive edge, positive weight < threshold and
    vertex-simple zero runs.  A traversal may immediately backtrack when a
    zero-weight pump exists at the turning vertex; such junctions are marked
    and a pump insertion there is mandatory (the bare base is not reduced).
    Returns (path, marked junction indices)."""
    positive = [
        t
        for e in g.edges
        if wf[e.edge_id] > 0
        for t in (Traversal(e, +1), Traversal(e, -1))
    ]
    results: list[tuple[tuple[Traversal, ...], frozenset]] = []
    steps = 0
    for t0 in positive:
        if wf[t0.edge.edge_id] >= threshold:
            continue
        stack = [((t0,), wf[t0.edge.edge_id], frozenset([t0.end]), frozenset())]
        while stack:
            path, pos_used, run_seen, marked = stack.pop()
            steps += 1
            if steps > budget:
                raise WeightError("light-cycle enumeration budget exceeded")
            cur = path[-1].end
            if cur == t0.start:
                # internal junctions are reduced-or-marked by construction
                seam_backtrack = (
                    path[-1].edge is t0.edge
                    and path[-1].direction == -t0.direction
                    and len(path) > 1
                )
                if not seam_backtrack:
                    results.append((path, marked))
                elif len(marked) < max_marked and zsub.pumps_at(cur):
                    results.append((path, marked | {len(path) - 1}))
            if len(path) >= max_len:
                continue
            for t in g.incident(cur):
                backtrack = t.edge is path[-1].edge and t.direction == -path[-1].direction
                new_marked = marked
                if backtrack:
                    if len(marked) >= max_marked or not zsub.pumps_at(cur):
                        continue
                    new_marked = marked | {len(path) - 1}
                w = wf[t.edge.edge_id]
                if w > 0:
                    if pos_used + w >= threshold:
                        continue
                    stack.append((path + (t,), pos_used + w, frozenset([t.end]), new_marked))
                elif backtrack:
                    stack.append((path + (t,), pos_used, frozenset([t.end]), new_marked))
                else:
                    if t.end in run_seen:
                        continue  # zero runs are vertex-simple; revisits belong to pumps
                    stack.append((path + (t,), pos_used, run_seen | {t.end}, new_marked))
    return results


def _reference_reduced_closed_walks(
    g: StarGraph,
    max_len: int,
    wf: WeightFunction | None = None,
    threshold: Fraction | None = None,
    budget: int = 5_000_000,
) -> list[tuple[Traversal, ...]]:
    """All cyclically reduced closed walks up to max_len, one per canonical
    (rotation/inversion) class; optionally only those of weight < threshold."""
    out: dict[tuple, tuple[Traversal, ...]] = {}
    steps = 0
    starts = [t for e in g.edges for t in (Traversal(e, +1), Traversal(e, -1))]
    for t0 in starts:
        if wf is not None and threshold is not None and wf[t0.edge.edge_id] >= threshold:
            continue
        stack = [((t0,), wf[t0.edge.edge_id] if wf else Fraction(0))]
        while stack:
            path, used = stack.pop()
            steps += 1
            if steps > budget:
                raise WeightError("walk enumeration budget exceeded")
            if path[-1].end == t0.start and is_reduced(list(path), cyclic=True):
                out.setdefault(canonical_atom_edge_cycle(path), path)
            if len(path) == max_len:
                continue
            for t in g.incident(path[-1].end):
                if t.edge is path[-1].edge and t.direction == -path[-1].direction:
                    continue
                w = wf[t.edge.edge_id] if wf else Fraction(0)
                if threshold is not None and wf is not None and used + w >= threshold:
                    continue
                stack.append((path + (t,), used + w))
    return [out[k] for k in sorted(out)]


def test_reduced_closed_walks_match_reference():
    # same paths in the same order: the first walk found per class survives rooting
    weighted = 0
    for s, g in _corpus():
        assert reduced_closed_walks(g, 4) == _reference_reduced_closed_walks(g, 4), s.name
        if s.weights:
            weighted += 1
            wf = WeightFunction.from_scenario(s, g)
            want = _reference_reduced_closed_walks(g, 10, wf, Fraction(2))
            assert reduced_closed_walks(g, 10, wf, Fraction(2)) == want, s.name
    assert weighted == 49


def _skeletons(g, wf, threshold, zsub):
    """(path, marked) per path the walker emits for the family list."""
    walks = _closed_walks(g, wf, threshold, zsub, 40, 2_000_000)
    return [(path, marked) for path, marked, _ in walks]


def _first_copies(walks):
    """The walks, each a tuple that starts with its path, less every one
    whose edge class an earlier one has, in order."""
    seen, out = set(), []
    for walk in walks:
        key = canonical_atom_edge_cycle(walk[0])
        if key not in seen:
            seen.add(key)
            out.append(walk)
    return out


def _unmendable(zsub, path, marked):
    """Some marked junction admits no pump that keeps it reduced."""
    def mends(q, prefix, cycle):
        back = [t.reverse() for t in reversed(prefix)]
        return is_reduced([path[q], *prefix, *cycle, *back, path[(q + 1) % len(path)]])

    return any(
        not any(mends(q, prefix, cycle) for prefix, cycle in zsub.pumps_at(path[q].end))
        for q in marked
    )


def _turns_back_over_zero(zsub, path):
    """Some junction of the closed path turns back over a zero-subgraph edge."""
    zero = {e.edge_id for e in zsub.edges}
    return any(
        a.edge is b.edge and a.direction == -b.direction and a.edge.edge_id in zero
        for a, b in zip(path, path[1:] + path[:1])
    )


def test_closed_walks_first_skeleton_per_class_matches_reference():
    # the reference also turns back over zero edges, which the walker never
    # does; less those, rooting loses no class and finds the same first
    # skeleton of each
    cases = [(s.name, s, g) for s, g in _corpus() if s.weights]
    for k, q in ((4, 3), (4, 4), (5, 3)):
        s = parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        cases.append((s.name, s, build_star_graph(s.presentation)))
    checked = 0
    for name, s, g in cases:
        wf = WeightFunction.from_scenario(s, g)
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        want = _first_copies(
            (p, m) for p, m in _reference_skeletons(g, wf, Fraction(2), zsub)
            if not _turns_back_over_zero(zsub, p)
        )
        assert _first_copies(_skeletons(g, wf, Fraction(2), zsub)) == want, name
        checked += 1
    assert checked >= 40


def test_families_cover_every_light_walk_to_length_10():
    # families are deduplicated by label atoms (px20_w's loops 1.0 and 1.2
    # both read b2), so coverage is compared by atoms, not by edge ids
    checked = 0
    for s, g in _corpus():
        if not s.weights:
            continue
        wf = WeightFunction.from_scenario(s, g)
        try:
            fams = enumerate_light_cycles(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        covered = {canonical_atom_cycle(list(w)) for f in fams for w in expansions_upto(f, 10)}
        for w in _reference_reduced_closed_walks(g, 10, wf, Fraction(2)):
            assert canonical_atom_cycle(list(w)) in covered, (s.name, w)
        checked += 1
    assert checked >= 40


# -- the pruned walker against the reference, path for path -------------------


def _rooted(g, zsub, path):
    """A path the rooted walker walks: it starts with the forward traversal
    of its least edge outside the zero subgraph."""
    zero = {e.edge_id for e in zsub.edges}
    rank = {e.edge_id: i for i, e in enumerate(g.edges)}
    least = min(rank[t.edge.edge_id] for t in path if t.edge.edge_id not in zero)
    return path[0].direction > 0 and rank[path[0].edge.edge_id] == least


def _pruned_reference(g, wf, threshold, zsub):
    """The reference skeletons the walker lists: rooted, mendable, never
    turning back over a zero edge, and the first of each edge class."""
    return _first_copies(
        (path, marked)
        for path, marked in _reference_skeletons(g, wf, threshold, zsub)
        if _rooted(g, zsub, path)
        and not _unmendable(zsub, path, marked)
        and not _turns_back_over_zero(zsub, path)
    )


def test_closed_walks_are_the_rooted_mendable_reference_skeletons():
    # rooting keeps the reference's DFS order, a refused backtrack drops
    # exactly the paths with an unmendable marked junction or a turn over a
    # zero edge, and of each edge class only the first path is listed
    cases = [(s.name, s, g) for s, g in _corpus() if s.weights]
    for k, q in ((4, 3), (4, 4), (5, 3)):
        s = parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        cases.append((s.name, s, build_star_graph(s.presentation)))
    checked = pruned = 0
    for name, s, g in cases:
        wf = WeightFunction.from_scenario(s, g)
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        got = _skeletons(g, wf, Fraction(2), zsub)
        rooted = [
            (p, m) for p, m in _reference_skeletons(g, wf, Fraction(2), zsub) if _rooted(g, zsub, p)
        ]
        want = _first_copies(
            (p, m) for p, m in rooted if not _unmendable(zsub, p, m) and not _turns_back_over_zero(zsub, p)
        )
        assert got == want, name
        pruned += len(rooted) - len(got)
        checked += 1
    assert checked >= 40 and pruned > 0


SEVENTHS = SEC3_BASE.format(exp="^2") + """\
weight: label:a1 = 4/7
weight: label:a2 = 0
weight: label:a3 = 5/7
weight: label:a4 = 0
weight: label:1 = 6/7
"""
THIRDS = _grid_text(4, 3).replace("weight: 0.3 = 1/3", "weight: 0.3 = 2/3")


@pytest.mark.parametrize(
    "text, threshold, exact",
    [
        (THIRDS, Fraction(5, 3), True),  # 2/3 + 1/3 + 1/3 + 1/3
        (THIRDS, Fraction(7, 4), False),
        (SEVENTHS, Fraction(5, 3), False),
        (SEVENTHS, Fraction(7, 4), False),  # 12/7 < 7/4 lies just below the threshold
        (SEVENTHS, Fraction(12, 7), True),  # 6/7 + 6/7
    ],
    ids=["thirds-5/3", "thirds-7/4", "sevenths-5/3", "sevenths-7/4", "sevenths-12/7"],
)
def test_closed_walks_integer_scaling_matches_fraction_reference(text, threshold, exact):
    # the walker compares scaled ints, the reference compares Fractions
    s = parse_scenario(text)
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    zsub, _ = zero_cycle_families(g, wf)
    got = _skeletons(g, wf, threshold, zsub)
    assert got and got == _pruned_reference(g, wf, threshold, zsub)
    assert all(_weight(wf, p) < threshold for p, _ in got)
    above = _reference_skeletons(g, wf, threshold + Fraction(1, 1000), zsub)
    assert any(_weight(wf, p) == threshold for p, _ in above) == exact


def _weight(wf, path):
    """The path's weight as a plain Fraction sum."""
    return sum((wf[t.edge.edge_id] for t in path), Fraction(0))


def test_closed_walks_hand_back_each_weight_in_units_of_the_scale():
    # every path the walker emits, for the family list and for the walk
    # without a zero subgraph, carries its weight as an int over
    # _weight_scale; the families are weighed and sorted from those ints alone
    cases = [(s.name, s, Fraction(2)) for s, _ in _corpus() if s.weights]
    cases += [("thirds", parse_scenario(THIRDS), t) for t in (Fraction(5, 3), Fraction(7, 4))]
    cases += [("sevenths", parse_scenario(SEVENTHS), t) for t in (Fraction(12, 7), Fraction(7, 4))]
    cases += [
        (f"grid k={k} q={q}", parse_scenario(_grid_text(k, q)), Fraction(2))
        for k, q in ((4, 3), (4, 5), (5, 4), (6, 4))
    ]
    paths = families = 0
    for name, s, threshold in cases:
        g = build_star_graph(s.presentation)
        wf = WeightFunction.from_scenario(s, g)
        scale = _weight_scale(g, wf, threshold)
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        for walker in (zsub, _ZeroSubgraph([])):
            for path, _, used in _closed_walks(g, wf, threshold, walker, GUARD_LEN + 4, 2_000_000):
                assert isinstance(used, int) and Fraction(used, scale) == _weight(wf, path), name
                paths += 1
        fams = enumerate_light_cycles(g, wf, threshold)
        assert all(f.weight == _weight(wf, f.base) for f in fams), name
        assert fams == sorted(fams, key=lambda f: (f.weight, f.display())), name
        families += len(fams)
    assert paths > 10_000 and families > 2_000, (paths, families)


# -- the guard of the weight test, now the oracle of completeness ----------------


def test_guard_reports_an_unrefuted_uncovered_walk(monkeypatch):
    # without a neq a2 a4 fact the two-edge walk a2 a4^-1 stays unrefuted; with
    # no families to cover it, only the guard can report it
    text = SEC3_BASE.format(exp="") + PAIRWISE_DISTINCT.replace("fact: neq a2 a4\n", "")
    s = parse_scenario(text + FN1_WEIGHTS, name="mutated")
    assert not any(v.witness == NOT_COVERED for v in guarded_report(s).families)
    monkeypatch.setattr(weights_module, "enumerate_light_cycles", lambda *a, **k: [])
    assert not verify_weight_test(s).families
    report = guarded_report(s)
    assert report.verdict == "PotentialViolations"
    assert report.violations and all(
        v.witness == NOT_COVERED and not v.family.pumps for v in report.violations
    )
    g, fb = build_star_graph(s.presentation), FactBase(s.presentation, s.fact_decls)
    walks = reduced_closed_walks(g, 6, WeightFunction.from_scenario(s, g), Fraction(2))
    unrefuted = [w for w in walks if not fb.refute_trivial(path_label(w))]
    assert 0 < len(unrefuted) < len(walks)
    assert [v.family.base for v in report.violations] == unrefuted
    survivors = {canonical_cyclic_class(v.family.base_label()) for v in report.violations}
    assert cls("a2 a4^-1") in survivors


def _on_guard_walks(monkeypatch, then):
    """Route the guard's walk list, the one walk to ``GUARD_LEN``, through
    ``then(walk, args)``; the family list's walk is left as it is."""
    walk = weights_module._closed_walks

    def spy(g, wf, threshold, zsub, max_len, budget, *rest):
        args = (g, wf, threshold, zsub, max_len, budget, *rest)
        return then(walk, args) if max_len == GUARD_LEN else walk(*args)

    monkeypatch.setattr(weights_module, "_closed_walks", spy)


def test_guard_budget_note_forbids_aspherical(monkeypatch):
    # an oracle guard that ran out of steps says so, so a test that asserts
    # no guard note also asserts that the guard walked every short walk
    def exhausted(walk, args):
        raise WalkBudgetError("closed-walk enumeration budget exceeded")

    assert guarded_report(scenario_fn1()).verdict == "Aspherical"
    _on_guard_walks(monkeypatch, exhausted)
    report = guarded_report(scenario_fn1())
    assert report.notes == ["guard enumeration over length <= 6 skipped (budget)"]
    assert all(rc.passed for rc in report.relator_checks) and not report.violations
    assert report.verdict == "PotentialViolations"
    assert verify_weight_test(scenario_fn1()).verdict == "Aspherical"


# -- completeness on random small star graphs -------------------------------------

RANDOM_WEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


def _random_one_relator(rng):
    """A one-relator scenario with 2-4 corners over indeterminates t, u and
    coefficients over two factors, and a weight from RANDOM_WEIGHTS per edge."""
    coefficients = ["a1", "a2", "a1^-1", "a2^2", "b1", "b1^-1", "b2"]
    while True:
        tokens = []
        for _ in range(rng.randint(2, 4)):
            tokens += rng.sample(coefficients, rng.choice([0, 1, 1, 1, 2]))
            tokens.append(rng.choice(["t", "t^-1", "u", "u^-1"]))
        text = (
            "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
            "gens A: a1 a2\ngens B: b1 b2\nindet: t u\nrelator: " + " ".join(tokens) + "\n"
        )
        p = parse_scenario(text, name="random").presentation
        corners = sum(abs(e) for n, e in p.relators[0].letters if n in ("t", "u"))
        if 2 <= corners <= 4:  # free cancellation can drop corners
            g = build_star_graph(p)
            return g, WeightFunction({e.edge_id: rng.choice(RANDOM_WEIGHTS) for e in g.edges})


def _random_graphs(count):
    """The first ``count`` graphs of the seeded generator, in order."""
    rng = random.Random(zlib.crc32(b"random small star graphs"))
    return [_random_one_relator(rng) for _ in range(count)]


def test_families_cover_every_light_walk_on_random_small_star_graphs():
    # index 271 has the most candidates of the 300 (197, for 56 families)
    checked = pumped = 0
    for g, wf in _random_graphs(300):
        try:
            fams = enumerate_light_cycles(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        covered = {canonical_atom_cycle(list(w)) for f in fams for w in expansions_to_length(f, 10)}
        for w in _reference_reduced_closed_walks(g, 10, wf, Fraction(2)):
            assert canonical_atom_cycle(list(w)) in covered, (g.edges, wf.values, w)
        checked += 1
        pumped += any(f.pumps or f.kind == "power" for f in fams)
    assert checked >= 200 and pumped >= 15


# -- the zero subgraph against the simple-path search it replaced -----------------


class _ReferenceZeroSubgraph:
    """Component map, simple-path search and pump search of the zero subgraph
    as they stood before the pumps were built in one tree walk, and its
    leaf-stripping cycle finder as it stood before the one peel, kept
    verbatim as an oracle."""

    @staticmethod
    def _find_cycle(edges: list[Edge]) -> tuple[Traversal, ...]:
        # strip leaves until only the cycle remains
        remaining = list(edges)
        while True:
            degree: dict[Vertex, int] = {}
            for e in remaining:
                degree[e.src] = degree.get(e.src, 0) + 1
                degree[e.dst] = degree.get(e.dst, 0) + 1
            leaves = {v for v, d in degree.items() if d == 1}
            if not leaves:
                break
            remaining = [e for e in remaining if e.src not in leaves and e.dst not in leaves]
        start = min({e.src for e in remaining} | {e.dst for e in remaining},
                    key=lambda v: (v[0], -v[1]))
        walk: list[Traversal] = []
        used: set[str] = set()
        cur = start
        while True:
            options = []
            for e in remaining:
                if e.edge_id in used:
                    continue
                if e.src == cur:
                    options.append(Traversal(e, +1))
                if e.dst == cur and not e.is_loop:
                    options.append(Traversal(e, -1))
            if not options:
                break
            t = options[0]
            walk.append(t)
            used.add(t.edge.edge_id)
            cur = t.end
        assert cur == start and len(walk) == len(remaining)
        return tuple(walk)

    def __init__(self, g, zero_edges):
        self.g = g
        self.edges = zero_edges
        self.adj = {}
        for e in zero_edges:
            self.adj.setdefault(e.src, []).append(Traversal(e, +1))
            self.adj.setdefault(e.dst, []).append(Traversal(e, -1))
        self.component = {}
        comps = []
        for v in sorted(self.adj, key=lambda v: (v[0], -v[1])):
            if v in self.component:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                self.component[u] = len(comps)
                for t in self.adj.get(u, []):
                    if t.end not in comp:
                        comp.add(t.end)
                        stack.append(t.end)
            comps.append(comp)
        self.cycles = {}
        self._pumps = {}
        for ci, comp in enumerate(comps):
            ces = [e for e in zero_edges if e.src in comp]
            rank = len(ces) - len(comp) + 1
            if rank >= 2:
                raise EntangledZeroSubgraphError(
                    "zero-weight component at "
                    + ", ".join(sorted(weights_module.vertex_name(v) for v in comp))
                    + " has multiple independent cycles"
                )
            if rank == 1:
                self.cycles[ci] = self._find_cycle(ces)

    def simple_paths(self, src, dst):
        """Vertex-simple zero paths src -> dst (empty path when src == dst)."""
        out = []
        if src == dst:
            out.append(())
        stack = [(src, (), frozenset([src]))]
        while stack:
            v, path, seen = stack.pop()
            for t in self.adj.get(v, []):
                if t.end in seen:
                    continue
                np = path + (t,)
                if t.end == dst:
                    out.append(np)
                else:
                    stack.append((t.end, np, seen | {t.end}))
        return out

    def pumps_at(self, v):
        if v not in self._pumps:
            self._pumps[v] = self._find_pumps(v)
        return self._pumps[v]

    def _find_pumps(self, v):
        ci = self.component.get(v)
        if ci is None or ci not in self.cycles:
            return []
        cycle = self.cycles[ci]
        cycle_vertices = {t.start for t in cycle}
        out = []
        if v in cycle_vertices:
            prefixes = [()]
            anchors = [v]
        else:
            # tree paths from v whose interior stays off the cycle
            prefixes, anchors = [], []
            for w in sorted(cycle_vertices, key=lambda x: (x[0], -x[1])):
                for p in self.simple_paths(v, w):
                    if all(t.start not in cycle_vertices for t in p):
                        prefixes.append(p)
                        anchors.append(w)
        for prefix, w in zip(prefixes, anchors):
            i = next(k for k, t in enumerate(cycle) if t.start == w)
            based = cycle[i:] + cycle[:i]
            reversed_based = tuple(t.reverse() for t in reversed(based))
            out.append((prefix, based))
            out.append((prefix, reversed_based))
        return out


def _random_many_corners(rng):
    """A one-relator star graph with 3-9 corners over indeterminates t, u, v
    and each edge of weight zero with probability 0.6: the zero subgraph
    often has long trees hanging off its cycle."""
    coefficients = ["a1", "a2", "a1^-1", "b1", "b1^-1"]
    while True:
        tokens = []
        for _ in range(rng.randint(3, 9)):
            tokens += rng.sample(coefficients, rng.choice([0, 1, 1, 2]))
            tokens.append(rng.choice(["t", "t^-1", "u", "u^-1", "v", "v^-1"]))
        text = (
            "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
            "gens A: a1 a2\ngens B: b1\nindet: t u v\nrelator: " + " ".join(tokens) + "\n"
        )
        p = parse_scenario(text, name="random").presentation
        if any(n in ("t", "u", "v") for n, _ in p.relators[0].letters):
            g = build_star_graph(p)
            return g, [e for e in g.edges if rng.random() < 0.6]


def test_pumps_match_the_simple_path_search_they_replace():
    rng = random.Random(zlib.crc32(b"zero subgraph pumps"))
    cases = []
    for s, g in _corpus():
        if s.weights:
            wf = WeightFunction.from_scenario(s, g)
            cases.append((s.name, g, [e for e in g.edges if wf[e.edge_id] == 0]))
    for i in range(1000):
        g, wf = _random_one_relator(rng)
        cases.append((f"small {i}", g, [e for e in g.edges if wf[e.edge_id] == 0]))
    for i in range(3000):
        cases.append((f"many corners {i}", *_random_many_corners(rng)))
    compared = entangled = long_prefixes = 0
    for name, g, zero in cases:
        try:
            want = _ReferenceZeroSubgraph(g, zero)
        except EntangledZeroSubgraphError as e:
            with pytest.raises(EntangledZeroSubgraphError, match=f"^{re.escape(str(e))}$"):
                _ZeroSubgraph(zero)
            entangled += 1
            continue
        got = _ZeroSubgraph(zero)
        assert got.cycles == [want.cycles[ci] for ci in sorted(want.cycles)], name
        for v in g.vertices:
            assert got.pumps_at(v) == want.pumps_at(v), (name, v)
            long_prefixes += sum(len(prefix) >= 2 for prefix, _ in got.pumps_at(v))
        compared += 1
    assert compared >= 3000 and entangled >= 200 and long_prefixes >= 500


def test_pump_fit_matches_the_reduced_check_it_replaced():
    # every pump at every vertex between every arriving and leaving traversal
    # there; at_arrival and at_leaving count the misfits that only the
    # arriving or only the leaving end decides, so a fit that checks one end
    # only fails here
    cases = [(s.name, g, WeightFunction.from_scenario(s, g)) for s, g in _corpus() if s.weights]
    cases += [(f"random {i}", g, wf) for i, (g, wf) in enumerate(_random_graphs(300))]
    compared = prefixed = at_arrival = at_leaving = 0
    for name, g, wf in cases:
        try:
            zsub = _ZeroSubgraph([e for e in g.edges if wf[e.edge_id] == 0])
        except EntangledZeroSubgraphError:
            continue
        for v in g.vertices:
            leaving = g.incident(v)
            arriving = [s.reverse() for s in leaving]
            for prefix, cycle in zsub.pumps_at(v):
                pump = Pump(0, prefix, cycle).instance(1)
                for t in arriving:
                    for s in leaving:
                        want = is_reduced([t, *pump, s])
                        assert zsub.fits(t, prefix, cycle, s) == want, (name, t, prefix, cycle, s)
                        compared += 1
                        prefixed += bool(prefix)
                        at_arrival += not want and is_reduced([*pump, s])
                        at_leaving += not want and is_reduced([t, *pump])
    assert compared >= 3000 and prefixed >= 100 and at_arrival >= 500 and at_leaving >= 500


# -- pump shapes against the two enumerations they replaced -----------------------


def _reference_expansions_upto(fam, mmax):
    """``CycleFamily.expansions_upto`` before the shapes were shared, verbatim
    but for ``max(1, p.m_min)``, which was always 1."""
    if fam.kind == "power":
        return [fam.base * m for m in range(1, mmax + 1)]
    out = []
    mandatory = fam.mandatory_points()
    choices = []  # per point: (pump idx, m)
    points = sorted({p.insert_after for p in fam.pumps})
    for q in points:
        opts = []
        if q not in mandatory:
            opts.append(None)
        for pi, p in enumerate(fam.pumps):
            if p.insert_after == q:
                opts.extend((pi, m) for m in range(1, mmax + 1))
        choices.append(opts)
    for combo in itertools.product(*choices) if choices else [()]:
        ms = {pi: m for c in combo if c for pi, m in [c]}
        out.append(expansion(fam, ms))
    return out


def _reference_templates(fam):
    """``CycleFamily.templates`` before the shapes were shared, verbatim."""
    if fam.kind == "power":
        return [([()], [fam.base_label()])]
    mandatory = fam.mandatory_points()
    out = []
    if not mandatory:
        out.append(([fam.base_label()], []))
    points = sorted({p.insert_after for p in fam.pumps})
    by_point = {q: [p for p in fam.pumps if p.insert_after == q] for q in points}
    for r in range(1, len(points) + 1):
        for combo in itertools.combinations(points, r):
            if not mandatory <= set(combo):
                continue
            for choice in itertools.product(*(by_point[q] for q in combo)):
                segments = []
                pump_words = []
                qs = list(combo)
                for j, q in enumerate(qs):
                    prev = qs[j - 1]
                    if j == 0:
                        chunk = fam.base[qs[-1] + 1 :] + fam.base[: q + 1]
                    else:
                        chunk = fam.base[prev + 1 : q + 1]
                    segments.append(path_label(chunk))
                    pump_words.append(choice[j].label())
                out.append((segments, pump_words))
    return out


def _random_family(rng, g):
    """A cycle family over g's traversals: a random base of 1-8 steps, and at
    up to three of its positions one or two random pumps, all mandatory or
    all optional.  Shapes and expansions do not need a closed base."""
    steps = [t for v in g.vertices for t in g.incident(v)]
    base = tuple(rng.choice(steps) for _ in range(rng.randint(1, 8)))
    pumps = []
    for q in sorted(rng.sample(range(len(base)), min(len(base), rng.randint(0, 3)))):
        mandatory = rng.random() < 0.4
        for _ in range(rng.randint(1, 2)):
            prefix = tuple(rng.choice(steps) for _ in range(rng.randint(0, 2)))
            cycle = tuple(rng.choice(steps) for _ in range(rng.randint(1, 3)))
            pumps.append(weights_module.Pump(q, prefix, cycle, mandatory))
    return weights_module.CycleFamily(base, tuple(pumps), Fraction(0), "cycle")


def _edge_ids(paths):
    return sorted(tuple((t.edge.edge_id, t.direction) for t in w) for w in paths)


def test_templates_and_expansions_match_the_enumerations_they_replace():
    # templates in order, as the first unrefuted one is the printed witness;
    # expansions as a multiset, as every caller sorts them or makes a set
    graphs = [(s.name, g, WeightFunction.from_scenario(s, g)) for s, g in _corpus() if s.weights]
    for k, q in ((4, 3), (4, 4), (5, 3)):
        s = parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        g = build_star_graph(s.presentation)
        graphs.append((s.name, g, WeightFunction.from_scenario(s, g)))
    cases = []
    for name, g, wf in graphs:
        try:
            cases += [(name, fam) for fam in enumerate_light_cycles(g, wf)]
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            pass
    # real families on random graphs are few (random graph 271 has the most,
    # 56), so the random cases are random families on them
    rng = random.Random(zlib.crc32(b"pump shapes"))
    for i in range(600):
        g, _ = _random_one_relator(rng)
        cases.append((f"random {i}", _random_family(rng, g)))
    optional = mandatory = 0
    for name, fam in cases:
        assert fam.templates() == _reference_templates(fam), (name, fam.display())
        for m in (1, 2, 3):
            want = _edge_ids(_reference_expansions_upto(fam, m))
            assert _edge_ids(expansions_upto(fam, m)) == want, (name, fam.display(), m)
        # by length: those of expansions_upto that short, as a pump's cycle
        # has at least one traversal
        for length in (len(fam.base), GUARD_LEN, 8):
            want = [w for w in expansions_upto(fam, length) if len(w) <= length]
            assert _edge_ids(expansions_to_length(fam, length)) == _edge_ids(want), name
        optional += any(not p.mandatory for p in fam.pumps)
        mandatory += bool(fam.mandatory_points())
    assert len(cases) >= 1500 and optional >= 300 and mandatory >= 200


# -- labels whose compact strings collide ----------------------------------

COLLIDING_LABELS = """\
factor A noncyclic nontrivial
gens A: a b ab c
indet: t
relator: a b t ab t c t
fact: neq ab = c
weight: 0.0 = 1/3
weight: 0.1 = 1/3
weight: 0.2 = 1/3
"""


def test_labels_with_equal_compact_strings_stay_apart():
    # edges 0.0 (ab), 0.1 (c) and 0.2 (a b): the labels ab and a b both
    # render as "ab", yet every pair of the three edges is its own class
    s = parse_scenario(COLLIDING_LABELS)
    g = build_star_graph(s.presentation)

    cc = canonical_cyclic_class
    pairs = [cc(encode(W(text), s.presentation.code)) for text in ("ab c^-1", "a b c^-1", "ab b^-1 a^-1")]
    fams = enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
    short = [cc(path_label(f.base)) for f in fams if f.weight == Fraction(2, 3)]
    assert sorted(short) == sorted(pairs)
    # only ab c^-1 is refuted; a b c^-1 survives as a family of its own
    report = guarded_report(s)
    survivors = {cc(path_label(fv.family.base)): fv.witness for fv in report.violations}
    assert pairs[0] not in survivors and pairs[1] in survivors
    assert NOT_COVERED not in survivors.values()
    # without the fact, trivial-cycles lists all three length-2 classes
    bare = parse_scenario(COLLIDING_LABELS.replace("fact: neq ab = c\n", ""))
    fb = FactBase(bare.presentation, bare.fact_decls)
    labels = [cc(encode(c.label, bare.presentation.code)) for c in enumerate_trivial_cycles(g, 2, fb)]
    assert sorted(labels) == sorted(pairs)


def test_labels_with_equal_compact_strings_print_apart(tmp_path, capsys):
    # ab and a b both compact to "ab": cycles, check-weights and
    # trivial-cycles print those two in parentheses, letters apart, so that
    # no two listed classes read alike; c keeps its compact string
    path = tmp_path / "colliding.scn"
    path.write_text(COLLIDING_LABELS)
    bare = tmp_path / "bare.scn"
    bare.write_text(COLLIDING_LABELS.replace("fact: neq ab = c\n", ""))

    def lines(*argv):
        main(list(argv))
        return capsys.readouterr().out.splitlines()

    cycles = lines("cycles", str(path))[:-1]
    assert len(cycles) == len(set(cycles)) == 9
    assert "weight 2/3: (ab) c^-1" in cycles and "weight 2/3: c (a b)^-1" in cycles
    families = [line for line in lines("check-weights", str(path)) if " weight " in line]
    assert len(families) == len(set(families)) == 9
    assert "  SURVIVES weight 4/3: (ab) c^-1 (a b) c^-1" in families
    trivial = lines("trivial-cycles", str(bare), "--length", "2")
    assert trivial == ["(a b) (ab)^-1", "(a b) c^-1", "(ab) c^-1"]
    # an edge label shared by no other compact string prints as before
    g = build_star_graph(parse_scenario(COLLIDING_LABELS).presentation)
    assert [e.shown for e in g.edges] == ["(ab)", "c", "(a b)"]
    assert [e.label_str() for e in g.edges] == ["ab", "c", "ab"]


# -- the structural dedup key against the expansion key it replaced ---------------


def _reference_dedup_key(fam):
    """``CycleFamily.dedup_key`` before the structural key, verbatim: the
    label-atom classes of the expansions with each pump up to twice."""
    keys = {canonical_atom_cycle(list(w)) for w in expansions_upto(fam, 2)}
    return tuple(sorted(keys))


# random graph index -> families under the structural key, where the
# expansion key merges more; on every graph the two keys partition alike
DEDUP_EXCEPTIONS = {}


def _families_under(monkeypatch, g, wf, key):
    monkeypatch.setattr(weights_module, "_dedup_key", key)
    try:
        return [(f.base, f.pumps, f.weight, f.kind) for f in enumerate_light_cycles(g, wf)]
    finally:
        monkeypatch.undo()


def test_structural_dedup_key_partitions_as_the_expansion_key(monkeypatch):
    # every candidate enumerate_light_cycles keys, power families included,
    # falls into the same class under both keys, and the family kept per
    # class, the first found, is the same
    structural = weights_module._dedup_key

    def reference(base, pumps, kind="cycle"):
        return _reference_dedup_key(weights_module.CycleFamily(base, pumps, Fraction(0), kind))

    cases = [(s.name, g, WeightFunction.from_scenario(s, g)) for s, g in _corpus() if s.weights]
    for k, q in ((4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4)):
        s = parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        g = build_star_graph(s.presentation)
        cases.append((s.name, g, WeightFunction.from_scenario(s, g)))
    for i, (g, wf) in enumerate(_random_graphs(300)):
        if i not in DEDUP_EXCEPTIONS:
            cases.append((f"random {i}", g, wf))
        else:
            assert len(enumerate_light_cycles(g, wf)) == DEDUP_EXCEPTIONS[i]
    compared = pumped = 0
    for name, g, wf in cases:
        pairs = []

        def spy(base, pumps, kind="cycle"):
            key = structural(base, pumps, kind)
            pairs.append((key, reference(base, pumps, kind)))
            return key

        try:
            got = _families_under(monkeypatch, g, wf, spy)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        classes = len(set(pairs))
        assert len({k for k, _ in pairs}) == classes == len({r for _, r in pairs}), name
        assert got == _families_under(monkeypatch, g, wf, reference), name
        compared += 1
        pumped += sum(bool(pumps) for _, pumps, _, _ in got)
    assert compared >= 330 and pumped >= 80


# -- the guard against the eager coverage set it replaced -------------------------


def _reference_guard(s, report):
    """The walks the guard reported before ``covered`` was filtered by
    length, verbatim but for taking the family verdicts from the report of
    scenario s."""
    g, wf = report.graph, report.weight_function
    fb = FactBase(s.presentation, s.fact_decls)
    verdicts = [fv for fv in report.families if fv.witness != NOT_COVERED]
    covered = {
        canonical_cyclic_class(path_label(w))
        for fv in verdicts
        if not fv.refuted
        for w in expansions_upto(fv.family, GUARD_LEN)
    }
    walks = reduced_closed_walks(g, GUARD_LEN, wf, Fraction(2), budget=GUARD_BUDGET)
    out = []
    for w in walks:
        label = path_label(w)
        if covered and canonical_cyclic_class(label) in covered:
            continue
        if fb.refute_trivial(label):
            continue
        out.append(w)
    return out


def _random_scenario(g, wf, facts="fact: neq a1 a2\nfact: neq b1 1\n", gens_a="a1 a2"):
    """The random graph as a scenario, by default with two neq facts, so
    that some of its walks are refuted and some are not.  ``gens_a`` may
    declare generators of factor A that only the facts use."""
    return parse_scenario(
        "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
        f"gens A: {gens_a}\ngens B: b1 b2\nindet: t u\n"
        f"relator: {g.presentation.relators[0]}\n"
        + "".join(f"weight: {e.edge_id} = {wf[e.edge_id]}\n" for e in g.edges)
        + facts,
        name="random",
    )


# the reference guard builds the survivors' expansions with each pump up to
# GUARD_LEN times, exponential in their pumps: on random graph 271 its set
# takes about a minute and on 273 about 5 s, so the comparison skips these
# two graphs
# (the oracle guard runs on them in test_guard_on_random_graphs_271_and_273)
GUARD_SLOW = {271, 273}


def _unmended_walk_tables(*args):
    """``_walk_tables`` whose mend test mends no turn, so that the walker
    lists no path with a mandatory pump."""
    limit, _, alone, ends, steps_at, roots, dist = _walk_tables(*args)
    steps_at = {v: [(t, end, w, k, False) for t, end, w, k, _ in steps] for v, steps in steps_at.items()}
    return limit, lambda t: False, alone, ends, steps_at, roots, dist


@pytest.mark.parametrize("mended", [True, False], ids=["as-is", "no-mandatory-pumps"])
def test_guard_reports_what_the_eager_coverage_set_reports(monkeypatch, mended):
    # with no mandatory pumps the families miss every walk that needs one,
    # and only the guard can report those
    if not mended:
        monkeypatch.setattr(weights_module, "_walk_tables", _unmended_walk_tables)
    scenarios = [s for s, _ in _corpus() if s.weights]
    scenarios += [parse_scenario(_grid_text(k, q)) for k, q in ((4, 3), (4, 4), (4, 5), (5, 4))]
    scenarios += [
        _random_scenario(g, wf) for i, (g, wf) in enumerate(_random_graphs(300)) if i not in GUARD_SLOW
    ]
    checked = reported = 0
    for s in scenarios:
        report = guarded_report(s)
        if report.notes:  # an entangled or degenerate zero subgraph: no guard ran
            continue
        got = [fv.family.base for fv in report.families if fv.witness == NOT_COVERED]
        assert got == _reference_guard(s, report), s.name
        checked += 1
        reported += len(got)
    assert checked >= 320
    assert reported == 0 if mended else reported > 0


def _guard_cases():
    """The weighted corpus and grid cells (4,3)-(5,4) as scenarios."""
    scenarios = [s for s, _ in _corpus() if s.weights]
    return scenarios + [
        parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        for k, q in ((4, 3), (4, 4), (5, 3), (5, 4))
    ]


def test_refuted_families_refute_each_short_expansion_on_its_own():
    # the search's cuts trust that a walk a refuted family spells is refuted
    # on its own label (the search module docstring), as the oracle guard
    # trusts the family's template refutation; here each such expansion is
    # put to a fresh fact base on its own label
    scenarios = _guard_cases() + [_random_scenario(g, wf) for g, wf in _random_graphs(300)]
    checked = families = 0
    for s in scenarios:
        report = verify_weight_test(s)
        fb = FactBase(s.presentation, s.fact_decls)
        for fv in report.families:
            if fv.refuted:
                families += 1
                for x in expansions_to_length(fv.family, GUARD_LEN):
                    assert fb.refute_trivial(path_label(x)), (s.name, fv.family.display(), x)
                    checked += 1
    assert families > 500 and checked > 1500


def test_guard_asks_nothing_about_a_walk_some_family_spells(monkeypatch):
    # every refute_trivial question the guard puts (not the ones nested
    # inside another) is about the label of a walk no family spells
    state = {"guard": False, "depth": 0, "walks": []}
    asked = []
    refute = FactBase.refute_trivial

    def guard_walks(walk, args):
        walks = walk(*args)
        state["walks"] = [path for path, _, _ in walks]
        state["guard"] = True  # the families are refuted; the guard starts
        return walks

    def spy(self, w):
        if state["guard"] and state["depth"] == 0:
            asked.append(w)
        state["depth"] += 1
        try:
            return refute(self, w)
        finally:
            state["depth"] -= 1

    _on_guard_walks(monkeypatch, guard_walks)
    monkeypatch.setattr(FactBase, "refute_trivial", spy)
    spelled_walks = walks = 0
    for s in _guard_cases():
        state["guard"] = False
        asked.clear()
        report = guarded_report(s)
        spelled = {
            canonical_atom_cycle(x)
            for fv in report.families
            if fv.witness != NOT_COVERED
            for x in expansions_to_length(fv.family, GUARD_LEN)
        }
        unspelled = [w for w in state["walks"] if canonical_atom_cycle(w) not in spelled]
        assert len(asked) <= len(unspelled), s.name
        assert set(asked) <= {path_label(w) for w in unspelled}, s.name
        walks += len(state["walks"])
        spelled_walks += len(state["walks"]) - len(unspelled)
    assert walks > 1500 and spelled_walks == walks


def test_guard_on_random_graphs_271_and_273():
    # the survivors of these two carry up to 10 pumps each; the guard builds
    # only expansions of at most GUARD_LEN traversals and finds every walk
    # among them, with and without the two facts
    graphs = _random_graphs(274)
    for i, survivors in ((271, 56), (273, 25)):
        g, wf = graphs[i]
        for facts in ("", "fact: neq a1 a2\nfact: neq b1 1\n"):
            report = guarded_report(_random_scenario(g, wf, facts))
            assert len(report.violations) == survivors, (i, facts)
            assert not any(fv.witness == NOT_COVERED for fv in report.families)
            assert report.verdict == "PotentialViolations" and not report.notes


# -- the guard against the memo-first guard it replaced ---------------------------


def _memo_first_report(s):
    """(verdicts, notes) of ``verify_weight_test`` before its guard keyed
    each raw walk once: its body verbatim, but for the memo lookup, which
    reads ``fb._refuted`` where ``FactBase.known_refuted`` stood, and the
    spellings ``oracle_guard`` gives for the parts that left ``src/``."""
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    wf = WeightFunction.from_scenario(s, g)
    notes = []
    try:
        families = weights_module.enumerate_light_cycles(g, wf)
    except (EntangledZeroSubgraphError, DegenerateZeroCycleError) as e:
        return [], [str(e)]
    verdicts = []
    for fam in families:
        v, witness = oracle_eager_witness._refute_family_all(fb, fam)
        verdicts.append(weights_module.FamilyVerdict(fam, v, witness))

    # belt-and-suspenders guard: short walks must be refuted or reported
    try:
        walks = reduced_closed_walks(g, GUARD_LEN, wf, Fraction(2), budget=GUARD_BUDGET)
    except WalkBudgetError:
        walks = []
        notes.append(f"guard enumeration over length <= {GUARD_LEN} skipped (budget)")
    spelled = None
    for w in walks:
        label = path_label(w)
        if label in fb._refuted:
            continue
        if spelled is None:
            spelled = {
                canonical_atom_cycle(x) for f in families for x in expansions_to_length(f, GUARD_LEN)
            }
        if canonical_atom_cycle(w) in spelled or fb.refute_trivial(label):
            continue
        fam = weights_module.CycleFamily(w, (), _weight(wf, w), "cycle")
        verdicts.append(weights_module.FamilyVerdict(fam, UNKNOWN, witness=NOT_COVERED))
    return verdicts, notes


def _verdict_rows(verdicts):
    return [
        (fv.family.base, fv.family.pumps, fv.family.weight, fv.verdict, fv.witness)
        for fv in verdicts
    ]


@pytest.mark.parametrize("families", ["as-is", "none"])
def test_guard_reports_what_the_memo_first_guard_reports(monkeypatch, families):
    # same verdicts, witnesses and order, and the same words put to
    # _refute_cyclic in the same order; with no families every walk the fact
    # base cannot refute is reported, so the order of reported walks is
    # compared as well
    if families == "none":
        monkeypatch.setattr(weights_module, "enumerate_light_cycles", lambda *a, **k: [])
    asked = []
    refute_cyclic = FactBase._refute_cyclic

    def spy(self, w):
        asked.append(w)
        return refute_cyclic(self, w)

    monkeypatch.setattr(FactBase, "_refute_cyclic", spy)
    scenarios = [s for s, _ in _corpus() if s.weights]
    scenarios += [
        parse_scenario(_grid_text(k, q), name=f"grid k={k} q={q}")
        for k, q in ((4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (6, 3))
    ]
    graphs = _random_graphs(300)
    scenarios += [_random_scenario(g, wf) for g, wf in graphs]
    scenarios += [_random_scenario(g, wf, facts="") for g, wf in graphs]
    reported = 0
    for s in scenarios:
        asked.clear()
        report = guarded_report(s)
        got, got_asked = _verdict_rows(report.families), list(asked)
        asked.clear()
        want, notes = _memo_first_report(s)
        assert got == _verdict_rows(want) and report.notes == notes, s.name
        assert got_asked == asked, s.name
        reported += sum(fv.witness == NOT_COVERED for fv in report.families)
    assert len(scenarios) == 655
    assert reported > 1000 if families == "none" else reported == 0


def test_check_weights_prints_survivors_alike_under_two_hash_seeds(tmp_path):
    # the families' order comes from sorted keys, never from the iteration
    # order of a set or dict of hashed strings
    # without the pairwise neq facts every a_i a_j^-1 family survives
    path = tmp_path / "bare.scn"
    path.write_text(SEC3_BASE.format(exp="") + FN1_WEIGHTS)
    src = str(Path(starweight.__file__).parent.parent)
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "starweight.cli", "check-weights", str(path)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"  SURVIVES ") > 1


# -- the parts of the dedup key that no walker candidate tells apart ----------------


def _variants(fam, rng):
    """(kind, family) pairs: the family rotated and inverted, which spell the
    same label sequences; with one gap's mandatory flags flipped; and with
    one gap's last entry, in key order, left out."""
    n, out = len(fam.base), []
    r = rng.randrange(n)
    out.append(("rotated", weights_module.CycleFamily(
        fam.base[r:] + fam.base[:r],
        tuple(dataclasses.replace(p, insert_after=(p.insert_after - r) % n) for p in fam.pumps),
        fam.weight, fam.kind,
    )))
    # read backwards, the gap after b_i follows b_(i+1)^-1, and each pump
    # keeps its prefix and runs its cycle the other way
    out.append(("inverted", weights_module.CycleFamily(
        tuple(t.reverse() for t in reversed(fam.base)),
        tuple(
            dataclasses.replace(
                p,
                insert_after=(n - 2 - p.insert_after) % n,
                cycle=tuple(t.reverse() for t in reversed(p.cycle)),
            )
            for p in fam.pumps
        ),
        fam.weight, fam.kind,
    )))
    points = sorted({p.insert_after for p in fam.pumps})
    if points:
        q = rng.choice(points)
        out.append(("flag", weights_module.CycleFamily(
            fam.base,
            tuple(
                dataclasses.replace(p, mandatory=not p.mandatory) if p.insert_after == q else p
                for p in fam.pumps
            ),
            fam.weight, fam.kind,
        )))
    crowded = [q for q in points if sum(p.insert_after == q for p in fam.pumps) > 1]
    if crowded:
        q = rng.choice(crowded)
        last = max((p for p in fam.pumps if p.insert_after == q), key=lambda p: p.key_entries[0])
        out.append(("entry", weights_module.CycleFamily(
            fam.base, tuple(p for p in fam.pumps if p is not last), fam.weight, fam.kind
        )))
    return out


def test_dedup_key_sees_the_mandatory_flag_and_every_gap_entry():
    # no candidate of the walker differs from another only in a pump's
    # mandatory flag or in a gap's second entry, yet the merge is sound only
    # if the key sees both: here hand-made families that differ only there
    # must key apart, while rotations and inversions key together
    g = build_star_graph(scenario_fn1().presentation)
    a1, a2, a3, a4 = (Traversal(e, +1) for e in g.edges)
    Pump, CycleFamily = weights_module.Pump, weights_module.CycleFamily
    base = (a1, a2)
    optional = CycleFamily(base, (Pump(0, (), (a3,)),), Fraction(0), "cycle")
    mandatory = CycleFamily(base, (Pump(0, (), (a3,), True),), Fraction(0), "cycle")
    both = CycleFamily(base, (Pump(0, (), (a3,)), Pump(0, (), (a4,))), Fraction(0), "cycle")
    for one, other in ((optional, mandatory), (optional, both), (mandatory, both)):
        assert _reference_dedup_key(one) != _reference_dedup_key(other)
        assert weights_module._dedup_key(one.base, one.pumps) != weights_module._dedup_key(
            other.base, other.pumps
        )
    rng = random.Random(zlib.crc32(b"dedup key variants"))
    seen = {"rotated": 0, "inverted": 0, "flag": 0, "entry": 0}
    for _ in range(400):
        rg, _ = _random_one_relator(rng)
        fam = _random_family(rng, rg)
        key, want = weights_module._dedup_key(fam.base, fam.pumps), _reference_dedup_key(fam)
        for kind, variant in _variants(fam, rng):
            same = _reference_dedup_key(variant) == want
            assert (weights_module._dedup_key(variant.base, variant.pumps) == key) == same, (
                kind, fam.display(), variant.display()
            )
            assert same == (kind in ("rotated", "inverted")), (kind, fam.display())
            seen[kind] += 1
    assert min(seen.values()) >= 100, seen


# -- the walker against the one that turned back over zero edges ------------------

EQ_FACTS = "fact: eq a1^2 = a2\nfact: neq a1 1\n"
SPELL_LEN = 8  # families are compared by the classes their expansions this short spell


def _spelled_per_family(report):
    return [
        {canonical_atom_cycle(x) for x in expansions_to_length(fv.family, SPELL_LEN)}
        for fv in report.families
    ]


def _walker_cases():
    """(name, scenarios) of the weighted corpus, grid cells (4,3)-(6,4) and
    random graphs 0-299, each random graph with its own two neq facts and
    again with ``EQ_FACTS``."""
    cases = [(s.name, [s]) for s, _ in _corpus() if s.weights]
    cases += [
        (f"grid k={k} q={q}", [parse_scenario(_grid_text(k, q))])
        for k, q in ((4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (6, 3), (6, 4))
    ]
    cases += [
        (f"random {i}", [_random_scenario(g, wf), _random_scenario(g, wf, EQ_FACTS)])
        for i, (g, wf) in enumerate(_random_graphs(300))
    ]
    return cases


def test_walker_drops_only_zero_backtracks_and_each_class_lies_in_one_family(monkeypatch):
    # the walker before, kept in oracle_walker, also let a base run out over a
    # zero tree edge and turn back with a mandatory pump at the turn; such a
    # base spells only what the base without the excursion spells through an
    # optional pump, so dropping it loses no class, and the duplicates go
    walked = dropped = shared = pumped = 0
    for name, scenarios in _walker_cases():
        with monkeypatch.context() as m:
            m.setattr(weights_module, "_closed_walks", oracle_walker._closed_walks)
            wants = [guarded_report(s) for s in scenarios]
        gots = [guarded_report(s) for s in scenarios]
        want, got = wants[0], gots[0]
        if not (want.notes or got.notes):  # no entangled or degenerate zero subgraph
            # (ii) the families spell the same classes, and (iii) no class lies in two
            spelled, spelled_before = _spelled_per_family(got), _spelled_per_family(want)
            classes = set().union(*spelled)
            assert classes == set().union(*spelled_before), name
            assert sum(map(len, spelled)) == len(classes), name
            # (i) the skeletons are the oracle's less those that turn back over
            # a zero edge, in the same order, and the first of each edge class
            g, wf = got.graph, got.weight_function
            zsub, _ = zero_cycle_families(g, wf)
            before = oracle_walker._closed_walks(g, wf, Fraction(2), zsub, 40, 2_000_000)
            after = _closed_walks(g, wf, Fraction(2), zsub, 40, 2_000_000)
            assert after == _first_copies(w for w in before if not _turns_back_over_zero(zsub, w[0])), name
            walked += 1
            dropped += len(before) - len(after)
            shared += sum(map(len, spelled_before)) - len(classes)
            pumped += any(fv.family.pumps for fv in got.families)
        for want, got in zip(wants, gots):
            # (iv) every verdict is equal, and no guard walk is reported
            assert got.verdict == want.verdict and got.notes == want.notes, name
            assert not any(fv.witness == NOT_COVERED for fv in want.families + got.families)
    assert walked >= 330 and pumped >= 30
    assert dropped > 0 and shared > 0, (dropped, shared)


# -- the walker against the one that listed every copy of a class ----------------


def test_walker_lists_the_first_copy_of_each_class_the_oracle_lists(monkeypatch):
    # the walker before, kept in oracle_rooted_walker, listed every copy of a
    # class that starts at a forward traversal of the class's least edge; the
    # necklace prune keeps the first of them, in the oracle's order, for the
    # family walk and the guard walk alike, and every report is unchanged.
    # Only a builder that keys every candidate merges the oracle walker's
    # copies, so the reports under it come from the keyed oracle builder
    walked = dropped = 0
    for name, scenarios in _walker_cases():
        s = scenarios[0]
        g = build_star_graph(s.presentation)
        wf = WeightFunction.from_scenario(s, g)
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            zsub = None
        walks = [(_ZeroSubgraph([]), GUARD_LEN)] + ([(zsub, 40)] if zsub else [])
        for walker, max_len in walks:
            before = oracle_rooted_walker._closed_walks(g, wf, Fraction(2), walker, max_len, 2_000_000)
            after = _closed_walks(g, wf, Fraction(2), walker, max_len, 2_000_000)
            assert after == _first_copies(before), (name, max_len)
            walked += 1
            dropped += len(before) - len(after)
        for s in scenarios:
            with monkeypatch.context() as m:
                m.setattr(oracle_keyed_families, "_closed_walks", oracle_rooted_walker._closed_walks)
                m.setattr(weights_module, "enumerate_light_cycles", oracle_keyed_families.enumerate_light_cycles)
                want = render_report(verify_weight_test(s))
            assert render_report(verify_weight_test(s)) == want, name
    assert walked >= 650 and dropped > 1_000, (walked, dropped)


# -- the walker against the one that did not bound the way back ----------------

BOUNDED_THRESHOLDS = [Fraction(2), Fraction(3), Fraction(5, 2)]
# the grid cells walked at thresholds 3 and 5/2 as well: at threshold 3 a
# cell of weight 1/q lists closed paths of up to 3q - 1 edges
LOW_GRID = {"grid k=4 q=3", "grid k=4 q=4", "grid k=5 q=3", "grid k=6 q=3"}


def _counted_walk(walk, *args):
    """(walk's list, paths it popped), counted by a prune that drops none."""
    pops = []
    walks = walk(*args, lambda path: pops.append(1))
    return walks, len(pops)


def _walk_graphs():
    """(name, graph, weight function) of ``_walker_cases()``: the weighted
    corpus, the bench grid cells with k6_q4 and random graphs 0-299."""
    out = []
    for name, scenarios in _walker_cases():
        g = build_star_graph(scenarios[0].presentation)
        out.append((name, g, WeightFunction.from_scenario(scenarios[0], g)))
    return out


def test_bounded_walker_lists_what_the_unbounded_oracle_lists(monkeypatch):
    # the walker before, kept in oracle_unbounded_walker, stopped a path only
    # once its weight reached the threshold; the walker also stops one whose
    # weight and least way back to its start reach it.  Both walks, the
    # family walk and the walk without a zero subgraph, list the same paths
    # with the same marked sets and weights in the same order, and pop no
    # more, at thresholds 2, 3 and 5/2.  With the oracle's marked cap lifted,
    # the walker raises where the oracle lists a path over the cap
    monkeypatch.setattr(oracle_unbounded_walker, "MAX_MARKED", math.inf)
    walked = fewer = raised = 0
    pops = {"bounded": 0, "oracle": 0}
    for name, g, wf in _walk_graphs():
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            zsub = None
        walks = [(_ZeroSubgraph([]), GUARD_LEN)] + ([(zsub, math.inf)] if zsub else [])
        for threshold in BOUNDED_THRESHOLDS:
            if name.startswith("grid") and threshold != 2 and name not in LOW_GRID:
                continue
            for walker, max_len in walks:
                args = (g, wf, threshold, walker, max_len, 2_000_000)
                want, oracle_popped = _counted_walk(oracle_unbounded_walker._closed_walks, *args)
                if any(len(marked) > MAX_MARKED for _, marked, _ in want):
                    with pytest.raises(WalkBudgetError, match="marked junctions"):
                        _closed_walks(*args)
                    raised += 1
                    continue
                got, popped = _counted_walk(_closed_walks, *args)
                assert got == want, (name, threshold, max_len)
                assert popped <= oracle_popped, (name, threshold, max_len)
                walked += 1
                fewer += popped < oracle_popped
                pops["bounded"] += popped
                pops["oracle"] += oracle_popped
    assert walked >= 1900 and fewer >= 500 and raised >= 1, (walked, fewer, raised)
    assert pops["bounded"] < pops["oracle"] * 3 // 4, pops


def _cut_levels(g, wf, threshold, popped):
    """The levels of ``reduced_closed_walks_by_length`` to GUARD_LEN under a
    live prune, as the search's light-walk cuts ask it: a path whose edge
    counts cover those of a kept walk is dropped, and every other walk
    each level lists is kept, so the prune grows stricter between levels.
    ``popped`` counts the paths the prune is asked about."""
    kept: list[dict[str, int]] = []

    def covers_kept(path):
        popped.append(1)
        return _implied(_edge_counts(path), kept)

    levels = []
    for walks in reduced_closed_walks_by_length(g, GUARD_LEN, wf, threshold, 2_000_000, covers_kept):
        levels.append(walks)
        kept += [_edge_counts(w) for w in walks[::2]]
    return levels


def test_bounded_walker_resumes_as_the_unbounded_oracle_by_length(monkeypatch):
    # each level of the walk by length resumes from the paths the last one
    # reached; the bounded walker keeps fewer of them, only those that can
    # still close light, and every level lists what the oracle's lists
    compared = fewer = resumed = 0
    for name, g, wf in _walk_graphs():
        for threshold in BOUNDED_THRESHOLDS:
            if name.startswith("grid") and threshold != 2 and name not in LOW_GRID:
                continue
            popped, oracle_popped = [], []
            got = _cut_levels(g, wf, threshold, popped)
            resumed += sum(map(len, got[1:]))
            with monkeypatch.context() as m:
                m.setattr(weights_module, "_walk_tables", oracle_unbounded_walker._walk_tables)
                m.setattr(weights_module, "_closed_walks", oracle_unbounded_walker._closed_walks)
                want = _cut_levels(g, wf, threshold, oracle_popped)
            assert got == want, (name, threshold)
            assert len(popped) <= len(oracle_popped), (name, threshold)
            compared += 1
            fewer += len(popped) < len(oracle_popped)
    assert compared >= 1000 and fewer >= 250 and resumed >= 2000, (compared, fewer, resumed)


def test_bounded_walker_pops_under_4000_paths_on_the_grid():
    # the grid cells' star graph has two vertices t and t^-1 and every edge
    # runs between them, so a path that ends away from its start still owes
    # one edge's weight; the oracle pops 11 083 paths over the six cells
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected" / "grid.json"
    cells = [(c["k"], c["q"]) for c in json.loads(expected.read_text())["cells"]]
    assert len(cells) >= 6
    pops = {"bounded": 0, "oracle": 0}
    for k, q in cells:
        s = parse_scenario(_grid_text(k, q))
        g = build_star_graph(s.presentation)
        wf = WeightFunction.from_scenario(s, g)
        zsub, _ = zero_cycle_families(g, wf)
        args = (g, wf, Fraction(2), zsub, math.inf, 2_000_000)
        pops["bounded"] += _counted_walk(_closed_walks, *args)[1]
        pops["oracle"] += _counted_walk(oracle_unbounded_walker._closed_walks, *args)[1]
    assert pops["bounded"] <= 4000 and pops["oracle"] == 11_083, pops


# -- the family builder against the one that keyed every candidate ---------------


def _random_repeated_coefficient(rng):
    """A one-relator graph over the letters of ``_random_one_relator`` whose
    relator carries one coefficient at two or more of its 3-5 corners, so
    that edges share a label, and a weight from RANDOM_WEIGHTS per edge."""
    coefficients = ["a1", "a2", "a1^-1", "a2^2", "b1", "b1^-1", "b2", "a1 b1", "b2 a2^-1"]
    while True:
        corners = rng.randint(3, 5)
        words = [rng.choice(coefficients)] * rng.randint(2, corners)
        words += [rng.choice(coefficients + [""]) for _ in range(corners - len(words))]
        rng.shuffle(words)
        tokens = []
        for word in words:
            tokens += word.split() + [rng.choice(["t", "t^-1", "u", "u^-1"])]
        text = (
            "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
            "gens A: a1 a2\ngens B: b1 b2\nindet: t u\nrelator: " + " ".join(tokens) + "\n"
        )
        g = build_star_graph(parse_scenario(text, name="random").presentation)
        labels = [e.label_key for e in g.edges]
        # free cancellation can drop corners, and with them the repeat
        if 3 <= len(labels) <= 5 and len(set(labels)) < len(labels):
            return g, WeightFunction({e.edge_id: rng.choice(RANDOM_WEIGHTS) for e in g.edges})


def _family_rows(families):
    return [(f.base, f.pumps, f.weight, f.kind, f.display()) for f in families]


def test_families_are_the_keyed_oracles(monkeypatch):
    # the builder before, kept in oracle_keyed_families, keyed every
    # candidate; the builder lists the same families in the same order,
    # though it keys no pump-free walk over uniquely labelled edges.  The
    # random graphs repeat a coefficient, so some pump-free walks over a
    # shared label spell one sequence and must still merge
    graphs = []
    for name, scenarios in _walker_cases():
        g = build_star_graph(scenarios[0].presentation)
        graphs.append((name, g, WeightFunction.from_scenario(scenarios[0], g), None))
    rng = random.Random(zlib.crc32(b"repeated coefficients"))
    for i in range(200):
        g, wf = _random_repeated_coefficient(rng)
        eq = "".join(f"fact: {fact}\n" for fact in _random_eq_facts(rng, ["a1", "a2", "a3"]))
        graphs.append((f"repeated {i}", g, wf, _random_scenario(g, wf, eq, gens_a="a1 a2 a3")))
    key = weights_module._dedup_key
    compared = merged = 0
    for name, g, wf, s in graphs:
        plain = []

        def spy(base, pumps, kind="cycle"):
            out = key(base, pumps, kind)
            if not pumps and kind == "cycle":
                plain.append(out)
            return out

        try:
            want = oracle_keyed_families.enumerate_light_cycles(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        with monkeypatch.context() as m:
            m.setattr(weights_module, "_dedup_key", spy)
            got = enumerate_light_cycles(g, wf)
        assert _family_rows(got) == _family_rows(want), name
        if s is not None:
            with monkeypatch.context() as m:
                m.setattr(weights_module, "enumerate_light_cycles", oracle_keyed_families.enumerate_light_cycles)
                report = render_report(verify_weight_test(s))
            assert render_report(verify_weight_test(s)) == report, name
        compared += 1
        merged += len(plain) - len(set(plain))
    assert compared >= 540 and merged >= 150, (compared, merged)


def _key_counts(monkeypatch, g, wf):
    """(canonical_atom_cycle calls, keys, distinct keys) of one family list."""
    calls, keys = [], []
    atom_cycle, key = weights_module.canonical_atom_cycle, weights_module._dedup_key
    with monkeypatch.context() as m:
        m.setattr(weights_module, "canonical_atom_cycle", lambda ts: calls.append(1) or atom_cycle(ts))
        m.setattr(weights_module, "_dedup_key", lambda *a: keys.append(key(*a)) or keys[-1])
        enumerate_light_cycles(g, wf)
    return len(calls), len(keys), len(set(keys))


def test_no_walk_over_uniquely_labelled_edges_is_keyed(monkeypatch):
    # a grid cell's corners carry distinct labels and its zero subgraph has
    # no cycle, so no candidate is keyed; px20_w's loops 1.0 and 1.2 share
    # the label b2, and the walks over them still merge under their keys
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected" / "grid.json"
    cells = [(c["k"], c["q"]) for c in json.loads(expected.read_text())["cells"]]
    assert len(cells) >= 6
    for k, q in cells + [(6, 4)]:
        s = parse_scenario(_grid_text(k, q))
        g = build_star_graph(s.presentation)
        assert _key_counts(monkeypatch, g, WeightFunction.from_scenario(s, g)) == (0, 0, 0), (k, q)
    s = parse_scenario((CORPUS / "px20_w.scn").read_text())
    g = build_star_graph(s.presentation)
    calls, keys, distinct = _key_counts(monkeypatch, g, WeightFunction.from_scenario(s, g))
    assert calls == keys > distinct, (calls, keys, distinct)


def test_walker_lists_one_skeleton_per_family_on_the_grid():
    # the grid cells have no zero subgraph and no pumps, so each edge class
    # is one family: the counts of bench/expected/grid.json, and k6_q4's
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected" / "grid.json"
    cells = [(c["k"], c["q"], c["families"]) for c in json.loads(expected.read_text())["cells"]]
    assert len(cells) >= 6
    for k, q, families in cells + [(6, 4, 2795)]:
        s = parse_scenario(_grid_text(k, q))
        g = build_star_graph(s.presentation)
        wf = WeightFunction.from_scenario(s, g)
        zsub, _ = zero_cycle_families(g, wf)
        skeletons = _closed_walks(g, wf, Fraction(2), zsub, 40, 2_000_000)
        assert len(skeletons) == families == len(enumerate_light_cycles(g, wf)), (k, q)


def test_family_walk_has_no_length_cap():
    # the relator's two corners are two edges t -> t^-1 of weight 1/45, so
    # the reduced closed paths are the powers of the path out along one edge
    # and back along the other, the k-th of 2k traversals and weight 2k/45:
    # the 44 with k <= 44 are light, the longest of 88 traversals, and a cap
    # on the walk's length would drop the longest
    s = parse_scenario(
        "factor A noncyclic nontrivial\ngens A: a1 a2\nindet: t\nrelator: a1 t a2 t\n"
        "weight: 0.0 = 1/45\nweight: 0.1 = 1/45\n"
    )
    g = build_star_graph(s.presentation)
    families = enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
    assert [len(f.base) for f in families] == list(range(2, 89, 2))
    assert families[-1].weight == Fraction(88, 45)


def test_no_vertex_is_asked_for_pumps_without_a_zero_cycle(monkeypatch):
    # a grid cell's zero subgraph has no cycle, so neither the walker's mend
    # test nor the family builder has a pump to ask about; px25_w has one
    asked = []
    pumps_at = _ZeroSubgraph.pumps_at
    monkeypatch.setattr(_ZeroSubgraph, "pumps_at", lambda self, v: asked.append(v) or pumps_at(self, v))
    s = parse_scenario(_grid_text(5, 4))
    g = build_star_graph(s.presentation)
    assert len(enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))) == 770
    assert asked == []
    s = parse_scenario((CORPUS / "px25_w.scn").read_text())
    g = build_star_graph(s.presentation)
    enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
    assert asked


def test_no_two_skeletons_share_an_edge_class():
    graphs = [(s.name, g, WeightFunction.from_scenario(s, g)) for s, g in _corpus() if s.weights]
    graphs += [(f"random {i}", g, wf) for i, (g, wf) in enumerate(_random_graphs(300))]
    checked = 0
    for name, g, wf in graphs:
        try:
            zsub, _ = zero_cycle_families(g, wf)
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        for walker, max_len in ((zsub, 40), (_ZeroSubgraph([]), GUARD_LEN)):
            paths = [path for path, _, _ in _closed_walks(g, wf, Fraction(2), walker, max_len, 2_000_000)]
            assert len({canonical_atom_edge_cycle(p) for p in paths}) == len(paths), name
        checked += 1
    assert checked >= 250


# -- the family list against the oracle guard ---------------------------------------


def _oracle_cases():
    """(name, scenario) of the weighted corpus, grid cells (4,3)-(6,4) and
    random graphs 0-299, each random graph four times: with its own two neq
    facts, with ``EQ_FACTS``, with no facts and with eq facts from
    ``test_facts._random_eq_facts`` over a1 a2 a3."""
    rng = random.Random(zlib.crc32(b"oracle guard eq facts"))
    cases = []
    for name, scenarios in _walker_cases():
        cases += [(name, s) for s in scenarios]
    for i, (g, wf) in enumerate(_random_graphs(300)):
        eq = "".join(f"fact: {fact}\n" for fact in _random_eq_facts(rng, ["a1", "a2", "a3"]))
        cases.append((f"random {i} bare", _random_scenario(g, wf, facts="")))
        cases.append((f"random {i} {eq!r}", _random_scenario(g, wf, eq, gens_a="a1 a2 a3")))
    return cases


@pytest.mark.parametrize("families", ["as-is", "none"])
def test_the_oracle_guard_finds_every_short_light_walk_in_a_family(monkeypatch, families):
    # the weights module docstring proves that every light reduced closed
    # path of at most GUARD_LEN traversals lies in a listed family; the
    # oracle guard walks them all again, within its budget, and reports each
    # one that no family spells and the fact base cannot refute.  With no
    # families it must report walks, so the check is not vacuous
    if families == "none":
        monkeypatch.setattr(weights_module, "enumerate_light_cycles", lambda *a, **k: [])
    cases = _oracle_cases()
    guarded = reported = 0
    for name, s in cases:
        report = guarded_report(s)
        uncovered = [fv.family.display() for fv in report.families if fv.witness == NOT_COVERED]
        assert not any(note.startswith("guard ") for note in report.notes), name
        if families == "as-is":
            assert not uncovered, (name, uncovered)
        guarded += not report.notes
        reported += len(uncovered)
    assert len(cases) == 1256 and guarded >= 1100, guarded
    assert reported > 1000 if families == "none" else reported == 0


# -- the witness against the eager rendering it replaced ----------------------------


def test_witness_reads_as_the_eager_rendering(monkeypatch):
    # a verdict keeps its first unrefuted template as codes and decodes it
    # only when its witness is read, so verify_weight_test decodes nothing;
    # every verdict and witness then reads as oracle_eager_witness, which
    # decoded at once, gives them on a fresh fact base, eq facts included
    decoded = []
    compared = survivors = pumped = 0
    for name, s in _oracle_cases():
        with monkeypatch.context() as m:
            m.setattr(weights_module, "decode", lambda codes, order: decoded.append(codes))
            report = verify_weight_test(s)
        assert not decoded, name
        fb = FactBase(s.presentation, s.fact_decls)
        for fv in report.families:
            verdict, witness = oracle_eager_witness._refute_family_all(fb, fv.family)
            assert (fv.verdict, fv.witness, fv.refuted) == (verdict, witness, verdict.refuted), name
            assert fv.witness == witness  # a second read gives the decoded string again
            survivors += not fv.refuted
            pumped += not fv.refuted and "^m" in witness
        compared += 1
    assert compared == 1256 and survivors > 5000 and pumped > 100, (compared, survivors, pumped)
