"""Acceptance criteria, one test per criterion, each printing a pass line.

All tolerances are zero (exact rational arithmetic); time budgets are the
stated ones.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import io
import contextlib
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import starweight
from starweight.cli import main
from starweight.curvature import CurvatureExpr, region_curvature
from starweight.facts import FactBase
from starweight.scenario import parse_scenario
from starweight.search import SearchConfig, search_weights
from starweight.stargraph import build_star_graph, path_label, vertex_name
from starweight.weights import (
    WeightFunction,
    canonical_atom_edge_cycle,
    check_relator_condition,
    enumerate_light_cycles,
    reduced_closed_walks,
    verify_weight_test,
)
from starweight.words import canonical_cyclic_class, encode, word_from_tokens

from spherical_diagrams import FOUR_PI, grow_random, total_curvature
from expansions import expansions_upto
from test_equations import SOLVABLE_SHORT, singular_sweep

CORPUS = Path(starweight.__file__).parent / "corpus"


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def load(name):
    return parse_scenario((CORPUS / f"{name}.scn").read_text(), name=name)


def test_criterion_1_curvature_table():
    start = time.monotonic()
    table = [
        ((4, 6, 6), False, Fraction(1, 6), Fraction(0)),
        ((4, 4, 6, 6), False, Fraction(-1, 3), Fraction(0)),
        ((3, 3, 3, 3, 5), False, Fraction(1, 15), Fraction(0)),
        ((3, 3, 3, 3, 3, 5), False, Fraction(-4, 15), Fraction(0)),
        ((3, 4, 4, 4), False, Fraction(1, 6), Fraction(0)),
        ((3, 4, 4, 5), False, Fraction(1, 15), Fraction(0)),
        ((4, 4, 4, 4, 4), False, Fraction(-1, 2), Fraction(0)),
        ((3, 4, 4, 4, 4), False, Fraction(-1, 3), Fraction(0)),
        ((3, 3, 4, 4, 4), False, Fraction(-1, 6), Fraction(0)),
        ((4, 4, 4, 6), False, Fraction(-1, 6), Fraction(0)),
        ((3, 3, 3), True, Fraction(0), Fraction(2)),  # c(k0,3,3,3) = 2pi/k0
        ((3, 3, 3, 3), True, Fraction(-1, 3), Fraction(2)),  # 2pi/k0 - pi/3
    ]
    for degrees, boundary, a, b in table:
        assert region_curvature(degrees, boundary=boundary) == CurvatureExpr(a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"12 cited curvature values exact ({elapsed:.3f}s)")


SEC3_1111 = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t a2 t a3 t a4 t
"""


def test_criterion_2_star_graphs():
    g = build_star_graph(parse_scenario(SEC3_1111).presentation)
    assert [vertex_name(v) for v in g.vertices] == ["t", "t^-1"]
    assert len(g.edges) == 4
    assert sorted(e.label_str() for e in g.edges) == ["a1", "a2", "a3", "a4"]
    assert all({vertex_name(e.src), vertex_name(e.dst)} == {"t", "t^-1"} for e in g.edges)

    g2 = build_star_graph(
        parse_scenario(SEC3_1111.replace("a1 t ", "a1 t^2 ")).presentation
    )
    assert len(g2.edges) == 5
    identity = [e for e in g2.edges if not e.label]
    assert len(identity) == 1
    assert sorted(e.label_str() for e in g2.edges) == ["1", "a1", "a2", "a3", "a4"]
    report(2, "sec3 star graphs match exactly for (1,1,1,1) and (2,1,1,1)")


def test_criterion_3_five_families_and_completeness():
    start = time.monotonic()
    s = load("sec3_case1_w2")
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    fams = enumerate_light_cycles(g, wf)

    def cls(text):
        return canonical_cyclic_class(encode(word_from_tokens(text.split()), s.presentation.code))

    pump_cls = cls("a2^-1 a4")
    got = set()
    for f in fams:
        base_cls = canonical_cyclic_class(f.base_label())
        if f.kind == "power":
            got.add(("power", base_cls))
        else:
            assert {canonical_cyclic_class(p.label()) for p in f.pumps} == {pump_cls}
            got.add(("cycle", base_cls))
    expected = {
        ("power", pump_cls),          # (i)   (a2^-1 a4)^m
        ("cycle", cls("a1^-1 a4")),   # (ii)  x = a1
        ("cycle", cls("a3^-1 a4")),   # (ii)  x = a3
        ("cycle", cls("a1^-1 a2")),   # (iii) x = a1
        ("cycle", cls("a3^-1 a2")),   # (iii) x = a3
        ("cycle", cls("a4")),         # (iv)  1^-1 a4 (a2^-1 a4)^m
        ("cycle", cls("a2")),         # (v)   a2^-1 1 (a2^-1 a4)^m
    }
    assert got == expected and len(fams) == 7

    covered = set()
    for f in fams:
        for exp in expansions_upto(f, 5):
            covered.add(canonical_atom_edge_cycle(exp))
    walks = reduced_closed_walks(g, 10, wf, Fraction(2))
    assert walks
    missing = [w for w in walks if canonical_atom_edge_cycle(w) not in covered]
    assert not missing
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"families (i)-(v) exact; {len(walks)} light walks to length 10 covered"
              f" ({elapsed:.2f}s)")


def test_criterion_4_relator_sums_exactly_two():
    s1 = load("sec3_case1_w1")
    g1 = build_star_graph(s1.presentation)
    checks1 = check_relator_condition(g1, WeightFunction.from_scenario(s1, g1))
    assert checks1[0].total == 2

    text = SEC3_1111 + "\n".join(
        f"weight: label:a{i} = {w}" for i, w in ((1, 1), (2, 0), (3, 1), (4, 0))
    )
    s2 = parse_scenario(text)
    g2 = build_star_graph(s2.presentation)
    checks2 = check_relator_condition(g2, WeightFunction.from_scenario(s2, g2))
    assert checks2[0].total == 2
    report(4, "both sec3 Case 1 weight functions give relator sum exactly 2")


def test_criterion_5_corpus_regression(capsys):
    start = time.monotonic()
    assert main(["corpus", "run", str(CORPUS)]) == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out
    names = [line.split(":")[0] for line in out.splitlines() if ".scn" in line]
    for expected in ["px1_w", "px2_w", "px3_theta", "px3_r1", "px3_r2"] + [
        f"px{i}" for i in range(4, 26)
    ]:
        assert any(n.startswith(expected) for n in names), expected

    # mutation checks: deleting the unless-clause fact surfaces the branch
    from test_corpus import (
        test_mutation_gamma3_surfaces_b4_in_b3_branch,
        test_mutation_gamma12_surfaces_b2_eq_b4_branch,
        test_mutation_gamma17_surfaces_b1_eq_b2_branch,
    )

    test_mutation_gamma3_surfaces_b4_in_b3_branch()
    test_mutation_gamma12_surfaces_b2_eq_b4_branch()
    test_mutation_gamma17_surfaces_b1_eq_b2_branch()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(5, f"{len(names)} corpus scenarios match; 3 mutations surface the"
                  f" paper's exceptional words ({elapsed:.1f}s)")


SEARCH_CASES = ["px8_w", "px10_w", "px13_w", "px16_w", "px18_w", "px22_w", "px24_w"]


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_criterion_6_search(name):
    start = time.monotonic()
    s = load(name)
    bare = parse_scenario(
        "\n".join(l for l in (CORPUS / f"{name}.scn").read_text().splitlines()
                  if not l.startswith("weight:")),
        name=name,
    )
    out = search_weights(bare, SearchConfig(max_iterations=64))
    assert out.found, out.last_violations
    assert out.iterations <= 64
    from starweight.search import scenario_with_weights

    assert verify_weight_test(scenario_with_weights(bare, out.weights)).verdict == "Aspherical"
    # the paper's own assignment is a feasibility witness for every constraint
    g = build_star_graph(s.presentation)
    paper = {g.resolve(k).edge_id: Fraction(v) for k, v in s.weights}
    for c in out.constraints:
        assert c.satisfied(paper), f"{name}: paper assignment violates {c.label}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(6, f"{name}: found in {out.iterations} iterations, paper witness ok"
              f" ({elapsed:.1f}s)")


def test_criterion_7_total_curvature_500_diagrams():
    start = time.monotonic()
    rng = random.Random(20260809)
    for i in range(500):
        d = grow_random(rng, n_ops=rng.randrange(1, 14), max_regions=12)
        assert len(d.faces) <= 12 + 2  # subdivisions never add regions
        assert total_curvature(d, "vertex-angles") == FOUR_PI
        assert total_curvature(d, "corner-angles") == FOUR_PI
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(7, f"500 spherical diagrams sum to 4*pi under both schemes ({elapsed:.1f}s)")


def test_criterion_8_equation_classifier():
    start = time.monotonic()
    # exhaustive: every singular vector with k <= 9, |m| <= 4 is solvable
    count, verdicts, offender = singular_sweep()
    assert verdicts <= SOLVABLE_SHORT, offender
    assert count > 1_000_000
    values = [x for x in range(-4, 5) if x]

    # attainment counts against a brute-force rescan on 1e5 random vectors
    from starweight.equations import EquationWord, attainment_counts, shift_rewrite

    rng = random.Random(8)
    for _ in range(100_000):
        k = rng.randrange(1, 10)
        m = [rng.choice(values) for _ in range(k)]
        mx, mxc, mn, mnc = attainment_counts(m)
        sums, run = [], 0
        for x in m:
            run += x
            sums.append(run)
        assert (mx, mxc, mn, mnc) == (
            max(sums), sums.count(max(sums)), min(sums), sums.count(min(sums))
        )

    # shift-rewrite round trip, exhaustive for k <= 6, |m| <= 3
    from starweight.words import Word

    trips = 0
    for k in range(2, 7):
        for m in itertools.product([x for x in range(-3, 4) if x], repeat=k - 1):
            last = -sum(m)
            if last == 0 or abs(last) > 3:
                continue
            w = EquationWord(tuple(f"a{i}" for i in range(k)), tuple(m) + (last,))
            letters = []
            for a, n in shift_rewrite(w):
                letters.extend([("t", n), (a, 1), ("t", -n)])
            expanded = Word(letters)
            original = Word(
                [x for a, e in zip(w.coefficients, w.exponents) for x in ((a, 1), ("t", e))]
            )
            assert expanded == original
            trips += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(8, f"{count} singular words solvable; 1e5 oracle matches; {trips} round trips"
              f" ({elapsed:.1f}s)")


def test_criterion_9_soundness_sampling():
    start = time.monotonic()
    from test_corpus import (
        MODELS_PER_SCENARIO,
        free_product_trivial,
        model_ok,
        scenario_names,
        solve_eq_facts,
    )

    checked = 0
    for name in scenario_names():
        if name == "px":
            continue
        s = load(name)
        fb = FactBase(s.presentation, s.fact_decls)
        rep = verify_weight_test(s)
        labels = [
            path_label(exp)
            for fv in rep.families
            if fv.refuted
            for exp in expansions_upto(fv.family, 2)
        ]
        if not labels:
            continue
        gens = [g for g in sorted(s.presentation.factor_of)
                if s.presentation.factor_of[g] != "@indet"]
        rng = random.Random(99)
        tested = 0
        attempts = 0
        while tested < 1000 and attempts < 40_000:
            attempts += 1
            values = solve_eq_facts(fb, rng, gens)
            if values is None or not model_ok(fb, values):
                continue
            tested += 1
            for label in labels:
                assert not free_product_trivial(fb, label, values), (name, label, values)
        assert tested >= 500, name
        checked += len(labels)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, f"{checked} refuted labels withstand 1000-model sampling ({elapsed:.1f}s)")


def test_criterion_10_determinism():
    buf1, buf2 = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf1):
        main(["corpus", "run", str(CORPUS)])
    with contextlib.redirect_stdout(buf2):
        main(["corpus", "run", str(CORPUS)])
    assert buf1.getvalue() == buf2.getvalue()
    assert buf1.getvalue().encode() == buf2.getvalue().encode()
    report(10, "two corpus runs byte-identical")
