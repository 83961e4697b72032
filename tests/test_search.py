import itertools
import random
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import starweight
import starweight.facts as facts_module
import starweight.search as search_module
from starweight.cli import main
from starweight.facts import FactBase, FactError, RewriteCapError
from starweight.scenario import parse_scenario
from starweight.search import (
    Constraint,
    SearchConfig,
    _base_constraints,
    _cut,
    _edge_counts,
    _fallback_cuts,
    _implied,
    _path_desc,
    infeasible_certificate,
    search_weights,
    scenario_with_weights,
    solve_feasible,
    weight_lines,
)
from starweight.stargraph import build_star_graph, path_label
from starweight.weights import (
    GUARD_BUDGET,
    GUARD_LEN,
    WalkBudgetError,
    WeightError,
    WeightFunction,
    _closed_walks,
    _ZeroSubgraph,
    reduced_closed_walks,
    render_report,
    verify_weight_test,
)

GAMMA8 = """\
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
fact: notincyclic a3 a1
fact: notincyclic a1 a3
"""


def test_simplex_basic_feasible():
    cons = [
        Constraint((("x", Fraction(1)), ("y", Fraction(1))), "<=", Fraction(1), "sum"),
        Constraint((("x", Fraction(1)),), ">=", Fraction(1, 2), "xmin"),
    ]
    sol = solve_feasible(["x", "y"], cons)
    assert sol is not None
    assert all(c.satisfied(sol) for c in cons)


def test_simplex_infeasible():
    cons = [
        Constraint((("x", Fraction(1)),), "<=", Fraction(0), "hi"),
        Constraint((("x", Fraction(1)),), ">=", Fraction(2), "lo"),
    ]
    assert solve_feasible(["x"], cons) is None


def _reference_solve_feasible(
    variables: list[str], constraints: list[Constraint]
) -> dict[str, Fraction] | None:
    """The earlier solver, kept verbatim as the oracle: phase-1 simplex with
    Bland's rule; None when infeasible."""
    var_index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    rows = []
    senses = []
    for c in constraints:
        row = [Fraction(0)] * n
        for v, coef in c.coeffs:
            row[var_index[v]] += coef
        rhs = c.rhs
        sense = c.sense
        if rhs < 0:  # normalize to nonnegative rhs
            row = [-x for x in row]
            rhs = -rhs
            sense = "<=" if sense == ">=" else ">="
        rows.append((row, rhs))
        senses.append(sense)

    m = len(rows)
    # columns: structural | slack/surplus (one per row) | artificials
    art_rows = [i for i, s in enumerate(senses) if s == ">=" and rows[i][1] > 0]
    n_art = len(art_rows)
    width = n + m + n_art
    tab = []
    basis = []
    art_col_of = {}
    for k, i in enumerate(art_rows):
        art_col_of[i] = n + m + k
    for i, ((row, rhs), sense) in enumerate(zip(rows, senses)):
        line = row + [Fraction(0)] * (m + n_art) + [rhs]
        line[n + i] = Fraction(1) if sense == "<=" else Fraction(-1)
        if i in art_col_of:
            line[art_col_of[i]] = Fraction(1)
            basis.append(art_col_of[i])
        else:
            if sense == ">=":  # rhs == 0: surplus column can start basic
                line[n + i] = Fraction(1)  # flip row sign: -sum + s = 0
                for j in range(n):
                    line[j] = -line[j]
            basis.append(n + i)
        tab.append(line)

    cost = [Fraction(0)] * width
    for i in art_rows:
        cost[art_col_of[i]] = Fraction(1)
    # reduced cost row for min sum(artificials)
    z = [Fraction(0)] * (width + 1)
    for i, b in enumerate(basis):
        if cost[b]:
            for j in range(width + 1):
                z[j] += tab[i][j]
    while True:
        entering = -1
        for j in range(width):
            if j in basis:
                continue
            if cost[j] - z[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving < 0:
            break  # unbounded phase 1 cannot happen; be safe
        piv = tab[leaving][entering]
        tab[leaving] = [x / piv for x in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering]:
                f = tab[i][entering]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leaving])]
        basis[leaving] = entering
        z = [Fraction(0)] * (width + 1)
        for i, b in enumerate(basis):
            if cost[b]:
                for j in range(width + 1):
                    z[j] += tab[i][j]

    if z[width] != 0:
        return None
    values = {v: Fraction(0) for v in variables}
    for i, b in enumerate(basis):
        if b < n:
            values[variables[b]] = tab[i][width]
    return values

def _random_lp(rng):
    variables = [f"x{i}" for i in range(rng.randint(1, 5))]
    constraints = [
        Constraint(
            tuple((v, Fraction(rng.randint(-3, 3))) for v in variables),
            rng.choice(["<=", ">="]),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            f"c{k}",
        )
        for k in range(rng.randint(1, 7))
    ]
    return variables, constraints


def test_simplex_matches_reference_on_random_lps():
    # identical answers pin the pivot sequence, which the search output
    # (weights, iteration counts, certificates) depends on
    rng = random.Random(1954)
    infeasible = 0
    for _ in range(2000):
        variables, constraints = _random_lp(rng)
        expected = _reference_solve_feasible(variables, constraints)
        got = solve_feasible(variables, constraints)
        if expected is None:
            infeasible += 1
            assert got is None, (variables, constraints)
        else:
            assert got is not None and list(got.items()) == list(expected.items()), (
                variables,
                constraints,
            )
    assert 500 < infeasible < 1500


def _random_rational_lp(rng):
    """Up to 30 rows (the weight-stripped px1_w1 ends on an LP of 28) over
    up to 12 variables, each row on up to 4 of them with coefficients p/q,
    q <= 4.  Rows are drawn to hold at a random point with a gap of 0 or
    more, so vertices are often degenerate; in about half the LPs some rows
    are pushed past the point, which leaves about a third infeasible."""
    variables = [f"x{i}" for i in range(rng.randint(1, 12))]
    point = {v: Fraction(rng.randint(0, 4), 2) for v in variables}
    broken = rng.random() < 0.5
    constraints = []
    for k in range(rng.randint(1, 30)):
        support = rng.sample(variables, rng.randint(1, min(4, len(variables))))
        coeffs = tuple((v, Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for v in support)
        sense = rng.choice(["<=", ">="])
        at = sum(c * point[v] for v, c in coeffs)
        gap = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        if broken and rng.random() < 0.3:
            gap = -gap - Fraction(1, 4)
        rhs = at + gap if sense == "<=" else at - gap
        constraints.append(Constraint(coeffs, sense, rhs, f"c{k}"))
    return variables, constraints


def test_simplex_matches_reference_on_large_rational_lps():
    # the integer tableau scales rows by the lcm of their denominators; the
    # pivots, and so the answers, must stay those of the Fraction simplex
    rng = random.Random(1968)
    infeasible = large = 0
    for _ in range(200):
        variables, constraints = _random_rational_lp(rng)
        expected = _reference_solve_feasible(variables, constraints)
        got = solve_feasible(variables, constraints)
        infeasible += expected is None
        large += len(constraints) > 20
        if expected is None:
            assert got is None, (variables, constraints)
        else:
            assert got is not None and list(got.items()) == list(expected.items()), (
                variables,
                constraints,
            )
    assert 40 < infeasible < 120 and large > 50


def _reference_infeasible_certificate(variables, constraints):
    """The certificate loop that restarted its scan after every drop, kept
    verbatim as an oracle."""
    active = list(constraints)
    changed = True
    while changed:
        changed = False
        for c in list(active):
            rest = [x for x in active if x is not c]
            if search_module.solve_feasible(variables, rest) is None:
                active = rest
                changed = True
                break
    return [c.label for c in active]


def test_certificate_matches_the_restart_loop_on_random_infeasible_lps(monkeypatch):
    # a constraint found necessary stays necessary as more are dropped, so
    # one deletion pass returns the labels the restart loop returns
    calls = [0]

    def counted(variables, constraints):
        calls[0] += 1
        return solve_feasible(variables, constraints)

    monkeypatch.setattr(search_module, "solve_feasible", counted)
    rng = random.Random(1961)
    checked = shrunk = reference_calls = one_pass_calls = 0
    while checked < 2000:
        variables, constraints = _random_lp(rng)
        if solve_feasible(variables, constraints) is not None:
            continue
        calls[0] = 0
        want = _reference_infeasible_certificate(variables, constraints)
        reference_calls += calls[0]
        calls[0] = 0
        assert infeasible_certificate(variables, constraints) == want, constraints
        one_pass_calls += calls[0]
        checked += 1
        shrunk += len(want) < len(constraints)
    assert shrunk >= 1000 and one_pass_calls < reference_calls


def test_certificate_matches_the_restart_loop_on_large_rational_lps():
    rng = random.Random(1967)
    checked = shrunk = 0
    while checked < 50:
        variables, constraints = _random_rational_lp(rng)
        if solve_feasible(variables, constraints) is not None:
            continue
        want = _reference_infeasible_certificate(variables, constraints)
        assert infeasible_certificate(variables, constraints) == want, constraints
        checked += 1
        shrunk += len(want) < len(constraints)
    assert shrunk >= 40


def test_search_gamma8_finds_zero_one_function():
    s = parse_scenario(GAMMA8, name="gamma8")
    out = search_weights(s)
    assert out.found, out.last_violations
    assert out.iterations <= 64
    trial = scenario_with_weights(s, out.weights)
    assert verify_weight_test(trial).verdict == "Aspherical"
    assert set(out.weights.values()) <= {Fraction(0), Fraction(1, 2), Fraction(1)}


def test_search_paper_assignment_satisfies_generated_constraints():
    s = parse_scenario(GAMMA8, name="gamma8")
    out = search_weights(s)
    assert out.found
    # the hand-picked assignment: 1 on both identity edges and a3, 0 elsewhere
    paper = {}
    g = build_star_graph(s.presentation)
    for e in g.edges:
        label = e.label_str()
        paper[e.edge_id] = Fraction(1) if label in ("1", "a3") else Fraction(0)
    for c in out.constraints:
        assert c.satisfied(paper), c.label


def test_search_two_corner_relator_infeasible():
    # relator X a1 X^-1 a2 has two corners, both loops, with no facts: the
    # relator condition forces both weights to 0 while each loop needs >= 2
    text = "factor A\ngens A: a1 a2\nindet: X\nrelator: X a1 X^-1 a2\n"
    out = search_weights(parse_scenario(text))
    assert out.status == "infeasible"
    assert out.certificate
    assert any("relator" in c or "cycle" in c or "candidate" in c for c in out.certificate)


def test_search_no_relators():
    out = search_weights(parse_scenario("factor A\ngens A: a1\n"))
    assert out.found and out.weights == {} and out.iterations == 0


def test_search_deterministic():
    s = parse_scenario(GAMMA8, name="gamma8")
    a, b = search_weights(s), search_weights(s)
    assert a.weights == b.weights and a.iterations == b.iterations


def test_search_emits_pasteable_weight_lines():
    s = parse_scenario(GAMMA8, name="gamma8")
    out = search_weights(s)
    text = GAMMA8 + weight_lines(out.weights)
    report = verify_weight_test(parse_scenario(text))
    assert report.verdict == "Aspherical"


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_iterations=0)


# -- minimal fallback cuts ----------------------------------------------------

CORPUS = Path(starweight.__file__).parent / "corpus"
STEMS = sorted(p.stem for p in CORPUS.glob("*.scn"))

# w0 + w1 + w2 <= 1 from the relator, yet no fact refutes a_i = a_j, so every
# cut a_i a_j^-1 needs w_i + w_j >= 2: infeasible by hand
INFEASIBLE_K3 = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3
indet: t
relator: a1 t a2 t a3 t
fact: neq a1 1
fact: neq a2 1
fact: neq a3 1
"""


def _bare_text(stem):
    text = (CORPUS / f"{stem}.scn").read_text(encoding="utf-8")
    return "".join(l + "\n" for l in text.splitlines() if not l.startswith("weight:"))


def _bare(stem):
    return parse_scenario(_bare_text(stem), name=stem)


def _at_zero(s):
    """Star graph, fact base, the all-zero weights (the first LP vertex) and
    every light walk of length <= 6 under them."""
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    zero = {e.edge_id: Fraction(0) for e in g.edges}
    walks = reduced_closed_walks(g, 6, WeightFunction(zero), Fraction(2))
    return g, fb, zero, walks


def _geq(a, b):
    return all(a.get(e, 0) >= c for e, c in b.items())


@pytest.mark.parametrize("stem", STEMS)
def test_fallback_cuts_are_the_minimal_unrefuted_walks(stem):
    g, fb, zero, walks = _at_zero(_bare(stem))
    cuts = _fallback_cuts(g, fb, zero)
    by_label = {"light walk " + _path_desc(w): w for w in walks}
    for counts, label in cuts:
        assert not fb.refute_trivial(path_label(by_label[label])), label
        assert counts == _edge_counts(by_label[label])
    for a, b in itertools.permutations(cuts, 2):
        assert not _geq(b[0], a[0]), (a, b)
    # a walk above no cut must be refuted: every unrefuted walk is implied
    for w in walks:
        if not any(_geq(_edge_counts(w), counts) for counts, _ in cuts):
            assert fb.refute_trivial(path_label(w)), _path_desc(w)


@pytest.mark.parametrize(
    "stem, text, feasible",
    [("px4_w0", None, True), ("px4_w1", None, True), ("infeasible_k3", INFEASIBLE_K3, False)],
)
def test_pruned_cuts_keep_feasibility(stem, text, feasible):
    s = parse_scenario(text, name=stem) if text else _bare(stem)
    g, fb, zero, walks = _at_zero(s)
    base = _base_constraints(g, len(s.presentation.relators))
    variables = [e.edge_id for e in g.edges]
    pruned = [_cut(counts, label) for counts, label in _fallback_cuts(g, fb, zero)]
    rows = {}  # one row per distinct count vector, as exact-match deduplication keeps
    for w in walks:
        cut = _cut(_edge_counts(w), _path_desc(w))
        if cut.coeffs not in rows and not fb.refute_trivial(path_label(w)):
            rows[cut.coeffs] = cut
    unpruned = list(rows.values())
    assert len(pruned) < len(unpruned)
    assert (solve_feasible(variables, base + pruned) is not None) is feasible
    assert (solve_feasible(variables, base + unpruned) is not None) is feasible


INFEASIBLE_STEMS = ["px", "sec3_case1_w2", "sec3_case2_w", "sec3_lemma32_w"]  # end infeasible


@pytest.mark.parametrize("stem", INFEASIBLE_STEMS)
def test_search_infeasible_corpus_certificate_is_infeasible(stem):
    out = search_weights(_bare(stem))
    assert out.status == "infeasible"
    named = [c for c in out.constraints if c.label in set(out.certificate)]
    assert len(named) == len(out.certificate)
    assert solve_feasible(sorted({v for c in out.constraints for v, _ in c.coeffs}), named) is None


def test_walk_budget_is_gave_up_not_an_input_error(monkeypatch, tmp_path, capsys):
    # exhausted through the fallback's own walk: one step per level
    monkeypatch.setattr(search_module, "GUARD_BUDGET", 1)
    s = _bare("px4_w0")
    g, fb, zero, _ = _at_zero(s)
    with pytest.raises(WalkBudgetError, match="^closed-walk enumeration budget exceeded$"):
        _fallback_cuts(g, fb, zero)
    assert issubclass(WalkBudgetError, WeightError)
    out = search_weights(s)
    assert out.status == "gave-up" and out.weights is None
    assert out.last_violations == ["closed-walk enumeration budget exceeded"]
    path = tmp_path / "px4_w0.scn"
    path.write_text(_bare_text("px4_w0"))
    assert main(["search-weights", str(path)]) == 1  # a negative outcome, not exit 2
    assert "unresolved: closed-walk enumeration budget exceeded" in capsys.readouterr().out


@pytest.mark.parametrize("stem, iterations", [("px1_w1", 0), ("px12_w2", 1)])
def test_rewrite_cap_is_gave_up_not_an_input_error(stem, iterations, monkeypatch, tmp_path, capsys):
    # a cap of one rewrite only lets words through that are already normal:
    # px1_w1 reaches it while its fact base is built, px12_w2 in the search loop
    monkeypatch.setattr(facts_module, "_REWRITE_CAP", 1)
    assert issubclass(RewriteCapError, FactError)
    out = search_weights(_bare(stem))
    assert out.status == "gave-up" and out.weights is None and out.iterations == iterations
    assert out.last_violations == ["eq rewrite step cap exceeded"]
    path = tmp_path / f"{stem}.scn"
    path.write_text(_bare_text(stem))
    assert main(["search-weights", str(path)]) == 1  # a negative outcome, not exit 2
    assert "unresolved: eq rewrite step cap exceeded" in capsys.readouterr().out


# -- the fallback by length --------------------------------------------------


def _reference_fallback_cuts(g, fb, values):
    """The single-walk fallback, kept verbatim as the oracle: one walk to
    GUARD_LEN, sorted by length, implied walks skipped before refutation."""
    wf = WeightFunction(values)
    kept: list[dict[str, int]] = []
    cuts = []
    walks = reduced_closed_walks(g, GUARD_LEN, wf, Fraction(2), budget=GUARD_BUDGET)
    for walk in sorted(walks, key=len):
        counts = _edge_counts(walk)
        if _implied(counts, kept) or fb.refute_trivial(path_label(walk)):
            continue
        kept.append(counts)
        cuts.append((counts, "light walk " + _path_desc(walk)))
    return cuts


WEIGHT_LEVELS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("stem", STEMS + ["infeasible_k3"])
def test_fallback_by_length_matches_the_single_walk(stem):
    s = parse_scenario(INFEASIBLE_K3, name=stem) if stem == "infeasible_k3" else _bare(stem)
    g = build_star_graph(s.presentation)
    rng = random.Random(zlib.crc32(stem.encode()))
    draws = [{e.edge_id: Fraction(0) for e in g.edges}]
    draws += [{e.edge_id: rng.choice(WEIGHT_LEVELS) for e in g.edges} for _ in range(3)]
    for values in draws:
        # separate fact bases, so neither side sees the other's memo
        want = _reference_fallback_cuts(g, FactBase(s.presentation, s.fact_decls), values)
        got = _fallback_cuts(g, FactBase(s.presentation, s.fact_decls), values)
        assert got == want, values


def test_fallback_never_extends_a_prefix_that_covers_a_cut(monkeypatch):
    # a cut of j edges is kept at level j, before any path of more than j
    # edges is asked about, so no asked path may have a proper prefix that
    # covers one: a frontier path must meet each level's cuts again, and
    # dropped counts the frontier paths, asked a second time, that it drops
    by_length = search_module.reduced_closed_walks_by_length
    asked, dropped = [], [0]

    def spy(g, max_len, wf, threshold, budget, prune):
        seen = set()

        def recording(path):
            asked.append(path)
            drop = prune(path)
            dropped[0] += drop and path in seen
            seen.add(path)
            return drop

        return by_length(g, max_len, wf, threshold, budget, recording)

    monkeypatch.setattr(search_module, "reduced_closed_walks_by_length", spy)
    for stem in ["px4_w0", "px5_w1", "px17_w3"] + INFEASIBLE_STEMS:
        g, fb, zero, _ = _at_zero(_bare(stem))
        asked.clear()
        cuts = [counts for counts, _ in _fallback_cuts(g, fb, zero)]
        assert asked and cuts
        for path in asked:
            for k in range(1, len(path)):
                prefix = _edge_counts(path[:k])
                assert not any(_geq(prefix, c) for c in cuts), (stem, _path_desc(path))
    assert dropped[0] > 0


def _least_budget(g, values):
    """Fewest walker steps one unpruned walk to GUARD_LEN needs: a predicate
    that prunes nothing is asked about every pop, and each pop it passes
    is one step.  Checked on both sides of the count."""
    wf = WeightFunction(values)
    popped = [0]

    def count(path):
        popped[0] += 1
        return False

    _closed_walks(g, wf, Fraction(2), _ZeroSubgraph([]), GUARD_LEN, 5_000_000, count)
    least = popped[0]
    reduced_closed_walks(g, GUARD_LEN, wf, Fraction(2), budget=least)
    with pytest.raises(WalkBudgetError):
        reduced_closed_walks(g, GUARD_LEN, wf, Fraction(2), budget=least - 1)
    return least


@pytest.mark.parametrize("stem", ["px4_w0"] + INFEASIBLE_STEMS)
def test_fallback_by_length_finishes_on_the_single_walks_least_budget(stem, monkeypatch):
    # each level pops a subset of the single walk's nodes, so a budget the
    # single walk fits in is enough for every level
    s = _bare(stem)
    g = build_star_graph(s.presentation)
    zero = {e.edge_id: Fraction(0) for e in g.edges}
    fb = FactBase(s.presentation, s.fact_decls)
    want = _reference_fallback_cuts(g, fb, zero)
    monkeypatch.setattr(search_module, "GUARD_BUDGET", _least_budget(g, zero))
    assert _fallback_cuts(g, fb, zero) == want


WEIGHTED = [stem for stem in STEMS if "weight:" in (CORPUS / f"{stem}.scn").read_text()]


@pytest.mark.parametrize("stem", WEIGHTED)
def test_verify_with_a_warm_fact_base_renders_the_same_report(stem):
    s = parse_scenario((CORPUS / f"{stem}.scn").read_text(encoding="utf-8"), name=stem)
    cold = render_report(verify_weight_test(s))
    fb = FactBase(s.presentation, s.fact_decls)
    assert render_report(verify_weight_test(s, fb)) == cold
    assert render_report(verify_weight_test(s, fb)) == cold  # its memo is warm now


def _capture_searches(monkeypatch):
    """One record per _verify_candidates call of the searches run after it:
    its fact base, the weights and report of each verification, and the
    report it returned, the one the search cuts from."""
    calls = []
    verify, verify_candidates = search_module.verify_weight_test, search_module._verify_candidates

    def verify_spy(s, fb=None):
        report = verify(s, fb)
        calls[-1]["verified"].append((dict(s.weights), report))
        return report

    def verify_candidates_spy(s, candidates, fb):
        calls.append({"fb": fb, "verified": []})
        report, chosen = verify_candidates(s, candidates, fb)
        calls[-1]["report"] = report
        return report, chosen

    monkeypatch.setattr(search_module, "verify_weight_test", verify_spy)
    monkeypatch.setattr(search_module, "_verify_candidates", verify_candidates_spy)
    return calls


@pytest.mark.parametrize("stem", ["px4_w0", "px1_w1", "px8_w"])
def test_search_verifies_each_distinct_candidate_once_on_one_fact_base(stem, monkeypatch):
    calls = _capture_searches(monkeypatch)
    built = []
    init = FactBase.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FactBase, "__init__", counted_init)
    search_weights(_bare(stem))
    assert len(built) == 1 and calls and all(c["fb"] is built[0] for c in calls)
    for c in calls:
        weights = [w for w, _ in c["verified"]]
        assert all(a != b for a, b in itertools.combinations(weights, 2)), weights


# the two-corner relator of test_search_two_corner_relator_infeasible, whose
# search cuts from a family report
TWO_CORNERS = "factor A\ngens A: a1 a2\nindet: X\nrelator: X a1 X^-1 a2\n"


def _family_cut_bases(report):
    """Base labels the search would cut from this report: none unless the
    report lists families (no notes) and is not Aspherical."""
    if report is None or report.notes or report.verdict == "Aspherical":
        return []
    return [fv.family.base_label() for fv in report.violations]


def test_no_family_cut_rests_on_a_refuted_base(monkeypatch):
    # a family cut asks the base to weigh >= 2; were the base label refuted,
    # the family would survive only through a pumped template, and the cut
    # could exclude weights the verifier accepts.  On the corpus every report
    # a search cuts from has notes or a degenerate zero cycle, so only the
    # two-corner relator makes family cuts; the families of every verified
    # report, the cuts the search would make had it chosen that candidate,
    # are checked as well.
    calls = _capture_searches(monkeypatch)
    for s in [_bare(stem) for stem in STEMS] + [parse_scenario(TWO_CORNERS)]:
        search_weights(s)
    chosen = [(c["fb"], base) for c in calls for base in _family_cut_bases(c["report"])]
    verified = [
        (c["fb"], base) for c in calls for _, report in c["verified"] for base in _family_cut_bases(report)
    ]
    for fb, base in chosen + verified:
        assert not fb.refute_trivial(base), str(base)
    assert chosen and len(verified) >= 100
