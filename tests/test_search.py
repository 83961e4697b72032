import itertools
import math
import random
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import starweight
import starweight.facts as facts_module
import starweight.search as search_module
import starweight.weights as weights_module
from starweight.cli import main
from starweight.facts import FactBase, FactError, RewriteCapError
from starweight.scenario import Scenario, parse_scenario
from starweight.search import (
    CUT_WALK_BUDGET,
    CUT_WALK_LEN,
    Constraint,
    SearchConfig,
    SearchOutcome,
    _base_constraints,
    _cut,
    _edge_counts,
    _implied,
    _light_walk_cuts,
    _path_desc,
    _snap,
    _verify_candidates,
    infeasible_certificate,
    search_weights,
    scenario_with_weights,
    solve_feasible,
    weight_lines,
)
from starweight.stargraph import StarGraph, Traversal, build_star_graph, path_label
from starweight.weights import (
    WalkBudgetError,
    WeightError,
    WeightFunction,
    _closed_walks,
    _ZeroSubgraph,
    reduced_closed_walks,
    reduced_closed_walks_by_length,
    render_report,
    verify_weight_test,
)

from test_weights import _grid_text, _random_graphs, _random_scenario

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
        Constraint((("x", 1), ("y", 1)), "<=", 1, "sum"),
        Constraint((("x", 2),), ">=", 1, "xmin"),
    ]
    sol = solve_feasible(["x", "y"], cons)
    assert sol is not None
    assert all(c.satisfied(sol) for c in cons)


def test_simplex_infeasible():
    cons = [
        Constraint((("x", 1),), "<=", 0, "hi"),
        Constraint((("x", 1),), ">=", 2, "lo"),
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


def _integral(constraints: list[Constraint]) -> list[Constraint]:
    """The rows with rational entries times one common lcm D of their
    denominators, as ints, for ``solve_feasible``, which takes integer rows
    as the search builds them.  Slack and artificial entries stay +-1 and 1,
    so this is every row, cost row included, scaled by D, with each slack
    and artificial variable renamed to D times itself: a scaling of those
    columns by the positive constant 1/D.  A positive column scaling keeps
    the sign of every reduced cost, which is all Bland's rule reads, and
    scales every ratio of one ratio test by one positive constant, so its
    argmin and its ties are unchanged: the pivots, and the structural
    values, are those of the Fraction simplex on the unscaled rows, which
    the tests compare against ``_reference_solve_feasible``."""
    scale = math.lcm(
        *(c.rhs.denominator for c in constraints),
        *(coef.denominator for c in constraints for _, coef in c.coeffs),
    )
    return [
        Constraint(
            tuple((v, int(coef * scale)) for v, coef in c.coeffs), c.sense, int(c.rhs * scale), c.label
        )
        for c in constraints
    ]


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
        got = solve_feasible(variables, _integral(constraints))
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
    # rows scaled by the lcm of their denominators (``_integral``) must pivot,
    # and so answer, as the Fraction simplex does on the rows as they are
    rng = random.Random(1968)
    infeasible = large = 0
    for _ in range(200):
        variables, constraints = _random_rational_lp(rng)
        expected = _reference_solve_feasible(variables, constraints)
        got = solve_feasible(variables, _integral(constraints))
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
        constraints = _integral(constraints)
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
        constraints = _integral(constraints)
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
    assert out.certificate == ["relator 0 condition", "light walk 0.1"]


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


# -- minimal light-walk cuts -------------------------------------------------

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
    cuts = _light_walk_cuts(g, fb, zero, [])
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
    pruned = [_cut(counts, label) for counts, label in _light_walk_cuts(g, fb, zero, [])]
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
    # exhausted through the light-walk cuts' own walk: one step per level
    monkeypatch.setattr(search_module, "CUT_WALK_BUDGET", 1)
    s = _bare("px4_w0")
    g, fb, zero, _ = _at_zero(s)
    with pytest.raises(WalkBudgetError, match="^closed-walk enumeration budget exceeded$"):
        _light_walk_cuts(g, fb, zero, [])
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


# -- light-walk cuts by length -----------------------------------------------


def _reference_fallback_cuts(g, fb, values):
    """The single-walk fallback, kept verbatim as the oracle but for the
    names of the cut walk's length and budget: one walk to CUT_WALK_LEN,
    sorted by length, implied walks skipped before refutation."""
    wf = WeightFunction(values)
    kept: list[dict[str, int]] = []
    cuts = []
    walks = reduced_closed_walks(g, CUT_WALK_LEN, wf, Fraction(2), budget=CUT_WALK_BUDGET)
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
        got = _light_walk_cuts(g, FactBase(s.presentation, s.fact_decls), values, [])
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
        held, sizes = [], []
        # held cuts are kept before any path is asked about, so they prune too
        for _ in range(2):
            asked.clear()
            cuts = held + [counts for counts, _ in _light_walk_cuts(g, fb, zero, held)]
            assert asked and cuts
            for path in asked:
                for k in range(1, len(path)):
                    prefix = _edge_counts(path[:k])
                    assert not any(_geq(prefix, c) for c in cuts), (stem, _path_desc(path))
            held = cuts[::2]
            sizes.append(len(asked))
        assert sizes[1] < sizes[0]
    assert dropped[0] > 0


def _least_budget(g, values):
    """Fewest walker steps one unpruned walk to CUT_WALK_LEN needs: a predicate
    that prunes nothing is asked about every pop, and each pop it passes
    is one step.  Checked on both sides of the count."""
    wf = WeightFunction(values)
    popped = [0]

    def count(path):
        popped[0] += 1
        return False

    _closed_walks(g, wf, Fraction(2), _ZeroSubgraph([]), CUT_WALK_LEN, 5_000_000, count)
    least = popped[0]
    reduced_closed_walks(g, CUT_WALK_LEN, wf, Fraction(2), budget=least)
    with pytest.raises(WalkBudgetError):
        reduced_closed_walks(g, CUT_WALK_LEN, wf, Fraction(2), budget=least - 1)
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
    monkeypatch.setattr(search_module, "CUT_WALK_BUDGET", _least_budget(g, zero))
    assert _light_walk_cuts(g, fb, zero, []) == want


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
    its fact base and star graph, the weights and report of each
    verification, and the report it returned, the one the search cuts
    from."""
    calls = []
    verify, verify_candidates = search_module.verify_weight_test, search_module._verify_candidates

    def verify_spy(s, fb=None, g=None):
        report = verify(s, fb, g)
        calls[-1]["verified"].append((dict(s.weights), report))
        return report

    def verify_candidates_spy(s, candidates, fb, g):
        calls.append({"fb": fb, "g": g, "verified": []})
        report, chosen = verify_candidates(s, candidates, fb, g)
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


@pytest.mark.parametrize("stem", ["px4_w0", "px1_w1", "px8_w"])
def test_search_verifies_every_candidate_on_its_one_star_graph(stem, monkeypatch):
    # the search builds its star graph once and hands it to every
    # verification, which builds none; each report renders as the report
    # of the same weights verified on a graph of its own
    calls = _capture_searches(monkeypatch)
    built, rebuilt = [], []
    build = build_star_graph
    monkeypatch.setattr(search_module, "build_star_graph", lambda p: built.append(build(p)) or built[-1])
    monkeypatch.setattr(weights_module, "build_star_graph", lambda p: rebuilt.append(p) or build(p))
    s = _bare(stem)
    search_weights(s)
    assert len(built) == 1 and not rebuilt and calls and all(c["g"] is built[0] for c in calls)
    monkeypatch.undo()
    verified = 0
    for c in calls:
        for values, report in c["verified"]:
            assert report.graph is built[0]
            fresh = verify_weight_test(scenario_with_weights(s, values))
            assert render_report(report) == render_report(fresh), (stem, values)
            verified += 1
    assert verified >= 2


# -- one cut source ------------------------------------------------------------
#
# The search before it lost its family cuts, kept verbatim as the oracle but
# for the names of the cut walk's length and budget and the star graph it
# hands to ``_verify_candidates``, which takes it since: the light-walk cuts
# were walked from no held cut, and their caller filtered them against the
# held cuts; a report without notes was cut by the base of each surviving
# family instead (``admissible-candidate`` labels).


def _reference_unseeded_cuts(
    g: StarGraph,
    fb: FactBase,
    values: dict[str, Fraction],
) -> list[tuple[dict[str, int], str]]:
    """When the family decomposition is unavailable (entangled or degenerate
    zero subgraph), cut the minimal unrefuted light walks up to
    ``CUT_WALK_LEN``.  For L = 1..``CUT_WALK_LEN`` it extends the previous
    level's frontier by one edge and takes the walks of exactly L edges in
    canonical order; a walk whose cut an earlier cut implies is skipped
    before its label is refuted, and the walk never extends a prefix whose
    counts cover a kept cut, since every walk through that prefix would be
    skipped (the module docstring gives why the cuts and their labels are
    those of one walk to ``CUT_WALK_LEN`` sorted by length).  Each level walks
    within ``CUT_WALK_BUDGET`` steps.  Each cut is its edge-count vector and its
    label."""
    wf = WeightFunction(values)
    kept: list[dict[str, int]] = []
    by_edge: dict[str, list[dict[str, int]]] = {}  # kept count vectors per edge they hold
    cuts = []

    def covers_kept(path) -> bool:
        # its prefix passed, so only a cut holding the edge just added can be covered now
        held = by_edge.get(path[-1].edge.edge_id)
        return bool(held) and _implied(_edge_counts(path), held)

    for walks in reduced_closed_walks_by_length(
        g, CUT_WALK_LEN, wf, Fraction(2), CUT_WALK_BUDGET, covers_kept
    ):
        for walk in walks:
            counts = _edge_counts(walk)
            if _implied(counts, kept) or fb.refute_trivial(path_label(walk)):
                continue
            kept.append(counts)
            for e in counts:
                by_edge.setdefault(e, []).append(counts)
            cuts.append((counts, "light walk " + _path_desc(walk)))
    return cuts


def _reference_search_weights(s: Scenario, cfg: SearchConfig | None = None) -> SearchOutcome:
    cfg = cfg or SearchConfig()
    g = build_star_graph(s.presentation) if s.presentation.relators else None
    if g is None or not g.edges:
        return SearchOutcome("found", {}, 0, [])
    variables = [e.edge_id for e in g.edges]
    constraints = _base_constraints(g, len(s.presentation.relators))
    try:
        fb = FactBase(s.presentation, s.fact_decls)
    except RewriteCapError as e:
        return SearchOutcome("gave-up", None, 0, constraints, last_violations=[str(e)])

    held: list[dict[str, int]] = []  # count vectors of the cuts in constraints
    last_violations: list[str] = []
    for iteration in range(1, cfg.max_iterations + 1):
        values = solve_feasible(variables, constraints)
        if values is None:
            return SearchOutcome(
                "infeasible",
                None,
                iteration,
                constraints,
                certificate=infeasible_certificate(variables, constraints),
            )
        # prefer weights in {0, 1/2, 1} while they still satisfy every constraint
        candidates = [
            cand
            for cand in (_snap(values), {v: Fraction(1, 2) for v in variables})
            if all(c.satisfied(cand) for c in constraints)
        ]
        candidates.append(values)
        try:
            report, chosen = _verify_candidates(s, candidates, fb, g)
            if report.verdict == "Aspherical":
                return SearchOutcome("found", chosen, iteration, constraints)
            if report.notes:
                # degenerate or entangled zero subgraph: bounded direct cuts
                new_cuts = _reference_unseeded_cuts(g, fb, chosen)
                last_violations = ["zero-weight subgraph not analyzable"]
            else:
                last_violations = [fv.family.display() for fv in report.violations]
                new_cuts = [
                    (_edge_counts(fv.family.base), "admissible-candidate " + fv.family.display())
                    for fv in report.violations
                ]
        except (WalkBudgetError, RewriteCapError) as e:
            return SearchOutcome("gave-up", None, iteration, constraints, last_violations=[str(e)])
        added = False
        for counts, label in new_cuts:
            if not _implied(counts, held):
                held.append(counts)
                constraints.append(_cut(counts, label))
                added = True
        if not added:
            return SearchOutcome(
                "gave-up", None, iteration, constraints, last_violations=last_violations
            )
    return SearchOutcome(
        "gave-up", None, cfg.max_iterations, constraints, last_violations=last_violations
    )


def _reference_held_filter(new_cuts, held):
    """The filter loop of ``_reference_search_weights``, verbatim but for the
    constraint list: the cuts it appends, in order."""
    appended = []
    for counts, label in new_cuts:
        if not _implied(counts, held):
            held.append(counts)
            appended.append((counts, label))
    return appended


@pytest.mark.parametrize("stem", STEMS + ["infeasible_k3"])
def test_seeded_cuts_are_the_unseeded_cuts_less_those_held_implies(stem):
    # the weight draws of test_fallback_by_length_matches_the_single_walk;
    # each draw holds the cuts the draws before it added, as a search would
    s = parse_scenario(INFEASIBLE_K3, name=stem) if stem == "infeasible_k3" else _bare(stem)
    g = build_star_graph(s.presentation)
    rng = random.Random(zlib.crc32(stem.encode()))
    draws = [{e.edge_id: Fraction(0) for e in g.edges}]
    draws += [{e.edge_id: rng.choice(WEIGHT_LEVELS) for e in g.edges} for _ in range(3)]
    held: list[dict[str, int]] = []
    implied = 0
    for values in draws:
        # separate fact bases, so neither side sees the other's memo
        got = _light_walk_cuts(g, FactBase(s.presentation, s.fact_decls), values, list(held))
        unseeded = _reference_unseeded_cuts(g, FactBase(s.presentation, s.fact_decls), values)
        want = _reference_held_filter(unseeded, held)
        assert got == want, values
        implied += len(unseeded) - len(want)
    assert implied > 0  # some held cut implied an unseeded one, so seeding did something


def _search_cases():
    """The random graphs of tests/test_weights.py with their two neq facts
    (a search ignores their weights) and the weight-stripped grid cells."""
    cases = [_random_scenario(g, wf) for g, wf in _random_graphs(300)]
    for k, q in [(3, 3), (4, 3), (4, 4), (5, 3)]:
        lines = _grid_text(k, q).splitlines()
        text = "".join(l + "\n" for l in lines if not l.startswith("weight:"))
        cases.append(parse_scenario(text, name=f"grid_k{k}_q{q}"))
    return cases


def test_search_matches_the_family_cut_search_but_for_candidate_labels():
    # cutting light walks where the old search cut a family's base changes
    # no status, weight function or iteration count on these 304 searches;
    # an infeasible certificate keeps its length, and only a label that
    # named a family changes
    relabelled = infeasible = 0
    for s in _search_cases():
        got, want = search_weights(s), _reference_search_weights(s)
        assert (got.status, got.weights, got.iterations) == (
            want.status,
            want.weights,
            want.iterations,
        ), s.presentation
        assert got.last_violations == want.last_violations
        assert len(got.certificate) == len(want.certificate)
        for a, b in zip(got.certificate, want.certificate):
            assert a == b or b.startswith("admissible-candidate "), (a, b)
        infeasible += got.status == "infeasible"
        relabelled += got.certificate != want.certificate
    assert relabelled >= 100 and infeasible > relabelled


# relator X a1 X^-1 a2: its search cut a family's base, whose label the old
# certificate named as ``admissible-candidate (a2)^m, m >= 1``
TWO_CORNERS = "factor A\ngens A: a1 a2\nindet: X\nrelator: X a1 X^-1 a2\n"


def _walk(g, desc):
    """The traversals a ``_path_desc`` names."""
    return tuple(
        Traversal(g.by_id[t[: -len("^-1")]], -1) if t.endswith("^-1") else Traversal(g.by_id[t], 1)
        for t in desc.split()
    )


def test_every_search_cut_is_an_unrefuted_light_walk(monkeypatch):
    # a cut asks a walk to weigh >= 2; it is sound only where the verifier
    # asks that too: the walk is light under the candidate it was cut at,
    # and no fact refutes its label
    cut_at = {}  # label -> weights of the candidate it was cut at
    build = search_module._light_walk_cuts

    def spy(g, fb, values, held):
        cuts = build(g, fb, values, held)
        cut_at.update((label, values) for _, label in cuts)
        return cuts

    monkeypatch.setattr(search_module, "_light_walk_cuts", spy)
    scenarios = [_bare(stem) for stem in STEMS] + [parse_scenario(TWO_CORNERS)]
    scenarios += [_random_scenario(g, wf) for g, wf in _random_graphs(50)]
    checked = 0
    for s in scenarios:
        cut_at.clear()
        out = search_weights(s)
        g = build_star_graph(s.presentation)
        fb = FactBase(s.presentation, s.fact_decls)
        for c in out.constraints:
            if c.label.startswith(("bound ", "relator ")):
                continue
            assert c.label.startswith("light walk "), c.label
            walk = _walk(g, c.label[len("light walk ") :])
            assert not fb.refute_trivial(path_label(walk)), c.label
            values = cut_at[c.label]
            assert sum((values[t.edge.edge_id] for t in walk), Fraction(0)) < 2, c.label
            assert c.coeffs == _cut(_edge_counts(walk), c.label).coeffs
            checked += 1
    assert checked >= 500
