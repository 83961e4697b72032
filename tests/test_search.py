import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import starweight
import starweight.search as search_module
from starweight.cli import main
from starweight.facts import FactBase
from starweight.scenario import parse_scenario
from starweight.search import (
    Constraint,
    SearchConfig,
    _base_constraints,
    _cut,
    _edge_counts,
    _fallback_cuts,
    _path_desc,
    infeasible_certificate,
    search_weights,
    scenario_with_weights,
    solve_feasible,
    weight_lines,
)
from starweight.stargraph import build_star_graph, path_label
from starweight.weights import (
    WalkBudgetError,
    WeightError,
    WeightFunction,
    reduced_closed_walks,
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


@pytest.mark.parametrize("stem", ["px", "sec3_case1_w2", "sec3_case2_w", "sec3_lemma32_w"])
def test_search_infeasible_corpus_certificate_is_infeasible(stem):
    out = search_weights(_bare(stem))
    assert out.status == "infeasible"
    named = [c for c in out.constraints if c.label in set(out.certificate)]
    assert len(named) == len(out.certificate)
    assert solve_feasible(sorted({v for c in out.constraints for v, _ in c.coeffs}), named) is None


def test_walk_budget_is_gave_up_not_an_input_error(monkeypatch, tmp_path, capsys):
    def tiny_budget(g, max_len, wf=None, threshold=None, budget=0):
        return reduced_closed_walks(g, max_len, wf, threshold, budget=1)

    s = _bare("px4_w0")
    with pytest.raises(WalkBudgetError, match="^closed-walk enumeration budget exceeded$"):
        tiny_budget(build_star_graph(s.presentation), 6)
    assert issubclass(WalkBudgetError, WeightError)
    monkeypatch.setattr(search_module, "reduced_closed_walks", tiny_budget)
    out = search_weights(s)
    assert out.status == "gave-up" and out.weights is None
    assert out.last_violations == ["closed-walk enumeration budget exceeded"]
    path = tmp_path / "px4_w0.scn"
    path.write_text(_bare_text("px4_w0"))
    assert main(["search-weights", str(path)]) == 1  # a negative outcome, not exit 2
    assert "unresolved: closed-walk enumeration budget exceeded" in capsys.readouterr().out
