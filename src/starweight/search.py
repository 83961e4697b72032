"""Search for aspherical weight functions by exact rational linear
feasibility with lazy cycle-constraint generation.

The LP over edge weights has 0 <= w(e) <= 1, the relator condition
sum(w) <= corners - 2 per relator, and an accumulating set of cuts
sum(w over walk edges) >= 2, one per unrefuted light walk of at most
``CUT_WALK_LEN`` (6) edges under a candidate the verifier did not accept
(``_light_walk_cuts``).  The simplex follows Bland's rule and pivots
on integers over one common denominator, so its results are exact
Fractions and runs are deterministic.

These cuts are necessary: every weight function the verifier accepts gives
each unrefuted closed walk of at most ``CUT_WALK_LEN`` edges weight >= 2.
Such a walk is cyclically reduced.  Were it lighter than 2 under that
function, it would lie in a family of the function's list: the
``weights`` module docstring proves the list complete whenever its walk
returns, and a walk that meets a path over its ``MAX_MARKED`` cap raises
``WalkBudgetError``, which ends the search as gave-up.  The verifier accepts
only when every listed family is refuted, and a refuted family's short
expansions are then refuted on their own, so the walk would be refuted;
that last step is checked, not proved, by
``tests/test_weights.py::test_refuted_families_refute_each_short_expansion_on_its_own``
on the corpus, grid cells and 300 random graphs.  A cut is the walk's
edge-count vector c with c.w >= 2.  Weights are >= 0, so when c <= c' in
every coordinate, c.w >= 2 implies c'.w >= 2: the cut of c' is redundant
and dropping it leaves the feasible region unchanged.

``_light_walk_cuts`` walks by length: level L takes the walks of exactly L
edges in canonical order, shortest level first, as one sort of every walk
up to ``CUT_WALK_LEN`` by length would.  It starts its kept set with the
cuts the search already holds, skips a walk whose cut a kept cut implies
before its label is refuted, and never extends a prefix whose counts cover
a kept cut.  A prefix's counts are <= those of every walk through it, and
counts do not change under rotation or inversion, so this drops whole
classes of implied walks and never a member of a class that survives; the
walk keeps its depth-first order, so each surviving class keeps the
member, and so the label, that one walk to ``CUT_WALK_LEN`` finds first.
A level's cuts are not known while it walks, but two walks of one length
imply each other only when their counts are equal, and the implication
test on each walk catches that.

Starting from the held cuts returns exactly the cuts that a walk started
from nothing returns once those a held cut implies are filtered out.  A
class that the seeded walk keeps is implied by no held cut and by no new
cut.  Every cut the unseeded walk keeps is either implied by a held cut or
is one of the seeded walk's cuts, so such a class is also implied by
nothing the unseeded walk kept.  The prune drops only whole implied
classes, so both walks find the same first member of every surviving
class, with the same label, in the same level and canonical order.

Level L resumes from level L - 1's frontier, its unpruned paths of L - 1
edges in depth-first order, instead of walking again from the roots.  The
walk asks about each path as it pops it, and a frontier path is popped
again at level L, so it meets the cuts kept at level L - 1 by itself.  The
test on a path P looks only at the kept cuts that hold P's last edge, yet
no path that covers a kept cut is extended.  A kept cut that P covers
without its last edge is covered by P's prefix, which was popped after the
cut was kept and so was dropped there, by induction on length: a held cut
is kept before any path is popped, and a new cut of j edges at level j,
before any longer path is popped.  A cut as long as P that P covers has
P's counts, so it holds P's last edge.  The survivors are extended in the
order the walk pops them, so the new paths keep depth-first order, and
only the closed ones of exactly L edges are canonicalised.  Each level pops
its frontier and its new paths, a subset of the nodes one unpruned walk to
``CUT_WALK_LEN`` pops and of what the same level popped without held cuts,
within ``CUT_WALK_BUDGET``: no search that such a walk would let finish
gives up here.  Exhausting the walk budget or the eq rewrite cap ends the
search as gave-up, and so does a round that finds no new cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .facts import FactBase, RewriteCapError
from .scenario import Scenario
from .stargraph import StarGraph, build_star_graph, path_label
from .weights import (
    WalkBudgetError,
    WeightFunction,
    reduced_closed_walks_by_length,
    verify_weight_test,
)

CUT_WALK_LEN = 6  # the cuts walk every light closed walk up to this length
CUT_WALK_BUDGET = 400_000  # walker steps per level of that walk; exhausting it gives up


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[str, int], ...]
    sense: str  # "<=" | ">="
    rhs: int
    label: str

    def satisfied(self, values: dict[str, Fraction]) -> bool:
        total = sum((c * values.get(v, Fraction(0)) for v, c in self.coeffs), Fraction(0))
        return total <= self.rhs if self.sense == "<=" else total >= self.rhs


@dataclass
class SearchConfig:
    max_iterations: int = 64

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be >= 1")


@dataclass
class SearchOutcome:
    status: str  # "found" | "infeasible" | "gave-up"
    weights: dict[str, Fraction] | None
    iterations: int
    constraints: list[Constraint]
    certificate: list[str] = field(default_factory=list)  # infeasible subset
    last_violations: list[str] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.status == "found"


def solve_feasible(
    variables: list[str], constraints: list[Constraint]
) -> dict[str, Fraction] | None:
    """Phase-1 simplex with Bland's rule, pivoting on integers; None when
    infeasible.  Every coefficient and rhs the search builds is an int.

    Each row is negated where needed so that its rhs is nonnegative and it
    is ``>=`` only when the rhs is positive; exactly those rows get an
    artificial.  Tableau columns: structural | one slack per row (+1 on a
    ``<=`` row, -1 on a ``>=`` row) | artificials in row order | rhs.  Row m
    holds the reduced costs of min sum(artificials) and is pivoted in place
    with the constraint rows, so its rhs entry is minus the objective.  A
    basic column's reduced cost is exactly 0, so Bland's rule enters the
    first negative one.

    The tableau is kept as integers T over one common denominator d > 0
    (the true entries are T/d), starting at d = 1 with the identity basis.
    Pivoting on T[r][c] = p replaces every other row i by
    (p*T[i] - T[i][c]*T[r]) // d, which divides exactly (each entry is a
    minor of the starting tableau), keeps row r and sets d = p.  The ratio
    test only takes p > 0, so d stays positive: T and T/d have the same
    signs, and T[i][rhs]/T[i][c] < T[l][rhs]/T[l][c] is compared as
    T[i][rhs]*T[l][c] < T[l][rhs]*T[i][c].
    """
    var_index = {v: i for i, v in enumerate(variables)}
    n, m = len(variables), len(constraints)
    rows = []
    for c in constraints:
        row = [0] * n
        for v, coef in c.coeffs:
            row[var_index[v]] += coef
        rhs, geq = c.rhs, c.sense == ">="
        if rhs < 0 or (geq and rhs == 0):
            row, rhs, geq = [-x for x in row], -rhs, not geq
        rows.append((row, rhs, geq))

    n_art = sum(geq for _, _, geq in rows)
    width = n + m + n_art
    tab, basis = [], []
    art = n + m  # next artificial column
    cost = [0] * (width + 1)
    for i, (row, rhs, geq) in enumerate(rows):
        line = row + [0] * (m + n_art) + [rhs]
        line[n + i] = -1 if geq else 1
        if geq:
            line[art] = 1
            basis.append(art)
            art += 1
            cost = [z - x for z, x in zip(cost, line)]
        else:
            basis.append(n + i)
        tab.append(line)
    cost[n + m : width] = [0] * n_art
    tab.append(cost)

    d = 1  # common denominator of the tableau, always > 0
    while True:
        entering = next((j for j in range(width) if tab[m][j] < 0), None)
        if entering is None:
            break
        leaving, best_rhs, best_a = -1, 0, 1
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                left, right = tab[i][width] * best_a, best_rhs * a
                if leaving < 0 or left < right or (left == right and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, tab[i][width], a
        if leaving < 0:
            break  # unbounded phase 1 cannot happen; be safe
        pivot = tab[leaving]
        p = pivot[entering]
        for i, line in enumerate(tab):
            if i == leaving:
                continue
            f = line[entering]
            if f:
                tab[i] = [(p * x - f * y) // d for x, y in zip(line, pivot)]
            elif p != d:
                tab[i] = [p * x // d for x in line]
        d = p
        basis[leaving] = entering

    if tab[m][width]:
        return None
    values = {v: Fraction(0) for v in variables}
    for i, b in enumerate(basis):
        if b < n:
            values[variables[b]] = Fraction(tab[i][width], d)
    return values


def infeasible_certificate(
    variables: list[str], constraints: list[Constraint]
) -> list[str]:
    """Minimal infeasible subset from one deletion pass: a constraint found
    necessary stays so, as dropping more only widens the feasible region."""
    active = list(constraints)
    for c in constraints:
        rest = [x for x in active if x is not c]
        if solve_feasible(variables, rest) is None:
            active = rest
    return [c.label for c in active]


def _light_walk_cuts(
    g: StarGraph,
    fb: FactBase,
    values: dict[str, Fraction],
    held: list[dict[str, int]],
) -> list[tuple[dict[str, int], str]]:
    """Cut the minimal unrefuted light walks up to ``CUT_WALK_LEN`` edges
    that no count vector of ``held``, the cuts the search already holds,
    implies.  For L = 1..``CUT_WALK_LEN`` it extends the previous level's
    frontier by one edge and takes the walks of exactly L edges in
    canonical order; a walk whose cut a held or earlier cut implies is
    skipped before its label is refuted, and the walk never extends a
    prefix whose counts cover one, since every walk through that prefix
    would be skipped (the module docstring gives why the cuts and their
    labels are those of one walk to ``CUT_WALK_LEN`` sorted by length,
    less the ones ``held`` implies).  Each level walks within
    ``CUT_WALK_BUDGET`` steps.  Each cut is its edge-count vector and its
    label."""
    wf = WeightFunction(values)
    kept: list[dict[str, int]] = []
    by_edge: dict[str, list[dict[str, int]]] = {}  # kept count vectors per edge they hold
    cuts = []

    def keep(counts):
        kept.append(counts)
        for e in counts:
            by_edge.setdefault(e, []).append(counts)

    def covers_kept(path) -> bool:
        # its prefix passed, so only a cut holding the edge just added can be covered now
        at_edge = by_edge.get(path[-1].edge.edge_id)
        return bool(at_edge) and _implied(_edge_counts(path), at_edge)

    for counts in held:
        keep(counts)
    for walks in reduced_closed_walks_by_length(
        g, CUT_WALK_LEN, wf, Fraction(2), CUT_WALK_BUDGET, covers_kept
    ):
        for walk in walks:
            counts = _edge_counts(walk)
            if _implied(counts, kept) or fb.refute_trivial(path_label(walk)):
                continue
            keep(counts)
            cuts.append((counts, "light walk " + _path_desc(walk)))
    return cuts


def _edge_counts(path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in path:
        counts[t.edge.edge_id] = counts.get(t.edge.edge_id, 0) + 1
    return counts


def _implied(counts: dict[str, int], kept: list[dict[str, int]]) -> bool:
    """Some kept count vector is <= counts everywhere, so with weights >= 0
    its cut implies the cut of counts."""
    for k in kept:  # loops, not any/all: this is asked about every pushed path
        for e, c in k.items():
            if counts.get(e, 0) < c:
                break
        else:
            return True
    return False


def _cut(counts: dict[str, int], label: str) -> Constraint:
    return Constraint(tuple(sorted(counts.items())), ">=", 2, label)


def _snap(values: dict[str, Fraction]) -> dict[str, Fraction]:
    snapped = {}
    for k, v in values.items():
        if v <= Fraction(1, 4):
            snapped[k] = Fraction(0)
        elif v < Fraction(3, 4):
            snapped[k] = Fraction(1, 2)
        else:
            snapped[k] = Fraction(1)
    return snapped


def _base_constraints(g: StarGraph, relator_count: int) -> list[Constraint]:
    """w(e) <= 1 per edge and the relator condition per relator."""
    constraints = [
        Constraint(((e.edge_id, 1),), "<=", 1, f"bound {e.edge_id} <= 1")
        for e in g.edges
    ]
    for ri in range(relator_count):
        # corner edge ids are distinct, so each has coefficient 1
        coeffs = tuple(sorted((e.edge_id, 1) for e in g.edges if e.relator == ri))
        constraints.append(
            Constraint(coeffs, "<=", len(coeffs) - 2, f"relator {ri} condition")
        )
    return constraints


def search_weights(s: Scenario, cfg: SearchConfig | None = None) -> SearchOutcome:
    cfg = cfg or SearchConfig()
    g = build_star_graph(s.presentation) if s.presentation.relators else None
    if g is None:
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
            new_cuts = _light_walk_cuts(g, fb, chosen, held)
        except (WalkBudgetError, RewriteCapError) as e:
            return SearchOutcome("gave-up", None, iteration, constraints, last_violations=[str(e)])
        if report.notes:  # degenerate or entangled zero subgraph: no families to show
            last_violations = ["zero-weight subgraph not analyzable"]
        else:
            last_violations = [fv.family.display() for fv in report.violations]
        if not new_cuts:
            return SearchOutcome(
                "gave-up", None, iteration, constraints, last_violations=last_violations
            )
        for counts, label in new_cuts:
            held.append(counts)
            constraints.append(_cut(counts, label))
    return SearchOutcome(
        "gave-up", None, cfg.max_iterations, constraints, last_violations=last_violations
    )


def _verify_candidates(
    s: Scenario, candidates: list[dict[str, Fraction]], fb: FactBase, g: StarGraph
):
    """(report, candidate) of the first Aspherical candidate, else of the
    first one.  A candidate equal to an earlier one would get the same
    report, so it is skipped.  ``fb`` and ``g`` are the scenario's fact base
    and star graph, shared by every verification."""
    first = None
    seen: list[dict[str, Fraction]] = []
    for cand in candidates:
        if cand in seen:
            continue
        seen.append(cand)
        rep = verify_weight_test(scenario_with_weights(s, cand), fb, g)
        if rep.verdict == "Aspherical":
            return rep, cand
        first = first or (rep, cand)
    return first


def _path_desc(path) -> str:
    return " ".join(
        t.edge.edge_id if t.direction > 0 else f"{t.edge.edge_id}^-1" for t in path
    )


def scenario_with_weights(s: Scenario, values: dict[str, Fraction]) -> Scenario:
    return Scenario(
        s.presentation,
        s.fact_decls,
        [(k, v) for k, v in sorted(values.items())],
        name=s.name,
    )


def weight_lines(values: dict[str, Fraction]) -> str:
    """Found assignment in scenario `weight:` syntax for direct pasting."""
    return "".join(f"weight: {k} = {v}\n" for k, v in sorted(values.items()))
