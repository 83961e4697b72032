"""Search for aspherical weight functions by exact rational linear
feasibility with lazy cycle-constraint generation.

The LP over edge weights has 0 <= w(e) <= 1, the relator condition
sum(w) <= corners - 2 per relator, and an accumulating set of cuts
sum(w over path edges) >= 2, one per admissible-candidate cycle family
discovered by the verifier on the previous candidate.  Family cuts use the
minimal member of the family (pumps only add nonnegative weight, so it
dominates the whole family).  Everything is exact Fraction arithmetic with
Bland's rule, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .facts import FactBase
from .scenario import Scenario
from .stargraph import StarGraph, Traversal, build_star_graph, is_reduced, path_label
from .weights import (
    DegenerateZeroCycleError,
    EntangledZeroSubgraphError,
    WeightFunction,
    reduced_closed_walks,
    verify_weight_test,
)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[str, Fraction], ...]
    sense: str  # "<=" | ">="
    rhs: Fraction
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
    """Phase-1 simplex with Bland's rule; None when infeasible.

    Each row is negated where needed so that its rhs is nonnegative and it
    is ``>=`` only when the rhs is positive; exactly those rows get an
    artificial.  Tableau columns: structural | one slack per row (+1 on a
    ``<=`` row, -1 on a ``>=`` row) | artificials in row order | rhs.  Row m
    holds the reduced costs of min sum(artificials) and is pivoted in place
    with the constraint rows, so its rhs entry is minus the objective.  A
    basic column's reduced cost is exactly 0, so Bland's rule enters the
    first negative one.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    n, m = len(variables), len(constraints)
    rows = []
    for c in constraints:
        row = [Fraction(0)] * n
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
    cost = [Fraction(0)] * (width + 1)
    for i, (row, rhs, geq) in enumerate(rows):
        line = row + [Fraction(0)] * (m + n_art) + [rhs]
        line[n + i] = Fraction(-1) if geq else Fraction(1)
        if geq:
            line[art] = Fraction(1)
            basis.append(art)
            art += 1
            cost = [z - x for z, x in zip(cost, line)]
        else:
            basis.append(n + i)
        tab.append(line)
    cost[n + m : width] = [Fraction(0)] * n_art
    tab.append(cost)

    while True:
        entering = next((j for j in range(width) if tab[m][j] < 0), None)
        if entering is None:
            break
        leaving, best = -1, None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving < 0:
            break  # unbounded phase 1 cannot happen; be safe
        piv = tab[leaving][entering]
        pivot = tab[leaving] = [x / piv for x in tab[leaving]]
        support = [(j, y) for j, y in enumerate(pivot) if y]  # only these columns change
        for i, line in enumerate(tab):
            f = line[entering]
            if f and i != leaving:
                for j, y in support:
                    line[j] -= f * y
        basis[leaving] = entering

    if tab[m][width]:
        return None
    values = {v: Fraction(0) for v in variables}
    for i, b in enumerate(basis):
        if b < n:
            values[variables[b]] = tab[i][width]
    return values


def infeasible_certificate(
    variables: list[str], constraints: list[Constraint]
) -> list[str]:
    """Greedy minimal-ish violated subset: drop constraints that stay
    infeasible without them."""
    active = list(constraints)
    changed = True
    while changed:
        changed = False
        for c in list(active):
            rest = [x for x in active if x is not c]
            if solve_feasible(variables, rest) is None:
                active = rest
                changed = True
                break
    return [c.label for c in active]


def _fallback_cuts(
    g: StarGraph,
    fb: FactBase,
    values: dict[str, Fraction],
    max_len: int = 6,
) -> list[Constraint]:
    """When the family decomposition is unavailable (entangled or degenerate
    zero subgraph), cut every unrefuted light walk up to a bounded length."""
    wf = WeightFunction(values)
    cuts = []
    for walk in reduced_closed_walks(g, max_len, wf, Fraction(2), budget=400_000):
        if fb.refute_trivial(path_label(walk)):
            continue
        cuts.append(_cut_from_path(walk, "light walk " + _path_desc(walk)))
    return cuts


def _cut_from_path(path, label: str) -> Constraint:
    counts: dict[str, int] = {}
    for t in path:
        counts[t.edge.edge_id] = counts.get(t.edge.edge_id, 0) + 1
    coeffs = tuple(sorted((e, Fraction(c)) for e, c in counts.items()))
    return Constraint(coeffs, ">=", Fraction(2), label)


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


def search_weights(s: Scenario, cfg: SearchConfig | None = None) -> SearchOutcome:
    cfg = cfg or SearchConfig()
    g = build_star_graph(s.presentation) if s.presentation.relators else None
    if g is None or not g.edges:
        return SearchOutcome("found", {}, 0, [])
    fb = FactBase(s.presentation, s.fact_decls)

    variables = [e.edge_id for e in g.edges]
    constraints: list[Constraint] = []
    for e in g.edges:
        constraints.append(
            Constraint(((e.edge_id, Fraction(1)),), "<=", Fraction(1), f"bound {e.edge_id} <= 1")
        )
    for ri in range(len(s.presentation.relators)):
        # corner edge ids are distinct, so each has coefficient 1
        coeffs = tuple(sorted((e.edge_id, Fraction(1)) for e in g.edges if e.relator == ri))
        constraints.append(
            Constraint(coeffs, "<=", Fraction(len(coeffs) - 2), f"relator {ri} condition")
        )

    seen_cuts: set[tuple] = set()
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
        report = None
        chosen = None
        for cand in candidates:
            trial = scenario_with_weights(s, cand)
            try:
                rep = verify_weight_test(trial)
            except DegenerateZeroCycleError:
                rep = None
            if rep is not None and rep.verdict == "Aspherical":
                report, chosen = rep, cand
                break
            if chosen is None:
                report, chosen = rep, cand
        if report is not None and report.verdict == "Aspherical":
            return SearchOutcome("found", chosen, iteration, constraints)

        new_cuts = []
        if report is None or report.notes:
            # degenerate or entangled zero subgraph: bounded direct cuts
            new_cuts.extend(_fallback_cuts(g, fb, chosen))
            last_violations = ["zero-weight subgraph not analyzable"]
        else:
            last_violations = [fv.family.display() for fv in report.violations]
            for fv in report.violations:
                new_cuts.append(
                    _cut_from_path(fv.family.base, "admissible-candidate " + fv.family.display())
                )
        added = False
        for cut in new_cuts:
            if cut.coeffs not in seen_cuts:
                seen_cuts.add(cut.coeffs)
                constraints.append(cut)
                added = True
        if not added:
            return SearchOutcome(
                "gave-up", None, iteration, constraints, last_violations=last_violations
            )
    return SearchOutcome(
        "gave-up", None, cfg.max_iterations, constraints, last_violations=last_violations
    )


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
