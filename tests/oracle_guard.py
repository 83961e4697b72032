"""The guard of the weight test, kept as the oracle of the family list's
completeness.

``verify_weight_test`` once walked every light closed walk of at most
``GUARD_LEN`` traversals a second time, after the families, and reported
each walk that no family spells and the fact base does not refute.  The
``weights.py`` module docstring proves that every light reduced closed
path lies in a listed family, and that neither cap of the family walker
cuts one of at most ``GUARD_LEN`` traversals; so on every input the guard
reports nothing, and the tests run it to check that.

``guarded_report`` is the program's report with the guard's verdicts and
note added.  The guard block is the one ``verify_weight_test`` ran,
verbatim but for three spellings: ``canonical_atom_cycle(f.base)`` where a
pump-free family held it as ``atom_cycle``, ``expansions_to_length(f,
...)`` where that was a ``CycleFamily`` method, and a plain Fraction sum
for the weight of a reported walk, where ``WeightFunction.weight_of``
stood.  It reaches the walker and the family list through the ``weights``
module, so a test that patches either there patches the oracle too, and it
asks the one fact base that refuted the families, in the same order.

The guard decides each light closed walk of at most ``GUARD_LEN``
traversals in two steps:

1. each walk the walker emits is keyed once by ``canonical_atom_cycle``
   and dropped when some family spells it, that is when an expansion of
   at most ``GUARD_LEN`` traversals has that key;
2. the walks left, one per edge class as the walker lists them, are
   sorted by ``canonical_atom_edge_cycle``; each whose label
   ``refute_trivial`` does not refute is reported as "guard walk not
   covered".

Step 1 is sound: a walk of L traversals can only equal an expansion of L
traversals, so the lookup misses no spelling family, and a refuted
family's template refutation covers each of its expansions, so the walk's
label is refuted; a surviving family is already reported.  A pump-free
family's only expansion is its base, so only power and pumped families
are expanded.  Exhausting ``GUARD_BUDGET`` adds a note, which rules out
Aspherical.
"""

from fractions import Fraction

import starweight.weights as weights
from expansions import expansions_to_length
from starweight.facts import UNKNOWN, FactBase
from starweight.stargraph import canonical_atom_cycle, path_label
from starweight.weights import (
    CycleFamily,
    FamilyVerdict,
    WalkBudgetError,
    WeightTestReport,
    _ZeroSubgraph,
    canonical_atom_edge_cycle,
)

GUARD_LEN = 6  # the guard walks every light closed walk up to this length
GUARD_BUDGET = 400_000  # walker steps for the guard; exhausting it forbids Aspherical
NOT_COVERED = "guard walk not covered"  # the witness of a walk only the guard reports


def guarded_report(s, fb: FactBase | None = None) -> WeightTestReport:
    """``verify_weight_test`` of scenario s, then the guard on its families,
    both on ``fb`` (by default a fresh fact base of s).  A report with a
    note from the program (an entangled or degenerate zero subgraph) has
    no family list, and the guard does not run."""
    if fb is None:
        fb = FactBase(s.presentation, s.fact_decls)
    report = weights.verify_weight_test(s, fb)
    if report.notes:
        return report
    g, wf = report.graph, report.weight_function
    families = [fv.family for fv in report.families]
    verdicts, notes = report.families, report.notes

    # belt-and-suspenders guard: short walks must be refuted or reported
    try:
        walks = weights._closed_walks(g, wf, Fraction(2), _ZeroSubgraph([]), GUARD_LEN, GUARD_BUDGET)
    except WalkBudgetError:
        walks = []
        notes.append(f"guard enumeration over length <= {GUARD_LEN} skipped (budget)")
    if walks:
        spelled: set[tuple] = set()
        for f in families:
            if f.kind == "power" or f.pumps:
                spelled.update(canonical_atom_cycle(x) for x in expansions_to_length(f, GUARD_LEN))
            elif len(f.base) <= GUARD_LEN:
                spelled.add(canonical_atom_cycle(f.base))
        unspelled = (path for path, _, _ in walks if canonical_atom_cycle(path) not in spelled)
        for w in sorted(unspelled, key=canonical_atom_edge_cycle):
            if not fb.refute_trivial(path_label(w)):
                fam = CycleFamily(w, (), sum((wf[t.edge.edge_id] for t in w), Fraction(0)), "cycle")
                verdicts.append(FamilyVerdict(fam, UNKNOWN, witness=NOT_COVERED))
    return report
