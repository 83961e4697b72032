"""The family builder before it let a pump-free walk over uniquely labelled
edges skip its key, verbatim: the differential oracle for
``starweight.weights.enumerate_light_cycles``.

It keys every candidate by ``_dedup_key``, in one dict of first-found
families, power families first.  ``tests/test_weights.py`` checks that the
program's builder lists the same families, in the same order, with the
same bases, pumps, weights, kinds and displays.  The walker is looked up
here by name, so a test that swaps it patches this module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from starweight.stargraph import StarGraph
from starweight.weights import (
    FAMILY_WALK_BUDGET,
    CycleFamily,
    Pump,
    WeightError,
    WeightFunction,
    _closed_walks,
    _dedup_key,
    _weight_scale,
    zero_cycle_families,
)


def enumerate_light_cycles(
    g: StarGraph, wf: WeightFunction, threshold: Fraction = Fraction(2)
) -> list[CycleFamily]:
    """Complete family list of reduced closed paths of weight < threshold.

    Each candidate (a walked base with its optional pumps and one choice of
    pump per mandatory point) is keyed by ``_dedup_key``, and only the first
    candidate per key becomes a family, which shows the edges and weight of
    the first of them the walker found.  Its weight is the walker's scaled
    int over ``_weight_scale``, one Fraction per value; families sort on
    that int, which orders as the weights do, as every family shares the
    scale (a zero-cycle power family weighs 0).  Equal keys give equal label
    sequences for every multiplicity vector (see the module docstring), so
    the merged candidates spell nothing the kept one does not.  Raises
    DegenerateZeroCycleError for an empty-label zero cycle and
    EntangledZeroSubgraphError when a zero component has cycle rank >= 2
    (the family decomposition would not be exhaustive there).
    """
    if threshold <= 0:
        raise WeightError("threshold must be positive")
    wf.require_total(g)
    zsub, families = zero_cycle_families(g, wf)
    scale = _weight_scale(g, wf, threshold)
    weight_at = cache(lambda used: Fraction(used, scale))  # one Fraction per weight value
    seen = {_dedup_key(fam.base, fam.pumps, fam.kind): (0, fam) for fam in families}
    for base, marked, used in _closed_walks(g, wf, threshold, zsub, math.inf, FAMILY_WALK_BUDGET):
        n = len(base)
        optional: list[Pump] = []
        mandatory_opts: dict[int, list[Pump]] = {q: [] for q in marked}
        # without a zero cycle there is no pump, and no vertex to ask
        for i, t in enumerate(base if zsub.cycles else ()):
            for prefix, cycle in zsub.pumps_at(t.end):
                if not zsub.fits(t, prefix, cycle, base[(i + 1) % n]):
                    continue
                p = Pump(i, prefix, cycle, mandatory=(i in marked))
                if p.mandatory:
                    mandatory_opts[i].append(p)
                else:
                    optional.append(p)
        mand_points = sorted(mandatory_opts)
        for chosen in itertools.product(*(mandatory_opts[q] for q in mand_points)):
            pumps = tuple(sorted(optional + list(chosen), key=lambda p: p.insert_after))
            key = _dedup_key(base, pumps)
            if key not in seen:
                seen[key] = (used, CycleFamily(base, pumps, weight_at(used), "cycle"))
    return [fam for _, fam in sorted(seen.values(), key=lambda item: (item[0], item[1].display()))]
