"""Family expansions, for the tests.

No command calls them: the weight test refutes a family through its
templates and never builds an instance.  ``expansions_upto`` samples a
family's instances with each pump a bounded number of times, whatever
their length; ``expansions_to_length`` lists every instance up to a
length, as the guard of ``oracle_guard`` does.  ``expansion`` and
``expansions_to_length`` are the ``CycleFamily`` methods of the same
names, verbatim but for taking the family as an argument.
"""

import itertools

from starweight.weights import CycleFamily


def expansion(fam: CycleFamily, ms: dict[int, int]) -> tuple:
    """Base with pump i repeated ms[i] times (default 0)."""
    out: list = []
    for i, t in enumerate(fam.base):
        out.append(t)
        for pi, p in enumerate(fam.pumps):
            if p.insert_after == i and ms.get(pi, 0) > 0:
                out.extend(p.instance(ms[pi]))
    return tuple(out)


def expansions_upto(fam: CycleFamily, mmax: int) -> list:
    """Every expansion of fam with each inserted pump repeated 1..mmax
    times, in no particular order."""
    if fam.kind == "power":
        return [fam.base * m for m in range(1, mmax + 1)]
    return [
        expansion(fam, dict(zip(pis, ms)))
        for _, pis in fam._shapes()
        for ms in itertools.product(range(1, mmax + 1), repeat=len(pis))
    ]


def expansions_to_length(fam: CycleFamily, max_len: int) -> list:
    """Every expansion with at most max_len traversals, in no particular
    order: at each insertion point no pump (unless the point is
    mandatory) or one pump repeated while the expansion stays that
    short, so nothing longer is ever built."""
    if fam.kind == "power":
        return [fam.base * m for m in range(1, max_len // len(fam.base) + 1)]
    points = sorted({p.insert_after for p in fam.pumps})
    mandatory = fam.mandatory_points()
    out: list = []

    def extend(i: int, ms: dict[int, int], length: int):
        if i == len(points):
            out.append(expansion(fam, ms))
            return
        if points[i] not in mandatory:
            extend(i + 1, ms, length)
        for pi, p in enumerate(fam.pumps):
            if p.insert_after == points[i]:
                m, grown = 1, length + 2 * len(p.prefix) + len(p.cycle)
                while grown <= max_len:
                    extend(i + 1, {**ms, pi: m}, grown)
                    m, grown = m + 1, grown + len(p.cycle)

    if len(fam.base) <= max_len:
        extend(0, {}, len(fam.base))
    return out
