"""Family expansions by pump multiplicity, for the tests.

No command calls it: the guard of the weight test builds expansions by
length, with ``CycleFamily.expansions_to_length``.  The tests use this
enumeration to sample a family's instances with each pump a bounded
number of times, whatever their length.
"""

import itertools

from starweight.weights import CycleFamily


def expansions_upto(fam: CycleFamily, mmax: int) -> list:
    """Every expansion of fam with each inserted pump repeated 1..mmax
    times, in no particular order."""
    if fam.kind == "power":
        return [fam.base * m for m in range(1, mmax + 1)]
    return [
        fam.expansion(dict(zip(pis, ms)))
        for _, pis in fam._shapes()
        for ms in itertools.product(range(1, mmax + 1), repeat=len(pis))
    ]
