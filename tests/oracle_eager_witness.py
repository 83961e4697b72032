"""The family refutation before a verdict decoded its witness only when read,
verbatim: the differential oracle of ``FamilyVerdict.witness``.

``_refute_family_all`` refutes a family's templates in order and decodes
the first one the fact base does not refute into the witness string at
once.  ``tests/test_weights.py`` checks that every verdict's lazily
decoded ``witness`` reads the same, and builds the memo-first guard's
verdicts with it.
"""

from starweight.facts import UNKNOWN, FactBase, Verdict
from starweight.weights import CycleFamily
from starweight.words import decode


def _refute_family_all(fb: FactBase, fam: CycleFamily) -> tuple[Verdict, str]:
    last = None
    for segments, pumps in fam.templates():
        v = fb.refute_template(segments, pumps)
        if not v.refuted:
            if pumps:
                desc = " ".join(
                    f"{decode(s, fb.order)} ({decode(p, fb.order)})^m" for s, p in zip(segments, pumps)
                )
            else:
                desc = str(decode(segments[0], fb.order))
            return UNKNOWN, desc
        last = v
    return (last if last is not None else UNKNOWN), ""
