"""Critical-pair check of a fact base's eq rewrite system, for the tests.

No command calls it.  The fact base needs no confluence: each answer it
gives is a derivation it has found, or Unknown.  The tests use the check to
pin that every corpus fact base is confluent, and that a small system
known not to be is caught.
"""

from starweight.facts import FactBase
from starweight.words import free_reduce


def check_confluence(fb: FactBase) -> bool:
    """Join all critical pairs of the rule set."""
    for l1, r1 in fb.rules:
        n1 = len(l1)
        for l2, r2 in fb.rules:
            n2 = len(l2)
            for k in range(1, min(n1, n2)):
                if l1[n1 - k :] == l2[:k]:
                    a = fb.normalize_any(free_reduce(l1[: n1 - k] + r2))
                    b = fb.normalize_any(free_reduce(r1 + l2[k:]))
                    if a != b:
                        return False
            if n2 <= n1:
                for i in range(n1 - n2 + 1):
                    if l1[i : i + n2] == l2:
                        a = fb.normalize_any(free_reduce(l1[:i] + r2 + l1[i + n2 :]))
                        if a != fb.normalize_any(r1):
                            return False
    return True
