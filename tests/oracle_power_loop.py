"""The R2/R4 refutation before it looked a power up in a table per length,
verbatim: the differential oracle for
``starweight.facts.FactBase._refute_power``.

``PowerLoopFactBase`` is the fact base with the ``_refute_power`` it had
then, which walks the powers root^e (e | d) of w = root^d from the shortest
and answers at the first one in ``neq1``, or, where a rule pattern occurs in
w cyclically, the first one whose cyclic normal form is in ``neq1``.  The
program keeps that loop for the second case and answers the first from
``FactBase._neq_powers``; ``tests/test_facts.py`` checks that both give the
same (refuted, rule) on every query of a corpus run, of the bench grid cells
and of random fact bases.
"""

from __future__ import annotations

from starweight.facts import UNKNOWN, FactBase, Verdict, _divisors
from starweight.words import Codes, max_root


class PowerLoopFactBase(FactBase):
    def _refute_power(self, w: Codes, occurs: bool) -> Verdict:
        """R2/R4: w (cyclic, nonempty) is u^d with u != 1 derivable.

        w must be a cyclic normal form, as ``_cyclic_normalize`` returns it:
        cyclically reduced and least among its rotations, with ``occurs``
        the flag it returns beside w.  When no rule
        pattern occurs in w cyclically, each u = root^e (e | d) is its own
        cyclic normal form, so ``_neq1_match(u)`` is ``u in self.neq1``:
        u's expansion is a prefix of w's, so no pattern occurs in u and u is
        its own normal form; its first and last letters are w's, so it is
        cyclically reduced; its doubled expansion is a prefix of w's, so no
        pattern occurs in u cyclically and no seam rotation is tried; and a
        rotation of root^e by i letters is (root rotated by i)^e, which
        compares with root^e as the same rotation of root^d compares with
        w, so u is least among its rotations because w is.  Where a pattern
        occurs, u is looked up as it stands before it is normalised again:
        neq1 holds only words proved != 1, and cyclic normalisation is not
        idempotent, so a fact's own word w may lie in neq1 while its second
        normal form does not.
        """
        root, d = max_root(w)
        for e in _divisors(d):
            u = root * e
            if u in self.neq1 or occurs and self._neq1_match(u):
                return Verdict("R4" if len(u) == 1 else "R2")
        return UNKNOWN
