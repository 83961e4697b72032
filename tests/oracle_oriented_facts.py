"""The oracle fact base of ``oracle_facts`` with each eq rule oriented on its
own, as ``starweight.facts`` orients them: the differential oracle where
that orientation decides the answer.

``oracle_facts.FactBase`` orients the rule of an eq fact u = v by (length,
letters) and appends that rule's inverse as it is.  When the two sides have
equal length the inverse can rewrite a word to a greater one, and
``eq a2^-1 a1 = a1^-1 a2`` gives a rule together with its exact reverse, so
rewriting loops.  This twin orients the rule of u^-1 = v^-1 by the same
size as the rule of u = v, each on its own.  Its rules are then not closed
under inversion, and the inverse of a normal form need not be one; so the
twin, as ``starweight.facts`` does, also keeps the inverse of each neq word
and each notincyclic core normalised (its ``_build_queries``).  A core's
inverse normal form is kept as a further core of the same generator, which
the verbatim query code compares with in both orientations.  Its
``_refute_power``, as ``starweight.facts``'s, looks each root power up as
it stands before it normalises it again, as cyclic normalisation is not
idempotent; it gives the rule alone, without a trace.  Everything else is
the verbatim oracle's.  Both orientations are sound (every rule is an
equality), but on random words and random eq facts they prove different
things.  So the tests that draw those compare with this twin, and the tests
that replay corpus and grid queries keep the verbatim oracle, whose answers
there are the same.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import oracle_facts
from oracle_facts import UNKNOWN, FactError, Verdict, _divisors, _exponent_sums, _refuted, _strip_g
from oracle_words import Word, cyclically_reduce, letter_key, max_root
from starweight.scenario import FactDecl, RelativePresentation


class OrientedFactBase(oracle_facts.FactBase):
    def _build_rules(self):
        key = letter_key(self.order)

        def size(w: Word):
            return len(w), [key(lt) for lt in w.expand()]

        for fd in self.decls:
            u, v = fd.lhs, fd.rhs
            # checks every fact's symbols, which no query checks again
            fu, fv = self._word_factor(u), self._word_factor(v)
            if fd.kind != "eq":
                continue
            if fu is None or fv is None or (fu and fv and fu != fv):
                raise FactError(f"eq fact spans factors: {u} = {v}")
            if u == v:
                continue
            for x, y in ((u, v), (u.inverse(), v.inverse())):
                big, small = (x, y) if size(x) > size(y) else (y, x)
                self.rules.append((big.expand(), small))
            sums = _exponent_sums(u)
            for n, e in v.letters:
                sums[n] = sums.get(n, 0) - e
            self.unbalanced.update(n for n, e in sums.items() if e)

    def _build_queries(self):
        for fd in self.decls:
            if fd.kind == "neq":
                n, _ = self._cyclic_normalize(fd.lhs * fd.rhs.inverse())
                forms = {n}
                if self.rules:
                    forms.add(self._cyclic_normalize(fd.rhs * fd.lhs.inverse())[0])
                if Word() in forms:
                    raise FactError(f"inconsistent facts: {fd.lhs} = {fd.rhs} follows from eq facts")
                self.neq1 |= forms | {cyclically_reduce(x.inverse(), self.order) for x in forms}
            elif fd.kind == "notincyclic":
                g = fd.rhs
                if len(g.letters) != 1 or g.letters[0][1] != 1:
                    raise FactError(f"notincyclic needs a single generator, got {g}")
                gname = g.letters[0][0]
                if self.as_power_of(fd.lhs, gname) is not None:
                    raise FactError(f"inconsistent fact: {fd.lhs} lies in <{gname}>")
                core = _strip_g(self.normalize_any(fd.lhs), gname)
                self.notincyclic.append((core, gname))
                inv = _strip_g(self.normalize_any(core.inverse()), gname)
                if inv != core.inverse():
                    self.notincyclic.append((inv.inverse(), gname))

    def _refute_power(self, w: Word, occurs: bool) -> Verdict:
        root, d = max_root(w)
        for e in _divisors(d):
            u = Word(root.expand() * e)
            if u in self.neq1 or occurs and self._neq1_match(u):
                return _refuted("R4" if len(u.letters) == 1 and abs(u.letters[0][1]) == 1 else "R2")
        return UNKNOWN


def oriented_oracle_fact_base(
    presentation: RelativePresentation, decls: Iterable[FactDecl]
) -> OrientedFactBase:
    """``oracle_facts.oracle_fact_base``, built as the twin."""
    return OrientedFactBase(
        presentation,
        [dataclasses.replace(fd, lhs=Word(fd.lhs.letters), rhs=Word(fd.rhs.letters)) for fd in decls],
    )
