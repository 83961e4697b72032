"""The template refutation before it read a template as one cyclic item
list, verbatim: the differential oracle for
``starweight.facts.FactBase.refute_template``.

``CarryTemplateFactBase`` is the fact base with the template and
free-product methods it had then: ``refute_template`` absorbs each pump's
conjugator into the neighbouring segments by index, joins the segments
around a pump whose core rewrites to the identity in a carry loop, and hands
the result to ``_refute_template_single`` or
``_refute_template_alternating``; ``_refute_alternating`` merges as well as
decides FP, and gives a pump whose core spans both factors the factor
"mixed" (``_word_factor_or_mixed``).  ``tests/test_facts.py`` checks that the
program answers as it does, except where it answers FP on such a core, and
where a rewrite system that is not confluent makes the order of joins
matter.  Under ``neq a1 b1 = 1`` and ``neq a2 = 1`` the oracle refutes the template
a2 (a1 b1)^m, whose instance m = 1 is 1 at a1 = x, a2 = x^-1, b1 = 1.
"""

from __future__ import annotations

from typing import Sequence

from starweight.facts import UNKNOWN, FactBase, Verdict, _affine_solvable, _g_trimmed
from starweight.words import Codes, free_reduce, inverse, join, max_root, strip_conjugation


class CarryTemplateFactBase(FactBase):
    def _word_factor_or_mixed(self, w: Codes) -> str:
        """The factor of the nonempty word w, or "mixed" when it spans two."""
        fs = {self._factor_at[c] for c in w}
        return fs.pop() if len(fs) == 1 else "mixed"

    def _refute_cyclic(self, w: Codes) -> Verdict:
        """Decide w through its cyclic normal form n: by FP when n has
        syllables of both factors, else by R2-R4."""
        n, occurs = self._cyclic_normalize(w)
        if not n:
            return UNKNOWN
        sylls = self.syllables(n)
        if len(sylls) > 1:
            return self._refute_alternating(sylls)
        return self._refute_power(n, occurs) or self._refute_notincyclic(n)

    def _refute_alternating(self, items: list[tuple[str, Codes | None]]) -> Verdict:
        """FP: refute a cyclic sequence of (factor, word) syllables and
        (factor, None) pumps, each pump standing for every power c^m,
        m >= 1, of a core c proved nontrivial.

        Neighbouring words of one factor merge into their normal form, the
        last and the first too, and a merge that normalises to the empty
        word drops out, so that its neighbours may meet in turn.  Then every
        instance alternates cyclically over the factors, and so is not 1 in
        the free product, when at least two items remain, no pump borders
        an item of its own factor (which could absorb its powers) and every
        word is refuted nontrivial."""
        out: list[tuple[str, Codes | None]] = []

        def meets(a: tuple[str, Codes | None], b: tuple[str, Codes | None]) -> bool:
            return a[1] is not None and b[1] is not None and a[0] == b[0]

        def push(item: tuple[str, Codes | None]):
            if out and meets(out[-1], item):
                item = (item[0], self.normalize_any(join(out.pop()[1], item[1])))
                if not item[1]:
                    return
            out.append(item)

        for item in items:
            push(item)
        while len(out) > 1 and meets(out[-1], out[0]):
            push(out.pop(0))
        # merged words of one factor never neighbour, so such a pair holds a pump
        if len(out) < 2 or any(f == fn for (f, _), (fn, _) in zip(out, out[1:] + out[:1])):
            return UNKNOWN
        if all(wrd is None or self.refute_trivial(wrd) for _, wrd in out):
            return Verdict("FP")
        return UNKNOWN

    def refute_template(self, segments: Sequence[Codes], pumps: Sequence[Codes]) -> Verdict:
        """Refute the cyclic template w0 p0^m0 w1 p1^m1 ... for all mi >= 1.

        ``segments`` and ``pumps`` alternate cyclically, so they must have
        equal length; no pumps at all delegates to refute_trivial.
        """
        if not pumps:
            return self.refute_trivial(segments[0] if segments else ())
        if len(segments) != len(pumps):
            raise ValueError("segments and pumps must alternate")

        k = len(pumps)
        segs = [self.normalize_any(s) for s in segments]
        cores: list[Codes] = []
        for i, p in enumerate(pumps):
            h, c = strip_conjugation(self.normalize_any(p))
            # absorb the conjugator into the neighbouring segments
            segs[i] = self.normalize_any(join(segs[i], h))
            segs[(i + 1) % k] = self.normalize_any(join(inverse(h), segs[(i + 1) % k]))
            cores.append(c)
        if any(not c for c in cores):
            # pumps that rewrite to the identity drop out of the family
            if not any(cores):
                return self.refute_trivial(free_reduce(sum(segs, ())))
            new_segs: list[Codes] = []
            new_cores: list[Codes] = []
            carry: Codes = ()
            for i in range(k):
                seg = self.normalize_any(join(carry, segs[i]))
                carry = ()
                if cores[i]:
                    new_segs.append(seg)
                    new_cores.append(cores[i])
                else:
                    carry = seg
            if carry:
                new_segs[0] = self.normalize_any(join(carry, new_segs[0]))
            segs, cores = new_segs, new_cores

        if len({self._factor_at[c] for w in (*segs, *cores) for c in w}) == 1:
            return self._refute_template_single(segs, cores)
        return self._refute_template_alternating(segs, cores)

    def _refute_template_single(self, segs: list[Codes], cores: list[Codes]) -> Verdict:
        """All template material lies in one factor."""
        if all(not s for s in segs) and len(cores) == 1:
            # pure pump power c^m: by torsion-freeness it suffices that the
            # root of the pump label is nontrivial
            v = self._refute_power(*self._cyclic_normalize(cores[0]))
            return Verdict("R2") if v else UNKNOWN
        candidates: list[tuple[int, list[int]]] = []  # (letter index g, pump g-exponents)
        roots = [max_root(c) for c in cores]
        if all(len(r) == 1 for r, _ in roots):
            gs = {r[0] >> 1 for r, _ in roots}
            if len(gs) == 1:
                g = next(iter(gs))
                candidates.append((g, [(1 - 2 * (r[0] & 1)) * d for r, d in roots]))
        for _, g in self.notincyclic:
            if any(g == c[0] for c in candidates):
                continue
            exps = [self.as_power_of(c, g) for c in cores]
            if all(e is not None and e != 0 for e in exps):
                candidates.append((g, exps))  # every pump lies in <g>

        for g, exps in candidates:
            seg_pows = [self.as_power_of(s, g) if s else 0 for s in segs]
            nonpow = [i for i, p in enumerate(seg_pows) if p is None]
            if not nonpow:
                # the whole label is g^(const + sum exps[i]*mi)
                const = sum(p for p in seg_pows if p is not None)
                if not _affine_solvable(const, exps) and self._neq1_match((2 * g,)):
                    return Verdict("R2")
                continue
            if len(nonpow) == 1:
                seg = self.normalize_any(segs[nonpow[0]])
                options = [_g_trimmed(seg, g)]
                sub = self._g_substitute(seg, g)
                if sub is not None:
                    options.append(_g_trimmed(sub, g))
                for forms, gf in self.notincyclic:
                    for x in options:
                        if gf == g and x and x in forms:
                            return Verdict("R3")
        return UNKNOWN

    def _refute_template_alternating(self, segs: list[Codes], cores: list[Codes]) -> Verdict:
        """Mixed template: refute via free-product alternation when forced."""
        if not all(self._refute_power(*self._cyclic_normalize(c)) for c in cores):
            return UNKNOWN  # a pump instance could vanish
        items: list[tuple[str, Codes | None]] = []
        for s, c in zip(segs, cores):
            items += self.syllables(s)
            items.append((self._word_factor_or_mixed(c), None))
        return self._refute_alternating(items)
