"""Sound, deliberately incomplete refutation engine for label triviality.

A FactBase holds declared hypotheses about the coefficient factors:

* ``eq u v``           -- u = v in their factor (drives a rewrite system)
* ``neq u v``          -- u != v
* ``notincyclic v g``  -- v is not a power of the generator g
* factor flags         -- noncyclic / nontrivial (metadata only)

Every factor is torsion-free, which gives the root rule u^m = 1 => u = 1.

``refute_trivial(w)`` answers "is w = 1 impossible under the facts?" with
Refuted (naming the rule that refuted it) or Unknown.  The rule set is
frozen:

  R1  rewrite to normal form (each Eq rule oriented longer->shorter, lex ties)
  R2  normal form is u^m with u != 1 derivable from a Neq fact
  R3  triviality would force v into <g> against a NotInCyclic fact
  R4  special case of R2: normal form g^m for a generator with neq g 1
  FP  a cyclic word alternating over both factors, all of whose syllables
      are refuted-nontrivial, is nontrivial in the free product.  A
      template is read as such a word in which each pump is a syllable too:
      a core of one factor, refuted nontrivial and bordered by the other
      factor.  A pump core whose letters span both factors leaves its
      template Unknown

Unknown is always safe; the verifier then reports a potential violation
instead of claiming asphericity.

Words are tuples of letter codes (see ``words``): the queries take them,
and the rules, ``neq1``, the notincyclic cores and both caches hold them.

Rewriting terminates.  An eq fact u = v gives two rules, one from u = v and
one from u^-1 = v^-1, and each is oriented on its own: its pattern is the
side greater in (length, codes) order, which compares lengths first and
then the code tuples.  That order is a well-order, as a finite alphabet has
finitely many words of each length.  It is preserved under concatenation:
x p y and x r y have the same length when p and r do, and then first differ
inside p and r, so x r y is smaller whenever r is smaller than p.  So each
rewrite step makes the word smaller, and free reduction only shortens it.
A rewrite chain therefore descends in a well-order and is finite, and
``_cyclic_normalize``, whose every pass shortens its word, stops as well.
(The inverse of an oriented rule need not be oriented: for
``eq a2^-1 a1 = a1^-1 a2`` it is the rule's exact reverse.)

So the rules are not closed under inversion, and the inverse of a normal
form need not be one.  Under ``eq b3 b2 = b2 b3``, with b2 before b3 in the
symbol order, the rules are b3 b2 -> b2 b3 and b3^-1 b2^-1 -> b2^-1 b3^-1;
b2^-1 b3^-1 b4 is a normal form, and its inverse b4^-1 b3 b2 is not.  A
query compares normal forms with ``neq1`` and the notincyclic cores, so they
hold the inverse of each fact's word normalised as well as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .scenario import INDETERMINATE, FactDecl, RelativePresentation
from .words import (
    Codes,
    cyclically_reduce,
    encode,
    free_reduce,
    inverse,
    join,
    max_root,
    strip_conjugation,
)

# rewriting terminates (module docstring), but a chain can be long: the cap
# bounds time only, and exceeding it is a resource limit, not an input error
_REWRITE_CAP = 10_000
_POWER_LIMIT = 8  # as_power_of tries exponents -_POWER_LIMIT.._POWER_LIMIT

# a syllable (factor, word) of a cyclic word or template, or a pump (factor, None)
Item = tuple[str, Codes | None]


class FactError(ValueError):
    pass


class RewriteCapError(FactError):
    """A normalisation took ``_REWRITE_CAP`` rewrites: a resource limit, not
    bad input."""


@dataclass(frozen=True)
class Verdict:
    rule: str = ""  # the rule that refuted, "" for Unknown

    @property
    def refuted(self) -> bool:
        return self.rule != ""

    def __bool__(self) -> bool:
        return self.rule != ""


UNKNOWN = Verdict()


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class FactBase:
    """Immutable after construction; all queries are pure.

    Because the facts never change, an instance caches two kinds of answer:
    ``as_power_of`` per (word, g), and ``refute_trivial`` per word,
    but only where it refuted.  Unknowns are not kept: they are the common
    answer on large inputs (grid k=6, w=1/5 has 51 650 surviving labels),
    and keeping them raised that cell's peak RSS from 81 MB to 116 MB.

    Rather than remember more, the queries skip normalisations whose answer
    is already known.  ``unbalanced`` holds the letters whose exponent sum
    some rule changes (a fact's two rules change the same letters); the
    exponent sum of every other letter is invariant under rewriting and free
    reduction, which rules out most exponents ``as_power_of`` would try.
    ``_refute_power`` looks a power of a cyclic normal form up directly when
    no rule pattern occurs in it cyclically.  ``normalize_any`` returns its
    argument when there are no eq rules (as on the neq-only grid), since the
    rewrite loop would return it unchanged.  Each docstring carries its
    proof that the answer is the one a full normalisation would give.
    """

    def __init__(self, presentation: RelativePresentation, decls: Iterable[FactDecl]):
        self.presentation = presentation
        self.factor_of = presentation.factor_of
        self.order = presentation.symbol_order
        self._factor_at = [self.factor_of[n] for n in self.order for _ in (0, 1)]  # by code
        self.decls = list(decls)
        self.rules: list[tuple[Codes, Codes]] = []  # (pattern, replacement), two per eq fact
        self.unbalanced: set[int] = set()  # indices of letters whose exponent sum some rule changes
        self._build_rules()
        self.neq1: set[Codes] = set()  # cyclic forms of each neq word and its inverse
        self.notincyclic: list[tuple[set[Codes], int]] = []  # (g-trimmed core forms, index of g)
        self._power_cache: dict[tuple[Codes, int], int | None] = {}
        self._refuted: dict[Codes, Verdict] = {}
        self._build_queries()

    # -- construction ------------------------------------------------

    def _word_factor(self, names: Iterable[str]) -> str | None:
        """Factor name, '' for no letters, None when the letters span factors."""
        fs = set()
        for n in names:
            f = self.factor_of.get(n)
            if f is None:
                raise FactError(f"undeclared symbol {n!r}")
            if f == INDETERMINATE:
                raise FactError(f"indeterminate letter {n!r} in coefficient word")
            fs.add(f)
        if len(fs) > 1:
            return None
        return next(iter(fs)) if fs else ""

    def _build_rules(self):
        for fd in self.decls:
            # checks every fact's symbols, which no query checks again
            fu, fv = self._word_factor(fd.lhs.names()), self._word_factor(fd.rhs.names())
            if fd.kind != "eq":
                continue
            if fu is None or fv is None or (fu and fv and fu != fv):
                raise FactError(f"eq fact spans factors: {fd.lhs} = {fd.rhs}")
            u, v = encode(fd.lhs, self.presentation.code), encode(fd.rhs, self.presentation.code)
            if u == v:
                continue
            for x, y in ((u, v), (inverse(u), inverse(v))):
                # the longer side, or the later one in tuple order (the words docstring: letter order)
                self.rules.append((x, y) if (len(x), x) > (len(y), y) else (y, x))
            sums = _exponent_sums(u + inverse(v))
            self.unbalanced.update(n for n, e in sums.items() if e)

    def _build_queries(self):
        for fd in self.decls:
            lhs, rhs = encode(fd.lhs, self.presentation.code), encode(fd.rhs, self.presentation.code)
            if fd.kind == "neq":
                n, _ = self._cyclic_normalize(join(lhs, inverse(rhs)))
                forms = {n}
                if self.rules:
                    # the inverted word normalised, as a query of it is (module
                    # docstring); without rules that is n^-1, added below
                    forms.add(self._cyclic_normalize(join(rhs, inverse(lhs)))[0])
                if () in forms:
                    raise FactError(f"inconsistent facts: {fd.lhs} = {fd.rhs} follows from eq facts")
                self.neq1 |= forms | {cyclically_reduce(inverse(x)) for x in forms}
            elif fd.kind == "notincyclic":
                if len(fd.rhs.letters) != 1 or fd.rhs.letters[0][1] != 1:
                    raise FactError(f"notincyclic needs a single generator, got {fd.rhs}")
                g = rhs[0] >> 1
                if self.as_power_of(lhs, g) is not None:
                    raise FactError(f"inconsistent fact: {fd.lhs} lies in <{fd.rhs}>")
                core = _g_trimmed(self.normalize_any(lhs), g)
                # the core and its inverse normalised (module docstring), and
                # the inverse of each, so that the forms are closed under inversion
                forms = {core, _g_trimmed(self.normalize_any(inverse(core)), g)}
                self.notincyclic.append((forms | {inverse(x) for x in forms}, g))

    # -- normalization (R1) -------------------------------------------

    def _rewrite_once(self, expanded: Codes) -> Codes | None:
        n = len(expanded)
        for pat, rep in self.rules:
            k = len(pat)
            if k == 0 or k > n:
                continue
            for i in range(n - k + 1):
                if expanded[i : i + k] == pat:
                    return expanded[:i] + rep + expanded[i + k :]
        return None

    def normalize_any(self, w: Codes) -> Codes:
        """Fixed point of the Eq-derived rewrites plus free reduction.  The
        word may be mixed; cross-factor cancellations cascade through free
        reduction.  Symbols are not checked: the presentation checked its
        relators' letters, and construction the facts' words.  Without eq
        rules there is nothing to rewrite, and w is returned as it is."""
        if not self.rules:
            return w
        cur = w
        for _ in range(_REWRITE_CAP):
            nxt = self._rewrite_once(cur)
            if nxt is None:
                return cur
            cur = free_reduce(nxt)
        raise RewriteCapError("eq rewrite step cap exceeded")

    def as_power_of(self, w: Codes, g: int) -> int | None:
        """Exponent k with w = g^k provable from the Eq facts, if any; g is
        a letter index.

        Bounded search: the first k in -``_POWER_LIMIT``..``_POWER_LIMIT``,
        in that order, for which ``normalize_any(w g^-k)`` is empty.  A hit
        is a theorem, a miss proves nothing.  Answers are cached per (w, g):
        the facts never change.

        Only the k an exponent-sum invariant allows are tried.  A rewrite
        step replaces an occurrence of a pattern by its replacement, which
        changes the exponent sum of a letter n by what the rule changes it
        by; free reduction changes no exponent sum.  So for n outside
        ``unbalanced`` the exponent sum of n in ``normalize_any(x)`` is that
        of n in x, and the empty word has every exponent sum 0.  Hence
        ``normalize_any(w g^-k)`` can be empty only if every such n != g has
        exponent sum 0 in w and, when g is outside ``unbalanced``, k is the
        exponent sum of g in w.  The skipped k would all have normalised to
        nonempty words, so the first hit is the same; the filter needs no
        confluence or termination of the rewrite system.
        """
        key = (w, g)
        if key not in self._power_cache:
            self._power_cache[key] = None
            sums = _exponent_sums(w)
            if any(s and n != g and n not in self.unbalanced for n, s in sums.items()):
                exponents: Iterable[int] = ()
            elif g in self.unbalanced:
                exponents = range(-_POWER_LIMIT, _POWER_LIMIT + 1)
            else:
                k = sums.get(g, 0)
                exponents = (k,) if abs(k) <= _POWER_LIMIT else ()
            for k in exponents:
                if not self.normalize_any(join(w, _power(g, -k))):
                    self._power_cache[key] = k
                    break
        return self._power_cache[key]

    def _g_substitute(self, w: Codes, g: int) -> Codes | None:
        """Rewrite each letter provably lying in <g> as the g-power; None
        when no letter changes.  A letter is asked about as the positive
        letter, whose power an inverse letter negates."""
        out: list[int] = []
        changed = False
        for c in w:
            k = None if c >> 1 == g else self.as_power_of((c & -2,), g)
            if k is None:
                out.append(c)
            else:
                changed = True
                out.extend(_power(g, -k if c & 1 else k))
        return free_reduce(out) if changed else None

    def _cyclic_normalize(self, w: Codes) -> tuple[Codes, bool]:
        """Normalize a conjugacy-class representative, allowing rewrites
        across the rotation seam whenever they shorten the word.  Returns
        the normal form and whether some rule pattern occurs in it
        cyclically, which the loop has just decided, so that no caller
        tests it again.

        The rotations are tried only while some rule pattern occurs in the
        cyclic word.  The check is exact: ``cur`` is cyclically reduced, so
        each rotation is a freely reduced word of the same letters, and a
        rotation in which no pattern occurs is its own normal form and
        cannot be shorter than ``cur``.
        """
        cur = cyclically_reduce(self.normalize_any(w))
        while self.rules and self._occurs_cyclically(cur):
            for i in range(len(cur)):
                _, core = strip_conjugation(self.normalize_any(cur[i:] + cur[:i]))
                if len(core) < len(cur):
                    cur = cyclically_reduce(core)
                    break
            else:
                return cur, True
        return cur, False

    def _occurs_cyclically(self, expanded: Codes) -> bool:
        """Does some rule pattern occur in the cyclic word, seam included?"""
        n = len(expanded)
        doubled = expanded + expanded
        return any(
            doubled[i : i + len(pat)] == pat
            for pat, _ in self.rules
            if len(pat) <= n
            for i in range(n)
        )

    # -- syllables -----------------------------------------------------

    def syllables(self, w: Codes) -> list[tuple[str, Codes]]:
        """Maximal single-factor runs of w as (factor, subword) pairs.  A run
        of a reduced word is reduced."""
        return [(f, tuple(run)) for f, run in groupby(w, self._factor_at.__getitem__)]

    # -- refutation -----------------------------------------------------

    def _neq1_match(self, u: Codes) -> bool:
        # the cyclic normal form is already its least rotation
        return self._cyclic_normalize(u)[0] in self.neq1

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

    def _refute_notincyclic(self, w: Codes) -> Verdict:
        """R3: some rotation of w, with letters provably in <g> rewritten as
        g-powers, reads g^s x g^t with x a form of the forbidden core of a
        NotInCyclic fact (or collapses to a nonzero g-power).

        w is cyclically reduced, so every rotation of its letters is freely
        reduced and x compares with the forms letter by letter.  The forms
        are closed under inversion, and trimming commutes with it, so a
        rotation of w^-1 reads a form exactly when a rotation of w does."""
        for forms, g in self.notincyclic:
            variants = [w]
            sub = self._g_substitute(w, g)
            if sub is not None:
                sub = cyclically_reduce(sub)
                variants.append(sub)
                if sub and all(c >> 1 == g for c in sub):
                    # w = g^k with k != 0: torsion-free power of g
                    if self._neq1_match((2 * g,)):
                        return Verdict("R2")
            for base in variants:
                for i in range(len(base)):
                    x = _g_trimmed(base[i:] + base[:i], g)
                    if x and x in forms:
                        return Verdict("R3")
        return UNKNOWN

    def refute_trivial(self, w: Codes) -> Verdict:
        """Refuted only if w = 1 contradicts the facts; Unknown otherwise.

        The word is read as a cyclic word (labels of closed paths are only
        defined up to conjugacy, and w = 1 is conjugation-invariant).
        Refutations are remembered per word; Unknowns are decided afresh.
        """
        known = self._refuted.get(w)
        if known is not None:
            return known
        v = self._refute_cyclic(w)
        if v:
            self._refuted[w] = v
        return v

    def _refute_cyclic(self, w: Codes) -> Verdict:
        """Decide w through its cyclic normal form n: by FP when n has
        syllables of both factors, else by R2-R4."""
        n, occurs = self._cyclic_normalize(w)
        if not n:
            return UNKNOWN
        sylls = self.syllables(n)
        if len(sylls) > 1:
            return self._refute_alternating(self._merge(sylls))
        return self._refute_power(n, occurs) or self._refute_notincyclic(n)

    def _merge(self, items: list[Item]) -> list[Item]:
        """Reduce a cyclic sequence of (factor, word) syllables and
        (factor, None) pumps.  Neighbouring words of one factor merge into
        their normal form, the last and the first too, and a merge that
        normalises to the empty word drops out, so that its neighbours may
        meet in turn.  Each word left equals in its factor the product of
        the words it replaced, and no two words of one factor neighbour."""
        out: list[Item] = []

        def meets(a: Item, b: Item) -> bool:
            return a[1] is not None and b[1] is not None and a[0] == b[0]

        def push(item: Item):
            if out and meets(out[-1], item):
                item = (item[0], self.normalize_any(join(out.pop()[1], item[1])))
                if not item[1]:
                    return
            out.append(item)

        for item in items:
            push(item)
        while len(out) > 1 and meets(out[-1], out[0]):
            push(out.pop(0))
        return out

    def _refute_alternating(self, items: list[Item]) -> Verdict:
        """FP on a cyclic sequence that ``_merge`` returned, each pump
        standing for every power c^m, m >= 1, of a core c proved nontrivial.
        Every instance alternates cyclically over the factors, and so is not
        1 in the free product, when at least two items remain, no pump
        borders an item of its own factor (which could absorb its powers)
        and every word is refuted nontrivial."""
        # merged words of one factor never neighbour, so such a pair holds a pump
        if len(items) < 2 or any(f == fn for (f, _), (fn, _) in zip(items, items[1:] + items[:1])):
            return UNKNOWN
        if all(wrd is None or self.refute_trivial(wrd) for _, wrd in items):
            return Verdict("FP")
        return UNKNOWN

    def refute_template(self, segments: Sequence[Codes], pumps: Sequence[Codes]) -> Verdict:
        """Refute the cyclic template w0 p0^m0 w1 p1^m1 ... for all mi >= 1.

        ``segments`` and ``pumps`` alternate cyclically, so they must have
        equal length; no pumps at all delegates to refute_trivial.

        The template is one cyclic item list for ``_merge``: the syllables
        of each segment's normal form, then for each pump, whose normal form
        is h c h^-1 with c cyclically reduced, so that p^m = h c^m h^-1, the
        syllables of h, a pump item for c and the syllables of h^-1.  A pump
        with an empty core is 1 for every m and has no item.  With no pump
        item every instance is the one word its items spell, which
        refute_trivial decides.  When every merged item lies in one factor,
        R2 and R3 read the merged words and the cores.  Otherwise FP reads
        the merged list, once every core is refuted nontrivial.  A core
        whose letters span both factors has no factor for its item, and the
        template is Unknown.
        """
        if not pumps:
            return self.refute_trivial(segments[0] if segments else ())
        if len(segments) != len(pumps):
            raise ValueError("segments and pumps must alternate")

        items: list[Item] = []
        cores: list[Codes] = []
        for s, p in zip(segments, pumps):
            h, c = strip_conjugation(self.normalize_any(p))
            items += self.syllables(self.normalize_any(s)) + self.syllables(h)
            if c:
                if len(self.syllables(c)) > 1:
                    return UNKNOWN
                items.append((self._factor_at[c[0]], None))
                cores.append(c)
            items += self.syllables(inverse(h))
        if not cores:
            return self.refute_trivial(free_reduce(sum((w for _, w in items), ())))
        merged = self._merge(items)
        if len({f for f, _ in merged}) == 1:
            return self._refute_template_single([w for _, w in merged if w is not None], cores)
        if not all(self._refute_power(*self._cyclic_normalize(c)) for c in cores):
            return UNKNOWN  # a pump instance could vanish
        return self._refute_alternating(merged)

    def _refute_template_single(self, segs: list[Codes], cores: list[Codes]) -> Verdict:
        """All template material lies in one factor: ``segs`` are the
        nonempty words between the pumps, ``cores`` the pump cores.  An
        empty segment adds nothing to R2 or R3."""
        if not segs and len(cores) == 1:
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
            seg_pows = [self.as_power_of(s, g) for s in segs]
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


def _exponent_sums(w: Codes) -> dict[int, int]:
    """Exponent sum per letter index."""
    sums: dict[int, int] = {}
    for c in w:
        sums[c >> 1] = sums.get(c >> 1, 0) + 1 - 2 * (c & 1)
    return sums


def _power(g: int, k: int) -> Codes:
    """The codes of g^k for the letter of index g."""
    return (2 * g + (k < 0),) * abs(k)


def _g_trimmed(w: Codes, g: int) -> Codes:
    """The word without its leading and trailing letters of index g."""
    i, j = 0, len(w)
    while i < j and w[i] >> 1 == g:
        i += 1
    while j > i and w[j - 1] >> 1 == g:
        j -= 1
    return w[i:j]


def _affine_solvable(const: int, exps: list[int]) -> bool:
    """Is const + sum exps[i]*mi = 0 solvable with every mi >= 1?"""
    base = const + sum(exps)  # value at mi = 1; shift to ki = mi - 1 >= 0
    if base == 0:
        return True
    if all(e > 0 for e in exps):
        return _nonneg_reachable(-base, [e for e in exps])
    if all(e < 0 for e in exps):
        return _nonneg_reachable(base, [-e for e in exps])
    g = 0
    for e in exps:
        g = math.gcd(g, e)
    return base % g == 0


def _nonneg_reachable(target: int, vals: list[int]) -> bool:
    """Can sum vals[i]*ki = target with ki >= 0 (vals positive)?"""
    if target < 0:
        return False
    reach = [False] * (target + 1)
    reach[0] = True
    for t in range(1, target + 1):
        reach[t] = any(t >= v and reach[t - v] for v in vals)
    return reach[target]
