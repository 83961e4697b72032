"""Words over free products with indeterminates.

Words are parsed and printed as ``Word``: letters ``(name, exponent)`` with
nonzero integer exponents and no two adjacent letters sharing a name
(freely reduced form).  The empty word is the identity.

Everything else computes on letter codes.  A presentation numbers its
letters once, in ``symbol_order``: letter i is ``2*i`` and its inverse is
``2*i + 1``, so inversion is ``c ^ 1``.  A word is the tuple of the codes
of its letters with exponents expanded, freely reduced: no code stands next
to its inverse.  ``encode`` and ``decode`` translate, and a word is decoded
only where a string is made.

Cyclic words (conjugacy classes) are represented by a deterministic
canonical rotation: the least under plain tuple comparison.
``least_rotation_start`` is the single canonical-rotation rule:
``least_rotation`` and the cyclic forms of star-graph paths
(``canonical_atom_cycle``, ``canonical_atom_edge_cycle``) all use it.

Tuple order on codes is the order the name-based words used: the letter
key ``(index in symbol_order, name, 0 for a positive letter and 1 for an
inverse one)`` of each expanded letter, compared as lists.  Every letter of
a presentation has an index, and equal indices mean equal names, so the
key is ordered by (index, sign bit) alone.  Codes 2i + s and 2j + t
(s, t in {0, 1}) compare as (i, s) and (j, t) do: for i < j,
2i + s <= 2i + 1 < 2j <= 2j + t, and for i = j they compare as s and t.
Tuples of codes and lists of keys both compare element by element, a
proper prefix first, so every comparison of two words gives the same
answer.  Hence the canonical rotations, the orientation of each eq rule
(``FactBase._build_rules`` compares (length, word)) and every order built
on them are unchanged; family order compares weights and printed strings,
never letters.  Encoding letter i as i + 1 and its inverse as -(i + 1)
would not keep the order: under int order a1^-1 < a1, and a2^-1 < a1^-1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Letter = tuple[str, int]
Codes = tuple[int, ...]


def _merge(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for name, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


class Word:
    """Freely reduced word; immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _merge(letters))

    @classmethod
    def _reduced(cls, letters: tuple[Letter, ...]) -> "Word":
        """Trusted constructor: ``letters`` are already freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def names(self) -> set[str]:
        return {n for n, _ in self.letters}

    def tokens(self) -> list[str]:
        return [letter_token(n, e) for n, e in self.letters]

    def __str__(self) -> str:
        return " ".join(self.tokens()) if self.letters else "1"

    def compact(self) -> str:
        """No-space rendering used in edge labels and aliases."""
        return "".join(self.tokens()) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({self})"


def letter_token(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def parse_int(text: str) -> int:
    """An optional sign and ASCII digits 0-9; ``int`` alone would also read
    "1_0" as 10, spaces around the digits and digits of other scripts."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_letter(token: str) -> Letter | None:
    """Parse one token; '1' denotes the identity (returns None)."""
    if token == "1":
        return None
    if "^" in token:
        name, _, exp_s = token.partition("^")
        try:
            exp = parse_int(exp_s)
        except ValueError:
            raise ValueError(f"bad exponent in token {token!r}")
        if exp == 0:
            raise ValueError(f"zero exponent in token {token!r}")
    else:
        name, exp = token, 1
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"bad letter token {token!r}")
    return name, exp


def word_from_tokens(tokens: Sequence[str]) -> Word:
    letters = []
    for tok in tokens:
        lt = parse_letter(tok)
        if lt is not None:
            letters.append(lt)
    return Word(letters)


# -- codes ---------------------------------------------------------------


def encode(w: Word, code: dict[str, int]) -> Codes:
    """The codes of w's expanded letters; ``code`` maps each name to 2i."""
    return tuple(code[n] | (e < 0) for n, e in w.letters for _ in range(abs(e)))


def decode(codes: Codes, order: Sequence[str]) -> Word:
    """The word of reduced codes: each run of one code is one letter, as
    no code stands next to its inverse."""
    letters: list[Letter] = []
    prev = -1
    for c in codes:
        if c == prev:
            n, e = letters[-1]
            letters[-1] = (n, e - 1 if c & 1 else e + 1)
        else:
            letters.append((order[c >> 1], -1 if c & 1 else 1))
            prev = c
    return Word._reduced(tuple(letters))


def inverse(w: Codes) -> Codes:
    return tuple(c ^ 1 for c in reversed(w))


def free_reduce(codes: Iterable[int]) -> Codes:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def join(a: Codes, b: Codes) -> Codes:
    """The reduced product of reduced a and b: only the junction cancels."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1] == b[j] ^ 1:
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


def least_rotation(seq: Iterable, with_inverse: bool = False) -> tuple:
    """Least rotation of ``seq`` as a tuple.  With ``with_inverse`` the
    rotations of the inverse of the code sequence compete as well, so the
    result is constant on rotation/inversion orbits.  Among equal rotations
    the first found wins, the inverse's after the sequence's (see
    ``least_rotation_start``)."""
    seq = tuple(seq)
    if not seq:
        return seq
    candidates = (seq, inverse(seq)) if with_inverse else (seq,)
    which, start = least_rotation_start(candidates)
    best = candidates[which]
    return best[start:] + best[:start]


def least_rotation_start(candidates: Sequence[Sequence]) -> tuple[int, int]:
    """(index, start) of the least rotation over all the candidates, which
    are nonempty and all tuples or all lists.  Only the rotations that start
    at a least element are compared; among equal rotations the first found
    wins.  Callers that can list each orientation in an order-preserving
    form pass both and need no key function."""
    best = found = None
    for which, cand in enumerate(candidates):
        low = min(cand)
        if best is not None and best[0] < low:
            continue
        # a rotation that starts above the least element loses to one that starts at it
        for i, first in enumerate(cand):
            if first == low:
                rotation = cand[i:] + cand[:i]
                if best is None or rotation < best:
                    best, found = rotation, (which, i)
    return found


def strip_conjugation(w: Codes) -> tuple[Codes, Codes]:
    """Write w = h * core * h^-1 with core cyclically reduced: while the
    first and last codes are inverse to each other, strip both."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1] ^ 1:
        i, j = i + 1, j - 1
    return w[:i], w[i:j]


def cyclically_reduce(w: Codes) -> Codes:
    """Cyclically reduced conjugate of w in canonical rotation."""
    return least_rotation(strip_conjugation(w)[1])


def canonical_cyclic_class(w: Codes) -> Codes:
    """Canonical representative of {rotations of w} u {rotations of w^-1}.

    Constant on each rotation/inversion orbit, injective across orbits.
    """
    return least_rotation(strip_conjugation(w)[1], with_inverse=True)


def max_root(w: Codes) -> tuple[Codes, int]:
    """Maximal d with w = r^d as a linear word; returns (r, d)."""
    n = len(w)
    for period in range(1, n + 1):
        if n % period == 0 and w[:period] * (n // period) == w:
            return w[:period], n // period
    return w, 1
