"""The word layer before letters were numbered, verbatim: the differential
oracle for ``starweight.words``.

``starweight.words`` now computes on tuples of letter codes and keeps
``Word`` only to parse and print.  This module is the name-based version it
replaced, with the syllable merge, ``letter_key`` and the key-function
rotations, kept unchanged so that the tests can check that the code
version decodes to the same answers.  Its own docstring follows.

Words over free products with indeterminates.

A word is a sequence of letters ``(name, exponent)`` with nonzero integer
exponents and no two adjacent letters sharing a name (freely reduced form).
The empty word is the identity.  Words carry no factor information of their
own; scenarios supply a symbol table when factor membership matters.

Cyclic words (conjugacy classes) are represented by a deterministic
canonical rotation: lexicographically least under the declared symbol
order, with inverse letters ordered after positive ones.
``least_rotation_start`` is the single canonical-rotation rule:
``least_rotation`` and the cyclic forms of star-graph paths
(``canonical_atom_cycle``, ``canonical_atom_edge_cycle``) all use it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Letter = tuple[str, int]


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

    def __len__(self) -> int:
        """Letter count with exponents expanded."""
        return sum(abs(e) for _, e in self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Both operands are reduced, so only their junction can merge."""
        a, b = self.letters, other.letters
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            e = a[i - 1][1] + b[j][1]
            if e:
                return Word._reduced(a[: i - 1] + ((b[j][0], e),) + b[j + 1 :])
            i, j = i - 1, j + 1
        return Word._reduced(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._reduced(tuple((n, -e) for n, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        w = Word()
        for _ in range(k):
            w = w * self
        return w

    def expand(self) -> tuple[Letter, ...]:
        """Single-exponent letters, e.g. t^2 -> (t,1),(t,1)."""
        out: list[Letter] = []
        for lt in self.letters:
            n, e = lt
            if e == 1 or e == -1:
                out.append(lt)
            else:
                out.extend([(n, 1 if e > 0 else -1)] * abs(e))
        return tuple(out)

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


def parse_letter(token: str) -> Letter | None:
    """Parse one token; '1' denotes the identity (returns None)."""
    if token == "1":
        return None
    if "^" in token:
        name, _, exp_s = token.partition("^")
        try:
            exp = int(exp_s)
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


def letter_key(order: Sequence[str] | None):
    """Sort key of a letter: declared symbol order, inverse after positive."""
    if order is None:
        return lambda lt: (lt[0], 0 if lt[1] > 0 else 1)
    index = {name: i for i, name in enumerate(order)}

    def key(lt: Letter):
        n, e = lt
        return (index.get(n, len(index)), n, 0 if e > 0 else 1)

    return key


def least_rotation(seq: Sequence, key=None, inverse: bool = False) -> tuple:
    """Lexicographically least rotation of ``seq``, comparing ``key(x)``.

    ``key`` is applied once per element.  With ``inverse`` the rotations of
    the inverse sequence (reversed, each ``(name, sign)`` pair sign-flipped)
    compete as well, so the result is constant on rotation/inversion orbits.
    Among equal keys the first rotation found wins, the inverse's after the
    sequence's (see ``least_rotation_start``).
    """
    seq = tuple(seq)
    if not seq:
        return seq
    candidates = [seq]
    if inverse:
        candidates.append(tuple((n, -e) for n, e in reversed(seq)))
    keyed = candidates if key is None else [list(map(key, cand)) for cand in candidates]
    which, start = least_rotation_start(keyed)
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


def strip_conjugation(w: Word) -> tuple[Word, Word]:
    """Write w = h * core * h^-1 with core cyclically reduced.

    Works on w's letters with their exponents: while the first and last
    letters share a name and have opposite signs, the smaller power
    cancels from both ends.  If one end keeps a remainder, the letter next
    to the other end has another name (w is reduced), so the loop stops;
    hence h and core are reduced as built."""
    letters = w.letters
    head: list[Letter] = []
    while len(letters) >= 2:
        (n, e), (m, f) = letters[0], letters[-1]
        if n != m or (e > 0) == (f > 0):
            break
        k = min(abs(e), abs(f)) * (1 if e > 0 else -1)
        head.append((n, k))
        letters = ((n, e - k),) * (e != k) + letters[1:-1] + ((m, f + k),) * (f != -k)
    return Word._reduced(tuple(head)), Word._reduced(letters)


def cyclically_reduce(w: Word, order: Sequence[str] | None = None) -> Word:
    """Cyclically reduced conjugate of w in canonical rotation.

    Canonical rotation = lexicographically least expanded rotation under
    the declared symbol order; deterministic across runs.
    """
    _, core = strip_conjugation(w)
    return Word(least_rotation(core.expand(), letter_key(order)))


def canonical_cyclic_class(w: Word, order: Sequence[str] | None = None) -> Word:
    """Canonical representative of {rotations of w} u {rotations of w^-1}.

    Constant on each rotation/inversion orbit, injective across orbits.
    """
    _, core = strip_conjugation(w)
    return Word(least_rotation(core.expand(), letter_key(order), inverse=True))


def max_root(w: Word) -> tuple[Word, int]:
    """Maximal d with w = r^d as a linear word; returns (r, d)."""
    expanded = w.expand()
    n = len(expanded)
    if n == 0:
        return Word(), 1
    for period in range(1, n + 1):
        if n % period:
            continue
        root = expanded[:period]
        if root * (n // period) == expanded:
            return Word(root), n // period
    return Word(expanded), 1
