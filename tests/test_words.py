import itertools
import random

import pytest

from starweight.words import (
    Word,
    canonical_cyclic_class,
    cyclically_reduce,
    least_rotation,
    letter_key,
    max_root,
    strip_conjugation,
    word_from_tokens,
)


def W(text):
    return word_from_tokens(text.split())


def test_free_reduce_cancellation():
    assert Word([("a1", 1), ("a1", -1)]) == Word()


def test_free_reduce_exponent_merge():
    assert Word([("a1", 1), ("t", 2), ("t", -1), ("a2", 1)]) == W("a1 t a2")


def test_free_reduce_already_reduced():
    w = W("a1 b1 a1^-1")
    assert Word(w.letters) == w


def test_free_reduce_idempotent_and_nonincreasing():
    for toks in itertools.product(["a", "a^-1", "b", "b^-1"], repeat=5):
        r = Word([lt for lt in map(lambda t: (t.rstrip("^-1"), -1 if "^" in t else 1), toks)])
        assert Word(r.letters) == r
        assert len(r) <= 5
        for (n1, e1), (n2, e2) in zip(r.letters, r.letters[1:]):
            assert n1 != n2


def test_cyclically_reduce_strips_conjugation():
    assert cyclically_reduce(W("t^-1 a1 t")) == W("a1")


def test_cyclically_reduce_canonical_rotation():
    order = ["a1", "a2", "t"]
    w = W("a2 t a1 t^-1")
    assert cyclically_reduce(w, order) == W("a1 t^-1 a2 t")


def test_cyclically_reduce_theorem_word():
    order = ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"]
    w = W("a1 b1 a2 b2 a3 b3 a4 b4")
    assert cyclically_reduce(w, order) == w


def test_canonical_class_inversion():
    order = ["a1", "a2", "a3", "a4"]
    a = canonical_cyclic_class(W("a2^-1 a4"), order)
    b = canonical_cyclic_class(W("a4^-1 a2"), order)
    assert a == b


def test_canonical_class_rotation():
    order = ["a1", "a2", "a3", "a4"]
    a = canonical_cyclic_class(W("a1 a4^-1 a2 a4^-1"), order)
    b = canonical_cyclic_class(W("a4^-1 a2 a4^-1 a1"), order)
    assert a == b


def test_canonical_class_distinguishes():
    # brute-force over all rotations and inversions of each word
    order = ["a1", "a2", "a3", "a4"]
    u, v = W("a1 a4^-1 a2 a4^-1"), W("a1 a2^-1 a4 a2^-1")
    orbit_u = set()
    exp = u.expand()
    for i in range(len(exp)):
        rot = exp[i:] + exp[:i]
        orbit_u.add(Word(rot))
        orbit_u.add(Word(rot).inverse())
    assert v not in orbit_u
    assert canonical_cyclic_class(u, order) != canonical_cyclic_class(v, order)


def test_canonical_class_constant_on_orbits():
    order = ["a", "b"]
    words = [W("a b"), W("a b^-1 a b"), W("a^2 b^-1"), W("a b a^-1 b^-1")]
    rng = random.Random(1980)
    for _ in range(200):
        words.append(Word((rng.choice(order), rng.choice((1, -1))) for _ in range(rng.randrange(1, 9))))

    def least(seqs):
        # brute force: every rotation of every sequence, keyed per rotation
        rots = [seq[i:] + seq[:i] for seq in seqs for i in range(len(seq))]
        if not rots:
            return Word()
        return Word(min(rots, key=lambda r: [(order.index(n), 0 if e > 0 else 1) for n, e in r]))

    for w in words:
        exp = w.expand()
        core = strip_conjugation(w)[1]
        rep = canonical_cyclic_class(w, order)
        assert rep == least([core.expand(), core.inverse().expand()])
        for i in range(len(exp)):
            rot = Word(exp[i:] + exp[:i])
            assert canonical_cyclic_class(rot, order) == rep
            assert canonical_cyclic_class(rot.inverse(), order) == rep
            assert cyclically_reduce(rot, order) == least([core.expand()])
            assert cyclically_reduce(rot.inverse(), order) == least([core.inverse().expand()])


def test_strip_conjugation():
    h, core = strip_conjugation(W("b1^-1 b2 b1"))
    assert h == W("b1^-1") and core == W("b2")
    assert h * core * h.inverse() == W("b1^-1 b2 b1")


def test_max_root():
    root, d = max_root(W("a2^-1 a4 a2^-1 a4 a2^-1 a4"))
    assert root == W("a2^-1 a4") and d == 3
    root, d = max_root(W("a1 a2"))
    assert d == 1


def _reference_expand(w):
    out = []
    for n, e in w.letters:
        s = 1 if e > 0 else -1
        out.extend((n, s) for _ in range(abs(e)))
    return tuple(out)


def test_expand_matches_generator_form():
    rng = random.Random(1977)
    for _ in range(500):
        w = Word(
            (rng.choice("abc"), rng.choice([e for e in range(-5, 6) if e]))
            for _ in range(rng.randrange(0, 8))
        )
        assert w.expand() == _reference_expand(w), w
        assert all(abs(e) == 1 for _, e in w.expand())


def _reference_product(a, b):
    return Word(a.letters + b.letters)


def _reference_inverse(w):
    return Word((n, -e) for n, e in reversed(w.letters))


def test_junction_product_and_inverse_match_full_merge():
    rng = random.Random(1983)

    def letters(n):
        return [(rng.choice("abc"), rng.choice([-2, -1, 1, 2, 3])) for _ in range(n)]

    deep_merges = 0
    for _ in range(1000):
        a = Word(letters(rng.randrange(0, 7)))
        # b opens by undoing a tail of a, so the junction cancels through
        # several letters before a random letter may merge
        k = rng.randrange(0, len(a.letters) + 1)
        undo = _reference_inverse(Word(a.letters[len(a.letters) - k :]))
        b = Word(list(undo.letters) + letters(rng.randrange(0, 4)))
        product = a * b
        assert product == _reference_product(a, b), (a, b)
        assert product.letters == _reference_product(a, b).letters
        assert b * a == _reference_product(b, a), (b, a)
        assert a.inverse() == _reference_inverse(a) and b.inverse() == _reference_inverse(b)
        assert a * a.inverse() == Word() and (a * b).inverse() == b.inverse() * a.inverse()
        lost = len(a.letters) + len(b.letters) - len(product.letters)
        deep_merges += lost >= 5 and lost % 2 == 1  # >= 2 cancellations, then a merge
    assert deep_merges > 20


# -- the least-key scan and the syllable strip against the code they replaced --


def _reference_least_rotation(seq, key=None, inverse=False):
    """``least_rotation`` before it compared only the rotations that start at
    a least key, verbatim."""
    seq = tuple(seq)
    candidates = [seq]
    if inverse:
        candidates.append(tuple((n, -e) for n, e in reversed(seq)))
    best_key, best, start = None, seq, 0
    for cand in candidates:
        keys = list(cand if key is None else map(key, cand))
        for i in range(len(cand)):
            k = keys[i:] + keys[:i]
            if best_key is None or k < best_key:
                best_key, best, start = k, cand, i
    return best[start:] + best[:start]


def test_least_rotation_matches_the_full_scan_it_replaces():
    # small alphabets repeat keys, periodic sequences tie whole rotations, and
    # the name-only key ties rotations whose elements differ, so the result
    # is the first tied rotation only if the tie rule is kept
    rng = random.Random(1980)
    keys = [None, letter_key(None), letter_key(["c", "a", "b"]), lambda x: x[0]]
    differs = 0
    for _ in range(3000):
        period = [(rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7))]
        seq = period * rng.choice((1, 1, 2, 3))
        for key in keys:
            for inverse in (False, True):
                want = _reference_least_rotation(seq, key, inverse)
                assert least_rotation(seq, key, inverse) == want, (seq, inverse)
                assert least_rotation(iter(seq), key, inverse) == want
        names = least_rotation(seq, keys[-1], True)
        differs += names != least_rotation(seq, None, True)
    assert differs > 100  # the non-injective key picked other elements


def _reference_strip_conjugation(w):
    """``strip_conjugation`` before it worked on letters with exponents,
    verbatim."""
    letters = list(w.expand())
    head = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        head.append(letters[0])
        letters = letters[1:-1]
    return Word(head), Word(letters)


def test_strip_conjugation_matches_the_letter_by_letter_strip():
    rng = random.Random(1929)
    stripped = 0
    for _ in range(3000):
        inner = Word((rng.choice("abc"), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(0, 5)))
        outer = Word((rng.choice("abc"), rng.choice((-3, -1, 1, 2))) for _ in range(rng.randrange(0, 4)))
        w = outer * inner * outer.inverse() * Word([(rng.choice("abc"), rng.choice((-1, 1, 0)))])
        head, core = strip_conjugation(w)
        want = _reference_strip_conjugation(w)
        assert (head, core) == want, w
        assert (head.letters, core.letters) == (want[0].letters, want[1].letters)
        assert head * core * head.inverse() == w
        stripped += bool(head)
    assert stripped > 500
