import itertools
import random
from pathlib import Path

import pytest

import oracle_words as oracle
import starweight
from starweight.scenario import parse_scenario
from starweight.words import (
    Word,
    canonical_cyclic_class,
    cyclically_reduce,
    decode,
    encode,
    free_reduce,
    inverse,
    join,
    least_rotation,
    max_root,
    strip_conjugation,
    word_from_tokens,
)


def W(text):
    return word_from_tokens(text.split())


def codes_of(order):
    return {name: 2 * i for i, name in enumerate(order)}


def C(text, order):
    """The codes of a word's text under a symbol order."""
    return encode(W(text), codes_of(order))


def D(codes, order):
    return decode(codes, order)


def test_free_reduce_cancellation():
    assert Word([("a1", 1), ("a1", -1)]) == Word()


def test_free_reduce_exponent_merge():
    assert Word([("a1", 1), ("t", 2), ("t", -1), ("a2", 1)]) == W("a1 t a2")


def test_free_reduce_already_reduced():
    w = W("a1 b1 a1^-1")
    assert Word(w.letters) == w


def test_free_reduce_idempotent_and_nonincreasing():
    order = ["a", "b"]
    for toks in itertools.product(["a", "a^-1", "b", "b^-1"], repeat=5):
        letters = [(t.rstrip("^-1"), -1 if "^" in t else 1) for t in toks]
        r = Word(letters)
        assert Word(r.letters) == r
        assert sum(abs(e) for _, e in r.letters) <= 5
        for (n1, e1), (n2, e2) in zip(r.letters, r.letters[1:]):
            assert n1 != n2
        # the code version reduces the letters to the same word
        reduced = free_reduce(2 * order.index(n) + (e < 0) for n, e in letters)
        assert D(reduced, order) == r and free_reduce(reduced) == reduced


def test_cyclically_reduce_strips_conjugation():
    order = ["a1", "t"]
    assert D(cyclically_reduce(C("t^-1 a1 t", order)), order) == W("a1")


def test_cyclically_reduce_canonical_rotation():
    order = ["a1", "a2", "t"]
    w = C("a2 t a1 t^-1", order)
    assert D(cyclically_reduce(w), order) == W("a1 t^-1 a2 t")


def test_cyclically_reduce_theorem_word():
    order = ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"]
    w = C("a1 b1 a2 b2 a3 b3 a4 b4", order)
    assert cyclically_reduce(w) == w


def test_canonical_class_inversion():
    order = ["a1", "a2", "a3", "a4"]
    a = canonical_cyclic_class(C("a2^-1 a4", order))
    b = canonical_cyclic_class(C("a4^-1 a2", order))
    assert a == b


def test_canonical_class_rotation():
    order = ["a1", "a2", "a3", "a4"]
    a = canonical_cyclic_class(C("a1 a4^-1 a2 a4^-1", order))
    b = canonical_cyclic_class(C("a4^-1 a2 a4^-1 a1", order))
    assert a == b


def test_canonical_class_distinguishes():
    # brute-force over all rotations and inversions of each word
    order = ["a1", "a2", "a3", "a4"]
    u, v = C("a1 a4^-1 a2 a4^-1", order), C("a1 a2^-1 a4 a2^-1", order)
    orbit_u = set()
    for i in range(len(u)):
        rot = u[i:] + u[:i]
        orbit_u.add(rot)
        orbit_u.add(inverse(rot))
    assert v not in orbit_u
    assert canonical_cyclic_class(u) != canonical_cyclic_class(v)


def test_canonical_class_constant_on_orbits():
    order = ["a", "b"]
    texts = ["a b", "a b^-1 a b", "a^2 b^-1", "a b a^-1 b^-1"]
    words = [C(text, order) for text in texts]
    rng = random.Random(1980)
    for _ in range(200):
        letters = [(rng.choice(order), rng.choice((1, -1))) for _ in range(rng.randrange(1, 9))]
        words.append(encode(Word(letters), codes_of(order)))

    def least(seqs):
        # brute force: every rotation of every sequence, keyed per rotation
        # by the names' order, inverse after positive
        rots = [seq[i:] + seq[:i] for seq in seqs for i in range(len(seq))]
        if not rots:
            return ()
        return min(rots, key=lambda r: [(order.index(D((c,), order).letters[0][0]), c & 1) for c in r])

    for w in words:
        core = strip_conjugation(w)[1]
        rep = canonical_cyclic_class(w)
        assert rep == least([core, inverse(core)])
        for i in range(len(w)):
            rot = free_reduce(w[i:] + w[:i])
            assert canonical_cyclic_class(rot) == rep
            assert canonical_cyclic_class(inverse(rot)) == rep
            assert cyclically_reduce(rot) == least([core])
            assert cyclically_reduce(inverse(rot)) == least([inverse(core)])


def test_strip_conjugation():
    order = ["b1", "b2"]
    h, core = strip_conjugation(C("b1^-1 b2 b1", order))
    assert D(h, order) == W("b1^-1") and D(core, order) == W("b2")
    assert join(join(h, core), inverse(h)) == C("b1^-1 b2 b1", order)


def test_max_root():
    order = ["a1", "a2", "a3", "a4"]
    root, d = max_root(C("a2^-1 a4 a2^-1 a4 a2^-1 a4", order))
    assert D(root, order) == W("a2^-1 a4") and d == 3
    root, d = max_root(C("a1 a2", order))
    assert d == 1
    assert max_root(()) == ((), 1)


def _reference_expand(w):
    out = []
    for n, e in w.letters:
        s = 1 if e > 0 else -1
        out.extend((n, s) for _ in range(abs(e)))
    return tuple(out)


def test_expand_matches_generator_form():
    # encode is the expansion with each letter numbered, and decode undoes it
    order = ["a", "b", "c"]
    rng = random.Random(1977)
    for _ in range(500):
        w = Word(
            (rng.choice("abc"), rng.choice([e for e in range(-5, 6) if e]))
            for _ in range(rng.randrange(0, 8))
        )
        want = tuple(2 * order.index(n) + (e < 0) for n, e in _reference_expand(w))
        assert encode(w, codes_of(order)) == want, w
        assert D(want, order) == w
        assert D(want, order).letters == w.letters


def _reference_product(a, b):
    return Word(a.letters + b.letters)


def _reference_inverse(w):
    return Word((n, -e) for n, e in reversed(w.letters))


def test_junction_product_and_inverse_match_full_merge():
    order = ["a", "b", "c"]
    code = codes_of(order)
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
        ca, cb = encode(a, code), encode(b, code)
        product = join(ca, cb)
        assert D(product, order) == _reference_product(a, b), (a, b)
        assert product == free_reduce(ca + cb)
        assert D(join(cb, ca), order) == _reference_product(b, a), (b, a)
        assert D(inverse(ca), order) == _reference_inverse(a)
        assert D(inverse(cb), order) == _reference_inverse(b)
        assert join(ca, inverse(ca)) == () and inverse(product) == join(inverse(cb), inverse(ca))
        lost = len(a.letters) + len(b.letters) - len(D(product, order).letters)
        deep_merges += lost >= 5 and lost % 2 == 1  # >= 2 cancellations, then a merge
    assert deep_merges > 20


# -- the rotation and the strip against the name-based code they replaced --


def test_least_rotation_matches_the_full_scan_it_replaces():
    # small alphabets repeat letters and periodic sequences tie whole
    # rotations; the oracle compares names through letter_key, the code
    # version compares codes
    rng = random.Random(1980)
    for order in (["a", "b", "c"], ["c", "a", "b"]):
        key = oracle.letter_key(order)
        for _ in range(1500):
            period = [(rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7))]
            seq = period * rng.choice((1, 1, 2, 3))
            codes = tuple(2 * order.index(n) + (e < 0) for n, e in seq)
            for inv in (False, True):
                want = oracle.least_rotation(seq, key, inv)
                got = least_rotation(codes, inv)
                assert tuple(D((c,), order).letters[0] for c in got) == want, (seq, inv)
                assert least_rotation(iter(codes), inv) == got


def _reference_strip_conjugation(w):
    """``strip_conjugation`` before it worked on letters with exponents,
    verbatim."""
    letters = list(oracle.Word(w.letters).expand())
    head = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        head.append(letters[0])
        letters = letters[1:-1]
    return Word(head), Word(letters)


def test_strip_conjugation_matches_the_letter_by_letter_strip():
    order = ["a", "b", "c"]
    code = codes_of(order)
    rng = random.Random(1929)
    stripped = 0
    for _ in range(3000):
        inner = Word((rng.choice("abc"), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(0, 5)))
        outer = Word((rng.choice("abc"), rng.choice((-3, -1, 1, 2))) for _ in range(rng.randrange(0, 4)))
        last = Word([(rng.choice("abc"), rng.choice((-1, 1, 0)))])
        w = _reference_product(_reference_product(_reference_product(outer, inner), _reference_inverse(outer)), last)
        head, core = strip_conjugation(encode(w, code))
        want = _reference_strip_conjugation(w)
        assert (D(head, order), D(core, order)) == want, w
        assert join(join(head, core), inverse(head)) == encode(w, code)
        stripped += bool(head)
    assert stripped > 500


# -- letter codes against letter_key, and the code functions against the oracle --

CORPUS = Path(starweight.__file__).parent / "corpus"


def test_letter_codes_compare_as_letter_key_on_every_corpus_presentation():
    # for every pair of letters of every corpus presentation, the codes
    # compare the way the oracle's letter_key compares the letters
    checked = 0
    for path in sorted(CORPUS.glob("*.scn")):
        p = parse_scenario(path.read_text(), name=path.stem).presentation
        key = oracle.letter_key(p.symbol_order)
        letters = [(n, e) for n in p.symbol_order for e in (1, -1)]
        code = {lt: encode(Word([lt]), p.code)[0] for lt in letters}
        assert sorted(code.values()) == list(range(2 * len(p.symbol_order)))
        for x, y in itertools.product(letters, repeat=2):
            assert (code[x] < code[y]) == (key(x) < key(y)), (path.stem, x, y)
            assert (code[x] == code[y]) == (key(x) == key(y)), (path.stem, x, y)
            checked += 1
    assert checked > 1000


def _random_word(rng, gens):
    """A word of 0 to 11 syllables whose ends often cancel, so that the
    conjugation strip, powers and periodic rotations all occur."""
    body = [(rng.choice(gens), rng.choice((-2, -1, -1, 1, 1, 2))) for _ in range(rng.randrange(0, 6))]
    shape = rng.randrange(4)
    if shape == 0:  # a conjugate
        outer = [(rng.choice(gens), rng.choice((-1, 1))) for _ in range(rng.randrange(1, 3))]
        body = outer + body + [(n, -e) for n, e in reversed(outer)]
    elif shape == 1:  # a power
        body = body * rng.randrange(2, 4)
    return oracle.Word(body)


def test_code_functions_decode_to_the_oracle_on_random_words():
    rng = random.Random(20211)
    order = ["a1", "a2", "b1", "t"]
    code = codes_of(order)
    stripped = powers = 0
    for _ in range(1000):
        w = _random_word(rng, order)
        codes = encode(w, code)
        assert D(codes, order).letters == w.letters
        assert D(cyclically_reduce(codes), order).letters == oracle.cyclically_reduce(w, order).letters
        assert (
            D(canonical_cyclic_class(codes), order).letters
            == oracle.canonical_cyclic_class(w, order).letters
        )
        head, core = strip_conjugation(codes)
        want_head, want_core = oracle.strip_conjugation(w)
        assert (D(head, order).letters, D(core, order).letters) == (want_head.letters, want_core.letters)
        root, d = max_root(codes)
        want_root, want_d = oracle.max_root(w)
        assert (D(root, order).letters, d) == (want_root.letters, want_d)
        stripped += bool(head)
        powers += d > 1
    assert stripped > 100 and powers > 100


@pytest.mark.parametrize("order", [["a1", "a2", "b1", "t"], ["t", "b1", "a2", "a1"]])
def test_canonical_forms_follow_the_symbol_order(order):
    # the same word under two symbol orders: each canonical form is the
    # oracle's under that order
    rng = random.Random(7)
    for _ in range(200):
        w = _random_word(rng, ["a1", "a2", "b1", "t"])
        codes = encode(w, codes_of(order))
        assert D(canonical_cyclic_class(codes), order).letters == oracle.canonical_cyclic_class(w, order).letters
