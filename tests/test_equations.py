import functools
import itertools
import random
from collections import Counter

import pytest

from starweight.equations import (
    EquationError,
    EquationWord,
    attainment_counts,
    classify,
    decide_verdict,
    pair_pattern,
    parse_equation,
    partial_sums,
    shift_rewrite,
)
from oracle_words import Word


def eq(ms):
    return EquationWord(tuple(f"a{i+1}" for i in range(len(ms))), tuple(ms))


@pytest.mark.parametrize(
    "m,expected",
    [
        ([1, 1, -1, -1], [1, 2, 1, 0]),
        ([1, 1, 1, 1, -1, 1, -1, -1, -2], [1, 2, 3, 4, 3, 4, 3, 2, 0]),
        ([5], [5]),
    ],
)
def test_partial_sums(m, expected):
    assert partial_sums(m) == expected


def test_partial_sums_rejects_zero():
    with pytest.raises(EquationError):
        partial_sums([1, 0, -1])


@pytest.mark.parametrize(
    "m,expected",
    [
        ([1, 1, 1, 1, -1, 1, -1, -1, -2], (4, 2, 0, 1)),
        ([1, -1, 1, -1, 1, -1, 1, -1], (1, 4, 0, 4)),
        ([1, -1, 1, -1, 1, -1, 1, -1, 1, -1], (1, 5, 0, 5)),
    ],
)
def test_attainment_counts(m, expected):
    assert attainment_counts(m) == expected


def test_attainment_counts_brute_force_oracle():
    rng = random.Random(20260809)
    for _ in range(100_000):
        k = rng.randrange(1, 10)
        m = [rng.choice([x for x in range(-4, 5) if x]) for _ in range(k)]
        mx, mxc, mn, mnc = attainment_counts(m)
        sums = []
        run = 0
        for x in m:
            run += x
            sums.append(run)
        assert mx == max(sums) and mn == min(sums)
        assert mxc == sum(1 for s in sums if s == mx)
        assert mnc == sum(1 for s in sums if s == mn)


@pytest.mark.parametrize(
    "m,levels",
    [
        ([1, -1], [0, 1]),
        ([1, 1, -1, -1], [0, 1, 2, 1]),
        ([2, -2], [0, 2]),
    ],
)
def test_shift_rewrite_levels(m, levels):
    got = shift_rewrite(eq(m))
    assert [lvl for _, lvl in got] == levels


def test_shift_rewrite_rejects_nonsingular():
    with pytest.raises(EquationError):
        shift_rewrite(eq([1, 1]))


def expand_and_reduce(w, rewritten):
    # substitute (a, n) -> t^n a t^-n and freely reduce; oracle for the
    # round trip back to a conjugate of the input
    letters = []
    for a, n in rewritten:
        letters.extend([("t", n), (a, 1), ("t", -n)])
    return Word(letters)


def original_word(w):
    letters = []
    for a, m in zip(w.coefficients, w.exponents):
        letters.extend([(a, 1), ("t", m)])
    return Word(letters)


def test_shift_rewrite_round_trip_exhaustive():
    # k <= 6, |m| <= 3, singular: expansion recovers the input exactly
    for k in range(2, 7):
        for m in itertools.product([x for x in range(-3, 4) if x], repeat=k - 1):
            last = -sum(m)
            if last == 0 or abs(last) > 3:
                continue
            w = eq(list(m) + [last])
            expanded = expand_and_reduce(w, shift_rewrite(w))
            target = original_word(w)
            assert expanded * target.inverse() == Word() or expanded == target


@pytest.mark.parametrize(
    "m,expected",
    [
        ([3, 1, 3, 1], True),
        ([2, 2, 2, 1], False),
        ([1, 2, 3, 4], False),
        ([2, 2, 2, 2], False),
        ([1, 1, -1, -1], True),
    ],
)
def test_pair_pattern(m, expected):
    assert pair_pattern(m) is expected


def test_pair_pattern_requires_k4():
    with pytest.raises(EquationError):
        pair_pattern([1, 2, 3])


def test_classify_k4():
    rep = classify(eq([1, 1, 1, 1]))
    assert rep.verdict == "Cor1" and rep.solvable


def test_classify_syllable_18():
    rep = classify(eq([1, 1, 1, 1, -1, 1, -1, -1, -2]))
    assert rep.verdict == "Cor3"
    assert rep.syllable_length == 18
    assert rep.max_count <= 4 and rep.min_count <= 4


def test_classify_long_singular_with_small_counts():
    rep = classify(eq([1, 1, 1, 1, 1, -1, -1, -1, -1, -1]))
    assert rep.verdict == "Cor2"


def test_classify_alternating_k10_unknown():
    rep = classify(eq([1, -1] * 5))
    assert rep.verdict == "Unknown"
    assert rep.max_count == 5 and rep.min_count == 5


def test_classify_nonsingular_k5_unknown():
    assert classify(eq([1, 1, 1, 1, 1])).verdict == "Unknown"


def iter_singular_vectors(kmax, bound):
    """Every vector of 2..kmax nonzero exponents in [-bound, bound] that sums
    to 0: a depth-first walk over the prefixes that can still close, each
    prefix of length k - 2 finished at once by every pair summing to -s."""
    values = [x for x in range(-bound, bound + 1) if x]
    closers = {
        s: [(x, -s - x) for x in values if -s - x in values]
        for s in range(-2 * bound, 2 * bound + 1)
    }
    for k in range(2, kmax + 1):
        stack = [(0, ())]
        while stack:
            s, prefix = stack.pop()
            i = len(prefix)
            if i == k - 2:
                yield from map(prefix.__add__, closers[s])
                continue
            for x in values:
                if abs(s + x) <= bound * (k - 1 - i):
                    stack.append((s + x, prefix + (x,)))


SOLVABLE_SHORT = frozenset({"Cor1", "Cor3"})


@functools.cache
def singular_sweep(kmax: int = 9, bound: int = 4):
    """(count, verdicts seen, first vector whose verdict is not in
    SOLVABLE_SHORT) over ``iter_singular_vectors(kmax, bound)``.

    Cached, so the tests that share the exhaustive sweep walk its vectors
    (7.4 M for k <= 9, |m| <= 4) once per pytest run.
    """
    verdicts = Counter(map(decide_verdict, iter_singular_vectors(kmax, bound)))
    offender = None
    if not verdicts.keys() <= SOLVABLE_SHORT:
        offender = next(
            m for m in iter_singular_vectors(kmax, bound) if decide_verdict(m) not in SOLVABLE_SHORT
        )
    return sum(verdicts.values()), frozenset(verdicts), offender


def test_classify_singular_short_never_unknown():
    # exhaustive over singular exponent vectors with k <= 9, |m| <= 4: every
    # word of syllable length <= 18 must classify as solvable
    count, verdicts, offender = singular_sweep()
    assert verdicts <= SOLVABLE_SHORT, offender
    assert count > 1_000_000


@pytest.mark.parametrize("m", [[], [1, 0, -1, 0, 0], [0, 1, -1]])
def test_decide_verdict_rejects_invalid_vectors(m):
    from starweight.equations import decide_verdict

    with pytest.raises(EquationError):
        decide_verdict(m)


def test_decide_verdict_matches_classify():
    rng = random.Random(99)
    for _ in range(2000):
        k = rng.randrange(1, 12)
        m = [rng.choice([x for x in range(-4, 5) if x]) for _ in range(k)]
        from starweight.equations import decide_verdict

        assert decide_verdict(m) == classify(eq(m)).verdict


def test_classify_rotation_invariant():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(5, 11)
        m = [rng.choice([x for x in range(-3, 4) if x]) for _ in range(k)]
        base = classify(eq(m)).verdict
        rot = rng.randrange(k)
        rotated = m[rot:] + m[:rot]
        assert classify(eq(rotated)).verdict == base
        inverted = [-x for x in reversed(m)]
        assert classify(eq(inverted)).verdict == base


def test_parse_equation_inline():
    w = parse_equation("a1 t^2 a2 t^-1 a3 t^-1".split())
    assert w.exponents == (2, -1, -1)
    assert classify(w).verdict == "Cor1"
    with pytest.raises(EquationError):
        parse_equation("t a1".split())


@pytest.mark.parametrize("power", ["t^1_0", "t^٢", "t^", "t^ 2"])
def test_a_t_power_is_a_sign_and_ascii_digits(power):
    # int() alone reads "1_0" as 10
    with pytest.raises(EquationError, match="bad t power"):
        parse_equation(["a1", power, "a2", "t^-1"])
