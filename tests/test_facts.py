import random

import pytest

from starweight.facts import FactBase, FactError
from starweight.scenario import FactDecl, parse_scenario
from starweight.words import Word, word_from_tokens


def W(text):
    return word_from_tokens(text.split()) if text != "1" else Word()


def fb_from(fact_lines, gens="a1 a2 a3 a4", gens_b=""):
    text = "factor A noncyclic nontrivial\n"
    text += f"gens A: {gens}\n"
    if gens_b:
        text += f"factor B noncyclic nontrivial\ngens B: {gens_b}\n"
    for line in fact_lines:
        text += f"fact: {line}\n"
    s = parse_scenario(text)
    return FactBase(s.presentation, s.fact_decls)


def test_normalize_substitution():
    fb = fb_from(["eq a1 a2"])
    assert fb.normalize(W("a2")) == W("a1")


def test_normalize_cancellation_case2():
    # a1 = a2 in A makes a1 a2^-1 trivial
    fb = fb_from(["eq a1 a2"])
    assert fb.normalize(W("a1 a2^-1")) == Word()


def test_normalize_noop():
    fb = fb_from([])
    assert fb.normalize(W("a3 a4")) == W("a3 a4")


def test_normalize_rejects_mixed_word():
    fb = fb_from([], gens_b="b1")
    with pytest.raises(FactError):
        fb.normalize(W("a1 b1"))


def test_normalize_idempotent():
    fb = fb_from(["eq a1 a2 a3 a4 = 1", "eq a1 a3"])
    for text in ["a1 a2 a3 a4", "a4 a3", "a2^-1 a4", "a1 a1 a3"]:
        n = fb.normalize(W(text))
        assert fb.normalize(n) == n


def test_refute_power_torsion_free():
    # (a3^-1 a4)^3 with a3 != a4: torsion-free root rule (R2)
    fb = fb_from(["neq a3 a4"])
    v = fb.refute_trivial(W("a3^-1 a4 a3^-1 a4 a3^-1 a4"))
    assert v.refuted and v.rule == "R2"


def test_refute_notincyclic_power():
    fb = fb_from(["notincyclic a1 a3"])
    v = fb.refute_trivial(W("a1^-1 a3 a3 a3"))
    assert v.refuted and v.rule == "R3"


def test_unknown_is_the_contract():
    fb = fb_from([])
    assert not fb.refute_trivial(W("a1 a4 a3")).refuted


def test_refute_family_pump_only():
    fb = fb_from(["neq a2 a4"])
    assert fb.refute_template([Word()], [W("a2^-1 a4")]).refuted


def test_refute_family_notincyclic_after_rewrite():
    # Eq facts send a4 and the pump a2^-1 a4 into <a2>; a1 stays outside by
    # fact.  Oracle (integers, A = Z additively): a2 = 2, a3 = a4 = -2,
    # a1 = 5: base + m*pump = (-2 - 5) + m*(-4) != 0 for all m >= 1.
    fb = fb_from(["eq a2 a3^-1", "eq a4 a3", "notincyclic a1 a2"])
    v = fb.refute_template([W("a1^-1 a4")], [W("a2^-1 a4")])
    assert v.refuted and v.rule == "R3"


def test_refute_family_unknown_without_facts():
    fb = fb_from([])
    assert not fb.refute_template([W("a1^-1 a4")], [W("a2^-1 a4")]).refuted


def test_refute_family_conjugated_pump():
    fb = fb_from(["notincyclic b1 b2"], gens="a1", gens_b="b1 b2")
    v = fb.refute_template([W("b1")], [W("b1^-1 b2 b1")])
    assert v.refuted


def test_refute_family_mixed_alternation():
    fb = fb_from(["neq a4 1", "neq b1 1"], gens="a1 a4", gens_b="b1")
    # a1^-1 b1^m a1 a4^-1 is mixed and stays mixed for every m >= 1
    v = fb.refute_template([W("a1 a4^-1 a1^-1")], [W("b1")])
    assert v.refuted and v.rule == "FP"
    # a trivial pump in a second slot just drops out of the template
    v2 = fb.refute_template([W("a1^-1"), W("a1 a4^-1")], [W("b1"), Word()])
    assert v2.refuted


def test_refute_family_degenerate_to_trivial():
    fb = fb_from(["neq b1 1"], gens="a1", gens_b="b1")
    # every pump rewrites away and the base itself is trivial: no refutation
    fb2 = fb_from(["eq b2 b1", "neq b1 1"], gens="a1", gens_b="b1 b2")
    v = fb2.refute_template([W("b1 b2^-1")], [W("b2 b1^-1")])
    assert not v.refuted


def test_refute_trivial_stable_under_normalize():
    fb = fb_from(["eq a1 a2", "neq a3 a4", "notincyclic a3 a1"])
    for text in ["a3^-1 a4", "a2 a3 a1^-1", "a1 a2^-1", "a3 a1 a1"]:
        w = W(text)
        assert fb.refute_trivial(w).refuted == fb.refute_trivial(fb.normalize(w)).refuted


def test_isolated_yes():
    fb = fb_from(["notincyclic a1 a4", "notincyclic a2 a4", "notincyclic a3 a4"])
    assert fb.is_isolated("a4", ["a1", "a2", "a3"]) == "yes"


def test_isolated_no_lemma31():
    fb = fb_from(["eq a4 a3"])
    assert fb.is_isolated("a3", ["a1", "a2", "a4"]) == "no"


def test_isolated_unknown():
    fb = fb_from([])
    assert fb.is_isolated("a3", ["a1", "a2", "a4"]) == "unknown"


def test_inconsistent_facts_rejected():
    with pytest.raises(FactError):
        fb_from(["eq a1 a2", "neq a1 a2"])
    with pytest.raises(FactError):
        fb_from(["eq a1 = a3 a3", "notincyclic a1 a3"])


def test_confluence_of_small_systems():
    fb = fb_from(["eq a1 a2", "eq a3 a4"])
    assert fb.check_confluence()
    # a3 -> a1 rewrites inside the length-4 rule: genuinely non-confluent
    fb2 = fb_from(["eq a1 a2 a3 a4 = 1", "eq a1 a3"])
    assert not fb2.check_confluence()


def test_monotone_in_facts():
    # adding facts never un-refutes
    weak = fb_from(["neq a3 a4"])
    strong = fb_from(["neq a3 a4", "eq a1 a3", "neq a1 a2"])
    for text in ["a3^-1 a4", "a3^-1 a4 a3^-1 a4"]:
        if weak.refute_trivial(W(text)).refuted:
            assert strong.refute_trivial(W(text)).refuted


# -- model-instantiation soundness (factor = Z, written additively) ------


def eval_word(w, values):
    return sum(values[n] * e for n, e in w.letters)


def model_satisfies(fb, values):
    for fd in fb.decls:
        le, re_ = eval_word(fd.lhs, values), eval_word(fd.rhs, values)
        if fd.kind == "eq" and le != re_:
            return False
        if fd.kind == "neq" and le == re_:
            return False
        if fd.kind == "notincyclic":
            g = eval_word(fd.rhs, values)
            if g == 0:
                if le == 0:
                    return False
            elif le % g == 0:
                return False
    return True


@pytest.mark.parametrize("seed", [1, 2])
def test_soundness_by_integer_models(seed):
    rng = random.Random(seed)
    fb = fb_from(["eq a1 a2", "neq a3 a4", "notincyclic a3 a1", "neq a1 1"])
    words = [W("a3^-1 a4"), W("a1 a2^-1 a3"), W("a3 a1 a1"), W("a1 a1"), W("a3^-1 a4 a3^-1 a4")]
    refutes = [(w, fb.refute_trivial(w)) for w in words]
    tested = 0
    while tested < 1000:
        values = {n: rng.randint(-9, 9) for n in ["a1", "a2", "a3", "a4"]}
        values["a2"] = values["a1"]
        if not model_satisfies(fb, values):
            continue
        tested += 1
        for w, v in refutes:
            if v.refuted:
                assert eval_word(w, values) != 0, f"false refutation of {w} in {values}"
