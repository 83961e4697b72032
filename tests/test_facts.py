import itertools
import random
import zlib
from collections import Counter
from pathlib import Path

import pytest

import starweight
import starweight.facts as facts_module
import starweight.words as words
from confluence import check_confluence
from oracle_carry_template import CarryTemplateFactBase
from oracle_facts import oracle_fact_base
from oracle_oriented_facts import oriented_oracle_fact_base
from oracle_power_loop import PowerLoopFactBase
from oracle_words import (
    Word,
    canonical_cyclic_class,
    cyclically_reduce,
    max_root,
    strip_conjugation,
    word_from_tokens,
)
from starweight.cli import main
from starweight.facts import FactBase, FactError
from starweight.scenario import INDETERMINATE, FactDecl, parse_scenario
from starweight.stargraph import build_star_graph
from starweight.weights import WeightFunction

# Words with letter names are the oracle's (``oracle_words``), on which the
# reference functions below run; a fact base takes letter codes.


def W(text):
    return word_from_tokens(text.split()) if text != "1" else Word()


def C(fb, w):
    """The codes, in fb's presentation, of a word or its text."""
    return words.encode(W(w) if isinstance(w, str) else w, fb.presentation.code)


def O(fb, codes):
    """The oracle word of codes in fb's presentation."""
    return Word(words.decode(codes, fb.order).letters)


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
    assert fb.normalize_any(C(fb, "a2")) == C(fb, "a1")


def test_normalize_cancellation_case2():
    # a1 = a2 in A makes a1 a2^-1 trivial
    fb = fb_from(["eq a1 a2"])
    assert fb.normalize_any(C(fb, "a1 a2^-1")) == ()


def test_normalize_noop():
    fb = fb_from([])
    assert fb.normalize_any(C(fb, "a3 a4")) == C(fb, "a3 a4")


def test_normalize_idempotent():
    fb = fb_from(["eq a1 a2 a3 a4 = 1", "eq a1 a3"])
    for text in ["a1 a2 a3 a4", "a4 a3", "a2^-1 a4", "a1 a1 a3"]:
        n = fb.normalize_any(C(fb, text))
        assert fb.normalize_any(n) == n


def test_refute_power_torsion_free():
    # (a3^-1 a4)^3 with a3 != a4: torsion-free root rule (R2)
    fb = fb_from(["neq a3 a4"])
    v = fb.refute_trivial(C(fb, "a3^-1 a4 a3^-1 a4 a3^-1 a4"))
    assert v.refuted and v.rule == "R2"


def test_refute_notincyclic_power():
    fb = fb_from(["notincyclic a1 a3"])
    v = fb.refute_trivial(C(fb, "a1^-1 a3 a3 a3"))
    assert v.refuted and v.rule == "R3"


def test_unknown_is_the_contract():
    fb = fb_from([])
    assert not fb.refute_trivial(C(fb, "a1 a4 a3")).refuted


def test_refute_family_pump_only():
    fb = fb_from(["neq a2 a4"])
    assert fb.refute_template([()], [C(fb, "a2^-1 a4")]).refuted


def test_refute_family_notincyclic_after_rewrite():
    # Eq facts send a4 and the pump a2^-1 a4 into <a2>; a1 stays outside by
    # fact.  Oracle (integers, A = Z additively): a2 = 2, a3 = a4 = -2,
    # a1 = 5: base + m*pump = (-2 - 5) + m*(-4) != 0 for all m >= 1.
    fb = fb_from(["eq a2 a3^-1", "eq a4 a3", "notincyclic a1 a2"])
    v = fb.refute_template([C(fb, "a1^-1 a4")], [C(fb, "a2^-1 a4")])
    assert v.refuted and v.rule == "R3"


def test_refute_family_unknown_without_facts():
    fb = fb_from([])
    assert not fb.refute_template([C(fb, "a1^-1 a4")], [C(fb, "a2^-1 a4")]).refuted


def test_refute_family_conjugated_pump():
    fb = fb_from(["notincyclic b1 b2"], gens="a1", gens_b="b1 b2")
    v = fb.refute_template([C(fb, "b1")], [C(fb, "b1^-1 b2 b1")])
    assert v.refuted


def test_refute_family_mixed_alternation():
    fb = fb_from(["neq a4 1", "neq b1 1"], gens="a1 a4", gens_b="b1")
    # a1^-1 b1^m a1 a4^-1 is mixed and stays mixed for every m >= 1
    v = fb.refute_template([C(fb, "a1 a4^-1 a1^-1")], [C(fb, "b1")])
    assert v.refuted and v.rule == "FP"
    # a trivial pump in a second slot just drops out of the template
    v2 = fb.refute_template([C(fb, "a1^-1"), C(fb, "a1 a4^-1")], [C(fb, "b1"), ()])
    assert v2.refuted


def test_refute_family_pump_beside_its_own_factor_is_unknown():
    # every syllable and both pump cores are refuted nontrivial, but each
    # pump of A borders a syllable of A: with a2 = a1^-1 and a4 = a3^-1, which
    # meet every fact, the instance m = n = 1 reads b1 b1^-1 = 1
    fb = fb_from(["neq a1 1", "neq a2 1", "neq a3 1", "neq a4 1", "neq b1 1"], gens_b="b1")
    v = fb.refute_template([C(fb, "b1 a1"), C(fb, "b1^-1 a3")], [C(fb, "a2"), C(fb, "a4")])
    assert not v.refuted


def test_refute_family_degenerate_to_trivial():
    fb = fb_from(["neq b1 1"], gens="a1", gens_b="b1")
    # every pump rewrites away and the base itself is trivial: no refutation
    fb2 = fb_from(["eq b2 b1", "neq b1 1"], gens="a1", gens_b="b1 b2")
    v = fb2.refute_template([C(fb2, "b1 b2^-1")], [C(fb2, "b2 b1^-1")])
    assert not v.refuted


def test_refute_family_of_both_factors_whose_pumps_all_rewrite_away():
    # b2 b1^-1 and the conjugated a1 b1^-1 b2 a1^-1 rewrite to 1, so every
    # instance is the base: a1 b1 a1 alternates over A and B with the
    # syllables a1^2 and b1, while a1 b1 b1^-1 a1^-1 is 1
    fb = fb_from(["eq b2 b1", "neq a1 1", "neq b1 1"], gens="a1", gens_b="b1 b2")
    pumps = [C(fb, "b2 b1^-1"), C(fb, "a1 b1^-1 b2 a1^-1")]
    v = fb.refute_template([C(fb, "a1 b1"), C(fb, "a1")], pumps)
    assert v.rule == "FP" == fb.refute_trivial(C(fb, "a1 b1 a1")).rule
    assert not fb.refute_template([C(fb, "a1 b1"), C(fb, "b1^-1 a1^-1")], pumps).refuted


def test_refute_family_core_spanning_both_factors_is_unknown():
    # a1 = x != 1, a2 = x^-1 and b1 = 1 meet both facts and make the instance
    # m = 1, a2 a1 b1, trivial; the carry-loop oracle read the core a1 b1 as
    # a syllable of a factor of its own and answered FP
    fb = fb_from(["neq a1 b1 = 1", "neq a2 = 1"], gens="a1 a2", gens_b="b1")
    segments, pumps = [C(fb, "a2")], [C(fb, "a1 b1")]
    assert not fb.refute_template(segments, pumps).refuted
    assert not fb.refute_trivial(C(fb, "a2 a1 b1")).refuted
    assert CarryTemplateFactBase(fb.presentation, fb.decls).refute_template(segments, pumps).rule == "FP"


def test_refute_trivial_stable_under_normalize():
    fb = fb_from(["eq a1 a2", "neq a3 a4", "notincyclic a3 a1"])
    for text in ["a3^-1 a4", "a2 a3 a1^-1", "a1 a2^-1", "a3 a1 a1"]:
        w = C(fb, text)
        assert fb.refute_trivial(w).refuted == fb.refute_trivial(fb.normalize_any(w)).refuted


def test_isolated_no_lemma31():
    # eq a4 a3 puts the peer a4 in <a3>, so a3 is not isolated
    fb = fb_from(["eq a4 a3"])
    assert fb.as_power_of(C(fb, "a4"), fb.order.index("a3")) == 1


def test_inconsistent_facts_rejected():
    with pytest.raises(FactError):
        fb_from(["eq a1 a2", "neq a1 a2"])
    with pytest.raises(FactError):
        fb_from(["eq a1 = a3 a3", "notincyclic a1 a3"])
    with pytest.raises(FactError):
        # the word's normal form is not empty, only its inverse's is
        fb_from(["eq a1 a4 = a4 a1", "eq a1 a4 = a2", "neq a2 a4^-1 a1^-1 = 1"])


def test_confluence_of_small_systems():
    fb = fb_from(["eq a1 a2", "eq a3 a4"])
    assert check_confluence(fb)
    # a3 -> a1 rewrites inside the length-4 rule: genuinely non-confluent
    fb2 = fb_from(["eq a1 a2 a3 a4 = 1", "eq a1 a3"])
    assert not check_confluence(fb2)


def test_monotone_in_facts():
    # adding facts never un-refutes
    weak = fb_from(["neq a3 a4"])
    strong = fb_from(["neq a3 a4", "eq a1 a3", "neq a1 a2"])
    for text in ["a3^-1 a4", "a3^-1 a4 a3^-1 a4"]:
        if weak.refute_trivial(C(weak, text)).refuted:
            assert strong.refute_trivial(C(strong, text)).refuted


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
    refutes = [(w, fb.refute_trivial(C(fb, w))) for w in words]
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


# -- the seam fast path and the power cache against the code they replaced --

CORPUS = Path(starweight.__file__).parent / "corpus"


def _corpus_factbases():
    for path in sorted(CORPUS.glob("*.scn")):
        s = parse_scenario(path.read_text(), name=path.stem)
        yield s.name, FactBase(s.presentation, s.fact_decls)


def _reference_cyclic_normalize(self, w: Word) -> Word:
    """Normalize a conjugacy-class representative, allowing rewrites
    across the rotation seam whenever they shorten the word."""
    cur = cyclically_reduce(self.normalize_any(w), self.order)
    changed = True
    while changed:
        changed = False
        expanded = cur.expand()
        for i in range(len(expanded)):
            rot = Word(expanded[i:] + expanded[:i])
            _, core = strip_conjugation(self.normalize_any(rot))
            if len(core) < len(cur):
                cur = cyclically_reduce(core, self.order)
                changed = True
                break
    return cur


def _reference_as_power_of(self, w: Word, g: str, limit: int = 8) -> int | None:
    gw = Word([(g, 1)])
    for k in range(-limit, limit + 1):
        if not self.normalize_any(w * gw ** (-k)):
            return k
    return None


def test_cyclic_normalize_matches_reference_on_random_words():
    # random words tell the two orientations of an inverse rule apart (the
    # oracle_oriented_facts docstring), so the reference is the twin's
    checked = 0
    for name, fb in _corpus_factbases():
        if not fb.rules:
            continue
        oracle = oriented_oracle_fact_base(fb.presentation, fb.decls)
        rng = random.Random(zlib.crc32(name.encode()))
        gens = [n for n in fb.order if fb.factor_of[n] != INDETERMINATE]
        for _ in range(200):
            w = Word(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 10))
            )
            n, occurs = fb._cyclic_normalize(C(fb, w))
            assert O(fb, n) == _reference_cyclic_normalize(oracle, w), (name, w)
            assert occurs == fb._occurs_cyclically(n), (name, w)
        checked += 1
    assert checked >= 20


def test_cyclic_normalize_rewrites_across_the_seam():
    # a4 a1 occurs in the cyclic word a1 a2 a4 only across the seam
    fb = fb_from(["eq a4 a1 = a3"])
    w = C(fb, "a1 a2 a4")
    assert fb.normalize_any(w) == w and words.cyclically_reduce(w) == w
    assert fb._cyclic_normalize(w) == (C(fb, "a2 a3"), False)
    oracle = oracle_fact_base(fb.presentation, fb.decls)
    assert _reference_cyclic_normalize(oracle, W("a1 a2 a4")) == W("a2 a3")


def test_power_cache_matches_uncached_answers_on_corpus_queries(monkeypatch):
    queries = []
    cached = FactBase.as_power_of

    def record(self, w, g):
        k = cached(self, w, g)
        queries.append((self, w, g, k))
        return k

    monkeypatch.setattr(FactBase, "as_power_of", record)
    assert main(["corpus", "run", str(CORPUS)]) == 0
    monkeypatch.setattr(FactBase, "as_power_of", cached)
    assert len(queries) > 100
    limited = 0
    fresh_of = {}
    for fb, w, g, k in queries:
        if fb not in fresh_of:
            fresh_of[fb] = oracle_fact_base(fb.presentation, fb.decls)
        fresh = fresh_of[fb]  # answers through the reference, which caches nothing
        assert k == _reference_as_power_of(fresh, O(fb, w), fb.order[g]), (w, g)
        limited += k is not None and abs(k) > 1
    assert limited > 0


def _random_eq_facts(rng, gens):
    """One to three eq facts: commuting pairs, powers and length-changing
    products, so that some letters keep their exponent sums and some do not."""
    facts = []
    for _ in range(rng.randint(1, 3)):
        x, y, z = rng.sample(gens, 3)
        kind = rng.choice(("commute", "power", "length"))
        if kind == "commute":
            facts.append(f"eq {x} {y} = {y} {x}")
        elif kind == "power":
            facts.append(f"eq {x}^{rng.choice((2, 3))} = {y}^{rng.choice((1, -1, 2))}")
        else:
            facts.append(f"eq {x} {y} = {z}")
    return facts


def test_power_filter_matches_full_exponent_scan_on_random_fact_bases(monkeypatch):
    rng = random.Random(13)
    gens = ["a1", "a2", "a3", "a4"]
    hits = far = asked = 0
    for _ in range(100):
        facts = _random_eq_facts(rng, gens)
        fb = fb_from(facts)
        # words built from letters and fact sides, so that many are g-powers
        sides = [W(str(side)) for fd in fb.decls for side in (fd.lhs, fd.rhs)]
        pieces = [W(g) for g in gens] + sides
        queries = []
        for _ in range(20):
            w = Word()
            for _ in range(rng.randint(1, 4)):
                p = rng.choice(pieces)
                w = w * (p if rng.random() < 0.5 else p.inverse())
            queries.append((w, rng.choice(gens)))
        for limit in (1, 8):
            monkeypatch.setattr(facts_module, "_POWER_LIMIT", limit)
            fb = fb_from(facts)  # a fresh power cache, filled under this limit only
            oracle = oriented_oracle_fact_base(fb.presentation, fb.decls)
            for w, g in queries:
                want = _reference_as_power_of(oracle, w, g, limit)
                assert fb.as_power_of(C(fb, w), fb.order.index(g)) == want, (fb.decls, w, g, limit)
                asked += 1
                hits += want is not None
                far += want is not None and abs(want) > 1
    assert 0 < far < hits < asked


# -- rewriting terminates (the facts.py docstring) -------------------------


def test_every_rewrite_step_descends_in_length_then_codes():
    # eq facts from _random_eq_facts and between random sides of 1-3
    # letters, some not freely reduced (a1 a1^-1 a2) and some mutually
    # inverse (a2^-1 a1 = a1^-1 a2, where the inverse of the oriented rule
    # is its exact reverse); a descending chain repeats no word
    rng = random.Random(zlib.crc32(b"rewrite chains descend"))
    gens = ["a1", "a2", "a3"]

    def side():
        return " ".join(rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(rng.randint(1, 3)))

    steps = level = 0
    for _ in range(300):
        facts = _random_eq_facts(rng, gens) if rng.random() < 0.5 else []
        facts += [f"eq {side()} = {side()}" for _ in range(rng.randint(1, 2))]
        fb = fb_from(facts, gens=" ".join(gens))
        sides = [C(fb, str(side)) for fd in fb.decls for side in (fd.lhs, fd.rhs)]
        for _ in range(30):
            w = ()
            for _ in range(rng.randint(1, 4)):
                p = rng.choice(sides + [C(fb, g) for g in gens])
                w += p if rng.random() < 0.5 else words.inverse(p)
            cur = w
            while (nxt := fb._rewrite_once(cur)) is not None:
                assert (len(nxt), nxt) < (len(cur), cur), (facts, w, cur, nxt)
                level += len(nxt) == len(cur)
                reduced = words.free_reduce(nxt)
                assert reduced == nxt or len(reduced) < len(nxt), (facts, w, nxt)
                cur = reduced
                steps += 1
            assert cur == fb.normalize_any(w), (facts, w)
    assert steps > 1000 and level > 100  # many steps keep the length, and descend in codes


def test_mutually_inverse_fact_sides_do_not_exhaust_the_rewrite_cap(tmp_path, capsys):
    # the fact says (a2^-1 a1)^2 = 1; the inverse of its oriented rule is
    # that rule's exact reverse, and unless each is oriented on its own the
    # rewriting loops until the cap, and the command exits 3
    f = tmp_path / "inverse_sides.scn"
    f.write_text(
        "factor A noncyclic nontrivial\ngens A: a1 a2\nindet: t\nrelator: a1 t a2 t\n"
        "fact: eq a2^-1 a1 = a1^-1 a2\nfact: neq a1 1\n"
        "weight: 0.0 = 1/2\nweight: 0.1 = 1/2\n"
    )
    assert main(["check-weights", str(f)]) == 1
    assert "light cycle families: 1\n" in capsys.readouterr().out
    assert main(["trivial-cycles", str(f), "--length", "2"]) == 0
    assert capsys.readouterr().out == "a1 a2^-1\n"


# -- the inverse of a normal form need not be one (the facts.py docstring) --


def test_a_fact_meets_the_normal_form_of_its_inverse():
    # under eq b3 b2 = b2 b3 the word b2^-1 b3^-1 b4 is a normal form and its
    # inverse b4^-1 b3 b2 is not: a query of the inverse reaches b4^-1 b2 b3,
    # which the fact base must hold besides the inverse as it is
    gens = "b2 b3 b4 b1"
    fb = fb_from(["eq b3 b2 = b2 b3", "neq b2^-1 b3^-1 b4 = 1"], gens=gens)
    assert fb.refute_trivial(C(fb, "b4^-1 b3 b2")).rule == "R2"
    fb = fb_from(["eq b3 b2 = b2 b3", "notincyclic b2^-1 b3^-1 b4 = b1"], gens=gens)
    assert fb.refute_trivial(C(fb, "b1^2 b4^-1 b3 b2")).rule == "R3"
    assert fb.refute_template([C(fb, "b4^-1 b3 b2")], [C(fb, "b1")]).rule == "R3"


def test_a_neq_fact_refutes_its_own_cyclic_normal_form():
    # the cyclic normal form of a3 a1^-1 a4 is a1^-1 a4 a3, in which a rule
    # pattern still occurs cyclically; normalising it again gives
    # a1^-1 a3 a4, which the fact base does not hold, so the word itself is
    # looked up first
    fb = fb_from(["eq a3 a4 = a4 a3", "eq a3 a1 = a2", "eq a2 a4 = a3", "neq a3 a1^-1 a4 = 1"])
    w = C(fb, "a3 a1^-1 a4")
    assert fb._cyclic_normalize(w) == (C(fb, "a1^-1 a4 a3"), True)
    assert fb.refute_trivial(w).rule == "R2"


def test_fact_words_and_their_inverses_on_random_fact_bases():
    # neq and notincyclic words that start with an eq fact's side, so that
    # many have an inverse which is not a normal form.  A neq word and its
    # inverse are refuted whenever no rule pattern occurs cyclically in their
    # cyclic normal form (the lookup in neq1 alone decides them then), and
    # every answer on these words is the oriented oracle's
    rng = random.Random(zlib.crc32(b"fact words and their inverses"))
    gens = ["a1", "a2", "a3", "a4"]

    def word():
        return " ".join(rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(rng.randint(1, 3)))

    checked = bases = 0
    rules = Counter()
    while bases < 150:
        facts = _random_eq_facts(rng, gens)
        sides = [side for f in facts for side in f[3:].split(" = ")] + gens
        facts += [f"neq {rng.choice(sides)} {word()} = 1" for _ in range(rng.randint(1, 2))]
        facts.append(f"notincyclic {rng.choice(sides)} {word()} = {rng.choice(gens)}")
        try:
            fb = fb_from(facts)
        except FactError:
            continue  # inconsistent facts
        bases += 1
        queries = []
        for fd in fb.decls:
            v = C(fb, fd.lhs)
            if fd.kind == "neq":
                for w in (v, words.inverse(v)):
                    queries.append(("refute_trivial", (w,)))
                    if not fb._cyclic_normalize(w)[1]:
                        assert fb.refute_trivial(w), (facts, fd, w)
                        checked += 1
            elif fd.kind == "notincyclic":
                g = C(fb, fd.rhs)
                for w in (v, words.inverse(v)):
                    queries.append(("refute_trivial", (words.free_reduce(g * rng.randint(0, 2) + w + g),)))
                    queries.append(("refute_template", ([w], [g])))
        rules += _same_answers(fb, queries, oriented_oracle_fact_base)
    assert checked > 300 and rules["R3"] > 300, (checked, rules)


# -- the short cuts of a fact base that has nothing to rewrite -------------


def test_normalize_any_returns_its_argument_without_eq_rules(monkeypatch):
    # with no eq rules the rewrite loop would return the word unchanged: it
    # comes back as the same object, on random words and on every query a
    # corpus run puts to such a fact base
    fb = fb_from(["neq a1 a2", "neq a3 1", "notincyclic a4 a1"])
    assert not fb.rules
    rng = random.Random(zlib.crc32(b"normalize_any without rules"))
    for _ in range(300):
        w = C(fb, Word(
            (rng.choice(("a1", "a2", "a3", "a4")), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 9))
        ))
        assert fb.normalize_any(w) is w
    queries = _record_corpus_queries(monkeypatch, "normalize_any")
    bare = [(args[0], answer) for f, args, answer in queries if not f.rules]
    assert len(bare) > 100 and all(answer is w for w, answer in bare)


def test_syllables_are_the_checked_words_of_their_runs(monkeypatch):
    # syllables reads the runs off the codes, as a run of a reduced word is
    # reduced; each one decodes to the word its letters build the checked way
    def reference(fb, w):
        runs = itertools.groupby(w.letters, key=lambda lt: fb.factor_of[lt[0]])
        return [(f, Word(list(letters))) for f, letters in runs]

    queries = _record_corpus_queries(monkeypatch, "syllables")
    fb = fb_from([], gens="a1 a2", gens_b="b1 b2")
    rng = random.Random(zlib.crc32(b"syllables"))
    for _ in range(300):
        w = C(fb, Word(
            (rng.choice(("a1", "a2", "b1", "b2")), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 12))
        ))
        queries.append((fb, (w,), fb.syllables(w)))
    for f, (w,), answer in queries:
        want = reference(f, O(f, w))
        assert [(g, O(f, s).letters) for g, s in answer] == [(g, s.letters) for g, s in want], w
    assert len(queries) > 500


# -- the neq lookup and the refutation memo against the code they replaced --


def _record_corpus_queries(monkeypatch, name, trivial_lengths=()):
    """(fact base, arguments, answer) for every call of FactBase.<name>
    made by one ``corpus run``, then by ``trivial-cycles --length L`` on
    every corpus scenario for each L in ``trivial_lengths``."""
    queries = []
    method = getattr(FactBase, name)

    def record(self, *args):
        answer = method(self, *args)
        queries.append((self, args, answer))
        return answer

    monkeypatch.setattr(FactBase, name, record)
    assert main(["corpus", "run", str(CORPUS)]) == 0
    for path in sorted(CORPUS.glob("*.scn")):
        for length in trivial_lengths:
            assert main(["trivial-cycles", str(path), "--length", str(length)]) == 0
    monkeypatch.setattr(FactBase, name, method)
    return queries


def _reference_neq_classes(fb):
    return {
        canonical_cyclic_class(
            fb._cyclic_normalize(fb.normalize_any(fd.lhs * fd.rhs.inverse()))[0], fb.order
        )
        for fd in fb.decls
        if fd.kind == "neq"
    }


def _reference_refute_power(fb, w, classes):
    """``_refute_power`` with every power of the root cyclically normalised
    and looked up by its canonical rotation/inversion class."""
    root, d = max_root(w)
    for e in (e for e in range(1, d + 1) if d % e == 0):
        u = Word(root.expand() * e)
        if canonical_cyclic_class(fb._cyclic_normalize(u)[0], fb.order) in classes:
            return True, "R4" if len(u.letters) == 1 and abs(u.letters[0][1]) == 1 else "R2"
    return False, ""


def test_neq_lookup_matches_canonical_class_lookup_on_corpus_queries(monkeypatch):
    # a corpus run asks the fact base only about families, so it alone puts
    # too few questions; trivial-cycles adds every short closed path of each
    # corpus graph
    queries = _record_corpus_queries(monkeypatch, "_refute_power", trivial_lengths=(1, 2, 3, 4))
    classes = {}
    oracles = {}
    hits = settled = 0
    for fb, (w, occurs), v in queries:
        if fb not in classes:
            oracles[fb] = oracle_fact_base(fb.presentation, fb.decls)
            classes[fb] = _reference_neq_classes(oracles[fb])
        want = _reference_refute_power(oracles[fb], O(fb, w), classes[fb])
        assert (v.refuted, v.rule) == want, w
        # every caller passes the flag its cyclic normal form came with
        assert occurs == fb._occurs_cyclically(w), w
        # the inverse class is matched as well
        assert fb._refute_power(*fb._cyclic_normalize(words.inverse(w))).refuted == want[0], w
        hits += v.refuted
        settled += not occurs
    assert len(queries) > 1000 and 0 < hits < len(queries)
    assert 0 < settled < len(queries)  # both the direct lookup and the full one were taken


# -- the power table against the root loop it replaced (oracle_power_loop) --


def test_the_empty_word_has_no_power_entry():
    fb = fb_from(["neq a1 1", "neq a2 a3"])
    assert fb._refute_power((), False) == facts_module.UNKNOWN
    assert fb._powers[0] == {}


def test_the_shortest_neq_root_names_the_rule():
    # a1^4 is a1^4 and (a1^2)^2: the loop answers at a1, so R4, where a table
    # that kept the longest root would read R2
    fb = fb_from(["neq a1 1", "neq a1^2 1"])
    assert fb.refute_trivial(C(fb, "a1^4")).rule == "R4"
    assert fb.refute_trivial(C(fb, "a1^2")).rule == "R4"
    fb = fb_from(["neq a1^2 1"])
    assert fb.refute_trivial(C(fb, "a1^4")).rule == "R2"
    assert not fb.refute_trivial(C(fb, "a1^3"))


def test_a_neq_power_refutes_its_powers_and_rotations_only():
    fb = fb_from(["neq a1 a2 a1 a2 = 1"])
    assert fb.refute_trivial(C(fb, "a1 a2 a1 a2 a1 a2 a1 a2")).rule == "R2"
    assert fb.refute_trivial(C(fb, "a2 a1 a2 a1")).rule == "R2"
    assert fb.refute_trivial(C(fb, "a1^-1 a2^-1 a1^-1 a2^-1")).rule == "R2"
    assert not fb.refute_trivial(C(fb, "a1 a2 a1 a2 a1 a2"))
    assert not fb.refute_trivial(C(fb, "a1 a2"))


def test_the_power_table_holds_only_refutations_of_neq_words_on_k6_q4():
    from test_weights import _grid_text
    from starweight.weights import verify_weight_test

    s = parse_scenario(_grid_text(6, 4))
    fb = FactBase(s.presentation, s.fact_decls)
    assert len(verify_weight_test(s, fb).families) == 2795
    assert sorted(fb._powers) == [2, 4, 6]  # the label lengths of its families
    for n, table in fb._powers.items():
        assert len(table) <= len(fb.neq1), n
        assert all(len(w) == n and v.refuted for w, v in table.items()), n


def _same_power_answers(queries):
    """Each (fact base, (w, occurs)) query put to the fact base and to the
    root-loop oracle of the same facts; returns how many took the table."""
    oracles = {}
    looked_up = 0
    for fb, (w, occurs) in queries:
        if fb not in oracles:
            oracles[fb] = PowerLoopFactBase(fb.presentation, fb.decls)
        got, want = fb._refute_power(w, occurs), oracles[fb]._refute_power(w, occurs)
        assert (got.refuted, got.rule) == (want.refuted, want.rule), (fb.decls, w, occurs)
        looked_up += not occurs
    return looked_up


def test_power_table_answers_as_the_root_loop(monkeypatch):
    from test_weights import _grid_text
    from starweight.weights import verify_weight_test

    # every query of a corpus run and of trivial-cycles --length 1..4
    corpus = [(fb, args) for fb, args, _ in _record_corpus_queries(
        monkeypatch, "_refute_power", trivial_lengths=(1, 2, 3, 4))]
    looked_up = _same_power_answers(corpus)
    assert 0 < looked_up < len(corpus) and len(corpus) > 1000

    # every query of the bench grid cells and k6_q4, all without eq rules
    grid = []
    program = FactBase._refute_power

    def record(self, w, occurs):
        grid.append((self, (w, occurs)))
        return program(self, w, occurs)

    monkeypatch.setattr(FactBase, "_refute_power", record)
    for k, q in ((4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (6, 3), (6, 4)):
        verify_weight_test(parse_scenario(_grid_text(k, q)))
    monkeypatch.setattr(FactBase, "_refute_power", program)
    assert _same_power_answers(grid) == len(grid) > 4000

    # random fact bases whose neq words are often powers of one another,
    # asked about the powers of each neq1 word, their inverses and random
    # words, some of which reduce to the empty word
    rng = random.Random(zlib.crc32(b"power table against the root loop"))
    gens = ["a1", "a2", "a3", "a4"]
    rules = Counter()
    bases = 0
    while bases < 300:
        facts = _random_eq_facts(rng, gens) if rng.random() < 0.7 else []
        roots = [" ".join(rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(rng.randint(1, 2)))
                 for _ in range(2)]
        facts += [f"neq {' '.join([rng.choice(roots)] * rng.randint(1, 3))} = 1" for _ in range(rng.randint(1, 3))]
        try:
            fb = fb_from(facts)
        except FactError:
            continue  # inconsistent facts
        bases += 1
        pieces = [C(fb, g) for g in gens] + sorted(fb.neq1)
        asked = [v * k for v in sorted(fb.neq1) for k in range(1, 5)]
        asked += [words.inverse(w) for w in asked]
        for _ in range(10):
            w = ()
            for _ in range(rng.randint(0, 4)):
                p = rng.choice(pieces)
                w += p if rng.random() < 0.5 else words.inverse(p)
            asked.append(w)
            asked.append(w + words.inverse(w))
        queries = [(fb, fb._cyclic_normalize(w)) for w in asked]
        _same_power_answers(queries)
        rules.update(fb._refute_power(*args).rule or "unknown" for _, args in queries)
    assert all(rules[r] > 100 for r in ("R2", "R4", "unknown")), rules


def test_remembered_refutations_match_a_fresh_fact_base(monkeypatch):
    queries = _record_corpus_queries(monkeypatch, "refute_trivial")
    asked = {}
    repeats = 0
    for fb, (w,), v in queries:
        repeats += v.refuted and (fb, w) in asked
        asked.setdefault((fb, w), v)
    for (fb, w), v in asked.items():
        fresh = FactBase(fb.presentation, fb.decls).refute_trivial(w)
        assert v == fresh, w
        again = fb.refute_trivial(w)
        assert again is v if v.refuted else again == v  # a refutation is served from the memo
    assert repeats > 0  # some answers came from the memo
    for fb in {fb for fb, _ in asked}:
        assert all(v.refuted for v in fb._refuted.values())  # no Unknown is kept


# -- the fact base against the name-based one it replaced (oracle_facts) ----


def _same_answers(fb, queries, build_oracle=oracle_fact_base):
    """Puts each query, (method name, arguments as codes), to fb and to the
    oracle fact base of the same facts (``build_oracle``, the verbatim
    oracle by default), which reads the arguments decoded; both give the
    same (refuted, rule).  Returns the rules given."""
    oracle = build_oracle(fb.presentation, fb.decls)
    rules = Counter()
    for name, args in queries:
        got = getattr(fb, name)(*args)
        if name == "refute_trivial":
            want = oracle.refute_trivial(O(fb, args[0]))
        else:
            want = oracle.refute_template([O(fb, s) for s in args[0]], [O(fb, p) for p in args[1]])
        assert (got.refuted, got.rule) == (want.refuted, want.rule), (name, args)
        rules[got.rule or "unknown"] += 1
    return rules


def test_fact_base_answers_as_the_oracle_on_corpus_queries(monkeypatch):
    by_fb = {}
    for name in ("refute_trivial", "refute_template"):
        for fb, args, _ in _record_corpus_queries(monkeypatch, name):
            by_fb.setdefault(fb, []).append((name, args))
    rules = Counter()
    for fb, queries in by_fb.items():
        # a fresh fact base, so that no answer comes from the corpus run's memo
        rules += _same_answers(FactBase(fb.presentation, fb.decls), queries)
    assert sum(rules.values()) > 1000
    assert all(rules[r] for r in ("R2", "R3", "R4", "unknown")), rules


def test_fact_base_answers_as_the_oracle_on_grid_families():
    from test_weights import _grid_text
    from starweight.weights import enumerate_light_cycles

    families = 0
    for k, q in ((4, 3), (4, 4), (5, 3), (5, 4)):
        s = parse_scenario(_grid_text(k, q))
        g = build_star_graph(s.presentation)
        queries = []
        for fam in enumerate_light_cycles(g, WeightFunction.from_scenario(s, g)):
            queries += [("refute_template", template) for template in fam.templates()]
            queries.append(("refute_trivial", (fam.base_label(),)))
            families += 1
        rules = _same_answers(FactBase(s.presentation, s.fact_decls), queries)
        assert rules["R2"] and rules["unknown"], (k, q, rules)
    assert families > 500


def test_fact_base_answers_as_the_oracle_on_random_eq_fact_bases():
    # eq facts from _random_eq_facts with neq and notincyclic facts beside
    # them, over a factor A and a factor B, so that every rule is reached
    rng = random.Random(zlib.crc32(b"fact base oracle"))
    gens, gens_b = ["a1", "a2", "a3", "a4"], ["b1", "b2"]
    rules = Counter()
    bases = 0
    while bases < 100:
        facts = _random_eq_facts(rng, gens)
        for _ in range(rng.randint(1, 3)):
            x = rng.choice(gens + gens_b)
            y = rng.choice([g for g in gens + gens_b if g[0] == x[0] and g != x] + ["1"])
            facts.append(f"neq {x} {y}")
        if rng.random() < 0.5:
            x, y = rng.sample(gens, 2)
            facts.append(f"notincyclic {x} {y}")
        try:
            fb = fb_from(facts, gens=" ".join(gens), gens_b=" ".join(gens_b))
        except FactError:
            continue  # inconsistent facts
        bases += 1
        # words from letters and fact sides, so that many rewrite and many refute
        pieces = [W(g) for g in gens + gens_b] + [W(str(side)) for fd in fb.decls for side in (fd.lhs, fd.rhs)]

        def word():
            w = Word()
            for _ in range(rng.randint(1, 4)):
                p = rng.choice(pieces)
                w = w * (p if rng.random() < 0.5 else p.inverse())
            return C(fb, w)

        queries = [("refute_trivial", (word(),)) for _ in range(20)]
        for _ in range(10):
            k = rng.randint(1, 2)
            queries.append(("refute_template", ([word() for _ in range(k)], [word() for _ in range(k)])))
        rules += _same_answers(fb, queries, oriented_oracle_fact_base)
    assert all(rules[r] for r in ("R2", "R3", "R4", "FP", "unknown")), rules


# -- the template merge against the carry loop it replaced -----------------


def _same_template_answers(fb, templates):
    """Puts each (segments, pumps) template to a fresh fact base of fb's
    facts and to the carry-loop oracle (``oracle_carry_template``), and
    returns the rules given.  Both give the same rule, with two exceptions.
    Where a pump core spans both factors the program answers Unknown, and
    the oracle Unknown or FP ("spanning core").  Where ``check_confluence``
    finds the rewrite system not confluent the two may differ ("join
    order"): they join the same words in another order, and normal forms
    then depend on it."""
    program = FactBase(fb.presentation, fb.decls)
    oracle = CarryTemplateFactBase(fb.presentation, fb.decls)
    confluent = check_confluence(fb)
    rules = Counter()
    for segments, pumps in templates:
        got, want = program.refute_template(segments, pumps), oracle.refute_template(segments, pumps)
        cores = [words.strip_conjugation(fb.normalize_any(p))[1] for p in pumps]
        if any(len(fb.syllables(c)) > 1 for c in cores):
            assert not got.refuted and want.rule in ("", "FP"), (segments, pumps)
            rules["spanning core"] += 1
            rules["oracle FP on a spanning core"] += want.refuted
        elif got.rule != want.rule and not confluent:
            rules["join order"] += 1
        else:
            assert got.rule == want.rule, (fb.decls, segments, pumps)
            rules[got.rule or "unknown"] += 1
    return rules


def test_template_answers_as_the_carry_loop_on_corpus_and_grid_templates(monkeypatch):
    from test_weights import _grid_text
    from starweight.weights import enumerate_light_cycles

    by_fb = {}
    for fb, args, _ in _record_corpus_queries(monkeypatch, "refute_template"):
        by_fb.setdefault(fb, []).append(args)
    for k, q in ((4, 3), (5, 3)):
        s = parse_scenario(_grid_text(k, q))
        g = build_star_graph(s.presentation)
        fb = FactBase(s.presentation, s.fact_decls)
        by_fb[fb] = [t for fam in enumerate_light_cycles(g, WeightFunction.from_scenario(s, g)) for t in fam.templates()]
    rules = Counter()
    for fb, templates in by_fb.items():
        rules += _same_template_answers(fb, templates)
    assert sum(rules.values()) > 900 and not rules["spanning core"] and not rules["join order"]
    assert all(rules[r] for r in ("R2", "R3", "R4", "unknown")), rules


def test_template_answers_as_the_carry_loop_on_random_templates():
    # templates over a factor A and a factor B under random eq facts, with
    # conjugated pumps, pumps that rewrite to 1 and segments of both factors
    rng = random.Random(zlib.crc32(b"template merge against the carry loop"))
    gens, gens_b = ["a1", "a2", "a3", "a4"], ["b1", "b2"]
    rules, shapes = Counter(), Counter()
    bases = 0
    while bases < 150:
        facts = _random_eq_facts(rng, gens)
        facts += [f"neq {x} 1" for x in gens + gens_b if rng.random() < 0.6]
        x, y = rng.sample(gens, 2)
        facts.append(f"neq {x} {y}")
        # a word of both factors proved nontrivial, which a pump core may be
        facts.append(f"neq {rng.choice(gens)} {rng.choice(gens_b)} = 1")
        if rng.random() < 0.5:
            x, y = rng.sample(gens, 2)
            facts.append(f"notincyclic {x} {y}")
        try:
            fb = fb_from(facts, gens=" ".join(gens), gens_b=" ".join(gens_b))
        except FactError:
            continue  # inconsistent facts
        bases += 1
        pieces = [W(g) for g in gens + gens_b] + [W(str(side)) for fd in fb.decls for side in (fd.lhs, fd.rhs)]
        pieces_a = [p for p in pieces if all(n in gens for n, _ in p.letters)]
        ones = [O(fb, C(fb, fd.lhs) + words.inverse(C(fb, fd.rhs))) for fd in fb.decls if fd.kind == "eq"]

        def word(from_pieces):
            w = Word()
            for _ in range(rng.randint(0, 2)):
                p = rng.choice(from_pieces)
                w = w * (p if rng.random() < 0.5 else p.inverse())
            return w

        def pump(from_pieces):
            h = word(pieces) if rng.random() < 0.5 else Word()
            core = rng.choice(ones) if rng.random() < 0.3 else word(from_pieces) * rng.choice(from_pieces)
            return C(fb, h * core * h.inverse())

        templates = []
        for _ in range(20):
            k = rng.randint(1, 3)
            from_pieces = pieces_a if rng.random() < 0.4 else pieces
            templates.append(([C(fb, word(from_pieces)) for _ in range(k)], [pump(from_pieces) for _ in range(k)]))
        for segments, pumps in templates:
            normal = [fb.normalize_any(p) for p in pumps]
            shapes["conjugated"] += any(words.strip_conjugation(p)[0] for p in normal)
            shapes["rewrites to 1"] += any(not p and q for p, q in zip(normal, pumps))
            shapes["all rewrite to 1"] += not any(normal)
            shapes["segment of both factors"] += any(len(fb.syllables(s)) > 1 for s in segments)
        rules += _same_template_answers(fb, templates)
    assert all(rules[r] for r in ("R2", "R3", "R4", "FP", "unknown", "oracle FP on a spanning core")), rules
    # one template of 3 000 here: a2 (1)^m (a2 b2 a2^-1)^n under a2^2 -> a1^2,
    # where the carry loop cancels a2 against the conjugator's a2^-1 first
    assert rules["join order"] * 500 < bases * 20, rules
    assert all(shapes[s] > 50 for s in ("conjugated", "rewrites to 1", "all rewrite to 1", "segment of both factors")), shapes
