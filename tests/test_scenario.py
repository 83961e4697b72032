import pytest

from starweight.scenario import ScenarioError, parse_scenario, print_scenario
from starweight.words import word_from_tokens

PX_FILE = """\
# the length-8 relator over a free product, one indeterminate
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a2 a3 a4
gens B: b1 b2 b3 b4
indet: X
relator: a1 X b1 X^-1 a2 X b2 X^-1 a3 X b3 X^-1 a4 X b4 X^-1
fact: neq a1 1
fact: neq a3 a4
fact: notincyclic a1 a3
"""


def test_parse_px_relator():
    s = parse_scenario(PX_FILE)
    expected = word_from_tokens("a1 X b1 X^-1 a2 X b2 X^-1 a3 X b3 X^-1 a4 X b4 X^-1".split())
    assert s.presentation.relators == [expected]
    assert next(f for f in s.presentation.factors if f.name == "A").noncyclic
    assert len(s.fact_decls) == 3


def test_minimal_scenario():
    s = parse_scenario("factor A\ngens A: a1\n")
    assert s.presentation.relators == []
    assert s.presentation.generators["A"] == ["a1"]


def test_undeclared_generator_reports_line():
    text = "factor A\ngens A: a1\nindet: t\nrelator: a9 t\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert "line 4" in str(exc.value)
    assert "a9" in str(exc.value)


def test_duplicate_declaration_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("factor A\nfactor A\n")
    with pytest.raises(ScenarioError):
        parse_scenario("factor A\ngens A: a1 a1\n")


def test_weight_lines_and_fractions():
    s = parse_scenario("factor A\ngens A: a1\nindet: t\nrelator: a1 t\nweight: 0.0 = 1/2\n")
    assert s.weights[0][1].numerator == 1 and s.weights[0][1].denominator == 2


def test_round_trip():
    s1 = parse_scenario(PX_FILE)
    text = print_scenario(s1)
    s2 = parse_scenario(text)
    assert s2.presentation.relators == s1.presentation.relators
    assert s2.fact_decls == s1.fact_decls
    assert print_scenario(s2) == text


def test_fact_with_multiword_sides():
    s = parse_scenario(
        "factor A\ngens A: a1 a2 a3 a4\nfact: eq a1 a2 a3 a4 = 1\nfact: neq a4 a3 = a1\n"
    )
    eq = s.fact_decls[0]
    assert eq.kind == "eq" and str(eq.lhs) == "a1 a2 a3 a4" and not eq.rhs


def test_relator_stored_cyclically_reduced():
    s = parse_scenario("factor A\ngens A: a1\nindet: t\nrelator: t^-1 a1 t t\n")
    assert str(s.presentation.relators[0]) == "a1 t"
