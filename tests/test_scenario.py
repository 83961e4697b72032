from fractions import Fraction

import pytest

from starweight.scenario import ScenarioError, parse_rational, parse_scenario, print_scenario
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


@pytest.mark.parametrize(
    "fact, message",
    [
        ("neq a9 1", "undeclared symbol 'a9' in fact"),
        ("neq a1 t", "indeterminate 't' not allowed in facts"),
    ],
    ids=["undeclared", "indeterminate"],
)
def test_fact_symbol_errors_report_the_fact_line(fact, message):
    text = f"factor A\ngens A: a1\nindet: t\nrelator: a1 t\nfact: {fact}\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == f"line 5: {message}"
    assert exc.value.line == 5


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


HEAD = "factor A\ngens A: a1 a2\nindet: t\nrelator: a1 t a2 t\n"


@pytest.mark.parametrize(
    "line, directive",
    [
        ("indet t", "indet"),
        ("relator a1 t a2 t", "relator"),
        ("relator", "relator"),
        ("fact neq a1 a2", "fact"),
        ("weight 0.0 = 1/2", "weight"),
        ("weight label:a1 = 1/2", "weight"),
    ],
)
def test_directive_without_its_colon_is_an_error_at_its_line(line, directive):
    # read without the colon, these used to declare nothing, relate 1 or
    # report an empty fact
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(HEAD + line + "\n")
    assert exc.value.line == 5
    assert str(exc.value) == f"line 5: {directive} line needs '{directive}:'"


@pytest.mark.parametrize("line", ["indets: t", "relators: a1 t", "facts: neq a1 a2", "weighting: 0.0 = 1"])
def test_a_directive_is_its_whole_word(line):
    with pytest.raises(ScenarioError, match="line 5: unknown directive"):
        parse_scenario(HEAD + line + "\n")


def test_directives_read_the_same_with_spaces_around_the_colon():
    s = parse_scenario(
        "factor A\ngens A: a1 a2\nindet :t\nrelator :a1 t a2 t\nfact : neq a1 a2\nweight :0.0 = 1/2\n"
    )
    assert s.presentation.indeterminates == ["t"] and len(s.fact_decls) == 1
    assert str(s.presentation.relators[0]) == "a1 t a2 t" and s.weights == [("0.0", Fraction(1, 2))]


@pytest.mark.parametrize("token", ["a1^1_0", "a1^ 2", "a1^٢", "a1^", "a1^+-2", "a1^0x2"])
def test_an_exponent_is_a_sign_and_ascii_digits(token):
    # int() alone reads "1_0" as 10 and "٢" (Arabic-Indic two) as 2
    with pytest.raises(ValueError, match="bad exponent"):
        word_from_tokens([token])


def test_signed_exponents_read_as_before():
    assert word_from_tokens(["a1^+2", "a2^-10", "a1^007"]).letters == (("a1", 2), ("a2", -10), ("a1", 7))


@pytest.mark.parametrize("value", ["1/2_0", "1_0/3", "1_0", "٢/3", "1/0", "1/", "one"])
def test_a_weight_is_an_ascii_rational_without_underscores(value):
    # Fraction reads "1/2_0" as 1/20 from Python 3.11 on and rejects it on 3.10
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(HEAD + f"weight: 0.0 = {value}\n")
    assert str(exc.value) == f"line 5: bad rational {value!r}"


@pytest.mark.parametrize("value, want", [("1/2", Fraction(1, 2)), ("0.25", Fraction(1, 4)), ("-0", Fraction(0))])
def test_ascii_rationals_read_as_before(value, want):
    assert parse_rational(value) == want
