from pathlib import Path

import pytest

import starweight
import starweight.facts as facts_module
import starweight.weights as weights_module
from starweight.cli import main

GAMMA8 = """\
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a3
gens B: b1 b2 b3
indet: X Y
relator: Y^-1 X a1^-1 X^-1 b2 X a3 X^-1
relator: b1 Y b3 Y^-1
fact: neq a1 1
fact: neq a3 1
fact: neq b1 1
fact: neq b2 1
fact: neq b3 1
fact: notincyclic a3 a1
fact: notincyclic a1 a3
weight: label:1#0 = 1
weight: label:1#1 = 1
weight: label:a3 = 1
weight: label:a1^-1 = 0
weight: label:b2 = 0
weight: label:b3 = 0
weight: label:b1 = 0
"""


@pytest.fixture
def gamma8_file(tmp_path):
    f = tmp_path / "gamma8.scn"
    f.write_text(GAMMA8)
    return str(f)


def test_curvature_values(capsys):
    assert main(["curvature", "--degrees", "4,6,6"]) == 0
    assert capsys.readouterr().out == "pi/6\n"
    assert main(["curvature", "--degrees", "4,4,6,6"]) == 0
    assert capsys.readouterr().out == "-pi/3\n"
    assert main(["curvature", "--degrees", "3,3,3,3", "--boundary", "k0"]) == 0
    assert capsys.readouterr().out == "-pi/3 + 2*pi/k0\n"


def test_curvature_bad_degrees(capsys):
    assert main(["curvature", "--degrees", "2,4"]) == 2


def test_curvature_reads_ascii_digit_degrees(capsys):
    assert main(["curvature", "--degrees", "4,10,6"]) == 0
    assert capsys.readouterr().out == "pi/30\n"


@pytest.mark.parametrize("degree", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-3"])
def test_curvature_rejects_a_degree_int_alone_would_read(degree, capsys):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    assert main(["curvature", "--degrees", f"4,{degree},6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad integer {degree!r}\n"


@pytest.mark.parametrize(
    "option, value, ok",
    [("--length", "1_0", "10"), ("--max-iter", "٣", "3")],
    ids=["length-underscore", "max-iter-arabic-indic-3"],
)
def test_integer_options_reject_what_int_alone_would_read(option, value, ok, capsys):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    scenario = str(Path(starweight.__file__).parent / "corpus" / "px1_w0.scn")
    command = "trivial-cycles" if option == "--length" else "search-weights"
    assert main([command, scenario, option, ok]) == 0
    capsys.readouterr()
    assert main([command, scenario, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid parse_int value: {value!r}" in captured.err


def test_parse_and_star(gamma8_file, capsys):
    assert main(["parse", gamma8_file]) == 0
    out = capsys.readouterr().out
    assert "relator:" in out
    assert main(["star", gamma8_file, "--edges", "--dot", "-"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and "label a3" in out


def test_check_weights_aspherical(gamma8_file, capsys):
    assert main(["check-weights", gamma8_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: Aspherical" in out


def test_check_weights_json(gamma8_file, capsys):
    assert main(["check-weights", gamma8_file, "--json"]) == 0
    out = capsys.readouterr().out
    assert "verdict=Aspherical" in out


def test_check_weights_violations_exit_code(tmp_path, capsys):
    text = GAMMA8.replace("fact: notincyclic a3 a1\n", "")
    f = tmp_path / "mut.scn"
    f.write_text(text)
    assert main(["check-weights", str(f)]) == 1
    assert "SURVIVES" in capsys.readouterr().out


def test_check_weights_rejects_an_alias_over_different_labels(tmp_path, capsys):
    # ab and a b both compact to "ab"; label:ab#0 used to pick the a b edge
    f = tmp_path / "colliding.scn"
    f.write_text(
        "factor A noncyclic nontrivial\ngens A: a b ab c\nindet: t\nrelator: a b t ab t c t\n"
        "weight: label:ab#0 = 1/2\nweight: 0.1 = 1/2\nweight: 0.2 = 1/2\n"
    )
    assert main(["check-weights", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ambiguous edge alias 'label:ab#0': edges ['0.0', '0.2'] carry different labels\n"
    )


def test_check_weights_rejects_a_negative_alias_index(tmp_path, capsys):
    # a1 labels edges 0.0 and 0.2; label:a1#-1 used to resolve to 0.2 and exit 1
    f = tmp_path / "negative.scn"
    f.write_text(
        "factor A noncyclic nontrivial\ngens A: a1 a2\nindet: t\nrelator: a1 t a1 t a2 t\n"
        "weight: label:a1#0 = 1/2\nweight: label:a1#-1 = 1/2\nweight: 0.1 = 1/2\n"
    )
    assert main(["check-weights", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no edge 'label:a1#-1'\n"


def test_search_weights_cli(gamma8_file, capsys):
    assert main(["search-weights", gamma8_file]) == 0
    out = capsys.readouterr().out
    assert "status: found" in out and "weight:" in out


def test_cycles_cli(gamma8_file, capsys):
    assert main(["cycles", gamma8_file]) == 0
    out = capsys.readouterr().out
    assert "total:" in out


@pytest.mark.parametrize("threshold", ["2/0", "0/0"])
def test_cycles_zero_denominator_threshold_is_an_input_error(threshold, gamma8_file, capsys):
    assert main(["cycles", gamma8_file, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad threshold {threshold!r}\n"


@pytest.mark.parametrize("threshold", ["2_0", "1/2_0", "٢"])
def test_cycles_threshold_is_an_ascii_rational_without_underscores(threshold, gamma8_file, capsys):
    # Fraction reads "2_0" as 20 from Python 3.11 on and rejects it on 3.10
    assert main(["cycles", gamma8_file, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad threshold {threshold!r}\n"


def test_relator_line_without_its_colon_exits_2(tmp_path, capsys):
    # read without the colon it was the empty relator: parse exited 0
    path = tmp_path / "nocolon.scn"
    path.write_text(GAMMA8.replace("relator: b1 Y b3 Y^-1", "relator b1 Y b3 Y^-1"))
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 7: relator line needs 'relator:'\n"


def test_trivial_cycles_cli(gamma8_file, capsys):
    assert main(["trivial-cycles", gamma8_file, "--length", "2"]) == 0


def test_classify_equation_inline(capsys):
    assert main(["classify-equation", "--word", "a1 t a2 t a3 t a4 t"]) == 0
    assert "SolvableBy(Cor1)" in capsys.readouterr().out
    assert main(["classify-equation", "--word",
                 "a1 t a2 t^-1 a3 t a4 t^-1 a5 t a6 t^-1 a7 t a8 t^-1 a9 t a10 t^-1"]) == 1
    assert "Unknown" in capsys.readouterr().out


def test_classify_equation_scenario(tmp_path, capsys):
    f = tmp_path / "eq.scn"
    f.write_text(
        "factor A nontrivial\ngens A: a1 a2 a3 a4\nindet: t\n"
        "relator: a1 t a2 t a3 t a4 t\n"
    )
    assert main(["classify-equation", str(f)]) == 0
    assert "Cor1" in capsys.readouterr().out


def test_usage_error(capsys):
    assert main(["check-weights", "/nonexistent/file.scn"]) == 2
    assert main(["nonsense"]) == 2


def test_corpus_run(tmp_path, capsys):
    (tmp_path / "g8.scn").write_text(GAMMA8)
    (tmp_path / "manifest.txt").write_text("g8.scn aspherical sec4 Gamma_8\n")
    assert main(["corpus", "run", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "g8.scn: expected=aspherical got=aspherical ok" in out


def test_corpus_run_mismatch(tmp_path, capsys):
    (tmp_path / "g8.scn").write_text(GAMMA8)
    (tmp_path / "manifest.txt").write_text("g8.scn violations sec4 Gamma_8 flipped\n")
    assert main(["corpus", "run", str(tmp_path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_corpus_run_deterministic(tmp_path, capsys):
    (tmp_path / "g8.scn").write_text(GAMMA8)
    (tmp_path / "manifest.txt").write_text("g8.scn aspherical sec4 Gamma_8\n")
    main(["corpus", "run", str(tmp_path)])
    first = capsys.readouterr().out
    main(["corpus", "run", str(tmp_path)])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["check-weights", "{f}"],
        ["check-weights", "{f}", "--json"],
        ["cycles", "{f}"],
        ["trivial-cycles", "{f}", "--length", "2"],
        ["corpus", "run", "{d}"],
    ],
)
def test_walk_budget_is_a_resource_limit_not_an_input_error(argv, monkeypatch, tmp_path, capsys):
    # GAMMA8's family walk pops one path, its loop a3, so no budget of one
    # step or more runs out there; a budget of 0 runs out at the first pop
    walk = weights_module._closed_walks

    def tiny_budget(g, wf, threshold, zsub, max_len, budget, prune=None):
        return walk(g, wf, threshold, zsub, max_len, 0, prune)

    monkeypatch.setattr(weights_module, "_closed_walks", tiny_budget)
    (tmp_path / "g8.scn").write_text(GAMMA8)
    (tmp_path / "manifest.txt").write_text("g8.scn aspherical sec4 Gamma_8\n")
    args = [a.format(f=tmp_path / "g8.scn", d=tmp_path) for a in argv]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed-walk enumeration budget exceeded\n"


def test_a_light_path_over_the_marked_cap_is_a_resource_limit(tmp_path, capsys):
    # at threshold 3 random graph 77 of tests/test_weights.py has light closed
    # paths with 6 and 8 marked junctions, each needing a mandatory pump,
    # where the cap allows 4; they end the run instead of being dropped
    (tmp_path / "g77.scn").write_text(
        "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
        "gens A: a1\ngens B: b1 b2\nindet: t\n"
        "relator: b1 t b2 b1 t^-1 b1 t^-1\n"
        "weight: 0.0 = 0\nweight: 0.1 = 1/3\nweight: 0.2 = 0\n"
    )
    assert main(["cycles", str(tmp_path / "g77.scn"), "--threshold", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed path with more than 4 marked junctions\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-weights", "{f}"],
        ["check-weights", "{f}", "--json"],
        ["trivial-cycles", "{f}", "--length", "2"],
        ["corpus", "run", "{d}"],
    ],
)
def test_rewrite_cap_is_a_resource_limit_not_an_input_error(argv, monkeypatch, tmp_path, capsys):
    # px1_w1 has eq facts; a cap of one rewrite only lets through words already normal
    monkeypatch.setattr(facts_module, "_REWRITE_CAP", 1)
    corpus = Path(starweight.__file__).parent / "corpus"
    (tmp_path / "px1_w1.scn").write_text((corpus / "px1_w1.scn").read_text(encoding="utf-8"))
    (tmp_path / "manifest.txt").write_text("px1_w1.scn aspherical prop1\n")
    args = [a.format(f=tmp_path / "px1_w1.scn", d=tmp_path) for a in argv]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eq rewrite step cap exceeded\n"


def test_a_pump_whose_core_spans_both_factors_is_not_refuted_by_fp(tmp_path, capsys):
    # 0.1 and 0.2 weigh 0 and form the zero cycle b1^-1 a1^-1; every family
    # but its power family carries (b1^-1 a1^-1)^m or its reverse as a pump,
    # whose core has no factor of its own, so FP refutes none of them
    (tmp_path / "mixed_core.scn").write_text(
        "factor A noncyclic nontrivial\nfactor B noncyclic nontrivial\n"
        "gens A: a1 a2\ngens B: b1\nindet: t\n"
        "relator: b1^-1 t^-1 b1 t^-1 a1^-1 t^-1\n"
        "fact: neq a1 b1 = 1\nfact: neq a2 = 1\nfact: neq a1 = 1\nfact: neq b1 = 1\n"
        "weight: 0.0 = 1/2\nweight: 0.1 = 0\nweight: 0.2 = 0\n"
    )
    assert main(["check-weights", str(tmp_path / "mixed_core.scn")]) == 1
    out = capsys.readouterr().out
    assert "light cycle families: 20\n" in out and out.count("  SURVIVES ") == 20
    assert "refuted [" not in out and out.endswith("verdict: PotentialViolations\n")
