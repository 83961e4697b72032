"""Corpus regression: the paper's case analysis as machine-checked data.

``src/starweight/corpus/golden/<name>.txt`` pins the stdout of
``check-weights`` on each corpus scenario but ``px``.  After a deliberate
output change, regenerate the files with

    PYTHONPATH=src python tests/test_corpus.py
"""

import io
import contextlib
import random
import sys
import zlib
from pathlib import Path

import pytest

import starweight
from confluence import check_confluence
from expansions import expansions_upto
from starweight.cli import main
from starweight.facts import FactBase
from starweight.scenario import parse_scenario
from starweight.stargraph import build_star_graph, canonical_atom_cycle, path_label
from starweight.words import canonical_cyclic_class
from starweight.weights import canonical_atom_edge_cycle, reduced_closed_walks, verify_weight_test

CORPUS = Path(starweight.__file__).parent / "corpus"


def load(name):
    return parse_scenario((CORPUS / f"{name}.scn").read_text(), name=name)


def scenario_names():
    return sorted(p.stem for p in CORPUS.glob("*.scn"))


def test_manifest_covers_every_scenario():
    listed = set()
    for line in (CORPUS / "manifest.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            listed.add(line.split()[0])
    assert listed == {f"{n}.scn" for n in scenario_names()}


def test_corpus_run_all_match(capsys):
    assert main(["corpus", "run", str(CORPUS)]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "mismatches: 0" in out


def test_corpus_run_deterministic(capsys):
    main(["corpus", "run", str(CORPUS)])
    first = capsys.readouterr().out
    main(["corpus", "run", str(CORPUS)])
    assert capsys.readouterr().out == first


GOLDEN_NAMES = [n for n in scenario_names() if n != "px"]


def check_weights_report(name):
    """The stdout of ``check-weights`` on one corpus scenario."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check-weights", str(CORPUS / f"{name}.scn")])
    return out.getvalue()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_outputs(name):
    golden = (CORPUS / "golden" / f"{name}.txt").read_text()
    assert check_weights_report(name) == golden


# -- mutation checks: deleting the unless-clause fact surfaces the branch --


def drop_fact(s, kind, lhs, rhs):
    kept = [
        fd
        for fd in s.fact_decls
        if not (fd.kind == kind and str(fd.lhs) == lhs and str(fd.rhs) == rhs)
    ]
    assert len(kept) == len(s.fact_decls) - 1, "fact to delete not found"
    s.fact_decls = kept
    return s


def surviving_classes(s):
    report = verify_weight_test(s)
    assert report.verdict == "PotentialViolations"
    out = set()
    for fv in report.violations:
        out.add(canonical_cyclic_class(fv.family.base_label()))
    return out, report


def cls(s, text):
    from starweight.words import encode, word_from_tokens

    return canonical_cyclic_class(encode(word_from_tokens(text.split()), s.presentation.code))


def test_mutation_gamma3_surfaces_b4_in_b3_branch():
    s = drop_fact(load("px3_theta"), "notincyclic", "b4", "b3")
    survivors, report = surviving_classes(s)
    assert cls(s, "b4") in survivors
    b4_families = [
        fv
        for fv in report.violations
        if canonical_cyclic_class(fv.family.base_label()) == cls(s, "b4")
    ]
    assert any(
        canonical_cyclic_class(p.label()) == cls(s, "b3")
        for fv in b4_families
        for p in fv.family.pumps
    ), "the surviving family should pump by b3, matching the b4 in <b3> branch"


def test_mutation_gamma12_surfaces_b2_eq_b4_branch():
    s = drop_fact(load("px12_w0"), "neq", "b2", "b4")
    survivors, _ = surviving_classes(s)
    assert cls(s, "b2 b4^-1") in survivors


def test_mutation_gamma17_surfaces_b1_eq_b2_branch():
    s = drop_fact(load("px17_w1"), "neq", "b1", "b2")
    survivors, _ = surviving_classes(s)
    assert cls(s, "b1^-1 b2") in survivors


def test_corpus_factbases_confluent():
    for name in scenario_names():
        s = load(name)
        fb = FactBase(s.presentation, s.fact_decls)
        assert check_confluence(fb), name


# -- soundness sampling: integer instantiation of every refuted family ----


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def solve_eq_facts(fb, rng, gens):
    """Random integer model satisfying the eq facts (factors additively Z);
    signed primes keep notincyclic facts generically satisfiable."""
    values = {g: rng.choice(_PRIMES) * rng.choice([-1, 1]) for g in gens}
    # repair each eq by solving for a +-1-coefficient variable, a few sweeps
    for _ in range(4):
        for fd in fb.decls:
            if fd.kind != "eq":
                continue
            coeffs = {}  # exponent sums of lhs rhs^-1
            for n, e in fd.lhs.letters + tuple((m, -f) for m, f in fd.rhs.letters):
                coeffs[n] = coeffs.get(n, 0) + e
            coeffs = {n: c for n, c in coeffs.items() if c}
            if not coeffs:
                continue
            resid = sum(c * values[n] for n, c in coeffs.items())
            if resid == 0:
                continue
            unit_vars = [n for n, co in coeffs.items() if abs(co) == 1]
            if not unit_vars:
                return None
            pivot = rng.choice(unit_vars)
            values[pivot] -= resid // coeffs[pivot]
    for fd in fb.decls:
        if fd.kind == "eq":
            le = sum(e * values[n] for n, e in fd.lhs.letters)
            re_ = sum(e * values[n] for n, e in fd.rhs.letters)
            if le != re_:
                return None
    return values


def model_ok(fb, values):
    for fd in fb.decls:
        le = sum(e * values[n] for n, e in fd.lhs.letters)
        re_ = sum(e * values[n] for n, e in fd.rhs.letters)
        if fd.kind == "neq" and le == re_:
            return False
        if fd.kind == "notincyclic":
            if re_ == 0:
                if le == 0:
                    return False
            elif le % re_ == 0:
                return False
    return True


def free_product_trivial(fb, word, values):
    """Evaluate a label in the model of A * B with both factors Z."""
    sylls = []
    for f, sub in fb.syllables(word):
        val = sum(values[fb.order[c >> 1]] * (1 - 2 * (c & 1)) for c in sub)
        sylls.append((f, val))
    def reduce_linear(items):
        changed = True
        while changed:
            changed = False
            out = []
            for f, v in items:
                if v == 0:
                    changed = True
                    continue
                if out and out[-1][0] == f:
                    merged = out[-1][1] + v
                    out.pop()
                    if merged:
                        out.append((f, merged))
                    changed = True
                else:
                    out.append((f, v))
            items = out
        return items

    sylls = reduce_linear(sylls)
    # triviality is conjugation-invariant: also reduce around the seam
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        merged = sylls[0][1] + sylls[-1][1]
        sylls = sylls[1:-1] + ([(sylls[0][0], merged)] if merged else [])
        sylls = reduce_linear(sylls)
    return not sylls


MODELS_PER_SCENARIO = 1000


@pytest.mark.parametrize("name", [n for n in scenario_names() if n != "px"])
def test_soundness_by_integer_models(name):
    s = load(name)
    fb = FactBase(s.presentation, s.fact_decls)
    report = verify_weight_test(s)
    labels = []
    for fv in report.families:
        if not fv.refuted:
            continue
        for exp in expansions_upto(fv.family, 3):
            labels.append(path_label(exp))
    if not labels:
        return
    gens = sorted(s.presentation.factor_of)
    gens = [g for g in gens if s.presentation.factor_of[g] != "@indet"]
    rng = random.Random(zlib.crc32(name.encode()))
    tested = 0
    attempts = 0
    while tested < MODELS_PER_SCENARIO and attempts < 40 * MODELS_PER_SCENARIO:
        attempts += 1
        values = solve_eq_facts(fb, rng, gens)
        if values is None or not model_ok(fb, values):
            continue
        tested += 1
        for label in labels:
            assert not free_product_trivial(fb, label, values), (
                f"{name}: refuted label {label} vanishes in model {values}"
            )
    assert tested >= MODELS_PER_SCENARIO // 2, f"{name}: too few satisfying models ({tested})"


def test_path_canonical_forms_match_brute_force():
    g = build_star_graph(load("px1_w0").presentation)
    walks = reduced_closed_walks(g, 6)
    assert len(walks) > 100

    def least(seq, key):
        inv = [(x, -d) for x, d in reversed(seq)]
        rots = [tuple(s[i:] + s[:i]) for s in (seq, inv) for i in range(len(s))]
        return min(rots, key=lambda r: [key(a) for a in r])

    for walk in walks:
        want_atoms = least([t.atom() for t in walk], lambda a: (a[0], 0 if a[1] > 0 else 1))
        want_edges = least([(t.edge.edge_id, t.direction) for t in walk], lambda a: a)
        inverse = tuple(t.reverse() for t in reversed(walk))
        for p in (walk, inverse):
            for i in range(len(p)):
                rot = p[i:] + p[:i]
                assert canonical_atom_cycle(list(rot)) == want_atoms
                assert canonical_atom_edge_cycle(rot) == want_edges


if __name__ == "__main__":
    for name in GOLDEN_NAMES:
        path = CORPUS / "golden" / f"{name}.txt"
        path.write_text(check_weights_report(name), encoding="utf-8")
        sys.stdout.write(f"wrote {path}\n")
