"""Inputs of the three benchmark workloads and the answers they are checked against.

The expected answers never come from the program under test: corpus
verdicts come from ``manifest.txt`` and its reports from the golden files,
grid answers from the hand-derived ``expected/grid.json``, and search
answers from the paper's own weights and a hand-derived infeasibility.

A workload seed only shuffles the input order (and, for ``grid``, renames
the coefficient generators); it never changes an input's size.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "src" / "starweight" / "corpus"

WORKLOADS = ("corpus", "grid", "search")

# Criterion-6 scenarios plus the three largest searches that finish in
# seconds at the seed commit; slower searches are listed in design.json.
SEARCH_CORPUS = (
    "px8_w", "px10_w", "px13_w", "px16_w", "px18_w", "px22_w", "px24_w",
    "px1_w1", "px4_w1", "px4_w0",
)

# w0 + w1 + w2 <= 1 from the relator, yet every cut a_i a_j^-1 needs
# w_i + w_j >= 2 because no fact refutes a_i = a_j: infeasible by hand.
INFEASIBLE_TEXT = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3
indet: t
relator: a1 t a2 t a3 t
fact: neq a1 1
fact: neq a2 1
fact: neq a3 1
"""

GRID_PREFIXES = "abcdefgh"  # never the indeterminate t


@dataclass(frozen=True)
class Input:
    name: str
    kind: str  # "build" | "verify" | "grid" | "search"
    text: str  # scenario text handed to parse_scenario
    expect: dict = field(default_factory=dict)


def _strip_weights(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("weight:")) + "\n"


def manifest() -> list[tuple[str, str]]:
    """(scenario stem, expected verdict) for every manifest entry."""
    rows = []
    for raw in (CORPUS / "manifest.txt").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            fname, expected, _ = line.split(None, 2)
            rows.append((Path(fname).stem, expected))
    return rows


def corpus_inputs(rng: random.Random) -> list[Input]:
    items = []
    for stem, expected in manifest():
        text = (CORPUS / f"{stem}.scn").read_text(encoding="utf-8")
        kind = "build" if expected == "build" else "verify"
        items.append(Input(stem, kind, text, {"verdict": expected}))
    rng.shuffle(items)
    return items


def grid_text(k: int, q: int, gens: list[str]) -> str:
    """Relator g1 t ... gk t, facts gi != 1 and gi != gj, weight 1/q on every corner."""
    lines = [
        "factor A noncyclic nontrivial",
        "gens A: " + " ".join(gens),
        "indet: t",
        "relator: " + " ".join(f"{g} t" for g in gens),
    ]
    lines += [f"fact: neq {g} 1" for g in gens]
    lines += [f"fact: neq {gens[i]} {gens[j]}" for i in range(k) for j in range(i + 1, k)]
    lines += [f"weight: 0.{c} = 1/{q}" for c in range(k)]
    return "\n".join(lines) + "\n"


def grid_expected() -> dict:
    return json.loads((BENCH / "expected" / "grid.json").read_text(encoding="utf-8"))


def grid_inputs(rng: random.Random) -> list[Input]:
    spec = grid_expected()
    items = []
    for cell in spec["cells"]:
        k, q = cell["k"], cell["q"]
        prefix = rng.choice(GRID_PREFIXES)
        gens = [f"{prefix}{i}" for i in rng.sample(range(1, k + 1), k)]
        expect = {
            "verdict": spec["verdict"],
            "families": cell["families"],
            "survivors": cell["survivors"],
        }
        items.append(Input(f"grid_k{k}_q{q}", "grid", grid_text(k, q, gens), expect))
    rng.shuffle(items)
    return items


def search_inputs(rng: random.Random) -> list[Input]:
    items = []
    for stem in SEARCH_CORPUS:
        text = (CORPUS / f"{stem}.scn").read_text(encoding="utf-8")
        items.append(Input(stem, "search", _strip_weights(text), {"status": "found", "paper": text}))
    items.append(
        Input(
            "infeasible_k3",
            "search",
            INFEASIBLE_TEXT,
            {"status": "infeasible", "certificate_has": "relator 0 condition"},
        )
    )
    rng.shuffle(items)
    return items


def inputs(workload: str, seed: int) -> list[Input]:
    rng = random.Random(seed)
    return {"corpus": corpus_inputs, "grid": grid_inputs, "search": search_inputs}[workload](rng)


# -- checks ----------------------------------------------------------------


def _satisfied(constraint, values: dict[str, Fraction]) -> bool:
    total = sum((c * values.get(v, Fraction(0)) for v, c in constraint.coeffs), Fraction(0))
    if constraint.sense == "<=":
        return total <= constraint.rhs
    if constraint.sense == ">=":
        return total >= constraint.rhs
    raise ValueError(f"unknown constraint sense {constraint.sense!r}")


def check(item: Input, outcome, sw) -> str:
    """Empty string when ``outcome`` is right for ``item``, else the reason.

    ``sw`` is a namespace holding the program's public functions, used only
    to re-verify a found weight function outside the timed region.
    """
    e = item.expect
    if item.kind == "build":
        return "" if e["verdict"] == "build" else f"expected {e['verdict']}, input is build-only"
    if item.kind == "verify":
        report, text = outcome
        got = "aspherical" if report.verdict == "Aspherical" else "violations"
        if got != e["verdict"]:
            return f"verdict {got}, manifest says {e['verdict']}"
        golden = (CORPUS / "golden" / f"{item.name}.txt").read_text(encoding="utf-8")
        return "" if text == golden else "report differs from golden file"
    if item.kind == "grid":
        got = (outcome.verdict, len(outcome.families), len(outcome.violations), len(outcome.notes))
        want = (e["verdict"], e["families"], e["survivors"], 0)
        return "" if got == want else f"(verdict, families, survivors, notes) = {got}, expected {want}"
    if item.kind == "search":
        if outcome.status != e["status"]:
            return f"status {outcome.status}, expected {e['status']}"
        if outcome.status == "infeasible":
            if e["certificate_has"] not in outcome.certificate:
                return f"certificate {outcome.certificate} lacks {e['certificate_has']!r}"
            return ""
        bare = sw.parse_scenario(item.text, name=item.name)
        again = sw.verify_weight_test(sw.scenario_with_weights(bare, outcome.weights))
        if again.verdict != "Aspherical":
            return f"found weights re-verify as {again.verdict}"
        paper = sw.parse_scenario(e["paper"], name=item.name)
        g = sw.build_star_graph(paper.presentation)
        values = {g.resolve(k).edge_id: Fraction(v) for k, v in paper.weights}
        bad = [c.label for c in outcome.constraints if not _satisfied(c, values)]
        return f"paper weights violate {bad[:3]}" if bad else ""
    raise ValueError(f"unknown input kind {item.kind!r}")
