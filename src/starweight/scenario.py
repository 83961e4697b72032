"""Relative presentations and the line-oriented scenario file format.

A scenario file declares factors with flags, per-factor generators,
indeterminates, relators, hypothesis facts, and (optionally) a weight
assignment keyed by star-graph edge id or label alias::

    factor A noncyclic nontrivial
    gens A: a1 a2 a3 a4
    indet: t
    relator: a1 t a2 t a3 t a4 t
    fact: neq a1 a2
    fact: eq a1 a2 a3 a4 = 1
    fact: notincyclic a1 a3
    weight: label:a1 = 1/2

'#' starts a comment.  Coefficients equal to 1 between adjacent
indeterminate letters are implicit; do not write them in relators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .words import Word, cyclically_reduce, decode, encode, word_from_tokens

INDETERMINATE = "@indet"


class ScenarioError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


@dataclass(frozen=True)
class Factor:
    name: str
    noncyclic: bool = False
    nontrivial: bool = False
    # torsion-free is unconditional for every factor


@dataclass(frozen=True)
class FactDecl:
    """Parsed fact line; interpreted by the hypotheses module."""

    kind: str  # eq | neq | notincyclic
    lhs: Word
    rhs: Word
    comment: str = ""


@dataclass
class RelativePresentation:
    factors: list[Factor]
    generators: dict[str, list[str]]  # factor name -> generator names
    indeterminates: list[str]
    relators: list[Word] = field(default_factory=list)

    def __post_init__(self):
        seen: dict[str, str] = {}
        for f in self.factors:
            for g in self.generators.get(f.name, []):
                if g in seen:
                    raise ScenarioError(f"duplicate symbol {g!r}")
                seen[g] = f.name
        for x in self.indeterminates:
            if x in seen:
                raise ScenarioError(f"duplicate symbol {x!r}")
            seen[x] = INDETERMINATE
        self.factor_of = seen
        self.symbol_order = [g for f in self.factors for g in self.generators.get(f.name, [])]
        self.symbol_order += list(self.indeterminates)
        self.code = {name: 2 * i for i, name in enumerate(self.symbol_order)}  # words.encode
        stored = []
        for r in self.relators:
            for name in r.names():
                if name not in seen:
                    raise ScenarioError(f"undeclared symbol {name!r} in relator")
            stored.append(decode(cyclically_reduce(encode(r, self.code)), self.symbol_order))
        self.relators = stored


@dataclass
class Scenario:
    presentation: RelativePresentation
    fact_decls: list[FactDecl] = field(default_factory=list)
    weights: list[tuple[str, Fraction]] = field(default_factory=list)
    name: str = ""


def _split_comment(raw: str) -> tuple[str, str]:
    """'#' starts a comment at line start or after whitespace; a '#' glued to
    a token (edge aliases like label:a3#0) is content."""
    for i, c in enumerate(raw):
        if c == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i], raw[i + 1 :]
    return raw, ""


def parse_rational(text: str, line: int | None = None) -> Fraction:
    """A rational as ``Fraction`` reads it, from ASCII text without "_":
    ``Fraction`` reads "1/2_0" as 1/20 from Python 3.11 on and rejects it on
    3.10, and it reads digits of other scripts."""
    try:
        if "_" not in text and text.isascii():
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ScenarioError(f"bad rational {text!r}", line)


def _split_fact_args(tokens: list[str], line: int) -> tuple[list[str], list[str]]:
    if "=" in tokens:
        i = tokens.index("=")
        lhs, rhs = tokens[:i], tokens[i + 1 :]
        if not lhs or not rhs or "=" in rhs:
            raise ScenarioError("malformed fact sides", line)
        return lhs, rhs
    if len(tokens) == 2:
        return [tokens[0]], [tokens[1]]
    raise ScenarioError("fact needs two words ('w1 w2' or 'w1 = w2')", line)


def parse_scenario(text: str, name: str = "") -> Scenario:
    factors: list[Factor] = []
    generators: dict[str, list[str]] = {}
    indets: list[str] = []
    relator_tokens: list[tuple[list[str], int]] = []
    fact_decls: list[FactDecl] = []
    fact_lines: list[int] = []  # the line of each fact, for the symbol check after the loop
    weights: list[tuple[str, Fraction]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, comment = _split_comment(raw)
        line = line.strip()
        comment = comment.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        word = head.partition(":")[0]
        directive, colon, body = line.partition(":")
        if head == "factor":
            toks = rest.split()
            if not toks:
                raise ScenarioError("factor needs a name", lineno)
            fname, flags = toks[0], toks[1:]
            if any(f.name == fname for f in factors):
                raise ScenarioError(f"duplicate factor {fname!r}", lineno)
            bad = [f for f in flags if f not in ("noncyclic", "nontrivial")]
            if bad:
                raise ScenarioError(f"unknown factor flag {bad[0]!r}", lineno)
            factors.append(Factor(fname, "noncyclic" in flags, "nontrivial" in flags))
        elif head == "gens":
            fname, sep, names = rest.partition(":")
            fname = fname.strip()
            if not sep or not any(f.name == fname for f in factors):
                raise ScenarioError(f"gens for unknown factor {fname!r}", lineno)
            if fname in generators:
                raise ScenarioError(f"duplicate gens line for {fname!r}", lineno)
            generators[fname] = names.split()
        elif word not in ("indet", "relator", "fact", "weight"):
            raise ScenarioError(f"unknown directive {head!r}", lineno)
        elif not colon or directive.strip() != word:
            raise ScenarioError(f"{word} line needs '{word}:'", lineno)
        elif word == "indet":
            indets.extend(body.split())
        elif word == "relator":
            relator_tokens.append((body.split(), lineno))
        elif word == "fact":
            toks = body.split()
            if not toks:
                raise ScenarioError("empty fact", lineno)
            kind, args = toks[0], toks[1:]
            if kind not in ("eq", "neq", "notincyclic"):
                raise ScenarioError(f"unknown fact kind {kind!r}", lineno)
            lhs_t, rhs_t = _split_fact_args(args, lineno)
            try:
                lhs, rhs = word_from_tokens(lhs_t), word_from_tokens(rhs_t)
            except ValueError as e:
                raise ScenarioError(str(e), lineno)
            fact_decls.append(FactDecl(kind, lhs, rhs, comment))
            fact_lines.append(lineno)
        else:  # weight
            key, sep, val = body.partition("=")
            if not sep:
                raise ScenarioError("weight line needs '<edge> = <rational>'", lineno)
            weights.append((key.strip(), parse_rational(val.strip(), lineno)))

    relators = []
    declared = {g for gs in generators.values() for g in gs} | set(indets)
    for toks, lineno in relator_tokens:
        try:
            w = word_from_tokens(toks)
        except ValueError as e:
            raise ScenarioError(str(e), lineno)
        for n in w.names():
            if n not in declared:
                raise ScenarioError(f"undeclared symbol {n!r}", lineno)
        relators.append(w)

    pres = RelativePresentation(factors, generators, indets, relators)
    for fd, lineno in zip(fact_decls, fact_lines):
        for n in fd.lhs.names() | fd.rhs.names():
            if n not in pres.factor_of:
                raise ScenarioError(f"undeclared symbol {n!r} in fact", lineno)
            if pres.factor_of[n] == INDETERMINATE:
                raise ScenarioError(f"indeterminate {n!r} not allowed in facts", lineno)
    return Scenario(pres, fact_decls, weights, name=name)


def print_scenario(s: Scenario) -> str:
    lines: list[str] = []
    p = s.presentation
    for f in p.factors:
        flags = ("", " noncyclic")[f.noncyclic] + ("", " nontrivial")[f.nontrivial]
        lines.append(f"factor {f.name}{flags}")
    for f in p.factors:
        gens = p.generators.get(f.name, [])
        if gens:
            lines.append(f"gens {f.name}: {' '.join(gens)}")
    if p.indeterminates:
        lines.append(f"indet: {' '.join(p.indeterminates)}")
    for r in p.relators:
        lines.append(f"relator: {r}")
    for fd in s.fact_decls:
        tail = f"  # {fd.comment}" if fd.comment else ""
        lines.append(f"fact: {fd.kind} {fd.lhs} = {fd.rhs}{tail}")
    for key, val in s.weights:
        lines.append(f"weight: {key} = {val}")
    return "\n".join(lines) + "\n"
