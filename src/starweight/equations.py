"""Solvability classifier for equations over torsion-free groups.

An equation word is w = a1 t^m(1) ... ak t^m(k) with nontrivial opaque
coefficients ai and nonzero exponents m(i), read cyclically.  The decision
chain for "w(t)=1 has a solution in an overgroup":

* k <= 4: solvable outright.
* singular (exponent sum 0) with syllable length 2k <= 18: solvable; the
  trace verifies that the partial sums then attain their extremes at most
  four times, which is the reduction actually used (``classify`` says why
  this always holds).
* singular with both attainment counts <= 4: solvable for any length.
* anything else: unknown (out of the guaranteed range).

The k = 4 pair pattern m(s1) = m(s2) > m(s3) = m(s4) is recorded as an
auxiliary flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import parse_int


class EquationError(ValueError):
    pass


@dataclass(frozen=True)
class EquationWord:
    coefficients: tuple[str, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.exponents) or not self.coefficients:
            raise EquationError("need k >= 1 coefficients with matching exponents")
        if any(m == 0 for m in self.exponents):
            raise EquationError("exponents must be nonzero")

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def exponent_sum(self) -> int:
        return sum(self.exponents)

    @property
    def syllable_length(self) -> int:
        return 2 * self.k

    def __str__(self) -> str:
        parts = []
        for a, m in zip(self.coefficients, self.exponents):
            parts.append(a)
            parts.append("t" if m == 1 else f"t^{m}")
        return " ".join(parts)


def partial_sums(m: list[int]) -> list[int]:
    if any(x == 0 for x in m):
        raise EquationError("exponents must be nonzero")
    out = []
    run = 0
    for x in m:
        run += x
        out.append(run)
    return out


def attainment_counts(m: list[int]) -> tuple[int, int, int, int]:
    """(max, #attained, min, #attained) of the partial sums over j = 1..k."""
    sums = partial_sums(m)
    mx, mn = max(sums), min(sums)
    return mx, sums.count(mx), mn, sums.count(mn)


def shift_rewrite(w: EquationWord) -> list[tuple[str, int]]:
    """Rewrite a singular word as letters (ai, level) in the free product of
    the conjugates A_n = t^n A t^-n; level i = sum of m(1..i-1)."""
    if w.exponent_sum != 0:
        raise EquationError("nonzero exponent sum")
    levels = []
    run = 0
    for a, m in zip(w.coefficients, w.exponents):
        levels.append((a, run))
        run += m
    return levels


@dataclass
class ClassificationReport:
    word: EquationWord
    exponent_sum: int
    sums: list[int]
    max_value: int | None
    max_count: int | None
    min_value: int | None
    min_count: int | None
    syllable_length: int
    pair_pattern: bool | None
    verdict: str  # Cor1 | Cor2 | Cor3 | Unknown
    trace: list[str] = field(default_factory=list)

    @property
    def solvable(self) -> bool:
        return self.verdict != "Unknown"


def pair_pattern(m: list[int]) -> bool:
    """Two equal larger exponents strictly above two equal smaller ones."""
    if len(m) != 4:
        raise EquationError("pair pattern needs k = 4")
    s = sorted(m)
    return s[0] == s[1] and s[2] == s[3] and s[1] < s[2]


def decide_verdict(m) -> str:
    """Verdict for an exponent vector without report construction; single
    source of the decision chain used by classify."""
    if not m or 0 in m:
        raise EquationError("need k >= 1 nonzero exponents")
    k = len(m)
    if k <= 4:
        return "Cor1"
    if sum(m) != 0:
        return "Unknown"
    if 2 * k <= 18:
        return "Cor3"
    _, mxc, _, mnc = attainment_counts(m)
    if mxc <= 4 and mnc <= 4:
        return "Cor2"
    return "Unknown"


def classify(w: EquationWord) -> ClassificationReport:
    """Classification report, with its trace, for one equation word.

    The Cor3 branch asserts that each extreme of the partial sums is
    attained at most four times.  That holds for every singular word with
    k <= 9, whatever its exponents.  The partial sums s_1..s_k sit on a
    cycle of length k, since s_k = 0 = s_0, and neighbours on that cycle
    differ, since every exponent is nonzero.  So the positions that attain
    the maximum are pairwise non-adjacent on the cycle, and there are at
    most floor(k/2) <= 4 of them.  The same holds for the minimum.
    """
    m = list(w.exponents)
    sums = partial_sums(m)
    singular = sum(m) == 0
    mx, mxc, mn, mnc = attainment_counts(m)
    pp = pair_pattern(m) if w.k == 4 else None
    trace = [
        f"k = {w.k}, syllable length {w.syllable_length}",
        f"exponent sum = {sum(m)} ({'singular' if singular else 'non-singular'})",
        f"partial sums (j=1..k) = {sums}",
        f"max {mx} attained {mxc}x, min {mn} attained {mnc}x",
        "levels (prefix sums before each letter) = "
        + str([lvl for _, lvl in shift_rewrite(w)] if singular else "n/a"),
    ]
    if pp is not None:
        trace.append(f"k=4 pair pattern {'holds' if pp else 'fails'}")
    verdict = decide_verdict(m)
    if verdict == "Cor1":
        trace.append("k <= 4: solvable for any exponents")
    elif verdict == "Cor3":
        trace.append("singular with syllable length <= 18: solvable")
        assert mxc <= 4 and mnc <= 4, "length reduction must bound the attainment counts"
        trace.append(
            f"reduction check: extremes attained {mxc}x/{mnc}x <= 4, as the"
            " shift rewriting uses at most 4 letters at each extreme level"
        )
    elif verdict == "Cor2":
        trace.append("singular with both attainment counts <= 4: solvable")
    else:
        if singular:
            trace.append("attainment counts exceed 4 and length > 18: out of range")
        else:
            trace.append("non-singular with k > 4: out of range")
    return ClassificationReport(
        w, sum(m), sums, mx, mxc, mn, mnc, w.syllable_length, pp, verdict, trace
    )


def parse_equation(tokens: list[str]) -> EquationWord:
    """Inline syntax: alternating coefficient and t-power tokens, e.g.
    'a1 t^2 a2 t^-1 a3 t^-1'."""
    coeffs: list[str] = []
    exps: list[int] = []
    expect_coeff = True
    for tok in tokens:
        is_t = tok == "t" or tok.startswith("t^")
        if expect_coeff:
            if is_t:
                raise EquationError(f"expected coefficient, got {tok!r}")
            coeffs.append(tok)
        else:
            if not is_t:
                raise EquationError(f"expected t power, got {tok!r}")
            try:
                exps.append(1 if tok == "t" else parse_int(tok[2:]))
            except ValueError:
                raise EquationError(f"bad t power {tok!r}") from None
        expect_coeff = not expect_coeff
    if not expect_coeff:
        raise EquationError("dangling coefficient without t power")
    return EquationWord(tuple(coeffs), tuple(exps))
