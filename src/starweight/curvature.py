"""Exact curvature calculus for diagram regions.

Values are a*pi + b*(pi/k0) with exact rational a, b and k0 a symbolic
boundary degree ranging over integers >= 3; pi is never evaluated.

Region curvature with vertex angles 2*pi/d: a region whose vertices of
degree > 2 have degrees d1..dk has curvature

    c(d1,...,dk) = (2 - k)*pi + 2*pi * sum(1/di).

Vertex curvature under corner angles (n-2)*pi/n, which only the
spherical-diagram tests use, lives with their harness in
tests/spherical_diagrams.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class CurvatureExpr:
    a: Fraction = Fraction(0)  # coefficient of pi
    b: Fraction = Fraction(0)  # coefficient of pi/k0

    def __add__(self, other: "CurvatureExpr") -> "CurvatureExpr":
        return CurvatureExpr(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CurvatureExpr") -> "CurvatureExpr":
        return CurvatureExpr(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "CurvatureExpr":
        return CurvatureExpr(-self.a, -self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(_fmt_pi(self.a, "pi"))
        if self.b:
            term = _fmt_pi(abs(self.b), "pi/k0")
            if parts:
                parts.append("- " + term if self.b < 0 else "+ " + term)
            else:
                parts.append(term if self.b > 0 else "-" + term)
        return " ".join(parts) if parts else "0"


def _fmt_pi(q: Fraction, unit: str) -> str:
    n, d = q.numerator, q.denominator
    if unit == "pi/k0":
        # fold the denominator into the k0 slot: (n/d)*pi/k0
        core = "pi/k0" if d == 1 else f"pi/({d}*k0)"
        if n == 1:
            return core
        if n == -1:
            return "-" + core
        return f"{n}*{core}"
    if d == 1:
        if n == 1:
            return "pi"
        if n == -1:
            return "-pi"
        return f"{n}*pi"
    if n == 1:
        return f"pi/{d}"
    if n == -1:
        return f"-pi/{d}"
    return f"{n}*pi/{d}"


def region_curvature(degrees: Sequence[int], boundary: bool = False) -> CurvatureExpr:
    """Curvature of a region from its (>2) vertex degrees; the boundary flag
    adds one symbolic k0 slot."""
    for d in degrees:
        if d < 3:
            raise ValueError(f"vertex degree {d} < 3: degree-2 vertices are excluded")
    k = len(degrees) + (1 if boundary else 0)
    a = Fraction(2 - k) + 2 * sum((Fraction(1, d) for d in degrees), Fraction(0))
    b = Fraction(2) if boundary else Fraction(0)
    return CurvatureExpr(a, b)
