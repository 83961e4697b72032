"""Test harness: spherical diagrams as combinatorial maps, with the
total-curvature check that acceptance criterion 7 runs.

A diagram stores faces as cyclic vertex lists plus a half-edge pairing;
half-edge (f, i) runs from faces[f][i] to faces[f][i+1 mod n].  Valid
diagrams satisfy V - E + F = 2 with E = corners / 2, all vertex degrees
and region sizes >= 2.

Diagrams are generated from the tetrahedron by face splitting and edge
subdivision, both of which preserve sphericity, so the total-curvature
theorem (sum of region curvatures = 4*pi) can be property-tested without
any planarity testing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from starweight.curvature import CurvatureExpr, region_curvature

FOUR_PI = CurvatureExpr(Fraction(4))  # the total curvature of every spherical diagram


def vertex_curvature(region_sizes: Sequence[int], boundary: bool = False) -> CurvatureExpr:
    """2*pi minus the corner angles (n-2)*pi/n of the incident regions; the
    boundary flag adds one symbolic corner (k0-2)*pi/k0."""
    if not region_sizes and not boundary:
        raise ValueError("vertex needs at least one corner")
    for n in region_sizes:
        if n < 2:
            raise ValueError(f"region size {n} < 2")
    a = Fraction(2) - sum((Fraction(n - 2, n) for n in region_sizes), Fraction(0))
    b = Fraction(0)
    if boundary:
        a -= 1  # (k0-2)*pi/k0 = pi - 2*pi/k0
        b += 2
    return CurvatureExpr(a, b)


class DiagramError(ValueError):
    pass


class SphericalDiagram:
    def __init__(self, faces: list[list[int]], pairing: dict):
        self.faces = [list(f) for f in faces]
        self.pairing = dict(pairing)

    # -- basic counts -------------------------------------------------

    @property
    def vertex_ids(self) -> list[int]:
        return sorted({v for f in self.faces for v in f})

    def degree(self, v: int) -> int:
        return sum(f.count(v) for f in self.faces)

    @property
    def corner_count(self) -> int:
        return sum(len(f) for f in self.faces)

    @property
    def V(self) -> int:
        return len(self.vertex_ids)

    @property
    def E(self) -> int:
        return self.corner_count // 2

    @property
    def F(self) -> int:
        return len(self.faces)

    def half_edge_ends(self, he) -> tuple[int, int]:
        f, i = he
        face = self.faces[f]
        return face[i], face[(i + 1) % len(face)]

    def validate(self):
        if self.corner_count % 2:
            raise DiagramError("odd number of half-edges")
        for he, mate in self.pairing.items():
            if self.pairing.get(mate) != he or mate == he:
                raise DiagramError(f"pairing not an involution at {he}")
            u, v = self.half_edge_ends(he)
            mu, mv = self.half_edge_ends(mate)
            if (u, v) != (mv, mu):
                raise DiagramError(f"pairing direction mismatch at {he}")
        all_hes = {(f, i) for f, face in enumerate(self.faces) for i in range(len(face))}
        if set(self.pairing) != all_hes:
            raise DiagramError("pairing does not cover all half-edges")
        if self.V - self.E + self.F != 2:
            raise DiagramError(f"Euler check failed: V={self.V} E={self.E} F={self.F}")
        for f in self.faces:
            if len(f) < 2:
                raise DiagramError("region of size < 2")
        for v in self.vertex_ids:
            if self.degree(v) < 2:
                raise DiagramError(f"vertex {v} of degree < 2")

    # -- growth operations ---------------------------------------------

    def split_face(self, f: int, i: int, j: int):
        """Insert a new edge between corners i < j of face f."""
        face = self.faces[f]
        n = len(face)
        if not (0 <= i < j < n):
            raise DiagramError("split needs corner positions i < j")
        a_face = face[i : j + 1]  # closed by new half-edge face[j] -> face[i]
        b_face = face[j:] + face[: i + 1]  # closed by new half-edge face[i] -> face[j]
        new_a = len(self.faces)  # replaces f
        moves = {}
        for k in range(i, j):
            moves[(f, k)] = (f, k - i)
        for k in range(j, n):
            moves[(f, k)] = (new_a, k - j)
        for k in range(0, i):
            moves[(f, k)] = (new_a, n - j + k)
        self.faces[f] = a_face
        self.faces.append(b_face)
        self.pairing = {
            moves.get(he, he): moves.get(mate, mate) for he, mate in self.pairing.items()
        }
        he_a = (f, len(a_face) - 1)
        he_b = (new_a, len(b_face) - 1)
        self.pairing[he_a] = he_b
        self.pairing[he_b] = he_a

    def subdivide_edge(self, f: int, i: int):
        """Place a new degree-2 vertex on the edge carrying half-edge (f, i)."""
        f2, i2 = self.pairing[(f, i)]
        w = max(self.vertex_ids) + 1
        per_face: dict[int, list[int]] = {}
        per_face.setdefault(f, []).append(i)
        per_face.setdefault(f2, []).append(i2)
        moves = {}
        for ff, ps in per_face.items():
            for k in range(len(self.faces[ff])):
                moves[(ff, k)] = (ff, k + sum(1 for p in ps if k > p))
        for ff, ps in per_face.items():
            for p in sorted(ps, reverse=True):
                self.faces[ff].insert(p + 1, w)
        self.pairing = {
            moves.get(he, he): moves.get(mate, mate) for he, mate in self.pairing.items()
        }
        a, b = moves[(f, i)], moves[(f2, i2)]
        a2 = (a[0], a[1] + 1)
        b2 = (b[0], b[1] + 1)
        self.pairing[a] = b2
        self.pairing[b2] = a
        self.pairing[a2] = b
        self.pairing[b] = a2


def tetrahedron() -> SphericalDiagram:
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [3, 2, 1]]
    directed = {}
    for f, face in enumerate(faces):
        for i in range(len(face)):
            directed[(face[i], face[(i + 1) % len(face)])] = (f, i)
    pairing = {}
    for (u, v), he in directed.items():
        pairing[he] = directed[(v, u)]
    d = SphericalDiagram(faces, pairing)
    d.validate()
    return d


def grow_random(rng: random.Random, n_ops: int, max_regions: int = 12) -> SphericalDiagram:
    d = tetrahedron()
    for _ in range(n_ops):
        if len(d.faces) < max_regions and rng.random() < 0.6:
            f = rng.randrange(len(d.faces))
            n = len(d.faces[f])
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            d.split_face(f, i, j)
        else:
            f = rng.randrange(len(d.faces))
            i = rng.randrange(len(d.faces[f]))
            d.subdivide_edge(f, i)
    d.validate()
    return d


# -- total curvature ----------------------------------------------------


def total_curvature(d: SphericalDiagram, scheme: str = "vertex-angles") -> CurvatureExpr:
    """Sum of curvatures: over regions for the 2*pi/d vertex-angle scheme,
    over vertices for the (n-2)*pi/n corner-angle scheme; 4*pi either way."""
    d.validate()
    total = CurvatureExpr()
    if scheme == "vertex-angles":
        for face in d.faces:
            degrees = [d.degree(v) for v in face if d.degree(v) > 2]
            total = total + region_curvature(degrees)
    elif scheme == "corner-angles":
        sizes = {v: [] for v in d.vertex_ids}
        for face in d.faces:
            for v in face:
                sizes[v].append(len(face))
        for v in d.vertex_ids:
            total = total + vertex_curvature(sizes[v])
    else:
        raise DiagramError(f"unknown angle scheme {scheme!r}")
    return total
