"""Star graph of a relative presentation.

Each relator, read cyclically with indeterminate powers expanded to single
letters, decomposes into corners (x^e, g, y^d): an incoming indeterminate
letter, the coefficient word g between it and the next indeterminate letter,
and that outgoing letter.  The corner contributes one edge from vertex x^e
to vertex y^-d labelled g.  Vertices are the signed indeterminate letters.

Edge ids are "<relator-index>.<corner-index>" with corner 0 the corner
following the first indeterminate letter of the stored relator rotation.
An alias "label:<compact-label>#<k>" (or without "#<k>" when unambiguous)
addresses edges by label; where edges with different labels share the
compact string (``a b`` and ``ab`` both read ``ab``) it is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

from .scenario import INDETERMINATE, RelativePresentation
from .words import Codes, Word, decode, encode, inverse, least_rotation_start

Vertex = tuple[str, int]  # (indeterminate name, +1 or -1)


def vertex_name(v: Vertex) -> str:
    return v[0] if v[1] > 0 else f"{v[0]}^-1"


@dataclass(frozen=True)
class Edge:
    edge_id: str
    relator: int
    corner: int
    src: Vertex
    dst: Vertex
    label: Word
    codes: tuple[Codes, Codes]  # the label's codes and its inverse's, read by direction
    factor: str  # factor name, or "identity-any" for unresolvable identity labels
    ambiguous: bool = False  # another edge's different label reads the same compact string

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst

    def label_str(self) -> str:
        return self.label_key[0]

    @cached_property
    def shown(self) -> str:
        """The label as cycle listings print it: the compact string, or the
        letters apart in parentheses where that string is ambiguous."""
        return f"({self.label})" if self.ambiguous else self.label_key[0]

    @cached_property
    def printed(self) -> tuple[str, str]:
        """How a forward and a backward traversal of the edge print, built
        once per edge: ``shown`` and ``shown^-1``."""
        return self.shown, f"{self.shown}^-1"

    @cached_property
    def label_key(self) -> tuple[str, tuple]:
        """The compact label string, so that keys order as those strings
        do, then the label's letters: the string alone is not injective
        (labels ``a b`` and ``ab`` both read ``ab``)."""
        return (self.label.compact(), self.label.letters)

    @cached_property
    def atoms(self) -> tuple[tuple[tuple[str, tuple], int], tuple[tuple[str, tuple], int]]:
        """The forward and the backward atom, built once per edge so that
        atom keys share them."""
        return (self.label_key, 1), (self.label_key, -1)

    @cached_property
    def id_atoms(self) -> tuple[tuple[str, int], tuple[str, int]]:
        """The forward and the backward (edge id, direction) pair, built once
        per edge."""
        return (self.edge_id, 1), (self.edge_id, -1)


class Traversal(NamedTuple):
    edge: Edge
    direction: int  # +1 src->dst reading label, -1 dst->src reading label^-1

    @property
    def start(self) -> Vertex:
        return self.edge.src if self.direction > 0 else self.edge.dst

    @property
    def end(self) -> Vertex:
        return self.edge.dst if self.direction > 0 else self.edge.src

    def atom(self) -> tuple[tuple[str, tuple], int]:
        """(label key, direction): atoms key the dedup of families and
        cycles, so they tell apart labels whose compact strings agree."""
        return self.edge.atoms[self.direction < 0]

    def reverse(self) -> "Traversal":
        return Traversal(self.edge, -self.direction)


class GraphError(ValueError):
    pass


class StarGraph:
    def __init__(self, presentation: RelativePresentation, edges: list[Edge]):
        self.presentation = presentation
        self.edges = edges
        self.by_id = {e.edge_id: e for e in edges}
        self.vertices = sorted(
            {v for e in edges for v in (e.src, e.dst)}, key=lambda v: (v[0], -v[1])
        )
        self._alias: dict[str, list[str]] = {}
        adjacent: dict[Vertex, list[Traversal]] = {v: [] for v in self.vertices}
        for e in edges:
            self._alias.setdefault(e.label_str(), []).append(e.edge_id)
            adjacent[e.src].append(Traversal(e, +1))
            adjacent[e.dst].append(Traversal(e, -1))
        self._incident = {v: tuple(ts) for v, ts in adjacent.items()}

    def incident(self, v: Vertex) -> tuple[Traversal, ...]:
        """Outgoing traversals at v, in deterministic edge order; built once,
        a tuple so that no caller can change it."""
        return self._incident.get(v, ())

    def resolve(self, key: str) -> Edge:
        """Resolve an edge id or label alias to an edge.  An alias whose
        edges carry different labels reading the same compact string
        (``Edge.ambiguous``) names no edge, with or without ``#k``."""
        if key in self.by_id:
            return self.by_id[key]
        name = key[len("label:") :] if key.startswith("label:") else key
        label, sep, idx = name.partition("#")
        ids = self._alias.get(label, [])
        if ids and self.by_id[ids[0]].ambiguous:
            raise GraphError(f"ambiguous edge alias {key!r}: edges {ids} carry different labels")
        if sep:
            # an index is digits 0-9 only: int() would also read "-1", "+1" and "1_0"
            try:
                if idx.isascii() and idx.isdigit():
                    return self.by_id[ids[int(idx)]]
            except (IndexError, ValueError):
                pass
            raise GraphError(f"no edge {key!r}")
        if len(ids) == 1:
            return self.by_id[ids[0]]
        if not ids:
            raise GraphError(f"no edge {key!r}")
        raise GraphError(f"ambiguous edge alias {key!r}: candidates {ids}")


def build_star_graph(p: RelativePresentation) -> StarGraph:
    """Construct the star graph; relators must contain indeterminate letters."""
    edges: list[Edge] = []
    order = p.symbol_order
    for ri, rel in enumerate(p.relators):
        expanded = encode(rel, p.code)
        positions = [i for i, c in enumerate(expanded) if p.factor_of[order[c >> 1]] == INDETERMINATE]
        if not positions:
            raise GraphError(f"relator {ri} has no corners (no indeterminate letters)")
        corners = []
        for ci in range(len(positions)):
            i = positions[ci]
            j = positions[(ci + 1) % len(positions)]
            if j > i:
                coeff = expanded[i + 1 : j]
            else:
                coeff = expanded[i + 1 :] + expanded[:j]
            corners.append((expanded[i], coeff, expanded[j]))
        labels = [decode(c[1], order) for c in corners]
        for ci, (inc, coeff, out) in enumerate(corners):
            # a vertex is a signed indeterminate: the incoming letter, the outgoing one inverted
            src: Vertex = (order[inc >> 1], 1 - 2 * (inc & 1))
            dst: Vertex = (order[out >> 1], 2 * (out & 1) - 1)
            factor = _coefficient_factor(p, labels[ci])
            if factor is None:
                factor = _adjacent_factor(p, labels, ci)
            edges.append(
                Edge(f"{ri}.{ci}", ri, ci, src, dst, labels[ci], (coeff, inverse(coeff)), factor)
            )
    readings: dict[str, set[Word]] = {}
    for e in edges:
        readings.setdefault(e.label_str(), set()).add(e.label)
    edges = [replace(e, ambiguous=True) if len(readings[e.label_str()]) > 1 else e for e in edges]
    return StarGraph(p, edges)


def _coefficient_factor(p: RelativePresentation, w: Word) -> str | None:
    fs = {p.factor_of[n] for n in w.names()}
    if not fs:
        return None
    if len(fs) == 1:
        return next(iter(fs))
    return "mixed"


def _adjacent_factor(p: RelativePresentation, labels: list[Word], ci: int) -> str:
    """Factor of an identity label: the factor of the nearest nonempty
    labels on both sides when they agree, else identity-any."""
    n = len(labels)
    found = set()
    for step in (1, -1):
        for d in range(1, n):
            lab = labels[(ci + step * d) % n]
            f = _coefficient_factor(p, lab)
            if f is not None:
                found.add(f)
                break
    if len(found) == 1 and "mixed" not in found:
        return next(iter(found))
    return "identity-any"


def path_label(traversals: Iterable[Traversal]) -> Codes:
    """The path's label as codes; each edge label is reduced, so only the
    junctions cancel."""
    out: list[int] = []
    for t in traversals:
        label = t.edge.codes[t.direction < 0]
        j = 0
        while out and j < len(label) and out[-1] == label[j] ^ 1:
            out.pop()
            j += 1
        out += label[j:]
    return tuple(out)


def path_atoms(traversals: Iterable[Traversal]) -> tuple[tuple[tuple[str, tuple], int], ...]:
    return tuple(t.atom() for t in traversals)


def canonical_atom_cycle(traversals: Iterable[Traversal]) -> tuple:
    """Canonical form of the atom sequence under rotation and inversion;
    positive orientations sort before inverted ones.

    The search runs on each atom with its direction negated, (label key,
    -direction): these order as the atoms do with forward first, and invert
    as atoms do, so both orientations are lists of the edges' cached atoms
    and no key is built.  Reversed, the negated atoms of one orientation
    are the atoms of the other."""
    ts = tuple(traversals)
    if not ts:
        return ()
    order = [t.edge.atoms[t.direction > 0] for t in ts]
    inverse_order = [t.edge.atoms[t.direction < 0] for t in reversed(ts)]
    which, start = least_rotation_start((order, inverse_order))
    atoms = (inverse_order if which == 0 else order)[::-1]
    return tuple(atoms[start:] + atoms[:start])


def export_dot(g: StarGraph) -> str:
    """DOT digraph with stable ordering; labels and edge ids as attributes."""
    lines = ["digraph stargraph {"]
    for v in g.vertices:
        lines.append(f'  "{vertex_name(v)}";')
    for e in g.edges:
        lines.append(
            f'  "{vertex_name(e.src)}" -> "{vertex_name(e.dst)}"'
            f' [label="{e.label_str()}", id="{e.edge_id}", factor="{e.factor}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
