"""Weight functions on star graphs and the weight test.

A weight function assigns an exact rational in [0, 1] to every edge.  It
passes the weight test when every relator's corners c1..cn satisfy
sum(1 - w(ci)) >= 2 and every admissible closed path (nonempty, cyclically
reduced, label trivial in a factor) has weight >= 2.

One rooted depth-first walker, ``_closed_walks``, enumerates every closed
path used here, each rotation/inversion class once.  It
scales the weights and the threshold once by ``_weight_scale``, their least
common denominator, adds and compares ints and hands each path's int back,
from which a family's weight is built and by which families sort.  It
turns back only over an edge outside the zero subgraph, and only where a
zero pump can mend the turn, asking ``_ZeroSubgraph.fits``, the test the
family builder applies to every marked junction; so it drops the skeletons
that yield no family before walking their subtrees.  A turn over a zero
edge would yield only paths another base yields (proved below).

The family walk has no length cap: the weight bounds it.  Every step off
the zero subgraph adds at least 1 to the scaled weight, an int that stays
below ``limit``, the scaled threshold, so a path has fewer than ``limit``
such steps.  Every zero run is vertex-simple, so it has fewer than |V|
traversals, and it follows a step off the zero subgraph, as every path
starts with one.  So a path has fewer than ``limit`` * |V| traversals:
the walk is finite and cuts no light path.  ``FAMILY_WALK_BUDGET`` still
ends a walk too large to finish.

Each prefix is bounded by its way back, the admissible lower bound of A*
(Hart, Nilsson and Raphael, IEEE Trans. SSC 4(2), 1968).  ``_walk_tables``
computes once per graph ``dist[u][v]``, the least scaled weight of any walk
from u to v, a zero edge weighing 0.  A path rooted at ``home`` takes a
step to v only if the weight spent with that step plus ``dist[v][home]``
stays below ``limit``.  Every closed extension of the longer path runs from
v back to ``home`` along a walk of the graph, which weighs at least
``dist[v][home]``; so a prefix that fails the test has no closed extension
lighter than the threshold, and its subtree lists nothing.  The walk lists
what it would list without the bound, in the same order, with the same
marked sets and weights, and pops a subset of what it would pop
(``_closed_walks`` proves it).

``enumerate_light_cycles`` walks around the zero-weight subgraph and lists
all closed paths of weight below the threshold as finitely many *cycle
families*: a base path plus pumpable zero-weight cycles, each pump with an
independent multiplicity m >= 0 (pure zero-cycle power families are
displayed with m >= 1).  The decomposition is exact as long as every
zero-weight component contains at most one independent cycle; richer zero
subgraphs raise an error rather than risk an incomplete list.  Within that
bound a zero component with a cycle is the cycle with trees hanging off it,
so each of its vertices reaches the cycle along exactly one tree path: its
pumps are that path, the cycle (either direction) based where the path
lands, and the path back.

Families merge under a structural key, ``_dedup_key``.  A family is a
cyclic base b_0 .. b_{n-1} with a multiset G_i of pumps in the gap after
b_i, each pump an entry (mandatory, atoms of its prefix p, atoms of its
cycle c); an instance picks at every gap one entry, with a multiplicity
m >= 1, or none where the gap holds no mandatory entry, and reads
b_0 [p c^m p^-1] b_1 ...  Its label sequence is the (label, direction)
atom of each traversal, up to rotation and inversion.  Read backwards, the
instance is b_{n-1}^-1 .. b_0^-1 with the gap G_{i-1} after b_i^-1 and
each pump read as p (c^-1)^m p^-1: the entry keeps p and inverts c.  The
key is the least rotation, over the base and its inverse, of the pairs
(atom of b_i, sorted entries of its gap).  Equal keys give equal label
sequences for every multiplicity vector: if two families have equal keys,
a rotation of one (or of its inverse) has, position by position, the atoms
and gap entries of a rotation of the other (or of its inverse).  Picking
the same entries with the same multiplicities at matching gaps maps the
instances of one family one to one onto those of the other, as the
mandatory flags match, and matched instances read the same atoms in the
same cyclic order, one of them perhaps backwards.  So merging loses no
closed path; the converse fails only where two families with different
structure spell the same sequences, which costs a duplicate family, never
a missed one.  A pump-free family spells one sequence, and its key is just
``canonical_atom_cycle`` of its base, built without any expansion.

A pump-free candidate whose base runs only over edges whose ``label_key``
no other edge carries is a family of its own, without a key.  Its key,
``canonical_atom_cycle`` of its base untagged, is one only a pump-free
candidate can have, and another with that key reads the same atoms in the
same cyclic order, up to rotation and inversion.  With unique labels,
equal atom sequences mean the same edges in the same cyclic order, as an
atom is (label key, direction) and each of these label keys names one
edge.  That is one edge class, which the walker lists once, and a
pump-free walk yields one candidate; so no other candidate has the key.
Every other candidate is keyed: a pumped one (a symmetric base can give
two pump choices one key), a power family (two zero cycles can share a
key) and a walk touching a shared label.

Every light reduced closed path P lies in exactly one family whenever the
walk returns: a base about to be listed with more than ``MAX_MARKED``
marked junctions ends the walk with ``WalkBudgetError`` instead of being
dropped.  A P that runs only over zero edges is a power of a zero cycle,
which that cycle's power family spells.  Otherwise P's nonzero
traversals cut it into zero runs; a run R from a to b is reduced, stays in
one zero component and meets its two nonzero neighbours on other edges.  In
a component with a cycle C, let r(x) be the tree path from x to C, landing
at x*; a walk from a to b is homotopic to r(a) W r(b)^-1 for a walk W on C,
and each homotopy class holds one reduced walk.  So, with c the cycle C
based where it is spliced in:

(1) if a* = b*, R is the tree path from a to b, or that path with
    r(x) c^m r(x)^-1 (m >= 1, c either way round) spliced in at its vertex x
    nearest C, the pump at x;
(2) if a* != b*, R is r(a) c^m w r(b)^-1 (m >= 0), where w is one of the
    two arcs of C from a* to b* and c runs the way w runs: the path
    r(a) w r(b)^-1 with the pump c^m at a*.

In a tree component R is the tree path.  The tree path and r(a) w r(b)^-1
are vertex-simple, and the pump fits where it is spliced in.  Dropping the
pumps from P leaves a base B whose zero runs are vertex-simple and which
turns back only where R is a pump alone, r(v) c^m r(v)^-1: over the nonzero
edge into v, a turn that pump mends.  B weighs what P weighs, so the
walker lists one copy of B, rotated or inverted: the first it finds of
B's class.  Rotated or inverted alike, P is then an instance of that copy
with P's pump, read the way the copy reads, at each marked junction; the
candidate with those pumps holds every pump that fits at the other gaps,
so the family kept under its key spells P.

Uniqueness.  If P, rotated or inverted, is an instance of two candidates,
both bases carry P's nonzero traversals in P's cyclic order, and at each
run R each carries a vertex-simple zero run from a to b.  If a* = b*, or in
a tree component, the tree path is the only one.  If a* != b*, there is one
through each arc w, and along it a pump fits only at a*, inside w and at
b*, with c run the way w runs: elsewhere the pump's first traversal turns
back onto the arriving one or its last onto the leaving one.  So that run's
instances wind round C from w in one sense only, and the two arcs'
instances are disjoint: R fixes its arc.  So the two bases are one base,
rotated or inverted; the pumps that fit at its unmarked gaps are fixed by
it, and at a marked junction R's pump fixes the way c runs.  The two
candidates have one ``_dedup_key``, so they are one family.  (Several
multiplicity vectors of that family may spell P, where pumps fit at several
vertices of one arc; that repeats an instance, not a family.)

So a base that turned back over a zero edge z from v to u would add no
path, and directly: only a pump at u could mend the turn, and in a rank-1
component a nonempty reduced closed zero walk at u is r(u) c^m r(u)^-1.  If
z runs towards C, the excursion z [r(u) c^m r(u)^-1] z^-1 is v's own pump,
whose prefix z r(u) is r(v); the base without the excursion holds it at v,
where it fits.  If z runs away from C, every pump at u starts with z^-1; if
z lies on C, each pump at u starts with z^-1 or ends with z: no excursion
away from C, or along it, is ever mendable.

``reduced_closed_walks`` walks with an empty zero subgraph and so lists the
cyclically reduced closed walks up to a length, one per edge class, for
``enumerate_trivial_cycles``.  ``reduced_closed_walks_by_length`` lists them
one length at a time, each level resumed from the paths the last one
reached, for the light-walk cuts of the search.

``verify_weight_test`` refutes every family's full expansion set through
the fact base and reports the survivors; the verdict is Aspherical exactly
when the relator condition holds and nothing survives.  The family list is
complete (proved above), so no light closed path is walked a second time;
``tests/oracle_guard.py`` keeps the guard that did, as the tests' oracle of
that completeness.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction

from .facts import FactBase, Verdict, UNKNOWN
from .scenario import Scenario
from .stargraph import (
    Edge,
    StarGraph,
    Traversal,
    Vertex,
    build_star_graph,
    canonical_atom_cycle,
    path_atoms,
    path_label,
    vertex_name,
)
from .words import Codes, Word, canonical_cyclic_class, decode, least_rotation, least_rotation_start


class WeightError(ValueError):
    pass


class WalkBudgetError(WeightError):
    """``_closed_walks`` ran out of steps, or met a light closed path with
    more than ``MAX_MARKED`` marked junctions: a resource limit, not bad
    input."""


class DegenerateZeroCycleError(ValueError):
    """A zero-weight cycle with an empty label: families collapse."""


class EntangledZeroSubgraphError(ValueError):
    """A zero-weight component with two or more independent cycles."""


class WeightFunction:
    """Total map edge-id -> Fraction in [0, 1]."""

    def __init__(self, values: dict[str, Fraction]):
        self.values = dict(values)
        for k, v in self.values.items():
            if not 0 <= v <= 1:
                raise WeightError(f"weight {v} for edge {k} outside [0, 1]")

    @classmethod
    def from_scenario(cls, s: Scenario, g: StarGraph) -> "WeightFunction":
        values: dict[str, Fraction] = {}
        for key, val in s.weights:
            e = g.resolve(key)
            if e.edge_id in values:
                raise WeightError(f"duplicate weight for edge {e.edge_id}")
            values[e.edge_id] = Fraction(val)
        return cls(values)

    def require_total(self, g: StarGraph):
        for e in g.edges:
            if e.edge_id not in self.values:
                raise WeightError(f"missing weight for edge {e.edge_id} ({e.label_str()})")

    def __getitem__(self, edge_id: str) -> Fraction:
        try:
            return self.values[edge_id]
        except KeyError:
            raise WeightError(f"missing weight for edge {edge_id}")


@dataclass(frozen=True)
class RelatorCheck:
    relator: int
    corners: int
    total: Fraction  # sum of (1 - w) over corners
    passed: bool


def check_relator_condition(g: StarGraph, wf: WeightFunction) -> list[RelatorCheck]:
    wf.require_total(g)
    out = []
    for ri in range(len(g.presentation.relators)):
        corners = [e for e in g.edges if e.relator == ri]
        total = sum((1 - wf[e.edge_id] for e in corners), Fraction(0))
        out.append(RelatorCheck(ri, len(corners), total, total >= 2))
    return out


# -- zero subgraph -----------------------------------------------------


@dataclass(frozen=True)
class Pump:
    insert_after: int  # splice after base[insert_after]
    prefix: tuple[Traversal, ...]  # zero path from the base vertex to the cycle
    cycle: tuple[Traversal, ...]  # component cycle based at the prefix end
    mandatory: bool = False  # base backtracks here; m >= 1 required

    def instance(self, m: int) -> tuple[Traversal, ...]:
        back = tuple(t.reverse() for t in reversed(self.prefix))
        return self.prefix + self.cycle * m + back

    def label(self) -> Codes:
        return path_label(self.instance(1))

    @cached_property
    def key_entries(self) -> tuple[tuple, tuple]:
        """(mandatory, prefix atoms, cycle atoms) as the pump reads in the
        walk and in the inverted walk, which keeps the prefix and inverts
        the cycle: ``_dedup_key`` builds gaps from them."""
        prefix, cycle = path_atoms(self.prefix), path_atoms(self.cycle)
        inverse = tuple((label, -direction) for label, direction in reversed(cycle))
        return (self.mandatory, prefix, cycle), (self.mandatory, prefix, inverse)

    def display(self) -> str:
        cyc = " ".join(_atom_str(t) for t in self.cycle)
        bound = "m >= 1" if self.mandatory else "m >= 0"
        if self.prefix:
            pre = " ".join(_atom_str(t) for t in self.prefix)
            return f"{pre} ({cyc})^m {pre}^-1, {bound}"
        return f"({cyc})^m, {bound}"


def _atom_str(t: Traversal) -> str:
    return t.edge.printed[t.direction < 0]


class _ZeroSubgraph:
    """Zero-weight components, their cycles (``cycles``, in component order)
    and the pumps at each vertex.  A component of cycle rank >= 2 raises
    EntangledZeroSubgraphError, so one with a cycle is that cycle with trees
    hanging off it: each vertex has exactly one tree path to the cycle, which
    one walk out from the cycle records as it builds the pumps."""

    def __init__(self, zero_edges: list[Edge]):
        self.edges = zero_edges
        adj: dict[Vertex, list[Traversal]] = {}
        for e in zero_edges:
            adj.setdefault(e.src, []).append(Traversal(e, +1))
            adj.setdefault(e.dst, []).append(Traversal(e, -1))
        self.cycles: list[tuple[Traversal, ...]] = []
        self._pumps: dict[Vertex, list] = {}  # vertex -> [(prefix, cycle)]
        # one leaf peel of the whole subgraph, a loop counting 2: in a
        # component of rank 1 the vertices that keep a degree are its cycle
        degree = {v: len(ts) for v, ts in adj.items()}
        leaves = [v for v, d in degree.items() if d == 1]
        while leaves:
            v = leaves.pop()
            degree[v] = 0
            for t in adj[v]:
                if degree[t.end]:
                    degree[t.end] -= 1
                    if degree[t.end] == 1:
                        leaves.append(t.end)
        seen: set[Vertex] = set()
        for v in sorted(adj, key=lambda v: (v[0], -v[1])):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                for t in adj[stack.pop()]:
                    if t.end not in comp:
                        comp.add(t.end)
                        stack.append(t.end)
            seen |= comp
            ces = [e for e in zero_edges if e.src in comp]
            rank = len(ces) - len(comp) + 1
            if rank >= 2:
                raise EntangledZeroSubgraphError(
                    "zero-weight component at "
                    + ", ".join(sorted(vertex_name(v) for v in comp))
                    + " has multiple independent cycles"
                )
            if rank == 0:
                continue
            # round the cycle from its least vertex, each step the first in
            # adj order onto the cycle over an edge not yet on it, a loop
            # forwards only
            walk: list[Traversal] = []
            on_cycle: set[str] = set()
            cur = min((u for u in comp if degree[u]), key=lambda u: (u[0], -u[1]))
            while t := next(
                (t for t in adj[cur]
                 if degree[t.end] and t.edge.edge_id not in on_cycle and not (t.edge.is_loop and t.direction < 0)),
                None,
            ):
                walk.append(t)
                on_cycle.add(t.edge.edge_id)
                cur = t.end
            cycle = tuple(walk)
            self.cycles.append(cycle)
            # at a cycle vertex: the cycle based there, in both directions
            for i, t in enumerate(cycle):
                based = cycle[i:] + cycle[:i]
                back = tuple(x.reverse() for x in reversed(based))
                self._pumps[t.start] = [((), based), ((), back)]
            # off the cycle: the same two behind the vertex's one tree path
            stack = [t.start for t in cycle]
            while stack:
                u = stack.pop()
                for t in adj[u]:
                    if t.end not in self._pumps:
                        self._pumps[t.end] = [((t.reverse(),) + p, c) for p, c in self._pumps[u]]
                        stack.append(t.end)

    def pumps_at(self, v: Vertex) -> list[tuple[tuple[Traversal, ...], tuple[Traversal, ...]]]:
        """(prefix, cycle) pairs anchorable at v, both cycle directions."""
        return self._pumps.get(v, [])

    @staticmethod
    def fits(t: Traversal, prefix: tuple, cycle: tuple, s: Traversal) -> bool:
        """Whether the pump prefix, cycle, prefix^-1 at t.end sits reduced
        between the arriving traversal t and the leaving traversal s.  The
        pump is reduced inside: neither its tree path nor its cycle repeats
        an edge, and where they meet a tree edge meets a cycle edge.  So
        only its first traversal can turn back onto t and only its last
        onto s.  Edges compare by identity."""
        first, last = (prefix[0], prefix[0].reverse()) if prefix else (cycle[0], cycle[-1])
        return not (
            (first.edge is t.edge and first.direction == -t.direction)
            or (last.edge is s.edge and last.direction == -s.direction)
        )


# -- cycle families ----------------------------------------------------


@dataclass(slots=True)  # a report keeps every family: no per-instance dict
class CycleFamily:
    base: tuple[Traversal, ...]
    pumps: tuple[Pump, ...]
    weight: Fraction
    kind: str  # "cycle" (pump multiplicities m >= 0) | "power" (base^m, m >= 1)

    def base_label(self) -> Codes:
        return path_label(self.base)

    def display(self) -> str:
        base = " ".join(map(_atom_str, self.base))
        if self.kind == "power":
            return f"({base})^m, m >= 1"
        if not self.pumps:
            return base
        parts = [base]
        for p in self.pumps:
            parts.append(f"with {p.display()} after position {p.insert_after}")
        return "; ".join(parts)

    def mandatory_points(self) -> set[int]:
        return {p.insert_after for p in self.pumps if p.mandatory}

    def _shapes(self):
        """(insertion points, pump indices) per pump shape: every set of
        points that holds all mandatory points, fewest points first, with
        one pump per point."""
        mandatory = self.mandatory_points()
        by_point: dict[int, list[int]] = {}
        for pi, p in enumerate(self.pumps):
            by_point.setdefault(p.insert_after, []).append(pi)
        points = sorted(by_point)
        for r in range(len(points) + 1):
            for qs in itertools.combinations(points, r):
                if mandatory <= set(qs):
                    for pis in itertools.product(*(by_point[q] for q in qs)):
                        yield qs, pis

    def templates(self) -> list[tuple[list[Codes], list[Codes]]]:
        """(segments, pumps) pairs whose refutation covers every expansion;
        a pump-free family's one shape is its base."""
        if self.kind == "power":
            return [([()], [self.base_label()])]
        if not self.pumps:
            return [([self.base_label()], [])]
        out: list[tuple[list[Codes], list[Codes]]] = []
        for qs, pis in self._shapes():
            # segment j runs from after point j-1 to point j, cyclically
            chunks = [self.base[qs[-1] + 1 :] + self.base[: qs[0] + 1]] if qs else [self.base]
            chunks += [self.base[a + 1 : b + 1] for a, b in zip(qs, qs[1:])]
            out.append(([path_label(c) for c in chunks], [self.pumps[pi].label() for pi in pis]))
        return out


def _dedup_key(base: tuple[Traversal, ...], pumps: tuple[Pump, ...], kind: str = "cycle") -> tuple:
    """Key under which families merge; the module docstring defines it and
    proves that equal keys give equal label sequences for every
    multiplicity vector, and that a pump-free candidate over uniquely
    labelled edges needs none.  A pump-free family's key is
    ``(canonical_atom_cycle(base),)``, a power family's is tagged "power"
    (its base repeats) and a pumped family's "pumped", so keys of different
    kinds never meet."""
    if kind == "power":
        return ("power", canonical_atom_cycle(base))
    if not pumps:
        return (canonical_atom_cycle(base),)
    n = len(base)
    forward: list[list] = [[] for _ in range(n)]
    backward: list[list] = [[] for _ in range(n)]
    for p in pumps:
        ahead, behind = p.key_entries
        forward[p.insert_after].append(ahead)
        backward[p.insert_after].append(behind)
    atoms = path_atoms(base)
    rotations = (
        least_rotation([(atoms[i], tuple(sorted(forward[i]))) for i in range(n)]),
        least_rotation(
            [((atoms[i][0], -atoms[i][1]), tuple(sorted(backward[i - 1]))) for i in reversed(range(n))]
        ),
    )
    return ("pumped", min(rotations))


def zero_cycle_families(g: StarGraph, wf: WeightFunction) -> tuple[_ZeroSubgraph, list[CycleFamily]]:
    zero_edges = [e for e in g.edges if wf[e.edge_id] == 0]
    zsub = _ZeroSubgraph(zero_edges)
    families = []
    for cycle in zsub.cycles:
        # a freely reduced nonempty word is never conjugate to 1
        if not path_label(cycle):
            raise DegenerateZeroCycleError(
                "degenerate zero cycle: zero-weight cycle "
                + " ".join(_atom_str(t) for t in cycle)
                + " has empty label"
            )
        families.append(CycleFamily(cycle, (), Fraction(0), "power"))
    return zsub, families


MAX_MARKED = 4  # marked junctions per listed path; a path with more ends the walk
FAMILY_WALK_BUDGET = 2_000_000  # walker pops of enumerate_light_cycles
REDUCED_WALK_BUDGET = 5_000_000  # walker pops of reduced_closed_walks, by default


def _weight_scale(g: StarGraph, wf: WeightFunction, threshold: Fraction) -> int:
    """The least common denominator of the threshold and every edge weight:
    ``_closed_walks`` weighs in units of 1/scale."""
    return math.lcm(Fraction(threshold).denominator, *(wf[e.edge_id].denominator for e in g.edges))


def _walk_tables(g: StarGraph, wf: WeightFunction, threshold: Fraction, zsub: _ZeroSubgraph) -> tuple:
    """The tables ``_closed_walks`` reads, which depend only on its first
    four arguments: the scaled threshold, the mend test, the one-vertex
    runs, the end of each step key, the steps out of each vertex, the root
    states and the distances.  The mend test is asked only about steps off
    the zero subgraph, the only ones a walk turns back over.  A step's key
    is 2 * its edge's index in ``g.edges``, plus 1 if it runs backwards:
    keys grow along ``g.incident``, which lists a vertex's steps by edge and
    a loop forwards first, the reverse step's key is key ^ 1, and a walk
    rooted at edge e0 steps onto a nonzero edge only if its key is at least
    2 * the index of e0.  A caller that walks one graph several times
    builds them once.  Without a zero cycle there is no pump, so the mend
    test mends no turn and asks no vertex for pumps.

    ``dist[u][v]`` is the least scaled weight of any walk from u to v, a
    zero-subgraph edge weighing 0, or ``limit`` where every such walk
    weighs ``limit`` or more, or none exists.  Floyd-Warshall finds it (the
    graph has few vertices), extending only ways lighter than ``limit``, as
    every part of a walk lighter than ``limit`` is lighter too.  A walk may
    run either way along an edge, so ``dist`` is symmetric.  It bounds from
    below the weight of every walk the walker can still take from u back to
    v, as those walks are walks of the graph; a root whose edge and way
    back weigh ``limit`` or more closes no light path and is left out."""
    zero = {e.edge_id for e in zsub.edges}
    key = {e.edge_id: 2 * i for i, e in enumerate(g.edges)}
    scale = _weight_scale(g, wf, threshold)
    weight = {e.edge_id: int(wf[e.edge_id] * scale) for e in g.edges if e.edge_id not in zero}
    limit = int(threshold * scale)

    def mends(t: Traversal) -> bool:
        return bool(zsub.cycles) and any(
            zsub.fits(t, prefix, cycle, t.reverse()) for prefix, cycle in zsub.pumps_at(t.end)
        )

    alone = {v: frozenset([v]) for v in g.vertices}
    ends = [v for e in g.edges for v in (e.dst, e.src)]
    # per vertex, each step out of it as (traversal, end, scaled weight or
    # None on a zero edge, key, whether a walk that arrived along the
    # reverse step may turn back onto it)
    steps_at = {
        v: [
            (t, t.end, weight.get(t.edge.edge_id), key[t.edge.edge_id] + (t.direction < 0),
             t.edge.edge_id in weight and mends(t.reverse()))
            for t in g.incident(v)
        ]
        for v in g.vertices
    }
    dist = {u: {v: 0 if u == v else limit for v in g.vertices} for u in g.vertices}
    for e in g.edges:
        w = weight.get(e.edge_id, 0)
        if w < dist[e.src][e.dst]:
            dist[e.src][e.dst] = dist[e.dst][e.src] = w
    for via, through in dist.items():
        for row in dist.values():
            d = row[via]
            if d < limit:  # else every way through via weighs limit or more
                for v, w in through.items():
                    if d + w < row[v]:
                        row[v] = d + w
    roots = [
        ((Traversal(e, +1),), weight[e.edge_id], alone[e.dst], frozenset(), (key[e.edge_id],), (), ())
        for e in g.edges
        if e.edge_id not in zero and weight[e.edge_id] + dist[e.dst][e.src] < limit
    ]
    return limit, mends, alone, ends, steps_at, roots, dist


def _closed_walks(
    g: StarGraph,
    wf: WeightFunction,
    threshold: Fraction,
    zsub: _ZeroSubgraph,
    max_len: float,
    budget: int,
    prune: Callable[[tuple[Traversal, ...]], bool] | None = None,
    starts: list[tuple] | None = None,
    leaves: list[tuple] | None = None,
    tables: tuple | None = None,
) -> list[tuple[tuple[Traversal, ...], frozenset, int]]:
    """(path, marked, weight) per closed walk of at most max_len traversals
    (``math.inf`` for no cap, which the weight makes finite: see the module
    docstring) that uses an edge outside the zero subgraph, weighs less
    than threshold on those edges and runs vertex-simply over zero-subgraph
    edges, in DFS order; weight is the path's weight times
    ``_weight_scale(g, wf, threshold)``, an int.  A walk may turn back (at
    the seam too) only over an edge outside the zero subgraph, and only
    where the turn can be mended: some pump p at the turning vertex makes
    ``t p t^-1`` reduced for the arriving traversal t.  marked holds those
    junctions, where a pump insertion is mandatory; a path about to be
    listed with more than ``MAX_MARKED`` of them raises ``WalkBudgetError``,
    as its candidates multiply with each.  A walk with an unmendable turn
    has no reduced instance, so it yields no family, and neither does any
    walk through it: its subtree is skipped.  A zero run never turns back,
    as it is vertex-simple; the module docstring proves that no family is
    lost.

    ``prune``, when given, is asked about each path as it is popped, before
    its step is counted; a path it answers true for is dropped with its
    whole subtree, and the rest keep their DFS order.  A path reaches it
    only after each of its proper prefixes has passed.  A path given in
    ``starts`` is popped, and so asked, again.

    ``leaves``, when given, receives the state of each path the walk
    reached at max_len, in DFS order.  A later walk to a greater max_len
    given those states (or an order-keeping subset) as ``starts`` resumes
    from them in place of the roots: it visits what a walk from the roots
    would visit below them, in the same order, and lists their own closed
    paths again.

    ``tables``, when given, is ``_walk_tables`` of the first four
    arguments, built once by a caller that walks them again.

    Bound.  A step to v is pushed only if the weight spent with it plus
    ``dist[v][home]`` (``_walk_tables``), the least weight of any walk from
    v back to the root's start, stays below ``limit``; a root only if its
    edge and the way back from its end do.  A prefix that fails has no
    closed extension lighter than the threshold, as the rest of one is a
    walk from v to ``home``, so nothing below it is listed.  Three things
    follow.  (a) Every prefix of a light closed path passes, its own rest
    being a way back lighter than ``limit`` less its weight; so every copy
    of a light class, and every prefix of one, is pushed and popped as
    without the bound, and steps (1)-(3) below, which reason only about
    those pushes and closes, still hold.  (b) The paths a walk to max_len
    hands to ``leaves`` are those the walk without the bound hands, less
    the ones with a prefix that failed, in the same order: an order-keeping
    subset whose dropped paths list nothing below them, so a walk resumed
    from them as ``starts`` lists what one resumed from all of them lists.
    (c) The walk pushes a subset of the states it would push without the
    bound, in the same order, so it pops a subset of what that walk pops:
    a budget that walk fits in is enough, and ``prune`` is asked about a
    subset of the paths and drops the same subtrees among them.

    Weights and threshold are scaled once by ``_weight_scale``, so the walk
    adds and compares ints, exactly as the Fractions they stand for would
    compare.  A zero-subgraph edge weighs 0, whose denominator is 1, so the
    scale is that of the weights the walk adds.

    Rooting: the DFS starts from the forward traversal t0 of each edge e0
    outside the zero subgraph, in ``g.edges`` order, and never steps onto
    such an edge of lower index.  Inversion flips every direction, so each
    rotation/inversion class reaches the forward traversal of its least
    edge.  Its copies here are the rotations that start at a forward
    traversal of e0 and the inverse read back from each backward one, and
    each is walked when one is: they have one length, weight and edge
    multiset, their zero runs cover the same vertices (none spans the seam,
    which lies after a traversal of e0), and they turn at the same
    junctions, where the mend test reads the same arriving traversal either
    way round.  Pruned subtrees keep the order of the rest, so the first
    copy found is the one an unrooted DFS from both directions of every
    edge finds first.

    Each class once.  The DFS pops the steps out of a vertex in reverse
    ``steps_at`` order, by decreasing key (``_walk_tables``), and walks a
    path's subtree before its next sibling; so of two closed paths of one
    length it finds first the one whose key tuple is greater.  A path's
    state holds its keys; ``ties``, the starts j >= 1 of forward traversals
    of e0 whose rotation agrees with the path so far (keys[j:] ==
    keys[:n - j]); and ``mirrors``, the positions j of backward traversals
    of e0 whose read-back keys[j] ^ 1, .., keys[0] ^ 1 equals
    keys[:j + 1].  A step of key k at position n (``_necklace_step``) beats
    the path at tie j when k > keys[n - j] and settles j when k is less; a
    backward traversal of e0 compares its whole read-back at once, and a
    forward one opens a tie.  A beaten prefix is not pushed.  What is still
    tied when a path closes is settled by its wrap-round
    (``_found_first``): a beaten closed path is not listed, but its subtree
    is walked.

    (1) No pruned prefix leads to a first copy: every closed path through
    it has a copy, the rotation or read-back that beat it, whose keys are
    greater at their first difference and which the walk without this
    prune walks.  (2) The copy C found first has the greatest keys of its
    class, so nothing beats a prefix of C or C itself: C is listed.  (3) A
    copy P != C is C's rotation from a forward traversal j of e0 or its
    read-back from a backward one j, and the key tuples first differ at an
    index i, where C's is greater.  Nothing before i settles j.  If the
    difference lies inside P (j + i < len(P) for a rotation, i <= j for a
    read-back), the push of position j + i, or of j, beats P's prefix;
    otherwise j is still a tie or mirror when P closes, and the close beats
    P.  So the walk lists what the walk without this prune lists, in the
    same order, with the same marked sets and weights, less each path
    whose class it listed earlier; and it pops a subset of what that walk
    pops, so a budget that walk fits in is enough.  ``prune`` may drop a
    class's first copy and keep another; then no copy of that class is
    listed.
    """
    limit, mends, alone, ends, steps_at, roots, dist = tables or _walk_tables(g, wf, threshold, zsub)
    if starts is None:
        starts = roots
    results: list[tuple[tuple[Traversal, ...], frozenset, int]] = []
    steps = 0
    for ahead, group in itertools.groupby(starts, key=lambda state: state[4][0]):
        # ahead and back are the keys of t0 and of its reverse; to_home is
        # the least weight of the way back from each vertex
        stack = list(group)
        home, back = stack[0][0][0].start, ahead + 1
        to_home = dist[home]
        stack.reverse()
        while stack:
            path, used, run_seen, marked, keys, ties, mirrors = stack.pop()
            if prune and prune(path):
                continue
            steps += 1
            if steps > budget:
                raise WalkBudgetError("closed-walk enumeration budget exceeded")
            n, last = len(path), keys[-1]
            cur = ends[last]
            if cur == home and (not (ties or mirrors) or _found_first(keys, ties, mirrors)):
                # internal junctions are reduced-or-marked by construction
                seam = last == back  # the path turns back at its seam
                if not seam or mends(path[-1]):
                    closed = marked | {n - 1} if seam else marked
                    if len(closed) > MAX_MARKED:
                        raise WalkBudgetError(f"closed path with more than {MAX_MARKED} marked junctions")
                    results.append((path, closed, used))
            if n >= max_len:
                if leaves is not None:
                    leaves.append((path, used, run_seen, marked, keys, ties, mirrors))
                continue
            turn = last ^ 1
            for t, end, w, k, turnable in steps_at[cur]:
                if w is None:
                    # a zero run never turns back: it is vertex-simple, and
                    # revisits belong to pumps
                    if end in run_seen or used + to_home[end] >= limit:
                        continue
                    u, seen, m = used, run_seen | {end}, marked
                elif k < ahead or used + w + to_home[end] >= limit:
                    continue
                elif k != turn:
                    u, seen, m = used + w, alone[end], marked
                elif turnable:
                    u, seen, m = used + w, alone[end], marked | {n - 1}
                else:
                    continue
                if not ties and k | 1 != back:
                    stack.append((path + (t,), u, seen, m, keys + (k,), ties, mirrors))
                elif (necklace := _necklace_step(keys, ties, mirrors, k)) is not None:
                    stack.append((path + (t,), u, seen, m, keys + (k,), *necklace))
    return results


def _necklace_step(keys: tuple, ties: tuple, mirrors: tuple, k: int) -> tuple | None:
    """(ties, mirrors) after a step of key k onto a path of ``keys``, or
    None when some copy of every closed path through the longer prefix
    comes first (``_closed_walks`` proves it)."""
    n = len(keys)
    kept = []
    for j in ties:
        if k > keys[n - j]:
            return None
        if k == keys[n - j]:
            kept.append(j)
    if k == keys[0]:
        kept.append(n)
    elif k == keys[0] ^ 1:
        # the read-back and the path share their first and last keys
        read = _inverse(keys[1:])
        if read > keys[1:]:
            return None
        if read == keys[1:]:
            mirrors += (n,)
    return tuple(kept), mirrors


def _found_first(keys: tuple, ties: tuple, mirrors: tuple) -> bool:
    """Whether the closed path of ``keys`` comes before the copy read from
    each tie and mirror once the comparison wraps round its end."""
    n = len(keys)
    return all(keys[:j] <= keys[n - j :] for j in ties) and all(
        _inverse(keys[j + 1 :]) <= keys[j + 1 :] for j in mirrors
    )


def _inverse(keys: tuple) -> tuple:
    """The keys of the path read backwards."""
    return tuple(k ^ 1 for k in reversed(keys))


def enumerate_light_cycles(
    g: StarGraph, wf: WeightFunction, threshold: Fraction = Fraction(2)
) -> list[CycleFamily]:
    """Complete family list of reduced closed paths of weight < threshold.

    A candidate is a walked base with its optional pumps and one choice of
    pump per mandatory point.  One with no pumps whose base uses only edges
    whose ``label_key`` no other edge carries becomes a family directly, as
    no other candidate can share its key (see the module docstring).  Every
    other candidate is keyed by ``_dedup_key``, and only the first
    candidate per key becomes a family, which shows the edges and weight of
    the first of them the walker found.  A family's weight is the walker's
    scaled int over ``_weight_scale``, one Fraction per value.  Families
    wait in walker order, power families first, for one stable sort on
    that int and their display; the int orders as the weights do, as every
    family shares the scale (a zero-cycle power family weighs 0).  Equal
    keys give equal label sequences for every multiplicity vector (see the
    module docstring), so the merged candidates spell nothing the kept one
    does not.  Raises DegenerateZeroCycleError for an empty-label zero
    cycle and EntangledZeroSubgraphError when a zero component has cycle
    rank >= 2 (the family decomposition would not be exhaustive there).
    """
    if threshold <= 0:
        raise WeightError("threshold must be positive")
    wf.require_total(g)
    zsub, families = zero_cycle_families(g, wf)
    scale = _weight_scale(g, wf, threshold)
    weight_at = cache(lambda used: Fraction(used, scale))  # one Fraction per weight value
    labels = Counter(e.label_key for e in g.edges)
    shared = {e.edge_id for e in g.edges if labels[e.label_key] > 1}
    # a later power family of one key takes the first's place
    powers = {_dedup_key(fam.base, fam.pumps, fam.kind): fam for fam in families}
    keys, found = set(powers), [(0, fam) for fam in powers.values()]
    for base, marked, used in _closed_walks(g, wf, threshold, zsub, math.inf, FAMILY_WALK_BUDGET):
        n = len(base)
        optional: list[Pump] = []
        mandatory_opts: dict[int, list[Pump]] = {q: [] for q in marked}
        # without a zero cycle there is no pump, and no vertex to ask
        for i, t in enumerate(base if zsub.cycles else ()):
            for prefix, cycle in zsub.pumps_at(t.end):
                if not zsub.fits(t, prefix, cycle, base[(i + 1) % n]):
                    continue
                p = Pump(i, prefix, cycle, mandatory=(i in marked))
                if p.mandatory:
                    mandatory_opts[i].append(p)
                else:
                    optional.append(p)
        if not (marked or optional or (shared and any(t.edge.edge_id in shared for t in base))):
            found.append((used, CycleFamily(base, (), weight_at(used), "cycle")))
            continue
        mand_points = sorted(mandatory_opts)
        for chosen in itertools.product(*(mandatory_opts[q] for q in mand_points)):
            pumps = tuple(sorted(optional + list(chosen), key=lambda p: p.insert_after))
            key = _dedup_key(base, pumps)
            if key not in keys:
                keys.add(key)
                found.append((used, CycleFamily(base, pumps, weight_at(used), "cycle")))
    return [fam for _, fam in sorted(found, key=lambda item: (item[0], item[1].display()))]


# -- cyclically reduced closed walks -------------------------------------


def reduced_closed_walks(
    g: StarGraph,
    max_len: int,
    wf: WeightFunction | None = None,
    threshold: Fraction | None = None,
    budget: int = REDUCED_WALK_BUDGET,
) -> list[tuple[Traversal, ...]]:
    """All cyclically reduced closed walks up to max_len, one per canonical
    (rotation/inversion) class, the one the walker lists, in canonical
    order; optionally only those of weight < threshold."""
    if wf is None or threshold is None:
        wf, threshold = WeightFunction({e.edge_id: Fraction(0) for e in g.edges}), Fraction(1)
    # an empty zero subgraph allows no backtrack and imposes no simple runs
    walks = _closed_walks(g, wf, threshold, _ZeroSubgraph([]), max_len, budget)
    return sorted((path for path, _, _ in walks), key=canonical_atom_edge_cycle)


def reduced_closed_walks_by_length(
    g: StarGraph,
    max_len: int,
    wf: WeightFunction,
    threshold: Fraction,
    budget: int,
    prune: Callable[[tuple[Traversal, ...]], bool],
) -> Iterator[list[tuple[Traversal, ...]]]:
    """For L = 1..max_len, the cyclically reduced closed walks of exactly L
    edges and weight < threshold, one per canonical class in canonical
    order: the member that a walk to L from the roots finds first, where
    ``prune`` as it stands at level L keeps it.  A class whose first member
    ``prune`` drops is not listed, so ``prune`` may drop a member only of a
    class whose every member its caller discards.

    Level L resumes from the paths of L - 1 edges that level L - 1 reached,
    so it walks each path of L edges once and re-walks no shorter one.  The
    levels share one ``_walk_tables``, as they walk one graph with one
    weight function and threshold; each level has its own ``budget``.
    ``prune`` is asked about each path as it is popped and may grow
    stricter between levels.  A resumed path is popped again at level L,
    so it meets that level's ``prune`` by itself; a shorter prefix was last
    asked at an earlier level.  So ``prune`` must drop a path at level L
    whenever it would drop one of the path's prefixes there, given that
    each prefix passed the last time it was popped.  The ``covers_kept`` of
    the search's light-walk cuts does both (the search module docstring
    gives why).  Each level pops its frontier and its new paths, a subset of what
    a walk to L from the roots pops, within ``budget`` steps."""
    zsub = _ZeroSubgraph([])
    tables = _walk_tables(g, wf, threshold, zsub)
    frontier = None
    for length in range(1, max_len + 1):
        leaves = [] if length < max_len else None
        walks = _closed_walks(g, wf, threshold, zsub, length, budget, prune, frontier, leaves, tables)
        frontier = leaves
        yield sorted((path for path, _, _ in walks if len(path) == length), key=canonical_atom_edge_cycle)


def canonical_atom_edge_cycle(path: tuple[Traversal, ...]) -> tuple:
    """Canonical (edge_id, direction) sequence under rotation and inversion;
    direction -1 sorts before +1.  Both orientations are read off the
    cached pairs of each edge."""
    if not path:
        return ()
    order = [t.edge.id_atoms[t.direction < 0] for t in path]
    inverse_order = [t.edge.id_atoms[t.direction > 0] for t in reversed(path)]
    which, start = least_rotation_start((order, inverse_order))
    best = order if which == 0 else inverse_order
    return tuple(best[start:] + best[:start])


# -- trivial-label cycles ----------------------------------------------


@dataclass(frozen=True)
class TrivialCycle:
    atoms: tuple[tuple[str, int], ...]  # (label as Edge.shown prints it, direction)
    label: Word

    def display(self) -> str:
        return " ".join(s if d > 0 else f"{s}^-1" for s, d in self.atoms)


def enumerate_trivial_cycles(g: StarGraph, length: int, fb: FactBase) -> list[TrivialCycle]:
    """Candidate vertex labels: closed paths of exactly ``length`` edges whose
    triviality the fact base cannot refute."""
    if length < 1:
        raise WeightError("length must be >= 1")
    shown = {e.label_key: e.shown for e in g.edges}
    out: dict[tuple, TrivialCycle] = {}
    for walk in reduced_closed_walks(g, length):
        if len(walk) != length:
            continue
        label = path_label(walk)
        if fb.refute_trivial(label):
            continue
        key = canonical_atom_cycle(walk)
        atoms = tuple((shown[label], d) for label, d in key)
        out.setdefault(key, TrivialCycle(atoms, decode(canonical_cyclic_class(label), fb.order)))
    return [out[k] for k in sorted(out)]


# -- the weight test -----------------------------------------------------


class FamilyVerdict:
    """A family's verdict.  ``witness`` describes the first template the
    fact base did not refute, "" for a refuted family.  The verdict keeps
    that template as codes, (segments, pumps, symbol order), and decodes
    it when ``witness`` is first read: only a printed report reads it."""

    __slots__ = ("family", "verdict", "_witness", "_template")

    def __init__(
        self, family: CycleFamily, verdict: Verdict, witness: str = "", template: tuple | None = None
    ):
        self.family, self.verdict = family, verdict
        self._witness, self._template = witness, template

    @property
    def refuted(self) -> bool:
        return self.verdict.refuted

    @property
    def witness(self) -> str:
        if self._template is not None:
            segments, pumps, order = self._template
            if pumps:
                self._witness = " ".join(
                    f"{decode(s, order)} ({decode(p, order)})^m" for s, p in zip(segments, pumps)
                )
            else:
                self._witness = str(decode(segments[0], order))
            self._template = None
        return self._witness


@dataclass
class WeightTestReport:
    scenario_name: str
    graph: StarGraph
    weight_function: WeightFunction
    relator_checks: list[RelatorCheck]
    families: list[FamilyVerdict]
    notes: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[FamilyVerdict]:
        return [f for f in self.families if not f.refuted]

    @property
    def aspherical(self) -> bool:
        return (
            all(rc.passed for rc in self.relator_checks)
            and not self.violations
            and not self.notes
        )

    @property
    def verdict(self) -> str:
        return "Aspherical" if self.aspherical else "PotentialViolations"


def _refute_family(fb: FactBase, fam: CycleFamily) -> FamilyVerdict:
    """The family's verdict: the last template's refutation when the fact
    base refutes every template, else Unknown with the first template it
    does not refute, kept as codes."""
    last = UNKNOWN
    for segments, pumps in fam.templates():
        last = fb.refute_template(segments, pumps)
        if not last.refuted:
            return FamilyVerdict(fam, UNKNOWN, template=(segments, pumps, fb.order))
    return FamilyVerdict(fam, last)


def verify_weight_test(
    s: Scenario, fb: FactBase | None = None, g: StarGraph | None = None
) -> WeightTestReport:
    """Run the full weight test for a scenario carrying weights.  ``fb``, when
    given, is the fact base of the scenario's presentation and facts; its
    queries are pure, so a warm one gives the same report.  ``g``, when
    given, is the star graph of that presentation, which a caller that
    verifies several weight functions builds once.  An entangled zero
    subgraph or a degenerate zero cycle (a closed path of weight 0 with a
    trivial label) leaves no family list; the report carries it as a note,
    which rules out Aspherical."""
    if g is None:
        g = build_star_graph(s.presentation)
    if fb is None:
        fb = FactBase(s.presentation, s.fact_decls)
    wf = WeightFunction.from_scenario(s, g)
    relator_checks = check_relator_condition(g, wf)
    try:
        families = enumerate_light_cycles(g, wf)
    except (EntangledZeroSubgraphError, DegenerateZeroCycleError) as e:
        return WeightTestReport(s.name, g, wf, relator_checks, [], notes=[str(e)])
    verdicts = [_refute_family(fb, fam) for fam in families]
    return WeightTestReport(s.name, g, wf, relator_checks, verdicts)


def render_report(report: WeightTestReport) -> str:
    lines = []
    if report.scenario_name:
        lines.append(f"scenario: {report.scenario_name}")
    for rc in report.relator_checks:
        status = "pass" if rc.passed else "FAIL"
        lines.append(
            f"relator {rc.relator}: corners {rc.corners} sum(1-w) = {rc.total} {status}"
        )
    lines.append(f"light cycle families: {len(report.families)}")
    for fv in report.families:
        head = "refuted" if fv.refuted else "SURVIVES"
        rule = f" [{fv.verdict.rule}]" if fv.verdict.rule else ""
        lines.append(f"  {head}{rule} weight {fv.family.weight}: {fv.family.display()}")
        if not fv.refuted and fv.witness:
            lines.append(f"    unrefuted instance: {fv.witness}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"
