"""The closed-path walker before it listed each rotation/inversion class
once, verbatim: the differential oracle for ``starweight.weights._closed_walks``.

It lists every copy of a class that starts at a forward traversal of the
class's least edge outside the zero subgraph, the copies of the inverse
that do so included.  ``tests/test_weights.py`` checks that the program's
walker lists the same paths less each one whose class came earlier.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction

from starweight.stargraph import StarGraph, Traversal
from starweight.weights import WalkBudgetError, WeightFunction, _weight_scale, _ZeroSubgraph


MAX_MARKED = 4  # backtrack junctions per skeleton, each mended by a mandatory pump


def _walk_tables(g: StarGraph, wf: WeightFunction, threshold: Fraction, zsub: _ZeroSubgraph) -> tuple:
    """The tables ``_closed_walks`` reads, which depend only on its first
    four arguments: edge ranks, the scaled threshold, the mend test, the
    one-vertex runs, the steps out of each vertex and the root states.  The
    mend test is asked only about steps off the zero subgraph, the only ones
    a walk turns back over.  A caller that walks one graph several times
    builds them once."""
    zero = {e.edge_id for e in zsub.edges}
    rank = {e.edge_id: i for i, e in enumerate(g.edges)}
    scale = _weight_scale(g, wf, threshold)
    weight = {e.edge_id: int(wf[e.edge_id] * scale) for e in g.edges if e.edge_id not in zero}
    limit = int(threshold * scale)

    def mends(t: Traversal) -> bool:
        return any(zsub.fits(t, prefix, cycle, t.reverse()) for prefix, cycle in zsub.pumps_at(t.end))

    alone = {v: frozenset([v]) for v in g.vertices}
    # per vertex, each step out of it as (traversal, edge, direction, end,
    # scaled weight or None on a zero edge, edge rank, whether a walk that
    # arrived along the reverse step may turn back onto it)
    steps_at = {
        v: [
            (t, t.edge, t.direction, t.end, weight.get(t.edge.edge_id), rank[t.edge.edge_id],
             t.edge.edge_id in weight and mends(t.reverse()))
            for t in g.incident(v)
        ]
        for v in g.vertices
    }
    roots = []
    for e in g.edges:
        t0 = Traversal(e, +1)
        if e.edge_id not in zero and weight[e.edge_id] < limit:
            roots.append(((t0,), weight[e.edge_id], alone[t0.end], frozenset()))
    return rank, limit, mends, alone, steps_at, roots


def _closed_walks(
    g: StarGraph,
    wf: WeightFunction,
    threshold: Fraction,
    zsub: _ZeroSubgraph,
    max_len: int,
    budget: int,
    prune: Callable[[tuple[Traversal, ...]], bool] | None = None,
    starts: list[tuple] | None = None,
    leaves: list[tuple] | None = None,
    tables: tuple | None = None,
) -> list[tuple[tuple[Traversal, ...], frozenset, int]]:
    """(path, marked, weight) per closed walk of at most max_len traversals
    that uses an edge outside the zero subgraph, weighs less than threshold
    on those edges and runs vertex-simply over zero-subgraph edges, in DFS
    order; weight is the path's weight times ``_weight_scale(g, wf,
    threshold)``, an int.  A walk may turn back (at the seam too) only over
    an edge outside the zero subgraph, and only where the turn can be
    mended: some pump p at the turning vertex makes ``t p t^-1`` reduced
    for the arriving traversal t.  marked holds those junctions, where a
    pump insertion is mandatory.  A walk with an unmendable turn has no
    reduced instance, so it yields no family, and neither does any walk
    through it: its subtree is skipped.  A zero run never turns back, as it
    is vertex-simple; the module docstring proves that no family is lost.

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

    Weights and threshold are scaled once by ``_weight_scale``, so the walk
    adds and compares ints, exactly as the Fractions they stand for would
    compare.  A zero-subgraph edge weighs 0, whose denominator is 1, so the
    scale is that of the weights the walk adds.

    Rooting: the DFS starts from the forward traversal of each edge outside
    the zero subgraph, in ``g.edges`` order, and never steps onto such an
    edge of lower index.  Inversion flips every direction, so each
    rotation/inversion class reaches the forward traversal of its least
    edge, and pruned subtrees keep the order of the rest: the first path per
    class is the one an unrooted DFS from both directions of every edge
    finds first.
    """
    rank, limit, mends, alone, steps_at, roots = tables or _walk_tables(g, wf, threshold, zsub)
    if starts is None:
        starts = roots
    results: list[tuple[tuple[Traversal, ...], frozenset, int]] = []
    steps = 0
    for e0, group in itertools.groupby(starts, key=lambda state: state[0][0].edge):
        stack = list(group)
        t0, root = stack[0][0][0], rank[e0.edge_id]
        home = t0.start
        stack.reverse()
        while stack:
            path, used, run_seen, marked = stack.pop()
            if prune and prune(path):
                continue
            steps += 1
            if steps > budget:
                raise WalkBudgetError("closed-walk enumeration budget exceeded")
            last = path[-1]
            cur = last.end
            if cur == home:
                # internal junctions are reduced-or-marked by construction
                if last.edge is not e0 or last.direction > 0:
                    results.append((path, marked, used))
                elif len(marked) < MAX_MARKED and mends(last):
                    results.append((path, marked | {len(path) - 1}, used))
            if len(path) >= max_len:
                if leaves is not None:
                    leaves.append((path, used, run_seen, marked))
                continue
            last_edge, turn = last.edge, -last.direction
            for t, edge, direction, end, w, r, turnable in steps_at[cur]:
                if w is None:
                    # a zero run never turns back: it is vertex-simple, and
                    # revisits belong to pumps
                    if end not in run_seen:
                        stack.append((path + (t,), used, run_seen | {end}, marked))
                elif r >= root and used + w < limit:
                    if edge is not last_edge or direction != turn:
                        stack.append((path + (t,), used + w, alone[end], marked))
                    elif turnable and len(marked) < MAX_MARKED:
                        stack.append((path + (t,), used + w, alone[end], marked | {len(path) - 1}))
    return results
