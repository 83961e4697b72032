"""The closed-path walker before it bounded each prefix by the way back to
its start, verbatim: the differential oracle for
``starweight.weights._closed_walks`` and ``_walk_tables``.

It stops a path only once the weight it has spent reaches the threshold,
so it also pops the prefixes that no light closed path extends.  It drops
every path with more than its own ``MAX_MARKED`` marked junctions, as the
walker then did; the program's walker raises ``WalkBudgetError`` on such a
path when it would list it, and a test lifts the cap here to see it do so.
``tests/test_weights.py`` checks that the program's walker lists the same
paths, with the same marked sets and weights, in the same order, and pops
no more of them.  The necklace helpers did not change and come from the
program.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction

from starweight.stargraph import StarGraph, Traversal
from starweight.weights import (
    WalkBudgetError,
    WeightFunction,
    _found_first,
    _necklace_step,
    _weight_scale,
    _ZeroSubgraph,
)

MAX_MARKED = 4  # backtrack junctions per skeleton, each mended by a mandatory pump


def _walk_tables(g: StarGraph, wf: WeightFunction, threshold: Fraction, zsub: _ZeroSubgraph) -> tuple:
    """The tables ``_closed_walks`` reads, which depend only on its first
    four arguments: the scaled threshold, the mend test, the one-vertex
    runs, the end of each step key, the steps out of each vertex and the
    root states.  The mend test is asked only about steps off the zero
    subgraph, the only ones a walk turns back over.  A step's key is 2 *
    its edge's index in ``g.edges``, plus 1 if it runs backwards: keys grow
    along ``g.incident``, which lists a vertex's steps by edge and a loop
    forwards first, the reverse step's key is key ^ 1, and a walk rooted at
    edge e0 steps onto a nonzero edge only if its key is at least 2 * the
    index of e0.  A caller that walks one graph several times builds them
    once.  Without a zero cycle there is no pump, so the mend test mends no
    turn and asks no vertex for pumps."""
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
    roots = [
        ((Traversal(e, +1),), weight[e.edge_id], alone[e.dst], frozenset(), (key[e.edge_id],), (), ())
        for e in g.edges
        if e.edge_id not in zero and weight[e.edge_id] < limit
    ]
    return limit, mends, alone, ends, steps_at, roots


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
    junctions, where a pump insertion is mandatory.  A walk with an
    unmendable turn has no reduced instance, so it yields no family, and
    neither does any walk through it: its subtree is skipped.  A zero run
    never turns back, as it is vertex-simple; the module docstring proves
    that no family is lost.

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
    limit, mends, alone, ends, steps_at, roots = tables or _walk_tables(g, wf, threshold, zsub)
    if starts is None:
        starts = roots
    results: list[tuple[tuple[Traversal, ...], frozenset, int]] = []
    steps = 0
    for ahead, group in itertools.groupby(starts, key=lambda state: state[4][0]):
        # ahead and back are the keys of t0 and of its reverse
        stack = list(group)
        home, back = stack[0][0][0].start, ahead + 1
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
                if last != back:
                    results.append((path, marked, used))
                elif len(marked) < MAX_MARKED and mends(path[-1]):
                    results.append((path, marked | {n - 1}, used))
            if n >= max_len:
                if leaves is not None:
                    leaves.append((path, used, run_seen, marked, keys, ties, mirrors))
                continue
            turn = last ^ 1
            for t, end, w, k, turnable in steps_at[cur]:
                if w is None:
                    # a zero run never turns back: it is vertex-simple, and
                    # revisits belong to pumps
                    if end in run_seen:
                        continue
                    u, seen, m = used, run_seen | {end}, marked
                elif k < ahead or used + w >= limit:
                    continue
                elif k != turn:
                    u, seen, m = used + w, alone[end], marked
                elif turnable and len(marked) < MAX_MARKED:
                    u, seen, m = used + w, alone[end], marked | {n - 1}
                else:
                    continue
                if not ties and k | 1 != back:
                    stack.append((path + (t,), u, seen, m, keys + (k,), ties, mirrors))
                elif (necklace := _necklace_step(keys, ties, mirrors, k)) is not None:
                    stack.append((path + (t,), u, seen, m, keys + (k,), *necklace))
    return results
