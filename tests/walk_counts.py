"""Count what the closed-path walker does on the benchmark grid and the corpus.

For each cell of ``bench/expected/grid.json``, for the k=6, q=4 cell, for
the weighted corpus scenarios in total and for the searches of every corpus
scenario with its weights removed, in total, it prints what the family
lists' walks did:

- pops: paths the walker pops for the family lists;
- unbounded: paths ``tests/oracle_unbounded_walker.py``, the walker before
  it bounded each prefix by its least way back to its start, pops for the
  same walks; it lists the same paths, so pops never exceeds it;
- skeletons: closed paths the walker lists for the family lists;
- families: families of the family lists;
- keyed: candidates the family lists key by ``_dedup_key``, power
  families included; a pump-free walk over uniquely labelled edges is a
  family without a key;
- merged: keyed candidates whose key an earlier one of the same list
  holds, which become no family;
- longest: traversals of the longest skeleton;
- marked: the most marked junctions of one skeleton, which ``MAX_MARKED``
  caps.

A skeleton with mandatory pumps yields one candidate per choice of them,
and the power families of the zero cycles come on top, so families can
outnumber skeletons; merged is what the family lists merge.  Both pop
counts come from a ``prune`` that prunes nothing, which a walker asks about
every path it pops.  A search lists the families of each candidate it
verifies; the walks of its light-walk cuts are not counted.  Standard
library, the package and the benchmark's ``workloads.grid_text`` only::

    python tests/walk_counts.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracle_unbounded_walker  # noqa: E402
import starweight.weights as weights  # noqa: E402
from starweight.scenario import parse_scenario  # noqa: E402
from starweight.search import search_weights  # noqa: E402
from workloads import grid_text  # noqa: E402

EXTRA_CELLS = [(6, 4)]  # outside the benchmark grid; 2 795 families
SUMMED = ("pops", "unbounded", "skeletons", "families", "keyed", "merged")
GREATEST = ("longest", "marked")


def grid(k: int, q: int):
    """The benchmark's grid cell (k, q), with generators a1 .. ak."""
    return parse_scenario(grid_text(k, q, [f"a{i}" for i in range(1, k + 1)]))


@contextmanager
def counted(counts: Counter):
    """Within it, every family list adds its walk's counts to ``counts``."""
    walk, family_list, key = weights._closed_walks, weights.enumerate_light_cycles, weights._dedup_key

    def counted_walk(g, wf, threshold, zsub, max_len, budget):
        def counter(column):
            def count(path):
                counts[column] += 1
                return False

            return count

        out = walk(g, wf, threshold, zsub, max_len, budget, counter("pops"))
        oracle_unbounded_walker._closed_walks(g, wf, threshold, zsub, max_len, budget, counter("unbounded"))
        counts["skeletons"] += len(out)
        counts["longest"] = max([counts["longest"], *(len(path) for path, _, _ in out)])
        counts["marked"] = max([counts["marked"], *(len(marked) for _, marked, _ in out)])
        return out

    def counted_families(*args):
        keys = []

        def counted_key(*key_args):
            keys.append(key(*key_args))
            return keys[-1]

        weights._closed_walks, weights._dedup_key = counted_walk, counted_key
        try:
            out = family_list(*args)
        finally:
            weights._closed_walks, weights._dedup_key = walk, key
        counts["families"] += len(out)
        counts["keyed"] += len(keys)
        counts["merged"] += len(keys) - len(set(keys))
        return out

    weights.enumerate_light_cycles = counted_families
    try:
        yield
    finally:
        weights.enumerate_light_cycles = family_list


def walk_counts(scenario) -> Counter:
    """The counts of one weight test."""
    counts: Counter = Counter()
    with counted(counts):
        weights.verify_weight_test(scenario)
    return counts


def combined(rows: list[Counter]) -> Counter:
    """The counts of several inputs: sums, and the greatest of each maximum."""
    return Counter({c: (sum if c in SUMMED else max)(row[c] for row in rows) for c in SUMMED + GREATEST})


def corpus() -> list:
    return [
        parse_scenario(path.read_text(encoding="utf-8"), name=path.stem)
        for path in sorted((ROOT / "src" / "starweight" / "corpus").glob("*.scn"))
    ]


def rows() -> list[tuple[str, Counter]]:
    """One row per benchmark grid cell, their total, the extra cells, the
    weighted corpus in total and the weight-stripped corpus searches in
    total."""
    cells = json.loads((ROOT / "bench" / "expected" / "grid.json").read_text(encoding="utf-8"))["cells"]
    out = [(f"grid_k{k}_q{q}", walk_counts(grid(k, q))) for k, q in [(c["k"], c["q"]) for c in cells]]
    out.append(("grid total", combined([counts for _, counts in out])))
    out += [(f"grid_k{k}_q{q}", walk_counts(grid(k, q))) for k, q in EXTRA_CELLS]
    out.append(("corpus (weighted)", combined([walk_counts(s) for s in corpus() if s.weights])))
    searches: Counter = Counter()
    with counted(searches):
        for s in corpus():
            search_weights(dataclasses.replace(s, weights=[]))
    out.append(("corpus searches", searches))
    return out


COLUMNS = SUMMED + GREATEST


def main() -> int:
    print(f"{'input':<18}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, counts in rows():
        print(f"{name:<18}" + "".join(f"{counts[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
