"""Count what the closed-path walker does on the benchmark grid and the corpus.

For each cell of ``bench/expected/grid.json``, for the k=6, q=4 cell and
for the weighted corpus scenarios in total, it runs the weight test and
prints:

- pops: paths the walker pops for the family list;
- skeletons: closed paths it lists for the family list;
- families: families of the report.

skeletons - families is what the family list merges after the walk.  The
pops are counted by a ``prune`` that prunes nothing, which the walker asks
about every path it pops.  Standard library, the package and the
benchmark's ``workloads.grid_text`` only::

    python tests/walk_counts.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import starweight.weights as weights  # noqa: E402
from starweight.scenario import parse_scenario  # noqa: E402
from workloads import grid_text  # noqa: E402

EXTRA_CELLS = [(6, 4)]  # outside the benchmark grid; 2 795 families


def grid(k: int, q: int):
    """The benchmark's grid cell (k, q), with generators a1 .. ak."""
    return parse_scenario(grid_text(k, q, [f"a{i}" for i in range(1, k + 1)]))


def walk_counts(scenario) -> Counter:
    """pops, skeletons and families of one weight test."""
    counts: Counter = Counter()
    walk = weights._closed_walks

    def counted(g, wf, threshold, zsub, max_len, budget):
        def count(path):
            counts["pops"] += 1
            return False

        out = walk(g, wf, threshold, zsub, max_len, budget, count)
        counts["skeletons"] += len(out)
        return out

    weights._closed_walks = counted
    try:
        report = weights.verify_weight_test(scenario)
    finally:
        weights._closed_walks = walk
    counts["families"] = len(report.families)
    return counts


def rows() -> list[tuple[str, Counter]]:
    """One row per benchmark grid cell, their total, the extra cells and the
    weighted corpus in total."""
    cells = json.loads((ROOT / "bench" / "expected" / "grid.json").read_text(encoding="utf-8"))["cells"]
    out = [(f"grid_k{k}_q{q}", walk_counts(grid(k, q))) for k, q in [(c["k"], c["q"]) for c in cells]]
    out.append(("grid total", sum((counts for _, counts in out), Counter())))
    out += [(f"grid_k{k}_q{q}", walk_counts(grid(k, q))) for k, q in EXTRA_CELLS]
    corpus: Counter = Counter()
    for path in sorted((ROOT / "src" / "starweight" / "corpus").glob("*.scn")):
        s = parse_scenario(path.read_text(encoding="utf-8"), name=path.stem)
        if s.weights:
            corpus.update(walk_counts(s))
    out.append(("corpus (weighted)", corpus))
    return out


COLUMNS = ("pops", "skeletons", "families")


def main() -> int:
    print(f"{'input':<18}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, counts in rows():
        print(f"{name:<18}" + "".join(f"{counts[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
