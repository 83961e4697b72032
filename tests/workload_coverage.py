"""Print the statements of the package that no benchmark workload runs.

It runs one seed-1 pass of each workload of ``bench/run.py`` (corpus, grid
and search), in process and the way the benchmark's worker runs one: every
input parsed, then verified by ``worker.run_one`` and checked by
``workloads.check``.  A ``sys.settrace`` hook records every line the
package's code runs meanwhile.  A function's statements are the lines that
hold its bytecode, that of its lambdas and comprehensions included, less
the ``def`` line itself.  For each function of ``src/starweight`` with a
statement no pass ran, it prints the function's qualified name and how
many of its lines ran, then, unless none ran, each line that did not; last
the totals.  Standard library, the package and the benchmark's
``workloads`` and ``worker`` only::

    python tests/workload_coverage.py

It exits 1 if an input fails its check.  What it lists is code whose
behaviour the benchmark cannot see: a change there moves no benchmark
metric, whatever it does.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "starweight"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def ran_lines() -> tuple[dict[str, set[int]], list[str]]:
    """Per package file, the lines a seed-1 pass of every workload ran, and
    one line per input that failed its check."""
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(SRC) + "/"

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran[code.co_filename].add(code.co_firstlineno)
        return line

    failures = []
    sw = worker._program()
    for name in workloads.WORKLOADS:
        items = workloads.inputs(name, SEED)
        sys.settrace(call)
        try:
            outcomes = []
            for item in items:
                outcomes.append(worker.run_one(sw, item, sw.parse_scenario(item.text, name=item.name)))
        finally:
            sys.settrace(None)
        for item, outcome in zip(items, outcomes):
            error = workloads.check(item, outcome, sw)
            if error:
                failures.append(f"{name} {item.name}: {error}")
    return ran, failures


def functions(path: Path) -> list[tuple[str, int, set[int]]]:
    """(qualified name, def line, statement lines) of each function of one
    module, in source order."""
    source = path.read_text(encoding="utf-8")
    names: dict[tuple[str, int], str] = {}

    def name_defs(node, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{scope}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not isinstance(child, ast.ClassDef):
                    names[child.name, first] = qualname
                name_defs(child, qualname + ".")
            else:
                name_defs(child, scope)

    name_defs(ast.parse(source), "")
    out = []

    def lines_of(code: CodeType) -> set[int]:
        """Its lines and those of its anonymous inner code."""
        lines = {ln for _, _, ln in code.co_lines() if ln is not None}
        for const in code.co_consts:
            if isinstance(const, CodeType) and (const.co_name, const.co_firstlineno) not in names:
                lines |= lines_of(const)
        return lines

    def walk(code: CodeType):
        for const in code.co_consts:
            if isinstance(const, CodeType):
                key = (const.co_name, const.co_firstlineno)
                if key in names:
                    out.append((names[key], const.co_firstlineno, lines_of(const) - {const.co_firstlineno}))
                walk(const)

    walk(compile(source, str(path), "exec"))
    return sorted(out, key=lambda item: item[1])


def main() -> int:
    ran, failures = ran_lines()
    for failure in failures:
        print("failed:", failure, file=sys.stderr)
    total = missed = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        done = ran.get(str(path), set())
        for qualname, first, lines in functions(path):
            lost = sorted(lines - done)
            total += len(lines)
            missed += len(lost)
            if not lost:
                continue
            print(f"{path.name}:{first} {qualname}: {len(lines) - len(lost)} of {len(lines)} lines run")
            if len(lost) == len(lines):
                unrun += 1
                continue
            for ln in lost:
                print(f"  {ln:5d}  {text[ln - 1].strip()}")
    print(f"{missed} of {total} function lines run by no workload; {unrun} functions never run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
