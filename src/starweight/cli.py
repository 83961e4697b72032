"""Command-line entry point and corpus runner.

Exit codes: 0 = success / Aspherical / Solvable; 1 = verified negative
(potential violations, Unknown verdict, corpus mismatch); 2 = usage or
input error; 3 = a resource limit: the run ran out of closed-walk budget or
met a light closed path with more than ``MAX_MARKED`` marked junctions, or a
word needed more eq rewrites than the rewrite cap allows, and nothing is
claimed.  All output is deterministic for golden-file regression.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .curvature import region_curvature
from .equations import EquationError, classify, parse_equation
from .facts import FactBase, RewriteCapError
from .scenario import Scenario, ScenarioError, parse_rational, parse_scenario, print_scenario
from .search import SearchConfig, search_weights, weight_lines
from .stargraph import build_star_graph, export_dot, vertex_name
from .weights import (
    WalkBudgetError,
    WeightFunction,
    enumerate_light_cycles,
    enumerate_trivial_cycles,
    render_report,
    verify_weight_test,
)
from .words import parse_int

RESOURCE_LIMIT, USAGE_ERROR, NEGATIVE, OK = 3, 2, 1, 0


def _load(path: str) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    return parse_scenario(text, name=Path(path).stem)


def _kv(pairs) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs)


def cmd_parse(args) -> int:
    s = _load(args.scenario)
    sys.stdout.write(print_scenario(s))
    return OK


def cmd_star(args) -> int:
    s = _load(args.scenario)
    g = build_star_graph(s.presentation)
    sys.stdout.write(f"vertices: {' '.join(vertex_name(v) for v in g.vertices)}\n")
    sys.stdout.write(f"edges: {len(g.edges)}\n")
    if args.edges:
        for e in g.edges:
            sys.stdout.write(
                f"{e.edge_id}  {vertex_name(e.src)} -> {vertex_name(e.dst)}"
                f"  label {e.label_str()}  factor {e.factor}\n"
            )
    if args.dot:
        dot = export_dot(g)
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")
    return OK


def cmd_check_weights(args) -> int:
    s = _load(args.scenario)
    report = verify_weight_test(s)
    if args.json:
        pairs = [("scenario", s.name), ("verdict", report.verdict)]
        for rc in report.relator_checks:
            pairs.append((f"relator.{rc.relator}.sum", rc.total))
            pairs.append((f"relator.{rc.relator}.pass", str(rc.passed).lower()))
        for i, fv in enumerate(report.families):
            pairs.append((f"family.{i}.label", fv.family.display()))
            pairs.append((f"family.{i}.weight", fv.family.weight))
            pairs.append((f"family.{i}.refuted", str(fv.refuted).lower()))
        sys.stdout.write(_kv(pairs))
    else:
        sys.stdout.write(render_report(report))
    return OK if report.verdict == "Aspherical" else NEGATIVE


def cmd_search_weights(args) -> int:
    s = _load(args.scenario)
    out = search_weights(s, SearchConfig(max_iterations=args.max_iter))
    if args.json:
        pairs = [("scenario", s.name), ("status", out.status), ("iterations", out.iterations)]
        if out.weights is not None:
            for k, v in sorted(out.weights.items()):
                pairs.append((f"weight.{k}", v))
        sys.stdout.write(_kv(pairs))
    else:
        sys.stdout.write(f"status: {out.status} after {out.iterations} iterations\n")
        if out.found:
            sys.stdout.write(weight_lines(out.weights))
        elif out.status == "infeasible":
            for label in out.certificate:
                sys.stdout.write(f"infeasible subset: {label}\n")
        else:
            for v in out.last_violations:
                sys.stdout.write(f"unresolved: {v}\n")
    return OK if out.found else NEGATIVE


def cmd_cycles(args) -> int:
    s = _load(args.scenario)
    g = build_star_graph(s.presentation)
    wf = WeightFunction.from_scenario(s, g)
    try:
        threshold = parse_rational(args.threshold)
    except ScenarioError:
        raise ValueError(f"bad threshold {args.threshold!r}") from None
    fams = enumerate_light_cycles(g, wf, threshold)
    for f in fams:
        sys.stdout.write(f"weight {f.weight}: {f.display()}\n")
    sys.stdout.write(f"total: {len(fams)}\n")
    return OK


def cmd_trivial_cycles(args) -> int:
    s = _load(args.scenario)
    g = build_star_graph(s.presentation)
    fb = FactBase(s.presentation, s.fact_decls)
    for c in enumerate_trivial_cycles(g, args.length, fb):
        sys.stdout.write(c.display() + "\n")
    return OK


def cmd_curvature(args) -> int:
    degrees = [parse_int(x) for x in args.degrees.split(",") if x]
    expr = region_curvature(degrees, boundary=bool(args.boundary))
    sys.stdout.write(str(expr) + "\n")
    return OK


def cmd_classify_equation(args) -> int:
    if args.word:
        w = parse_equation(args.word.split())
    else:
        if not args.scenario:
            raise EquationError("need --word or a scenario file")
        s = _load(args.scenario)
        w = _equation_from_scenario(s)
    rep = classify(w)
    if args.json:
        pairs = [
            ("word", str(w)),
            ("k", w.k),
            ("exponent_sum", rep.exponent_sum),
            ("syllable_length", rep.syllable_length),
            ("max", rep.max_value),
            ("max_count", rep.max_count),
            ("min", rep.min_value),
            ("min_count", rep.min_count),
            ("pair_pattern", rep.pair_pattern),
            ("verdict", rep.verdict),
        ]
        sys.stdout.write(_kv(pairs))
    else:
        sys.stdout.write(f"word: {w}\n")
        for line in rep.trace:
            sys.stdout.write(f"  {line}\n")
        verdict = f"SolvableBy({rep.verdict})" if rep.solvable else "Unknown"
        sys.stdout.write(f"verdict: {verdict}\n")
    return OK if rep.solvable else NEGATIVE


def _equation_from_scenario(s: Scenario):
    from .equations import EquationWord

    p = s.presentation
    if len(p.relators) != 1 or len(p.indeterminates) != 1:
        raise EquationError("equation scenarios need exactly one relator and one indeterminate")
    t = p.indeterminates[0]
    coeffs, exps = [], []
    pending: list[str] = []
    for name, exp in p.relators[0].letters:
        if name == t:
            if len(pending) != 1:
                raise EquationError("relator is not in alternating a_i t^m(i) form")
            coeffs.append(pending[0])
            exps.append(exp)
            pending = []
        else:
            if exp != 1 or pending:
                raise EquationError("relator is not in alternating a_i t^m(i) form")
            pending.append(name)
    if pending:
        raise EquationError("relator is not in alternating a_i t^m(i) form")
    return EquationWord(tuple(coeffs), tuple(exps))


def cmd_corpus(args) -> int:
    root = Path(args.directory)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise ScenarioError(f"no manifest.txt in {root}")
    rows = []
    ok = True
    for raw in manifest.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ScenarioError(f"manifest line needs '<file> <expected> <locus>': {line!r}")
        fname, expected, locus = parts
        path = root / fname
        if not path.exists():
            raise ScenarioError(f"missing scenario {fname}")
        s = parse_scenario(path.read_text(encoding="utf-8"), name=Path(fname).stem)
        if expected == "build":
            build_star_graph(s.presentation)
            FactBase(s.presentation, s.fact_decls)
            got = "build"
        else:
            report = verify_weight_test(s)
            got = "aspherical" if report.verdict == "Aspherical" else "violations"
        match = got == expected
        ok = ok and match
        rows.append((fname, expected, got, match, locus))
    for fname, expected, got, match, locus in rows:
        status = "ok" if match else "MISMATCH"
        sys.stdout.write(f"{fname}: expected={expected} got={got} {status}  # {locus}\n")
    sys.stdout.write(f"scenarios: {len(rows)}  mismatches: {sum(1 for r in rows if not r[3])}\n")
    return OK if ok else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="starweight",
        description="star-graph weight-test workbench for relative presentations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a scenario and print its canonical form")
    sp.add_argument("scenario")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("star", help="build the star graph")
    sp.add_argument("scenario")
    sp.add_argument("--dot", help="write DOT to a file ('-' for stdout)")
    sp.add_argument("--edges", action="store_true", help="print the edge-id table")
    sp.set_defaults(func=cmd_star)

    sp = sub.add_parser("check-weights", help="run the weight test")
    sp.add_argument("scenario")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check_weights)

    sp = sub.add_parser("search-weights", help="search for an aspherical weight function")
    sp.add_argument("scenario")
    sp.add_argument("--max-iter", type=parse_int, default=64)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_search_weights)

    sp = sub.add_parser("cycles", help="enumerate light cycle families")
    sp.add_argument("scenario")
    sp.add_argument("--threshold", default="2")
    sp.set_defaults(func=cmd_cycles)

    sp = sub.add_parser("trivial-cycles", help="enumerate unrefuted closed-path labels")
    sp.add_argument("scenario")
    sp.add_argument("--length", type=parse_int, required=True)
    sp.set_defaults(func=cmd_trivial_cycles)

    sp = sub.add_parser("curvature", help="evaluate a region curvature")
    sp.add_argument("--degrees", required=True, help="comma-separated vertex degrees")
    sp.add_argument("--boundary", help="symbolic boundary degree slot (e.g. k0)")
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("classify-equation", help="classify equation solvability")
    sp.add_argument("scenario", nargs="?")
    sp.add_argument("--word", help="inline equation word, e.g. 'a1 t^2 a2 t^-1'")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify_equation)

    sp = sub.add_parser("corpus", help="corpus operations")
    csub = sp.add_subparsers(dest="corpus_command", required=True)
    run = csub.add_parser("run", help="run every manifest scenario")
    run.add_argument("directory")
    run.set_defaults(func=cmd_corpus)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else OK
    try:
        return args.func(args)
    except (WalkBudgetError, RewriteCapError) as e:
        sys.stderr.write(f"error: {e}\n")
        return RESOURCE_LIMIT
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
