"""One timed pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (stop once the inputs are parsed), ``pass`` (verify every
input) or ``trace`` (a pass with spans recorded; the spans are written to
SPANS_FILE). The result is one JSON object on stdout. Times are
``time.perf_counter`` readings, which on Linux come from the system-wide
monotonic clock, so the parent can subtract its own launch time.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads

INPUT_CAP_S = 60.0  # per-input wall-clock cap; an input over it counts as failed


class InputTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


def _program():
    """The program's public functions, looked up after any wrapping."""
    from starweight import scenario, search, stargraph, facts, weights

    return SimpleNamespace(
        parse_scenario=scenario.parse_scenario,
        build_star_graph=stargraph.build_star_graph,
        FactBase=facts.FactBase,
        verify_weight_test=weights.verify_weight_test,
        render_report=weights.render_report,
        search_weights=search.search_weights,
        SearchConfig=search.SearchConfig,
        scenario_with_weights=search.scenario_with_weights,
    )


def run_one(sw, item: workloads.Input, s):
    """Verify one parsed input the way the user would; returns its outcome."""
    if item.kind == "build":
        sw.build_star_graph(s.presentation)
        sw.FactBase(s.presentation, s.fact_decls)
        return None
    if item.kind == "verify":
        report = sw.verify_weight_test(s)
        return report, sw.render_report(report)
    if item.kind == "grid":
        return sw.verify_weight_test(s)
    return sw.search_weights(s, sw.SearchConfig(max_iterations=64))


def run_pass(sw, items, parsed, tracer=None):
    """Time each input; an exception or the cap marks it failed, never dropped."""
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    for i, (item, s) in enumerate(zip(items, parsed)):
        if tracer is not None:
            tracer.input_id = i
        outcome, error = None, ""
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INPUT_CAP_S)
        try:
            outcome = run_one(sw, item, s)
        except InputTimeout:
            error = f"over the {INPUT_CAP_S:g} s cap"
        except Exception as e:  # the pass must go on; the input counts as failed
            error = "".join(traceback.format_exception_only(e)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append({"name": item.name, "seconds": perf_counter() - start, "error": error, "outcome": outcome})
    return records, perf_counter() - t0


def check_records(sw, items, records) -> None:
    """Replace each record's outcome by the reason it is wrong ("" when right)."""
    for item, rec in zip(items, records):
        outcome = rec.pop("outcome")
        if rec["error"]:
            continue
        try:
            rec["error"] = workloads.check(item, outcome, sw)
        except Exception as e:
            rec["error"] = "check raised " + "".join(traceback.format_exception_only(e)).strip()


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    src = workloads.ROOT / "src"
    sys.path.insert(0, str(src))
    import starweight

    if not Path(starweight.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"starweight was imported from {starweight.__file__}, not from {src}")
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    sw = _program()
    items = workloads.inputs(workload, seed)
    parse_start = perf_counter()
    parsed = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.input_id = i
        parsed.append(sw.parse_scenario(item.text, name=item.name))
    ready = perf_counter()
    result = {"ready": ready}
    if mode != "setup":
        records, loop_s = run_pass(sw, items, parsed, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.active = False
        check_records(sw, items, records)
        times = [r["seconds"] for r in records]
        result.update(
            loop_s=loop_s,
            inputs=len(records),
            failed=[f"{r['name']}: {r['error']}" for r in records if r["error"]],
            times={r["name"]: r["seconds"] for r in records},
            p50=statistics.median(times),
            max=max(times),
        )
        if tracer is not None:
            layers = spans.layer_metrics(tracer, (ready - parse_start) + loop_s)
            result["layers"] = layers
            tracer.write(argv[4])
        import spans  # after the pass: importing it installs nothing

        result["wrapped_bindings"] = spans.wrapped_bindings()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
