"""starweight benchmark: verify the workload's inputs for a fixed time and report.

    python3 bench/run.py --workload corpus|grid|search|all --seed N --seconds S --trace 0|1

Closed loop, one client: a single process on a single thread verifies one
input at a time, so no work ever waits in a queue. Every timed pass runs in
a fresh interpreter (``worker.py``), so state cached by one pass can never
help the next, just as each ``starweight`` command starts cold.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, whose spans are recorded from outside the program
(``spans.py``). ``--workload all`` runs the three workloads in turn and
prints every metric by name and unit, ``failed_share`` included.
The run record (metrics, per-pass data, Python version, ``nproc`` and hash
seed) and the span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from workloads import BENCH, ROOT, WORKLOADS

OUT = BENCH / "out"

SETUP_SAMPLES = 12  # set-up-only interpreters per run, spread over it; setup_s is their median
MIN_PASSES = 2  # a single pass of a long workload is one sample of a noisy machine
RUN_DEADLINE_S = 165.0  # a run must end within 180 s, whatever the program does

END_TO_END = (
    ("setup_s", "s"),
    ("inputs_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.max", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Run:
    """Spawns worker passes for one workload and keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed input
        self.errors: list[str] = []  # checks on the benchmark's own bookkeeping

    def spawn(self, mode: str, spans_file: str = "") -> dict | None:
        """One worker process; None when it ran past the run's deadline."""
        cmd = [sys.executable, str(BENCH / "worker.py"), self.workload, str(self.seed), mode]
        if spans_file:
            cmd.append(spans_file)
        timeout = max(1.0, RUN_DEADLINE_S - (perf_counter() - self.started))
        launched = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["ready"] - launched
        return result

    def setup_s(self) -> float:
        result = self.spawn("setup")
        if result is None:
            raise BenchError("setup ran past the deadline")
        return result["setup_s"]

    def timed_pass(self, mode: str, spans_file: str = "") -> dict | None:
        result = self.spawn(mode, spans_file)
        if result is None:
            names = [item.name for item in workloads.inputs(self.workload, self.seed)]
            self.attempted += len(names)
            self.failures += [f"{n}: {mode} pass ran past the {RUN_DEADLINE_S:g} s deadline" for n in names]
            return None
        self.attempted += result["inputs"]
        self.failures += result["failed"]
        if bool(result["wrapped_bindings"]) != (mode == "trace"):
            self.errors.append(f"{mode} pass saw {result['wrapped_bindings']} span wrappers")
        return result

    def passes(self, mode: str, seconds: float, least: int, between=None, spans_prefix: str = "") -> list[dict]:
        """``least`` passes, then more while another fits in ``seconds``;
        ``between`` runs after each pass."""
        done: list[dict] = []
        durations: list[float] = []
        start = perf_counter()
        while len(done) < least or perf_counter() - start + statistics.median(durations) <= seconds:
            spans_file = f"{spans_prefix}-{len(done)}.tsv.gz" if spans_prefix else ""
            launched = perf_counter()
            result = self.timed_pass(mode, spans_file)
            if result is None:
                break
            done.append(result)
            durations.append(perf_counter() - launched)
            if between is not None:
                between()
        if not done:
            raise BenchError(f"no {self.workload} pass finished before the deadline")
        return done


def verdict_stats(times: list[float]) -> tuple[float, float]:
    """(median, max) of one pass's per-input times to a verdict."""
    return statistics.median(times), max(times)


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    """Each timing is the median over the run's samples of it."""
    p50s, maxes = zip(*(verdict_stats(list(p["times"].values())) for p in passes))
    return {
        "setup_s": statistics.median(setups),
        "inputs_per_s": statistics.median(p["inputs"] / p["loop_s"] for p in passes),
        "verdict_s.p50": statistics.median(p50s),
        "verdict_s.max": statistics.median(maxes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    run = Run(workload, seed)
    run.setup_s()  # untimed: compiles bytecode once, as an installed package has it
    # Set-up samples are spread over the run so that they do not all fall
    # into one slow or fast phase of a shared machine.
    setups = [run.setup_s() for _ in range(SETUP_SAMPLES // 3)]
    passes = run.passes("pass", seconds, MIN_PASSES, between=lambda: setups.append(run.setup_s()))
    setups += [run.setup_s() for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = end_to_end(setups, passes)
    record = {"setup_samples": setups, "passes": passes}
    return run, metrics, record


def trace(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    import spans

    run = Run(workload, seed)
    run.setup_s()
    untraced = run.passes("pass", 0, 1)[0]
    traced = run.passes("trace", seconds, MIN_PASSES, spans_prefix=str(OUT / f"spans-{workload}-seed{seed}"))
    layers = [p["layers"] for p in traced]
    for i, lay in enumerate(layers):
        counts = {k: v for k, v in lay.items() if spans.is_count(k)}
        if counts != {k: v for k, v in layers[0].items() if spans.is_count(k)}:
            run.errors.append(f"traced pass {i} counted differently from pass 0")
        if abs(lay["trace.self_sum_s"] + lay["trace.unspanned_s"] - lay["trace.wall_s"]) > 1e-6:
            run.errors.append(f"traced pass {i}: self times plus remainder != wall time")
    metrics = spans.combine(layers)
    untraced_rate = untraced["inputs"] / untraced["loop_s"]
    metrics["trace.inputs_per_s"] = statistics.median(p["inputs"] / p["loop_s"] for p in traced)
    metrics["trace.overhead_inputs_per_s"] = metrics["trace.inputs_per_s"] - untraced_rate
    record = {"untraced_pass": untraced, "traced_passes": traced, "untraced_inputs_per_s": untraced_rate}
    return run, {k: metrics[k] for k, _ in spans.PER_LAYER}, record


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "platform": platform.platform(),
    }


def units(traced: bool) -> dict[str, str]:
    if traced:
        import spans

        return dict(spans.PER_LAYER)
    return dict(END_TO_END)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "starweight" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'starweight'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    unit = units(bool(args.trace))
    env = environment()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = errors = 0
    metrics: dict[str, dict] = {}
    try:
        for workload in chosen:
            run, values, record = (trace if args.trace else measure)(workload, args.seed, args.seconds)
            attempted += run.attempted
            failed += len(run.failures)
            errors += len(run.errors)
            for line in run.failures + run.errors:
                print(f"bench: {workload}: FAILED {line}", file=sys.stderr)
            failed_share = len(run.failures) / run.attempted
            record.update(env=env, workload=workload, seed=args.seed, seconds=args.seconds,
                          metrics=values, attempted=run.attempted, failures=run.failures,
                          errors=run.errors, failed_share=failed_share)
            name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            prefix = f"{workload}." if args.workload == "all" else ""
            for k, v in values.items():
                metrics[prefix + k] = {"value": v, "unit": unit[k]}
            if args.workload == "all":
                for k, v in values.items():
                    print(f"{workload:<7} {k:<42} {v:>14.6g} {unit[k]}")
                print(f"{workload:<7} {'failed_share':<42} {failed_share:>14.6g} share"
                      f"  ({len(run.failures)} of {run.attempted})")
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    correct = failed == 0 and errors == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
