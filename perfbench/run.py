"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse_fig13 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with every layer unwrapped and prints
the end-to-end metrics. ``--trace 1`` times it twice, first as above and
then with each layer's public functions wrapped in spans, and prints the
per-layer metrics of the traced run plus the tracing overhead; the spans
go to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every checked output was correct. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover - typing only
    from perfbench.tracing import Tracer
    from perfbench.workloads import Checker, RunResult, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is measured this many times (this process plus fresh
#: interpreters) and reported as the median.
SETUP_SAMPLES = 3

#: Reference-loop samples taken right after each set-up, to scale it to
#: the reference host's speed (perfbench/calibrate.py).
SETUP_SPEED_SAMPLES = 20

#: A set-up sample in a child interpreter must finish within this.
SETUP_TIMEOUT_S = 120


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print the set-up time as JSON, exit",
    )
    return parser.parse_args(argv)


def fix_run_conditions() -> None:
    """The conditions every run starts from, whatever the caller's shell."""
    # No on-disk tier: every cache state is made inside the run.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import obs

    # The program's own observability stays off; the benchmark traces
    # from outside (perfbench/tracing.py).
    obs.configure(enabled=False)


def child_setup_s(args: argparse.Namespace) -> Tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter, and the host slowdown."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return float(sample["setup_s"]), float(sample["host_slowdown"])


def host_slowdown() -> float:
    """How many times slower than the reference host this process runs now."""
    from perfbench.calibrate import HostSpeed

    speed = HostSpeed()
    speed.sample(repeats=SETUP_SPEED_SAMPLES)
    return speed.run_factor()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_report(
    workload: Workload, args: argparse.Namespace, results: Dict[str, RunResult],
    setups: List[Tuple[float, float]], metrics: Dict[str, Dict[str, object]],
) -> None:
    """Human-readable figures plus one JSON detail line, before the result."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("run conditions: REPRO_CACHE_DIR unset (no disk tier), repro.obs off, "
          f"{os.cpu_count()} cpus")
    for phase, result in results.items():
        print(f"[{phase}]")
        for name, (value, unit) in result.named.items():
            print(f"  {name:32s} {value:14.4f} {unit}")
        for name, summary in result.timings.items():
            if "p50" in summary:
                print(f"  {name:32s} p50 {summary['p50']:.4f}  "
                      f"p{summary['tail_pct']:g} {summary['tail']:.4f}  n={summary['n']}")
        print(f"  {'failed_ratio':32s} {failed_ratio(result.checker):14.4f} ratio "
              f"({result.checker.failed}/{result.checker.attempted})")
        for message in result.checker.messages:
            print(f"  MISMATCH {message}")
    print(f"  {'setup_s samples':32s} "
          f"{', '.join(f'{raw:.4f} s (slowdown {factor:.3f})' for raw, factor in setups)}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slots": workload.slots,
        "setup_s_samples": setups,
        "phases": {
            phase: {
                "named": result.named,
                "timings": result.timings,
                "failed_ratio": failed_ratio(result.checker),
            }
            for phase, result in results.items()
        },
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}, default=str))


def failed_ratio(checker: Checker) -> float:
    return checker.failed / checker.attempted if checker.attempted else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fix_run_conditions()
    from perfbench.workloads import SLOTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    own_setup = time.perf_counter() - START, host_slowdown()
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": own_setup[0], "host_slowdown": own_setup[1]}))
        return 0

    try:
        setups = [own_setup]
        if not args.trace:
            setups += [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        results = {"untraced": workload.run(args.seconds)}
        if args.trace:
            from perfbench.layers import instrument
            from perfbench.tracing import Tracer

            tracer = Tracer()
            instrument(tracer)
            try:
                results["traced"] = workload.run(args.seconds, tracer)
            finally:
                tracer.restore()
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer_metrics(workload, results, tracer)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        result = results["untraced"]
        metrics = {
            # At the reference host's speed, like the rates.
            "setup_s": {
                "value": statistics.median(raw / factor for raw, factor in setups),
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        for slot in SLOTS:
            value, unit = result.named[workload.slots[slot]]
            metrics[slot] = {"value": value, "unit": unit}

    attempted = sum(r.checker.attempted for r in results.values())
    failed = sum(r.checker.failed for r in results.values())
    print_report(workload, args, results, setups, metrics)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


def per_layer_metrics(
    workload: Workload, results: Dict[str, RunResult], tracer: Tracer
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric of the traced run, plus the tracing overhead."""
    from perfbench.layers import layer_values, per_layer_names

    traced = results["traced"]
    basis = workload.overhead_basis
    untraced_rate = results["untraced"].named[basis][0]
    traced_rate = traced.named[basis][0]
    values = layer_values(tracer)
    values.update({
        "serve.wait_s": 0.0,
        "serve.gen_lag_ms": 0.0,
        "serve.requests.sent": 0,
        "serve.requests.ok": 0,
        "serve.requests.failed": 0,
        "serve.requests.busy_503": 0,
    })
    values.update(traced.layer_extra)
    values["unattributed_share"] = traced.unattributed_share
    values["trace_overhead_ratio"] = (
        untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
