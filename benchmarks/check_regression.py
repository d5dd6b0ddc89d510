"""Benchmark regression gate for CI.

Compares a fresh ``pytest-benchmark --benchmark-json`` report against
the committed baseline and fails (exit 1) when any shared benchmark's
mean time regressed by more than the tolerance.

Raw wall-clock comparisons across different machines are meaningless,
so when both reports contain the pure-Python calibration benchmark
(``test_bench_calibration`` in ``bench_exec_backend.py``), every mean
is first normalized by that machine's calibration time. Benchmarks
present in only one report are listed but never fail the gate.

``--only SUBSTR`` restricts the gate to matching benchmarks — how CI
applies a tight tolerance to just the tracing-overhead kernel.

``--phases BENCH_obs.json`` additionally compares the per-engine-phase
time *shares* (fractions of summed phase self-time, machine-independent
by construction) against ``--phases-baseline``; a phase whose share
drifted by more than ``--phase-tolerance`` fails the gate.

``--comm BENCH_comm.json`` gates the communication-capability pruning
report from ``bench_comm_pruning.py``: optima on reduction-capable
hardware must be bit-identical with the screen on, and on
reduction-free hardware at least ``--comm-min-skip`` of the baseline
sweep's cost-model calls must be avoided. Both figures are
deterministic counts, so no machine normalization is needed.

``--vector BENCH_vector.json`` gates the vector-engine report from
``bench_vector.py``: zero parity violations against the scalar engines,
at least ``--vector-min-speedup`` points/sec over them (a same-machine
ratio, so no normalization is needed), and a fallback rate within
``--vector-max-fallback``.

``--equiv BENCH_equiv.json`` gates the equivalence-pruning report from
``bench_equiv.py``: the pruned sweep over the enriched mapping axis
(transposed twins + redundant spellings) must be bit-identical to the
exhaustive sweep and avoid at least ``--equiv-min-skip`` of its
cost-model calls.

``--serve BENCH_serve.json`` gates the serving-layer report from
``bench_serve.py``: the sharded server-side DSE front must be
bit-identical to the in-process explorer, repeated identical queries
must hit the shared cache at least ``--serve-min-hit`` of the time, and
the warm analyze load's p99 latency must stay under ``--serve-max-p99``
milliseconds.

Each per-subsystem gate is one :class:`SubsystemGate` entry in the
``SUBSYSTEM_GATES`` registry — the flag, its threshold options, the
section heading, and the failure-report label all come from the table,
so adding a gate is a single new entry plus its ``*_failures`` checker.

A missing or malformed report file fails with a one-line error, not a
stack trace.

``--list-gates`` prints the registry and exits; the ``current``
positional is optional, so a lane that only produced a subsystem report
can run e.g. ``check_regression.py --serve BENCH_serve.json`` alone.

Usage::

    python benchmarks/check_regression.py [current.json] [--list-gates] \
        [--baseline benchmarks/baseline.json] [--tolerance 0.25] \
        [--only SUBSTR] \
        [--phases BENCH_obs.json] [--phases-baseline baseline_obs.json] \
        [--phase-tolerance 0.15] \
        [--comm BENCH_comm.json] [--comm-min-skip 0.20] \
        [--vector BENCH_vector.json] [--vector-min-speedup 20] \
        [--vector-max-fallback 0.0] \
        [--equiv BENCH_equiv.json] [--equiv-min-skip 0.25] \
        [--serve BENCH_serve.json] [--serve-min-hit 0.9] \
        [--serve-max-p99 1000]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

CALIBRATION = "test_bench_calibration"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_PHASES_BASELINE = Path(__file__).resolve().parent / "baseline_obs.json"


def load_report(path: Path, what: str) -> dict:
    """Read and parse one JSON report, failing with a one-line error.

    A missing or malformed report is an operator mistake (wrong path,
    interrupted bench run), not a bug in this gate — so it exits with a
    single clear message instead of a stack trace.
    """
    try:
        text = path.read_text()
    except OSError as error:
        raise SystemExit(
            f"error: cannot read {what} report {path}: "
            f"{error.strerror or error}"
        )
    try:
        document = json.loads(text)
    except ValueError as error:
        raise SystemExit(f"error: malformed JSON in {what} report {path}: {error}")
    if not isinstance(document, dict):
        raise SystemExit(
            f"error: malformed {what} report {path}: expected a JSON object, "
            f"got {type(document).__name__}"
        )
    return document


def load_means(path: Path) -> dict:
    """Map benchmark fullname -> mean seconds from a benchmark-json report."""
    report = load_report(path, "benchmark")
    try:
        return {
            bench["fullname"]: bench["stats"]["mean"]
            for bench in report["benchmarks"]
        }
    except (KeyError, TypeError) as error:
        raise SystemExit(
            f"error: malformed benchmark report {path}: "
            f"missing or mistyped key {error}"
        )


def calibration_time(means: dict) -> float:
    for fullname, mean in means.items():
        if CALIBRATION in fullname:
            return mean
    return 1.0


def phase_share_failures(
    current_path: Path, baseline_path: Path, tolerance: float
) -> list:
    """Engine phases whose share of total time drifted beyond tolerance."""
    current = load_report(current_path, "phase-share").get("phases", {})
    baseline = load_report(baseline_path, "phase-share baseline").get("phases", {})
    failures = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline or name not in current:
            print(f"  PHASE-NEW {name} (present in one report only, skipped)")
            continue
        delta = current[name]["share"] - baseline[name]["share"]
        verdict = "ok"
        if abs(delta) > tolerance:
            verdict = "DRIFTED"
            failures.append((name, delta))
        print(
            f"  {verdict:10s}{name}: share {baseline[name]['share']:.1%} -> "
            f"{current[name]['share']:.1%} ({delta:+.1%})"
        )
    return failures


def comm_failures(path: Path, min_skip: float) -> list:
    """Soundness and effectiveness gate for the comm pruning report."""
    report = load_report(path, "comm-pruning")
    failures = []
    if not report["bit_identical"]:
        failures.append(
            "comm-pruned optima differ on reduction-capable hardware "
            "(soundness violation)"
        )
    skip = report["skip_fraction"]
    verdict = "ok"
    if skip < min_skip:
        verdict = "TOO FEW"
        failures.append(
            f"only {skip:.1%} of cost-model calls avoided on reduction-free "
            f"hardware (need {min_skip:.0%})"
        )
    print(
        f"  {verdict:10s}{report['sweep']}: bit_identical="
        f"{report['bit_identical']}, {report['calls_avoided']}/"
        f"{report['baseline_cost_model_calls']} calls avoided ({skip:.1%}), "
        f"{report['comm_rejects']} comm-race rejects"
    )
    return failures


def vector_failures(path: Path, min_speedup: float, max_fallback: float) -> list:
    """Parity and throughput gate for the vector-engine report.

    Parity violations are deterministic and always fatal; the speedup is
    a same-machine ratio of best-of-N timings (machine-independent by
    construction), so it is gated directly against ``--vector-min-speedup``.
    """
    report = load_report(path, "vector-engine")
    try:
        sweep = report["sweep"]
        speedup = report["speedup"]
        violations = report["parity_violations"]
        checked = report["parity_points_checked"]
        fallback = report["fallback_rate"]
    except KeyError as error:
        raise SystemExit(
            f"error: malformed vector-engine report {path}: missing key {error}"
        )
    failures = []
    verdict = "ok"
    if violations:
        verdict = "MISMATCH"
        failures.append(
            f"{violations} parity violation(s) between the vector and scalar "
            f"engines over {checked} grid points"
        )
    if speedup < min_speedup:
        verdict = "TOO SLOW"
        failures.append(
            f"vector engine only x{speedup:.1f} over scalar "
            f"(need x{min_speedup:.0f})"
        )
    if fallback > max_fallback:
        verdict = "FALLBACKS"
        failures.append(
            f"{fallback:.1%} of points fell back to the scalar engines "
            f"(cap {max_fallback:.0%})"
        )
    print(
        f"  {verdict:10s}{sweep}: x{speedup:.1f} speedup, "
        f"{violations}/{checked} parity violations, "
        f"fallback rate {fallback:.1%}"
    )
    return failures


def serve_failures(path: Path, min_hit: float, max_p99_ms: float) -> list:
    """Parity, cache, and latency gate for the serving-layer report.

    Shard parity and the repeat-query cache-hit ratio are deterministic;
    the p99 gate is wall-clock and deliberately loose — it exists to
    catch order-of-magnitude serving regressions (event-loop stalls,
    lost streaming, accidental sweep-per-request), not millisecond noise.
    """
    report = load_report(path, "serving")
    try:
        parity_ok = report["parity_ok"]
        hit_ratio = report["cache_hit_ratio"]
        p99_ms = report["p99_ms"]
        req_per_sec = report["req_per_sec"]
    except KeyError as error:
        raise SystemExit(
            f"error: malformed serving report {path}: missing key {error}"
        )
    failures = []
    verdict = "ok"
    if not parity_ok:
        verdict = "MISMATCH"
        failures.append(
            "sharded server-side DSE front differs from the in-process "
            "explorer (parity violation)"
        )
    if hit_ratio < min_hit:
        verdict = "COLD"
        failures.append(
            f"repeat-query cache-hit ratio {hit_ratio:.1%} below "
            f"{min_hit:.0%}"
        )
    if p99_ms > max_p99_ms:
        verdict = "TOO SLOW"
        failures.append(
            f"p99 request latency {p99_ms:.1f}ms over the "
            f"{max_p99_ms:.0f}ms cap"
        )
    print(
        f"  {verdict:10s}serve: parity_ok={parity_ok}, "
        f"cache hit {hit_ratio:.1%}, p99 {p99_ms:.1f}ms, "
        f"{req_per_sec:.0f} req/s"
    )
    return failures


def equiv_failures(path: Path, min_skip: float) -> list:
    """Soundness and effectiveness gate for the equivalence-pruning report."""
    report = load_report(path, "equivalence-pruning")
    failures = []
    verdict = "ok"
    if report["parity_violations"] or not report["bit_identical"]:
        verdict = "MISMATCH"
        failures.append(
            "equiv-pruned sweep differs from exhaustive on the enriched "
            "mapping axis (soundness violation)"
        )
    skip = report["skip_fraction"]
    if skip < min_skip:
        verdict = "TOO FEW"
        failures.append(
            f"only {skip:.1%} of cost-model calls avoided via equivalence "
            f"classes (need {min_skip:.0%})"
        )
    print(
        f"  {verdict:10s}{report['sweep']}: bit_identical="
        f"{report['bit_identical']}, {report['calls_avoided']}/"
        f"{report['baseline_cost_model_calls']} calls avoided ({skip:.1%}), "
        f"{report['equiv_replays']} outcomes replayed"
    )
    return failures


@dataclass(frozen=True)
class SubsystemGate:
    """One table entry: a ``--<name> REPORT.json`` gate and its options.

    ``check`` receives the report path plus the parsed argparse namespace
    (so threshold options registered via ``options`` are reachable by
    their dests) and returns a list of failure messages.
    """

    name: str  # flag (--<name>) and argparse dest for the report path
    metavar: str
    help: str
    heading: str  # section header printed before the check runs
    label: str  # "<label> gate failure(s)" in the stderr report
    check: Callable[[Path, argparse.Namespace], list]
    options: Tuple[Tuple[str, dict], ...] = field(default_factory=tuple)


SUBSYSTEM_GATES: Tuple[SubsystemGate, ...] = (
    SubsystemGate(
        name="comm",
        metavar="BENCH_comm.json",
        help="also gate the comm-capability pruning report from "
        "bench_comm_pruning.py",
        heading="communication-capability pruning",
        label="comm-pruning",
        check=lambda path, args: comm_failures(path, args.comm_min_skip),
        options=(
            (
                "--comm-min-skip",
                dict(
                    type=float,
                    default=0.20,
                    help="minimum fraction of cost-model calls comm pruning "
                    "must avoid on reduction-free hardware",
                ),
            ),
        ),
    ),
    SubsystemGate(
        name="vector",
        metavar="BENCH_vector.json",
        help="also gate the vector-engine parity + throughput report from "
        "bench_vector.py",
        heading="vector-engine parity + throughput",
        label="vector-engine",
        check=lambda path, args: vector_failures(
            path, args.vector_min_speedup, args.vector_max_fallback
        ),
        options=(
            (
                "--vector-min-speedup",
                dict(
                    type=float,
                    default=20.0,
                    help="minimum points/sec speedup of the vector engine "
                    "over the scalar engines (default 20)",
                ),
            ),
            (
                "--vector-max-fallback",
                dict(
                    type=float,
                    default=0.0,
                    help="maximum fraction of points allowed to fall back "
                    "to the scalar engines (default 0)",
                ),
            ),
        ),
    ),
    SubsystemGate(
        name="equiv",
        metavar="BENCH_equiv.json",
        help="also gate the equivalence-pruning parity + effectiveness "
        "report from bench_equiv.py",
        heading="equivalence-class pruning",
        label="equivalence-pruning",
        check=lambda path, args: equiv_failures(path, args.equiv_min_skip),
        options=(
            (
                "--equiv-min-skip",
                dict(
                    type=float,
                    default=0.25,
                    help="minimum fraction of cost-model calls equivalence "
                    "pruning must avoid on the enriched mapping axis "
                    "(default 0.25)",
                ),
            ),
        ),
    ),
    SubsystemGate(
        name="serve",
        metavar="BENCH_serve.json",
        help="also gate the serving-layer parity + cache + latency report "
        "from bench_serve.py",
        heading="analysis server (repro.serve)",
        label="serving",
        check=lambda path, args: serve_failures(
            path, args.serve_min_hit, args.serve_max_p99
        ),
        options=(
            (
                "--serve-min-hit",
                dict(
                    type=float,
                    default=0.9,
                    help="minimum cache-hit ratio on repeated identical "
                    "queries (default 0.9)",
                ),
            ),
            (
                "--serve-max-p99",
                dict(
                    type=float,
                    default=1000.0,
                    help="maximum p99 request latency in milliseconds for "
                    "the warm analyze load (default 1000)",
                ),
            ),
        ),
    ),

)


def print_gate_table() -> None:
    """Print the SubsystemGate registry (``--list-gates``)."""
    print("registered subsystem gates:")
    for gate in SUBSYSTEM_GATES:
        print(f"\n  --{gate.name} {gate.metavar}")
        print(f"      section: {gate.heading}")
        print(f"      label:   {gate.label}")
        if not gate.options:
            print("      options: (none)")
        for flag, options in gate.options:
            print(
                f"      option:  {flag} (default {options.get('default')!r})"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current", type=Path, nargs="?", default=None,
        help="fresh --benchmark-json report (omit to run only subsystem "
        "gates such as --serve)",
    )
    parser.add_argument(
        "--list-gates", action="store_true",
        help="print the registered SubsystemGate table and exit",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--only", default=None, metavar="SUBSTR",
        help="gate only benchmarks whose fullname contains SUBSTR",
    )
    parser.add_argument(
        "--phases", type=Path, default=None, metavar="BENCH_obs.json",
        help="also compare per-engine-phase time shares from obs_phases.py",
    )
    parser.add_argument(
        "--phases-baseline", type=Path, default=DEFAULT_PHASES_BASELINE,
    )
    parser.add_argument(
        "--phase-tolerance", type=float, default=0.15,
        help="allowed absolute drift per phase share (default 0.15)",
    )
    for gate in SUBSYSTEM_GATES:
        parser.add_argument(
            f"--{gate.name}", type=Path, default=None, metavar=gate.metavar,
            help=gate.help,
        )
        for flag, options in gate.options:
            parser.add_argument(flag, **options)
    args = parser.parse_args(argv)

    if args.list_gates:
        print_gate_table()
        return 0
    if args.current is None and args.phases is None and not any(
        getattr(args, gate.name) is not None for gate in SUBSYSTEM_GATES
    ):
        parser.error(
            "nothing to check: pass a benchmark report, --phases, or at "
            "least one subsystem gate (see --list-gates)"
        )

    failures = []
    if args.current is not None:
        baseline = load_means(args.baseline)
        current = load_means(args.current)
        base_cal = calibration_time(baseline)
        cur_cal = calibration_time(current)
        print(f"calibration: baseline {base_cal:.6f}s, current {cur_cal:.6f}s")

        for fullname in sorted(set(baseline) | set(current)):
            if CALIBRATION in fullname:
                continue
            if args.only is not None and args.only not in fullname:
                continue
            if fullname not in baseline:
                print(f"  NEW      {fullname} (no baseline, skipped)")
                continue
            if fullname not in current:
                print(f"  MISSING  {fullname} (not in current run, skipped)")
                continue
            ratio = (current[fullname] / cur_cal) / (baseline[fullname] / base_cal)
            verdict = "ok"
            if ratio > 1.0 + args.tolerance:
                verdict = "REGRESSED"
                failures.append((fullname, ratio))
            print(
                f"  {verdict:10s}{fullname}: {baseline[fullname]:.6f}s -> "
                f"{current[fullname]:.6f}s (normalized x{ratio:.2f})"
            )

    phase_failures = []
    if args.phases is not None:
        print("\nper-engine-phase time shares:")
        phase_failures = phase_share_failures(
            args.phases, args.phases_baseline, args.phase_tolerance
        )

    gate_errors: List[Tuple[SubsystemGate, list]] = []
    for gate in SUBSYSTEM_GATES:
        report_path = getattr(args, gate.name)
        if report_path is None:
            continue
        print(f"\n{gate.heading}:")
        errors = gate.check(report_path, args)
        if errors:
            gate_errors.append((gate, errors))

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:.0%}:", file=sys.stderr,
        )
        for fullname, ratio in failures:
            print(f"  {fullname}: x{ratio:.2f}", file=sys.stderr)
    if phase_failures:
        print(
            f"\n{len(phase_failures)} phase share(s) drifted beyond "
            f"{args.phase_tolerance:.0%}:", file=sys.stderr,
        )
        for name, delta in phase_failures:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
    for gate, errors in gate_errors:
        print(
            f"\n{len(errors)} {gate.label} gate failure(s):",
            file=sys.stderr,
        )
        for message in errors:
            print(f"  {message}", file=sys.stderr)
    if failures or phase_failures or gate_errors:
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
