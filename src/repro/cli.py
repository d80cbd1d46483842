"""Command-line interface: run solvers on SMT-LIB CHC files.

Usage (mirrors how the original RInGen binary was driven):

    python -m repro.cli problem.smt2                  # RInGen
    python -m repro.cli solve problem.smt2            # same (explicit verb)
    python -m repro.cli --solver elem problem.smt2    # the Elem baseline
    python -m repro.cli --timeout 60 --model problem.smt2

``--solver`` takes any name in :data:`repro.solvers.SOLVERS`: ``ringen``
(the default), ``elem``, ``sizeelem``, ``cvc4-ind``, ``verimap-iddt``,
and Table 1's aliases ``spacer`` (``elem``) and ``eldarica``
(``sizeelem``).

Prints ``sat`` / ``unsat`` / ``unknown`` on the first line; with
``--model`` the regular invariant (finite-model and automata views)
follows, and with ``--cex`` the refutation derivation is printed for
UNSAT answers.  Unknown answers distinguish a completed sweep ("no
finite model of total size <= N") from budget exhaustion on the reason
line.  ``--timeout`` takes a finite number of seconds greater than
zero; anything else is a usage error (exit code 2).

Campaign batch mode solves many files through one shared
:class:`~repro.mace.pool.EnginePool`, so signature-compatible problems
reuse a single persistent incremental engine (clauses, learned clauses,
heuristic state) instead of rebuilding it per file.  Files run grouped
by signature, in first-occurrence order, as
:func:`~repro.harness.runner.batch_order` schedules problems;
``--no-share`` keeps the command-line order:

    python -m repro.cli campaign a.smt2 b.smt2 c.smt2
    python -m repro.cli campaign --timeout 10 --no-share *.smt2  # ablation

One ``<file>: <status> (<seconds>s)`` line is printed per problem in
run order (suffixed ``[<error>]`` for a crashed, killed or OOM task),
followed by a summary of the pool's cross-problem reuse counters
(engines created, warm-engine hits, clauses inherited) and an
``; exec:`` line (tasks executed and resumed, retries, workers,
errors).  The exit code is the number of files that did not produce a
sat/unsat answer.

The command builds one task per file and runs them through
:func:`repro.exec.execute_tasks`, so a solver exception on one file
becomes that file's ``error:crash`` verdict and the remaining files are
still solved.  ``--isolate`` runs
each problem in a watchdogged worker subprocess, so hangs and OOMs
become per-problem ``error:*`` verdicts too, and ``--journal`` records
every verdict so an interrupted campaign resumes where it stopped:

    python -m repro.cli campaign --isolate --journal run.jsonl *.smt2
    python -m repro.cli campaign --resume run.jsonl *.smt2   # finish it
    python -m repro.cli campaign --isolate --mem-limit 2048 \\
        --max-retries 3 *.smt2

``--mem-limit`` takes MiB > 0 and ``--max-retries`` a count >= 0;
anything else is a usage error (exit code 2).

Warm cache (``--warm-cache DIR``, solve and campaign): persists each
engine's serialized state (clauses, learned clauses, heuristic scores,
per-signature refutation cores) to ``DIR`` when the run completes, and
warm-starts later runs over the same ADT signatures from it.  Verdicts
are unaffected — the cache only changes the solver state a run starts
from; corrupted, stale or incompatible cache entries are rejected and
the run falls back to a cold start:

    python -m repro.cli campaign --warm-cache .engines *.smt2  # cold
    python -m repro.cli campaign --warm-cache .engines *.smt2  # warm

A journal whose header records another solver configuration (its
fingerprint, e.g. from a build whose ``RInGenConfig`` differs) is
refused with exit code 2 before any problem runs, whether the campaign
resumes it or only appends to it.  A resumed journal may point at a
different (or no) warm cache: the fingerprint deliberately excludes it.

Observability (``solve`` and ``campaign``): ``--trace FILE`` records a
hierarchical span trace (JSONL; convert with ``python -m
repro.obs.tracer FILE out.json`` and open in chrome://tracing),
``--metrics FILE`` writes one merged metrics snapshot (counters, gauges
and timing histograms from every layer), ``--progress`` renders live
heartbeat lines (task, conflicts/sec, vectors, RSS) while solving, and
``--profile DIR`` dumps a cProfile pstats file per task.  All four are
off by default and the instrumented code paths are no-ops without
them — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Optional, Sequence

from repro.chc.parser import ParseError, parse_chc
from repro.solvers import SOLVERS, make_solver


def _seconds(text: str) -> float:
    """The ``--timeout`` type: a finite number of seconds > 0.  A NaN
    deadline would never expire, and the isolated supervisor cannot
    schedule a poll on it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, with the same message
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}"
        )
    return value


def _int_at_least(minimum: int):
    """An argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1  # rejected below, with the same message
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular invariant inference for CHCs over ADTs "
        "(PLDI 2021 reproduction)",
        epilog="Batch mode: 'repro campaign a.smt2 b.smt2 ...' solves "
        "many files over one shared model-finding engine per ADT "
        "signature.  Fault-tolerant runs: 'repro campaign --isolate "
        "--journal run.jsonl *.smt2' supervises each problem in a "
        "watchdogged worker and journals every verdict; 'repro campaign "
        "--resume run.jsonl *.smt2' finishes an interrupted run without "
        "re-solving journaled problems ('repro campaign --help' for "
        "all options).",
    )
    parser.add_argument("file", help="SMT-LIB2 CHC problem ('-' for stdin)")
    parser.add_argument(
        "--solver",
        choices=sorted(SOLVERS),
        default="ringen",
        help="which engine to run (default: ringen)",
    )
    parser.add_argument(
        "--timeout", type=_seconds, default=60.0, help="seconds (default 60)"
    )
    parser.add_argument(
        "--model",
        action="store_true",
        help="print the invariant on SAT answers",
    )
    parser.add_argument(
        "--cex",
        action="store_true",
        help="print the refutation derivation on UNSAT answers",
    )
    parser.add_argument(
        "--warm-cache",
        metavar="DIR",
        help="disk cache of serialized engines: warm-start from DIR if "
        "a compatible engine is cached there, and persist this run's "
        "engine back on completion (ringen only)",
    )
    _add_obs_arguments(parser)
    return parser


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        help="record a span trace to FILE (JSONL; convert for "
        "chrome://tracing with 'python -m repro.obs.tracer FILE out.json')",
    )
    group.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the merged metrics snapshot (counters, gauges, "
        "timing histograms) to FILE as JSON",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="render live progress lines while solving (task id, "
        "conflicts/sec, size vectors, RSS)",
    )
    group.add_argument(
        "--profile",
        metavar="DIR",
        help="dump one cProfile pstats file per task into DIR "
        "(inspect with 'python -m pstats')",
    )


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Solve a batch of CHC files with one shared "
        "model-finding engine per ADT signature (campaign batch mode)",
    )
    parser.add_argument(
        "files", nargs="+", help="SMT-LIB2 CHC problem files"
    )
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=60.0,
        help="per-problem seconds (default 60)",
    )
    parser.add_argument(
        "--no-share",
        action="store_true",
        help="fresh engine per problem (ablation baseline)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the pool summary (verdict lines only)",
    )
    parser.add_argument(
        "--isolate",
        action="store_true",
        help="run each problem in a supervised worker subprocess with a "
        "hard wall-clock watchdog (hangs/crashes/OOMs become per-problem "
        "error verdicts instead of killing the campaign)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        help="append every finished verdict to a JSONL journal "
        "(flushed per verdict; survives kills)",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from a journal: already-journaled problems are "
        "replayed, only the remainder is re-executed (implies --journal "
        "on the same file)",
    )
    parser.add_argument(
        "--max-retries",
        type=_int_at_least(0),
        default=None,
        metavar="N",
        help="retries (with exponential backoff) for transient worker "
        "deaths (default 2; deterministic crashes are never retried)",
    )
    parser.add_argument(
        "--mem-limit",
        type=_int_at_least(1),
        default=None,
        metavar="MB",
        help="per-worker address-space cap in MiB; allocation beyond it "
        "becomes a structured error:oom verdict (isolated mode)",
    )
    parser.add_argument(
        "--warm-cache",
        metavar="DIR",
        help="disk cache of serialized engines: warm-start each "
        "signature's engine from DIR when compatible state is cached "
        "there, and persist the campaign's engines back on completion",
    )
    _add_obs_arguments(parser)
    return parser


def _configure_obs(args) -> None:
    """Turn the process-global collectors on per the CLI flags."""
    from repro.obs import runtime as obs_runtime

    obs_runtime.configure(
        trace_path=args.trace, metrics=bool(args.metrics)
    )


def _finalize_obs(args) -> None:
    """Write the metrics artifact and shut the collectors down."""
    from repro.obs import runtime as obs_runtime

    if args.metrics and obs_runtime.METRICS is not None:
        obs_runtime.METRICS.write(args.metrics)
    obs_runtime.reset()


@contextlib.contextmanager
def _live_progress(args):
    """Heartbeat progress lines on stderr for the single-file ``solve``
    (no-op without ``--progress``); campaigns get theirs from
    :func:`repro.exec.execute_tasks`."""
    from repro.obs.events import (
        EventBus,
        HeartbeatRenderer,
        ProgressMonitor,
    )

    if not args.progress:
        yield
        return
    bus = EventBus()
    bus.subscribe(
        HeartbeatRenderer(
            lambda line: print(line, file=sys.stderr), min_interval=1.0
        )
    )
    monitor = ProgressMonitor(bus, interval=0.5)
    monitor.start()
    try:
        yield
    finally:
        monitor.stop()


def campaign_main(argv: Sequence[str]) -> int:
    """The ``campaign`` entry point: batch solving over a shared pool."""
    args = build_campaign_parser().parse_args(argv)
    if args.resume and args.journal and args.resume != args.journal:
        print(
            "error: --resume and --journal must name the same file",
            file=sys.stderr,
        )
        return 2
    _configure_obs(args)
    try:
        return _run_campaign(args)
    finally:
        _finalize_obs(args)


def _snapshot_note(stats: dict) -> str:
    """Warm-cache suffix for the pool summary line (empty when the
    run never touched snapshots)."""
    touched = (
        stats.get("snapshot_saves", 0)
        + stats.get("snapshot_hits", 0)
        + stats.get("snapshot_misses", 0)
        + stats.get("snapshot_rejected", 0)
    )
    if not touched:
        return ""
    return (
        f"; snapshots: {stats.get('snapshot_saves', 0)} saved, "
        f"{stats.get('snapshot_hits', 0)} warm starts, "
        f"{stats.get('snapshot_rejected', 0)} rejected"
    )


def _run_campaign(args) -> int:
    """Build one task per readable file (grouped by signature when
    engines are shared) and run them through :func:`execute_tasks`."""
    from repro.exec import ExecPolicy, TaskSpec, execute_tasks
    from repro.exec.journal import JournalError
    from repro.harness.runner import signature_groups
    from repro.obs.events import (
        EventBus,
        HeartbeatRenderer,
        legacy_line_subscriber,
    )

    solver_opts = {}
    if args.warm_cache:
        solver_opts["engine_cache_dir"] = args.warm_cache
    policy = ExecPolicy(
        isolate=args.isolate,
        share_engines=not args.no_share,
        mem_limit_mb=args.mem_limit,
        solver_opts=solver_opts,
        profile_dir=args.profile,
        # heartbeats come from the workers or, in-process, from a
        # sampling thread; at most one line per second is rendered
        heartbeat_interval=1.0 if args.progress else 0.0,
    )
    if args.max_retries is not None:
        policy.max_retries = args.max_retries
    failures = 0
    texts: dict[str, str] = {}
    systems: dict[str, object] = {}
    for path in args.files:
        try:
            with open(path) as handle:
                texts[path] = handle.read()
            systems[path] = parse_chc(texts[path], name=path)
        except (OSError, ParseError) as error:
            print(f"{path}: error: {error}", file=sys.stderr)
            failures += 1
    paths = [path for path in args.files if path in systems]
    groups = (
        signature_groups(paths, systems.__getitem__)
        if policy.share_engines
        else {None: paths}
    )
    tasks: list[TaskSpec] = []
    for key, group in groups.items():
        for path in group:
            tasks.append(
                TaskSpec(
                    task_id=path,
                    solver="ringen",
                    timeout=args.timeout,
                    smt_text=texts[path],
                    index=len(tasks),
                    group_key=key,
                )
            )
    # verdict lines on stdout and heartbeats on stderr, so verdict
    # stdout is byte-identical with --progress on or off
    bus = EventBus()
    bus.subscribe(legacy_line_subscriber(print))
    bus.subscribe(
        HeartbeatRenderer(lambda line: print(line, file=sys.stderr))
    )
    try:
        records, stats = execute_tasks(
            tasks,
            policy,
            journal_path=args.resume or args.journal,
            resume=bool(args.resume),
            bus=bus,
        )
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for task in tasks:
        record = records.get(task.task_id)
        if record is None or record["status"] not in ("sat", "unsat"):
            failures += 1  # undecided, or interrupted before it ran
    if not args.quiet:
        pool_stats = stats.pool_stats
        if pool_stats:
            print(
                f"; pool: {pool_stats.get('problems', 0)} problems, "
                f"{pool_stats.get('engines_created', 0)} engines, "
                f"{pool_stats.get('engine_hits', 0)} warm-engine hits, "
                f"{pool_stats.get('cross_problem_clauses', 0)} "
                f"clauses inherited"
                + _snapshot_note(pool_stats)
            )
        errors = stats.error_counts
        error_note = (
            ", ".join(f"{k}={v}" for k, v in sorted(errors.items()))
            if errors
            else "none"
        )
        print(
            f"; exec: {stats.tasks_executed} executed, "
            f"{stats.tasks_resumed} resumed, {stats.retries} retries, "
            f"{stats.workers_spawned} workers, errors: {error_note}"
            + (" [INTERRUPTED]" if stats.interrupted else "")
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(list(argv[1:]))
    if argv and argv[0] == "solve":
        # explicit verb form: 'repro solve problem.smt2' — same parser
        argv = list(argv[1:])
    args = build_parser().parse_args(argv)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file) as handle:
                text = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        system = parse_chc(text, name=args.file)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2

    solver = make_solver(
        args.solver, args.timeout, engine_cache_dir=args.warm_cache
    )
    from repro.obs import runtime as obs_runtime
    from repro.obs.profiler import maybe_profile, profile_path

    _configure_obs(args)
    try:
        obs_runtime.task_started(args.file)
        prof = (
            profile_path(args.profile, args.file) if args.profile else None
        )
        with _live_progress(args), maybe_profile(prof):
            result = solver.solve(system)
    finally:
        obs_runtime.task_finished()
        _finalize_obs(args)
    print(result.status.value)
    if result.is_unknown and result.reason:
        print(f"; {result.reason}")
    if args.model and result.is_sat and result.invariant is not None:
        print(result.invariant.describe())
    if args.cex and result.is_unsat and result.refutation is not None:
        print(result.refutation.format())
    return 0 if not result.is_unknown else 1


if __name__ == "__main__":
    sys.exit(main())
