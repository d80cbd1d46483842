"""RInGen end-to-end benchmark: fixed-work workloads, checked verdicts.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stlc-refute --seed 1 --seconds 20 --trace 0

One run makes a fixed number of passes over the workload's problems
(``--seconds`` divided by the workload's pass weight, at least two),
each pass cold: the automata verdict caches are cleared and the
campaign gets a fresh engine pool, as in a fresh CLI run.  The problem
order is drawn from ``--seed``.  On the campaign, where order changes
the work, each untraced pass draws a new order and the last pass
repeats the first, so a run's median spans several orders.  Every
verdict is checked against the generator's ground truth, and passes
over the same order must do exactly the same work (solver and encoder
counts), so a count can be cited beside a noisy time.  Times are scaled
to a reference machine pace (see ``pace.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the
layers' self times and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit
code is 1 on any wrong verdict, crash, internal error or work-count
drift, and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# the script's own directory is on sys.path; these import no program code
import layers
import workloads
from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TAIL_BEYOND = 10
#: per-problem work counts that must repeat exactly across passes
WORK_KEYS = (
    "attempts",
    "clauses_encoded",
    "clauses_reused",
    "vectors_refuted",
    "vectors_skipped",
    "vectors_exhausted",
    "learned_total",
)
SAT_WORK_KEYS = (
    "sat.conflicts",
    "sat.propagations",
    "sat.decisions",
    "sat.clauses_added",
    "sat.solve_calls",
)


@dataclass
class Outcome:
    """One problem's verdict within a pass."""

    name: str
    status: str
    seconds: float  # as measured; scale by ``factor`` to report
    decided: bool
    failure: str  # empty unless wrong, crashed or an internal error
    work: tuple
    start: Optional[float] = None  # perf_counter at hand-off, if known
    factor: float = 1.0  # mean pace while it ran, else the pass's


@dataclass
class Pass:
    wall_s: float  # as measured; scale by ``factor`` to report
    outcomes: list[Outcome]
    factor: float  # pace.Pace.factor() over the pass
    order: int = 0  # index of the problem order (Workload.ordered)
    traced: bool = False
    pool: dict = field(default_factory=dict)
    finder: dict = field(default_factory=dict)  # summed FinderStats
    counters: dict = field(default_factory=dict)  # metrics registry
    spans: object = None  # layers.Recorder of a traced pass


def outcome(item, status, seconds, details, reason, campaign) -> Outcome:
    """One verdict, checked against the generator's ground truth."""
    decided, failure = bool(details.get("complete")), ""
    if status in ("sat", "unsat"):
        decided = True
        if status != item.truth:
            failure = f"wrong answer {status}, expected {item.truth}"
    elif reason.startswith("internal error"):
        decided, failure = False, reason
    elif campaign:
        # every campaign problem gets a definite answer on current code
        decided = False
        failure = f"undecided ({reason}), expected {item.truth}"
    finder = details.get("finder") or {}
    work = (status, bool(details.get("complete"))) + tuple(
        finder.get(k, 0) for k in WORK_KEYS
    )
    return Outcome(item.name, status, seconds, decided, failure, work)


def run_direct(workload, items) -> tuple[list[Outcome], dict]:
    from repro.core.ringen import RInGen, RInGenConfig

    outcomes = []
    for item in items:
        start = time.perf_counter()
        try:
            result = RInGen(RInGenConfig(**workload.config)).solve(
                item.build()
            )
        except Exception as error:
            o = Outcome(
                item.name, "crash", time.perf_counter() - start,
                False, f"crash: {type(error).__name__}: {error}", (),
            )
        else:
            o = outcome(
                item, result.status.value, time.perf_counter() - start,
                result.details, result.reason, False,
            )
        o.start = start
        outcomes.append(o)
    return outcomes, {}


def run_campaign_pass(workload, items) -> tuple[list[Outcome], dict]:
    from repro.benchgen.suite import Suite
    from repro.harness.runner import run_campaign
    from repro.mace.pool import EnginePool

    by_name = {item.name: item for item in items}
    suite = Suite("table1", [item.problem for item in items])
    campaign = run_campaign(
        [suite],
        solvers=["ringen"],
        timeout=workloads.CAMPAIGN_TIMEOUT_S,
        share_engines=True,
        engine_pool=EnginePool(),
    )
    outcomes = []
    for record in campaign.records:
        item = by_name[record.problem.name]
        if record.error_kind:
            outcomes.append(
                Outcome(item.name, "crash", record.elapsed, False,
                        f"error:{record.error_kind}: {record.reason}", ())
            )
            continue
        outcomes.append(
            outcome(item, record.status.value, record.elapsed,
                    record.details, record.reason, True)
        )
    return outcomes, campaign.pool_stats or {}


def run_pass(workload, order: int, traced: bool) -> Pass:
    from repro.automata.ops import clear_op_caches

    clear_op_caches()
    gc.collect()
    body = run_campaign_pass if workload.campaign else run_direct
    items = workload.ordered(order)
    recorder = layers.Recorder() if traced else None
    registry = None
    with Pace() as pace:
        start = time.perf_counter()
        if traced:
            with layers.traced(recorder) as registry:
                outcomes, pool = body(workload, items)
        else:
            outcomes, pool = body(workload, items)
        wall = time.perf_counter() - start
    factor = pace.factor() or 1.0
    for o in outcomes:
        # campaign records carry no start time; most of those problems
        # take less than one sampling interval anyway
        own = None
        if o.start is not None:
            own = pace.factor(o.start, o.start + o.seconds)
        o.factor = own or factor
    finder: dict = {}
    for o in outcomes:
        for key, value in zip(WORK_KEYS, o.work[2:]):
            finder[key] = finder.get(key, 0) + value
    return Pass(
        wall, outcomes, factor, order, traced, pool, finder,
        dict(registry.counters) if registry is not None else {},
        recorder,
    )


def measure_setup(args) -> list[float]:
    """Wall time from process start to the first problem being handed to
    the solver, measured on fresh interpreters (``--setup-probe``) and
    scaled by the pace each probe sampled while it set up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        word, _, factor = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}")
        times.append(elapsed * float(factor))
    return times


def setup_probe(args) -> int:
    with Pace(interval_s=0.005) as pace:
        from repro.core.ringen import RInGen, RInGenConfig

        workload = workloads.build(args.workload, args.seed)
        if workload.campaign:
            from repro.harness.runner import make_solver

            make_solver("ringen", workloads.CAMPAIGN_TIMEOUT_S)
        else:
            RInGen(RInGenConfig(**workload.config))
        workload.ordered()[0].build()
    print(f"ready {pace.factor() or 1.0!r}", flush=True)
    return 0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: (value, percentile, samples beyond).  When that
    percentile would fall below the median (fewer than
    ``2 * TAIL_BEYOND`` samples) the maximum is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        pct = 100.0 * (n - TAIL_BEYOND) / n
        return xs[n - TAIL_BEYOND - 1], pct, TAIL_BEYOND
    return xs[-1], 100.0, 0


def check(passes: list[Pass]) -> list[str]:
    """Every failure, plus any work count that differs between passes
    over the same problem order."""
    problems = []
    for i, p in enumerate(passes):
        for o in p.outcomes:
            if o.failure:
                problems.append(f"pass {i}: {o.name}: {o.failure}")
    first: dict[int, Pass] = {}
    first_traced: dict[int, Pass] = {}
    for i, p in enumerate(passes):
        ref = first.setdefault(p.order, p)
        work = {o.name: o.work for o in ref.outcomes}
        for o in p.outcomes:
            if o.work != work.get(o.name):
                problems.append(
                    f"pass {i}: {o.name}: work {o.work} != "
                    f"{work.get(o.name)}"
                )
        if p.traced:
            ref = first_traced.setdefault(p.order, p)
            for key in SAT_WORK_KEYS:
                a, b = ref.counters.get(key), p.counters.get(key)
                if a != b:
                    problems.append(f"pass {i}: {key} {b} != {a}")
    return problems


def verdict_times(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each problem's time to verdict: its median over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            times.setdefault(o.name, []).append(
                o.seconds * (o.factor if scaled else 1.0)
            )
    return [statistics.median(t) for t in times.values()]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    untraced = [p for p in passes if not p.traced]
    samples = verdict_times(untraced)
    attempted = sum(len(p.outcomes) for p in untraced)
    decided = sum(o.decided for p in untraced for o in p.outcomes)
    failed = sum(bool(o.failure) for p in untraced for o in p.outcomes)
    tail_s, pct, beyond = tail(samples)
    print(
        f"# verdict times are per-problem medians over {len(untraced)} "
        f"passes; verdict_tail_s is p{pct:.1f} of {len(samples)} "
        f"problems ({beyond} beyond it)"
    )
    raw = verdict_times(untraced, scaled=False)
    print(
        "# as measured, unscaled: "
        f"wall_s={statistics.median(p.wall_s for p in untraced):.4f} "
        f"verdict_p50_s={statistics.median(raw):.4f} "
        f"verdict_tail_s={tail(raw)[0]:.4f}"
    )
    return {
        "wall_s": (
            statistics.median(p.wall_s * p.factor for p in untraced), "s"
        ),
        "verdict_p50_s": (statistics.median(samples), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "decided_share": (decided / attempted, "ratio"),
        "correct_share": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def secs(fn):
        return med(lambda p: fn(p) * p.factor)

    def span(name, key="self_s"):
        return lambda p: p.spans.totals().get(name, {}).get(key, 0)

    def counter(name):
        return lambda p: p.counters.get(name, 0)

    def finder(name):
        return lambda p: p.finder.get(name, 0)

    def skip_ratio(p):
        seen = p.finder["attempts"] + p.finder["vectors_skipped"]
        return p.finder["vectors_skipped"] / seen if seen else 0.0

    def search_self(p):
        # core minimization re-enters propagate and analyze, so its
        # timer overlaps theirs and is left out of the subtraction
        phases = sum(
            p.counters.get(f"phase.{k}_s", 0)
            for k in ("encode", "propagate", "analyze")
        )
        return span("mace.search")(p) - phases

    def pool_ratio(p):
        n = p.pool.get("problems", 0)
        return p.pool.get("engine_hits", 0) / n if n else 0.0

    traced_wall = secs(lambda p: p.wall_s)
    untraced_wall = statistics.median(p.wall_s * p.factor for p in untraced)
    s, n, r = "s", "count", "ratio"
    return {
        "mace.encode_s": (secs(counter("phase.encode_s")), s),
        "mace.encode_n": (med(counter("phase.encode_n")), n),
        "mace.clauses_encoded": (med(finder("clauses_encoded")), n),
        "mace.clauses_reused": (med(finder("clauses_reused")), n),
        "sat.clauses_added": (med(counter("sat.clauses_added")), n),
        "sat.propagate_s": (secs(counter("phase.propagate_s")), s),
        "sat.analyze_s": (secs(counter("phase.analyze_s")), s),
        "sat.minimize_s": (secs(counter("phase.minimize_s")), s),
        "sat.propagations": (med(counter("sat.propagations")), n),
        "sat.conflicts": (med(counter("sat.conflicts")), n),
        "sat.solve_calls": (med(counter("sat.solve_calls")), n),
        "mace.vectors_attempted": (med(finder("attempts")), n),
        "mace.vectors_refuted": (med(finder("vectors_refuted")), n),
        "mace.vectors_skipped": (med(finder("vectors_skipped")), n),
        "mace.vectors_exhausted": (med(finder("vectors_exhausted")), n),
        "mace.skip_ratio": (med(skip_ratio), r),
        "mace.search_self_s": (secs(search_self), s),
        "core.cex_s": (secs(span("core.cex")), s),
        "core.cex_n": (med(span("core.cex", "n")), n),
        "core.cex_found": (med(lambda p: p.spans.cex_found), n),
        "chc.preprocess_s": (secs(span("chc.preprocess")), s),
        "mace.pool.hit_ratio": (med(pool_ratio), r),
        "mace.pool.cross_problem_clauses": (
            med(lambda p: p.pool.get("cross_problem_clauses", 0)), n
        ),
        "automata.from_model_s": (secs(span("automata.from_model")), s),
        "automata.verify_exact_s": (secs(span("automata.verify_exact")), s),
        "automata.verify_bounded_s": (
            secs(span("automata.verify_bounded")), s
        ),
        "ringen.self_s": (secs(span("ringen.solve")), s),
        "harness.overhead_s": (
            secs(lambda p: p.wall_s - span("ringen.solve", "total_s")(p)), s
        ),
        "trace.wall_s": (traced_wall, s),
        "trace.overhead_s": (traced_wall - untraced_wall, s),
        "pace.factor": (statistics.median(p.factor for p in passes), r),
    }


def write_spans(args, passes: list[Pass]) -> Path:
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.json"
    rows = [
        {"pass": i, "id": sid, "parent": parent, "name": name,
         "start_s": start, "end_s": end}
        for i, p in enumerate(passes) if p.traced
        for sid, parent, name, start, end in p.spans.spans
    ]
    path.write_text(json.dumps({"workload": args.workload,
                                "seed": args.seed, "spans": rows}))
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    workload = workloads.build(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(args)
    count = max(2, round(args.seconds / workload.pass_weight_s))
    if workload.campaign and not args.trace:
        orders = list(range(count - 1)) + [0]
    else:
        orders = [0] * count
    passes = [
        run_pass(workload, order, traced=bool(args.trace) and i % 2 == 1)
        for i, order in enumerate(orders)
    ]
    problems = check(passes)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    first = {}
    for p in passes:
        first.setdefault(p.order, p)
    for order, p in first.items():
        print(
            f"# {args.workload} seed={args.seed} order {order}: "
            + " ".join(f"{k}={v}" for k, v in p.finder.items())
        )
    print("# passes as measured (s) x pace factor: " + " ".join(
        f"{p.wall_s:.3f}x{p.factor:.3f}{'T' if p.traced else ''}"
        for p in passes
    ))
    if args.trace:
        metrics = per_layer(passes)
        print(f"# spans: {write_spans(args, passes)}")
    else:
        metrics = end_to_end(passes, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(bool(o.failure) for p in passes for o in p.outcomes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
