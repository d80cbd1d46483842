"""Experiments E8/E9: the STLC case study and the 23 type-theory problems.

E8 — Sec. 5 reports the invariant for the ``(a -> b) -> a`` inhabitation
VC was "discovered ... in less than a second" by the finite-model engine;
our measured model-search time is benchmarked here (the end-to-end solve
adds preprocessing + verification).

E9 — Sec. 8, "Other experiments": 23 hand-written type-theory problems
"intractable for all the solvers, except the finite model finder".  We
run the regenerated suite and check exactly that pattern: the finite
model finder solves the classical-non-tautology fraction; the Elem and
SizeElem baselines solve none.
"""

from repro import solve
from repro.chc.transform import preprocess
from repro.mace.finder import find_model
from repro.solvers.elem import solve_elem
from repro.solvers.sizeelem import solve_sizeelem
from repro.stlc import stlc_problems, typecheck_vc

from conftest import bench_scale, write_artifact


def test_case_study_model_found_fast(benchmark):
    """E8: the finite-model phase alone is sub-second (paper: < 1 s)."""
    prepared = preprocess(typecheck_vc())
    result = benchmark.pedantic(
        lambda: find_model(prepared, max_total_size=8),
        rounds=3,
        iterations=1,
    )
    assert result.found
    assert result.model.size() == 6
    assert result.stats.elapsed < 5.0


def test_case_study_end_to_end(benchmark):
    result = benchmark.pedantic(
        lambda: solve(typecheck_vc(), timeout=60), rounds=1, iterations=1
    )
    assert result.is_sat
    assert result.details["model_size"] == 6


def test_stlc_suite(benchmark):
    """E9: only the finite-model engine makes progress on the suite."""
    problems = stlc_problems()
    if bench_scale() == "quick":
        # 4 per category keeps the quick run in seconds-per-problem land
        per_category: dict[str, int] = {}
        kept = []
        for p in problems:
            if per_category.get(p.category, 0) < 4:
                per_category[p.category] = per_category.get(p.category, 0) + 1
                kept.append(p)
        problems = kept

    lines = []
    fmf_sat = 0
    baseline_sat = 0
    for problem in problems:
        system = problem.system()
        r_fmf = solve(system, timeout=20)
        r_elem = solve_elem(problem.system(), timeout=2)
        r_size = solve_sizeelem(problem.system(), timeout=2)
        lines.append(
            f"{problem.name:<18} [{problem.category}] "
            f"fmf={r_fmf.status} elem={r_elem.status} size={r_size.status}"
        )
        if r_fmf.is_sat:
            fmf_sat += 1
            assert problem.expected == "sat", problem.name
        baseline_sat += int(r_elem.is_sat) + int(r_size.is_sat)
    text = "\n".join(lines)
    write_artifact("stlc_suite.txt", text)
    print("\n" + text)

    # the paper's observation, mechanized:
    non_taut = [p for p in problems if p.category == "non-tautology"]
    assert fmf_sat >= max(len(non_taut) - 1, 1)
    assert baseline_sat == 0

    benchmark.pedantic(
        lambda: solve(stlc_problems()[0].system(), timeout=20),
        rounds=1,
        iterations=1,
    )
