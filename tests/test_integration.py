"""Cross-module integration tests: SMT-LIB in, verified invariants out."""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import solve
from repro.chc.parser import parse_chc
from repro.chc.printer import print_system
from repro.chc.transform import preprocess
from repro.cli import main as cli_main
from repro.logic.adt import nat
from repro.problems import (
    diag_system,
    even_system,
    incdec_system,
    odd_unsat_system,
)


EVEN_SMT = """
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
(declare-fun even (Nat) Bool)
(assert (forall ((x Nat)) (=> (= x Z) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (= x (S (S y))) (even y)) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (even x) (even y) (= y (S x))) false)))
(check-sat)
"""

BROKEN_SMT = """
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
(declare-fun p (Nat) Bool)
(assert (forall ((x Nat)) (=> (= x Z) (p x))))
(assert (forall ((x Nat)) (=> (p x) (p (S x)))))
(assert (forall ((x Nat)) (=> (and (p x) (= x (S (S Z)))) false)))
(check-sat)
"""


class TestSmtLibToInvariant:
    def test_even_from_text(self):
        system = parse_chc(EVEN_SMT)
        result = solve(system, timeout=30)
        assert result.is_sat
        even = system.predicates["even"]
        for n in range(8):
            assert result.invariant.member(even, (nat(n),)) == (n % 2 == 0)

    def test_unsat_from_text(self):
        result = solve(parse_chc(BROKEN_SMT), timeout=10)
        assert result.is_unsat

    def test_roundtrip_stability(self):
        system = parse_chc(EVEN_SMT)
        once = print_system(system)
        twice = print_system(parse_chc(once))
        assert once == twice


class TestCli:
    def test_sat_run(self, tmp_path, capsys):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        code = cli_main([str(path), "--timeout", "30", "--model"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "sat"
        assert "automata" in out

    def test_unsat_run_with_cex(self, tmp_path, capsys):
        path = tmp_path / "broken.smt2"
        path.write_text(BROKEN_SMT)
        code = cli_main([str(path), "--timeout", "10", "--cex"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "unsat"
        assert "false" in out

    def test_baseline_selection(self, tmp_path, capsys):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        code = cli_main(
            [str(path), "--solver", "sizeelem", "--timeout", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "sat"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.smt2"
        path.write_text("(this is not smtlib")
        assert cli_main([str(path)]) == 2

    def test_missing_file_exit_code(self):
        assert cli_main(["/nonexistent.smt2"]) == 2

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
    def test_bad_timeout_exit_code(self, tmp_path, timeout):
        # a NaN deadline never expires: reject it before solving
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["solve", str(path), "--timeout", timeout])
        assert exit_info.value.code == 2

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("sat")


class TestCampaignCli:
    """``repro campaign``: every flag combination runs one supervised
    path, so verdict lines, summaries and failure handling agree."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = []
        for name, factory in (
            ("even", even_system),
            ("odd", odd_unsat_system),
        ):
            path = tmp_path / f"{name}.smt2"
            path.write_text(print_system(factory()))
            paths.append(str(path))
        return paths

    def test_two_files(self, files, capsys):
        even, odd = files
        code = cli_main(["campaign", "--timeout", "30", even, odd])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith(f"{even}: sat (")
        assert lines[1].startswith(f"{odd}: unsat (")
        # odd is refuted by the counterexample search before the pool
        assert lines[2].startswith("; pool: 1 problems, 1 engines")
        assert lines[3].startswith("; exec: 2 executed, 0 resumed")
        assert len(lines) == 4

    @pytest.mark.parametrize("isolate", [False, True])
    def test_files_run_grouped_by_signature(self, tmp_path, capsys, isolate):
        # even2 holds even's system again: it joins even's group, so
        # with --isolate the pair rides one pooled worker
        paths = []
        for name, factory in (
            ("even", even_system),
            ("incdec", incdec_system),
            ("even2", even_system),
        ):
            path = tmp_path / f"{name}.smt2"
            path.write_text(print_system(factory()))
            paths.append(str(path))
        even, incdec, even2 = paths
        argv = ["campaign", "--timeout", "30", *paths]
        code = cli_main(argv + (["--isolate"] if isolate else []))
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in lines[:3]] == [
            even, even2, incdec,
        ]
        if isolate:
            assert lines[3].startswith(
                "; pool: 2 problems, 1 engines, 1 warm-engine hits"
            )
            assert lines[4].startswith("; exec: 3 executed, 0 resumed")
            assert "2 workers" in lines[4]
        else:
            assert lines[3].startswith(
                "; pool: 3 problems, 2 engines, 1 warm-engine hits"
            )

    def test_no_share(self, files, capsys):
        even, odd = files
        code = cli_main(["campaign", "--no-share", "--timeout", "30", *files])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith(f"{even}: sat (")
        assert lines[1].startswith(f"{odd}: unsat (")
        assert not any(line.startswith("; pool:") for line in lines)

    def test_journal_then_resume(self, files, tmp_path, capsys):
        from repro.exec import load_journal

        journal = str(tmp_path / "run.jsonl")
        assert cli_main(["campaign", "--journal", journal, *files]) == 0
        first = capsys.readouterr().out
        _, entries = load_journal(journal)
        recorded = {task: e["status"] for task, e in entries.items()}
        assert recorded == {files[0]: "sat", files[1]: "unsat"}
        assert cli_main(["campaign", "--resume", journal, *files]) == 0
        resumed = capsys.readouterr().out
        assert "; exec: 2 executed, 0 resumed" in first
        assert "; exec: 0 executed, 2 resumed" in resumed
        _, entries = load_journal(journal)
        assert {t: e["status"] for t, e in entries.items()} == recorded

    @pytest.mark.parametrize("flag", ["--journal", "--resume"])
    def test_headerless_journal_is_a_usage_error(
        self, files, tmp_path, capsys, flag
    ):
        # a journal whose header write was torn: refused, exit 2, and
        # no verdict line, before any file runs
        journal = tmp_path / "torn-header.jsonl"
        journal.write_text('{"kind": "meta", "version": 1, "config_finger')
        code = cli_main(["campaign", flag, str(journal), *files])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: journal ")

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
    def test_bad_timeout_exit_code(self, files, timeout):
        # the isolated supervisor cannot poll for a NaN timeout
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["campaign", "--isolate", "--timeout", timeout, *files])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--mem-limit", "0"), ("--mem-limit", "-3"), ("--max-retries", "-1")],
    )
    def test_bad_limit_exit_code(self, files, flag, value):
        # a zero address-space cap kills every worker, and a negative
        # one cannot be applied
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["campaign", "--isolate", flag, value, *files])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--mem-limit", "1"), ("--max-retries", "0")]
    )
    def test_isolated_only_flags_need_isolate(
        self, files, capsys, flag, value
    ):
        # both limits act on worker subprocesses only: without --isolate
        # they would be accepted and ignored
        code = cli_main(["campaign", flag, value, *files])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "requires --isolate" in captured.err

    def test_parse_error_counts_as_failure(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(this is not smtlib")
        code = cli_main(["campaign", files[0], str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{bad}: error:" in captured.err
        assert captured.out.startswith(f"{files[0]}: sat (")

    def test_crashing_solve_does_not_stop_the_campaign(
        self, files, capsys, monkeypatch
    ):
        from repro.core.ringen import RInGen

        even, odd = files
        real_solve = RInGen.solve

        def solve(self, system):
            if system.name == even:
                raise RuntimeError("solver bug")
            return real_solve(self, system)

        monkeypatch.setattr(RInGen, "solve", solve)
        code = cli_main(["campaign", "--timeout", "30", even, odd])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith(f"{even}: unknown (")
        assert lines[0].endswith("[crash]")
        assert lines[1].startswith(f"{odd}: unsat (")

    def test_progress_lines_go_to_stderr(self, tmp_path, capsys):
        # diag's sweep outlasts its 2 s budget, so at least one heartbeat
        # interval passes while it solves
        diag = tmp_path / "diag.smt2"
        diag.write_text(print_system(diag_system()))
        argv = ["campaign", "--progress", "--timeout", "2", str(diag)]
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "[progress]" in captured.err
        assert "[progress]" not in captured.out
        assert captured.out.startswith(f"{diag}: unknown (")

    @pytest.mark.parametrize("plan", ["bogus@1", "hang@0"])
    def test_bad_fault_plan_is_a_usage_error(
        self, files, capsys, monkeypatch, plan
    ):
        # a plan that does not parse, and one only workers can run
        # (flaky and hang need --isolate): exit 2 before any task runs
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        code = cli_main(["campaign", "--timeout", "30", *files])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestSatisfiabilityPreservation:
    """Theorem 5 end to end, property-style: for random mod-family
    programs, the pipeline's SAT/UNSAT verdict matches ground truth."""

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_mod_family_verdicts(self, modulus, residue, clash):
        from repro.benchgen.builders import nat_mod_system

        residue = residue % modulus
        system = nat_mod_system(modulus, residue, clash)
        safe = clash % modulus != 0
        result = solve(system, timeout=15)
        if safe:
            assert result.is_sat
            # and the invariant really is inductive over Herbrand terms
            assert result.invariant.verify_bounded(
                system, max_height=4
            ) is None
        else:
            # the refutation instantiates P at heights residue+1 and
            # residue+clash+1; within the default iterative-deepening
            # budget (height 4) the verdict must be UNSAT, beyond it the
            # solver may stay undecided — but never report SAT
            if residue + clash + 1 <= 4:
                assert result.is_unsat
            else:
                assert not result.is_sat


class TestPreprocessSolveCommute:
    def test_solving_preprocessed_system_agrees(self):
        system = even_system()
        direct = solve(system, timeout=20)
        pre = solve(preprocess(system), timeout=20)
        assert direct.status == pre.status
