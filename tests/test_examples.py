"""Smoke tests: every example script runs to completion.

The examples are the quickstart documentation; they must keep working as
the API evolves.  Each is executed in-process (importing the module and
calling ``main``) to keep failures debuggable.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> None:
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "stlc_inhabitation.py",
        "expressiveness_tour.py",
        "custom_verification.py",
    } <= names


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "verdict: sat" in out
    assert "finite model size: 2" in out
    assert "bounded Herbrand verification: OK" in out


def test_custom_verification(capsys):
    run_example("custom_verification.py")
    out = capsys.readouterr().out
    assert "verdict: sat" in out
    assert "verdict: unsat" in out
    assert "buggy-dangling-a" in out


@pytest.mark.slow
def test_expressiveness_tour(capsys):
    run_example("expressiveness_tour.py")
    out = capsys.readouterr().out
    assert "EvenLeft" in out
    assert "Prop. 1" in out
    assert "Prop. 2" in out


@pytest.mark.slow
def test_stlc_inhabitation(capsys):
    run_example("stlc_inhabitation.py")
    out = capsys.readouterr().out
    assert "RInGen verdict: sat" in out
    assert "inductive: True" in out
