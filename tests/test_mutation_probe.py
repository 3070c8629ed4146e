"""The mutation probe's tables name functions and mutants that exist.

``tests/mutation_probe.py`` runs for minutes and stays out of tier-1, so a
renamed target function or a reworded expression would surface only at the
end of a full run. These tests load it by path and generate its mutants
with ``ast`` alone, without running any; the one that runs the probe
replaces its tier-1 subprocess.
"""

import ast
import importlib.util
import subprocess
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent / "mutation_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("mutation_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_function_resolves():
    probe = load_probe()
    missing = []
    for module, functions in probe.TARGETS.items():
        tree = ast.parse(probe.source_of(module))
        for qualname in functions:
            try:
                probe.find_function(tree, qualname)
            except StopIteration:
                missing.append(f"{module}.{qualname}")
    assert missing == []


def test_every_listed_equivalent_is_a_generated_mutant():
    probe = load_probe()
    generated = {(function, label) for module in probe.TARGETS
                 for function, label, _ in probe.mutants(module, probe.source_of(module))}
    assert sorted(set(probe.EQUIVALENT) - generated) == []


def test_only_lists_exactly_the_named_functions_mutants(capsys):
    probe = load_probe()
    named = ["errors.positive_fault", "harness._trial_streams"]
    expected = [f"{function}: {label}" for module in ("errors", "harness")
                for function, label, _ in probe.mutants(module, probe.source_of(module))
                if function in named]
    assert probe.main(["--list", "--only", *named]) == 0
    *lines, total = capsys.readouterr().out.splitlines()
    assert lines == expected and total == f"{len(expected)} mutants"
    assert {line.split(":")[0] for line in lines} == set(named)


def test_only_refuses_a_name_that_is_not_a_target(capsys):
    probe = load_probe()
    with pytest.raises(SystemExit) as exit_info:
        probe.main(["--list", "--only", "errors.positive_fault", "errors.no_such"])
    assert exit_info.value.code == 2
    assert "--only errors.no_such: not a target" in capsys.readouterr().err


def test_a_tier1_run_that_times_out_is_reported_apart_from_the_kills(capsys, monkeypatch):
    probe = load_probe()
    runs = []

    def run(args, **kwargs):
        runs.append(args)
        if len(runs) == 1:  # the unmutated baseline passes
            return subprocess.CompletedProcess(args, 0)
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(probe.subprocess, "run", run)
    assert probe.main(["--only", "errors.positive_fault"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(runs) == 3
    assert [line.split()[0] for line in lines[1:3]] == ["TIMEOUT", "TIMEOUT"]
    assert lines[4].startswith("2 mutants, 0 killed, 2 timed out, 0 survived")
    assert lines[-1] == "re-run: python tests/mutation_probe.py --only errors.positive_fault"
