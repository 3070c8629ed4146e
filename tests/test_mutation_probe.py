"""The mutation probe's tables name functions and mutants that exist.

``tests/mutation_probe.py`` runs for minutes and stays out of tier-1, so a
renamed target function or a reworded expression would surface only at the
end of a full run. These tests load it by path and generate its mutants
with ``ast`` alone, without running any.
"""

import ast
import importlib.util
from pathlib import Path

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
