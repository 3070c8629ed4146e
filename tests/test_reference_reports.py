"""The benchmark's workloads still report what ``perfbench/references.json``
recorded, byte for byte.

Each workload is built at full size from the recorded seed and run once.
The reports depend on numpy's random streams and linear algebra, so the
tests skip under a numpy version other than the recorded one. The workloads
are loaded from ``perfbench/workloads.py`` by path and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclass looks the module up by name while it is built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_workload_has_a_reference():
    assert set(load_workloads().NAMES) == set(REFERENCES["reports"])


@pytest.mark.skipif(np.__version__ != REFERENCES["numpy"],
                    reason=f"recorded under numpy {REFERENCES['numpy']}")
@pytest.mark.parametrize("name", sorted(REFERENCES["reports"]))
def test_report_equals_the_recorded_one(tmp_path, name):
    workloads = load_workloads()
    seed = REFERENCES["seed"]
    path = tmp_path / f"{name}.csv"
    workloads.write_csv(path, workloads.make_data(name, "full", seed))
    inputs = workloads.build(name, str(path), "full", seed)
    assert inputs.run().decode("utf-8") == REFERENCES["reports"][name]
