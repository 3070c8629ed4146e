"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps mvgdp's functions at the names their callers
import. The benchmark's smoke test is not part of this suite, so without
these tests a renamed or deleted name (an import kept only for the tracer,
or a design attribute it sizes) would break ``perfbench/run.py --trace 1``
unnoticed. The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mvgdp
from mvgdp import DataBounds, Experiment, ExperimentConfig, MechanismKind, PrivacyParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    for layer, module_name, attr, _ in load_tracing().PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr}"


def test_traced_firstpc_run_counts_design_bytes(tmp_path):
    tracing = load_tracing()
    data = np.random.default_rng(2).choice([-1.0, 1.0], size=(4, 200))
    path = tmp_path / "data.csv"
    np.savetxt(path, data.T, delimiter=",")
    cfg = ExperimentConfig(
        experiment=Experiment.FIRST_PC, dataset_path=path,
        bounds=DataBounds(4, 200, -1.0, 1.0), privacy=PrivacyParams(1.0, 1 / 200),
        mechanism=MechanismKind.MVG_EQUIMODAL, trials=3, seed=1,
    )
    with tracing.Tracer() as tracer:
        mvgdp.run_experiment(cfg)
    metrics = tracing.summarize(tracer.spans, tracer.counts)
    assert metrics["design.bytes_computed"] > 0
    assert metrics["design.build_calls"] >= 1
