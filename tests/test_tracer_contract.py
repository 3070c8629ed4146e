"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps mvgdp's functions at the names their callers
import. The benchmark's smoke test is not part of this suite, so without
these tests a renamed or deleted name (an import kept only for the tracer,
or a design attribute it sizes) would break ``perfbench/run.py --trace 1``
unnoticed. The tracer is loaded by path and only read. The same list lets
every other import be checked for use: a name imported for the tracer alone
is the only unused import a module may keep.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mvgdp
from mvgdp import DataBounds, Experiment, ExperimentConfig, MechanismKind, PrivacyParams
from mvgdp import PrecisionAllocation, QuerySpec, RandomStream
from mvgdp import budget, mechanisms

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "mvgdp"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    for layer, module_name, attr, _ in load_tracing().PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr}"


def unused_imports(source: str) -> set[str]:
    """The names a module's source imports (``__future__`` features aside)
    and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_unused_import_is_one_the_tracer_patches():
    patched = {(module_name, attr) for _, module_name, attr, _ in load_tracing().PATCHES}
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) > 1
    stray = {}
    for path in modules:
        module_name = f"mvgdp.{path.stem}"
        names = sorted(name for name in unused_imports(path.read_text(encoding="utf-8"))
                       if (module_name, name) not in patched)
        if names:
            stray[module_name] = names
    assert stray == {}, f"imported and never used: {stray}"


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .errors import ShapeError\n" \
             "from .budget import QuerySpec\nnp.eye(2)\nQuerySpec.r\n"
    assert unused_imports(source) == {"os", "ShapeError"}


def test_traced_firstpc_run_counts_design_bytes(tmp_path):
    # an earlier release of the same (q, p, theta) would leave the memos warm
    # and the traced run with nothing to build
    mechanisms.release_spectrum.cache_clear()
    budget.budget_terms.cache_clear()
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


def test_traced_release_counts_its_normal_draws():
    # perfbench --trace 1 reports a release's draws as sampling.normal_draws;
    # a rework of the draw must leave them visible to it
    tracing = load_tracing()
    value = np.diag([1.0, 0.5, 0.25, 0.125])
    args = (value, QuerySpec(4, 4, sensitivity=1.0, gamma=4.0), PrivacyParams(1.0, 0.01),
            PrecisionAllocation.uniform(4), np.eye(4))
    mvgdp.mvg_equimodal(*args, RandomStream(0))  # warm, as a benchmark release is
    with tracing.Tracer() as tracer:
        mvgdp.mvg_equimodal(*args, RandomStream(1))
    metrics = tracing.summarize(tracer.spans, tracer.counts)
    assert metrics["sampling.normal_draws"] == 16
