"""The benchmark's three workloads.

Each workload generates its own dataset from the seed, writes it as a
rows-are-records CSV, and builds its inputs through mvgdp's public API. It
then offers two operations:

* ``release(inputs, stream)``: one library release, returning the
  ``PerturbResult`` whose output and design the caller checks.
* ``run(inputs)``: one whole harness or CLI run, returning the report bytes.

Why these three (also recorded in BENCHMARK.json):

* ``uni-wide`` is the only workload where the record count N enters the
  design: ``mvg_unimodal`` builds an N x N identity column side, checks it
  for orthonormality in O(N^3) and multiplies by it when sampling.
* ``equi-small`` has 4 x 4 matrices, so fixed per-call costs dominate: the
  budget recompute, the condition check run twice per trial, design
  validation and the eigendecompositions in the metrics.
* ``dp-tall`` derives directions privately from a 16 x 50000 dataset on every
  release and runs through the CLI, whose pure-Python CSV ingest runs twice
  per ``bench`` run.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mvgdp
from mvgdp import cli

# Record counts and trials per harness/CLI run. "tiny" exists for the smoke
# test only; every published figure uses "full".
SIZES = {
    "full": {"uni-wide": (2126, 20), "equi-small": (2000, 200), "dp-tall": (50000, 250)},
    "tiny": {"uni-wide": (300, 3), "equi-small": (200, 10), "dp-tall": (2000, 5)},
}

THETA = "binary:0.9:0,1"
EPSILON = 1.0
DIRECTIONS_FRACTION = 0.2

_REPORT_FIELDS = ("metric", "mean", "ci95", "trials")


@dataclass
class Inputs:
    """Everything one workload's release and run need, built in set-up."""

    x: np.ndarray
    query_value: np.ndarray
    query: mvgdp.QuerySpec
    privacy: mvgdp.PrivacyParams
    theta: mvgdp.PrecisionAllocation
    bounds: mvgdp.DataBounds
    directions: np.ndarray | None
    directions_privacy: mvgdp.PrivacyParams | None
    run: Callable[[], bytes]
    trials_per_run: int
    metric_names: tuple[str, ...]


def _harness_run(cfg: mvgdp.ExperimentConfig) -> Callable[[], bytes]:
    # looked up at call time, so the tracer's wrapper is seen
    return lambda: mvgdp.emit_report(mvgdp.run_experiment(cfg))


def _cli_run(argv: list[str]) -> Callable[[], bytes]:
    def run() -> bytes:
        buffer = io.BytesIO()
        stdout = io.TextIOWrapper(buffer, encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        stdout.flush()
        if code != 0:
            raise RuntimeError(f"mvgdp bench exited with code {code}")
        return buffer.getvalue()
    return run


# -- data ------------------------------------------------------------------

def _uni_wide_data(rng: np.random.Generator, n: int) -> np.ndarray:
    # 20 features in [0, 1] and a target row in [0, 1] that depends on them
    features = rng.random((20, n))
    weights = rng.random(20)
    target = features.T @ weights / weights.sum() + 0.05 * rng.standard_normal(n)
    return np.vstack([features, np.clip(target, 0.0, 1.0)])


def _equi_small_data(rng: np.random.Generator, n: int) -> np.ndarray:
    scale = np.array([2.0, math.sqrt(3.0), math.sqrt(0.1), math.sqrt(0.1)])
    return scale[:, None] * rng.choice([-1.0, 1.0], size=(4, n))


def _dp_tall_data(rng: np.random.Generator, n: int) -> np.ndarray:
    scale = np.linspace(1.0, 0.25, 16)
    return scale[:, None] * rng.uniform(-1.0, 1.0, size=(16, n))


def write_csv(path, x: np.ndarray) -> None:
    """Write a features-by-records matrix as a rows-are-records CSV."""
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g")


# -- set-up ----------------------------------------------------------------

def _build_uni_wide(path: str, n: int, trials: int, seed: int) -> Inputs:
    x, _ = mvgdp.load_csv_matrix(path)
    m = x.shape[0]
    bounds = mvgdp.DataBounds(m, n, 0.0, 1.0)
    privacy = mvgdp.PrivacyParams(EPSILON, 1.0 / n)
    query = mvgdp.QuerySpec(m, n, sensitivity=mvgdp.identity_sensitivity(bounds),
                            gamma=mvgdp.gamma_identity(bounds),
                            kind=mvgdp.QueryKind.IDENTITY)
    cfg = mvgdp.ExperimentConfig(
        experiment=mvgdp.Experiment.REGRESSION, dataset_path=path, bounds=bounds,
        privacy=privacy, mechanism=mvgdp.MechanismKind.MVG_UNIMODAL,
        theta_spec=THETA, trials=trials, seed=seed)
    return Inputs(x=x, query_value=x, query=query, privacy=privacy,
                  theta=mvgdp.parse_theta_spec(THETA, m), bounds=bounds,
                  directions=np.eye(m), directions_privacy=None,
                  run=_harness_run(cfg), trials_per_run=trials,
                  metric_names=("RMSE",))


def _build_equi_small(path: str, n: int, trials: int, seed: int) -> Inputs:
    x, _ = mvgdp.load_csv_matrix(path)
    m = x.shape[0]
    bounds = mvgdp.DataBounds(m, n, -2.0, 2.0)
    privacy = mvgdp.PrivacyParams(EPSILON, 1.0 / n)
    query = mvgdp.QuerySpec(m, m, sensitivity=mvgdp.covariance_sensitivity(bounds),
                            gamma=mvgdp.gamma_covariance(bounds),
                            kind=mvgdp.QueryKind.COVARIANCE)
    cfg = mvgdp.ExperimentConfig(
        experiment=mvgdp.Experiment.DIRECTION_ABLATION, dataset_path=path,
        bounds=bounds, privacy=privacy, mechanism=mvgdp.MechanismKind.MVG_EQUIMODAL,
        theta_spec=THETA, trials=trials, seed=seed)
    return Inputs(x=x, query_value=x @ x.T / n, query=query, privacy=privacy,
                  theta=mvgdp.parse_theta_spec(THETA, m), bounds=bounds,
                  directions=np.eye(m), directions_privacy=None,
                  run=_harness_run(cfg), trials_per_run=3 * trials,
                  metric_names=("delta_rho[favored=0+1]", "delta_rho[complement=2+3]",
                                "delta_rho[uniform]"))


def _build_dp_tall(path: str, n: int, trials: int, seed: int) -> Inputs:
    x, _ = mvgdp.load_csv_matrix(path)
    m = x.shape[0]
    bounds = mvgdp.DataBounds(m, n, -1.0, 1.0)
    total = mvgdp.PrivacyParams(EPSILON, 1.0 / n)
    # the same split as the CLI's --directions dp:FRACTION
    f = DIRECTIONS_FRACTION
    directions_privacy = mvgdp.PrivacyParams(total.epsilon * f, total.delta * f)
    privacy = mvgdp.PrivacyParams(total.epsilon * (1 - f), total.delta * (1 - f))
    query = mvgdp.QuerySpec(m, m, sensitivity=mvgdp.covariance_sensitivity(bounds),
                            gamma=mvgdp.gamma_covariance(bounds),
                            kind=mvgdp.QueryKind.COVARIANCE)
    argv = ["bench", "--experiment", "firstpc", "--input", path,
            "--mechanism", "mvg-equi", f"--epsilon={EPSILON}", "--lo=-1", "--hi=1",
            f"--directions=dp:{f}", "--tau=0.9", "--favored=0,1",
            f"--trials={trials}", f"--seed={seed}"]
    return Inputs(x=x, query_value=x @ x.T / n, query=query, privacy=privacy,
                  theta=mvgdp.parse_theta_spec(THETA, m), bounds=bounds,
                  directions=None, directions_privacy=directions_privacy,
                  run=_cli_run(argv), trials_per_run=trials,
                  metric_names=("delta_rho",))


_DATA = {"uni-wide": _uni_wide_data, "equi-small": _equi_small_data,
         "dp-tall": _dp_tall_data}
_BUILD = {"uni-wide": _build_uni_wide, "equi-small": _build_equi_small,
          "dp-tall": _build_dp_tall}
NAMES = tuple(_DATA)


def make_data(name: str, size: str, seed: int) -> np.ndarray:
    n, _ = SIZES[size][name]
    return _DATA[name](np.random.default_rng(seed), n)


def build(name: str, path: str, size: str, seed: int) -> Inputs:
    n, trials = SIZES[size][name]
    return _BUILD[name](str(path), n, trials, seed)


# -- operations ------------------------------------------------------------

def release(inputs: Inputs, stream: mvgdp.RandomStream) -> mvgdp.PerturbResult:
    """One library release, the way a caller of mvgdp makes it."""
    w = inputs.directions
    if w is None:
        # the CLI's perturb path: directions first, then the mechanism, one stream
        w = mvgdp.derive_directions_dp(inputs.x, inputs.directions_privacy,
                                       inputs.query.m, stream, bounds=inputs.bounds)
    if inputs.query.kind is mvgdp.QueryKind.IDENTITY:
        return mvgdp.mvg_unimodal(inputs.query_value, inputs.query, inputs.privacy,
                                  inputs.theta, w, stream)
    return mvgdp.mvg_equimodal(inputs.query_value, inputs.query, inputs.privacy,
                               inputs.theta, w, stream)


def check_release(inputs: Inputs, result: mvgdp.PerturbResult) -> float:
    """Check one release's invariants; return its per-entry noise sd.

    The noise sd is sqrt(tr Sigma * tr Psi / (m n)); the bases are
    orthonormal, so each trace is the sum of that side's singular values.
    """
    q = inputs.query
    if result.output.shape != (q.m, q.n) or not np.all(np.isfinite(result.output)):
        raise AssertionError(f"release output has shape {result.output.shape} or "
                             "non-finite entries")
    check = mvgdp.check_condition(result.design, q, inputs.privacy)
    if not check.holds:
        raise AssertionError(f"released design fails the condition: {check}")
    d = result.design
    return math.sqrt(float(np.sum(d.lambda_sigma)) * float(np.sum(d.lambda_psi))
                     / (q.m * q.n))


def parse_report(inputs: Inputs, report: bytes) -> float:
    """Check a text report's shape; return its utility loss (the first mean).

    For the ablation the first line is the favored arm.
    """
    lines = report.decode("utf-8").splitlines()
    names = []
    first_mean = None
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split(" "))
        if tuple(fields) != _REPORT_FIELDS:
            raise AssertionError(f"malformed report line {line!r}")
        mean = float(fields["mean"])
        ci95 = float(fields["ci95"].lstrip("±"))
        if not (math.isfinite(mean) and mean >= 0 and math.isfinite(ci95)):
            raise AssertionError(f"report line has a bad value: {line!r}")
        if int(fields["trials"]) * len(inputs.metric_names) != inputs.trials_per_run:
            raise AssertionError(f"report line has the wrong trial count: {line!r}")
        names.append(fields["metric"])
        if first_mean is None:
            first_mean = mean
    if tuple(names) != inputs.metric_names:
        raise AssertionError(f"report metrics {names} differ from "
                             f"{list(inputs.metric_names)}")
    return first_mean
