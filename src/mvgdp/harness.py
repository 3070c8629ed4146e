"""Experiment orchestration: CSV ingestion, trial loops, report emission.

Datasets on disk follow the usual rows-are-records convention; they are
transposed on load so that, in memory, columns are the records. Three
experiment archetypes are provided plus a direction-ablation sweep:

* regression: identity query on the training slice, with the target values
  carried as an extra feature row through the perturbation, then a ridge
  regression evaluated on the untouched test slice (RMSE).
* firstpc: covariance query, top principal direction of the perturbed
  estimate scored by its captured-variance gap.
* covest: identity query on the whole dataset (input perturbation),
  covariance recomputed from the perturbed data and scored by the residual
  sum of squares over all principal directions.
* ablation: the firstpc experiment swept over three direction sets (the
  declared favored set, its complement, and a uniform allocation), emitting
  one report per arm.

A run (or ablation arm) plans once and then only draws: the CSV is parsed
in one vectorized pass (or handed in by a caller that already loaded it, as
the CLI does) and audited against the declared bounds once, and
:func:`plan_release` returns the mechanism's own plan from
:mod:`mechanisms`: the validated query value with, for a baseline, its noise
scale, or for MVG a :class:`ReleasePlan` (the budget, the allocation, the
directions and the one privacy-condition check; for ``dp:F`` directions also
the direction data's audit and covariance). The trials are then drawn in
chunks, each one stack of at most ``mechanisms.CHUNK_ENTRIES`` entries per
temporary: the plan draws the chunk's releases as one (T, m, n) stack, and
the first-PC metric eigendecomposes the stack with one batched ``eigh`` and
scores it against a top eigenvalue taken once per run.

Runs are deterministic: trial t uses the stream seeded with seed + t
(wrapping past 2^64 - 1 to 0), so an identical configuration yields
byte-identical reports, equal bit for bit to a replay of the single-release
library calls trial by trial. A run hashes its trials' seeds in one
vectorized ``SeedSequence`` pass (``sampling.seed_state_words``), which gives
each stream the state ``RandomStream(seed + t)`` would have.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# check_condition, derive_directions_dp, mvg_equimodal, mvg_unimodal and
# delta_rho are not called here (plan_release plans each run once, through
# the mechanisms' own plans); the names stay importable from this module
# because perfbench/tracing.py patches them here.
from .budget import (  # noqa: F401
    PrivacyParams,
    QueryKind,
    QuerySpec,
    check_condition,
)
from .errors import ConfigError, FormatError
from .mechanisms import (  # noqa: F401
    CHUNK_ENTRIES,
    PrecisionAllocation,
    derive_directions_dp,
    mvg_equimodal,
    mvg_unimodal,
    plan_directions_dp,
    plan_equimodal,
    plan_gaussian,
    plan_laplace,
    plan_unimodal,
    trials_per_chunk,
)
from .metrics import (  # noqa: F401
    DeltaRho,
    EvalReport,
    delta_rho,
    mean_ci95,
    ridge_regression_rmse,
    rss,
)
from .sampling import RandomStream, seed_state_words
from .sensitivity import (
    DataBounds,
    check_within_bounds,
    covariance_sensitivity,
    covariance_sensitivity_l1,
    gamma_covariance,
    gamma_identity,
    identity_sensitivity,
    identity_sensitivity_l1,
)

_SEED_MOD = 2 ** 64


class Experiment(enum.Enum):
    REGRESSION = "regression"
    FIRST_PC = "firstpc"
    COVARIANCE_ESTIMATION = "covest"
    DIRECTION_ABLATION = "ablation"


class MechanismKind(enum.Enum):
    MVG_UNIMODAL = "mvg-uni"
    MVG_EQUIMODAL = "mvg-equi"
    GAUSSIAN_IID = "gauss"
    LAPLACE_IID = "laplace"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run."""

    experiment: Experiment
    dataset_path: str | Path
    bounds: DataBounds
    privacy: PrivacyParams
    mechanism: MechanismKind
    theta_spec: str = "uniform"
    directions_source: str = "standard"
    trials: int = 1
    seed: int = 0
    csv_has_header: bool = False
    ridge_reg: float = 1.0
    train_fraction: float = 0.72

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _SEED_MOD:
            raise ConfigError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if not self.ridge_reg > 0:
            raise ConfigError(f"ridge_reg must be positive, got {self.ridge_reg}")


# A line whose cells are all empty once stripped: nothing but whitespace,
# commas and double quotes.
_BLANK_LINE = re.compile(r'[\s,"]*')


class _NonBlankLines:
    """A text file's lines, skipping blank ones (see ``_BLANK_LINE``).

    ``line_no`` is the file line number of the line yielded last, so a
    parse error raised while that line is consumed can name it.
    """

    def __init__(self, handle):
        self._handle = handle
        self.line_no = 0

    def __iter__(self):
        for self.line_no, line in enumerate(self._handle, start=1):
            first = line[0]
            # the first-character test keeps the regex off ordinary data lines
            if (first.isspace() or first in ',"') and _BLANK_LINE.fullmatch(line):
                continue
            yield line


_BAD_CELL = re.compile(r"could not convert string (.*) to float64 at row \d+, column (\d+)")
_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+)")


def _parse_grid(path, has_header: bool) -> tuple[np.ndarray, list[str] | None]:
    """Parse a numeric CSV into a C-ordered file-rows x file-columns array.

    One vectorized pass streams the file: cells are parsed by numpy's float
    reader (CPython's ``PyOS_string_to_double``, so each value has the bits
    ``float(cell)`` gives), surrounding whitespace and double quotes are
    stripped, and ``#`` is data, not a comment. Blank lines are skipped;
    with ``has_header`` the first other line holds column names.
    Errors name the file line and column.
    """
    path = Path(path)
    if not path.exists():
        raise FormatError(f"{path}: file not found")
    names: list[str] | None = None
    with open(path, encoding="utf-8") as handle:
        lines = _NonBlankLines(handle)
        rows = iter(lines)
        if has_header:
            header = next(rows, None)
            if header is not None:
                names = [cell.strip() for cell in next(csv.reader([header]))]
        first = next(rows, None)
        if first is None:
            raise FormatError(f"{path}: no data rows found")
        first_line_no = lines.line_no
        try:
            grid = np.loadtxt(itertools.chain([first], rows), dtype=float,
                              delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError as exc:
            raise _located_error(path, lines.line_no, exc) from None
    if names is not None and grid.shape[1] != len(names):
        raise FormatError(
            f"{path}: line {first_line_no} has {grid.shape[1]} cells, expected "
            f"{len(names)}"
        )
    return grid, names


def _located_error(path: Path, line_no: int, exc: ValueError) -> FormatError:
    """Turn numpy's parse error, which counts data rows, into one naming the
    file line it was raised on."""
    bad_cell = _BAD_CELL.search(str(exc))
    if bad_cell:
        return FormatError(
            f"{path}: non-numeric cell at line {line_no}, column "
            f"{bad_cell.group(2)}: {bad_cell.group(1)}"
        )
    ragged = _RAGGED.search(str(exc))
    if ragged:
        return FormatError(
            f"{path}: line {line_no} has {ragged.group(2)} cells, expected "
            f"{ragged.group(1)}"
        )
    return FormatError(f"{path}: line {line_no}: {exc}")


def load_csv_matrix(path, has_header: bool = False) -> tuple[np.ndarray, list[str] | None]:
    """Load a dataset CSV into the columns-are-records convention.

    File rows are records; the returned matrix has one row per file column
    (feature) and one column per file row (record). Decimal separator is
    always the dot regardless of locale.
    """
    grid, names = _parse_grid(path, has_header)
    return grid.T, names


def load_dense_csv(path) -> np.ndarray:
    """Load a plain numeric matrix CSV without transposition.

    Used for covariance and direction matrices, where file rows are matrix
    rows.
    """
    grid, _ = _parse_grid(path, has_header=False)
    return grid


def parse_theta_spec(spec: str, m: int) -> PrecisionAllocation:
    """Parse an allocation descriptor.

    Grammar: ``uniform`` | ``binary:TAU:I,J,...`` | explicit comma-separated
    shares such as ``0.4,0.4,0.1,0.1``.
    """
    text = spec.strip()
    if text == "uniform":
        return PrecisionAllocation.uniform(m)
    binary = _binary_parts(text)
    if binary is not None:
        return PrecisionAllocation.binary(m, *binary)
    try:
        shares = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse allocation {spec!r}") from None
    if len(shares) != m:
        raise ConfigError(
            f"allocation {spec!r} has {len(shares)} entries, expected {m}"
        )
    return PrecisionAllocation(np.asarray(shares))


def parse_directions_source(source: str):
    """Parse a directions descriptor into one of three tagged forms.

    ``standard`` uses the standard basis; ``dp:FRACTION`` derives directions
    privately, spending that fraction of the budget; anything else is a path
    to a dense CSV holding an orthonormal matrix.
    """
    text = str(source).strip()
    if text == "standard":
        return ("standard", None)
    if text.startswith("dp:"):
        try:
            fraction = float(text[3:])
        except ValueError:
            raise ConfigError(f"could not parse direction budget in {source!r}") from None
        if not 0.0 < fraction < 1.0:
            raise ConfigError(
                f"direction budget fraction must lie in (0, 1), got {fraction}"
            )
        return ("dp", fraction)
    return ("file", text)


def _binary_parts(spec: str) -> tuple[float, list[int]] | None:
    """Split ``binary:TAU:I,J,...`` into TAU and the favored indices.

    Returns None when the spec is not a binary allocation at all.
    """
    text = spec.strip()
    if not text.startswith("binary:"):
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"binary allocation must look like binary:TAU:I,J,... got {spec!r}"
        )
    try:
        tau = float(parts[1])
        favored = [int(tok) for tok in parts[2].split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse binary allocation {spec!r}") from None
    return tau, favored


def audit_bounds(x: np.ndarray, bounds: DataBounds) -> None:
    """Check a loaded dataset against its declared shape and range; a NaN
    cell fails the range check."""
    if x.shape != (bounds.num_features, bounds.num_samples):
        raise ConfigError(
            f"declared bounds describe a {bounds.num_features}x"
            f"{bounds.num_samples} dataset but the file holds {x.shape[0]}x"
            f"{x.shape[1]}"
        )
    check_within_bounds(x, bounds)


def identity_query(bounds: DataBounds) -> QuerySpec:
    """The identity query on a dataset with the given bounds."""
    return QuerySpec(bounds.num_features, bounds.num_samples,
                     sensitivity=identity_sensitivity(bounds),
                     gamma=gamma_identity(bounds), kind=QueryKind.IDENTITY)


def covariance_query(bounds: DataBounds) -> QuerySpec:
    """The covariance query X X^T / N on a dataset with the given bounds."""
    return QuerySpec(bounds.num_features, bounds.num_features,
                     sensitivity=covariance_sensitivity(bounds),
                     gamma=gamma_covariance(bounds), kind=QueryKind.COVARIANCE)


def plan_release(mechanism: MechanismKind, q: QuerySpec, value: np.ndarray,
                 privacy: PrivacyParams, theta_spec: str, directions_source: str,
                 bounds: DataBounds, direction_data: np.ndarray):
    """Plan one mechanism's releases of one fixed query value.

    Everything a trial does not change is done here, once per run (or
    ablation arm): ``dp:F`` splits the budget and plans the direction data's
    audit and covariance, and the mechanism's own plan from :mod:`mechanisms`
    is built, whose ``draw(streams)`` is the only per-trial step.

    Args:
        mechanism: which mechanism releases the value.
        q: the query spec.
        value: the query value released by every trial.
        privacy: the whole (epsilon, delta) budget of one release.
        theta_spec: the allocation, as :func:`parse_theta_spec` reads it.
        directions_source: ``standard``, ``dp:F`` or a basis CSV path.
        bounds: the declared bounds of ``direction_data``.
        direction_data: the records ``dp:F`` directions are derived from.
    """
    source_tag, source_val = parse_directions_source(directions_source)
    if mechanism in (MechanismKind.GAUSSIAN_IID, MechanismKind.LAPLACE_IID):
        if source_tag != "standard":
            raise ConfigError(
                f"directions {directions_source!r} apply only to MVG mechanisms"
            )
        if mechanism is MechanismKind.GAUSSIAN_IID:
            return plan_gaussian(value, q, privacy)
        l1 = (covariance_sensitivity_l1 if q.kind is QueryKind.COVARIANCE
              else identity_sensitivity_l1)(bounds)
        return plan_laplace(value, q, privacy.epsilon, l1)
    if mechanism is MechanismKind.MVG_EQUIMODAL and q.m != q.n:
        raise ConfigError(
            f"equi-modal noise needs a square query, but this experiment's "
            f"query is {q.m}x{q.n}"
        )
    if source_tag == "dp":
        p_directions = PrivacyParams(privacy.epsilon * source_val,
                                     privacy.delta * source_val)
        privacy = PrivacyParams(privacy.epsilon * (1.0 - source_val),
                                privacy.delta * (1.0 - source_val))
        w = plan_directions_dp(direction_data, p_directions, q.m, bounds=bounds)
    elif source_tag == "file":
        w = load_dense_csv(source_val)
    else:
        w = np.eye(q.m)
    planner = plan_unimodal if mechanism is MechanismKind.MVG_UNIMODAL else plan_equimodal
    return planner(value, q, privacy, parse_theta_spec(theta_spec, q.m), w)


def _trial_streams(cfg: ExperimentConfig):
    """Trial t's stream, seeded (seed + t) mod 2^64, in trial order.

    The seeds' state words are hashed in one vectorized pass per block of
    ``CHUNK_ENTRIES // 4`` trials (one (T, 4) temporary); each stream is
    built from its words only when it is consumed.
    """
    block = CHUNK_ENTRIES // 4
    for start in range(0, cfg.trials, block):
        count = min(block, cfg.trials - start)
        # uint64 arithmetic wraps seed + t past 2^64 - 1 to 0
        seeds = np.uint64((cfg.seed + start) % _SEED_MOD) + np.arange(count,
                                                                      dtype=np.uint64)
        for seed, words in zip(seeds.tolist(), seed_state_words(seeds)):
            yield RandomStream.from_state_words(seed, words)


def _trial_chunks(cfg: ExperimentConfig, plan):
    """The run's releases in trial order, as (T, m, n) stacks: each is one
    ``plan.draw`` over the next ``trials_per_chunk`` trials' streams."""
    per_chunk = trials_per_chunk(*plan.value.shape)
    streams = _trial_streams(cfg)
    for _ in range(0, cfg.trials, per_chunk):
        yield plan.draw(list(itertools.islice(streams, per_chunk)))


def _run_regression(cfg: ExperimentConfig, x: np.ndarray) -> EvalReport:
    num_rows, num_records = x.shape
    if num_rows < 2:
        raise ConfigError(
            "regression needs at least one feature column plus the target column"
        )
    n_train = int(round(cfg.train_fraction * num_records))
    if not 1 <= n_train < num_records:
        raise ConfigError(
            f"train fraction {cfg.train_fraction} leaves no valid split of "
            f"{num_records} records"
        )
    train, test = x[:, :n_train], x[:, n_train:]
    train_bounds = DataBounds(num_rows, n_train, cfg.bounds.lo, cfg.bounds.hi)
    plan = plan_release(cfg.mechanism, identity_query(train_bounds), train,
                        cfg.privacy, cfg.theta_spec, cfg.directions_source,
                        train_bounds, train)
    values = []
    for chunk in _trial_chunks(cfg, plan):
        for noisy in chunk:
            values.append(ridge_regression_rmse(
                (noisy[:-1], noisy[-1]), (test[:-1], test[-1]), cfg.ridge_reg
            ))
    return mean_ci95(values, "RMSE")


def _run_firstpc(cfg: ExperimentConfig, x: np.ndarray,
                 theta_spec: str | None = None,
                 metric_name: str = "delta_rho") -> EvalReport:
    s_bar = x @ x.T / x.shape[1]
    gap = DeltaRho(s_bar)
    plan = plan_release(cfg.mechanism, covariance_query(cfg.bounds), s_bar,
                        cfg.privacy, theta_spec or cfg.theta_spec,
                        cfg.directions_source, cfg.bounds, x)
    values = []
    for chunk in _trial_chunks(cfg, plan):
        values.extend(gap(_top_directions(chunk)))
    return mean_ci95(values, metric_name)


def _top_directions(noisy: np.ndarray) -> np.ndarray:
    """The top eigenvector of each symmetrized estimate in a (T, m, m)
    stack, as the rows of a (T, m) array; one batched ``eigh``."""
    sym = noisy + np.swapaxes(noisy, -1, -2)
    del noisy
    sym /= 2.0
    return np.linalg.eigh(sym)[1][..., -1]


def _run_covest(cfg: ExperimentConfig, x: np.ndarray) -> EvalReport:
    num_records = x.shape[1]
    s_bar = x @ x.T / num_records
    plan = plan_release(cfg.mechanism, identity_query(cfg.bounds), x, cfg.privacy,
                        cfg.theta_spec, cfg.directions_source, cfg.bounds, x)
    values = []
    for chunk in _trial_chunks(cfg, plan):
        for noisy in chunk:
            values.append(rss(noisy @ noisy.T / num_records, s_bar))
    return mean_ci95(values, "RSS")


def _run_ablation(cfg: ExperimentConfig, x: np.ndarray) -> list[EvalReport]:
    num_features = x.shape[0]
    binary = _binary_parts(cfg.theta_spec)
    if binary is None:
        raise ConfigError(
            "the ablation experiment needs a binary allocation "
            f"(binary:TAU:I,J,...), got {cfg.theta_spec!r}"
        )
    tau, favored = binary
    favored = sorted(set(favored))
    complement = [i for i in range(num_features) if i not in favored]
    if not complement:
        raise ConfigError("favored set covers every direction; nothing to ablate")
    arms = [
        (f"delta_rho[favored={'+'.join(map(str, favored))}]",
         f"binary:{tau}:{','.join(map(str, favored))}"),
        (f"delta_rho[complement={'+'.join(map(str, complement))}]",
         f"binary:{tau}:{','.join(map(str, complement))}"),
        ("delta_rho[uniform]", "uniform"),
    ]
    return [
        _run_firstpc(cfg, x, theta_spec=spec, metric_name=name)
        for name, spec in arms
    ]


def run_experiment(cfg: ExperimentConfig,
                   data: np.ndarray | None = None) -> EvalReport | list[EvalReport]:
    """Run one configured experiment end to end.

    Loads the dataset (unless ``data`` already holds it, as
    :func:`load_csv_matrix` returns it for ``cfg.dataset_path``), audits it
    against the declared bounds (aborting before any sampling on a
    violation), runs the trial loop with per-trial seeds seed, seed+1, ...,
    and aggregates the metric. The ablation experiment returns one report per
    direction arm; the others return a single report.
    """
    x = load_csv_matrix(cfg.dataset_path, cfg.csv_has_header)[0] if data is None else data
    audit_bounds(x, cfg.bounds)
    if cfg.experiment is Experiment.REGRESSION:
        return _run_regression(cfg, x)
    if cfg.experiment is Experiment.FIRST_PC:
        return _run_firstpc(cfg, x)
    if cfg.experiment is Experiment.COVARIANCE_ESTIMATION:
        return _run_covest(cfg, x)
    if cfg.experiment is Experiment.DIRECTION_ABLATION:
        return _run_ablation(cfg, x)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


def format_significant(x: float, digits: int = 6) -> str:
    """Fixed-point rendering with a fixed count of significant digits.

    Unlike the %g format, trailing zeros are kept so output width is stable;
    zero renders as a bare 0.
    """
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return repr(x)
    # the exponent after rounding, so a carry (9.9999996 -> 10.0000) does
    # not add a digit
    exponent = int(f"{x:.{digits - 1}e}".rpartition("e")[2])
    decimals = max(0, digits - 1 - exponent)
    return f"{x:.{decimals}f}"


class ReportFormat(enum.Enum):
    TEXT = "text"
    CSV = "csv"


def emit_report(report, fmt: ReportFormat = ReportFormat.TEXT) -> bytes:
    """Render one report or a sequence of reports as UTF-8 bytes.

    Text lines look like ``metric=RMSE mean=0.0162400 ci95=±0.000260000
    trials=100``; CSV output carries a header row plus one row per report.
    Values use six significant digits, so formatting is deterministic.
    """
    reports = [report] if isinstance(report, EvalReport) else list(report)
    if fmt is ReportFormat.TEXT:
        lines = [
            f"metric={r.metric_name} mean={format_significant(r.mean)} "
            f"ci95=±{format_significant(r.ci95_half_width)} trials={r.trials}"
            for r in reports
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "mean", "ci95", "trials"])
    for r in reports:
        writer.writerow([
            r.metric_name,
            format_significant(r.mean),
            format_significant(r.ci95_half_width),
            r.trials,
        ])
    return buffer.getvalue().encode("utf-8")
