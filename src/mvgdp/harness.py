"""Experiment orchestration: CSV ingestion, the trial loop, report emission.

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
* ablation: the firstpc experiment swept over three allocations (the
  declared favored set, its complement, and a uniform allocation), emitting
  one report per arm.

A run plans once and then only draws: the dataset is audited against the
declared bounds once, and :func:`plan_releases` returns the mechanism's own
plan from :mod:`mechanisms` for each arm, one per allocation (for MVG a
:class:`ReleasePlan`, holding the budget, the directions and the one
privacy-condition check). The ablation has three arms and every other
experiment one; a baseline takes no allocation but ``uniform``. Every
experiment then runs one trial loop: each chunk of trials, one stack of at
most ``mechanisms.CHUNK_ENTRIES`` entries per temporary, has its noise drawn
once (``draw_noise``: streams, normals, and ``dp:F`` bases), every arm
colors it (``color``; all but the last arm a copy) into a (T, m, n) stack
of releases, and the experiment's metric scores the stack. Trial t of every
arm thus releases from the draws of stream seed + t, and each arm's report
equals a one-arm run with its allocation bit for bit. The first-PC metric
scores a stack with one batched ``eigh`` and one batched product.

First-PC runs and ablations release the covariance query and derive
``dp:F`` directions, and both need only the Gram matrix X X^T. They read
the CSV in blocks of ``GRAM_BLOCK_CELLS`` cells, auditing each block and
adding its product to an :class:`AuditedGram`, so their memory does not
grow with N. Regression and covariance estimation release X itself and
parse the CSV in one vectorized pass. Either is skipped when the caller
hands in what it already read, as the CLI does.

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
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# check_condition, derive_directions_dp, mvg_equimodal, mvg_unimodal and
# delta_rho are not called here (plan_releases plans each run once, through
# the mechanisms' own plans); the names stay importable from this module
# because perfbench/tracing.py patches them here.
from .budget import (  # noqa: F401
    PrivacyParams,
    QueryKind,
    QuerySpec,
    check_condition,
)
from .errors import ConfigError, ContractViolationError, FormatError, is_count
from .mechanisms import (  # noqa: F401
    CHUNK_ENTRIES,
    PrecisionAllocation,
    _binary_favored,
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
    AuditedGram,
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

# The regression experiment trains on this leading share of the records,
# the paper's 248 of Liver's 345.
_TRAIN_FRACTION = 0.72


class Experiment(enum.Enum):
    REGRESSION = "regression"
    FIRST_PC = "firstpc"
    COVARIANCE_ESTIMATION = "covest"
    DIRECTION_ABLATION = "ablation"


# The experiments that release the covariance query: they need only the
# records' audited Gram matrix, so a run reads the file in blocks.
GRAM_EXPERIMENTS = frozenset({Experiment.FIRST_PC, Experiment.DIRECTION_ABLATION})


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

    def __post_init__(self):
        if not isinstance(self.experiment, Experiment):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.mechanism, MechanismKind):
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        check_run_options(self.trials, self.seed, self.ridge_reg)
        # as Python ints, so seed + t cannot overflow a numpy integer
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


def check_run_options(trials, seed, ridge_reg) -> None:
    """The checks :class:`ExperimentConfig` makes of its trial count, seed
    and ridge penalty, for a caller that has them before the dataset."""
    if not is_count(trials) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not is_count(seed) or not 0 <= seed < _SEED_MOD:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not 0 < ridge_reg < math.inf:
        raise ConfigError(f"ridge_reg must be positive and finite, got {ridge_reg}")


def check_experiment_options(experiment: Experiment, theta_spec: str) -> None:
    """Reject an allocation the experiment cannot run, before the dataset is
    read: the ablation sweeps a binary allocation's favored set."""
    if (experiment is Experiment.DIRECTION_ABLATION
            and not isinstance(parse_theta_grammar(theta_spec), tuple)):
        raise ConfigError(
            "the ablation experiment needs a binary allocation "
            f"(binary:TAU:I,J,...), got {theta_spec!r}"
        )


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

# Cells per block when a dataset is read for its Gram matrix: 512 KiB of
# float64, 4096 records at 16 features.
GRAM_BLOCK_CELLS = 65536


class _GridBlocks:
    """A numeric CSV's data rows, parsed into C-ordered rows x columns blocks.

    The one CSV parser: every reader iterates one of these. Cells are parsed
    by numpy's float reader (CPython's ``PyOS_string_to_double``, so each
    value has the bits ``float(cell)`` gives), surrounding whitespace and
    double quotes are stripped, and ``#`` is data, not a comment. Blank lines
    are skipped; with ``has_header`` the first other line holds column
    names, which ``names`` holds once iteration has started. Errors name the
    file line and column.

    With ``block_cells`` None the file is one block. Otherwise a block holds
    about ``block_cells`` cells (at least one row) and the file is streamed:
    each later block is parsed after a copy of the first data row, which is
    then dropped, so a row whose width differs from the first row's is
    reported at its own line, as in one pass over the file. ``block`` and
    ``block_line`` are the block yielded last and the file line of its first
    row.
    """

    def __init__(self, path, has_header: bool, block_cells: int | None = None):
        self.path = Path(path)
        self.names: list[str] | None = None
        self.block: np.ndarray | None = None
        self.block_line = 0
        self._has_header = has_header
        self._block_cells = block_cells

    def __iter__(self):
        path = self.path
        if not path.exists():
            raise FormatError(f"{path}: file not found")
        # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
        with open(path, encoding="utf-8-sig") as handle:
            lines = _NonBlankLines(handle)
            rows = iter(lines)
            if self._has_header:
                header = next(rows, None)
                if header is not None:
                    self.names = [cell.strip() for cell in next(csv.reader([header]))]
            head = next(rows, None)
            if head is None:
                raise FormatError(f"{path}: no data rows found")
            self.block_line = lines.line_no
            if self._block_cells is None:
                per_block = None
            else:  # sized from the first row's cells; the parse checks them
                per_block = max(1, self._block_cells // (head.count(",") + 1))
            self.block = self._parse(lines, [head], per_block, rows)
            width = self.block.shape[1]
            if self.names is not None and width != len(self.names):
                raise FormatError(
                    f"{path}: line {self.block_line} has {width} cells, expected "
                    f"{len(self.names)}"
                )
            yield self.block
            while per_block is not None:
                first = next(rows, None)
                if first is None:
                    return
                self.block_line = lines.line_no
                self.block = self._parse(lines, [head, first], per_block, rows)[1:]
                yield self.block

    def _parse(self, lines: _NonBlankLines, leading: list[str],
               per_block: int | None, rows) -> np.ndarray:
        """One ``np.loadtxt`` over ``leading`` and the rows that fill the
        block (all of them when ``per_block`` is None)."""
        more = None if per_block is None else per_block - 1
        try:
            return np.loadtxt(itertools.chain(leading, itertools.islice(rows, more)),
                              dtype=float, delimiter=",", quotechar='"',
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise _located_error(self.path, lines.line_no, exc) from None

    def escaping_line(self, lo: float, hi: float) -> int:
        """The file line of the first row of ``block`` with an entry outside
        [lo, hi] (NaN included), found by reading the file again."""
        inside = ((self.block >= lo) & (self.block <= hi)).all(axis=1)
        row = int(np.argmin(inside))
        with open(self.path, encoding="utf-8-sig") as handle:
            lines = _NonBlankLines(handle)
            block_rows = (line for line in lines if lines.line_no >= self.block_line)
            next(itertools.islice(block_rows, row, None))
            return lines.line_no


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
    always the dot regardless of locale. The file is parsed as one block
    (see :class:`_GridBlocks`); a caller that needs only X X^T reads it with
    :func:`read_csv_gram` instead, which never holds X.
    """
    blocks = _GridBlocks(path, has_header)
    (grid,) = blocks
    return grid.T, blocks.names


def load_dense_csv(path) -> np.ndarray:
    """Load a plain numeric matrix CSV without transposition.

    Used for covariance and direction matrices, where file rows are matrix
    rows.
    """
    (grid,) = _GridBlocks(path, has_header=False)
    return grid


def read_csv_gram(path, lo: float, hi: float, has_header: bool = False) -> AuditedGram:
    """Read a dataset CSV (rows are records) for its :class:`AuditedGram`.

    The file is parsed in blocks of ``GRAM_BLOCK_CELLS`` cells, each audited
    against [lo, hi] and added to X X^T before the next is read, so memory is
    O(M^2 + block) whatever N is. Parse errors are those of
    :func:`load_csv_matrix`; an entry outside [lo, hi] raises
    ContractViolationError naming its file line.
    """
    blocks = _GridBlocks(path, has_header, GRAM_BLOCK_CELLS)
    try:
        return AuditedGram(blocks, lo, hi)
    except ContractViolationError as exc:
        raise ContractViolationError(
            f"{blocks.path}: line {blocks.escaping_line(lo, hi)}: {exc}"
        ) from None


def parse_theta_grammar(spec: str):
    """Parse an allocation descriptor as far as it goes without m.

    Grammar: ``uniform`` | ``binary:TAU:I,J,...`` | explicit comma-separated
    shares such as ``0.4,0.4,0.1,0.1``. Returns ``None`` for ``uniform``, a
    binary allocation's (TAU, sorted favored indices) after the checks that
    need no m, or the list of shares.
    """
    text = spec.strip()
    if text == "uniform":
        return None
    if text.startswith("binary:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"binary allocation must look like binary:TAU:I,J,... got {text!r}"
            )
        try:
            tau = float(parts[1])
            favored = [int(tok) for tok in parts[2].split(",") if tok.strip() != ""]
        except ValueError:
            raise ConfigError(f"could not parse binary allocation {text!r}") from None
        return tau, _binary_favored(tau, favored)
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse allocation {spec!r}") from None


def parse_theta_spec(spec: str, m: int) -> PrecisionAllocation:
    """Parse an allocation descriptor (see :func:`parse_theta_grammar`) for
    m directions, checking its length and indices against m."""
    shares = parse_theta_grammar(spec)
    if shares is None:
        return PrecisionAllocation.uniform(m)
    if isinstance(shares, tuple):
        return PrecisionAllocation.binary(m, *shares)
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


def _check_shape(bounds: DataBounds, shape: tuple[int, int]) -> None:
    if shape != (bounds.num_features, bounds.num_samples):
        raise ConfigError(
            f"declared bounds describe a {bounds.num_features}x"
            f"{bounds.num_samples} dataset but the file holds {shape[0]}x"
            f"{shape[1]}"
        )


def audit_records(x: np.ndarray, bounds: DataBounds, directions_source: str,
                  num_direction: int | None = None):
    """Check a loaded dataset against its declared shape and range, each
    cell once, and return the direction data :func:`plan_releases` takes.

    The direction data are the first ``num_direction`` records (all by
    default). With ``dp:F`` directions their :class:`AuditedGram` is their
    audit and is returned, and only the other records are checked again;
    otherwise the records are returned as they are. A NaN cell fails the
    range check, and a violation names the range of all of ``x``.
    """
    _check_shape(bounds, x.shape)
    lo, hi = bounds.lo, bounds.hi
    if parse_directions_source(directions_source)[0] != "dp":
        check_within_bounds(x, lo, hi)
        return x[:, :num_direction]
    try:
        gram = AuditedGram.of(x[:, :num_direction], lo, hi)
        if gram.num_samples < x.shape[1]:
            check_within_bounds(x[:, num_direction:], lo, hi)
    except ContractViolationError:
        check_within_bounds(x, lo, hi)  # raises, naming the whole range
        raise
    return gram


def _audited_gram(cfg: ExperimentConfig, data) -> AuditedGram:
    """The Gram matrix of ``cfg``'s dataset, audited once: ``data`` if it is
    one (its box must be the declared one), built from ``data`` if it holds
    the records, and otherwise read from ``cfg.dataset_path`` in blocks."""
    bounds = cfg.bounds
    if data is None:
        gram = read_csv_gram(cfg.dataset_path, bounds.lo, bounds.hi,
                             cfg.csv_has_header)
    elif isinstance(data, AuditedGram):
        gram = data
    else:
        _check_shape(bounds, data.shape)  # before the audit, as audit_records does
        gram = AuditedGram.of(data, bounds.lo, bounds.hi)
    _check_shape(bounds, (gram.num_features, gram.num_samples))
    gram.check_box(bounds.lo, bounds.hi)
    return gram


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


def _plan_laplace(value, q: QuerySpec, privacy: PrivacyParams, bounds: DataBounds):
    # Laplace noise is calibrated to the L1 sensitivity, a pure-epsilon bound
    l1 = (covariance_sensitivity_l1 if q.kind is QueryKind.COVARIANCE
          else identity_sensitivity_l1)(bounds)
    return plan_laplace(value, q, privacy.epsilon, l1)


# One row per MechanismKind: a new kind is one planner plus one row. An mvg
# kind takes an allocation and directions, planned as plan(value, q, privacy,
# theta, w); a baseline adds i.i.d. noise, planned as plan(value, q, privacy,
# bounds). ``square`` names the noise that needs a square query.
_Mechanism = namedtuple("_Mechanism", ["plan", "mvg", "square"], defaults=[None])
_MECHANISMS = {
    MechanismKind.MVG_UNIMODAL: _Mechanism(plan_unimodal, mvg=True),
    MechanismKind.MVG_EQUIMODAL: _Mechanism(plan_equimodal, mvg=True,
                                            square="equi-modal noise"),
    MechanismKind.GAUSSIAN_IID: _Mechanism(
        lambda value, q, privacy, bounds: plan_gaussian(value, q, privacy), mvg=False),
    MechanismKind.LAPLACE_IID: _Mechanism(_plan_laplace, mvg=False),
}


def check_mechanism_options(mechanism: MechanismKind, theta_specs,
                            directions_source: str) -> None:
    """Reject the allocations and directions an i.i.d. baseline would ignore."""
    if _MECHANISMS[mechanism].mvg:
        return
    if parse_directions_source(directions_source)[0] != "standard":
        raise ConfigError(
            f"directions {directions_source!r} apply only to MVG mechanisms"
        )
    for spec in theta_specs:
        if spec.strip() != "uniform":
            raise ConfigError(
                f"allocation {spec!r} applies only to MVG mechanisms; the "
                f"{mechanism.value} baseline adds i.i.d. noise"
            )


def plan_releases(mechanism: MechanismKind, q: QuerySpec, value: np.ndarray,
                  privacy: PrivacyParams, theta_specs, directions_source: str,
                  bounds: DataBounds, direction_data: np.ndarray | AuditedGram) -> list:
    """Plan one mechanism's releases of a query value, one plan per allocation.

    Everything a trial does not change is done here, once per run: ``dp:F``
    splits the budget, and the directions (with ``dp:F`` the direction
    data's audit and covariance) are planned once and shared, so every plan's
    ``draw_noise`` draws the same from the same streams and the plans differ
    only in how they color it. Each is the mechanism's own plan from
    :mod:`mechanisms`, whose ``draw(streams)`` is the only per-trial step.

    Args:
        mechanism: which mechanism releases the value.
        q: the query spec.
        value: the query value released by every trial.
        privacy: the whole (epsilon, delta) budget of one release.
        theta_specs: the allocations, as :func:`parse_theta_spec` reads
            them; a baseline takes only ``uniform``.
        directions_source: ``standard``, ``dp:F`` or a basis CSV path.
        bounds: the declared bounds of ``direction_data``.
        direction_data: the records ``dp:F`` directions are derived from,
            or their :class:`AuditedGram`.
    """
    row = _MECHANISMS[mechanism]
    check_mechanism_options(mechanism, theta_specs, directions_source)
    if not row.mvg:
        return [row.plan(value, q, privacy, bounds)] * len(theta_specs)
    source_tag, source_val = parse_directions_source(directions_source)
    if row.square and q.m != q.n:
        raise ConfigError(
            f"{row.square} needs a square query, but this experiment's "
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
        w = None  # the design's standard side
    return [row.plan(value, q, privacy, parse_theta_spec(spec, q.m), w)
            for spec in theta_specs]


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


def _run_arms(cfg: ExperimentConfig, q: QuerySpec, value: np.ndarray,
              bounds: DataBounds, direction_data, arms: list[tuple[str, str]],
              score) -> list[EvalReport]:
    """One report per arm, a (metric name, allocation spec) pair, over
    ``cfg.trials`` releases of ``value``: each chunk's noise is drawn once,
    every arm but the last colors a copy of it, and the last takes it over.
    ``score`` maps a chunk's (T, m, n) stack of releases to its T values."""
    plans = plan_releases(cfg.mechanism, q, value, cfg.privacy,
                          [spec for _, spec in arms], cfg.directions_source,
                          bounds, direction_data)
    per_chunk = trials_per_chunk(q.m, q.n)
    streams = _trial_streams(cfg)
    values = [[] for _ in arms]
    for _ in range(0, cfg.trials, per_chunk):
        noise, *rest = plans[0].draw_noise(list(itertools.islice(streams, per_chunk)))
        for arm, (plan, arm_values) in enumerate(zip(plans, values)):
            # coloring may scale the noise in place; the last arm takes it over
            own = noise if arm == len(plans) - 1 else noise.copy()
            arm_values.append(score(plan.color(own, *rest)))
    return [mean_ci95(np.concatenate(arm_values), name)
            for (name, _), arm_values in zip(arms, values)]


def _run_regression(cfg: ExperimentConfig, x: np.ndarray) -> EvalReport:
    n_train = int(round(_TRAIN_FRACTION * cfg.bounds.num_samples))
    train_data = audit_records(x, cfg.bounds, cfg.directions_source, n_train)
    num_rows, num_records = x.shape
    if num_rows < 2:
        raise ConfigError(
            "regression needs at least one feature column plus the target column"
        )
    if not 1 <= n_train < num_records:
        raise ConfigError(
            f"a {_TRAIN_FRACTION} training share leaves no valid split of "
            f"{num_records} records"
        )
    train, test = x[:, :n_train], x[:, n_train:]
    train_bounds = DataBounds(num_rows, n_train, cfg.bounds.lo, cfg.bounds.hi)
    return _run_arms(
        cfg, identity_query(train_bounds), train, train_bounds, train_data,
        [("RMSE", cfg.theta_spec)],
        lambda stack: [ridge_regression_rmse((noisy[:-1], noisy[-1]),
                                             (test[:-1], test[-1]), cfg.ridge_reg)
                       for noisy in stack])[0]


def _run_firstpc(cfg: ExperimentConfig, gram: AuditedGram,
                 arms: list[tuple[str, str]]) -> list[EvalReport]:
    """One report per arm, a (metric name, allocation spec) pair, each
    scoring the top direction of every release by its captured-variance gap."""
    s_bar = gram.gram / gram.num_samples
    gap = DeltaRho(s_bar)
    return _run_arms(cfg, covariance_query(cfg.bounds), s_bar, cfg.bounds, gram, arms,
                     lambda stack: gap(_top_directions(stack)))


def _top_directions(noisy: np.ndarray) -> np.ndarray:
    """The top eigenvector of each symmetrized estimate in a (T, m, m)
    stack, as the rows of a (T, m) array; one batched ``eigh``."""
    sym = noisy + np.swapaxes(noisy, -1, -2)
    del noisy
    sym /= 2.0
    return np.linalg.eigh(sym)[1][..., -1]


def _run_covest(cfg: ExperimentConfig, x: np.ndarray, gram: AuditedGram) -> EvalReport:
    num_records = x.shape[1]
    s_bar = gram.gram / num_records
    return _run_arms(
        cfg, identity_query(cfg.bounds), x, cfg.bounds, gram, [("RSS", cfg.theta_spec)],
        lambda stack: [rss(noisy @ noisy.T / num_records, s_bar) for noisy in stack])[0]


def _ablation_arms(theta_spec: str, m: int) -> list[tuple[str, str]]:
    """The ablation's three arms, as (metric name, allocation spec) pairs:
    the binary allocation's favored set, its complement, and uniform."""
    tau, favored = parse_theta_grammar(theta_spec)
    complement = [i for i in range(m) if i not in favored]
    return [(f"delta_rho[{role}={'+'.join(map(str, indices))}]",
             f"binary:{tau}:{','.join(map(str, indices))}")
            for role, indices in (("favored", favored), ("complement", complement))
            ] + [("delta_rho[uniform]", "uniform")]


def run_experiment(cfg: ExperimentConfig,
                   data: np.ndarray | AuditedGram | None = None
                   ) -> EvalReport | list[EvalReport]:
    """Run one configured experiment end to end.

    Checks the allocation against the experiment, loads the dataset (unless
    ``data`` already holds it, as :func:`load_csv_matrix` returns it for
    ``cfg.dataset_path``), audits it once against the declared bounds
    (aborting before any sampling on a violation), runs the trial loop with
    per-trial seeds seed, seed+1, ..., and aggregates the metric. The
    ablation experiment returns one report per direction arm; the others
    return a single report.

    The experiments in ``GRAM_EXPERIMENTS`` use only X X^T: they read the
    file with :func:`read_csv_gram` and never hold X, and ``data`` may also
    be the :class:`AuditedGram` that returns. Regression and covariance
    estimation release X itself and need the records.
    """
    check_experiment_options(cfg.experiment, cfg.theta_spec)
    if cfg.experiment in GRAM_EXPERIMENTS:
        gram = _audited_gram(cfg, data)
        if cfg.experiment is Experiment.FIRST_PC:
            return _run_firstpc(cfg, gram, [("delta_rho", cfg.theta_spec)])[0]
        return _run_firstpc(cfg, gram, _ablation_arms(cfg.theta_spec,
                                                      gram.num_features))
    if isinstance(data, AuditedGram):
        raise ConfigError(
            f"the {cfg.experiment.value} experiment releases the records; a Gram "
            "matrix does not hold them"
        )
    x = load_csv_matrix(cfg.dataset_path, cfg.csv_has_header)[0] if data is None else data
    if cfg.experiment is Experiment.COVARIANCE_ESTIMATION:
        # the Gram matrix is both the audit and the reference covariance
        return _run_covest(cfg, x, _audited_gram(cfg, x))
    return _run_regression(cfg, x)


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
