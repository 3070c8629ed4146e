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

A run plans once and then only draws: the dataset is clamped into the
declared bounds once (``sensitivity.clamp``), and :func:`plan_releases`
returns the mechanism's own plan from :mod:`mechanisms` for each arm, one
per allocation (for MVG a
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
the CSV in blocks of ``sensitivity.GRAM_BLOCK_CELLS`` cells, clamping each
block and adding its product to an :class:`AuditedGram`, so their memory
does not grow with N. Regression and covariance estimation release X itself
and parse the CSV in one vectorized pass, and :func:`clamp_records` clamps
X where it enters. Either read is skipped when the caller hands in what it
already read, as the CLI does. Records handed in are summed in the same
blocks (``AuditedGram.of``), so a run from them equals a run from the file
bit for bit.

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
import os
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sensitivity

# check_condition, derive_directions_dp, mvg_equimodal, mvg_unimodal and
# delta_rho are not called here (plan_releases plans each run once, through
# the mechanisms' own plans); the names stay importable from this module
# because perfbench/tracing.py patches them here.
from .budget import (  # noqa: F401
    PrivacyParams,
    QuerySpec,
    check_condition,
)
from .errors import ConfigError, FormatError, as_count, as_real, is_count
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
    clamp,
    covariance_query,
    identity_query,
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
        for name, kinds in (("dataset_path", (str, os.PathLike)), ("bounds", (DataBounds,)),
                            ("privacy", (PrivacyParams,)), ("csv_has_header", (bool,))):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise ConfigError(f"{name} must be a {names}, got {value!r}")
        check_run_options(self.experiment, self.mechanism, self.theta_spec,
                          self.directions_source, self.trials, self.seed, self.ridge_reg)
        # as Python ints, so seed + t cannot overflow a numpy integer
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


def check_run_options(experiment: Experiment, mechanism: MechanismKind, theta_spec: str,
                      directions_source: str, trials, seed, ridge_reg) -> None:
    """Reject every option of a run that needs no dataset to check, as
    :class:`ExperimentConfig` does on construction; the allocation's length
    and indices wait for the dataset's m."""
    if not isinstance(experiment, Experiment):
        raise ConfigError(f"unknown experiment {experiment!r}")
    if not isinstance(mechanism, MechanismKind):
        raise ConfigError(f"unknown mechanism {mechanism!r}")
    as_count(trials, "trials", ConfigError)
    if not is_count(seed) or not 0 <= seed < _SEED_MOD:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    as_real(ridge_reg, "ridge_reg", ConfigError, positive=True)
    for name, value in (("theta_spec", theta_spec),
                        ("directions_source", directions_source)):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
    allocation = parse_theta_grammar(theta_spec)
    if experiment is Experiment.DIRECTION_ABLATION and not isinstance(allocation, tuple):
        raise ConfigError(
            "the ablation experiment needs a binary allocation "
            f"(binary:TAU:I,J,...), got {theta_spec!r}"
        )
    _mechanism_directions(mechanism, [theta_spec], directions_source)


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
    reported at its own line, as in one pass over the file.
    """

    def __init__(self, path, has_header: bool, block_cells: int | None = None):
        self.path = Path(path)
        self.names: list[str] | None = None
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
            head_line = lines.line_no
            if self._block_cells is None:
                per_block = None
            else:  # sized from the first row's cells; the parse checks them
                per_block = max(1, self._block_cells // (head.count(",") + 1))
            block = self._parse(lines, [head], per_block, rows)
            width = block.shape[1]
            if self.names is not None and width != len(self.names):
                raise FormatError(
                    f"{path}: line {head_line} has {width} cells, expected "
                    f"{len(self.names)}"
                )
            yield block
            while per_block is not None:
                first = next(rows, None)
                if first is None:
                    return
                yield self._parse(lines, [head, first], per_block, rows)[1:]

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

    The file is parsed in blocks of ``sensitivity.GRAM_BLOCK_CELLS`` cells,
    each clamped into [lo, hi] and added to X X^T before the next is read,
    so memory is O(M^2 + block) whatever N is, and the result equals
    ``AuditedGram.of`` of the same records bit for bit. Parse errors are
    those of :func:`load_csv_matrix`.
    """
    return AuditedGram(_GridBlocks(path, has_header, sensitivity.GRAM_BLOCK_CELLS),
                       lo, hi)


def parse_theta_grammar(spec: str):
    """Parse an allocation descriptor as far as it goes without m.

    Grammar: ``uniform`` | ``binary:TAU:I,J,...`` | explicit comma-separated
    shares such as ``0.4,0.4,0.1,0.1``. Returns ``None`` for ``uniform``, a
    binary allocation's (TAU, sorted favored indices) after the checks that
    need no m, or the :class:`PrecisionAllocation` of explicit shares.
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
        shares = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse allocation {spec!r}") from None
    return PrecisionAllocation(shares)


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
    return shares


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


def clamp_records(x: np.ndarray, bounds: DataBounds, directions_source: str,
                  num_direction: int | None = None
                  ) -> tuple[np.ndarray, AuditedGram | None]:
    """A loaded dataset checked against its declared shape and clamped into
    its declared range (``sensitivity.clamp``), the one way records that a
    run releases enter it, and the direction data :func:`plan_releases`
    takes.

    With ``dp:F`` directions that is the :class:`AuditedGram` of the first
    ``num_direction`` clamped records (all by default); otherwise no
    directions are derived and it is None.
    """
    bounds.check_shape(x.shape)
    x = clamp(x, bounds.lo, bounds.hi)
    if parse_directions_source(directions_source)[0] != "dp":
        return x, None
    return x, AuditedGram.of(x[:, :num_direction], bounds.lo, bounds.hi)


def _audited_gram(cfg: ExperimentConfig, data) -> AuditedGram:
    """The Gram matrix of ``cfg``'s dataset, clamped once: ``data`` if it is
    one (its bounds must be the declared ones), built from ``data`` if it
    holds the records, and otherwise read from ``cfg.dataset_path``."""
    bounds = cfg.bounds
    if data is None:
        gram = read_csv_gram(cfg.dataset_path, bounds.lo, bounds.hi,
                             cfg.csv_has_header)
    elif isinstance(data, AuditedGram):
        gram = data
    else:
        bounds.check_shape(data.shape)  # before the clamp, as clamp_records does
        return AuditedGram.of(data, bounds.lo, bounds.hi)
    box = gram.bounds
    bounds.check_shape((box.num_features, box.num_samples))
    if box != bounds:  # the shapes agree, so the ranges differ
        raise ConfigError(f"the Gram matrix was audited against [{box.lo}, {box.hi}] "
                          f"but the bounds declare [{bounds.lo}, {bounds.hi}]")
    return gram


# One row per MechanismKind: a new kind is one planner plus one row. An mvg
# kind takes an allocation and directions, planned as plan(value, q, privacy,
# theta, w); a baseline adds i.i.d. noise scaled from the query spec, planned
# as plan(value, q, privacy).
_Mechanism = namedtuple("_Mechanism", ["plan", "mvg"])
_MECHANISMS = {
    MechanismKind.MVG_UNIMODAL: _Mechanism(plan_unimodal, mvg=True),
    MechanismKind.MVG_EQUIMODAL: _Mechanism(plan_equimodal, mvg=True),
    MechanismKind.GAUSSIAN_IID: _Mechanism(plan_gaussian, mvg=False),
    MechanismKind.LAPLACE_IID: _Mechanism(
        lambda value, q, privacy: plan_laplace(value, q, privacy.epsilon), mvg=False),
}


def _mechanism_directions(mechanism: MechanismKind, theta_specs,
                          directions_source: str):
    """The parsed directions source, after rejecting the allocations and
    directions an i.i.d. baseline would ignore."""
    source = parse_directions_source(directions_source)
    if _MECHANISMS[mechanism].mvg:
        return source
    if source[0] != "standard":
        raise ConfigError(
            f"directions {directions_source!r} apply only to MVG mechanisms"
        )
    for spec in theta_specs:
        if spec.strip() != "uniform":
            raise ConfigError(
                f"allocation {spec!r} applies only to MVG mechanisms; the "
                f"{mechanism.value} baseline adds i.i.d. noise"
            )
    return source


def plan_releases(mechanism: MechanismKind, q: QuerySpec, value: np.ndarray,
                  privacy: PrivacyParams, theta_specs, directions_source: str,
                  direction_data: AuditedGram | None) -> list:
    """Plan one mechanism's releases of a query value, one plan per allocation.

    Everything a trial does not change is done here, once per run: ``dp:F``
    splits the budget, and the directions (with ``dp:F`` the covariance of
    the direction data's audited Gram matrix) are planned once and shared,
    so every plan's ``draw_noise`` draws the same from the same streams and
    the plans differ only in how they color it. Each is the mechanism's own
    plan from :mod:`mechanisms`, whose ``draw(streams)`` is the only
    per-trial step, and makes the mechanism's own checks: equi-modal noise
    raises ShapeError for a query that is not square.

    Args:
        mechanism: which mechanism releases the value.
        q: the query spec; a baseline's noise scale comes from it alone.
        value: the query value released by every trial.
        privacy: the whole (epsilon, delta) budget of one release.
        theta_specs: the allocations, as :func:`parse_theta_spec` reads
            them; a baseline takes only ``uniform``.
        directions_source: ``standard``, ``dp:F`` or a basis CSV path.
        direction_data: the :class:`AuditedGram` of the records ``dp:F``
            directions are derived from, clamped into its own box, whose
            range sets the direction noise; None for other directions.
    """
    row = _MECHANISMS[mechanism]
    source_tag, source_val = _mechanism_directions(mechanism, theta_specs,
                                                   directions_source)
    if not row.mvg:
        return [row.plan(value, q, privacy)] * len(theta_specs)
    if source_tag == "dp":
        p_directions = PrivacyParams(privacy.epsilon * source_val,
                                     privacy.delta * source_val)
        privacy = PrivacyParams(privacy.epsilon * (1.0 - source_val),
                                privacy.delta * (1.0 - source_val))
        w = plan_directions_dp(direction_data, p_directions)
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
              direction_data, arms: list[tuple[str, str]], score) -> list[EvalReport]:
    """One report per arm, a (metric name, allocation spec) pair, over
    ``cfg.trials`` releases of ``value``: each chunk's noise is drawn once,
    every arm but the last colors a copy of it, and the last takes it over.
    ``score`` maps a chunk's (T, m, n) stack of releases to its T values."""
    plans = plan_releases(cfg.mechanism, q, value, cfg.privacy,
                          [spec for _, spec in arms], cfg.directions_source,
                          direction_data)
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
    x, train_gram = clamp_records(x, cfg.bounds, cfg.directions_source, n_train)
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
        cfg, identity_query(train_bounds), train, train_gram,
        [("RMSE", cfg.theta_spec)],
        lambda stack: [ridge_regression_rmse((noisy[:-1], noisy[-1]),
                                             (test[:-1], test[-1]), cfg.ridge_reg)
                       for noisy in stack])[0]


def _run_firstpc(cfg: ExperimentConfig, gram: AuditedGram,
                 arms: list[tuple[str, str]]) -> list[EvalReport]:
    """One report per arm, a (metric name, allocation spec) pair, each
    scoring the top direction of every release by its captured-variance gap."""
    s_bar = gram.covariance
    gap = DeltaRho(s_bar)
    return _run_arms(cfg, covariance_query(cfg.bounds), s_bar, gram, arms,
                     lambda stack: gap(_top_directions(stack)))


def _top_directions(noisy: np.ndarray) -> np.ndarray:
    """The top eigenvector of each symmetrized estimate in a (T, m, m)
    stack, as the rows of a (T, m) array; one batched ``eigh``."""
    sym = noisy + np.swapaxes(noisy, -1, -2)
    del noisy
    sym /= 2.0
    return np.linalg.eigh(sym)[1][..., -1]


def _run_covest(cfg: ExperimentConfig, x: np.ndarray) -> EvalReport:
    x, gram = clamp_records(x, cfg.bounds, cfg.directions_source)
    if gram is None:  # the Gram matrix is the reference covariance too
        gram = AuditedGram.of(x, cfg.bounds.lo, cfg.bounds.hi)
    num_records = x.shape[1]
    s_bar = gram.covariance
    return _run_arms(
        cfg, identity_query(cfg.bounds), x, gram, [("RSS", cfg.theta_spec)],
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

    Loads the dataset (unless ``data`` already holds it, as
    :func:`load_csv_matrix` returns it for ``cfg.dataset_path``), clamps it
    once into the declared bounds (aborting before any sampling on a NaN
    cell), runs the trial loop with per-trial seeds seed, seed+1, ...,
    and aggregates the metric. The ablation experiment returns one report
    per direction arm; the others return a single report. Every option that
    needs no dataset was checked when ``cfg`` was built.

    The experiments in ``GRAM_EXPERIMENTS`` use only X X^T: they read the
    file with :func:`read_csv_gram` and never hold X, and ``data`` may also
    be the :class:`AuditedGram` that returns. Regression and covariance
    estimation release X itself and need the records.
    """
    if cfg.experiment in GRAM_EXPERIMENTS:
        gram = _audited_gram(cfg, data)
        if cfg.experiment is Experiment.FIRST_PC:
            return _run_firstpc(cfg, gram, [("delta_rho", cfg.theta_spec)])[0]
        return _run_firstpc(cfg, gram, _ablation_arms(cfg.theta_spec,
                                                      cfg.bounds.num_features))
    if isinstance(data, AuditedGram):
        raise ConfigError(
            f"the {cfg.experiment.value} experiment releases the records; a Gram "
            "matrix does not hold them"
        )
    x = load_csv_matrix(cfg.dataset_path, cfg.csv_has_header)[0] if data is None else data
    if cfg.experiment is Experiment.COVARIANCE_ESTIMATION:
        return _run_covest(cfg, x)
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
    if not isinstance(fmt, ReportFormat):
        raise ConfigError(f"fmt must be a ReportFormat, got {fmt!r}")
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
