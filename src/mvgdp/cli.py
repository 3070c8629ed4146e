"""Command-line interface.

Subcommands:
    budget   print the privacy-budget quantities for a query shape
    sample   draw matrix-Gaussian noise samples given dense covariances
    perturb  privately release a dataset or its covariance
    bench    run a benchmark experiment and print the metric report

Exit codes: 0 success, 2 flag, configuration, format or file (OSError) error, 3
contract violation (data escaping declared bounds or a false gamma claim), 4
internal assertion failure (a constructed design failed the privacy condition).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .budget import (
    PrivacyParams,
    QuerySpec,
    precision_budget_equimodal,
    precision_budget_unimodal,
)
from .design import NoiseDesign
from .errors import (
    ConditionCheckError,
    ConfigError,
    ContractViolationError,
    MvgdpError,
)
from .harness import (
    GRAM_EXPERIMENTS,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    ReportFormat,
    audit_records,
    check_experiment_options,
    check_mechanism_options,
    check_run_options,
    covariance_query,
    emit_report,
    identity_query,
    load_csv_matrix,
    load_dense_csv,
    parse_directions_source,
    parse_theta_grammar,
    plan_releases,
    read_csv_gram,
    run_experiment,
)
from .sampling import RandomStream, sample_mvg
from .sensitivity import DataBounds, check_range


def _write_csv(path: str, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def _cmd_budget(args) -> int:
    p = PrivacyParams(args.epsilon, args.delta)
    q = QuerySpec(args.m, args.n, sensitivity=args.sensitivity, gamma=args.gamma)
    if args.mode == "unimodal":
        report = precision_budget_unimodal(q, p)
    else:
        report = precision_budget_equimodal(q, p)
    out = sys.stdout
    out.write(f"h_r={report.h_r!r}\n")
    out.write(f"h_r_half={report.h_r_half!r}\n")
    out.write(f"zeta={report.zeta!r}\n")
    out.write(f"alpha={report.alpha!r}\n")
    out.write(f"beta={report.beta!r}\n")
    out.write(f"phi_max={report.phi_max!r}\n")
    out.write(f"precision_budget={report.precision_budget!r}\n")
    out.write(f"mode={report.mode.value}\n")
    return 0


def _cmd_sample(args) -> int:
    # the flags first, so a bad one is reported before any file is read
    if args.count < 1:
        raise ConfigError(f"count must be positive, got {args.count}")
    stream = RandomStream(args.seed)
    sigma = load_dense_csv(args.sigma)
    psi = load_dense_csv(args.psi)
    if sigma.shape != (args.m, args.m):
        raise ConfigError(f"sigma is {sigma.shape}, expected ({args.m}, {args.m})")
    if psi.shape != (args.n, args.n):
        raise ConfigError(f"psi is {psi.shape}, expected ({args.n}, {args.n})")
    design = NoiseDesign.from_covariances(sigma, psi)
    samples = [sample_mvg(stream, design).reshape(-1) for _ in range(args.count)]
    _write_csv(args.out, np.asarray(samples))
    return 0


def _check_dataset_flags(args, theta_spec: str) -> None:
    """Check the flags of ``perturb`` and ``bench`` that do not depend on the
    dataset, so a bad one is reported before ``--input`` is read; the
    allocation's length and indices wait for the dataset's m."""
    # a defaulted delta, 1/N, is checked once the dataset fixes N
    PrivacyParams(args.epsilon, 0.5 if args.delta is None else args.delta)
    check_range(args.lo, args.hi)
    parse_directions_source(args.directions)
    parse_theta_grammar(theta_spec)


def _read_dataset(args, records: bool):
    """The dataset CSV at ``--input``, its bounds and the privacy target,
    with ``--delta`` defaulting to 1/N.

    With ``records`` the dataset is the M x N matrix X, not yet audited;
    without, it is read in blocks into its :class:`AuditedGram`, audited
    against ``--lo``/``--hi``, and X is never held.
    """
    if records:
        data, _ = load_csv_matrix(args.input, args.has_header)
        num_features, num_samples = data.shape
    else:
        data = read_csv_gram(args.input, args.lo, args.hi, args.has_header)
        num_features, num_samples = data.num_features, data.num_samples
    bounds = DataBounds(num_features, num_samples, args.lo, args.hi)
    delta = args.delta if args.delta is not None else 1.0 / num_samples
    return data, bounds, PrivacyParams(args.epsilon, delta)


def _cmd_perturb(args) -> int:
    _check_dataset_flags(args, args.theta)
    stream = RandomStream(args.seed)
    data, bounds, p = _read_dataset(args, records=args.query == "identity")
    if args.query == "identity":
        q, value, mechanism = identity_query(bounds), data, MechanismKind.MVG_UNIMODAL
        data = audit_records(data, bounds, args.directions)
    else:
        q, value = covariance_query(bounds), data.gram / bounds.num_samples
        mechanism = MechanismKind.MVG_EQUIMODAL
    (plan,) = plan_releases(mechanism, q, value, p, [args.theta], args.directions,
                            bounds, direction_data=data)
    output = plan.draw([stream])[0]
    if args.query == "identity":
        _write_csv(args.out, output.T)  # back to rows-as-records
    else:
        _write_csv(args.out, output)
    return 0


def _cmd_bench(args) -> int:
    for key in ("experiment", "input", "mechanism", "epsilon"):
        if getattr(args, key) is None:
            raise ConfigError(
                f"missing required option --{key} (flag or config file)"
            )
    if args.theta is not None and (args.favored is not None or args.tau is not None):
        raise ConfigError("--theta is a full allocation; it cannot be combined "
                          "with --favored or --tau")
    if args.tau is not None and args.favored is None:
        raise ConfigError("--tau sets the favored directions' share; it needs --favored")
    if args.theta is not None:
        theta_spec = args.theta
    elif args.favored is not None:
        tau = 0.9 if args.tau is None else args.tau
        theta_spec = f"binary:{tau}:{args.favored}"
    else:
        theta_spec = "uniform"
    _check_dataset_flags(args, theta_spec)
    check_run_options(args.trials, args.seed, args.ridge_reg)
    mechanism = MechanismKind(args.mechanism)
    check_mechanism_options(mechanism, [theta_spec], args.directions)
    experiment = Experiment(args.experiment)
    check_experiment_options(experiment, theta_spec)
    data, bounds, privacy = _read_dataset(args,
                                          records=experiment not in GRAM_EXPERIMENTS)
    cfg = ExperimentConfig(
        experiment=experiment,
        dataset_path=args.input,
        bounds=bounds,
        privacy=privacy,
        mechanism=mechanism,
        theta_spec=theta_spec,
        directions_source=args.directions,
        trials=args.trials,
        seed=args.seed,
        csv_has_header=args.has_header,
        ridge_reg=args.ridge_reg,
    )
    report = run_experiment(cfg, data=data)
    sys.stdout.buffer.write(emit_report(report, ReportFormat(args.format)))
    sys.stdout.buffer.flush()
    return 0


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """A bench JSON config file's entries as the flags' text.

    A key is a bench option's dest, as the parse of the command line set it
    in ``args``. A scalar becomes ``--key=value``, a boolean ``--key`` or
    ``--no-key``, and ``null`` leaves the option unset.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            entries = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(entries, dict):
        raise ConfigError(
            f"{path}: config must be a JSON object, got {type(entries).__name__}"
        )
    unknown = set(entries) - (set(vars(args)) - {"command", "func", "config"})
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    flags = []
    for key, value in entries.items():
        name = key.replace("_", "-")
        if isinstance(value, bool):
            flags.append(f"--{name}" if value else f"--no-{name}")
        elif isinstance(value, (str, int, float)):
            flags.append(f"--{name}={value}")
        elif value is not None:
            raise ConfigError(f"{path}: invalid value for {key}: {value!r}")
    return flags


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a :class:`ConfigError`, so it takes the one
    error path of :func:`main`."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvgdp",
        description="Matrix-variate Gaussian mechanism for differentially "
                    "private matrix-valued queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("budget", help="print privacy-budget quantities")
    b.add_argument("--epsilon", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--sensitivity", type=float, required=True)
    b.add_argument("--mode", choices=["unimodal", "equimodal"], required=True)
    b.set_defaults(func=_cmd_budget)

    s = sub.add_parser("sample", help="draw matrix-Gaussian noise samples")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--sigma", required=True, help="dense m x m covariance CSV")
    s.add_argument("--psi", required=True, help="dense n x n covariance CSV")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--out", required=True,
                   help="output CSV, one row-major flattened sample per row")
    s.set_defaults(func=_cmd_sample)

    pt = sub.add_parser("perturb", help="privately release a dataset or covariance")
    pt.add_argument("--input", required=True, help="dataset CSV, rows are records")
    pt.add_argument("--query", choices=["identity", "covariance"], required=True)
    pt.add_argument("--epsilon", type=float, required=True)
    pt.add_argument("--delta", type=float, default=None,
                    help="defaults to 1/N for the loaded dataset")
    pt.add_argument("--lo", type=float, required=True)
    pt.add_argument("--hi", type=float, required=True)
    pt.add_argument("--theta", default="uniform",
                    help="uniform | binary:TAU:I,J,... | explicit shares")
    pt.add_argument("--directions", default="standard",
                    help="standard | PATH | dp:FRACTION")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", required=True)
    pt.add_argument("--has-header", action="store_true")
    pt.set_defaults(func=_cmd_perturb)

    bn = sub.add_parser("bench", help="run a benchmark experiment")
    bn.add_argument("--config",
                    help="JSON object of bench options, keyed like the flags' "
                         "dests; flags on the command line win")
    bn.add_argument("--experiment", choices=[e.value for e in Experiment])
    bn.add_argument("--input")
    bn.add_argument("--mechanism", choices=[k.value for k in MechanismKind])
    bn.add_argument("--trials", type=int, default=100)
    bn.add_argument("--epsilon", type=float)
    bn.add_argument("--delta", type=float,
                    help="defaults to 1/N for the loaded dataset")
    bn.add_argument("--lo", type=float, default=0.0)
    bn.add_argument("--hi", type=float, default=1.0)
    bn.add_argument("--tau", type=float,
                    help="budget share for the --favored directions (default 0.9)")
    bn.add_argument("--favored",
                    help="comma-separated favored direction indices")
    bn.add_argument("--theta",
                    help="full allocation spec; cannot be combined with "
                         "--tau/--favored")
    bn.add_argument("--directions", default="standard",
                    help="standard | PATH | dp:FRACTION")
    bn.add_argument("--ridge-reg", type=float, default=1.0)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--format", choices=["text", "csv"], default="text")
    bn.add_argument("--has-header", action=argparse.BooleanOptionalAction,
                    default=False)
    bn.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            file_flags = _config_flags(args.config, args)
            try:  # the command line parsed alone, so an error is the file's
                args = parser.parse_args([args.command, *file_flags, *argv[1:]])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        return args.func(args)
    except ContractViolationError as exc:
        print(f"mvgdp: contract violation: {exc}", file=sys.stderr)
        return 3
    except ConditionCheckError as exc:
        print(f"mvgdp: internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except (MvgdpError, OSError) as exc:
        print(f"mvgdp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
