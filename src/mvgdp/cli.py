"""Command-line interface.

Subcommands:
    budget   print the privacy-budget quantities for a query shape
    sample   draw matrix-Gaussian noise samples given dense covariances
    perturb  privately release a dataset or its covariance
    bench    run a benchmark experiment and print the metric report

Exit codes: 0 success, 2 configuration, format or file (OSError) error, 3
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
    AllocationError,
    ConditionCheckError,
    ConfigError,
    ContractViolationError,
    DegenerateDesignError,
    DomainError,
    FormatError,
    ShapeError,
)
from .harness import (
    Experiment,
    ExperimentConfig,
    MechanismKind,
    ReportFormat,
    audit_bounds,
    covariance_query,
    emit_report,
    identity_query,
    load_csv_matrix,
    load_dense_csv,
    plan_release,
    run_experiment,
)
from .sampling import RandomStream, sample_mvg
from .sensitivity import DataBounds

_CONFIG_ERRORS = (DomainError, ShapeError, AllocationError, DegenerateDesignError,
                  FormatError, ConfigError, OSError)


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
    sigma = load_dense_csv(args.sigma)
    psi = load_dense_csv(args.psi)
    if sigma.shape != (args.m, args.m):
        raise ConfigError(f"sigma is {sigma.shape}, expected ({args.m}, {args.m})")
    if psi.shape != (args.n, args.n):
        raise ConfigError(f"psi is {psi.shape}, expected ({args.n}, {args.n})")
    design = NoiseDesign.from_covariances(sigma, psi)
    stream = RandomStream(args.seed)
    if args.count < 1:
        raise ConfigError(f"count must be positive, got {args.count}")
    samples = [sample_mvg(stream, design).reshape(-1) for _ in range(args.count)]
    _write_csv(args.out, np.asarray(samples))
    return 0


def _cmd_perturb(args) -> int:
    x, _ = load_csv_matrix(args.input, args.has_header)
    num_features, num_samples = x.shape
    bounds = DataBounds(num_features, num_samples, args.lo, args.hi)
    audit_bounds(x, bounds)
    delta = args.delta if args.delta is not None else 1.0 / num_samples
    p = PrivacyParams(args.epsilon, delta)
    if args.query == "identity":
        q, value, mechanism = identity_query(bounds), x, MechanismKind.MVG_UNIMODAL
    else:
        q, value = covariance_query(bounds), x @ x.T / num_samples
        mechanism = MechanismKind.MVG_EQUIMODAL
    plan = plan_release(mechanism, q, value, p, args.theta, args.directions,
                        bounds, direction_data=x)
    output = plan.draw([RandomStream(args.seed)])[0]
    if args.query == "identity":
        _write_csv(args.out, output.T)  # back to rows-as-records
    else:
        _write_csv(args.out, output)
    return 0


_BENCH_DEFAULTS = {
    "experiment": None, "input": None, "mechanism": None, "epsilon": None,
    "delta": None, "lo": 0.0, "hi": 1.0, "tau": 0.9, "favored": None,
    "theta": None, "directions": "standard", "trials": 100, "ridge_reg": 1.0,
    "seed": 0, "format": "text", "has_header": False,
}


def _file_value(path: str, action: argparse.Action, value):
    """Check a config-file value as argparse checks its flag's text."""
    if isinstance(action, argparse.BooleanOptionalAction):
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        try:  # from its text, as a flag's: "trials": 2.5 is no int
            value = (action.type or str)(str(value))
        except ValueError:
            ok = False
        ok = ok and (action.choices is None or value in action.choices)
    if not ok:
        choices = f" (choose from {', '.join(action.choices)})" if action.choices else ""
        raise ConfigError(f"{path}: invalid value for {action.dest}: {value!r}{choices}")
    return value


def _resolve_bench_options(args) -> dict:
    """Merge CLI flags over an optional JSON config file over the defaults."""
    from_file: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                from_file = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(from_file, dict):
            raise ConfigError(
                f"{args.config}: config must be a JSON object, "
                f"got {type(from_file).__name__}"
            )
        unknown = set(from_file) - set(_BENCH_DEFAULTS)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown config keys {sorted(unknown)}"
            )
    options = {}
    for key, default in _BENCH_DEFAULTS.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            options[key] = cli_value
        elif key in from_file and from_file[key] is not None:
            options[key] = _file_value(args.config, args.bench_flags[key],
                                       from_file[key])
        else:
            options[key] = default
    for key in ("experiment", "input", "mechanism", "epsilon"):
        if options[key] is None:
            raise ConfigError(
                f"missing required option --{key} (flag or config file)"
            )
    return options


def _cmd_bench(args) -> int:
    opts = _resolve_bench_options(args)
    # every option already has its flag's type, from argparse, the file
    # check or the defaults
    x, _ = load_csv_matrix(opts["input"], opts["has_header"])
    num_features, num_samples = x.shape
    delta = opts["delta"] if opts["delta"] is not None else 1.0 / num_samples
    if opts["theta"] is not None:
        theta_spec = opts["theta"]
    elif opts["favored"] is not None:
        theta_spec = f"binary:{opts['tau']}:{opts['favored']}"
    else:
        theta_spec = "uniform"
    cfg = ExperimentConfig(
        experiment=Experiment(opts["experiment"]),
        dataset_path=opts["input"],
        bounds=DataBounds(num_features, num_samples, opts["lo"], opts["hi"]),
        privacy=PrivacyParams(opts["epsilon"], delta),
        mechanism=MechanismKind(opts["mechanism"]),
        theta_spec=theta_spec,
        directions_source=opts["directions"],
        trials=opts["trials"],
        seed=opts["seed"],
        csv_has_header=opts["has_header"],
        ridge_reg=opts["ridge_reg"],
    )
    report = run_experiment(cfg, data=x)
    sys.stdout.buffer.write(emit_report(report, ReportFormat(opts["format"])))
    sys.stdout.buffer.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    # bench flags default to None so an optional JSON config file can fill
    # anything not given explicitly; flags always win over the file
    bn = sub.add_parser("bench", help="run a benchmark experiment")
    bn.add_argument("--config", default=None,
                    help="JSON file supplying defaults for any bench option")
    bn.add_argument("--experiment", choices=[e.value for e in Experiment])
    bn.add_argument("--input")
    bn.add_argument("--mechanism", choices=[k.value for k in MechanismKind])
    bn.add_argument("--trials", type=int)
    bn.add_argument("--epsilon", type=float)
    bn.add_argument("--delta", type=float,
                    help="defaults to 1/N for the loaded dataset")
    bn.add_argument("--lo", type=float)
    bn.add_argument("--hi", type=float)
    bn.add_argument("--tau", type=float,
                    help="budget share for the favored directions (default 0.9)")
    bn.add_argument("--favored",
                    help="comma-separated favored direction indices")
    bn.add_argument("--theta",
                    help="full allocation spec; overrides --tau/--favored")
    bn.add_argument("--directions", help="standard | PATH | dp:FRACTION")
    bn.add_argument("--ridge-reg", type=float, dest="ridge_reg")
    bn.add_argument("--seed", type=int)
    bn.add_argument("--format", choices=["text", "csv"])
    bn.add_argument("--has-header", action=argparse.BooleanOptionalAction,
                    default=None)
    bn.set_defaults(func=_cmd_bench,
                    bench_flags={action.dest: action for action in bn._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolationError as exc:
        print(f"mvgdp: contract violation: {exc}", file=sys.stderr)
        return 3
    except ConditionCheckError as exc:
        print(f"mvgdp: internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except _CONFIG_ERRORS as exc:
        print(f"mvgdp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
