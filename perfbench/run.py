"""Benchmark for mvgdp: one workload per invocation.

    python3 perfbench/run.py --workload uni-wide --seed 1 --seconds 30 --trace 0

Run from any directory of a checkout; mvgdp is imported from its ``src``.
Each workload (see workloads.py) is a closed loop of one caller in one
process, with BLAS at its default thread count. The seed makes the dataset,
which is written as a CSV under ``.bench_work/`` and removed afterwards.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of ``import mvgdp`` plus
  building the inputs (setup_probe.py), started at even times across the
  window.
* ``release_ms_p50``/``release_ms_p90``: latency of one library release,
  at least 100 per run; each percentile is taken within a round and the
  lowest over the rounds is reported.
* ``trials_per_s``: trials per second of the fastest whole harness or CLI
  run (CSV load, trial loop, metrics); the first run is a warm-up.
* ``peak_rss_mb``: ``ru_maxrss`` of a measuring process, the median over
  them.
* ``noise_sd``: per-entry noise sd of the released designs.
* ``utility_loss``: the report's first mean (RMSE or delta rho).

The run is split between ``WORKERS`` fresh interpreters started one after
the other, each measuring its share of ``--seconds`` on the same dataset, so
one process's memory layout does not set the figures; their reports must
agree byte for byte. Each worker times rounds, each a block of releases
lasting at least ``ROUND_S``, with whole runs between them that take
``RUN_TIME_RATIO`` times as much of its share. On a shared machine speed switches
between a fast and a slow phase (both seen as CPU time, not as time
descheduled), each lasting from under a second to more than ten, and how
much of each a run catches varies, so a median over the whole run jumps
from one phase to the other between runs. The fastest round's and run's
figures over all workers, as with ``timeit``'s best of several repeats,
measure the program at the machine's full speed.

``--trace 1`` alternates untraced and traced runs for ``--seconds`` and
prints the per-layer metrics of one run (tracing.py): counts from the first
traced run, which every traced run must repeat exactly, and the median of
each time. The spans of the first traced run go to
``.bench_work/traces/``.

Every release and run is checked outside the timed region: finite outputs
of the right shape, the privacy condition re-run on each released design,
well-formed reports that repeat byte for byte within the process, and, for
the reference seed at full size under the recorded numpy version, reports
equal to references.json. On any other seed only the invariants are
checked. Failed checks and exceptions count as failed operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the failure fraction and
the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

REFERENCE_SEED = 1
WORKERS = {"full": 2, "tiny": 2}
SETUP_PROBES = {"full": 3, "tiny": 1}  # per worker
MIN_RELEASES = {"full": 100, "tiny": 10}  # over all workers
WARMUP_RELEASES = 3
MIN_ROUNDS = 3
MIN_RUNS = 2
MIN_ROUND_RELEASES = 10
ROUND_S = 0.05
# whole runs get this many times the releases' share of the window: a run
# is long, so the fastest of few is noisier than the fastest of many rounds
RUN_TIME_RATIO = 2
MIN_TRACED_PAIRS = 2
PROBE_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 75


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import mvgdp
    if not Path(mvgdp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"mvgdp was imported from {mvgdp.__file__}, "
                          f"not from {ROOT / 'src'}")
    return mvgdp


class Ledger:
    """Counts attempted and failed operations; a failure prints its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # every failure is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None


def _blas_threads(numpy, blas_name: str):
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    stem = blas_name.replace("-", "_")
    for lib in sorted(libs.glob(f"lib{stem}*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"{stem}_get_num_threads64_", f"{stem}_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _llc_bytes():
    try:
        return os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        pass
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        return int(libc.sysconf(194))  # glibc's _SC_LEVEL3_CACHE_SIZE
    return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "")
    except (TypeError, KeyError):
        blas_name, blas_version = "unknown", ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas_name} {blas_version}".strip(),
        "blas_threads": _blas_threads(numpy, blas_name),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
    }


def _probe_setup(name: str, csv: Path, size: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(csv), size, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


class Bench:
    def __init__(self, args, mvgdp, workloads, numpy_version: str, ledger: Ledger):
        self.args = args
        self.mvgdp = mvgdp
        self.workloads = workloads
        self.ledger = ledger
        self.reference = None
        refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
        if args.seed != refs["seed"] or args.size != "full":
            self.reference_note = "skipped: not the reference seed at full size"
        elif numpy_version != refs["numpy"]:
            self.reference_note = (f"skipped: references were recorded under numpy "
                                   f"{refs['numpy']}")
        else:
            self.reference = refs["reports"][args.workload].encode("utf-8")
            self.reference_note = "compared"

    # -- checked operations --------------------------------------------------

    def _first_run(self, inputs) -> tuple[bytes, float]:
        report = inputs.run()
        return report, self.workloads.parse_report(inputs, report)

    def _check_reference(self, report: bytes) -> None:
        if self.reference is not None and report != self.reference:
            raise AssertionError("report differs from the recorded reference:\n"
                                 f"{report!r}\n{self.reference!r}")

    @staticmethod
    def _timed_run(inputs, expected: bytes) -> float:
        start = time.perf_counter()
        report = inputs.run()
        elapsed = time.perf_counter() - start
        if report != expected:
            raise AssertionError(f"report changed between runs: {report!r}")
        return elapsed

    def _timed_release(self, inputs, stream) -> tuple[float, float]:
        start = time.perf_counter()
        result = self.workloads.release(inputs, stream)
        elapsed = time.perf_counter() - start
        return elapsed, self.workloads.check_release(inputs, result)

    # -- phases ----------------------------------------------------------------

    def measure(self, inputs, seconds: float, probe):
        """Time rounds of releases and whole runs for ``seconds``, then top
        up to the minimum counts; return the rounds' release times (each
        ascending), the run times, the set-up times, the noise sds, the
        report and its utility loss.

        A round is a block of releases lasting at least ``ROUND_S``; whole
        runs go between rounds whenever runs so far took less than
        ``RUN_TIME_RATIO`` times as long as releases. Short rounds and single
        runs mostly fall within one phase of the host's speed (see the module
        docstring); ``_combine`` reports the fastest. ``probe`` times one
        set-up in a fresh interpreter; the probes are spread evenly over the
        window, so their median samples it the way the rounds do.
        """
        stream = self.mvgdp.RandomStream(self.args.seed)
        for _ in range(WARMUP_RELEASES):
            self.ledger.attempt(self._timed_release, inputs, stream)
        ok, first = self.ledger.attempt(self._first_run, inputs)
        expected, utility = first if ok else (None, None)
        if ok:
            self.ledger.attempt(self._check_reference, expected)
        gc.collect()
        rounds, runs, setup, noise = [], [], [], []
        probes = SETUP_PROBES[self.args.size]
        min_releases = math.ceil(MIN_RELEASES[self.args.size] / WORKERS[self.args.size])
        releases = release_blocks = run_attempts = probed = 0
        release_s = run_s = 0.0
        begin = time.perf_counter()
        while True:
            if probed < probes and time.perf_counter() - begin >= probed * seconds / probes:
                probed += 1
                ok, value = self.ledger.attempt(probe)
                if ok:
                    setup.append(value)
                continue
            if time.perf_counter() - begin < seconds:
                do_run = run_s < RUN_TIME_RATIO * release_s
            elif releases < min_releases or release_blocks < MIN_ROUNDS:
                do_run = False
            elif run_attempts < MIN_RUNS:
                do_run = True
            else:
                break
            start = time.perf_counter()
            if do_run:
                run_attempts += 1
                ok, elapsed = self.ledger.attempt(self._timed_run, inputs, expected)
                if ok:
                    runs.append(elapsed)
                run_s += time.perf_counter() - start
                continue
            times = []
            attempts = 0
            while attempts < MIN_ROUND_RELEASES or time.perf_counter() - start < ROUND_S:
                attempts += 1
                ok, value = self.ledger.attempt(self._timed_release, inputs, stream)
                if ok:
                    times.append(value[0])
                    noise.append(value[1])
            releases += attempts
            release_blocks += 1
            if times:
                rounds.append(sorted(times))
            release_s += time.perf_counter() - start
        return rounds, runs, setup, noise, expected, utility

    def traced_runs(self, inputs, seconds: float, tracing):
        ok, first = self.ledger.attempt(self._first_run, inputs)
        if not ok:
            return None
        expected, _ = first
        tracer = tracing.Tracer()
        untraced, traced, summaries = [], [], []
        first_spans = None
        pairs = 0
        deadline = time.perf_counter() + seconds
        while pairs < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
            pairs += 1
            gc.collect()
            ok, elapsed = self.ledger.attempt(self._timed_run, inputs, expected)
            if ok:
                untraced.append(elapsed)
            gc.collect()
            with tracer:
                ok, elapsed = self.ledger.attempt(self._timed_run, inputs, expected)
            if ok:
                traced.append(elapsed)
                summaries.append(tracing.summarize(tracer.spans, tracer.counts))
                if first_spans is None:
                    first_spans = tracer.spans
        if not (untraced and summaries):
            return None
        self.ledger.attempt(_check_counts_repeat, summaries)
        layers = dict(summaries[0])
        for key in layers:
            if _is_time(key):
                layers[key] = statistics.median(s[key] for s in summaries)
        traced_ms = statistics.median(traced) * 1e3
        untraced_ms = statistics.median(untraced) * 1e3
        layers["run.trials"] = inputs.trials_per_run
        layers["run.traced_ms"] = traced_ms
        layers["tracing.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
        return layers, len(summaries), first_spans


def _is_time(metric: str) -> bool:
    return metric.endswith("ms")


def _check_counts_repeat(summaries) -> None:
    counts = [{k: v for k, v in s.items() if not _is_time(k)} for s in summaries]
    for other in counts[1:]:
        if other != counts[0]:
            raise AssertionError(f"per-layer counts differ between traced runs: "
                                 f"{counts[0]} vs {other}")


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<28} {text:>14} {unit:<12} {note}".rstrip())


def _print_shares(layers: dict) -> None:
    run_ms = layers["run.traced_ms"]
    groups = {
        "design+sampling": ("design.build_ms", "sampling.ms"),
        "budget+design+metrics": ("budget.report_ms", "budget.check_ms",
                                  "design.build_ms", "metrics.ms"),
        "harness.load+cli.self": ("harness.load_ms", "cli.self_ms"),
    }
    for label, keys in groups.items():
        share = 100.0 * sum(layers[k] for k in keys) / run_ms
        print(f"  share {label:<22} {share:6.2f}% of traced run wall time")


def _measure_in_worker(args, bench, workloads) -> dict:
    """Measure in this process; return its figures for the parent."""
    inputs = workloads.build(args.workload, str(args.worker), args.size, args.seed)
    probe = functools.partial(_probe_setup, args.workload, args.worker, args.size, args.seed)
    rounds, runs, setup, noise, report, utility = bench.measure(inputs, args.seconds, probe)
    if not (rounds and runs and setup and report):
        return {"attempted": bench.ledger.attempted, "failed": bench.ledger.failed}
    q = inputs.query
    return {
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "release_ms_p50": min(statistics.median(r) for r in rounds) * 1e3,
        "release_ms_p90": min(_percentile(r, 0.9) for r in rounds) * 1e3,
        "trials_per_s": inputs.trials_per_run / min(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "noise_sd": statistics.median(noise),
        "utility_loss": utility,
        "setup": setup,
        "rounds": len(rounds),
        "releases": sum(len(r) for r in rounds),
        "runs": len(runs),
        "trials_per_run": inputs.trials_per_run,
        "designs": len(noise),
        "report": report.decode("utf-8"),
        "largest_array_bytes": 8 * max(inputs.x.size, q.m * q.m, q.n * q.n),
    }


def _run_worker(args, csv: Path) -> dict:
    """Measure in a fresh interpreter for a share of the window."""
    share = args.seconds / WORKERS[args.size]
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(share), "--size", args.size,
         "--worker", str(csv)],
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _check_reports_agree(figures) -> None:
    reports = {f["report"] for f in figures}
    if len(reports) != 1:
        raise AssertionError(f"workers with one seed wrote different reports: {reports}")


def _combine(figures, bench) -> tuple[dict, dict]:
    """Metrics and notes from the workers' figures.

    Times are the fastest over the workers, as they are over the rounds of
    one worker: a slow phase of the host can outlast a worker's share of the
    window. Set-up time is the median of all probes; memory the median over
    the workers.
    """
    def median(key):
        return statistics.median(f[key] for f in figures)
    setup = [t for f in figures for t in f["setup"]]
    metrics = {
        "release_ms_p50": min(f["release_ms_p50"] for f in figures),
        "release_ms_p90": min(f["release_ms_p90"] for f in figures),
        "trials_per_s": max(f["trials_per_s"] for f in figures),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": median("peak_rss_mb"),
        "noise_sd": median("noise_sd"),
        "utility_loss": median("utility_loss"),
    }
    workers = f"{len(figures)} workers"
    per_round = (f"fastest of {sum(f['rounds'] for f in figures)} rounds in {workers}, "
                 f"n={sum(f['releases'] for f in figures)} releases")
    notes = {
        "release_ms_p50": per_round,
        "release_ms_p90": per_round,
        "trials_per_s": f"fastest of n={sum(f['runs'] for f in figures)} runs in "
                        f"{workers}, {figures[0]['trials_per_run']} trials each",
        "setup_s": f"n={len(setup)} fresh interpreters, "
                   f"{min(setup):.3g} to {max(setup):.3g} s",
        "peak_rss_mb": f"median of {workers}",
        "noise_sd": f"n={sum(f['designs'] for f in figures)} designs",
        "utility_loss": f"report {bench.reference_note}",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the smoke test only")
    parser.add_argument("--worker", type=Path, metavar="CSV",
                        help="measure on this dataset in this process and print its "
                             "figures as JSON; the parent starts workers itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        mvgdp = _import_program()
        import numpy
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    ledger = Ledger()
    bench = Bench(args, mvgdp, workloads, numpy.__version__, ledger)
    if args.worker:
        print(json.dumps(_measure_in_worker(args, bench, workloads)))
        return 0
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(environment(numpy)))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        csv = work / "data.csv"
        workloads.write_csv(csv, workloads.make_data(args.workload, args.size, args.seed))
        metrics, notes = {}, {}
        if args.trace:
            inputs = workloads.build(args.workload, str(csv), args.size, args.seed)
            traced = bench.traced_runs(inputs, args.seconds, tracing)
            if traced is not None:
                metrics, traced_count, spans = traced
                notes = {k: f"per run, {traced_count} traced runs" for k in metrics}
                traces = WORK / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                tracing.write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl",
                                    spans)
        else:
            figures = []
            for _ in range(WORKERS[args.size]):
                ok, worker = ledger.attempt(_run_worker, args, csv)
                if ok:
                    ledger.attempted += worker["attempted"]
                    ledger.failed += worker["failed"]
                    if "report" in worker:
                        figures.append(worker)
            if len(figures) == WORKERS[args.size]:
                print(f"  largest array {figures[0]['largest_array_bytes']} bytes "
                      "(computed from shapes: the dataset or a design side)")
                ledger.attempt(_check_reports_agree, figures)
                metrics, notes = _combine(figures, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: no result: measured {sorted(metrics)}, declared "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        _print_metric(name, value, units[name], notes.get(name, ""))
    if args.trace:
        _print_shares(metrics)
    failed_frac = ledger.failed / ledger.attempted
    _print_metric("failed_frac", failed_frac, "ratio",
                  f"{ledger.failed} of {ledger.attempted} ops")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
