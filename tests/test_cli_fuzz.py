"""A seeded fuzz of the command line: every argv ends in an exit code.

Each case starts from a valid argv of one command and replaces one to three
of its flag values with edge values: zero, negatives, subnormals, values
that overflow a float, NaN, infinities, counts past 64 bits and text, and
small edge-case files, one of them not UTF-8. ``cli.main`` must return 0,
2, 3 or 4 for each; a traceback (an exception escaping ``main``) fails the
case. Every value is
small enough that no case allocates or loops at scale: no ``--trials``
above 5, and no ``--m``/``--n`` between 10^7 and 2^64.
"""

import random
import warnings

import numpy as np

from mvgdp import cli
from mvgdp.harness import Experiment, MechanismKind

SEED = 20_264
CASES = 400

REALS = ["0", "-1", "0.1", "0.5", "1", "2", "1e-320", "1e308", "-1e308", "1e400",
         "nan", "inf", "-inf", "text", ""]
COUNTS = ["0", "-1", "1", "2", "3", "64", str(2 ** 64), "1" + "0" * 400, "1.5", "text"]
SMALL_COUNTS = ["0", "-1", "1", "2", "5", "2.5", "text"]
SEEDS = ["0", "-1", "7", str(2 ** 64 - 1), str(2 ** 64), "text"]


def write_files(tmp):
    """The edge-case files the fuzz reads, by name: records as rows."""
    rng = np.random.default_rng(0)
    files = {
        "data": rng.uniform(0.0, 1.0, (20, 3)),
        "signs": rng.choice([-1.0, 1.0], size=(30, 4)),
        "one-feature": rng.uniform(0.0, 1.0, (10, 1)),
        "one-record": rng.uniform(0.0, 1.0, (1, 3)),
        "huge": np.full((5, 2), 1e308),
        "eye2": np.eye(2),
        "eye3": np.eye(3),
        "spd3": np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 0.5]]),
        "singular2": np.zeros((2, 2)),
    }
    paths = {}
    for name, matrix in files.items():
        paths[name] = str(tmp / f"{name}.csv")
        np.savetxt(paths[name], matrix, delimiter=",")
    texts = {"empty": "", "nan-cell": "0.1,nan,0.3\n0.2,0.4,0.5\n",
             "inf-cell": "0.1,inf,0.3\n0.2,0.4,0.5\n", "ragged": "1,2,3\n4,5\n",
             "words": "a,b,c\n1,2,3\n"}
    for name, text in texts.items():
        paths[name] = str(tmp / f"{name}.csv")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    # a Latin-1 e-acute: the file is not UTF-8
    paths["latin1"] = str(tmp / "latin1.csv")
    with open(paths["latin1"], "wb") as handle:
        handle.write(b"0.1,0.2,0.3\n0.2,\xe9,0.5\n")
    paths["missing"] = str(tmp / "missing.csv")
    paths["directory"] = str(tmp)
    return paths


def commands(paths, out):
    """Each command's valid argv, as (flag, value) pairs, and the pool each
    flag's value is replaced from."""
    inputs = list(paths.values())
    bases = [paths["eye3"], paths["spd3"], paths["eye2"]]
    return {
        "budget": (
            [("--epsilon", "1"), ("--delta", "0.1"), ("--m", "3"), ("--n", "4"),
             ("--gamma", "2"), ("--sensitivity", "1"), ("--mode", "unimodal")],
            {"--epsilon": REALS, "--delta": REALS, "--m": COUNTS, "--n": COUNTS,
             "--gamma": REALS, "--sensitivity": REALS,
             "--mode": ["unimodal", "equimodal", "text"]}),
        "perturb": (
            [("--input", paths["data"]), ("--query", "identity"), ("--epsilon", "1"),
             ("--delta", "0.1"), ("--lo", "0"), ("--hi", "1"), ("--theta", "uniform"),
             ("--directions", "standard"), ("--seed", "0"), ("--out", out)],
            {"--input": inputs, "--query": ["identity", "covariance", "text"],
             "--epsilon": REALS, "--delta": REALS, "--lo": REALS, "--hi": REALS,
             "--theta": ["uniform", "binary:0.9:0", "binary:1.5:0", "1,0,0",
                         "0.5,0.5", "text"],
             "--directions": ["standard", "dp:0.2", "dp:1.5", "dp:nan", *bases, "text"],
             "--seed": SEEDS}),
        "bench": (
            [("--experiment", "firstpc"), ("--input", paths["data"]),
             ("--mechanism", "mvg-equi"), ("--trials", "3"), ("--epsilon", "1"),
             ("--delta", "0.1"), ("--lo", "0"), ("--hi", "1"), ("--seed", "0")],
            {"--experiment": [e.value for e in Experiment] + ["text"],
             "--input": inputs,
             "--mechanism": [k.value for k in MechanismKind] + ["text"],
             "--trials": SMALL_COUNTS, "--epsilon": REALS, "--delta": REALS,
             "--lo": REALS, "--hi": REALS, "--seed": SEEDS,
             "--theta": ["uniform", "binary:0.9:0", "1,0,0", "text"],
             "--favored": ["0", "0,1", ",", "9", "text"], "--tau": REALS,
             "--directions": ["standard", "dp:0.2", "dp:1e-320", *bases, "text"],
             "--ridge-reg": REALS, "--format": ["text", "csv"]}),
    }


def fuzz_argvs(rng, paths, out):
    """One argv per case: a command's valid flags with one to three values
    replaced, or an optional flag added, from that flag's pool."""
    table = commands(paths, out)
    for _ in range(CASES):
        command = rng.choice(sorted(table))
        flags, pools = table[command]
        flags = dict(flags)
        for flag in rng.sample(sorted(pools), rng.randint(1, 3)):
            flags[flag] = rng.choice(pools[flag])
        argv = [command]
        for flag, value in flags.items():
            argv += [flag, value]
        yield argv


def test_every_argv_ends_in_an_exit_code(tmp_path, capfdbinary):
    paths = write_files(tmp_path)
    rng = random.Random(SEED)
    for argv in fuzz_argvs(rng, paths, str(tmp_path / "out.csv")):
        with warnings.catch_warnings():
            # the two advisory warnings a run may give; a RuntimeWarning from
            # numpy still fails the case under the suite's filter
            warnings.simplefilter("ignore", UserWarning)
            try:
                code = cli.main(argv)
            except BaseException as exc:  # SystemExit included: main returns
                raise AssertionError(f"main({argv!r}) raised {exc!r}") from exc
        assert code in (0, 2, 3, 4), argv
        capfdbinary.readouterr()
