"""Record the reference reports that run.py compares on the reference seed.

    python3 perfbench/record_references.py

Runs each workload once at full size with run.REFERENCE_SEED and writes the
report text, with the numpy version, to references.json. Re-record only when
a change is meant to alter the reports, and say why in the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run._import_program()
    import numpy
    import workloads
    reports = {}
    work = run.WORK / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.NAMES:
            csv = work / f"{name}.csv"
            workloads.write_csv(csv, workloads.make_data(name, "full", run.REFERENCE_SEED))
            inputs = workloads.build(name, str(csv), "full", run.REFERENCE_SEED)
            report = inputs.run()
            workloads.parse_report(inputs, report)
            reports[name] = report.decode("utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs = {"seed": run.REFERENCE_SEED, "numpy": numpy.__version__, "reports": reports}
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=2) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
