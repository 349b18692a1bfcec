"""Record the analytic reference outputs that ``check.py`` compares against.

    python3 bench/record_reference.py

Run from the root of a checkout.  It runs each workload that has analytic
columns once, through a ``bench/child.py`` worker on the sources under
``src/``, and keeps only the columns listed in ``check.REFERENCE_COLUMNS``.
The checked-in files were recorded before any optimisation; re-record them
only when a change of published numbers is intended and stated.
"""

import csv
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "baseline")]   # what check.py imports

from check import REFERENCE_COLUMNS, REFERENCE_DIR, read_rows  # noqa: E402
from run import Worker, child_env  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    for name in sorted({w for w, _ in REFERENCE_COLUMNS}):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as out:
            config = os.path.join(out, "config.ini")
            spec = {"src": os.path.join(os.getcwd(), "src"), "trace": False,
                    "ini": workload.config_text(DEFAULT_SEED), "config": config}
            worker = Worker("program", spec, os.getcwd(), child_env(),
                            os.path.join(out, "worker.log"))
            try:
                commands = workload.argv(config, out, None)
                result = os.path.join(out, "result.json")
                status = worker.run({"run_id": name, "commands": commands, "result": result})
            finally:
                worker.close()
            if status != 0:
                return 1
            with open(result) as fh:
                if any(json.load(fh)["codes"]):
                    return 1
            for (wname, fname), columns in REFERENCE_COLUMNS.items():
                if wname != name:
                    continue
                os.makedirs(os.path.join(REFERENCE_DIR, name), exist_ok=True)
                with open(os.path.join(REFERENCE_DIR, name, fname), "w", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(columns)
                    for row in read_rows(os.path.join(out, fname)):
                        writer.writerow([row[c] for c in columns])
    return 0


if __name__ == "__main__":
    sys.exit(main())
