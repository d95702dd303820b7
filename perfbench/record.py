"""Record the reference values the benchmark's checks compare against.

    python3 perfbench/record.py --workload em-ladder [--smoke]

Runs one untimed session on every dataset of the workload's pool and
stores, per dataset id, the digests of the seeded artifacts and the
log-likelihoods or M-step objectives reached, in ``reference.json``. A
dataset whose operation fails numerically is recorded with null values,
so the benchmark keeps counting that failure. Re-record only after a
change that is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORKDIR, WORKLOAD_NAMES, pin_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORKDIR))
    try:
        workload = workloads.WORKLOADS[args.workload](sizes, workdir, sizes.ids)
        workload.setup()
        records = {}
        for k in range(sizes.pool):
            tally = workloads.Tally()
            records[str(workload.dataset(k))] = workload.check(k, workload.session(k), None, tally)
            shutil.rmtree(workload.out(k), ignore_errors=True)
            print(f"dataset {workload.dataset(k)}: {tally.failed} of {tally.attempted} failed",
                  flush=True)
            if not tally.correct:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "reference.json"
    stored = json.loads(path.read_text()) if path.exists() else {"full": {}, "smoke": {}}
    stored["smoke" if args.smoke else "full"][args.workload] = records
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
