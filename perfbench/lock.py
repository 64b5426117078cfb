"""Re-lock ``perfbench/reference.json`` from one cold sweep of this checkout.

    python3 perfbench/lock.py

The reference holds the sha256 of the rendered ``run all`` report and of
every pair's scaled counters.  A change meant only to speed things up must
leave both unchanged; re-locking is a deliberate benchmark change of its own.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.run import REFERENCE, WORK_ROOT, Sampler  # noqa: E402


def main() -> int:
    work = os.path.join(WORK_ROOT, "lock-%d" % os.getpid())
    os.makedirs(work)
    try:
        sample = Sampler(work, jobs=1, deadline=time.monotonic() + 160).run(
            os.path.join(work, "cache")
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r[0] for r in sample["records"] if r[4] is not None]
    if failed:
        print("not locking: %d pair(s) failed: %s" % (len(failed), failed[:3]),
              file=sys.stderr)
        return 1
    reference = {
        "report_sha256": sample["report_sha256"],
        "pairs": dict(sorted(sample["pair_sha256"].items())),
    }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print("locked %d pairs, report %s" % (
        len(reference["pairs"]), reference["report_sha256"][:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
