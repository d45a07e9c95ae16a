"""Record the seed-0 outputs that the workload checks compare against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json.  Re-record only when a change is meant to
alter relock's outputs; the benchmark exists to notice when they change.
"""

from __future__ import annotations

import hashlib
import json

import run
from workloads import WORKLOADS, LockSweep, report_digest


def main() -> None:
    run.import_relock()
    run.WORK.mkdir(exist_ok=True)
    out = {}
    for name in ("hd-s9234", "trace-s38584"):
        wl = WORKLOADS[name](run.ROOT, run.WORK, 0, run.MANIFEST["workloads"][name]["config"], {})
        wl.setup()
        try:
            stdout = wl.op(0)[1]
        finally:
            wl.cleanup()
        out[name] = {"stdout": stdout} if name == "hd-s9234" else {
            "sha256": hashlib.sha256(stdout.encode()).hexdigest()
        }
    name = LockSweep.name
    wl = LockSweep(run.ROOT, run.WORK, 0, run.MANIFEST["workloads"][name]["config"], {})
    wl.setup()
    out[name] = {"digests": [report_digest(wl.op(k)) for k in range(wl.max_ops)]}
    (run.HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
