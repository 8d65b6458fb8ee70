"""Record the reference outputs the correctness gate compares against.

Usage (from the repository root)::

    python3 perfbench/record_golden.py

Runs every seed-0 ``plots`` and ``states`` invocation once and stores the
sha256 of its stdout, and stores the (name, tolerance) list of every
``verify`` report, in ``perfbench/golden.json``.  Re-record only at a
commit whose output bytes are known to be right: the digests are what
later commits must reproduce.
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads
from checks import GOLDEN_PATH, argv_key, sha256
from run import child_env, launch


def main() -> int:
    env = child_env()
    golden = {"stdout_sha256": {}, "verify_checks": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as scratch:
        for workload in workloads.WORKLOADS:
            for argv in workloads.invocations(workload, 0):
                outcome = launch([sys.executable, "-m", "xxring", *argv], env, scratch)
                if outcome.returncode != 0:
                    print(f"{argv_key(argv)}: exit code {outcome.returncode}", file=sys.stderr)
                    return 1
                if argv[0] == "verify":
                    report = json.loads(outcome.stdout)
                    golden["verify_checks"][argv[-1]] = [
                        [check["name"], check["tolerance"]] for check in report["checks"]
                    ]
                else:
                    golden["stdout_sha256"][argv_key(argv)] = sha256(outcome.stdout)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
