"""Record the answers the benchmark checks every run against.

    python3 perfbench/record_expected.py

Runs every workload's commands once on the seed-0 inputs and writes
``expected.json``: per command, its exit code and its basis-invariant
report fields.  Those fields cannot depend on the seed, and every
trivial-coefficient Heisenberg answer must match its closed form before
it is recorded.  Rerun only when a command's answer is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import EXPECTED, OUT, invariants, liecoh_env, parse_report, run_command, setup
from workloads import WORKLOADS, commands

SEED = 0


def main() -> int:
    env = liecoh_env()
    table = {}
    for workload in WORKLOADS:
        work = os.path.join(OUT, f"record-{workload}")
        deadline = time.monotonic() + 3600
        try:
            _, _, failures = setup(workload, SEED, work, env, deadline)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            entries = {}
            for cmd in commands(workload, SEED):
                r = run_command(cmd, work, env, deadline)
                report, problems = parse_report(r)
                if r.code not in (0, 2):
                    problems.append(f"exit {r.code}")
                if problems:
                    print(f"{cmd.id}: {'; '.join(problems)}\n{r.stderr.decode()}",
                          file=sys.stderr)
                    return 1
                entries[cmd.id] = {"exit": r.code, "invariants": invariants(report)}
                print(f"{workload}: {cmd.id}: exit {r.code}", flush=True)
            table[workload] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
