"""Record the SHA-256 of every output of every workload, for the default seeds.

Usage: ``python3 perfbench/record_digests.py`` from the root of a checkout.
Each workload runs one untraced pass per default seed (the reference
workload once, as it has no seed); a pass is recorded only if every output
passes the seed-independent checks.  Run it only where the outputs are known
to be right: the digests are the golden outputs later commits must match.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from run import OUT, Run
from workloads import WORKLOADS

DEFAULT_SEEDS = range(0, 21)


def main() -> int:
    table: dict = {}
    OUT.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        seeds = DEFAULT_SEEDS if workload.journals else [0]
        for seed in seeds:
            tmp = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=OUT))
            try:
                run = Run(workload, seed, False, tmp)
                run.digests = None  # record from the invariant checks alone
                result = run.run_pass(traced=False)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if run.failures:
                print(f"{name} seed {seed}: {run.failures}", file=sys.stderr)
                return 1
            key = str(seed) if workload.journals else checks.FIXED
            table.setdefault(name, {})[key] = result["outputs"]
            print(f"{name} {key}: {len(result['outputs'])} outputs")
    checks.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
