"""Write ``digests.json``: the result digest of every benchmark operation.

Usage, from the root of a checkout (about two minutes on one core)::

    python3 perfbench/make_digests.py

Each digest comes from the plain serial path (``run_specs`` with
``jobs=1, batch=1, cache=False``), so the pooled, batched, journaled
and cached paths the workloads take are checked against it.  Rerun
this only when a change is meant to alter simulation results, which
also bumps ``KERNEL_VERSION``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench_workloads import digest, universe  # noqa: E402

from repro.sim.fast import KERNEL_VERSION  # noqa: E402
from repro.sim.parallel import run_specs  # noqa: E402


def main() -> int:
    digests = {}
    for family, ops in universe().items():
        for op in ops:
            results = run_specs(list(op.specs), jobs=1, batch=1, cache=False)
            digests[op.key] = digest(results)
        print(f"{family}: {len(ops)} operations", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(
        {"kernel_version": KERNEL_VERSION, "digests": digests},
        indent=1, sort_keys=True,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
