"""One set-up from a fresh interpreter, timed by ``run.py`` from outside.

Cold workloads: import the public API, open a fresh store and run the
workload's one-instance smoke grid into it (first calls, lazy imports).
``warm_serve``: import, start a ``ServiceHarness`` on the filled store,
connect one client and ping it.

With ``--fill`` it instead computes the workload's whole grid into the
store: ``warm_serve``'s store fill, kept out of the measuring process so
that process's peak memory is the serving side's own.

    python3 perfbench/probe.py --workload NAME --seed N --dir STORE_DIR [--fill]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--fill", action="store_true")
    args = parser.parse_args()

    from workloads import BACKEND, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.fill:
        from repro.api import run_grid
        from repro.store import ResultStore

        with ResultStore(args.dir) as store:
            run_grid(workload.config(args.seed), backend=BACKEND, jobs=1, store=store)
        return 0
    if workload.serve:
        from repro.service import ServiceClient, ServiceHarness

        with ServiceHarness(args.dir, workers=2, backend=BACKEND) as svc:
            with ServiceClient(svc.address) as client:
                if not client.ping():
                    raise RuntimeError("the service did not answer a ping")
        return 0

    from repro.api import run_grid
    from repro.store import ResultStore

    with ResultStore(args.dir) as store:
        rows = run_grid(workload.smoke_config(args.seed), backend=BACKEND,
                        jobs=1, store=store)
    if not all(row.ok for row in rows):
        raise RuntimeError("the smoke grid produced a failing row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
