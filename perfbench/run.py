"""aeonsim benchmark: runs one workload of CLI experiments and prints its
metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports aeonsim from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="Run one aeonsim benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=10.0, help="timed span of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "aeonsim" / "__init__.py").is_file():
        print(f"perfbench: no aeonsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import workloads as wl

    known = list(wl.WORKLOADS) + list(wl.GROUPS)
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    loadavg = os.getloadavg()
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = harness.run(args.workload, seed, args.seconds, args.trace, workdir,
                                    loadavg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
