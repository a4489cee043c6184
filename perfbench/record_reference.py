"""Record the reference artifacts the correctness gate compares against on
the default seed, one file per experiment under ``reference/``.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right, and only in a
change that redefines the benchmark: a change measured by the benchmark
must leave these files alone.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from aeonsim import cli

    dest = HERE / "reference"
    dest.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in wl.WORKLOADS:
            for exp in wl.experiments(workload, wl.DEFAULT_SEED, tmp):
                code = cli.main(list(exp.argv) + ["--out", str(dest / exp.out)])
                if code != 0:
                    print(f"{workload}/{exp.name}: exit code {code}", file=sys.stderr)
                    return 1
                print(f"recorded {(dest / exp.out).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
