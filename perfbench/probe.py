"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 perfbench/probe.py SRC_DIR ARGV_JSON

It imports aeonsim from SRC_DIR, parses the workload's first experiment
(ARGV_JSON, a JSON list), loads that experiment's device config, fills the
first-call caches (the canonical Clifford group and the twirl's Clifford
z-columns), prints READY and exits.  The parent times spawn to READY.
"""

import json
import sys


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    from aeonsim import calibration, cli, device, rotations

    args = cli.build_parser().parse_args(json.loads(argv[2]))
    if args.config is None:
        device.default_device()
    else:
        device.load_device(args.config)
    rotations.canonical_clifford_group()
    calibration._clifford_z_columns()
    print("READY", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
