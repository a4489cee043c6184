"""The benchmark's workloads: fixed lists of aeonsim CLI experiments whose
CLI seeds and free inputs are derived from the benchmark seed.

Experiments come in four groups, each built to stress one part of the
code.  A benchmark workload runs two groups, paired so that one workload
exercises 8x8 pulse propagation and the other never calls it (README.md
says why there are two workloads and not four).  Each group is also a
workload of its own, for diagnosis.

One pass of a workload runs its experiments in order, serially, in one
process.  Every pass of a run uses the same argv, so every pass must write
the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

PI = math.pi

DEFAULT_SEED = 0
# A seed not used while the benchmark was written; a claim made on
# DEFAULT_SEED must also hold on it.
HELD_OUT_SEED = 271828

NOISY = {"noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4}}

# c06's nine targets: +x, -x and -z at pi/2, pi and 3pi/2.
CAL_TARGETS = tuple(
    (f"cal-{name}-{k}", phi, k * PI / 2)
    for name, phi in (("px", 0.0), ("mx", PI), ("mz", -PI / 2))
    for k in (1, 2, 3)
)


@dataclass(frozen=True)
class Experiment:
    """One CLI call; ``argv`` lacks ``--out``, which the runner adds."""

    name: str
    argv: tuple[str, ...]
    out: str

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str, default=None):
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


def _seed(rng: random.Random) -> tuple[str, str]:
    return ("--seed", str(rng.randrange(2**31)))


def _rb_device_noisy(rng, noisy):
    return [
        Experiment("rb-device", ("rb", "--engine", "device", "--shots", "5", "--sequences", "8",
                                 "--config", noisy) + _seed(rng), "rb-device.json"),
    ]


def _coherence_noisy(rng, noisy):
    pair = rng.choice(("12", "23"))  # pair 13 rotates about z, which leaves p0 at 1
    v = round(rng.uniform(0.070, 0.078), 6)  # J(v) from 41 to 62 MHz
    return [
        Experiment("rabi", ("rabi", "--pair", pair, "--v", repr(v), "--times", "0:200e-9:100",
                            "--shots", "50", "--config", noisy) + _seed(rng), "rabi.json"),
        # noise-free map on the default device
        Experiment("fingerpinch", ("fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:41",
                                   "--v2", "0.05:0.08:41") + _seed(rng), "fingerpinch.csv"),
    ]


def _calibrate_shots(rng, noisy):
    return [
        Experiment(name, ("calibrate", "--phi-star", repr(phi), "--theta-star", repr(theta),
                          "--shots", "200") + _seed(rng), f"{name}.json")
        for name, phi, theta in CAL_TARGETS
    ]


def _rb_channel_interleaved(rng, noisy):
    return [
        # depths to 512 resolve the leakage decay (lambda^512 ~ 0.4)
        Experiment("rb-channel", ("rb", "--engine", "channel", "--inject-depol", "1e-3",
                                  "--inject-leak", "1e-3", "--depths", "1,4,16,64,256,512",
                                  "--sequences", "40") + _seed(rng), "rb-channel.json"),
        # pi about -z with only gate error injected, as in c08
        Experiment("irb-channel", ("irb", "--engine", "channel", "--gate-phi", repr(-PI / 2),
                                   "--gate-theta", repr(PI), "--gate-depol", "1e-3",
                                   "--depths", "1,2,4,8,16,32", "--sequences", "20")
                   + _seed(rng), "irb-channel.json"),
    ]


GROUPS = {
    "rb-device-noisy": _rb_device_noisy,
    "coherence-noisy": _coherence_noisy,
    "calibrate-shots": _calibrate_shots,
    "rb-channel-interleaved": _rb_channel_interleaved,
}

# benchmark workload -> its groups
WORKLOADS = {
    "device-noisy": ("rb-device-noisy", "coherence-noisy"),
    "calibrate-channel": ("calibrate-shots", "rb-channel-interleaved"),
}


def groups_of(workload: str) -> tuple[str, ...]:
    """The experiment groups of a workload; raises KeyError if unknown."""
    if workload in GROUPS:
        return (workload,)
    return WORKLOADS[workload]


def experiments(workload: str, seed: int, workdir: str) -> list[Experiment]:
    """The experiments of one pass.  Writes the noisy device config into
    ``workdir`` for the experiments that load it."""
    noisy = os.path.join(workdir, "noisy.json")
    with open(noisy, "w", encoding="utf-8") as fh:
        json.dump(NOISY, fh)
    out = []
    for group in groups_of(workload):
        rng = random.Random(f"aeonsim-perfbench/{group}/{seed}")
        out += GROUPS[group](rng, noisy)
    return out
