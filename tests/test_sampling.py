"""Distribution tests of the sampled streams, pooled over SEEDS seeds: the
shots' noise draws and readout uniforms, the cells of a shot sweep, and
the per-depth survivals of channel-engine RB.

Each check is a z-score, a pooled sum of independent draws against its
exact mean in units of its standard error, and passes within K = 5.  A
correct sampler fails one check with probability 2 Phi(-5) = 5.7e-7, so
by the Bonferroni bound the 78 checks of this file (21 shot moments, 49
sweep cells, 8 RB depth means) raise a false alarm with probability below
5e-5.
"""

import dataclasses
import math

import numpy as np

from aeonsim import benchmarking as bench
from aeonsim import calibration as cal
from aeonsim import device as dev

K = 5.0
SEEDS = range(20)


def test_shot_draws_and_readout_follow_their_laws():
    d = dataclasses.replace(dev.default_device(),
                            noise=dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e5))
    pulse, trains, shots = dev.PulseSpec((0.0738, -np.inf, -np.inf), 2e-9), np.zeros((1, 1), int), 1000
    z, u = map(np.concatenate, zip(*(dev.sample_shots(d.noise, seed, 5, shape=(1, shots))
                                       for seed in SEEDS)))
    p0 = d.simulate_pulse([pulse], trains, z, False)  # the rows of every seed's shots
    hits = sum(round(d.survival([pulse], trains, (1,), shots, seed, (5,))[0] * shots)
               for seed in SEEDS)
    n, sigma = len(u), d.noise.sigmas
    scores = [
        *(z.mean(axis=0) / (sigma / math.sqrt(n))),  # each column N(0, sigma^2)
        *((np.mean(z**2, axis=0) - sigma**2) / (sigma**2 * math.sqrt(2.0 / n))),
        (u.mean() - 0.5) / math.sqrt(1.0 / (12 * n)),  # U(0, 1): mean 1/2, E[u^2] 1/3
        (np.mean(u**2) - 1.0 / 3.0) / math.sqrt(4.0 / (45 * n)),
        (hits - p0.sum()) / math.sqrt(np.sum(p0 * (1.0 - p0))),  # a shot is a hit w.p. its p0
    ]
    assert np.all(np.abs(scores) < K), scores


def test_shot_sweep_cell_means_match_the_exact_twirl():
    d, cfg, shots = dev.default_device(), cal.GermConfig.for_target(-math.pi / 2, math.pi), 200
    v = np.linspace(0.06, 0.08, 7)
    f = np.clip(cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2).f, 0.0, 1.0)
    mean = np.mean([cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2, shots=shots, seed=seed).f
                    for seed in SEEDS], axis=0)
    # a cell averages 24 binomial survivals p_i of mean f, whose variance
    # sum p_i (1 - p_i) / (24^2 shots) is at most f (1 - f) / (24 shots)
    stderr = np.sqrt(f * (1.0 - f) / (24 * shots * len(SEEDS)))
    assert np.all(np.abs(mean - f) <= K * stderr), np.max(np.abs(mean - f) / stderr)


def test_channel_rb_shot_means_match_the_shot_free_run():
    # the injected channels keep every p0 strictly inside (0, 1), so every
    # cell's binomial has a nonzero variance; only a sequence of identities,
    # which plays no pulse, keeps p0 at 1, and from depth 4 one in 24^4 is
    inject, shots = bench.InjectedError(depol_per_pulse=1e-2, leak_per_pulse=1e-2), 200
    cfg = bench.RbConfig(depths=(4, 16, 64, 256), n_sequences=16)

    def survivals(n):  # (seed, identity/flip, depth, sequence)
        runs = (bench.run_rb(None, dataclasses.replace(cfg, shots=n, seed=seed),
                             engine="channel", inject=inject) for seed in SEEDS)
        return np.array([(d.surv_identity, d.surv_flip) for d in runs])

    p0, hits = survivals(None), np.round(survivals(shots) * shots)
    assert np.all((p0 > 0.0) & (p0 < 1.0))
    # per depth, identity and flip apart: the hits of every seed and
    # sequence against shots * p0 of the same cells
    scores = ((hits - shots * p0).sum(axis=(0, 3))
              / np.sqrt((shots * p0 * (1.0 - p0)).sum(axis=(0, 3))))
    assert scores.shape == (2, len(cfg.depths))
    assert np.all(np.abs(scores) < K), scores
