"""Noisy device RB against the kernel's own gate infidelity.

Device RB draws one quasi-static noise draw per shot and holds it over the
whole sequence, so its decay is a mixture of exponentials, which a single
exponential fits only while the error gathered over the deepest sequence
stays small.  In that weak regime (``r * N_max`` <= ~0.05) the error per
Clifford of the run's depolarizing parameter, ``(1 - p) / 2``, must match
the average Clifford infidelity ``r`` computed from the same sector
propagators (:func:`oracles.clifford_infidelity`).
"""

from aeonsim import benchmarking as bench
from aeonsim import device as dev
from oracles import clifford_infidelity

# Bound on |(1 - p) / 2 / r - 1|.  Over seeds 0-39 of the run below, the
# ratio had mean 1.024 and standard deviation 0.062, with extremes 0.869
# and 1.139; the bound is about 3 standard deviations.
RATIO_TOLERANCE = 0.2


def test_noisy_device_rb_matches_the_kernels_clifford_infidelity():
    device = dev.DeviceModel(noise=dev.NoiseConfig(voltage_sigma_v=5e-4, gradient_sigma_hz=3e5))
    r = clifford_infidelity(device, n_draws=1000)
    # many sequences of few shots: 40 sequences of 100 shots each gave the
    # ratio a standard deviation of 0.165 over seeds 0-19
    cfg = bench.RbConfig(depths=(2, 4, 8, 12, 16), n_sequences=400, shots=10, seed=0)
    fit = bench.fit_rb(bench.run_rb(device, cfg, engine="device"))
    assert abs(0.5 * (1.0 - fit["p"]) / r - 1.0) <= RATIO_TOLERANCE
    assert 0.0 < r * max(cfg.depths) <= 0.05
