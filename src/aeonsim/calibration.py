"""Germ-based closed-loop calibration of exchange rotations.

A germ amplifies small axis and angle errors of a probe pulse: with a probe
rotation ``R_phi(theta)`` and a pre-calibrated helper ``R_eta(chi)``, the
germ composes ``U(N) = U_ax^N * U_ang^N`` where ``U_ax = R_phi(theta)^(2q)``
and ``U_ang = (R_eta(chi) * R_phi(theta)^q)^2``, and ``q`` is the smallest
integer making ``q*theta*`` an odd multiple of pi.  At the calibration
point the germ is the identity and its Clifford-twirled survival fidelity
is 1; away from it, fringes of spacing pi/(2N) form around a central peak
whose width shrinks as 1/N.

Calibration proceeds by sweeping two virtual barrier voltages, measuring
the twirled fidelity cell by cell on the simulated device, tracking the
central peak through an N-doubling schedule, and finally fitting the
analytic fidelity surface to pin the target voltages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .device import PAIR_ORDER, DeviceModel, ExchangeLaw, barrier_grid, rng_streams, split_calls
from .errors import CalibrationDiverged, ConfigError, DetectionError, FitError
from .fitting import best_of_starts
from .rotations import (
    AxisAngle,
    canonical_clifford_group,
    compose,
    exchange_to_rotation,
    pairs_for_axis,
    quaternion,
    so3_matrix,
    solve_exchange_for_rotation,
)

def choose_germ_exponent(theta_star: float) -> tuple[int, int]:
    """Smallest q >= 1 with ``q * theta_star = s * pi`` for odd integer s.

    Raises:
        ConfigError: if no such q exists up to 16 (the target angle must be
            an odd-over-integer rational multiple of pi).
    """
    for q in range(1, 17):
        x = q * theta_star / math.pi
        s = round(x)
        if abs(x - s) < 1e-9 and s % 2 == 1 and s > 0:
            return q, s
    raise ConfigError(
        f"target angle {theta_star:.6f} has no odd-multiple-of-pi germ "
        "exponent q <= 16"
    )


@dataclass(frozen=True)
class GermConfig:
    """Germ calibration target and believed helper-pulse parameters."""

    phi_star: float
    theta_star: float
    q: int
    s: int
    eta: float
    chi: float = math.pi
    pulse_s: float = 10e-9

    @staticmethod
    def for_target(phi_star: float, theta_star: float, pulse_s: float = 10e-9) -> "GermConfig":
        """The germ of a target, with the helper ``R_eta(pi)`` about the
        axis a quarter turn past the target's, ``eta = phi_star + pi/2``."""
        q, s = choose_germ_exponent(theta_star)
        return GermConfig(phi_star, theta_star, q, s, phi_star + math.pi / 2.0, math.pi, pulse_s)


# ---------------------------------------------------------------------------
# Twirled survival fidelity


@functools.cache
def _clifford_z_columns() -> np.ndarray:
    """Third column of each canonical Clifford's Bloch rotation matrix,
    C-contiguous: the twirl's ``einsum`` sums in its operands' memory
    order, and this layout keeps its results' last bits."""
    return np.ascontiguousarray(so3_matrix(canonical_clifford_group().quaternions)[..., 2])


# ---------------------------------------------------------------------------
# Analytic fidelity surface


def _spread(m: int, x):
    """Spread polynomial S_m, with S_m(sin^2 a) = sin^2(m a), of ``x``
    clipped to [0, 1]."""
    return np.sin(m * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))) ** 2


def _chebyshev_u_orders(orders, x):
    """Chebyshev polynomials of the second kind U_m(x), for each order in
    ``orders``, as ``sin((m + 1) t) / sin t`` with ``t = arccos(x)``, all
    from one ``arccos`` and one ``sin t``.  ``x`` is clipped to [-1, 1]
    (the surface passes a unit quaternion's scalar part, which leaves that
    range only by rounding); at x = +-1, where sin t vanishes, U_m takes
    its limit (m + 1) (+-1)^m."""
    x = np.asarray(x, dtype=float)
    t = np.arccos(np.clip(x.reshape(-1), -1.0, 1.0))
    st = np.sin(t)
    ends = np.flatnonzero(st < 1e-9)
    out = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for m in orders:
            val = np.sin((m + 1) * t) / st
            if ends.size:
                val[ends] = (m + 1) * np.sign(np.cos(t[ends])) ** m
            out.append(val.reshape(x.shape))
    return out


def analytic_fidelity(phi, theta, eta: float, chi, n_reps: int, cfg: GermConfig):
    """Closed-form twirled fidelity of the germ at probe (phi, theta).

    The helper rotation is ``R_eta(chi)``; ``chi`` is a float or an array
    that broadcasts against ``phi`` and ``theta`` (the surface fit passes
    one per stacked parameter set).  The composed rotation entering
    the fringe factors is ``R_eta(chi) * R_phi(q*theta)`` (the q-fold
    repeated probe), and the axis-amplification angle per repetition is the
    accumulated ``2*q*theta`` rather than the bare pulse angle; this is the
    convention that reproduces the brute-force Clifford twirl for all N,
    including odd N at the calibration point.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    q = cfg.q
    half_chi = 0.5 * chi
    half_theta_q = 0.5 * (q * theta)
    # composed rotation R_eta(chi) * R_phi(q theta): quaternion (wc, vc)
    ch, sh = np.cos(half_chi), np.sin(half_chi)
    ct, st = np.cos(half_theta_q), np.sin(half_theta_q)
    rx, rz = np.cos(phi), np.sin(phi)
    # each product is formed once; -(sh*st*s) equals -sh*st*s bit for bit
    phi_eta = phi - eta
    ch_st, sh_ct, sh_st = ch * st, sh * ct, sh * st
    wc = ch * ct - sh_st * np.cos(phi_eta)
    vx = ch_st * rx + sh_ct * math.cos(eta)
    vy = -(sh_st * np.sin(phi_eta))
    vz = ch_st * rz + sh_ct * math.sin(eta)
    sin2_half = 1.0 - wc**2

    alpha = 2.0 * n_reps * q * theta
    sin2_half_alpha = np.sin(0.5 * alpha) ** 2

    s2n = _spread(2 * n_reps, sin2_half)
    u2n1, u4n1 = _chebyshev_u_orders((2 * n_reps - 1, 4 * n_reps - 1), wc)

    cross_sq = (rx * vz - rz * vx) ** 2 + vy**2
    dot = rx * vx + rz * vz
    bracket = np.cos(alpha) * s2n + cross_sq * sin2_half_alpha * u2n1**2
    term2 = 0.5 * dot * np.sin(alpha) * u4n1
    return 1.0 - (2.0 / 3.0) * (bracket + term2 + sin2_half_alpha)


# ---------------------------------------------------------------------------
# Voltage-space sweeps


@dataclass(frozen=True)
class FidelityMap:
    """Twirled fidelity on a 2-D barrier voltage grid (rows follow v2)."""

    v1: np.ndarray
    v2: np.ndarray
    f: np.ndarray
    pairs: tuple[str, str]
    n_reps: int
    cfg: GermConfig
    shots: int | None  # per Clifford and cell; None for the exact twirl


def _quat_power(q, n: int):
    """Integer power of ``(..., 4)`` unit quaternions, vectorized."""
    w, v = q[..., 0], q[..., 1:]
    norm_v = np.sqrt(np.sum(v**2, axis=-1))
    half = np.arctan2(norm_v, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        axis = v / norm_v[..., None]
    axis = np.where(norm_v[..., None] > 1e-300, axis, 0.0)
    vn = np.sin(n * half)[..., None] * axis
    # pure-scalar quaternions: w = +-1
    wn = np.where(norm_v <= 1e-300, np.sign(w) ** n, np.cos(n * half))
    return np.concatenate([wn[..., None], vn], axis=-1)


def germ_net_quaternion(
    cfg: GermConfig,
    probe_phi,
    probe_theta,
    n_reps: int,
    precal: np.ndarray | None = None,
) -> np.ndarray:
    """Net germ rotation, shape ``(..., 4)``, vectorized over probe arrays.

    Uses exact integer-power identities for the repeated blocks; equals the
    germ composed pulse by pulse, where one angle-amplifying repetition
    plays q probes, the helper, q probes and the helper again, and each of
    the N axis-amplifying repetitions plays 2q probes.
    """
    if precal is None:
        precal = quaternion(cfg.eta, cfg.chi)
    ang = _quat_power(compose(precal, quaternion(probe_phi, cfg.q * probe_theta)), 2 * n_reps)
    return compose(quaternion(probe_phi, 2 * cfg.q * n_reps * probe_theta), ang)


def sweep_fidelity(
    device: DeviceModel,
    cfg: GermConfig,
    pairs: tuple[str, str],
    v1: np.ndarray,
    v2: np.ndarray,
    n_reps: int,
    shots: int | None = None,
    seed: int = 0,
    precal_actual: np.ndarray | None = None,
) -> FidelityMap:
    """Measure the germ's twirled fidelity over a barrier-voltage grid.

    Per cell, the probe pulse is whatever rotation the device delivers at
    those voltages (exchange law, pulse duration).  The whole grid goes
    through the exchange law, the rotation map, the germ's net rotation
    and the exact twirl as arrays.  With ``shots``, per-cell binomial
    sampling uses counter-split RNG streams, so each cell's result depends
    only on the seed and its grid position; the helper process
    (:func:`device.split_calls`) samples the first half of the cells, in
    C order, while this process samples the rest, each half deriving only
    its own cells' streams, and the map is the same bytes wherever they
    run.  The exact twirl forks no helper.

    ``precal_actual`` injects a helper pulse differing from the believed
    ``(eta, chi)`` (calibration-transfer error studies).
    """
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    v_x = barrier_grid(pairs, v1, v2)
    aa = exchange_to_rotation(device.exchange_from_voltages(v_x), cfg.pulse_s)
    q = germ_net_quaternion(cfg, aa.phi, aa.theta, n_reps, precal=precal_actual)
    # the vector part C-contiguous, as the einsum below needs (see _clifford_z_columns)
    w, v = q[..., 0], np.ascontiguousarray(q[..., 1:])
    proj = np.einsum("...j,kj->...k", v, _clifford_z_columns())
    if shots is None:  # the exact twirl
        f = w**2 + np.mean(proj**2, axis=-1)
    else:
        surv = np.clip(w[..., None] ** 2 + proj**2, 0.0, 1.0)
        rows = surv.reshape(-1, surv.shape[-1])
        half = len(rows) // 2
        tail, head = split_calls(
            _shot_counts,
            (rows[half:], shots, seed, n_reps, surv.shape[:2], range(half, len(rows))),
            (rows[:half], shots, seed, n_reps, surv.shape[:2], range(half)),
        )
        f = (np.concatenate([head, tail]).reshape(surv.shape) / shots).mean(axis=-1)
    return FidelityMap(v1, v2, f, tuple(pairs), n_reps, cfg, shots)


def _shot_counts(rows, shots: int, seed: int, n_reps: int, shape, cells: range) -> np.ndarray:
    """Binomial shot counts of the cells at flat indices ``cells`` of a
    sweep grid of ``shape``, one row of Clifford survival probabilities
    each, drawn from each cell's stream ``(seed, n_reps, row, col)``: the
    cell shuffles its Clifford order (``rng.permutation``'s draws) and
    samples in that order.  Each count returns to its Clifford's place."""
    orders = np.tile(np.arange(rows.shape[1]), (rows.shape[0], 1))
    draws = np.empty(rows.shape)
    streams = rng_streams(seed, n_reps, shape=shape, cells=cells)
    for order, row, draw, rng in zip(orders, rows, draws, streams):
        rng.shuffle(order)
        draw[:] = rng.binomial(shots, row[order])
    counts = np.empty_like(draws)
    np.put_along_axis(counts, orders, draws, axis=1)
    return counts


# ---------------------------------------------------------------------------
# Peak detection and staged tracking


@dataclass(frozen=True)
class PeakEstimate:
    v1: float
    v2: float
    stderr_v1: float
    stderr_v2: float


# The one-cell Gaussian of find_peak, truncated at four cells, with the
# weights and the order of sums of scipy.ndimage.gaussian_filter(sigma=1).
_SMOOTH_RADIUS = 4
_SMOOTH_WEIGHTS = np.exp(-0.5 / 1.0 * np.arange(-_SMOOTH_RADIUS, _SMOOTH_RADIUS + 1) ** 2)
_SMOOTH_WEIGHTS /= _SMOOTH_WEIGHTS.sum()


def _smooth(f: np.ndarray) -> np.ndarray:
    """A 2-D map filtered with the one-cell Gaussian, edges extended by
    their nearest cell: axis 0, then axis 1, each output cell summing
    ``x[i] w[0]`` and then ``(x[i - j] + x[i + j]) w[j]`` for j = 4 to 1."""
    r, w = _SMOOTH_RADIUS, _SMOOTH_WEIGHTS[_SMOOTH_RADIUS:]
    for _ in range(2):  # each pass filters axis 0 and transposes
        n = f.shape[0]
        x = np.pad(f, ((r, r), (0, 0)), mode="edge")
        out = x[r : r + n] * w[0]
        for j in range(r, 0, -1):
            out += (x[r - j : r - j + n] + x[r + j : r + j + n]) * w[j]
        f = out.T
    return np.ascontiguousarray(f)


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """The 4-connected regions of a 2-D mask, numbered from 1 in the raster
    order of their first cell (scipy.ndimage.label's numbering), and their
    count."""
    labels = np.zeros(mask.shape, dtype=np.int32)
    rows, cols = mask.shape
    cells = mask.tolist()
    n = 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if labels[r0, c0]:
            continue
        n += 1
        labels[r0, c0] = n
        stack = [(r0, c0)]
        while stack:
            r, c = stack.pop()
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < rows and 0 <= cc < cols and cells[rr][cc] and not labels[rr, cc]:
                    labels[rr, cc] = n
                    stack.append((rr, cc))
    return labels, n


def find_peak(fmap: FidelityMap, previous: tuple[float, float]) -> PeakEstimate:
    """Locate the tracked fidelity peak on a map.

    The map is smoothed with a one-cell Gaussian filter and thresholded at
    exactly 0.80 of the filtered maximum; among the connected
    above-threshold regions, the one whose centroid lies nearest the
    previous peak (Euclidean, voltage space) is selected.  Returns the
    intensity-weighted centroid.

    Raises:
        DetectionError: if the map has no contrast (flat within 1e-9
            relative), no usable region, or a region whose spread overflows.
    """
    f = np.asarray(fmap.f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise DetectionError("fidelity map contains non-finite values")
    smooth = _smooth(f)
    fmax, fmin = float(smooth.max()), float(smooth.min())
    if fmax - fmin <= 1e-9 * max(abs(fmax), 1e-30):
        raise DetectionError("fidelity map is flat; no peak to detect")
    mask = smooth >= 0.80 * fmax
    labels, n_regions = _label(mask)
    if n_regions == 0:
        raise DetectionError("no cells above the 80% threshold")

    def centroid(region_mask):
        wts = smooth * region_mask
        total = wts.sum()
        rows, cols = np.nonzero(region_mask)
        wr = wts[rows, cols]
        # voltages beyond ~1e154 V overflow the spread, and voltages near
        # the float limit the centroid's sums
        with np.errstate(over="ignore", invalid="ignore"):
            c1 = float(np.sum(fmap.v1[cols] * wr) / total)
            c2 = float(np.sum(fmap.v2[rows] * wr) / total)
            s1 = float(np.sqrt(np.sum((fmap.v1[cols] - c1) ** 2 * wr) / total))
            s2 = float(np.sqrt(np.sum((fmap.v2[rows] - c2) ** 2 * wr) / total))
        if not math.isfinite(s1 + s2):
            raise DetectionError("the peak's spread overflows: sweep voltages too large")
        return c1, c2, s1, s2

    best, best_d = None, np.inf
    for lab in range(1, n_regions + 1):
        c1, c2, *_ = centroid(labels == lab)
        d = math.hypot(c1 - previous[0], c2 - previous[1])
        if d < best_d:
            best, best_d = lab, d
    return PeakEstimate(*centroid(labels == best))


# ---------------------------------------------------------------------------
# Final surface fit


@dataclass(frozen=True)
class CalFit:
    laws: dict
    chi: float
    residual_rms: float
    n_restarts_used: int


def _map_model(params, fmap: FidelityMap, a_scales, eta: float) -> np.ndarray:
    """Model fidelity maps for a ``(k, 5)`` stack of parameter sets
    ``(B1, C1, B2, C2, chi)``, shape ``(k, ny, nx)``; each map equals the
    one its parameter set gives alone.  Each exchange law is evaluated on
    its own voltage axis, ``(k, 1, nx)`` and ``(k, ny, 1)``, and the
    rotation map broadcasts them over the grid."""
    b1, c1, b2, c2, chi = np.asarray(params, dtype=float).T[:, :, None, None]
    cfg = fmap.cfg
    j = np.zeros((len(b1), fmap.v2.size, fmap.v1.size, 3))
    j[..., PAIR_ORDER.index(fmap.pairs[0])] = a_scales[0] * np.exp(b1 * fmap.v1 + c1)
    j[..., PAIR_ORDER.index(fmap.pairs[1])] = a_scales[1] * np.exp(b2 * fmap.v2[:, None] + c2)
    aa = exchange_to_rotation(j, cfg.pulse_s)
    return analytic_fidelity(aa.phi, aa.theta, eta, chi, fmap.n_reps, cfg)


def _surface_residuals(fmap: FidelityMap, a_scales, stack) -> np.ndarray:
    """The surface fit's stacked residual model: a ``(k, 5)`` stack of
    parameter sets ``(B1, C1, B2, C2, chi)`` to the ``(k, cells)`` stack of
    their residuals, so that a Jacobian's five stepped points are one model
    call.  A trial step's law may overflow; MINPACK rejects that step."""
    with np.errstate(over="ignore", invalid="ignore"):
        model = _map_model(stack, fmap, a_scales, fmap.cfg.eta)
        return (model - fmap.f).reshape(len(stack), -1)


# starts of the surface fit: the assumed laws and seven jittered copies
FIT_STARTS = 8


def fit_final(
    fmap: FidelityMap,
    assumed_laws: dict,
    peak_v: tuple[float, float],
    j_tgt,
    seed: int = 0,
) -> CalFit:
    """Fit the analytic fidelity surface to the final map.

    Free parameters are B and C of each swept pair's exchange law plus the
    helper angle chi (A is held at its configured scale: A and C shift the
    same degree of freedom).  :func:`fitting.best_of_starts` runs damped
    least squares from :data:`FIT_STARTS` starts in order, the assumed
    laws' B with the believed chi and then jittered copies of them.  On an
    exact map (no shots) they stop once a start's RMS residual falls below
    1e-10, which only such a map reaches; a sampled map's fit runs every
    start, and may split them with the helper process.

    Each start's C offsets put the model's calibration point, the
    target couplings ``j_tgt`` (Hz, in pair order), on ``peak_v``, the measured
    peak of this map; a start from the assumed C can alias onto a
    neighboring high-N fringe and converge to a shifted law.

    Raises:
        FitError: if no start converges, or the best one's RMS residual
            exceeds 0.05.
    """
    cfg = fmap.cfg
    law1, law2 = assumed_laws[fmap.pairs[0]], assumed_laws[fmap.pairs[1]]
    a_scales = (law1.a_hz, law2.a_hz)
    x0 = np.array([law1.b_per_v, 0.0, law2.b_per_v, 0.0, cfg.chi])
    j_pairs = [j_tgt[PAIR_ORDER.index(p)] for p in fmap.pairs]
    starts = []
    for k, rng in enumerate(rng_streams(seed, 77, shape=FIT_STARTS)):
        start = x0.copy()
        if k > 0:
            # chi's jitter is each stream's fifth draw; the peak sets C, so
            # draws 2 and 3 go unused
            z = rng.standard_normal(5)
            start[[0, 2]] *= 1.0 + 0.03 * z[:2]
            start[4] += 0.05 * z[4]
        start[1] = math.log(j_pairs[0] / a_scales[0]) - start[0] * peak_v[0]
        start[3] = math.log(j_pairs[1] / a_scales[1]) - start[2] * peak_v[1]
        starts.append(start)
    best, used = best_of_starts(
        functools.partial(_surface_residuals, fmap, a_scales),
        starts,
        stop_rms=1e-10 if fmap.shots is None else None,
        xtol=1e-14,
        ftol=1e-14,
    )
    if best.rms > 0.05:
        raise FitError(f"fidelity surface fit residual {best.rms:.3g} too large")
    b1, c1, b2, c2, chi = best.x
    laws = {
        fmap.pairs[0]: ExchangeLaw(a_scales[0], float(b1), float(c1)),
        fmap.pairs[1]: ExchangeLaw(a_scales[1], float(b2), float(c2)),
    }
    return CalFit(laws=laws, chi=float(chi), residual_rms=best.rms, n_restarts_used=used)


def fitted_rotation_at(
    fit: CalFit, pairs: tuple[str, str], v1: float, v2: float, pulse_s: float
) -> AxisAngle:
    """Probe rotation the fitted model assigns to a voltage point."""
    j = [0.0, 0.0, 0.0]
    for p, v in zip(pairs, (v1, v2)):
        law = fit.laws[p]
        j[PAIR_ORDER.index(p)] = law.a_hz * math.exp(law.b_per_v * v + law.c)
    return exchange_to_rotation(j, pulse_s)


# ---------------------------------------------------------------------------
# Staged closed loop


def run_calibration(
    device: DeviceModel,
    phi_star: float,
    theta_star: float,
    pairs: tuple[str, str] | None = None,
    assumed_laws: dict | None = None,
    precal_actual: np.ndarray | None = None,
    *,
    schedule: tuple[int, ...] = (1, 2, 4, 8, 16, 24),
    grid_points: int = 21,
    window0_v: float = 0.030,
    shots: int | None = None,
    seed: int = 0,
) -> dict:
    """Track the germ fidelity peak through an N-doubling schedule and fit
    the final map: the calibrate artifact's document.

    Its keys are ``target`` (``phi``, ``theta`` and the germ's ``q`` and
    ``s``), ``pairs`` (the swept pairs), ``stages`` (per stage ``N``,
    ``window``, ``peak_v`` and ``stderr``), ``fit`` (``chi``,
    ``residual_rms``, and ``laws``: each swept pair's fitted ``A_hz``,
    ``B_per_v`` and ``C``) and ``final`` (each swept pair's voltage
    ``v_x<pair>``, and the ``phi`` and ``theta`` the fitted laws give there).

    The starting window centers on the assumed-law voltage solution; each
    stage shrinks the window in proportion to 1/N (never below 3x the
    previous grid resolution) and re-centers on the peak found by
    :func:`find_peak`.  The last stage's map is fitted with
    :func:`fit_final` and the fitted laws are solved for the voltages that
    put the probe on target: the target couplings are solved once, and
    anchor both the start window and the fit.  The germ is
    :meth:`GermConfig.for_target` at the device's pulse length.
    ``schedule`` lists the stages' N; stage k sweeps ``grid_points``
    voltages per axis (over ``window0_v`` at k = 0) and samples ``shots``
    per cell (None: exact) with seed ``seed + k``.

    Raises:
        ConfigError: if ``theta_star`` has no germ exponent, or ``phi_star``
            lies on a single-coupling axis with no ``pairs`` given or needs
            a negative coupling of the pairs.
        CalibrationDiverged: if a stage's peak jumps by more than 1.5
            windows.
        DetectionError: if a stage's sweep centre, or a swept pair's
            exchange at the edges of its window, is not finite.
        NonFiniteError: naming ``pulse_s`` if the target's exchange rate
            overflows (:meth:`DeviceModel.rotation_rate`).
    """
    cfg = GermConfig.for_target(phi_star, theta_star, device.pulse_s)
    if pairs is None:
        pairs = pairs_for_axis(phi_star)
    laws = dict(device.laws) if assumed_laws is None else dict(assumed_laws)
    j_tgt = solve_exchange_for_rotation(phi_star, device.rotation_rate(theta_star), pairs)
    center = [laws[p].v_for(j_tgt[PAIR_ORDER.index(p)], p) for p in pairs]

    stages = []
    window = window0_v
    resolution = window / (grid_points - 1)
    for stage_idx, n_reps in enumerate(schedule):
        if stage_idx > 0:
            shrink = schedule[stage_idx - 1] / n_reps
            window = max(window * shrink, 3.0 * resolution)
        for c, pair in zip(center, pairs):
            with np.errstate(over="ignore"):
                j = device.laws[pair].j_hz([c - window / 2, c + window / 2])
            if not (math.isfinite(c) and np.all(np.isfinite(j))):
                raise DetectionError(
                    f"stage {stage_idx} (N={n_reps}): the exchange of pair {pair} is not "
                    f"finite over the sweep window centred at {c:.6g} V"
                )
        v1 = np.linspace(center[0] - window / 2, center[0] + window / 2, grid_points)
        v2 = np.linspace(center[1] - window / 2, center[1] + window / 2, grid_points)
        resolution = window / (grid_points - 1)
        fmap = sweep_fidelity(
            device,
            cfg,
            pairs,
            v1,
            v2,
            n_reps,
            shots=shots,
            seed=seed + stage_idx,
            precal_actual=precal_actual,
        )
        # the peak nearest the centre: the nominal solution at stage 0 (germs
        # are identity on a lattice of voltage points and the global maximum
        # may sit on a neighboring lattice point), then the last peak
        peak = find_peak(fmap, previous=center)
        if stage_idx > 0:
            jump = math.hypot(peak.v1 - center[0], peak.v2 - center[1])
            if jump > 1.5 * window:
                raise CalibrationDiverged(f"peak jumped {jump:.4g} V at stage N={n_reps}")
        stages.append({
            "N": n_reps,
            "window": [[v1[0], v1[-1]], [v2[0], v2[-1]]],
            "peak_v": [peak.v1, peak.v2],
            "stderr": [peak.stderr_v1, peak.stderr_v2],
        })
        center = [peak.v1, peak.v2]

    fit = fit_final(fmap, laws, center, j_tgt, seed=seed)
    v_final = tuple(fit.laws[p].v_for(j_tgt[PAIR_ORDER.index(p)], p) for p in pairs)
    aa = fitted_rotation_at(fit, pairs, v_final[0], v_final[1], cfg.pulse_s)
    return {
        "target": {"phi": phi_star, "theta": theta_star, "q": cfg.q, "s": cfg.s},
        "pairs": list(pairs),
        "stages": stages,
        "fit": {
            "chi": fit.chi,
            "residual_rms": fit.residual_rms,
            "laws": {
                p: {"A_hz": lf.a_hz, "B_per_v": lf.b_per_v, "C": lf.c}
                for p, lf in fit.laws.items()
            },
        },
        "final": {
            f"v_x{pairs[0]}": v_final[0],
            f"v_x{pairs[1]}": v_final[1],
            "phi": aa.phi,
            "theta": aa.theta,
        },
    }
