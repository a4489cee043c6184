"""Blind randomized benchmarking on the encoded exchange-only qubit.

Single-shot readout distinguishes the encoded ``|0>`` from everything
else, so each random Clifford sequence is run twice: once compiled to the
identity and once to a bit flip.  The per-depth difference of the two
survival curves isolates depolarization (``a * p^N``); their sum isolates
leakage out of the encoded subspace (``c0 + c1 * lam^N``), which single
shots cannot otherwise separate from qubit error.

Two engines share one sequence walker.  The device engine plays every
pulse of every Clifford on the simulated device (fresh quasi-static noise
draw per shot).  The channel engine replaces physical noise with injected
per-pulse depolarizing and leakage channels and computes survivals in one
deterministic pass, which makes recovered-versus-injected comparisons
exact and fast.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .device import (  # noqa: F401 - sample_noise stays bound for perfbench's tracer
    PAIR_ORDER, DeviceModel, PulseSpec, rng_stream, rng_streams, sample_noise
)
from .errors import FitError
from .fitting import best_of_starts
from .rotations import (  # noqa: F401 - compose, match_element and so3_matrix stay bound for perfbench's tracer
    AxisAngle,
    ONE_J_AXES,
    canonical_clifford_group,
    avg_pulse_count,
    compose,
    match_element,
    pairs_for_axis,
    quaternion,
    so3_matrix,
    solve_exchange_for_rotation,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RbConfig:
    """Benchmarking run geometry and sampling."""

    depths: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24)
    n_sequences: int = 20
    shots: int | None = None
    seed: int = 0
    idle_s: float = 0.0
    apply_cross: bool = False


@dataclass(frozen=True)
class InjectedError:
    """Per-pulse channel strengths for the channel engine.

    ``depol_per_pulse`` is the average gate infidelity added per pulse;
    ``leak_per_pulse`` is the encoded-subspace population lost per pulse.
    """

    depol_per_pulse: float = 0.0
    leak_per_pulse: float = 0.0
    gate_depol: float = 0.0


@dataclass(frozen=True)
class RbData:
    config: RbConfig
    surv_identity: np.ndarray
    surv_flip: np.ndarray
    avg_pulses: float


def generate_sequence(rng: np.random.Generator, depth: int, group) -> list[int]:
    """Uniformly random Clifford indices for one sequence."""
    return [int(k) for k in rng.integers(0, len(group), size=depth)]


def _sequences(cfg: RbConfig, group, interleaved: AxisAngle | None):
    """Each (depth, sequence) cell's Clifford indices and the position of
    its net element, in stream path order: ``(di, si, indices, net)``.
    The interleaved gate, when given, follows every Clifford."""
    inter = None if interleaved is None else group.position(
        quaternion(interleaved.phi, interleaved.theta))
    mul = group.mul.tolist()
    grid = (len(cfg.depths), cfg.n_sequences)
    for (di, si), rng in zip(np.ndindex(grid), rng_streams(cfg.seed, shape=grid)):
        indices = generate_sequence(rng, cfg.depths[di], group)
        net = group.identity
        for k in indices:
            net = mul[k][net]
            if inter is not None:
                net = mul[inter][net]
        yield di, si, indices, net


# ---------------------------------------------------------------------------
# Device engine


def realize_pulse(device: DeviceModel, aa: AxisAngle) -> PulseSpec:
    """Voltages that make the device play rotation ``aa`` in one pulse.

    A negative angle plays as the positive one about the opposite axis.
    Axes matching a single coupling use that pair alone; anything else is
    solved in its two-pair wedge.
    """
    if aa.theta < 0:
        aa = AxisAngle(aa.phi + math.pi, -aa.theta)
    omega = device.rotation_rate(aa.theta)
    if omega == 0.0:
        return PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=device.pulse_s)
    for pair, axis_phi in ONE_J_AXES.items():
        if abs((aa.phi - axis_phi + math.pi) % TWO_PI - math.pi) < 1e-9:
            j = [omega if p == pair else 0.0 for p in PAIR_ORDER]
            break
    else:
        j = solve_exchange_for_rotation(aa.phi, omega, pairs_for_axis(aa.phi))
    return PulseSpec(v_x=tuple(device.voltages_for_exchange(j)), duration_s=device.pulse_s)


def _run_device_engine(device, cfg, group, interleaved):
    """Survivals of every sequence's identity and flip trains, played as
    integer trains over one table of the experiment's distinct pulses."""
    table: dict[PulseSpec, int] = {}
    slot_of: dict[AxisAngle, int] = {}

    def slot_for(aa: AxisAngle) -> int:
        if aa not in slot_of:
            slot_of[aa] = table.setdefault(realize_pulse(device, aa), len(table))
        return slot_of[aa]

    # the slots of each Clifford's pulses, and of a sequence step: the
    # Clifford, then the interleaved gate and the idle
    cliffords = [np.array([slot_for(aa) for aa in el.decomposition], dtype=np.intp)
                 for el in group]
    extra = []
    if interleaved is not None:
        extra.append(slot_for(interleaved))
    if cfg.idle_s > 0:
        idle = PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=cfg.idle_s)
        extra.append(table.setdefault(idle, len(table)))
    steps = [np.concatenate([c, np.array(extra, dtype=np.intp)]) for c in cliffords]

    # the identity and flip trains of every sequence, in stream path order
    # (depth, sequence, flip), played as one batch
    trains = []
    for _, _, indices, net in _sequences(cfg, group, interleaved):
        body = [steps[k] for k in indices]
        for rec in (group.inv[net], group.flip_inv[net]):
            trains.append(np.concatenate(body + [cliffords[rec]]))
    grid = (len(cfg.depths), cfg.n_sequences, 2)
    surv = device.survival(list(table), trains, grid, cfg.shots, cfg.seed, (), cfg.apply_cross)
    return surv[..., 0].copy(), surv[..., 1].copy()


# ---------------------------------------------------------------------------
# Channel-injection engine


def _run_channel_engine(cfg, group, inject: InjectedError, interleaved):
    """Depolarizing channels commute with every rotation, so a sequence's
    survival needs only its net element and its pulse counts: after ``n``
    pulses and ``m`` interleaved gates the recovered Bloch z is
    ``+-(lam_dep * keep)^n * lam_gate^m`` and the encoded trace ``keep^n``.
    The factors are multiplied in pulse order, Clifford by Clifford."""
    lam_dep = 1.0 - 2.0 * inject.depol_per_pulse
    keep = 1.0 - inject.leak_per_pulse
    lam_gate = 1.0 - 2.0 * inject.gate_depol
    z_step = [(lam_dep * keep) ** el.pulse_count for el in group]
    trace_step = [keep**el.pulse_count for el in group]

    surv_id = np.empty((len(cfg.depths), cfg.n_sequences))
    surv_fl = np.empty_like(surv_id)
    for di, si, indices, net in _sequences(cfg, group, interleaved):
        z, trace = 1.0, 1.0
        for k in indices:
            z *= z_step[k]
            trace *= trace_step[k]
            if interleaved is not None:
                z *= lam_gate * lam_dep * keep
                trace *= keep
        for flip in (False, True):
            rec = group.flip_inv[net] if flip else group.inv[net]
            z_rec = (-1.0 if flip else 1.0) * z * z_step[rec]
            p0 = 0.5 * (trace * trace_step[rec] + z_rec)
            if cfg.shots is not None:
                shot_rng = rng_stream(cfg.seed, di, si, int(flip), 1000)
                p0 = shot_rng.binomial(cfg.shots, min(1.0, max(0.0, p0))) / cfg.shots
            if flip:
                surv_fl[di, si] = p0
            else:
                surv_id[di, si] = p0
    return surv_id, surv_fl


def run_rb(
    device: DeviceModel | None,
    cfg: RbConfig,
    engine: str = "device",
    inject: InjectedError | None = None,
    interleaved: AxisAngle | None = None,
) -> RbData:
    """Run blind randomized benchmarking and return paired survival data.

    ``engine="device"`` plays pulses on ``device``; ``engine="channel"``
    uses injected per-pulse channels and needs no device.  The interleaved
    rotation, when given, must itself be a Clifford element.  Both engines
    play the canonical Clifford group.
    """
    group = canonical_clifford_group()
    if engine == "device":
        if device is None:
            raise ValueError("device engine needs a device model")
        surv_id, surv_fl = _run_device_engine(device, cfg, group, interleaved)
    elif engine == "channel":
        surv_id, surv_fl = _run_channel_engine(
            cfg, group, inject or InjectedError(), interleaved
        )
    else:
        raise ValueError(f"unknown engine {engine!r}")
    avg = avg_pulse_count(group)
    if interleaved is not None:
        avg += 1.0
    return RbData(
        config=cfg,
        surv_identity=surv_id,
        surv_flip=surv_fl,
        avg_pulses=avg,
    )


# ---------------------------------------------------------------------------
# Decay fitting


def _decay_residuals(depths, y, with_offset: bool, x) -> np.ndarray:
    """Residuals of ``c0 + c1 * r^N`` (``with_offset``), or of ``c1 * r^N``,
    for a ``(k, 3)`` or ``(k, 2)`` stack of parameter sets, shape ``(k,
    depths)``.  With the offset, r may reach 1.05 so the optimizer can
    cross the boundary freely; the caller discards non-decaying results."""
    # r^N of a trial r > 1 overflows from depths of ~15,000; MINPACK rejects
    # the infinite residuals, whatever the warning filters
    with np.errstate(over="ignore", invalid="ignore"):
        if with_offset:
            c0, c1, r = x.T[..., None]
            return c0 + c1 * np.clip(r, 0.0, 1.05) ** depths - y
        c1, r = x.T[..., None]
        return c1 * np.clip(r, 0.0, 1.0) ** depths - y


def _fit_exponential(depths, y, with_offset: bool):
    """Least-squares fit of y = c0 + c1 * r^N (c0 optionally fixed at 0)."""
    depths = np.asarray(depths, dtype=float)
    y = np.asarray(y, dtype=float)
    span = float(y.max() - y.min())
    if span < 1e-12:
        # flat curve: no decay resolvable
        if with_offset:
            return float(np.mean(y)), 0.0, 1.0
        return 0.0, float(np.mean(y)), 1.0

    stacked = functools.partial(_decay_residuals, depths, y, with_offset)
    if with_offset:
        guesses = [
            np.array([y[-1], y[0] - y[-1], 0.99]),
            np.array([0.0, y[0], 0.95]),
            np.array([np.mean(y), span, 0.9]),
        ]
    else:
        slope = None
        pos = y > 1e-12
        if pos.sum() >= 2:
            coef = np.polyfit(depths[pos], np.log(y[pos]), 1)
            slope = (math.exp(coef[1]), math.exp(coef[0]))
        guesses = [np.array([1.0, 0.98]), np.array([y[0], 0.9])]
        if slope is not None:
            guesses.insert(0, np.array([slope[0], min(1.0, slope[1])]))

    best, _ = best_of_starts(stacked, guesses)
    if with_offset:
        c0, c1, r = best.x
        r = min(max(r, 0.0), 1.05)
    else:
        (c1, r), c0 = best.x, 0.0
        r = min(max(r, 0.0), 1.0)
    return float(c0), float(c1), float(r)


def fit_rb(data: RbData) -> dict:
    """Fit the paired survival curves and convert to error rates: the rb
    artifact's ``fit`` object.

    The difference curve ``amplitude * p^N`` fixes the depolarizing
    parameter ``p``, the sum curve ``c0 + c1 * lambda^N`` the leakage
    parameter ``lambda``; ``error_per_clifford`` combines both,
    ``leakage_per_clifford`` is ``1 - lambda``, and ``error_per_pulse``
    divides by ``avg_pulses_per_clifford`` of the canonical group.

    Raises:
        FitError: if the data has fewer than 3 distinct depths, the number
            of parameters of the sum-curve model c0 + c1 * lambda^N, or
            no start of the difference-curve fit converges.
    """
    depths = data.config.depths
    distinct = sorted(set(depths))
    if len(distinct) < 3:
        raise FitError(
            f"RB fit needs at least 3 distinct depths for the three sum-curve "
            f"parameters (c0, c1, lambda), got {distinct}"
        )
    diff = np.mean(data.surv_identity - data.surv_flip, axis=1)
    total = np.mean(data.surv_identity + data.surv_flip, axis=1)
    _, amp, p = _fit_exponential(depths, diff, with_offset=False)
    try:
        c0, c1, lam = _fit_exponential(depths, total, with_offset=True)
    except FitError:
        c0, c1, lam = 0.0, 0.0, 1.0
    # the sum curve carries scatter from the two recovery words differing
    # in length; keep the decay model only when it converged to an actual
    # decay (lam < 1, positive excess over the asymptote) and beats a flat
    # line decisively, otherwise report no resolvable leakage
    with np.errstate(over="ignore"):  # lam up to 1.05: an infinite rss_decay
        model = c0 + c1 * lam ** np.asarray(depths, dtype=float)
    rss_decay = float(np.sum((model - total) ** 2))
    rss_flat = float(np.sum((total - total.mean()) ** 2))
    if lam >= 1.0 or c1 <= 0.0 or rss_flat <= 3.0 * rss_decay:
        c0, c1, lam = float(total.mean()), 0.0, 1.0
    epc = 0.5 * (1.0 - p) + 0.5 * (1.0 - lam)
    return {
        "p": p,
        "amplitude": amp,
        "lambda": lam,
        "c0": c0,
        "c1": c1,
        "error_per_clifford": epc,
        "leakage_per_clifford": 1.0 - lam,
        "error_per_pulse": epc / data.avg_pulses,
        "avg_pulses_per_clifford": data.avg_pulses,
    }


def interleaved_rb(
    device: DeviceModel | None,
    cfg: RbConfig,
    gate: AxisAngle,
    engine: str = "device",
    inject: InjectedError | None = None,
) -> dict:
    """Reference-plus-interleaved benchmarking of one Clifford gate: the
    irb artifact's document, with ``p``, ``error_per_clifford`` and
    ``leakage_per_clifford`` of each run's :func:`fit_rb`.

    The gate error is the difference of the two per-Clifford error rates;
    a negative difference is reported unchanged.
    """
    ref = fit_rb(run_rb(device, cfg, engine=engine, inject=inject))
    inter = fit_rb(run_rb(device, cfg, engine=engine, inject=inject, interleaved=gate))
    keys = ("p", "error_per_clifford", "leakage_per_clifford")
    return {
        "gate": [gate.phi, gate.theta],
        "gate_error": inter["error_per_clifford"] - ref["error_per_clifford"],
        "gate_leakage": inter["leakage_per_clifford"] - ref["leakage_per_clifford"],
        "reference": {k: ref[k] for k in keys},
        "interleaved": {k: inter[k] for k in keys},
    }


# ---------------------------------------------------------------------------
# Free-evolution decay


def _oscillation_doc(b, a, w, ph, t_decay, n_osc) -> dict:
    """The rabi artifact's ``fit`` object of fitted values; an infinite
    decay time or oscillation count is None."""
    return {
        "baseline": float(b),
        "amplitude": float(a),
        "frequency_hz": float(w) / TWO_PI,
        "phase_rad": float(ph),
        "t_decay_s": float(t_decay) if math.isfinite(t_decay) else None,
        "n_oscillations": float(n_osc) if math.isfinite(n_osc) else None,
    }


def _oscillation_residuals(t, y, x) -> np.ndarray:
    """Residuals of ``B + A cos(omega t + phase) exp(-(t/T)^2)`` for a ``(k,
    5)`` stack of parameter sets ``(B, A, omega, phase, log(1/T^2))``,
    shape ``(k, samples)``."""
    b, a, w, ph, log_g = x.T[..., None]
    rate = [math.exp(min(v, 700.0)) for v in log_g[:, 0].tolist()]
    damp = np.exp(-np.minimum(t**2 * np.array(rate)[:, None], 700.0))
    return b + a * np.cos(w * t + ph) * damp - y


def fit_oscillation_decay(t_s, y) -> dict:
    """Fit y(t) = B + A cos(omega t + phase) exp(-(t/T)^2): the rabi
    artifact's ``fit`` object, with keys ``baseline`` (B), ``amplitude``
    (A), ``frequency_hz`` (omega / 2 pi), ``phase_rad``, ``t_decay_s`` (T)
    and ``n_oscillations`` (frequency times T).

    A fit whose envelope does not decay over the sampled span reports
    ``t_decay_s`` and ``n_oscillations`` as None.  A flat curve, whose span
    is below 1e-12 as in :func:`_fit_exponential`, reports its mean as the
    baseline, amplitude, frequency and phase 0, and ``t_decay_s`` and
    ``n_oscillations`` as None.

    Raises:
        FitError: if no start converges, or the fit's amplitude exceeds 1,
            its oscillations in the sampled span are fewer than 0.5, or its
            RMS residual exceeds 0.2 times its amplitude.
    """
    t = np.asarray(t_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 8:
        raise FitError("need at least 8 samples to fit an oscillating decay")
    if float(y.max() - y.min()) < 1e-12:
        # flat curve: no oscillation resolvable
        return _oscillation_doc(np.mean(y), 0.0, 0.0, 0.0, math.inf, math.inf)
    span = float(t.max() - t.min())
    b0 = float(np.mean(y))
    a0 = 0.5 * float(y.max() - y.min())
    # frequency seed from the discrete spectrum on a uniform resample
    tu = np.linspace(t.min(), t.max(), 4 * t.size)
    yu = np.interp(tu, t, y)
    spec = np.abs(np.fft.rfft(yu - yu.mean()))
    freqs = np.fft.rfftfreq(tu.size, tu[1] - tu[0])
    w0 = TWO_PI * freqs[int(np.argmax(spec))] if spec.size > 1 else 0.0

    starts = [
        np.array([b0, a0, w0, ph0, -2.0 * math.log(tdec)])
        for ph0 in (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
        for tdec in (span, 0.3 * span, 3.0 * span)
    ]
    best, _ = best_of_starts(functools.partial(_oscillation_residuals, t, y), starts)
    b, a, w, ph, log_g = best.x
    t_decay = math.inf if log_g < -1400.0 else math.exp(-0.5 * log_g)
    if t_decay > 50.0 * span:
        # envelope not resolved within the window: report no decay
        t_decay = math.inf
    if a < 0:
        a, ph = -a, ph + math.pi
    w = abs(w)
    ph = (ph + math.pi) % TWO_PI - math.pi
    n_osc = (w * t_decay / TWO_PI) if math.isfinite(t_decay) else math.inf
    # the residual bound below grows with the amplitude, so a fit that
    # trades a huge amplitude for a sliver of one cycle would pass it
    if a > 1.0:
        raise FitError(f"oscillating decay fit amplitude {a:.3g} exceeds 1, "
                       "which no probability can have")
    cycles = w / TWO_PI * span
    if cycles < 0.5:
        raise FitError(f"oscillating decay fit puts {cycles:.3g} oscillations in the sampled "
                       "span, fewer than 0.5")
    if best.rms > 0.2 * max(abs(a), 1e-12):
        raise FitError(f"oscillating decay fit residual {best.rms:.3g} too large")
    return _oscillation_doc(b, a, w, ph, t_decay, n_osc)


# ---------------------------------------------------------------------------
# Reports


def rb_report(data: RbData, fit: dict) -> dict:
    """The rb artifact's document: config hash, per-depth statistics and
    ``fit``, the object :func:`fit_rb` returns."""
    cfg = data.config
    cfg_doc = {**asdict(cfg), "interleaved": None}
    blob = json.dumps(cfg_doc, sort_keys=True).encode()
    return {
        "config": cfg_doc,
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
        "per_depth": [
            {
                "N": int(n),
                "diff_mean": float(np.mean(data.surv_identity[i] - data.surv_flip[i])),
                "sum_mean": float(np.mean(data.surv_identity[i] + data.surv_flip[i])),
                "identity_mean": float(np.mean(data.surv_identity[i])),
                "flip_mean": float(np.mean(data.surv_flip[i])),
            }
            for i, n in enumerate(cfg.depths)
        ],
        "fit": fit,
    }
