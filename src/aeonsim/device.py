"""Voltage-level model of a triple-dot device.

The model maps virtual barrier voltages to exchange couplings through
per-pair exponential laws (with optional exchange cross-talk), and virtual
plunger offsets to a multiplicative detuning penalty on each coupling.
Every command takes virtual voltages, so the model holds no
physical-to-virtual transform.
Quasi-static Gaussian noise draws perturb the virtual voltages and add a
magnetic gradient; a draw is held fixed for the duration of one shot.

Virtual gate vectors are ordered ``(P1, P2, P3, X12, X13, X23)`` and
exchange pair vectors ``(12, 13, 23)`` throughout.
"""

from __future__ import annotations

import atexit
import functools
import json
import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import hilbert
from .errors import ConfigError, NonFiniteError
from .hilbert import ExchangeVector, FieldConfig

PAIR_ORDER = ("12", "13", "23")

# Relative cross-response of each exchange coupling to the other barrier
# gates (rows/columns in pair order 12, 13, 23).
DEFAULT_CROSS = np.array(
    [
        [1.00, -0.08, -0.08],
        [-0.24, 1.00, -0.18],
        [-0.15, -0.19, 1.00],
    ]
)


# Most stacked pulse propagators (each a pair of 3x3 S_z sector blocks) in
# one sector_propagator call: simulate_pulse cuts its rows into blocks of
# at most this many (a row over the cap is one call of its own), and
# fingerpinch_map its grid cells, so memory does not grow with the number
# of rows, pulses or cells.
BLOCK_MATRICES = 256

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).  The
# array constants are 0-d uint32 arrays, the cheapest operand for the
# small arrays they meet.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_XSHIFT = np.array(16, np.uint32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@functools.lru_cache(maxsize=None)
def _hash_constants(n_seed_words: int, n_path_words: int):
    """SeedSequence's hash constants, which depend only on how many words
    precede: ``(a, b)`` uint32 pairs of shape ``(n_path_words, 4)`` for
    mixing the path words into the 4-word pool, then of shape ``(8,)`` for
    ``generate_state(4, uint64)``; ``a`` is the constant before each
    ``hashmix`` step and ``b`` the one after."""
    n_mix = 16 + 4 * max(0, n_seed_words - 4) + 4 * n_path_words
    mix = [_INIT_A]
    for _ in range(n_mix):
        mix.append((mix[-1] * _MULT_A) & _MASK32)
    gen = [_INIT_B]
    for _ in range(8):
        gen.append((gen[-1] * _MULT_B) & _MASK32)
    mix = np.array(mix[n_mix - 4 * n_path_words :], dtype=np.uint32)
    gen = np.array(gen, dtype=np.uint32)
    mix.flags.writeable = gen.flags.writeable = False  # shared by every caller
    return (mix[:-1].reshape(-1, 4), mix[1:].reshape(-1, 4)), (gen[:-1], gen[1:])


@functools.lru_cache(maxsize=64)
def _seed_sequence(seed: int):
    """``SeedSequence(seed)`` (numpy's own seed validation) and the number
    of 32-bit words its entropy takes."""
    ss = np.random.SeedSequence(seed)
    return ss, max(1, (operator.index(seed).bit_length() + 31) // 32)


def _pcg64_states(seed: int, paths: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed, spawn_key=path)`` for
    each row of ``paths`` (uint32, shape ``(n, words)``).

    A spawn key only appends words past the seed's entropy, so the pool of
    ``SeedSequence(seed)`` is shared by every path; the path words are then
    hashed and mixed into it for all rows at once, as SeedSequence mixes
    entropy words past its 4-word pool.
    """
    ss, n_seed_words = _seed_sequence(seed)
    (mix_a, mix_b), (gen_a, gen_b) = _hash_constants(n_seed_words, paths.shape[1])
    hashed = (paths[:, :, None] ^ mix_a) * mix_b
    hashed ^= hashed >> _XSHIFT
    pool = ss.pool
    for k in range(paths.shape[1]):
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed[:, k]
        pool ^= pool >> _XSHIFT
    pool = np.broadcast_to(pool, (len(paths), 4))
    # generate_state(4, uint64): eight 32-bit words read as little-endian
    # pairs, which PCG64 takes as (initstate, initseq) high and low halves
    words = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ gen_a) * gen_b
    words ^= words >> _XSHIFT
    out = []
    for s_hi, s_lo, q_hi, q_lo in np.ascontiguousarray(words, "<u4").view("<u8").tolist():
        # PCG64 srandom: two LCG steps from state 0, adding initstate between
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        out.append((((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


# Stream states are derived this many paths at a time, so a long loop
# never holds every state at once.
_STREAM_CHUNK = 512


def rng_streams(seed: int, *prefix: int, shape, cells: range | None = None):
    """Deterministic RNG streams ``(seed, *prefix, *index)`` for the indices
    of ``shape`` at the flat (C-order) indices ``cells`` (default: all of
    them), in that order.

    Each yielded Generator is in exactly the state of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=prefix
    + index))``; the states are derived in array passes of at most 512
    paths, and none for the indices outside ``cells``.  The same Generator
    object is re-seeded at each step, so a caller takes its draws from one
    step before advancing and keeps no reference to it.  Streams of
    different paths are independent whatever the order in which they are
    consumed.

    Raises:
        ValueError: for a negative seed, a path entry outside ``[0,
            2**32)``, or ``cells`` not a step-1 range within the shape.
    """
    shape = (operator.index(shape),) if np.ndim(shape) == 0 else tuple(map(operator.index, shape))
    prefix = [operator.index(x) for x in prefix]
    for x in prefix:
        if not 0 <= x <= _MASK32:
            raise ValueError(f"stream path entries must lie in [0, 2**32), got {x}")
    if not all(0 <= s <= _MASK32 + 1 for s in shape):
        raise ValueError(f"stream shape {shape} has indices outside [0, 2**32)")
    n = math.prod(shape)
    cells = range(n) if cells is None else cells
    if not isinstance(cells, range) or cells.step != 1 or not 0 <= cells.start <= cells.stop <= n:
        raise ValueError(f"stream cells must be a step-1 range within range({n}), got {cells!r}")
    # any PCG64 will do, as it is re-seeded before use; one built from the
    # cached SeedSequence is the cheapest to construct (and validates seed)
    bit_gen = np.random.PCG64(_seed_sequence(seed)[0])
    return _reseeded(np.random.Generator(bit_gen), seed, prefix, shape, cells)


def _reseeded(rng: np.random.Generator, seed: int, prefix: list[int], shape: tuple, cells: range):
    """Yield ``rng`` re-seeded to the stream of each path at the flat
    indices ``cells`` in turn."""
    for lo in range(cells.start, cells.stop, _STREAM_CHUNK):
        flat = np.arange(lo, min(cells.stop, lo + _STREAM_CHUNK))
        paths = np.empty((flat.size, len(prefix) + len(shape)), dtype=np.uint32)
        paths[:, : len(prefix)] = prefix
        if shape:
            paths[:, len(prefix) :] = np.array(np.unravel_index(flat, shape)).T
        for state, inc in _pcg64_states(seed, paths):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic RNG stream split by a counter path: a Generator of its
    own in the state of ``SeedSequence(seed, spawn_key=path)``, the
    one-path case of :func:`rng_streams`."""
    return next(rng_streams(seed, *path, shape=()))


@dataclass(frozen=True)
class ExchangeLaw:
    """Exponential barrier-voltage law ``J = A * exp(B*V + C)`` (J in Hz)."""

    a_hz: float
    b_per_v: float
    c: float = 0.0

    def j_hz(self, v) -> np.ndarray | float:
        return self.a_hz * np.exp(self.b_per_v * np.asarray(v, dtype=float) + self.c)

    def v_for(self, j_hz: float, pair: str) -> float:
        """Voltage at which the law gives ``j_hz``: ValueError if ``j_hz``
        is not positive, NonFiniteError naming the law by ``pair`` if
        ``j_hz / a_hz`` underflows to 0."""
        if j_hz <= 0:
            raise ValueError("exchange must be positive to invert the law")
        ratio = j_hz / self.a_hz
        if ratio == 0.0:
            raise NonFiniteError(
                f"exchange_law.{pair}: no voltage gives {j_hz:.3g} Hz (J / A_hz underflows to 0 "
                f"with A_hz = {self.a_hz:.3g}); the exchange a rotation needs scales as "
                "1 / pulse_s, so shorten pulse_s or lower A_hz"
            )
        return (math.log(ratio) - self.c) / self.b_per_v


@dataclass(frozen=True)
class DetuningSensitivity:
    """Quadratic sensitivity of one coupling to tilt and dimple detuning.

    The penalty is ``exp(alpha_tilt * eps_t**2 + alpha_dimple * eps_d**2)``
    with ``eps_t = (eps2 - eps1)/2`` and ``eps_d = eps3 - (eps1 + eps2)/2``;
    a common-mode plunger shift changes nothing.
    """

    alpha_tilt: float = 0.0
    alpha_dimple: float = 0.0


def detuning_penalty(plunger_offsets, sensitivities: dict[str, DetuningSensitivity]) -> dict:
    """Multiplicative exchange penalty per pair for virtual plunger offsets
    (volts, relative to the deep symmetry spot).

    Offsets of shape ``(..., 3)`` give a penalty array of the batch shape
    per pair.
    """
    e = np.asarray(plunger_offsets, dtype=float)
    e1, e2, e3 = e[..., 0], e[..., 1], e[..., 2]
    eps_t = 0.5 * (e2 - e1)
    eps_d = e3 - 0.5 * (e1 + e2)
    out = {}
    for pair in PAIR_ORDER:
        s = sensitivities.get(pair, DetuningSensitivity())
        out[pair] = np.exp(s.alpha_tilt * eps_t**2 + s.alpha_dimple * eps_d**2)
    return out


@dataclass(frozen=True)
class NoiseConfig:
    """Quasi-static Gaussian noise magnitudes.

    ``voltage_sigma_v`` applies per virtual gate (scalar or 6-vector) and
    ``gradient_sigma_hz`` per dot (scalar or 3-vector).  One draw is taken
    per shot and held fixed while the shot's pulses play out.
    """

    voltage_sigma_v: float | tuple = 0.0
    gradient_sigma_hz: float | tuple = 0.0

    @functools.cached_property
    def sigmas(self) -> np.ndarray:
        """The sigmas of a noise draw's nine offsets, in its order: plungers
        P1-P3 and barriers X12, X13, X23 (V), then the per-dot gradients
        (Hz); read-only, computed once per config."""
        out = np.concatenate([np.broadcast_to(self.voltage_sigma_v, (6,)),
                              np.broadcast_to(self.gradient_sigma_hz, (3,))], dtype=float)
        out.flags.writeable = False
        return out


def sample_noise(noise: NoiseConfig, rng: np.random.Generator, out: np.ndarray) -> None:
    """Write one noise draw from ``rng`` into ``out``, a C-contiguous float
    9-vector: nine standard normals, scaled by :attr:`NoiseConfig.sigmas`."""
    rng.standard_normal(out=out)
    np.multiply(out, noise.sigmas, out=out)


def sample_shots(noise: NoiseConfig, seed: int, *prefix: int, shape):
    """Noise draws and readout uniforms of the shots ``(seed, *prefix,
    *index)`` for every index of ``shape``, in C order.

    Each shot takes its noise draw (:func:`sample_noise`), then one readout
    uniform, from its own stream; all streams come from one
    :func:`rng_streams` call.

    Returns:
        ``(z, uniforms)``: the draws, one row per shot, shape ``(n, 9)``,
        and the uniforms, shape ``(n,)``.
    """
    n = math.prod(np.atleast_1d(shape).tolist())
    z, uniforms = np.empty((n, 9)), np.empty(n)
    for k, rng in enumerate(rng_streams(seed, *prefix, shape=shape)):
        sample_noise(noise, rng, z[k])
        uniforms[k] = rng.random()
    return z, uniforms


@dataclass(frozen=True)
class PulseSpec:
    """One square exchange pulse in virtual-voltage space.

    ``v_x`` holds the three virtual barrier voltages (pair order); ``-inf``
    keeps a coupling switched off exactly.  The plungers sit at the deep
    symmetry spot, offset only by a shot's noise draw.
    """

    v_x: tuple[float, float, float]
    duration_s: float


@dataclass(frozen=True)
class DeviceModel:
    """Ground-truth device used by the simulated experiments; the defaults
    are the reference device: printed cross matrix, exchange laws spanning
    1 MHz at 0 V to 200 MHz at 100 mV, moderate detuning curvature, no
    noise.  A ``cross`` of None is the identity: no cross-talk."""

    laws: dict = field(
        default_factory=lambda: {p: ExchangeLaw(1.0e6, 52.983, 0.0) for p in PAIR_ORDER}
    )
    cross: np.ndarray = field(default_factory=lambda: DEFAULT_CROSS.copy())
    sensitivities: dict = field(default_factory=lambda: {
        "12": DetuningSensitivity(alpha_tilt=2.0e3, alpha_dimple=8.0e2),
        "13": DetuningSensitivity(alpha_tilt=5.0e2, alpha_dimple=2.0e3),
        "23": DetuningSensitivity(alpha_tilt=2.0e3, alpha_dimple=8.0e2),
    })
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    fields: FieldConfig = FieldConfig()
    pulse_s: float = 10e-9

    def __post_init__(self):
        m = np.eye(3) if self.cross is None else np.asarray(self.cross, dtype=float)
        if m.shape != (3, 3):
            raise ConfigError(f"cross matrix must be 3x3, got {m.shape}")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ConfigError("cross matrix diagonal must be 1")
        object.__setattr__(self, "cross", m)
        for p in PAIR_ORDER:
            if p not in self.laws:
                raise ConfigError(f"missing exchange law for pair {p}")

    def exchange_from_voltages(
        self,
        v_x,
        plunger_offsets=(0.0, 0.0, 0.0),
        apply_cross: bool = False,
    ) -> ExchangeVector:
        """Exchange couplings (Hz) for virtual barrier voltages (pair order).

        ``v_x`` of shape ``(..., 3)`` and plunger offsets broadcasting to it
        give couplings of the batch shape (0-d for a single voltage
        vector).  Cross-talk between barriers is opt-in; the detuning
        penalty applies whenever plunger offsets are nonzero.  A coupling
        that overflows is left non-finite, without a warning, for the
        caller to check (:func:`hilbert.sector_propagator` refuses it).
        """
        v = np.asarray(v_x, dtype=float)
        if v.shape[-1:] != (3,):
            raise ValueError(f"expected 3 barrier voltages, got {v.shape}")
        plungers = np.asarray(plunger_offsets, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if apply_cross:
                off = np.isinf(v)
                mixed = (self.cross @ np.where(off, 0.0, v)[..., None])[..., 0]
                v = np.where(off, v, mixed)
            j = {p: self.laws[p].j_hz(v[..., i]) for i, p in enumerate(PAIR_ORDER)}
            if np.any(plungers != 0.0):
                pen = detuning_penalty(plungers, self.sensitivities)
                j = {p: j[p] * pen[p] for p in PAIR_ORDER}
        return ExchangeVector(j12=j["12"], j23=j["23"], j13=j["13"])

    def rotation_rate(self, theta: float) -> float:
        """Total exchange (Hz) that rotates by ``theta`` in one pulse,
        ``theta / (2 pi pulse_s)``: NonFiniteError naming ``pulse_s`` if it
        overflows."""
        omega = theta / (2.0 * math.pi * self.pulse_s)
        if not math.isfinite(omega):
            raise NonFiniteError(
                f"pulse_s: a rotation by {theta:.6g} rad in pulse_s = {self.pulse_s:.3g} s needs "
                f"an exchange of {omega} Hz, theta / (2 pi pulse_s); lengthen pulse_s"
            )
        return omega

    def voltages_for_exchange(self, j: ExchangeVector) -> np.ndarray:
        """Barrier voltages (pair order) hitting ``j`` with cross-talk off;
        couplings of exactly zero map to ``-inf``, and NonFiniteError names
        the law of a nonzero one that no finite voltage gives."""
        out = []
        for pair, val in zip(PAIR_ORDER, (j.j12, j.j13, j.j23)):
            law = self.laws[pair]
            v = -np.inf if val == 0.0 else law.v_for(val, pair)
            if val != 0.0 and math.isinf(v):
                raise NonFiniteError(
                    f"exchange_law.{pair}: no finite voltage gives {val:.3g} Hz; the law's "
                    f"inverse (ln(J / A_hz) - C) / B_per_v overflows with A_hz = {law.a_hz:.3g}, "
                    f"B_per_v = {law.b_per_v:.3g}, C = {law.c:.3g}"
                )
            out.append(v)
        return np.array(out)

    def simulate_pulse(self, pulses, trains, draws: np.ndarray | None,
                       apply_cross: bool) -> np.ndarray:
        """Encoded ``|0>`` population after each row's pulse train, played
        from the outer-pair singlet: the one pulse kernel.

        ``pulses`` is the experiment's table of :class:`PulseSpec` (each
        distinct pulse once), and each of ``trains`` an integer array of
        positions in it, in play order.  ``draws`` holds one noise draw per
        row, shape ``(rows, 9)``, in the order of :attr:`NoiseConfig.sigmas`;
        with ``s = rows / len(trains)``, rows ``k*s`` to ``(k+1)*s - 1``
        play train ``k``.  With ``draws`` None each train plays once,
        without noise.  Barrier cross-talk is ``apply_cross``.

        Each row needs one propagator per distinct pulse of its train.  The
        rows are worked through in blocks (:func:`_blocks`) of at most
        :data:`BLOCK_MATRICES` such propagators, each block built by
        :meth:`_propagators`; each row then carries the singlet's sector
        vectors through its train in play order, and p0 is read off them
        (:func:`hilbert.sector_p0`).  A row with an empty train keeps the
        singlet.

        Returns:
            p0 per row, shape ``(rows,)``.

        Raises:
            ValueError: if the draws do not split evenly among the trains,
                or a train holds a position outside the table.
        """
        n_trains, n_table = len(trains), len(pulses)
        draws = np.zeros((n_trains, 9)) if draws is None else np.asarray(draws, dtype=float)
        shots, rest = divmod(len(draws), n_trains) if n_trains else (0, len(draws))
        if rest or draws.shape[1:] != (9,):
            raise ValueError(f"noise draws of shape {draws.shape} are not (rows, 9) with the "
                             f"rows split evenly among {n_trains} trains")
        lengths = np.fromiter(map(len, trains), dtype=np.intp, count=n_trains)
        flat = np.concatenate([np.empty(0, dtype=np.intp), *trains]).astype(np.intp, copy=False)
        if flat.size and not 0 <= flat.min() <= flat.max() < n_table:
            raise ValueError(f"trains index a table of {n_table} pulses")
        # the distinct (train, pulse) pairs, by train then slot, and the
        # pair each train position plays, as an offset into its train's
        # pairs, padded to the longest train
        train_of = np.repeat(np.arange(n_trains), lengths)
        pairs, play = np.unique(train_of * n_table + flat, return_inverse=True)
        pair_train, pair_slot = np.divmod(pairs, max(1, n_table))
        distinct = np.bincount(pair_train, minlength=n_trains)
        first = np.cumsum(distinct) - distinct
        padded = np.zeros((n_trains, lengths.max(initial=0)), dtype=np.intp)
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = play - first[train_of]
        v_x = np.array([p.v_x for p in pulses], dtype=float).reshape(-1, 3)
        durations = np.array([p.duration_s for p in pulses], dtype=float)
        out = np.empty(len(draws))
        for lo, hi in _blocks(np.repeat(np.maximum(1, distinct), shots)):
            trains_of_rows = np.arange(lo, hi) // shots
            count = distinct[trains_of_rows]
            # one item per distinct pulse of each row, by row then slot
            item_row = np.repeat(np.arange(hi - lo), count)
            item_first = np.cumsum(count) - count
            pulse = pair_slot[np.arange(item_row.size) + (first[trains_of_rows] - item_first)[item_row]]
            z = draws[lo:hi][item_row]
            u = self._propagators(v_x[pulse] + z[:, 3:6], durations[pulse], z[:, :3], z[:, 6:],
                                  apply_cross)
            out[lo:hi] = _play(u, padded[trains_of_rows] + item_first[:, None],
                               lengths[trains_of_rows])
        return out

    def _propagators(self, v_x, durations, plungers, gradient_offsets, apply_cross: bool):
        """Sector propagators ``(n, 2, 3, 3)`` of ``n`` square pulses.

        ``v_x`` holds the barrier voltages, shape ``(n, 3)``; ``durations``,
        the plunger offsets and the per-dot gradient offsets (added to the
        device's gradients) broadcast to ``(n,)`` and ``(n, 3)``.  One
        :meth:`exchange_from_voltages` call gives every coupling, and one
        :func:`hilbert.sector_propagator` call the propagators; the caller
        keeps ``n`` within :data:`BLOCK_MATRICES`.
        """
        n = len(v_x)
        j = self.exchange_from_voltages(v_x, plungers, apply_cross=apply_cross)
        gradients = np.asarray(self.fields.gradients_hz, dtype=float) + gradient_offsets
        fields = FieldConfig(self.fields.f_uniform_hz, np.broadcast_to(gradients, (n, 3)))
        return hilbert.sector_propagator(j, fields, np.broadcast_to(durations, (n,)))

    def survival(self, pulses, trains, shape, shots=None, seed: int = 0, prefix=(),
                 apply_cross=False):
        """Encoded ``|0>`` survival after each train, played from the
        outer-pair singlet.

        ``pulses`` and ``trains`` are as for :meth:`simulate_pulse`, one
        train per index of ``shape`` in C order.  Without shots the
        survival is ``p0`` itself.  With ``shots``, each train is played
        once per shot, with the shot's noise draw from stream ``(seed,
        *prefix, *index, shot)``, and its survival is the fraction of shots
        whose readout uniform from the same stream falls below ``p0``; all
        of an experiment's rows go through one :meth:`simulate_pulse` call.

        Returns:
            Array of shape ``shape``.

        Raises:
            NonFiniteError: naming the noise config if a shot's draw alone
                overflows the kernel, else naming the cross-talk and the
                exchange laws if the noise-free run overflows only with
                cross-talk.
        """
        draws = uniforms = None
        if shots is not None:
            draws, uniforms = sample_shots(self.noise, seed, *prefix, shape=tuple(shape) + (shots,))
        try:
            p0 = self.simulate_pulse(pulses, trains, draws, apply_cross)
        except NonFiniteError as exc:
            # rerun without the noise, then also without the cross-talk: the
            # first input whose removal keeps the run finite is named
            for cause, cross in ((_NOISE, apply_cross), (_CROSS, False)):
                try:
                    self.simulate_pulse(pulses, trains, None, cross)
                except NonFiniteError as remaining:
                    exc = remaining
                    continue
                raise NonFiniteError(f"{exc}: {cause} overflows the pulse kernel") from None
            raise exc from None
        if shots is None:
            return p0.reshape(shape)
        hits = np.count_nonzero((uniforms < p0).reshape(-1, shots), axis=1)
        return (hits / shots).reshape(shape)


_NOISE = "a shot's noise draw (config noise.voltage_sigma_v, noise.gradient_sigma_hz)"
_CROSS = "--cross cross-talk (config cross_matrix) on the exchange laws (config exchange_law)"


def _play(u, pos, lengths) -> np.ndarray:
    """p0 after each row's train, played from the singlet: row ``r`` plays
    the propagators ``u[pos[r, s]]`` for ``s < lengths[r]``, in order."""
    vectors = np.repeat(hilbert.SINGLET_SECTORS[None], len(lengths), axis=0)
    width = lengths.max(initial=0)
    if width:
        # rows sorted by train length, so that the rows still playing at a
        # step form a prefix
        order = np.argsort(-lengths, kind="stable")
        playing = np.count_nonzero(lengths[:, None] > np.arange(width), axis=0)
        order = order[: playing[0]]
        pos = pos[order]
        psi = u[pos[:, 0]] @ hilbert.SINGLET_SECTORS
        for step in range(1, width):
            psi[: playing[step]] = u[pos[: playing[step], step]] @ psi[: playing[step]]
        vectors[order] = psi
    return hilbert.sector_p0(vectors)


def _blocks(costs) -> list[tuple[int, int]]:
    """Cut rows that stack ``costs[r]`` matrices each into blocks ``[lo,
    hi)`` of consecutive rows: a block takes rows while their costs sum to
    at most :data:`BLOCK_MATRICES`, and a row over the cap is a block
    alone."""
    ends = np.cumsum(costs)
    blocks, lo = [], 0
    while lo < len(ends):
        used = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, used + BLOCK_MATRICES, side="right")))
        blocks.append((lo, hi))
        lo = hi
    return blocks


def default_device() -> DeviceModel:
    """The reference device, :class:`DeviceModel`'s defaults."""
    return DeviceModel()


def load_device(path) -> DeviceModel:
    """Build a device from a JSON config file; missing keys use defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read device config {path}: {exc}") from exc
    return device_from_dict(raw)


# Largest magnitude of a config number: far inside the float range, so
# that sums of a few of them, or a sigma times a normal draw, stay finite.
MAX_CONFIG_MAGNITUDE = 1e300

# One row per config leaf, by its path: the shapes it may take (``()`` a
# number, ``(n,)`` a list of n numbers, ``(n, m)`` an n x m matrix, None
# JSON null) and the range of its numbers, each of which must also be of
# magnitude <= MAX_CONFIG_MAGNITUDE.  README.md words each row with
# :func:`_want`.
CONFIG_SCHEMA = {
    "cross_matrix": (((3, 3), None), "any"),
    **{f"exchange_law.{p}.{key}": (((),), rng) for p in PAIR_ORDER
       for key, rng in (("A_hz", "> 0"), ("B_per_v", "> 0"), ("C", "any"))},
    **{f"dss.curvature.{p}": (((2,),), "any") for p in PAIR_ORDER},
    "noise.voltage_sigma_v": (((), (6,)), ">= 0"),
    "noise.gradient_sigma_hz": (((), (3,)), ">= 0"),
    "fields.f_uniform_hz": (((),), "any"),
    "fields.gradients_hz": (((3,),), "any"),
    "pulse_s": (((),), "> 0"),
}


def device_from_dict(raw: dict) -> DeviceModel:
    """Device from a parsed config object; an omitted leaf of
    :data:`CONFIG_SCHEMA` keeps the default device's value, but a given
    ``dss.curvature`` replaces every pair's curvature.

    Raises:
        ConfigError: naming the path of the first key outside the schema,
            non-object section or bad leaf, or of a matrix that fails its
            own checks.
    """
    cfg, base = _config(raw, ""), default_device()
    laws, dss = {}, cfg.get("dss", {})
    for p, law in base.laws.items():
        d = cfg.get("exchange_law", {}).get(p, {})
        laws[p] = ExchangeLaw(d.get("A_hz", law.a_hz), d.get("B_per_v", law.b_per_v),
                              d.get("C", law.c))
    curvature = dss.get("curvature")
    return _under(
        "cross_matrix", replace, base, laws=laws,
        cross=cfg.get("cross_matrix", base.cross),
        sensitivities=base.sensitivities if curvature is None else {
            p: DetuningSensitivity(*ab) for p, ab in curvature.items()},
        noise=replace(base.noise, **cfg.get("noise", {})),
        fields=replace(base.fields, **cfg.get("fields", {})),
        pulse_s=cfg.get("pulse_s", base.pulse_s),
    )


def _config(obj, path: str) -> dict:
    """The config object ``obj`` at ``path`` (``""`` for the top level),
    with every key checked against :data:`CONFIG_SCHEMA` and every leaf
    converted by :func:`_leaf`."""
    where, prefix = path or "device config", f"{path}." if path else ""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    known = dict.fromkeys(prefix + k[len(prefix):].split(".")[0] for k in CONFIG_SCHEMA
                          if k.startswith(prefix))
    unknown = [prefix + key for key in obj if prefix + key not in known]
    if unknown:
        raise ConfigError(f"unknown device config key(s) {', '.join(map(repr, unknown))}; "
                          f"known keys: {', '.join(known)}")
    return {key: _leaf(prefix + key, value) if prefix + key in CONFIG_SCHEMA
            else _config(value, prefix + key) for key, value in obj.items()}


def _leaf(path: str, value):
    """Config leaf ``path``: a number as parsed, a list as a tuple, a
    matrix as a float array, or None, if ``value`` is of its row's shapes
    and range."""
    shapes, rng = CONFIG_SCHEMA[path]
    if value is None and None in shapes:
        return None
    fits = any(s is not None and _fits(value, s) for s in shapes)
    a = np.array(value, dtype=float) if fits else None
    if a is None or not (rng == "any" or np.all(a > 0 if rng == "> 0" else a >= 0)):
        raise ConfigError(f"{path} must be {_want(shapes, rng)} (JSON numbers of magnitude "
                          f"<= {MAX_CONFIG_MAGNITUDE:g}), got {value!r:.80}")
    return value if a.ndim == 0 else tuple(value) if a.ndim == 1 else a


def _fits(value, shape) -> bool:
    """Whether ``value`` is a number (never a bool) of magnitude <=
    :data:`MAX_CONFIG_MAGNITUDE`, or nested lists of them, of ``shape``."""
    if not shape:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= MAX_CONFIG_MAGNITUDE)
    return (isinstance(value, (list, tuple)) and len(value) == shape[0]
            and all(_fits(v, shape[1:]) for v in value))


def _want(shapes, rng: str) -> str:
    """A schema row in words, e.g. ``a number > 0``."""
    text = " or ".join("null" if s is None else f"a {s[0]}x{s[1]} matrix" if len(s) == 2
                       else f"a list of {s[0]} numbers" if s else "a number" for s in shapes)
    return text if rng == "any" else f"{text}{', each' if len(shapes) > 1 else ''} {rng}"


def _under(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the ConfigError of a structural
    check reported under the config key ``path``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def fingerpinch_map(
    device: DeviceModel,
    pairs: tuple[str, str],
    v1: np.ndarray,
    v2: np.ndarray,
    *,
    duration_s: float,
    apply_cross: bool,
    hadamard: bool = False,
) -> np.ndarray:
    """P0 landscape of a fixed-duration exchange pulse over a barrier
    voltage grid (the classic fingerpinch pattern of concentric arcs),
    played from the outer-pair singlet.

    Args:
        pairs: the two swept pairs, e.g. ``("12", "23")``; the third
            coupling stays off.
        v1, v2: swept virtual barrier voltages.
        duration_s: the pulse duration, s.
        apply_cross: apply the device's barrier cross-talk.
        hadamard: sandwich the pulse between ideal Hadamard rotations
            (needed to resolve rotations about the x-like axes).

    Returns:
        Array of shape ``(len(v2), len(v1))`` with P0 per cell.
    """
    vectors = hilbert.SINGLET_SECTORS
    if hadamard:
        h2 = (1.0 / math.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex)
        # the embedded Hadamard acts within each S_z sector
        h_sectors = hilbert.sector_blocks(hilbert.embed_qubit_unitary(h2))
        vectors = h_sectors @ vectors
    grid = barrier_grid(pairs, v1, v2)
    v_x = grid.reshape(-1, 3)
    out = np.empty(len(v_x))
    for lo in range(0, len(v_x), BLOCK_MATRICES):
        part = slice(lo, lo + BLOCK_MATRICES)
        psi = device._propagators(v_x[part], duration_s, 0.0, 0.0, apply_cross) @ vectors
        if hadamard:
            psi = h_sectors @ psi
        out[part] = hilbert.sector_p0(psi)
    return out.reshape(grid.shape[:2])


def barrier_grid(pairs: tuple[str, str], v1, v2) -> np.ndarray:
    """Barrier voltages (pair order) of a two-pair sweep, shape ``(len(v2),
    len(v1), 3)``: ``pairs[0]`` at ``v1`` along each row, ``pairs[1]`` at
    ``v2`` down each column, and the third barrier at ``-inf`` (off)."""
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    v_x = np.full((v2.size, v1.size, 3), -np.inf)
    v_x[..., PAIR_ORDER.index(pairs[0])] = v1
    v_x[..., PAIR_ORDER.index(pairs[1])] = v2[:, None]
    return v_x


# ---------------------------------------------------------------------------
# The helper process

# True in the helper itself, and in a process whose helper has died
_serial = False


@functools.cache
def _helper():
    """This process's end of a pipe to its helper process, forked on the
    first call, or None where none may run: without ``os.fork`` or
    ``os.sched_getaffinity``, with fewer than 2 usable CPUs, or when the
    pipe or the fork fails.

    The helper receives ``(fn, args)`` and replies ``(True, fn(*args))``,
    or ``(False, exception)``, until the pipe closes.  It leaves through
    ``os._exit`` then, and on any exception of its own, Ctrl-C included,
    so that it runs no exit handler and flushes no buffer of this
    process.  At exit this process closes the pipe, and then reaps the
    helper.
    """
    global _serial
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing  # here, so that importing the package does not load it

    try:
        conn, child = multiprocessing.Pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        conn.close()
        child.close()
        return None
    if pid == 0:
        _serial = True
        conn.close()
        try:
            while True:
                fn, args = child.recv()
                try:
                    reply = (True, fn(*args))
                except Exception as exc:  # noqa: BLE001 - the caller raises it
                    reply = (False, exc)
                child.send(reply)
        finally:
            os._exit(0)
    child.close()
    # run last-in first-out: the pipe closes, the helper sees EOF and leaves
    atexit.register(os.waitpid, pid, 0)
    atexit.register(conn.close)
    return conn


def split_calls(fn, here, there):
    """``(fn(*here), fn(*there))``, the second computed by the helper
    process, which is forked on the first call, while this process
    computes the first; an exception of either call is raised here.

    This process reads the helper's reply before it returns or raises,
    also when ``fn(*here)`` raises, so that no reply is left on the pipe.
    Both calls run in this process, ``there`` after ``here``, in the helper
    itself, where no helper may run (see :func:`_helper`), and once the
    helper has died; ``there`` runs here again if the helper dies before it
    replies.  The results are the same either way for any ``fn`` whose
    value depends on its arguments alone.

    ``fn`` and ``there`` must pickle.  The helper is forked after OpenBLAS
    has started its threads, so ``fn`` must call no BLAS routine (matmul,
    ``einsum``, ``linalg``).  In the helper it runs under the helper's own
    numpy error state and warning filters, not the caller's.
    """
    global _serial
    conn = None if _serial else _helper()
    if conn is not None:
        try:
            conn.send((fn, there))
        except OSError:  # the helper has died
            _serial, conn = True, None
    if conn is None:
        return fn(*here), fn(*there)
    try:
        first = fn(*here)
    finally:
        try:
            reply = conn.recv()
        except (EOFError, OSError):  # the helper has died
            _serial, reply = True, None
    if reply is None:  # there runs here
        return first, fn(*there)
    if not reply[0]:
        raise reply[1]
    return first, reply[1]
