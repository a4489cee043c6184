"""Correctness gate for the benchmark's experiments.

Each artifact is checked for its schema and for the physics the experiment
must reproduce; on the default seed it is also compared with the artifact
recorded from the seed commit under ``reference/``.  A failed check raises
``CheckFailed``.  The gate returns the accuracy figures it measured.
"""

from __future__ import annotations

import csv
import json
import math
import os

from aeonsim import device as dev
from aeonsim import rotations as rot

# Tolerance of each physics check.  The accuracy margins the benchmark
# reports are 1 - error / tolerance.
TOLERANCE = {
    "cal_rot_err_rad": 1e-3,  # acceptance test c06
    "rb_epp_rel_err": 0.10,  # acceptance test c08, depolarizing recovery
    "rabi_freq_rel_err": 2e-2,
}
IRB_GATE_ERR_ABS = 2e-4  # acceptance test c08, interleaved gate error

# Reference comparison: loose enough for last-ulp changes in the kernels
# (amplified by the fits), tight enough for a changed RNG stream or model.
REF_RTOL = 1e-7
REF_ATOL = 1e-10


class CheckFailed(Exception):
    """An artifact failed its schema, physics or reference check."""


NUM = "number"
NUM_OR_NULL = "number|null"

RB_FIT = {k: NUM for k in ("p", "amplitude", "lambda", "c0", "c1", "error_per_clifford",
                           "leakage_per_clifford", "error_per_pulse",
                           "avg_pulses_per_clifford")}
RB_SCHEMA = {
    "config": {"depths": list, "n_sequences": int, "shots": (int, type(None)), "seed": int,
               "idle_s": NUM, "apply_cross": bool, "interleaved": (list, type(None))},
    "config_hash": str,
    "per_depth": list,
    "fit": RB_FIT,
}
IRB_FIT = {"p": NUM, "error_per_clifford": NUM, "leakage_per_clifford": NUM}
IRB_SCHEMA = {"gate": list, "gate_error": NUM, "gate_leakage": NUM,
              "reference": IRB_FIT, "interleaved": IRB_FIT}
RABI_SCHEMA = {
    "pair": str,
    "v_x": NUM,
    "fit": {"baseline": NUM, "amplitude": NUM, "frequency_hz": NUM, "phase_rad": NUM,
            "t_decay_s": NUM_OR_NULL, "n_oscillations": NUM_OR_NULL},
}
CAL_SCHEMA = {
    "target": {"phi": NUM, "theta": NUM, "q": int, "s": int},
    "pairs": list,
    "stages": list,
    "fit": {"chi": NUM, "residual_rms": NUM, "laws": dict},
    "final": dict,
}
PER_DEPTH = {"N": int, "diff_mean": NUM, "sum_mean": NUM, "identity_mean": NUM,
             "flip_mean": NUM}


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_schema(doc, schema, where: str = "") -> None:
    if not isinstance(doc, dict):
        raise CheckFailed(f"{where or 'artifact'}: expected an object")
    if set(doc) != set(schema):
        raise CheckFailed(f"{where or 'artifact'}: keys {sorted(doc)} != {sorted(schema)}")
    for key, want in schema.items():
        val, at = doc[key], f"{where}.{key}" if where else key
        if isinstance(want, dict):
            check_schema(val, want, at)
        elif want == NUM:
            if not _is_num(val):
                raise CheckFailed(f"{at}: {val!r} is not a finite number")
        elif want == NUM_OR_NULL:
            if val is not None and not _is_num(val):
                raise CheckFailed(f"{at}: {val!r} is not a finite number or null")
        elif not isinstance(val, want) or (want is int and isinstance(val, bool)):
            raise CheckFailed(f"{at}: {val!r} has the wrong type")


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def exceeded(figures: dict) -> str | None:
    """The first accuracy figure beyond its tolerance, described, or None."""
    for key, value in figures.items():
        if not value <= TOLERANCE[key]:
            return f"{key} {value:.3g} exceeds {TOLERANCE[key]:.3g}"
    return None


def _injected_per_pulse(exp) -> float:
    return float(exp.option("--inject-depol", 0.0)) + float(exp.option("--inject-leak", 0.0))


def figures_of(exp) -> tuple[str, ...]:
    """The accuracy figures the check of ``exp`` measures."""
    if exp.command == "calibrate":
        return ("cal_rot_err_rad",)
    if exp.command == "rabi":
        return ("rabi_freq_rel_err",)
    if exp.command == "rb" and exp.option("--engine") == "channel" and _injected_per_pulse(exp):
        return ("rb_epp_rel_err",)
    return ()


def _check_rb(exp, doc, device) -> dict:
    check_schema(doc, RB_SCHEMA)
    depths = [int(x) for x in exp.option("--depths", "1,2,4,8,12,16,24").split(",")]
    if doc["config"]["depths"] != depths or len(doc["per_depth"]) != len(depths):
        raise CheckFailed("per-depth table does not match --depths")
    for i, row in enumerate(doc["per_depth"]):
        check_schema(row, PER_DEPTH, f"per_depth[{i}]")
        for key in ("identity_mean", "flip_mean"):
            if not 0.0 <= row[key] <= 1.0:
                raise CheckFailed(f"per_depth[{i}].{key} {row[key]} outside [0, 1]")
    fit = doc["fit"]
    if not (0.0 <= fit["p"] <= 1.0 and 0.0 <= fit["lambda"] <= 1.0):
        raise CheckFailed(f"decay parameters p={fit['p']} lambda={fit['lambda']} outside [0, 1]")
    if fit["error_per_pulse"] < 0.0:
        raise CheckFailed(f"negative error per pulse {fit['error_per_pulse']}")
    if not figures_of(exp):
        return {}
    rel = abs(fit["error_per_pulse"] / _injected_per_pulse(exp) - 1.0)
    return {"rb_epp_rel_err": rel}


def _check_irb(exp, doc, device) -> dict:
    check_schema(doc, IRB_SCHEMA)
    want = float(exp.option("--gate-depol", 0.0))
    if abs(doc["gate_error"] - want) > IRB_GATE_ERR_ABS:
        raise CheckFailed(f"interleaved gate error {doc['gate_error']:.4g} != {want:.4g}")
    return {}


def _check_rabi(exp, doc, device) -> dict:
    check_schema(doc, RABI_SCHEMA)
    pair = exp.option("--pair")
    j_hz = device.laws[pair].j_hz(float(exp.option("--v")))
    rel = abs(doc["fit"]["frequency_hz"] / j_hz - 1.0)
    return {"rabi_freq_rel_err": rel}


def _check_calibrate(exp, doc, device) -> dict:
    check_schema(doc, CAL_SCHEMA)
    phi_star = float(exp.option("--phi-star"))
    theta_star = float(exp.option("--theta-star"))
    pairs = doc["pairs"]
    v_x = [-math.inf] * 3
    for p in pairs:
        v_x[dev.PAIR_ORDER.index(p)] = doc["final"][f"v_x{p}"]
    # what the ground-truth device plays at the calibrated voltages, not
    # the model-side final phi/theta (those equal the target by construction)
    aa = rot.exchange_to_rotation(device.exchange_from_voltages(v_x), device.pulse_s)
    err = max(abs(_wrap(aa.phi - phi_star)), abs(aa.theta - theta_star))
    return {"cal_rot_err_rad": err}


def _check_fingerpinch(exp, path, device) -> dict:
    n1 = int(exp.option("--v1").split(":")[2])
    n2 = int(exp.option("--v2").split(":")[2])
    rows = _read_csv(path)
    pairs = exp.option("--pairs").split(",")
    header = [f"v_x{pairs[0]} (V)", f"v_x{pairs[1]} (V)", "p0 (1)"]
    if rows[0] != header:
        raise CheckFailed(f"header {rows[0]} != {header}")
    if len(rows) - 1 != n1 * n2:
        raise CheckFailed(f"{len(rows) - 1} map cells, expected {n1 * n2}")
    for row in rows[1:]:
        p0 = float(row[2])
        if not 0.0 <= p0 <= 1.0:
            raise CheckFailed(f"p0 {p0} outside [0, 1]")
    return {}


JSON_CHECKS = {
    "rb": _check_rb,
    "irb": _check_irb,
    "rabi": _check_rabi,
    "calibrate": _check_calibrate,
}


def check_artifact(exp, path: str, device) -> dict:
    """Schema and physics checks of one artifact.  Returns its accuracy
    figures, which the caller holds to ``TOLERANCE`` with ``exceeded``."""
    if not os.path.exists(path):
        raise CheckFailed("no artifact written")
    if exp.command == "fingerpinch":
        return _check_fingerpinch(exp, path, device)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise CheckFailed(f"artifact is not JSON: {exc}") from exc
    return JSON_CHECKS[exp.command](exp, doc, device)


# ---------------------------------------------------------------------------
# Reference comparison


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def _compare(got, want, at: str) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailed(f"{at}: keys differ from the reference")
        for k in want:
            _compare(got[k], want[k], f"{at}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{at}: length differs from the reference")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{at}[{i}]")
    elif isinstance(want, float) and _is_num(got):
        if not _close(float(got), want):
            raise CheckFailed(f"{at}: {got!r} != reference {want!r}")
    elif got != want or type(got) is not type(want):
        raise CheckFailed(f"{at}: {got!r} != reference {want!r}")


def compare_to_reference(path: str, ref_path: str) -> None:
    """Raise CheckFailed unless the artifact matches the recorded one up to
    last-ulp differences."""
    if not os.path.exists(ref_path):
        raise CheckFailed(f"no reference artifact {os.path.basename(ref_path)}")
    if path.endswith(".csv"):
        got, want = _read_csv(path), _read_csv(ref_path)
        if len(got) != len(want) or got[:1] != want[:1]:
            raise CheckFailed("CSV shape or header differs from the reference")
        for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            if len(g_row) != len(w_row):
                raise CheckFailed(f"row {r}: width differs from the reference")
            for g, w in zip(g_row, w_row):
                if not _close(float(g), float(w)):
                    raise CheckFailed(f"row {r}: {g} != reference {w}")
        return
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)
    with open(ref_path, encoding="utf-8") as fh:
        want = json.load(fh)
    _compare(got, want, "artifact")
