"""One multi-start Levenberg-Marquardt driver for every fit.

The oscillation-decay fit, both RB decay curves and the calibration surface
each hand :func:`best_of_starts` a stacked residual model and their starts.
From each start, :func:`levenberg_marquardt` minimizes half the sum of
squared residuals with MINPACK's ``lmder``, with the settings that
``least_squares(method="lm", x_scale="jac")`` passes it: ``gtol = 1e-8``,
``maxfev = 100 n``, ``factor = 100`` and MINPACK's own variable scaling
(``diag=None``).  It calls ``_lmder`` in scipy's
private ``scipy/optimize/_minpack`` extension module, with the arguments
:func:`scipy.optimize.leastsq` passes it, and loads that one extension from
scipy's installed ``optimize/`` directory: ``scipy.optimize``'s package
``__init__`` (linalg, sparse, linprog, f2py) never runs.  (On its first
call the extension may import ``scipy._lib._ccallback``, and with it
scipy's light top-level ``__init__``; scipy 1.17's does.)  The Jacobian
follows scipy's default 2-point rule (``approx_derivative``): step
``h = sqrt(eps) * sign(x) * max(1, |x|)`` with sign(0) = +1, realized step
``dx = (x + h) - x``, column ``(F(x + h e_i) - F(x)) / dx_i``.  A fit
therefore takes the iterates of
``least_squares(fun, x0, jac=<that rule>, method="lm", x_scale="jac")`` on
every supported scipy, without its per-evaluation bookkeeping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .device import split_calls
from .errors import FitError

_REL_STEP = math.sqrt(np.finfo(float).eps)

# Fewest residuals at which best_of_starts splits a fit without stop_rms:
# the 441-cell surface fit of a calibration with shots splits, while the
# 100-sample Rabi fit of a default rabi run, and every RB decay curve, stay
# in one process, where the round trip costs more than half the starts.
SPLIT_RESIDUALS = 256


@dataclass(frozen=True)
class LmFit:
    """Final point of a fit, half its sum of squared residuals, their root
    mean square, and the number of residual evaluations MINPACK made."""

    x: np.ndarray
    cost: float
    rms: float
    nfev: int


def two_point(stacked):
    """Residuals of a stacked model and their 2-point Jacobian, sharing one
    memo.

    ``stacked`` maps a ``(k, n)`` stack of points to the ``(k, m)`` stack
    of their residuals in one call, row ``i`` depending on point ``i``
    alone (a model that takes a scalar through ``math`` does so per row).
    The residuals at a point are the one row of a one-point stack, and a
    Jacobian evaluates its ``n`` stepped points in one call.

    The memo is keyed on the exact bytes of the point: residuals at the
    point of the last residual call are a copy of those, and a Jacobian
    there reuses them and evaluates only the ``n`` stepped points.  (MINPACK
    asks for the Jacobian right after the residuals at each accepted
    iterate, the start point included.)
    """
    last_f = (None, None)  # (bytes of x, value)

    def residuals(x):
        nonlocal last_f
        key = x.tobytes()
        if last_f[0] != key:
            last_f = (key, np.asarray(stacked(x[None])[0], dtype=float))
        return last_f[1].copy()

    def jac(x):
        f = residuals(x)
        h = _REL_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        points = np.empty((x.size, x.size))
        points[:] = x
        points.flat[:: x.size + 1] = x + h
        dx = (x + h) - x
        return ((stacked(points) - f) / dx[:, None]).T

    return residuals, jac


@functools.cache
def _lmder():
    """``_lmder`` of scipy's ``optimize/_minpack`` extension, loaded from
    its file so that ``scipy.optimize``'s package ``__init__`` never runs.

    Raises:
        ImportError: if scipy is not installed, or has no such extension
            or function.
    """
    import importlib.machinery
    import importlib.util
    import os

    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None:
        dirs = [os.path.join(root, "optimize") for root in scipy_spec.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_minpack", dirs)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "_lmder"):
                return module._lmder
    from importlib import metadata  # its PackageNotFoundError is an ImportError

    raise ImportError(
        f"scipy {metadata.version('scipy')} has no MINPACK extension "
        "optimize/_minpack with _lmder; the fits need scipy >= 1.10"
    )


def levenberg_marquardt(fun, x0, jac, ftol: float = 1e-8, xtol: float = 1e-8) -> LmFit:
    """Minimize ``0.5 * |fun(x)|^2`` from ``x0`` with MINPACK's ``lmder``.

    ``fun`` and ``jac`` are the memoized pair that :func:`two_point`
    returns, so that the start point is evaluated once.

    Raises:
        ValueError: if the residuals at ``x0`` are not finite, or fewer
            than the parameters.
        FitError: if MINPACK stops at its evaluation limit (status 5).
        ImportError: if scipy's MINPACK extension cannot be loaded.
    """
    # MINPACK iterates in this array's buffer: the caller's x0 stays as it was
    x0 = np.array(x0, dtype=float)
    f0 = fun(x0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("residuals are not finite at the start point")
    if f0.size < x0.size:
        raise ValueError(f"{f0.size} residuals cannot fit {x0.size} parameters")
    # the arguments leastsq(fun, x0, Dfun=jac, full_output=True, ftol=ftol,
    # xtol=xtol, gtol=1e-8, maxfev=100 n, factor=100) passes
    x, info, status = _lmder()(fun, jac, x0, (), 1, 0, ftol, xtol, 1e-8, 100 * x0.size, 100, None)
    if status == 5:
        raise FitError(f"no convergence within {info['nfev']} residual evaluations")
    f = info["fvec"]
    cost = 0.5 * np.dot(f, f)
    return LmFit(x=x, cost=cost, rms=math.sqrt(2.0 * cost / f.size), nfev=int(info["nfev"]))


def best_of_starts(stacked, starts, stop_rms: float | None = None, **tolerances):
    """The best :func:`levenberg_marquardt` fit of a stacked residual model
    over a list of starts.

    ``stacked`` maps a ``(k, n)`` stack of points to the ``(k, m)`` stack
    of their residuals, as for :func:`two_point`.  The starts run in order
    (:func:`_fit_starts`), each with ``tolerances``; a start that raises is
    skipped.  The lowest cost wins, and on a tie the earliest start.  With
    ``stop_rms`` the starts stop once the winner's RMS residual falls below
    it, and they all run in this process.

    A fit without ``stop_rms`` runs every start.  With at least 2 starts and
    :data:`SPLIT_RESIDUALS` residuals at the first, the helper process
    (:func:`device.split_calls`) fits the second half of them while this
    process fits the first half, and the second half's fit wins only at a
    strictly lower cost: the result is the one a single process gives.
    ``stacked`` must then pickle and call no BLAS routine.

    Returns:
        ``(fit, used)``: the winning fit, and the number of starts up to
        and including the last one that converged.

    Raises:
        FitError: if no start converges.
    """
    starts = list(starts)
    half = len(starts) // 2
    if stop_rms is None and half and _residual_count(stacked, starts[0]) >= SPLIT_RESIDUALS:
        (best, used), (other, other_used) = split_calls(
            _fit_starts, (stacked, starts[:half], None, tolerances),
            (stacked, starts[half:], None, tolerances))
        if other_used:
            used = half + other_used
            if best is None or other.cost < best.cost:
                best = other
    else:
        best, used = _fit_starts(stacked, starts, stop_rms, tolerances)
    if best is None:
        raise FitError(f"none of the {len(starts)} starts of the fit converged")
    return best, used


def _fit_starts(stacked, starts, stop_rms, tolerances: dict):
    """``(fit, used)`` of :func:`best_of_starts` over ``starts`` in order,
    with one :func:`two_point` pair shared by every start; ``(None, 0)`` if
    no start converges."""
    residuals, jac = two_point(stacked)
    best, used = None, 0
    for k, start in enumerate(starts, 1):
        try:
            res = levenberg_marquardt(residuals, start, jac=jac, **tolerances)
        except Exception:  # noqa: BLE001 - a start that breaks down is skipped
            continue
        used = k
        if best is None or res.cost < best.cost:
            best = res
        if stop_rms is not None and best.rms < stop_rms:
            break
    return best, used


def _residual_count(stacked, start) -> int:
    """The number of residuals of ``stacked`` at ``start``, or 0 on error."""
    try:
        return np.asarray(stacked(np.array(start, dtype=float)[None])).size
    except Exception:  # noqa: BLE001 - the start itself is skipped
        return 0
