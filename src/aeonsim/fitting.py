"""One Levenberg-Marquardt driver for every fit.

The oscillation-decay fit, both RB decay curves and the calibration surface
fit all minimize half a sum of squared residuals with MINPACK's ``lmder``,
called through :func:`scipy.optimize.leastsq` with the settings that
``least_squares(method="lm", x_scale="jac")`` passes it: ``gtol = 1e-8``,
``maxfev = 100 n``, ``factor = 100`` and MINPACK's own variable scaling
(``diag=None``).  The Jacobian follows scipy's default 2-point rule
(``approx_derivative``): step ``h = sqrt(eps) * sign(x) * max(1, |x|)``
with sign(0) = +1, realized step ``dx = (x + h) - x``, column
``(F(x + h e_i) - F(x)) / dx_i``.  A fit therefore takes the iterates of
``least_squares(fun, x0, jac=<that rule>, method="lm", x_scale="jac")`` on
every supported scipy, without its per-evaluation bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REL_STEP = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class LmFit:
    """Final point of a fit, half its sum of squared residuals, and the
    number of residual evaluations MINPACK made."""

    x: np.ndarray
    cost: float
    nfev: int


def two_point(fun, stacked=None):
    """Residuals of ``fun`` and their 2-point Jacobian, sharing one memo.

    ``stacked``, when given, maps a ``(k, n)`` stack of points to the
    ``(k, m)`` stack of their residuals in one call, row ``i`` equal bit
    for bit to ``fun`` of point ``i``, and a Jacobian evaluates its ``n``
    stepped points in that one call; every fit of the package passes one
    (a model that takes a scalar through ``math`` does so per row).
    Without it each stepped point is one ``fun`` call.

    The memo is keyed on the exact bytes of the point.  Residuals at the
    point of the last residual call are a copy of those; a Jacobian there
    reuses them and evaluates only the ``n`` stepped points; a Jacobian at
    the point of the last Jacobian call is a copy of it.  (``leastsq``
    checks the residuals and the Jacobian at the start point before MINPACK
    asks for both again, and MINPACK asks for the Jacobian right after the
    residuals at each accepted iterate.)
    """
    last_f = last_jac = (None, None)  # (bytes of x, value)

    def residuals(x):
        nonlocal last_f
        key = x.tobytes()
        if last_f[0] != key:
            last_f = (key, np.asarray(fun(x), dtype=float))
        return last_f[1].copy()

    def jac(x):
        nonlocal last_jac
        key = x.tobytes()
        if last_jac[0] != key:
            residuals(x)
            h = _REL_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
            points = np.empty((x.size, x.size))
            points[:] = x
            points.flat[:: x.size + 1] = x + h
            if stacked is None:
                f_steps = np.array([fun(p) for p in points], dtype=float)
            else:
                f_steps = stacked(points)
            dx = (x + h) - x
            last_jac = (key, (f_steps - last_f[1]) / dx[:, None])
        return last_jac[1].copy().T

    return residuals, jac


def levenberg_marquardt(fun, x0, jac=None, ftol: float = 1e-8, xtol: float = 1e-8) -> LmFit:
    """Minimize ``0.5 * |fun(x)|^2`` from ``x0`` with MINPACK's ``lmder``.

    Without ``jac`` the residuals and Jacobian are :func:`two_point` of
    ``fun``; a caller passing ``jac`` passes the memoized pair that
    :func:`two_point` returns, so that the start point is evaluated once.

    Raises:
        ValueError: if the residuals at ``x0`` are not finite, or fewer
            than the parameters.
    """
    # imported here, so that commands which fit nothing never load scipy
    from scipy.optimize import leastsq

    if jac is None:
        fun, jac = two_point(fun)
    x0 = np.array(x0, dtype=float)
    f0 = fun(x0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("residuals are not finite at the start point")
    if f0.size < x0.size:
        raise ValueError(f"{f0.size} residuals cannot fit {x0.size} parameters")
    x, _, info, _, _ = leastsq(
        fun, x0, Dfun=jac, full_output=True, col_deriv=False, ftol=ftol, xtol=xtol,
        gtol=1e-8, maxfev=100 * x0.size, factor=100, diag=None,
    )
    f = info["fvec"]
    return LmFit(x=x, cost=0.5 * np.dot(f, f), nfev=int(info["nfev"]))
