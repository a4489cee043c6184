"""The one Levenberg-Marquardt driver: same iterates as scipy's
least_squares with the 2-point rule, the edges least_squares has, and no
repeated work at the start point."""

import ast
import functools
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.optimize import least_squares, leastsq
from scipy.optimize._numdiff import approx_derivative  # least_squares' own rule

from aeonsim import benchmarking as bench
from aeonsim import calibration as cal
from aeonsim import device as dev
from aeonsim import fitting
from aeonsim.errors import FitError

PI = math.pi
SRC = Path(fitting.__file__).parent
# from 1.16 on, least_squares(method="lm") without a jac takes the 2-point
# rule through lmder too; before, it ran MINPACK's lmdif
PLAIN_IS_TWO_POINT = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 16)


def _per_point(fun):
    """A per-point residual function as a stacked model: one call per row."""
    return lambda points: np.array([fun(x) for x in points], dtype=float)


def _lm(fun, x0, **kw):
    """One fit of a plain residual function through its two_point pair."""
    residuals, jac = fitting.two_point(_per_point(fun))
    return fitting.levenberg_marquardt(residuals, x0, jac, **kw)


def _record_fits(monkeypatch):
    """Spy on the binding of ``levenberg_marquardt`` that the multi-start
    driver calls: each call's residual function, start, keywords and result
    (or the exception it raised)."""
    calls = []
    levenberg_marquardt = fitting.levenberg_marquardt

    def spy(fun, x0, **kw):
        start = np.array(x0, dtype=float)
        try:
            res = levenberg_marquardt(fun, x0, **kw)
        except (ValueError, FitError) as exc:
            calls.append((fun, start, kw, exc))
            raise
        calls.append((fun, start, kw, res))
        return res

    monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
    return calls


def _assert_scipy_iterates(calls, check_plain):
    """Each recorded fit against least_squares with the 2-point rule (x and
    cost) and against the public leastsq wrapper of the same lmder call
    (x, final residuals and evaluation count), bit for bit; a start the
    driver refused at maxfev (FitError) stopped there in both."""
    for fun, start, kw, res in calls:
        kw = {k: v for k, v in kw.items() if k != "jac"}

        def two_point(x):
            return approx_derivative(fun, x, method="2-point")

        refs = [lambda: least_squares(fun, start, jac=two_point, method="lm", x_scale="jac", **kw)]
        if check_plain and PLAIN_IS_TWO_POINT:
            refs.append(lambda: least_squares(fun, start, method="lm", x_scale="jac", **kw))
        if isinstance(res, ValueError):
            for ref in refs:
                with pytest.raises(ValueError):
                    ref()
            continue
        tols = {"ftol": 1e-8, "xtol": 1e-8, **kw}  # the driver's defaults
        x, _, info, _, status = leastsq(
            fun, start, Dfun=two_point, full_output=True, gtol=1e-8,
            maxfev=100 * start.size, factor=100, **tols,
        )
        if isinstance(res, FitError):
            assert status == 5  # maxfev reached
            assert all(ref().status == 0 for ref in refs)  # least_squares' code for it
            continue
        assert np.array_equal(res.x, x)
        assert res.cost == 0.5 * np.dot(info["fvec"], info["fvec"])
        assert res.nfev == info["nfev"]
        for ref in refs:
            want = ref()
            assert np.array_equal(res.x, want.x)
            assert res.cost == want.cost


def _rabi_data():
    """Binomial shots of a slow Gaussian-damped oscillation; one of the
    fit's twelve starts runs out of evaluations on it."""
    rng = np.random.default_rng(1)
    t = np.linspace(0, 200e-9, 100)
    f, t_dec = rng.uniform(20e6, 80e6), rng.uniform(50e-9, 2e-6)
    p = 0.5 + 0.45 * np.cos(2 * PI * f * t) * np.exp(-((t / t_dec) ** 2))
    return t, rng.binomial(50, np.clip(p, 0, 1)) / 50


def test_oscillation_fit_takes_scipy_two_point_iterates(monkeypatch):
    calls = _record_fits(monkeypatch)
    bench.fit_oscillation_decay(*_rabi_data())
    assert len(calls) == 12
    assert any(isinstance(res, FitError) for *_, res in calls)  # maxfev exhausted
    _assert_scipy_iterates(calls, check_plain=True)


def test_a_start_stopped_at_maxfev_is_a_fit_error():
    # MINPACK status 5: 100 evaluations for one parameter, with the residual
    # still falling; it used to come back as a fit
    with pytest.raises(FitError, match="100 residual evaluations"):
        _lm(lambda x: np.array([np.exp(x[0]) - 1e-300, 0.0 * x[0]]), [10.0])


def test_rb_fits_take_scipy_two_point_iterates(monkeypatch):
    calls = _record_fits(monkeypatch)
    cfg = bench.RbConfig(depths=(1, 4, 16, 64, 256), n_sequences=10, shots=100, seed=3)
    inject = bench.InjectedError(depol_per_pulse=1e-3, leak_per_pulse=1e-3)
    bench.fit_rb(bench.run_rb(None, cfg, engine="channel", inject=inject))
    # three guesses for the difference curve (log-linear seed first), three
    # for the sum curve
    assert [len(start) for _, start, _, _ in calls] == [2, 2, 2, 3, 3, 3]
    _assert_scipy_iterates(calls, check_plain=True)


def _surface_problem():
    d, cfg = dev.default_device(), cal.GermConfig.for_target(-PI / 2, PI)
    fmap = cal.sweep_fidelity(
        d, cfg, ("12", "23"), np.linspace(0.0725, 0.0745, 9), np.linspace(0.0726, 0.0746, 7), 4,
        shots=200, seed=5,
    )
    return fmap, d.laws


def test_surface_fit_restarts_take_scipy_two_point_iterates(monkeypatch):
    calls = _record_fits(monkeypatch)
    fmap, laws = _surface_problem()
    peak = cal.find_peak(fmap, previous=(0.0735, 0.0736))
    omega = dev.default_device().rotation_rate(fmap.cfg.theta_star)
    j_tgt = cal.solve_exchange_for_rotation(fmap.cfg.phi_star, omega, fmap.pairs)
    cal.fit_final(fmap, laws, (peak.v1, peak.v2), j_tgt)
    assert len(calls) == cal.FIT_STARTS and all(kw["jac"] is not None for _, _, kw, _ in calls)
    _assert_scipy_iterates(calls, check_plain=False)


def test_best_of_starts_runs_starts_in_order_and_keeps_the_earliest_best(monkeypatch):
    # x^2 = 1 from mirrored starts: the iterates mirror each other bit for
    # bit and end at -1 and +1 at one cost
    def stacked(points):
        return points**2 - 1.0

    nan, plus, minus, inf = (np.array([v]) for v in (math.nan, 2.0, -2.0, math.inf))
    calls = _record_fits(monkeypatch)
    fit, used = fitting.best_of_starts(stacked, [nan, plus, minus, inf], xtol=1e-12)
    assert [start.tobytes() for _, start, _, _ in calls] == [
        x.tobytes() for x in (nan, plus, minus, inf)]
    assert all(kw["xtol"] == 1e-12 for _, _, kw, _ in calls)
    (*_, skipped), (*_, first), (*_, second), _ = calls
    assert isinstance(skipped, ValueError)
    assert first.cost == second.cost and first.x[0] == -second.x[0] > 0
    # the tie goes to the earlier start; the raising starts are skipped, and
    # the count ends at the last start that converged
    assert fit is first and used == 3
    fit, used = fitting.best_of_starts(stacked, [minus, plus])
    assert fit.x[0] == second.x[0] and used == 2
    # the starts stop once the best RMS falls below stop_rms
    fit, used = fitting.best_of_starts(stacked, [nan, plus, minus], stop_rms=1e-6)
    assert fit.rms < 1e-6 and fit.x[0] == first.x[0] and used == 2
    with pytest.raises(FitError, match="none of the 2 starts of the fit converged"):
        fitting.best_of_starts(stacked, [nan, inf])


def test_non_finite_start_and_too_few_residuals_raise():
    def fun(x):
        return np.array([1.0, x[0] - 2.0, math.inf if x[1] == 0.0 else x[1] - 1.5])

    with pytest.raises(ValueError, match="not finite"):
        _lm(fun, [1.0, 0.0])
    with pytest.raises(ValueError, match="not finite"):
        _lm(lambda x: x * np.nan, [1.0, 2.0])
    with pytest.raises(ValueError, match="2 residuals"):
        _lm(lambda x: x[:2] - 1.0, [1.0, 2.0, 3.0])
    assert _lm(fun, [1.0, 1.5]).cost == pytest.approx(0.5)


def test_start_point_is_evaluated_once():
    depths = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = 0.9 * 0.95**depths + 0.05
    x0 = np.array([0.0, 1.0, 0.9])
    seen = []

    def fun(x):
        seen.append(x.tobytes())
        return x[0] + x[1] * x[2] ** depths - y

    res = _lm(fun, x0)
    assert res.cost < 1e-20
    assert seen.count(x0.tobytes()) == 1


def test_surface_start_point_is_one_model_map(monkeypatch):
    fmap, laws = _surface_problem()
    a_scales = (laws["12"].a_hz, laws["23"].a_hz)
    x0 = np.array([laws["12"].b_per_v, laws["12"].c, laws["23"].b_per_v, laws["23"].c, PI])
    rows = []
    model = cal._map_model

    def counted(params, *args):
        rows.extend(p.tobytes() for p in np.asarray(params))
        return model(params, *args)

    monkeypatch.setattr(cal, "_map_model", counted)
    stacked = functools.partial(cal._surface_residuals, fmap, a_scales)
    fitting.best_of_starts(stacked, [x0], xtol=1e-14, ftol=1e-14)
    assert rows.count(x0.tobytes()) == 1


def test_two_point_jacobian_is_scipys_rule():
    t = np.linspace(0.0, 3.0, 40)

    def fun(x):
        return x[0] * np.exp(-x[1] * t) + math.sin(x[2]) - np.cos(t)

    for x in ([0.5, 1.2, 0.0], [-3.0, 1e-3, -0.0], [2e5, -7.0, 1e-300]):
        x = np.array(x)
        want = approx_derivative(fun, x, method="2-point")
        residuals, jac = fitting.two_point(_per_point(fun))
        got = jac(x)
        assert got.shape == (t.size, 3) and np.array_equal(got, want)
        got[:] = np.nan  # each call returns a fresh Jacobian
        assert np.array_equal(jac(x), want)
        f = residuals(x)
        f[:] = np.nan
        assert np.array_equal(residuals(x), fun(x))


_FORBIDDEN = {"least_squares", "leastsq"}


def _in_scipy_optimize(module: str) -> bool:
    return module.split(".")[:2] == ["scipy", "optimize"]


def _uses_scipy_optimize(tree) -> bool:
    """Whether a module imports scipy.optimize (in any spelling), or names
    least_squares or leastsq."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(_in_scipy_optimize(a.name) for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module is not None and (
            _in_scipy_optimize(node.module)
            or node.module == "scipy" and any(a.name == "optimize" for a in node.names)
        ):
            return True
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in _FORBIDDEN:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN | {"optimize"}:
            return True
        if isinstance(node, ast.Name) and node.id in _FORBIDDEN:
            return True
    return False


def test_no_source_module_uses_least_squares():
    modules = sorted(SRC.glob("*.py"))
    assert {m.name for m in modules} >= {"benchmarking.py", "calibration.py", "fitting.py"}
    for path in modules:
        assert not _uses_scipy_optimize(ast.parse(path.read_text())), path.name
    for code in (
        "from scipy.optimize import least_squares",
        "scipy.optimize.least_squares(f, x)",
        "from scipy.optimize import leastsq",
        "leastsq(f, x)",
        "import scipy.optimize",
        "import scipy.optimize._minpack as m",
        "from scipy.optimize._minpack import _lmder",
        "from scipy import optimize",
        "import scipy; scipy.optimize",
    ):
        assert _uses_scipy_optimize(ast.parse(code)), code
    assert not _uses_scipy_optimize(ast.parse("import scipy.special"))


_DRIVER_PARTS = {"levenberg_marquardt", "two_point"}


def _callers_of_driver_parts(tree) -> set:
    """The names of ``levenberg_marquardt`` or ``two_point`` a module
    imports, calls or reads as an attribute, each with the function it
    sits in (None at module level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = (node.name.split(".")[-1] if isinstance(node, ast.alias)
                else node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in _DRIVER_PARTS:
            found.add((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_multi_start_driver_runs_levenberg_marquardt():
    # every fit hands its stacked model and starts to fitting.best_of_starts,
    # whose start loop is _fit_starts; a hand-written start loop elsewhere
    # names one of these two
    for path in sorted(SRC.glob("*.py")):
        if path.name != "fitting.py":
            assert not _callers_of_driver_parts(ast.parse(path.read_text())), path.name
    found = _callers_of_driver_parts(ast.parse((SRC / "fitting.py").read_text()))
    assert found == {("levenberg_marquardt", "_fit_starts"), ("two_point", "_fit_starts")}
    for code in (
        "from .fitting import levenberg_marquardt",
        "from .fitting import two_point as pair",
        "from . import fitting\ndef f(): fitting.levenberg_marquardt(r, x, j)",
        "import aeonsim.fitting\naeonsim.fitting.two_point(f)",
        "def fit(): return two_point(f)",
    ):
        assert _callers_of_driver_parts(ast.parse(code)), code
    assert not _callers_of_driver_parts(ast.parse("from .fitting import best_of_starts"))


# ---------------------------------------------------------------------------
# The split of a large fit's starts with the helper process


def _mirrored(points):
    """x^2 = 1, repeated over SPLIT_RESIDUALS residuals: mirrored starts
    end at -1 and +1 at one cost.  A module-level model, as the helper
    process receives the model by pickle."""
    return np.repeat(points**2 - 1.0, fitting.SPLIT_RESIDUALS, axis=1)


def _serial_replay(stacked, starts, **tolerances):
    """Each start through levenberg_marquardt in one process, in order,
    and the multi-start rule: lowest cost, the earliest on a tie, count up
    to the last start that converged."""
    residuals, jac = fitting.two_point(stacked)
    best, used = None, 0
    for k, start in enumerate(starts, 1):
        try:
            res = fitting.levenberg_marquardt(residuals, start, jac=jac, **tolerances)
        except (ValueError, FitError):
            continue
        used = k
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitError(f"none of the {len(starts)} starts of the fit converged")
    return best, used


def test_split_starts_equal_the_serial_replay(monkeypatch):
    nan, plus, minus, inf = (np.array([v]) for v in (math.nan, 2.0, -2.0, math.inf))
    cases = [
        [plus, nan, minus, inf],  # a tie across the halves: the earlier start wins
        [minus, plus, plus, minus, nan],  # odd: two starts here, three in the helper
        [nan, inf, minus, plus],  # no start of the first half converges
        [plus, nan, nan, minus, inf, inf],  # the last to converge is the helper's first
    ]
    split = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else False
    for starts in cases:
        want, want_used = _serial_replay(_mirrored, starts, xtol=1e-12)
        calls = _record_fits(monkeypatch)
        fit, used = fitting.best_of_starts(_mirrored, starts, xtol=1e-12)
        assert fit.x.tobytes() == want.x.tobytes() and fit.cost == want.cost
        assert (fit.rms, fit.nfev, used) == (want.rms, want.nfev, want_used)
        # with two CPUs this process fits only the first half of the starts
        mine = starts[: len(starts) // 2] if split else starts
        assert [start.tobytes() for _, start, _, _ in calls] == [s.tobytes() for s in mine]
    with pytest.raises(FitError, match="none of the 4 starts of the fit converged"):
        fitting.best_of_starts(_mirrored, [nan, inf, inf, nan])
    # below SPLIT_RESIDUALS residuals, with one start, or with stop_rms (a
    # fit that may stop early), all starts run here, in order
    for stacked, starts, stop_rms in ((_mirrored, [plus], None),
                                      (lambda p: p**2 - 1.0, [plus, minus, plus], None),
                                      (_mirrored, [nan, plus, minus, plus], 0.0)):
        calls = _record_fits(monkeypatch)
        fitting.best_of_starts(stacked, starts, stop_rms=stop_rms)
        assert [start.tobytes() for _, start, _, _ in calls] == [s.tobytes() for s in starts]
