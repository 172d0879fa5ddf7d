"""Iteration schemes that locate a common fixed point of the family from
its two sampled operators T(alpha) and T(beta).

Every scheme consumes a ``SemigroupSpec`` and an ``IterationConfig`` and
returns a ``ConvergenceReport``.  Convergence is declared when both the
pair residual max(||T(alpha)x - x||, ||T(beta)x - x||) and the step norm
||x_n - x_{n-1}|| drop to the configured tolerance; the pair residual alone
can be tiny far from stationarity early in anchored runs, so both gates are
required.

The schemes:

* ``baillon_double``        x_n = (1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x
* ``baillon_power_average`` x_n = (1/n) sum_{k=1..n} M^k x, M the midpoint map
* ``mann``                  x <- kappa*T(alpha)x + lam*T(beta)x + (1-kappa-lam)*x
* ``suzuki_averaged_mann``  x <- lam*(n-by-n double average at x) + (1-lam)*x
* ``ishikawa_composed``     x <- outer average of (inner average)^n applied to x
* ``browder_implicit``      x_n solves x = ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u
* ``halpern``               x <- ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u

The anchored schemes take their weights lam_n from a ``Schedule``; the two
built-in families (harmonic and power with exponent in (0, 1]) vanish
slowly enough that the anchored iterations can still travel arbitrarily far
from the anchor, and smoothly enough for the step-to-step weight changes to
be summable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from semiflow.characterize import _warn_if_near_rational
from semiflow.semigroups import MEMBERSHIP_SLACK, analytic_fixed_set, fixed_set_distance, operator
# not called here: the benchmark's tracer (bench/spans.py) wraps it under this module's name
from semiflow.semigroups import evaluate  # noqa: F401
from semiflow.stepseq import check_pair
from semiflow.vecspace import _norm, as_point

__all__ = [
    "Schedule",
    "make_schedule",
    "parse_schedule",
    "IterationConfig",
    "IterateRecord",
    "ConvergenceReport",
    "baillon_double",
    "baillon_power_average",
    "mann",
    "suzuki_averaged_mann",
    "ishikawa_composed",
    "browder_implicit",
    "halpern",
    "run_scheme",
    "SCHEME_TAGS",
    "DEFAULT_MAX_ITER",
    "BAILLON_GRID_CAP",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
INNER_SOLVER_FAILURE = "inner_solver_failure"

# fixed-set distance may rise by at most this much per step before it
# counts as a monotonicity violation
FEJER_SLACK = 1e-10

# the double-average grid is O(n^2) stored points; at the dimension cap this
# limit keeps the cache at or below 128 MiB
BAILLON_GRID_CAP = 512

# iteration budgets used when the config leaves max_iter unset
DEFAULT_MAX_ITER = {
    "baillon_double": 200,
    "baillon_power_average": 1000,
    "mann": 10000,
    "suzuki_averaged_mann": 2000,
    "ishikawa_composed": 2000,
    "browder_implicit": 200,
    "halpern": 50000,
}

# inside the inner solver's iteration estimate the anchor weight is held at
# or above this floor, so the estimated budget stays finite as lam_n -> 0
INNER_LAMBDA_FLOOR = 1e-4


# ---- schedules ---------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Anchor weights lam_n = 1/(n + offset)**p, n = 1, 2, ...

    kind "harmonic" pins p = 1; kind "power" allows p in (0, 1].  Both give
    weights in (0, 1) that decrease to zero, diverge in sum, and have
    summable successive differences, which is what the anchored schemes
    need.  Exponents above 1 are rejected: their weight sums converge, and
    the anchored iterations then stall short of the fixed set.
    """

    kind: str
    offset: int
    p: float = 1.0

    def __call__(self, n):
        if self.p == 1.0:
            return 1.0 / (n + self.offset)
        return (n + self.offset) ** (-self.p)

    def descriptor(self):
        if self.kind == "harmonic":
            return f"harmonic:{self.offset}"
        return f"power:{self.p},{self.offset}"


def make_schedule(kind, offset=1, p=1.0):
    """Construct and validate a Schedule (see Schedule for the families)."""
    offset = int(offset)
    if offset < 1:
        raise ValueError(f"schedule offset must be a positive integer, got {offset}")
    p = float(p)
    if kind == "harmonic":
        if p != 1.0:
            raise ValueError("harmonic schedules have a fixed exponent of 1")
    elif kind == "power":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"power schedule exponent must lie in (0, 1], got {p}")
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    sched = Schedule(kind=kind, offset=offset, p=p)
    assert 0.0 < sched(2) < sched(1) < 1.0
    return sched


def parse_schedule(text):
    """Parse "harmonic:<offset>" or "power:<p>,<offset>"."""
    kind, _, body = str(text).partition(":")
    kind = kind.strip()
    if kind == "harmonic":
        return make_schedule("harmonic", offset=int(body or 1))
    if kind == "power":
        parts = [part for part in body.split(",") if part]
        if not 1 <= len(parts) <= 2:
            raise ValueError(f"power schedule expects p[,offset], got {text!r}")
        p = float(parts[0])
        offset = int(parts[1]) if len(parts) == 2 else 1
        return make_schedule("power", offset=offset, p=p)
    raise ValueError(f"unknown schedule kind {kind!r}")


# ---- configuration and reports -----------------------------------------------

@dataclass
class IterationConfig:
    """Knobs shared by all schemes.

    alpha, beta  sample times (positive, distinct)
    kappa, lam   averaging weights; which apply depends on the scheme
    schedule     anchor weights for browder_implicit and halpern
    max_iter     outer iteration budget (scheme default when None)
    tol          convergence tolerance on pair residual and step norm
    inner_tol    Browder inner solver residual target
    inner_cap    Browder inner solver hard iteration cap
    u            anchor point (browder_implicit and halpern)
    start        initial iterate x_1
    record_all   record every iterate instead of thinning past n = 100
    """

    alpha: float
    beta: float
    kappa: float = 0.25
    lam: float = 0.25
    schedule: Schedule | None = None
    max_iter: int | None = None
    tol: float = 1e-8
    inner_tol: float = 1e-10
    inner_cap: int = 100_000
    u: np.ndarray | None = None
    start: np.ndarray | None = None
    record_all: bool = False

    def __post_init__(self):
        self.alpha, self.beta = check_pair(self.alpha, self.beta)
        for name in ("tol", "inner_tol"):
            value = float(getattr(self, name))
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            setattr(self, name, value)
        for name in ("max_iter", "inner_cap"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.u is not None:
            self.u = as_point(self.u)
        if self.start is not None:
            self.start = as_point(self.start)


@dataclass(frozen=True)
class IterateRecord:
    """One recorded iterate: residuals, step, distance to the analytic set."""

    n: int
    pair_residual: float
    step_norm: float
    fixed_set_distance: float
    point: np.ndarray

    def to_dict(self):
        return {
            "n": self.n,
            "pair_residual": self.pair_residual,
            "step_norm": self.step_norm,
            "fixed_set_distance": self.fixed_set_distance,
        }


@dataclass
class ConvergenceReport:
    scheme_tag: str
    iterates_recorded: list
    final_point: np.ndarray
    n_used: int
    termination: str  # converged | max_iter | inner_solver_failure
    fejer_violations: int | None = None   # monotone schemes only
    inner_steps: list | None = None       # browder_implicit only
    inner_residuals: list | None = None   # browder_implicit only

    @property
    def final_record(self):
        return self.iterates_recorded[-1]

    def to_dict(self):
        out = {
            "scheme_tag": self.scheme_tag,
            "termination": self.termination,
            "n_used": self.n_used,
            "final_point": [float(v) for v in self.final_point],
            "final_pair_residual": self.final_record.pair_residual,
            "final_step_norm": self.final_record.step_norm,
            "final_fixed_set_distance": self.final_record.fixed_set_distance,
            "iterates_recorded": [r.to_dict() for r in self.iterates_recorded],
        }
        if self.fejer_violations is not None:
            out["fejer_violations"] = self.fejer_violations
        if self.inner_steps is not None:
            out["inner_steps"] = list(self.inner_steps)
            out["inner_residuals"] = list(self.inner_residuals)
        return out


class _Recorder:
    """Trace bookkeeping shared by all schemes.

    Records every iterate up to n = 100 and then thins geometrically
    (n = 128, 181, 256, 362, ...), always keeping the final iterate.  When
    asked, it also counts steps on which the distance to the analytic fixed
    set rose by more than FEJER_SLACK.  The distance is only computed for
    iterates that are kept, unless that count needs it on every step.
    """

    def __init__(self, spec, track_fejer=False, record_all=False):
        self.fixed_set = analytic_fixed_set(spec)
        self.records = []
        self.record_all = record_all
        self.track_fejer = track_fejer
        self.fejer_violations = 0 if track_fejer else None
        self._prev_fsd = None
        self._thin_exp = 0
        self._next_kept = self._threshold()
        self._last = None

    def _threshold(self):
        return int(round(2.0 ** (7 + self._thin_exp / 2.0)))

    def _record(self, n, pair_residual, step_norm, point, fsd):
        return IterateRecord(
            n=n,
            pair_residual=float(pair_residual),
            step_norm=float(step_norm),
            fixed_set_distance=fixed_set_distance(self.fixed_set, point) if fsd is None else fsd,
            point=point,  # no copy: no scheme mutates an iterate in place
        )

    def add(self, n, pair_residual, step_norm, point):
        fsd = None
        if self.track_fejer:
            fsd = fixed_set_distance(self.fixed_set, point)
            if self._prev_fsd is not None and fsd > self._prev_fsd + FEJER_SLACK:
                self.fejer_violations += 1
            self._prev_fsd = fsd
        # n runs 1, 2, 3, ..., so each threshold is met exactly once
        take = self.record_all or n <= 100
        if n == self._next_kept:
            take = True
            self._thin_exp += 1
            self._next_kept = self._threshold()
        if take:
            self.records.append(self._record(n, pair_residual, step_norm, point, fsd))
        self._last = (n, pair_residual, step_norm, point, fsd)

    def finish(self, tag, termination, inner_steps=None, inner_residuals=None):
        if self._last is None:
            raise RuntimeError("no iterates were produced")
        n = self._last[0]
        if not self.records or self.records[-1].n != n:
            self.records.append(self._record(*self._last))
        return ConvergenceReport(
            scheme_tag=tag,
            iterates_recorded=self.records,
            final_point=self.records[-1].point,
            n_used=n,
            termination=termination,
            fejer_violations=self.fejer_violations,
            inner_steps=inner_steps,
            inner_residuals=inner_residuals,
        )


def _resolve_budget(cfg, tag):
    if cfg.max_iter is None:
        return DEFAULT_MAX_ITER[tag]
    return int(cfg.max_iter)


def _require_point(spec, cfg, name, tag):
    """cfg.<name> ("start" or "u") as a float vector of the flow's dimension inside its domain.

    Checked before the first iteration, with the membership slack that
    every operator application applies, so a bad point is reported under
    its own name.
    """
    x = getattr(cfg, name)
    if x is None:
        raise ValueError(f"{tag} needs a value for {name}")
    x = np.array(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"{name} has shape {x.shape}, the semigroup expects ({spec.dim},)")
    if not spec.domain.contains(x, MEMBERSHIP_SLACK):
        raise ValueError(f"{name} lies outside the domain beyond the membership slack")
    return x


def _schedule_of(cfg):
    return cfg.schedule if cfg.schedule is not None else make_schedule("harmonic", offset=1)


def _drive(spec, cfg, tag, iterates, n_max, track_fejer=False, inner=None):
    """The loop all schemes share: record each iterate and decide when to stop.

    T(alpha) and T(beta) are compiled once, here, and handed to
    ``iterates(op_alpha, op_beta)``, whose generator yields x_1, x_2, ...
    and is sent (T(alpha)x_n, T(beta)x_n) for the x_n it yielded last, so
    updates reuse those two applications.  Each x_n is recorded, then
    tested for an inner-solver failure (``inner`` holds the implicit
    scheme's (sweeps, residual, solved) per step), then for convergence,
    then against the budget n_max.  A (near-)rational pair warns first: its
    pair residual can vanish off the common fixed set.
    """
    _warn_if_near_rational(cfg.alpha, cfg.beta)
    op_alpha, op_beta = operator(spec, cfg.alpha), operator(spec, cfg.beta)
    orbit = iterates(op_alpha, op_beta)
    rec = _Recorder(spec, track_fejer=track_fejer, record_all=cfg.record_all)
    images = None
    x_prev = None
    for n in range(1, n_max + 1):
        x = orbit.send(images)
        ta = op_alpha(x)
        tb = op_beta(x)
        pair = max(_norm(ta - x), _norm(tb - x))
        step = 0.0 if x_prev is None else _norm(x - x_prev)
        rec.add(n, pair, step, x)
        if inner is not None and not inner[-1][2]:
            termination = INNER_SOLVER_FAILURE
            break
        if pair <= cfg.tol and step <= cfg.tol:
            termination = CONVERGED
            break
        images, x_prev = (ta, tb), x
    else:
        termination = MAX_ITER
    if inner is None:
        return rec.finish(tag, termination)
    return rec.finish(tag, termination, [e[0] for e in inner], [e[1] for e in inner])


# ---- averaging schemes ---------------------------------------------------------

def baillon_double(spec, cfg):
    """Double ergodic average over the sampled grid of times.

    x_n = (1/n^2) sum_{k=1..n} sum_{l=1..n} T(k*alpha + l*beta) x, computed
    from the power grid y[k, l] = T(alpha)^k T(beta)^l x via the recurrences
    y[0, l+1] = T(beta) y[0, l] and y[k+1, l] = T(alpha) y[k, l].  The grid
    is filled lazily ring by ring, but its storage is O(max_iter^2) points,
    so budgets above BAILLON_GRID_CAP are rejected.
    """
    tag = "baillon_double"
    x0 = _require_point(spec, cfg, "start", tag)
    n_max = _resolve_budget(cfg, tag)
    if n_max > BAILLON_GRID_CAP:
        raise ValueError(
            f"{tag}: budget {n_max} exceeds the grid cap {BAILLON_GRID_CAP} "
            "(the time-grid cache grows quadratically)"
        )

    def iterates(op_alpha, op_beta):
        grid = np.empty((n_max + 1, n_max + 1, x0.size))
        grid[0, 0] = x0
        total = np.zeros(x0.size)
        for n in range(1, n_max + 1):
            grid[0, n] = op_beta(grid[0, n - 1])
            for k in range(1, n + 1):
                grid[k, n] = op_alpha(grid[k - 1, n])
            for l in range(1, n):
                grid[n, l] = op_alpha(grid[n - 1, l])
            total += grid[1 : n + 1, n].sum(axis=0) + grid[n, 1:n].sum(axis=0)
            yield total / (n * n)

    return _drive(spec, cfg, tag, iterates, n_max)


def baillon_power_average(spec, cfg):
    """Running average of the midpoint-map orbit.

    z_k = ((T(alpha) + T(beta))/2)^k x and x_n = (1/n) sum_{k=1..n} z_k;
    each stage costs one application of each sampled operator.
    """
    tag = "baillon_power_average"
    x0 = _require_point(spec, cfg, "start", tag)

    def iterates(op_alpha, op_beta):
        z = x0
        total = np.zeros(z.size)
        for n in itertools.count(1):
            z = 0.5 * (op_alpha(z) + op_beta(z))
            total += z
            yield total / n

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag))


def _double_block_average(op_alpha, op_beta, x, n):
    """(1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x at a fixed point x.

    ``op_alpha`` and ``op_beta`` are the compiled T(alpha) and T(beta).
    """
    d = x.size
    row = np.empty((n, d))
    cur = x
    for l in range(n):
        cur = op_beta(cur)
        row[l] = cur
    total = np.zeros(d)
    for _ in range(n):
        for l in range(n):
            row[l] = op_alpha(row[l])
        total += row.sum(axis=0)
    return total / (n * n)


# ---- averaged fixed-point iterations -------------------------------------------

def mann(spec, cfg):
    """Two-operator averaged iteration.

    x <- kappa*T(alpha)x + lam*T(beta)x + (1 - kappa - lam)*x with
    kappa, lam > 0 and kappa + lam < 1, so a positive share of the current
    iterate always survives.  Distances to every common fixed point are
    nonincreasing along the run; violations beyond rounding slack are
    counted in the report (there should be none).
    """
    tag = "mann"
    if not (cfg.kappa > 0 and cfg.lam > 0):
        raise ValueError("kappa and lambda must be positive")
    if not cfg.kappa + cfg.lam < 1:
        raise ValueError("kappa + lambda must be < 1")
    x0 = _require_point(spec, cfg, "start", tag)
    rest = 1.0 - cfg.kappa - cfg.lam

    def iterates(*_):
        x = x0
        while True:
            ta, tb = yield x
            x = cfg.kappa * ta + cfg.lam * tb + rest * x

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag), track_fejer=True)


def suzuki_averaged_mann(spec, cfg):
    """Mann-style averaging against the double ergodic average.

    x <- lam * [(1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x] + (1-lam) * x.
    Each outer step n recomputes the n-by-n average at the current iterate,
    so step n costs O(n^2) operator applications; budgets default low.
    """
    tag = "suzuki_averaged_mann"
    if not 0.0 < cfg.lam < 1.0:
        raise ValueError("lambda must lie strictly in (0, 1)")
    x0 = _require_point(spec, cfg, "start", tag)

    def iterates(op_alpha, op_beta):
        x = x0
        for n in itertools.count(1):
            yield x
            avg = _double_block_average(op_alpha, op_beta, x, n)
            x = cfg.lam * avg + (1.0 - cfg.lam) * x

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag), track_fejer=True)


def ishikawa_composed(spec, cfg):
    """Outer/inner composition of averaged operators.

    With V = kappa*T(beta) + (1-kappa)*I and W = lam*T(alpha) + (1-lam)*I,
    step n applies x <- W(V^n x).  Both weights must lie strictly in (0, 1);
    step n costs n+1 operator applications.
    """
    tag = "ishikawa_composed"
    if not 0.0 < cfg.kappa < 1.0 or not 0.0 < cfg.lam < 1.0:
        raise ValueError("kappa and lambda must lie strictly in (0, 1)")
    x0 = _require_point(spec, cfg, "start", tag)

    def iterates(op_alpha, op_beta):
        x = x0
        for n in itertools.count(1):
            yield x
            y = x
            for _ in range(n):
                y = cfg.kappa * op_beta(y) + (1.0 - cfg.kappa) * y
            x = cfg.lam * op_alpha(y) + (1.0 - cfg.lam) * y

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag), track_fejer=True)


# ---- anchored schemes ----------------------------------------------------------

def _banach_solve(step_map, z0, tol, cap, contraction, trace=None):
    """Fixed-point iteration of a contraction, with an a-priori budget.

    The residual ||step_map(z) - z|| shrinks at least by ``contraction``
    per sweep, so the number of sweeps needed is estimated up front; the
    contraction used in that estimate is floored away from 1 (anchor weight
    held >= INNER_LAMBDA_FLOOR), which bounds the budget but makes stalls
    under extremely small anchor weights fail fast and visibly instead of
    spinning against the hard cap.

    Returns (point, sweeps_used, final_residual, converged).
    """
    z = np.asarray(z0, dtype=float)
    fz = step_map(z)
    r = _norm(fz - z)
    if trace is not None:
        trace.append(r)
    if r <= tol:
        return fz, 0, r, True
    q = min(contraction, 1.0 - INNER_LAMBDA_FLOOR)
    estimate = int(math.ceil(math.log(tol / r) / math.log(q))) + 16
    budget = min(int(cap), estimate)
    sweeps = 0
    while r > tol and sweeps < budget:
        z = fz
        fz = step_map(z)
        r = _norm(fz - z)
        sweeps += 1
        if trace is not None:
            trace.append(r)
    return (fz, sweeps, r, True) if r <= tol else (z, sweeps, r, False)


def browder_implicit(spec, cfg):
    """Implicit anchored sequence.

    For each n, x_n solves x = ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u
    with lam_n from the schedule.  The map on the right contracts with
    factor at most 1 - lam_n, so each x_n is found by inner fixed-point
    iteration, warm-started from the previous outer point.  The report
    carries the inner sweep counts and final inner residuals; an inner
    solve that misses inner_tol ends the run with inner_solver_failure.
    """
    tag = "browder_implicit"
    u = _require_point(spec, cfg, "u", tag)
    sched = _schedule_of(cfg)
    x0 = u.copy() if cfg.start is None else _require_point(spec, cfg, "start", tag)
    inner = []

    def iterates(op_alpha, op_beta):
        x = x0
        for n in itertools.count(1):
            lam_n = sched(n)
            pull = lam_n * u
            half = 0.5 * (1.0 - lam_n)

            def step_map(z):
                return half * (op_alpha(z) + op_beta(z)) + pull

            x, sweeps, r, ok = _banach_solve(step_map, x, cfg.inner_tol, cfg.inner_cap, 1.0 - lam_n)
            inner.append((sweeps, r, ok))
            yield x

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag), inner=inner)


def halpern(spec, cfg):
    """Explicit anchored iteration.

    x <- ((1 - lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u with lam_n from the
    schedule.  The schedule families here satisfy the classical conditions
    (weights vanish, their sum diverges, successive differences are
    summable), so on an irrational pair the iterates approach the common
    fixed point nearest the anchor.
    """
    tag = "halpern"
    u = _require_point(spec, cfg, "u", tag)
    x0 = _require_point(spec, cfg, "start", tag)
    sched = _schedule_of(cfg)

    def iterates(*_):
        x = x0
        for n in itertools.count(1):
            ta, tb = yield x
            lam_n = sched(n)
            x = 0.5 * (1.0 - lam_n) * (ta + tb) + lam_n * u

    return _drive(spec, cfg, tag, iterates, _resolve_budget(cfg, tag))


SCHEME_TAGS = {
    "baillon_double": baillon_double,
    "baillon_power_average": baillon_power_average,
    "mann": mann,
    "suzuki_averaged_mann": suzuki_averaged_mann,
    "ishikawa_composed": ishikawa_composed,
    "browder_implicit": browder_implicit,
    "halpern": halpern,
}


def run_scheme(tag, spec, cfg):
    """Dispatch to a scheme by tag (see SCHEME_TAGS)."""
    try:
        fn = SCHEME_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown scheme {tag!r}; choose from {sorted(SCHEME_TAGS)}") from None
    return fn(spec, cfg)
