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
from dataclasses import dataclass, replace

import numpy as np

from semiflow.characterize import _checked_pair
from semiflow.semigroups import _checker, _kernel, _pair_kernel, analytic_fixed_set, fixed_set_distance
# not called here: the benchmark's tracer (bench/spans.py) wraps it under this module's name
from semiflow.semigroups import evaluate  # noqa: F401
from semiflow.stepseq import check_pair
from semiflow.vecspace import _norm, _row_norms, _scalar, as_point

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
    "run_rows",
    "SCHEME_TAGS",
    "ROW_SCHEMES",
    "DEFAULT_MAX_ITER",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
INNER_SOLVER_FAILURE = "inner_solver_failure"

# fixed-set distance may rise by at most this much per step before it
# counts as a monotonicity violation
FEJER_SLACK = 1e-10

# iterates past n = 100 that a run records: 128, 181, 256, 362, ... (the
# powers of sqrt(2) from 2**7, rounded), up to past 2**63
THINNED_KEPT = frozenset(int(round(2.0 ** (7 + k / 2.0))) for k in range(114))

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
    if not 0.0 < sched(2) < sched(1) < 1.0:  # an exponent near 0 rounds the weights to 1
        raise ValueError(f"schedule exponent {p} gives weights {sched(1)!r}, {sched(2)!r}, not decreasing below 1")
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
    schedule     anchor weights for browder_implicit and halpern (harmonic:1 if None)
    max_iter     outer iteration budget (scheme default when None)
    tol          convergence tolerance on pair residual and step norm
    inner_tol    Browder inner solver residual target
    inner_cap    Browder inner solver hard iteration cap
    u            anchor point (browder_implicit and halpern)
    start        initial iterate x_1, or a (B, d) array of B of them for
                 run_rows
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
        if self.schedule is None:
            self.schedule = make_schedule("harmonic", offset=1)
        self.tol = _scalar("tol", self.tol)
        self.inner_tol = _scalar("inner_tol", self.inner_tol)
        for name in ("max_iter", "inner_cap"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.u is not None:
            self.u = as_point(self.u)
        if self.start is not None:
            start = np.asarray(self.start, dtype=float)
            if start.ndim == 2:
                start = np.array([as_point(row) for row in start])
                start.flags.writeable = False
                self.start = start
            else:
                self.start = as_point(start)


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

    Records every iterate up to n = 100 and then those in THINNED_KEPT,
    always keeping the final iterate.  When asked, it also counts steps on
    which the distance to the analytic fixed set rose by more than
    FEJER_SLACK.  The distance is only computed for iterates that are kept,
    unless that count needs it on every step.  A caller that has the
    distance already passes it to add().
    """

    def __init__(self, spec, track_fejer=False, record_all=False):
        self.fixed_set = analytic_fixed_set(spec)
        self.records = []
        self.record_all = record_all
        self.track_fejer = track_fejer
        self.fejer_violations = 0 if track_fejer else None
        self._prev_fsd = None
        self._last = None

    def _record(self, n, pair_residual, step_norm, point, fsd):
        return IterateRecord(
            n=n,
            pair_residual=float(pair_residual),
            step_norm=float(step_norm),
            fixed_set_distance=fixed_set_distance(self.fixed_set, point) if fsd is None else fsd,
            point=point,  # no copy: no scheme mutates an iterate in place
        )

    def add(self, n, pair_residual, step_norm, point, fsd=None):
        if self.track_fejer:
            if fsd is None:
                fsd = fixed_set_distance(self.fixed_set, point)
            if self._prev_fsd is not None and fsd > self._prev_fsd + FEJER_SLACK:
                self.fejer_violations += 1
            self._prev_fsd = fsd
        if self.record_all or n <= 100 or n in THINNED_KEPT:
            self.records.append(self._record(n, pair_residual, step_norm, point, fsd))
        self._last = (n, pair_residual, step_norm, point, fsd)

    def finish(self, tag, termination, inner=None):
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
            inner_steps=None if inner is None else [e[0] for e in inner],
            inner_residuals=None if inner is None else [e[1] for e in inner],
        )


def _require_point(spec, cfg, name, tag, rows=False):
    """cfg.<name> ("start" or "u") as a float vector of the flow's dimension inside its domain.

    Checked once, before the first iteration, by the operators' membership
    check, under its own name.  With ``rows``, a (B, d) array of them passes.
    """
    x = getattr(cfg, name)
    if x is None:
        raise ValueError(f"{tag} needs a value for {name}")
    x = np.array(x, dtype=float)
    _checker(spec, rows, name, "the semigroup")(x)
    return x


def _drive(spec, cfg, tag, iterates, track_fejer=False, inner=None):
    """The setup and loop all schemes share: record each iterate and decide when to stop.

    Checks cfg.start (for a tag of ROW_SCHEMES also a (B, d) array, which
    goes to _drive_rows), takes n_max = cfg.max_iter or DEFAULT_MAX_ITER[tag],
    and warns on a (near-)rational pair.  ``iterates(x0, n_max, op_alpha,
    op_beta, op_pair)`` gets the checked start as a float array and
    unchecked kernels of T(alpha), T(beta) and x -> (T(alpha)x, T(beta)x):
    every iterate is a convex combination of the checked start and anchor
    and of projected images.  Its generator yields x_1, x_2, ... and is
    sent (T(alpha)x_n, T(beta)x_n) for the x_n it yielded last.  Each x_n
    is recorded, then tested for an inner-solver failure (``inner`` holds
    the implicit scheme's (sweeps, residual, solved) per step), then for
    convergence, then against n_max.
    """
    x0 = _require_point(spec, cfg, "start", tag, rows=tag in ROW_SCHEMES)
    n_max = DEFAULT_MAX_ITER[tag] if cfg.max_iter is None else int(cfg.max_iter)
    _checked_pair(cfg.alpha, cfg.beta)
    op_pair = _pair_kernel(spec, cfg.alpha, cfg.beta)
    orbit = iterates(x0, n_max, _kernel(spec, cfg.alpha), _kernel(spec, cfg.beta), op_pair)
    if x0.ndim == 2:
        return _drive_rows(spec, cfg, tag, orbit, op_pair, n_max, track_fejer)
    rec = _Recorder(spec, track_fejer=track_fejer, record_all=cfg.record_all)
    images = None
    x_prev = None
    for n in range(1, n_max + 1):
        x = orbit.send(images)
        ta, tb = op_pair(x)
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
    return rec.finish(tag, termination, inner)


def _drive_rows(spec, cfg, tag, orbit, op_pair, n_max, track_fejer):
    """_drive's loop for B runs iterated as the rows of one array.

    The pair residual, the step and (for the Fejer count) the fixed-set
    distance are taken per row, and each row has its own _Recorder, which
    sees the row until its own termination.  The block is iterated until
    every row has ended, so a row that has ended is still updated but no
    longer recorded.  Returns one report per row.
    """
    recs = [_Recorder(spec, track_fejer=track_fejer, record_all=cfg.record_all) for _ in cfg.start]
    ends = [MAX_ITER] * len(recs)
    live = range(len(recs))
    images = None
    x_prev = None
    for n in range(1, n_max + 1):
        x = orbit.send(images)
        ta, tb = op_pair(x)
        pair = np.maximum(_row_norms(ta - x), _row_norms(tb - x))
        step = np.zeros(len(x)) if x_prev is None else _row_norms(x - x_prev)
        done = ((pair <= cfg.tol) & (step <= cfg.tol)).tolist()
        # Python floats, as the serial loop records them
        pair, step = pair.tolist(), step.tolist()
        fsd = fixed_set_distance(recs[0].fixed_set, x).tolist() if track_fejer else [None] * len(x)
        for i in live:
            recs[i].add(n, pair[i], step[i], x[i], fsd[i])
            if done[i]:
                ends[i] = CONVERGED
        live = [i for i in live if not done[i]]
        if not live:
            break
        images, x_prev = (ta, tb), x
    return [rec.finish(tag, end) for rec, end in zip(recs, ends)]


# ---- averaging schemes ---------------------------------------------------------

def baillon_double(spec, cfg):
    """Double ergodic average over the sampled grid of times.

    x_n = (1/n^2) sum_{k=1..n} sum_{l=1..n} T(k*alpha + l*beta) x, computed
    from the power grid y[k, l] = T(alpha)^k T(beta)^l x via the recurrences
    y[0, l+1] = T(beta) y[0, l] and y[k+1, l] = T(alpha) y[k, l].  Ring n
    adds the column y[1..n, n] and the row y[n, 1..n-1], so only the
    column and the frontier row y[n-1, 1..n-1] of the ring before are
    kept: O(max_iter) points, while the cost stays O(max_iter^2)
    applications.
    """
    def iterates(x0, n_max, op_alpha, op_beta, _):
        col = np.empty((n_max + 1, x0.size))  # col[k] = y[k, n]
        row = np.empty((n_max + 1, x0.size))  # row[l] = y[n - 1, l], l < n
        col[0] = x0
        total = np.zeros(x0.size)
        for n in range(1, n_max + 1):
            col[0] = op_beta(col[0])
            for k in range(1, n + 1):
                col[k] = op_alpha(col[k - 1])
            row[1:n] = op_alpha(row[1:n])
            total += col[1 : n + 1].sum(axis=0) + row[1:n].sum(axis=0)
            row[n] = col[n]
            yield total / (n * n)

    return _drive(spec, cfg, "baillon_double", iterates)


def baillon_power_average(spec, cfg):
    """Running average of the midpoint-map orbit.

    z_k = ((T(alpha) + T(beta))/2)^k x and x_n = (1/n) sum_{k=1..n} z_k;
    each stage costs one application of each sampled operator.
    """
    def iterates(z, _, __, ___, op_pair):
        total = np.zeros(z.shape)
        for n in itertools.count(1):
            ta, tb = op_pair(z)
            z = 0.5 * (ta + tb)
            total += z
            yield total / n

    return _drive(spec, cfg, "baillon_power_average", iterates)


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
        row = op_alpha(row)
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
    if not (cfg.kappa > 0 and cfg.lam > 0):
        raise ValueError("kappa and lambda must be positive")
    if not cfg.kappa + cfg.lam < 1:
        raise ValueError("kappa + lambda must be < 1")
    rest = 1.0 - cfg.kappa - cfg.lam

    def iterates(x, *_):
        while True:
            ta, tb = yield x
            x = cfg.kappa * ta + cfg.lam * tb + rest * x

    return _drive(spec, cfg, "mann", iterates, track_fejer=True)


def suzuki_averaged_mann(spec, cfg):
    """Mann-style averaging against the double ergodic average.

    x <- lam * [(1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x] + (1-lam) * x.
    Each outer step n recomputes the n-by-n average at the current iterate,
    so step n costs O(n^2) operator applications; budgets default low.
    """
    if not 0.0 < cfg.lam < 1.0:
        raise ValueError("lambda must lie strictly in (0, 1)")

    def iterates(x, _, op_alpha, op_beta, __):
        for n in itertools.count(1):
            yield x
            avg = _double_block_average(op_alpha, op_beta, x, n)
            x = cfg.lam * avg + (1.0 - cfg.lam) * x

    return _drive(spec, cfg, "suzuki_averaged_mann", iterates, track_fejer=True)


def ishikawa_composed(spec, cfg):
    """Outer/inner composition of averaged operators.

    With V = kappa*T(beta) + (1-kappa)*I and W = lam*T(alpha) + (1-lam)*I,
    step n applies x <- W(V^n x).  Both weights must lie strictly in (0, 1);
    step n costs n+1 operator applications.
    """
    if not 0.0 < cfg.kappa < 1.0 or not 0.0 < cfg.lam < 1.0:
        raise ValueError("kappa and lambda must lie strictly in (0, 1)")

    def iterates(x, _, op_alpha, op_beta, __):
        for n in itertools.count(1):
            yield x
            y = x
            for _ in range(n):
                y = cfg.kappa * op_beta(y) + (1.0 - cfg.kappa) * y
            x = cfg.lam * op_alpha(y) + (1.0 - cfg.lam) * y

    return _drive(spec, cfg, "ishikawa_composed", iterates, track_fejer=True)


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
    iteration, warm-started from the previous outer point; the first solve
    starts from cfg.start, or from u when that is None.  The report carries
    the inner sweep counts and final inner residuals; an inner solve that
    misses inner_tol ends the run with inner_solver_failure.
    """
    u = _require_point(spec, cfg, "u", "browder_implicit")
    if cfg.start is None:
        cfg = replace(cfg, start=u)
    inner = []

    def iterates(x, _, __, ___, op_pair):
        for n in itertools.count(1):
            lam_n = cfg.schedule(n)
            pull = lam_n * u
            half = 0.5 * (1.0 - lam_n)

            def step_map(z):
                ta, tb = op_pair(z)
                return half * (ta + tb) + pull

            x, sweeps, r, ok = _banach_solve(step_map, x, cfg.inner_tol, cfg.inner_cap, 1.0 - lam_n)
            inner.append((sweeps, r, ok))
            yield x

    return _drive(spec, cfg, "browder_implicit", iterates, inner=inner)


def halpern(spec, cfg):
    """Explicit anchored iteration.

    x <- ((1 - lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u with lam_n from the
    schedule.  The schedule families here satisfy the classical conditions
    (weights vanish, their sum diverges, successive differences are
    summable), so on an irrational pair the iterates approach the common
    fixed point nearest the anchor.
    """
    u = _require_point(spec, cfg, "u", "halpern")
    sched = cfg.schedule

    def iterates(x, *_):
        for n in itertools.count(1):
            ta, tb = yield x
            lam_n = sched(n)
            x = 0.5 * (1.0 - lam_n) * (ta + tb) + lam_n * u

    return _drive(spec, cfg, "halpern", iterates)


SCHEME_TAGS = {
    "baillon_double": baillon_double,
    "baillon_power_average": baillon_power_average,
    "mann": mann,
    "suzuki_averaged_mann": suzuki_averaged_mann,
    "ishikawa_composed": ishikawa_composed,
    "browder_implicit": browder_implicit,
    "halpern": halpern,
}


# the schemes whose update treats each row of a (B, d) iterate on its own
ROW_SCHEMES = ("baillon_power_average", "halpern", "mann")


def _scheme(tag):
    try:
        return SCHEME_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown scheme {tag!r}; choose from {sorted(SCHEME_TAGS)}") from None


def run_scheme(tag, spec, cfg):
    """Dispatch to a scheme by tag (see SCHEME_TAGS); returns one report."""
    fn = _scheme(tag)
    if cfg.start is not None and cfg.start.ndim == 2:
        raise ValueError("run_scheme takes one start point; run_rows takes a (B, d) array of them")
    return fn(spec, cfg)


def run_rows(tag, spec, cfg):
    """Run a scheme of ROW_SCHEMES from every row of the (B, d) array cfg.start.

    The B runs are iterated together, as the rows of one array.  Returns B
    reports, one per row, in row order; each equals run_scheme's report for
    that row alone, up to rounding on a heat flow.  Raises ValueError for
    another scheme or a start that is not a (B, d) array.
    """
    fn = _scheme(tag)
    if tag not in ROW_SCHEMES:
        raise ValueError(f"{tag} cannot run rows of starts; choose from {list(ROW_SCHEMES)}")
    if cfg.start is None or cfg.start.ndim != 2:
        raise ValueError("run_rows needs start as a (B, d) array")
    return fn(spec, cfg)
