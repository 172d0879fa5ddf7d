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
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from semiflow.characterize import _checked_pair
from semiflow.semigroups import (
    ROTATION, _checker, _compile, _interior_radius, _kernel, _pair_kernel, _parse_value, analytic_fixed_set,
    fixed_set_distance,
)
# not called here: the benchmark's tracer (bench/spans.py) wraps it under this module's name
from semiflow.semigroups import evaluate  # noqa: F401
from semiflow.stepseq import check_pair
from semiflow.vecspace import _norm, _row_norms, _scalar, _wide_norms, as_point

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

# the iterates a run records unless it records all, ascending: 1, ..., 100, then
# 128, 181, 256, 362, ... (the powers of sqrt(2) from 2**7, rounded), up to past 2**63
KEPT = tuple(range(1, 101)) + tuple(int(round(2.0 ** (7 + k / 2.0))) for k in range(114))

# the longest block of iterates _drive takes before testing them, on arrays and on
# Python floats (see _drive)
DRIVE_BLOCK = 256
FLOAT_BLOCK = 1024

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
        k = n + self.offset
        return 1.0 / k if self.p == 1.0 else k ** -self.p

    def block(self, n, size):
        """The weights [lam_m for m in range(n, n + size)] of size iterates from n, as one float array."""
        ks, p = range(n + self.offset, n + self.offset + size), -self.p
        if p == -1.0 and ks.stop <= 2 ** 63:  # an int64 k casts to the float that 1.0 / k rounds it to
            return 1.0 / np.arange(ks.start, ks.stop, dtype=np.int64).astype(float)
        return np.array([1.0 / k for k in ks] if p == -1.0 else [k ** p for k in ks], dtype=float)

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
        return make_schedule("harmonic", offset=_parse_value(int, body or "1", "schedule offset"))
    if kind == "power":
        parts = [part for part in body.split(",") if part]
        if not 1 <= len(parts) <= 2:
            raise ValueError(f"power schedule expects p[,offset], got {text!r}")
        p = _parse_value(float, parts[0], "schedule exponent")
        offset = _parse_value(int, parts[1], "schedule offset") if len(parts) == 2 else 1
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
    u            anchor point (browder_implicit and halpern); checked by
                 every scheme it is given to
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
        # Python floats: a numpy float32 weight would round the float path's products to float32
        self.kappa, self.lam = float(self.kappa), float(self.lam)
        if self.schedule is None:
            self.schedule = make_schedule("harmonic", offset=1)
        self.tol = _scalar("tol", self.tol)
        self.inner_tol = _scalar("inner_tol", self.inner_tol)
        for name in ("max_iter", "inner_cap"):
            value = getattr(self, name)
            ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1
            if value is not None and not ok:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.u is not None:
            self.u = as_point(self.u)
        if self.start is not None:
            start = np.asarray(self.start, dtype=float)
            self.start = np.array([as_point(row) for row in start]) if start.ndim == 2 else as_point(start)
            self.start.flags.writeable = False


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

    Records the iterates in KEPT (every iterate with record_all), always
    keeping the final iterate.  When asked, it also counts steps on
    which the distance to the analytic fixed set rose by more than
    FEJER_SLACK.  The distance is only computed for iterates that are kept,
    unless that count needs it on every step.  A caller that has the
    distances already passes them in.
    """

    def __init__(self, spec, track_fejer=False, record_all=False):
        self.fixed_set = analytic_fixed_set(spec)
        self.wide = spec.domain.wide
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
            fixed_set_distance=fixed_set_distance(self.fixed_set, point, self.wide) if fsd is None else fsd,
            point=point,  # no copy: no scheme mutates an iterate in place
        )

    def add_block(self, n, xs, pair, step, fsd=None, stop=0):
        """Take the iterates x_n, x_{n+1}, ... of a block, up to its stop-th
        if stop (see _stops), else all.

        xs, pair and step hold the block's iterates, pair residuals and
        step norms (lists, or arrays), and fsd their fixed-set distances as
        a list, or None.  Each iterate taken counts toward the Fejer count,
        against the one before it (the previous block's last for the first),
        and a record is built only for the kept ones; the last one taken is
        kept for finish().
        """
        k = stop or len(pair)  # the iterates taken
        if self.track_fejer:
            if fsd is None:
                fsd = [fixed_set_distance(self.fixed_set, x, self.wide) for x in xs[:k]]
            prev = self._prev_fsd
            for f in fsd[:k]:
                if prev is not None and f > prev + FEJER_SLACK:
                    self.fejer_violations += 1
                prev = f
            self._prev_fsd = prev
        fs = [None] * k if fsd is None else fsd
        append, record = self.records.append, self._record
        for m in range(n, n + k) if self.record_all else KEPT[bisect_left(KEPT, n):bisect_left(KEPT, n + k)]:
            append(record(m, pair[m - n], step[m - n], xs[m - n], fs[m - n]))
        self._last = (n + k - 1, pair[k - 1], step[k - 1], xs[k - 1], fs[k - 1])

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


@dataclass(frozen=True)
class _Rule:
    """The explicit update of mann or halpern, from x_n and its images
    a = T(alpha)x_n and b = T(beta)x_n.

    mann's has mix = (kappa, lam, rest) and gives kappa*a + lam*b + rest*x_n;
    halpern's has a Schedule weight and an anchor u and gives
    h*(a + b) + w*u, with w = weight(n) and h = 0.5*(1 - w).  Called as a
    scheme's ``iterates`` (see _drive), it is the generator of the array
    path; _float_blocks writes the same IEEE operations out on one point's
    coordinates as Python floats, so the two give the same bits.
    """

    mix: tuple | None = None
    weight: object = None
    anchor: np.ndarray | None = None

    def __call__(self, x, *_):
        weight, u = self.weight, self.anchor
        kappa, lam, rest = self.mix or (None, None, None)
        for n in itertools.count(1):
            ta, tb = yield x
            if weight is None:
                x = kappa * ta + lam * tb + rest * x
            else:
                w = weight(n)
                x = 0.5 * (1.0 - w) * (ta + tb) + w * u


def _block_norms(before, block, ta, tb, norms=_row_norms):
    """The pair residuals and step norms of a block's iterates, as float arrays.

    before holds the iterate before each of the block's (x_1 itself for
    x_1, whose step is 0.0), and ta and tb their T(alpha) and T(beta)
    images.  One norms call each: _row_norms, which equal _norm's bit for
    bit, or on a wide ball _wide_norms; a block of size (B, d) iterates
    gives (size, B) arrays.
    """
    return np.maximum(norms(ta - block), norms(tb - block)), norms(block - before)


def _stops(pair, step, tol):
    """Where each run of a block stops: the index from 1 of its first
    iterate whose pair residual and step are both at most tol, or 0 for a
    run that has none, as a list of ints.

    pair and step are _block_norms' arrays of one run or of B; one numpy
    test of the whole block takes the place of a test of each iterate.
    """
    hit = (pair <= tol) & (step <= tol)
    return np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0).reshape(-1).tolist()


def _array_blocks(orbit, op_pair, norms):
    """take(size) -> (iterates, pair residuals, step norms) of the next size iterates of orbit.

    The iterates are points or (B, d) arrays of B of them.  Every block,
    a block of one point too, is read into one array and tested with
    _block_norms, which takes norms.
    """
    images = prev = None

    def take(size):
        nonlocal images, prev
        xs, tas, tbs = [], [], []
        for _ in range(size):
            x = orbit.send(images)
            images = op_pair(x)
            xs.append(x)
            tas.append(images[0])
            tbs.append(images[1])
        # one concatenate costs less than np.array or np.stack on small arrays
        rows = np.concatenate([xs[0] if prev is None else prev, *xs, *tas, *tbs])
        rows = rows.reshape(3 * size + 1, *x.shape)
        pair, step = _block_norms(rows[:size], *rows[1:].reshape(3, size, *x.shape), norms)
        prev = xs[-1]
        return xs, pair, step

    return take


def _float_blocks(spec, cfg, rule, x, op_pair):
    """_array_blocks for a _Rule from one start x of a d=2 rotation, iterated
    on Python floats, or None for any other flow.

    Each iterate is one pass of a loop body: the offsets from the center
    and both images with _compile's turn by its (cos, sin), the interior
    test dx*dx + dy*dy <= r**2 of _interior_radius, and the rule's update,
    in the IEEE operations of its array form (_Rule).  Only an iterate that
    fails the test (a NaN one too, and every iterate on a ball without a
    test) makes calls: each image goes through domain.project as a point,
    which gives _pair_kernel's bits.  A block's weights come from one
    Schedule.block call, and halpern's 0.5*(1 - w) from one array
    operation on them, which rounds as the loop would.  The loop keeps
    only the iterates, returned as rows of one array read from the loop's
    list in one np.fromiter call; after the block, op_pair, the driver's
    pair kernel (_pair_kernel), recomputes their images from those rows,
    in the same operations, and projects them only if some iterate failed
    the test.  Its norms are _row_norms (_drive takes a wide ball through
    _array_blocks).

    Two proved bounds let a block skip work with the same bits.  Write
    eps = 2^-53, c and R for the ball's center and radius, r for the
    test's radius and e = |x - c|, and take math.cos, math.sin and
    math.hypot within an ulp.  A ball with a test has 2^-500 <= R <= 2^500
    and |c| <= 2^20 R, so nothing overflows and an underflow errs by at
    most 2^-1074, far below eps R.  A computed image's offset from c lies
    within 5 eps e + eps |c| of the exact turn of x - c.

    * Interior proof.  The update is an affine combination of x_n's
      images and of u (halpern) or x_n (mann), with nonnegative weights
      that sum to 1 within 2 eps, rounded three times at most; so while
      every point lies within R of c,
      e(x_{n+1}) <= max(e(x_n), |u - c|) + 16 eps (|c| + R), where mann
      drops |u - c|.  A block of size iterates from x_n with a computed
      rho (1 + 32 eps) + size 32 eps (|c| + R) <= r (1 - 32 eps),
      rho = max(e(x_n), |u - c|), thus keeps every iterate within
      r (1 - 4 eps) of c, where the test's float sum of squares is at most
      r**2: its loop skips the test, by a short circuit on that proof, and
      projects nothing.  Any other block (near the boundary, on a ball
      without a test, at a NaN) tests every iterate.  The factors of
      32 eps also cover the check's own roundings.
    * Norm screen.  A turn's matrix M has |(M - I)v| = g|v| for every v,
      g = hypot(cos - 1, sin), so where no iterate of a block was
      projected, an iterate's computed pair residual is at least
      g e (1 - 10 eps) - 5 eps (|c| + R) - 2^-534 (the norm's squares may
      underflow), g the larger over the pair's two turns.  If
      g (1 - 32 eps) times the block's least computed e exceeds
      tol + 32 eps (|c| + R) + 2^-530, no iterate can stop; then, unless
      the run records every iterate, only the kept iterates (KEPT) and
      the block's last get images, pair residuals and step norms, by
      op_pair and _block_norms on those rows, which round as in the whole
      block.  The other entries are NaN, which no record reads and
      _stops takes for no stop.  Any other block is taken whole.
    """
    if spec.kind != ROTATION or spec.dim != 2:
        return None
    _, _, (ca, sa) = _compile(spec, cfg.alpha)
    _, _, (cb, sb) = _compile(spec, cfg.beta)
    domain = spec.domain
    cx, cy = domain.center.tolist()
    r = _interior_radius(domain)
    limit = r ** 2
    weight = rule.weight
    kappa, lam, rest = rule.mix or (None, None, None)
    u0, u1 = (None, None) if rule.anchor is None else rule.anchor.tolist()
    slack = 2.0 ** -48  # 32 eps, in both bounds of the docstring
    drift = slack * (math.hypot(cx, cy) + domain.radius)
    far = 0.0 if u0 is None else math.hypot(u0 - cx, u1 - cy)
    g = max(math.hypot(ca - 1.0, sa), math.hypot(cb - 1.0, sb)) * (1.0 - slack)
    floor = cfg.tol + drift + 2.0 ** -530
    before = x.tolist()  # the iterate before the block, x_1 itself at first
    xn, n = tuple(before), 1

    # the loop's constants are default arguments, read as fast locals, not closure cells
    def take(size, cx=cx, cy=cy, ca=ca, sa=sa, cb=cb, sb=sb, kappa=kappa, lam=lam, rest=rest, u0=u0, u1=u1,
             limit=limit):
        nonlocal before, xn, n
        x0, x1 = xn
        out = before
        append = out.append  # two appends cost less than out += x0, x1
        fell = False
        # halpern's weights w and h = 0.5 * (1 - w), each taken for the block in one array operation
        ws = None if weight is None else weight.block(n, size)
        hws = itertools.repeat((None, None), size) if ws is None else zip((0.5 * (1.0 - ws)).tolist(), ws.tolist())
        inside = max(math.hypot(x0 - cx, x1 - cy), far) * (1.0 + slack) + size * drift <= r * (1.0 - slack)
        for h, w in hws:
            append(x0)
            append(x1)
            dx = x0 - cx
            dy = x1 - cy
            a0, a1 = cx + ca * dx - sa * dy, cy + sa * dx + ca * dy
            b0, b1 = cx + cb * dx - sb * dy, cy + sb * dx + cb * dy
            # written so that a NaN sum, or a NaN limit, fails the test too
            if not (inside or dx * dx + dy * dy <= limit):
                a0, a1 = domain.project(np.array([a0, a1])).tolist()
                b0, b1 = domain.project(np.array([b0, b1])).tolist()
                fell = True
            if w is None:
                x0, x1 = kappa * a0 + lam * b0 + rest * x0, kappa * a1 + lam * b1 + rest * x1
            else:
                x0, x1 = h * (a0 + b0) + w * u0, h * (a1 + b1) + w * u1
        first, n, xn = n, n + size, (x0, x1)
        before = out[-2:]
        rows = np.fromiter(out, float, 2 * size + 2).reshape(size + 1, 2)
        xs = rows[1:]
        keep = [m - first for m in KEPT[bisect_left(KEPT, first):bisect_left(KEPT, n - 1)]] + [size - 1]
        if fell or cfg.record_all or len(keep) == size or not g * _row_norms(xs - domain.center).min() > floor:
            return xs, *_block_norms(rows[:-1], xs, *op_pair(xs, inside=not fell))
        pair, step = np.full((2, size), math.nan)
        pair[keep], step[keep] = _block_norms(rows[:-1][keep], xs[keep], *op_pair(xs[keep], inside=True))
        return xs, pair, step

    return take


def _drive(spec, cfg, tag, iterates, track_fejer=False, inner=None):
    """The setup and loop all schemes share: record each iterate and decide when to stop.

    Checks the anchor cfg.u wherever one is given (a tag of _ANCHORED needs
    one), then cfg.start (for a tag of ROW_SCHEMES also a (B, d) array of B
    starts), once each and under its own name, takes n_max = cfg.max_iter
    or DEFAULT_MAX_ITER[tag], and warns on a (near-)rational pair.
    ``iterates(x0, n_max, op_alpha, op_beta, op_pair)`` gets the checked
    start as a float array and unchecked kernels of T(alpha), T(beta) and
    x -> (T(alpha)x, T(beta)x): every iterate is a convex combination of
    the checked start and anchor and of projected images.  Its generator
    yields x_1, x_2, ... and is sent (T(alpha)x_n, T(beta)x_n) for the x_n
    it yielded last.

    The iterates are taken a block at a time: from _array_blocks, or,
    when ``iterates`` is a _Rule, the start is one point and the flow is a
    d=2 rotation on a ball that is not wide (Ball.wide), from
    _float_blocks, on Python floats with the same pair kernel.  A block's
    pair residuals and step norms come from _block_norms (_wide_norms on a
    wide ball, as do the Fejer distances); one numpy test of them
    (_stops), or two float comparisons for a block of one iterate, finds
    its first converged iterate, and the recorder takes the block up to it
    in one _Recorder.add_block call, which counts its Fejer rises and
    records only the kept iterates and the last it took.  The run stops
    on an inner-solver failure (``inner`` holds the implicit scheme's
    (sweeps, residual, solved) per step), on convergence or at n_max, and
    the report is bit for bit the one a test of each x_n in turn, with two
    _norm calls, gives.

    After n iterates a ROW_SCHEMES run takes a block of
    min(DRIVE_BLOCK, max(8, n // 8)) more on arrays, and of
    min(FLOAT_BLOCK, max(8, n)) on floats, and discards its iterates past
    a stop: fewer than max(8, n // 8), or max(8, n).  The other schemes
    take blocks of 1, so none runs ahead: their step n costs O(n)
    operator applications or more (O(n^2) for suzuki_averaged_mann), and
    the implicit scheme's inner failure must stop the run at once.  A
    whole float block of FLOAT_BLOCK iterates costs about 110 us of numpy
    calls outside its loop and 40 us for its weights, against about
    0.5 us an iterate in the loop (2-CPU Xeon, Python 3.11, numpy 2.4),
    so float blocks double; a cap keeps a block's arrays from adding to a
    long run's peak memory.  _float_blocks proves the bounds that let a
    block skip its interior tests and most of its norms.  From one start,
    when the fixed set is a single point (its basis is empty), a block's
    Fejer distances are taken in one fixed_set_distance call on its rows,
    which gives each iterate's distance alone bit for bit; on any other
    fixed set the recorder takes them one iterate at a time.

    B starts are iterated as the rows of one array, through the same
    blocks.  Each row has its own _Recorder, which takes the row's column
    of each block through the same add_block until its own termination,
    and for the Fejer count the distances of a (B, d) iterate's rows are
    taken with one fixed_set_distance call.  A row that has ended is still
    updated, but no longer recorded, until every row has ended.  Returns one report, or one per row.
    """
    if cfg.u is not None or tag in _ANCHORED:
        _require_point(spec, cfg, "u", tag)
    x0 = _require_point(spec, cfg, "start", tag, rows=tag in ROW_SCHEMES)
    n_max = DEFAULT_MAX_ITER[tag] if cfg.max_iter is None else int(cfg.max_iter)
    _checked_pair(cfg.alpha, cfg.beta)
    op_pair = _pair_kernel(spec, cfg.alpha, cfg.beta)
    wide = spec.domain.wide
    one_rule = isinstance(iterates, _Rule) and x0.ndim == 1 and not wide
    take = _float_blocks(spec, cfg, iterates, x0, op_pair) if one_rule else None
    floats = take is not None
    if not floats:
        orbit = iterates(x0, n_max, _kernel(spec, cfg.alpha), _kernel(spec, cfg.beta), op_pair)
        take = _array_blocks(orbit, op_pair, _wide_norms if wide else _row_norms)
    recs = [_Recorder(spec, track_fejer, cfg.record_all) for _ in range(len(x0) if x0.ndim == 2 else 1)]
    fs = recs[0].fixed_set
    ends = [MAX_ITER] * len(recs)
    live = range(len(recs))
    tol = cfg.tol
    cap, growth = (FLOAT_BLOCK, 1) if floats else (DRIVE_BLOCK, 8)
    n = 0
    while live and n < n_max:
        size = min(n_max - n, cap, max(8, n // growth)) if tag in ROW_SCHEMES else 1
        xs, pair, step = take(size)
        stops = [int(pair.item(0) <= tol and step.item(0) <= tol)] if pair.size == 1 else _stops(pair, step, tol)
        if x0.ndim == 1:
            # with no basis, one call on the rows gives each iterate's _norm bit for bit
            fsd = fixed_set_distance(fs, np.asarray(xs), wide).tolist() if track_fejer and not fs.basis.size else None
            runs = [(xs, pair, step, fsd)]
        else:
            fsd = [fixed_set_distance(fs, x, wide).tolist() for x in xs] if track_fejer else None
            runs = list(zip(zip(*xs), pair.T.tolist(), step.T.tolist(), zip(*fsd) if fsd else itertools.repeat(None)))
        for i in live:
            recs[i].add_block(n + 1, *runs[i], stops[i])
            if stops[i]:
                ends[i] = CONVERGED
        n += size
        if inner is not None and not inner[-1][2]:
            ends = [INNER_SOLVER_FAILURE]
        live = [i for i in live if ends[i] == MAX_ITER]
    reports = [rec.finish(tag, end, inner) for rec, end in zip(recs, ends)]
    return reports if x0.ndim == 2 else reports[0]


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
    return _drive(spec, cfg, "mann", _Rule(mix=(cfg.kappa, cfg.lam, 1.0 - cfg.kappa - cfg.lam)), track_fejer=True)


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

def _banach_solve(step_map, z0, tol, cap, contraction, norm=_norm):
    """Fixed-point iteration of a contraction, with an a-priori budget.

    The residual ||step_map(z) - z|| shrinks at least by ``contraction``
    per sweep, so the number of sweeps needed is estimated up front; the
    contraction used in that estimate is floored away from 1 (anchor weight
    held >= INNER_LAMBDA_FLOOR), which bounds the budget but makes stalls
    under extremely small anchor weights fail fast and visibly instead of
    spinning against the hard cap.

    The residual is taken with ``norm``: _norm, or on a wide ball
    _wide_norms.  Returns (point, sweeps_used, final_residual, converged).
    """
    z = np.asarray(z0, dtype=float)
    fz = step_map(z)
    r = norm(fz - z)
    if r <= tol:
        return fz, 0, r, True
    q = min(contraction, 1.0 - INNER_LAMBDA_FLOOR)
    estimate = int(math.ceil(math.log(tol / r) / math.log(q))) + 16
    budget = min(int(cap), estimate)
    sweeps = 0
    while r > tol and sweeps < budget:
        z = fz
        fz = step_map(z)
        r = norm(fz - z)
        sweeps += 1
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
    if cfg.start is None:
        cfg = replace(cfg, start=cfg.u)
    inner = []
    norm = _wide_norms if spec.domain.wide else _norm

    def iterates(x, _, __, ___, op_pair):
        for n in itertools.count(1):
            lam_n = cfg.schedule(n)
            pull = lam_n * cfg.u
            half = 0.5 * (1.0 - lam_n)

            def step_map(z):
                ta, tb = op_pair(z)
                return half * (ta + tb) + pull

            x, sweeps, r, ok = _banach_solve(step_map, x, cfg.inner_tol, cfg.inner_cap, 1.0 - lam_n, norm)
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
    return _drive(spec, cfg, "halpern", _Rule(weight=cfg.schedule, anchor=cfg.u))


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

# the schemes that need an anchor u; _drive checks one given to any scheme
_ANCHORED = ("browder_implicit", "halpern")


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
    reports, one per row, in row order.  On a rotation or decay flow each
    equals run_scheme's report for that row alone bit for bit.  A heat
    flow's rows round differently, so a row may stop one iterate earlier
    or later than its run alone; the records both keep agree within
    rounding.  Raises ValueError for another scheme or a start that is
    not a (B, d) array.
    """
    fn = _scheme(tag)
    if tag not in ROW_SCHEMES:
        raise ValueError(f"{tag} cannot run rows of starts; choose from {list(ROW_SCHEMES)}")
    if cfg.start is None or cfg.start.ndim != 2:
        raise ValueError("run_rows needs start as a (B, d) array")
    return fn(spec, cfg)
