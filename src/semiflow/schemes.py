"""Iteration schemes that locate a common fixed point of the family from
its two sampled operators T(alpha) and T(beta).

Every scheme takes a ``SemigroupSpec`` and an ``IterationConfig`` and
returns a ``ConvergenceReport``.  A run converges at its first iterate
whose pair residual max(||T(alpha)x - x||, ||T(beta)x - x||) and step norm
||x_n - x_{n-1}|| are both at most tol; early in an anchored run the pair
residual alone can be tiny far from stationarity.

The schemes:

* ``baillon_double``        x_n = (1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x
* ``baillon_power_average`` x_n = (1/n) sum_{k=1..n} M^k x, M the midpoint map
* ``mann``                  x <- kappa*T(alpha)x + lam*T(beta)x + (1-kappa-lam)*x
* ``suzuki_averaged_mann``  x <- lam*(n-by-n double average at x) + (1-lam)*x
* ``ishikawa_composed``     x <- outer average of (inner average)^n applied to x
* ``browder_implicit``      x_n solves x = ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u
* ``halpern``               x <- ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u

The anchored schemes take their weights lam_n from a ``Schedule``.
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
# Python floats, whose loop steps cost far less than a block's numpy calls
DRIVE_BLOCK = 256
FLOAT_BLOCK = 4096

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

    kind "harmonic" has p = 1 and kind "power" p in (0, 1]: weights in
    (0, 1) that decrease to zero with a divergent sum and summable
    successive differences, as the anchored schemes need.
    """

    kind: str
    offset: int
    p: float = 1.0

    def __call__(self, n):
        k = n + self.offset
        return 1.0 / k if self.p == 1.0 else k ** -self.p

    def block(self, n, size):
        """[lam_m for m in range(n, n + size)] as one float array, each weight __call__'s bits."""
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
    """One run's trace: the iterates in KEPT (all with record_all) and the
    last, and with track_fejer the count of steps on which the distance to
    the analytic fixed set rose by more than FEJER_SLACK."""

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
        """Take the iterates xs = x_n, x_{n+1}, ... of a block, up to its stop-th
        if stop (see _stops), else all, with their pair residuals, step norms
        and fixed-set distances fsd (None: taken here where needed); the Fejer
        count compares the first with the previous block's last."""
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
        # a thinned record copies its row of a float block's array, so that it keeps no whole block alive
        copy = isinstance(xs, np.ndarray) and not self.record_all
        for m in range(n, n + k) if self.record_all else KEPT[bisect_left(KEPT, n):bisect_left(KEPT, n + k)]:
            append(record(m, pair[m - n], step[m - n], xs[m - n].copy() if copy else xs[m - n], fs[m - n]))
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
    """cfg.<name> ("start" or "u") as a float array, checked by _checker under its own
    name: one point of the flow, or with ``rows`` a (B, d) array too; ValueError if unset."""
    x = getattr(cfg, name)
    if x is None:
        raise ValueError(f"{tag} needs a value for {name}")
    x = np.array(x, dtype=float)
    _checker(spec, rows, name, "the semigroup")(x)
    return x


@dataclass(frozen=True)
class _Rule:
    """The update of mann, kappa*a + lam*b + rest*x_n with mix = (kappa, lam, rest),
    or of halpern, h*(a + b) + w*u with w = weight(n) and h = 0.5*(1 - w), from
    x_n and a, b = T(alpha)x_n, T(beta)x_n.  Called, it is a scheme's array
    ``iterates`` (see _drive); _float_blocks does its IEEE operations on floats.
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
    """The pair residuals and step norms of a block's iterates, by norms (_row_norms, or
    _wide_norms): before holds the iterate before each (x_1 for x_1), ta and tb
    their images; a block of size (B, d) iterates gives (size, B) arrays."""
    return np.maximum(norms(ta - block), norms(tb - block)), norms(block - before)


def _stops(pair, step, tol):
    """For _block_norms' arrays of one run or of B, the index from 1 of each run's
    first iterate whose pair residual and step are both at most tol, or 0
    where none is (a NaN never is), as a list of ints."""
    hit = (pair <= tol) & (step <= tol)
    return np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0).reshape(-1).tolist()


def _array_blocks(orbit, op_pair, norms):
    """take(size) -> (iterates, pair residuals, step norms) of the next size iterates of
    orbit, points or (B, d) arrays of B of them, read into one array and tested
    with _block_norms by norms."""
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
    """_array_blocks for a _Rule from one start x of a d=2 rotation, on Python
    floats with the array path's bits, or None for any other flow.

    One generator step per iterate turns the offsets from the center c by
    _compile's (cos, sin) for both times, applies the interior test
    dx*dx + dy*dy <= r**2 of _interior_radius and the rule's update, in the
    IEEE operations of its array form (_Rule); halpern's weights h and
    anchor terms w*u0, w*u1 come for the whole block from numpy products,
    the same IEEE products, so a step adds them.  An iterate that fails the
    test (a NaN one, and every iterate of a ball without a test) passes each
    image to domain.project as a point, which gives _pair_kernel's bits.
    op_pair, the driver's pair kernel, then recomputes the block's images
    from its rows, projected only if some iterate failed the test.

    Two proved bounds let a block skip work with the same bits.  Write
    eps = 2^-53, R for the ball's radius, r for the test's radius and
    e = |x - c|, and take math.cos, math.sin and math.hypot within an ulp.
    A ball with a test has 2^-500 <= R <= 2^500 and |c| <= 2^20 R, so nothing
    overflows and an underflow errs by at most 2^-1074, far below eps R.  A
    computed image's offset from c lies within 5 eps e + eps |c| of the
    exact turn of x - c.

    * Interior proof.  The update is an affine combination of x_n's
      images and of u (halpern) or x_n (mann), with nonnegative weights
      that sum to 1 within 2 eps, rounded three times at most; so while
      every point lies within R of c,
      e(x_{n+1}) <= max(e(x_n), |u - c|) + 16 eps (|c| + R), where mann
      drops |u - c|.  A block of size iterates from x_n with a computed
      rho (1 + 32 eps) + size 32 eps (|c| + R) <= r (1 - 32 eps),
      rho = max(e(x_n), |u - c|), thus keeps every iterate within
      r (1 - 4 eps) of c, where the test's float sum of squares is at most
      r**2: its loop skips the test and projects nothing.  The factors of
      32 eps also cover the check's own roundings.
    * Norm screen.  A turn's matrix M has |(M - I)v| = g|v| for every v,
      g = hypot(cos - 1, sin), so where no iterate of a block was
      projected, an iterate's computed pair residual is at least
      g e (1 - 10 eps) - 5 eps (|c| + R) - 2^-534 (the norm's squares may
      underflow), g the larger over the pair's two turns.  The screen's
      offset e' is the square root of the block's least computed
      dx*dx + dy*dy; sqrt is monotone and correctly rounded, so for every
      iterate e' <= e (1 + 4 eps) + 2^-536 (the squares may underflow).  If
      g (1 - 32 eps) e' exceeds tol + 32 eps (|c| + R) + 2^-530, no iterate
      can stop; then, unless the run records every iterate, only the kept
      iterates (KEPT) and the block's last get images, pair residuals and
      step norms, which round as in the whole block.  Its other entries are
      NaN, which no record reads and _stops never takes for a stop.
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
    xn, n = before, 1

    # yields the coordinates of the iterate before the block and of its own, then the next's
    # (x0, x1, fell); the loop's constants are default arguments, fast locals, not closure cells
    def steps(hps, x0, x1, inside, prev, cx=cx, cy=cy, ca=ca, sa=sa, cb=cb, sb=sb, kappa=kappa, lam=lam,
              rest=rest, limit=limit):
        yield from prev
        fell = False
        for h, p0, p1 in hps:
            yield x0
            yield x1
            dx = x0 - cx
            dy = x1 - cy
            a0, a1 = cx + ca * dx - sa * dy, cy + sa * dx + ca * dy
            b0, b1 = cx + cb * dx - sb * dy, cy + sb * dx + cb * dy
            # written so that a NaN sum, or a NaN limit, fails the test too
            if not (inside or dx * dx + dy * dy <= limit):
                a0, a1 = domain.project(np.array([a0, a1])).tolist()
                b0, b1 = domain.project(np.array([b0, b1])).tolist()
                fell = True
            if h is None:
                x0, x1 = kappa * a0 + lam * b0 + rest * x0, kappa * a1 + lam * b1 + rest * x1
            else:
                x0, x1 = h * (a0 + b0) + p0, h * (a1 + b1) + p1
        yield x0, x1, fell

    def take(size):
        nonlocal before, xn, n
        if weight is None:
            hps = itertools.repeat((None,) * 3, size)
        else:  # halpern's h = 0.5 * (1 - w), w * u0 and w * u1, each taken for the block in one array operation
            ws = weight.block(n, size)
            hps = zip(*map(memoryview, (0.5 * (1.0 - ws), ws * u0, ws * u1)))
        inside = max(math.hypot(xn[0] - cx, xn[1] - cy), far) * (1.0 + slack) + size * drift <= r * (1.0 - slack)
        loop = steps(hps, *xn, inside, before)
        rows = np.fromiter(loop, float, 2 * size + 2).reshape(size + 1, 2)
        *xn, fell = next(loop)
        first, n, before = n, n + size, rows[-1].tolist()
        xs = rows[1:]
        keep = [m - first for m in KEPT[bisect_left(KEPT, first):bisect_left(KEPT, n - 1)]] + [size - 1]
        dx, dy = xs[:, 0] - cx, xs[:, 1] - cy
        if fell or cfg.record_all or len(keep) == size or not g * math.sqrt((dx * dx + dy * dy).min()) > floor:
            return xs, *_block_norms(rows[:-1], xs, *op_pair(xs, inside=not fell))
        pair, step = np.full((2, size), math.nan)
        pair[keep], step[keep] = _block_norms(rows[:-1][keep], xs[keep], *op_pair(xs[keep], inside=True))
        return xs, pair, step

    return take


def _drive(spec, cfg, tag, iterates, track_fejer=False, inner=None):
    """The setup and loop all schemes share: record each iterate and decide when to stop.

    Checks the anchor cfg.u wherever one is given (a tag of _ANCHORED needs
    one), then cfg.start (for a tag of ROW_SCHEMES also a (B, d) array of B
    starts), takes n_max = cfg.max_iter or DEFAULT_MAX_ITER[tag], and warns
    on a (near-)rational pair.  ``iterates(x0, n_max, op_alpha, op_beta,
    op_pair)`` gets the checked start and unchecked kernels of T(alpha),
    T(beta) and x -> (T(alpha)x, T(beta)x); its generator yields x_1, x_2,
    ... and is sent (T(alpha)x_n, T(beta)x_n) for the x_n it yielded last.
    ``inner`` holds the implicit scheme's (sweeps, residual, solved) per step.

    The iterates come a block at a time: from _float_blocks for a _Rule from
    one start on a ball that is not wide (Ball.wide), else from
    _array_blocks.  After n iterates a ROW_SCHEMES run takes
    min(DRIVE_BLOCK, max(8, n // 8)) more on arrays and
    min(FLOAT_BLOCK, max(8, n)) on floats; the other schemes take blocks
    of 1, since their step n costs O(n) applications or more and an inner
    failure must stop the run at once.  The run stops on an inner-solver
    failure, at the first converged iterate (_stops) or at n_max, and the
    report is bit for bit the one a test of each x_n in turn, with two
    _norm calls, gives.  B starts are the rows of one array, each with its
    own _Recorder, which takes the row's column of each block until its
    own end.  Returns one report, or one per row.
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
            # with no basis, one call on the rows gives each iterate's own distance bit for bit
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
    """Double ergodic average x_n = (1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x.

    Ring n of the power grid y[k, l] = T(alpha)^k T(beta)^l x adds the
    column y[1..n, n] and the row y[n, 1..n-1], so only a column and the
    frontier row are kept, in arrays that double as the rings need them:
    O(n) points for O(n^2) applications after n rings.
    """
    def iterates(x0, _, op_alpha, op_beta, __):
        col = np.empty((2, x0.size))  # col[k] = y[k, n]
        row = np.empty((2, x0.size))  # row[l] = y[n - 1, l], l < n
        col[0] = x0
        total = np.zeros(x0.size)
        for n in itertools.count(1):
            if n == len(col):
                col, row = (np.concatenate([a, np.empty_like(a)]) for a in (col, row))
            col[0] = op_beta(col[0])
            for k in range(1, n + 1):
                col[k] = op_alpha(col[k - 1])
            row[1:n] = op_alpha(row[1:n])
            total += col[1 : n + 1].sum(axis=0) + row[1:n].sum(axis=0)
            row[n] = col[n]
            yield total / (n * n)

    return _drive(spec, cfg, "baillon_double", iterates)


def baillon_power_average(spec, cfg):
    """Running average x_n = (1/n) sum_{k=1..n} z_k of the midpoint-map orbit
    z_k = ((T(alpha) + T(beta))/2)^k x."""
    def iterates(z, _, __, ___, op_pair):
        total = np.zeros(z.shape)
        for n in itertools.count(1):
            ta, tb = op_pair(z)
            z = 0.5 * (ta + tb)
            total += z
            yield total / n

    return _drive(spec, cfg, "baillon_power_average", iterates)


def _double_block_average(op_alpha, op_beta, x, n):
    """(1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x from the kernels op_alpha and op_beta."""
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
    """Two-operator averaged iteration x <- kappa*T(alpha)x + lam*T(beta)x +
    (1 - kappa - lam)*x, for kappa, lam > 0 with kappa + lam < 1 (ValueError
    otherwise).  The report counts the Fejer violations: rises of the
    distance to the fixed set beyond FEJER_SLACK, which should not occur.
    """
    if not (cfg.kappa > 0 and cfg.lam > 0):
        raise ValueError("kappa and lambda must be positive")
    if not cfg.kappa + cfg.lam < 1:
        raise ValueError("kappa + lambda must be < 1")
    return _drive(spec, cfg, "mann", _Rule(mix=(cfg.kappa, cfg.lam, 1.0 - cfg.kappa - cfg.lam)), track_fejer=True)


def suzuki_averaged_mann(spec, cfg):
    """x <- lam * [(1/n^2) sum_{k,l=1..n} T(k*alpha + l*beta) x] + (1-lam) * x, for
    lam in (0, 1) (ValueError otherwise); step n costs O(n^2) applications."""
    if not 0.0 < cfg.lam < 1.0:
        raise ValueError("lambda must lie strictly in (0, 1)")

    def iterates(x, _, op_alpha, op_beta, __):
        for n in itertools.count(1):
            yield x
            avg = _double_block_average(op_alpha, op_beta, x, n)
            x = cfg.lam * avg + (1.0 - cfg.lam) * x

    return _drive(spec, cfg, "suzuki_averaged_mann", iterates, track_fejer=True)


def ishikawa_composed(spec, cfg):
    """x <- W(V^n x) at step n, with V = kappa*T(beta) + (1-kappa)*I and
    W = lam*T(alpha) + (1-lam)*I, for kappa and lam in (0, 1) (ValueError
    otherwise)."""
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
    """Fixed-point iteration of step_map, a contraction by ``contraction``, from z0.

    Sweeps until the residual ||step_map(z) - z||, by ``norm``, is at most
    tol, within min(cap, the sweeps a contraction floored at
    1 - INNER_LAMBDA_FLOOR needs), so a stall fails fast.  Returns (point,
    sweeps_used, final_residual, converged).
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
    """Implicit anchored sequence: x_n solves
    x = ((1-lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u, a contraction by 1 - lam_n,
    by _banach_solve from x_{n-1} (x_0 = cfg.start, or u if None).  The report
    holds each solve's sweeps and residual; a solve that misses inner_tol
    ends the run with inner_solver_failure.
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
    """Explicit anchored iteration x <- ((1 - lam_n)/2)(T(alpha)x + T(beta)x) + lam_n*u
    with lam_n from the schedule: on an irrational pair the iterates approach
    the common fixed point nearest the anchor."""
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
    """Run a scheme of ROW_SCHEMES from every row of the (B, d) array cfg.start at
    once; returns one report per row, in row order (ValueError for another
    scheme or start).  On a rotation or decay flow each is run_scheme's report
    for that row alone bit for bit; a heat row rounds differently and may stop
    one iterate away, with the records both keep equal within rounding.
    """
    fn = _scheme(tag)
    if tag not in ROW_SCHEMES:
        raise ValueError(f"{tag} cannot run rows of starts; choose from {list(ROW_SCHEMES)}")
    if cfg.start is None or cfg.start.ndim != 2:
        raise ValueError("run_rows needs start as a (B, d) array")
    return fn(spec, cfg)
