"""Executable membership checks for common fixed points.

A point x is a common fixed point of the family exactly when its residual
||T(t)x - x|| vanishes at every time t.  For an irrational ratio of the two
sample times the pair alone suffices, which ``residual_pair`` measures.
``residual_profile`` takes the residual over a time grid, which also shows
where a rational pair's residual vanishes at a point the family moves, and
``certify_common_fixed`` combines the two into a verdict.  ``bruck_map``
is the averaged two-operator map whose fixed points are the pair's common
fixed points.  A profile's point-free part is cached (``_plan``).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from semiflow.semigroups import (
    HEAT, INTERIOR_MARGIN, _checker, _orbit_blocks, _pair_kernel, _stacked, pair_operator,
)
# evaluate and euclid_sequence are not called here: the benchmark's tracer
# (bench/spans.py) wraps them under this module's name
from semiflow.semigroups import evaluate  # noqa: F401
from semiflow.stepseq import check_pair, euclid_sequence  # noqa: F401
from semiflow.vecspace import _norm, _scalar, _wide_norms

__all__ = [
    "NearRationalWarning",
    "ResidualProfile",
    "Certificate",
    "residual_pair",
    "residual_profile",
    "default_profile_grid",
    "bruck_map",
    "certify_common_fixed",
    "profile_tolerance",
]

# a ratio at or above this, or one within 1/(this * q^2) of some p/q, is
# numerically indistinguishable from a rational (see _near_rational)
NEAR_RATIONAL_QUOTIENT = 10**8

# profile plans kept at once; one plan of the 504-time default grid on a
# d=64 heat flow holds about 258 KB of factors and 4 KB of screen weights
PLAN_CACHE_SIZE = 8

# times a profile grid may hold: 200 times the default grid's 505; an orbit
# of this many d=64 points takes 51 MB
MAX_GRID_TIMES = 100_000

_PACKAGE_DIR = os.path.dirname(__file__)


class NearRationalWarning(UserWarning):
    """The ratio of the sample times is (numerically) close to rational."""


@functools.lru_cache  # bounded: the last 128 pairs
def _near_rational(alpha, beta):
    """Whether the pair's ratio is within rounding of a small rational.

    Let x be the exact ratio large/small of the two floats, u the ulp of
    the float quotient large/small, and K = NEAR_RATIONAL_QUOTIENT = 1e8.
    The pair is flagged when large >= K*small, or when some p/q with

        |x - p/q| <= max(1/(K*q^2), 4*u)

    has q <= 100 or 1/(K*q^2) >= 4*u: the ulp term covers the rounding of
    the two floats for small q, and no larger q is tried whose own bound
    falls below it.  Every p/q within 1/(2q^2) of x is a convergent of x
    (Legendre), so only convergents are checked, in integers: with
    x = n/d, the remainder r left after convergent p/q gives
    |x - p/q| = r/(d*q) exactly.  The verdict depends on the pair alone
    and is cached.
    """
    small, large = sorted((alpha, beta))
    if large >= NEAR_RATIONAL_QUOTIENT * small:
        return True
    (nl, dl), (ns, ds) = large.as_integer_ratio(), small.as_integer_ratio()
    # x = n/d; w = 1/(4u), an integer power of two since x < 1e8
    n, d, w = nl * ds, dl * ns, int(0.25 / math.ulp(large / small))
    q_max = max(100, math.isqrt(w // NEAR_RATIONAL_QUOTIENT))
    d0, q_prev, q = d, 1, 0
    while True:
        a, r = divmod(n, d)
        q_prev, q = q, a * q + q_prev
        if q > q_max:
            return False
        if r * q * NEAR_RATIONAL_QUOTIENT <= d0 or r * w <= d0 * q:
            return True
        n, d = d, r


def _checked_pair(alpha, beta):
    """check_pair(alpha, beta), with a NearRationalWarning at the first calling
    frame outside this package if _near_rational flags the pair."""
    alpha, beta = check_pair(alpha, beta)
    if _near_rational(alpha, beta):
        frame, level = sys._getframe(), 1
        while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"sample times {alpha} and {beta} have a (near-)rational ratio; "
            "pair residuals alone cannot certify a common fixed point",
            NearRationalWarning,
            stacklevel=level,
        )
    return alpha, beta


@dataclass(frozen=True)
class ResidualProfile:
    """Residuals ||T(t)x - x|| over a time grid, plus the pair residual."""

    grid: tuple
    residuals: tuple
    pair_residual: float

    @functools.cached_property  # a scan of the whole grid; argmax_t reads it too
    def max_residual(self):
        return max(self.residuals)

    @property
    def argmax_t(self):
        return self.grid[self.residuals.index(self.max_residual)]


@dataclass(frozen=True)
class Certificate:
    """Verdict of certify_common_fixed, with the numbers behind it."""

    pair_residual: float
    max_profile_residual: float
    argmax_t: float
    verdict: str  # "certified" | "not_certified"
    tol: float
    profile_tol: float

    def to_dict(self):
        return asdict(self)


def residual_pair(spec, x, alpha, beta):
    """max(||T(alpha)x - x||, ||T(beta)x - x||) for the two sampled times."""
    alpha, beta = _checked_pair(alpha, beta)
    x = np.asarray(x, dtype=float)
    return _pair_residual(x, *pair_operator(spec, alpha, beta)(x), spec.domain.wide)


def _pair_residual(x, ta, tb, wide=False):
    """max(||T(alpha)x - x||, ||T(beta)x - x||) from the images ta and tb, by
    vecspace._wide_norms with ``wide`` (a wide domain's point)."""
    norm = _wide_norms if wide else _norm
    return max(norm(ta - x), norm(tb - x))


def default_profile_grid(alpha, beta, stop=5.0, step=0.01, start=0.0):
    """The sorted distinct times of a uniform grid on [start, stop] and of alpha,
    beta, alpha+beta and |alpha-beta|.  A uniform part of more than
    MAX_GRID_TIMES times, or a step that is not positive and finite, raises
    ValueError before anything is allocated.
    """
    alpha, beta = check_pair(alpha, beta)
    step = _scalar("step", step)
    if not (stop + 0.5 * step - start) / step <= MAX_GRID_TIMES:  # an inf or nan count fails too
        raise ValueError(f"grid {start}:{stop}:{step} has more than MAX_GRID_TIMES = {MAX_GRID_TIMES} times")
    base = np.arange(start, stop + 0.5 * step, step)
    extra = [alpha, beta, alpha + beta, abs(alpha - beta)]
    # sorted and deduplicated by hand: np.unique imports numpy.ma, about
    # 1.3 MB of resident memory, on its first call
    grid = np.sort(np.concatenate([base, extra]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    return grid[grid >= 0.0]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(spec, alpha, beta, grid):
    """The point-free part of a residual profile of (spec, alpha, beta) on a grid,
    given as its float64 bytes or None for the default grid; spec is keyed by
    identity.  An empty or invalid grid raises, and nothing is cached for it.

    Returns (times as a tuple of floats, enter, blocks, pair, screen).
    enter(x) checks x as orbit()'s callable does and returns (x as a float
    array, whether it passes the interior test, its lift); blocks are
    semigroups._orbit_blocks' and pair is semigroups._pair_kernel's.  screen
    is None, or for a heat flow of more than one block the (blocks, d)
    weights (1 - e^{-t w})^2 at each block's largest time t (see _profile).
    """
    times = default_profile_grid(alpha, beta) if grid is None else np.frombuffer(grid)
    if times.size == 0:  # _orbit_blocks() accepts an empty grid and checks the times
        raise ValueError("the profile grid must contain at least one time")
    lift, blocks = _orbit_blocks(spec, times)
    screen = None
    if spec.kind == HEAT and len(blocks) > 1:
        tops = np.array([times[at].max() for at, _ in blocks])
        screen = np.square(np.expm1(-tops[:, None] * spec.eigvals))
    check = _checker(spec, rows=False)

    def enter(x):
        x = np.asarray(x, dtype=float)
        return x, check(x), lift(x)

    return tuple(times.tolist()), enter, blocks, _pair_kernel(spec, alpha, beta), screen


def _profile(spec, x, grid, alpha, beta, screened):
    """(times, pair residual, residuals, first) for a profile of x, entered once
    by the plan: residuals holds ||T(t)x - x|| from the orbit's rows over the
    kept blocks, in order, first the grid index of its first entry; on a wide
    domain both residuals are vecspace._wide_norms.  Every block is kept,
    unless ``screened`` asks for only the blocks that can hold the profile's
    maximum, which on a heat flow drops the blocks that the spectrum rules out:

    On heat, r(t)^2 = sum_k (1 - e^{-t w_k})^2 y_k^2 with y = V^T x and
    every w_k >= 0, so r is nondecreasing in t, and no residual of a block
    exceeds r at the block's largest time.  That bound s_b is one row of
    the plan's screen times y^2; the largest, s_top, is the bound of the
    block that holds the grid's largest time.  When x passes the interior
    test, ||x|| <= R(1 - INTERIOR_MARGIN) < R and no orbit row is
    projected, and the orbit's and the spectrum's residuals each lie within
    INTERIOR_MARGIN * ||x|| of r, so within delta = INTERIOR_MARGIN * R, a
    tolerance that needs no norm of x.  A block with s_b < s_top - 4 delta
    then holds residuals below s_b + 2 delta < s_top - 2 delta, and the
    orbit's residual at the largest time is at least s_top - 2 delta, so
    the block can neither hold the maximum nor tie it.  The blocks from the
    first to the last that this rule keeps are computed, a contiguous run
    (on a sorted grid, the last blocks).  Any other point or family keeps
    every block.
    """
    alpha, beta = _checked_pair(alpha, beta)
    if grid is not None:
        grid = np.asarray(grid, dtype=float).ravel().tobytes()
    times, enter, blocks, pair, screen = _plan(spec, alpha, beta, grid)
    x, inside, lifted = enter(x)
    if screened and inside and screen is not None:
        bounds = np.sqrt(screen @ (lifted * lifted))
        kept = np.flatnonzero(bounds >= bounds.max() - 4.0 * INTERIOR_MARGIN * spec.domain.radius)
        blocks = blocks[kept[0]:kept[-1] + 1]
    moved = _stacked(blocks, x, lifted, None if inside else spec.domain.project)
    moved -= x
    wide = spec.domain.wide
    residuals = _wide_norms(moved) if wide else np.sqrt(np.einsum("ij,ij->i", moved, moved))
    return times, _pair_residual(x, *pair(x, lifted, inside), wide), residuals, blocks[0][0].start


def residual_profile(spec, x, grid, alpha, beta):
    """||T(t)x - x|| for every t of the grid (None: default_profile_grid(alpha, beta)),
    from the rows of orbit(spec, grid, x), with residual_pair's pair residual.
    Raises ValueError for an invalid pair, grid or point.
    """
    times, pair_residual, residuals, _ = _profile(spec, x, grid, alpha, beta, screened=False)
    return ResidualProfile(grid=times, residuals=tuple(residuals.tolist()), pair_residual=pair_residual)


def bruck_map(spec, alpha, beta, lam):
    """The averaged map U x = lam*T(alpha)x + (1-lam)*T(beta)x for lam in (0, 1)
    (ValueError otherwise): nonexpansive, its fixed points are exactly the points
    fixed by both T(alpha) and T(beta)."""
    alpha, beta = _checked_pair(alpha, beta)
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"averaging weight must lie strictly in (0, 1), got {lam}")
    op_pair = pair_operator(spec, alpha, beta)

    def averaged(x):
        ta, tb = op_pair(x)
        return lam * ta + (1.0 - lam) * tb

    return averaged


def profile_tolerance(tol):
    """The profile's tolerance, max(1e-6, 1e3 * tol): a grid time composes many
    applications' worth of rounding."""
    return max(1e-6, 1e3 * float(tol))


def certify_common_fixed(spec, x, alpha, beta, grid=None, tol=1e-8):
    """Certify x as a common fixed point of the family.

    The verdict is ``certified`` iff the pair residual is <= tol and the
    worst residual over the grid (default_profile_grid(alpha, beta) if None)
    is <= profile_tolerance(tol).  Its numbers are residual_profile's pair
    residual, maximum and argmax_t bit for bit, from only the orbit blocks
    that _profile's screen keeps.
    """
    tol = _scalar("tol", tol)
    times, pair_residual, residuals, first = _profile(spec, x, grid, alpha, beta, screened=True)
    # numpy's argmax is the first index of the maximum, as tuple.index is,
    # and a dropped block holds no residual that ties it
    i = int(residuals.argmax())
    top = float(residuals[i])
    ptol = profile_tolerance(tol)
    certified = pair_residual <= tol and top <= ptol
    return Certificate(
        pair_residual=pair_residual,
        max_profile_residual=top,
        argmax_t=times[first + i],
        verdict="certified" if certified else "not_certified",
        tol=tol,
        profile_tol=ptol,
    )
