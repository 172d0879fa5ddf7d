"""Executable membership checks for common fixed points.

A candidate point x is a common fixed point of the family exactly when its
residual vanishes at every time.  With an irrational ratio between two
sample times alpha and beta, checking the pair alone suffices, and that is
what ``residual_pair`` measures.  ``residual_profile`` evaluates the
residual over a whole time grid, which is the honest cross-check: for a
rational ratio the pair residual can vanish at a point that the rest of
the family moves (see the profile examples in the tests).
``certify_common_fixed`` combines the two into a verdict, and ``bruck_map``
builds the averaged two-operator map whose fixed points are exactly the
common fixed points of the pair on strictly convex spaces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from semiflow.semigroups import evaluate
from semiflow.stepseq import BELOW_TOL, check_pair, euclid_sequence

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

# a continued-fraction quotient at or above this makes the ratio
# numerically indistinguishable from a rational
NEAR_RATIONAL_QUOTIENT = 10**8


class NearRationalWarning(UserWarning):
    """The ratio of the sample times is (numerically) close to rational."""


def _warn_if_near_rational(alpha, beta):
    """Probe alpha/beta with the remainder recursion and warn on huge quotients.

    Only alpha != beta is enforced as a hard precondition; actual
    irrationality is undecidable in floats, so a short continued-fraction
    probe looks for the signature of a rational ratio: a remainder of
    exactly zero, or a quotient >= 1e8.
    """
    probe = euclid_sequence(alpha, beta, tol=1e-12, max_terms=64)
    rational_hit = probe.termination == BELOW_TOL and probe.alphas[-1] == 0.0
    big = max(probe.ks, default=0)
    if rational_hit or big >= NEAR_RATIONAL_QUOTIENT:
        warnings.warn(
            f"sample times {alpha} and {beta} have a (near-)rational ratio; "
            "pair residuals alone cannot certify a common fixed point",
            NearRationalWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class ResidualProfile:
    """Residuals ||T(t)x - x|| over a time grid, plus the pair residual."""

    grid: tuple
    residuals: tuple
    pair_residual: float

    @property
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
    alpha, beta = check_pair(alpha, beta)
    _warn_if_near_rational(alpha, beta)
    x = np.asarray(x, dtype=float)
    ra = float(np.linalg.norm(evaluate(spec, alpha, x) - x))
    rb = float(np.linalg.norm(evaluate(spec, beta, x) - x))
    return max(ra, rb)


def default_profile_grid(alpha, beta, stop=5.0, step=0.01, start=0.0):
    """Uniform grid on [start, stop] plus the pair-derived times.

    The extra points alpha, beta, alpha+beta and |alpha-beta| make the
    profile sensitive to structure at the sampled times themselves.
    """
    alpha, beta = check_pair(alpha, beta)
    base = np.arange(start, stop + 0.5 * step, step)
    extra = [alpha, beta, alpha + beta, abs(alpha - beta)]
    grid = np.unique(np.concatenate([base, extra]))
    return grid[grid >= 0.0]


def residual_profile(spec, x, grid, alpha, beta):
    """Evaluate ||T(t)x - x|| on every t of the grid."""
    alpha, beta = check_pair(alpha, beta)
    _warn_if_near_rational(alpha, beta)
    x = np.asarray(x, dtype=float)
    times = [float(t) for t in np.asarray(grid, dtype=float).ravel()]
    if not times:
        raise ValueError("the profile grid must contain at least one time")
    if any(not (t >= 0 and math.isfinite(t)) for t in times):
        raise ValueError("profile grid times must be finite and nonnegative")
    residuals = tuple(float(np.linalg.norm(evaluate(spec, t, x) - x)) for t in times)
    ra = float(np.linalg.norm(evaluate(spec, alpha, x) - x))
    rb = float(np.linalg.norm(evaluate(spec, beta, x) - x))
    return ResidualProfile(grid=tuple(times), residuals=residuals, pair_residual=max(ra, rb))


def bruck_map(spec, alpha, beta, lam):
    """The averaged two-operator map U x = lam*T(alpha)x + (1-lam)*T(beta)x.

    For lam strictly inside (0, 1), U is nonexpansive and its fixed points
    are exactly the points fixed by both T(alpha) and T(beta); the strict
    interior requirement is what makes the averaging see both operators.
    Returns a closure suitable for plugging into generic fixed-point code.
    """
    alpha, beta = check_pair(alpha, beta)
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"averaging weight must lie strictly in (0, 1), got {lam}")
    _warn_if_near_rational(alpha, beta)

    def operator(x):
        x = np.asarray(x, dtype=float)
        return lam * evaluate(spec, alpha, x) + (1.0 - lam) * evaluate(spec, beta, x)

    return operator


def profile_tolerance(tol):
    """Profile residuals are held to a coarser tolerance than the pair.

    Grid times compose many applications' worth of rounding, so the profile
    gate is three orders of magnitude looser, floored at 1e-6.
    """
    return max(1e-6, 1e3 * float(tol))


def certify_common_fixed(spec, x, alpha, beta, grid=None, tol=1e-8):
    """Certify x as a common fixed point of the family.

    The verdict is ``certified`` iff the pair residual is <= tol and the
    worst residual over the time grid is <= profile_tolerance(tol).  The
    grid defaults to default_profile_grid(alpha, beta).
    """
    tol = float(tol)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if grid is None:
        grid = default_profile_grid(alpha, beta)
    profile = residual_profile(spec, x, grid, alpha, beta)
    ptol = profile_tolerance(tol)
    certified = profile.pair_residual <= tol and profile.max_residual <= ptol
    return Certificate(
        pair_residual=profile.pair_residual,
        max_profile_residual=profile.max_residual,
        argmax_t=profile.argmax_t,
        verdict="certified" if certified else "not_certified",
        tol=tol,
        profile_tol=ptol,
    )
