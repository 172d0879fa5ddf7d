"""Finite-dimensional Euclidean primitives shared by the whole package.

Points are 1-D float64 numpy arrays (a bare scalar is promoted to a
1-vector).  Domains are closed convex sets, either a ball or an axis-aligned
box, with exact exterior distances and metric projections.  The symmetric
eigensolver checks its input and hands the matrix to LAPACK through
``numpy.linalg.eigh``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HARD_DIM_CAP",
    "max_dim",
    "as_point",
    "combine",
    "dist",
    "Ball",
    "Box",
    "sym_eigendecompose",
]

HARD_DIM_CAP = 64
_DIM_ENV_VAR = "SEMIFLOW_MAX_DIM"

# weights of an affine/convex combination must sum to 1 within this slack
WEIGHT_SUM_TOL = 1e-12


def max_dim():
    """Return the current dimension cap.

    The hard cap is 64.  The environment variable ``SEMIFLOW_MAX_DIM`` may
    lower it for constrained environments; it can never raise it.
    """
    cap = HARD_DIM_CAP
    raw = os.environ.get(_DIM_ENV_VAR)
    if raw is not None:
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(
                f"{_DIM_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
        if requested < 1:
            raise ValueError(f"{_DIM_ENV_VAR} must be >= 1, got {requested}")
        cap = min(cap, requested)
    return cap


def as_point(coords):
    """Validate ``coords`` as a point and return it as a read-only float64 vector.

    Accepts any sequence of reals (or a bare scalar).  Entries must be
    finite and the dimension must lie in [1, max_dim()].
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {x.shape}")
    if x.size < 1:
        raise ValueError("a point needs at least one coordinate")
    if x.size > max_dim():
        raise ValueError(f"dimension {x.size} exceeds the cap {max_dim()}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    out = x.copy()
    out.flags.writeable = False
    return out


def combine(weights, points):
    """Affine combination sum_i w_i p_i of equal-dimension points.

    The weights must sum to 1 within 1e-12; with nonnegative weights this is
    the convex combination used throughout the iteration schemes.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("combine needs at least one point")
    d = pts[0].size
    for p in pts[1:]:
        if p.size != d:
            raise ValueError("combine: dimension mismatch between points")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(pts):
        raise ValueError("combine: one weight per point is required")
    if not np.all(np.isfinite(w)):
        raise ValueError("combine: weights must be finite")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"combine: weights sum to {w.sum()!r}, expected 1")
    return w @ np.stack(pts)


def _norm(v):
    """Euclidean norm of a 1-D float vector, bit for bit what numpy.linalg.norm returns."""
    return math.sqrt(v.dot(v))


def dist(a, b):
    """Euclidean distance between two points of equal dimension."""
    x = as_point(a)
    y = as_point(b)
    if x.size != y.size:
        raise ValueError("dist: dimension mismatch")
    return float(np.linalg.norm(x - y))


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self):
        return self.center.size

    def exterior_distance(self, x):
        """Distance from x to the ball (0 when inside)."""
        return max(0.0, _norm(np.asarray(x, float) - self.center) - self.radius)

    def contains(self, x, slack=0.0):
        return self.exterior_distance(x) <= slack

    def project(self, x):
        """Metric projection onto the ball.  Interior points pass through unchanged."""
        x = np.asarray(x, dtype=float)
        offset = x - self.center
        nrm = _norm(offset)
        if nrm <= self.radius:
            return x
        return self.center + offset * (self.radius / nrm)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned closed box {x : lower_i <= x_i <= upper_i}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper))
        if self.lower.size != self.upper.size:
            raise ValueError("box bounds must have equal dimension")
        if not np.all(self.lower < self.upper):
            raise ValueError("box needs lower < upper in every coordinate")

    @property
    def dim(self):
        return self.lower.size

    def exterior_distance(self, x):
        x = np.asarray(x, dtype=float)
        return _norm(np.clip(x, self.lower, self.upper) - x)

    def contains(self, x, slack=0.0):
        return self.exterior_distance(x) <= slack

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


def sym_eigendecompose(matrix):
    """Eigendecomposition of a small dense symmetric matrix (LAPACK ``eigh``).

    Parameters
    ----------
    matrix : (d, d) array_like, symmetric within 1e-12, d <= max_dim()

    Returns
    -------
    (eigvals, eigvecs) : eigenvalues ascending, eigenvectors as the columns
    of an orthonormal matrix, so that A @ V ~= V @ diag(w).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if d < 1 or d > max_dim():
        raise ValueError(f"matrix dimension {d} outside [1, {max_dim()}]")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    # symmetrize so the tolerated asymmetry cannot bias the solver
    return np.linalg.eigh(0.5 * (a + a.T))
