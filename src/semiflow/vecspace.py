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

# a ball of radius above this may hold points whose offset from the center
# has a sum of squares that overflows (2^511 squared is 2^1022; see _rescaled)
WIDE_RADIUS = 2.0 ** 500


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


def _scalar(name, value, positive=True):
    """float(value), checked to be finite and positive (nonnegative if not ``positive``).

    Raises ValueError naming ``name``; NaN, infinities and, when positive,
    zero of either sign are rejected.
    """
    v = float(value)
    if not (0.0 < v < math.inf if positive else 0.0 <= v < math.inf):
        rule = "positive and finite" if positive else "finite and nonnegative"
        raise ValueError(f"{name} must be {rule}, got {v}")
    return v


def combine(weights, points):
    """Affine combination sum_i w_i p_i of equal-dimension points.

    The weights must sum to 1 within 1e-12; with nonnegative weights this is
    a convex combination.
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


def _row_norms(ys):
    """Euclidean norm of a 1-D float vector, or of every row of a (B, d) array.

    Each equals _norm of that vector or row bit for bit: numpy.vecdot and
    the 1-D dot reach the same BLAS dot kernel, which numpy.einsum does not.
    """
    return np.sqrt(np.vecdot(ys, ys))


def _rescaled(offset, nrm):
    """nrm, the norm of a 1-D offset or of each row of a (B, d) one, with
    every norm whose sum of squares overflowed to inf taken again as
    s ||offset / s||, s that offset's largest magnitude.

    Every finite or NaN norm keeps its bits; a 1-D offset's costs one
    comparison.
    """
    if nrm != math.inf if offset.ndim == 1 else not (nrm == math.inf).any():
        return nrm
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(offset).max(axis=-1, keepdims=True)
        return np.where(nrm == math.inf, s[..., 0] * _row_norms(offset / s), nrm)


def _wide_norms(v):
    """_norm of a 1-D v, as a float, or _row_norms of an array of rows,
    finite wherever v is: a norm whose sum of squares overflows is taken
    rescaled (_rescaled), with no overflow warning.

    The norms of differences of points of a ball wider than WIDE_RADIUS;
    each finite one keeps its bits.  A narrower ball's take _norm and
    _row_norms, which cost less.
    """
    with np.errstate(over="ignore"):
        return float(_rescaled(v, _norm(v))) if v.ndim == 1 else _rescaled(v, _row_norms(v))


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
        object.__setattr__(self, "radius", _scalar("radius", self.radius))

    @property
    def dim(self):
        return self.center.size

    @property
    def wide(self):
        """Whether the radius exceeds WIDE_RADIUS, so that a point inside may
        have an offset from the center whose sum of squares overflows."""
        return self.radius > WIDE_RADIUS

    def _norms(self, offset):
        """_rescaled(offset, _row_norms(offset)): the norm of one offset from
        the center or of each row's, finite wherever the offset is.

        On a wide ball the sums are taken without numpy's overflow warning
        (_wide_norms).  On a narrower ball only a point far outside has an
        offset whose sum overflows, and numpy warns of its overflow.
        """
        return _wide_norms(offset) if self.wide else _rescaled(offset, _row_norms(offset))

    def exterior_distance(self, x):
        """Distance from a point x to the ball, or the distances of the rows
        of a (B, d) array: 0 inside, NaN for a NaN coordinate."""
        return np.maximum(self._norms(np.asarray(x, float) - self.center) - self.radius, 0.0)

    def contains(self, x, slack=0.0):
        return self.exterior_distance(x) <= slack

    def project(self, x):
        """Metric projection onto the ball of one point, or of every row of a
        (B, d) array in place.

        A point inside is returned itself, and any other point as a new
        array; each row gets that arithmetic bit for bit.  A float64 array
        of rows is overwritten and returned; rows of any other type are
        first copied to a new float array.  A NaN point or row is not
        inside, and comes out NaN.  On a ball of radius up to WIDE_RADIUS,
        only a point or row outside has its norm tested for inf (_rescaled),
        so one inside costs no test.
        """
        x = np.asarray(x, dtype=float)
        offset = x - self.center
        if x.ndim == 1:
            nrm = _norm(offset) if self.radius <= WIDE_RADIUS else self._norms(offset)
            return x if nrm <= self.radius else self.center + offset * (self.radius / _rescaled(offset, nrm))
        nrm = _row_norms(offset) if self.radius <= WIDE_RADIUS else self._norms(offset)
        out = ~(nrm <= self.radius)
        if out.any():
            x[out] = self.center + offset[out] * (self.radius / _rescaled(offset[out], nrm[out]))[:, None]
        return x


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned closed box {x : lower_i <= x_i <= upper_i}."""

    lower: np.ndarray
    upper: np.ndarray
    wide = False  # a box takes the plain norms (see Ball.wide)

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
        """As Ball.exterior_distance, for the box."""
        x = np.asarray(x, dtype=float)
        return _row_norms(np.clip(x, self.lower, self.upper) - x)

    def contains(self, x, slack=0.0):
        return self.exterior_distance(x) <= slack

    def project(self, x):
        """Metric projection onto the box of one point, as a new array, or of
        every row of a (B, d) array in place, as Ball.project: a float64
        array of rows is overwritten and returned."""
        x = np.asarray(x, dtype=float)
        return np.clip(x, self.lower, self.upper, out=x if x.ndim == 2 else None)


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
