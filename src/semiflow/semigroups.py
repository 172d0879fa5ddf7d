"""Built-in one-parameter operator families T(t) on convex domains.

Three families are provided, each nonexpansive with a common fixed set that
is known in closed form, so every solver in this package can be checked
against ground truth:

* ``rotation`` - rigid rotation of the plane about a center, one full turn
  per ``period``.  In dimension d > 2 the rotation acts on the first two
  coordinates and leaves the rest alone.
* ``decay``    - componentwise shrink toward zero, T(t)x = max(x - t, 0),
  on a box [0, M]^d.
* ``heat``     - linear smoothing T(t)x = exp(-t A) x for a symmetric
  positive semidefinite A, on a ball centered at the origin.  The
  eigendecomposition of A is computed once and cached on the spec.

``operator(spec, t)`` compiles T(t) for one fixed time into a callable,
and ``evaluate(spec, t, x)`` applies it once; both are pure.  Points are
accepted when they sit within a small membership slack of the domain, and
every output is metrically projected back into the domain, so long
iteration loops cannot drift outside by accumulated rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from semiflow.vecspace import Ball, Box, _norm, as_point, max_dim, sym_eigendecompose

__all__ = [
    "MEMBERSHIP_SLACK",
    "SemigroupSpec",
    "FixedSetDescriptor",
    "rotation",
    "decay",
    "heat",
    "operator",
    "evaluate",
    "analytic_fixed_set",
    "fixed_set_distance",
    "from_descriptor",
]

ROTATION = "rotation"
DECAY = "decay"
HEAT = "heat"

# points may sit this far outside the domain and are still accepted;
# outputs are projected back inside
MEMBERSHIP_SLACK = 1e-9

# eigenvalues of a heat generator at or below this are treated as kernel
KERNEL_TOL = 1e-10

# smallest admissible generator eigenvalue; anything lower is rejected
PSD_TOL = -1e-12


@dataclass(frozen=True, eq=False)
class SemigroupSpec:
    """Immutable description of one built-in family, with cached spectra."""

    kind: str
    domain: Ball | Box
    center: np.ndarray | None = None   # rotation: center of the rotating plane
    period: float | None = None        # rotation: time for one full turn
    matrix: np.ndarray | None = None   # heat: the generator A
    eigvals: np.ndarray | None = None  # heat: eigenvalues of A, ascending
    eigvecs: np.ndarray | None = None  # heat: matching orthonormal columns

    @property
    def dim(self):
        return self.domain.dim


@dataclass(frozen=True, eq=False)
class FixedSetDescriptor:
    """Closed-form description of a common fixed set.

    kind is one of ``singleton``, ``affine_subspace``, ``whole_domain``.
    An affine subspace is basepoint + span(basis columns); the basis columns
    are orthonormal and may be empty, which degenerates to a singleton.
    """

    kind: str
    point: np.ndarray | None = None
    basepoint: np.ndarray | None = None
    basis: np.ndarray | None = None


def rotation(center=(0.0, 0.0), period=1.0, radius=10.0, dim=None):
    """Plane rotation about ``center`` completing one turn per ``period``.

    ``center`` fixes the first two coordinates; with ``dim`` > 2 the extra
    coordinates are untouched by T(t).  The domain is a ball of ``radius``
    around the (embedded) center, which the rotation maps onto itself.
    """
    center = as_point(center)
    if center.size != 2:
        raise ValueError("rotation center must have exactly 2 coordinates")
    period = float(period)
    if not (period > 0 and math.isfinite(period)):
        raise ValueError("rotation period must be positive and finite")
    d = 2 if dim is None else int(dim)
    if d < 2:
        raise ValueError("rotation needs dimension >= 2")
    if d > max_dim():
        raise ValueError(f"dimension {d} exceeds the cap {max_dim()}")
    ball_center = np.zeros(d)
    ball_center[:2] = center
    return SemigroupSpec(
        kind=ROTATION,
        domain=Ball(ball_center, radius),
        center=center,
        period=period,
    )


def decay(dim=2, box_max=10.0):
    """Componentwise decay T(t)x = max(x - t, 0) on the box [0, box_max]^dim."""
    d = int(dim)
    if d < 1 or d > max_dim():
        raise ValueError(f"dimension {d} outside [1, {max_dim()}]")
    box_max = float(box_max)
    if not (box_max > 0 and math.isfinite(box_max)):
        raise ValueError("box_max must be positive and finite")
    return SemigroupSpec(kind=DECAY, domain=Box(np.zeros(d), np.full(d, box_max)))


def heat(matrix, radius=10.0):
    """Smoothing family T(t) = exp(-t A) for symmetric PSD ``matrix``.

    The generator is eigendecomposed once here; evaluate() then applies
    exp(-t A) x = V exp(-t w) V^T x from the cached factors.  Eigenvalues
    below zero within tolerance are treated as exactly zero, so T(t) never
    expands and the origin-centered ball domain is invariant.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"heat generator must be a square matrix, got shape {a.shape}")
    if a.shape[0] > max_dim():
        raise ValueError(f"dimension {a.shape[0]} exceeds the cap {max_dim()}")
    eigvals, eigvecs = sym_eigendecompose(a)
    if eigvals.min(initial=0.0) < PSD_TOL:
        raise ValueError(
            f"heat generator must be positive semidefinite, found eigenvalue {eigvals.min()}"
        )
    eigvals = np.maximum(eigvals, 0.0)
    return SemigroupSpec(
        kind=HEAT,
        domain=Ball(np.zeros(a.shape[0]), radius),
        matrix=0.5 * (a + a.T),
        eigvals=eigvals,
        eigvecs=eigvecs,
    )


def operator(spec, t):
    """Compile T(t) for a fixed time: return the callable x -> T(t)x.

    Requires t >= 0.  Everything that depends on t alone (the rotation's
    cosine and sine, the heat flow's exp(-t w), the decay's shift) is
    computed here, once.  Each call still checks that x, a float64 vector,
    has the flow's dimension and lies inside the domain up to the
    membership slack, and projects its result back into the domain.  T(0)
    is the identity: exact for decay, and short-circuited for rotation and
    heat so no spectral round-off enters at t = 0.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if t == 0.0:
        def step(x):
            return x
    elif spec.kind == ROTATION:
        angle = 2.0 * math.pi * t / spec.period
        c, s = math.cos(angle), math.sin(angle)
        cx, cy = spec.center

        def step(x):
            dx = x[0] - cx
            dy = x[1] - cy
            y = x.copy()
            y[0] = cx + c * dx - s * dy
            y[1] = cy + s * dx + c * dy
            return y
    elif spec.kind == DECAY:
        def step(x):
            return np.maximum(x - t, 0.0)
    elif spec.kind == HEAT:
        v, vt, factors = spec.eigvecs, spec.eigvecs.T, np.exp(-t * spec.eigvals)

        def step(x):
            return v @ (factors * (vt @ x))
    else:
        raise ValueError(f"unknown semigroup kind {spec.kind!r}")

    domain, shape = spec.domain, (spec.dim,)

    def apply(x):
        if x.shape != shape:
            raise ValueError(f"point has shape {x.shape}, semigroup expects {shape}")
        if domain.exterior_distance(x) > MEMBERSHIP_SLACK:
            raise ValueError("point lies outside the domain beyond the membership slack")
        return domain.project(step(x))

    return apply


def evaluate(spec, t, x):
    """Apply T(t) to the point x: operator(spec, t) for a single application."""
    return operator(spec, t)(np.asarray(x, dtype=float))


def analytic_fixed_set(spec):
    """Closed-form common fixed set of the whole family {T(t) : t >= 0}."""
    d = spec.dim
    if spec.kind == ROTATION:
        embedded = np.zeros(d)
        embedded[:2] = spec.center
        if d == 2:
            return FixedSetDescriptor(kind="singleton", point=embedded)
        # coordinates beyond the rotating plane are free
        return FixedSetDescriptor(
            kind="affine_subspace",
            basepoint=embedded,
            basis=np.eye(d)[:, 2:],
        )
    if spec.kind == DECAY:
        return FixedSetDescriptor(kind="singleton", point=np.zeros(d))
    if spec.kind == HEAT:
        kernel = spec.eigvecs[:, spec.eigvals <= KERNEL_TOL]
        return FixedSetDescriptor(
            kind="affine_subspace",
            basepoint=np.zeros(d),
            basis=kernel,
        )
    raise ValueError(f"unknown semigroup kind {spec.kind!r}")


def fixed_set_distance(descriptor, x):
    """Exact Euclidean distance from x to the described set."""
    x = np.asarray(x, dtype=float)
    if descriptor.kind == "singleton":
        return _norm(x - descriptor.point)
    if descriptor.kind == "affine_subspace":
        r = x - descriptor.basepoint
        if descriptor.basis.shape[1] == 0:
            return _norm(r)
        return _norm(r - descriptor.basis @ (descriptor.basis.T @ r))
    if descriptor.kind == "whole_domain":
        return 0.0
    raise ValueError(f"unknown fixed set kind {descriptor.kind!r}")


# ---- textual descriptors (CLI) ----------------------------------------------

def _split_params(body):
    """Parse "k1=v1,k2=a,b,..." where a value may itself contain commas."""
    params = {}
    if not body:
        return params
    key = None
    for token in body.split(","):
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            if not key:
                raise ValueError("empty parameter name in semigroup descriptor")
            if key in params:
                raise ValueError(f"duplicate parameter {key!r} in semigroup descriptor")
            params[key] = value.strip()
        else:
            if key is None:
                raise ValueError(f"stray value {token!r} in semigroup descriptor")
            params[key] += "," + token.strip()
    return params


def _floats(text):
    return [float(part) for part in text.split(",")]


def from_descriptor(text):
    """Build a SemigroupSpec from a textual descriptor.

    Examples: ``rotation:period=1,center=0,0``, ``decay:dim=2,M=10``,
    ``heat:matrix=/path/to/matrix.txt``.  Optional keys: ``radius`` for
    rotation and heat, ``dim`` for rotation.
    """
    kind, _, body = str(text).partition(":")
    kind = kind.strip()
    params = _split_params(body)

    def take(name, default=None):
        return params.pop(name, default)

    if kind == ROTATION:
        center = _floats(take("center", "0,0"))
        period = float(take("period", "1"))
        radius = float(take("radius", "10"))
        dim = take("dim")
        spec = rotation(center, period, radius, dim=None if dim is None else int(dim))
    elif kind == DECAY:
        spec = decay(int(take("dim", "2")), float(take("M", "10")))
    elif kind == HEAT:
        path = take("matrix")
        if path is None:
            raise ValueError("heat descriptor needs matrix=<path>")
        a = np.loadtxt(path, ndmin=2)
        spec = heat(a, float(take("radius", "10")))
    else:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    if params:
        raise ValueError(f"unknown semigroup parameters: {sorted(params)}")
    return spec
