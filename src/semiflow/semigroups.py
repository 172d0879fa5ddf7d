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

Each family's formula is written once, in ``_compile``, and the
``operator``, ``pair_operator`` and ``orbit_operator`` compilers build on it;
they assume that the spec is never changed (a heat spectrum is read-only).
Each public callable checks on every call that its argument lies within a
small membership slack of the domain, and projects every output back into
the domain, so long iteration loops cannot drift outside by rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from semiflow.vecspace import Ball, Box, _norm, _row_norms, _scalar, as_point, max_dim, sym_eigendecompose

__all__ = [
    "MEMBERSHIP_SLACK",
    "SemigroupSpec",
    "FixedSetDescriptor",
    "rotation",
    "decay",
    "heat",
    "operator",
    "pair_operator",
    "evaluate",
    "orbit",
    "orbit_operator",
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

# orbit_operator() compiles and computes its rows in blocks of about this
# many entries (32 KB), so its temporaries stay small whatever the number
# of times, and a heat block's matrix product is small enough that BLAS
# runs it on the calling thread instead of waking a worker thread
ORBIT_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class SemigroupSpec:
    """Immutable description of one built-in family, with cached spectra."""

    kind: str
    domain: Ball | Box
    center: np.ndarray | None = None   # rotation: center of the rotating plane
    period: float | None = None        # rotation: time for one full turn
    eigvals: np.ndarray | None = None  # heat: eigenvalues of A, ascending
    eigvecs: np.ndarray | None = None  # heat: matching orthonormal columns

    @property
    def dim(self):
        return self.domain.dim


@dataclass(frozen=True, eq=False)
class FixedSetDescriptor:
    """Closed-form description of a common fixed set.

    kind is one of ``singleton``, ``affine_subspace``.
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
    period = _scalar("period", period)
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
    box_max = _scalar("box_max", box_max)
    return SemigroupSpec(kind=DECAY, domain=Box(np.zeros(d), np.full(d, box_max)))


def heat(matrix, radius=10.0):
    """Smoothing family T(t) = exp(-t A) for symmetric PSD ``matrix``.

    The generator is eigendecomposed once here (sym_eigendecompose checks
    its shape, size and symmetry), and T(t) is applied as
    V exp(-t w) V^T from the cached, read-only factors.  Eigenvalues below
    zero within tolerance are treated as exactly zero, so T(t) never
    expands and the origin-centered ball domain is invariant.
    """
    eigvals, eigvecs = sym_eigendecompose(matrix)
    if eigvals.min(initial=0.0) < PSD_TOL:
        raise ValueError(
            f"heat generator must be positive semidefinite, found eigenvalue {eigvals.min()}"
        )
    eigvals = np.maximum(eigvals, 0.0)
    # compiled operators and cached profile plans assume the spectrum never changes
    eigvals.flags.writeable = eigvecs.flags.writeable = False
    return SemigroupSpec(
        kind=HEAT,
        domain=Ball(np.zeros(eigvals.size), radius),
        eigvals=eigvals,
        eigvecs=eigvecs,
    )


def _compile(spec, t):
    """T(t) before projection, for a float t or a (B, 1) column of times.

    Returns (lift, rows, point).  lift(xs) is the part that does not depend
    on t (heat: the eigen-coordinates xs V; otherwise xs itself), so an
    orbit or a pair lifts its point once.  rows(lift(xs), out=None) is T(t) of every
    row of a (B, d) array, or of one (d,) point at every time of a column;
    decay and heat points take it too.  point is the rotation's cheaper
    scalar-indexed step for one point, None for the other families.
    """
    lift = point = None
    if spec.kind == ROTATION:
        angle = 2.0 * math.pi * t / spec.period
        if isinstance(t, float):
            c, s, lead = math.cos(angle), math.sin(angle), ()
        else:
            c, s, lead = np.cos(angle), np.sin(angle), t.shape[:1]
        cx, cy = spec.center

        def rows(xs, out=None):
            dx = xs[..., :1] - cx
            dy = xs[..., 1:2] - cy
            ys = np.empty(lead + xs.shape) if out is None else out
            ys[...] = xs
            ys[..., :1] = cx + c * dx - s * dy
            ys[..., 1:2] = cy + s * dx + c * dy
            return ys

        def point(x):
            dx = x[0] - cx
            dy = x[1] - cy
            y = x.copy()
            y[0] = cx + c * dx - s * dy
            y[1] = cy + s * dx + c * dy
            return y
    elif spec.kind == DECAY:
        def rows(xs, out=None):
            return np.maximum(xs - t, 0.0, out=out)
    elif spec.kind == HEAT:
        v, vt, factors = spec.eigvecs, spec.eigvecs.T, -t * spec.eigvals
        np.exp(factors, out=factors)

        def lift(xs):
            return xs @ v

        def rows(coords, out=None):
            return np.matmul(coords * factors, vt, out=out)
    else:
        raise ValueError(f"unknown semigroup kind {spec.kind!r}")
    return lift or np.asarray, rows, point


def _checker(spec, rows=True, name="point", owner="semigroup"):
    """The package's one membership check, made where a point enters it.

    check(x) raises unless x is one float64 point of the flow's dimension
    inside the domain up to the membership slack, or, with ``rows``, a
    (B, d) array of such points as rows.  Its messages call x ``name``.
    """
    domain, shape = spec.domain, (spec.dim,)

    def check(x):
        if x.shape == shape:
            inside = domain.exterior_distance(x) <= MEMBERSHIP_SLACK
        elif rows and x.ndim == 2 and x.shape[1:] == shape:
            inside = (domain.exterior_distance_rows(x) <= MEMBERSHIP_SLACK).all()
        else:
            row_shape = x.shape[1:] if rows and x.ndim == 2 else x.shape
            raise ValueError(f"{name} has shape {row_shape}, {owner} expects {shape}")
        # written so that a NaN distance fails it too
        if not inside:
            raise ValueError(f"{name} lies outside the domain beyond the membership slack")

    return check


def _checked(spec, kernel, rows=True):
    """kernel, applied to x as a float array only if _checker(spec, rows) accepts it."""
    check = _checker(spec, rows)

    def apply(x):
        x = np.asarray(x, dtype=float)
        check(x)
        return kernel(x)

    return apply


def _kernel(spec, t):
    """operator(spec, t) without the check, for points known to lie in the domain."""
    if t == 0.0:
        step, block = np.asarray, np.copy  # T(0) is the identity
    else:
        lift, rows, point = _compile(spec, t)

        def block(xs):
            return rows(lift(xs))

        step = point or block
    domain = spec.domain

    def apply(x):
        if x.ndim == 2:
            return domain.project_rows(block(x))
        return domain.project(step(x))

    return apply


def _pair_kernel(spec, alpha, beta):
    """pair_operator(spec, alpha, beta) without the check (see _kernel)."""
    lift, rows_a, point_a = _compile(spec, alpha)
    _, rows_b, point_b = _compile(spec, beta)  # lift does not depend on t
    domain = spec.domain

    def apply(x):
        if x.ndim == 1 and point_a is not None:
            return domain.project(point_a(x)), domain.project(point_b(x))
        lifted = lift(x)
        project = domain.project_rows if x.ndim == 2 else domain.project
        return project(rows_a(lifted)), project(rows_b(lifted))

    return apply


def operator(spec, t):
    """Compile T(t) for a fixed time: return the callable x -> T(t)x.

    t must be finite and nonnegative (ValueError otherwise); T(0) is the
    identity.  The callable takes one point or a (B, d) array of points as
    rows, as floats, and returns a new array of their images, projected
    into the domain; the argument is never written to.  It raises
    ValueError for a point of the wrong dimension or outside the domain
    beyond MEMBERSHIP_SLACK.  Heat rows may differ from the images of the
    same points taken one at a time by rounding, within 1e-12 on the
    built-in families; other rows equal them.
    """
    t = _scalar("time", t, positive=False)
    return _checked(spec, _kernel(spec, t))


def pair_operator(spec, alpha, beta):
    """Compile T(alpha) and T(beta) together: return x -> (T(alpha)x, T(beta)x).

    Both times must be positive and finite (ValueError otherwise).  The
    callable takes and checks x as operator()'s does, and each image equals
    operator(spec, t)(x).
    """
    alpha = _scalar("time", alpha)
    beta = _scalar("time", beta)
    return _checked(spec, _pair_kernel(spec, alpha, beta))


def evaluate(spec, t, x):
    """Apply T(t) to the point x: operator(spec, t) for a single application."""
    return operator(spec, t)(x)


def orbit_operator(spec, times):
    """Compile T(t_i) for a fixed array of times: return x -> (len(times), d) rows.

    The times must be finite and nonnegative (ValueError naming the first
    bad one); they are copied here.  The callable takes one point, checked
    as operator()'s callable checks it, and returns row i = T(t_i)x,
    projected into the domain.  Rows with t = 0 and decay rows equal
    operator(spec, t)(x); other rows may differ from it by rounding, within
    1e-12 on the built-in families.
    """
    t = np.array(times, dtype=float).ravel()
    bad = ~np.isfinite(t) | (t < 0.0)
    if bad.any():
        _scalar("time", t[bad][0], positive=False)  # raises
    step = ORBIT_BLOCK // spec.dim
    lift, blocks = np.asarray, []
    for lo in range(0, t.size, step):
        lift, rows, _ = _compile(spec, t[lo:lo + step, None])  # lift does not depend on t
        blocks.append((slice(lo, lo + step), rows))
    zero = t == 0.0
    domain = spec.domain
    project_rows, shape = domain.project_rows, (t.size, spec.dim)

    def apply(x):
        x0 = domain.project(x)  # T(0)x, as operator(spec, 0.0) computes it
        out = np.empty(shape)
        lifted = lift(x)
        for rows_at, rows in blocks:
            project_rows(rows(lifted, out=out[rows_at]))
        out[zero] = x0
        return out

    return _checked(spec, apply, rows=False)


def orbit(spec, times, x):
    """T(t_i)x for every time t_i, as one (len(times), d) array:
    orbit_operator(spec, times) for a single point."""
    return orbit_operator(spec, times)(x)


def analytic_fixed_set(spec):
    """Closed-form common fixed set of the whole family {T(t) : t >= 0}."""
    d = spec.dim
    if spec.kind == ROTATION:
        # the domain's center is spec.center embedded in d dimensions
        if d == 2:
            return FixedSetDescriptor(kind="singleton", point=spec.domain.center)
        # coordinates beyond the rotating plane are free
        return FixedSetDescriptor(
            kind="affine_subspace",
            basepoint=spec.domain.center,
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
    """Exact Euclidean distance from x to the described set.

    A (B, d) array gives the B distances of its rows, each within rounding
    of the distance of that row alone (one matrix product for all rows).
    """
    x = np.asarray(x, dtype=float)
    if descriptor.kind == "singleton":
        r = x - descriptor.point
    elif descriptor.kind == "affine_subspace":
        r = x - descriptor.basepoint
        r -= (r @ descriptor.basis) @ descriptor.basis.T
    else:
        raise ValueError(f"unknown fixed set kind {descriptor.kind!r}")
    return _norm(r) if r.ndim == 1 else _row_norms(r)


# ---- textual descriptors (CLI) ----------------------------------------------

def _split_params(body):
    """Parse "k1=v1,k2=a,b,..." where a value may itself contain commas:
    the body is split only at a comma that starts a new "key=" item."""
    params = {}
    for item in re.split(r",(?=[^,]*=)", body) if body else ():
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"stray value {item!r} in semigroup descriptor")
        if not key:
            raise ValueError("empty parameter name in semigroup descriptor")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in semigroup descriptor")
        params[key] = value.strip()
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

    take = params.pop
    if kind == ROTATION:
        center = _floats(take("center", "0,0"))
        period = float(take("period", "1"))
        radius = float(take("radius", "10"))
        dim = take("dim", None)
        spec = rotation(center, period, radius, dim=None if dim is None else int(dim))
    elif kind == DECAY:
        spec = decay(int(take("dim", "2")), float(take("M", "10")))
    elif kind == HEAT:
        path = take("matrix", None)
        if path is None:
            raise ValueError("heat descriptor needs matrix=<path>")
        a = np.loadtxt(path, ndmin=2)
        spec = heat(a, float(take("radius", "10")))
    else:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    if params:
        raise ValueError(f"unknown semigroup parameters: {sorted(params)}")
    return spec
