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
``operator``, ``pair_operator`` and ``orbit_operator`` compilers build on it
(an orbit, and a certificate's profile, on ``_orbit_blocks``' blocks of times);
they assume that the spec is never changed (a heat spectrum is read-only).
One place beside ``_compile`` writes the rotation's two lines out again,
for both times of a pair at once on a d=2 rotation's coordinates: the
loop body of ``schemes._float_blocks``, which takes only the turn's
(cos, sin) from ``_compile``, and each block's images, after the loop,
from ``_pair_kernel``, which the scheme driver compiles for both paths.
Each public callable checks on every call that its argument lies within a
small membership slack of the domain, and projects every output back into
the domain, so long iteration loops cannot drift outside by rounding.
Inside the package a point is checked once where it enters: the scheme
driver, a certificate and a replay apply the unchecked kernels after that.
The check (``_checker``) and that loop also test once whether a point lies
so far inside its ball that rounding cannot carry an image out
(``_interior_radius``), and then skip the projections, which would return
every image unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from semiflow.vecspace import Ball, Box, _norm, _row_norms, _scalar, _wide_norms, as_point, max_dim, sym_eigendecompose

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

# _orbit_blocks() compiles and computes an orbit's rows in blocks of about this
# many entries (32 KB), so its temporaries stay small whatever the number
# of times, and a heat block's matrix product is small enough that BLAS
# runs it on the calling thread instead of waking a worker thread
ORBIT_BLOCK = 4096

# the relative margin inside a ball within which rounding cannot carry a
# rotation's or heat flow's image outside it (see _interior_radius)
INTERIOR_MARGIN = 2.0 ** -30


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
    """Closed-form common fixed set: the affine set basepoint + span(basis).

    basis is a (d, k) array of orthonormal columns; with k = 0 the set is
    the single point basepoint.  kind ("singleton" or "affine_subspace")
    and point (the basepoint) are read from these two fields.
    """

    basepoint: np.ndarray
    basis: np.ndarray

    @property
    def kind(self):
        return "affine_subspace" if self.basis.shape[1] else "singleton"

    @property
    def point(self):
        return self.basepoint


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

    Returns (lift, rows, cs).  lift(xs) is the part that does not depend
    on t (heat: the eigen-coordinates xs V; otherwise xs itself), so an
    orbit or a pair lifts its point once.  rows(lift(xs), out=None) is T(t)
    of one (d,) point, of every row of a (B, d) array, or of one point at
    every time of a column.  The rotation's formula is turn, (x0, x1) ->
    (y0, y1) on the first two coordinates: rows applies it to numpy
    columns, and to one point's coordinates as Python floats when t is a
    float and no out is given, which is cheaper there.  Both do the same
    IEEE operations.  cs is the rotation's (cos, sin) of its angle, which
    schemes._float_blocks turns one point by for both times of a pair with
    turn's operations; it is None for the other families.
    """
    lift = cs = None
    if spec.kind == ROTATION:
        angle = 2.0 * math.pi * t / spec.period
        if isinstance(t, float):
            c, s, lead = math.cos(angle), math.sin(angle), ()
        else:
            c, s, lead = np.cos(angle), np.sin(angle), t.shape[:1]
        cx, cy = spec.center.tolist()
        cs = c, s

        def turn(x0, x1):  # schemes._float_blocks writes these out for two angles at once
            dx = x0 - cx
            dy = x1 - cy
            return cx + c * dx - s * dy, cy + s * dx + c * dy

        def rows(xs, out=None):
            if xs.ndim == 1 and out is None and not lead:
                ys = xs.copy()
                ys[0], ys[1] = turn(xs.item(0), xs.item(1))
                return ys
            ys = np.empty(lead + xs.shape) if out is None else out
            ys[...] = xs
            ys[..., :1], ys[..., 1:2] = turn(xs[..., :1], xs[..., 1:2])
            return ys
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
    return lift or np.asarray, rows, cs


def _interior_radius(domain):
    """The radius r of the package's interior test ||x - c|| <= r, or NaN,
    which no norm is at most.

    r = R(1 - INTERIOR_MARGIN) on a ball of center c and radius R with
    2^-500 <= R <= 2^500 and ||c|| <= 2^20 R.  A box has no test (decay
    keeps its clip), nor has a ball of another radius, where an
    underflow's absolute error or an overflow could outgrow the margin, or
    of a farther center.  With eps = 2^-53, d <= 64 and x - c, its norm
    and every image taken in floats by _compile's formulas, a point that
    passes has every image left unchanged by domain.project:

    * rotation: the image's offset from c that Ball.project computes,
      fl(fl(c + turn) - c), has ||off|| <= ||x - c||(1 + 12 eps) + eps ||c||
      (the turn's cosine and sine are each within an ulp; the
      coordinates past the plane are copied, and c is 0 there);
    * heat: c = 0, and ||T(t)x|| <= ||x||(1 + O(d eps)), since every
      e^{-t w} <= 1, V is orthonormal to O(d eps), and each of the two
      products errs by at most d^1.5 eps ||x||.

    Ball.project's norm adds at most (d/2 + 1) eps, and the test's own
    norm hides as much, so the norm Ball.project compares with R is at
    most R(1 - 2^-30 + 2^-33 + 2^-40) < R.  The float iteration of a d=2
    rotation (schemes._float_blocks) tests the float sum of squares of the
    offset (dx, dy) against r**2 in place of the norm: a point that passes
    has ||(dx, dy)|| <= r(1 + 2 eps), and the same argument holds.
    """
    if isinstance(domain, Box) or not 2.0 ** -500 <= domain.radius <= 2.0 ** 500:
        return math.nan
    if _norm(domain.center) > 2.0 ** 20 * domain.radius:
        return math.nan
    return domain.radius * (1.0 - INTERIOR_MARGIN)


def _checker(spec, rows=True, name="point", owner="semigroup"):
    """The package's one membership check, made where a point enters it.

    check(x) raises unless x is one float64 point of the flow's dimension
    inside the domain up to the membership slack, or, with ``rows``, a
    (B, d) array of such points as rows (one exterior_distance call for
    all of them).  Its messages call x ``name``.  It returns whether x is
    one point that passes the interior test ||x - c|| <= r of
    _interior_radius, False on a domain without a test: such a point lies
    inside the domain, so the test's offset norm is the only one taken.
    """
    domain, shape, max_ndim = spec.domain, (spec.dim,), 2 if rows else 1
    r = _interior_radius(domain)
    center = None if math.isnan(r) else domain.center  # None where there is no test: a box has no center

    def check(x):
        if x.ndim > max_ndim or x.shape[-1:] != shape:
            row_shape = x.shape[1:] if rows and x.ndim == 2 else x.shape
            raise ValueError(f"{name} has shape {row_shape}, {owner} expects {shape}")
        if x.ndim == 1 and center is not None and _norm(x - center) <= r:
            return True
        # written so that a NaN distance fails it too; one point's bool needs no reduction
        inside = domain.exterior_distance(x) <= MEMBERSHIP_SLACK
        if not (inside.all() if x.ndim == 2 else inside):
            raise ValueError(f"{name} lies outside the domain beyond the membership slack")
        return False

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
        step = np.copy  # T(0) is the identity
    else:
        lift, rows, _ = _compile(spec, t)

        def step(xs):
            return rows(lift(xs))
    domain = spec.domain

    def apply(x):
        return domain.project(step(x))

    return apply


def _pair_kernel(spec, alpha, beta):
    """pair_operator(spec, alpha, beta) without the check (see _kernel).

    A caller that has lifted x already (see _compile) passes the lift too,
    and one that has found that the point x, or each row of x, passes the
    interior test (_checker, or schemes._float_blocks' loop) passes
    inside=True, which skips both projections.

    A decay box [0, M]^d where 2 max(alpha, beta) is at most the spacing
    of the doubles just below M raises ValueError: there max(x - t, 0)
    rounds back to x for both times, so points near M would pass for
    common fixed points.
    """
    if spec.kind == DECAY:
        top, t = float(spec.domain.upper.max()), max(alpha, beta)
        if 2 * t <= top - math.nextafter(top, 0):
            raise ValueError(f"decay box M={top!r} is too wide for the time {t!r}: near M, x - {t!r} rounds to x")
    lift, rows_a, _ = _compile(spec, alpha)
    _, rows_b, _ = _compile(spec, beta)  # lift does not depend on t
    domain = spec.domain

    def apply(x, lifted=None, inside=False):
        if lifted is None:
            lifted = lift(x)
        if inside:
            return rows_a(lifted), rows_b(lifted)
        return domain.project(rows_a(lifted)), domain.project(rows_b(lifted))

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

    Both times must be positive and finite, and on a decay flow the larger
    must exceed half the spacing of the doubles just below the box's M
    (ValueError otherwise, see _pair_kernel).  The callable takes and
    checks x as operator()'s does, and each image equals
    operator(spec, t)(x).
    """
    alpha = _scalar("time", alpha)
    beta = _scalar("time", beta)
    return _checked(spec, _pair_kernel(spec, alpha, beta))


def evaluate(spec, t, x):
    """Apply T(t) to the point x: operator(spec, t) for a single application."""
    return operator(spec, t)(x)


def _orbit_blocks(spec, times):
    """T(t_i) for an array of times, compiled a block of times at a time, unchecked.

    The times must be finite and nonnegative (ValueError naming the first
    bad one).  Returns (lift, blocks), blocks a list of (at, rows) in the
    order of the times: at is the slice of the times one block covers,
    and rows(x, lift(x), out) fills the (len, d) array out, and returns
    it, with row i = T(t)x of the block's i-th time before projection; a
    row at t = 0 is x itself, which projects as operator(spec, 0.0) does.
    Nothing checks x, and _stacked projects the rows.  A block holds about
    ORBIT_BLOCK entries, and where the blocks split the times decides the
    bits of heat rows (a matrix product rounds a row with the size of its
    batch), so every orbit, and every certificate's profile, is split here.
    """
    t = np.array(times, dtype=float).ravel()
    bad = ~np.isfinite(t) | (t < 0.0)
    if bad.any():
        _scalar("time", t[bad][0], positive=False)  # raises
    step = ORBIT_BLOCK // spec.dim
    lift, blocks = np.asarray, []
    for lo in range(0, t.size, step):
        at = slice(lo, min(lo + step, t.size))
        lift, rows, _ = _compile(spec, t[at, None])  # lift does not depend on t

        def block(x, lifted, out, rows=rows, zero=np.flatnonzero(t[at] == 0.0)):
            ys = rows(lifted, out=out)
            if zero.size:
                ys[zero] = x
            return ys

        blocks.append((at, block))
    return lift, blocks


def _stacked(blocks, x, lifted, project):
    """The rows of some of _orbit_blocks' blocks at x, stacked in their
    order, each block projected in place by project(rows) unless project
    is None (a point that passes the interior test, _checker).  A block
    at a time keeps the temporaries of the projection small."""
    out = np.empty((sum(at.stop - at.start for at, _ in blocks), x.size))
    hi = 0
    for at, rows in blocks:
        lo, hi = hi, hi + at.stop - at.start
        ys = rows(x, lifted, out[lo:hi])
        if project is not None:
            project(ys)
    return out


def orbit_operator(spec, times):
    """Compile T(t_i) for a fixed array of times: return x -> (len(times), d) rows.

    The times must be finite and nonnegative (ValueError naming the first
    bad one); they are copied here.  The callable takes one point, checked
    as operator()'s callable checks it, and returns row i = T(t_i)x,
    projected into the domain, computed in _orbit_blocks' blocks.  Rows
    with t = 0 and decay rows equal operator(spec, t)(x); other rows may
    differ from it by rounding, within 1e-12 on the built-in families.
    """
    lift, blocks = _orbit_blocks(spec, times)
    return _checked(spec, lambda x: _stacked(blocks, x, lift(x), spec.domain.project), rows=False)


def orbit(spec, times, x):
    """T(t_i)x for every time t_i, as one (len(times), d) array:
    orbit_operator(spec, times) for a single point."""
    return orbit_operator(spec, times)(x)


def analytic_fixed_set(spec):
    """Closed-form common fixed set of the whole family {T(t) : t >= 0}."""
    d = spec.dim
    if spec.kind == ROTATION:
        # the domain's center is spec.center embedded in d dimensions;
        # coordinates beyond the rotating plane are free
        return FixedSetDescriptor(spec.domain.center, np.eye(d)[:, 2:])
    if spec.kind == DECAY:
        return FixedSetDescriptor(np.zeros(d), np.zeros((d, 0)))
    if spec.kind == HEAT:
        return FixedSetDescriptor(np.zeros(d), spec.eigvecs[:, spec.eigvals <= KERNEL_TOL])
    raise ValueError(f"unknown semigroup kind {spec.kind!r}")


def fixed_set_distance(descriptor, x, wide=False):
    """Exact Euclidean distance from x to the described set.

    A (B, d) array gives the B distances of its rows, each within rounding
    of the distance of that row alone (one matrix product for all rows).
    With ``wide``, for the points of a wide ball (Ball.wide), a distance
    whose sum of squares overflows is taken rescaled (vecspace._wide_norms).
    """
    r = np.asarray(x, dtype=float) - descriptor.basepoint
    if descriptor.basis.size:  # an empty basis would subtract zeros, at twice the cost
        r -= (r @ descriptor.basis) @ descriptor.basis.T
    return _wide_norms(r) if wide else _norm(r) if r.ndim == 1 else _row_norms(r)


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


def _parse_value(convert, text, field):
    """convert(text), whose ValueError or OSError is raised as a ValueError naming ``field`` and the text."""
    try:
        return convert(text)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{field}={text}: {exc}") from None


# each family's constructor and descriptor keys: key -> (constructor argument, parser);
# a key left out of a descriptor takes the constructor's default
_DESCRIPTORS = {
    ROTATION: (rotation, {"center": ("center", _floats), "period": ("period", float),
                          "radius": ("radius", float), "dim": ("dim", int)}),
    DECAY: (decay, {"dim": ("dim", int), "M": ("box_max", float)}),
    HEAT: (heat, {"matrix": ("matrix", lambda path: np.loadtxt(path, ndmin=2)), "radius": ("radius", float)}),
}


def from_descriptor(text):
    """Build a SemigroupSpec from a textual descriptor.

    Examples: ``rotation:period=1,center=0,0``, ``decay:dim=2,M=10``,
    ``heat:matrix=/path/to/matrix.txt``.  The keys are those of the
    family's constructor (``M`` is decay's ``box_max``); ``matrix`` is
    required, and every other key left out takes the constructor's
    default.  Unknown keys are reported before any value is read.
    """
    kind, _, body = str(text).partition(":")
    kind = kind.strip()
    params = _split_params(body)
    if kind not in _DESCRIPTORS:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    build, keys = _DESCRIPTORS[kind]
    unknown = sorted(params.keys() - keys.keys())
    if unknown:
        raise ValueError(f"unknown semigroup parameters: {unknown}")
    if kind == HEAT and "matrix" not in params:
        raise ValueError("heat descriptor needs matrix=<path>")
    return build(**{name: _parse_value(parse, params[key], f"semigroup parameter {key}")
                    for key, (name, parse) in keys.items() if key in params})
