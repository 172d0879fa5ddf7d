"""Independent oracles the test suite checks the library against.

Nothing here imports package internals beyond the public constructors,
except the per-step scheme driver, which keeps the driver's kernels and
recorder and replaces only its loop.  The quadratic-ring elements replay
the remainder recursions in exact rational arithmetic; the scalar
recursions replay scheme updates one coordinate at a time with plain
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuadElem:
    """Exact element a + b*sqrt(d) of a real quadratic field.

    a and b are Fractions, d a fixed positive nonsquare integer.  Supports
    exactly the operations the Euclidean recursion needs: subtraction of
    integer multiples, exact sign, and exact floor of a ratio.
    """

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b, d):
        return QuadElem(Fraction(a), Fraction(b), int(d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def sub_mul(self, k, other):
        """self - k*other, exactly."""
        assert self.d == other.d
        k = Fraction(k)
        return QuadElem(self.a - k * other.a, self.b - k * other.b, self.d)

    def sign(self):
        """Exact sign of a + b*sqrt(d)."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # a and b*sqrt(d) pull in opposite directions; compare a^2 vs d*b^2,
        # the larger magnitude wins
        lhs = self.a * self.a
        rhs = self.d * self.b * self.b
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def is_zero(self):
        return self.a == 0 and self.b == 0


def floor_ratio(x, y):
    """Exact floor(x/y) for x >= 0, y > 0 in the same quadratic field."""
    assert y.sign() > 0 and x.sign() >= 0
    k = max(0, int(float(x) / float(y)))
    # the float estimate is off by at most one in either direction;
    # fix it up with exact comparisons
    while x.sub_mul(k + 1, y).sign() >= 0:
        k += 1
    while x.sub_mul(k, y).sign() < 0:
        k -= 1
    return k


SQRT2 = QuadElem.make(0, 1, 2)
ONE_IN_SQRT2 = QuadElem.make(1, 0, 2)
GOLDEN = QuadElem.make(Fraction(1, 2), Fraction(1, 2), 5)
ONE_IN_SQRT5 = QuadElem.make(1, 0, 5)


def euclid_exact(alpha, beta, tol, max_terms):
    """Exact mirror of the two-time remainder recursion.

    alpha and beta are QuadElems; tol is a float (exactly representable as
    a Fraction, so the stopping comparison is exact too).  Returns
    (remainders, quotients, termination) with termination in
    {"below_tol", "max_terms"}; a remainder of exactly zero also stops with
    "below_tol", mirroring the float implementation's contract.
    """
    tol_exact = QuadElem.make(Fraction(tol), 0, alpha.d)
    hi, lo = (alpha, beta) if alpha.sub_mul(1, beta).sign() >= 0 else (beta, alpha)
    alphas = [hi, lo]
    ks = []
    if lo.sub_mul(1, tol_exact).sign() < 0:
        return alphas, ks, "below_tol"
    while True:
        if len(ks) >= max_terms:
            return alphas, ks, "max_terms"
        if alphas[-1].is_zero():
            return alphas, ks, "below_tol"
        k = floor_ratio(alphas[-2], alphas[-1])
        nxt = alphas[-2].sub_mul(k, alphas[-1])
        ks.append(k)
        alphas.append(nxt)
        if nxt.sub_mul(1, tol_exact).sign() < 0:
            return alphas, ks, "below_tol"


# ---- scalar scheme recursions ----------------------------------------------

def decay_scalar(x, t):
    return max(x - t, 0.0)


def mann_decay_orbit(x0, alpha, beta, kappa, lam, n_steps):
    """Iterates of the three-term averaged update on the scalar decay flow."""
    xs = [x0]
    x = x0
    for _ in range(n_steps):
        x = kappa * decay_scalar(x, alpha) + lam * decay_scalar(x, beta) + (1 - kappa - lam) * x
        xs.append(x)
    return xs


def heat_diag_coordinate_factor(rate, alpha, beta, kappa, lam):
    """Per-step shrink factor of one eigencoordinate under the same update."""
    return 1.0 - kappa * (1.0 - math.exp(-rate * alpha)) - lam * (1.0 - math.exp(-rate * beta))


def midpoint_rotation_matrix(alpha, beta, period):
    """The planar matrix of x -> (T(alpha)x + T(beta)x)/2 about the origin."""
    import numpy as np

    def rot(t):
        ang = 2.0 * math.pi * t / period
        return np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])

    return 0.5 * (rot(alpha) + rot(beta))


def browder_heat_diag_solution(u2, lam_n, c):
    """Closed-form non-kernel coordinate of the damped implicit equation.

    Solves v = (1-lam_n)*c*v + lam_n*u2 for the coordinate with average
    semigroup factor c; the kernel coordinate passes through unchanged.
    """
    return lam_n * u2 / (1.0 - (1.0 - lam_n) * c)


# ---- the scheme driver, one iterate at a time -------------------------------

def per_step_drive(spec, cfg, tag, iterates, track_fejer=False, inner=None):
    """schemes._drive for one start, testing every iterate as soon as it is made.

    Takes each iterate's pair residual and step norm with one 1-D norm
    each, records it, then stops on an inner-solver failure, on
    convergence or at the budget, and never computes an iterate past the
    last.  A stand-in for schemes._drive (same arguments, same report);
    the start must be one point inside the domain.
    """
    import numpy as np

    from semiflow import schemes
    from semiflow.semigroups import _kernel, _pair_kernel
    from semiflow.vecspace import _norm

    x0 = np.array(cfg.start, dtype=float)
    n_max = schemes.DEFAULT_MAX_ITER[tag] if cfg.max_iter is None else int(cfg.max_iter)
    op_pair = _pair_kernel(spec, cfg.alpha, cfg.beta)
    orbit = iterates(x0, n_max, _kernel(spec, cfg.alpha), _kernel(spec, cfg.beta), op_pair)
    rec = schemes._Recorder(spec, track_fejer=track_fejer, record_all=cfg.record_all)
    images = None
    x_prev = None
    for n in range(1, n_max + 1):
        x = orbit.send(images)
        ta, tb = op_pair(x)
        pair = max(_norm(ta - x), _norm(tb - x))
        step = 0.0 if x_prev is None else _norm(x - x_prev)
        rec.add_block(n, [x], [pair], [step])
        if inner is not None and not inner[-1][2]:
            termination = schemes.INNER_SOLVER_FAILURE
            break
        if pair <= cfg.tol and step <= cfg.tol:
            termination = schemes.CONVERGED
            break
        images, x_prev = (ta, tb), x
    else:
        termination = schemes.MAX_ITER
    return rec.finish(tag, termination, inner)


def per_step_rows(spec, cfg, tag, iterates, track_fejer=False, inner=None):
    """per_step_drive for a (B, d) array of starts, iterated as the rows of one array.

    Tests each (B, d) iterate as soon as it is made: its rows' pair
    residuals and steps with one row-norm call each, and for the Fejer
    count its rows' distances with one fixed_set_distance call, so a heat
    flow's rows round as they do in the block driver.  Each row is recorded
    until it converges or the budget is spent, and no iterate past the
    last row's end is computed.  Returns one report per row.
    """
    import numpy as np

    from semiflow import schemes
    from semiflow.semigroups import _kernel, _pair_kernel, fixed_set_distance
    from semiflow.vecspace import _row_norms

    x0 = np.array(cfg.start, dtype=float)
    n_max = schemes.DEFAULT_MAX_ITER[tag] if cfg.max_iter is None else int(cfg.max_iter)
    op_pair = _pair_kernel(spec, cfg.alpha, cfg.beta)
    orbit = iterates(x0, n_max, _kernel(spec, cfg.alpha), _kernel(spec, cfg.beta), op_pair)
    recs = [schemes._Recorder(spec, track_fejer=track_fejer, record_all=cfg.record_all) for _ in x0]
    ends = [schemes.MAX_ITER] * len(recs)
    live = range(len(recs))
    images = None
    x_prev = None
    for n in range(1, n_max + 1):
        x = orbit.send(images)
        ta, tb = op_pair(x)
        pair = np.maximum(_row_norms(ta - x), _row_norms(tb - x)).tolist()
        step = [0.0] * len(x) if x_prev is None else _row_norms(x - x_prev).tolist()
        fsd = fixed_set_distance(recs[0].fixed_set, x).tolist() if track_fejer else [None] * len(x)
        for i in live:
            recs[i].add_block(n, [x[i]], [pair[i]], [step[i]], [fsd[i]])
            if pair[i] <= cfg.tol and step[i] <= cfg.tol:
                ends[i] = schemes.CONVERGED
        live = [i for i in live if ends[i] == schemes.MAX_ITER]
        if not live:
            break
        images, x_prev = (ta, tb), x
    return [rec.finish(tag, end) for rec, end in zip(recs, ends)]
