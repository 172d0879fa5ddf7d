"""Constructive step sequences for approximating arbitrary times.

Two recursions live here.  ``greedy_decompose`` splits a time budget t into
integer multiples of a shrinking sequence of moduli, keeping the running
remainder below the current modulus.  ``euclid_sequence`` runs the
subtractive remainder recursion on a pair of sample times; its remainders
shrink to zero exactly when the ratio of the pair is irrational.
``replay_action`` pushes a point through the operator family along
a decomposition, one modulus at a time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from semiflow.semigroups import _kernel, operator
# not called here: the benchmark's tracer (bench/spans.py) wraps it under this module's name
from semiflow.semigroups import evaluate  # noqa: F401
from semiflow.vecspace import _scalar

__all__ = [
    "GreedyDecomposition",
    "EuclidSequence",
    "geometric",
    "greedy_decompose",
    "euclid_sequence",
    "replay_action",
    "check_pair",
]

BELOW_TOL = "below_tol"
MAX_TERMS = "max_terms"
PRECISION_FLOOR = "precision_floor"


def check_pair(alpha, beta):
    """Validate a pair of sample times: both positive, not equal.

    Equal times mean ratio 1, which defeats every construction downstream,
    so the pair is rejected outright.  Other rational ratios cannot be
    detected from floats; callers that care test the ratio and warn.
    """
    alpha = _scalar("alpha", alpha)
    beta = _scalar("beta", beta)
    if alpha == beta:
        raise ValueError("sample times must differ (equal times have ratio 1)")
    return alpha, beta


@dataclass(frozen=True)
class GreedyDecomposition:
    """Result of greedy_decompose: t = sum_j ks[j] * betas[j] + deltas[-1].

    deltas has one more entry than betas/ks; deltas[0] is t itself and
    deltas[j] is the remainder going into step j+1.
    """

    t: float
    betas: tuple
    ks: tuple
    deltas: tuple

    @property
    def n_terms(self):
        return len(self.ks)

    def partial_sum(self, n=None):
        """sum of ks[j] * betas[j] over the first n steps (all by default)."""
        if n is None:
            n = self.n_terms
        if not 0 <= n <= self.n_terms:
            raise ValueError(f"n must lie in [0, {self.n_terms}]")
        return float(sum(k * b for k, b in zip(self.ks[:n], self.betas[:n])))

    def to_dict(self):
        return {**asdict(self), "n_terms": self.n_terms}


@dataclass(frozen=True)
class EuclidSequence:
    """Remainder sequence alphas with quotients ks and a termination reason.

    termination is one of ``below_tol`` (a remainder dropped under tol),
    ``max_terms`` (quotient budget exhausted), or ``precision_floor`` (a
    quotient computed as 0, only possible at the resolution limit of double
    precision).  An exactly rational input can produce a final remainder of
    exactly 0, reported as below_tol.
    """

    alphas: tuple
    ks: tuple
    termination: str

    def to_dict(self):
        return asdict(self)


def geometric(ratio):
    """Infinite modulus generator beta_n = ratio**n for ratio in (0, 1)."""
    ratio = float(ratio)
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")

    def _gen():
        value = 1.0
        while True:
            value *= ratio
            yield value

    return _gen()


def greedy_decompose(t, beta_scheme, n):
    """Greedily split t over the first n moduli emitted by beta_scheme.

    Each step takes the largest integer multiple of the current modulus that
    fits in the remainder:

        delta_1 = t,   k_j = floor(delta_j / beta_j),
        delta_{j+1} = delta_j - k_j * beta_j,

    so 0 <= delta_{j+1} < beta_j at every step.  beta_scheme is any iterable
    of positive reals (see ``geometric``, or pass an explicit list with at
    least n entries).
    """
    t = _scalar("t", t, positive=False)
    n = int(n)
    if n < 1:
        raise ValueError("at least one decomposition step is required")

    betas = []
    ks = []
    deltas = [t]
    it = iter(beta_scheme)
    delta = t
    for j in range(n):
        try:
            b = _scalar(f"modulus {j + 1}", next(it))
        except StopIteration:
            raise ValueError(f"modulus scheme exhausted after {j} terms, need {n}") from None
        q = delta / b
        if q == math.inf:
            raise ValueError(f"modulus {j + 1} is too small: remainder {delta!r} / {b!r} overflows")
        k = int(math.floor(q))
        # floor rounding can overshoot by one ulp; never let the remainder go negative
        delta = max(delta - k * b, 0.0)
        betas.append(b)
        ks.append(k)
        deltas.append(delta)
    return GreedyDecomposition(t=t, betas=tuple(betas), ks=tuple(ks), deltas=tuple(deltas))


def euclid_sequence(alpha, beta, tol=1e-9, max_terms=200):
    """Subtractive remainder recursion on a pair of sample times.

    Starting from alpha_1 = max(alpha, beta) and alpha_2 = min(alpha, beta),
    each step removes the largest integer multiple of the smaller term:

        k_n = floor(alpha_n / alpha_{n+1}),
        alpha_{n+2} = alpha_n - k_n * alpha_{n+1}.

    For an irrational ratio the remainders are positive, strictly
    decreasing, and tend to zero; the recursion stops once a remainder
    drops below tol.  Quotients are taken at face value from double
    arithmetic, with no epsilon nudging: a computed quotient of 0 stops the
    recursion with termination ``precision_floor``.
    """
    alpha, beta = check_pair(alpha, beta)
    tol = _scalar("tol", tol)
    max_terms = int(max_terms)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")

    alphas = [max(alpha, beta), min(alpha, beta)]
    ks = []
    while alphas[-1] >= tol:
        if len(ks) >= max_terms:
            return EuclidSequence(tuple(alphas), tuple(ks), MAX_TERMS)
        q = alphas[-2] / alphas[-1]
        if q == math.inf:
            raise ValueError(f"quotient {alphas[-2]!r} / {alphas[-1]!r} overflows; tol must exceed {alphas[-1]!r}")
        k = int(math.floor(q))
        if k == 0:
            return EuclidSequence(tuple(alphas), tuple(ks), PRECISION_FLOOR)
        ks.append(k)
        alphas.append(max(alphas[-2] - k * alphas[-1], 0.0))
    return EuclidSequence(tuple(alphas), tuple(ks), BELOW_TOL)


def replay_action(spec, z, decomp, n=None):
    """Apply the first n stages of a greedy decomposition to the point z.

    Stage j applies T(betas[j]) exactly ks[j] times, so the result is z
    pushed forward by approximately partial_sum(n) time units; the
    approximation error is controlled by the remainder deltas[n].  z is
    checked once, on entry, and each modulus as a time; the stages are unchecked.
    """
    if n is None:
        n = decomp.n_terms
    n = int(n)
    if not 1 <= n <= decomp.n_terms:
        raise ValueError(f"n must lie in [1, {decomp.n_terms}]")
    x = operator(spec, 0.0)(z)  # the one check of z; T(0) is the identity
    for j in range(n):
        step = _kernel(spec, _scalar("time", decomp.betas[j], positive=False))
        for _ in range(decomp.ks[j]):
            x = step(x)
    return x
