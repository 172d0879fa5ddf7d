import math

import numpy as np
import pytest

from semiflow.semigroups import decay, evaluate, rotation
from semiflow.stepseq import (
    BELOW_TOL,
    MAX_TERMS,
    EuclidSequence,
    GreedyDecomposition,
    euclid_sequence,
    geometric,
    greedy_decompose,
    replay_action,
)

from .oracles import GOLDEN, ONE_IN_SQRT2, ONE_IN_SQRT5, SQRT2, euclid_exact


# ---- greedy decomposition ---------------------------------------------------------

def test_greedy_zero_target():
    dec = greedy_decompose(0.0, geometric(0.5), 5)
    assert dec.ks == (0, 0, 0, 0, 0)
    assert dec.deltas[-1] == 0.0


def test_greedy_pi_frozen_example():
    # k_1 = floor(pi / 0.5) = 6, then the 0.1415... tail is consumed greedily;
    # expected values recomputed by hand with the same recursion
    dec = greedy_decompose(math.pi, geometric(0.5), 6)
    assert dec.ks == (6, 0, 1, 0, 0, 1)
    assert dec.deltas[-1] == pytest.approx(0.000967653589793116, abs=1e-18)
    assert dec.partial_sum() == pytest.approx(math.pi - dec.deltas[-1], abs=1e-15)


def test_greedy_exact_hit_with_explicit_moduli():
    dec = greedy_decompose(1.0, [1.0, 0.5], 2)
    assert dec.ks == (1, 0)
    assert dec.deltas[-1] == 0.0


def test_greedy_rejects_bad_input():
    with pytest.raises(ValueError):
        greedy_decompose(-1.0, geometric(0.5), 3)
    with pytest.raises(ValueError):
        greedy_decompose(1.0, geometric(0.5), 0)
    with pytest.raises(ValueError):
        greedy_decompose(1.0, [0.5, -0.25], 2)
    with pytest.raises(ValueError):
        greedy_decompose(1.0, [0.5], 2)  # scheme exhausted
    with pytest.raises(ValueError):
        geometric(1.0)
    with pytest.raises(ValueError):
        geometric(0.0)


def test_greedy_invariants_random():
    # Structural invariants: remainder bounded by the previous modulus,
    # and the partial sums reconstruct t up to per-step rounding slack
    rng = np.random.default_rng(123)
    n = 60
    for _ in range(1000):
        t = float(rng.uniform(0.0, 100.0))
        r = float(rng.uniform(0.3, 0.9))
        dec = greedy_decompose(t, geometric(r), n)
        slack = n * 1e-14 * max(1.0, t)
        deltas = np.array(dec.deltas)
        betas = np.array(dec.betas)
        assert np.all(deltas >= 0.0)
        assert np.all(deltas[1:] < betas + slack)
        recon = 0.0
        for j in range(n):
            recon += dec.ks[j] * dec.betas[j]
            assert abs(recon + dec.deltas[j + 1] - t) <= (j + 1) * 1e-14 * max(1.0, t)
        # vanishing moduli force a vanishing remainder
        assert abs(recon - t) <= betas[-1] + slack


def test_greedy_partial_sum_and_dict():
    dec = greedy_decompose(2.5, geometric(0.5), 4)
    assert dec.n_terms == 4
    assert dec.partial_sum(2) == dec.ks[0] * dec.betas[0] + dec.ks[1] * dec.betas[1]
    d = dec.to_dict()
    assert d["t"] == 2.5
    assert len(d["ks"]) == 4
    assert len(d["deltas"]) == 5


# ---- Euclidean remainder sequence ---------------------------------------------------

def test_euclid_sqrt2_against_exact_ring_arithmetic():
    seq = euclid_sequence(math.sqrt(2.0), 1.0, tol=1e-3)
    assert list(seq.ks) == [1, 2, 2, 2, 2, 2, 2, 2]
    assert seq.termination == BELOW_TOL
    assert len(seq.alphas) == 10
    assert seq.alphas[-1] == pytest.approx(8.6655e-4, rel=1e-3)

    exact_alphas, exact_ks, exact_term = euclid_exact(SQRT2, ONE_IN_SQRT2, 1e-3, 200)
    assert list(seq.ks) == exact_ks
    assert exact_term == BELOW_TOL
    # remainders track the exact ring values to double-precision scale
    for lib, ref in zip(seq.alphas, exact_alphas):
        assert abs(lib - float(ref)) <= 1e-12 * seq.alphas[0]


def test_euclid_golden_ratio_all_ones():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    seq = euclid_sequence(phi, 1.0, tol=1e-2)
    assert set(seq.ks) == {1}
    assert seq.termination == BELOW_TOL

    exact_alphas, exact_ks, _ = euclid_exact(GOLDEN, ONE_IN_SQRT5, 1e-2, 200)
    assert list(seq.ks) == exact_ks
    for lib, ref in zip(seq.alphas, exact_alphas):
        assert abs(lib - float(ref)) <= 1e-12 * seq.alphas[0]


def test_euclid_fifteen_term_cross_check():
    # push both pairs deep enough for 15 quotients; the quotients must agree
    # with exact ring arithmetic term for term (remainders accumulate float
    # cancellation at this depth, so only the shallow runs pin them tightly)
    for hi, lo in ((SQRT2, ONE_IN_SQRT2), (GOLDEN, ONE_IN_SQRT5)):
        seq = euclid_sequence(float(hi), float(lo), tol=1e-15, max_terms=15)
        exact_alphas, exact_ks, _ = euclid_exact(hi, lo, 1e-15, 15)
        assert len(seq.ks) == 15
        assert list(seq.ks) == exact_ks
        for lib, ref in zip(seq.alphas, exact_alphas):
            assert abs(lib - float(ref)) <= 1e-10 * seq.alphas[0]


def test_euclid_orders_pair_and_validates():
    seq = euclid_sequence(1.0, math.sqrt(2.0), tol=1e-3)
    assert seq.alphas[0] == math.sqrt(2.0)
    assert seq.alphas[1] == 1.0
    with pytest.raises(ValueError):
        euclid_sequence(2.0, 2.0)
    with pytest.raises(ValueError):
        euclid_sequence(-1.0, 2.0)
    with pytest.raises(ValueError):
        euclid_sequence(1.0, 2.0, tol=0.0)
    with pytest.raises(ValueError):
        euclid_sequence(1.0, 2.0, max_terms=0)


def test_euclid_exact_zero_remainder_reports_below_tol():
    seq = euclid_sequence(2.0, 1.0, tol=1e-9)
    assert seq.ks == (2,)
    assert seq.alphas[-1] == 0.0
    assert seq.termination == BELOW_TOL


def test_euclid_strict_decrease_and_positive_quotients():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        if a == b:
            continue
        ratio = max(a, b) / min(a, b)
        # steer clear of low-denominator rationals where the sequence ends
        # immediately (the recursion itself stays honest either way)
        if min(abs(ratio - round(ratio * q) / q) for q in range(1, 9)) < 1e-6:
            continue
        seq = euclid_sequence(a, b, tol=1e-9)
        checked += 1
        alphas = np.array(seq.alphas)
        assert np.all(alphas[1:] < alphas[:-1])
        assert all(k >= 1 for k in seq.ks)
        assert seq.termination == BELOW_TOL
        assert len(seq.ks) < 200
        # the recursion identity holds to rounding scale
        for i, k in enumerate(seq.ks):
            lhs = seq.alphas[i + 2]
            rhs = seq.alphas[i] - k * seq.alphas[i + 1]
            assert abs(lhs - rhs) <= 1e-14 * seq.alphas[0]


def test_euclid_max_terms_and_dict():
    seq = euclid_sequence(math.sqrt(2.0), 1.0, tol=1e-15, max_terms=5)
    assert seq.termination == MAX_TERMS
    assert len(seq.ks) == 5
    d = seq.to_dict()
    assert d["termination"] == MAX_TERMS
    assert isinstance(EuclidSequence(**{"alphas": seq.alphas, "ks": seq.ks, "termination": seq.termination}), EuclidSequence)


# ---- replay ------------------------------------------------------------------------

def test_replay_zero_time_is_identity():
    dec = greedy_decompose(0.0, geometric(0.5), 4)
    spec = decay(dim=2)
    z = np.array([1.0, 2.0])
    assert np.array_equal(replay_action(spec, z, dec), z)


def test_replay_half_turn():
    dec = greedy_decompose(0.5, geometric(0.5), 1)
    assert dec.ks == (1,)
    spec = rotation(period=1.0)
    out = replay_action(spec, np.array([1.0, 0.0]), dec, 1)
    assert np.allclose(out, [-1.0, 0.0], atol=1e-15)


def test_replay_decay_consumes_pi():
    dec = greedy_decompose(math.pi, geometric(0.5), 6)
    spec = decay(dim=1, box_max=10.0)
    out = replay_action(spec, np.array([3.0]), dec, 6)
    assert out[0] == pytest.approx(max(3.0 - dec.partial_sum(6), 0.0), abs=1e-12)
    assert out[0] == 0.0  # 3 < 3.1406... consumed


def test_replay_matches_single_jump():
    rng = np.random.default_rng(9)
    specs = [rotation(period=1.0), decay(dim=2), ]
    for spec in specs:
        for _ in range(25):
            t = float(rng.uniform(0.0, 10.0))
            dec = greedy_decompose(t, geometric(0.5), 40)
            if hasattr(spec.domain, "radius"):
                z = spec.domain.center + rng.uniform(-3, 3, size=spec.dim)
            else:
                z = rng.uniform(spec.domain.lower, spec.domain.upper)
            walked = replay_action(spec, z, dec)
            jumped = evaluate(spec, dec.partial_sum(), z)
            assert np.linalg.norm(walked - jumped) <= 1e-8


def test_replay_validates_n():
    dec = greedy_decompose(1.0, geometric(0.5), 3)
    spec = decay(dim=1)
    with pytest.raises(ValueError):
        replay_action(spec, np.array([1.0]), dec, 0)
    with pytest.raises(ValueError):
        replay_action(spec, np.array([1.0]), dec, 4)


@pytest.mark.parametrize("modulus", [-1.0, math.nan])
def test_replay_checks_every_modulus_of_a_hand_built_decomposition(modulus):
    dec = GreedyDecomposition(t=1.5, betas=(0.5, modulus), ks=(1, 2), deltas=(1.5, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got"):
        replay_action(decay(dim=2), np.array([1.0, 2.0]), dec)
