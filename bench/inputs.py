"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the package is made here from the workload
seed, with numpy's PCG64 generator, so one seed always gives the same
inputs.  The package receives only these generated values and files.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def rng_for(seed, stream):
    """Independent generator for one named input stream of a workload seed."""
    return np.random.default_rng([int(seed), sum(map(ord, stream))])


def heat_generator(rng, dim, kernel_dim, lo, hi):
    """Symmetric PSD generator A = Q diag(w) Q^T with a known kernel.

    Q is a Haar-random orthogonal matrix.  The first ``kernel_dim`` entries
    of w are 0, the next is exactly lo and the rest are uniform on [lo, hi],
    so the slowest decaying mode, which sets the iterations a scheme needs,
    is the same for every seed.  Returns (A, Q, w); the fixed set of
    exp(-tA) is span(Q[:, :kernel_dim]).
    """
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    w = np.concatenate([np.zeros(kernel_dim), [lo], rng.uniform(lo, hi, dim - kernel_dim - 1)])
    a = (q * w) @ q.T
    return 0.5 * (a + a.T), q, w


def write_matrix(path, matrix):
    """Write a matrix as text that numpy.loadtxt reads back bit for bit."""
    np.savetxt(path, matrix, fmt="%.17g")


def point_in_ball(rng, center, radius_lo, radius_hi):
    """Point at a uniform distance in [radius_lo, radius_hi] from center."""
    g = rng.standard_normal(len(center))
    return np.asarray(center, dtype=float) + rng.uniform(radius_lo, radius_hi) * g / np.linalg.norm(g)


def halpern_configs(seed, count):
    """``count`` (anchor u, CLI seed) pairs; every |u| lies in [1, 8]."""
    rng = rng_for(seed, "halpern")
    return [
        (tuple(float(v) for v in point_in_ball(rng, (0.0, 0.0), 1.0, 8.0)), int(rng.integers(0, 2**31)))
        for _ in range(count)
    ]


def certify_inputs(seed):
    """Specs' raw inputs and candidate points for the certifier workload.

    Returns a dict with the d=64 heat generator (kernel of dimension 4,
    nonzero eigenvalues in [0.5, 4]), the rotation center, and candidate
    lists.  Each candidate is (point, is_fixed).  True fixed points are
    exact kernel combinations or the rotation center; the other points lie
    at least 0.5 away from the fixed set and inside the radius-10 domain.
    """
    rng = rng_for(seed, "certify")
    a, q, _ = heat_generator(rng, 64, 4, 0.5, 4.0)
    kernel = q[:, :4]
    heat_points = []
    for k in range(8):
        if k < 3:
            x = kernel @ rng.standard_normal(4)
            x *= rng.uniform(1.0, 8.0) / np.linalg.norm(x)
            heat_points.append((x, True))
        else:
            while True:
                x = point_in_ball(rng, np.zeros(64), 2.0, 9.0)
                if np.linalg.norm(x - kernel @ (kernel.T @ x)) >= 0.5:
                    break
            heat_points.append((x, False))
    center = rng.uniform(-1.0, 1.0, 2)
    rot_points = [(center.copy(), True)]
    for _ in range(3):
        rot_points.append((point_in_ball(rng, center, 0.5, 8.0), False))
    return {"heat_matrix": a, "kernel": kernel, "center": center,
            "heat_points": heat_points, "rotation_points": rot_points}


def sweep_inputs(seed):
    """d=16 heat generator (kernel of dimension 2, nonzero eigenvalues in
    [0.5, 3]) and the first CLI seed of the sweep seed lists."""
    rng = rng_for(seed, "sweep")
    a, q, w = heat_generator(rng, 16, 2, 0.5, 3.0)
    return {"heat_matrix": a, "kernel": q[:, :2], "w_min": float(w[2:].min()),
            "seed_base": int(rng.integers(0, 2**30))}
