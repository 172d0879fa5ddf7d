"""Correctness checks on the package's outputs.

Each check returns a list of failure messages; an empty list means the
output is correct.  A workload operation fails when any of its checks
returns a message, and every failed operation counts in ``failed``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def exit_code(code, expected):
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    return []


def halpern_rate_bound(u, center, alpha, beta, period, n):
    """O(1/n) bound on the distance of the n-th Halpern iterate to the center.

    With harmonic weights lam_n = 1/(n+1), the iterate obeys
    d_{n+1} <= (1 - lam_n) q d_n + lam_n |u - c|, where
    q = |cos(pi (beta - alpha) / period)| is the contraction factor of the
    midpoint map (T(alpha) + T(beta))/2 of a plane rotation.  Its limit is
    about lam_n |u - c| / (1 - q); the factor 2 covers the transient.
    """
    q = abs(math.cos(math.pi * (beta - alpha) / period))
    return 2.0 * float(np.linalg.norm(np.asarray(u) - np.asarray(center))) / ((1.0 - q) * n)


def halpern_run(code, payload, u, center, alpha, beta, period, max_iter):
    """Exit 2 (budget spent), n_used == max_iter, final distance within the rate bound."""
    failures = exit_code(code, 2)
    report = payload["report"]
    if report["n_used"] != max_iter:
        failures.append(f"n_used {report['n_used']}, expected {max_iter}")
    fsd = float(np.linalg.norm(np.asarray(report["final_point"]) - np.asarray(center)))
    bound = halpern_rate_bound(u, center, alpha, beta, period, report["n_used"])
    if not fsd <= bound:
        failures.append(f"final distance {fsd!r} above the Halpern bound {bound!r}")
    return failures


def artifact_digest(blobs):
    """One digest over a sequence of file contents."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def artifacts_repeat(key, blobs, seen):
    """A repeated configuration must reproduce its files byte for byte.

    ``seen`` maps each configuration key to the digest of its first run.
    """
    digest = artifact_digest(blobs)
    first = seen.setdefault(key, digest)
    if first != digest:
        return [f"artifacts of configuration {key!r} changed between runs"]
    return []


def verdict(cert_verdict, is_fixed):
    """The certifier's verdict must match the analytic fixed set."""
    expected = "certified" if is_fixed else "not_certified"
    if cert_verdict != expected:
        return [f"verdict {cert_verdict!r}, expected {expected!r}"]
    return []


def near_rational_warning(n_warnings, rational):
    """NearRationalWarning fires on every rational-pair call and on no other."""
    if rational and n_warnings == 0:
        return ["no NearRationalWarning on a rational pair"]
    if not rational and n_warnings:
        return [f"{n_warnings} NearRationalWarning(s) on an irrational pair"]
    return []


def heat_distance_bound(tol, alpha, beta, w_min):
    """Distance to the kernel implied by a pair residual of at most tol.

    Off the kernel, ||exp(-tA)x - x|| >= (1 - exp(-t w_min)) dist(x, ker A),
    so a converged pair residual bounds the distance.
    """
    return tol / (1.0 - math.exp(-min(alpha, beta) * w_min))


def sweep_run(code, payload, n_seeds, bound):
    """Exit 0, every seed converged, final_distance_max within its bound."""
    failures = exit_code(code, 0)
    results = payload["results"]
    if len(results) != n_seeds:
        failures.append(f"{len(results)} seed results, expected {n_seeds}")
    bad = [r["seed"] for r in results if r["termination"] != "converged"]
    if bad:
        failures.append(f"seeds {bad} did not converge")
    if not payload["final_distance_max"] <= bound:
        failures.append(f"final_distance_max {payload['final_distance_max']!r} above {bound!r}")
    return failures
