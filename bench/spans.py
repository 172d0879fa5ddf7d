"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the package's public functions at the module attributes
through which the package itself calls them (``schemes.evaluate``,
``cli.run_scheme``, ...), so no file of the package is touched.  Each
wrapped call is one span with a parent link.  Self time is computed on
the fly: when a span closes, its duration is added to its parent's child
time, and its self time is its duration minus that child time.

Hot spans (``evaluate``, ``project``, ``fixed_set_distance``) run up to
hundreds of thousands of times per operation.  They are aggregated into
per-name totals and into the call counts of their parent span instead of
being stored one by one, which keeps a traced run's memory small.  Every
other span is stored whole and written out by ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from semiflow import characterize, cli, schemes, semigroups, stepseq, vecspace

# (owner, attribute, span name, layer).  The owner is the module or class
# whose attribute the package looks up at call time.
TARGETS = (
    (cli, "main", "cli.main", "cli"),
    (cli, "run_scheme", "run_scheme", "schemes"),
    (cli, "from_descriptor", "from_descriptor", "semigroups"),
    (cli, "certify_common_fixed", "certify_common_fixed", "characterize"),
    (cli, "euclid_sequence", "euclid_sequence", "stepseq"),
    (characterize, "certify_common_fixed", "certify_common_fixed", "characterize"),
    (characterize, "residual_profile", "residual_profile", "characterize"),
    (characterize, "euclid_sequence", "euclid_sequence", "stepseq"),
    (characterize, "evaluate", "evaluate", "semigroups"),
    (schemes, "evaluate", "evaluate", "semigroups"),
    (schemes, "fixed_set_distance", "fixed_set_distance", "semigroups"),
    (stepseq, "evaluate", "evaluate", "semigroups"),
    (semigroups, "sym_eigendecompose", "sym_eigendecompose", "vecspace"),
    (vecspace.Ball, "project", "project", "vecspace"),
    (vecspace.Box, "project", "project", "vecspace"),
)

HOT = frozenset({"evaluate", "project", "fixed_set_distance"})


class Tracer:
    """Spans and counters of the traced operations of one benchmark run."""

    def __init__(self):
        self.calls = defaultdict(int)        # span name -> calls
        self.total_s = defaultdict(float)    # span name -> inclusive time
        self.self_s = defaultdict(float)     # span name -> self time
        self.layer_self_s = defaultdict(float)
        self.counts = defaultdict(int)       # outcome counters
        self.spans = []                      # stored (non-hot) spans
        self._stack = []
        self._next_id = 0
        self._saved = []

    # ---- span bookkeeping -------------------------------------------------

    # A frame is [id, parent id, name, child time, hot-child counts, start].

    def _open(self, name):
        self._next_id += 1
        stack = self._stack
        frame = [self._next_id, stack[-1][0] if stack else None, name, 0.0, None, 0.0]
        stack.append(frame)
        frame[5] = time.perf_counter()
        return frame

    def _close(self, frame, layer):
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[5]
        own = dur - frame[3]
        name = frame[2]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += own
        self.layer_self_s[layer] += own
        hot = name in HOT
        if stack:
            parent = stack[-1]
            parent[3] += dur
            if hot:
                if parent[4] is None:
                    parent[4] = {}
                slot = parent[4].setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += dur
        if not hot:
            self.spans.append({
                "id": frame[0],
                "parent": frame[1],
                "name": name,
                "layer": layer,
                "start_s": frame[5],
                "dur_s": dur,
                "self_s": own,
                "hot_children": {
                    k: {"calls": v[0], "total_s": v[1]} for k, v in (frame[4] or {}).items()
                },
            })
        return dur

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; return (result, duration)."""
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self._close(frame, layer)
        return result, dur

    def _wrap(self, fn, name, layer):
        open_, close = self._open, self._close
        if name == "project":
            counts = self.counts

            def wrapper(dom, x):
                frame = open_(name)
                try:
                    out = fn(dom, x)
                finally:
                    close(frame, layer)
                if out is not x and not np.array_equal(out, x):
                    counts["project_moved"] += 1
                return out
        elif name == "run_scheme":
            counts = self.counts

            def wrapper(*args, **kwargs):
                frame = open_(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    close(frame, layer)
                counts["scheme_iters"] += report.n_used
                counts["records_kept"] += len(report.iterates_recorded)
                return report
        else:
            def wrapper(*args, **kwargs):
                frame = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, layer)
        return wrapper

    # ---- installation -----------------------------------------------------

    def install(self):
        """Replace every target attribute by its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, layer in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def uninstall(self):
        """Restore the original attributes."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write the stored spans and the aggregates as one JSON file."""
        payload = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "layer_self_s": dict(self.layer_self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
