"""Spans around skewtop's public functions, installed from outside the package.

Each target function is replaced by a wrapper at every module attribute
through which the package calls it (``skewtop.duality.sample_batch`` as well
as ``skewtop.skew.sample_batch``), so calls made inside the package are
recorded too.  A span is ``[id, parent_id, name, start, end, count]`` with
times from ``time.monotonic`` (the same clock in every process); ``count``
is the target's work count, where it has one.  Spans stay in memory until
the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _returned_size(args, kwargs, out):
    return len(out)


# (module, attribute, work counter).  Matrices drawn are the length of the
# returned (n, d, d) batch; a free energy's size is its number of terms.
TARGETS = (
    ("engine", "vertex_series", None),
    ("engine", "partition_series", None),
    ("engine", "to_power_sums", None),
    ("engine", "partition_power_sums", None),
    ("engine", "free_energy_power_sums", _returned_size),
    ("engine", "extract_intersections", None),
    ("series", "MultiSeries.log", None),
    ("series", "div_exact_linear", None),
    ("symfunc", "schur_to_power_sums", None),
    ("symfunc", "p_log", None),
    ("moments", "trace_moment_poly", None),
    ("moments", "replica_one_point", None),
    ("moments", "replica_two_point", None),
    ("moments", "replica_three_point", None),
    ("evolution", "u1_series", None),
    ("evolution", "u_replica_series", None),
    ("evolution", "u_replica_series_formal", None),
    ("evolution", "theorem3_series", None),
    ("evolution", "u2_contour_series", None),
    ("airy", "one_point_integer_genus", None),
    ("airy", "one_point_half_genus", None),
    ("airy", "one_point_integer_from_stream", None),
    ("skew", "sample_batch", _returned_size),
    ("skew", "char_poly_avg_exact", None),
    ("duality", "verify_duality", None),
    ("harish", "haar_sample_batch", _returned_size),
    ("harish", "group_integral_mc", None),
    ("harish", "verify_hc", None),
    ("harish", "hc_identity_exact", None),
    ("oracles", "median_of_means", None),
    ("cli", "run_verification_battery", None),
    ("cli", "main", None),
)


class Recorder:
    """Holds the spans of one process; ``take`` hands them over."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self.next_id = 0

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, count):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.next_id, stack[-1] if stack else None, name,
                    time.monotonic(), None, None]
            self.next_id += 1
            self.spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.monotonic()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every target; targets the package no longer has are listed
        in ``missing`` and skipped."""
        importlib.import_module("skewtop.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "skewtop" or n.startswith("skewtop.")]
        for modname, attr, count in TARGETS:
            owner = importlib.import_module(f"skewtop.{modname}")
            *cls, fname = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, fname, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(f"{modname}.{attr}", original, count)
            setattr(owner, fname, wrapper)
            if cls:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
