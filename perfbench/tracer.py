"""Traced in-process run: spans and counts around the package's public calls.

``Tracer.installed()`` replaces module and class attributes of ``heliumjcm``
with wrappers for the duration of a ``with`` block and restores them after.
Each wrapper records a span (name, start, end, parent, thread) and the counts
that belong to that layer. Every thread keeps its own stack of open spans; a
span opened on a thread with no open span (a map pool worker) is adopted by the
innermost span that declared itself a parent for other threads
(``absorption_map``). Spans stay in memory until ``spans_json`` writes them.

A span's self time is its duration minus the union of the intervals its
children cover, so two pool threads working under one ``absorption_map`` span
are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import threading
import time
from collections import defaultdict

import numpy as np

# Lines further than this many widths from the drive are skipped by the map
# deposit (spectroscopy._pixel_intensity).
DEPOSIT_WINDOW_SIGMA = 8.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start, end, parent, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: list[int] = []
        self._eigh_digests: set[bytes] = set()
        self._used_states: list[set] = []
        self._restore: list[tuple] = []

    # spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, adopt: bool = False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._adopters[-1] if self._adopters else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        stack.append(span_id)
        if adopt:
            with self._lock:
                self._adopters.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                if adopt:
                    self._adopters.remove(span_id)
                self.spans[span_id] = (span_id, name, start, end, parent,
                                       threading.get_ident())

    def spans_json(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "thread": s[5]} for s in self.spans]

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            _, name, start, end, _, _ = s
            covered = _union_length(
                (max(c[2], start), min(c[3], end)) for c in children[s[0]])
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return out

    # wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             adopt: bool = False) -> None:
        """Replace owner.attr by a spanned wrapper. ``before(args)`` and
        ``after(args, result)`` run outside the span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            with tracer.span(name, adopt=adopt):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        from heliumjcm import cli, config, coupled, spectroscopy

        count = self._count
        try:
            self.wrap(cli, "load_run_config", "config.load_run_config")
            self.wrap(config.RunConfig, "validate", "config.validate")
            for module in (spectroscopy, cli):
                self.wrap(module, "solve_vertical", "vertical.solve_vertical")
            self.wrap(coupled, "assemble_hamiltonian",
                      "coupled.assemble_hamiltonian")
            self.wrap(coupled, "diagonalize", "coupled.diagonalize",
                      before=self._hash_hamiltonian,
                      after=self._track_spectrum)
            self.wrap(coupled.CoupledSpectrum, "locate", "coupled.locate",
                      after=lambda args, k: self._use(args[0], k))
            self.wrap(coupled.CoupledSpectrum, "dominant", "coupled.dominant",
                      before=lambda args: self._use(args[0], args[1]))
            self.wrap(spectroscopy, "transition_catalog",
                      "spectroscopy.transition_catalog",
                      after=self._count_lines)
            self.wrap(spectroscopy, "thermal_populations",
                      "spectroscopy.thermal_populations",
                      after=lambda args, pops: count("pixels"))
            self.wrap(spectroscopy.BroadeningModel, "width_ghz",
                      "spectroscopy.width_ghz",
                      after=lambda args, w: setattr(self._local, "width", w))
            self.wrap(cli, "absorption_map", "spectroscopy.absorption_map",
                      adopt=True)
            self.wrap(cli, "minimum_gap", "coupled.minimum_gap")
            self.wrap(cli, "transition_shift_ghz",
                      "analytics.transition_shift_ghz")
            self.wrap(cli, "full_transition_shift_ghz",
                      "analytics.full_transition_shift_ghz")
            self.wrap(cli, "_write_csv", "cli.write_csv",
                      before=lambda args: count("csv_rows", len(args[2])),
                      after=lambda args, _: count(
                          "csv_bytes", os.path.getsize(args[0])))
            self.wrap(cli, "_write_sidecar", "cli.write_sidecar",
                      after=lambda args, _: count(
                          "sidecar_bytes", os.path.getsize(args[0])))
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _hash_hamiltonian(self, args) -> None:
        digest = hashlib.blake2b(np.ascontiguousarray(args[0]),
                                 digest_size=16).digest()
        with self._lock:
            self._eigh_digests.add(digest)

    def _track_spectrum(self, args, spec) -> None:
        used: set = set()
        object.__setattr__(spec, "_perfbench_used", used)
        with self._lock:
            self._used_states.append(used)
            self.counts["eigvecs_computed"] += len(spec.eigenvalues)

    @staticmethod
    def _use(spec, k) -> None:
        used = getattr(spec, "_perfbench_used", None)
        if used is not None:
            used.add(int(k))

    def _count_lines(self, args, lines) -> None:
        spec, _, populations, band = args
        mw = 0.5 * (band[0] + band[1])
        width = getattr(self._local, "width", None)
        deposited = 0 if width is None else sum(
            1 for line in lines
            if abs(line.frequency_ghz - mw) / width <= DEPOSIT_WINDOW_SIGMA)
        labels = min(len(populations), spec.basis.l_max + 1)
        with self._lock:
            self.counts["initial_states"] += labels
            self.counts["lines"] += len(lines)
            self.counts["lines_deposited"] += deposited

    # metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that the trace alone determines."""
        t = self.layer_times()

        def total(name):
            return t[name]["total_s"] if name in t else 0.0

        def self_s(name):
            return t[name]["self_s"] if name in t else 0.0

        def calls(name):
            return t[name]["count"] if name in t else 0

        eigh_calls = calls("coupled.diagonalize")
        c = self.counts
        return {
            "config.load_s": total("config.load_run_config")
            + total("config.validate"),
            "vertical.solve_count": calls("vertical.solve_vertical"),
            "vertical.solve_s": total("vertical.solve_vertical"),
            "coupled.assemble_count": calls("coupled.assemble_hamiltonian"),
            "coupled.assemble_s": total("coupled.assemble_hamiltonian"),
            "coupled.eigh_count": eigh_calls,
            "coupled.eigh_s": self_s("coupled.diagonalize"),
            "coupled.eigh_ms_per_call": _ratio(
                1e3 * self_s("coupled.diagonalize"), eigh_calls),
            "coupled.eigh_unique_ratio": _ratio(len(self._eigh_digests),
                                                eigh_calls),
            "coupled.eigvec_used_ratio": _ratio(
                sum(len(u) for u in self._used_states), c["eigvecs_computed"]),
            "coupled.locate_count": calls("coupled.locate"),
            "coupled.locate_s": total("coupled.locate"),
            "coupled.dominant_count": calls("coupled.dominant"),
            "coupled.dominant_s": total("coupled.dominant"),
            "coupled.minimum_gap_self_s": self_s("coupled.minimum_gap"),
            "analytics.shift_self_s": self_s("analytics.transition_shift_ghz")
            + self_s("analytics.full_transition_shift_ghz"),
            "spectroscopy.pixel_count": c["pixels"],
            "spectroscopy.initial_states_count": c["initial_states"],
            "spectroscopy.lines_count": c["lines"],
            "spectroscopy.catalog_self_s": self_s(
                "spectroscopy.transition_catalog"),
            "spectroscopy.lines_deposited_ratio": _ratio(
                c["lines_deposited"], c["lines"]),
            "spectroscopy.map_self_s": self_s("spectroscopy.absorption_map"),
            "cli.csv_rows": c["csv_rows"],
            "cli.csv_bytes": c["csv_bytes"],
            "cli.write_csv_s": total("cli.write_csv"),
            "cli.sidecar_bytes": c["sidecar_bytes"],
            "cli.write_sidecar_s": total("cli.write_sidecar"),
        }


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
