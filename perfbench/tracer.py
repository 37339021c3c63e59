"""Span tracer for the braggsim benchmark, applied from outside the package.

Each public function of a layer is replaced, where its callers look it up,
by a wrapper that records one span: name, start, end and the span open when
it was called (its parent). Spans stay in memory; ``layers()`` folds them
into per-name call counts, total time and self time (span time minus the
time of its child spans) when the run ends. Counters sit at the same
boundaries, so ratios such as solves per calibration are measured where the
work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that every call records a span called ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed.
        """
        nid = self._id(name)
        clock, stack = self.clock, self._stack
        span_name, start, end, parent = (self.span_name, self.start,
                                         self.end, self.parent)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        nid = self._ids.get(name)
        return any(self.span_name[i] == nid for i in self._stack)

    def patch(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` by its spanning wrapper. A missing attribute
        is recorded and skipped, so a renamed function costs its metric, not
        the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.span(name, fn, after))

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        return out


def _unitarity_err(U) -> float:
    import numpy as np

    U = np.asarray(U)
    U = U.reshape((-1,) + U.shape[-2:])
    gram = np.conj(np.swapaxes(U, -1, -2)) @ U
    return float(np.max(np.abs(gram - np.eye(U.shape[-1]))))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public functions in the imported package."""
    from braggsim import analysis, bloch, cli, ladder, sequence

    counts = tracer.counts

    def solved(sol, args, kwargs):
        counts["ladder.solves"] += 1
        counts["ladder.rhs_evals"] += int(sol.nfev)
        counts["ladder.steps"] += len(sol.t) - 1
        if tracer.active("ladder.calibrate_pulse_amplitude"):
            counts["ladder.calibration_solves"] += 1

    def propagated(U, args, kwargs):
        err = _unitarity_err(U)
        tracer.maxima["ladder.unitarity_err"] = max(
            err, tracer.maxima.get("ladder.unitarity_err", 0.0))

    def scanned(scan, args, kwargs):
        counts["sequence.shots"] += len(scan.phase_grid)

    def series(result, args, kwargs):
        counts["sequence.shots"] += len(result.times)

    def one_shot(result, args, kwargs):
        counts["sequence.shots"] += 1

    def written(path, args, kwargs):
        counts["report.bytes"] += Path(path).stat().st_size

    # (owner, attribute, span name, after-hook); owners are the modules the
    # callers resolve the name in, so one function may appear twice
    spans = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "calibrate_pulse_amplitude", "ladder.calibrate_pulse_amplitude", None),
        (sequence, "calibrate_pulse_amplitude", "ladder.calibrate_pulse_amplitude", None),
        (sequence, "pulse_propagator", "ladder.pulse_propagator", propagated),
        (cli, "apply_pulse", "ladder.apply_pulse", None),
        (bloch, "selection_profile", "bloch.selection_profile", None),
        (bloch, "bloch_accelerate", "bloch.bloch_accelerate", None),
        (sequence, "prepare_sequence", "sequence.prepare_sequence", None),
        (sequence, "scan_fringe", "sequence.scan_fringe", scanned),
        (sequence, "run_gravity_series", "sequence.run_gravity_series", series),
        (sequence, "run_shot", "sequence.run_shot", one_shot),
        (sequence, "shot_rng", "environment.shot_rng", None),
        (sequence, "sample_mirror_phases", "environment.sample_mirror_phases", None),
        (sequence, "apply_detection_noise", "environment.apply_detection_noise", None),
        (sequence, "synthesize_tide", "environment.synthesize_tide", None),
        (sequence, "tilt_projection_drift", "environment.tilt_projection_drift", None),
        (analysis, "fit_harmonics", "analysis.fit_harmonics", None),
        (sequence, "fit_harmonics", "analysis.fit_harmonics", None),
        (analysis, "fringe_contrast", "analysis.fringe_contrast", None),
        (sequence, "fringe_contrast", "analysis.fringe_contrast", None),
        (analysis.HarmonicFit, "evaluate", "analysis.HarmonicFit.evaluate", None),
        (analysis, "bin_timeseries", "analysis.bin_timeseries", None),
        (analysis, "fit_harmonic_components", "analysis.fit_harmonic_components", None),
        (analysis, "allan_deviation", "analysis.allan_deviation", None),
        (cli, "write_table", "report.write_table", written),
        (cli, "write_summary", "report.write_summary", written),
        (cli, "write_run_meta", "report.write_run_meta", written),
        (ladder, "solve_ivp", "ladder.solve_ivp", solved),
    ]
    for owner, attr, name, after in spans:
        tracer.patch(owner, attr, name, after)
    if tracer.missing:
        print("tracer: not found, left unmeasured: " + ", ".join(tracer.missing),
              file=sys.stderr)
