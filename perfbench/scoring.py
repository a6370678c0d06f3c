"""Beat-level detection scoring after the ANSI/AAMI EC57 convention.

The synthetic source is exactly periodic and its R wave sits at the R
bump's phase (``EcgTemplateParams.r.center``, 0.40 of the period), so the
true beat times are known.  Each detected edge may claim at most one true
beat lying within +/-150 ms of it; only beats inside the span the pipeline
actually consumed (``len(result.digital)``) count.  Se = matched / beats,
+P = matched / edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MATCH_WINDOW_S = 0.150


def true_beat_times(bpm: float, r_phase: float, span_s: float) -> np.ndarray:
    """R-peak times (s) of a periodic train at ``bpm`` that fall before ``span_s``."""
    period = 60.0 / bpm
    k = np.arange(int(span_s / period) + 2)
    times = (k + r_phase) * period
    return times[times < span_s]


def match_count(beats: np.ndarray, edges: np.ndarray, window: float = MATCH_WINDOW_S) -> int:
    """One-to-one matches between sorted beat and edge times within ``window``.

    Beats are at least 400 ms apart at 150 bpm, more than twice the window,
    so a greedy sweep in time order finds the largest matching.
    """
    i = j = matched = 0
    while i < len(beats) and j < len(edges):
        lag = edges[j] - beats[i]
        if lag < -window:
            j += 1
        elif lag > window:
            i += 1
        else:
            matched += 1
            i += 1
            j += 1
    return matched


@dataclass
class DetectionScore:
    """Pooled beat-level counts over a set of records."""

    beats: int = 0
    edges: int = 0
    matched: int = 0
    records: int = 0
    bpm_abs_error: float = 0.0

    def add(self, result, true_bpm: float, r_phase: float) -> None:
        """Score one ``PipelineResult`` produced at ``true_bpm``."""
        fs = result.digital.sample_rate
        beats = true_beat_times(true_bpm, r_phase, len(result.digital) / fs)
        edges = np.array([e.sample_index / fs for e in result.edges if e.kind == "rising"])
        self.beats += len(beats)
        self.edges += len(edges)
        self.matched += match_count(beats, edges)
        self.records += 1
        self.bpm_abs_error += abs(result.reading.bpm - true_bpm)

    def add_missed(self, true_bpm: float, r_phase: float, span_s: float) -> None:
        """Score a record whose pipeline run failed: every beat is missed."""
        self.beats += len(true_beat_times(true_bpm, r_phase, span_s))

    @property
    def se(self) -> float:
        return self.matched / self.beats

    @property
    def ppv(self) -> float:
        return self.matched / self.edges if self.edges else 0.0

    @property
    def bpm_mae(self) -> float:
        return self.bpm_abs_error / self.records if self.records else float("inf")
