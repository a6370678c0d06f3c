"""Beat-level detection floors over a noise x bpm grid of 30 s records.

Each cell runs the whole pipeline on the synthetic source and scores its
edges with perfbench/scoring.py: Se = matched / beats, +P = matched /
edges, an edge matching a true R time within +/-150 ms.  The table holds
the counts the edge trigger gets today; a detector change may raise a
cell's Se or +P but not lower either.  The noisy cells carry mains 0.3 mV
and wander 0.2 mV plus the EMG sigma given; the 250 and 300 bpm cells,
above 60 / 0.25 s refractory = 240 bpm, carry none.

The trigger's contract also holds without ground truth, as relations
between runs of detect_rising_edges on a cell's filtered frame
(metamorphic tests): a scale, an offset and a cut of the frame leave its
edges where they were.
"""

import functools
import importlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon import NoiseConfig, PipelineConfig, detect_rising_edges, run_pipeline
from ecgmon.dsp import _REFRACTORY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (EMG sigma in mV, or None for no noise at all; bpm; beats; edges; matched)
GRID = [
    (0.0, 50, 25, 33, 25),
    (0.0, 72, 36, 36, 36),
    (0.0, 120, 59, 59, 59),
    (0.05, 50, 25, 35, 25),
    (0.05, 72, 36, 42, 36),
    (0.05, 120, 59, 59, 59),
    (0.1, 50, 25, 39, 25),
    (0.1, 72, 36, 48, 36),
    (0.1, 120, 59, 68, 59),
    (0.2, 50, 25, 56, 25),
    (0.2, 72, 36, 68, 35),
    (0.2, 120, 59, 81, 59),
    (None, 250, 124, 93, 93),
    (None, 300, 149, 75, 75),
]


@pytest.fixture(scope="module")
def scoring():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("scoring")


CFG = PipelineConfig(duration=30.0)


@functools.lru_cache(maxsize=None)
def cell(emg, bpm):
    """run_pipeline's result for one grid cell."""
    cfg = CFG
    if emg is not None:
        cfg = replace(cfg, noise=NoiseConfig(mains_amplitude=0.3, wander_amplitude=0.2,
                                             emg_sigma=emg))
    return run_pipeline(cfg, bpm=float(bpm))


def edge_indices(frame) -> list[int]:
    return [e.sample_index for e in detect_rising_edges(frame)]


@pytest.mark.parametrize("emg, bpm, beats, edges, matched", GRID)
def test_cell_keeps_its_floor(scoring, emg, bpm, beats, edges, matched):
    score = scoring.DetectionScore()
    score.add(cell(emg, bpm), bpm, CFG.template.r.center)
    assert score.beats == beats
    assert score.se >= matched / beats
    assert score.ppv >= matched / edges


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.sampled_from(GRID), k=st.integers(-4, 4))
def test_scaling_by_a_power_of_two_keeps_the_edges(row, k):
    # the trigger's level and band scale with the frame, and a power of
    # two scales every sample exactly
    frame = cell(*row[:2]).filtered
    assert edge_indices(frame.with_values(frame.values * 2.0 ** k)) == edge_indices(frame)


# (EMG sigma, bpm) of four noisy cells: mains 0.3 mV and wander 0.2 mV each
FIXED = [(0.0, 72), (0.05, 72), (0.0, 50), (0.0, 120)]


@pytest.mark.parametrize("offset", [1e-3, 1.0])  # 1 mV and 1 V on the frame's volts
@pytest.mark.parametrize("emg, bpm", FIXED)
def test_an_offset_keeps_the_edges(emg, bpm, offset):
    frame = cell(emg, bpm).filtered
    assert edge_indices(frame.with_values(frame.values + offset)) == edge_indices(frame)


@pytest.mark.parametrize("emg, bpm", FIXED)
def test_dropping_the_first_samples_shifts_the_edges_back(emg, bpm):
    cut = 137
    frame = cell(emg, bpm).filtered
    edges = edge_indices(frame)
    shifted = edge_indices(frame.with_values(frame.values[cut:]))
    # until the refractory of the last dropped edge ends, the cut frame may
    # trigger on a run that edge suppressed (at 120 bpm it does, at sample 1)
    dropped = [e for e in edges if e < cut]
    settled = dropped[-1] - 1 + round(_REFRACTORY * frame.sample_rate) - cut if dropped else 0
    assert [e for e in shifted if e >= settled] == [e - cut for e in edges if e >= cut]
