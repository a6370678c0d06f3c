"""Beat-level detection floors over a noise x bpm grid of 30 s records.

Each cell runs the whole pipeline on the synthetic source and scores its
edges with perfbench/scoring.py: Se = matched / beats, +P = matched /
edges, an edge matching a true R time within +/-150 ms.  The table holds
the counts the edge trigger gets today; a detector change may raise a
cell's Se or +P but not lower either.  The noisy cells carry mains 0.3 mV
and wander 0.2 mV plus the EMG sigma given; the 250 and 300 bpm cells,
above 60 / refractory = 240 bpm, carry none.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from ecgmon import NoiseConfig, PipelineConfig, run_pipeline

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


@pytest.mark.parametrize("emg, bpm, beats, edges, matched", GRID)
def test_cell_keeps_its_floor(scoring, emg, bpm, beats, edges, matched):
    cfg = PipelineConfig(duration=30.0)
    if emg is not None:
        cfg = replace(cfg, noise=NoiseConfig(mains_amplitude=0.3, wander_amplitude=0.2,
                                             emg_sigma=emg))
    score = scoring.DetectionScore()
    score.add(run_pipeline(cfg, bpm=float(bpm)), bpm, cfg.template.r.center)
    assert score.beats == beats
    assert score.se >= matched / beats
    assert score.ppv >= matched / edges
