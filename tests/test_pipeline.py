"""Golden hashes of the signal path: run_pipeline's digital codes and edge
indices, the framebuffer after two draw_trace calls, and the encoded
telemetry record.

Only ints and bools are hashed, so a hash changes exactly when a code, an
edge or a pixel does; the record hash covers its bytes.  The hashes were
captured before the per-record fast paths (cached filter design, skipped
zero wraps, vectorised edge-run and polyline kernels, records built from the
code array) went in; they pin that those paths give the same output.  The
record hashes were captured again when the codes' wire form became base64
of their 16-bit words, after checking that each new line carries the old
line's header and codes.
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from ecgmon.config import PipelineConfig
from ecgmon.dsp import EdgeEvent
from ecgmon.pipeline import run_pipeline
from ecgmon.render import Framebuffer, draw_trace, map_to_trace
from ecgmon.telemetry import encode_record
from ecgmon.signals import EcgTemplateParams, NoiseConfig, Wave

# the benchmark's noise mix: mains, wander and EMG
NOISE = NoiseConfig(mains_amplitude=0.3, wander_amplitude=0.2, emg_sigma=0.05, rng_seed=7)

# P and T bumps near the beat boundary, so their wraps matter
EDGE_TEMPLATE = EcgTemplateParams(
    p=Wave(0.15, 0.02, 0.03),
    q=Wave(-0.10, 0.30, 0.008),
    r=Wave(1.10, 0.34, 0.015),
    s=Wave(-0.20, 0.38, 0.012),
    t=Wave(0.35, 0.93, 0.06),
)

CONFIGS = {
    "ecg_noisy": (PipelineConfig(noise=NOISE), 72.0),
    "sine": (PipelineConfig(source="sine", noise=NOISE), 90.0),
    "edge_template": (PipelineConfig(template=EDGE_TEMPLATE,
                                     noise=replace(NOISE, rng_seed=11)), 110.0),
}

GOLDEN = {
    "ecg_noisy": {
        "codes": "c8832cba7b64e459e8e2a76e1ffa24defdd53653739b33bb5a2db2c254d45bd8",
        "edges": "cea0c3a4957c49d018857a351c817660944781458ade9c26b3d03753d1479f9c",
        "framebuffer": "e5676437a6d4e490440421464331d27ca5e1a428549ebe41fc917f511b7ef7fb",
        "record": "fbb72272ca1cb4f2912eb1e6b1884e34dd995d27d357e710a26ce5801c4717d3",
    },
    "sine": {
        "codes": "5415e2e074d38876a04359e8a974dcafcc7a5ed7c02efa404459994b0cfe1a41",
        "edges": "e2078a168334d37614a99de1c219a10dd213103ea1b66529de343061533c178d",
        "framebuffer": "2dddc8585ac15ef9c7dfdd1521196365f691d16cae0b4058a0b7e449bcd8081d",
        "record": "f92b93b50ba08512cb31c30b24d36e154b07a1e3b524b4734371a7669f4dcf74",
    },
    "edge_template": {
        "codes": "5052821190785b7012250e8d7e9d3401d56c3b799b9a6a68498b8ab2498ae401",
        "edges": "de026aea6c03b136ee80dd12aeb5365eeaee7ecbdc20af8455a22ae65614f0a4",
        "framebuffer": "f4005299fb0ed5484e1e245700689fe07786a28f2ee72083b58c2ed1a61c3d3c",
        "record": "4a4b8916528e97c5b892dbb0d8223d6e02cc76cb9acfc164898bc830811c577e",
    },
}


def _sha(values, dtype) -> str:
    arr = np.asarray(values)
    assert arr.dtype.kind == np.dtype(dtype).kind, arr.dtype
    return hashlib.sha256(arr.astype(dtype).tobytes()).hexdigest()


def _hashes(cfg: PipelineConfig, bpm: float) -> dict[str, str]:
    result = run_pipeline(cfg, bpm=bpm)
    codes = result.record.ecg.tolist()
    assert len(codes) == len(result.digital)
    fb = Framebuffer(cfg.fb_width, cfg.fb_height)
    first = map_to_trace(result.digital, fb.width, fb.height)
    second = map_to_trace(result.filtered, fb.width, fb.height)
    draw_trace(fb, None, first)
    draw_trace(fb, first, second)
    # perfbench/scoring.py reads each edge's kind: a class constant, not a field
    assert all(e.kind == "rising" for e in result.edges)
    assert [f.name for f in fields(EdgeEvent)] == ["sample_index"]
    return {
        "codes": _sha(codes, np.int64),
        "edges": _sha([e.sample_index for e in result.edges], np.int64),
        "framebuffer": _sha(fb.pixels, np.bool_),
        "record": hashlib.sha256(encode_record(result.record)).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pipeline_golden(name):
    cfg, bpm = CONFIGS[name]
    assert _hashes(cfg, bpm) == GOLDEN[name]
