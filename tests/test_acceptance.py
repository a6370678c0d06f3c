"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import dataclasses
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from ecgmon.acquisition import AdcConfig, PingPongBuffer, dequantize, quantize
from ecgmon.config import PipelineConfig
from ecgmon.dsp import fft_notch
from ecgmon.frontend import (
    highpass_cutoff,
    instrument_gain,
    lowpass_cutoff,
    measure_metrics,
    notch_center,
    bench_spec,
)
from ecgmon.pipeline import run_pipeline
from ecgmon.render import Framebuffer, PlotTrace, draw_trace
from ecgmon.signals import NoiseConfig, generate_sine
from ecgmon.telemetry import (
    AlertPolicy,
    TelemetryRecord,
    decode_record,
    encode_record,
    evaluate_alert,
)

GOLDEN = Path(__file__).parent / "golden" / "record.json"


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_instrument_gain_formula():
    """Eq-style gain: ratio set (10, 2) yields exactly 22, under 1 ms."""
    start = time.perf_counter()
    gain = instrument_gain(r1=5e3, r2=5e3, r3=50e3, r4=50e3, r5=10e3, r7=20e3)
    elapsed = time.perf_counter() - start
    assert gain == 22.0
    assert elapsed < 1e-3
    report(1, f"instrument gain 22 exactly in {elapsed * 1e6:.1f} us")


def test_criterion_02_cutoff_formulas():
    """Design corners 0.072 / 70.73 / 49.79 Hz within 0.5%, under 1 ms."""
    # oracle: hand inversion of 1/(2*pi*R*C) and the geometric mean
    c2 = 22e-6
    r_hp = 1.0 / (2 * math.pi * 0.072 * c2)
    c3 = 100e-9
    r15 = 1.0 / (2 * math.pi * 70.73 * c3)
    c_notch = 100e-9
    r_notch = 1.0 / (2 * math.pi * 49.79 * c_notch)
    start = time.perf_counter()
    f_ch = highpass_cutoff(c2, r_hp)
    f_cl = lowpass_cutoff(c3, r15)
    f_0 = notch_center(r_notch, c_notch, r_notch, c_notch)
    elapsed = time.perf_counter() - start
    assert f_ch == pytest.approx(0.072, rel=0.005)
    assert f_cl == pytest.approx(70.73, rel=0.005)
    assert f_0 == pytest.approx(49.79, rel=0.005)
    assert elapsed < 1e-3
    report(2, f"corners {f_ch:.4f} / {f_cl:.2f} / {f_0:.2f} Hz within 0.5%")


def test_criterion_03_bench_chain_metrics():
    """Measured chain metrics reproduce the bench table, under 10 s."""
    start = time.perf_counter()
    rep = measure_metrics(bench_spec(), 500.0)
    elapsed = time.perf_counter() - start
    assert rep.differential_gain == pytest.approx(1650.0, rel=0.02)
    assert rep.cmrr_db == pytest.approx(93.16, abs=0.1)
    assert 0.1 <= rep.bandwidth_low <= 0.3
    assert 69.0 <= rep.bandwidth_high <= 72.0
    assert rep.mains_attenuation_db <= -12.6
    assert elapsed < 10.0
    report(3, (f"gain {rep.differential_gain:.1f}, cmrr {rep.cmrr_db:.2f} dB, "
               f"band {rep.bandwidth_low:.3f}..{rep.bandwidth_high:.2f} Hz, "
               f"alpha {rep.mains_attenuation_db:.2f} dB in {elapsed:.2f} s"))


def test_criterion_04_two_hz_generator_test():
    """2 Hz sine source through the full pipeline reads 120.0 +- 0.5 bpm, under 1 s."""
    cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0)
    start = time.perf_counter()
    result = run_pipeline(cfg, bpm=120.0)
    elapsed = time.perf_counter() - start
    assert result.reading.bpm == pytest.approx(120.0, abs=0.5)
    assert elapsed < 1.0
    report(4, f"2 Hz generator read {result.reading.bpm:.3f} bpm in {elapsed:.2f} s")


def test_criterion_05_end_to_end_ecg_trials():
    """72 bpm ECG + mains/wander/EMG noise: 72 +- 1 bpm in >= 95 of 100 seeded trials."""
    start = time.perf_counter()
    within = 0
    for seed in range(100):
        noise = NoiseConfig(
            mains_amplitude=0.3, mains_freq=50.0,
            wander_amplitude=0.1, wander_freq=0.2,
            emg_sigma=0.05, rng_seed=seed,
        )
        cfg = dataclasses.replace(PipelineConfig(), source="ecg", noise=noise, duration=10.0)
        result = run_pipeline(cfg, bpm=72.0)
        if abs(result.reading.bpm - 72.0) <= 1.0:
            within += 1
    elapsed = time.perf_counter() - start
    assert within >= 95
    assert elapsed < 30.0
    report(5, f"{within}/100 trials within +-1 bpm in {elapsed:.1f} s")


def test_criterion_06_fft_notch_suppression():
    """>= 40 dB on the integer-cycle 50 Hz tone, <= 1% change at 10 Hz."""
    tone50 = generate_sine(50.0, 1.0, 500.0, 2.0)
    out50 = fft_notch(tone50, 50.0, 2.0)
    rms_in = float(np.sqrt(np.mean(tone50.values**2)))
    rms_out = float(np.sqrt(np.mean(out50.values**2)))
    suppression_db = 20 * math.log10(rms_in / max(rms_out, 1e-300))
    assert suppression_db >= 40.0

    tone10 = generate_sine(10.0, 1.0, 500.0, 2.0)
    out10 = fft_notch(tone10, 50.0, 2.0)
    ratio = float(np.sqrt(np.mean(out10.values**2))) / float(np.sqrt(np.mean(tone10.values**2)))
    assert ratio == pytest.approx(1.0, abs=0.01)
    report(6, f"50 Hz suppressed {suppression_db:.0f} dB; 10 Hz RMS ratio {ratio:.6f}")


def test_criterion_07_ping_pong_no_loss():
    """1000 random (capacity, length) cases reassemble exactly; stall gives one gap."""
    rng = random.Random(20240901)
    for case in range(1000):
        capacity = rng.randint(2, 1024)
        length = rng.randint(0, 4 * capacity)
        data = [rng.randrange(4096) for _ in range(length)]
        buf = PingPongBuffer(capacity)
        out: list[int] = []
        for start in range(0, length, capacity):
            if buf.push_block(data[start:start + capacity]):
                out.extend(buf.take_ready_half().codes.tolist())
        assert not buf.overrun_flag, f"case {case}"
        assert out == data[: (length // capacity) * capacity], f"case {case}"

    # scripted stall: two fills unconsumed -> overrun, exactly one seq gap
    buf = PingPongBuffer(8)
    buf.push_block(range(16))
    assert buf.overrun_flag
    seqs = [buf.take_ready_half().seq]
    buf.push_block(range(8))
    seqs.append(buf.take_ready_half().seq)
    gaps = [b - a - 1 for a, b in zip([-1] + seqs, seqs + [seqs[-1] + 1]) if b - a > 1]
    assert seqs == [1, 2]
    assert len(gaps) == 1 and gaps[0] == 1
    report(7, "1000 no-loss cases ok; stall produced one sequence gap")


def test_criterion_08_quantizer_contracts():
    """4096-code round trip, monotone 1e5 sweep, endpoint mapping."""
    cfg = AdcConfig()
    codes = np.arange(cfg.max_code + 1)
    assert np.array_equal(quantize(dequantize(codes, cfg), cfg), codes)
    sweep = np.linspace(-1.0, 4.3, 100_000)
    assert np.all(np.diff(quantize(sweep, cfg)) >= 0)
    assert quantize(0.0, cfg) == 0
    assert quantize(3.3, cfg) == 4095
    report(8, "dequantize/quantize identity, monotonicity and endpoints hold")


def test_criterion_09_erase_redraw_equivalence():
    """100 random trace sequences: incremental rendering == fresh final render."""
    rng = np.random.default_rng(123)
    for case in range(100):
        n_traces = int(rng.integers(2, 8))
        traces = [
            PlotTrace(rows=rng.integers(0, 64, 128), height=64)
            for _ in range(n_traces)
        ]
        incremental = Framebuffer()
        prev = None
        for tr in traces:
            draw_trace(incremental, prev, tr)
            prev = tr
        fresh = Framebuffer()
        draw_trace(fresh, None, traces[-1])
        assert np.array_equal(incremental.pixels, fresh.pixels), f"case {case}"
    report(9, "100 random sequences render pixel-identically")


def test_criterion_10_telemetry_contracts():
    """Round trip 1000 random records, golden bytes, exhaustive alert sweep."""
    rng = random.Random(7)
    for _ in range(1000):
        rec = TelemetryRecord(
            device_id=f"dev-{rng.randrange(1000)}",
            timestamp=rng.randrange(2**32),
            bpm=rng.choice([rng.randint(1, 300), round(rng.uniform(1, 300), 3)]),
            ecg=[rng.randrange(4096) for _ in range(rng.randrange(50))],
            location=f"site-{rng.randrange(100)}",
        )
        assert decode_record(encode_record(rec)) == rec

    golden_record = TelemetryRecord(
        device_id="ecg-001",
        timestamp=1700000000,
        bpm=72.0,
        ecg=[2048, 2051, 2047, 2049],
        location="ward-3/bed-12",
    )
    assert encode_record(golden_record) == GOLDEN.read_bytes()

    policy = AlertPolicy()
    for bpm in range(1, 301):
        fired = evaluate_alert(float(bpm), policy, "x") is not None
        assert fired == (bpm < 50 or bpm > 120), f"bpm={bpm}"
    report(10, "1000 round trips, golden bytes and 1..300 alert sweep all exact")
