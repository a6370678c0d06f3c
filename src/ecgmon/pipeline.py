"""End-to-end pipeline: source -> noise -> front end -> ADC/ping-pong ->
digital filtering -> heart rate -> telemetry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, telemetry
from .acquisition import PingPongBuffer, dequantize, quantize
from .config import PipelineConfig
from .frontend import apply_frontend
from .signals import SampleFrame, SourceSignal, add_noise, generate_ecg, generate_sine

__all__ = ["PipelineError", "PipelineResult", "run_pipeline", "make_sink"]


class PipelineError(RuntimeError):
    """A stage failed; the message is prefixed with the module name."""

    def __init__(self, module: str, cause: Exception):
        super().__init__(f"{module}: {cause}")
        self.module = module
        self.cause = cause


@dataclass(frozen=True)
class PipelineResult:
    reading: dsp.HeartRateReading
    digital: SampleFrame
    filtered: SampleFrame
    edges: list
    saturated: bool
    overrun: bool
    record: telemetry.TelemetryRecord | None
    alert: telemetry.AlertEvent | None
    receipts: list


def _stage(module: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(module, exc) from exc


def make_sink(sink_spec: str):
    """Build a publish sink from 'stdout', 'file:<path>' or 'http:<port>'."""
    if sink_spec == "stdout":
        return telemetry.StdoutSink()
    if sink_spec.startswith("file:"):
        return telemetry.FileSink(sink_spec[len("file:"):])
    if sink_spec.startswith("http:"):
        return telemetry.HttpSink(int(sink_spec[len("http:"):]))
    raise ValueError(f"unknown sink {sink_spec!r} (use stdout, file:<path> or http:<port>)")


def run_pipeline(
    cfg: PipelineConfig,
    bpm: float | None = None,
    duration: float | None = None,
    publish_records: bool = False,
) -> PipelineResult:
    """Run the whole chain and return the heart-rate reading plus artifacts.

    bpm/duration override the config when given.  With publish_records the
    telemetry record (and any alert) goes to the configured sink.
    """
    bpm = cfg.bpm if bpm is None else bpm
    duration = cfg.duration if duration is None else duration

    if cfg.source == "sine":
        src = _stage("signal_model", generate_sine,
                     bpm / 60.0, cfg.sine_amplitude, cfg.sample_rate, duration)
    else:
        src = _stage("signal_model", generate_ecg, cfg.template, bpm, cfg.sample_rate, duration)
    sig: SourceSignal = _stage("signal_model", add_noise, src, cfg.noise)

    conditioned = _stage("analog_frontend", apply_frontend, sig, cfg.frontend)

    codes = _stage("acquisition", quantize, conditioned.frame.values, cfg.adc)
    buf = PingPongBuffer(cfg.half_capacity)
    consumed: list[np.ndarray] = []

    def acquire() -> None:
        # one DMA-sized block per half; each completed half is taken at once
        for start in range(0, len(codes), cfg.half_capacity):
            if buf.push_block(codes[start:start + cfg.half_capacity]):
                consumed.append(buf.take_ready_half().codes)

    _stage("acquisition", acquire)
    if not consumed:
        raise PipelineError("acquisition", ValueError(
            f"{len(codes)} samples never filled a {cfg.half_capacity}-sample half; "
            "increase duration or shrink half_capacity"))
    digital_codes = np.concatenate(consumed)
    digital = SampleFrame(sample_rate=cfg.sample_rate,
                          values=dequantize(digital_codes, cfg.adc), unit="V")

    filtered = _stage("dsp", dsp.fft_notch, digital, cfg.notch_center, cfg.notch_half_band)
    filtered = _stage("dsp", dsp.smooth_emg, filtered, cfg.smooth_window)
    edges = _stage("dsp", dsp.detect_rising_edges, filtered, cfg.trigger)
    reading = _stage("dsp", dsp.heart_rate_from_edges, edges, cfg.sample_rate)

    record = telemetry.TelemetryRecord(
        device_id=cfg.device_id,
        timestamp=cfg.timestamp,
        bpm=reading.bpm,
        ecg=digital_codes[: cfg.max_ecg].tolist(),
        location=cfg.location,
    )
    alert = _stage("telemetry", telemetry.evaluate_alert,
                   reading.bpm, cfg.alerts, cfg.location, cfg.timestamp)

    receipts = []
    if publish_records:
        with _stage("telemetry", make_sink, cfg.sink) as sink:
            receipts = _stage("telemetry", telemetry.publish_record,
                              sink, record, alert, cfg.max_ecg)

    return PipelineResult(
        reading=reading,
        digital=digital,
        filtered=filtered,
        edges=edges,
        saturated=conditioned.saturated,
        overrun=buf.overrun_flag,
        record=record,
        alert=alert,
        receipts=receipts,
    )
