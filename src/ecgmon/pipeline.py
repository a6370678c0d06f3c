"""End-to-end pipeline: source -> noise -> front end -> ADC/ping-pong ->
digital filtering -> heart rate -> telemetry."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dsp, telemetry
from .acquisition import PingPongBuffer, dequantize, quantize
from .config import PipelineConfig
from .frontend import apply_frontend
from .signals import SampleFrame, SourceSignal, add_noise, generate_ecg, generate_sine

__all__ = ["PipelineError", "PipelineResult", "source_signal", "report", "run_pipeline"]


class PipelineError(RuntimeError):
    """A stage failed; the message is prefixed with the module name."""

    def __init__(self, module: str, cause: Exception):
        super().__init__(f"{module}: {cause}")


@dataclass(frozen=True)
class PipelineResult:
    reading: dsp.HeartRateReading
    digital: SampleFrame
    filtered: SampleFrame
    edges: list
    saturated: bool
    record: telemetry.TelemetryRecord | None
    alert: telemetry.AlertEvent | None
    receipts: list


def _stage(module: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(module, exc) from exc


def source_signal(cfg: PipelineConfig) -> SourceSignal:
    """The config's source with its noise added: the ECG beat train, or a
    sine at bpm / 60 Hz."""
    if cfg.source == "sine":
        src = generate_sine(cfg.bpm / 60.0, cfg.sine_amplitude, cfg.sample_rate, cfg.duration)
    else:
        src = generate_ecg(cfg.template, cfg.bpm, cfg.sample_rate, cfg.duration)
    return add_noise(src, cfg.noise)


def report(
    cfg: PipelineConfig, bpm: float, codes, publish_records: bool,
) -> tuple[telemetry.TelemetryRecord, telemetry.AlertEvent | None, list]:
    """The telemetry record of bpm and the first max_ecg codes, its alert
    (or None) and, with publish_records, the configured sink's receipts."""
    record = telemetry.TelemetryRecord(
        device_id=cfg.device_id,
        timestamp=cfg.timestamp,
        bpm=bpm,
        ecg=codes[: cfg.max_ecg],
        location=cfg.location,
    )
    alert = telemetry.evaluate_alert(bpm, cfg.alerts, cfg.location, cfg.timestamp)
    receipts = []
    if publish_records:
        with telemetry.make_sink(cfg.sink) as sink:
            receipts = telemetry.publish_record(sink, record, alert, cfg.max_ecg)
    return record, alert, receipts


def run_pipeline(
    cfg: PipelineConfig,
    bpm: float | None = None,
    duration: float | None = None,
    publish_records: bool = False,
) -> PipelineResult:
    """Run the whole chain and return the heart-rate reading plus artifacts.

    bpm/duration, when given, replace the config's values through its
    checks, so a value it refuses raises ValueError before any stage runs.
    With publish_records the telemetry record (and any alert) goes to the
    configured sink.
    """
    overrides = {"bpm": bpm, "duration": duration}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    sig = _stage("signal_model", source_signal, cfg)

    conditioned = _stage("analog_frontend", apply_frontend, sig, cfg.frontend)

    codes = _stage("acquisition", quantize, conditioned.frame.values, cfg.adc)
    consumed = _stage("acquisition",
                      lambda: [h.codes for h in PingPongBuffer(cfg.half_capacity).acquire(codes)])
    if not consumed:
        raise PipelineError("acquisition", ValueError(
            f"{len(codes)} samples never filled a {cfg.half_capacity}-sample half; "
            "increase duration or shrink half_capacity"))
    digital_codes = np.concatenate(consumed)
    digital = SampleFrame(sample_rate=cfg.sample_rate, values=dequantize(digital_codes, cfg.adc))

    filtered = _stage("dsp", dsp.fft_notch, digital, cfg.notch_center, cfg.notch_half_band)
    filtered = _stage("dsp", dsp.smooth_emg, filtered, cfg.smooth_window)
    edges = _stage("dsp", dsp.detect_rising_edges, filtered, cfg.refractory)
    reading = _stage("dsp", dsp.heart_rate_from_edges, edges, cfg.sample_rate)

    record, alert, receipts = _stage("telemetry", report,
                                     cfg, reading.bpm, digital_codes, publish_records)

    return PipelineResult(
        reading=reading,
        digital=digital,
        filtered=filtered,
        edges=edges,
        saturated=conditioned.saturated,
        record=record,
        alert=alert,
        receipts=receipts,
    )
