"""Desk-scale software model of a portable ECG monitor.

Pipeline: synthetic signal source -> analog front-end model -> 12-bit ADC
with a ping-pong double buffer -> digital filtering and edge-trigger heart
rate -> scope-style rendering and JSON telemetry with threshold alerts.
"""

from .signals import (
    EcgTemplateParams,
    NoiseConfig,
    SampleFrame,
    SourceSignal,
    Wave,
    add_noise,
    generate_ecg,
    generate_sine,
)
from .frontend import (
    ComponentValues,
    FrontEndResult,
    FrontEndSpec,
    MetricsReport,
    apply_frontend,
    discretize,
    highpass_cutoff,
    instrument_gain,
    lowpass_cutoff,
    measure_metrics,
    notch_center,
    bench_components,
    bench_spec,
    voltage_gain,
)
from .acquisition import AdcConfig, PingPongBuffer, ReadyEvent, ReadyHalf, dequantize, quantize
from .dsp import (
    EdgeEvent,
    HeartRateReading,
    InsufficientDataError,
    TriggerConfig,
    detect_rising_edges,
    fft_notch,
    heart_rate_from_edges,
    smooth_emg,
)
from .render import Framebuffer, PlotTrace, draw_trace, export_ascii, export_svg, map_to_trace
from .telemetry import (
    AlertEvent,
    AlertPolicy,
    DeliveryReceipt,
    FileSink,
    HttpSink,
    LoopbackListener,
    PayloadTooLargeError,
    StdoutSink,
    TelemetryRecord,
    decode_record,
    encode_alert,
    encode_record,
    evaluate_alert,
    publish,
    retrieve_and_plot,
)
from .config import ConfigError, PipelineConfig
from .pipeline import PipelineError, PipelineResult, make_sink, run_pipeline

__version__ = "0.1.0"
