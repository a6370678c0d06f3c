"""Span and counter recording for the traced benchmark run.

Spans are recorded from the benchmark's side by replacing public names on
the package's modules with timing wrappers for the duration of the traced
pass.  Names are patched where their callers look them up: the
benchmark calls through the ``ecgmon`` package, ``run_pipeline`` looks
up ``generate_ecg``, ``apply_frontend``, ``quantize`` ... in
``ecgmon.pipeline`` and ``dsp.*`` / ``telemetry.*`` on those modules, and
``measure_metrics`` / ``retrieve_and_plot`` / ``export_svg`` look up their
helpers in ``ecgmon.frontend``, ``ecgmon.telemetry`` and ``ecgmon.render``.
Only public names are touched.

``push_sample`` runs once per sample and is not wrapped; the acquisition
buffer time is instead the interval from ``quantize`` returning to
``dequantize`` being entered, and halves are counted from
``take_ready_half`` and gaps in ``ReadyHalf.seq``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("signals", "frontend", "acquisition", "dsp", "telemetry", "render", "pipeline")

# (per-layer metric, span name) pairs reported as summed span wall time
SPAN_TIMES = (
    ("acquisition.buffer_s", "acquisition.buffer"),
    ("acquisition.quantize_s", "acquisition.quantize"),
    ("acquisition.dequantize_s", "acquisition.dequantize"),
    ("signals.generate_s", "signals.generate"),
    ("signals.noise_s", "signals.noise"),
    ("frontend.apply_s", "frontend.apply"),
    ("frontend.measure_s", "frontend.measure"),
    ("dsp.notch_s", "dsp.notch"),
    ("dsp.smooth_s", "dsp.smooth"),
    ("dsp.detect_s", "dsp.detect"),
    ("dsp.rate_s", "dsp.rate"),
    ("telemetry.record_build_s", "telemetry.record_build"),
    ("telemetry.encode_s", "telemetry.encode"),
    ("telemetry.publish_s.file", "telemetry.publish.file"),
    ("telemetry.publish_s.http", "telemetry.publish.http"),
    ("telemetry.decode_s", "telemetry.decode"),
    ("render.map_s", "render.map"),
    ("render.draw_s", "render.draw"),
    ("render.svg_s", "render.svg"),
)

COUNTS = (
    "acquisition.halves_consumed",
    "acquisition.halves_dropped",
    "acquisition.samples_discarded",
    "signals.samples",
    "frontend.discretize_calls",
    "dsp.edges",
    "telemetry.publish_attempts",
    "telemetry.publish_retries",
    "telemetry.publish_failed",
    "telemetry.bytes_sent",
    "telemetry.alerts",
    "render.frames",
)

# unit of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name, _ in SPAN_TIMES},
    **{name: ("B" if name.endswith("bytes_sent") else "count") for name in COUNTS},
    "telemetry.publish_p99_ms": "ms",  # HTTP publishes only
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
    "dsp.bpm_mae": "bpm",  # mean |reading - true bpm| over the quality records
}


class Tracer:
    """In-memory span list plus counters, filled by the installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._quantize_end = 0
        self._quantized = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args, kwargs)`` may count."""
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, em) -> None:
        """Replace the public names listed in the module docstring on package ``em``."""
        from ecgmon import dsp, frontend, pipeline, render, telemetry

        def count_samples(frame, args, kwargs):
            self.counts["signals.samples"] += len(frame)

        def after_quantize(codes, args, kwargs):
            self._quantize_end = perf_counter_ns()
            self._quantized = len(codes)

        def before_dequantize(args, kwargs):
            # the acquire loop and the concatenation of the consumed halves
            self.spans.append(["acquisition.buffer", self._quantize_end, perf_counter_ns(),
                               self._stack[-1] if self._stack else -1])
            self.counts["acquisition.samples_discarded"] += self._quantized - len(args[0])

        def count_edges(edges, args, kwargs):
            self.counts["dsp.edges"] += len(edges)

        def count_alert(alert, args, kwargs):
            self.counts["telemetry.alerts"] += alert is not None

        def count_frame(fb, args, kwargs):
            self.counts["render.frames"] += 1

        for name in ("generate_ecg", "generate_sine"):
            self._patch(pipeline, name,
                        self.span("signals.generate", getattr(pipeline, name), count_samples))
        self._patch(pipeline, "add_noise", self.span("signals.noise", pipeline.add_noise))
        self._patch(frontend, "generate_sine",
                    self.span("signals.generate", frontend.generate_sine, count_samples))
        self._patch(frontend, "add_noise", self.span("signals.noise", frontend.add_noise))

        self._patch(pipeline, "apply_frontend",
                    self.span("frontend.apply", pipeline.apply_frontend))
        self._patch(frontend, "apply_frontend",
                    self.span("frontend.apply", frontend.apply_frontend))
        self._patch(frontend, "discretize",
                    self.counted("frontend.discretize_calls", frontend.discretize))
        self._patch(em, "measure_metrics", self.span("frontend.measure", em.measure_metrics))

        self._patch(pipeline, "quantize",
                    self.span("acquisition.quantize", pipeline.quantize, after_quantize))
        self._patch(pipeline, "dequantize",
                    self.span("acquisition.dequantize", pipeline.dequantize,
                              before=before_dequantize))
        self._patch(pipeline, "PingPongBuffer", self._buffer_class(pipeline.PingPongBuffer))

        self._patch(dsp, "fft_notch", self.span("dsp.notch", dsp.fft_notch))
        self._patch(dsp, "smooth_emg", self.span("dsp.smooth", dsp.smooth_emg))
        self._patch(dsp, "detect_rising_edges",
                    self.span("dsp.detect", dsp.detect_rising_edges, count_edges))
        self._patch(dsp, "heart_rate_from_edges", self.span("dsp.rate", dsp.heart_rate_from_edges))

        self._patch(telemetry, "TelemetryRecord",
                    self.span("telemetry.record_build", telemetry.TelemetryRecord))
        self._patch(telemetry, "evaluate_alert",
                    self.span("telemetry.alert", telemetry.evaluate_alert, count_alert))
        for module in (em, telemetry):
            self._patch(module, "encode_record", self.span("telemetry.encode", module.encode_record))
            self._patch(module, "encode_alert", self.span("telemetry.encode", module.encode_alert))
            self._patch(module, "publish", self._publish(module.publish))
        self._patch(em, "retrieve_and_plot",
                    self.span("telemetry.retrieve", em.retrieve_and_plot))
        self._patch(telemetry, "decode_record", self.span("telemetry.decode", telemetry.decode_record))

        self._patch(telemetry, "export_svg", self.span("render.svg", telemetry.export_svg))
        self._patch(render, "map_to_trace", self.span("render.map", render.map_to_trace))
        self._patch(em, "map_to_trace", self.span("render.map", em.map_to_trace))
        self._patch(em, "draw_trace", self.span("render.draw", em.draw_trace, count_frame))

        self._patch(em, "run_pipeline", self.span("pipeline.run", em.run_pipeline))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _buffer_class(self, base):
        tracer = self

        class TracedPingPongBuffer(base):
            """Counts consumed halves and sequence gaps (dropped halves)."""

            _expected_seq = 0

            def take_ready_half(self):
                half = super().take_ready_half()
                if half is not None:
                    tracer.counts["acquisition.halves_consumed"] += 1
                    tracer.counts["acquisition.halves_dropped"] += half.seq - self._expected_seq
                    self._expected_seq = half.seq + 1
                return half

        return TracedPingPongBuffer

    def _publish(self, fn):
        def traced(sink, payload, *args, **kwargs):
            kind = sink.describe().split(":", 1)[0]
            index = self._open(f"telemetry.publish.{kind}")
            try:
                receipt = fn(sink, payload, *args, **kwargs)
            finally:
                self._close(index)
            self.counts["telemetry.publish_attempts"] += receipt.attempts
            self.counts["telemetry.publish_retries"] += receipt.attempts - 1
            self.counts["telemetry.publish_failed"] += not receipt.ok
            if receipt.ok:
                self.counts["telemetry.bytes_sent"] += len(payload)
            return receipt
        traced.__wrapped__ = fn
        return traced

    # -- reporting -------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ones, from the recorded spans."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[index]
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        http_ms = []
        for index, (name, _, _, _) in enumerate(self.spans):
            self_ns[name.split(".", 1)[0]] += duration[index] - child[index]
            total_ns[name] += duration[index]
            if name == "telemetry.publish.http":
                http_ms.append(duration[index] / 1e6)
        out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({metric: total_ns[span] / 1e9 for metric, span in SPAN_TIMES})
        out.update({key: self.counts[key] for key in COUNTS})
        out["telemetry.publish_p99_ms"] = float(np.percentile(http_ms, 99)) if http_ms else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        t0 = min((span[1] for span in self.spans), default=0)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

