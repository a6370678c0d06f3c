"""Command-line front door: one executable, one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage or configuration problems, 2 runtime
failures.  All outputs are deterministic for identical (config, seed,
inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import replace

import numpy as np

from . import dsp, telemetry
from .acquisition import AdcConfig, PingPongBuffer, quantize
from .config import ConfigError, PipelineConfig
from .frontend import measure_metrics
from .pipeline import PipelineError, make_sink, run_pipeline
from .render import export_ascii, export_svg, Framebuffer, draw_trace, map_to_trace
from .signals import NoiseConfig, SampleFrame, add_noise, generate_ecg, generate_sine

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for runtime
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_config(args) -> PipelineConfig:
    return PipelineConfig.load(args.config) if args.config else PipelineConfig()


def _json_line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.source:
        cfg = replace(cfg, source=args.source)
    if args.sink:
        cfg = replace(cfg, sink=args.sink)
    result = run_pipeline(cfg, bpm=args.bpm, duration=args.duration,
                          publish_records=args.publish)
    reading = result.reading
    doc = {
        "bpm": round(reading.bpm, 3),
        "period_s": round(reading.period, 6),
        "median_period_s": None if reading.median_period is None else round(reading.median_period, 6),
        "edges": len(result.edges),
        "saturated": result.saturated,
        "overrun": result.overrun,
        "alert": None if result.alert is None else result.alert.message,
        "published": sum(1 for r in result.receipts if r.ok),
    }
    print(_json_line(doc))
    return 0


def _given(flag, setting):
    """A flag given on the command line wins over the config's setting."""
    return setting if flag is None else flag


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rate = _given(args.rate, cfg.sample_rate)
    duration = _given(args.duration, cfg.duration)
    if _given(args.source, cfg.source) == "sine":
        frame = generate_sine(args.freq, _given(args.amplitude, cfg.sine_amplitude), rate, duration)
    else:
        frame = generate_ecg(cfg.template, _given(args.bpm, cfg.bpm), rate, duration)
    flags = {
        "mains_amplitude": args.mains_amplitude,
        "wander_amplitude": args.wander_amplitude,
        "emg_sigma": args.emg_sigma,
        "common_mode_amplitude": args.common_mode_amplitude,
        "rng_seed": args.seed,
    }
    noise = replace(cfg.noise, **{k: v for k, v in flags.items() if v is not None})
    frame = add_noise(frame, noise).differential
    frame.to_csv(args.out)
    return 0


def _cmd_metrics(args) -> int:
    cfg = _load_config(args)
    spec = cfg.frontend
    noise = NoiseConfig(emg_sigma=args.noise_sigma, rng_seed=args.seed) if args.noise_sigma > 0 else None
    report = measure_metrics(spec, sample_rate=args.rate, noise=noise)
    doc = {k: (round(v, 6) if isinstance(v, float) else v) for k, v in report.as_dict().items()}
    print(_json_line(doc))
    if args.response_csv:
        _write_response_csv(spec, args.rate, args.response_csv)
    return 0


def _write_response_csv(spec, rate: float, path) -> None:
    from .frontend import _chain_magnitude

    freqs = np.logspace(np.log10(0.01), np.log10(0.49 * rate), 200)
    mags = _chain_magnitude(spec, rate, freqs) * spec.chain_gain
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,mag_db\n")
        for f, m in zip(freqs, mags):
            fh.write(f"{f:.9g},{20 * np.log10(m):.9g}\n")


def _cmd_notch(args) -> int:
    frame = SampleFrame.from_csv(args.infile)
    out = dsp.fft_notch(frame, center=args.center, half_band=args.half_band)
    out.to_csv(args.out)
    return 0


def _cmd_detect(args) -> int:
    frame = SampleFrame.from_csv(args.infile)
    cfg = dsp.TriggerConfig(
        trigger_level=args.trigger_level,
        band_epsilon=args.band_epsilon,
        run_length=args.run_length,
        refractory=args.refractory,
    )
    edges = dsp.detect_rising_edges(frame, cfg)
    doc: dict = {"edges": [{"index": e.sample_index, "t": round(e.time, 6)} for e in edges]}
    try:
        reading = dsp.heart_rate_from_edges(edges, frame.sample_rate)
        doc["bpm"] = round(reading.bpm, 3)
        doc["period_s"] = round(reading.period, 6)
    except dsp.InsufficientDataError:
        doc["bpm"] = None
        doc["period_s"] = None
    print(_json_line(doc))
    return 0


def _cmd_stream(args) -> int:
    frame = SampleFrame.from_csv(args.infile)
    adc = AdcConfig(resolution_bits=args.bits, vref=args.vref, sample_rate=frame.sample_rate)
    codes = quantize(frame.values, adc)
    buf = PingPongBuffer(args.half_capacity)
    items = threading.Semaphore(0)
    space = threading.Semaphore(0)
    done = threading.Event()
    lines: list[str] = []

    def producer() -> None:
        for start in range(0, len(codes), args.half_capacity):
            if buf.push_block(codes[start:start + args.half_capacity]):
                items.release()
                space.acquire()  # hand-off: block until the consumer took the half
        done.set()
        items.release()

    def consumer() -> None:
        while True:
            items.acquire()
            half = buf.take_ready_half()
            if half is None:
                if done.is_set():
                    return
                continue
            lines.append(_json_line({
                "seq": half.seq,
                "half": half.half,
                "overrun": half.overrun,
                "codes": half.codes.tolist(),
            }))
            space.release()

    threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for line in lines:
        print(line)
    return 0


def _cmd_plot(args) -> int:
    frame = SampleFrame.from_csv(args.infile)
    if args.ascii:
        fb = Framebuffer(width=args.width, height=args.height)
        if len(frame):
            draw_trace(fb, None, map_to_trace(frame, args.width, args.height,
                                              args.v_min, args.v_max))
        print(export_ascii(fb))
        return 0
    export_svg(frame, args.out, width=args.width, height=args.height,
               v_min=args.v_min, v_max=args.v_max)
    return 0


def _cmd_send(args) -> int:
    frame = SampleFrame.from_csv(args.infile, unit=args.unit)
    adc = AdcConfig(sample_rate=frame.sample_rate) if len(frame) > 1 else AdcConfig()
    if args.unit == "mV":
        # lift a bipolar source frame to mid-rail before encoding
        volts = frame.values * 1e-3 + adc.vref / 2
    else:
        volts = frame.values
    codes = quantize(volts, adc)
    record = telemetry.TelemetryRecord(
        device_id=args.device_id,
        timestamp=args.timestamp,
        bpm=args.bpm,
        ecg=codes[: args.max_ecg].tolist(),
        location=args.location,
    )
    policy = telemetry.AlertPolicy(low_bpm=args.low_bpm, high_bpm=args.high_bpm)
    alert = telemetry.evaluate_alert(args.bpm, policy, args.location, args.timestamp)
    with make_sink(args.sink) as sink:
        receipts = telemetry.publish_record(sink, record, alert, args.max_ecg)
    summary = {
        "published": sum(1 for r in receipts if r.ok),
        "failed": sum(1 for r in receipts if not r.ok),
        "alert": None if alert is None else alert.message,
    }
    print(_json_line(summary), file=sys.stderr)
    return 0 if all(r.ok for r in receipts) else RUNTIME_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecgmon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="pipeline config file (key = value sections)")

    p = sub.add_parser("run", parents=[], help="run the full pipeline and report bpm")
    add_config(p)
    p.add_argument("--bpm", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--source", choices=("ecg", "sine"), default=None)
    p.add_argument("--sink", default=None, help="stdout | file:<path> | http:<port>")
    p.add_argument("--publish", action="store_true", help="publish telemetry to the sink")
    p.set_defaults(fn=_cmd_run)

    # flags left out take the config's [signal] and [noise] values
    p = sub.add_parser("simulate", help="generate a source frame to CSV")
    add_config(p)
    p.add_argument("--source", choices=("ecg", "sine"), default=None)
    p.add_argument("--bpm", type=float, default=None)
    p.add_argument("--freq", type=float, default=2.0, help="sine frequency (Hz)")
    p.add_argument("--amplitude", type=float, default=None, help="sine amplitude (mV)")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--mains-amplitude", type=float, default=None)
    p.add_argument("--wander-amplitude", type=float, default=None)
    p.add_argument("--emg-sigma", type=float, default=None)
    p.add_argument("--common-mode-amplitude", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("metrics", help="measure the front-end metrics as JSON")
    add_config(p)
    p.add_argument("--rate", type=float, default=PipelineConfig.sample_rate)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="EMG sigma (mV) for the noise-floor row")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--response-csv", default=None, help="also dump freq_hz,mag_db")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("notch", help="FFT 50 Hz removal on a CSV frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--center", type=float, default=PipelineConfig.notch_center)
    p.add_argument("--half-band", type=float, default=PipelineConfig.notch_half_band)
    p.set_defaults(fn=_cmd_notch)

    p = sub.add_parser("detect", help="edge-trigger detection on a CSV frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trigger-level", type=float, default=None)
    p.add_argument("--band-epsilon", type=float, default=None)
    p.add_argument("--run-length", type=int, default=dsp.TriggerConfig.run_length)
    p.add_argument("--refractory", type=float, default=dsp.TriggerConfig.refractory)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("stream", help="quantize a CSV frame through the ping-pong buffer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--half-capacity", type=int, default=PipelineConfig.half_capacity)
    p.add_argument("--bits", type=int, default=AdcConfig.resolution_bits)
    p.add_argument("--vref", type=float, default=AdcConfig.vref)
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("plot", help="render a CSV frame to SVG or ASCII")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="ecg.svg")
    p.add_argument("--width", type=int, default=Framebuffer.width)
    p.add_argument("--height", type=int, default=Framebuffer.height)
    p.add_argument("--v-min", type=float, default=None)
    p.add_argument("--v-max", type=float, default=None)
    p.add_argument("--ascii", action="store_true", help="print to stdout instead of SVG")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("send", help="encode a CSV frame as telemetry and publish it")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--unit", choices=("mV", "V"), default="mV",
                   help="unit of the CSV values (mV frames are lifted to mid-rail)")
    p.add_argument("--bpm", type=float, required=True)
    p.add_argument("--device-id", default=PipelineConfig.device_id)
    p.add_argument("--location", default=PipelineConfig.location)
    p.add_argument("--timestamp", type=int, default=PipelineConfig.timestamp)
    p.add_argument("--sink", default=PipelineConfig.sink, help="stdout | file:<path> | http:<port>")
    p.add_argument("--low-bpm", type=float, default=telemetry.AlertPolicy.low_bpm)
    p.add_argument("--high-bpm", type=float, default=telemetry.AlertPolicy.high_bpm)
    p.add_argument("--max-ecg", type=int, default=PipelineConfig.max_ecg)
    p.set_defaults(fn=_cmd_send)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"ecgmon: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as exc:
        print(f"ecgmon: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except PipelineError as exc:
        print(f"ecgmon: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except (ValueError, OSError) as exc:
        print(f"ecgmon: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
