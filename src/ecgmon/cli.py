"""Command-line front door: one executable, one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage or configuration problems, 2 runtime
failures.  All outputs are deterministic for identical (config, seed,
inputs).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dsp
from .acquisition import PingPongBuffer, quantize
from .config import _KEYS, SOURCES, ConfigError, PipelineConfig, _parse
from .frontend import chain_magnitude, measure_metrics
from .pipeline import PipelineError, report, run_pipeline, source_signal
from .render import export_ascii, export_svg, Framebuffer, _require_target, draw_trace, map_to_trace
from .signals import NoiseConfig, SampleFrame
from .telemetry import _json_bytes

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for runtime
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _config(args) -> PipelineConfig:
    """The --config file, or the defaults, with the text of every given flag
    whose dest names a config key parsed like that key's file value and
    applied through the config's checks; the file has loaded on its own, so
    a refusal here is the flags'."""
    cfg = PipelineConfig.load(args.config) if getattr(args, "config", None) else PipelineConfig()
    changes: dict = {}
    for key, text in vars(args).items():
        if key in _KEYS and text is not None:
            _parse(key, text, changes, "command line")
    return cfg.updated(changes, "command line")


def _json_line(doc: dict) -> str:
    return _json_bytes(doc).decode("utf-8")


def _cmd_run(args) -> int:
    result = run_pipeline(_config(args), publish_records=args.publish)
    reading = result.reading
    failed = [r for r in result.receipts if not r.ok]
    doc = {
        "bpm": round(reading.bpm, 3),
        "period_s": round(reading.period, 6),
        "median_period_s": None if reading.median_period is None else round(reading.median_period, 6),
        "edges": len(result.edges),
        "saturated": result.saturated,
        "alert": None if result.alert is None else result.alert.message,
        "published": len(result.receipts) - len(failed),
    }
    print(_json_line(doc))
    for receipt in failed:
        print(f"ecgmon: publish failed: {receipt.error}", file=sys.stderr)
    return RUNTIME_EXIT if failed else 0


def _cmd_simulate(args) -> int:
    source_signal(_config(args)).differential.to_csv(args.out)
    return 0


def _cmd_metrics(args) -> int:
    cfg = _config(args)
    noise = NoiseConfig(emg_sigma=cfg.noise.emg_sigma, rng_seed=cfg.noise.rng_seed)
    measured = measure_metrics(cfg.frontend, sample_rate=cfg.sample_rate, noise=noise)
    doc = {k: (round(v, 6) if isinstance(v, float) else v) for k, v in measured.as_dict().items()}
    print(_json_line(doc))
    if args.response_csv:
        _write_response_csv(cfg.frontend, cfg.sample_rate, args.response_csv)
    return 0


def _write_response_csv(spec, rate: float, path) -> None:
    freqs = np.logspace(np.log10(0.01), np.log10(0.49 * rate), 200)
    mags = chain_magnitude(spec, rate, freqs) * spec.chain_gain
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
    cfg = _config(args)
    frame = SampleFrame.from_csv(args.infile)
    edges = dsp.detect_rising_edges(frame, cfg.refractory)
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
    cfg = _config(args)
    frame = SampleFrame.from_csv(args.infile)
    codes = quantize(frame.values, cfg.adc)
    for half in PingPongBuffer(cfg.half_capacity).acquire(codes):
        print(_json_line({
            "seq": half.seq,
            "half": half.half,
            "codes": half.codes.tolist(),
        }))
    return 0


def _cmd_plot(args) -> int:
    cfg = _config(args)
    frame = SampleFrame.from_csv(args.infile)
    if args.ascii:
        fb = Framebuffer(width=cfg.fb_width, height=cfg.fb_height)
        _require_target(cfg.fb_width, cfg.fb_height, args.v_min, args.v_max)  # an empty frame maps nothing
        if len(frame):
            draw_trace(fb, None, map_to_trace(frame, cfg.fb_width, cfg.fb_height,
                                              args.v_min, args.v_max))
        print(export_ascii(fb))
        return 0
    export_svg(frame, args.out, width=cfg.fb_width, height=cfg.fb_height,
               v_min=args.v_min, v_max=args.v_max)
    return 0


def _cmd_send(args) -> int:
    cfg = _config(args)
    frame = SampleFrame.from_csv(args.infile)
    if args.unit == "mV":
        # lift a bipolar source frame to mid-rail before encoding
        volts = frame.values * 1e-3 + cfg.adc.vref / 2
    else:
        volts = frame.values
    codes = quantize(volts, cfg.adc)
    _, alert, receipts = report(cfg, args.reading, codes, publish_records=True)
    summary = {
        "published": sum(1 for r in receipts if r.ok),
        "failed": sum(1 for r in receipts if not r.ok),
        "alert": None if alert is None else alert.message,
    }
    print(_json_line(summary), file=sys.stderr)
    return 0 if all(r.ok for r in receipts) else RUNTIME_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecgmon", description=__doc__)
    # a flag whose dest names a config key takes no type: _config parses its text
    # like the file's; a flag named after a key it does not set takes another dest
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="pipeline config file (key = value sections)")

    p = sub.add_parser("run", parents=[], help="run the full pipeline and report bpm")
    add_config(p)
    p.add_argument("--bpm")
    p.add_argument("--duration")
    p.add_argument("--source", choices=SOURCES)
    p.add_argument("--sink", help="stdout | file:<path> | http:<port>")
    p.add_argument("--publish", action="store_true", help="publish telemetry to the sink")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("simulate", help="generate a source frame to CSV")
    add_config(p)
    p.add_argument("--source", choices=SOURCES)
    p.add_argument("--bpm", help="heart rate; a sine runs at bpm / 60 Hz")
    p.add_argument("--amplitude", dest="sine_amplitude", metavar="AMPLITUDE",
                   help="sine amplitude (mV)")
    p.add_argument("--rate", dest="sample_rate", metavar="RATE")
    p.add_argument("--duration")
    p.add_argument("--mains-amplitude")
    p.add_argument("--wander-amplitude")
    p.add_argument("--emg-sigma")
    p.add_argument("--common-mode-amplitude")
    p.add_argument("--seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("metrics", help="measure the front-end metrics as JSON")
    add_config(p)
    p.add_argument("--rate", dest="sample_rate", metavar="RATE")
    p.add_argument("--noise-sigma", dest="emg_sigma", metavar="NOISE_SIGMA",
                   help="EMG sigma (mV) for the noise-floor row")
    p.add_argument("--seed")
    p.add_argument("--response-csv", help="also dump freq_hz,mag_db")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("notch", help="FFT 50 Hz removal on a CSV frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--center", type=float, default=PipelineConfig.notch_center)
    p.add_argument("--half-band", type=float, default=PipelineConfig.notch_half_band)
    p.set_defaults(fn=_cmd_notch)

    p = sub.add_parser("detect", help="edge-trigger detection on a CSV frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--refractory")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("stream", help="quantize a CSV frame through the ping-pong buffer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--half-capacity")
    p.add_argument("--bits", dest="resolution_bits", metavar="BITS")
    p.add_argument("--vref")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("plot", help="render a CSV frame to SVG or ASCII")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="ecg.svg")
    p.add_argument("--width")
    p.add_argument("--height")
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--ascii", action="store_true", help="print to stdout instead of SVG")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("send", help="encode a CSV frame as telemetry and publish it")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--unit", choices=("mV", "V"), default="mV",
                   help="unit of the CSV values (mV frames are lifted to mid-rail)")
    # the reading to send, not [signal] bpm
    p.add_argument("--bpm", type=float, required=True, dest="reading", metavar="BPM")
    p.add_argument("--device-id")
    p.add_argument("--location")
    p.add_argument("--timestamp")
    p.add_argument("--sink", help="stdout | file:<path> | http:<port>")
    p.add_argument("--low-bpm")
    p.add_argument("--high-bpm")
    p.add_argument("--max-ecg")
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
    except (PipelineError, ValueError, OSError, MemoryError) as exc:
        print(f"ecgmon: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
