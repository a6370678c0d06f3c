"""Config parsing, pipeline, and CLI subcommand tests."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon import cli, pipeline, telemetry
from ecgmon.acquisition import AdcConfig
from ecgmon.cli import build_parser, main
from ecgmon.config import _KEYS, _SCHEMA, ConfigError, PipelineConfig
from ecgmon.frontend import FrontEndSpec
from ecgmon.pipeline import PipelineError, run_pipeline, source_signal
from ecgmon.signals import NoiseConfig
from ecgmon.cloud import LoopbackListener
from ecgmon.telemetry import AlertPolicy, decode_record, make_sink

import dataclasses


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.sample_rate == 500.0
        assert cfg.half_capacity == 512
        assert cfg.frontend.chain_gain == pytest.approx(1650.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: PipelineConfig(half_capacity=512.5), "half_capacity must be an integer, got 512.5"),
        (lambda: PipelineConfig(half_capacity=True), "half_capacity must be an integer, got True"),
        (lambda: PipelineConfig(half_capacity=0), "half_capacity must be >= 1, got 0"),
        (lambda: PipelineConfig(smooth_window=5.0), "window must be an integer, got 5.0"),
        (lambda: PipelineConfig(max_ecg=50.5), "max_ecg must be an integer, got 50.5"),
        (lambda: PipelineConfig(fb_width=128.5), "width must be an integer, got 128.5"),
        (lambda: NoiseConfig(rng_seed=1.5), "rng_seed must be an integer, got 1.5"),
    ])
    def test_integer_settings_refuse_non_integers(self, build, message):
        """Refused where each is defined, not truncated or left to a stage;
        the config and the buffer give the same half_capacity messages."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_load_sections(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text(
            "[signal]\n"
            "source = sine\n"
            "bpm = 120  # 2 Hz\n"
            "\n"
            "[noise]\n"
            "mains_amplitude = 0.3\n"
            "seed = 7\n"
            "\n"
            "[trigger]\n"
            "refractory = 0.2\n"
        )
        cfg = PipelineConfig.load(path)
        assert cfg.source == "sine"
        assert cfg.bpm == 120.0
        assert cfg.noise.mains_amplitude == 0.3
        assert cfg.noise.rng_seed == 7
        assert cfg.refractory == 0.2

    def test_readme_block_is_the_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert PipelineConfig.loads(block, name="README.md") == PipelineConfig()

    def test_every_key_lands_in_its_field(self):
        cfg = PipelineConfig.loads(_ALL_KEYS)
        expected = PipelineConfig(
            source="sine", sample_rate=400.0, duration=6.0, bpm=90.0, sine_amplitude=0.4,
            noise=NoiseConfig(mains_amplitude=0.2, mains_freq=60.0, wander_amplitude=0.05,
                              wander_freq=0.3, emg_sigma=0.01, dc_offset=0.02,
                              common_mode_amplitude=0.1, common_mode_freq=55.0, rng_seed=7),
            frontend=FrontEndSpec(instrument_gain=20.0, voltage_gain=70.0, f_ch=0.2, f_cl=68.0,
                                  f_0=49.5, notch_q=25.0, cmrr_db=90.0, lift_bias=1.6,
                                  supply_min=0.1, supply_max=3.2),
            adc=AdcConfig(resolution_bits=11, vref=3.0), half_capacity=256,
            notch_center=49.0, notch_half_band=3.0, smooth_window=7, refractory=0.3,
            alerts=AlertPolicy(low_bpm=55.0, high_bpm=100.0),
            fb_width=96, fb_height=48,
            device_id="dev-9", location="ward-3", sink="file:records.jsonl", max_ecg=1000,
            timestamp=42,
        )
        assert cfg == expected
        # every value differs from its default, so no key can land unnoticed
        default = PipelineConfig()
        for name in ("noise", "frontend", "adc", "alerts"):
            sub, base = getattr(cfg, name), getattr(default, name)
            for f in dataclasses.fields(sub):
                assert getattr(sub, f.name) != getattr(base, f.name), f"{name}.{f.name}"
        for f in dataclasses.fields(cfg):
            if f.name != "template":
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        lines = [line.split("=")[0].strip() for line in _ALL_KEYS.splitlines() if "=" in line]
        assert len(lines) == len(set(lines)) == sum(len(keys) for keys in _SCHEMA.values())
        # so no key is in two sections, and the flat index holds every one
        assert set(lines) == set(_KEYS)

    def test_adc_is_a_field(self):
        cfg = dataclasses.replace(PipelineConfig(), adc=AdcConfig(resolution_bits=10))
        assert cfg.adc.max_code == 1023
        assert PipelineConfig.loads("[adc]\nresolution_bits = 10\n") == cfg

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            PipelineConfig.loads("[signal]\nbogus = 1\n")

    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            PipelineConfig.loads("[nope]\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            PipelineConfig.loads("[signal]\nbpm = 70\nduration = fast\n")

    def test_sections_are_checked_together(self):
        # notch_center is bounded by sample_rate, set in an earlier section;
        # the front end's corners must fit under the same 40 Hz Nyquist
        cfg = PipelineConfig.loads("[signal]\nsample_rate = 80\n[frontend]\nf_0 = 30\nf_cl = 35\n"
                                   "[dsp]\nnotch_center = 20\n")
        assert (cfg.sample_rate, cfg.notch_center) == (80.0, 20.0)

    @pytest.mark.parametrize("text, message", [
        ("[frontend]\nnotch_q = 1e-300\n", "filter poles must lie strictly inside the unit circle"),
        ("[signal]\nsample_rate = 120\n", "lowpass corner 69.5 Hz is at or above Nyquist"),
        ("[frontend]\nf_cl = 300\n", "lowpass corner 300.0 Hz is at or above Nyquist"),
        ("[signal]\nbpm = 9000\n", "sample_rate 500.0 Hz too low for 9000 bpm"),
        ("[signal]\nsource = sine\nbpm = 20000\n", "freq 333.3333333333333 Hz aliases"),
    ], ids=["notch_q", "sample_rate", "f_cl", "bpm", "sine_bpm"])
    def test_values_the_source_or_front_end_refuse_fail_at_load(self, tmp_path, capsys, text,
                                                                message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"ecgmon: config error: {path}: {message}")

    @pytest.mark.parametrize("key", ["trigger_level", "band_epsilon", "run_length"])
    def test_fixed_trigger_keys_are_unknown(self, key):
        """Level, band and run length belong to the detector, not the file."""
        with pytest.raises(ConfigError, match=f"line 3: unknown key '{key}' in \\[trigger\\]"):
            PipelineConfig.loads(f"[trigger]\nrefractory = 0.2\n{key} = 3\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            PipelineConfig.loads("bpm = 70\n")

    def test_file_that_is_not_utf8_names_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[signal]\nbpm = 7\xff2\n")
        message = f"{path}: line 2: byte 0xff is not UTF-8 text (invalid start byte)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig.load(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"ecgmon: config error: {message}\n")

    def test_key_set_twice_is_refused(self, tmp_path, capsys):
        text = "[signal]\nbpm = 60\n[noise]\nseed = 1\n[signal]\nduration = 4\nbpm = 70\n"
        with pytest.raises(ConfigError, match="^f.cfg: line 7: key 'bpm' already set on line 2$"):
            PipelineConfig.loads(text, name="f.cfg")
        # a flag still overrides the file's value
        path = tmp_path / "once.cfg"
        path.write_text("[signal]\nsource = sine\nbpm = 60\nduration = 4\n")
        assert main(["run", "--config", str(path), "--bpm", "120"]) == 0
        assert json.loads(capsys.readouterr().out)["bpm"] == 120.0


# every config key, each set to a value other than its default
_ALL_KEYS = """
[signal]
source = sine
sample_rate = 400
duration = 6
bpm = 90
sine_amplitude = 0.4

[noise]
mains_amplitude = 0.2
mains_freq = 60
wander_amplitude = 0.05
wander_freq = 0.3
emg_sigma = 0.01
dc_offset = 0.02
common_mode_amplitude = 0.1
common_mode_freq = 55
seed = 7

[frontend]
instrument_gain = 20
voltage_gain = 70
f_ch = 0.2
f_cl = 68
f_0 = 49.5
notch_q = 25
cmrr_db = 90
lift_bias = 1.6
supply_min = 0.1
supply_max = 3.2

[adc]
resolution_bits = 11
vref = 3.0
half_capacity = 256

[dsp]
notch_center = 49
notch_half_band = 3
smooth_window = 7

[trigger]
refractory = 0.3

[alerts]
low_bpm = 55
high_bpm = 100

[render]
width = 96
height = 48

[telemetry]
device_id = dev-9
location = ward-3
sink = file:records.jsonl
max_ecg = 1000
timestamp = 42
"""


class TestRunPipeline:
    def test_sine_mode_reports_120(self):
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0)
        result = run_pipeline(cfg, bpm=120.0)
        assert result.reading.bpm == pytest.approx(120.0, abs=0.5)
        assert not result.saturated

    def test_ecg_mode_with_noise_reports_72(self):
        noise = NoiseConfig(mains_amplitude=0.3, wander_amplitude=0.1,
                            emg_sigma=0.05, rng_seed=1)
        cfg = dataclasses.replace(PipelineConfig(), noise=noise, duration=10.0)
        result = run_pipeline(cfg, bpm=72.0)
        assert result.reading.bpm == pytest.approx(72.0, abs=1.0)

    def test_record_carries_bounded_ecg(self):
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0, max_ecg=100)
        result = run_pipeline(cfg, bpm=120.0)
        assert len(result.record.ecg) == 100
        assert result.alert is None  # 120 is the inclusive boundary

    def test_alert_on_tachycardia(self):
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=3.0)
        result = run_pipeline(cfg, bpm=150.0)
        assert result.alert is not None
        assert "above high threshold" in result.alert.message

    def test_too_short_run_names_module(self):
        cfg = dataclasses.replace(PipelineConfig(), source="sine")
        with pytest.raises(PipelineError, match="acquisition"):
            run_pipeline(cfg, bpm=120.0, duration=0.5)

    def test_record_build_failure_names_telemetry(self, monkeypatch):
        """The record is built inside the telemetry stage, like its alert."""
        def refuse(**_):
            raise ValueError("record refused")
        monkeypatch.setattr(telemetry, "TelemetryRecord", refuse)
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0)
        with pytest.raises(PipelineError, match="^telemetry: record refused$"):
            run_pipeline(cfg)

    def test_publishes_to_loopback(self):
        with LoopbackListener() as listener:
            cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0,
                                      sink=f"http:{listener.port}", max_ecg=50)
            result = run_pipeline(cfg, bpm=120.0, publish_records=True)
            assert all(r.ok for r in result.receipts)
            records = listener.received
            assert len(records) == 1
            decoded = decode_record(records[0])
            assert decoded.bpm == pytest.approx(120.0, abs=0.5)

    @pytest.mark.parametrize("override", [{"bpm": 9000.0}, {"bpm": float("nan")},
                                          {"duration": 0.0}])
    def test_refused_override_raises_before_any_stage(self, override):
        """bpm/duration pass the config's checks: a ValueError, not a stage's
        PipelineError."""
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(), **override)

    def test_failed_buffer_allocation_names_acquisition(self, monkeypatch):
        """The ping-pong buffer is built inside the acquisition stage."""
        def refuse(_):
            raise MemoryError("Unable to allocate 728. TiB")
        monkeypatch.setattr(pipeline, "PingPongBuffer", refuse)
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0)
        with pytest.raises(PipelineError, match="^acquisition: Unable to allocate 728. TiB$"):
            run_pipeline(cfg)

    def test_make_sink_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_sink("carrier-pigeon:9")


class TestCliSubcommands:
    def test_run_sine_reports_120(self, capsys):
        assert main(["run", "--source", "sine", "--bpm", "120", "--duration", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["bpm"] - 120.0) <= 0.5
        assert doc["alert"] is None

    def test_run_stdout_line(self, capsys):
        """The whole line, key set and order included."""
        assert main(["run", "--source", "sine", "--bpm", "120", "--duration", "4"]) == 0
        assert capsys.readouterr().out == (
            '{"bpm":120.0,"period_s":0.5,"median_period_s":0.5,"edges":6,'
            '"saturated":false,"alert":null,"published":0}\n')

    def test_json_line_refuses_non_finite_numbers(self):
        """stdout lines are JSON: a NaN or an infinity raises instead of printing as NaN."""
        assert cli._json_line({"bpm": 72.5, "loc": "w\xe9"}) == '{"bpm":72.5,"loc":"w\xe9"}'
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cli._json_line({"bpm": value})

    def test_failed_publish_exits_runtime(self, tmp_path, capsys):
        """A publish that fails exits 2 and names the error; stdout is the
        same line a run without --publish prints (nothing was published)."""
        with LoopbackListener() as listener:
            closed_port = listener.port
        assert main(["run", "--duration", "4"]) == 0
        expected = capsys.readouterr().out
        assert expected.endswith('"published":0}\n')
        for sink in (f"http:{closed_port}", f"file:{tmp_path / 'missing' / 'x.jsonl'}"):
            assert main(["run", "--duration", "4", "--publish", "--sink", sink]) == 2, sink
            captured = capsys.readouterr()
            assert captured.out == expected, sink
            assert captured.err.startswith("ecgmon: publish failed: "), sink

    def test_invalid_config_exits_usage_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[signal]\nsource = sine\nmystery = 1\n")
        code = main(["run", "--config", str(bad), "--bpm", "120"])
        assert code == 1
        assert "line 3" in capsys.readouterr().err
        # values each parse but break a stage config: usage errors naming the file
        for text in ("[alerts]\nlow_bpm = 200\n",
                     "[noise]\nemg_sigma = -1\n",
                     "[signal]\nsample_rate = 0\n",
                     "[adc]\nhalf_capacity = 0\n",
                     "[dsp]\nsmooth_window = 4\n",
                     "[dsp]\nnotch_center = 300\n",
                     "[dsp]\nnotch_half_band = -1\n",
                     "[telemetry]\nmax_ecg = -1\n",
                     "[render]\nwidth = 0\n",
                     "[trigger]\nrefractory = nan\n",
                     "[trigger]\nrefractory = inf\n",
                     "[trigger]\ntrigger_level = nan\n",
                     "[trigger]\nband_epsilon = inf\n",
                     "[trigger]\nrun_length = 4\n",
                     "[telemetry]\nsink = bogus\n",
                     "[telemetry]\nsink = http:abc\n",
                     "[telemetry]\nsink = http:70000\n",
                     "[telemetry]\nsink = file:\n",
                     "[noise]\nemg_sigma = nan\n",
                     "[noise]\nmains_freq = inf\n",
                     "[frontend]\ncmrr_db = nan\n",
                     "[frontend]\nsupply_max = inf\n",
                     "[signal]\nbpm = 0\n",
                     "[signal]\nbpm = nan\n",
                     "[signal]\nduration = nan\n",
                     "[signal]\nsine_amplitude = nan\n",
                     "[noise]\nseed = -1\n",
                     "[dsp]\nnotch_center = nan\n",
                     "[dsp]\nnotch_half_band = inf\n",
                     "[alerts]\nhigh_bpm = inf\n"):
            bad.write_text(text)
            assert main(["run", "--config", str(bad), "--publish"]) == 1, text
            captured = capsys.readouterr()
            assert str(bad) in captured.err
            assert captured.out == ""

    def test_smoothing_window_longer_than_record_exits_runtime(self, tmp_path, capsys):
        """A 4 s record consumes 1536 samples: a 4001-sample window is refused,
        not smoothed into 4001 samples and a made-up reading."""
        cfg = tmp_path / "window.cfg"
        cfg.write_text("[signal]\nduration = 4\n[dsp]\nsmooth_window = 4001\n")
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: dsp: smoothing window 4001 is longer than "
                                       "the 1536-sample frame")

    def test_usage_error_exits_1(self, capsys):
        assert main(["simulate", "--source", "nope", "--out", "x.csv"]) == 1

    def test_metrics_emits_bench_json(self, capsys):
        assert main(["metrics"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cmrr_db"] == pytest.approx(93.16, abs=0.1)
        assert doc["differential_gain"] == pytest.approx(1650, rel=0.02)
        assert set(doc) == {
            "differential_gain", "common_mode_gain", "cmrr_db", "bandwidth_low",
            "bandwidth_high", "bw", "mains_attenuation_db", "input_impedance",
            "equiv_input_noise",
        }

    def test_simulate_then_detect_2hz_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "sine2hz.csv"
        assert main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "1",
                     "--rate", "500", "--duration", "3", "--out", str(fixture)]) == 0
        assert main(["detect", "--in", str(fixture), "--refractory", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bpm"] == pytest.approx(120.0, abs=0.5)
        assert doc["edges"][0].keys() == {"index", "t"}

    def test_detect_insufficient_edges_reports_null(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        assert main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "0",
                     "--duration", "1", "--out", str(flat)]) == 0
        assert main(["detect", "--in", str(flat)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bpm"] is None and doc["edges"] == []

    @pytest.mark.parametrize("flag, value", [
        ("--refractory", "inf"),
        ("--refractory", "nan"),
    ])
    def test_detect_nonfinite_trigger_exits_config_error(self, tmp_path, capsys, flag, value):
        """A config value, refused like the same [trigger] key in a file."""
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)]) == 0
        assert main(["detect", "--in", str(fixture), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: config error: command line: ")
        assert flag[2:].replace("-", "_") in captured.err

    def test_detect_huge_refractory_keeps_first_edge(self, tmp_path, capsys):
        """A refractory too long for an int sample count is longer than the frame."""
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)]) == 0
        assert main(["detect", "--in", str(fixture), "--refractory", "1e308"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (len(doc["edges"]), doc["bpm"]) == (1, None)

    @pytest.mark.parametrize("module, name, argv, prefix", [
        (cli, "PingPongBuffer", ["stream", "--in", "sine.csv"], "ecgmon: "),
        (cli, "source_signal", ["simulate", "--out", "x.csv"], "ecgmon: "),
        (cli, "Framebuffer", ["plot", "--in", "sine.csv", "--ascii"], "ecgmon: "),
        (pipeline, "PingPongBuffer", ["run"], "ecgmon: acquisition: "),
    ], ids=["stream", "simulate", "plot", "run"])
    def test_failed_allocation_exits_runtime(self, tmp_path, capsys, monkeypatch, module, name,
                                             argv, prefix):
        """An array too large to allocate is a runtime failure: one line on
        stderr and exit 2, not a traceback."""
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", "sine.csv"]) == 0

        def refuse(*_, **__):
            raise MemoryError("Unable to allocate 728. TiB")
        monkeypatch.setattr(module, name, refuse)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"{prefix}Unable to allocate 728. TiB\n")

    def test_notch_removes_mains(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.csv"
        clean = tmp_path / "clean.csv"
        assert main(["simulate", "--source", "sine", "--bpm", "600", "--amplitude", "1",
                     "--duration", "2", "--mains-amplitude", "0.5", "--out", str(noisy)]) == 0
        assert main(["notch", "--in", str(noisy), "--out", str(clean)]) == 0
        from ecgmon.signals import SampleFrame, generate_sine

        cleaned = SampleFrame.from_csv(clean)
        pure = generate_sine(10.0, 1.0, 500.0, 2.0)
        residual = cleaned.values - pure.values
        assert float(np.sqrt(np.mean(residual**2))) < 0.02

    @pytest.mark.parametrize("mode, empty", [
        pytest.param(["--ascii"], False, id="mode0"),
        pytest.param([], False, id="mode1"),
        pytest.param(["--ascii"], True, id="empty-ascii"),
        pytest.param([], True, id="empty-svg"),
    ])
    @pytest.mark.parametrize("bound", ["--v-max=inf", "--v-min=nan", "--v-min=-inf"])
    def test_plot_nonfinite_range_exits_runtime(self, tmp_path, capsys, mode, empty, bound):
        """Refused, not drawn as a flat trace or reported as rows out of range;
        a header-only CSV, which maps no sample, is refused too."""
        fixture, svg = tmp_path / "sine.csv", tmp_path / "sine.svg"
        if empty:
            fixture.write_text("time,value\n")
        else:
            assert main(["simulate", "--source", "sine", "--duration", "1",
                         "--out", str(fixture)]) == 0
        assert main(["plot", "--in", str(fixture), "--out", str(svg), bound, *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = bound.partition("=")[0][2:].replace("-", "_")
        assert f"{name} must be finite" in captured.err
        assert not svg.exists()

    @pytest.mark.parametrize("mode", [["--ascii"], []], ids=["ascii", "svg"])
    @pytest.mark.parametrize("empty", [True, False], ids=["empty", "full"])
    def test_plot_reversed_range_exits_runtime(self, tmp_path, capsys, mode, empty):
        """A header-only CSV refuses --v-min above --v-max as a full one does."""
        fixture, svg = tmp_path / "sine.csv", tmp_path / "sine.svg"
        fixture.write_text("time,value\n" if empty else "time,value\n0,0\n0.002,1\n0.004,0\n")
        assert main(["plot", "--in", str(fixture), "--out", str(svg),
                     "--v-min", "2", "--v-max", "1", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ecgmon: degenerate value range [2.0, 1.0]\n"
        assert not svg.exists()

    def test_stream_emits_ordered_json_lines(self, tmp_path, capsys):
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "1",
                     "--duration", "2", "--out", str(fixture)]) == 0
        assert main(["stream", "--in", str(fixture), "--half-capacity", "128"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        assert all(set(d) == {"seq", "half", "codes"} for d in docs)
        assert all(d["half"] == d["seq"] % 2 for d in docs)
        assert all(len(d["codes"]) == 128 for d in docs)

    @pytest.mark.parametrize("vref", ["nan", "inf"])
    def test_stream_nonfinite_vref_exits_config_error(self, tmp_path, capsys, vref):
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)]) == 0
        assert main(["stream", "--in", str(fixture), "--vref", vref]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: config error: command line: ")
        assert "vref" in captured.err

    # sha256 of stdout for a 10 s noisy ECG at each half capacity; 5000 % 7
    # and 5000 % 128 leave a trailing partial half, which is not printed
    @pytest.mark.parametrize("capacity, digest", [
        (1, "bef9469dc19c3d569a169ce34e2925d893e71ec03e86409e8c1bec6ac622be15"),
        (7, "01c11095b9cca2b1110fc508cec8b4bc9435b383b818fd1594e5d33b5910996d"),
        (128, "683633521003491a7c7ec95559ef52060ef7566673906b3044bf7a0cbdb88e7a"),
        (512, "ce67f0d7b7fabd0d69636c7e9b58436a27e0c2617aa7fc4e6e7fae6e6d7c7ba0"),
        (5000, "a32c9305d2594b98b047a37e8b7bb7c338c3b794fbda9d68b577e88b5080a495"),
    ])
    def test_stream_bytes(self, tmp_path, capsys, capacity, digest):
        fixture = tmp_path / "noisy.csv"
        assert main(["simulate", "--duration", "10", "--mains-amplitude", "0.3",
                     "--wander-amplitude", "0.2", "--emg-sigma", "0.05", "--seed", "3",
                     "--out", str(fixture)]) == 0
        assert main(["stream", "--in", str(fixture), "--half-capacity", str(capacity)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plot_empty_input_valid_svg(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,value\n")
        out = tmp_path / "empty.svg"
        assert main(["plot", "--in", str(empty), "--out", str(out)]) == 0
        content = out.read_text()
        assert "<polyline" in content and 'points=""' in content

    def test_plot_ascii(self, tmp_path, capsys):
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "1",
              "--duration", "1", "--out", str(fixture)])
        assert main(["plot", "--in", str(fixture), "--ascii",
                     "--width", "64", "--height", "16"]) == 0
        art = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(art) == 16
        assert all(len(row) == 64 for row in art)
        assert any("#" in row for row in art)

    def test_send_publishes_record_and_alert(self, tmp_path, capsys):
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "1",
              "--duration", "1", "--out", str(fixture)])
        with LoopbackListener() as listener:
            assert main(["send", "--in", str(fixture), "--bpm", "130",
                         "--sink", f"http:{listener.port}", "--max-ecg", "100"]) == 0
            received = listener.received
        assert len(received) == 2  # record + alert
        rec = decode_record(received[0])
        assert rec.bpm == 130.0
        alert = json.loads(received[1])
        assert "above high threshold" in alert["message"]

    def test_send_bpm_is_the_reading_not_a_config_value(self, tmp_path, capsys):
        """A reading the source could not sample at 500 Hz is still sent, and alerts."""
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)])
        capsys.readouterr()
        assert main(["send", "--in", str(fixture), "--bpm", "9000"]) == 0
        captured = capsys.readouterr()
        record, alert = captured.out.splitlines()
        assert json.loads(record)["bpm"] == 9000.0
        assert "above high threshold" in json.loads(alert)["message"]
        assert json.loads(captured.err)["published"] == 2

    def test_send_negative_max_ecg_exits_config_error(self, tmp_path, capsys):
        """Refused before the samples are counted: codes[:-1] would hold 999."""
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--duration", "2", "--out", str(fixture)])
        capsys.readouterr()
        assert main(["send", "--in", str(fixture), "--bpm", "72", "--max-ecg", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ecgmon: config error: command line: max_ecg must be >= 0, got -1\n"

    def test_run_bad_sink_exits_config_error_without_publish(self, capsys):
        """The sink spec is checked before any stage runs, published to or not."""
        assert main(["run", "--duration", "4", "--sink", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: config error: command line: unknown sink 'bogus'")

    def test_send_infinite_bound_exits_config_error(self, tmp_path, capsys):
        """An infinite high bound would never alert: refused before anything is sent."""
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)])
        capsys.readouterr()
        assert main(["send", "--in", str(fixture), "--bpm", "400", "--high-bpm", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: config error: command line: ")
        assert "high_bpm" in captured.err

    @pytest.mark.parametrize("argv", [["plot", "--ascii"], ["send", "--bpm", "72"]])
    @pytest.mark.parametrize("row", ["nan,1", "0.002,nan", "inf,1"])
    def test_nonfinite_csv_row_exits_runtime(self, tmp_path, capsys, argv, row):
        """A one-row CSV with a non-finite time or value is refused naming
        the file and the line; `nan,1` used to be read as a 500 Hz frame."""
        fixture = tmp_path / "bad.csv"
        fixture.write_text(f"time,value\n{row}\n")
        assert main([argv[0], "--in", str(fixture), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ecgmon: {fixture}: line 2: time and value must be finite, "
                                f"got {row!r}\n")

    @pytest.mark.parametrize("argv", [["plot", "--ascii"], ["detect"], ["notch", "--out", "n.csv"]])
    @pytest.mark.parametrize("rows, rate", [("0,1\n1e-320,2", "inf"), ("-1e308,1\n1e308,2", "0.0")],
                             ids=["tiny-step", "huge-span"])
    def test_csv_time_column_with_unusable_rate_exits_runtime(self, tmp_path, monkeypatch, capsys,
                                                               argv, rows, rate):
        """A time column whose rate is infinite or zero is refused naming the file."""
        monkeypatch.chdir(tmp_path)
        fixture = tmp_path / "bad.csv"
        fixture.write_text(f"time,value\n{rows}\n")
        assert main([argv[0], "--in", str(fixture), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ecgmon: {fixture}: sample_rate from the time column must be "
                                f"finite and > 0, got {rate}\n")
        assert not (tmp_path / "n.csv").exists()

    def test_missing_input_exits_runtime(self, capsys):
        assert main(["detect", "--in", "/no/such/file.csv"]) == 2

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--source", "ecg", "--bpm", "72", "--duration", "2",
                "--emg-sigma", "0.05", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_takes_config_values(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[signal]\nbpm = 120\nduration = 2\nsample_rate = 250\n"
                       "[noise]\nemg_sigma = 0.05\nseed = 3\n")
        paths = {name: tmp_path / f"{name}.csv" for name in ("config", "flags", "plain", "mixed")}
        assert main(["simulate", "--config", str(cfg), "--out", str(paths["config"])]) == 0
        assert main(["simulate", "--bpm", "120", "--duration", "2", "--rate", "250",
                     "--emg-sigma", "0.05", "--seed", "3", "--out", str(paths["flags"])]) == 0
        assert main(["simulate", "--out", str(paths["plain"])]) == 0
        # explicit flags win over the file
        assert main(["simulate", "--config", str(cfg), "--bpm", "72", "--duration", "10",
                     "--rate", "500", "--emg-sigma", "0", "--seed", "0",
                     "--out", str(paths["mixed"])]) == 0
        assert paths["config"].read_bytes() == paths["flags"].read_bytes()
        assert paths["mixed"].read_bytes() == paths["plain"].read_bytes()
        assert len(paths["config"].read_text().splitlines()) == 1 + 500

    @pytest.mark.parametrize("source", ["ecg", "sine"])
    def test_simulate_writes_the_source_run_reads(self, tmp_path, capsys, monkeypatch, source):
        """Both read one config the same way: a sine runs at bpm / 60 Hz."""
        cfg = tmp_path / "src.cfg"
        cfg.write_text(f"[signal]\nsource = {source}\nbpm = 90\nduration = 4\n"
                       "[noise]\nmains_amplitude = 0.1\nemg_sigma = 0.02\nseed = 5\n")
        simulated, expected, ran = (tmp_path / f"{n}.csv" for n in ("sim", "expected", "run"))
        assert main(["simulate", "--config", str(cfg), "--out", str(simulated)]) == 0
        source_signal(PipelineConfig.load(cfg)).differential.to_csv(expected)
        assert simulated.read_bytes() == expected.read_bytes()

        seen = []
        monkeypatch.setattr(pipeline, "source_signal",
                            lambda c: seen.append(source_signal(c)) or seen[-1])
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["bpm"] == pytest.approx(90.0, abs=1.0)
        seen[0].differential.to_csv(ran)
        assert ran.read_bytes() == simulated.read_bytes()

    def test_metrics_response_csv(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        assert main(["metrics", "--response-csv", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,mag_db"
        freqs = [float(row.split(",")[0]) for row in lines[1:]]
        assert freqs == sorted(freqs) and len(freqs) == 200

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_metrics_bad_noise_sigma_exits_config_error(self, capsys, sigma):
        """Not the no-noise row: --noise-sigma 0 alone selects that."""
        assert main(["metrics", "--noise-sigma", sigma]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ecgmon: config error: command line: ")
        assert "emg_sigma" in captured.err

    def test_metrics_takes_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text("[signal]\nsample_rate = 250\n[noise]\nemg_sigma = 0.05\nseed = 3\n")
        runs = {
            "config": ["--config", str(cfg)],
            "flags": ["--rate", "250", "--noise-sigma", "0.05", "--seed", "3"],
            "plain": [],
            # explicit flags win over the file
            "mixed": ["--config", str(cfg), "--rate", "500", "--noise-sigma", "0", "--seed", "0"],
        }
        out = {}
        for name, argv in runs.items():
            csv = tmp_path / f"{name}.csv"
            assert main(["metrics", *argv, "--response-csv", str(csv)]) == 0
            out[name] = (capsys.readouterr().out, csv.read_bytes())
        assert out["config"] == out["flags"]
        assert out["mixed"] == out["plain"]
        assert out["config"][0] != out["plain"][0] and out["config"][1] != out["plain"][1]
        assert json.loads(out["config"][0])["equiv_input_noise"] > 0

    @pytest.mark.parametrize("key, probe", [
        ("cmrr_db = 400", "common"),
        ("instrument_gain = 1e-300", "differential"),
    ])
    def test_metrics_zero_probe_gain_exits_runtime(self, tmp_path, capsys, key, probe):
        """Named and refused, not a ZeroDivisionError traceback."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"[frontend]\n{key}\n")
        assert main(["metrics", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ecgmon: the {probe} probe at 10 Hz measured a gain of 0, "
                                "so the gain ratios are undefined\n")

    def test_zero_noise_sine_reproduces_bpm(self):
        """Clean sine source reproduces the source rate at the defaults."""
        cfg = dataclasses.replace(PipelineConfig(), source="sine", duration=4.0)
        result = run_pipeline(cfg, bpm=120.0)
        assert result.reading.bpm == 120.0


# Option values for the fuzz test: hostile and ordinary, all bounded so that
# no drawn run allocates more than a few seconds of samples.
_FLOATS = ["-1", "0", "nan", "inf", "abc", "0.05", "1"]
_INTS = ["-1", "0", "1", "7", "12", "128", "2.5", "abc"]
_BPMS = ["-1", "0", "nan", "inf", "30", "72", "150", "300"]
_DURATIONS = ["-1", "0", "nan", "inf", "1e308", "0.5", "3"]
_RATES = ["-1", "0", "nan", "inf", "100", "500"]
_COMMANDS = ("run", "simulate", "metrics", "notch", "detect", "stream", "plot", "send")
_CSV_TEXTS = {
    "sine.csv": None,  # written by `simulate`
    "duplicate_times.csv": "time,value\n0,1\n0,2\n0,3\n",
    "repeated_time.csv": "time,value\n0,1\n0.002,2\n0.002,3\n0.004,4\n",
    "decreasing_times.csv": "time,value\n0.004,1\n0.002,2\n",
    "header_only.csv": "time,value\n",
    "one_row.csv": "time,value\n0,1\n",
    "garbage.csv": "time,value\n1;2;3\n",
    "nan_time.csv": "time,value\nnan,1\n",
}
_CONFIG_TEXTS = {
    "ok.cfg": "[signal]\nsource = sine\nduration = 3\n",
    "low_bpm.cfg": "[alerts]\nlow_bpm = 200\n",
    "emg.cfg": "[noise]\nemg_sigma = -1\n",
    "rate.cfg": "[signal]\nsample_rate = 0\n",
    "capacity.cfg": "[adc]\nhalf_capacity = 0\n",
    "window.cfg": "[dsp]\nsmooth_window = 4\n",
    "max_ecg.cfg": "[telemetry]\nmax_ecg = -1\n",
    "junk.cfg": "not a config\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--source", "sine", "--bpm", "120", "--amplitude", "1",
                     "--duration", "3", "--out", str(root / "sine.csv")]) == 0
    for name, text in {**_CSV_TEXTS, **_CONFIG_TEXTS}.items():
        if text is not None:
            (root / name).write_text(text)
    return root


def _fuzz_options(root):
    """Per subcommand: flag -> strategy of its value (None for a switch)."""
    inputs = st.sampled_from([str(root / n) for n in _CSV_TEXTS]
                             + [str(root / "missing.csv"), str(root)])
    outputs = st.sampled_from([str(root / "out.tmp"), str(root), str(root / "no" / "out.tmp")])
    configs = st.sampled_from([str(root / n) for n in _CONFIG_TEXTS] + [str(root / "missing.cfg")])
    sinks = st.sampled_from(["stdout", f"file:{root / 'sink.jsonl'}", "http:1", "http:abc",
                             "pigeon"])
    floats, ints = st.sampled_from(_FLOATS), st.sampled_from(_INTS)
    bpms, durations = st.sampled_from(_BPMS), st.sampled_from(_DURATIONS)
    rates = st.sampled_from(_RATES)
    return {
        "run": {"--config": configs, "--bpm": bpms, "--duration": durations,
                "--source": st.sampled_from(["ecg", "sine", "nope"]), "--sink": sinks,
                "--publish": None},
        "simulate": {"--out": outputs, "--config": configs,
                     "--source": st.sampled_from(["ecg", "sine"]), "--bpm": bpms,
                     "--amplitude": floats, "--rate": rates,
                     "--duration": durations, "--mains-amplitude": floats,
                     "--wander-amplitude": floats, "--emg-sigma": floats,
                     "--common-mode-amplitude": floats, "--seed": ints},
        "metrics": {"--config": configs, "--rate": rates, "--noise-sigma": floats,
                    "--seed": ints, "--response-csv": outputs},
        "notch": {"--in": inputs, "--out": outputs, "--center": floats,
                  "--half-band": floats},
        "detect": {"--in": inputs, "--refractory": floats},
        "stream": {"--in": inputs, "--half-capacity": ints, "--bits": ints, "--vref": floats},
        "plot": {"--in": inputs, "--out": outputs, "--width": ints, "--height": ints,
                 "--v-min": floats, "--v-max": floats, "--ascii": None},
        "send": {"--in": inputs, "--bpm": bpms, "--unit": st.sampled_from(["mV", "V"]),
                 "--device-id": st.sampled_from(["", "ecg\u00e9"]),
                 "--location": st.sampled_from(["", "ward \"7\""]),
                 "--timestamp": ints, "--sink": sinks, "--low-bpm": bpms, "--high-bpm": bpms,
                 "--max-ecg": ints},
    }


def test_fuzz_options_cover_every_subcommand(tmp_path):
    (subparsers,) = (a.choices for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    options = _fuzz_options(tmp_path)
    assert set(options) == set(subparsers) == set(_COMMANDS)
    for command, parser in subparsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert set(options[command]) == flags - {"-h", "--help"}, command


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_dir, command, data):
    """Any drawn arguments and input files exit 0, 1 or 2; nothing escapes main."""
    options = _fuzz_options(fuzz_dir)[command]
    flags = data.draw(st.lists(st.sampled_from(sorted(options)), unique=True), label="flags")
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(data.draw(options[flag], label=flag))
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # `plot` writes ecg.svg to the working directory by default
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv


def test_cli_start_leaves_scipy_and_http_unimported(tmp_path):
    """The scipy.signal package takes over a second to import, and the only
    part of scipy the package runs is that package's compiled linear filter.
    detect, stream, send and plot check their flags through PipelineConfig,
    whose checks design the front-end filter without running it: they load
    no scipy module.  run and metrics filter, and load only the filter's
    extension module, never scipy or scipy.signal.

    No command loads the HTTP stack (http, email, ssl): only the cloud
    model's listener needs http.server, and reading ecgmon.LoopbackListener
    is what loads it."""
    shutil.copy(Path(__file__).parent / "golden" / "cli" / "inputs" / "sine.csv", tmp_path)
    code = ("import contextlib, io, sys\n"
            "import ecgmon.cli\n"
            "def modules(*tops):\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] in tops)\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert ecgmon.cli.main(['--help']) == 0\n"
            "    for argv in (['detect'], ['stream'], ['send', '--bpm', '72'], ['plot', '--ascii']):\n"
            "        assert ecgmon.cli.main([*argv, '--in', 'sine.csv']) == 0, argv\n"
            "    before = modules('scipy')\n"
            "    assert ecgmon.cli.main(['run', '--duration', '4']) == 0\n"
            "    assert ecgmon.cli.main(['metrics']) == 0\n"
            "print(before)\n"
            "print(modules('scipy'))\n"
            "print(modules('http', 'email', 'ssl'))\n"
            "ecgmon.LoopbackListener\n"
            "print('http.server' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["[]", "['scipy.signal._sigtools']", "[]", "True"]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `ecgmon ...` line of README's sh blocks exits 0, in order, so
    later lines read the files earlier ones write."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("ecgmon ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, (line, capsys.readouterr().err)
