"""Config parsing, pipeline, and CLI subcommand tests."""

import argparse
import contextlib
import hashlib
import io
import json
import os

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.acquisition import AdcConfig
from ecgmon.cli import build_parser, main
from ecgmon.config import _SCHEMA, ConfigError, PipelineConfig
from ecgmon.dsp import TriggerConfig
from ecgmon.frontend import FrontEndSpec
from ecgmon.pipeline import PipelineError, make_sink, run_pipeline
from ecgmon.signals import NoiseConfig
from ecgmon.telemetry import AlertPolicy, LoopbackListener, decode_record

import dataclasses


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.sample_rate == 500.0
        assert cfg.half_capacity == 512
        assert cfg.frontend.chain_gain == pytest.approx(1650.0)

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
            "trigger_level = auto\n"
            "refractory = 0.2\n"
        )
        cfg = PipelineConfig.load(path)
        assert cfg.source == "sine"
        assert cfg.bpm == 120.0
        assert cfg.noise.mains_amplitude == 0.3
        assert cfg.noise.rng_seed == 7
        assert cfg.trigger.trigger_level is None
        assert cfg.trigger.refractory == 0.2

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
                                  supply=(0.1, 3.2)),
            adc_bits=11, adc_vref=3.0, half_capacity=256,
            notch_center=49.0, notch_half_band=3.0, smooth_window=7,
            trigger=TriggerConfig(trigger_level=1.7, band_epsilon=0.03, run_length=4,
                                  refractory=0.3),
            alerts=AlertPolicy(low_bpm=55.0, high_bpm=100.0),
            fb_width=96, fb_height=48,
            device_id="dev-9", location="ward-3", sink="file:records.jsonl", max_ecg=1000,
            timestamp=42,
        )
        assert cfg == expected
        assert cfg.adc == AdcConfig(resolution_bits=11, vref=3.0, sample_rate=400.0)
        # every value differs from its default, so no key can land unnoticed
        default = PipelineConfig()
        for name in ("noise", "frontend", "trigger", "alerts"):
            sub, base = getattr(cfg, name), getattr(default, name)
            for f in dataclasses.fields(sub):
                assert getattr(sub, f.name) != getattr(base, f.name), f"{name}.{f.name}"
        for f in dataclasses.fields(cfg):
            if f.name != "template":
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        lines = [line.split("=")[0].strip() for line in _ALL_KEYS.splitlines() if "=" in line]
        assert len(lines) == len(set(lines)) == sum(len(keys) for _, keys in _SCHEMA.values())

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
        # notch_center is bounded by sample_rate, set in an earlier section
        cfg = PipelineConfig.loads("[signal]\nsample_rate = 80\n[dsp]\nnotch_center = 20\n")
        assert (cfg.sample_rate, cfg.notch_center) == (80.0, 20.0)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            PipelineConfig.loads("bpm = 70\n")


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
trigger_level = 1.7
band_epsilon = 0.03
run_length = 4
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
        assert not result.overrun

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

    def test_make_sink_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_sink("carrier-pigeon:9")


class TestCliSubcommands:
    def test_run_sine_reports_120(self, capsys):
        assert main(["run", "--source", "sine", "--bpm", "120", "--duration", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["bpm"] - 120.0) <= 0.5
        assert doc["alert"] is None

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
        assert main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "1",
                     "--rate", "500", "--duration", "3", "--out", str(fixture)]) == 0
        assert main(["detect", "--in", str(fixture), "--refractory", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bpm"] == pytest.approx(120.0, abs=0.5)
        assert doc["edges"][0].keys() == {"index", "t"}

    def test_detect_insufficient_edges_reports_null(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        assert main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "0",
                     "--duration", "1", "--out", str(flat)]) == 0
        assert main(["detect", "--in", str(flat)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bpm"] is None and doc["edges"] == []

    @pytest.mark.parametrize("flag, value", [
        ("--refractory", "inf"),
        ("--refractory", "nan"),
        ("--trigger-level", "nan"),
        ("--band-epsilon", "inf"),
    ])
    def test_detect_nonfinite_trigger_exits_runtime(self, tmp_path, capsys, flag, value):
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)]) == 0
        assert main(["detect", "--in", str(fixture), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:].replace("-", "_") in captured.err

    def test_notch_removes_mains(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.csv"
        clean = tmp_path / "clean.csv"
        assert main(["simulate", "--source", "sine", "--freq", "10", "--amplitude", "1",
                     "--duration", "2", "--mains-amplitude", "0.5", "--out", str(noisy)]) == 0
        assert main(["notch", "--in", str(noisy), "--out", str(clean)]) == 0
        from ecgmon.signals import SampleFrame, generate_sine

        cleaned = SampleFrame.from_csv(clean)
        pure = generate_sine(10.0, 1.0, 500.0, 2.0)
        residual = cleaned.values - pure.values
        assert float(np.sqrt(np.mean(residual**2))) < 0.02

    def test_stream_emits_ordered_json_lines(self, tmp_path, capsys):
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "1",
                     "--duration", "2", "--out", str(fixture)]) == 0
        assert main(["stream", "--in", str(fixture), "--half-capacity", "128"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        assert all(set(d) == {"seq", "half", "overrun", "codes"} for d in docs)
        assert all(len(d["codes"]) == 128 for d in docs)
        assert not any(d["overrun"] for d in docs)

    @pytest.mark.parametrize("vref", ["nan", "inf"])
    def test_stream_nonfinite_vref_exits_runtime(self, tmp_path, capsys, vref):
        fixture = tmp_path / "sine.csv"
        assert main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)]) == 0
        assert main(["stream", "--in", str(fixture), "--vref", vref]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vref" in captured.err

    # sha256 of stdout for a 10 s noisy ECG at each half capacity; 5000 % 7
    # and 5000 % 128 leave a trailing partial half, which is not printed
    @pytest.mark.parametrize("capacity, digest", [
        (1, "ab368953e9268f4625deb366eabaad702da4cdf9e79a36827e442d66a4b833b7"),
        (7, "625f914547a625c2e6d5470ce69130983ea5ec8d63c086df3baa1e7bd573ca6c"),
        (128, "377a0dddf2e6b910c38665a5bb3ac93dc56e0cbdb19a652cd194abeccba32f89"),
        (512, "0c379fad7b929861d18e15ce9126028c7dacc001331213dec1d14a00687e5db9"),
        (5000, "628213b20588d64f4b61eb2992afe0db3a50ce790291cf35bba36e94291ee05d"),
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
        main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "1",
              "--duration", "1", "--out", str(fixture)])
        assert main(["plot", "--in", str(fixture), "--ascii",
                     "--width", "64", "--height", "16"]) == 0
        art = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(art) == 16
        assert all(len(row) == 64 for row in art)
        assert any("#" in row for row in art)

    def test_send_publishes_record_and_alert(self, tmp_path, capsys):
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "1",
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

    def test_send_infinite_bound_exits_runtime(self, tmp_path, capsys):
        """An infinite high bound would never alert: refused before anything is sent."""
        fixture = tmp_path / "sine.csv"
        main(["simulate", "--source", "sine", "--duration", "1", "--out", str(fixture)])
        capsys.readouterr()
        assert main(["send", "--in", str(fixture), "--bpm", "400", "--high-bpm", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "high_bpm" in captured.err

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

    def test_metrics_response_csv(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        assert main(["metrics", "--response-csv", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,mag_db"
        freqs = [float(row.split(",")[0]) for row in lines[1:]]
        assert freqs == sorted(freqs) and len(freqs) == 200

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_metrics_bad_noise_sigma_exits_runtime(self, capsys, sigma):
        """Not the no-noise row: --noise-sigma 0 alone selects that."""
        assert main(["metrics", "--noise-sigma", sigma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
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
_DURATIONS = ["-1", "0", "nan", "inf", "0.5", "3"]
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
        assert main(["simulate", "--source", "sine", "--freq", "2", "--amplitude", "1",
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
                     "--freq": floats, "--amplitude": floats, "--rate": rates,
                     "--duration": durations, "--mains-amplitude": floats,
                     "--wander-amplitude": floats, "--emg-sigma": floats,
                     "--common-mode-amplitude": floats, "--seed": ints},
        "metrics": {"--config": configs, "--rate": rates, "--noise-sigma": floats,
                    "--seed": ints, "--response-csv": outputs},
        "notch": {"--in": inputs, "--out": outputs, "--center": floats,
                  "--half-band": floats},
        "detect": {"--in": inputs, "--trigger-level": floats, "--band-epsilon": floats,
                   "--run-length": ints, "--refractory": floats},
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
