"""Front-end tests: component formulas, discretization, chain behavior, metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.cli import main
from ecgmon.frontend import (
    ComponentValues,
    FrontEndSpec,
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
from ecgmon.signals import SampleFrame, SourceSignal, generate_sine


def components(**overrides) -> ComponentValues:
    base = dict(
        r1=5e3, r2=5e3, r3=50e3, r4=50e3, r5=10e3, r7=20e3,
        r_hp=100e3, c2=22e-6, r15=22.5e3, c3=100e-9,
        r31=32e3, r27=32e3, c5=100e-9, c7=100e-9,
        r_a=1e3, r_b=74e3,
    )
    base.update(overrides)
    return ComponentValues(**base)


def zero_source(rate: float, n: int) -> SourceSignal:
    zeros = SampleFrame(sample_rate=rate, values=np.zeros(n))
    return SourceSignal(differential=zeros, common_mode=zeros)


def sine_source(freq, amp_mv, rate, duration, channel="differential") -> SourceSignal:
    sine = generate_sine(freq, amp_mv, rate, duration)
    zeros = sine.with_values(np.zeros(len(sine)))
    if channel == "differential":
        return SourceSignal(differential=sine, common_mode=zeros)
    return SourceSignal(differential=zeros, common_mode=sine)


def steady_amplitude(values: np.ndarray, rate: float, freq: float) -> float:
    tail = values[len(values) // 2:]
    cycles = math.floor(len(tail) / rate * freq)
    tail = tail[: int(round(cycles * rate / freq))]
    return math.sqrt(2.0) * float(np.std(tail - np.mean(tail)))


class TestGainFormulas:
    def test_paper_component_set_gives_22(self):
        # (R3+R4)/(R1+R2) = 10 and R7/R5 = 2 -> (1+10)*2 = 22 by hand algebra
        assert instrument_gain(components()) == pytest.approx(22.0, abs=1e-12)

    def test_first_stage_collapse_limit(self):
        # R3+R4 -> 0 collapses the first stage to unity: gain -> R7/R5
        c = components(r3=1e-9, r4=1e-9)
        assert instrument_gain(c) == pytest.approx(c.r7 / c.r5, rel=1e-9)

    def test_symmetric_case_gives_2(self):
        c = components(r3=3e3, r4=7e3, r1=4e3, r2=6e3, r5=10e3, r7=10e3)
        assert instrument_gain(c) == pytest.approx(2.0, abs=1e-12)

    def test_voltage_gain(self):
        assert voltage_gain(components()) == pytest.approx(75.0, abs=1e-12)

    def test_nonpositive_component_rejected(self):
        with pytest.raises(ValueError):
            components(r5=0.0)


class TestCutoffFormulas:
    def test_highpass_design_value(self):
        # oracle: pick C2 = 22 uF and invert R = 1/(2*pi*f*C) for f = 0.072 Hz
        c2 = 22e-6
        r_hp = 1.0 / (2 * math.pi * 0.072 * c2)
        assert highpass_cutoff(c2, r_hp) == pytest.approx(0.072, rel=0.005)

    def test_lowpass_design_value(self):
        c3 = 100e-9
        r15 = 1.0 / (2 * math.pi * 70.73 * c3)
        assert lowpass_cutoff(c3, r15) == pytest.approx(70.73, rel=0.005)

    def test_notch_design_value(self):
        # both legs solved to 49.79 Hz; geometric mean is then 49.79 Hz
        c = 100e-9
        r = 1.0 / (2 * math.pi * 49.79 * c)
        assert notch_center(r, c, r, c) == pytest.approx(49.79, rel=0.005)

    def test_unit_rc_gives_1_hz(self):
        assert highpass_cutoff(1.0, 1.0 / (2 * math.pi)) == pytest.approx(1.0, rel=1e-12)
        assert lowpass_cutoff(1.0 / (2 * math.pi), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_laws(self):
        assert highpass_cutoff(2 * 22e-6, 100e3) == pytest.approx(
            highpass_cutoff(22e-6, 100e3) / 2, rel=1e-12)
        assert lowpass_cutoff(100e-9, 22.5e3 / 2) == pytest.approx(
            2 * lowpass_cutoff(100e-9, 22.5e3), rel=1e-12)

    def test_notch_geometric_mean_identities(self):
        c = 100e-9
        r25 = 1.0 / (2 * math.pi * 25.0 * c)
        r100 = 1.0 / (2 * math.pi * 100.0 * c)
        assert notch_center(r25, c, r100, c) == pytest.approx(50.0, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            highpass_cutoff(0.0, 1.0)
        with pytest.raises(ValueError):
            lowpass_cutoff(1.0, -2.0)
        with pytest.raises(ValueError):
            notch_center(1.0, 1.0, 0.0, 1.0)

    def test_bench_components_reproduce_design_values(self):
        c = bench_components()
        assert instrument_gain(c) == pytest.approx(22.0, abs=1e-9)
        assert highpass_cutoff(c.c2, c.r_hp) == pytest.approx(0.072, rel=0.005)
        assert lowpass_cutoff(c.c3, c.r15) == pytest.approx(70.73, rel=0.005)
        assert notch_center(c.r31, c.c5, c.r27, c.c7) == pytest.approx(49.79, rel=0.005)


class TestDiscretize:
    def test_highpass_rejects_dc(self):
        filt = discretize("highpass", bench_spec(), 500.0)
        out = filt.process(np.ones(20000))
        assert abs(out[-1]) < 1e-6

    def test_lowpass_minus_3db_at_corner(self):
        spec = bench_spec()
        filt = discretize("lowpass", spec, 500.0)
        mag_db = 20 * np.log10(abs(filt.response_at(spec.f_cl)))
        assert mag_db == pytest.approx(-20 * math.log10(math.sqrt(2)), abs=0.2)

    def test_notch_depth_and_passband(self):
        spec = FrontEndSpec(notch_q=5.0, f_0=50.0)
        filt = discretize("notch", spec, 500.0)
        assert 20 * np.log10(abs(filt.response_at(50.0))) <= -30.0
        assert 20 * np.log10(abs(filt.response_at(20.0))) >= -1.0

    def test_corner_at_nyquist_rejected(self):
        spec = FrontEndSpec(f_cl=260.0, f_0=50.0)
        with pytest.raises(ValueError, match="Nyquist"):
            discretize("lowpass", spec, 500.0)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            discretize("bandstop", bench_spec(), 500.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["highpass", "lowpass", "notch"]),
        f=st.floats(min_value=0.01, max_value=0.49),
        q=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_stability_property(self, kind, f, q):
        """Poles stay strictly inside the unit circle across admissible corners."""
        rate = 500.0
        freq = f * rate
        spec = FrontEndSpec(
            f_ch=min(0.9 * freq, 0.18),
            f_cl=max(freq, 0.2),
            f_0=max(0.95 * freq, 0.19),
            notch_q=q,
        )
        filt = discretize(kind, spec, rate)
        assert np.all(np.abs(filt.poles) < 1.0)

    def test_state_carries_across_blocks(self):
        spec = bench_spec()
        x = np.sin(2 * np.pi * 10 * np.arange(1000) / 500)
        one = discretize("lowpass", spec, 500.0).process(x)
        filt = discretize("lowpass", spec, 500.0)
        two = np.concatenate([filt.process(x[:400]), filt.process(x[400:])])
        assert np.allclose(one, two, atol=1e-12)


class TestApplyFrontend:
    def test_zero_input_is_lift_bias(self):
        spec = bench_spec()
        out = apply_frontend(zero_source(500.0, 3000), spec)
        assert not out.saturated
        assert np.allclose(out.frame.values, spec.lift_bias, atol=1e-9)
        assert out.frame.unit == "V"

    def test_midband_gain_1650(self):
        # 1 mV_pp differential at 10 Hz with chain gain 1650 -> ~1.65 V_pp
        spec = bench_spec()
        sig = sine_source(10.0, 0.5, 500.0, 4.0)
        out = apply_frontend(sig, spec)
        amp = steady_amplitude(out.frame.values, 500.0, 10.0)
        assert 2 * amp == pytest.approx(1.65, rel=0.02)
        mean = np.mean(out.frame.values[len(out.frame) // 2:])
        assert mean == pytest.approx(spec.lift_bias, abs=0.02)

    def test_common_mode_rejection_bound(self):
        spec = bench_spec()
        sig = sine_source(50.0, 1.0, 500.0, 6.0, channel="common")
        out = apply_frontend(sig, spec)
        ripple = steady_amplitude(out.frame.values, 500.0, 50.0)
        bound = 1.0e-3 * spec.chain_gain / 10 ** (spec.cmrr_db / 20)
        assert ripple <= bound  # notch attenuates further below the CMRR bound

    def test_linearity_up_to_clipping(self):
        spec = bench_spec()
        a1 = steady_amplitude(
            apply_frontend(sine_source(10.0, 0.05, 500.0, 4.0), spec).frame.values, 500.0, 10.0)
        a2 = steady_amplitude(
            apply_frontend(sine_source(10.0, 0.10, 500.0, 4.0), spec).frame.values, 500.0, 10.0)
        assert a2 == pytest.approx(2 * a1, rel=0.01)

    def test_clipping_saturates_and_flags(self):
        spec = bench_spec()
        out = apply_frontend(sine_source(10.0, 5.0, 500.0, 2.0), spec)
        assert out.saturated
        assert np.min(out.frame.values) >= spec.supply[0]
        assert np.max(out.frame.values) <= spec.supply[1]

    def test_output_never_leaves_supply_range(self):
        spec = bench_spec()
        rng = np.random.default_rng(11)
        wild = SampleFrame(500.0, rng.normal(0, 10.0, 4000))
        sig = SourceSignal(differential=wild, common_mode=wild.with_values(np.zeros(4000)))
        out = apply_frontend(sig, spec)
        assert np.all(out.frame.values >= spec.supply[0])
        assert np.all(out.frame.values <= spec.supply[1])


class TestMeasureMetrics:
    def test_bench_tuned_spec(self):
        report = measure_metrics(bench_spec(), 500.0)
        assert report.differential_gain == pytest.approx(1650.0, rel=0.02)
        assert report.cmrr_db == pytest.approx(93.16, abs=0.1)
        assert 0.1 <= report.bandwidth_low <= 0.3
        assert 69.0 <= report.bandwidth_high <= 72.0
        assert report.mains_attenuation_db <= -12.6
        assert report.bw == pytest.approx(report.bandwidth_high - report.bandwidth_low, abs=1e-9)
        assert report.input_impedance == pytest.approx(13.2e6)

    def test_cmrr_is_defining_ratio(self):
        report = measure_metrics(bench_spec(), 500.0)
        recomputed = 20 * math.log10(report.differential_gain / report.common_mode_gain)
        assert report.cmrr_db == pytest.approx(recomputed, abs=1e-9)

    def test_equal_gains_give_zero_cmrr(self):
        spec = FrontEndSpec(cmrr_db=0.0)
        report = measure_metrics(spec, 500.0)
        assert report.cmrr_db == pytest.approx(0.0, abs=1e-6)

    def test_no_notch_alpha_matches_analytic_rolloff(self):
        """Without the notch, 50-vs-20 Hz attenuation is the HP*LP response ratio."""
        spec = bench_spec()
        report = measure_metrics(spec, 500.0, with_notch=False)

        def analog_mag(f):
            hp = (f / spec.f_ch) / math.sqrt(1 + (f / spec.f_ch) ** 2)
            lp = 1 / math.sqrt(1 + (f / spec.f_cl) ** 2)
            return hp * lp

        expected = 20 * math.log10(analog_mag(50.0) / analog_mag(20.0))
        assert report.mains_attenuation_db == pytest.approx(expected, abs=1.0)

    def test_noise_row_refers_output_to_input(self):
        from ecgmon.signals import NoiseConfig

        report = measure_metrics(bench_spec(), 500.0, noise=NoiseConfig(emg_sigma=0.005, rng_seed=1))
        assert report.equiv_input_noise > 0
        # EMG sigma of 5 uV referred back through the chain stays within a
        # small multiple of sigma (peak of a Gaussian over the run)
        assert report.equiv_input_noise < 5 * 0.005e-3

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            FrontEndSpec(f_ch=80.0, f_cl=70.0)
        with pytest.raises(ValueError):
            FrontEndSpec(lift_bias=5.0)
        with pytest.raises(ValueError, match="notch_q"):
            FrontEndSpec(notch_q=float("nan"))
        # the bias is bounded by the spec's own supply, not a fixed 3.3 V rail
        assert FrontEndSpec(supply=(0.0, 5.0), lift_bias=4.0).lift_bias == 4.0
        cfg = tmp_path / "low_rail.cfg"
        cfg.write_text("[frontend]\nsupply_max = 1.5\n")
        assert main(["run", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cfg) in captured.err and "lift_bias" in captured.err

    def test_defaults_are_the_bench_spec(self):
        assert FrontEndSpec() == bench_spec()
        assert FrontEndSpec().notch_q == 30.0
