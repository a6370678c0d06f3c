"""Front-end tests: component formulas, discretization, chain behavior, metrics."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import freqz, lfilter

from ecgmon import frontend
from ecgmon.config import PipelineConfig
from ecgmon.frontend import (
    CHAIN_GAIN,
    COMMON_MODE_LEAK,
    LIFT_BIAS,
    SUPPLY_MAX,
    SUPPLY_MIN,
    FrontEndSpec,
    chain_magnitude,
    apply_frontend,
    discretize,
    highpass_cutoff,
    instrument_gain,
    lowpass_cutoff,
    measure_metrics,
    notch_center,
    bench_spec,
    voltage_gain,
)
from ecgmon.pipeline import run_pipeline
from ecgmon.signals import NoiseConfig, SampleFrame, generate_sine


def resistors(**overrides) -> dict:
    """The gain stages' resistors (ohms) of the paper's part list."""
    base = dict(r1=5e3, r2=5e3, r3=50e3, r4=50e3, r5=10e3, r7=20e3)
    base.update(overrides)
    return base


def steady_amplitude(values: np.ndarray, rate: float, freq: float) -> float:
    tail = values[len(values) // 2:]
    cycles = math.floor(len(tail) / rate * freq)
    tail = tail[: int(round(cycles * rate / freq))]
    return math.sqrt(2.0) * float(np.std(tail - np.mean(tail)))


class TestGainFormulas:
    def test_paper_component_set_gives_22(self):
        # (R3+R4)/(R1+R2) = 10 and R7/R5 = 2 -> (1+10)*2 = 22 by hand algebra
        assert instrument_gain(**resistors()) == pytest.approx(22.0, abs=1e-12)

    def test_first_stage_collapse_limit(self):
        # R3+R4 -> 0 collapses the first stage to unity: gain -> R7/R5
        r = resistors(r3=1e-9, r4=1e-9)
        assert instrument_gain(**r) == pytest.approx(r["r7"] / r["r5"], rel=1e-9)

    def test_symmetric_case_gives_2(self):
        r = resistors(r3=3e3, r4=7e3, r1=4e3, r2=6e3, r5=10e3, r7=10e3)
        assert instrument_gain(**r) == pytest.approx(2.0, abs=1e-12)

    def test_voltage_gain(self):
        assert voltage_gain(r_a=1e3, r_b=74e3) == pytest.approx(75.0, abs=1e-12)

    def test_board_constants_are_its_parts(self):
        """The fixed chain gain is the two amplifiers' product, and the
        common-mode leak is the 93.16 dB CMRR."""
        assert CHAIN_GAIN == instrument_gain(**resistors()) * voltage_gain(r_a=1e3, r_b=74e3)
        assert -20 * math.log10(COMMON_MODE_LEAK) == pytest.approx(93.16, abs=1e-12)
        assert LIFT_BIAS == (SUPPLY_MIN + SUPPLY_MAX) / 2

    def test_nonpositive_component_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="r5 must be finite and > 0"):
                instrument_gain(**resistors(r5=bad))
            with pytest.raises(ValueError, match="r_b must be finite and > 0"):
                voltage_gain(r_a=1e3, r_b=bad)


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


# a stage kind and the spec it is designed from at 500 Hz, f being the
# stage's corner as a fraction of the rate
STAGE_DRAWS = dict(
    kind=st.sampled_from(["highpass", "lowpass", "notch"]),
    f=st.floats(min_value=0.01, max_value=0.49),
    q=st.floats(min_value=0.5, max_value=50.0),
)


def _drawn_spec(f: float, q: float) -> FrontEndSpec:
    freq = f * 500.0
    return FrontEndSpec(f_ch=min(0.9 * freq, 0.18), f_cl=max(freq, 0.2),
                        f_0=max(0.95 * freq, 0.19), notch_q=q)


class TestDiscretize:
    def test_highpass_rejects_dc(self):
        b, a = discretize("highpass", bench_spec(), 500.0)
        out = lfilter(b, a, np.ones(20000))
        assert abs(out[-1]) < 1e-6

    def test_lowpass_minus_3db_at_corner(self):
        spec = bench_spec()
        b, a = discretize("lowpass", spec, 500.0)
        mag_db = 20 * np.log10(abs(frontend._response(b, a, 500.0, spec.f_cl)))
        assert mag_db == pytest.approx(-20 * math.log10(math.sqrt(2)), abs=0.2)

    def test_notch_depth_and_passband(self):
        spec = FrontEndSpec(notch_q=5.0, f_0=50.0)
        b, a = discretize("notch", spec, 500.0)
        _, h = freqz(b, a, worN=[50.0, 20.0], fs=500.0)
        assert 20 * np.log10(abs(h[0])) <= -30.0
        assert 20 * np.log10(abs(h[1])) >= -1.0

    def test_corner_at_nyquist_rejected(self):
        spec = FrontEndSpec(f_cl=260.0, f_0=50.0)
        with pytest.raises(ValueError, match="Nyquist"):
            discretize("lowpass", spec, 500.0)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            discretize("bandstop", bench_spec(), 500.0)

    def test_poles_on_the_unit_circle_rejected(self):
        """Valid specs whose poles round onto |z| = 1: a notch so narrow that
        a[2] is 1.0, and a high-pass corner so low that a[1] is -1.0."""
        for kind, spec in (("notch", FrontEndSpec(notch_q=1e300)),
                           ("highpass", FrontEndSpec(f_ch=1e-300))):
            with pytest.raises(ValueError, match="unit circle"):
                discretize(kind, spec, 500.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**STAGE_DRAWS)
    def test_stability_property(self, kind, f, q):
        """Poles stay strictly inside the unit circle across admissible corners."""
        b, a = discretize(kind, _drawn_spec(f, q), 500.0)
        assert len(b) == len(a) == 3 and a[0] == 1.0
        assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_each_filter_owns_its_state(self):
        """A stage is an immutable (b, a) pair: each discretize call designs an
        equal pair, and filtering with one never changes what apply_frontend,
        which designs the chain once per spec, produces."""
        spec = bench_spec()
        sig = generate_sine(10.0, 0.5, 500.0, 2.0)
        before = apply_frontend(sig, spec).frame.values
        x = np.sin(2 * np.pi * 10 * np.arange(1000) / 500)
        used, fresh = discretize("lowpass", spec, 500.0), discretize("lowpass", spec, 500.0)
        assert used == fresh
        assert all(type(part) is tuple for part in used)
        linear_filter = frontend._linear_filter()
        assert np.array_equal(linear_filter(*used, x, -1), linear_filter(*fresh, x, -1))
        assert apply_frontend(sig, spec).frame.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["notch", "lowpass", "highpass"])
    def test_filtering_from_rest_needs_no_zi(self, kind):
        """The package's filter without an initial state, as apply_frontend
        calls it, starts from rest: the bytes of passing a zero state."""
        x = np.random.default_rng(5).normal(size=5000)
        b, a = discretize(kind, bench_spec(), 500.0)
        linear_filter = frontend._linear_filter()
        assert linear_filter(b, a, x, -1).tobytes() == linear_filter(b, a, x, -1, np.zeros(2))[0].tobytes()


class TestLoadedFilter:
    """apply_frontend filters through scipy's compiled routine, loaded without
    the scipy.signal package; scipy.signal.lfilter is the public call that
    runs the same routine, so a scipy release that moves or changes it fails
    here by name."""

    @pytest.mark.parametrize("stage", range(3))
    def test_bench_stage_matches_lfilter(self, stage):
        x = np.random.default_rng(7).normal(size=5000)
        b, a = frontend._chain_coefficients(bench_spec(), 500.0)[stage]
        assert frontend._linear_filter()(b, a, x, -1).tobytes() == lfilter(b, a, x).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**STAGE_DRAWS)
    def test_drawn_stage_matches_lfilter(self, kind, f, q):
        x = np.random.default_rng(8).normal(size=1000)
        b, a = discretize(kind, _drawn_spec(f, q), 500.0)
        assert frontend._linear_filter()(b, a, x, -1).tobytes() == lfilter(b, a, x).tobytes()

    @pytest.mark.parametrize("scipy_signal_first", [False, True])
    def test_load_order_with_scipy_signal(self, scipy_signal_first):
        """Loading the filter before or after the scipy.signal package leaves
        both working and equal, with no warning under -X dev -W error."""
        code = ("import hashlib, numpy as np\n"
                + ("import scipy.signal\n" if scipy_signal_first else "")
                + "from ecgmon import frontend\n"
                "from ecgmon.config import PipelineConfig\n"
                "from ecgmon.pipeline import run_pipeline\n"
                "result = run_pipeline(PipelineConfig())\n"
                "import scipy.signal\n"
                "x = np.random.default_rng(3).normal(size=2000)\n"
                "for b, a in frontend._chain_coefficients(frontend.bench_spec(), 500.0):\n"
                "    assert (frontend._linear_filter()(b, a, x, -1).tobytes()\n"
                "            == scipy.signal.lfilter(b, a, x).tobytes())\n"
                "print(hashlib.sha256(result.digital.values.tobytes()).hexdigest())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        expected = run_pipeline(PipelineConfig()).digital.values.tobytes()
        assert proc.stdout.split() == [hashlib.sha256(expected).hexdigest()]


def _chain_reference(frame: SampleFrame, spec: FrontEndSpec) -> np.ndarray:
    """apply_frontend's filter cascade run through freshly designed stages."""
    x = frame.values * 1e-3
    for kind in ("notch", "lowpass", "highpass"):
        x = lfilter(*discretize(kind, spec, frame.sample_rate), x)
    return np.clip(CHAIN_GAIN * x + LIFT_BIAS, SUPPLY_MIN, SUPPLY_MAX)


class TestDesignCache:
    @pytest.fixture
    def discretize_calls(self, monkeypatch):
        calls = []

        def counted(kind, spec, rate):
            calls.append((kind, spec, rate))
            return discretize(kind, spec, rate)

        frontend._chain_coefficients.cache_clear()
        monkeypatch.setattr(frontend, "discretize", counted)
        return calls

    def test_each_stage_designed_once(self, discretize_calls):
        spec = FrontEndSpec(notch_q=23.0)
        sig = generate_sine(10.0, 0.5, 500.0, 1.0)
        outputs = [apply_frontend(sig, spec).frame.values.tobytes() for _ in range(3)]
        assert len(set(outputs)) == 1
        assert [kind for kind, _, _ in discretize_calls] == ["notch", "lowpass", "highpass"]
        noise = NoiseConfig(emg_sigma=0.01, rng_seed=1)
        reports = [measure_metrics(spec, 500.0, noise=noise) for _ in range(2)]
        assert reports[0] == reports[1]
        assert len(discretize_calls) == 3
        measure_metrics(spec, 250.0)
        assert len(discretize_calls) == 3 + 3

    def test_replaced_spec_gets_its_own_design(self, discretize_calls):
        spec = FrontEndSpec(notch_q=23.0)
        sig = generate_sine(50.0, 0.5, 500.0, 2.0)
        first = apply_frontend(sig, spec).frame.values
        narrow = dataclasses.replace(spec, notch_q=5.0)
        second = apply_frontend(sig, narrow).frame.values
        assert len(discretize_calls) == 6
        assert not np.array_equal(first, second)
        assert first.tobytes() == _chain_reference(sig, spec).tobytes()
        assert second.tobytes() == _chain_reference(sig, narrow).tobytes()
        assert apply_frontend(sig, spec).frame.values.tobytes() == first.tobytes()

    def test_same_bytes_as_fresh_filters(self):
        spec = bench_spec()
        rng = np.random.default_rng(5)
        noisy = SampleFrame(500.0, rng.normal(0.0, 0.3, 3000))
        for _ in range(2):
            got = apply_frontend(noisy, spec).frame.values
            assert got.tobytes() == _chain_reference(noisy, spec).tobytes()
        freqs = np.logspace(-2, np.log10(240.0), 50)
        h = np.ones(len(freqs), dtype=np.complex128)
        h_freqz = np.ones(len(freqs), dtype=np.complex128)
        for kind in ("notch", "lowpass", "highpass"):
            b, a = discretize(kind, spec, 500.0)
            h = h * frontend._response(b, a, 500.0, freqs)
            h_freqz = h_freqz * freqz(b, a, worN=freqs, fs=500.0)[1]
        magnitude = chain_magnitude(spec, 500.0, freqs)
        assert magnitude.tobytes() == np.abs(h).tobytes()
        assert np.allclose(magnitude, np.abs(h_freqz), rtol=1e-9, atol=0.0)


class TestApplyFrontend:
    def test_zero_input_is_lift_bias(self):
        spec = bench_spec()
        out = apply_frontend(SampleFrame(sample_rate=500.0, values=np.zeros(3000)), spec)
        assert not out.saturated
        assert np.allclose(out.frame.values, LIFT_BIAS, atol=1e-9)

    def test_midband_gain_1650(self):
        # 1 mV_pp differential at 10 Hz with chain gain 1650 -> ~1.65 V_pp
        spec = bench_spec()
        sig = generate_sine(10.0, 0.5, 500.0, 4.0)
        out = apply_frontend(sig, spec)
        amp = steady_amplitude(out.frame.values, 500.0, 10.0)
        assert 2 * amp == pytest.approx(1.65, rel=0.02)
        mean = np.mean(out.frame.values[len(out.frame) // 2:])
        assert mean == pytest.approx(LIFT_BIAS, abs=0.02)

    def test_common_mode_rejection_bound(self):
        """A 1 mV common-mode sine reaches the chain as its leak share."""
        spec = bench_spec()
        sine = generate_sine(50.0, 1.0, 500.0, 6.0)
        out = apply_frontend(sine.with_values(COMMON_MODE_LEAK * sine.values), spec)
        ripple = steady_amplitude(out.frame.values, 500.0, 50.0)
        bound = 1.0e-3 * CHAIN_GAIN * COMMON_MODE_LEAK
        assert ripple <= bound  # notch attenuates further below the CMRR bound

    def test_linearity_up_to_clipping(self):
        spec = bench_spec()
        a1 = steady_amplitude(
            apply_frontend(generate_sine(10.0, 0.05, 500.0, 4.0), spec).frame.values, 500.0, 10.0)
        a2 = steady_amplitude(
            apply_frontend(generate_sine(10.0, 0.10, 500.0, 4.0), spec).frame.values, 500.0, 10.0)
        assert a2 == pytest.approx(2 * a1, rel=0.01)

    def test_clipping_saturates_and_flags(self):
        spec = bench_spec()
        out = apply_frontend(generate_sine(10.0, 5.0, 500.0, 2.0), spec)
        assert out.saturated
        assert np.min(out.frame.values) >= SUPPLY_MIN
        assert np.max(out.frame.values) <= SUPPLY_MAX

    def test_output_never_leaves_supply_range(self):
        spec = bench_spec()
        rng = np.random.default_rng(11)
        wild = SampleFrame(500.0, rng.normal(0, 10.0, 4000))
        out = apply_frontend(wild, spec)
        assert np.all(out.frame.values >= SUPPLY_MIN)
        assert np.all(out.frame.values <= SUPPLY_MAX)

    def test_huge_finite_input_saturates_without_overflow_warning(self):
        """A gain product beyond the float range saturates at the rails like
        any other; the suite turns the overflow warning into an error."""
        out = apply_frontend(generate_sine(1.2, 1.7e308, 500.0, 2.0), bench_spec())
        values = out.frame.values
        assert out.saturated
        assert values.min() == SUPPLY_MIN and values.max() == SUPPLY_MAX


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

    def test_common_mode_gain_is_the_leak(self):
        """The common-mode probe reads the differential gain times the
        chain's scalar leak."""
        report = measure_metrics(FrontEndSpec(), 500.0)
        assert report.common_mode_gain == pytest.approx(
            report.differential_gain * COMMON_MODE_LEAK, rel=1e-9)

    def test_cmrr_is_defining_ratio(self):
        report = measure_metrics(bench_spec(), 500.0)
        recomputed = 20 * math.log10(report.differential_gain / report.common_mode_gain)
        assert report.cmrr_db == pytest.approx(recomputed, abs=1e-9)

    def test_alpha_matches_chain_magnitude_ratio(self):
        """The probed 50-vs-20 Hz attenuation is the realized cascade's ratio."""
        for q in (5.0, 30.0):
            spec = FrontEndSpec(notch_q=q)
            report = measure_metrics(spec, 500.0)
            expected = 20 * math.log10(chain_magnitude(spec, 500.0, 50.0)
                                       / chain_magnitude(spec, 500.0, 20.0))
            assert report.mains_attenuation_db == pytest.approx(expected, abs=0.01)

    def test_noise_row_refers_output_to_input(self):
        from ecgmon.signals import NoiseConfig

        report = measure_metrics(bench_spec(), 500.0, noise=NoiseConfig(emg_sigma=0.005, rng_seed=1))
        assert report.equiv_input_noise > 0
        # EMG sigma of 5 uV referred back through the chain stays within a
        # small multiple of sigma (peak of a Gaussian over the run)
        assert report.equiv_input_noise < 5 * 0.005e-3

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="need f_ch < f_0 < f_cl"):
            FrontEndSpec(f_ch=80.0, f_cl=70.0)
        with pytest.raises(ValueError, match="notch_q"):
            FrontEndSpec(notch_q=float("nan"))

    def test_defaults_are_the_bench_spec(self):
        assert FrontEndSpec() == bench_spec()
        assert FrontEndSpec().notch_q == 30.0


def _bisect_reference(mag_fn, target, lo, hi, iterations=80):
    """_bisect_crossing as the plain loop: all 80 iterations, no early stop."""
    f_lo, f_hi = lo, hi
    s_lo = mag_fn(f_lo) - target
    for _ in range(iterations):
        mid = math.sqrt(f_lo * f_hi)
        s_mid = mag_fn(mid) - target
        if (s_mid > 0) == (s_lo > 0):
            f_lo, s_lo = mid, s_mid
        else:
            f_hi = mid
    return math.sqrt(f_lo * f_hi)


def _sweep_variants(count: int, seed: int = 5) -> list[FrontEndSpec]:
    """bench_spec() and seeded variants in the benchmark sweep's ranges."""
    rng = np.random.default_rng(seed)
    bench = bench_spec()
    return [bench] + [dataclasses.replace(bench, notch_q=float(rng.uniform(10.0, 50.0)),
                                          f_cl=float(rng.uniform(60.0, 120.0)),
                                          f_ch=float(rng.uniform(0.05, 0.5)))
                      for _ in range(count)]


class TestBandEdgeBisection:
    @pytest.mark.parametrize("rate", [250.0, 500.0, 1000.0, 2000.0])
    def test_early_stop_gives_the_80_iteration_edges(self, rate, monkeypatch):
        specs = _sweep_variants(6)
        got = [frontend._band_edges(spec, rate) for spec in specs]
        monkeypatch.setattr(frontend, "_bisect_crossing", _bisect_reference)
        assert got == [frontend._band_edges(spec, rate) for spec in specs]

    def test_stops_once_the_bracket_is_fixed(self, monkeypatch):
        """For the bench spec at 500 Hz both brackets stop moving well before 80."""
        calls = []
        bisect = frontend._bisect_crossing

        def counting(mag_fn, *args, **kwargs):
            def counted(f):
                calls.append(f)
                return mag_fn(f)
            return bisect(counted, *args, **kwargs)

        monkeypatch.setattr(frontend, "_bisect_crossing", counting)
        frontend._band_edges(bench_spec(), 500.0)
        assert len(calls) < 2 * 60  # the full loop makes 2 * 81 calls
