"""Signal source tests: template beats, sinusoids, noise overlay, CSV I/O."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgmon import signals
from ecgmon.dsp import fft_notch, smooth_emg
from ecgmon.signals import (
    EcgTemplateParams,
    NoiseConfig,
    SampleFrame,
    Wave,
    add_noise,
    generate_ecg,
    generate_sine,
)


def count_r_peaks(values: np.ndarray, threshold: float) -> int:
    peaks = 0
    for i in range(1, len(values) - 1):
        if values[i] > threshold and values[i] >= values[i - 1] and values[i] > values[i + 1]:
            peaks += 1
    return peaks


class TestSampleFrame:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SampleFrame(sample_rate=0.0, values=np.zeros(3))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            SampleFrame(sample_rate=500.0, values=np.array([0.0, np.inf]))

    def test_times_and_duration(self):
        frame = SampleFrame(sample_rate=100.0, values=np.zeros(5), start_time=1.0)
        assert np.allclose(frame.times, [1.0, 1.01, 1.02, 1.03, 1.04])

    def test_csv_round_trip(self, tmp_path):
        frame = generate_sine(3.0, 1.2345, 500.0, 0.5)
        path = tmp_path / "frame.csv"
        frame.to_csv(path)
        back = SampleFrame.from_csv(path)
        assert back.sample_rate == pytest.approx(500.0, rel=1e-9)
        # 9 significant digits survive the round trip
        assert np.allclose(back.values, frame.values, rtol=1e-8, atol=1e-12)

    def test_csv_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\nnot-a-row\n")
        with pytest.raises(ValueError, match="line 3"):
            SampleFrame.from_csv(path)

    def test_rejects_nonfinite_start_time(self):
        for bad in (float("nan"), math.inf, -math.inf):
            with pytest.raises(ValueError, match="start_time must be finite"):
                SampleFrame(sample_rate=500.0, values=np.zeros(3), start_time=bad)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", ["time", "value"])
    @pytest.mark.parametrize("lineno", [2, 3, 4])
    def test_csv_nonfinite_row_names_line(self, tmp_path, token, column, lineno):
        """A non-finite time or value is refused at its own line, whether it
        is the first, a middle or the last row."""
        rows = [["0.0", "1.0"], ["0.002", "2.0"], ["0.004", "3.0"]]
        rows[lineno - 2][0 if column == "time" else 1] = token
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n" + "".join(f"{t},{v}\n" for t, v in rows))
        with pytest.raises(ValueError,
                           match=f"bad.csv: line {lineno}: time and value must be finite"):
            SampleFrame.from_csv(path)

    @pytest.mark.parametrize("second_time", ["0.002", "0.001", "nan"])
    def test_csv_time_not_increasing_names_line(self, tmp_path, second_time):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,value\n0.0,1.0\n0.002,1.0\n{second_time},1.0\n")
        with pytest.raises(ValueError, match="line 4"):
            SampleFrame.from_csv(path)


class TestTemplateValidation:
    def test_default_is_valid(self):
        params = EcgTemplateParams()
        assert params.r.amplitude > 0

    def test_rejects_unordered_centers(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EcgTemplateParams(
                p=Wave(0.1, 0.5, 0.05),
                q=Wave(-0.1, 0.3, 0.01),
                r=Wave(1.0, 0.4, 0.02),
                s=Wave(-0.1, 0.45, 0.01),
                t=Wave(0.2, 0.6, 0.05),
            )

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width"):
            Wave(0.1, 0.2, 0.0)

    def test_rejects_nan_width(self):
        """A NaN-width R bump added nothing to the beat: with the R wave gone
        a run read 200 bpm and raised a tachycardia alert."""
        with pytest.raises(ValueError, match="^width must be finite and > 0, got nan$"):
            EcgTemplateParams(r=Wave(0.9, 0.4, math.nan))

    def test_rejects_nonpositive_r(self):
        waves = dict(
            p=Wave(0.1, 0.1, 0.05),
            q=Wave(-0.1, 0.3, 0.01),
            r=Wave(-1.0, 0.4, 0.02),
            s=Wave(-0.1, 0.45, 0.01),
            t=Wave(0.2, 0.6, 0.05),
        )
        with pytest.raises(ValueError, match="R amplitude"):
            EcgTemplateParams(**waves)


class TestGenerateEcg:
    def test_zero_amplitudes_give_zero_frame(self):
        params = EcgTemplateParams(
            p=Wave(0.0, 0.1, 0.05),
            q=Wave(0.0, 0.3, 0.01),
            r=Wave(1e-300, 0.4, 0.02),  # R must stay positive; vanishing amplitude
            s=Wave(0.0, 0.45, 0.01),
            t=Wave(0.0, 0.6, 0.05),
        )
        frame = generate_ecg(params, 60, 500, 1.0)
        assert np.allclose(frame.values, 0.0, atol=1e-290)

    def test_120bpm_two_seconds_has_four_r_peaks(self):
        params = EcgTemplateParams()
        frame = generate_ecg(params, 120, 500, 2.0)
        assert count_r_peaks(frame.values, 0.5 * params.r.amplitude) == 4

    def test_72bpm_dominant_line_at_1_2_hz(self):
        # oracle: peak-bin search on the FFT of the generated frame
        frame = generate_ecg(EcgTemplateParams(), 72, 500, 30.0)
        spectrum = np.abs(np.fft.rfft(frame.values))
        spectrum[0] = 0.0  # DC offset is not a spectral line
        freqs = np.fft.rfftfreq(len(frame), 1.0 / frame.sample_rate)
        assert abs(freqs[int(np.argmax(spectrum))] - 1.2) <= 0.1

    def test_rejects_bad_arguments(self):
        params = EcgTemplateParams()
        with pytest.raises(ValueError):
            generate_ecg(params, 0, 500, 1.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 60, 500, 0.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 60, 0.0, 1.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 600, 4.0, 1.0)  # below 4x fundamental

    @pytest.mark.parametrize("generate", [
        lambda duration, rate: generate_ecg(EcgTemplateParams(), 60, rate, duration),
        lambda duration, rate: generate_sine(1.0, 1.0, rate, duration),
    ], ids=["ecg", "sine"])
    def test_sample_count_must_be_finite(self, generate):
        message = "duration 1e+308 s at sample_rate 500 Hz gives no finite sample count"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(1e308, 500)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        bpm=st.floats(min_value=40, max_value=180),
        duration=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_beat_count_property(self, bpm, duration):
        """R-peak count stays within one beat of bpm/60 * duration."""
        params = EcgTemplateParams()
        frame = generate_ecg(params, bpm, 500, duration)
        peaks = count_r_peaks(frame.values, 0.5 * params.r.amplitude)
        expected = round(bpm / 60.0 * duration)
        assert abs(peaks - expected) <= 1


def generate_ecg_reference(params, bpm, sample_rate, duration) -> np.ndarray:
    """generate_ecg's values as the plain 15-pass loop: every wave, every wrap."""
    n = int(round(duration * sample_rate))
    phase = (np.arange(n) / sample_rate * (bpm / 60.0)) % 1.0
    out = np.zeros(n)
    for wave in params.waves():
        for k in (-1.0, 0.0, 1.0):
            out += wave.amplitude * np.exp(-0.5 * ((phase - wave.center - k) / wave.width) ** 2)
    return out


_centers = st.lists(st.one_of(st.floats(0.0, 0.02), st.floats(0.98, 1.0), st.floats(0.0, 1.0),
                              st.floats(-0.1, 1.1)),
                    min_size=5, max_size=5, unique=True).map(sorted)
_amplitudes = st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5)
_widths = st.lists(st.floats(0.005, 0.2), min_size=5, max_size=5)


class _CountingExp:
    """numpy, with its exp calls counted."""

    calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, **kwargs):  # out= and where= as generate_ecg passes them
        self.calls += 1
        return np.exp(x, **kwargs)


# P's k = +1 wrap (and in the second, T's k = -1 wrap) lies 38.3 widths from the
# beat boundary, where every other term is exactly 0.0: it adds about 1e-318,
# so dropping it shows
_BOUNDARY = dict(amplitudes=[0.1, -0.1, 1.0, -0.1, 0.2], widths=[0.005] * 5,
                 r_amplitude=1.0, bpm=60.0, rate=2000.0, duration=1.0)

# R (width 0.0125, center 0.5 or 0.48) is the only wave whose terms near the
# beat boundary are not 0.0.  Its k = 0 wrap (and, at 0.48, its k = +1 wrap)
# reaches 40 or more widths, where exp underflows to 0.0, and passes 37.6 to
# 38.6 widths, where exp is subnormal; those subnormal terms show in the output
_PART_SUBNORMAL = dict(amplitudes=[0.1, -0.1, 1.0, -0.1, 0.2],
                       widths=[0.005, 0.005, 0.0125, 0.005, 0.005],
                       r_amplitude=1.0, bpm=60.0, rate=2000.0, duration=1.0)
_PART_SUBNORMAL_CENTERS = ([0.46, 0.48, 0.5, 0.52, 0.54], [0.44, 0.46, 0.48, 0.5, 0.52])


def _params(centers, amplitudes, widths, r_amplitude):
    amplitudes = [*amplitudes[:2], r_amplitude, *amplitudes[3:]]
    return EcgTemplateParams(*(Wave(a, c, w) for a, c, w in zip(amplitudes, centers, widths)))


class TestGenerateEcgReference:
    @example(centers=[0.1915, 0.3, 0.4, 0.5, 0.6], **_BOUNDARY)
    @example(centers=[0.4, 0.5, 0.6, 0.7, 0.8085], **_BOUNDARY)
    @example(centers=_PART_SUBNORMAL_CENTERS[0], **_PART_SUBNORMAL)
    @example(centers=_PART_SUBNORMAL_CENTERS[1], **_PART_SUBNORMAL)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(centers=_centers, amplitudes=_amplitudes, widths=_widths,
           r_amplitude=st.floats(0.01, 3.0), bpm=st.floats(20.0, 300.0),
           rate=st.floats(100.0, 2000.0), duration=st.floats(0.05, 2.0))
    def test_same_bytes_as_every_wrap(self, centers, amplitudes, widths, r_amplitude,
                                      bpm, rate, duration):
        """Skipping the wraps and the lanes that underflow to 0.0 leaves every
        bit as it was."""
        params = _params(centers, amplitudes, widths, r_amplitude)
        got = generate_ecg(params, bpm, rate, duration).values
        assert got.tobytes() == generate_ecg_reference(params, bpm, rate, duration).tobytes()

    @pytest.mark.parametrize("centers", _PART_SUBNORMAL_CENTERS)
    def test_part_subnormal_examples_show_both_kinds_of_lane(self, centers):
        """The examples above reach both sides of -746: lanes whose term is
        0.0 and subnormal terms that stay in the output."""
        kw = dict(_PART_SUBNORMAL)
        params = _params(centers, kw.pop("amplitudes"), kw.pop("widths"), kw.pop("r_amplitude"))
        values = generate_ecg(params, kw["bpm"], kw["rate"], kw["duration"]).values
        tiny = np.finfo(np.float64).tiny
        assert np.count_nonzero(values == 0.0) > 0
        assert np.count_nonzero((values != 0.0) & (np.abs(values) < tiny)) > 0

    def test_default_template_skips_five_passes(self, monkeypatch):
        """Both wraps of R and S and Q's k = -1 wrap lie 40 or more widths away."""
        counting = _CountingExp()
        monkeypatch.setattr(signals, "np", counting)
        values = generate_ecg(EcgTemplateParams(), 72, 500, 2.0).values
        assert counting.calls == 10
        reference = generate_ecg_reference(EcgTemplateParams(), 72, 500, 2.0)
        assert values.tobytes() == reference.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rate=st.floats(100.0, 4000.0), bpm=st.floats(20.0, 300.0), n=st.integers(1, 100_000))
def test_phase_floor_form_matches_remainder(rate, bpm, n):
    """generate_ecg's phase, cycles - floor(cycles), has the bits of cycles % 1.0."""
    cycles = np.arange(n) / rate * (bpm / 60.0)
    by_floor = cycles - np.floor(cycles)
    assert np.array_equal(by_floor.view(np.uint64), (cycles % 1.0).view(np.uint64))


class TestGenerateSine:
    def test_two_hz_identity(self):
        frame = generate_sine(2.0, 1.0, 500.0, 1.0)
        assert frame.values[0] == 0.0
        assert len(frame) == 500
        rising = np.nonzero((frame.values[:-1] < 0) & (frame.values[1:] >= 0))[0]
        assert len(rising) == 1  # one upward zero crossing inside -> 2 full cycles

    def test_zero_amplitude(self):
        frame = generate_sine(5.0, 0.0, 500.0, 1.0)
        assert np.all(frame.values == 0.0)

    def test_closed_form_sample(self):
        # n=5 at 50 Hz / 500 Hz: direct formula sin(2*pi*50*5/500) = sin(pi)
        amplitude = 0.7
        frame = generate_sine(50.0, amplitude, 500.0, 0.1)
        expected = amplitude * math.sin(2 * math.pi * 50.0 * 5 / 500.0)
        assert frame.values[5] == pytest.approx(expected, abs=1e-12)
        # and at n=2: sin(0.4*pi), a nonzero point of the same formula
        expected2 = amplitude * math.sin(2 * math.pi * 50.0 * 2 / 500.0)
        assert frame.values[2] == pytest.approx(expected2, abs=1e-12)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match=r"^sine freq 250.0 Hz is at or above Nyquist \(250.0 Hz\)$"):
            generate_sine(250.0, 1.0, 500.0, 1.0)
        for freq in (0.0, -0.0, -5.0):
            with pytest.raises(ValueError, match=f"^sine freq must be finite and > 0, got {freq}$"):
                generate_sine(freq, 1.0, 500.0, 1.0)

    @pytest.mark.parametrize("freq, amplitude", [(float("nan"), 1.0), (-math.inf, 1.0),
                                                 (2.0, math.inf), (2.0, float("nan"))])
    def test_nonfinite_freq_or_amplitude_rejected(self, freq, amplitude):
        with pytest.raises(ValueError, match="finite"):
            generate_sine(freq, amplitude, 500.0, 1.0)

    def test_same_bits_as_the_mains_tone(self):
        """The sine source and add_noise's mains are one tone on one grid."""
        sine = generate_sine(50.0, 0.3, 500.0, 10.0)
        noisy = add_noise(SampleFrame(500.0, np.zeros(5000)), NoiseConfig(mains_amplitude=0.3))
        assert sine.values.tobytes() == noisy.values.tobytes()

    def test_frames_never_alias_the_cached_tone(self):
        a = generate_sine(5.0, 1.0, 500.0, 1.0)
        b = generate_sine(5.0, 1.0, 500.0, 1.0)
        assert not np.shares_memory(a.values, b.values)
        assert not np.shares_memory(a.values, signals._unit_tone(500, 500.0, 0.0, 5.0))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(freq=st.integers(min_value=1, max_value=50))
    def test_rms_property_integer_cycles(self, freq):
        """RMS of an integer-cycle sine is amplitude/sqrt(2) within 1%."""
        amplitude = 2.0
        frame = generate_sine(float(freq), amplitude, 500.0, 1.0)
        rms = np.sqrt(np.mean(frame.values**2))
        assert rms == pytest.approx(amplitude / math.sqrt(2), rel=0.01)


def add_noise_reference(src: SampleFrame, cfg: NoiseConfig) -> np.ndarray:
    """add_noise's values, every sine computed afresh."""
    t = src.start_time + np.arange(len(src)) / src.sample_rate
    diff = src.values.copy()
    if cfg.mains_amplitude > 0:
        diff += cfg.mains_amplitude * np.sin(2 * np.pi * cfg.mains_freq * t)
    if cfg.wander_amplitude > 0:
        diff += cfg.wander_amplitude * np.sin(2 * np.pi * 0.2 * t)
    if cfg.emg_sigma > 0:
        diff += np.random.default_rng(cfg.rng_seed).normal(0.0, cfg.emg_sigma, len(diff))
    return diff


class TestShapeCache:
    """Time bases and unit tones are computed once per frame shape."""

    NOISE = NoiseConfig(mains_amplitude=0.3, mains_freq=50.0, wander_amplitude=0.2,
                        emg_sigma=0.05, rng_seed=9)

    @pytest.mark.parametrize("n", [5000, 777])
    @pytest.mark.parametrize("start_time", [0.0, 1.25])
    def test_add_noise_same_bytes_as_fresh_sines(self, n, start_time):
        signals._shape_cache.clear()
        src = SampleFrame(500.0, np.linspace(-1.0, 1.0, n), start_time)
        want = add_noise_reference(src, self.NOISE)
        for _ in range(2):  # the second call reads the cached tones
            out = add_noise(src, self.NOISE)
            assert out.values.tobytes() == want.tobytes()
        assert len(signals._shape_cache) == 3  # one time base and two tones

    def test_cached_arrays_are_read_only(self):
        signals._shape_cache.clear()
        src = generate_ecg(EcgTemplateParams(), 72, 500, 2.0)
        add_noise(src, self.NOISE)
        times = SampleFrame(500.0, np.zeros(1000), 2.0).times
        assert signals._shape_cache
        for arr in [times, *signals._shape_cache.values()]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("n, cached", [(2**14, True), (2**14 + 1, False)])
    def test_frames_above_the_cap_are_not_cached(self, n, cached):
        signals._shape_cache.clear()
        src = generate_ecg(EcgTemplateParams(), 72, 500, n / 500)
        assert len(src) == n
        noisy = add_noise(src, self.NOISE)
        smooth_emg(fft_notch(noisy, 50.0))
        assert len(noisy.times) == n
        assert bool(signals._shape_cache) is cached


class TestAddNoise:
    def test_zero_config_is_identity(self):
        src = generate_ecg(EcgTemplateParams(), 72, 500, 2.0)
        out = add_noise(src, NoiseConfig())
        assert np.array_equal(out.values, src.values)

    def test_same_seed_bit_identical(self):
        src = generate_sine(5.0, 1.0, 500.0, 2.0)
        cfg = NoiseConfig(mains_amplitude=0.3, emg_sigma=0.1, rng_seed=42)
        a = add_noise(src, cfg)
        b = add_noise(src, cfg)
        assert np.array_equal(a.values, b.values)

    def test_emg_sigma_statistics(self):
        """Deterministic-term residual has std emg_sigma within 5%."""
        src = SampleFrame(sample_rate=500.0, values=np.zeros(100_000))
        cfg = NoiseConfig(emg_sigma=0.1, rng_seed=3)
        out = add_noise(src, cfg)
        residual = out.values - src.values
        assert np.std(residual) == pytest.approx(0.1, rel=0.05)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(mains_amplitude=-1.0)

    @pytest.mark.parametrize("name", ["mains_freq"])
    @pytest.mark.parametrize("freq", [0.0, -0.0, -50.0])
    def test_non_positive_frequency_rejected(self, name, freq):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {freq}$"):
            NoiseConfig(**{name: freq})

    @pytest.mark.parametrize("tone", ["mains", "wander"])
    def test_sounding_tone_at_or_above_nyquist_rejected(self, tone):
        """A mains tone at 450 Hz sampled at 500 Hz would give the samples of
        a -50 Hz tone, and the 0.2 Hz wander needs more than 0.4 Hz; a tone of
        amplitude 0 adds nothing and is not checked."""
        rate, freq = (500.0, 450.0) if tone == "mains" else (0.4, signals.WANDER_FREQ)
        src = SampleFrame(rate, np.zeros(8))
        cfg = NoiseConfig(mains_freq=450.0)
        add_noise(src, cfg)
        message = f"^{tone}_freq {freq} Hz is at or above Nyquist \\({rate / 2} Hz\\)$"
        with pytest.raises(ValueError, match=message):
            add_noise(src, dataclasses.replace(cfg, **{f"{tone}_amplitude": 0.1}))

    @pytest.mark.parametrize("name", [
        "mains_amplitude", "mains_freq", "wander_amplitude", "emg_sigma",
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_noise_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseConfig(**{name: bad})
