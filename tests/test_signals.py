"""Signal source tests: template beats, sinusoids, noise overlay, CSV I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert frame.duration == 0.05
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

    @pytest.mark.parametrize("second_time", ["0.002", "0.001", "nan"])
    def test_csv_time_not_increasing_names_line(self, tmp_path, second_time):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,value\n0.0,1.0\n0.002,1.0\n{second_time},1.0\n")
        with pytest.raises(ValueError, match="line 4"):
            SampleFrame.from_csv(path)


class TestTemplateValidation:
    def test_default_is_valid(self):
        params = EcgTemplateParams.default()
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
        params = EcgTemplateParams.default()
        frame = generate_ecg(params, 120, 500, 2.0)
        assert count_r_peaks(frame.values, 0.5 * params.r.amplitude) == 4

    def test_72bpm_dominant_line_at_1_2_hz(self):
        # oracle: peak-bin search on the FFT of the generated frame
        frame = generate_ecg(EcgTemplateParams.default(), 72, 500, 30.0)
        spectrum = np.abs(np.fft.rfft(frame.values))
        spectrum[0] = 0.0  # DC offset is not a spectral line
        freqs = np.fft.rfftfreq(len(frame), 1.0 / frame.sample_rate)
        assert abs(freqs[int(np.argmax(spectrum))] - 1.2) <= 0.1

    def test_rejects_bad_arguments(self):
        params = EcgTemplateParams.default()
        with pytest.raises(ValueError):
            generate_ecg(params, 0, 500, 1.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 60, 500, 0.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 60, 0.0, 1.0)
        with pytest.raises(ValueError):
            generate_ecg(params, 600, 4.0, 1.0)  # below 4x fundamental

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        bpm=st.floats(min_value=40, max_value=180),
        duration=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_beat_count_property(self, bpm, duration):
        """R-peak count stays within one beat of bpm/60 * duration."""
        params = EcgTemplateParams.default()
        frame = generate_ecg(params, bpm, 500, duration)
        peaks = count_r_peaks(frame.values, 0.5 * params.r.amplitude)
        expected = round(bpm / 60.0 * duration)
        assert abs(peaks - expected) <= 1


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
        with pytest.raises(ValueError, match="alias"):
            generate_sine(250.0, 1.0, 500.0, 1.0)

    @pytest.mark.parametrize("freq, amplitude", [(float("nan"), 1.0), (-math.inf, 1.0),
                                                 (2.0, math.inf), (2.0, float("nan"))])
    def test_nonfinite_freq_or_amplitude_rejected(self, freq, amplitude):
        with pytest.raises(ValueError, match="finite"):
            generate_sine(freq, amplitude, 500.0, 1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(freq=st.integers(min_value=1, max_value=50))
    def test_rms_property_integer_cycles(self, freq):
        """RMS of an integer-cycle sine is amplitude/sqrt(2) within 1%."""
        amplitude = 2.0
        frame = generate_sine(float(freq), amplitude, 500.0, 1.0)
        rms = np.sqrt(np.mean(frame.values**2))
        assert rms == pytest.approx(amplitude / math.sqrt(2), rel=0.01)


class TestAddNoise:
    def test_zero_config_is_identity(self):
        src = generate_ecg(EcgTemplateParams.default(), 72, 500, 2.0)
        out = add_noise(src, NoiseConfig())
        assert np.array_equal(out.differential.values, src.values)
        assert np.all(out.common_mode.values == 0.0)

    def test_same_seed_bit_identical(self):
        src = generate_sine(5.0, 1.0, 500.0, 2.0)
        cfg = NoiseConfig(mains_amplitude=0.3, emg_sigma=0.1, rng_seed=42)
        a = add_noise(src, cfg)
        b = add_noise(src, cfg)
        assert np.array_equal(a.differential.values, b.differential.values)
        assert np.array_equal(a.common_mode.values, b.common_mode.values)

    def test_emg_sigma_statistics(self):
        """Deterministic-term residual has std emg_sigma within 5%."""
        src = SampleFrame(sample_rate=500.0, values=np.zeros(100_000))
        cfg = NoiseConfig(emg_sigma=0.1, rng_seed=3)
        out = add_noise(src, cfg)
        residual = out.differential.values - src.values
        assert np.std(residual) == pytest.approx(0.1, rel=0.05)

    def test_mismatched_lengths_rejected(self):
        from ecgmon.signals import SourceSignal

        a = SampleFrame(500.0, np.zeros(4))
        b = SampleFrame(500.0, np.zeros(5))
        with pytest.raises(ValueError):
            SourceSignal(differential=a, common_mode=b)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(mains_amplitude=-1.0)
