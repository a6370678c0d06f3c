"""ADC quantizer and ping-pong buffer tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.acquisition import AdcConfig, PingPongBuffer, dequantize, quantize


class TestQuantize:
    def test_endpoints(self):
        cfg = AdcConfig()
        assert quantize(0.0, cfg) == 0
        assert quantize(3.3, cfg) == 4095

    def test_clamping(self):
        cfg = AdcConfig()
        assert quantize(-0.5, cfg) == 0
        assert quantize(4.0, cfg) == 4095
        assert quantize(np.array([-np.inf, np.inf]), cfg).tolist() == [0, 4095]

    def test_huge_finite_voltages_clamp(self):
        """Scaling 1e308 before the clamp overflowed with a RuntimeWarning."""
        cfg = AdcConfig(vref=0.5)
        assert quantize(np.array([1e308, -1e308]), cfg).tolist() == [4095, 0]

    def test_midpoint_rounds_away_from_zero(self):
        # 1.65/3.3 * 4095 = 2047.5 exactly; half away from zero -> 2048
        assert quantize(1.65, AdcConfig()) == 2048

    def test_vectorized(self):
        cfg = AdcConfig()
        codes = quantize(np.array([0.0, 1.65, 3.3]), cfg)
        assert codes.tolist() == [0, 2048, 4095]

    def test_monotone_nondecreasing(self):
        cfg = AdcConfig()
        sweep = np.linspace(-0.5, 3.8, 100_000)
        codes = quantize(sweep, cfg)
        assert np.all(np.diff(codes) >= 0)

    def test_nan_refused(self):
        """NaN has no code: the cast used to give -2**63 with a RuntimeWarning."""
        for v in (np.array([0.0, np.nan]), float("nan")):
            with pytest.raises(ValueError, match="NaN"):
                quantize(v, AdcConfig())


class TestDequantize:
    def test_endpoints(self):
        cfg = AdcConfig()
        assert dequantize(0, cfg) == 0.0
        assert dequantize(4095, cfg) == pytest.approx(3.3, abs=1e-12)

    def test_out_of_range_rejected(self):
        cfg = AdcConfig()
        with pytest.raises(ValueError):
            dequantize(-1, cfg)
        with pytest.raises(ValueError):
            dequantize(4096, cfg)

    @pytest.mark.parametrize("code, message", [
        (float("nan"), "NaN"), (np.array([1.0, np.nan]), "NaN"),
        (2047.5, "whole number, got 2047.5"), (np.array([0.0, 1e-9]), "whole number"),
        (np.array([[1.0], [-0.5]]), "whole number, got -0.5")])
    def test_nan_and_fractional_codes_refused(self, code, message):
        """A code is a whole number: NaN used to give nan and 2047.5 gave 1.65 V."""
        with pytest.raises(ValueError, match=message):
            dequantize(code, AdcConfig())

    def test_whole_float_codes_accepted(self):
        cfg = AdcConfig()
        assert dequantize(2048.0, cfg) == dequantize(2048, cfg)
        assert dequantize(np.array([0.0, 4095.0]), cfg).tolist() == [0.0, 3.3]
        with pytest.raises(ValueError, match="out of range"):
            dequantize(np.array([0.0, np.inf]), cfg)

    def test_round_trip_identity_all_codes(self):
        """quantize(dequantize(c)) == c exhaustively over the 4096 codes."""
        cfg = AdcConfig()
        codes = np.arange(cfg.max_code + 1)
        back = quantize(dequantize(codes, cfg), cfg)
        assert np.array_equal(back, codes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdcConfig(resolution_bits=0)
        with pytest.raises(ValueError):
            AdcConfig(resolution_bits=17)
        with pytest.raises(ValueError):
            AdcConfig(vref=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="vref"):
                AdcConfig(vref=bad)

    @pytest.mark.parametrize("bits", [12.5, 12.0, True, "12"])
    def test_resolution_bits_must_be_an_integer(self, bits):
        """Refused where it is set, not by the first quantize's shift."""
        with pytest.raises(ValueError, match=f"^resolution_bits must be an integer, got {bits!r}$"):
            AdcConfig(resolution_bits=bits)
        assert AdcConfig(resolution_bits=np.int64(12)).max_code == 4095


class TestPingPongBuffer:
    def test_fill_pattern_capacity_4(self):
        buf = PingPongBuffer(4)
        assert buf.push_block([0, 1, 2]) == 0
        assert buf.push_block([3]) == 1
        half = buf.take_ready_half()
        assert half.half == 0 and half.seq == 0
        assert buf.push_block([4, 5, 6]) == 0
        assert buf.push_block([7]) == 1
        half = buf.take_ready_half()
        assert half.half == 1 and half.seq == 1
        assert buf.push_block(range(9)) == 2

    def test_take_returns_codes_in_push_order(self):
        buf = PingPongBuffer(4)
        buf.push_block([10, 11, 12, 13])
        half = buf.take_ready_half()
        assert half is not None
        assert half.codes.tolist() == [10, 11, 12, 13]
        assert half.seq == 0

    def test_fresh_buffer_has_nothing_ready(self):
        assert PingPongBuffer(4).take_ready_half() is None

    def test_stall_sets_overrun_and_keeps_newest(self):
        buf = PingPongBuffer(4)
        buf.push_block(range(8))  # two fills, nothing consumed
        assert buf.overrun_flag
        half = buf.take_ready_half()
        assert half.seq == 1  # newest; seq 0 was dropped
        assert half.codes.tolist() == [4, 5, 6, 7]
        assert buf.take_ready_half() is None

    def test_prompt_consumption_reassembles_stream(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 4096, 100_000)
        buf = PingPongBuffer(512)
        out = []
        for start in range(0, len(data), 512):
            if buf.push_block(data[start:start + 512]):
                out.append(buf.take_ready_half().codes)
        joined = np.concatenate(out)
        assert not buf.overrun_flag
        assert np.array_equal(joined, data[: len(joined)])
        assert len(joined) == (len(data) // 512) * 512

    def test_sequence_gap_iff_overrun(self):
        buf = PingPongBuffer(4)
        seqs = []
        buf.push_block(range(8))
        seqs.append(buf.take_ready_half().seq)
        buf.push_block(range(4))
        seqs.append(buf.take_ready_half().seq)
        assert seqs == [1, 2]  # 0 was dropped: exactly one gap
        assert buf.overrun_flag

    def test_writer_never_mutates_checked_out_half(self):
        buf = PingPongBuffer(4)
        buf.push_block(range(4))
        half = buf.take_ready_half()
        # push another full half; the writer switches into half 1, not half 0
        assert buf.push_block([9, 9, 9, 9]) == 1
        assert buf.take_ready_half().half == 1
        assert half.codes.tolist() == [0, 1, 2, 3]
        # the next half overwrites half 0 in the buffer, not the owned copy
        assert buf.push_block([8, 8, 8, 8]) == 1
        assert buf.take_ready_half().half == 0
        assert half.codes.tolist() == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="^half_capacity must be >= 1, got 0$"):
            PingPongBuffer(0)
        # a fractional capacity is refused, not truncated
        for bad in (512.5, 512.0, True, None):
            with pytest.raises(ValueError, match=f"^half_capacity must be an integer, got {bad!r}$"):
                PingPongBuffer(bad)
        assert PingPongBuffer(np.int64(4)).half_capacity == 4

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(min_value=2, max_value=1024),
        length=st.integers(min_value=0, max_value=6000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_no_loss_property(self, capacity, length, seed):
        """Prompt consumption reproduces the input stream bit-exactly."""
        rng = random.Random(seed)
        data = [rng.randrange(4096) for _ in range(length)]
        buf = PingPongBuffer(capacity)
        out = []
        for start in range(0, length, capacity):
            if buf.push_block(data[start:start + capacity]):
                out.extend(buf.take_ready_half().codes.tolist())
        assert not buf.overrun_flag
        assert out == data[: (length // capacity) * capacity]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        data=st.lists(st.integers(min_value=0, max_value=4095), max_size=120),
        stops=st.lists(st.tuples(st.integers(min_value=0, max_value=120), st.booleans()),
                       max_size=30),
    )
    def test_block_splits_match_one_code_blocks(self, capacity, data, stops):
        """Any split into blocks, with the consumer taking or stalling at each
        block boundary, behaves exactly as pushing one code at a time."""
        takes = {min(pos, len(data)): take for pos, take in stops}
        bounds = sorted(set(takes) | {len(data)})

        def drive(split):
            buf = PingPongBuffer(capacity)
            completed, taken = 0, []
            start = 0
            for stop in bounds:
                for lo, hi in split(start, stop):
                    completed += buf.push_block(data[lo:hi])
                if takes.get(stop):
                    half = buf.take_ready_half()
                    if half is not None:
                        taken.append((half.seq, half.half, half.codes.tolist()))
                start = stop
            return completed, taken, buf.overrun_flag, buf.write_index

        blocks = drive(lambda lo, hi: [(lo, hi)])
        one_code = drive(lambda lo, hi: [(i, i + 1) for i in range(lo, hi)])
        assert blocks == one_code

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(min_value=1, max_value=600),
        length=st.integers(min_value=0, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        prefix=st.integers(min_value=0, max_value=1300),
    )
    def test_acquire_matches_push_take_loop(self, capacity, length, seed, prefix):
        """acquire() yields exactly the halves of the explicit block loop and
        leaves the buffer in the same state, trailing partial half included.
        An untaken prefix starts it mid-half or with a stale ready half."""
        rng = np.random.default_rng(seed)
        head, data = rng.integers(0, 4096, prefix), rng.integers(0, 4096, length)

        def fields(half):
            return half.seq, half.half, half.codes.tolist()

        buf, ref = PingPongBuffer(capacity), PingPongBuffer(capacity)
        buf.push_block(head)
        ref.push_block(head)
        got = [fields(half) for half in buf.acquire(data)]
        want = []
        for start in range(0, length, capacity):
            if ref.push_block(data[start:start + capacity]):
                want.append(fields(ref.take_ready_half()))
        assert got == want
        assert (buf.write_index, buf.overrun_flag) == (ref.write_index, ref.overrun_flag)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=0, max_value=60),
    )
    def test_interleaved_take_stall_schedule(self, capacity, seed, steps):
        """A writer and a consumer interleaved in one thread: blocks of
        random size, each followed by a take or a stall.  Every taken half
        is its own slice of the stream, in order, and the overrun flag is
        set exactly when some half was dropped."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 4096, steps * 3 * capacity)
        buf = PingPongBuffer(capacity)
        taken = []
        start = 0
        for _ in range(steps):
            size = int(rng.integers(0, 3 * capacity + 1))
            buf.push_block(data[start:start + size])
            start += size
            if rng.random() < 0.5:
                taken.append(buf.take_ready_half())
        taken.append(buf.take_ready_half())  # drain: the newest half is never dropped
        taken = [half for half in taken if half is not None]
        seqs = [half.seq for half in taken]
        for half in taken:
            assert half.codes.tolist() == data[half.seq * capacity:(half.seq + 1) * capacity].tolist()
        assert seqs == sorted(set(seqs))
        assert buf.overrun_flag == (seqs != list(range(len(seqs))))
