"""ADC quantizer and ping-pong buffer tests."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.acquisition import ADC_MAX_CODE, PingPongBuffer, dequantize, quantize


class TestQuantize:
    def test_endpoints(self):
        assert quantize(0.0) == 0
        assert quantize(3.3) == ADC_MAX_CODE == 4095

    def test_clamping(self):
        assert quantize(-0.5) == 0
        assert quantize(4.0) == 4095
        assert quantize(np.array([-np.inf, np.inf])).tolist() == [0, 4095]

    def test_huge_finite_voltages_clamp(self):
        """Scaling 1e308 before the clamp overflowed with a RuntimeWarning."""
        assert quantize(np.array([1e308, -1e308])).tolist() == [4095, 0]

    def test_midpoint_rounds_away_from_zero(self):
        # 1.65/3.3 * 4095 = 2047.5 exactly; half away from zero -> 2048
        assert quantize(1.65) == 2048

    def test_vectorized(self):
        codes = quantize(np.array([0.0, 1.65, 3.3]))
        assert codes.tolist() == [0, 2048, 4095]

    def test_monotone_nondecreasing(self):
        sweep = np.linspace(-0.5, 3.8, 100_000)
        codes = quantize(sweep).astype(np.int64)  # a uint16 step down would wrap
        assert np.all(np.diff(codes) >= 0)

    def test_codes_are_ushort(self):
        """Codes are 16-bit, like the DMA buffer's words; one voltage gives an int."""
        codes = quantize(np.array([-1.0, 0.0, 1.0, 3.3, np.inf]))
        assert codes.dtype == np.ushort and codes.dtype.isnative
        assert codes.tolist() == [0, 0, round(4095 / 3.3), 4095, 4095]
        assert quantize(np.zeros((2, 2))).dtype == np.ushort
        for scalar in (3.3, np.float64(3.3), np.array(3.3)):
            code = quantize(scalar)
            assert type(code) is int and code == 4095

    def test_nan_refused(self):
        """NaN has no code: the cast used to give -2**63 with a RuntimeWarning."""
        for v in (np.array([0.0, np.nan]), float("nan")):
            with pytest.raises(ValueError, match="NaN"):
                quantize(v)


class TestDequantize:
    def test_endpoints(self):
        assert dequantize(0) == 0.0
        assert dequantize(4095) == pytest.approx(3.3, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dequantize(-1)
        with pytest.raises(ValueError, match=r"^code out of range 0\.\.4095$"):
            dequantize(4096)

    @pytest.mark.parametrize("code, dtype", [
        (float("nan"), "float64"), (np.array([1.0, np.nan]), "float64"),
        (2047.5, "float64"), (np.array([0.0, 1e-9]), "float64"), (np.array([[1.0], [-0.5]]), "float64"),
        (2048.0, "float64"), (np.array([0.0, 4095.0], dtype=np.float32), "float32"),
        (np.array([0.0, np.inf]), "float64"), (5000.0, "float64"),
        (True, "bool"), (np.array([False, True]), "bool")])
    def test_non_integer_codes_refused(self, code, dtype):
        """A code is an integer: NaN used to give nan and 2047.5 gave 1.65 V.
        The dtype is refused before the range is checked."""
        with pytest.raises(ValueError, match=rf"^codes must be integers, got dtype {dtype}$"):
            dequantize(code)

    def test_ushort_codes_give_the_same_volts(self):
        codes = np.arange(ADC_MAX_CODE + 1)
        volts = dequantize(codes.astype(np.ushort))
        assert volts.dtype == np.float64
        assert volts.tobytes() == dequantize(codes).tobytes()
        assert dequantize(np.ushort(7)) == dequantize(7)
        assert type(dequantize(np.array(7))) is float
        assert dequantize(np.array(7)) == dequantize(7)

    def test_round_trip_identity_all_codes(self):
        """quantize(dequantize(c)) == c exhaustively over the 4096 codes."""
        codes = np.arange(ADC_MAX_CODE + 1)
        back = quantize(dequantize(codes))
        assert np.array_equal(back, codes)


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
        assert buf.push_block(list(range(9))) == 2

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
        buf.push_block(list(range(8)))  # two fills, nothing consumed
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
        buf.push_block(list(range(8)))
        seqs.append(buf.take_ready_half().seq)
        buf.push_block(list(range(4)))
        seqs.append(buf.take_ready_half().seq)
        assert seqs == [1, 2]  # 0 was dropped: exactly one gap
        assert buf.overrun_flag

    def test_writer_never_mutates_checked_out_half(self):
        buf = PingPongBuffer(4)
        buf.push_block(list(range(4)))
        half = buf.take_ready_half()
        # push another full half; the writer switches into half 1, not half 0
        assert buf.push_block([9, 9, 9, 9]) == 1
        assert buf.take_ready_half().half == 1
        assert half.codes.tolist() == [0, 1, 2, 3]
        # the next half overwrites half 0 in the buffer, not the owned copy
        assert buf.push_block([8, 8, 8, 8]) == 1
        assert buf.take_ready_half().half == 0
        assert half.codes.tolist() == [0, 1, 2, 3]

    def test_halves_are_ushort(self):
        buf = PingPongBuffer(4)
        for block in ([1, 2, 3, 4], (1, 2, 3, 4), np.arange(4, dtype=">u2"), np.arange(4)):
            buf.push_block(block)
            half = buf.take_ready_half()
            assert half.codes.dtype == np.ushort and half.codes.dtype.isnative
        assert half.codes.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("block, message", [
        ([1.5, -3], "block samples must be ADC codes (int), got float"),
        ([5, True], "block samples must be ADC codes (int), got bool"),
        ([np.int64(5)], "block samples must be ADC codes (int), got int64"),
        ([5, -3], "block codes must be in 0..65535, got -3"),
        ([5, 65536], "block codes must be in 0..65535, got 65536"),
        ([2**64], "block codes must be in 0..65535, got 18446744073709551616"),
        ((65530, 65539), "block codes must be in 0..65535, got 65539"),
        (np.array([70000, 2**40]), "block codes must be in 0..65535, got 1099511627776"),
        (np.array([5, -1], dtype=np.int8), "block codes must be in 0..65535, got -1"),
        (np.array([5, 2**32 - 1], dtype=np.uint32), "block codes must be in 0..65535, got 4294967295"),
        (np.array([1.0, 2.0]), "block must be a list, tuple or 1-D integer array of ADC "
                               "codes, got ndarray"),
        (np.array([1, 0], dtype=bool), "block must be a list, tuple or 1-D integer array "
                                       "of ADC codes, got ndarray"),
        (np.zeros((1, 4), dtype=np.ushort), "block must be a list, tuple or 1-D integer "
                                            "array of ADC codes, got ndarray"),
        ({1, 2}, "block must be a list, tuple or 1-D integer array of ADC codes, got set"),
        ("12", "block must be a list, tuple or 1-D integer array of ADC codes, got str"),
        (range(4), "block must be a list, tuple or 1-D integer array of ADC codes, got range"),
    ], ids=["float", "bool", "numpy-scalar", "negative", "above-16-bit", "uint64-max-plus-1",
            "tuple", "int64-array", "int8-array", "uint32-array", "float-array", "bool-array",
            "2-d", "set", "str", "range"])
    def test_refused_block_leaves_the_buffer_as_it_was(self, block, message):
        """A value no 16-bit ADC makes is refused before anything is
        written: the partial half, the ready half and the flag stay."""
        buf = PingPongBuffer(4)
        buf.push_block([1, 2, 3, 4, 5, 6, 7])  # half 0 ready, half 1 holds 5, 6, 7
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            buf.push_block(block)
        assert (buf.write_index, buf.overrun_flag) == (3, False)
        assert buf.push_block([65535]) == 1  # completes half 1, dropping half 0
        assert buf.take_ready_half().codes.tolist() == [5, 6, 7, 65535]

    def test_codes_at_the_16_bit_limits_accepted(self):
        buf = PingPongBuffer(2)
        for block in ([0, 65535], (0, 65535), np.array([0, 65535]),
                      np.array([0, 65535], dtype=np.uint64)):
            assert buf.push_block(block) == 1
            assert buf.take_ready_half().codes.tolist() == [0, 65535]

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
