"""ADC quantizer and ping-pong buffer tests."""

import random
import threading

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
            with pytest.raises(ValueError, match="sample_rate"):
                AdcConfig(sample_rate=bad)


class TestPingPongBuffer:
    def test_fill_pattern_capacity_4(self):
        buf = PingPongBuffer(4)
        assert buf.push_block([0, 1, 2]) == []
        (event,) = buf.push_block([3])
        assert event.half == 0 and event.seq == 0
        assert buf.push_block([4, 5, 6]) == []
        (event,) = buf.push_block([7])
        assert event.half == 1 and event.seq == 1

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
        (event,) = buf.push_block([9, 9, 9, 9])
        assert event.half == 1
        assert half.codes.tolist() == [0, 1, 2, 3]
        # the next half overwrites half 0 in the buffer, not the owned copy
        (event,) = buf.push_block([8, 8, 8, 8])
        assert event.half == 0
        assert half.codes.tolist() == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PingPongBuffer(0)

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
            events, taken = [], []
            start = 0
            for stop in bounds:
                for lo, hi in split(start, stop):
                    events += buf.push_block(data[lo:hi])
                if takes.get(stop):
                    half = buf.take_ready_half()
                    if half is not None:
                        taken.append((half.seq, half.half, half.overrun, half.codes.tolist()))
                start = stop
            return events, taken, buf.overrun_flag, buf.write_index

        blocks = drive(lambda lo, hi: [(lo, hi)])
        one_code = drive(lambda lo, hi: [(i, i + 1) for i in range(lo, hi)])
        assert blocks == one_code

    def test_concurrent_producer_consumer(self):
        """One writer thread and one reader thread share the buffer safely."""
        data = list(range(50_000))
        buf = PingPongBuffer(256)
        out = []
        items = threading.Semaphore(0)
        space = threading.Semaphore(0)
        done = threading.Event()

        def producer():
            for start in range(0, len(data), 256):
                if buf.push_block(data[start:start + 256]):
                    items.release()
                    space.acquire()
            done.set()
            items.release()

        def consumer():
            while True:
                items.acquire()
                half = buf.take_ready_half()
                if half is None:
                    if done.is_set():
                        return
                    continue
                out.extend(half.codes.tolist())
                space.release()

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not buf.overrun_flag
        assert out == data[: (len(data) // 256) * 256]
