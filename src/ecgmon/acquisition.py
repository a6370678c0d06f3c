"""Timer-paced ADC model and the DMA-style ping-pong double buffer.

ADC codes are plain ints (0 .. 2^bits - 1).  The buffer holds two half
buffers: the writer fills one, a block at a time as a DMA channel does,
while the consumer owns the other; a filled half raises a ready event
carrying a monotonically increasing sequence number.  If a new half
completes while the previous ready half is still unconsumed, the stale
half is dropped and overwritten (overrun policy: overwrite-oldest and
flag), which shows up as a gap in consumed sequence numbers.

One producer context and one consumer context may operate concurrently;
all buffer state is guarded by an internal lock.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .signals import _require_finite_positive

__all__ = [
    "AdcConfig",
    "ReadyEvent",
    "ReadyHalf",
    "PingPongBuffer",
    "quantize",
    "dequantize",
]


@dataclass(frozen=True)
class AdcConfig:
    """Successive-approximation ADC parameters."""

    resolution_bits: int = 12
    vref: float = 3.3
    sample_rate: float = 500.0

    def __post_init__(self):
        if not 1 <= self.resolution_bits <= 16:
            raise ValueError(f"resolution_bits must be within 1..16, got {self.resolution_bits}")
        _require_finite_positive(vref=self.vref, sample_rate=self.sample_rate)

    @property
    def max_code(self) -> int:
        return (1 << self.resolution_bits) - 1


def quantize(v, cfg: AdcConfig):
    """Voltage(s) to ADC code(s): round half away from zero, clamp to range."""
    arr = np.asarray(v, dtype=np.float64)
    scaled = arr / cfg.vref * cfg.max_code
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    codes = np.clip(rounded, 0, cfg.max_code).astype(np.int64)
    if np.isscalar(v) or arr.ndim == 0:
        return int(codes)
    return codes


def dequantize(c, cfg: AdcConfig):
    """ADC code(s) back to voltage(s); out-of-range codes are rejected."""
    arr = np.asarray(c)
    if arr.size and (np.any(arr < 0) or np.any(arr > cfg.max_code)):
        raise ValueError(f"code out of range 0..{cfg.max_code}")
    volts = arr.astype(np.float64) / cfg.max_code * cfg.vref
    if np.isscalar(c) or arr.ndim == 0:
        return float(volts)
    return volts


@dataclass(frozen=True)
class ReadyEvent:
    """A half buffer finished filling."""

    half: int
    seq: int


@dataclass(frozen=True)
class ReadyHalf:
    """An owned copy of a filled half, stamped with its sequence number."""

    seq: int
    half: int
    codes: np.ndarray
    overrun: bool


class PingPongBuffer:
    """Two alternating half buffers between a block writer and a consumer.

    push_block() copies a block of codes into the active half, switching
    halves as each fills, and returns one ReadyEvent per completed half,
    like a DMA transfer-complete interrupt; take_ready_half() hands the
    filled half to the consumer as an owned copy.  The overrun flag
    latches once a half is dropped.
    """

    def __init__(self, half_capacity: int):
        if half_capacity < 1:
            raise ValueError(f"half_capacity must be >= 1, got {half_capacity}")
        self.half_capacity = int(half_capacity)
        self._halves = [np.zeros(self.half_capacity, dtype=np.int64) for _ in range(2)]
        self.write_index = 0
        self.active_half = 0
        self.ready_events: deque[ReadyEvent] = deque()
        self.overrun_flag = False
        self._next_seq = 0
        self._lock = threading.Lock()

    def push_block(self, codes) -> list[ReadyEvent]:
        """Write codes in order; return the events of the halves they completed."""
        codes = np.asarray(codes, dtype=np.int64)
        events: list[ReadyEvent] = []
        with self._lock:
            start = 0
            while start < len(codes):
                half = self._halves[self.active_half]
                n = min(self.half_capacity - self.write_index, len(codes) - start)
                half[self.write_index:self.write_index + n] = codes[start:start + n]
                self.write_index += n
                start += n
                if self.write_index < self.half_capacity:
                    break
                event = ReadyEvent(half=self.active_half, seq=self._next_seq)
                self._next_seq += 1
                if self.ready_events:
                    # consumer stalled: drop the stale ready half, keep newest
                    self.ready_events.clear()
                    self.overrun_flag = True
                self.ready_events.append(event)
                events.append(event)
                self.active_half ^= 1
                self.write_index = 0
        return events

    def take_ready_half(self) -> ReadyHalf | None:
        """Pop the pending ready half, or None when nothing is ready."""
        with self._lock:
            if not self.ready_events:
                return None
            event = self.ready_events.popleft()
            codes = self._halves[event.half].copy()
            return ReadyHalf(seq=event.seq, half=event.half, codes=codes, overrun=self.overrun_flag)
