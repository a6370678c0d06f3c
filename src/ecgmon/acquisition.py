"""Timer-paced ADC model and the DMA-style ping-pong double buffer.

ADC codes are plain ints (0 .. 2^bits - 1).  The buffer holds two half
buffers: the writer fills one, a block at a time as a DMA channel does,
while the consumer owns the other; each filled half becomes ready under
a monotonically increasing sequence number.  If a new half completes
while the previous ready half is still unconsumed, the stale half is
dropped and overwritten (overrun policy: overwrite-oldest and flag),
which shows up as a gap in consumed sequence numbers.

PingPongBuffer.acquire() is the half driver that run_pipeline and
`ecgmon stream` both use: it writes one half-sized block at a time and
hands each completed half to the caller as soon as it fills.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .signals import _require_int, _require_real

__all__ = [
    "AdcConfig",
    "ReadyHalf",
    "PingPongBuffer",
    "quantize",
    "dequantize",
]

_MAX_BITS = 16  # the widest ADC modelled; telemetry's code-text table covers its codes


@dataclass(frozen=True)
class AdcConfig:
    """Successive-approximation ADC parameters."""

    resolution_bits: int = 12
    vref: float = 3.3

    def __post_init__(self):
        _require_int("resolution_bits", self.resolution_bits)
        if not 1 <= self.resolution_bits <= _MAX_BITS:
            raise ValueError(f"resolution_bits must be within 1..{_MAX_BITS}, got {self.resolution_bits}")
        _require_real(0, vref=self.vref)

    @property
    def max_code(self) -> int:
        return (1 << self.resolution_bits) - 1


def quantize(v, cfg: AdcConfig):
    """Voltage(s) to ADC code(s): round half away from zero, clamp to range.

    +-inf clamp like any out-of-range voltage; NaN has no code and is refused.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("cannot quantize NaN")
    # clamping the voltage first keeps a huge one from overflowing the
    # scaling; negative values clamp to 0, so rounding half up equals half
    # away from zero
    codes = np.floor(np.clip(arr, 0.0, cfg.vref) / cfg.vref * cfg.max_code + 0.5).astype(np.int64)
    if np.isscalar(v) or arr.ndim == 0:
        return int(codes)
    return codes


def dequantize(c, cfg: AdcConfig):
    """ADC code(s) back to voltage(s).

    Codes are whole numbers within range; NaN, fractional and out-of-range
    codes are refused.  Integer arrays need no check for the first two.
    """
    arr = np.asarray(c)
    if arr.dtype.kind == "f":
        whole = arr == np.floor(arr)  # False on NaN too
        if not whole.all():
            bad = float(arr[~whole][0])
            raise ValueError("cannot dequantize NaN" if math.isnan(bad)
                             else f"code must be a whole number, got {bad!r}")
    if arr.size and (arr.min() < 0 or arr.max() > cfg.max_code):
        raise ValueError(f"code out of range 0..{cfg.max_code}")
    volts = arr.astype(np.float64) / cfg.max_code * cfg.vref
    if np.isscalar(c) or arr.ndim == 0:
        return float(volts)
    return volts


@dataclass(frozen=True)
class ReadyHalf:
    """An owned copy of a filled half, stamped with its sequence number;
    halves alternate, so the half it filled follows from seq."""

    seq: int
    codes: np.ndarray

    @property
    def half(self) -> int:
        return self.seq % 2


class PingPongBuffer:
    """Two alternating half buffers between a block writer and a consumer.

    push_block() copies a block of codes into the half being written,
    switching halves as each fills, and returns how many halves it
    completed, like a count of DMA transfer-complete interrupts;
    take_ready_half() hands the filled half to the consumer as an owned
    copy; acquire() drives both in turn over a whole code stream.  The
    overrun flag latches once a half is dropped.
    """

    def __init__(self, half_capacity: int):
        _require_int("half_capacity", half_capacity, 1)
        self.half_capacity = int(half_capacity)
        # the half with sequence number seq is written into _halves[seq % 2]
        self._halves = [np.zeros(self.half_capacity, dtype=np.int64) for _ in range(2)]
        self.write_index = 0
        self._ready: int | None = None  # seq of the filled half not yet taken
        self.overrun_flag = False
        self._next_seq = 0

    def push_block(self, codes) -> int:
        """Write codes in order; return the number of halves they completed."""
        codes = np.asarray(codes, dtype=np.int64)
        completed = 0
        start = 0
        while start < len(codes):
            half = self._halves[self._next_seq % 2]
            n = min(self.half_capacity - self.write_index, len(codes) - start)
            half[self.write_index:self.write_index + n] = codes[start:start + n]
            self.write_index += n
            start += n
            if self.write_index < self.half_capacity:
                break
            if self._ready is not None:
                # consumer stalled: drop the stale ready half, keep newest
                self.overrun_flag = True
            self._ready = self._next_seq
            self._next_seq += 1
            completed += 1
            self.write_index = 0
        return completed

    def take_ready_half(self) -> ReadyHalf | None:
        """Pop the pending ready half, or None when nothing is ready."""
        seq, self._ready = self._ready, None
        if seq is None:
            return None
        return ReadyHalf(seq=seq, codes=self._halves[seq % 2].copy())

    def acquire(self, codes) -> Iterator[ReadyHalf]:
        """Write codes one half_capacity block at a time, as the DMA does,
        and yield each completed half as it is taken.  A trailing partial
        half stays in the buffer."""
        for start in range(0, len(codes), self.half_capacity):
            if self.push_block(codes[start:start + self.half_capacity]):
                yield self.take_ready_half()
