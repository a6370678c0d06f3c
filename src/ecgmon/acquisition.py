"""Timer-paced ADC model and the DMA-style ping-pong double buffer.

The converter is the device's fixed 12-bit ADC over the board's rails,
0 to frontend.SUPPLY_MAX (3.3 V).  Its codes are 16-bit, like the DMA
buffer's words: np.ushort arrays, or a plain int for one code
(0 .. ADC_MAX_CODE).  The buffer holds two half buffers: the writer
fills one, a block at a time as a DMA channel does, while the consumer
owns the other; each filled half becomes ready under a monotonically
increasing sequence number.  If a new half completes while the previous
ready half is still unconsumed, the stale half is dropped and
overwritten (overrun policy: overwrite-oldest and flag), which shows up
as a gap in consumed sequence numbers.

PingPongBuffer.acquire() is the half driver that run_pipeline and
`ecgmon stream` both use: it writes one half-sized block at a time and
hands each completed half to the caller as soon as it fills.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .frontend import SUPPLY_MAX
from .signals import _require_int

__all__ = [
    "ReadyHalf",
    "PingPongBuffer",
    "quantize",
    "dequantize",
]

ADC_BITS = 12  # the STM32F429's converter, over 0..SUPPLY_MAX
ADC_MAX_CODE = (1 << ADC_BITS) - 1
_MAX_CODE = 0xFFFF  # a record's 16-bit words, like np.ushort, hold exactly the codes 0.._MAX_CODE


def quantize(v):
    """Voltage(s) to ADC code(s) 0..ADC_MAX_CODE over 0..SUPPLY_MAX: round
    half away from zero, clamp to range.

    Codes come back as an np.ushort array, or an int for a scalar.  +-inf
    clamp like any out-of-range voltage; NaN has no code and is refused.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("cannot quantize NaN")
    # clamping the voltage first keeps a huge one from overflowing the
    # scaling; negative values clamp to 0, so rounding half up equals half
    # away from zero
    codes = np.floor(np.clip(arr, 0.0, SUPPLY_MAX) / SUPPLY_MAX * ADC_MAX_CODE + 0.5).astype(np.ushort)
    if arr.ndim == 0:
        return int(codes)
    return codes


def dequantize(c):
    """ADC code(s) back to voltage(s) over 0..SUPPLY_MAX.

    Codes are integers within range: an int, a numpy integer or an integer
    array.  Any other dtype, float and bool included, is refused, as is an
    out-of-range code.
    """
    arr = np.asarray(c)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"codes must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > ADC_MAX_CODE):
        raise ValueError(f"code out of range 0..{ADC_MAX_CODE}")
    volts = arr.astype(np.float64) / ADC_MAX_CODE * SUPPLY_MAX
    if arr.ndim == 0:
        return float(volts)
    return volts


def _adc_codes(codes, name: str) -> np.ndarray:
    """codes as a 1-D np.ushort array, refusing any value no 16-bit word
    holds: codes is a 1-D integer ndarray or a list or tuple holding only
    ints, each in 0.._MAX_CODE.  A native uint16 array is returned as it
    is, since its type holds exactly those codes; any other is checked,
    then converted.  The check is explicit because numpy's casts are none:
    astype wraps an int64 array, and an out-of-range int raises or only
    warns depending on the numpy version."""
    if isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.dtype.kind in "iu":
        if codes.dtype == np.ushort:
            return codes
        low, high = (codes.min(), codes.max()) if codes.size else (0, 0)
    elif isinstance(codes, (list, tuple)):
        if not {int}.issuperset(map(type, codes)):
            odd = next(v for v in codes if type(v) is not int)
            raise ValueError(f"{name} samples must be ADC codes (int), got {type(odd).__name__}")
        low, high = (min(codes), max(codes)) if codes else (0, 0)
    else:
        raise ValueError(f"{name} must be a list, tuple or 1-D integer array of ADC codes, "
                         f"got {type(codes).__name__}")
    if low < 0 or high > _MAX_CODE:
        raise ValueError(f"{name} codes must be in 0..{_MAX_CODE}, got {low if low < 0 else high}")
    return np.asarray(codes, dtype=np.ushort)


@dataclass(frozen=True)
class ReadyHalf:
    """An owned copy of a filled half (np.ushort codes), stamped with its
    sequence number; halves alternate, so the half it filled follows from
    seq."""

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
    halves are np.ushort, like the device's DMA buffer.  The overrun flag
    latches once a half is dropped.
    """

    def __init__(self, half_capacity: int):
        _require_int("half_capacity", half_capacity, 1)
        self.half_capacity = int(half_capacity)
        # the half with sequence number seq is written into _halves[seq % 2]
        self._halves = [np.zeros(self.half_capacity, dtype=np.ushort) for _ in range(2)]
        self.write_index = 0
        self._ready: int | None = None  # seq of the filled half not yet taken
        self.overrun_flag = False
        self._next_seq = 0

    def push_block(self, codes) -> int:
        """Write codes in order; return the number of halves they completed.

        codes is what a record's ecg takes: a list or tuple of ints or a
        1-D integer array, of 16-bit ADC codes; any other, or a value
        outside 0.._MAX_CODE, raises ValueError before anything is written.
        """
        codes = _adc_codes(codes, "block")
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
