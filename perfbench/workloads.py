"""The four benchmark workloads, driven only through ecgmon's public API.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returned.  Inputs come from the workload seed alone.
Quality figures, digests and correctness checks are taken over a fixed,
seed-determined prefix of the work, so they repeat exactly for one commit
and seed however many operations fit in the timed window.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from scoring import DetectionScore

# interference mix of every synthetic record (mV)
NOISE = {"mains_amplitude": 0.3, "wander_amplitude": 0.2, "emg_sigma": 0.05}
BPM_RANGE = (40.0, 150.0)
RECORD_S = 10.0  # `ecgmon run`'s default record length
BPM_TOLERANCE = 1.0  # a reading within +/-1 bpm of the truth counts as right


@dataclass
class Pass:
    """Timings of one pass over a workload's operations."""

    iterations: int = 0
    timed_s: float = 0.0  # wall time of the timed iterations
    latencies_ms: list = field(default_factory=list)
    rates: list = field(default_factory=list)  # throughput units per second, per operation
    work: float = 0.0  # throughput units completed
    work_s: float = 0.0  # wall time the throughput is taken over

    def add_work(self, seconds: float, work: float) -> None:
        self.rates.append(work / seconds)
        self.work += work
        self.work_s += seconds

    def add_op(self, seconds: float, work: float) -> None:
        """One operation that is both the latency sample and the throughput work."""
        self.timed_s += seconds
        self.latencies_ms.append(seconds * 1e3)
        self.add_work(seconds, work)


class Workload:
    name = ""
    quality_size = 0  # leading iterations whose outputs feed quality and digest
    expected_spans: tuple[str, ...] = ()

    def __init__(self, em, seed: int, out_dir: str):
        self.em = em
        self.seed = seed
        self.out_dir = out_dir
        self.base = em.PipelineConfig(noise=em.NoiseConfig(**NOISE, rng_seed=seed))
        self.r_phase = self.base.template.r.center
        self.score = DetectionScore()
        self.readings = 0  # quality records, failed runs included
        self.bpm_ok = 0
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.collecting = True

    def setup(self) -> None:
        """Everything before the first timed operation, warm-up included."""

    def step(self, i: int, timing: Pass | None) -> None:
        """Run iteration ``i``; record its timings in ``timing`` unless None."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the passes: remaining quality runs and checks."""

    def teardown(self) -> None:
        pass

    # -- shared helpers --------------------------------------------------

    def stream(self, n: int) -> list[tuple[float, int]]:
        """The seeded record stream: (true bpm, noise seed) per 10 s record."""
        rng = np.random.default_rng([self.seed, 10])
        return [(float(rng.uniform(*BPM_RANGE)), int(rng.integers(2**31))) for _ in range(n)]

    def stratified_stream(self, n: int) -> list[tuple[float, int]]:
        """n records, (true bpm, noise seed) each, in seeded order; one bpm
        is drawn uniformly from each n-th of BPM_RANGE, which keeps the
        pooled quality figures from swinging with the draw of the bpm."""
        rng = np.random.default_rng([self.seed, 30])
        lo, hi = BPM_RANGE
        bpms = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
        rng.shuffle(bpms)
        return [(float(bpm), int(noise_seed))
                for bpm, noise_seed in zip(bpms, rng.integers(2**31, size=n))]

    def record_config(self, noise_seed: int, **changes):
        noise = dataclasses.replace(self.base.noise, rng_seed=noise_seed)
        return dataclasses.replace(self.base, noise=noise, **changes)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def count_receipts(self, receipts) -> int:
        for receipt in receipts:
            self.count(receipt.ok)
        return sum(receipt.ok for receipt in receipts)

    def add_quality(self, result, true_bpm: float, span_s: float) -> None:
        self.readings += 1
        if result is None:
            self.score.add_missed(true_bpm, self.r_phase, span_s)
            return
        self.score.add(result, true_bpm, self.r_phase)
        self.bpm_ok += abs(result.reading.bpm - true_bpm) <= BPM_TOLERANCE
        self.digest.update(result.digital.values.tobytes())
        self.digest.update(np.array([e.sample_index for e in result.edges], dtype=np.int64).tobytes())

    def hash_file(self, path, size: int | None = None) -> None:
        with open(path, "rb") as fh:
            self.digest.update(fh.read() if size is None else fh.read(size))

    def attempt(self, fn, *args, **kwargs):
        """Call a pipeline operation, counting a PipelineError as a failed one."""
        try:
            result = fn(*args, **kwargs)
        except self.em.PipelineError:
            self.count(False)
            return None
        self.count(True)
        return result

    def quality(self) -> dict[str, float]:
        return {
            "detect_se": self.score.se,
            "detect_ppv": self.score.ppv,
            "bpm_ok_frac": self.bpm_ok / self.readings,
            "bpm_mae": self.score.bpm_mae,
        }


def drive(workload: Workload, timing: Pass, budget_s: float | None = None,
          iterations: int | None = None, start: int = 0, complete: bool = True) -> int:
    """Run timed iterations from ``start`` until ``timing`` holds ``budget_s``
    seconds or this call ran exactly ``iterations``; return the next index.

    With ``complete`` the loop then goes on untimed while the quality
    prefix is incomplete, so quality and digest never depend on how fast
    the code is.
    """
    done = 0
    i = start
    while True:
        timed = done < iterations if iterations is not None else timing.timed_s < budget_s
        if not timed and not (complete and workload.collecting and i < workload.quality_size):
            break
        workload.step(i, timing if timed else None)
        timing.iterations += timed
        done += timed
        i += 1
    if complete:
        workload.collecting = False
    return i


PIPELINE_SPANS = (
    "pipeline.run", "signals.generate", "signals.noise", "frontend.apply",
    "acquisition.quantize", "acquisition.buffer", "acquisition.dequantize",
    "dsp.notch", "dsp.smooth", "dsp.detect", "dsp.rate",
    "telemetry.record_build", "telemetry.alert",
)


class Record1h(Workload):
    """One run_pipeline call per iteration on a 1 h, 72 bpm record."""

    name = "record_1h"
    quality_size = 1
    expected_spans = PIPELINE_SPANS
    bpm = 72.0
    duration = 3600.0

    def setup(self) -> None:
        self.samples = int(round(self.duration * self.base.sample_rate))
        self.em.run_pipeline(self.base, bpm=self.bpm, duration=RECORD_S)

    def step(self, i, timing):
        t0 = perf_counter()
        result = self.attempt(self.em.run_pipeline, self.base, bpm=self.bpm, duration=self.duration)
        dt = perf_counter() - t0
        if timing is not None:
            timing.add_op(dt, self.samples)
        if self.collecting and i == 0:
            self.add_quality(result, self.bpm, self.duration)
            if result is None or abs(result.reading.bpm - self.bpm) > BPM_TOLERANCE:
                reading = "no reading" if result is None else f"{result.reading.bpm:.3f} bpm"
                self.problems.append(f"record_1h read {reading}, expected {self.bpm:g} +/- 1")


class Records10s(Workload):
    """Back-to-back 10 s records, published to a file sink, each followed by
    a display refresh that erases the previous trace."""

    name = "records_10s"
    quality_size = 1024
    expected_spans = PIPELINE_SPANS + (
        "telemetry.encode", "telemetry.publish.file", "render.map", "render.draw")

    def setup(self) -> None:
        em = self.em
        self.sink_path = os.path.join(self.out_dir, "records.jsonl")
        self.inputs = [
            (bpm, self.record_config(noise_seed, sink=f"file:{self.sink_path}"))
            for bpm, noise_seed in self.stream(self.quality_size)
        ]
        self.samples = int(round(RECORD_S * self.base.sample_rate))
        self.fb = em.Framebuffer(self.base.fb_width, self.base.fb_height)
        self.prev_trace = None
        self.written = 0
        self.digest_bytes = 0
        warm = self.record_config(0, sink=f"file:{os.path.join(self.out_dir, 'warmup.jsonl')}")
        result = em.run_pipeline(warm, bpm=72.0, duration=RECORD_S, publish_records=True)
        em.map_to_trace(result.filtered, self.fb.width, self.fb.height)

    def step(self, i, timing):
        em = self.em
        bpm, cfg = self.inputs[i % len(self.inputs)]
        t0 = perf_counter()
        result = self.attempt(em.run_pipeline, cfg, bpm=bpm, duration=RECORD_S,
                                publish_records=True)
        if result is not None:
            trace = em.map_to_trace(result.filtered, self.fb.width, self.fb.height)
            em.draw_trace(self.fb, self.prev_trace, trace)
            self.prev_trace = trace
        dt = perf_counter() - t0
        if result is not None:
            self.written += self.count_receipts(result.receipts)
        if timing is not None:
            timing.add_op(dt, self.samples)
        if self.collecting and i < self.quality_size:
            self.add_quality(result, bpm, RECORD_S)
            if i == self.quality_size - 1:
                self.digest.update(np.packbits(self.fb.pixels).tobytes())
                self.digest_bytes = os.path.getsize(self.sink_path)

    def finish(self) -> None:
        self.hash_file(self.sink_path, self.digest_bytes)
        with open(self.sink_path, "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if lines != self.written:
            self.problems.append(f"file sink holds {lines} lines, {self.written} ok receipts")


class Uplink(Workload):
    """Write side: encode + HTTP publish of full 5000-code records to a
    loopback listener (one device waiting for each reply), every 10th
    record also publishing its alert, the same record payloads appended to
    a file.  Read side: retrieve_and_plot of each written file."""

    name = "uplink"
    chunk = 100  # records per file handed to the read side
    chunks_per_listener = 10  # bounds the payloads the listener holds in memory
    pool_size = 64  # records made in set-up and published in turn
    quality_records = 512  # records of the stream scored for quality, the pool first
    quality_size = 1
    expected_spans = ("telemetry.encode", "telemetry.publish.http", "telemetry.publish.file",
                      "telemetry.retrieve", "telemetry.decode", "telemetry.record_build",
                      "render.svg", "render.map")

    def setup(self) -> None:
        em = self.em
        base = self.base
        # the shortest run whose consumed halves fill a record: 10 halves of
        # 512 samples, 10.24 s at 500 Hz, of which the record keeps max_ecg
        halves = -(-base.max_ecg // base.half_capacity)
        self.record_s = halves * base.half_capacity / base.sample_rate
        self.inputs = self.stratified_stream(self.quality_records)
        self.pool = []
        self.alerts = []
        for bpm, noise_seed in self.inputs[:self.pool_size]:
            result = self.quality_run(bpm, noise_seed, timestamp=len(self.pool))
            if result is not None:
                if len(result.record.ecg) != base.max_ecg:
                    self.problems.append(f"uplink record holds {len(result.record.ecg)} codes, "
                                         f"not {base.max_ecg}")
                self.pool.append(result.record)
                self.alerts.append(result.alert)
        self.listener = None
        self.rotate()
        warm = em.encode_record(self.pool[0])
        self.count_sent(em.publish(self.http, warm), warm)
        path = os.path.join(self.out_dir, "warmup.jsonl")
        self.count(em.publish(em.FileSink(path), warm).ok)
        em.retrieve_and_plot(path, os.path.join(self.out_dir, "warmup.svg"))

    def quality_run(self, bpm: float, noise_seed: int, **changes):
        cfg = self.record_config(noise_seed, **changes)
        result = self.attempt(self.em.run_pipeline, cfg, bpm=bpm, duration=self.record_s)
        self.add_quality(result, bpm, self.record_s)
        return result

    def finish(self) -> None:
        # the rest of the stream the pool heads, for steadier quality figures
        for bpm, noise_seed in self.inputs[self.pool_size:]:
            self.quality_run(bpm, noise_seed)

    def close_listener(self) -> None:
        """Check the listener got exactly the ok payloads, in order, then stop it."""
        received = hashlib.sha256()
        got = self.listener.received
        for body in got:
            received.update(len(body).to_bytes(8, "little") + body)
        if len(got) != self.sent_count or received.digest() != self.sent_hash.digest():
            self.problems.append(f"listener received {len(got)} payloads, {self.sent_count} ok receipts")
        self.listener.close()
        self.listener = None

    def rotate(self) -> None:
        if self.listener is not None:
            self.close_listener()
        self.listener = self.em.LoopbackListener()
        self.http = self.em.HttpSink(self.listener.port)
        self.sent_hash = hashlib.sha256()
        self.sent_count = 0

    def count_sent(self, receipt, payload: bytes) -> None:
        self.count(receipt.ok)
        if receipt.ok:
            self.sent_hash.update(len(payload).to_bytes(8, "little") + payload)
            self.sent_count += 1

    def step(self, i, timing):
        em = self.em
        path = os.path.join(self.out_dir, "chunk.jsonl")
        svg = os.path.join(self.out_dir, "chunk.svg")
        file_sink = em.FileSink(path)
        written = 0
        latencies = []
        t_write = perf_counter()
        for j in range(self.chunk):
            k = i * self.chunk + j
            record = self.pool[k % len(self.pool)]
            t0 = perf_counter()
            payload = em.encode_record(record)
            receipt = em.publish(self.http, payload)
            latencies.append((perf_counter() - t0) * 1e3)
            self.count_sent(receipt, payload)
            file_receipt = em.publish(file_sink, payload)
            self.count(file_receipt.ok)
            written += file_receipt.ok
            alert = self.alerts[k % len(self.alerts)]
            if k % 10 == 9 and alert is not None:
                alert_payload = em.encode_alert(alert)
                self.count_sent(em.publish(self.http, alert_payload), alert_payload)
        t_read = perf_counter()
        plot = em.retrieve_and_plot(path, svg)
        t_end = perf_counter()
        self.count(plot.records_plotted == written and plot.warnings == 0)
        if plot.records_plotted != written or plot.warnings:
            self.problems.append(f"retrieve_and_plot plotted {plot.records_plotted} of "
                                 f"{written} records with {plot.warnings} warnings")
        if self.collecting and i == 0:
            self.hash_file(path)
            self.hash_file(svg)
        os.remove(path)
        if timing is not None:
            timing.timed_s += t_end - t_write
            timing.latencies_ms.extend(latencies)
            timing.add_work(t_end - t_read, plot.records_plotted)
        if (i + 1) % self.chunks_per_listener == 0:
            self.rotate()

    def teardown(self) -> None:
        if self.listener is not None:
            self.close_listener()


class FrontendSweep(Workload):
    """measure_metrics (noise row on) over seeded FrontEndSpec variants."""

    name = "frontend_sweep"
    variants = 128
    quality_size = 64
    expected_spans = ("frontend.measure", "frontend.apply", "signals.generate", "signals.noise")

    def setup(self) -> None:
        em = self.em
        bench = em.bench_spec()
        rng = np.random.default_rng([self.seed, 20])
        # notch_q, low-pass and high-pass corners around the bench values,
        # all keeping f_ch < f_0 < f_cl < Nyquist
        self.specs = [
            dataclasses.replace(bench, notch_q=float(rng.uniform(10.0, 50.0)),
                                f_cl=float(rng.uniform(60.0, 120.0)),
                                f_ch=float(rng.uniform(0.05, 0.5)))
            for _ in range(self.variants)
        ]
        self.noise = self.base.noise
        rep = em.measure_metrics(bench, self.base.sample_rate, noise=self.noise)
        if not (abs(rep.differential_gain - 1650.0) <= 0.02 * 1650.0
                and abs(rep.cmrr_db - 93.16) <= 0.1
                and rep.mains_attenuation_db <= -12.6):
            self.problems.append(
                f"bench_spec metrics off: gain {rep.differential_gain:.1f}, cmrr {rep.cmrr_db:.3f} dB, "
                f"50 Hz {rep.mains_attenuation_db:.2f} dB")

    def step(self, i, timing):
        em = self.em
        spec = self.specs[i % len(self.specs)]
        t0 = perf_counter()
        try:
            rep = em.measure_metrics(spec, self.base.sample_rate, noise=self.noise)
        except ValueError:
            rep = None
        dt = perf_counter() - t0
        self.count(rep is not None)
        if timing is not None:
            timing.add_op(dt, 1)
        if self.collecting and i < self.quality_size and rep is not None:
            self.digest.update(repr(sorted(rep.as_dict().items())).encode())

    def finish(self) -> None:
        # each swept front end conditions one record of the shared stream
        em = self.em
        for spec, (bpm, noise_seed) in zip(self.specs, self.stream(self.variants)):
            cfg = self.record_config(noise_seed, frontend=spec)
            self.add_quality(self.attempt(em.run_pipeline, cfg, bpm=bpm, duration=RECORD_S),
                             bpm, RECORD_S)


WORKLOADS = {w.name: w for w in (Record1h, Records10s, Uplink, FrontendSweep)}
