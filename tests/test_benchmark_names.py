"""The names the benchmark's tracer patches still exist and are still called.

perfbench/tracing.py records spans by replacing public names on the
package's modules.  A change that deletes or bypasses one of them breaks
only the benchmark's traced run; this test runs a small slice of the
records_10s and uplink work under the tracer and checks that every span
those workloads expect was recorded.  It reads perfbench/ and changes
nothing there.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import ecgmon

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_spans_cover_the_gated_workloads(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    sink = tmp_path / "records.jsonl"
    cfg = replace(ecgmon.PipelineConfig(), sink=f"file:{sink}")
    tracer = tracing.Tracer()
    tracer.install(ecgmon)
    try:
        result = ecgmon.run_pipeline(cfg, duration=4.0, publish_records=True)
        # 130 bpm is above the default policy's band: report publishes the
        # record, then its alert
        alert, alert_receipts = ecgmon.report(cfg, 130.0, result.record.ecg, publish_records=True)[1:]
        fb = ecgmon.Framebuffer(cfg.fb_width, cfg.fb_height)
        ecgmon.draw_trace(fb, None, ecgmon.map_to_trace(result.filtered, fb.width, fb.height))
        plot = ecgmon.retrieve_and_plot(sink, tmp_path / "records.svg")
        with ecgmon.LoopbackListener() as listener, ecgmon.HttpSink(listener.port) as http:
            receipt = ecgmon.publish(http, ecgmon.encode_record(result.record))
    finally:
        tracer.uninstall()
    assert [r.ok for r in result.receipts] == [True]
    assert alert is not None and [r.ok for r in alert_receipts] == [True, True]
    assert plot.records_plotted == 2 and receipt.ok
    calls = tracer.calls()
    assert calls["telemetry.publish.file"] == len(result.receipts) + len(alert_receipts)
    expected = workloads.Records10s.expected_spans + workloads.Uplink.expected_spans
    assert [name for name in expected if calls[name] == 0] == []
