"""The serve workload's host process: the process under test.

Started by the runner with one JSON argument.  It runs
:class:`ServeService` at its default configuration (port 0, so the
kernel picks a free one) with the study's ``GeoDatabase``, in a thread,
and talks to the runner over its standard streams:

* once the service is ready it prints ``{"port": ..., "setup_s": ...}``;
* when the runner writes a line (or closes stdin) it drains the service
  -- which seals every open bucket -- and prints one JSON line with I/O
  counts, peak RSS and, in a traced round, the span sums.

Set-up time runs from the runner's ``t0`` (``time.monotonic()`` just
before it started this process) until the service accepts records.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time


def main() -> int:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import common

    sys.path.insert(0, common.SRC_DIR)
    fsyncs = common.FsyncCounter()
    log = None
    if args["trace"]:
        import tracing

        log = tracing.SpanLog()
        tracing.install(log, "serve")

    from repro.serve import ServeConfig, ServeService

    with open(args["geodb"], "rb") as fh:
        geodb = pickle.load(fh)
    service = ServeService(args["store_dir"], config=ServeConfig(port=0), geodb=geodb)
    thread = threading.Thread(target=service.run, name="serve-loop")
    thread.start()
    if not service.ready.wait(60):
        print(json.dumps({"error": "service never became ready"}), flush=True)
        service.request_shutdown_threadsafe()
        thread.join(60)
        return 1
    setup_s = time.monotonic() - args["t0"]
    io_before = common.read_io()
    fsyncs_before = fsyncs.calls
    cpu_before = time.process_time()
    print(json.dumps({"port": service.port, "setup_s": setup_s}), flush=True)

    sys.stdin.readline()
    service.request_shutdown_threadsafe()
    thread.join(120)
    if thread.is_alive():
        print(json.dumps({"error": "service failed to drain"}), flush=True)
        return 1
    cpu_after = time.process_time()
    out = {
        "cpu_s": cpu_after - cpu_before,
        "fsyncs": fsyncs.calls - fsyncs_before,
        "write_bytes": common.read_io()["wchar"] - io_before["wchar"],
        "peak_rss_mb": common.peak_rss_mb(),
        "folded": service.report.samples_processed,
        "ingest_errors": service.ingest_errors,
    }
    stats = service.report.metrics.get("store", {})
    out["live_bytes"] = stats.get("live_bytes", 0)
    out["segments_live"] = stats.get("segments", 0)
    out["sealed_skips"] = stats.get("sealed_skips", 0)
    if log is not None:
        lo = log.bounds("batcher.offer", first=True)
        hi = log.bounds("engine.push_items", first=False)
        if lo is not None and hi is not None and hi > lo:
            out["window_s"] = hi - lo
            out["busy_s"] = log.clipped("engine.push_items", lo, hi)
            out["wait_s"] = log.clipped("batcher.next_batch", lo, hi)
        out["spans"] = log.write(args["spans_path"])
        out["summary"] = log.summary()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
