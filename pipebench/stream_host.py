"""One stream round in a fresh process: the process under test.

Started by the runner with one JSON argument.  It hosts
``StreamEngine(JsonlSource(capture), geodb, store_dir=...)``, runs it
to the end of the capture, then (when asked) answers the query set
``query_sets`` times, each time through a fresh
``RollupStore.open_read_only(...)`` as ``repro query`` does.  It prints
one JSON line: timings, I/O counts, peak RSS, the answers, and -- in a
traced round -- the span sums.

``t0`` in the argument is the runner's ``time.monotonic()`` just before
it started this process; set-up time runs from there until the engine
pulls its first record.  With ``setup_only`` the source ends after that
first record and the process reports only its set-up time: a set-up
probe, which the runner repeats to take the median of more starts.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
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
        tracing.install(log, "stream")

    from repro.store import RollupStore, StoreQuery
    from repro.stream import JsonlSource, StreamEngine

    class FirstRecordSource(JsonlSource):
        """Stamps the moment the engine pulls its first record."""

        first_at = None

        def __iter__(self):
            iterator = super().__iter__()
            for item in iterator:
                self.first_at = time.monotonic()
                yield item
                break
            if not args.get("setup_only"):
                yield from iterator

    with open(args["geodb"], "rb") as fh:
        geodb = pickle.load(fh)
    source = FirstRecordSource(args["capture"])
    engine = StreamEngine(source, geodb, store_dir=args["store_dir"])

    io_before = common.read_io()
    fsyncs_before = fsyncs.calls
    cpu_before = time.process_time()
    start = time.perf_counter()
    report = engine.run()
    if args.get("setup_only"):
        engine.store.close()
        print(json.dumps({"setup_s": source.first_at - args["t0"]}))
        return 0
    ingest_s = time.perf_counter() - start
    cpu_after = time.process_time()
    cpu_s = cpu_after - cpu_before
    fsync_calls = fsyncs.calls - fsyncs_before
    written = common.read_io()["wchar"] - io_before["wchar"]
    stats = engine.store.stats()
    engine.store.close()

    specs = common.query_specs(args["country"])
    set_ms = []
    answers = None
    for _ in range(args["query_sets"]):
        tick = time.perf_counter()
        reader = RollupStore.open_read_only(args["store_dir"])
        values = [reader.query(StoreQuery(**spec)).value for spec in specs]
        set_ms.append(1000.0 * (time.perf_counter() - tick))
        reader.close()
        if answers is None:
            answers = {spec["family"]: common.canonical(v) for spec, v in zip(specs, values)}

    out = {
        "records": source.cursor(),
        "folded": report.samples_processed,
        "sealed_skips": stats["sealed_skips"],
        "setup_s": source.first_at - args["t0"],
        "ingest_s": ingest_s,
        "cpu_s": cpu_s,
        "fsyncs": fsync_calls,
        "write_bytes": written,
        "peak_rss_mb": common.peak_rss_mb(),
        "query_set_ms": set_ms,
        "answers": answers,
        "live_bytes": stats["live_bytes"],
        "segments_live": stats["segments"],
    }
    if log is not None:
        out["spans"] = log.write(args["spans_path"])
        out["summary"] = log.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
