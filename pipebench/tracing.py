"""Span tracing for the traced rounds, installed from outside the program.

:func:`install` replaces public entry points of each layer with
class-level (or import-site) timing wrappers.  Every call records one
span -- name, start, end, parent -- into an in-memory list kept per
thread; nothing inside ``src/`` changes.  At the end of a round the
host process writes the spans out (:meth:`SpanLog.write`) and reduces
them to per-layer sums (:meth:`SpanLog.summary`); the runner adds the
sums of every traced round and turns them into the per-layer metrics
(:func:`layer_metrics`).

A span's self time is its duration minus the durations of its direct
children (spans opened while it was the innermost open span on the
same thread).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["SpanLog", "install", "merge_summaries", "layer_metrics", "LAYER_METRICS"]


class SpanLog:
    """Spans kept in memory: one list and one open-span stack per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[tuple] = []
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append((threading.current_thread().name, state[0]))
        return state

    def timed(
        self,
        name: str,
        fn: Callable,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn``; ``pre(args)`` runs before the clock starts and
        ``post(args, result, pre_value)`` returns ``(name, attrs)``."""
        log = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = log._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            token = pre(args) if pre is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if post is not None:
                spans[index][0], spans[index][4] = post(args, result, token)
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span per item it produces."""
        log = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                spans, stack = log._state()
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = perf()
                    stack.pop()
                    spans[index] = [name, start, end, parent, None]
                yield item

        return wrapper

    # ------------------------------------------------------------------
    def threads(self):
        with self._lock:
            return list(self._threads)

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, inclusive seconds, self seconds, attr sums."""
        out: Dict[str, dict] = {}
        for _, spans in self.threads():
            child = [0.0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if span is None:
                    continue
                name, start, end, _, attrs = span
                entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "attrs": {}})
                entry["count"] += 1
                entry["total"] += end - start
                entry["self"] += end - start - child[index]
                if attrs:
                    sums = entry["attrs"]
                    for key, value in attrs.items():
                        sums[key] = sums.get(key, 0) + value
        return out

    def clipped(self, name: str, lo: float, hi: float) -> float:
        """Seconds spans called ``name`` spent inside [lo, hi]."""
        total = 0.0
        for _, spans in self.threads():
            for span in spans:
                if span is not None and span[0] == name:
                    total += max(0.0, min(span[2], hi) - max(span[1], lo))
        return total

    def bounds(self, name: str, first: bool) -> Optional[float]:
        """Start of the first, or end of the last, span called ``name``."""
        values = [
            (span[1] if first else span[2])
            for _, spans in self.threads()
            for span in spans
            if span is not None and span[0] == name
        ]
        if not values:
            return None
        return min(values) if first else max(values)

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        n = 0
        with open(path, "w") as fh:
            for thread, spans in self.threads():
                for index, span in enumerate(spans):
                    if span is None:
                        continue
                    name, start, end, parent, attrs = span
                    fh.write(json.dumps({
                        "thread": thread, "id": index, "parent": parent,
                        "name": name, "start": start, "end": end,
                        **({"attrs": attrs} if attrs else {}),
                    }) + "\n")
                    n += 1
        return n


def _patch_method(log: SpanLog, owner, attr: str, name: str, pre=None, post=None) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(log.timed(name, raw.__func__, pre, post)))
    else:
        setattr(owner, attr, log.timed(name, raw, pre, post))


def install(log: SpanLog, mode: str) -> None:
    """Wrap the layer entry points; ``mode`` is ``stream`` or ``serve``."""
    import repro.serve.service as service_mod
    import repro.store.compaction as compaction_mod
    import repro.store.manifest as manifest_mod
    import repro.store.segment as segment_mod
    import repro.store.store as store_mod
    import repro.stream.checkpoint as checkpoint_mod
    from repro.cdn.collector import ConnectionSample
    from repro.cdn.geo import GeoDatabase
    from repro.core.classifier import TamperingClassifier
    from repro.serve.batcher import MicroBatcher
    from repro.store.manifest import MANIFEST_NAME, Manifest
    from repro.store.store import RollupStore
    from repro.store.wal import WriteAheadLog
    from repro.stream.checkpoint import CheckpointManager
    from repro.stream.engine import StreamEngine
    from repro.stream.source import JsonlSource

    _patch_method(log, ConnectionSample, "from_dict", "decode.from_dict")
    _patch_method(
        log, TamperingClassifier, "classify", "classify",
        pre=lambda args: args[0].cache_hits,
        post=lambda args, result, hits: (
            "classify.hit" if args[0].cache_hits > hits else "classify.miss", None
        ),
    )
    _patch_method(log, GeoDatabase, "lookup_or_none", "geo.lookup")
    _patch_method(log, RollupStore, "add", "store.add")
    for attr in ("seal_through", "seal_open"):
        _patch_method(
            log, RollupStore, attr, "store.seal",
            post=lambda args, result, _: ("store.seal", {"sealed": int(result > 0)}),
        )
    _patch_method(log, RollupStore, "maybe_compact", "store.compact")
    _patch_method(
        log, RollupStore, "query", "store.query",
        post=lambda args, result, _: ("store.query", {
            "segments": result.segments_scanned, "buckets": result.buckets_scanned,
        }),
    )
    _patch_method(log, WriteAheadLog, "append", "wal.append")
    _patch_method(log, WriteAheadLog, "sync", "wal.sync")
    _patch_method(
        log, Manifest, "save", "manifest.save",
        post=lambda args, result, _: ("manifest.save", {
            "bytes": os.path.getsize(os.path.join(args[1], MANIFEST_NAME)),
        }),
    )
    _patch_method(log, CheckpointManager, "save", "checkpoint.save")

    segment_post = lambda args, result, _: ("segment.write", {"bytes": result.size_bytes})  # noqa: E731
    for module in (store_mod, compaction_mod):
        module.write_segment = log.timed(
            "segment.write", segment_mod.write_segment, post=segment_post
        )
    atomic = segment_mod.atomic_write_json
    atomic_post = lambda args, result, _: ("atomic_write", {"bytes": result})  # noqa: E731
    for module in (segment_mod, manifest_mod, checkpoint_mod):
        module.atomic_write_json = log.timed("atomic_write", atomic, post=atomic_post)

    if mode == "stream":
        JsonlSource.__iter__ = log.timed_iter("decode.source", JsonlSource.__iter__)
        _patch_method(log, StreamEngine, "run", "engine.run")
    elif mode == "serve":
        service_mod._parse_sample_entries = log.timed(
            "decode.parse", service_mod._parse_sample_entries,
            post=lambda args, result, _: ("decode.parse", {"records": len(result)}),
        )
        _patch_method(log, MicroBatcher, "offer", "batcher.offer")
        _patch_method(
            log, MicroBatcher, "next_batch", "batcher.next_batch",
            post=lambda args, result, _: ("batcher.next_batch", {
                "records": len(result) if result else 0,
                "batches": 1 if result else 0,
            }),
        )
        _patch_method(log, StreamEngine, "push_items", "engine.push_items")
    else:
        raise ValueError(f"unknown trace mode {mode!r}")


#: Per-layer metrics in output order: (name, unit).
LAYER_METRICS = (
    ("decode.us_per_record", "us"),
    ("classify.hit_ratio", "ratio"),
    ("classify.hit_us", "us"),
    ("classify.miss_us", "us"),
    ("geo.lookup_us", "us"),
    ("store.add_us_per_record", "us"),
    ("wal.append_us_per_record", "us"),
    ("wal.sync_us_per_record", "us"),
    ("wal.syncs_per_1k_records", "count"),
    ("store.seal_us_per_record", "us"),
    ("store.seals_per_1k_records", "count"),
    ("atomic_write.us_per_record", "us"),
    ("atomic_write.calls_per_1k_records", "count"),
    ("manifest.bytes_per_save", "B"),
    ("compaction.us_per_record", "us"),
    ("compaction.write_amplification", "ratio"),
    ("store.segments_live", "count"),
    ("checkpoint.us_per_record", "us"),
    ("engine.other_us_per_record", "us"),
    ("query.server_ms_per_set", "ms"),
    ("query.segments_scanned_per_set", "count"),
    ("query.buckets_scanned_per_set", "count"),
    ("serve.http_ms_per_query_set", "ms"),
    ("serve.post_overhead_us_per_record", "us"),
    ("serve.post_p50_ms", "ms"),
    ("serve.post_p90_ms", "ms"),
    ("batcher.records_per_batch", "count"),
    ("ingest.busy_share", "ratio"),
    ("ingest.wait_share", "ratio"),
    ("harness.readyz_polls_per_round", "count"),
    ("trace.overhead_pct", "%"),
)


def merge_summaries(into: Dict[str, dict], other: Dict[str, dict]) -> None:
    for name, entry in other.items():
        mine = into.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "attrs": {}})
        mine["count"] += entry["count"]
        mine["total"] += entry["total"]
        mine["self"] += entry["self"]
        for key, value in entry["attrs"].items():
            mine["attrs"][key] = mine["attrs"].get(key, 0) + value


def layer_metrics(summary: Dict[str, dict], extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from merged span sums plus per-round extras.

    ``extra`` carries what spans cannot: ``records`` folded,
    ``query_sets`` answered, ``live_bytes`` and ``segments_live`` after
    each round (summed over rounds), the serve window, busy and wait
    seconds, client-side POST and query-set seconds, POST latencies,
    the /readyz polls of the plain rounds and the trace overhead.
    """
    def get(name, field="total"):
        return summary.get(name, {}).get(field, 0.0)

    def count(name):
        return summary.get(name, {}).get("count", 0)

    def attr(name, key):
        return summary.get(name, {}).get("attrs", {}).get(key, 0)

    def per(value, base, scale=1.0):
        return scale * value / base if base else 0.0

    records = extra["records"]
    rounds = extra["rounds"]
    sets = extra["query_sets"]
    hits, misses = count("classify.hit"), count("classify.miss")
    decode = get("decode.source") + get("decode.parse")
    engine_self = get("engine.run", "self") + get("engine.push_items", "self")
    return {
        "decode.us_per_record": per(decode, records, 1e6),
        "classify.hit_ratio": per(hits, hits + misses),
        "classify.hit_us": per(get("classify.hit"), hits, 1e6),
        "classify.miss_us": per(get("classify.miss"), misses, 1e6),
        "geo.lookup_us": per(get("geo.lookup"), count("geo.lookup"), 1e6),
        "store.add_us_per_record": per(get("store.add", "self"), records, 1e6),
        "wal.append_us_per_record": per(get("wal.append", "self"), records, 1e6),
        "wal.sync_us_per_record": per(get("wal.sync"), records, 1e6),
        "wal.syncs_per_1k_records": per(count("wal.sync"), records, 1e3),
        "store.seal_us_per_record": per(get("store.seal"), records, 1e6),
        "store.seals_per_1k_records": per(attr("store.seal", "sealed"), records, 1e3),
        "atomic_write.us_per_record": per(get("atomic_write"), records, 1e6),
        "atomic_write.calls_per_1k_records": per(count("atomic_write"), records, 1e3),
        "manifest.bytes_per_save": per(attr("manifest.save", "bytes"), count("manifest.save")),
        "compaction.us_per_record": per(get("store.compact"), records, 1e6),
        "compaction.write_amplification": per(
            attr("segment.write", "bytes"), extra["live_bytes"]
        ),
        "store.segments_live": per(extra["segments_live"], rounds),
        "checkpoint.us_per_record": per(get("checkpoint.save"), records, 1e6),
        "engine.other_us_per_record": per(engine_self, records, 1e6),
        "query.server_ms_per_set": per(get("store.query"), sets, 1e3),
        "query.segments_scanned_per_set": per(attr("store.query", "segments"), sets),
        "query.buckets_scanned_per_set": per(attr("store.query", "buckets"), sets),
        "serve.http_ms_per_query_set": (
            per(extra["client_query_s"] - get("store.query"), sets, 1e3)
            if extra.get("client_query_s") else 0.0
        ),
        "serve.post_overhead_us_per_record": (
            per(
                extra["client_post_s"] - get("decode.parse") - get("batcher.offer"),
                records, 1e6,
            )
            if extra.get("client_post_s") else 0.0
        ),
        "serve.post_p50_ms": extra.get("post_p50_ms", 0.0),
        "serve.post_p90_ms": extra.get("post_p90_ms", 0.0),
        "batcher.records_per_batch": per(
            attr("batcher.next_batch", "records"), attr("batcher.next_batch", "batches")
        ),
        "ingest.busy_share": per(extra.get("busy_s", 0.0), extra.get("window_s", 0.0)),
        "ingest.wait_share": per(extra.get("wait_s", 0.0), extra.get("window_s", 0.0)),
        "harness.readyz_polls_per_round": per(extra["readyz_polls"], extra["plain_rounds"]),
        "trace.overhead_pct": extra["overhead_pct"],
    }
