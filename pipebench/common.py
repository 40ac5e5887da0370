"""Shared constants and helpers for the pipeline benchmark.

Everything here is imported by the runner and by the two host
processes (``stream_host.py``, ``serve_host.py``); it must not import
``repro`` at module level, so that the runner can refuse to start with
a clear message when the program's sources are missing.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Sequence

#: The benchmark's own directory and the checkout it runs in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")

#: Generated inputs, store directories and span files.  Everything the
#: benchmark writes lives under here (and is ignored by git).
WORK_DIR = os.path.join(BENCH_DIR, "_work")

# -- input make-up -----------------------------------------------------
#: Connections simulated per study.  The 1-ms study at this size keeps
#: the memo hit rate near 40%, below the classifier's 4,096 entries.
N_CONNECTIONS = 4000
#: Tiny size used by ``--smoke`` and ``--selfcheck``.
SMOKE_CONNECTIONS = 300
#: Records the serve plan posts per round (a fixed count, so the share
#: of failed operations is the same for every seed).
SERVE_PLAN_RECORDS = 3600
SMOKE_PLAN_RECORDS = 240
#: On-time PoPs; records are cut into ts-ordered chunks dealt
#: round-robin.  Four, as the four closed-loop clients of the
#: repository's serve benchmark (``benchmarks/bench_serve_latency.py``).
ONTIME_POPS = 4
#: One record in LAG_EVERY comes from the lagging PoP (5%).
LAG_EVERY = 20
#: The lagging PoP holds each record until the on-time stream is this
#: far past it: more than one hour bucket, so every lagging record
#: targets a bucket the store has already sealed.
LAG_SECONDS = 2 * 3600.0
#: A live query set follows every on-time POST (and the lagging PoP's
#: POST, when one is due); counting on-time POSTs only keeps the number
#: of sets per round the same for every seed.  The cadence is assumed,
#: not taken from a measurement: nothing in the repository or the paper
#: gives a read rate beside live ingest.
#: Query sets a stream round answers after ingest.
STREAM_QUERY_SETS = 24

HOUR = 3600.0

#: The query set: one query per family (country filled in per seed).
FAMILIES = (
    "country_tampering_rate",
    "timeseries",
    "signature_hour_counts",
    "stage_statistics",
)


def query_specs(country: str) -> List[Dict[str, str]]:
    """The query set as (family, params) dicts, shared by every path."""
    specs = []
    for family in FAMILIES:
        spec = {"family": family}
        if family == "signature_hour_counts":
            spec["country"] = country
        specs.append(spec)
    return specs


# -- answers -----------------------------------------------------------
def canonical(value):
    """JSON-shaped form of a query answer, whatever produced it.

    Enum keys become their values, tuples become lists and counters
    become plain dicts, which is the shape the HTTP tier returns, so
    in-process answers, HTTP answers and the reference compare alike.
    """
    if isinstance(value, dict):
        return {
            (k.value if hasattr(k, "value") else str(k)): canonical(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, float, str)):
        return value.value
    return value


def differences(got, want, path: str = "", limit: int = 5) -> List[str]:
    """Where two canonical answers differ (empty when they agree).

    Dict key order is ignored; integers and strings must match exactly
    and floats to 1e-9 relative (the reference sums percentages in a
    different order than the store, which can move the last bit).
    """
    out: List[str] = []

    def walk(a, b, where):
        if len(out) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            if set(a) != set(b):
                out.append(
                    f"{where}: keys differ, extra {sorted(set(a) - set(b))[:3]} "
                    f"missing {sorted(set(b) - set(a))[:3]}"
                )
                return
            for key in a:
                walk(a[key], b[key], f"{where}/{key}")
            return
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                out.append(f"{where}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{i}]")
            return
        if isinstance(a, bool) or isinstance(b, bool):
            if a is not b:
                out.append(f"{where}: {a!r} != {b!r}")
            return
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if isinstance(a, int) and isinstance(b, int):
                if a != b:
                    out.append(f"{where}: {a} != {b}")
            elif not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                out.append(f"{where}: {a!r} != {b!r}")
            return
        if a != b:
            out.append(f"{where}: {a!r} != {b!r}")

    walk(got, want, path or "/")
    return out


# -- process accounting ------------------------------------------------
def read_io() -> Dict[str, int]:
    """``/proc/self/io`` as a dict (``wchar`` counts write() bytes)."""
    out = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = int(value)
    return out


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def filesystem_of(path: str) -> str:
    """Filesystem type and mount point holding ``path``."""
    path = os.path.realpath(path)
    best = ("?", "")
    with open("/proc/self/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount, fstype = parts[1], parts[2]
            prefix = mount.rstrip("/") + "/"
            if (path == mount or path.startswith(prefix)) and len(mount) >= len(best[1]):
                best = (fstype, mount)
    return f"{best[0]} at {best[1]}"


class FsyncCounter:
    """Counts ``os.fsync`` calls made by this process (all threads)."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        real = os.fsync

        def counting_fsync(fd):
            with self._lock:
                self.calls += 1
            return real(fd)

        os.fsync = counting_fsync


# -- statistics --------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of raw measurements."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def seed_dir(seed: int, n_connections: int) -> str:
    return os.path.join(WORK_DIR, "inputs", f"seed{seed}-n{n_connections}")


def post_batch(n_records: int) -> int:
    """Records per POST, from every PoP, for a plan of ``n_records``.

    The rule ``bench_serve_latency.py`` uses for its POSTs: 225 records
    at the benchmark size, 32 at the smoke size.
    """
    return min(256, max(32, n_records // 16))


def plan_records(n_connections: int) -> int:
    return SMOKE_PLAN_RECORDS if n_connections == SMOKE_CONNECTIONS else SERVE_PLAN_RECORDS


def stream_query_sets(n_connections: Optional[int]) -> int:
    return 2 if n_connections == SMOKE_CONNECTIONS else STREAM_QUERY_SETS
