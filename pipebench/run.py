"""Pipeline benchmark: offline stream at 1-s and 1-ms capture granularity,
and mixed HTTP traffic against the serve tier.

Usage (from the root of a checkout)::

    python3 pipebench/run.py --workload stream-1s --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --smoke        # every workload once, tiny inputs
    python3 pipebench/run.py --selfcheck    # altered answers must fail the checks

A run builds (or reuses) the seed's inputs, then repeats whole rounds
until ``--seconds`` have passed.  Each round starts a fresh process
under test, so set-up time, peak RSS and I/O counts belong to the
program alone.  Every round's answers are checked against references
computed without the stream or store code.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``; per-layer metrics
from alternate traced rounds with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402

#: End-to-end metrics in output order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_cpu_rps", "records/cpu-s"),
    ("peak_rss_mb", "MB"),
    ("fsyncs_per_1k_records", "count"),
    ("write_bytes_per_record", "B"),
    ("query_set_p50_ms", "ms"),
    ("query_set_p90_ms", "ms"),
)

#: workload -> the inputs it runs on.
WORKLOADS = {"stream-1s": "1s", "stream-1ms": "1ms", "serve-mixed": "serve"}

#: A run stops starting rounds after this long, whatever ``--seconds``
#: says, so that it always ends well inside three minutes.
MAX_RUN_SECONDS = 120.0


class RoundFailed(Exception):
    """The program misbehaved in a way no later check can recover from."""


# ----------------------------------------------------------------------
# Checks (also exercised by --selfcheck)
# ----------------------------------------------------------------------
def check_answers(got: Dict[str, object], want: Dict[str, object]) -> List[str]:
    """Problems with a query set's answers (empty when all agree)."""
    problems = []
    for family in common.FAMILIES:
        if family not in got:
            problems.append(f"{family}: no answer")
            continue
        for diff in common.differences(got[family], want[family]):
            problems.append(f"{family}{diff}")
    return problems


def serve_outcome(got: Dict[str, object], reference: dict):
    """Which reference the drained serve store matches.

    Returns ``(failed, problems)``: every record counted gives 0
    failures; every record but the lagging PoP's gives the lagging
    count; anything else is a problem.
    """
    if not check_answers(got, reference["answers_all"]):
        return 0, []
    if not check_answers(got, reference["answers_ontime"]):
        return reference["lagging"], []
    return None, (
        ["matches neither the all-records nor the on-time reference"]
        + check_answers(got, reference["answers_ontime"])[:3]
    )


def check_live(totals: List[int], acked: List[int]) -> List[str]:
    """Live counts never decrease and never exceed the records acked."""
    problems = []
    for i, (total, ack) in enumerate(zip(totals, acked)):
        if total > ack:
            problems.append(f"live query {i}: {total} records counted, {ack} acknowledged")
        if i and total < totals[i - 1]:
            problems.append(f"live query {i}: count fell from {totals[i - 1]} to {total}")
    return problems


def check_memo(decisions: List[list], reference: List[list]) -> List[str]:
    """Memo-on decisions equal the memo-off reference, sample by sample."""
    if len(decisions) != len(reference):
        return [f"{len(decisions)} decisions for {len(reference)} samples"]
    return [
        f"sample {i}: memo {got} != reference {want}"
        for i, (got, want) in enumerate(zip(decisions, reference))
        if got != want
    ][:5]


def memo_decisions(capture: str) -> List[list]:
    """Classify the capture in order with the memo on (the default)."""
    from inputs import decision
    from repro.cdn.collector import iter_samples_jsonl
    from repro.core.classifier import TamperingClassifier

    classifier = TamperingClassifier()
    return [decision(classifier.classify(s)) for s in iter_samples_jsonl(capture)]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def _round_dir(workload: str, index: int) -> str:
    path = os.path.join(common.WORK_DIR, "run", f"{workload}-{os.getpid()}-{index}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _spans_path(workload: str, seed: int, index: int) -> str:
    return os.path.join(common.WORK_DIR, "spans", f"{workload}-seed{seed}-round{index}.jsonl")


def stream_round(ctx: dict, index: int, traced: bool) -> dict:
    """One ingest + query-set round in a fresh stream host process."""
    work = _round_dir(ctx["workload"], index)
    try:
        args = {
            "capture": ctx["capture"],
            "geodb": ctx["geodb"],
            "store_dir": os.path.join(work, "store"),
            "country": ctx["reference"]["country"],
            "query_sets": ctx["query_sets"],
            "trace": traced,
            "spans_path": _spans_path(ctx["workload"], ctx["seed"], index),
        }
        args["t0"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(common.BENCH_DIR, "stream_host.py"), json.dumps(args)],
            stdout=subprocess.PIPE, timeout=150, text=True,
        )
        if proc.returncode != 0:
            raise RoundFailed(f"stream host exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = ctx["reference"]
    problems = check_answers(out["answers"], reference["answers"])
    if out["records"] != reference["records"]:
        problems.append(f"read {out['records']} records, capture holds {reference['records']}")
    if out["folded"] != reference["records"]:
        problems.append(f"folded {out['folded']} of {reference['records']} records")
    if out["sealed_skips"]:
        problems.append(f"{out['sealed_skips']} records dropped as sealed skips")
    out["problems"] = problems
    out["attempted"] = out["records"] + len(common.FAMILIES) * len(out["query_set_ms"])
    out["failed"] = 0
    out["post_ms"] = []
    return out


def _http(conn: http.client.HTTPConnection, method: str, path: str, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


def _wait_folded(conn: http.client.HTTPConnection, acked: int, first_wait: float) -> int:
    """Poll /readyz until every acknowledged record is folded.

    The first poll waits ``first_wait``, the service's batch deadline (a
    POST smaller than a batch is not folded before it), later ones
    25 ms, so the harness adds few requests to the host.  Returns the
    number of polls.
    """
    deadline = time.monotonic() + 60
    time.sleep(first_wait)
    polls = 0
    while True:
        status, payload = _http(conn, "GET", "/readyz")
        polls += 1
        state = json.loads(payload) if status == 200 else {}
        if state.get("folded", -1) >= acked and state.get("queued") == 0:
            return polls
        if time.monotonic() > deadline:
            raise RoundFailed(f"ingest never caught up with {acked} records: {state}")
        time.sleep(0.025)


def serve_round(ctx: dict, index: int, traced: bool) -> dict:
    """Drive one serve host through the plan, closed loop, then drain it."""
    from repro.serve import ServeConfig

    batch_delay = ServeConfig().batch_max_delay_seconds
    work = _round_dir(ctx["workload"], index)
    store_dir = os.path.join(work, "store")
    args = {
        "geodb": ctx["geodb"],
        "store_dir": store_dir,
        "trace": traced,
        "spans_path": _spans_path(ctx["workload"], ctx["seed"], index),
    }
    args["t0"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(common.BENCH_DIR, "serve_host.py"), json.dumps(args)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    ingest = query = None
    try:
        ready = json.loads(proc.stdout.readline())
        if "port" not in ready:
            raise RoundFailed(f"serve host did not start: {ready}")
        ingest = http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=60)
        query = http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=60)
        paths = [
            "/v1/query?" + "&".join(f"{k}={v}" for k, v in spec.items())
            for spec in common.query_specs(ctx["plan"]["country"])
        ]
        problems: List[str] = []
        post_ms: List[float] = []
        set_ms: List[float] = []
        totals: List[int] = []
        acked_at: List[int] = []
        acked = records = polls = 0
        perf = time.perf_counter
        first_post = perf()
        for step, body in zip(ctx["plan"]["steps"], ctx["bodies"]):
            if body is None:
                # The writer catches up first, so every run queries the
                # same sealed state and a set's work depends only on
                # the seed, not on how far the fold lagged behind.
                polls += _wait_folded(query, acked, batch_delay)
                tick = perf()
                replies = [_http(query, "GET", path) for path in paths]
                set_ms.append(1000.0 * (perf() - tick))
                for path, (status, payload) in zip(paths, replies):
                    if status != 200:
                        problems.append(f"GET {path} answered {status}: {payload[:200]!r}")
                if replies[-1][0] == 200:
                    stats = json.loads(replies[-1][1])["value"]
                    totals.append(stats["total_connections"])
                    acked_at.append(acked)
                continue
            tick = perf()
            status, payload = _http(
                ingest, "POST", "/v1/samples", body=body,
                headers={"X-Client-Id": step["pop"], "Content-Type": "application/x-ndjson"},
            )
            post_ms.append(1000.0 * (perf() - tick))
            records += step["n"]
            if status != 202:
                problems.append(f"POST from {step['pop']} answered {status}: {payload[:200]!r}")
                continue
            acked += json.loads(payload)["accepted"]
        polls += _wait_folded(query, acked, batch_delay)
        ingest_s = perf() - first_post
        proc.stdin.write("drain\n")
        proc.stdin.flush()
        out = json.loads(proc.stdout.readline())
        if "error" in out:
            raise RoundFailed(out["error"])
        proc.wait(timeout=60)

        from repro.store import RollupStore, StoreQuery

        reader = RollupStore.open_read_only(store_dir)
        answers = {
            spec["family"]: common.canonical(reader.query(StoreQuery(**spec)).value)
            for spec in common.query_specs(ctx["plan"]["country"])
        }
        reader.close()
    finally:
        for conn in (ingest, query):
            if conn is not None:
                conn.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    failed, outcome = serve_outcome(answers, ctx["reference"])
    problems += outcome + check_live(totals, acked_at)
    if acked != records:
        problems.append(f"{acked} of {records} posted records acknowledged")
    if out["folded"] != records - (failed or 0):
        problems.append(f"drain reports {out['folded']} records, expected {records - (failed or 0)}")
    if out["ingest_errors"]:
        problems.append(f"{out['ingest_errors']} ingest errors")
    out.update(
        setup_s=ready["setup_s"],
        ingest_s=ingest_s,
        records=records,
        query_set_ms=set_ms,
        post_ms=post_ms,
        client_post_s=sum(post_ms) / 1000.0,
        client_query_s=sum(set_ms) / 1000.0,
        readyz_polls=polls,
        problems=problems,
        attempted=records + len(common.FAMILIES) * len(set_ms),
        failed=failed if failed is not None else 0,
    )
    return out


def setup_probe(ctx: dict, index: int) -> float:
    """Start the process under test and stop it once it accepts records.

    Returns its set-up time, measured as in a full round.
    """
    work = _round_dir(ctx["workload"], f"probe{index}")
    args = {
        "geodb": ctx["geodb"],
        "store_dir": os.path.join(work, "store"),
        "trace": False,
        "setup_only": True,
    }
    try:
        if "capture" in ctx:
            args.update(capture=ctx["capture"], country=ctx["reference"]["country"])
            args["t0"] = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(common.BENCH_DIR, "stream_host.py"),
                 json.dumps(args)],
                stdout=subprocess.PIPE, timeout=60, text=True,
            )
            if proc.returncode != 0:
                raise RoundFailed(f"stream host exited with {proc.returncode}")
            return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        args["t0"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH_DIR, "serve_host.py"), json.dumps(args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            proc.stdin.write("drain\n")
            proc.stdin.flush()
            proc.stdout.readline()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if "setup_s" not in ready or proc.returncode != 0:
            raise RoundFailed(f"serve host did not start or drain: {ready}")
        return ready["setup_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def load_context(workload: str, seed: int, n_connections: int) -> dict:
    import inputs

    kind = WORKLOADS[workload]
    directory = inputs.prepare(seed, [kind], n_connections)
    ctx = {
        "workload": workload,
        "seed": seed,
        "geodb": os.path.join(directory, "geodb.pickle"),
        "query_sets": common.stream_query_sets(n_connections),
    }
    if kind == "serve":
        with open(os.path.join(directory, "plan-serve.json")) as fh:
            ctx["plan"] = json.load(fh)
        with open(os.path.join(directory, "reference-serve.json")) as fh:
            ctx["reference"] = json.load(fh)
        # Pre-encoded once, outside every timed round.
        ctx["bodies"] = [
            None if step.get("query") else step["body"].encode("utf-8")
            for step in ctx["plan"]["steps"]
        ]
    else:
        ctx["capture"] = os.path.join(directory, f"capture-{kind}.jsonl")
        with open(os.path.join(directory, f"reference-{kind}.json")) as fh:
            ctx["reference"] = json.load(fh)
    return ctx


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """End-to-end metrics over untraced rounds (medians across rounds)."""
    sets = [ms for r in rounds for ms in r["query_set_ms"]]
    return {
        "setup_s": statistics.median(
            [r["setup_s"] for r in rounds] + [t for r in rounds for t in r["probes"]]
        ),
        "ingest_cpu_rps": statistics.median([r["records"] / r["cpu_s"] for r in rounds]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in rounds]),
        "fsyncs_per_1k_records": statistics.median(
            [1000.0 * r["fsyncs"] / r["records"] for r in rounds]
        ),
        "write_bytes_per_record": statistics.median(
            [r["write_bytes"] / r["records"] for r in rounds]
        ),
        "query_set_p50_ms": common.percentile(sets, 50),
        "query_set_p90_ms": common.percentile(sets, 90),
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from traced rounds; overhead against plain ones."""
    summary: Dict[str, dict] = {}
    extra = {
        "records": 0, "rounds": len(traced), "query_sets": 0, "live_bytes": 0,
        "segments_live": 0, "window_s": 0.0, "busy_s": 0.0, "wait_s": 0.0,
        "client_post_s": 0.0, "client_query_s": 0.0,
    }
    for r in traced:
        tracing.merge_summaries(summary, r["summary"])
        extra["records"] += r["records"]
        extra["query_sets"] += len(r["query_set_ms"])
        for key in ("live_bytes", "segments_live", "window_s", "busy_s", "wait_s",
                    "client_post_s", "client_query_s"):
            extra[key] += r.get(key, 0)
    extra["readyz_polls"] = sum(r.get("readyz_polls", 0) for r in plain)
    extra["plain_rounds"] = len(plain)
    posts = [ms for r in plain for ms in r["post_ms"]]
    if posts:
        extra["post_p50_ms"] = common.percentile(posts, 50)
        extra["post_p90_ms"] = common.percentile(posts, 90)
    traced_us = statistics.median([r["cpu_s"] / r["records"] for r in traced])
    plain_us = statistics.median([r["cpu_s"] / r["records"] for r in plain])
    extra["overhead_pct"] = 100.0 * (traced_us / plain_us - 1.0)
    return tracing.layer_metrics(summary, extra)


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_connections: int = common.N_CONNECTIONS, max_rounds: Optional[int] = None) -> dict:
    ctx = load_context(workload, seed, n_connections)
    problems: List[str] = []
    if "capture" in ctx:
        problems += check_memo(memo_decisions(ctx["capture"]), ctx["reference"]["decisions"])
    round_fn = serve_round if workload == "serve-mixed" else stream_round
    if trace:
        for stale in glob.glob(os.path.join(common.WORK_DIR, "spans", f"{workload}-*.jsonl")):
            os.unlink(stale)
    rounds: List[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(round_fn(ctx, len(rounds), traced))
        problems += [f"round {len(rounds) - 1}: {p}" for p in rounds[-1]["problems"]]
        rounds[-1]["traced"] = traced
        # One set-up probe per plain round: set-up time is the median
        # of every round's start and these.
        rounds[-1]["probes"] = [] if trace else [setup_probe(ctx, len(rounds) - 1)]
        elapsed = time.monotonic() - start
        whole = not trace or len(rounds) % 2 == 0
        if whole and (
            elapsed >= seconds
            or elapsed >= MAX_RUN_SECONDS
            or (max_rounds is not None and len(rounds) >= max_rounds)
        ):
            break
    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    units = dict(END_TO_END)
    if trace:
        units = dict(tracing.LAYER_METRICS)
        values = per_layer(plain, traced_rounds)
    else:
        values = end_to_end(plain)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "problems": problems,
        "rounds": len(rounds),
        "plain": plain,
    }


def describe(workload: str, result: dict, trace: bool) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(f"workload {workload}: {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    print(f"store filesystem: {common.filesystem_of(common.WORK_DIR)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    posts = [ms for r in result["plain"] for ms in r["post_ms"]]
    if not trace:
        wall = statistics.median([r["records"] / r["ingest_s"] for r in result["plain"]])
        print(f"  {'ingest_wall_rps (not gated)':36s} {wall:14.4f} records/s")
    if posts and not trace:
        print(f"  {'post_p50_ms (not gated)':36s} {common.percentile(posts, 50):14.4f} ms")
        print(f"  {'post_p90_ms (not gated)':36s} {common.percentile(posts, 90):14.4f} ms")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM: {problem}")


def smoke(seed: int) -> int:
    """Every workload once, untraced and traced, at a tiny size."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed, 0, trace, common.SMOKE_CONNECTIONS, max_rounds=2)
            describe(workload, result, trace)
            ok = ok and result["correct"]
    print("smoke: " + ("all workloads correct" if ok else "FAILED"))
    return 0 if ok else 1


def selfcheck(seed: int) -> int:
    """Altered answers must fail the checks that untouched answers pass."""
    import copy

    caught = []

    def expect(label, problems, should_fail):
        good = bool(problems) == should_fail
        caught.append(good)
        print(f"  {'ok  ' if good else 'MISS'} {label}: "
              f"{'rejected' if problems else 'accepted'}")

    ctx = load_context("stream-1s", seed, common.SMOKE_CONNECTIONS)
    out = stream_round(ctx, 0, False)
    answers, want = out["answers"], ctx["reference"]["answers"]
    expect("stream answers as produced", check_answers(answers, want), False)
    altered = copy.deepcopy(answers)
    country = next(iter(altered["country_tampering_rate"]))
    altered["country_tampering_rate"][country] += 0.5
    expect(f"one country rate changed ({country})", check_answers(altered, want), True)
    altered = copy.deepcopy(answers)
    altered["stage_statistics"]["total_connections"] += 1
    expect("stage total off by one", check_answers(altered, want), True)
    altered = copy.deepcopy(answers)
    series = next(s for s in altered["timeseries"].values() if len(s) > 1)
    series.pop()
    expect("one timeseries bucket missing", check_answers(altered, want), True)
    altered = copy.deepcopy(answers)
    altered["signature_hour_counts"] = {}
    expect("signature hour counts emptied", check_answers(altered, want), True)

    decisions = memo_decisions(ctx["capture"])
    expect("memo decisions as produced", check_memo(decisions, ctx["reference"]["decisions"]), False)
    decisions[len(decisions) // 2][1] = "altered-stage"
    expect("one memo decision flipped", check_memo(decisions, ctx["reference"]["decisions"]), True)

    expect("live counts rising within acks", check_live([0, 5, 5, 9], [10, 10, 20, 20]), False)
    expect("live count falling", check_live([0, 5, 4], [10, 10, 20]), True)
    expect("live count above acks", check_live([0, 11], [10, 10]), True)

    ctx = load_context("serve-mixed", seed, common.SMOKE_CONNECTIONS)
    out = serve_round(ctx, 0, False)
    expect("serve round as produced", out["problems"], False)
    reference = ctx["reference"]
    ontime = copy.deepcopy(reference["answers_ontime"])
    expect("serve: on-time answers give the lagging count",
           [] if serve_outcome(ontime, reference)[0] == reference["lagging"] else ["wrong"], False)
    country = next(iter(ontime["country_tampering_rate"]))
    ontime["country_tampering_rate"][country] += 0.5
    expect(f"serve: one country rate changed ({country})", serve_outcome(ontime, reference)[1], True)
    ok = all(caught)
    print("selfcheck: " + ("every alteration caught" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops the process under test: the exit
    # unwinds through the rounds, which kill their host processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(common.SRC_DIR, "repro")):
        print(f"pipebench: no program sources at {common.SRC_DIR}/repro; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC_DIR)
    if args.smoke:
        return smoke(args.seed)
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    describe(args.workload, result, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
