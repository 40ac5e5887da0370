"""Seeded inputs and independently computed reference answers.

``prepare(seed, kinds)`` builds, for one seed, whatever of these is
missing and caches it under ``_work/inputs/``:

* ``geodb.pickle`` -- the study world's :class:`GeoDatabase`;
* ``capture-1s.jsonl`` / ``capture-1ms.jsonl`` -- the two-week study
  logged at 1-s and 1-ms timestamp granularity (same world, same
  connections; only the capture differs);
* ``plan-serve.json`` -- the serve workload's pre-encoded POST bodies,
  their PoPs, and where the live query sets fall;
* ``reference-<kind>.json`` -- the query set's answers computed by
  ``TamperingClassifier(cache_size=0).classify_all`` and
  :class:`AnalysisDataset`, never by the stream or store code, plus
  the per-sample memo-off decisions.

Generation simulates every connection (about 2 ms each), which is why
it is cached and kept out of every timed round.

Run directly to build every input of a seed ahead of time::

    python3 pipebench/inputs.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import sys
import time
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

sys.path.insert(0, common.SRC_DIR)

from repro.cdn.collector import write_samples_jsonl  # noqa: E402
from repro.cdn.sampler import CaptureConfig  # noqa: E402
from repro.core.aggregate import AnalysisDataset  # noqa: E402
from repro.core.classifier import ClassifierConfig, TamperingClassifier  # noqa: E402
from repro.workloads.scenarios import two_week_study  # noqa: E402
from repro.workloads.world import World  # noqa: E402

KINDS = ("1s", "1ms", "serve")
GRANULARITY = {"1s": 1.0, "1ms": 0.001}


def _study(seed: int, n_connections: int, granularity: float):
    world = World(
        seed=seed,
        n_domains=3000,
        capture=CaptureConfig(timestamp_granularity=granularity),
    )
    return two_week_study(n_connections=n_connections, seed=seed, world=world)


def _classify_reference(samples):
    """Memo-off classification: the reference the memo must agree with."""
    classifier = TamperingClassifier(ClassifierConfig(cache_size=0))
    return classifier.classify_all(samples)


def decision(result) -> list:
    """The per-sample fields the memo must not change."""
    return [
        result.signature.value,
        result.stage.value,
        result.possibly_tampered,
        result.protocol,
        result.domain,
    ]


def _signature_hour_counts(dataset, country: str) -> Dict[object, List[Tuple[float, int]]]:
    cells: Dict[Tuple[object, float], int] = {}
    for conn in dataset.connections:
        if conn.country != country or not conn.tampered:
            continue
        bucket = math.floor(conn.ts / common.HOUR) * common.HOUR
        cells[(conn.signature, bucket)] = cells.get((conn.signature, bucket), 0) + 1
    out: Dict[object, List[Tuple[float, int]]] = {}
    for (sig, bucket), n in cells.items():
        out.setdefault(sig, []).append((bucket, n))
    for series in out.values():
        series.sort()
    return out


def query_country(dataset) -> str:
    """The country with the most tampering matches (ties by code)."""
    counts: Dict[str, int] = {}
    for conn in dataset.connections:
        if conn.tampered:
            counts[conn.country] = counts.get(conn.country, 0) + 1
    return min(counts, key=lambda c: (-counts[c], c))


def reference_answers(dataset, country: str) -> Dict[str, object]:
    """The query set answered from an :class:`AnalysisDataset`."""
    return {
        "country_tampering_rate": common.canonical(dataset.country_tampering_rate()),
        "timeseries": common.canonical(dataset.timeseries(bucket_seconds=common.HOUR)),
        "signature_hour_counts": common.canonical(
            _signature_hour_counts(dataset, country)
        ),
        "stage_statistics": common.canonical(dataset.stage_statistics()),
    }


def _write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    os.replace(tmp, path)


def _capture_inputs(directory: str, kind: str, study) -> None:
    results = _classify_reference(study.samples)
    dataset = AnalysisDataset.from_results(results, study.geo)
    country = query_country(dataset)
    _write_json(
        os.path.join(directory, f"reference-{kind}.json"),
        {
            "records": len(study.samples),
            "country": country,
            "answers": reference_answers(dataset, country),
            "decisions": [decision(r) for r in results],
        },
    )
    path = os.path.join(directory, f"capture-{kind}.jsonl")
    write_samples_jsonl(path + ".tmp", study.samples)
    os.replace(path + ".tmp", path)


def _lagging_positions(timestamps: Sequence[float]) -> List[int]:
    """Exactly one lagging record per window over the first 90%.

    A position qualifies when its predecessor (always on-time) falls in
    the same hour bucket, so the bucket is open, and later sealed,
    before the lagging record arrives.
    """
    n = len(timestamps)
    count = n // common.LAG_EVERY
    width = (n * 9 // 10) // count
    positions = []
    for k in range(count):
        for p in range(k * width + 1, (k + 1) * width):
            if math.floor(timestamps[p - 1] / common.HOUR) == math.floor(timestamps[p] / common.HOUR):
                positions.append(p)
                break
        else:
            raise RuntimeError(
                f"no lagging candidate in window {k}; the study is too sparse"
            )
    return positions


def build_plan(records: Sequence[Tuple[float, dict]]) -> Tuple[dict, List[int]]:
    """The serve workload's send order; returns (plan, lagging positions).

    On-time records go out in ts order, cut into ``post_batch`` chunks
    dealt round-robin to ONTIME_POPS PoPs.  After each on-time POST, the
    lagging PoP posts every record it holds that the on-time stream is
    now LAG_SECONDS past.  A query set follows each on-time POST and
    the lagging POST after it.
    """
    timestamps = [ts for ts, _ in records]
    lagging = _lagging_positions(timestamps)
    lag_set = set(lagging)
    batch = common.post_batch(len(records))

    def body(indices):
        return "\n".join(
            json.dumps({"ts": records[i][0], "sample": records[i][1]}, separators=(",", ":"))
            for i in indices
        )

    ontime = [i for i in range(len(records)) if i not in lag_set]
    steps: List[dict] = []

    def post(pop, indices, late):
        steps.append({"pop": pop, "n": len(indices), "late": late, "body": body(indices)})

    pending = list(lagging)
    for chunk_no, start in enumerate(range(0, len(ontime), batch)):
        chunk = ontime[start:start + batch]
        post(f"pop-{chunk_no % common.ONTIME_POPS}", chunk, False)
        newest = timestamps[chunk[-1]]
        due = [i for i in pending if timestamps[i] + common.LAG_SECONDS <= newest]
        pending = pending[len(due):]
        for lag_start in range(0, len(due), batch):
            post("pop-lagging", due[lag_start:lag_start + batch], True)
        steps.append({"query": True})
    if pending:
        raise RuntimeError("lagging records left unsent at the end of the plan")
    return {"steps": steps}, lagging


def _serve_inputs(directory: str, study, n_records: int) -> None:
    if len(study.samples) < n_records:
        raise RuntimeError(
            f"study produced {len(study.samples)} samples, plan needs {n_records}"
        )
    samples = study.samples[:n_records]
    records = [(study.timestamps[s.conn_id], s.to_dict()) for s in samples]
    plan, lagging = build_plan(records)
    lag_set = set(lagging)
    results = _classify_reference(samples)
    everything = AnalysisDataset.from_results(results, study.geo, study.timestamps)
    ontime = AnalysisDataset.from_results(
        [r for i, r in enumerate(results) if i not in lag_set],
        study.geo,
        study.timestamps,
    )
    country = query_country(ontime)
    plan["country"] = country
    plan["records"] = len(samples)
    plan["lagging"] = len(lagging)
    _write_json(os.path.join(directory, "plan-serve.json"), plan)
    _write_json(
        os.path.join(directory, "reference-serve.json"),
        {
            "records": len(samples),
            "lagging": len(lagging),
            "country": country,
            "answers_all": reference_answers(everything, country),
            "answers_ontime": reference_answers(ontime, country),
        },
    )


def _files(kind: str) -> List[str]:
    if kind == "serve":
        return ["plan-serve.json", "reference-serve.json", "geodb.pickle"]
    return [f"capture-{kind}.jsonl", f"reference-{kind}.json", "geodb.pickle"]


def prepare(seed: int, kinds: Sequence[str], n_connections: int = common.N_CONNECTIONS) -> str:
    """Build the missing inputs of ``kinds`` for ``seed``; returns the dir."""
    directory = common.seed_dir(seed, n_connections)
    missing = [
        kind for kind in kinds
        if not all(os.path.exists(os.path.join(directory, f)) for f in _files(kind))
    ]
    if not missing:
        return directory
    os.makedirs(directory, exist_ok=True)
    tick = time.perf_counter()
    studies = {}
    for kind in missing:
        granularity = GRANULARITY.get(kind, 1.0)
        study = studies.get(granularity)
        if study is None:
            study = studies[granularity] = _study(seed, n_connections, granularity)
        if kind == "serve":
            _serve_inputs(directory, study, common.plan_records(n_connections))
        else:
            _capture_inputs(directory, kind, study)
        geo_path = os.path.join(directory, "geodb.pickle")
        if not os.path.exists(geo_path):
            with open(geo_path + ".tmp", "wb") as fh:
                pickle.dump(study.geo, fh)
            os.replace(geo_path + ".tmp", geo_path)
    print(
        f"prepared {', '.join(missing)} inputs for seed {seed} "
        f"({n_connections} connections) in {time.perf_counter() - tick:.1f} s",
        file=sys.stderr,
    )
    return directory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rebuild", action="store_true", help="discard cached inputs first")
    args = parser.parse_args(argv)
    if args.rebuild:
        shutil.rmtree(common.seed_dir(args.seed, common.N_CONNECTIONS), ignore_errors=True)
    print(prepare(args.seed, KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
