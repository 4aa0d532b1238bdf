"""Continuous tail mode (concurrent producer/consumer) and task-retry
duplication safety for the staged exchange."""

import json
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table, tail
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.stages.merge import (
    internal_schema,
    make_partition_merger,
    make_stage_partitioner,
)
from rfb_cnpj_etl_ray.spec import schema_to_jsonable
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def test_tail_consumes_live_producer(ray_session, tmp_path):
    """A producer thread appends segments + swaps the manifest while
    tail() polls; the final state equals the oracle over everything
    produced."""
    base = make_base(150, seed=70, max_len=16)
    events = make_changelog(1200, 150, seed=71, max_len=16)
    lake = tmp_path / "lake"
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    init_lake(lake, SPEC, base=base, num_partitions=4)
    cfg = EngineConfig(num_partitions=4)

    chunks = [events.slice(i * 300, 300) for i in range(4)]
    manifest = {"segments": []}

    def produce():
        for k, chunk in enumerate(chunks):
            name = f"seg-{k:05d}.parquet"
            pq.write_table(chunk, log_dir / name)
            lsns = chunk.column("lsn").to_numpy()
            manifest["segments"].append(
                {"name": name, "rows": chunk.num_rows,
                 "min_lsn": int(lsns.min()), "max_lsn": int(lsns.max()),
                 "bytes": (log_dir / name).stat().st_size}
            )
            tmp = log_dir / "manifest.json.tmp"
            tmp.write_text(json.dumps(manifest))
            tmp.rename(log_dir / "manifest.json")
            time.sleep(0.8)

    producer = threading.Thread(target=produce)
    producer.start()
    report = tail(lake, log_dir, cfg=cfg, poll_interval=0.4,
                  idle_rounds_to_stop=5, max_rounds=60)
    producer.join()
    # a final catch-up pass in case tail stopped before the last append
    ingest(lake, log_dir, cfg=cfg)
    assert report["events_applied"] + 0 <= 1200
    assert_states_equal(replay(base, events), read_lake_table(lake))
    assert len(report["epochs"]) >= 2  # genuinely incremental


def test_duplicate_task_execution_is_harmless(ray_session, tmp_path):
    """Simulated Ray task retries: phase-1 staging runs TWICE over the
    same batches (duplicate chunk files) and phase-2 merges twice for the
    same partition (snapshot overwrite) — final state must still match
    the oracle (retry-safety by LWW idempotence + atomic rename)."""
    base = make_base(120, seed=80, max_len=16)
    events = make_changelog(900, 120, seed=81, max_len=16)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    table_dir = lake / "sequences"
    log = CommitLog(table_dir)
    last = log.latest()
    staging = table_dir / "_staging" / "epoch-000001"
    stage_fn = make_stage_partitioner(PAYLOAD_SCHEMA, 4, str(staging))
    # phase 1 executed twice per batch (the "retry")
    for _ in range(2):
        for i in range(3):
            stage_fn(pa.table(events.slice(i * 300, 300)))
    merge_fn = make_partition_merger(
        str(table_dir), str(staging), 1,
        {int(k): [v["file"]] for k, v in last["partitions"].items()},
        schema_to_jsonable(PAYLOAD_SCHEMA),
    )
    # phase 2 executed twice per partition (the "retry")
    rows = None
    for _ in range(2):
        rows = merge_fn(pa.table({"part": pa.array([0, 1, 2, 3], pa.int32())}))
    # commit using the (second) manifest rows
    partitions = dict(last["partitions"])
    for r in rows.to_pylist():
        partitions[str(r["part"])] = {
            "file": r["file"], "rows": r["rows"], "live_rows": r["live_rows"],
            "bytes": r["bytes"], "lsn_high": r["lsn_high"],
            "events_applied": r["events_applied"],
            "doc_id_min": r["doc_id_min"], "doc_id_max": r["doc_id_max"],
        }
    log.append({
        "epoch": 1, "table": "sequences", "num_partitions": 4,
        "schema": last["schema"], "partitions": partitions,
        "segments": ["manual"], "parent": 0, "metrics": {},
    })
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_tail_remote_mirrors_then_ingests(ray_session, tmp_path):
    """tail(remote_log_dir=...) fetches the remote change-log (with a
    mid-transfer fault on the wire) each round before replaying — the
    full S3/S4 live story: remote WAL → resumable mirror → atomic epoch."""
    from rfb_cnpj_etl_ray.sources.fetcher import FlakyTransport

    base = make_base(120, seed=90, max_len=16)
    events = make_changelog(900, 120, seed=91, max_len=16)
    remote_log = tmp_path / "remote_log"
    write_changelog_segments(events, remote_log, n_segments=3)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    t = FlakyTransport(str(remote_log), fail_after=40_000, fail_times=1)
    report = tail(
        lake, tmp_path / "local_log", cfg=EngineConfig(num_partitions=4),
        poll_interval=0.1, idle_rounds_to_stop=2,
        remote_log_dir=remote_log, transport=t,
    )
    assert report["events_applied"] == 900
    assert_states_equal(replay(base, events), read_lake_table(lake))
