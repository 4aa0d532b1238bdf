"""``stages.exchange.run_tasks``: one plain Ray task per item for the
per-partition and per-file control work (both phases of an ingest
epoch, maintenance, export, segment fetch) — order, retry and in-flight
semantics, and a guard that none of that work starts a Dataset."""

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table
from rfb_cnpj_etl_ray.pipelines.maintenance import (
    compact,
    compact_deltas,
    validate_lake,
)
from rfb_cnpj_etl_ray.sinks import export_lake
from rfb_cnpj_etl_ray.sources.fetcher import fetch_manifest_segments
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.stages.exchange import run_tasks
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def test_results_come_back_in_item_order(ray_session):
    def square(i):
        time.sleep(0.3 if i == 0 else 0.0)  # the first item finishes last
        return {"i": i, "sq": i * i}

    assert run_tasks(square, range(10)) == [
        {"i": i, "sq": i * i} for i in range(10)]


def test_no_items_submit_nothing(ray_session, tmp_path):
    def touch(item):
        (tmp_path / "ran").write_text("1")

    assert run_tasks(touch, []) == []
    assert not (tmp_path / "ran").exists()


def test_application_error_keeps_its_type_after_one_attempt(ray_session,
                                                            tmp_path):
    attempts = tmp_path / "attempts"

    def fail(item):
        with open(attempts, "a") as f:
            f.write("x")
        raise RuntimeError(f"bad item {item}")

    with pytest.raises(RuntimeError, match="bad item 7"):
        run_tasks(fail, [7])
    assert attempts.read_text() == "x"


def test_worker_death_is_retried(ray_session, tmp_path):
    died = tmp_path / "died"

    def die_once(item):
        if not died.exists():
            died.write_text("1")
            os._exit(1)
        return item + 1

    assert run_tasks(die_once, [41]) == [42]
    assert died.exists()


def test_max_in_flight_one_runs_tasks_one_at_a_time(ray_session, tmp_path):
    def span(i):
        start = time.time()
        time.sleep(0.2)
        (tmp_path / f"span-{i}").write_text(f"{start} {time.time()}")
        return i

    assert run_tasks(span, range(4), max_in_flight=1) == [0, 1, 2, 3]
    spans = sorted(tuple(map(float, p.read_text().split()))
                   for p in tmp_path.glob("span-*"))
    assert len(spans) == 4
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_control_path_starts_no_dataset(ray_session, tmp_path, monkeypatch):
    """Fetch, cow ingest, two delta ingests, compact_deltas, compact,
    validate_lake and export_lake all run with ``ray.data.from_items``
    and ``ray.data.read_parquet`` raising on the driver — their per-item
    work, ingest's segment reads included, is plain tasks — and every
    lake they leave matches the oracle."""
    base = make_base(300, seed=31, max_len=32)
    events = make_changelog(2400, 300, seed=32, max_len=32)
    remote = tmp_path / "remote_log"
    write_changelog_segments(events, remote, n_segments=4)
    expected = replay(base, events)
    cow, delta = tmp_path / "cow", tmp_path / "delta"
    init_lake(cow, SPEC, base=base, num_partitions=4)
    init_lake(delta, SPEC, base=base, num_partitions=4)

    def no_dataset(name):
        def raise_(*args, **kwargs):
            raise AssertionError(f"ray.data.{name} on the control path")
        return raise_

    for name in ("from_items", "read_parquet"):
        monkeypatch.setattr(ray.data, name, no_dataset(name))
    local = tmp_path / "local_log"
    reports = fetch_manifest_segments(remote, local)
    assert [r["name"] for r in reports] == sorted(
        p.name for p in remote.glob("seg-*"))
    for p in remote.glob("seg-*"):
        assert (local / p.name).read_bytes() == p.read_bytes()

    ingest(cow, local, cfg=EngineConfig(num_partitions=4))
    assert_states_equal(expected, read_lake_table(cow))

    # two delta epochs, so compact_deltas has stacked deltas to fold
    manifest = json.loads((local / "manifest.json").read_text())
    segments = manifest["segments"]
    cfg = EngineConfig(num_partitions=4, write_mode="delta")
    for upto in (2, 4):
        manifest["segments"] = segments[:upto]
        (local / "manifest.json").write_text(json.dumps(manifest))
        ingest(delta, local, cfg=cfg)
    log = CommitLog(delta / "sequences")
    assert log.snapshot().deltas_pending
    assert_states_equal(expected, read_lake_table(delta))

    assert compact_deltas(delta, min_delta_ratio=0.0)["partitions_folded"] > 0
    assert not log.snapshot().deltas_pending
    assert_states_equal(expected, read_lake_table(delta))

    compact(delta)
    assert_states_equal(expected, read_lake_table(delta))
    report = validate_lake(delta)
    assert report["ok"] and report["rows_total"] == expected.num_rows

    out = tmp_path / "export"
    r = export_lake(delta, out, sink="parquet")
    assert r["partitions"] == 4 and r["rows"] == expected.num_rows
    exported = pa.concat_tables(
        [pq.read_table(p) for p in sorted(out.glob("part=*.parquet"))])
    assert_states_equal(expected,
                        exported.sort_by([("doc_id", "ascending")]))
