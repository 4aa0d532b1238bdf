"""One commit read per operation: every lake operation plans against one
``CommitLog.snapshot`` per epoch it names, so a commit that lands while it
runs can never mix two epochs' metadata. Also: ``ingest`` applies the very
manifest it validated, and every writer goes through ``commit_next``."""

import importlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import (
    ingest,
    lake_changes,
    lookup,
    merge_into,
    read_lake,
    read_lake_table,
    replicate,
)
from rfb_cnpj_etl_ray.pipelines.maintenance import (
    compact,
    compact_deltas,
    gc_snapshots,
    partition_lineage,
    repartition_lake,
    validate_lake,
)
from rfb_cnpj_etl_ray.sinks import export_lake
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state import manifest as manifest_mod
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import (
    make_base,
    make_changelog,
    write_changelog_segments,
)

# the package re-exports the ``ingest`` function under the module name
ingest_mod = importlib.import_module("rfb_cnpj_etl_ray.pipelines.ingest")
SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)
CFG = EngineConfig(num_partitions=4)
REAL_APPEND = CommitLog.append


def _lake(tmp_path, n_segments=4, upto=2):
    """init + one cow epoch over the first ``upto`` segments; the
    manifest on disk then lists every segment."""
    base = make_base(120, seed=31, max_len=24)
    events = make_changelog(900, 120, seed=32, max_len=24)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, n_segments=n_segments)
    manifest = json.loads((log_dir / "manifest.json").read_text())
    full = manifest["segments"]
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    manifest["segments"] = full[:upto]
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    ingest(lake, log_dir, cfg=CFG)
    manifest["segments"] = full
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    return base, events, log_dir, lake


def _held_commit(monkeypatch, run) -> dict:
    """Run a writer with its commit held back: its data files are
    written, the record it would append is returned instead."""
    held = []
    with monkeypatch.context() as m:
        m.setattr(CommitLog, "append",
                  lambda self, record: held.append(record))
        run()
    assert len(held) == 1
    return held[0]


def test_gc_keeps_files_of_an_epoch_committed_mid_run(
        ray_session, tmp_path, monkeypatch):
    base, events, log_dir, lake = _lake(tmp_path)
    record = _held_commit(monkeypatch,
                          lambda: ingest(lake, log_dir, cfg=CFG))
    assert record["epoch"] == 2
    fired = []
    real_commits = CommitLog.commits

    def commits(self):
        paths = real_commits(self)
        if not fired:  # epoch 2 commits right after gc lists the log
            fired.append(True)
            REAL_APPEND(self, record)
        return paths

    with monkeypatch.context() as m:
        m.setattr(CommitLog, "commits", commits)
        gc_snapshots(lake, keep_commits=1)
    assert fired
    assert_states_equal(replay(base, events), read_lake_table(lake))
    assert CommitLog(lake / "sequences").latest()["epoch"] == 2


def test_read_lake_sees_one_epoch_when_a_commit_lands_mid_read(
        ray_session, tmp_path, monkeypatch):
    base, events, log_dir, lake = _lake(tmp_path, n_segments=2, upto=1)
    # epoch 2 evolves the schema: its segment adds a `lang` column
    evolved = make_changelog(300, 120, seed=33, start_lsn=10_000, max_len=24)
    lang = np.array(["pt", "en"])[np.random.default_rng(34).integers(0, 2, 300)]
    evolved = evolved.append_column("lang", pa.array(lang))
    log2 = tmp_path / "log2"
    write_changelog_segments(evolved, log2, 1)
    record = _held_commit(monkeypatch,
                          lambda: ingest(lake, log2, cfg=CFG))
    assert "lang" in [name for name, _ in record["schema"]]
    fired = []
    real_latest = CommitLog.latest

    def latest(self):
        head = real_latest(self)
        if not fired:  # epoch 2 commits right after the first log read
            fired.append(True)
            REAL_APPEND(self, record)
        return head

    with monkeypatch.context() as m:
        m.setattr(CommitLog, "latest", latest)
        got = pa.Table.from_pylist(read_lake(lake).take_all())
    assert fired
    expected = read_lake_table(lake, as_of=1)
    assert "lang" not in got.schema.names
    assert_states_equal(expected, got)


def test_ingest_applies_the_manifest_it_validated(
        ray_session, tmp_path, monkeypatch):
    base, events, log_dir, lake = _lake(tmp_path)
    real_read = manifest_mod.read_manifest
    validated = real_read(log_dir)
    # what a producer publishes next: one more segment, whose declared
    # size is wrong, so validating it would fail
    write_changelog_segments(
        make_changelog(200, 120, seed=35, start_lsn=20_000, max_len=24),
        tmp_path / "extra", 1)
    (tmp_path / "extra" / "seg-00000.parquet").rename(
        log_dir / "seg-extra.parquet")
    replaced = {**validated, "segments": validated["segments"] + [{
        "name": "seg-extra.parquet", "rows": 200, "min_lsn": 20_000,
        "max_lsn": 20_199, "bytes": 1}]}
    calls = []

    def read_manifest(d):
        calls.append(d)
        return validated if len(calls) == 1 else replaced

    monkeypatch.setattr(manifest_mod, "read_manifest", read_manifest)
    monkeypatch.setattr(ingest_mod, "read_manifest", read_manifest)
    ingest(lake, log_dir, cfg=CFG)
    monkeypatch.undo()
    assert len(calls) == 1
    applied = pa.concat_tables(
        [pq.read_table(log_dir / s["name"]) for s in validated["segments"]])
    assert_states_equal(replay(base, applied), read_lake_table(lake))


def _reads(monkeypatch, run) -> tuple[int, int]:
    """(CommitLog.latest calls, CommitLog.commit_at calls) made by run()."""
    counts = {"latest": 0, "commit_at": 0}
    with monkeypatch.context() as m:
        for name in counts:
            real = getattr(CommitLog, name)

            def spy(self, *args, _name=name, _real=real):
                counts[_name] += 1
                return _real(self, *args)

            m.setattr(CommitLog, name, spy)
        run()
    return counts["latest"], counts["commit_at"]


def test_one_commit_read_per_named_epoch(ray_session, tmp_path, monkeypatch):
    base, events, log_dir, lake = _lake(tmp_path)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=4,
                                           write_mode="delta"))  # epoch 2
    state = read_lake_table(lake)
    key = state.column("doc_id")[0].as_py()
    checks = {
        "read_lake": (lambda: read_lake(lake).count(), (1, 0)),
        "read_lake as_of": (lambda: read_lake(lake, as_of=1).count(), (0, 1)),
        "read_lake_table": (lambda: read_lake_table(lake), (1, 0)),
        "read_lake_table as_of": (lambda: read_lake_table(lake, as_of=1),
                                  (0, 1)),
        "lookup": (lambda: lookup(lake, [key]), (1, 0)),
        "lake_changes": (lambda: lake_changes(lake, 1, 2).count(), (0, 2)),
        "lake_changes to head": (lambda: lake_changes(lake, 1).count(),
                                 (1, 1)),
        "export_lake": (lambda: export_lake(lake, tmp_path / "out"), (1, 0)),
        "validate_lake": (lambda: validate_lake(lake), (1, 0)),
        "partition_lineage": (lambda: partition_lineage(lake), (1, 2)),
        "gc_snapshots": (lambda: gc_snapshots(lake, keep_commits=2), (1, 1)),
        "compact_deltas": (
            lambda: compact_deltas(lake, min_delta_ratio=0.0), (1, 0)),
        "compact": (lambda: compact(lake), (1, 0)),
        "repartition_lake": (lambda: repartition_lake(lake, 3), (1, 0)),
        "merge_into": (lambda: merge_into(lake, state, cfg=CFG), (1, 0)),
    }
    got = {name: _reads(monkeypatch, run) for name, (run, _) in checks.items()}
    assert got == {name: want for name, (_, want) in checks.items()}
    dst = tmp_path / "replica"
    replicate(lake, dst)  # bootstrap
    merge_into(lake, read_lake_table(lake), cfg=CFG)
    # incremental: source head, the source epoch last shipped, replica head
    assert _reads(monkeypatch, lambda: replicate(lake, dst)) == (2, 1)
    assert_states_equal(read_lake_table(lake), read_lake_table(dst))


def test_commit_next_carries_the_parent_fields(tmp_path):
    log = CommitLog(tmp_path / "t")
    row = {"part": 0, "file": "part=0000/epoch-000000.parquet", "rows": 3,
           "live_rows": 3, "bytes": 10, "doc_id_min": "a", "doc_id_max": "c"}
    first = log.commit_next(None, {}, {}, num_partitions=2,
                            schema=PAYLOAD_SCHEMA)
    assert (first["epoch"], first["parent"], first["segments"]) == (0, None, [])
    assert "compaction_watermark" not in first
    snap0 = log.snapshot()
    second = log.commit_next(snap0, {}, {}, segments=["s@1-2#2"],
                             watermark=0)
    assert (second["epoch"], second["parent"]) == (1, 0)
    assert second["num_partitions"] == 2
    assert second["compaction_watermark"] == 0
    third = log.commit_next(log.snapshot(), {"0": {**row, "lsn_high": 5,
                                                   "events_applied": 1}}, {})
    assert third["segments"] == ["s@1-2#2"]
    assert third["compaction_watermark"] == 0
    snap = log.snapshot()
    assert snap.schema.equals(PAYLOAD_SCHEMA)
    assert snap.files == {0: [row["file"]]} and not snap.deltas_pending
    assert snap.lsn_high == 5
    with pytest.raises(RuntimeError, match="never committed"):
        log.snapshot(7)
    with pytest.raises(RuntimeError, match="not initialized"):
        CommitLog(tmp_path / "none").snapshot()
