"""End-to-end CDC ingest vs the single-threaded oracle replayer.

Covers the north-rule correctness gates: final-state token-array
equality, incremental multi-epoch replay, duplicated-batch injection,
crash-restart resume, out-of-order segment arrival, and phase-1 segment
pieces (packed small segments, empty and older-schema segments).
"""

import logging
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake, read_lake_table
from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas
from rfb_cnpj_etl_ray.spec import (
    CHANGE_SCHEMA,
    PAYLOAD_SCHEMA,
    TableSpec,
    conform_table,
    evolve_schema,
)
from rfb_cnpj_etl_ray.stages.merge import segment_pieces
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.state.manifest import manifest_from_dir
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def _setup(tmp_path, n_docs=400, n_events=3000, n_segments=6, seed=42,
           num_partitions=8, **cfg_kwargs):
    base = make_base(n_docs, seed=seed, max_len=64)
    events = make_changelog(n_events, n_docs, seed=seed + 1, max_len=64)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, n_segments=n_segments)
    lake = tmp_path / "lake"
    cfg = EngineConfig(num_partitions=num_partitions, **cfg_kwargs)
    init_lake(lake, SPEC, base=base, num_partitions=num_partitions)
    return base, events, log_dir, lake, cfg


def test_single_epoch_matches_oracle(ray_session, tmp_path):
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    report = ingest(lake, log_dir, cfg=cfg)
    assert not report["noop"]
    assert report["events_read"] == 3000
    expected = replay(base, events)
    assert_states_equal(expected, read_lake_table(lake))


def test_commit_records_phase_seconds(ray_session, tmp_path):
    """The commit keeps the exchange's per-phase seconds, which add up
    to no more than the epoch's ``stage_seconds``."""
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    metrics = CommitLog(lake / "sequences").latest()["metrics"]
    phases = metrics["phase_seconds"]
    assert set(phases) == {"setup", "stage", "merge"}
    assert all(v >= 0 for v in phases.values())
    # each value is rounded to 1 ms, so allow 4 half-milliseconds
    assert sum(phases.values()) <= metrics["stage_seconds"] + 0.002


def test_incremental_epochs_match_full_replay(ray_session, tmp_path):
    """Segments ingested across three epochs == one-shot oracle replay."""
    base, events, log_dir, lake, cfg = _setup(tmp_path, n_segments=6)
    all_segs = sorted(p.name for p in log_dir.glob("*.parquet"))
    # hide later segments by rewriting the manifest per epoch
    import json
    manifest = json.loads((log_dir / "manifest.json").read_text())
    full_segments = manifest["segments"]
    for upto in (2, 4, 6):
        manifest["segments"] = [s for s in full_segments if s["name"] in all_segs[:upto]]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        ingest(lake, log_dir, cfg=cfg)
    expected = replay(base, events)
    assert_states_equal(expected, read_lake_table(lake))
    # three commits + epoch 0
    assert CommitLog(lake / "sequences").snapshot().epoch == 3


def test_duplicated_batch_injection_is_noop(ray_session, tmp_path):
    """Re-ingesting committed segments must not change state (exactly-once).

    Reference tolerance analog: INSERT OR IGNORE (sqlite_loader.py:56)."""
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    state1 = read_lake_table(lake)
    r2 = ingest(lake, log_dir, cfg=cfg)  # same manifest again
    assert r2["noop"]
    # harder: re-append an old segment under a NEW name (same events) —
    # segment-set dedup can't catch it; the (doc_id,lsn) LWW fold must.
    import json, shutil
    seg0 = sorted(log_dir.glob("seg-*.parquet"))[0]
    dup = log_dir / "seg-99999.parquet"
    shutil.copy(seg0, dup)
    manifest = json.loads((log_dir / "manifest.json").read_text())
    first = [s for s in manifest["segments"] if s["name"] == seg0.name][0]
    manifest["segments"].append({**first, "name": dup.name})
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    r3 = ingest(lake, log_dir, cfg=cfg)
    assert not r3["noop"]
    assert_states_equal(state1, read_lake_table(lake))


def _crash_at_commit(self, record):
    """``CommitLog.append`` stand-in: a crash between staging and commit."""
    raise RuntimeError("injected failure before commit")


def test_crash_before_commit_then_resume(ray_session, tmp_path, monkeypatch):
    """Kill between staging and commit; resume completes the epoch."""
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(CommitLog, "append", _crash_at_commit)
        with pytest.raises(RuntimeError, match="injected failure"):
            ingest(lake, log_dir, cfg=cfg)
    # nothing committed: lake still at epoch 0, public state = base
    log = CommitLog(lake / "sequences")
    assert log.snapshot().epoch == 0
    ingest(lake, log_dir, cfg=cfg)
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_out_of_order_segment_arrival(ray_session, tmp_path):
    """Later segments committed first; earlier (lower-lsn) segments arrive
    late. Per-row _lsn LWW must converge to the oracle's global order."""
    import json
    base, events, log_dir, lake, cfg = _setup(tmp_path, n_segments=4)
    manifest = json.loads((log_dir / "manifest.json").read_text())
    full = manifest["segments"]
    # epoch 1: only the LAST two segments (which, thanks to arrival-order
    # shuffling, still contain a mix of lsns); epoch 2: the first two.
    manifest["segments"] = full[2:]
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    ingest(lake, log_dir, cfg=cfg)
    manifest["segments"] = full
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    ingest(lake, log_dir, cfg=cfg)
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_segment_pieces_pack_segments_and_skip_empty(ray_session, tmp_path):
    """One epoch of four segments: 1,000 events carrying an evolved
    ``lang`` column, a 0-row segment, 150 more ``lang`` events, and an
    older-schema segment of 200 events without ``lang``. At
    ``batch_size=400`` the big segment is a piece of its own, the two
    small ones share one (so a staged batch spans both schema versions),
    the empty one is in none, and the lake matches the oracle. Pieces of
    small segments never hold more than ``batch_size`` rows."""
    rng = np.random.default_rng(63)

    def with_lang(t):
        return t.append_column("lang", pa.array(
            np.array(["pt", "en", "es"])[rng.integers(0, 3, t.num_rows)]))

    base = make_base(200, seed=61, max_len=32)
    big = with_lang(make_changelog(1000, 200, seed=62, start_lsn=2000,
                                   max_len=32))
    small = with_lang(make_changelog(150, 200, seed=65, start_lsn=3000,
                                     max_len=32))
    older = make_changelog(200, 200, seed=64, start_lsn=1000, max_len=32)
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    paths = [str(log_dir / f"seg-{k:05d}.parquet") for k in range(4)]
    pq.write_table(big, paths[0])
    pq.write_table(CHANGE_SCHEMA.empty_table(), paths[1])
    pq.write_table(small, paths[2])
    pq.write_table(older, paths[3])
    manifest_from_dir(log_dir)

    metas = {p: pq.read_metadata(p) for p in paths}
    assert segment_pieces(metas, 400) == [[paths[0]], [paths[2], paths[3]]]
    sizes = {f"s{k}": SimpleNamespace(num_rows=int(n)) for k, n in
             enumerate(rng.integers(0, 400, 60))}
    pieces = segment_pieces(sizes, 400)
    assert [s for piece in pieces for s in piece] == [
        s for s, m in sizes.items() if m.num_rows]
    assert all(sum(sizes[s].num_rows for s in piece) <= 400
               for piece in pieces)

    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    report = ingest(lake, log_dir,
                    cfg=EngineConfig(num_partitions=4, batch_size=400))
    assert report["events_read"] == 1350
    schema = evolve_schema(CHANGE_SCHEMA, big.schema)
    events = pa.concat_tables(
        [conform_table(t, schema) for t in (big, small, older)])
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_read_lake_dataset_view(ray_session, tmp_path):
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    ds = read_lake(lake)
    expected = replay(base, events)
    assert ds.count() == expected.num_rows
    assert set(ds.schema().names) == set(PAYLOAD_SCHEMA.names)


def test_commit_log_carries_metrics_and_lineage(ray_session, tmp_path):
    base, events, log_dir, lake, cfg = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    c = CommitLog(lake / "sequences").latest()
    assert c["metrics"]["events_read"] == 3000
    assert c["metrics"]["segments_this_epoch"]  # lineage
    assert c["segments"]
    touched = [p for p in c["partitions"].values() if p["events_applied"] > 0]
    assert touched and all("lsn_high" in p for p in touched)


def test_each_commit_logs_one_info_line(ray_session, tmp_path, caplog):
    """Every commit logs one INFO record on the package logger naming
    the epoch and its scalar metrics (no segment lists); a no-op
    re-ingest logs none."""
    caplog.set_level(logging.INFO, logger="rfb_cnpj_etl_ray")

    def records():
        got = [r for r in caplog.records
               if r.name.startswith("rfb_cnpj_etl_ray")]
        caplog.clear()
        return got

    base, events, log_dir, lake, cfg = _setup(tmp_path, write_mode="delta")
    assert len(records()) == 1  # init_lake's epoch 0
    ingest(lake, log_dir, cfg=cfg)
    (rec,) = records()
    msg = rec.getMessage()
    assert rec.levelno == logging.INFO
    assert "epoch 1 " in msg and "'events_read': 3000" in msg
    assert "segments_this_epoch" not in msg
    assert ingest(lake, log_dir, cfg=cfg)["noop"]
    assert records() == []
    assert compact_deltas(lake, min_delta_ratio=0.0)["partitions_folded"]
    (rec,) = records()
    assert "epoch 2 " in rec.getMessage()
    assert "'partitions_folded'" in rec.getMessage()
