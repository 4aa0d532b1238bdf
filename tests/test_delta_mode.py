"""Merge-on-read (write_mode="delta"): append-only epochs + on-the-fly
fold must match the oracle exactly; compaction folds deltas away."""

import json

import pyarrow.parquet as pq

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake, read_lake_table
from rfb_cnpj_etl_ray.pipelines.maintenance import compact, validate_lake
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def _setup(tmp_path, n_docs=300, n_events=2400, n_segments=6, seed=11,
           num_partitions=4):
    base = make_base(n_docs, seed=seed, max_len=32)
    events = make_changelog(n_events, n_docs, seed=seed + 1, max_len=32)
    log_dir = tmp_path / "log"
    manifest = write_changelog_segments(events, log_dir, n_segments)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=num_partitions)
    cfg = EngineConfig(num_partitions=num_partitions, write_mode="delta")
    return base, events, log_dir, lake, cfg, manifest


def test_delta_multi_epoch_matches_oracle(ray_session, tmp_path):
    base, events, log_dir, lake, cfg, manifest = _setup(tmp_path)
    full = manifest["segments"]
    for upto in (2, 4, 6):
        manifest["segments"] = full[:upto]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        ingest(lake, log_dir, cfg=cfg)
    log = CommitLog(lake / "sequences")
    c = log.latest()
    # every touched partition accumulated deltas; base snapshot untouched
    assert log.snapshot().deltas_pending
    assert any(len(v.get("deltas", [])) >= 2 for v in c["partitions"].values())
    assert all(v["file"].endswith("epoch-000000.parquet")
               for v in c["partitions"].values())
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_delta_read_lake_dataset_folds(ray_session, tmp_path):
    base, events, log_dir, lake, cfg, _ = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    expected = replay(base, events)
    ds = read_lake(lake)
    assert ds.count() == expected.num_rows
    assert set(ds.schema().names) == set(PAYLOAD_SCHEMA.names)


def test_delta_write_amplification_is_bounded(ray_session, tmp_path):
    """The whole point: a delta epoch writes O(events), not O(table)."""
    base, events, log_dir, lake, cfg, _ = _setup(tmp_path, n_docs=2000,
                                                 n_events=400)
    ingest(lake, log_dir, cfg=cfg)
    c = CommitLog(lake / "sequences").latest()
    delta_rows = sum(
        pq.read_metadata(lake / "sequences" / d).num_rows
        for v in c["partitions"].values() for d in v.get("deltas", [])
    )
    # ≤ events (partial reduce may shrink); far below table size
    assert 0 < delta_rows <= 400


def test_delta_validate_and_compact(ray_session, tmp_path):
    base, events, log_dir, lake, cfg, _ = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    report = validate_lake(lake)
    assert report["ok"]
    before = read_lake_table(lake)
    r = compact(lake)
    log = CommitLog(lake / "sequences")
    assert not log.snapshot().deltas_pending  # folded away
    assert_states_equal(before, read_lake_table(lake))
    # post-compaction: physical rows == live rows (tombstones GC'd)
    c = log.latest()
    assert sum(v["rows"] for v in c["partitions"].values()) == before.num_rows
    assert validate_lake(lake)["ok"]


def test_mixed_cow_then_delta_then_cow(ray_session, tmp_path):
    base, events, log_dir, lake, cfg, manifest = _setup(tmp_path)
    full = manifest["segments"]
    modes = ["cow", "delta", "cow"]
    for k, mode in enumerate(modes):
        manifest["segments"] = full[: (k + 1) * 2]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        step = EngineConfig(num_partitions=4, write_mode=mode)
        ingest(lake, log_dir, cfg=step)
    # the final cow epoch folded the deltas back in
    assert not CommitLog(lake / "sequences").snapshot().deltas_pending
    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_lookup_point_reads(ray_session, tmp_path):
    """Zone-map point lookup returns exactly the oracle's rows for both
    present and absent keys, on a delta (merge-on-read) table."""
    from rfb_cnpj_etl_ray.pipelines.ingest import lookup

    base, events, log_dir, lake, cfg, _ = _setup(tmp_path)
    ingest(lake, log_dir, cfg=cfg)
    expected = replay(base, events)
    exp_ids = expected["doc_id"].to_pylist()
    probe = [exp_ids[0], exp_ids[len(exp_ids) // 2], exp_ids[-1],
             "docNOPE9999"]
    out = lookup(lake, probe)
    assert out["doc_id"].to_pylist() == sorted(probe[:3])
    by = {r["doc_id"]: r for r in expected.to_pylist()}
    for row in out.to_pylist():
        assert row["tokens"] == by[row["doc_id"]]["tokens"]


def test_init_lake_epoch0_is_sorted_and_zone_mapped(ray_session, tmp_path):
    """``init_lake`` writes epoch 0 through the one partition writer:
    every file is doc_id-sorted and its commit entry carries the zone
    map and live count, so a delta epoch's merged bounds stay exact and
    lookups of every key match the oracle."""
    from rfb_cnpj_etl_ray.pipelines.ingest import lookup

    base, events, log_dir, lake, cfg, _ = _setup(tmp_path)
    entries = CommitLog(lake / "sequences").commit_at(0)["partitions"]
    assert len(entries) == 4
    for v in entries.values():
        ids = pq.read_table(lake / "sequences" / v["file"])["doc_id"].to_pylist()
        assert ids and ids == sorted(ids)
        assert (v["doc_id_min"], v["doc_id_max"]) == (ids[0], ids[-1])
        assert v["live_rows"] == v["rows"] == len(ids)
    assert sum(v["live_rows"] for v in entries.values()) == base.num_rows
    ingest(lake, log_dir, cfg=cfg)
    expected = replay(base, events)
    probe = sorted(set(base["doc_id"].to_pylist())
                   | set(events["doc_id"].to_pylist())) + ["docNOPE9999"]
    assert_states_equal(expected, lookup(lake, probe))


def test_size_tiered_delta_compaction(ray_session, tmp_path):
    """compact_deltas folds only partitions whose delta mass crosses the
    ratio; others keep merge-on-read deltas; final state stays exact."""
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas

    base, events, log_dir, lake, cfg, manifest = _setup(
        tmp_path, n_docs=600, n_events=3000, n_segments=6)
    full = manifest["segments"]
    for upto in (2, 4, 6):
        manifest["segments"] = full[:upto]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        ingest(lake, log_dir, cfg=cfg)
    log = CommitLog(lake / "sequences")
    before = {k: list(v.get("deltas", []))
              for k, v in log.latest()["partitions"].items()}
    assert any(before.values())
    expected = replay(base, events)

    r = compact_deltas(lake, min_delta_ratio=0.5)
    assert not r["noop"]
    after = CommitLog(lake / "sequences").latest()["partitions"]
    folded = [k for k in before if before[k] and not after[k].get("deltas")]
    kept = [k for k in before if before[k] and after[k].get("deltas")]
    assert folded, "nothing folded at ratio 0.5"
    assert_states_equal(expected, read_lake_table(lake))

    # high threshold → noop; zero threshold → everything folds
    assert compact_deltas(lake, min_delta_ratio=10_000)["noop"] or not kept
    r2 = compact_deltas(lake, min_delta_ratio=0.0)
    assert not CommitLog(lake / "sequences").snapshot().deltas_pending
    assert_states_equal(expected, read_lake_table(lake))

    # ingest continues normally on the mixed table
    extra = make_changelog(200, 600, seed=99, max_len=32,
                           start_lsn=10_000_000)
    log_dir2 = tmp_path / "log2"
    write_changelog_segments(extra, log_dir2, 1)
    ingest(lake, log_dir2, cfg=cfg)
    assert_states_equal(replay(expected, extra), read_lake_table(lake))


def _delta_lake_for_tiers(tmp_path):
    base, events, log_dir, lake, cfg, manifest = _setup(
        tmp_path, n_docs=600, n_events=3000, n_segments=6)
    full = manifest["segments"]
    for upto in (2, 4, 6):
        manifest["segments"] = full[:upto]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        ingest(lake, log_dir, cfg=cfg)
    return replay(base, events), lake


def _folded(lake, before: dict) -> list[str]:
    after = CommitLog(lake / "sequences").latest()["partitions"]
    return sorted(k for k in before
                  if before[k].get("deltas") and not after[k].get("deltas"))


def test_compact_deltas_sizes_tiers_without_footers(ray_session, tmp_path,
                                                    monkeypatch):
    """Delta-mode entries carry ``base_rows``, so ``compact_deltas``
    sizes each tier as ``rows - base_rows`` and opens no footer; an entry
    committed without ``base_rows`` falls back to the footers and folds
    the same partitions."""
    import shutil

    from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas

    expected, lake = _delta_lake_for_tiers(tmp_path)
    head = CommitLog(lake / "sequences").commits()[-1]
    before = json.loads(head.read_text())["partitions"]
    ratios = []
    for v in before.values():
        if v.get("deltas"):
            base_rows = pq.read_metadata(lake / "sequences" / v["file"]).num_rows
            d_rows = sum(pq.read_metadata(lake / "sequences" / d).num_rows
                         for d in v["deltas"])
            assert (v["base_rows"], v["rows"]) == (base_rows,
                                                   base_rows + d_rows)
            ratios.append(d_rows / base_rows)
    # a ratio between the partitions' tiers: some fold, some keep deltas
    ratio = (min(ratios) + max(ratios)) / 2
    legacy = tmp_path / "legacy"
    shutil.copytree(lake, legacy)
    record = json.loads(head.read_text())
    for v in record["partitions"].values():
        v.pop("base_rows", None)
    (legacy / "sequences" / "_commit_log" / head.name).write_text(
        json.dumps(record, indent=1, sort_keys=True))

    footers = []
    orig = pq.read_metadata

    def read_metadata(*args, **kwargs):
        footers.append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(pq, "read_metadata", read_metadata)
    assert not compact_deltas(lake, min_delta_ratio=ratio)["noop"]
    assert footers == []
    assert not compact_deltas(legacy, min_delta_ratio=ratio)["noop"]
    assert footers
    folded = _folded(lake, before)
    assert folded and folded == _folded(legacy, before)
    assert folded != sorted(k for k, v in before.items() if v.get("deltas"))
    assert_states_equal(expected, read_lake_table(lake))
    assert_states_equal(expected, read_lake_table(legacy))
