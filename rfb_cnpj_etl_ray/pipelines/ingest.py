"""The flagship pipeline: change-log replay → transactional lake upsert.

Ray-Data-native re-expression of the reference's whole load phase
(orchestrator.py:23-124: validate → build → load → patch → index → FK),
replacing monthly drop-and-reload (sqlite_builder.py:170-177) with
incremental, exactly-once, resumable replay:

    validate manifest            (zip_metadata.py:16-58 analog)
    select uncommitted segments  (resume; .part/Range analog, cnpj_downloader.py:84-96)
    evolve schema                (north-rule addition; declared SCHEMA analog)
    segment pieces               (whole segments packed to batch_size rows,
                                  from the same footers)
    staged_exchange:             (stages/merge.py — the one exchange)
      phase 1 per segment piece  (plain tasks: stream batches, conform to the
                                  evolved schema, batch across segments,
                                  route + partial LWW reduce
                                  → staged chunks)
      phase 2 per partition      (plain tasks: fold with committed state → snapshot)
    commit-log append            (single atomic synchronization point)

An epoch starts no Ray Dataset: both phases are plain Ray tasks
(``stages.exchange.run_tasks``), one per segment piece and one per
touched partition, and a phase-1 task holds one batch at a time. Never
materializes the event stream on the driver: the driver reads only the
new segments' footers, and its only collects are the tiny per-batch
stage stats and the per-partition manifest rows (≤ num_partitions).
Callers own the Ray session — nothing here calls ray.init().
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.spec import (
    TableSpec,
    evolve_schema,
    schema_from_jsonable,
    schema_to_jsonable,
)
from rfb_cnpj_etl_ray.stages.merge import (
    INTERNAL_DELETED,
    internal_schema,
    segment_pieces,
    staged_exchange,
    strip_internal,
)
from rfb_cnpj_etl_ray.state.commitlog import (
    CommitLog,
    Snapshot,
    next_partitions,
)
from rfb_cnpj_etl_ray.state.manifest import (
    manifest_from_dir,
    read_manifest,
    validate_segments,
)


def ingest(
    lake_dir: str | Path,
    log_dir: str | Path,
    table: str = "sequences",
    cfg: EngineConfig | None = None,
) -> dict:
    """Apply all not-yet-committed change-log segments to the lake table.

    Returns a report dict (epoch, segments, events, per-stage seconds).
    Idempotent: re-running after success is a no-op; re-running after a
    crash (including between staging and commit) completes the epoch with
    the same final state the oracle produces.
    """
    t0 = time.perf_counter()
    log = CommitLog(Path(lake_dir) / table)
    return _ingest(log, log.snapshot(), log_dir, cfg, t0)


def _ingest(log: CommitLog, last: Snapshot, log_dir: str | Path,
            cfg: EngineConfig | None, t0: float) -> dict:
    """``ingest`` on top of ``last``, the caller's snapshot of ``log``."""
    cfg = cfg or EngineConfig()
    cfg.validate()
    committed_segments = set(last.segments)
    # read once: the manifest validated is the manifest applied, even
    # while a producer replaces manifest.json (tail's protocol)
    manifest = read_manifest(log_dir)
    validate_segments(log_dir, strict=True, manifest=manifest)

    def seg_id(s: dict) -> str:
        # segment identity = name + lsn range + rows: same-named files
        # from different log directories/epochs are distinct, while a
        # re-presented committed segment (duplicated-batch injection)
        # keeps its identity and is pruned without a read.
        return f'{s["name"]}@{s.get("min_lsn")}-{s.get("max_lsn")}#{s["rows"]}'

    new_segs = [s for s in sorted(manifest["segments"], key=lambda s: s["name"])
                if seg_id(s) not in committed_segments]
    if not new_segs:
        return {
            "epoch": last.epoch, "segments": [], "events_read": 0,
            "noop": True, "seconds": time.perf_counter() - t0,
        }
    paths = [str(Path(log_dir) / s["name"]) for s in new_segs]
    events_read = sum(s["rows"] for s in new_segs)

    # --- schema evolution at the read boundary ---------------------------
    # one footer read per new segment gives its schema and its pieces
    metas = {p: pq.read_metadata(p) for p in paths}
    payload_schema = last.schema
    for meta in metas.values():
        seg_payload = pa.schema(
            [f for f in meta.schema.to_arrow_schema()
             if f.name not in ("lsn", "op")]
        )
        payload_schema = evolve_schema(payload_schema, seg_payload)

    epoch = last.epoch + 1
    with staged_exchange(
        segment_pieces(metas, cfg.batch_size), log.table_dir, epoch,
        payload_schema, last.num_partitions, cfg,
        write_mode=cfg.write_mode, part_files=last.files,
        min_lsn_exclusive=last.watermark, t0=t0,
    ) as exchange:
        t_staged = time.perf_counter()
        staged = exchange.rows
        partitions = next_partitions(last.partitions, staged, cfg.write_mode)
        log.commit_next(last, partitions, {
            "events_read": events_read,
            "segments_this_epoch": [s["name"] for s in new_segs],
            "partitions_touched": len(staged),
            "events_dropped_late": exchange.dropped_late,
            "rows_total": sum(
                int(p["live_rows"] if p.get("live_rows") is not None
                    else p["rows"])
                for p in partitions.values()
            ),
            "stage_seconds": round(t_staged - t0, 3),
            "phase_seconds": exchange.phase_seconds,
        }, schema=payload_schema, segments=sorted(
            committed_segments | {seg_id(s) for s in new_segs}))
    return {
        "epoch": epoch,
        "segments": [s["name"] for s in new_segs],
        "events_read": events_read,
        "partitions_touched": len(staged),
        "events_dropped_late": exchange.dropped_late,
        "noop": False,
        "seconds": time.perf_counter() - t0,
        "phase_seconds": exchange.phase_seconds,
    }


def tail(
    lake_dir: str | Path,
    log_dir: str | Path,
    table: str = "sequences",
    cfg: EngineConfig | None = None,
    poll_interval: float = 1.0,
    idle_rounds_to_stop: int = 3,
    max_rounds: int | None = None,
    remote_log_dir: str | Path | None = None,
    transport=None,
) -> dict:
    """Continuous WAL-tail mode: poll the segment manifest, ingest
    whatever is new, repeat — the streaming face of the same exactly-once
    batch machinery (each round is one atomic epoch; a crash at any point
    resumes exactly like single-shot ingest). Stops after
    ``idle_rounds_to_stop`` consecutive empty polls (or ``max_rounds``).

    Reference analog: the monthly re-run loop a human performs
    (README.md:23-24), collapsed to an in-process poller. Producers append
    segments + atomically replace manifest.json; no other coordination.
    """
    cfg = cfg or EngineConfig()
    rounds, idle, epochs = 0, 0, []
    total_events = 0
    while True:
        rounds += 1
        if remote_log_dir is not None:
            # S3/S4 live: mirror the remote log first (resume-capable
            # fetch — a dropped transfer continues from its .part
            # offset next round; already-final segments no-op)
            from rfb_cnpj_etl_ray.sources.fetcher import (
                fetch_manifest_segments,
            )

            try:
                fetch_manifest_segments(remote_log_dir, log_dir,
                                        transport=transport)
            except FileNotFoundError:
                pass  # remote manifest not published yet
        try:
            report = ingest(lake_dir, log_dir, table=table, cfg=cfg)
        except FileNotFoundError:
            report = {"noop": True}  # manifest not written yet
        if report.get("noop"):
            idle += 1
            if idle >= idle_rounds_to_stop:
                break
        else:
            idle = 0
            epochs.append(report["epoch"])
            total_events += report["events_read"]
        if max_rounds is not None and rounds >= max_rounds:
            break
        time.sleep(poll_interval)
    return {"rounds": rounds, "epochs": epochs, "events_applied": total_events}


def read_lake(
    lake_dir: str | Path,
    table: str = "sequences",
    include_tombstones: bool = False,
    columns: list[str] | None = None,
    as_of: int | None = None,
) -> "ray.data.Dataset":
    """Committed state as a streaming Dataset (public payload view).

    ``as_of`` time-travels to a historical epoch's commit (the layout
    is immutable-by-epoch, so an old commit's file list IS that
    snapshot). Readable as long as the epoch's data files survive GC
    (``gc_snapshots(keep_commits=K)`` retains the last K epochs); a
    pruned epoch raises with the missing file named rather than
    returning partial state.

    CoW tables stream straight off the snapshot files (with ``columns``
    pruned at the read). A table with pending deltas (write_mode="delta")
    needs the merge-on-read fold, so partitions are loaded by
    per-partition tasks instead (the fold needs doc_id+_lsn regardless;
    projection happens after)."""
    snap = CommitLog(Path(lake_dir) / table).snapshot(as_of)
    if as_of is not None:
        snap.require_files()
    return read_snapshot(snap, include_tombstones, columns)


def read_snapshot(snap: Snapshot, include_tombstones: bool = False,
                  columns: list[str] | None = None) -> "ray.data.Dataset":
    """``read_lake`` of a snapshot the caller already holds, so an
    operation reads the very state it planned from."""
    int_sch = internal_schema(snap.schema)
    if not snap.deltas_pending:
        # no deltas: each partition is its one base snapshot
        files = [str(snap.table_dir / rels[0]) for rels in snap.files.values()]
        read_cols = None
        if columns is not None and not include_tombstones:
            need = set(columns) | {INTERNAL_DELETED}
            read_cols = [f.name for f in int_sch if f.name in need]
        # partitioning=None: the hive-style part=NNNN layout is an
        # internal placement detail, not a user-facing column. Column
        # pruning happens right after the read (Ray 2.49's columns= is
        # incompatible with both partitioning=None and an explicit
        # unified schema); the projection drops columns before anything
        # crosses the object store.
        if not files:
            # a freshly-initialized empty table has only file-less
            # partition holes; read_parquet([]) would raise
            ds = ray.data.from_arrow(int_sch.empty_table())
        else:
            ds = ray.data.read_parquet(
                files, schema=int_sch, partitioning=None)
        if read_cols is not None:
            ds = ds.select_columns(read_cols)
    else:
        sch_json = schema_to_jsonable(snap.schema)
        tdir = str(snap.table_dir)

        def fold(batch: pa.Table) -> pa.Table:
            from rfb_cnpj_etl_ray.spec import schema_from_jsonable
            from rfb_cnpj_etl_ray.stages.merge import load_partition_state

            isch = internal_schema(schema_from_jsonable(sch_json))
            out = [
                load_partition_state(tdir, row["rels"], isch)
                for row in batch.to_pylist()
            ]
            return pa.concat_tables(out) if out else isch.empty_table()

        items = [{"part": p, "rels": rels} for p, rels in snap.files.items()]
        ds = ray.data.from_items(
            items, override_num_blocks=max(1, len(items))
        ).map_batches(fold, batch_format="pyarrow", batch_size=1)
    if include_tombstones:
        return ds
    ds = ds.map_batches(
        lambda t: strip_internal(t),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if columns is not None:
        # the delta fold path loads full-width rows (the fold needs every
        # column); project here so BOTH paths honor the caller's columns
        ds = ds.select_columns(columns)
    return ds


def lake_changes(
    lake_dir: str | Path,
    from_epoch: int,
    to_epoch: int | None = None,
    table: str = "sequences",
    with_lsn: bool = False,
) -> "ray.data.Dataset":
    """Change-data feed: the net per-key changes between two committed
    epochs, as a streaming Dataset of payload rows plus a ``change_type``
    column (``insert`` / ``update`` / ``delete``; deletes carry the
    pre-image payload, inserts/updates the post-image).

    The commit log makes this cheap at scale: only partitions whose
    committed file list CHANGED between the two epochs are diffed — an
    epoch that touched 3 of 4096 partitions schedules 3 tasks, each
    folding exactly two file lists. The per-partition diff is vectorized
    (``pc.index_in`` on doc_id + lsn compare); same ``_lsn`` implies an
    identical payload by LWW determinism, so unchanged keys are skipped
    without comparing values. Net semantics over the window (like Delta
    Lake CDF reading a compacted range): an upsert later deleted inside
    the window emits nothing.

    ``with_lsn`` appends a ``_change_lsn`` column so the feed can be
    re-ingested as a changelog (lake-to-lake replication): upserts carry
    the winning row LSN; deletes carry the tombstone's LSN, or — when
    compaction already erased the tombstone — the partition's committed
    ``lsn_high`` at ``to_epoch``, which is ≥ the real delete LSN and
    still < every event of any later epoch (the ingest checkpoint only
    admits higher LSNs), so downstream LWW ordering is preserved.

    Reference analog: the patch phase's post-hoc reconciliation
    (db_patch.py:60-87) recomputes state destructively; the commit log's
    immutable epochs let the engine DERIVE the difference instead."""
    log = CommitLog(Path(lake_dir) / table)
    new = log.snapshot(to_epoch)
    old = new if from_epoch == new.epoch else log.snapshot(from_epoch)
    return _changes(old, new, with_lsn)


def _changes(old: Snapshot, new: Snapshot,
             with_lsn: bool = False) -> "ray.data.Dataset":
    """``lake_changes`` between two snapshots of one table."""
    if old.epoch > new.epoch:
        raise ValueError(f"from_epoch {old.epoch} > to_epoch {new.epoch}")
    if old.num_partitions != new.num_partitions:
        # partition-id diffs are meaningless across a repartition_lake:
        # every moved key would surface as a spurious delete+insert pair
        # (and the delete would WIN LWW downstream) — fail loudly;
        # replicate across a repartition with a fresh snapshot bootstrap
        raise ValueError(
            f"change feed across a repartition boundary "
            f"({old.num_partitions} -> {new.num_partitions} partitions "
            f"between epochs {old.epoch} and {new.epoch}) is not supported")
    payload_schema = new.schema
    out_fields = list(payload_schema) + [pa.field("change_type", pa.string())]
    if with_lsn:
        out_fields.append(pa.field("_change_lsn", pa.int64()))
    out_schema = pa.schema(out_fields)
    old.require_files()
    new.require_files()
    touched = [
        p for p in set(old.files) | set(new.files)
        if old.files.get(p) != new.files.get(p)
    ]
    if not touched:
        return ray.data.from_arrow(out_schema.empty_table())
    # fallback LSN for deletes whose tombstone was GC'd by compact: such
    # a tombstone had lsn <= the recorded compaction watermark, and every
    # LATER admitted event has lsn > watermark — so the watermark is the
    # tightest safe bound. lsn_high would overshoot: a late segment
    # between watermark and lsn_high could legitimately resurrect the
    # key, and a feed-shipped delete at lsn_high would wrongly win.
    lsn_highs = {
        int(k): (new.watermark if new.watermark is not None
                 else v.get("lsn_high"))
        for k, v in new.partitions.items()
    }
    sch_json = schema_to_jsonable(payload_schema)
    tdir = str(new.table_dir)

    def diff(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from rfb_cnpj_etl_ray.stages.merge import (
            INTERNAL_DELETED, INTERNAL_LSN, load_partition_state,
            strip_internal,
        )

        isch = internal_schema(schema_from_jsonable(sch_json))
        outs = []
        for row in batch.to_pylist():
            old = load_partition_state(tdir, row["old"], isch)
            new_all = load_partition_state(tdir, row["new"], isch)
            old = old.filter(pc.equal(old[INTERNAL_DELETED], False))
            new = new_all.filter(pc.equal(new_all[INTERNAL_DELETED], False))
            pos = pc.index_in(new["doc_id"], old["doc_id"])
            old_lsn = pc.take(old[INTERNAL_LSN], pos)  # null where absent
            inserted = pc.is_null(pos)
            updated = pc.and_kleene(
                pc.invert(inserted),
                pc.not_equal(new[INTERNAL_LSN], old_lsn))
            for mask, kind in ((inserted, "insert"), (updated, "update")):
                hit = new.filter(pc.fill_null(mask, False))
                sel = strip_internal(hit).append_column(
                    "change_type",
                    pa.array([kind] * hit.num_rows, pa.string()))
                if with_lsn:
                    sel = sel.append_column("_change_lsn", hit[INTERNAL_LSN])
                outs.append(sel)
            gone = pc.is_null(pc.index_in(old["doc_id"], new["doc_id"]))
            hit = old.filter(gone)
            dels = strip_internal(hit).append_column(
                "change_type",
                pa.array(["delete"] * hit.num_rows, pa.string()))
            if with_lsn:
                # tombstone LSN from the new fold; lsn_high fallback when
                # compaction already dropped the tombstone
                tpos = pc.index_in(hit["doc_id"], new_all["doc_id"])
                dlsn = pc.fill_null(
                    pc.take(new_all[INTERNAL_LSN], tpos),
                    row["lsn_high"])
                dels = dels.append_column(
                    "_change_lsn", pc.cast(dlsn, pa.int64()))
            outs.append(dels)
        return (pa.concat_tables(outs) if outs
                else out_schema.empty_table())

    items = [
        {"part": p, "old": old.files.get(p, []), "new": new.files.get(p, []),
         "lsn_high": lsn_highs.get(p)}
        for p in sorted(touched)
    ]
    return ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(diff, batch_format="pyarrow", batch_size=1)


def replicate(
    src_lake: str | Path,
    dst_lake: str | Path,
    table: str = "sequences",
    cfg: EngineConfig | None = None,
    num_partitions: int | None = None,
) -> dict:
    """Lake-to-lake incremental replication: CDC-out chained into CDC-in.

    First call bootstraps with a SNAPSHOT (the src live state, shipped as
    upserts carrying their original winning LSNs); later calls ship only
    ``lake_changes(last_applied, src_latest, with_lsn=True)`` re-encoded
    as a changelog (insert/update → U, delete → D at the tombstone LSN)
    that the downstream lake ingests through the normal exactly-once
    path. Duplicated shipping — crash between ingest and the state-marker
    write, or an impatient re-run — is absorbed by the dst LSN
    checkpoints, so the marker is an optimization, not a correctness
    requirement. dst may use a DIFFERENT partition count than src (keys
    re-hash on ingest).

    Scale shape: incremental rounds read only the src partitions touched
    since the marker; the shipped changelog is written by Ray
    (streaming), its manifest from parquet footers (metadata-only); no
    driver-side data materialization anywhere.

    Reference analog: the monthly full reload (sqlite_builder.py:170-177)
    is the degenerate form of this — re-ship everything, every time."""
    import json as _json

    from rfb_cnpj_etl_ray.state.commitlog import (
        atomic_write_bytes,
        init_lake,
        load_spec,
    )

    t0 = time.perf_counter()
    src_log = CommitLog(Path(src_lake) / table)
    src = src_log.snapshot()
    src_epoch = src.epoch

    dst_dir = Path(dst_lake) / table
    dst_log = CommitLog(dst_dir)
    spec = load_spec(src_lake, table)
    head = dst_log.latest()
    if head is None:
        init_lake(dst_lake, spec, base=None,
                  num_partitions=num_partitions or src.num_partitions)
        head = dst_log.latest()
    dst = Snapshot.of(dst_dir, head)

    state_path = dst_dir / "_replication.json"
    applied = (_json.loads(state_path.read_text())["src_epoch"]
               if state_path.exists() else None)
    if applied is not None and applied >= src_epoch:
        return {"noop": True, "src_epoch": src_epoch, "applied": applied,
                "mode": "up_to_date"}

    ship_dir = dst_dir / "_replication_in" / f"src-epoch-{src_epoch:06d}"
    import shutil

    shutil.rmtree(ship_dir, ignore_errors=True)

    payload_names = [f.name for f in spec.schema]
    if applied is None:
        # snapshot bootstrap: live state as upserts at original LSNs
        state = read_snapshot(src, include_tombstones=True)

        def to_log(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc_

            from rfb_cnpj_etl_ray.stages.merge import (
                INTERNAL_DELETED, INTERNAL_LSN as LSN)

            live = batch.filter(
                pc_.equal(batch[INTERNAL_DELETED], False))
            cols = {"lsn": live[LSN],
                    "op": pa.array(["U"] * live.num_rows, pa.string())}
            for n in payload_names:
                cols[n] = live[n]
            return pa.table(cols)

        mode = "snapshot"
        feed = state.map_batches(to_log, batch_format="pyarrow",
                                zero_copy_batch=True)
    else:
        changes = _changes(src_log.snapshot(applied), src, with_lsn=True)

        def to_log(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc_

            is_del = pc_.equal(batch["change_type"], "delete")
            cols = {"lsn": batch["_change_lsn"],
                    "op": pc_.if_else(is_del, "D", "U")}
            for n in payload_names:
                cols[n] = batch[n]
            return pa.table(cols)

        mode = "incremental"
        feed = changes.map_batches(to_log, batch_format="pyarrow",
                                   zero_copy_batch=True)

    feed.write_parquet(str(ship_dir))
    manifest_from_dir(ship_dir)
    report = _ingest(dst_log, dst, ship_dir, cfg, t0)
    atomic_write_bytes(state_path,
                       _json.dumps({"src_epoch": src_epoch}).encode())
    shutil.rmtree(ship_dir, ignore_errors=True)
    return {"noop": False, "mode": mode, "src_epoch": src_epoch,
            "from_epoch": applied, "events_shipped": report["events_read"],
            "dst_epoch": report["epoch"]}


def read_lake_table(lake_dir: str | Path, table: str = "sequences",
                    as_of: int | None = None) -> pa.Table:
    """Driver-side full read — tests/small tables only."""
    from rfb_cnpj_etl_ray.stages.merge import load_partition_state

    snap = CommitLog(Path(lake_dir) / table).snapshot(as_of)
    if as_of is not None:
        snap.require_files()
    int_sch = internal_schema(snap.schema)
    tables = [
        load_partition_state(str(snap.table_dir), rels, int_sch)
        for rels in snap.files.values()
    ]
    merged = pa.concat_tables(tables) if tables else int_sch.empty_table()
    return strip_internal(merged).sort_by([("doc_id", "ascending")])


def lookup(
    lake_dir: str | Path,
    doc_ids: list[str],
    table: str = "sequences",
) -> pa.Table:
    """Point lookups without a scan: hash each key to its partition, prune
    further by the commit record's doc_id zone maps, then read the hit
    partitions with ``stages.merge.read_keys``: row groups whose doc_id
    statistics exclude every wanted key are skipped, the rest give up
    their key columns only, and a payload row group is read only where a
    key's live winner sits. The engine's secondary-index analog
    (reference builds 18 B-tree indexes instead, sqlite_builder.py:127-168).
    Driver-side: cost grows with the row groups that can hold the keys,
    not with the size of the partitions; no Ray job."""
    from rfb_cnpj_etl_ray.hashing import partition_ids
    from rfb_cnpj_etl_ray.stages.merge import read_keys

    snap = CommitLog(Path(lake_dir) / table).snapshot()
    int_sch = internal_schema(snap.schema)
    parts = partition_ids(doc_ids, snap.num_partitions)
    wanted: dict[int, list[str]] = {}
    for d, p in zip(doc_ids, parts):
        entry = snap.partitions.get(str(int(p)))
        if entry is None:
            continue
        lo, hi = entry.get("doc_id_min"), entry.get("doc_id_max")
        if lo is not None and hi is not None and not (lo <= d <= hi):
            continue  # zone-map prune
        wanted.setdefault(int(p), []).append(d)
    hits = []
    for p, keys in wanted.items():
        hits.append(strip_internal(read_keys(
            str(snap.table_dir), snap.files.get(p, []), int_sch, keys)))
    if not hits:
        return snap.schema.empty_table()
    return pa.concat_tables(hits).sort_by([("doc_id", "ascending")])


def init_lake_distributed(
    lake_dir: str | Path,
    spec: TableSpec,
    base_files: list[str],
    cfg: EngineConfig | None = None,
) -> dict:
    """Epoch-0 init for big base snapshots: partition + write via Ray Data
    (the driver-side ``state.init_lake`` helper is for small/test bases).
    """
    ds = ray.data.read_parquet(base_files, schema=spec.schema)
    return init_lake_from_dataset(lake_dir, spec, ds, cfg=cfg)


def init_lake_from_dataset(
    lake_dir: str | Path,
    spec: TableSpec,
    ds: "ray.data.Dataset",
    cfg: EngineConfig | None = None,
) -> dict:
    """Epoch-0 init from an arbitrary Dataset pipeline (e.g. the CNPJ
    zip→CSV→transform chain): hash-partition by the spec key via the
    staged exchange and commit. Duplicate keys collapse LWW (one row
    survives) — the bulk-load face of the same merge algebra."""
    cfg = cfg or EngineConfig()
    cfg.validate()
    table_dir = Path(lake_dir) / spec.name
    log = CommitLog(table_dir)
    if log.latest() is not None:
        raise RuntimeError(f"lake table {table_dir} already initialized")
    table_dir.mkdir(parents=True, exist_ok=True)
    from rfb_cnpj_etl_ray.state.commitlog import atomic_write_bytes

    atomic_write_bytes(table_dir / "_table_spec.json", spec.to_json().encode())

    with staged_exchange(ds, table_dir, 0, spec.schema, cfg.num_partitions,
                         cfg, prep="base") as exchange:
        # partitions with no base rows get no entry; they get files
        # lazily on first touch.
        record = log.commit_next(
            None, next_partitions(None, exchange.rows, "fold"),
            {"rows_total": sum(r["rows"] for r in exchange.rows)},
            num_partitions=cfg.num_partitions, schema=spec.schema)
    return record


def merge_into(
    lake_dir: str | Path,
    source,
    table: str = "sequences",
    cfg: EngineConfig | None = None,
    delete_missing: bool = False,
    scratch_dir: str | Path | None = None,
    validate_unique: bool = True,
) -> dict:
    """Delta-style MERGE INTO: apply an arbitrary payload dataset to the
    lake as ONE upsert batch at the next LSN — op=U for every source row
    (whole-row replace under the LWW algebra); with ``delete_missing``,
    op=D for every lake key absent from the source, making the call a
    full-snapshot sync (post-state == source exactly).

    Composed from the engine's own primitives, so it inherits their
    scale shape and guarantees: the source STREAMS to a scratch
    change-log directory (never through the driver), a footer-only
    manifest makes it ingestible, the delete set comes from the bucketed
    large-large anti-join (one keyed exchange, no broadcast of the lake
    key set), and the normal ``ingest`` applies the whole batch as one
    atomic, exactly-once epoch. A crash anywhere before the commit
    leaves the table at the previous epoch; re-running ``merge_into``
    regenerates the scratch events (at a fresh LSN — harmless, the fold
    is idempotent for identical payloads) and completes.

    Reference analog: the monthly full reload (drop + re-insert
    everything, ``sqlite_builder.py:170-177``) — expressed here as an
    incremental sync that touches only changed partitions.
    """
    import shutil as _shutil
    import tempfile

    log = CommitLog(Path(lake_dir) / table)
    last = log.snapshot()
    # past BOTH the committed checkpoints and the compaction watermark:
    # events at lsn <= watermark are dropped as late by ingest, so a
    # watermark above lsn_high would silently no-op the whole merge
    lsn0 = max(last.lsn_high or 0, last.watermark or 0) + 1

    if isinstance(source, pa.Table):
        source = ray.data.from_arrow(source)
    payload_schema = last.schema

    scratch = Path(scratch_dir) if scratch_dir is not None else Path(
        tempfile.mkdtemp(prefix=f"merge_into_{table}_"))
    scratch.mkdir(parents=True, exist_ok=True)

    def to_upserts(batch: pa.Table) -> pa.Table:
        cols = {
            "lsn": pa.array(
                np.full(batch.num_rows, lsn0, dtype=np.int64)),
            "op": pa.array(["U"] * batch.num_rows, pa.string()),
        }
        for f in payload_schema:
            cols[f.name] = batch.column(f.name).cast(f.type)
        return pa.table(cols)

    # the source Dataset executes EXACTLY ONCE — this write (ADVICE r4:
    # validating the live source first meant a full extra execution of
    # an arbitrary upstream, and a non-deterministic source could pass
    # validation yet feed different rows to the merge). Everything below
    # (uniqueness check, delete set) re-reads the SPILLED parquet — a
    # snapshot of the very rows the merge will apply.
    source.map_batches(
        to_upserts, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(str(scratch))
    # snapshot the upsert file list NOW: the delete pass appends more
    # files to the same directory, and a lazy directory read could
    # otherwise list its own output
    upsert_files = sorted(str(p) for p in scratch.glob("*.parquet"))

    def _scratch_keys():
        if not upsert_files:
            return ray.data.from_arrow(pa.table(
                {"doc_id": pa.nulls(0, payload_schema.field("doc_id").type)}))
        return ray.data.read_parquet(upsert_files, columns=["doc_id"])

    if validate_unique:
        # every source row gets the SAME lsn0, so duplicate doc_ids would
        # become same-key/same-LSN rows with conflicting payloads — the
        # LWW tie-keep is only idempotent for identical copies and the
        # survivor would depend on block order. Reject loudly (disable
        # for pre-deduplicated sources to skip the extra read).
        # Shape: one pass over the spilled keys — per-batch unique
        # partial that carries its pre-dedup row count → one keyed
        # exchange on doc_id → per-block (distinct, pre) counts → one
        # tiny two-column sum; never O(source) on the driver.
        import pyarrow.compute as _pc

        from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

        def _uniq(t: pa.Table) -> pa.Table:
            u = _pc.unique(t.column("doc_id"))
            pre = np.zeros(len(u), dtype=np.int64)
            if len(u):  # rows==0 -> contributes 0 either way
                pre[0] = t.num_rows
            return pa.table({"doc_id": u, "pre": pa.array(pre)})

        def _counts(t: pa.Table) -> pa.Table:
            return pa.table({
                "n": pa.array(
                    [_pc.count_distinct(t.column("doc_id")).as_py()],
                    pa.int64()),
                "pre": pa.array(
                    [_pc.sum(t.column("pre")).as_py() or 0], pa.int64()),
            })

        part = _scratch_keys().map_batches(
            _uniq, batch_format="pyarrow", zero_copy_batch=True)
        sums = repartition_by_key(part, ["doc_id"]).map_batches(
            _counts, batch_format="pyarrow", batch_size=None
        ).sum(["n", "pre"]) or {}
        n_distinct = sums.get("sum(n)") or 0
        n_total = sums.get("sum(pre)") or 0
        if n_distinct != n_total:
            if scratch_dir is None:
                _shutil.rmtree(scratch, ignore_errors=True)
            raise ValueError(
                f"merge_into source has {n_total - n_distinct} duplicate "
                f"doc_id rows ({n_total} rows, {n_distinct} distinct): "
                "the merge would be nondeterministic under the same-LSN "
                "tie rule — dedup the source first (or pass "
                "validate_unique=False for a known-unique source)")

    if delete_missing:
        from rfb_cnpj_etl_ray.stages.joins import bucketed_anti_join

        lake_keys = read_snapshot(last, columns=["doc_id"])
        gone = bucketed_anti_join(lake_keys, _scratch_keys(),
                                  "doc_id", "doc_id")

        def to_deletes(batch: pa.Table) -> pa.Table:
            cols = {
                "lsn": pa.array(
                    np.full(batch.num_rows, lsn0, dtype=np.int64)),
                "op": pa.array(["D"] * batch.num_rows, pa.string()),
            }
            for f in payload_schema:
                cols[f.name] = (batch.column("doc_id").cast(f.type)
                                if f.name == "doc_id"
                                else pa.nulls(batch.num_rows, f.type))
            return pa.table(cols)

        gone.map_batches(
            to_deletes, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(str(scratch))

    manifest_from_dir(scratch)
    try:
        report = _ingest(log, last, scratch, cfg, time.perf_counter())
    finally:
        if scratch_dir is None:
            _shutil.rmtree(scratch, ignore_errors=True)
    report["merge_lsn"] = lsn0
    report["delete_missing"] = delete_missing
    return report


def lake_token_stats(
    lake_dir: str | Path,
    table: str = "sequences",
    bucket: int = 64,
    as_of: int | None = None,
) -> pa.Table:
    """Training-corpus statistics straight off the committed lake (or a
    time-travel epoch): token-length histogram plus per-bucket doc and
    token totals — the numbers a pre-training data pipeline reads before
    packing (sequence-length curriculum, padding budgets).

    Streams: column-pruned ``read_lake(columns=["n_tok"])``, per-batch
    vectorized bucket counts, then ``tree_fold``; only the folded
    histogram (≤ max_len/bucket rows) reaches the driver."""
    from rfb_cnpj_etl_ray.stages.exchange import sum_by, tree_fold

    ds = read_lake(lake_dir, table, columns=["n_tok"], as_of=as_of)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(
            np.int64)
        b = (n // bucket) * bucket
        uniq, inv = np.unique(b, return_inverse=True)
        docs = np.bincount(inv)
        toks = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(toks, inv, n)
        return pa.table({
            "bucket_lo": pa.array(uniq, pa.int64()),
            "n_docs": pa.array(docs.astype(np.int64), pa.int64()),
            "n_tokens": pa.array(toks, pa.int64()),
        })

    folded = tree_fold(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        sum_by(["bucket_lo"], ["n_docs", "n_tokens"]),
        lambda df: df.sort_values("bucket_lo"),
    ).to_pandas()
    return pa.table({
        name: pa.array(folded[name] if name in folded else [], pa.int64())
        for name in ("bucket_lo", "n_docs", "n_tokens")
    })
