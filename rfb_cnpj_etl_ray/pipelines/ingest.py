"""The flagship pipeline: change-log replay → transactional lake upsert.

Ray-Data-native re-expression of the reference's whole load phase
(orchestrator.py:23-124: validate → build → load → patch → index → FK),
replacing monthly drop-and-reload (sqlite_builder.py:170-177) with
incremental, exactly-once, resumable replay:

    validate manifest            (zip_metadata.py:16-58 analog)
    select uncommitted segments  (resume; .part/Range analog, cnpj_downloader.py:84-96)
    evolve schema                (north-rule addition; declared SCHEMA analog)
    read_parquet(segments)       (streaming, schema-unified at read)
    staged_exchange:             (stages/merge.py — the one exchange)
      phase 1 map_batches        (routing + partial LWW reduce → staged chunks)
      [phase 2a per salt bucket] (optional hot-partition stage, plain tasks)
      phase 2 per partition      (plain tasks: fold with committed state → snapshot)
    commit-log append            (single atomic synchronization point)

Only phase 1 is a Dataset (the one streaming pass over events of any
volume); phases 2a and 2 are one plain Ray task per bucket or partition
(``stages.exchange.run_tasks``). Never materializes the event stream on
the driver: the only driver-side collects are the tiny per-task stage
stats and the per-partition manifest rows (≤ num_partitions).
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
    staged_exchange,
    strip_internal,
)
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, partition_files
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
    cfg = cfg or EngineConfig()
    cfg.validate()
    t0 = time.perf_counter()
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    last = log.latest()
    if last is None:
        raise RuntimeError(f"lake table {table_dir} not initialized (run init_lake first)")
    num_partitions = last["num_partitions"]
    committed_segments = set(last.get("segments", []))
    current_schema = schema_from_jsonable(last["schema"])

    validate_segments(log_dir, strict=True)
    manifest = read_manifest(log_dir)

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
            "epoch": last["epoch"], "segments": [], "events_read": 0,
            "noop": True, "seconds": time.perf_counter() - t0,
        }
    paths = [str(Path(log_dir) / s["name"]) for s in new_segs]
    events_read = sum(s["rows"] for s in new_segs)

    # --- schema evolution at the read boundary ---------------------------
    payload_schema = current_schema
    for p in paths:
        seg_schema = pq.read_schema(p)
        seg_payload = pa.schema(
            [f for f in seg_schema if f.name not in ("lsn", "op")]
        )
        payload_schema = evolve_schema(payload_schema, seg_payload)
    change_schema = pa.schema(
        [pa.field("lsn", pa.int64()), pa.field("op", pa.string())]
        + list(payload_schema)
    )

    epoch = last["epoch"] + 1
    reporter = None
    if cfg.progress:
        from rfb_cnpj_etl_ray.progress import ProgressReporter

        reporter = ProgressReporter(total=events_read,
                                    label=f"{table} epoch {epoch}")
    try:
        ds = ray.data.read_parquet(paths, schema=change_schema)
        with staged_exchange(
            ds, table_dir, epoch, payload_schema, num_partitions, cfg,
            write_mode=cfg.write_mode,
            current_files={int(k): partition_files(v)
                           for k, v in last["partitions"].items()},
            min_lsn_exclusive=last.get("compaction_watermark"),
            progress_counter=(reporter.counter if reporter else None),
            t0=t0,
        ) as exchange:
            t_staged = time.perf_counter()
            if cfg.fail_before_commit:
                raise RuntimeError(
                    "injected failure before commit (cfg.fail_before_commit)")
            staged = exchange.rows
            partitions = _next_partitions(last["partitions"], staged,
                                          cfg.write_mode)
            record = {
                "epoch": epoch,
                "table": table,
                "num_partitions": num_partitions,
                "schema": schema_to_jsonable(payload_schema),
                "partitions": partitions,
                "segments": sorted(committed_segments
                                   | {seg_id(s) for s in new_segs}),
                "parent": last["epoch"],
                **(
                    {"compaction_watermark": last["compaction_watermark"]}
                    if last.get("compaction_watermark") is not None else {}
                ),
                "metrics": {
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
                },
            }
            log.append(record)
    finally:
        # a failed epoch must not leak the progress render thread /
        # counter actor (they would print forever in a tail loop)
        if reporter is not None:
            reporter.stop()
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


def _next_partitions(prev_partitions: dict, staged: list[dict],
                     write_mode: str) -> dict:
    """The next commit's partition map: ``prev_partitions`` with each
    phase-2 manifest row in ``staged`` applied."""
    partitions = dict(prev_partitions)
    for row in staged:
        prev = partitions.get(str(row["part"]), {})
        # checkpoint never regresses: a LATE lower-LSN segment applied in
        # a later epoch must not pull lsn_high below rows already
        # materialized at higher LSNs (merge_into / compact / lake_changes
        # all key off this watermark)
        lsn_high = max(
            (x for x in (prev.get("lsn_high"), row["lsn_high"])
             if x is not None),
            default=None)
        if write_mode == "delta":
            # merge-on-read: keep the base snapshot, append the delta;
            # physical rows accumulate, logical live count is unknown
            # until the next fold (compact / cow epoch / read). Every
            # committed file carries its bounds (None only when it has
            # no rows), so the merged zone map is their union.
            mins = [m for m in (prev.get("doc_id_min"), row["doc_id_min"])
                    if m is not None]
            maxs = [m for m in (prev.get("doc_id_max"), row["doc_id_max"])
                    if m is not None]
            # first write into a hole (partition with no committed file —
            # possible after init_lake_distributed on an untouched
            # partition): the delta IS the partition's complete LWW state,
            # so promote it to the base snapshot instead of recording a
            # null base that readers would crash on.
            base_file = prev.get("file")
            new_deltas = list(prev.get("deltas", []))
            if base_file is None and not new_deltas:
                base_file = row["file"]
            else:
                new_deltas.append(row["file"])
            partitions[str(row["part"])] = {
                "file": base_file,
                "deltas": new_deltas,
                "rows": int(prev.get("rows", 0)) + row["rows"],
                "live_rows": None,
                "bytes": int(prev.get("bytes", 0)) + row["bytes"],
                "lsn_high": lsn_high,
                "events_applied": row["events_applied"],
                "doc_id_min": min(mins) if mins else None,
                "doc_id_max": max(maxs) if maxs else None,
            }
        else:
            partitions[str(row["part"])] = {
                "file": row["file"],
                "rows": row["rows"],
                "live_rows": row["live_rows"],
                "bytes": row["bytes"],
                "lsn_high": lsn_high,
                "events_applied": row["events_applied"],
                "doc_id_min": row["doc_id_min"],
                "doc_id_max": row["doc_id_max"],
            }
    return partitions


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
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    if as_of is not None and log.commit_at(as_of) is None:
        raise RuntimeError(
            f"epoch {as_of} was never committed in {table_dir} "
            f"(latest epoch: {log.latest_epoch()})")
    payload_schema = log.committed_schema(as_of)
    int_sch = internal_schema(payload_schema)
    if as_of is not None:
        _require_epoch_files(table_dir, log, as_of)
    if not log.has_deltas(as_of):
        files = [str(p) for p in log.current_files(as_of).values()]
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
        from rfb_cnpj_etl_ray.spec import schema_to_jsonable

        file_lists = log.partition_file_lists(as_of)
        sch_json = schema_to_jsonable(payload_schema)
        tdir = str(table_dir)

        def fold(batch: pa.Table) -> pa.Table:
            from rfb_cnpj_etl_ray.spec import schema_from_jsonable
            from rfb_cnpj_etl_ray.stages.merge import load_partition_state

            isch = internal_schema(schema_from_jsonable(sch_json))
            out = [
                load_partition_state(tdir, row["rels"], isch)
                for row in batch.to_pylist()
            ]
            return pa.concat_tables(out) if out else isch.empty_table()

        items = [{"part": p, "rels": rels} for p, rels in file_lists.items()]
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


def _require_epoch_files(table_dir: Path, log: "CommitLog", epoch: int) -> None:
    """Fail fast (naming the pruned file) when a time-travel epoch's data
    files were garbage-collected. Driver-side stat per partition — cheap
    metadata, no data read."""
    for rels in log.partition_file_lists(epoch).values():
        for rel in rels:
            if not (table_dir / rel).exists():
                raise RuntimeError(
                    f"epoch {epoch} is outside the GC retention window: "
                    f"{table_dir / rel} was pruned (gc_snapshots "
                    f"keep_commits). Latest epoch: {log.latest_epoch()}")


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
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    to_epoch = log.latest_epoch() if to_epoch is None else to_epoch
    for ep in (from_epoch, to_epoch):
        if log.commit_at(ep) is None:
            raise RuntimeError(
                f"epoch {ep} was never committed in {table_dir} "
                f"(latest epoch: {log.latest_epoch()})")
    if from_epoch > to_epoch:
        raise ValueError(f"from_epoch {from_epoch} > to_epoch {to_epoch}")
    old_np = log.commit_at(from_epoch)["num_partitions"]
    new_np = log.commit_at(to_epoch)["num_partitions"]
    if old_np != new_np:
        # partition-id diffs are meaningless across a repartition_lake:
        # every moved key would surface as a spurious delete+insert pair
        # (and the delete would WIN LWW downstream) — fail loudly;
        # replicate across a repartition with a fresh snapshot bootstrap
        raise ValueError(
            f"change feed across a repartition boundary "
            f"({old_np} -> {new_np} partitions between epochs "
            f"{from_epoch} and {to_epoch}) is not supported")
    payload_schema = log.committed_schema(to_epoch)
    int_sch = internal_schema(payload_schema)
    out_fields = list(payload_schema) + [pa.field("change_type", pa.string())]
    if with_lsn:
        out_fields.append(pa.field("_change_lsn", pa.int64()))
    out_schema = pa.schema(out_fields)
    old_lists = log.partition_file_lists(from_epoch)
    new_lists = log.partition_file_lists(to_epoch)
    for ep in (from_epoch, to_epoch):
        _require_epoch_files(table_dir, log, ep)
    touched = [
        p for p in set(old_lists) | set(new_lists)
        if old_lists.get(p) != new_lists.get(p)
    ]
    if not touched:
        return ray.data.from_arrow(out_schema.empty_table())
    to_commit = log.commit_at(to_epoch)  # validated non-None above
    # fallback LSN for deletes whose tombstone was GC'd by compact: such
    # a tombstone had lsn <= the recorded compaction watermark, and every
    # LATER admitted event has lsn > watermark — so the watermark is the
    # tightest safe bound. lsn_high would overshoot: a late segment
    # between watermark and lsn_high could legitimately resurrect the
    # key, and a feed-shipped delete at lsn_high would wrongly win.
    wm = to_commit.get("compaction_watermark")
    lsn_highs = {
        int(k): (wm if wm is not None else v.get("lsn_high"))
        for k, v in to_commit["partitions"].items()
    }
    sch_json = schema_to_jsonable(payload_schema)
    tdir = str(table_dir)

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
        {"part": p, "old": old_lists.get(p, []), "new": new_lists.get(p, []),
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
    from rfb_cnpj_etl_ray.state.manifest import manifest_from_dir
    from rfb_cnpj_etl_ray.stages.merge import INTERNAL_LSN

    src_dir = Path(src_lake) / table
    src_log = CommitLog(src_dir)
    src_epoch = src_log.latest_epoch()
    if src_epoch < 0:
        raise RuntimeError(f"source lake table {src_dir} not initialized")

    dst_dir = Path(dst_lake) / table
    dst_log = CommitLog(dst_dir)
    spec = load_spec(src_lake, table)
    if dst_log.latest() is None:
        init_lake(dst_lake, spec, base=None,
                  num_partitions=num_partitions
                  or src_log.latest()["num_partitions"])
        dst_log = CommitLog(dst_dir)

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
        snap = read_lake(src_lake, table=table, include_tombstones=True)

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
        feed = snap.map_batches(to_log, batch_format="pyarrow",
                                zero_copy_batch=True)
    else:
        changes = lake_changes(src_lake, applied, src_epoch, table=table,
                               with_lsn=True)

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
    report = ingest(dst_lake, ship_dir, table=table, cfg=cfg)
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

    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    if as_of is not None:
        if log.commit_at(as_of) is None:
            raise RuntimeError(
                f"epoch {as_of} was never committed in {table_dir} "
                f"(latest epoch: {log.latest_epoch()})")
        _require_epoch_files(table_dir, log, as_of)
    payload = log.committed_schema(as_of)
    int_sch = internal_schema(payload)
    tables = [
        load_partition_state(str(table_dir), rels, int_sch)
        for rels in log.partition_file_lists(as_of).values()
    ]
    merged = pa.concat_tables(tables) if tables else int_sch.empty_table()
    return strip_internal(merged).sort_by([("doc_id", "ascending")])


def lookup(
    lake_dir: str | Path,
    doc_ids: list[str],
    table: str = "sequences",
) -> pa.Table:
    """Point lookups without a scan: hash each key to its partition, prune
    further by the commit record's doc_id zone maps, fold only the files
    of the partitions actually hit. The engine's secondary-index analog
    (reference builds 18 B-tree indexes instead, sqlite_builder.py:127-168).
    Driver-side: O(|hit partitions|) file reads, no Ray job."""
    from rfb_cnpj_etl_ray.hashing import partition_ids
    from rfb_cnpj_etl_ray.stages.merge import load_partition_state

    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commit = log.latest()
    if commit is None:
        raise RuntimeError(f"lake table {table_dir} not initialized")
    payload = log.committed_schema()
    int_sch = internal_schema(payload)
    parts = partition_ids(doc_ids, commit["num_partitions"])
    wanted: dict[int, list[str]] = {}
    for d, p in zip(doc_ids, parts):
        entry = commit["partitions"].get(str(int(p)))
        if entry is None:
            continue
        lo, hi = entry.get("doc_id_min"), entry.get("doc_id_max")
        if lo is not None and hi is not None and not (lo <= d <= hi):
            continue  # zone-map prune
        wanted.setdefault(int(p), []).append(d)
    hits = []
    for p, keys in wanted.items():
        rels = partition_files(commit["partitions"][str(p)])
        state = load_partition_state(str(table_dir), rels, int_sch)
        import pyarrow.compute as pc_

        sel = state.filter(pc_.is_in(state.column("doc_id"),
                                     value_set=pa.array(keys)))
        hits.append(strip_internal(sel))
    if not hits:
        return payload.empty_table()
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
        staged = exchange.rows
        # partitions with no base rows get no entry; they get files
        # lazily on first touch.
        record = {
            "epoch": 0,
            "table": spec.name,
            "num_partitions": cfg.num_partitions,
            "schema": schema_to_jsonable(spec.schema),
            "partitions": {
                str(r["part"]): {
                    "file": r["file"], "rows": r["rows"],
                    "live_rows": r["live_rows"], "bytes": r["bytes"],
                    "lsn_high": None, "events_applied": 0,
                    "doc_id_min": r["doc_id_min"],
                    "doc_id_max": r["doc_id_max"],
                }
                for r in staged
            },
            "segments": [],
            "parent": None,
            "metrics": {"rows_total": sum(r["rows"] for r in staged)},
        }
        log.append(record)
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

    cfg = cfg or EngineConfig()
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    last = log.latest()
    if last is None:
        raise RuntimeError(
            f"lake table {table_dir} not initialized (run init_lake first)")
    ckpts = log.checkpoint_lsns()
    # past BOTH the committed checkpoints and the compaction watermark:
    # events at lsn <= watermark are dropped as late by ingest, so a
    # watermark above lsn_high would silently no-op the whole merge
    wm = last.get("compaction_watermark") or 0
    lsn0 = max(max(ckpts.values(), default=0), wm) + 1

    if isinstance(source, pa.Table):
        source = ray.data.from_arrow(source)
    payload_schema = schema_from_jsonable(last["schema"])
    payload_names = [f.name for f in payload_schema]

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

        lake_keys = read_lake(lake_dir, table, columns=["doc_id"])
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
        report = ingest(lake_dir, scratch, table=table, cfg=cfg)
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
    vectorized bucket counts, per-block fold; only the histogram
    (≤ max_len/bucket rows per block) ever reaches the driver."""
    import numpy as np
    import pandas as pd

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

    folded = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if folded.empty:
        return pa.table({"bucket_lo": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_tokens": pa.array([], pa.int64())})
    g = folded.groupby("bucket_lo", as_index=False).sum().sort_values(
        "bucket_lo")
    return pa.table({
        "bucket_lo": pa.array(g["bucket_lo"], pa.int64()),
        "n_docs": pa.array(g["n_docs"], pa.int64()),
        "n_tokens": pa.array(g["n_tokens"], pa.int64()),
    })
