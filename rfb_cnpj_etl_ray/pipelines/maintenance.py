"""Post-commit validation + compaction — the engine's integrity-gate and
index-phase analogs.

Validation mirrors the reference's final FK gate (enable/create
constraints AFTER load+patch; failure = pipeline error,
sqlite_builder.py:109-125, postgres_builder.py:138-184): instead of DB
constraints, a distributed scan asserts the lake's invariants. Runs as
one task per partition — same unit of work as the merge.

Compaction is the (optional) index-phase analog (P9): partition
snapshots are already doc_id-sorted (zone-map-friendly); compaction
additionally drops tombstones below an LSN watermark. GC invariant: once
a tombstone at lsn L is dropped, NO event with lsn <= watermark may ever
be applied again — ingest enforces this by filtering late events below
the recorded ``compaction_watermark`` (real CDC systems make the same
trade; the reference has no deletes at all, it drops the whole DB).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from rfb_cnpj_etl_ray.config import EngineConfig, check_num_partitions
from rfb_cnpj_etl_ray.hashing import partition_ids
from rfb_cnpj_etl_ray.spec import schema_from_jsonable
from rfb_cnpj_etl_ray.stages.merge import (
    INTERNAL_DELETED,
    INTERNAL_LSN,
    internal_schema,
    staged_exchange,
    write_partition_snapshot,
)
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, partition_files


class LakeValidationError(RuntimeError):
    pass


def validate_lake(lake_dir: str | Path, table: str = "sequences",
                  strict: bool = True) -> dict:
    """Distributed invariant scan of the committed lake state:

    1. key uniqueness per partition (hash partitioning makes this global);
    2. placement: every row's hash-partition equals its directory;
    3. payload invariant: n_tok == len(tokens) on live rows;
    4. manifest consistency: file row counts match the commit record.

    Returns a report; with ``strict`` raises LakeValidationError on any
    violation (the reference aborts on FK failure the same way)."""
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commit = log.latest()
    if commit is None:
        raise LakeValidationError(f"no commits in {table_dir}")
    int_sch = internal_schema(schema_from_jsonable(commit["schema"]))
    num_partitions = commit["num_partitions"]
    items = [
        {"part": int(p), "rels": partition_files(v), "rows": int(v["rows"])}
        for p, v in commit["partitions"].items()
    ]

    def check(batch: pa.Table) -> pa.Table:
        import os

        import pyarrow.parquet as pq

        from rfb_cnpj_etl_ray.stages.merge import load_partition_state

        out = []
        for row in batch.to_pylist():
            part, rels, want_rows = row["part"], row["rels"], row["rows"]
            errs = []
            missing = [r for r in rels
                       if not os.path.exists(os.path.join(str(table_dir), r))]
            if missing:
                errs.append("missing_file")
                out.append({"part": part, "violations": errs, "rows": 0})
                continue
            physical = sum(
                pq.read_metadata(os.path.join(str(table_dir), r)).num_rows
                for r in rels
            )
            if physical != want_rows:
                errs.append(f"rowcount:{physical}!={want_rows}")
            # logical (merge-on-read folded) state for the content checks
            t = load_partition_state(str(table_dir), rels, int_sch)
            keys = t.column("doc_id")
            if t.num_rows and len(keys.unique()) != t.num_rows:
                errs.append("duplicate_keys")
            if t.num_rows:
                parts = partition_ids(keys, num_partitions)
                if not (parts == part).all():
                    errs.append("misplaced_rows")
            live = t.filter(pc.equal(t[INTERNAL_DELETED], False))
            if live.num_rows and "n_tok" in t.schema.names \
                    and "tokens" in t.schema.names:
                lens = pc.list_value_length(live.column("tokens"))
                ok = pc.equal(lens.cast(pa.int64()),
                              live.column("n_tok").cast(pa.int64()))
                bad = int(pc.sum(pc.invert(pc.fill_null(ok, False))).as_py() or 0)
                null_both = int(pc.sum(pc.and_(
                    pc.is_null(live.column("tokens")),
                    pc.is_null(live.column("n_tok")))).as_py() or 0)
                if bad > null_both:  # both-null rows are consistent
                    errs.append(f"n_tok_mismatch:{bad - null_both}")
            out.append({"part": part, "violations": errs, "rows": t.num_rows})
        return pa.Table.from_pylist(out, schema=pa.schema(
            [pa.field("part", pa.int32()),
             pa.field("violations", pa.list_(pa.string())),
             pa.field("rows", pa.int64())]
        ))

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    results = ds.map_batches(check, batch_format="pyarrow", batch_size=1).take_all()
    violations = {r["part"]: r["violations"] for r in results if r["violations"]}
    report = {
        "table": table,
        "epoch": commit["epoch"],
        "partitions_checked": len(results),
        "rows_total": sum(r["rows"] for r in results),
        "violations": violations,
        "ok": not violations,
    }
    if strict and violations:
        raise LakeValidationError(f"lake invariants violated: {violations}")
    return report


def repartition_lake(
    lake_dir: str | Path,
    new_num_partitions: int,
    table: str = "sequences",
    cfg: EngineConfig | None = None,
) -> dict:
    """Change the table's hash-partition count (e.g. 2× when partitions
    outgrow a merge task's memory as the table grows toward 100 TB).

    Runs as one epoch of the normal staged exchange: every current
    partition's folded state is re-routed under the new modulus and
    re-merged — all existing machinery (atomic snapshots, commit record)
    applies; the commit flips ``num_partitions`` so subsequent ingests
    route with the new modulus. Tombstones and per-row ``_lsn`` travel
    along, so replay semantics are unchanged."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    check_num_partitions(new_num_partitions)
    cfg = cfg or EngineConfig()
    t0 = time.perf_counter()
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commit = log.latest()
    if commit is None:
        raise RuntimeError(f"no commits in {table_dir}")
    epoch = commit["epoch"] + 1
    # phase 1 re-routes the folded committed state (tombstones included)
    # under the NEW modulus; phase 2 writes each new partition's snapshot
    state = read_lake(lake_dir, table, include_tombstones=True)
    with staged_exchange(state, table_dir, epoch,
                         schema_from_jsonable(commit["schema"]),
                         new_num_partitions, cfg, prep="state") as exchange:
        staged = exchange.rows
        log.append({
            "epoch": epoch,
            "table": table,
            "num_partitions": new_num_partitions,
            "schema": commit["schema"],
            "partitions": {
                str(r["part"]): {
                    "file": r["file"], "rows": r["rows"],
                    "live_rows": r["live_rows"], "bytes": r["bytes"],
                    "lsn_high": r["lsn_high"], "events_applied": 0,
                    "doc_id_min": r["doc_id_min"],
                    "doc_id_max": r["doc_id_max"],
                }
                for r in staged
            },
            "segments": commit.get("segments", []),
            "parent": commit["epoch"],
            **({"compaction_watermark": commit["compaction_watermark"]}
               if commit.get("compaction_watermark") is not None else {}),
            "metrics": {"repartitioned_from": commit["num_partitions"],
                        "seconds": round(time.perf_counter() - t0, 3)},
        })
    return {"epoch": epoch, "num_partitions": new_num_partitions,
            "partitions_written": len(staged)}


def gc_snapshots(lake_dir: str | Path, table: str = "sequences",
                 keep_commits: int = 2,
                 tmp_grace_seconds: float = 900.0) -> dict:
    """Delete partition files no longer referenced by the last
    ``keep_commits`` commit records (plus leftover staging/tmp debris).
    CoW epochs supersede whole snapshots, so without GC a long-running
    table accumulates one full copy per epoch. Time-travel window =
    ``keep_commits``; the commit log itself (tiny JSON) is never pruned.

    Safe to run concurrently with a live writer: a writer materializes
    its epoch-N+1 files (and tmp files) in the part dirs BEFORE appending
    the commit record, so GC only deletes data files whose epoch —
    encoded in the ``epoch-NNNNNN`` / ``delta-NNNNNN`` filename — is
    ``<=`` the newest COMMITTED epoch (uncommitted future epochs are
    invisible to it), and only unlinks ``.tmp-*`` files older than
    ``tmp_grace_seconds`` (a live writer's tmps are seconds old; a
    crashed writer's are hours old)."""
    import json as _json
    import time as _time

    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commits = log.commits()
    if not commits:
        raise RuntimeError(f"no commits in {table_dir}")
    keep = max(1, keep_commits)
    referenced: set[str] = set()
    for path in commits[-keep:]:
        rec = _json.loads(path.read_text())
        for v in rec["partitions"].values():
            referenced.update(partition_files(v))
    newest_epoch = log.latest_epoch()
    removed, freed = 0, 0
    for f in sorted(table_dir.glob("part=*/[de]*.parquet")):
        rel = str(f.relative_to(table_dir))
        try:
            file_epoch = int(f.stem.split("-")[1])
        except (IndexError, ValueError):
            continue  # not an engine data file — never touch it
        if rel not in referenced and file_epoch <= newest_epoch:
            freed += f.stat().st_size
            f.unlink()
            removed += 1
    # stale temp files from CRASHED writers only: a live writer's tmps
    # are younger than the grace window and survive this pass
    import shutil as _shutil

    now = _time.time()
    for t in table_dir.glob("part=*/*.tmp-*"):
        try:
            st = t.stat()
        except FileNotFoundError:
            continue  # a concurrent writer just renamed/removed it
        if now - st.st_mtime < tmp_grace_seconds:
            continue
        freed += st.st_size
        t.unlink(missing_ok=True)
        removed += 1
    for s in (table_dir / "_staging").glob("epoch-*"):
        if int(s.name.split("-")[1]) <= newest_epoch:
            _shutil.rmtree(s, ignore_errors=True)
    return {"removed_files": removed, "freed_bytes": freed,
            "kept_commits": keep}


def compact_deltas(
    lake_dir: str | Path,
    table: str = "sequences",
    min_delta_ratio: float = 0.2,
    min_delta_rows: int = 0,
    cfg: EngineConfig | None = None,
) -> dict:
    """Size-tiered delta folding: rewrite ONLY partitions whose
    accumulated delta rows exceed ``min_delta_ratio`` × base rows (and
    ``min_delta_rows``); everything else keeps its merge-on-read deltas
    untouched. Unlike :func:`compact`, no tombstone GC happens and no
    watermark is recorded — this is the steady-state maintenance that
    amortizes fold cost across epochs instead of paying a periodic
    full-table rewrite spike (LSM size-tiered compaction, applied to the
    per-partition delta stacks)."""
    cfg = cfg or EngineConfig()
    t0 = time.perf_counter()
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commit = log.latest()
    if commit is None:
        raise RuntimeError(f"no commits in {table_dir}")
    int_sch = internal_schema(schema_from_jsonable(commit["schema"]))
    epoch = commit["epoch"] + 1

    import pyarrow.parquet as pq_

    items = []
    for p, v in commit["partitions"].items():
        deltas = [d for d in v.get("deltas", []) if d is not None]
        if not deltas:
            continue
        base_file = v.get("file")
        # size the tier from parquet FOOTER row counts (driver-side
        # metadata stats; one small read per candidate partition — only
        # partitions that actually carry deltas are opened)
        base_rows = (
            pq_.read_metadata(table_dir / base_file).num_rows
            if base_file is not None else 0
        )
        d_rows = sum(pq_.read_metadata(table_dir / d).num_rows for d in deltas)
        if d_rows < min_delta_rows:
            continue
        if base_rows and d_rows < min_delta_ratio * base_rows:
            continue
        items.append({"part": int(p), "rels": partition_files(v)})

    if not items:
        return {"epoch": commit["epoch"], "partitions_folded": 0,
                "noop": True}

    def fold(batch: pa.Table) -> pa.Table:
        from rfb_cnpj_etl_ray.stages.merge import load_partition_state

        # the fold is lww_reduce output (or one snapshot/delta file that
        # was written from it), so it is already doc_id-sorted
        return pa.Table.from_pylist([
            write_partition_snapshot(
                load_partition_state(str(table_dir), row["rels"], int_sch),
                table_dir, row["part"], epoch,
                compression=cfg.compression,
                row_group_size=cfg.row_group_size)
            for row in batch.to_pylist()
        ])

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    results = ds.map_batches(fold, batch_format="pyarrow",
                             batch_size=1).take_all()
    partitions = dict(commit["partitions"])
    for r in results:
        old = dict(partitions[str(r["part"])])
        old.update({
            "file": r["file"], "rows": r["rows"], "live_rows": r["live_rows"],
            "bytes": r["bytes"], "doc_id_min": r["doc_id_min"],
            "doc_id_max": r["doc_id_max"],
        })
        old.pop("deltas", None)
        partitions[str(r["part"])] = old
    log.append({
        "epoch": epoch,
        "table": table,
        "num_partitions": commit["num_partitions"],
        "schema": commit["schema"],
        "partitions": partitions,
        "segments": commit.get("segments", []),
        "parent": commit["epoch"],
        **({"compaction_watermark": commit["compaction_watermark"]}
           if commit.get("compaction_watermark") is not None else {}),
        "metrics": {"partitions_folded": len(results),
                    "seconds": round(time.perf_counter() - t0, 3)},
    })
    return {"epoch": epoch, "partitions_folded": len(results), "noop": False}


def compact(lake_dir: str | Path, table: str = "sequences",
            watermark_lsn: int | None = None,
            cfg: EngineConfig | None = None) -> dict:
    """Rewrite partitions dropping tombstones with _lsn <= watermark
    (default: the table's max committed lsn — full tombstone GC). Commits
    a new epoch recording ``compaction_watermark``; subsequent ingests
    refuse to apply events at or below it (GC safety)."""
    cfg = cfg or EngineConfig()
    t0 = time.perf_counter()
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    commit = log.latest()
    if commit is None:
        raise RuntimeError(f"no commits in {table_dir}")
    int_sch = internal_schema(schema_from_jsonable(commit["schema"]))
    if watermark_lsn is None:
        highs = [v["lsn_high"] for v in commit["partitions"].values()
                 if v.get("lsn_high") is not None]
        watermark_lsn = max(highs) if highs else 0
    epoch = commit["epoch"] + 1
    items = [{"part": int(p), "rels": partition_files(v)}
             for p, v in commit["partitions"].items()]

    def rewrite(batch: pa.Table) -> pa.Table:
        from rfb_cnpj_etl_ray.stages.merge import load_partition_state

        rows = []
        for row in batch.to_pylist():
            part, rels = row["part"], row["rels"]
            # fold base + deltas (merge-on-read) into one snapshot, then GC
            t = load_partition_state(str(table_dir), rels, int_sch)
            drop = pc.and_(
                pc.equal(t[INTERNAL_DELETED], True),
                pc.less_equal(t[INTERNAL_LSN], watermark_lsn),
            )
            kept = t.filter(pc.invert(drop))
            written = write_partition_snapshot(
                kept, table_dir, part, epoch, compression=cfg.compression,
                row_group_size=cfg.row_group_size)
            rows.append({**written, "dropped": t.num_rows - kept.num_rows})
        return pa.Table.from_pylist(rows)

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    results = ds.map_batches(rewrite, batch_format="pyarrow", batch_size=1).take_all()

    partitions = dict(commit["partitions"])
    dropped = 0
    for r in results:
        old = partitions[str(r["part"])]
        entry = {
            **old, "file": r["file"], "rows": r["rows"],
            "live_rows": r["live_rows"], "bytes": r["bytes"],
            "doc_id_min": r["doc_id_min"], "doc_id_max": r["doc_id_max"],
        }
        entry.pop("deltas", None)  # deltas folded into the new snapshot
        partitions[str(r["part"])] = entry
        dropped += r["dropped"]
    log.append({
        "epoch": epoch,
        "table": table,
        "num_partitions": commit["num_partitions"],
        "schema": commit["schema"],
        "partitions": partitions,
        "segments": commit.get("segments", []),
        "parent": commit["epoch"],
        "compaction_watermark": int(watermark_lsn),
        "metrics": {"tombstones_dropped": dropped,
                    "seconds": round(time.perf_counter() - t0, 3)},
    })
    return {"epoch": epoch, "watermark_lsn": int(watermark_lsn),
            "tombstones_dropped": dropped}


# ---------------------------------------------------------------------------
# per-partition lineage: which epochs/segments produced each partition
# ---------------------------------------------------------------------------

def partition_lineage(lake_dir: str | Path, table: str = "sequences",
                      part: int | None = None) -> dict:
    """Walk the commit log and reconstruct, per partition, the chain of
    epochs that changed it — file written, row/LSN watermarks, events
    applied and the log segments that fed that epoch.

    This is the audit trail the north rule's "per-partition lineage"
    asks for: every byte in the lake traces to (epoch → segment set →
    partition file), all from the commit records alone — no data files
    are opened, so the call is O(commits), not O(data).
    """
    log = CommitLog(Path(lake_dir) / table)
    records = [json.loads(p.read_text()) for p in log.commits()]
    if not records:
        raise RuntimeError(f"no commits for table {table!r} in {lake_dir}")
    chains: dict[str, list[dict]] = {}
    prev_parts: dict = {}
    for rec in records:
        seg_new = rec.get("metrics", {}).get("segments_this_epoch", [])
        for pkey, info in rec.get("partitions", {}).items():
            if part is not None and int(pkey) != part:
                continue
            if prev_parts.get(pkey) == info:
                continue  # untouched this epoch
            chains.setdefault(pkey, []).append({
                "epoch": rec["epoch"],
                "file": info.get("file"),
                "deltas": info.get("deltas", []),
                "rows": info.get("rows"),
                "lsn_high": info.get("lsn_high"),
                "events_applied": info.get("events_applied"),
                "segments_this_epoch": seg_new,
            })
        prev_parts = rec.get("partitions", {})
    head = records[-1]
    return {
        "table": table,
        "head_epoch": head["epoch"],
        "num_partitions": head["num_partitions"],
        "partitions": chains,
    }
