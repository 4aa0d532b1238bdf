"""Transactional lake state: partitioned Parquet + atomic commit log.

The exactly-once core. The reference approximates idempotence with DB
tricks (``INSERT OR IGNORE`` — sqlite_loader.py:56, ``ON CONFLICT DO
NOTHING`` — db_patch.py:23-57, post-hoc SQL dedup — db_patch.py:60-87)
and can silently lose a batch on COPY failure (postgres_loader.py:48-59).
The engine makes exactly-once structural instead:

* every ingest epoch writes NEW partition snapshot files with
  deterministic names (``part=K/epoch-{e:06d}.parquet``) via
  write-temp + ``os.replace`` — the reference's atomic-finalize pattern
  (cnpj_downloader.py:169) — so a retried Ray task that recomputes the
  same deterministic content re-renames harmlessly;
* a single JSON commit record per epoch, appended atomically, is the only
  global synchronization point: partitions it doesn't reference do not
  exist, so a crash between staging and commit leaves the table at the
  previous epoch (crash-restart correctness);
* per-partition committed LSN highs in the commit record are the resume
  checkpoint: the next ingest filters events to ``lsn > ckpt[part]``,
  which also absorbs duplicated-batch injection.

Lake layout (resumable output, SURVEY.md §4):

    lake/<table>/
      _table_spec.json
      _commit_log/commit-000000.json …
      part=0000/epoch-000000.parquet …
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from rfb_cnpj_etl_ray.config import check_num_partitions
from rfb_cnpj_etl_ray.hashing import partition_ids
from rfb_cnpj_etl_ray.spec import (
    TableSpec,
    schema_from_jsonable,
    schema_to_jsonable,
)

logger = logging.getLogger(__name__)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_table(table: pa.Table, path: Path) -> int:
    """Write parquet to a temp name then atomically rename; returns bytes.
    Every partition file is zstd in row groups of 64Ki rows (the bound
    on a reader's memory per row group).

    Idempotent under task retry: two attempts computing the same
    deterministic content race only on the final ``os.replace``, which is
    atomic and last-writer-wins with identical bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(table, tmp, compression="zstd", row_group_size=64 * 1024)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


@dataclass(frozen=True)
class Snapshot:
    """One commit record, read once: everything a lake operation needs
    from the log. Every operation takes one snapshot per epoch it names,
    so its schema, file lists and checkpoints all describe the same
    committed state even while a writer appends the next epoch."""

    table_dir: Path
    epoch: int
    num_partitions: int
    #: payload schema (no internal bookkeeping columns)
    schema: pa.Schema
    #: raw commit-record partition entries, keyed by ``str(part)``
    partitions: dict[str, dict]
    #: part -> [base snapshot, *delta files] (relative paths); the
    #: logical partition state is the LWW fold over the list. Partitions
    #: without a file (holes) hold no rows and are omitted.
    files: dict[int, list[str]]
    #: any partition has pending merge-on-read deltas
    deltas_pending: bool
    #: tombstones at or below this LSN were dropped by ``compact``; ingest
    #: refuses events at or below it
    watermark: int | None
    #: identities of every change-log segment applied so far
    segments: list[str]
    metrics: dict

    @classmethod
    def of(cls, table_dir: Path, record: dict) -> "Snapshot":
        # [base snapshot, *delta files]; a file-less hole has neither
        files = {int(k): [f for f in [v.get("file"), *v.get("deltas", [])]
                          if f is not None]
                 for k, v in record["partitions"].items()}
        return cls(
            table_dir=table_dir,
            epoch=record["epoch"],
            num_partitions=record["num_partitions"],
            schema=schema_from_jsonable(record["schema"]),
            partitions=record["partitions"],
            files={k: v for k, v in files.items() if v},
            deltas_pending=any(v.get("deltas")
                               for v in record["partitions"].values()),
            watermark=record.get("compaction_watermark"),
            segments=record.get("segments", []),
            metrics=record.get("metrics", {}),
        )

    @property
    def lsn_high(self) -> int | None:
        """Highest committed event LSN over all partitions (None before
        the first event)."""
        return max((v["lsn_high"] for v in self.partitions.values()
                    if v.get("lsn_high") is not None), default=None)

    def require_files(self) -> None:
        """Fail fast, naming the pruned file, when this epoch's data files
        were garbage-collected (time travel past the ``gc_snapshots``
        window). A driver-side stat per file, no data read."""
        for rels in self.files.values():
            for rel in rels:
                if not (self.table_dir / rel).exists():
                    raise RuntimeError(
                        f"epoch {self.epoch} is outside the GC retention "
                        f"window: {self.table_dir / rel} was pruned "
                        f"(gc_snapshots keep_commits)")


def next_partitions(prev: dict | None, rows: list[dict],
                    mode: str = "cow") -> dict:
    """The one rule for commit-record partition entries: ``prev`` (the
    parent's entries; ``{}`` when the partition ids restart, None for
    epoch 0) with each written file's manifest row in ``rows`` applied.

    ``mode`` names what the rows are:

    * ``"cow"`` — each row is the partition's next full snapshot, after
      applying the row's ``events_applied`` change events;
    * ``"delta"`` — each row is a merge-on-read delta of new events,
      stacked on the partition's current files;
    * ``"fold"`` — each row re-writes the partition's committed state and
      applies no event (init, repartition, compaction), so
      ``events_applied`` is 0.

    The checkpoint ``lsn_high`` never regresses, and epoch 0 has none."""
    partitions = dict(prev or {})
    for row in rows:
        old = partitions.get(str(row["part"]), {})
        # a LATE lower-LSN segment applied in a later epoch must not pull
        # lsn_high below rows already materialized at higher LSNs
        # (merge_into / compact / lake_changes all key off it)
        lsn_high = None if prev is None else max(
            (x for x in (old.get("lsn_high"), row.get("lsn_high"))
             if x is not None),
            default=None)
        entry = {k: row[k] for k in ("file", "rows", "live_rows", "bytes",
                                     "doc_id_min", "doc_id_max")}
        entry["lsn_high"] = lsn_high
        entry["events_applied"] = 0 if mode == "fold" else row["events_applied"]
        if mode == "delta":
            # merge-on-read: keep the base snapshot, append the delta;
            # physical rows accumulate, the live count is unknown until
            # the next fold. Every committed file carries its bounds (None
            # only when it has no rows), so the zone map is their union.
            mins = [m for m in (old.get("doc_id_min"), row["doc_id_min"])
                    if m is not None]
            maxs = [m for m in (old.get("doc_id_max"), row["doc_id_max"])
                    if m is not None]
            # first write into a hole (no committed file — possible after
            # init_lake_from_dataset on an untouched partition): the delta
            # IS the partition's complete LWW state, so it becomes the base
            # snapshot instead of a null base that readers would crash on
            deltas = list(old.get("deltas", []))
            # ``base_rows`` (the base file's physical rows) lets
            # ``compact_deltas`` size the delta tier as rows - base_rows
            # without opening a footer. An entry of an older lake has
            # deltas but no base_rows and stays without one.
            if old.get("file") is None and not deltas:
                base = row["file"]
                entry["base_rows"] = row["rows"]
            else:
                base = old["file"]
                if not deltas:
                    entry["base_rows"] = int(old["rows"])
                elif "base_rows" in old:
                    entry["base_rows"] = old["base_rows"]
                deltas.append(row["file"])
            entry.update({
                "file": base, "deltas": deltas,
                "rows": int(old.get("rows", 0)) + row["rows"],
                "live_rows": None,
                "bytes": int(old.get("bytes", 0)) + row["bytes"],
                "doc_id_min": min(mins) if mins else None,
                "doc_id_max": max(maxs) if maxs else None,
            })
        partitions[str(row["part"])] = entry
    return partitions


class CommitLog:
    """Append-only JSON commit log for one lake table. The record format
    lives in this module only: read it with :meth:`snapshot`, write it
    with :meth:`commit_next`."""

    def __init__(self, table_dir: str | Path):
        self.table_dir = Path(table_dir)
        self.log_dir = self.table_dir / "_commit_log"

    # -- reads -------------------------------------------------------------

    def commits(self) -> list[Path]:
        if not self.log_dir.exists():
            return []
        return sorted(self.log_dir.glob("commit-*.json"))

    def latest(self) -> dict | None:
        paths = self.commits()
        if not paths:
            return None
        return json.loads(paths[-1].read_text())

    def commit_at(self, epoch: int) -> dict | None:
        """The commit record for ``epoch`` (None if never committed).
        Commit JSONs are never pruned (gc_snapshots removes only data
        files), so any historical epoch's METADATA is always readable;
        whether its data files survive depends on the GC retention
        window (``keep_commits``)."""
        path = self.log_dir / f"commit-{epoch:06d}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def snapshot(self, epoch: int | None = None) -> Snapshot:
        """The commit at ``epoch`` (the newest when None), read once."""
        record = self.latest() if epoch is None else self.commit_at(epoch)
        if record is None:
            head = None if epoch is None else self.latest()
            if head is None:
                raise RuntimeError(f"lake table {self.table_dir} not "
                                   "initialized (run init_lake first)")
            raise RuntimeError(
                f"epoch {epoch} was never committed in {self.table_dir} "
                f"(latest epoch: {head['epoch']})")
        return Snapshot.of(self.table_dir, record)

    # -- writes ------------------------------------------------------------

    def commit_next(
        self,
        parent: Snapshot | None,
        partitions: dict,
        metrics: dict,
        *,
        num_partitions: int | None = None,
        schema: pa.Schema | None = None,
        segments: list[str] | None = None,
        watermark: int | None = None,
    ) -> dict:
        """Append the commit that follows ``parent`` (epoch 0 when None)
        and return its record. ``partitions`` comes from
        :func:`next_partitions`. Fields left out carry over from the
        parent: partition count, payload schema, applied segments and the
        compaction watermark. Logs one INFO line with the table, the
        epoch and the scalar metrics (lists such as the epoch's segment
        names are left out)."""
        if parent is not None:
            num_partitions = num_partitions or parent.num_partitions
            schema = parent.schema if schema is None else schema
            segments = parent.segments if segments is None else segments
            watermark = parent.watermark if watermark is None else watermark
        record = {
            "epoch": 0 if parent is None else parent.epoch + 1,
            "parent": None if parent is None else parent.epoch,
            "table": self.table_dir.name,
            "num_partitions": num_partitions,
            "schema": schema_to_jsonable(schema),
            "partitions": partitions,
            "segments": segments or [],
            "metrics": metrics,
        }
        if watermark is not None:
            record["compaction_watermark"] = watermark
        self.append(record)
        logger.info("%s: committed epoch %d %s", record["table"],
                    record["epoch"], {k: v for k, v in metrics.items()
                                      if not isinstance(v, list)})
        return record

    def append(self, record: dict) -> Path:
        """Atomically append ``commit-{epoch}.json``.

        Re-appending the same epoch with identical content is a no-op
        (idempotent re-commit on driver retry); differing content for an
        existing epoch is a hard error — the log never rewrites history.
        Race-free: the commit file is created with ``os.link`` (fails with
        EEXIST if another writer won), so two concurrent drivers can never
        silently overwrite each other — the loser either no-ops (identical
        bytes) or raises."""
        self.log_dir.mkdir(parents=True, exist_ok=True)
        path = self.log_dir / f"commit-{record['epoch']:06d}.json"
        data = json.dumps(record, indent=1, sort_keys=True).encode()
        tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
        tmp.write_bytes(data)
        try:
            os.link(tmp, path)  # atomic create-exclusive (no overwrite)
        except FileExistsError:
            if path.read_bytes() == data:
                return path
            raise RuntimeError(
                f"commit {record['epoch']} already exists with different content"
            )
        finally:
            os.unlink(tmp)
        return path


def init_lake(
    lake_dir: str | Path,
    spec: TableSpec,
    base: pa.Table | None = None,
    num_partitions: int = 32,
) -> CommitLog:
    """Create the partitioned lake table and commit epoch 0.

    Reference analog: DDL phase (``initialize_schema`` = drop+create,
    sqlite_builder.py:170-177) — except nothing is dropped: an existing
    committed table is an error, re-init must be explicit. The base
    snapshot (possibly empty) is hash-partitioned by the table key and
    written key-sorted as ``epoch-000000`` snapshot files by the engine's
    one partition writer, so epoch 0 commits the same live counts and
    ``doc_id`` bounds as every later epoch.

    Single-node helper: partitions the base on the driver. For a 100 TB
    base snapshot use ``pipelines.ingest.init_lake_distributed`` which
    does the same via Ray Data.
    """
    check_num_partitions(num_partitions)
    table_dir = Path(lake_dir) / spec.name
    log = CommitLog(table_dir)
    if log.latest() is not None:
        raise RuntimeError(f"lake table {table_dir} already initialized")
    table_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(table_dir / "_table_spec.json", spec.to_json().encode())

    # merge imports this module: the one partition writer is imported late
    from rfb_cnpj_etl_ray.stages.merge import (
        _internal_rows,
        write_partition_snapshot,
    )

    if base is None:
        base = spec.schema.empty_table()
    # materialized snapshot rows carry merge bookkeeping: last-applied lsn
    # (0 = "base snapshot, before any event") and tombstone flag; sorted
    # by key first, so the stable split below keeps every file key-sorted
    key = spec.key[0]
    base = _internal_rows(base, spec.schema, prep="base").sort_by(key)
    parts = partition_ids(base.column(key), num_partitions)
    import numpy as np

    order = np.argsort(parts, kind="stable")
    sorted_tbl = base.take(pa.array(order))
    bounds = np.searchsorted(parts[order], np.arange(num_partitions + 1))
    rows = [
        write_partition_snapshot(
            sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p])),
            table_dir, p, 0)
        for p in range(num_partitions)
    ]
    log.commit_next(None, next_partitions(None, rows, "fold"),
                    {"rows_total": base.num_rows},
                    num_partitions=num_partitions, schema=spec.schema)
    return log


def load_spec(lake_dir: str | Path, table: str) -> TableSpec:
    return TableSpec.from_json((Path(lake_dir) / table / "_table_spec.json").read_text())
