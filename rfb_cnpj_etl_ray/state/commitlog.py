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
import os
import uuid
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


def atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_table(table: pa.Table, path: Path, compression: str = "zstd",
                       row_group_size: int = 64 * 1024) -> int:
    """Write parquet to a temp name then atomically rename; returns bytes.

    Idempotent under task retry: two attempts computing the same
    deterministic content race only on the final ``os.replace``, which is
    atomic and last-writer-wins with identical bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(table, tmp, compression=compression, row_group_size=row_group_size)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


def partition_files(entry: dict) -> list[str]:
    """[base snapshot, *delta files] of one commit-record partition entry
    (relative paths). A file-less hole yields []."""
    return [f for f in [entry.get("file"), *entry.get("deltas", [])]
            if f is not None]


class CommitLog:
    """Append-only JSON commit log for one lake table."""

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

    def _commit(self, epoch: int | None) -> dict | None:
        return self.latest() if epoch is None else self.commit_at(epoch)

    def latest_epoch(self) -> int:
        c = self.latest()
        return -1 if c is None else c["epoch"]

    def checkpoint_lsns(self) -> dict[int, int]:
        """partition -> highest committed lsn (engine's resume offsets)."""
        c = self.latest()
        if c is None:
            return {}
        return {
            int(k): v["lsn_high"]
            for k, v in c["partitions"].items()
            if v["lsn_high"] is not None
        }

    def current_files(self, epoch: int | None = None) -> dict[int, Path]:
        """partition -> committed base snapshot file (at ``epoch``, or
        the newest commit when None). Entries without a materialized
        file (holes from init_lake_distributed on untouched partitions)
        are skipped — they hold no rows."""
        c = self._commit(epoch)
        if c is None:
            return {}
        return {
            int(k): self.table_dir / v["file"]
            for k, v in c["partitions"].items()
            if v.get("file") is not None
        }

    def partition_file_lists(self, epoch: int | None = None) -> dict[int, list[str]]:
        """partition -> [base snapshot, *delta files] (relative paths)
        at ``epoch`` (newest commit when None). The logical partition
        state is the LWW fold over this list (merge-on-read; a cow
        table has single-element lists). None entries (file-less holes)
        are filtered; an empty list means the partition holds no rows
        and is omitted."""
        c = self._commit(epoch)
        if c is None:
            return {}
        out = {}
        for k, v in c["partitions"].items():
            rels = partition_files(v)
            if rels:
                out[int(k)] = rels
        return out

    def has_deltas(self, epoch: int | None = None) -> bool:
        c = self._commit(epoch)
        return bool(c) and any(v.get("deltas") for v in c["partitions"].values())

    def committed_schema(self, epoch: int | None = None) -> pa.Schema | None:
        c = self._commit(epoch)
        return None if c is None else schema_from_jsonable(c["schema"])

    # -- writes ------------------------------------------------------------

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
    compression: str = "zstd",
) -> CommitLog:
    """Create the partitioned lake table and commit epoch 0.

    Reference analog: DDL phase (``initialize_schema`` = drop+create,
    sqlite_builder.py:170-177) — except nothing is dropped: an existing
    committed table is an error, re-init must be explicit. The base
    snapshot (possibly empty) is hash-partitioned by the table key and
    written as ``epoch-000000`` snapshot files.

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

    if base is None:
        base = spec.schema.empty_table()
    # materialized snapshot rows carry merge bookkeeping: last-applied lsn
    # (0 = "base snapshot, before any event") and tombstone flag.
    n = base.num_rows
    internal = base.append_column("_lsn", pa.array([0] * n, type=pa.int64()))
    internal = internal.append_column("_deleted", pa.array([False] * n, type=pa.bool_()))
    base = internal
    parts = partition_ids(base.column(spec.key[0]), num_partitions)
    partitions: dict[str, dict] = {}
    import numpy as np

    order = np.argsort(parts, kind="stable")
    sorted_tbl = base.take(pa.array(order))
    sorted_parts = parts[order]
    bounds = np.searchsorted(sorted_parts, np.arange(num_partitions + 1))
    for p in range(num_partitions):
        chunk = sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        rel = f"part={p:04d}/epoch-000000.parquet"
        size = atomic_write_table(chunk, table_dir / rel, compression=compression)
        partitions[str(p)] = {
            "file": rel,
            "rows": chunk.num_rows,
            "bytes": size,
            "lsn_high": None,
            "events_applied": 0,
        }
    log.append(
        {
            "epoch": 0,
            "table": spec.name,
            "num_partitions": num_partitions,
            "schema": schema_to_jsonable(spec.schema),
            "partitions": partitions,
            "parent": None,
            "metrics": {"rows_total": base.num_rows},
        }
    )
    return log


def lake_dataset_files(lake_dir: str | Path, table: str) -> list[str]:
    """Current committed snapshot files — feed to ray.data.read_parquet."""
    log = CommitLog(Path(lake_dir) / table)
    return [str(p) for p in log.current_files().values()]


def load_spec(lake_dir: str | Path, table: str) -> TableSpec:
    return TableSpec.from_json((Path(lake_dir) / table / "_table_spec.json").read_text())
