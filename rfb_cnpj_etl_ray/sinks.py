"""Pluggable sink surface — the engine-plugin story of the reference
(``orchestrator.py:76-86`` selects SQLiteBuilder/PostgresBuilder by an
ENGINE string registered in config ENGINE_OPTIONS; README.md:261-266
documents adding a new engine) re-expressed for the lake.

A :class:`Sink` turns per-partition merged Arrow tables into durable
committed state. The transactional commit-log lake
(:class:`CommitLogLakeSink`, the default) is the engine's primary sink;
:class:`PlainDirSink` writes plain partitioned files (parquet / arrow
IPC / csv) with a JSON manifest — the export/integration surface for
consumers that don't speak the commit log. Register new sinks in
:data:`SINKS` exactly like the reference's ENGINE_OPTIONS.

``export_lake`` is the user-facing pipeline: stream the committed lake
state through any registered sink, one file per partition (resumable
output layout, never one giant file).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Protocol

import pyarrow as pa


class Sink(Protocol):
    """Destination for partitioned table state."""

    name: str

    def write_partition(self, part: int, table: pa.Table) -> dict:
        """Durably write one partition; return a manifest row."""
        ...

    def commit(self, rows: list[dict]) -> None:
        """Publish the written partitions atomically."""
        ...


class PlainDirSink:
    """Format-pluggable directory sink: ``part=K.<ext>`` files plus an
    atomically-replaced ``_manifest.json``. Formats: parquet (default),
    ipc (arrow file), csv."""

    def __init__(self, out_dir: str | Path, fmt: str = "parquet",
                 compression: str = "zstd"):
        if fmt not in ("parquet", "ipc", "csv"):
            raise ValueError(f"unsupported format: {fmt}")
        self.name = f"dir-{fmt}"
        self.out_dir = Path(out_dir)
        self.fmt = fmt
        self.compression = compression
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def write_partition(self, part: int, table: pa.Table) -> dict:
        import uuid

        ext = {"parquet": "parquet", "ipc": "arrow", "csv": "csv"}[self.fmt]
        rel = f"part={part:04d}.{ext}"
        final = self.out_dir / rel
        tmp = final.with_name(final.name + f".tmp-{uuid.uuid4().hex[:8]}")
        if self.fmt == "parquet":
            import pyarrow.parquet as pq

            pq.write_table(table, tmp, compression=self.compression)
        elif self.fmt == "ipc":
            with pa.OSFile(str(tmp), "wb") as f:
                with pa.ipc.new_file(f, table.schema) as w:
                    w.write_table(table)
        else:
            import pyarrow.csv as pacsv

            pacsv.write_csv(table, tmp)
        os.replace(tmp, final)
        return {"part": part, "file": rel, "rows": table.num_rows,
                "bytes": os.path.getsize(final)}

    def commit(self, rows: list[dict]) -> None:
        data = json.dumps(
            {"format": self.fmt,
             "partitions": sorted(rows, key=lambda r: r["part"])},
            indent=1,
        ).encode()
        tmp = self.out_dir / "_manifest.json.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, self.out_dir / "_manifest.json")


#: the ENGINE_OPTIONS analog: name -> factory(out_dir, **kw)
SINKS = {
    "parquet": lambda out_dir, **kw: PlainDirSink(out_dir, "parquet", **kw),
    "ipc": lambda out_dir, **kw: PlainDirSink(out_dir, "ipc", **kw),
    "csv": lambda out_dir, **kw: PlainDirSink(out_dir, "csv", **kw),
}


def export_lake(
    lake_dir: str | Path,
    out_dir: str | Path,
    table: str = "sequences",
    sink: str = "parquet",
    **sink_kwargs,
) -> dict:
    """Export the committed lake state through a registered sink: one Ray
    task per partition folds the partition's logical state (base +
    deltas) and hands it to the sink — streaming, partition-resumable,
    no driver data path."""
    from rfb_cnpj_etl_ray.stages.exchange import run_tasks
    from rfb_cnpj_etl_ray.stages.merge import (
        internal_schema,
        load_partition_state,
        strip_internal,
    )
    from rfb_cnpj_etl_ray.state.commitlog import CommitLog

    if sink not in SINKS:
        raise ValueError(f"unknown sink {sink!r}; registered: {sorted(SINKS)}")
    table_dir = Path(lake_dir) / table
    log = CommitLog(table_dir)
    payload = log.committed_schema()
    if payload is None:
        raise RuntimeError(f"no commits in {table_dir}")
    int_sch = internal_schema(payload)
    items = [{"part": p, "rels": rels}
             for p, rels in log.partition_file_lists().items()]
    the_sink = SINKS[sink](out_dir, **sink_kwargs)

    def write_one(item: dict) -> dict:
        state = load_partition_state(str(table_dir), item["rels"], int_sch)
        return the_sink.write_partition(item["part"], strip_internal(state))

    rows = run_tasks(write_one, items)
    the_sink.commit(rows)
    return {"sink": the_sink.name, "partitions": len(rows),
            "rows": sum(r["rows"] for r in rows)}
