"""Metadata-clean parquet reads for externally-written tables.

Parquet files written by pandas embed a ``b'pandas'`` key in the Arrow
schema metadata; ``hash(schema)`` on such a schema raises ``unhashable
type: 'dict'`` (pyarrow 16), which defeats Ray Data's schema-hash
deduplication and spams "Failed to hash the schemas" warnings from every
operator that touches the blocks (VERDICT r2 #7).

``read_table`` pins a DECLARED metadata-free schema on the dataset at
the read (one footer-only ``pq.read_schema`` on the driver), so every
downstream operator sees a stable, hashable schema. The engine's own
lake files are written metadata-free and already pass explicit schemas
(pipelines/ingest.py); this helper is for the driver's pandas-written
test tables and any external corpus.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data


def read_table(path: str | list[str], columns: list[str] | None = None,
               **kwargs):
    """``ray.data.read_parquet`` with a declared, metadata-free schema.

    ``path`` is one file or a list of files of one table (e.g. the parts
    of one ``write_parquet`` spill); the schema is read from the first.
    ``columns`` prunes the declared schema to match the projected output;
    row filters (``filter=``) may still reference non-projected columns —
    they are evaluated against the file schema, not the declared one.
    """
    first = path if isinstance(path, str) else path[0]
    sch = pq.read_schema(first).remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=sch, **kwargs)


def from_pandas_clean(df) -> pa.Table:
    """``pa.Table.from_pandas`` without the ``b'pandas'`` schema metadata
    (whose hash raises inside Ray's schema dedup — see module docstring).
    Use for map_batches stages that feed exchanges/joins so every block
    carries one stable, hashable schema."""
    return pa.Table.from_pandas(
        df, preserve_index=False).replace_schema_metadata(None)


def sized_blocks(paths, floor: int = 8, target_bytes: int = 32 << 20) -> int:
    """Block count derived from the input's ON-DISK size: one block per
    ``target_bytes`` (32 MB), floored at ``floor``.

    Ray's default read parallelism is CPU-derived (≈2× cores), which
    over-splits small inputs into dozens of ~100 KB blocks — every
    downstream stage then pays a 64-task scheduling wave to move a few
    megabytes (measured: the incremental-view fold's per-epoch groupby
    drops 1.27 s → 0.49 s going 64 → 8 input blocks at sf0.1). Deriving
    from bytes is scale-stable: a 100 TB input still gets bytes/32 MB
    blocks, and a 3 MB epoch gets ``floor``.
    """
    import os

    total = sum(os.stat(p).st_size for p in paths)
    return int(max(floor, total // target_bytes))
