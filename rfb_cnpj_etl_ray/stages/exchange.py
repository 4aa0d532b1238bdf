"""Block exchanges the operators share. Every one runs on Ray tasks
only: nothing here starts an actor, so an operator built from them
finishes on a one-CPU cluster.

* ``repartition_by_key`` — the keyed block exchange: every row of a key
  lands in exactly one block, so the per-key work that follows is one
  vectorized kernel per block (``map_batches(fn, batch_size=None)``),
  not one Python call per group. It is Ray Data's task sort, a range
  exchange on sampled boundaries.
* ``tree_fold`` — the fold of per-block partials over LOW-cardinality
  keys: a fan-in tree of plain tasks, so only the root's rows reach the
  driver.
* ``fold_parquet`` — the same fold fed straight from parquet files: one
  plain task per row group applies the per-batch partial and the first
  combine, so a fold over one table starts no Dataset at all. Its keyed
  form (``by=(key, buckets)``) folds HIGH-cardinality partials into a
  truncating result such as a top-k: each piece splits its rows into
  ``buckets`` hash buckets of the key, each bucket folds on its own task
  tree, and only the bucket roots, which hold disjoint keys, are cut.
* ``sum_by`` — the fold combine that sums count or revenue
  partials per key (one Arrow ``group_by``).
* ``aggregate_by`` — the fold of per-block partials over HIGH-cardinality
  keys: ``repartition_by_key``, then one Arrow ``group_by`` per block.
* ``fetch`` — broadcast side inputs (``ray.put`` refs) into plain
  stateless tasks, deserialized once per worker process.
* ``run_tasks`` — one plain Ray task per item for per-partition and
  per-file control work, without a Dataset.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from rfb_cnpj_etl_ray.hashing import partition_ids


def repartition_by_key(ds: "ray.data.Dataset", keys: list[str]
                       ) -> "ray.data.Dataset":
    """Exchange ``ds`` so that all rows of one ``keys`` value share one
    block (``tests/test_range_exchange.py`` pins this).

    This is ``ds.sort(keys)``: map tasks split every block on sampled
    range boundaries and reduce tasks merge each range, so which block
    a row lands in depends only on its key and the boundaries — equal
    keys never straddle one. Blocks also come out sorted by ``keys``.
    """
    return ds.sort(list(keys))


#: fan-in of one fold level: one plain task concatenates up to this many
#: partials and combines them, so ≤ this many partials (the common case)
#: fold in a single task.
FOLD_WIDTH = 16
#: uncompressed bytes of the read columns that one ``partial`` call of
#: ``fold_parquet`` sees: a batch is whole rows up to this size, so
#: narrow columns fold in a few large batches and wide text stays
#: bounded
FOLD_BATCH_BYTES = 16 << 20


def _task(fn, num_cpus: float = 1, **options):
    """``fn`` as a plain Ray task with the remote args Ray Data gives its
    own: a dead worker is retried without limit (``max_retries=-1``, plus
    ``RaySystemError`` raised from task code), while an application
    error runs once and reaches the caller as its own type."""
    return ray.remote(
        num_cpus=num_cpus, max_retries=-1, scheduling_strategy="SPREAD",
        retry_exceptions=[ray.exceptions.RaySystemError], **options,
    )(fn)


def _as_pandas(block) -> pd.DataFrame:
    return block.to_pandas() if isinstance(block, pa.Table) else block


def _fold_level(combine, finish, *blocks) -> pd.DataFrame:
    """One fold task: ``combine`` the concatenation of ``blocks`` (Arrow
    or pandas) as pandas, then ``finish`` when this task is the root."""
    frames = [_as_pandas(b) for b in blocks]
    frames = [f for f in frames if len(f)] or frames[:1]
    df = combine(pd.concat(frames, ignore_index=True))
    if finish is not None:
        df = finish(_as_pandas(df))
    return _as_pandas(df)


_fold_level_task = _task(_fold_level)


def _fold_refs(refs: list, combine, finish=None) -> "ray.ObjectRef":
    """Fold partial block refs to ONE block: one plain task per
    ``FOLD_WIDTH`` refs, level after level, with ``finish`` in the last
    task. Returns the root's ref; its rows stay on the cluster until the
    caller consumes them."""
    while True:
        last = len(refs) <= FOLD_WIDTH
        refs = [_fold_level_task.remote(combine, finish if last else None,
                                        *refs[i:i + FOLD_WIDTH])
                for i in range(0, len(refs), FOLD_WIDTH)]
        if last:
            return refs[0]


def tree_fold(partials: "ray.data.Dataset", combine, finish=None
              ) -> "ray.data.Dataset":
    """Fold per-block partials to ONE block with plain tasks only.

    ``combine(df) -> df`` merges any subset of partial rows into partial
    rows of the same schema; it must be associative and commutative
    (sum, OR, max, top-k over distinct keys), because a level hands it an
    arbitrary concatenation of blocks. The partials are materialized
    once; their block refs and row counts come from the materialized
    bundles, and each level is one plain task per ``FOLD_WIDTH`` blocks,
    repeated until one block remains. ``finish(df) -> df`` runs once, in
    that root task. Nothing reaches the driver until the caller consumes
    the returned one-block Dataset.

    Partials with no rows have no root: the result is an empty Dataset
    without columns, and neither function runs.
    """
    bundles = partials.materialize().iter_internal_ref_bundles()
    refs = [ref for bundle in bundles
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    if not refs:
        return ray.data.from_items([])
    return ray.data.from_pandas_refs([_fold_refs(refs, combine, finish)])


def _batch_rows(row_group, columns: list[str]) -> int:
    """Rows per ``fold_parquet`` batch of one row group (footer
    metadata): ``FOLD_BATCH_BYTES`` over the uncompressed bytes per row
    of ``columns``, at least one row."""
    cols = (row_group.column(i) for i in range(row_group.num_columns))
    nbytes = sum(c.total_uncompressed_size for c in cols
                 if c.path_in_schema.split(".")[0] in columns)
    return max(1, FOLD_BATCH_BYTES * row_group.num_rows // max(nbytes, 1))


def _fold_piece(piece, columns, partial, combine, finish, batch_format):
    """One ``fold_parquet`` task: ``partial`` over each batch of one row
    group, ``combine`` over the piece's partials (plus ``finish`` when
    the piece is the only one). Returns the folded partial and the
    number of partial rows; a piece with none runs neither function."""
    path, row_group, batch_rows = piece
    parts = []
    for batch in pq.ParquetFile(path).iter_batches(
            batch_size=batch_rows, row_groups=[row_group], columns=columns,
            use_threads=False):
        t = pa.Table.from_batches([batch]).replace_schema_metadata(None)
        parts.append(_as_pandas(
            partial(t.to_pandas() if batch_format == "pandas" else t)))
    n = sum(map(len, parts))
    return (_fold_level(combine, finish, *parts) if n else None), n


_fold_piece_task = _task(_fold_piece, num_returns=2)


def _keyed_piece(piece, columns, partial, combine, batch_format, key,
                 buckets):
    """One keyed ``fold_parquet`` task: the piece's fold split by the
    hash bucket of ``key``. Returns ``buckets`` frames, then the rows
    in each bucket."""
    df, n = _fold_piece(piece, columns, partial, combine, None, batch_format)
    if not n:
        return (None,) * buckets + (np.zeros(buckets, np.int64),)
    ids = partition_ids(df[key].to_numpy(), buckets)
    return tuple(df[ids == b] for b in range(buckets)) + (
        np.bincount(ids, minlength=buckets),)


_keyed_piece_task = _task(_keyed_piece)


def fold_parquet(paths, columns: list[str], partial, combine, finish=None,
                 batch_format: str = "pandas", by=None
                 ) -> "ray.data.Dataset":
    """Read one table's parquet file(s) and fold it, with plain tasks
    only: the same result as ``tree_fold(read.map_batches(partial,
    batch_format=...), combine, finish)``, but no Dataset is started.

    The driver reads each file's footer once and makes every row group
    one piece (row groups are never split). One task per piece reads its
    ``columns`` in batches of whole rows up to ``FOLD_BATCH_BYTES``
    uncompressed, applies ``partial`` to each (as pandas, or as Arrow
    with ``batch_format="pyarrow"``) and ``combine``s its own partials,
    which is the first fold level; the piece outputs then fold as in
    ``tree_fold``, and a lone piece is its own root. Each task also
    returns its partial-row count, so when no piece has a row the result
    is an empty Dataset and neither ``combine`` nor ``finish`` runs,
    without a partial reaching the driver.

    ``by=(key, buckets)`` is the keyed fold, for partials whose keys are
    too many for one task and whose ``finish`` cuts rows (a top-k).
    ``finish`` must then be a combine itself, exact over partials with
    DISJOINT keys, and ``combine`` must never cut. Each piece splits its
    combined rows by ``hashing.partition_ids(key, buckets)``; each
    bucket folds its pieces' rows on a tree of ``combine`` tasks with
    ``finish`` at its root, and the bucket roots fold once more with
    ``finish``. Those two steps are the only ones that see disjoint
    keys, so they are the only ones that cut, and no task holds more
    than one bucket's keys. A lone piece holds each key once already,
    so it runs ``finish`` itself as in the plain fold.
    """
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else paths
    pieces = []
    for p in paths:
        meta = pq.ParquetFile(p).metadata
        pieces += [(str(p), rg, _batch_rows(meta.row_group(rg), columns))
                   for rg in range(meta.num_row_groups)]
    root = len(pieces) == 1
    if by is not None and not root:
        return _keyed_fold(pieces, columns, partial, combine, finish,
                           batch_format, *by)
    out = [_fold_piece_task.remote(p, columns, partial, combine,
                                   finish if root else None, batch_format)
           for p in pieces]
    counts = ray.get([n for _, n in out])
    refs = [ref for (ref, _), n in zip(out, counts) if n]
    if not refs:
        return ray.data.from_items([])
    if not root:
        refs = [_fold_refs(refs, combine, finish)]
    return ray.data.from_pandas_refs(refs)


def _keyed_fold(pieces, columns, partial, combine, finish, batch_format,
                key, buckets) -> "ray.data.Dataset":
    """``fold_parquet(..., by=(key, buckets))`` over two or more pieces:
    one bucket tree per non-empty bucket, then ``finish`` over the
    bucket roots."""
    task = _keyed_piece_task.options(num_returns=buckets + 1)
    out = [task.remote(p, columns, partial, combine, batch_format, key,
                       buckets) for p in pieces]
    rows = ray.get([o[-1] for o in out])
    roots = [_fold_refs([o[b] for o, n in zip(out, rows) if n[b]],
                        combine, finish)
             for b in range(buckets) if any(n[b] for n in rows)]
    if not roots:
        return ray.data.from_items([])
    return ray.data.from_pandas_refs([_fold_refs(roots, finish)])


def _group(t: pa.Table, keys: list[str], spec: list) -> pa.Table:
    """One Arrow ``group_by(keys).aggregate(spec)``, its columns named
    ``keys`` then each aggregated column's own name. Arrow compares
    string keys byte for byte; pandas' C-string hash table would merge
    a key with a trailing NUL into the same key without it."""
    g = t.group_by(keys).aggregate(spec)
    return pa.table({**{k: g.column(k) for k in keys},
                     **{c: g.column(f"{c}_{fn}") for c, fn in spec}})


def aggregate_by(partials: "ray.data.Dataset", keys: list[str],
                 aggs: dict[str, str]) -> "ray.data.Dataset":
    """Fold per-block partials over high-cardinality ``keys``: one keyed
    exchange (``repartition_by_key``), then ONE Arrow
    ``group_by(keys).aggregate`` per block, so the result holds each key
    once. ``aggs`` maps a partial column to ``"sum"``, ``"min"`` or
    ``"max"`` — decomposable folds, so partials from any source (raw
    blocks, a spilled view) combine. The output columns are ``keys`` then
    ``aggs`` in order, under their own names and Arrow types (a
    ``timestamp[us]`` key stays ``timestamp[us]``)."""
    keys = list(keys)
    spec = list(aggs.items())

    def fold(t: pa.Table) -> pa.Table:
        return _group(t, keys, spec)

    return repartition_by_key(partials, keys).map_batches(
        fold, batch_format="pyarrow", batch_size=None)


#: broadcast values one worker process keeps deserialized, least
#: recently used evicted first; a few cover every side input of a pipeline
FETCH_KEEP = 4
_fetched: "OrderedDict[bytes, object]" = OrderedDict()
_fetch_lock = threading.Lock()


def sum_by(keys: list[str], col: str | list[str]):
    """Fold combine for count or revenue partials: sum ``col``
    (one column or a list of columns) per key, with ``_group``."""
    keys = list(keys)
    spec = [(c, "sum") for c in ([col] if isinstance(col, str) else col)]

    def combine(df) -> pa.Table:
        if not isinstance(df, pa.Table):
            df = pa.Table.from_pandas(df, preserve_index=False)
        return _group(df, keys, spec)

    return combine


def fetch(ref: "ray.ObjectRef"):
    """``ray.get(ref)``, cached per worker process.

    The broadcast path for stateless ``map_batches`` functions: the
    driver ``ray.put``s a side input once and the function closes over
    the ref. Ray Data's task workers are pooled processes, so the value
    is deserialized once per worker, not once per batch — the reuse an
    actor's ``__init__`` gave, without starting a process per call. Only
    the last ``FETCH_KEEP`` refs stay cached (keyed by object id, so the
    cache never holds the ref itself alive). A value that is a list of
    refs — a broadcast the driver streamed out as shards — resolves to
    the list of the shards' values, so it costs one cache slot.
    """
    key = ref.binary()
    with _fetch_lock:
        if key in _fetched:
            _fetched.move_to_end(key)
            return _fetched[key]
        value = ray.get(ref)
        if isinstance(value, list) and value \
                and isinstance(value[0], ray.ObjectRef):
            value = ray.get(value)
        _fetched[key] = value
        while len(_fetched) > FETCH_KEEP:
            _fetched.popitem(last=False)
        return value


def run_tasks(fn, items, num_cpus: float = 1,
              max_in_flight: int | None = None) -> list:
    """Run ``fn(item)`` as one plain Ray task per item and return the
    results in item order; no ``items`` → ``[]``, nothing submitted.

    The cheap execution mode for control work whose unit is a partition
    or a file and whose result is a small row (phase 2 of the staged
    exchange, validation, compaction, export, segment fetch): no
    streaming executor starts, so a handful of items costs a handful of
    task launches. The tasks carry ``_task``'s remote args, so a dead
    worker re-runs its item: ``fn`` must be safe to run twice on one
    item (deterministic file names, atomic renames). ``max_in_flight``
    caps the tasks submitted but not finished (a ``ray.wait`` window
    that stops at the first failure)."""
    items = list(items)
    if not items:
        return []
    task = _task(fn, num_cpus)
    refs: list = []
    pending: list = []
    for item in items:
        if max_in_flight is not None and len(pending) >= max_in_flight:
            ready, pending = ray.wait(pending, num_returns=1)
            ray.get(ready)
        refs.append(task.remote(item))
        pending.append(refs[-1])
    return ray.get(refs)
