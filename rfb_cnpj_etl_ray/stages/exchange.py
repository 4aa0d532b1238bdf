"""Block exchanges the operators share. Every one runs on Ray tasks
only: nothing here starts an actor, so an operator built from them
finishes on a one-CPU cluster.

* ``repartition_by_key`` — the keyed block exchange: every row of a key
  lands in exactly one block, so the per-key work that follows is one
  vectorized kernel per block (``map_batches(fn, batch_size=None)``),
  not one Python call per group. It is Ray Data's task sort, a range
  exchange on sampled boundaries.
* ``tree_fold`` — the fold of per-block partials over LOW-cardinality
  keys: a task-only fan-in tree, so only the root's rows reach the
  driver.
* ``sum_by`` — the ``tree_fold`` combine that sums count or revenue
  partials per key.
* ``aggregate_by`` — the fold of per-block partials over HIGH-cardinality
  keys: ``repartition_by_key``, then one Arrow ``group_by`` per block.
* ``fetch`` — broadcast side inputs (``ray.put`` refs) into plain
  stateless tasks, deserialized once per worker process.
* ``run_tasks`` — one plain Ray task per item for per-partition and
  per-file control work, without a Dataset.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pyarrow as pa
import ray
import ray.data


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


#: fan-in of one ``tree_fold`` level. Fixed: a level is one non-shuffle
#: repartition plus one combine task per output block, so ≤ this many
#: partial blocks (the common case) fold in a single task.
FOLD_WIDTH = 16


def tree_fold(partials: "ray.data.Dataset", combine, finish=None
              ) -> "ray.data.Dataset":
    """Fold per-block partials to ONE block with tasks only.

    ``combine(df) -> df`` merges any subset of partial rows into partial
    rows of the same schema; it must be associative and commutative
    (sum, OR, max, top-k over distinct keys), because a level hands it an
    arbitrary concatenation of blocks. Each level is a non-shuffle
    ``repartition(⌈n/FOLD_WIDTH⌉)`` followed by
    ``map_batches(combine, batch_size=None)``, repeated until one block
    remains; ``finish(df) -> df`` then runs once on that root. The
    partials are materialized first (their block count sizes the tree);
    one combine task sees about ``FOLD_WIDTH`` blocks' rows, and nothing
    reaches the driver until the caller consumes the returned one-block
    Dataset.

    Partials with no rows have no root: the result is an empty Dataset
    without columns, and neither function runs.
    """
    ds = partials.materialize()
    if ds.count() == 0:
        return ray.data.from_items([])
    n = ds.num_blocks()
    while True:
        n = -(-n // FOLD_WIDTH)
        ds = ds.repartition(n).map_batches(
            combine, batch_format="pandas", batch_size=None)
        if n == 1:
            break
    if finish is not None:
        ds = ds.map_batches(finish, batch_format="pandas", batch_size=None)
    return ds


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
        g = t.group_by(keys).aggregate(spec)
        return pa.table({**{k: g.column(k) for k in keys},
                         **{c: g.column(f"{c}_{fn}") for c, fn in spec}})

    return repartition_by_key(partials, keys).map_batches(
        fold, batch_format="pyarrow", batch_size=None)


#: broadcast values one worker process keeps deserialized, least
#: recently used evicted first; a few cover every side input of a pipeline
FETCH_KEEP = 4
_fetched: "OrderedDict[bytes, object]" = OrderedDict()
_fetch_lock = threading.Lock()


def sum_by(keys: list[str], col: str | list[str]):
    """``tree_fold`` combine for count or revenue partials: sum ``col``
    (one column or a list of columns) per key."""

    def combine(df):
        return df.groupby(keys, as_index=False)[col].sum()

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
    task launches. The tasks carry the remote args Ray Data gives its
    own: a dead worker is retried without limit (``max_retries=-1``,
    plus ``RaySystemError`` raised from task code), while an application
    error runs once and reaches the caller as its own type. ``fn`` must
    therefore be safe to run twice on one item (deterministic file
    names, atomic renames). ``max_in_flight`` caps the tasks submitted
    but not finished (a ``ray.wait`` window that stops at the first
    failure)."""
    items = list(items)
    if not items:
        return []
    task = ray.remote(
        num_cpus=num_cpus, max_retries=-1, scheduling_strategy="SPREAD",
        retry_exceptions=[ray.exceptions.RaySystemError],
    )(fn)
    refs: list = []
    pending: list = []
    for item in items:
        if max_in_flight is not None and len(pending) >= max_in_flight:
            ready, pending = ray.wait(pending, num_returns=1)
            ray.get(ready)
        refs.append(task.remote(item))
        pending.append(refs[-1])
    return ray.get(refs)
