"""Block exchanges the operators share.

* ``repartition_by_key`` — keyed block exchange: hash-partition a
  Dataset so every row of a key lands in exactly one block, enabling
  per-BATCH vectorized group work (``map_batches(fn, batch_size=None)``
  with pandas/Arrow kernels over the whole frame) instead of one Python
  ``map_groups`` dispatch per group — the difference between O(keys)
  Python calls and O(blocks) at 1e8+ keys. This is the per-block path
  the engine's own LWW merge uses (stages/merge.py): shuffle once by key
  hash, then every downstream reduce is a columnar kernel over run
  boundaries.
* ``tree_fold`` — the one combine of per-block partials: a task-only
  fan-in tree, so only the root's rows reach the driver.
* ``fetch`` — broadcast side inputs (``ray.put`` refs) into plain
  stateless tasks, deserialized once per worker process.
* ``run_tasks`` — one plain Ray task per item for per-partition and
  per-file control work, without a Dataset.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import ray
import ray.data
from ray.data.context import ShuffleStrategy


def repartition_by_key(
    ds: "ray.data.Dataset",
    keys: list[str],
    num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """Hash-partition ``ds`` on ``keys`` into ``num_blocks`` blocks (one
    key never spans two blocks). Uses Ray's hash-shuffle operator; the
    required ``shuffle_strategy`` override is applied to THIS pipeline's
    captured DataContext only (each root read captures its own copy), so
    other datasets in the session keep the default sort-shuffle.

    ``num_blocks`` defaults to half the cluster CPU count (each hash
    partition costs a long-lived shuffle-actor slot, and fewer/larger
    blocks amortize that fixed setup — measured 3.7s→2.3s on the lww
    bench going 32→8 blocks at sf0.1) — at multi-node scale pass an
    explicit count sized so a block fits a worker's heap.
    """
    if num_blocks is None:
        num_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)

    def _strip_meta(t):
        # blocks inherit parquet/pandas schema metadata that defeats the
        # shuffle aggregator's schema-hash dedup (it logs "Failed to
        # hash the schemas"); a metadata-only rewrite is zero-copy and
        # gives every block the same clean schema
        return t.replace_schema_metadata(None) if t.schema.metadata else t

    ds = ds.map_batches(_strip_meta, batch_format="pyarrow",
                        zero_copy_batch=True)
    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    return ds.repartition(num_blocks=num_blocks, keys=list(keys))


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


#: broadcast values one worker process keeps deserialized, least
#: recently used evicted first; a few cover every side input of a pipeline
FETCH_KEEP = 4
_fetched: "OrderedDict[bytes, object]" = OrderedDict()
_fetch_lock = threading.Lock()


def fetch(ref: "ray.ObjectRef"):
    """``ray.get(ref)``, cached per worker process.

    The broadcast path for stateless ``map_batches`` functions: the
    driver ``ray.put``s a side input once and the function closes over
    the ref. Ray Data's task workers are pooled processes, so the value
    is deserialized once per worker, not once per batch — the reuse an
    actor's ``__init__`` gave, without starting a process per call. Only
    the last ``FETCH_KEEP`` refs stay cached (keyed by object id, so the
    cache never holds the ref itself alive).
    """
    key = ref.binary()
    with _fetch_lock:
        if key in _fetched:
            _fetched.move_to_end(key)
            return _fetched[key]
        value = ray.get(ref)
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
