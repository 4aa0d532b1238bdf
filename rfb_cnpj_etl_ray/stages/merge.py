"""The CDC merge core: LSN-ordered last-writer-wins as a pure Arrow fold.

Semantics (must match ``oracle.replay``): the final state of a key is
decided solely by its highest-LSN event — I/U upsert the full payload, D
deletes. Because that fold is associative and commutative (max-by-lsn),
it can run in two shrinking stages without ever seeing a key's full
history in one place:

  1. **phase 1: route + per-batch partial reduce** (stateless batch
     function, zero-copy Arrow): collapse each batch to one row
     per ``doc_id`` and append each partition's slice to the staging dir
     as an Arrow chunk. This is the skew handling: each batch acts as
     the salt of a two-stage aggregation, so a doc_id with 1M events
     leaves each block as 1 row *before* the exchange, and phase 2
     re-merges those rows (the reference's skew "solution" is a static
     batch-shrink ratio, config.py:32-34);
  2. **phase 2: per-partition merge** (one task per touched partition):
     concat the partition's committed state — whose rows carry their
     last-applied ``_lsn`` and ``_deleted`` tombstone flag, making them
     replay-equivalent pseudo-events — with the staged chunks, reduce
     again, write the next snapshot atomically.

``staged_exchange`` drives the two phases; it is the one way the engine
routes rows to partitions (ingest, which ``merge_into`` and
``replicate`` go through, distributed lake init, repartition).
``write_partition_snapshot`` writes every partition file: phase 2's,
and also those of ``init_lake``, ``compact`` and ``compact_deltas``,
which split or fold committed state without an exchange. Ingest runs
phase 1 as one plain Ray task per segment piece (``segment_pieces``),
lake init and repartition as ``map_batches`` over their Dataset; phase 2
is one plain Ray task per partition (``stages.exchange.run_tasks``).

Keeping ``_lsn``/``_deleted`` in the materialized state means applying
*any* subset of old events again (duplicated batches, crash-replay,
late segments) is a no-op — exactly-once by algebra, not by bookkeeping.
Reference analogs: best-record-wins dedup ``ROW_NUMBER() OVER (PARTITION
BY cnpj_basico ORDER BY ...)=1`` (db_patch.py:60-87) generalized to LSN
rank; ``INSERT OR IGNORE`` first-writer-wins (sqlite_loader.py:56)
upgraded to last-writer-wins.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rfb_cnpj_etl_ray.hashing import partition_ids
from rfb_cnpj_etl_ray.spec import (
    conform_table,
    schema_from_jsonable,
    schema_to_jsonable,
)
from rfb_cnpj_etl_ray.state.commitlog import atomic_write_table

INTERNAL_LSN = "_lsn"
INTERNAL_DELETED = "_deleted"
PART_COL = "__part"

_WORKER_THREADS_SET = False


def tune_worker_threads(n: int = 1) -> None:
    """Pin Arrow's internal CPU/IO pools inside a Ray worker process.

    By default every worker sizes Arrow's pool to all machine cores, so a
    nominally-1-CPU task silently borrows every idle core — great for a
    single job, but it oversubscribes under full load and falsifies
    scaling measurements (a 4-CPU run secretly uses 16 cores). One call
    per worker process; idempotent."""
    global _WORKER_THREADS_SET
    if not _WORKER_THREADS_SET:
        n = max(1, int(n))
        pa.set_cpu_count(n)
        pa.set_io_thread_count(max(2, n))
        _WORKER_THREADS_SET = True


def internal_schema(payload_schema: pa.Schema) -> pa.Schema:
    """Materialized partition-file schema: payload + merge bookkeeping."""
    return pa.schema(
        list(payload_schema)
        + [pa.field(INTERNAL_LSN, pa.int64()), pa.field(INTERNAL_DELETED, pa.bool_())]
    )


def strip_internal(table: pa.Table, drop_tombstones: bool = True) -> pa.Table:
    """Public view of a partition snapshot: live rows, payload columns."""
    if drop_tombstones and INTERNAL_DELETED in table.schema.names:
        table = table.filter(pc.equal(table[INTERNAL_DELETED], False))
    keep = [n for n in table.schema.names
            if n not in (INTERNAL_LSN, INTERNAL_DELETED, PART_COL)]
    return table.select(keep)


def lww_reduce(table: pa.Table, key: str = "doc_id", lsn: str = INTERNAL_LSN) -> pa.Table:
    """Keep the max-``lsn`` row per ``key`` — one stable C++ sort + a
    vectorized run-boundary mask; no hashing (no collision risk at 1e10
    keys), no Python per-row work. Ties on (key, lsn) — duplicated events
    — keep one arbitrary copy (payloads are identical by definition)."""
    if table.num_rows == 0:
        return table
    return _last_per_key(
        table.sort_by([(key, "ascending"), (lsn, "ascending")]), key)


def _last_per_key(srt: pa.Table, key: str) -> pa.Table:
    """Keep the last row of every run of equal ``key`` values in a table
    sorted with ``key`` as the innermost-but-one sort column."""
    keys = srt.column(key).combine_chunks()
    if isinstance(keys, pa.ChunkedArray):  # 0- or 1-chunk cases
        keys = keys.chunk(0) if keys.num_chunks else pa.array([], type=keys.type)
    n = len(keys)
    boundary = pc.not_equal(keys.slice(1), keys.slice(0, n - 1))
    mask = pa.concat_arrays(
        [boundary.cast(pa.bool_()), pa.array([True], type=pa.bool_())]
    )
    return srt.filter(mask)


# ---------------------------------------------------------------------------
# the staged filesystem exchange
# ---------------------------------------------------------------------------
#
# At our merge's shape (fixed small partition count, associative fold) a
# staged two-phase exchange through storage replaces an object-store
# all-to-all, and it is the shape real lakehouse ingest uses multi-node
# (staging dir = shared storage). Phase 1: stateless tasks split each
# internal batch by partition and append
# `staging/part=K/stage-<uuid>-<offset>.arrow`. Phase 2: one task per
# touched partition merges staged chunks + committed snapshot and writes
# the next snapshot. Task retries are harmless: duplicate staged chunks
# collapse in the LWW fold ((doc_id,lsn) ties keep one copy), and
# snapshot writes are atomic-rename.

def _internal_rows(batch: pa.Table, payload_schema: pa.Schema,
                   prep: str = "events") -> pa.Table:
    """Phase-1 row builder: payload + ``_lsn``/``_deleted`` for every kind
    of exchange input. ``prep``: "events" — change rows (lsn, op,
    payload); "base" — snapshot rows, stamped _lsn=0/_deleted=False (lake
    init); "state" — committed internal rows that already carry both
    (repartition)."""
    n = batch.num_rows
    if prep == "events":
        lsn, deleted = batch.column("lsn"), pc.equal(batch.column("op"), "D")
    elif prep == "base":
        lsn = pa.array(np.zeros(n, np.int64))
        deleted = pa.array(np.zeros(n, bool))
    elif prep == "state":
        lsn = batch.column(INTERNAL_LSN)
        deleted = batch.column(INTERNAL_DELETED)
    else:
        raise ValueError(f"prep must be 'events', 'base' or 'state', got {prep!r}")
    payload = conform_table(batch, payload_schema)
    return pa.Table.from_arrays(payload.columns + [lsn, deleted],
                                schema=internal_schema(payload_schema))


def make_stage_partitioner(
    payload_schema: pa.Schema,
    num_partitions: int,
    staging_dir: str,
    prep: str = "events",
    min_lsn_exclusive: int | None = None,
    worker_threads: int = 1,
):
    """Build the phase-1 batch closure (a plain function, called by a
    segment-piece task or by ``map_batches``): ``_internal_rows`` per batch
    (``prep`` names the input kind), routed to its hash partition and
    staged as ``part=KKKK/stage-*.arrow``.

    For events, one combined sort by (partition, doc_id, lsn) yields both
    the partial-reduce run boundaries and contiguous partition slices — a
    single payload gather per batch. The partial reduce bounds skew: a
    staged chunk holds each doc_id at most once, so a hot key costs
    phase 2 one row per batch, not one row per event. Staged chunks are
    UNCOMPRESSED Arrow IPC files: transient shuffle data, written at
    memory-bandwidth and mmap'd zero-copy by phase 2 (the lake snapshots
    stay zstd Parquet)."""
    import uuid as _uuid

    events = prep == "events"

    def stage(batch: pa.Table) -> pa.Table:
        tune_worker_threads(worker_threads)
        n_dropped_late = 0
        if events and min_lsn_exclusive is not None:
            # GC safety: a compaction dropped tombstones up to the
            # watermark, so events at or below it must never re-apply
            # (they could resurrect deleted keys). Late arrivals below the
            # watermark are dropped here, like any CDC system past its
            # retention horizon.
            before = batch.num_rows
            batch = batch.filter(
                pc.greater(batch.column("lsn"), min_lsn_exclusive)
            )
            n_dropped_late = before - batch.num_rows
        if batch.num_rows == 0:
            if n_dropped_late:
                # sentinel row: part=-1 carries the late-drop count so the
                # driver can report it (M6 metrics analog)
                return pa.Table.from_pylist(
                    [{"part": -1, "rows": n_dropped_late}],
                    schema=_stage_stats_schema(),
                )
            return _stage_stats_schema().empty_table()
        routed = _internal_rows(batch, payload_schema, prep)
        routed = routed.append_column(
            PART_COL,
            pa.array(partition_ids(routed.column("doc_id"), num_partitions),
                     type=pa.int32()),
        )
        if events:
            srt = _last_per_key(routed.sort_by(
                [(PART_COL, "ascending"), ("doc_id", "ascending"),
                 (INTERNAL_LSN, "ascending")]
            ), "doc_id")
        else:
            # no reduce → only partition-contiguity is needed: a single
            # int32-key sort, far cheaper than the 3-key string sort
            srt = routed.sort_by([(PART_COL, "ascending")])
        parts = srt.column(PART_COL).to_numpy()
        bounds = np.flatnonzero(np.diff(parts)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(parts)]])
        rows = []
        body = srt.drop_columns([PART_COL])
        uid = _uuid.uuid4().hex
        for s, e in zip(starts, ends):
            p = int(parts[s])
            chunk = body.slice(int(s), int(e - s))
            pdir = Path(staging_dir) / f"part={p:04d}"
            pdir.mkdir(parents=True, exist_ok=True)
            name = pdir / f"stage-{uid}-{s}.arrow"
            with pa.OSFile(str(name), "wb") as f:
                with pa.ipc.new_file(f, chunk.schema) as w:
                    w.write_table(chunk)
            rows.append({"part": p, "rows": chunk.num_rows})
        if n_dropped_late:
            rows.append({"part": -1, "rows": n_dropped_late})
        return pa.Table.from_pylist(rows, schema=_stage_stats_schema())

    return stage


def _stage_stats_schema() -> pa.Schema:
    return pa.schema([pa.field("part", pa.int32()), pa.field("rows", pa.int64())])


def segment_pieces(metas: dict, batch_size: int) -> list[list[str]]:
    """Pack change-log segments into phase-1 pieces from their footers
    (``{path: pq.FileMetaData}``): runs of consecutive whole segments
    holding at most ``batch_size`` rows, as lists of paths, so one task
    stages many small segments as one batch instead of a full batch
    plus a leftover. A segment larger than ``batch_size`` is a piece of
    its own; a segment without rows is in no piece."""
    pieces, paths, rows = [], [], 0
    for path, meta in metas.items():
        if not meta.num_rows:
            continue
        if paths and rows + meta.num_rows > batch_size:
            pieces.append(paths)
            paths, rows = [], 0
        paths.append(path)
        rows += meta.num_rows
    if paths:
        pieces.append(paths)
    return pieces


def _piece_stager(stage, payload_schema: pa.Schema, batch_size: int):
    """Phase-1 task body over one segment piece: stream its segments,
    conform each read batch to the change schema (``lsn``, ``op``,
    evolved payload) and ``stage`` them in ``batch_size``-row batches
    that may span segments; return the stats rows."""
    import pyarrow.parquet as pq

    change_schema = pa.schema(
        [pa.field("lsn", pa.int64()), pa.field("op", pa.string())]
        + list(payload_schema))

    def run(piece: list[str]) -> list[dict]:
        rows, pending, n = [], [], 0
        for path in piece:
            with pq.ParquetFile(path) as pf:
                for batch in pf.iter_batches(batch_size=batch_size):
                    pending.append(conform_table(
                        pa.Table.from_batches([batch]), change_schema))
                    n += batch.num_rows
                    if n >= batch_size:
                        table = pa.concat_tables(pending)
                        rows += stage(table.slice(0, batch_size)).to_pylist()
                        pending, n = [table.slice(batch_size)], n - batch_size
        if n:
            rows += stage(pa.concat_tables(pending)).to_pylist()
        return rows

    return run


def load_partition_state(
    table_dir: str, rels: list[str], int_sch: pa.Schema
) -> pa.Table:
    """Materialize one partition's logical state: fold the base snapshot
    plus any delta files (merge-on-read) with the LWW reduce. With a
    single (cow) snapshot this is just a conforming read. Each file is
    read through ``pq.ParquetFile``: ``pq.read_table``'s dataset layer
    costs about 0.6 ms more per small file for the same table."""
    import os

    import pyarrow.parquet as pq

    tables = []
    for rel in rels:
        with pq.ParquetFile(os.path.join(table_dir, rel)) as pf:
            tables.append(conform_table(pf.read(), int_sch))
    if not tables:
        return int_sch.empty_table()
    if len(tables) == 1:
        return tables[0]
    return lww_reduce(pa.concat_tables(tables))


def read_keys(table_dir: str, rels: list[str], int_sch: pa.Schema,
              keys: list[str]) -> pa.Table:
    """The live LWW winners of ``keys`` in one partition (files ``rels``
    = [base, *deltas]), as internal rows in ``doc_id`` order: the rows of
    ``load_partition_state`` filtered to ``keys``, without decoding the
    whole partition.

    1. prune: skip each row group whose ``doc_id`` statistics prove it
       holds none of ``keys`` (a row group without statistics is read);
    2. key pass: read ``doc_id``/``_lsn``/``_deleted`` of the remaining
       row groups, keep the rows of ``keys`` tagged with their file, row
       group and row, and pick each key's winner as ``lww_reduce`` does;
    3. payload pass: read each row group that holds a live winner once
       at full width and take the winners' rows. Tombstone winners need
       no payload.

    Reads run without Arrow's thread pool: at a few thousand rows the
    handoff costs more than it saves."""
    import bisect
    import os
    from contextlib import ExitStack

    import pyarrow.parquet as pq

    want = sorted(set(keys))
    if not want or not rels:
        return int_sch.empty_table()
    # the surviving row groups as (file, row group), their key columns
    groups, key_tables = [], []
    with ExitStack() as stack:
        files = [stack.enter_context(pq.ParquetFile(os.path.join(table_dir, r)))
                 for r in rels]
        for fi, pf in enumerate(files):
            meta = pf.metadata
            # by path: the nested ``tokens`` column has a leaf of its own,
            # so the Arrow field index is not the column-chunk index
            leaf = next(i for i in range(meta.num_columns)
                        if meta.schema.column(i).path == "doc_id")
            for rg in range(meta.num_row_groups):
                st = meta.row_group(rg).column(leaf).statistics
                if st is not None and st.has_min_max:
                    i = bisect.bisect_left(want, st.min)
                    if i == len(want) or want[i] > st.max:
                        continue
                groups.append((fi, rg))
                key_tables.append(pf.read_row_group(
                    rg, columns=["doc_id", INTERNAL_LSN, INTERNAL_DELETED],
                    use_threads=False))
        if not key_tables:
            return int_sch.empty_table()
        # a candidate's position in the concatenated key columns names
        # its row group and its row there
        keyed = pa.concat_tables(key_tables)
        pos = pc.indices_nonzero(pc.is_in(
            keyed.column("doc_id"),
            value_set=pa.array(want, int_sch.field("doc_id").type)))
        win = lww_reduce(keyed.take(pos).append_column("_pos", pos))
        live = np.sort(win.filter(pc.invert(win.column(INTERNAL_DELETED)))
                       .column("_pos").to_numpy()).astype(np.int64)
        starts = np.cumsum([0] + [t.num_rows for t in key_tables])
        group = np.searchsorted(starts, live, side="right") - 1
        hit, first = np.unique(group, return_index=True)
        out = [int_sch.empty_table()]
        for g, rows in zip(hit, np.split(live, first[1:])):
            fi, rg = groups[g]
            out.append(conform_table(
                files[fi].read_row_group(rg, use_threads=False)
                .take(pa.array(rows - starts[g])), int_sch))
    return pa.concat_tables(out).sort_by("doc_id")


def make_partition_fold(
    table_dir: str,
    staging_dir: str,
    epoch: int,
    part_files: dict[int, list[str]],
    payload_schema_json: list[list[str]],
    write_mode: str = "cow",
    worker_threads: int = 1,
):
    """Build the phase-2 task body: ``fold({"part": k})`` merges one
    partition and returns its manifest row (None when nothing is staged
    for it); ``staged_exchange`` runs one task per touched partition.

    ``write_mode="cow"``: fold staged events with the partition's current
    state (base + any deltas) and write the next full snapshot.
    ``write_mode="delta"``: write only the LWW-reduced NEW events as a
    delta file — no base read, no O(partition) rewrite; readers and the
    next cow/compact fold it in (merge-on-read)."""
    payload_schema = schema_from_jsonable(payload_schema_json)
    int_sch = internal_schema(payload_schema)
    files = {int(k): list(v) for k, v in part_files.items()}
    delta = write_mode == "delta"

    def fold(item: dict) -> dict | None:
        tune_worker_threads(worker_threads)
        part = item["part"]
        pdir = Path(staging_dir) / f"part={part:04d}"
        pieces = [conform_table(_read_chunk(p), int_sch)
                  for p in sorted(pdir.glob("stage-*.arrow"))]
        if not pieces:
            return None
        events = lww_reduce(pa.concat_tables(pieces))
        merged = events
        if not delta:
            base = load_partition_state(table_dir, files.get(part, []),
                                        int_sch)
            if base.num_rows:
                merged = lww_reduce(pa.concat_tables([base, events]))
        row = write_partition_snapshot(merged, table_dir, part, epoch,
                                       delta=delta)
        row["lsn_high"] = int(pc.max(events.column(INTERNAL_LSN)).as_py())
        row["events_applied"] = events.num_rows
        return row

    return fold


def make_partition_merger(*args, **kwargs):
    """``make_partition_fold`` (same arguments) over a table of parts:
    ``merge(pa.table({"part": [...]}))`` returns a table with one
    manifest row per part that had staged chunks — the form an
    in-process replay of phase 2 calls."""
    fold = make_partition_fold(*args, **kwargs)

    def merge(batch: pa.Table) -> pa.Table:
        rows = (fold({"part": int(p)}) for p in batch.column("part").to_pylist())
        return pa.Table.from_pylist([r for r in rows if r is not None])

    return merge


def write_partition_snapshot(
    table: pa.Table,
    table_dir: str | Path,
    part: int,
    epoch: int,
    delta: bool = False,
) -> dict:
    """The one writer of partition files: atomically write ``table``
    (internal rows) as ``part=K/epoch-N.parquet`` — a full snapshot — or,
    with ``delta``, as ``part=K/delta-N.parquet`` — a merge-on-read delta
    whose live-row count stays unknown (None) until the next fold.

    Returns the file's manifest row. The ``doc_id`` bounds are the zone
    map point lookups prune with (the engine's secondary-index analog,
    SURVEY P9)."""
    kind = "delta" if delta else "epoch"
    rel = f"part={part:04d}/{kind}-{epoch:06d}.parquet"
    size = atomic_write_table(table, Path(table_dir) / rel)
    bounds = pc.min_max(table.column("doc_id"))
    live = None if delta else int(
        pc.sum(pc.invert(table[INTERNAL_DELETED])).as_py() or 0)
    return {
        "part": part,
        "file": rel,
        "rows": table.num_rows,
        "live_rows": live,
        "bytes": size,
        "doc_id_min": bounds["min"].as_py(),
        "doc_id_max": bounds["max"].as_py(),
    }


def _read_chunk(path: Path) -> pa.Table:
    """Read one staged Arrow IPC chunk (memory-mapped, zero-copy)."""
    with pa.memory_map(str(path), "r") as src:
        return pa.ipc.open_file(src).read_all()


def _staged_task_cpus() -> float:
    """SMT-aware task sizing: one heavy task per *physical* core. The
    sort/copy kernels in the exchange are memory-bandwidth-bound; running
    two per core (hyperthread siblings) measurably anti-scales: 2 CPUs per
    task when the node advertises SMT-inflated CPU counts (>16), else 1."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    return 2.0 if cpus > 16 else 1.0


class ExchangeResult(NamedTuple):
    #: one manifest row per written partition (``write_partition_snapshot``
    #: plus ``lsn_high`` and ``events_applied``)
    rows: list[dict]
    #: events dropped at or below the compaction watermark
    dropped_late: int
    #: seconds per phase: setup, stage (phase 1), merge (phase 2)
    phase_seconds: dict[str, float]


@contextmanager
def staged_exchange(
    source,
    table_dir: str | Path,
    epoch: int,
    payload_schema: pa.Schema,
    num_partitions: int,
    cfg,
    prep: str = "events",
    write_mode: str = "cow",
    part_files: dict[int, list[str]] | None = None,
    min_lsn_exclusive: int | None = None,
    t0: float | None = None,
):
    """Rewrite the partitions ``source`` touches as epoch ``epoch`` — the
    one way the engine routes rows to partitions (ingest, distributed
    lake init, repartition); ``init_lake``, ``compact`` and
    ``compact_deltas`` write partition files through
    ``write_partition_snapshot`` without it. ``source`` is either a
    list of change-log segment pieces (``segment_pieces``; ingest),
    staged by one plain Ray task each, or a Dataset of ``prep`` rows
    (lake init, repartition), staged by ``map_batches``. In order: clear
    the epoch's staging dir (crash leftovers), run phase 1 over
    ``source`` (collecting its stats rows is the barrier), then phase 2
    over the touched partitions; yield an ``ExchangeResult``.

    The caller commits inside the ``with`` block. The staging dir is
    removed when the block exits normally and kept when it raises (a
    crash before the commit leaves it for inspection; the next attempt
    at the same epoch clears it first). ``cfg`` supplies the batch size;
    ``t0`` backdates the setup phase to the caller's start."""
    import shutil

    from rfb_cnpj_etl_ray.stages.exchange import run_tasks

    t0 = time.perf_counter() if t0 is None else t0
    staging = Path(table_dir) / "_staging" / f"epoch-{epoch:06d}"
    shutil.rmtree(staging, ignore_errors=True)
    task_cpus = _staged_task_cpus()
    threads = int(task_cpus)
    stage_fn = make_stage_partitioner(
        payload_schema, num_partitions, str(staging), prep=prep,
        min_lsn_exclusive=min_lsn_exclusive, worker_threads=threads,
    )
    t_stage = time.perf_counter()
    # stats are tiny (batches × touched parts)
    if isinstance(source, list):
        stats = [r for rows in run_tasks(
            _piece_stager(stage_fn, payload_schema, cfg.batch_size),
            source, num_cpus=task_cpus) for r in rows]
    else:
        stats = source.map_batches(
            stage_fn, batch_format="pyarrow", batch_size=cfg.batch_size,
            zero_copy_batch=True, num_cpus=task_cpus,
        ).take_all()
    t_merge = time.perf_counter()
    dropped_late = sum(r["rows"] for r in stats if r["part"] < 0)
    touched = sorted({int(r["part"]) for r in stats if r["part"] >= 0})
    # phase 2: every touched partition has staged chunks, so every task
    # returns a manifest row
    rows = run_tasks(make_partition_fold(
        str(table_dir), str(staging), epoch, part_files or {},
        schema_to_jsonable(payload_schema),
        write_mode=write_mode, worker_threads=threads,
    ), [{"part": p} for p in touched], num_cpus=task_cpus)
    t_end = time.perf_counter()
    yield ExchangeResult(rows, dropped_late, {
        "setup": round(t_stage - t0, 3),
        "stage": round(t_merge - t_stage, 3),
        "merge": round(t_end - t_merge, 3),
    })
    shutil.rmtree(staging, ignore_errors=True)
