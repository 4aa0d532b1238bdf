"""Relational operators over the driver's TPC-H-ish parquet tables.

Each function here re-expresses one reference capability (SURVEY.md §2
operator inventory) Ray-Data-first, and is registered in
``__ray_entry__.queries()`` with a matching DuckDB ``oracle_sql()``
string (column names/types aligned so the driver's order-insensitive
value-hash matches).

Patterns used deliberately (SURVEY.md §1.2, §4):
* dimension lookups are **broadcast joins** — ``ray.put`` the small side
  once, ``stages.exchange.fetch`` it once per worker process, map with
  pandas/numpy — never a shuffle (reference analog: the static
  dimension tables, db_patch.py:23-57);
* large-large joins use ``stages.joins.keyed_join`` (one keyed sort
  exchange, then one Arrow join per block);
* aggregations pre-reduce per batch, then fold once: low-cardinality
  partials of one table through ``stages.exchange.fold_parquet`` (plain
  tasks, no Dataset), those out of an exchange or a join through
  ``stages.exchange.tree_fold``; high-cardinality ones through
  ``stages.exchange.aggregate_by`` (one keyed exchange, one Arrow
  ``group_by`` per block);
* everything runs on Ray tasks: no operator here starts an actor;
* all hot-path transforms are vectorized Arrow/pandas — no per-row Python.

Floats: every aggregate that sums doubles is rounded (ROUND(x, 2)) on
BOTH sides so value-hashes are insensitive to summation order.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from rfb_cnpj_etl_ray.stages.exchange import (
    aggregate_by,
    fetch,
    fold_parquet,
    sum_by,
    tree_fold,
)


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    from rfb_cnpj_etl_ray.sources.parquet import read_table

    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _fold(sf_dir: str, table: str, columns: list[str], partial, combine,
          finish=None, batch_format: str = "pandas"):
    """``fold_parquet`` over one table: a per-batch ``partial`` folded by
    ``combine`` (then ``finish``) in plain tasks, with no Dataset."""
    return fold_parquet(f"{sf_dir}/{table}.parquet", columns, partial,
                        combine, finish, batch_format)


# ---------------------------------------------------------------------------
# P2 analog — LSN-ordered last-writer-wins dedup, on the events stream
# ---------------------------------------------------------------------------

def lww_latest_events(sf_dir: str):
    """Last event per user_id by event_id (the engine's LWW merge applied
    to the generic events table; reference: best-record-wins dedup,
    db_patch.py:60-87). Uses the same sort+run-boundary fold as the CDC
    merge core, with per-batch partial reduce before the shuffle."""
    from rfb_cnpj_etl_ray.stages.merge import lww_reduce

    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        return lww_reduce(batch, key="user_id", lsn="event_id")

    ds = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # final reduce: keyed exchange, then one vectorized LWW fold per
    # BLOCK (each key is wholly contained) — no per-group dispatch
    out = repartition_by_key(ds, ["user_id"]).map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    return out.rename_columns(
        {"event_id": "last_event_id", "event_type": "last_event_type",
         "value": "last_value"}
    )


LWW_LATEST_EVENTS_SQL = """
SELECT user_id,
       event_id   AS last_event_id,
       event_type AS last_event_type,
       value      AS last_value
FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
  FROM events
) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# F1 analog — explode a delimited column into child rows
# ---------------------------------------------------------------------------

def explode_part_types(sf_dir: str):
    """Split p_type on spaces into one (p_partkey, word) row per item —
    the secondary-CNAE explode (db_batch_producer.py:61-72) as a
    vectorized list-flatten, not a per-row flat_map."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def explode(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch.column("p_type"), " ")
        flat = pc.list_flatten(words)
        parents = pc.list_parent_indices(words)
        keys = batch.column("p_partkey").take(parents)
        return pa.table({"p_partkey": keys, "word": flat})

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


EXPLODE_PART_TYPES_SQL = """
SELECT p_partkey, unnest(string_split(p_type, ' ')) AS word FROM part
"""


# ---------------------------------------------------------------------------
# P6/P8 analog — anti-join (orphan detection / referential gate)
# ---------------------------------------------------------------------------

#: "high-value order" cutoff for the anti-join demo — chosen so the
#: orphan set is non-empty at every test scale.
_HIGH_VALUE = 350_000.0


def customers_without_orders(sf_dir: str):
    """Anti-join via broadcast key set: the child side streams, the parent
    key set rides the object store once (semi/anti joins never shuffle
    when one side's keys fit in memory; at 100 TB swap in a Bloom filter
    built the same way). Reference: orphan delete, db_patch.py:108-115.

    Predicate pushdown at the read: only o_custkey of qualifying orders
    ever leaves storage (row-group filter + column prune)."""
    # plain read: Ray's reader rejects a declared schema combined with a
    # row filter on a non-projected column (ArrowInvalid), so this site
    # keeps the file schema
    orders_keys = (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey"],
            filter=pc.field("o_totalprice") > _HIGH_VALUE,
        )
        .unique("o_custkey")
    )
    key_ref = ray.put(np.array(orders_keys, dtype=np.int64))

    def anti_join(batch: pa.Table) -> pa.Table:
        mask = np.isin(batch.column("c_custkey").to_numpy(), fetch(key_ref),
                       invert=True)
        return batch.filter(pa.array(mask))

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    return ds.map_batches(anti_join, batch_format="pyarrow",
                          zero_copy_batch=True)


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 350000)
"""


def customers_without_orders_bucketed(sf_dir: str):
    """Same anti-join, LARGE-LARGE path: no broadcast key set — both
    sides go through one keyed exchange (each key wholly in one block)
    and every block anti-joins vectorized. The shape that survives when the
    parent side outgrows memory (stages/joins.bucketed_anti_join)."""
    from rfb_cnpj_etl_ray.stages.joins import bucketed_anti_join

    customers = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders_keys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pc.field("o_totalprice") > _HIGH_VALUE,
    )
    return bucketed_anti_join(customers, orders_keys,
                              "c_custkey", "o_custkey")


def customers_without_orders_bloom(sf_dir: str):
    """Bloom-prefiltered exact anti-join: a distributed-built Bloom over
    the parent keys rides the object store; definite non-members pass
    without shuffling (the overwhelming majority), only possible members
    (≈ fp_rate of the left) continue to the exact bucketed verify — so
    the result is EXACT, the bloom only prunes shuffle volume."""
    from rfb_cnpj_etl_ray.stages.joins import (
        BloomFilter,
        bucketed_anti_join,
        build_bloom,
    )

    orders_keys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pc.field("o_totalprice") > _HIGH_VALUE,
    )
    bloom = build_bloom(orders_keys, "o_custkey", n_keys_hint=100_000)
    bloom_ref = ray.put((bloom.m, bloom.k, bloom.bits))

    def split(want_members: bool):
        def keep(batch: pa.Table) -> pa.Table:
            m, k, bits = fetch(bloom_ref)
            member = BloomFilter(m, k, bits=bits).might_contain(
                batch.column("c_custkey"))
            return batch.filter(pa.array(member if want_members else ~member))
        return keep

    customers = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    definite_out = customers.map_batches(
        split(False), batch_format="pyarrow", zero_copy_batch=True)
    candidates = customers.map_batches(
        split(True), batch_format="pyarrow", zero_copy_batch=True)
    # materialized before the union: its keyed exchange must not run
    # beside the streaming branch (see stages.joins.keyed_join)
    verified = bucketed_anti_join(candidates, orders_keys,
                                  "c_custkey", "o_custkey").materialize()
    return definite_out.union(verified)


# ---------------------------------------------------------------------------
# P3/P4/P5 analogs — conditional update / default fill / zero-pad
# ---------------------------------------------------------------------------

def normalize_nation_codes(sf_dir: str):
    """Vectorized conditional-column updates: null-out sentinel, default
    fill, LPAD zero-pad (db_patch.py:89,91,93-106) as pc kernels."""
    ds = _read(sf_dir, "nation")

    def fix(batch: pa.Table) -> pa.Table:
        key = batch.column("n_nationkey")
        code = pc.utf8_lpad(pc.cast(key, pa.string()), 3, "0")
        # sentinel: region 0 codes null out (P3 analog: cod_pais='0' -> NULL)
        region = batch.column("n_regionkey")
        region_fixed = pc.if_else(
            pc.equal(region, 0), pa.nulls(batch.num_rows, pa.int32()), region
        )
        name = batch.column("n_name")
        name_filled = pc.if_else(pc.equal(name, ""), pa.scalar("UNKNOWN"), name)
        return pa.table(
            {
                "n_nationkey": key,
                "nation_code": code,
                "n_name": name_filled,
                "n_regionkey": region_fixed,
            }
        )

    return ds.map_batches(fix, batch_format="pyarrow", zero_copy_batch=True)


NORMALIZE_NATION_CODES_SQL = """
SELECT n_nationkey,
       lpad(CAST(n_nationkey AS VARCHAR), 3, '0') AS nation_code,
       CASE WHEN n_name = '' THEN 'UNKNOWN' ELSE n_name END AS n_name,
       CASE WHEN n_regionkey = 0 THEN NULL ELSE n_regionkey END AS n_regionkey
FROM nation
"""


# ---------------------------------------------------------------------------
# P1 analog — idempotent dimension upsert (insert-if-absent)
# ---------------------------------------------------------------------------

#: static rows missing from the source dimension (reference: hard-coded
#: qualificacao/motivo/pais upserts, db_patch.py:23-57, docs/normalizacao.md).
_STATIC_NATIONS = [(90, "ATLANTIS", 0), (91, "ELDORADO", 1)]


def upsert_static_nations(sf_dir: str):
    """INSERT ... ON CONFLICT DO NOTHING re-expressed: broadcast the
    static rows, filter out keys already present, union — first-writer
    wins, duplicates impossible.

    Scale shape: the presence probe is a column-pruned scan filtered to
    the static key list inside ``map_batches`` (≤ len(_STATIC_NATIONS)
    rows ever reach the driver) — NOT a full-table ``unique()``, which
    at 100 TB would shuffle every key to compute a 2-element set."""
    ds = _read(sf_dir, "nation")
    probe_keys = pa.array([r[0] for r in _STATIC_NATIONS], pa.int32())

    def probe(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["n_nationkey"], value_set=probe_keys))

    hits = (_read(sf_dir, "nation", columns=["n_nationkey"])
            .map_batches(probe, batch_format="pyarrow"))
    existing = set(x["n_nationkey"] for x in hits.take_all())
    missing = [r for r in _STATIC_NATIONS if r[0] not in existing]
    add = pa.table(
        {
            "n_nationkey": pa.array([r[0] for r in missing], pa.int32()),
            "n_name": pa.array([r[1] for r in missing], pa.string()),
            "n_regionkey": pa.array([r[2] for r in missing], pa.int32()),
        }
    )
    return ds.union(ray.data.from_arrow(add))


UPSERT_STATIC_NATIONS_SQL = """
SELECT * FROM nation
UNION ALL
SELECT CAST(v.k AS INTEGER), v.n, CAST(v.r AS INTEGER)
FROM (VALUES (90, 'ATLANTIS', 0), (91, 'ELDORADO', 1)) v(k, n, r)
WHERE NOT EXISTS (SELECT 1 FROM nation WHERE n_nationkey = v.k)
"""


# ---------------------------------------------------------------------------
# Q1-style grouped aggregate with per-batch partial reduce
# ---------------------------------------------------------------------------

def pricing_summary(sf_dir: str):
    """Flagship grouped aggregate: pre-aggregate each batch to ~|keys|
    rows, then fold the partials to one block (``fold_parquet``) — the
    scale pattern for low-cardinality keys (4–6 flag/status groups).
    """

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native partial agg: no per-batch pandas conversion
        # (VERDICT r2 #8)
        disc = pc.multiply(batch.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0),
                                       batch.column("l_discount")))
        t = batch.append_column("disc_price", disc)
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate([
            ("l_quantity", "sum"),
            ("l_extendedprice", "sum"),
            ("disc_price", "sum"),
            ([], "count_all"),
        ])
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
             "sum_disc_price", "count_order"])

    def finalize(df: pd.DataFrame) -> pa.Table:
        batch = pa.Table.from_pandas(df, preserve_index=False)
        # half_towards_infinity: integer-ratio averages land on exact
        # dyadic halves (25/8 = 3.125) where half-even diverges from
        # DuckDB ROUND (ADVICE r2 rounding pin)
        avg = pc.round(
            pc.divide(batch.column("sum_qty"),
                      pc.cast(batch.column("count_order"), pa.float64())), 2,
            round_mode="half_towards_infinity",
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pc.round(batch.column("sum_qty"), 2),
                "sum_base_price": pc.round(batch.column("sum_base_price"), 2),
                "sum_disc_price": pc.round(batch.column("sum_disc_price"), 2),
                "avg_qty": avg,
                "count_order": batch.column("count_order"),
            }
        )

    return _fold(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount"],
        partial,
        sum_by(["l_returnflag", "l_linestatus"],
               ["sum_qty", "sum_base_price", "sum_disc_price",
                "count_order"]),
        finalize, batch_format="pyarrow")


PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2)                        AS sum_qty,
       ROUND(SUM(l_extendedprice), 2)                   AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(SUM(l_quantity) / COUNT(*), 2)             AS avg_qty,
       COUNT(*)                                         AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# flagship multi-join aggregate (query_sqlite.md analog)
# ---------------------------------------------------------------------------

def revenue_by_nation(sf_dir: str):
    """Only the genuinely dimension-sized side (nation, 25 rows) is
    broadcast; customer and orders are both fact-sized, so
    orders⋈customer AND lineitem⋈orders run as ``keyed_join``s —
    nothing fact-sized ever lands on the driver. Revenue is pre-reduced
    per batch to per-order partials before its exchange. Rows whose
    customer lacks a nation drop (inner-join semantics, matching the
    SQL oracle).
    Reference flagship query: docs/exemplos/query_sqlite.md:11-79."""
    from rfb_cnpj_etl_ray.sources.parquet import from_pandas_clean
    from rfb_cnpj_etl_ray.stages.joins import keyed_join

    nation_tbl = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation_ref = ray.put(dict(zip(nation_tbl["n_nationkey"],
                                  nation_tbl["n_name"])))

    def attach_nation(batch: pd.DataFrame) -> pa.Table:
        batch["n_name"] = batch["c_nationkey"].map(fetch(nation_ref))
        # inner-join semantics: a customer without a nation row
        # contributes nothing (the oracle's JOIN drops it too)
        return from_pandas_clean(
            batch.dropna(subset=["n_name"])[["c_custkey", "n_name"]])

    customer_n = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]
                       ).map_batches(attach_nation, batch_format="pandas")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    lineitem = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def revenue_partial(batch: pd.DataFrame) -> pa.Table:
        batch["revenue"] = batch["l_extendedprice"] * (1 - batch["l_discount"])
        return from_pandas_clean(
            batch.groupby("l_orderkey", as_index=False)["revenue"].sum()
        )

    # join 1 (the only orders-scale exchange): per-order revenue
    # partials ⋈ orders → (o_custkey, revenue)
    li = lineitem.map_batches(revenue_partial, batch_format="pandas")
    joined = keyed_join(li, orders, "l_orderkey", "o_orderkey", "inner")

    # pre-reduce per custkey per block BEFORE the second exchange: the
    # customer join then moves ≤|customers| rows per block, not orders
    def custkey_partial(batch: pd.DataFrame) -> pa.Table:
        return from_pandas_clean(
            batch.groupby("o_custkey", as_index=False)["revenue"].sum())

    per_cust = joined.map_batches(custkey_partial, batch_format="pandas")

    # join 2 is customer-cardinality on both sides
    withn = keyed_join(per_cust, customer_n, "o_custkey", "c_custkey",
                       "inner")
    # 25 nations: the per-nation sum is a low-cardinality fold
    out = tree_fold(withn, sum_by(["n_name"], "revenue"))
    return out.map_batches(
        lambda t: pa.table(
            {"n_name": t.column("n_name"),
             "revenue": pc.round(t.column("revenue"), 2,
                                 round_mode="half_towards_infinity")}
        ),
        batch_format="pyarrow",
    )


REVENUE_BY_NATION_SQL = """
SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# GROUP_CONCAT / STRING_AGG analog
# ---------------------------------------------------------------------------

def parts_per_order(sf_dir: str):
    """Per-order comma-joined sorted part keys — the correlated
    GROUP_CONCAT subquery of the flagship reference query
    (query_sqlite.md:57-61). One keyed exchange, then the whole
    block reduces in a single vectorized pandas groupby — no per-order
    Python dispatch (at |orders| cardinality ``map_groups`` would pay
    one interpreter call per group)."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def concat_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                                 "part_list": pd.Series([], dtype="object"),
                                 "n_parts": pd.Series([], dtype="int64")})
        df = df.sort_values(["l_orderkey", "l_partkey"], kind="stable")
        df["pk"] = df["l_partkey"].astype(str)  # one vectorized cast
        g = df.groupby("l_orderkey", sort=False)
        out = g["pk"].agg(part_list=",".join, n_parts="size").reset_index()
        return out

    return repartition_by_key(ds, ["l_orderkey"]).map_batches(
        concat_block, batch_format="pandas", batch_size=None
    )


PARTS_PER_ORDER_SQL = """
SELECT l_orderkey,
       string_agg(CAST(l_partkey AS VARCHAR), ',' ORDER BY l_partkey) AS part_list,
       COUNT(*) AS n_parts
FROM lineitem GROUP BY l_orderkey
"""


# ---------------------------------------------------------------------------
# sort + limit (top-k)
# ---------------------------------------------------------------------------

def top_orders(sf_dir: str):
    """Global top-20 by total price (ties broken by key for determinism).
    ds.sort is a distributed sample-partitioned sort; limit prunes."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(20)


TOP_ORDERS_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 20
"""


# ---------------------------------------------------------------------------
# event-time windowed aggregate (streaming-shaped, SURVEY §2.6)
# ---------------------------------------------------------------------------

_HOURLY_PARTIAL_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("hour", pa.timestamp("us")),
    ("n_events", pa.int64()), ("sum_cents", pa.int64()),
])


#: the hourly view's fold: counts and cent sums add across partials
_HOURLY_SUMS = {"n_events": "sum", "sum_cents": "sum"}


def _hourly_partial(batch: pa.Table) -> pa.Table:
    """Per-block partial of the hourly view: floor ts → hour, exact
    integer-cent sums, one Arrow group_by. Emits timestamp[us] so
    partials from different sources (raw events vs a parquet-spilled
    view) always union with one schema."""
    hour = pc.cast(
        pc.floor_temporal(batch.column("ts"), unit="hour"),
        pa.timestamp("us"))
    # integer-cent sums: exact partials, engine-neutral (no
    # summation-order ROUND boundary flips at high group counts)
    # half_towards_infinity pins DuckDB round()'s half-away rule
    # (Arrow defaults to half-to-even) — ADVICE r2
    cents = pc.cast(pc.round(
        pc.multiply(batch.column("value"), 100.0),
        round_mode="half_towards_infinity"), pa.int64())
    out = pa.table(
        {"user_id": batch.column("user_id"), "hour": hour,
         "cents": cents}
    )
    return out.group_by(["user_id", "hour"]).aggregate(
        [([], "count_all"), ("cents", "sum")]
    ).rename_columns(_HOURLY_PARTIAL_SCHEMA.names)


def hourly_user_activity(sf_dir: str):
    """Tumbling 1h event-time windows per user: floor the timestamp in a
    vectorized kernel, partial-reduce per block, then ``aggregate_by``
    (user, hour) — Ray Data has no watermarks, so windows are just
    another grouping key (ordering assumption: none needed for a
    tumbling count/sum)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    partials = ds.map_batches(
        _hourly_partial, batch_format="pyarrow", zero_copy_batch=True)
    return aggregate_by(partials, ["user_id", "hour"], _HOURLY_SUMS)


HOURLY_USER_ACTIVITY_SQL = """
SELECT user_id, date_trunc('hour', ts) AS hour,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY user_id, date_trunc('hour', ts)
"""


# ---------------------------------------------------------------------------
# incremental materialized-view maintenance (the CDC north rule applied
# to aggregates: epoch-at-a-time refresh folding deltas into view state)
# ---------------------------------------------------------------------------

VIEW_EPOCHS = 4  # power of two: epoch = event_id & (N-1) filters vectorized


def _ckpt_writer(path_str: str):
    """Pass-through map_batches stage that stages each block to its own
    parquet file under ``path_str`` — the fused fold+checkpoint write
    (same staged-parts recipe as the CDC merge; the ``_DONE`` marker the
    caller drops afterwards is the commit point, so a crash mid-write
    leaves only an unmarked dir that the next run rmtree's).

    A part is named after its block's smallest ``(user_id, hour)`` key,
    unique after the keyed aggregate, and lands by ``os.replace`` from
    a dot-temp file: a retried or re-executed task rewrites its part
    instead of adding a second copy."""

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows:
            import os
            import uuid
            from pathlib import Path

            import pyarrow.parquet as _pq

            user = pc.min(t.column("user_id"))
            hour = pc.min(t.filter(pc.equal(t.column("user_id"), user))
                          .column("hour"))
            tmp = Path(path_str) / f".part-{uuid.uuid4().hex}.tmp"
            _pq.write_table(t, tmp)
            os.replace(tmp, Path(path_str)
                       / f"part-{user.as_py()}-{hour.value}.parquet")
        return t

    return write_block


def _read_ckpt(path: "Path"):
    """Resume read of a ``_DONE``-marked checkpoint dir; an empty view
    checkpoint has no part files — that's an empty view, not an error."""
    files = sorted(str(p) for p in path.glob("*.parquet"))
    if not files:
        return ray.data.from_arrow(_HOURLY_PARTIAL_SCHEMA.empty_table())
    return ray.data.read_parquet(files)


def incremental_hourly_activity(sf_dir: str, resume: bool = False):
    """The hourly view maintained INCREMENTALLY across event epochs.

    CDC-for-aggregates: events arrive in ``VIEW_EPOCHS`` batches; each
    refresh folds that epoch's per-block PARTIAL aggregates into the
    compacted view state. Prior epochs' raw events are never re-read —
    only the view, which is |users|×|hours| rows, orders of magnitude
    smaller than the 10^10-event log at scale. The view checkpoints to
    partitioned parquet between epochs (same resumability recipe as the
    lake's commit-log ingest): with ``resume=True`` a crashed refresh
    restarts from the last completed epoch's ``_DONE``-marked
    checkpoint, not from the raw log (default ``False`` rebuilds from
    scratch so repeated query/bench calls stay comparable; the resume
    path is exercised by its own test). Counts/sums form a
    commutative monoid, so the fold IS the merge — no LWW tie-breaks
    needed. Final state is provably equal to a full recompute: the
    oracle is the very same ``HOURLY_USER_ACTIVITY_SQL``.

    Scale shape per epoch: one streaming pass over 1/N of the events
    (partials shrink blocks to the view's cardinality) → union with the
    view read (column-complete, small) → ONE ``aggregate_by`` at view
    cardinality → parquet spill. No full-log shuffle ever happens.

    The epoch split itself is ONE routed pass (hive-partitioned write on
    ``epoch = event_id & (N-1)``), standing in for the separate arrivals
    a real log delivers — so each refresh then reads only its own
    epoch's files (partition-pruned), exactly like tailing segments.
    """
    import shutil
    from pathlib import Path

    from rfb_cnpj_etl_ray.scratch import scratch_dir

    # abspath-keyed: same-name datasets must not clobber checkpoints
    scratch = scratch_dir("incr_view", sf_dir)
    if not resume:
        shutil.rmtree(scratch, ignore_errors=True)

    # resume FIRST: the newest _DONE-marked checkpoint already folds
    # every epoch up to and including its own — restart AFTER it
    # (earlier checkpoints were rolled away; a half-written dir has no
    # marker). Checking before the arrivals rebuild keeps a fully-caught
    # -up warm call O(view), not O(log): rebuilding the (consumed)
    # arrivals split when no epochs remain would re-scan the raw log.
    start = -1
    if resume:
        start = max((ep for ep in range(VIEW_EPOCHS)
                     if (scratch / f"epoch_{ep}" / "_DONE").exists()),
                    default=-1)

    # arrival simulation: route the log into per-epoch directories once
    arrivals = scratch / "arrivals"

    def route(batch: pa.Table) -> pa.Table:
        ep = pc.bit_wise_and(batch.column("event_id"), VIEW_EPOCHS - 1)
        return batch.append_column("epoch", pc.cast(ep, pa.int64()))

    from rfb_cnpj_etl_ray.sources.parquet import read_table, sized_blocks

    if start + 1 < VIEW_EPOCHS and not (arrivals / "_DONE").exists():
        shutil.rmtree(arrivals, ignore_errors=True)
        ev = f"{sf_dir}/events.parquet"
        read_table(
            ev, columns=["event_id", "user_id", "ts", "value"],
            override_num_blocks=sized_blocks([ev]),
        ).map_batches(
            route, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(str(arrivals), partition_cols=["epoch"])
        (arrivals / "_DONE").touch()

    prev: Path | None = scratch / f"epoch_{start}" if start >= 0 else None
    view = _read_ckpt(prev) if prev is not None else None
    for ep in range(start + 1, VIEW_EPOCHS):
        # pin the read's block count to the epoch's on-disk size: Ray's
        # CPU-derived default over-splits a small epoch into 64 tiny
        # blocks and every downstream stage pays the task wave
        files = sorted(
            str(p) for p in (arrivals / f"epoch={ep}").glob("*.parquet"))
        if files:
            partials = ray.data.read_parquet(
                files,
                columns=["user_id", "ts", "value"],
                override_num_blocks=sized_blocks(files),
            ).map_batches(
                _hourly_partial, batch_format="pyarrow",
                zero_copy_batch=True)
        else:
            # an epoch no event routed to is a no-op fold, not an error
            partials = ray.data.from_arrow(
                _HOURLY_PARTIAL_SCHEMA.empty_table())
        if view is not None:
            partials = partials.union(view)
        path = scratch / f"epoch_{ep}"
        shutil.rmtree(path, ignore_errors=True)  # half-written leftovers
        path.mkdir(parents=True, exist_ok=True)
        folded = aggregate_by(
            partials, ["user_id", "hour"], _HOURLY_SUMS
        ).map_batches(
            # stage-write the checkpoint from the SAME graph as the
            # fold — fold + checkpoint is ONE plan per refresh, not
            # write_parquet plus a read-back (VERDICT r4 #4: the
            # 9-chained-plans fixed-cost floor). The blocks flow on as
            # the next epoch's view, so the view never leaves the object
            # store between refreshes; the parquet files exist only for
            # crash resume.
            _ckpt_writer(str(path)),
            batch_format="pyarrow",
        )
        # materialize = the plan's single execution; _DONE only after it
        # completes (same commit-point semantics as before)
        view = folded.materialize()
        (path / "_DONE").touch()  # checkpoint commit point
        if prev is not None:
            shutil.rmtree(prev, ignore_errors=True)
        prev = path
    shutil.rmtree(arrivals, ignore_errors=True)  # log consumed
    return view


INCREMENTAL_HOURLY_ACTIVITY_SQL = HOURLY_USER_ACTIVITY_SQL


# ---------------------------------------------------------------------------
# window functions over an ordered stream (SURVEY §2.6 — the engine adds
# these; the reference delegates all windowing to SQL)
# ---------------------------------------------------------------------------

def lagged_events(sf_dir: str):
    """Per-key LAG: each event paired with the previous event's value in
    (event_id) order. Keyed exchange, then the LAG computes over the
    whole block with vectorized ``groupby(...).shift()`` — one pandas
    kernel per block, not one Python call per user (no watermarks needed:
    the window frame is the grouping key + explicit order column)."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def lag_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="stable")
        df["prev_value"] = df.groupby("user_id", sort=False)["value"].shift(1)
        return df

    return repartition_by_key(ds, ["user_id"]).map_batches(
        lag_block, batch_format="pandas", batch_size=None
    )


LAGGED_EVENTS_SQL = """
SELECT event_id, user_id, value,
       LAG(value) OVER (PARTITION BY user_id ORDER BY event_id) AS prev_value
FROM events
"""


def running_user_totals(sf_dir: str):
    """Per-key running aggregate (cumulative sum ordered by event_id) —
    the unbounded-preceding window frame as a block-wide vectorized
    ``groupby(...).cumsum()`` after a keyed exchange."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def running_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="stable")
        from rfb_cnpj_etl_ray.numeric import round_half_away

        df["running_value"] = round_half_away(
            df.groupby("user_id", sort=False)["value"].cumsum(), 2)
        return df[["event_id", "user_id", "running_value"]]

    return repartition_by_key(ds, ["user_id"]).map_batches(
        running_block, batch_format="pandas", batch_size=None
    )


RUNNING_USER_TOTALS_SQL = """
SELECT event_id, user_id,
       ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY event_id
                              ROWS UNBOUNDED PRECEDING), 2) AS running_value
FROM events
"""


# ---------------------------------------------------------------------------
# as-of join — an operator Ray Data lacks natively (SURVEY §2 "custom
# operators": composition of groupby + in-group merge_asof; partitioning
# assumption: one keyed exchange on the join key puts each key's full
# history in one block)
# ---------------------------------------------------------------------------

def asof_join_last_purchase(sf_dir: str):
    """For every click event, the value of the same user's most recent
    STRICTLY-EARLIER purchase event (null if none) — the classic
    event-stream as-of join. Keyed exchange on user_id, then ONE
    ``pd.merge_asof(..., by="user_id")`` over the whole block — pandas
    does the per-key asof matching in a single C pass, no per-user
    Python dispatch."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts", "value"])

    def asof_block(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["event_type"] == "click"].sort_values("ts", kind="stable")
        # tie rule: at an identical purchase ts the HIGHEST event_id
        # wins (merge_asof keeps the last row <= ts; block order after
        # the shuffle is arbitrary, so pin it deterministically)
        right = df[df["event_type"] == "purchase"].sort_values(
            ["ts", "event_id"], kind="stable")
        if left.empty:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "user_id": pd.Series([], dtype="int64"),
                 "prev_purchase_value": pd.Series([], dtype="float64")}
            )
        joined = pd.merge_asof(
            left[["event_id", "user_id", "ts"]],
            right[["user_id", "ts", "value"]].rename(
                columns={"value": "prev_purchase_value"}),
            on="ts", by="user_id",
            allow_exact_matches=False, direction="backward",
        )
        return joined[["event_id", "user_id", "prev_purchase_value"]]

    return repartition_by_key(ds, ["user_id"]).map_batches(
        asof_block, batch_format="pandas", batch_size=None
    )


ASOF_JOIN_LAST_PURCHASE_SQL = """
SELECT l.event_id, l.user_id, r.value AS prev_purchase_value
FROM (SELECT * FROM events WHERE event_type = 'click') l
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') r
  ON l.user_id = r.user_id AND r.ts < l.ts
"""


# ---------------------------------------------------------------------------
# sliding (hopping) event-time window — the overlapping-window variant of
# hourly_user_activity (SURVEY §2.6 streaming shapes)
# ---------------------------------------------------------------------------

_SLIDE_HOURS = 3  # window length; hop = 1h → each event lands in 3 windows


def sliding_user_activity(sf_dir: str):
    """3-hour windows hopping hourly, per user: each event vectorized-
    explodes into its 3 covering windows (window_start = floor(ts) - k·1h)
    then the usual partial-agg → ``aggregate_by`` (user, window). Overlap
    factor is the only cost over tumbling; no watermark needed for
    counts/sums."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def explode_windows(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        # integer-cent sums: partial sums are exact and engine-neutral
        # (values are 2-decimal; summation order can never flip a round)
        # half_towards_infinity pins DuckDB round()'s half-away rule
        # (Arrow defaults to half-to-even) — ADVICE r2
        cents = pc.cast(pc.round(
            pc.multiply(batch.column("value"), 100.0),
            round_mode="half_towards_infinity"), pa.int64())
        tbls = []
        for k in range(_SLIDE_HOURS):
            start = pc.subtract(
                hour, pa.scalar(k * 3_600_000_000, pa.duration("us")))
            tbls.append(pa.table({
                "user_id": batch.column("user_id"),
                "window_start": start,
                "cents": cents,
            }))
        return pa.concat_tables(tbls).group_by(
            ["user_id", "window_start"]
        ).aggregate([([], "count_all"), ("cents", "sum")]).rename_columns(
            ["user_id", "window_start", "n_events", "sum_cents"])

    partials = ds.map_batches(explode_windows, batch_format="pyarrow",
                              zero_copy_batch=True)
    return aggregate_by(partials, ["user_id", "window_start"], _HOURLY_SUMS)


SLIDING_USER_ACTIVITY_SQL = f"""
SELECT user_id,
       date_trunc('hour', ts) - INTERVAL (k) HOUR AS window_start,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events, unnest([0, 1, 2]) AS t(k)
GROUP BY user_id, date_trunc('hour', ts) - INTERVAL (k) HOUR
"""


# ---------------------------------------------------------------------------
# per-group top-k (rank window) — keyed exchange + per-block vectorized head
# ---------------------------------------------------------------------------

_TOPK_PER_CUST = 2


def top_orders_per_customer(sf_dir: str):
    """Each customer's top-2 orders by price (ties → lower orderkey) —
    the ROW_NUMBER()-per-partition window as one keyed exchange + a
    block-wide sort + groupby.head: no per-customer Python dispatch."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def topk_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True], kind="stable")
        return df.groupby("o_custkey", sort=False).head(_TOPK_PER_CUST)

    return repartition_by_key(ds, ["o_custkey"]).map_batches(
        topk_block, batch_format="pandas", batch_size=None
    )


TOP_ORDERS_PER_CUSTOMER_SQL = f"""
SELECT o_orderkey, o_custkey, o_totalprice
FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY o_custkey
                               ORDER BY o_totalprice DESC, o_orderkey) rn
  FROM orders
) WHERE rn <= {_TOPK_PER_CUST}
"""

# ---------------------------------------------------------------------------
# sessionization (gaps-and-islands) — the streaming session-window shape a
# training-data event pipeline needs; reference has no analog (SURVEY §2.6
# extension). One keyed exchange, then the whole gap→island→aggregate
# cascade is three vectorized pandas kernels per block.
# ---------------------------------------------------------------------------

_SESSION_GAP_MIN = 30  # inactivity gap (minutes) that closes a session


def session_windows(sf_dir: str):
    """Per-user session windows: consecutive events closer than
    ``_SESSION_GAP_MIN`` minutes share a session; a strictly-greater gap
    opens a new one. Output one row per session with start/end, event
    count and exact integer-cent value sum. Partitioning assumption:
    the user_id keyed exchange puts each user's full history in one
    block, so gap detection is ``diff`` + ``cumsum`` over run
    boundaries — no per-user Python dispatch, no watermark state (batch
    semantics)."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        gap = pd.Timedelta(minutes=_SESSION_GAP_MIN)
        prev_ts = df.groupby("user_id", sort=False)["ts"].shift(1)
        # first event of a user (NaT prev) and gap>threshold both start
        is_start = prev_ts.isna() | ((df["ts"] - prev_ts) > gap)
        df["session_idx"] = is_start.astype("int64").groupby(
            df["user_id"], sort=False).cumsum()
        # exact cents, HALF-AWAY like DuckDB round() (np.round is
        # half-to-even — ADVICE r2 rounding pin, latent on 2-decimal
        # fixtures but wrong on exact .5 boundaries)
        v = df["value"].to_numpy() * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v)
        df["cents"] = cents.astype("int64")
        out = df.groupby(["user_id", "session_idx"], as_index=False).agg(
            session_start=("ts", "min"), session_end=("ts", "max"),
            n_events=("ts", "size"), sum_cents=("cents", "sum"))
        return out

    return repartition_by_key(ds, ["user_id"]).map_batches(
        sessionize, batch_format="pandas", batch_size=None
    )


SESSION_WINDOWS_SQL = f"""
WITH flagged AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 100) AS BIGINT) AS cents,
         CASE WHEN LAG(ts) OVER w IS NULL
                OR ts - LAG(ts) OVER w > INTERVAL {_SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS is_start
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT *, CAST(SUM(is_start) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id
                                     ROWS UNBOUNDED PRECEDING) AS BIGINT)
            AS session_idx
  FROM flagged
)
SELECT user_id, session_idx,
       MIN(ts) AS session_start, MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM sess GROUP BY user_id, session_idx
"""


# ---------------------------------------------------------------------------
# exact distinct-count per group — COUNT(DISTINCT) at scale: dedup where
# the DATA lives (each user_id's rows land in one block via the keyed
# exchange, so per-block drop_duplicates IS global dedup), then a tiny
# ``tree_fold`` Sum. No hot-key skew: the exchange keys on the high-cardinality
# side (user_id), not the handful of event_type groups.
# ---------------------------------------------------------------------------

def distinct_users_per_type(sf_dir: str):
    """Exact ``COUNT(DISTINCT user_id)`` per event_type. The exchange
    partitions by user_id, so one (event_type, user_id) pair appears in
    exactly one block → per-block distinct partials are disjoint and a
    Sum over event_type finishes the job without ever shuffling the
    raw events by the low-cardinality group key."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        return d.groupby("event_type", as_index=False).agg(
            partial=("user_id", "size"))

    partials = repartition_by_key(ds, ["user_id"]).map_batches(
        distinct_partial, batch_format="pandas", batch_size=None)

    # partials are ≤ blocks × |event_type| rows: a task-only fold
    return tree_fold(partials, sum_by(["event_type"], "partial"),
                     lambda df: df.rename(columns={"partial": "n_users"}))


DISTINCT_USERS_PER_TYPE_SQL = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# exact grouped quantiles from distributed value counts — percentile over
# 100 TB without a global sort: when the value domain is bounded (here
# l_quantity: 50 distinct), per-batch value-count partials + one tiny
# ``fold_parquet`` sum reconstruct the exact order statistics.
# ---------------------------------------------------------------------------

_QUANTILES = (0.5, 0.9)


def quantity_quantiles(sf_dir: str):
    """Exact per-returnflag p50/p90 of l_quantity. Shape: per-batch
    ``value_counts`` partial (Arrow→pandas on 2 columns only) →
    ``fold_parquet`` Sum over (flag, quantity) — a ≤
    groups×distinct-values table — → per-flag rank selection from
    cumulative counts at the fold's root. Discrete quantile rank is
    ``ceil(q·n)`` (DuckDB ``quantile_disc`` semantics; float product is
    exact for q ∈ {.5, .9} — error < half-ulp, verified)."""

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_quantity"], as_index=False)
        return g.agg(cnt=("l_quantity", "size"))

    def quantiles_block(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            g = g.sort_values("l_quantity", kind="stable")
            cum = g["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            vals = g["l_quantity"].to_numpy()
            picks = [float(vals[np.searchsorted(
                cum, int(np.ceil(q * n)))]) for q in _QUANTILES]
            rows.append((flag, *picks))
        return pd.DataFrame(rows, columns=["l_returnflag", "p50_qty",
                                           "p90_qty"])

    # the counts table is ≤ flags × 50 rows: fold it, pick at the root
    return _fold(sf_dir, "lineitem", ["l_returnflag", "l_quantity"],
                 count_partial,
                 sum_by(["l_returnflag", "l_quantity"], "cnt"),
                 quantiles_block)


QUANTITY_QUANTILES_SQL = """
SELECT l_returnflag,
       quantile_disc(l_quantity, 0.5) AS p50_qty,
       quantile_disc(l_quantity, 0.9) AS p90_qty
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# semi-structured extraction: JSON props column → typed stats
# ---------------------------------------------------------------------------

_PROPS_K_RE = r'"k":\s*(?P<k>-?\d+)'


def props_extract_stats(sf_dir: str):
    """Per-event-type stats over a field extracted from the JSON
    ``props`` string — the semi-structured hop every event pipeline has.

    Extraction is ONE compiled-regex Arrow kernel per block
    (``pc.extract_regex`` → ``struct_field`` → cast), never a per-row
    ``json.loads``; partials reduce each block to ≤|event_type| rows
    that ``fold_parquet`` combines, so the fold moves a handful of rows per
    block regardless of event volume."""

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column("props"), _PROPS_K_RE)
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        tbl = pa.table({"event_type": batch.column("event_type"), "k": k})
        g = pa.TableGroupBy(tbl, "event_type").aggregate(
            [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return g.rename_columns(
            ["event_type", "n_with_k", "sum_k", "min_k", "max_k"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False).agg(
            n_with_k=("n_with_k", "sum"), sum_k=("sum_k", "sum"),
            min_k=("min_k", "min"), max_k=("max_k", "max"))

    return _fold(sf_dir, "events", ["event_type", "props"], partial,
                 combine, batch_format="pyarrow")


PROPS_EXTRACT_STATS_SQL = r"""
SELECT event_type,
       COUNT(k) AS n_with_k,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       MIN(k) AS min_k,
       MAX(k) AS max_k
FROM (
  SELECT event_type,
         CAST(NULLIF(regexp_extract(props, '"k":\s*(-?\d+)', 1), '')
              AS BIGINT) AS k
  FROM events
) GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Change-data feed — CDC-out through the real commit-log lake
# ---------------------------------------------------------------------------

def change_feed_users(sf_dir: str):
    """CDC both ways through the REAL lake machinery: route the events
    stream into a two-epoch changelog (cutoff = max(event_id)//2), ingest
    each epoch through the commit-log lake keyed on user_id, then emit
    ``lake_changes(epoch1, epoch2)`` — the net per-user insert/update feed
    between the two snapshots. The oracle recomputes the same feed as two
    LWW states at the two LSN cutoffs joined on user_id, so this checks
    time-travel reads, the per-partition diff AND the exactly-once ingest
    in one query. Reference analog: the patch phase's destructive
    reconciliation (db_patch.py:60-87), derived instead of recomputed.

    Scale shape: the changelog split is one streaming map + filtered
    writes (no driver data); manifests come from parquet footers
    (metadata-only); the diff schedules one task per TOUCHED partition.
    """
    from rfb_cnpj_etl_ray.pipelines.ingest import lake_changes

    lake, (e1, e2) = _build_user_state_lake(sf_dir, "change_feed")
    feed = lake_changes(lake, e1, e2, table="user_state")
    return feed.select_columns(
        ["user_id", "last_event_id", "last_event_type", "last_value",
         "change_type"])


def _build_user_state_lake(sf_dir: str, tag: str, after_epoch=None):
    """Route the sf events stream into a two-epoch changelog (cutoff =
    max(event_id)//2) and ingest it into a fresh commit-log lake keyed on
    user_id. Returns (lake_path, [epoch1, epoch2]). ``after_epoch(n,
    lake)`` runs after each ingest — the interleave hook replication
    needs."""
    import shutil

    from rfb_cnpj_etl_ray.config import EngineConfig
    from rfb_cnpj_etl_ray.pipelines.ingest import ingest
    from rfb_cnpj_etl_ray.spec import TableSpec
    from rfb_cnpj_etl_ray.state.commitlog import init_lake
    from rfb_cnpj_etl_ray.state.manifest import manifest_from_dir

    payload = pa.schema([
        pa.field("doc_id", pa.string()),
        pa.field("user_id", pa.int64()),
        pa.field("last_event_id", pa.int64()),
        pa.field("last_event_type", pa.string()),
        pa.field("last_value", pa.float64()),
    ])
    from rfb_cnpj_etl_ray.scratch import scratch_dir

    scratch = scratch_dir(tag, sf_dir)  # abspath-keyed (same-name safety)
    shutil.rmtree(scratch, ignore_errors=True)

    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "value"])
    cut = ds.max("event_id") // 2

    def to_changelog(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.utf8_lpad(
                pc.cast(batch.column("user_id"), pa.string()), 12, "0"),
            "lsn": batch.column("event_id"),
            "op": pa.array(["U"] * batch.num_rows, pa.string()),
            "user_id": batch.column("user_id"),
            "last_event_id": batch.column("event_id"),
            "last_event_type": batch.column("event_type"),
            "last_value": batch.column("value"),
        })

    log = ds.map_batches(to_changelog, batch_format="pyarrow",
                         zero_copy_batch=True)
    lake = scratch / "lake"
    cfg = EngineConfig(num_partitions=8)
    init_lake(lake, TableSpec(name="user_state", schema=payload),
              base=payload.empty_table(), num_partitions=8)
    epochs = []
    for k, pred in (("log1", lambda t: pc.less_equal(t["lsn"], cut)),
                    ("log2", lambda t: pc.greater(t["lsn"], cut))):
        (log.map_batches(lambda t, p=pred: t.filter(p(t)),
                         batch_format="pyarrow")
            .write_parquet(str(scratch / k)))
        manifest_from_dir(scratch / k)
        epochs.append(
            ingest(lake, scratch / k, table="user_state", cfg=cfg)["epoch"])
        if after_epoch is not None:
            after_epoch(epochs[-1], lake)
    return lake, epochs


def replicate_user_state(sf_dir: str):
    """End-to-end CDC chaining: the two-epoch user-state lake is
    REPLICATED into a second lake after each epoch — a snapshot bootstrap
    (original LSNs preserved), then an incremental round shipping only
    ``lake_changes`` re-encoded as a changelog. The query returns the
    DOWNSTREAM lake's live state, so the oracle (plain LWW latest-event
    per user) transitively checks feed encoding, LSN preservation and the
    downstream exactly-once ingest. The downstream lake deliberately uses
    a different partition count (keys re-hash on ingest)."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake, replicate

    dst = {}

    def ship(_epoch: int, lake) -> None:
        dst["path"] = lake.parent / "dst_lake"
        replicate(lake.parent / "lake", dst["path"], table="user_state",
                  num_partitions=4)

    _build_user_state_lake(sf_dir, "replicate", after_epoch=ship)
    out = read_lake(dst["path"], table="user_state")
    return out.select_columns(
        ["user_id", "last_event_id", "last_event_type", "last_value"])


REPLICATE_USER_STATE_SQL = """
SELECT user_id,
       event_id   AS last_event_id,
       event_type AS last_event_type,
       value      AS last_value
FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY event_id DESC) rn
  FROM events
) WHERE rn = 1
"""


CHANGE_FEED_USERS_SQL = """
WITH cut AS (SELECT MAX(event_id) // 2 AS c FROM events),
s1 AS (
  SELECT user_id, event_id AS last_event_id,
         event_type AS last_event_type, value AS last_value
  FROM (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                                 ORDER BY event_id DESC) rn
    FROM events WHERE event_id <= (SELECT c FROM cut)
  ) WHERE rn = 1
),
s2 AS (
  SELECT user_id, event_id AS last_event_id,
         event_type AS last_event_type, value AS last_value
  FROM (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                                 ORDER BY event_id DESC) rn
    FROM events
  ) WHERE rn = 1
)
SELECT s2.user_id, s2.last_event_id, s2.last_event_type, s2.last_value,
       CASE WHEN s1.user_id IS NULL THEN 'insert' ELSE 'update' END
         AS change_type
FROM s2 LEFT JOIN s1 ON s1.user_id = s2.user_id
WHERE s1.user_id IS NULL OR s1.last_event_id <> s2.last_event_id
"""


# ---------------------------------------------------------------------------
# funnel analysis: ordered event-sequence conversion per user
# ---------------------------------------------------------------------------

FUNNEL_STEPS = ("signup", "view", "purchase")
FUNNEL_WINDOW_MIN = 2880  # per-step conversion window (48 h)


def funnel_stages(sf_dir: str):
    """Per-user conversion funnel over the ordered step sequence
    ``signup → view → purchase`` with a per-step conversion window:
    for every user with a signup, the earliest signup, the earliest
    view STRICTLY AFTER it within ``FUNNEL_WINDOW_MIN`` minutes, and
    the earliest purchase after that view within the same window, plus
    the reached stage (1–3). The standard product-analytics sequence
    query, and a shape SQL needs three self-joins for.

    Partitioning assumption (same as ``session_windows``): one keyed
    exchange on ``user_id`` puts a user's full history in one block, so
    each stage is a vectorized filter + groupby-min + merge per block —
    three dataframe ops, no per-user dispatch, regardless of how many
    events a hot user has."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        s = (df[df["event_type"] == FUNNEL_STEPS[0]]
             .groupby("user_id", as_index=False)["ts"].min()
             .rename(columns={"ts": "signup_ts"}))
        win = pd.Timedelta(minutes=FUNNEL_WINDOW_MIN)
        v = (df[df["event_type"] == FUNNEL_STEPS[1]]
             .merge(s, on="user_id"))
        v = (v[(v["ts"] > v["signup_ts"])
               & (v["ts"] <= v["signup_ts"] + win)]
             .groupby("user_id", as_index=False)["ts"].min()
             .rename(columns={"ts": "view_ts"}))
        p = (df[df["event_type"] == FUNNEL_STEPS[2]]
             .merge(v, on="user_id"))
        p = (p[(p["ts"] > p["view_ts"])
               & (p["ts"] <= p["view_ts"] + win)]
             .groupby("user_id", as_index=False)["ts"].min()
             .rename(columns={"ts": "purchase_ts"}))
        out = s.merge(v, on="user_id", how="left").merge(
            p, on="user_id", how="left")
        out["stage"] = (1 + out["view_ts"].notna().astype("int64")
                        + out["purchase_ts"].notna().astype("int64"))
        return out

    return repartition_by_key(ds, ["user_id"]).map_batches(
        funnel, batch_format="pandas", batch_size=None
    )


FUNNEL_STAGES_SQL = f"""
WITH s AS (
  SELECT user_id, MIN(ts) AS signup_ts FROM events
  WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id
), v AS (
  SELECT e.user_id, MIN(e.ts) AS view_ts
  FROM events e JOIN s ON e.user_id = s.user_id AND e.ts > s.signup_ts
   AND e.ts <= s.signup_ts + INTERVAL {FUNNEL_WINDOW_MIN} MINUTE
  WHERE e.event_type = '{FUNNEL_STEPS[1]}' GROUP BY e.user_id
), p AS (
  SELECT e.user_id, MIN(e.ts) AS purchase_ts
  FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.view_ts
   AND e.ts <= v.view_ts + INTERVAL {FUNNEL_WINDOW_MIN} MINUTE
  WHERE e.event_type = '{FUNNEL_STEPS[2]}' GROUP BY e.user_id
)
SELECT s.user_id, s.signup_ts, v.view_ts, p.purchase_ts,
       CAST(1 + (v.user_id IS NOT NULL)::INT
              + (p.user_id IS NOT NULL)::INT AS BIGINT) AS stage
FROM s LEFT JOIN v USING (user_id) LEFT JOIN p USING (user_id)
"""


# ---------------------------------------------------------------------------
# cohort retention matrix
# ---------------------------------------------------------------------------

def retention_cohorts(sf_dir: str):
    """Daily cohort retention: users grouped by the day of their FIRST
    event; for each (cohort, day-offset) the count of cohort users
    active that day. The classic retention matrix.

    Partitioning assumption (the ``session_windows`` contract): one
    keyed exchange on ``user_id`` puts a user's full history in one
    block, so first-day and distinct-active-day are exact per block —
    the per-block partial rows are already globally distinct and the
    final groupby only sums disjoint counts (a distinct-count that
    never ships user IDs through the wide aggregation)."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        # cohort key stays an INT64 day ordinal through the second
        # exchange; ``combine`` projects it back to timestamp[us]
        day = pd.Series(
            df["ts"].to_numpy().astype("datetime64[D]").astype(np.int64),
            index=df.index)  # precision-agnostic (ns or us blocks)
        df["cohort_day"] = day
        first = df.groupby("user_id")["cohort_day"].transform("min")
        df["day_offset"] = (day - first).astype("int64")
        df["cohort_day"] = first
        act = df[["user_id", "cohort_day", "day_offset"]].drop_duplicates()
        out = act.groupby(["cohort_day", "day_offset"], as_index=False).agg(
            n=("user_id", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    def combine(df: pd.DataFrame) -> pa.Table:
        # cohort buckets are whole per block after the second exchange;
        # project the day ordinal back to the oracle's timestamp[us]
        # surface here (declared-Arrow output keeps empty blocks stable)
        if df.empty:
            g = df
        else:
            g = df.groupby(["cohort_day", "day_offset"],
                           as_index=False)["n"].sum()
        days = (g["cohort_day"].to_numpy() * 86_400_000_000
                if len(g) else [])
        return pa.table({
            "cohort": pa.array(days, pa.int64()).cast(pa.timestamp("us")),
            "day_offset": pa.array(
                g["day_offset"] if len(g) else [], pa.int64()),
            "n_users": pa.array(g["n"] if len(g) else [], pa.int64()),
        })

    # second keyed exchange (cohort_day): each cohort's partials meet in
    # one block, where ``combine`` sums them
    partials = repartition_by_key(ds, ["user_id"]).map_batches(
        partial, batch_format="pandas", batch_size=None)
    return repartition_by_key(partials, ["cohort_day"]).map_batches(
        combine, batch_format="pandas", batch_size=None)


RETENTION_COHORTS_SQL = """
WITH f AS (
  SELECT user_id, date_trunc('day', MIN(ts)) AS cohort
  FROM events GROUP BY user_id
), act AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
)
SELECT cohort, CAST(datediff('day', cohort, d) AS BIGINT) AS day_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM act JOIN f USING (user_id)
GROUP BY cohort, day_offset
"""


# ---------------------------------------------------------------------------
# approximate distinct — HyperLogLog registers (Flajolet et al. 2007), the
# bounded-exchange scale path next to exact ``distinct_users_per_type``:
# the exact op's exchange moves every (type, user) pair once; this one
# moves ≤ |event_type|×256 register rows PER BLOCK no matter how many
# events flow (at 100 TB the exact distinct is a full all-to-all on the
# user key; the sketch is a constant-size fold). Everything is integer
# arithmetic: the shared ``knuth_hash`` (same helper the sampler/ANN
# family imports) followed by a murmur3 fmix32 finalizer, so a DuckDB
# oracle reconstructs the registers — and hence the estimate —
# bit-for-bit (no fp in the pipeline; alpha is a ppm-scaled constant).
# ---------------------------------------------------------------------------

_HLL_BUCKETS = 256          # m = 2^8 registers per group
_HLL_WBITS = 24             # 32-bit hash minus 8 bucket bits
_HLL_ALPHA_PPM = 718272     # floor(1e6 * 0.7213 / (1 + 1.079/256))
_HLL_LC_BOUND = 5 * _HLL_BUCKETS // 2   # linear counting below 2.5·m

# small-range (linear-counting) table: round(m·ln(m/V)) for V zero
# registers, precomputed ONCE in Python so no transcendental float is
# ever evaluated inside either engine — the SQL oracle embeds the same
# integers verbatim (a VALUES relation), keeping the comparison
# libm-independent.
_HLL_LC_TABLE = {
    v: int(round(_HLL_BUCKETS * math.log(_HLL_BUCKETS / v)))
    for v in range(1, _HLL_BUCKETS + 1)
}


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for non-negative int64 (no log2 fp)."""
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.astype(np.int64).copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.int64(1) << shift)
        bl[big] += shift
        v[big] >>= shift
    return bl + (w > 0)


def _fmix32(h: np.ndarray) -> np.ndarray:
    """murmur3's 32-bit finalizer — full-avalanche bit diffusion. The
    Knuth multiply alone is only a bijection: sequential/strided ids
    leave its low output bits linearly structured, which starves the
    HLL rank statistic (a strided corpus under-estimated 3× before
    this). Pure xor/shift/mul-mod-2^32 integer ops, so the SQL oracle
    reproduces it exactly (DuckDB xor() + >> + HUGEINT multiply)."""
    h = h.astype(np.uint64)
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(2246822507)) % np.uint64(1 << 32)   # 0x85ebca6b
    h ^= h >> np.uint64(13)
    h = (h * np.uint64(3266489909)) % np.uint64(1 << 32)   # 0xc2b2ae35
    h ^= h >> np.uint64(16)
    return h.astype(np.int64)


def hll_distinct_users(sf_dir: str):
    """Approximate ``COUNT(DISTINCT user_id)`` per event_type via m=256
    HyperLogLog registers. Per batch: Knuth hash → (bucket, rank of
    leading 1 in the remaining 24 bits) → per-(type, bucket) max — a
    ≤ |types|×256-row partial regardless of batch size. A ``fold_parquet``
    of per-register maxima finishes the registers; the raw estimate
    floor(alpha·m²·2^25 / Σ 2^(-M_j)·2^25) is computed in exact integer
    math, with the standard small-range correction (linear counting
    m·ln(m/V) when raw ≤ 2.5·m and V>0 registers are zero) read from a
    precomputed integer table shared verbatim with the SQL oracle.
    No large-range correction: with a 32-bit hash it only matters past
    ~2^32/30 ≈ 143M distinct PER GROUP — swap in a 64-bit hash (and
    _HLL_WBITS=56) before that regime, the register algebra is
    unchanged."""

    def register_partial(df: pd.DataFrame) -> pd.DataFrame:
        from rfb_cnpj_etl_ray.functions.text import knuth_hash

        h = _fmix32(knuth_hash(df["user_id"].to_numpy()))
        bucket = h >> _HLL_WBITS
        w = h & ((np.int64(1) << _HLL_WBITS) - 1)
        rnk = (_HLL_WBITS + 1) - _bit_length_u64(w)  # w=0 -> 25
        part = pd.DataFrame({"event_type": df["event_type"],
                             "bucket": bucket, "rnk": rnk})
        return part.groupby(["event_type", "bucket"], as_index=False).agg(
            rnk=("rnk", "max"))

    def max_rank(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["event_type", "bucket"], as_index=False).agg(
            rnk=("rnk", "max"))

    def estimate(reg: pd.DataFrame) -> pd.DataFrame:
        rows = []
        top = np.int64(1) << _HLL_WBITS  # 2^24 == a zero register's term
        for etype, g in reg.groupby("event_type", sort=True):
            sum_scaled = int(
                (np.int64(1) << (_HLL_WBITS - g["rnk"].to_numpy(np.int64) + 1)
                 ).sum()) + (_HLL_BUCKETS - len(g)) * int(top) * 2
            # NB: rank r contributes 2^-r, scaled by 2^25 -> 2^(25-r);
            # an absent bucket is register 0 -> 2^25 scaled.
            est = (_HLL_ALPHA_PPM * _HLL_BUCKETS * _HLL_BUCKETS
                   * (int(top) * 2)) // (sum_scaled * 1_000_000)
            zeros = _HLL_BUCKETS - len(g)
            if zeros > 0 and est <= _HLL_LC_BOUND:
                est = _HLL_LC_TABLE[zeros]
            rows.append((etype, est))
        return pd.DataFrame(rows, columns=["event_type", "hll_estimate"])

    return _fold(sf_dir, "events", ["event_type", "user_id"],
                 register_partial, max_rank, estimate)


_HLL_LC_VALUES = ", ".join(
    f"({v}, {est})" for v, est in _HLL_LC_TABLE.items())

from rfb_cnpj_etl_ray.functions.text import KNUTH_HASH_SQL as _KNUTH_SQL

HLL_DISTINCT_USERS_SQL = f"""
WITH k AS (
  SELECT event_type, {_KNUTH_SQL.format(col="user_id")} AS h FROM events
), m1 AS (  -- murmur3 fmix32, the exact twin of _fmix32
  SELECT event_type, xor(h, h >> 16) AS h FROM k
), m2 AS (
  SELECT event_type,
         CAST(CAST(h AS HUGEINT) * 2246822507 % 4294967296 AS BIGINT) AS h
  FROM m1
), m3 AS (
  SELECT event_type, xor(h, h >> 13) AS h FROM m2
), m4 AS (
  SELECT event_type,
         CAST(CAST(h AS HUGEINT) * 3266489909 % 4294967296 AS BIGINT) AS h
  FROM m3
), h AS (
  SELECT event_type, xor(h, h >> 16) AS h FROM m4
), rk AS (
  SELECT event_type, h // 16777216 AS bucket,
         CASE WHEN h % 16777216 = 0 THEN 25
              ELSE 25 - length(bin(h % 16777216)) END AS rnk
  FROM h
), reg AS (
  SELECT event_type, bucket, MAX(rnk) AS rnk FROM rk GROUP BY 1, 2
), s AS (
  SELECT event_type,
         SUM(CAST(1 AS HUGEINT) << (25 - rnk)) AS sum_scaled,
         COUNT(*) AS nonzero
  FROM reg GROUP BY 1
), raw AS (
  SELECT event_type, 256 - nonzero AS zeros,
         CAST(CAST(718272 AS HUGEINT) * 256 * 256 * 33554432
              // ((sum_scaled + (256 - nonzero) * CAST(33554432 AS HUGEINT))
                  * 1000000) AS BIGINT) AS raw_est
  FROM s
)
SELECT r.event_type,
       CAST(CASE WHEN r.zeros > 0 AND r.raw_est <= {_HLL_LC_BOUND}
                 THEN lc.est ELSE r.raw_est END AS BIGINT) AS hll_estimate
FROM raw r
LEFT JOIN (VALUES {_HLL_LC_VALUES}) AS lc(v, est) ON lc.v = r.zeros
"""
