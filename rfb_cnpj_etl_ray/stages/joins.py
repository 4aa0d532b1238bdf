"""Joins of two fact-sized Datasets, plus a Bloom pre-filter.

``customers_without_orders`` (pipelines/relational.py) broadcasts the
parent key set — right for a side that fits in memory. These are the
paths for when BOTH sides are fact-sized:

* :func:`keyed_join` — the one distributed join: both sides are tagged,
  padded to one schema and unioned, one keyed exchange
  (``repartition_by_key``) puts every row of a key in one block, and
  one Arrow ``Table.join`` per block finishes the job. Tasks only; the
  exchange moves |left| + |right| rows and nothing reaches the driver.
* :func:`bucketed_anti_join` — ``keyed_join`` with ``"left anti"``.
* :class:`BloomFilter` — a numpy bit-array Bloom built distributed
  (per-batch partial filters OR-combined) and broadcast via ``ray.put``.
  Used as a PRE-filter: definite non-members skip the exchange entirely;
  only possible members (≈ fp_rate of the left side) continue to the
  exact anti-join. At 1e10 keys a single filter no longer fits — shard
  it by key hash (one filter per bucket) with the same build.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from rfb_cnpj_etl_ray.hashing import hash_strings
from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key


class BloomFilter:
    """Plain-numpy Bloom filter over arbitrary key columns (hashed with
    the engine's SipHash). Double hashing: bit_i = (h1 + i*h2) mod m."""

    def __init__(self, num_bits: int, num_hashes: int,
                 bits: np.ndarray | None = None):
        self.m = int(num_bits)
        self.k = int(num_hashes)
        self.bits = bits if bits is not None else np.zeros(
            (self.m + 7) // 8, dtype=np.uint8)

    @classmethod
    def sized_for(cls, n_keys: int, fp_rate: float = 0.01) -> "BloomFilter":
        m = max(64, int(-n_keys * np.log(fp_rate) / (np.log(2) ** 2)))
        k = max(1, int(round(m / max(n_keys, 1) * np.log(2))))
        return cls(m, min(k, 16))

    def _positions(self, keys) -> np.ndarray:
        h1 = hash_strings(keys)
        h2 = h1 >> np.uint64(32) | np.uint64(1)  # odd → full-period stride
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return ((h1[None, :] + i * h2[None, :])
                    % np.uint64(self.m)).astype(np.int64)

    def add(self, keys) -> None:
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.uint8(1) << (pos & 7).astype(np.uint8))

    def might_contain(self, keys) -> np.ndarray:
        pos = self._positions(keys)
        got = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return got.all(axis=0)


def build_bloom(
    ds: "ray.data.Dataset",
    key: str,
    n_keys_hint: int,
    fp_rate: float = 0.01,
) -> BloomFilter:
    """Distributed build: each batch returns a partial bit array; the
    driver ORs them (tiny: one m/8-byte buffer per batch, OR-reduced
    incrementally — never the key sets themselves)."""
    proto = BloomFilter.sized_for(n_keys_hint, fp_rate)
    m, k = proto.m, proto.k

    def partial(batch: pa.Table) -> pa.Table:
        f = BloomFilter(m, k)
        f.add(batch.column(key))
        return pa.table({"bits": pa.array([f.bits.tobytes()],
                                          type=pa.large_binary())})

    out = BloomFilter(m, k)
    for row in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_rows():
        np.bitwise_or(out.bits, np.frombuffer(row["bits"], dtype=np.uint8),
                      out=out.bits)
    return out


def keyed_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    how: str,
) -> "ray.data.Dataset":
    """``left`` joined to ``right`` on ``left_key == right_key``.

    ``how`` is Arrow's ``"inner"``, ``"left outer"`` or ``"left anti"``.
    The output holds the left columns, then the right columns except
    ``right_key`` (equal to ``left_key`` on every match; an anti join
    keeps the left columns only). Null keys match nothing, as in SQL.

    Both sides must carry Arrow blocks (a parquet read, or a map that
    returns ``pa.Table``) and are materialized on the call. Each side is
    tagged (``__side``), its key copied into the shared exchange column
    ``__key`` (cast to the left key's type) and padded with typed nulls
    to one wide schema, where the right columns carry a ``__r.`` prefix
    so names never collide. The union goes through one
    ``repartition_by_key(["__key"])``; each block then splits back into
    its two sides and runs one ``Table.join`` on ``__key``. An anti
    join ships only the right key.
    """
    anti = how == "left anti"
    if anti:
        right = right.select_columns([right_key])
    # both sides are materialized first. The exchange buffers every
    # input block before it starts anyway, so this adds no peak; the
    # schemas then come free, and an exchange upstream of a side (a
    # chained join) never runs inside the union below — Ray runs an
    # all-to-all's bulk step on its scheduling thread, so a branch still
    # streaming beside it could hold the last CPU and stall the plan
    left, right = left.materialize(), right.materialize()
    lsch = left.schema().base_schema
    rsch = right.schema().base_schema
    key_type = lsch.field(left_key).type
    rkeep = [] if anti else [n for n in rsch.names if n != right_key]
    rcols = [f"__r.{n}" for n in rkeep]
    wide = pa.schema(
        [pa.field("__key", key_type), pa.field("__side", pa.int8())]
        + list(lsch) + [pa.field(c, rsch.field(n).type)
                        for c, n in zip(rcols, rkeep)])

    def tagger(side: int, key: str, src: list[str], names: list[str]):
        def tag(t: pa.Table) -> pa.Table:
            own = dict(zip(names, t.select(src).columns))
            own["__key"] = t.column(key).cast(key_type)
            own["__side"] = pa.array(np.full(t.num_rows, side, np.int8))
            return pa.table([own[f.name] if f.name in own
                             else pa.nulls(t.num_rows, f.type)
                             for f in wide], schema=wide)
        return tag

    def join_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            t = wide.empty_table()
        side = t.column("__side")
        lt = t.filter(pc.equal(side, 0)).select(["__key"] + lsch.names)
        rt = t.filter(pc.equal(side, 1)).select(["__key"] + rcols)
        out = lt.join(rt, keys="__key", join_type=how)
        return out.drop_columns(["__key"]).rename_columns(lsch.names + rkeep)

    both = left.map_batches(
        tagger(0, left_key, lsch.names, lsch.names), batch_format="pyarrow",
        zero_copy_batch=True,
    ).union(right.map_batches(
        tagger(1, right_key, rkeep, rcols), batch_format="pyarrow",
        zero_copy_batch=True))
    return repartition_by_key(both, ["__key"]).map_batches(
        join_block, batch_format="pyarrow", batch_size=None)


def bucketed_anti_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
) -> "ray.data.Dataset":
    """``left`` rows whose key has NO match in ``right`` — exact, no
    broadcast: one :func:`keyed_join` with ``"left anti"``."""
    return keyed_join(left, right, left_key, right_key, "left anti")
