"""Pins the sort-based range-exchange guarantee the dedup family relies
on (``dedup.py`` pair dedup: after ``ds.sort("pair")`` every distinct
key value lands wholly inside ONE output block, so a per-block
``np.unique`` completes the GLOBAL dedup).

Ray's sort range-partitions on sampled boundaries; the hostile case is
a key equal to a sampled boundary with many duplicates spread across
many input blocks — if the split ever put copies of one value on both
sides of a boundary, per-block dedup would emit that value twice. These
tests construct exactly that shape (few heavy keys, each present in
every input block, so every boundary sample hits a duplicated value)
and assert the co-location invariant plus end-to-end dedup correctness.
"""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


def _block_key_sets(sorted_ds):
    """[(block_tag, distinct keys in that block), ...] — batch_size=None
    gives one map_batches call per block."""

    def tag(df: pd.DataFrame):
        if df.empty:
            return pd.DataFrame({"tag": [], "pair": []})
        u = np.unique(df["pair"].to_numpy())
        return pd.DataFrame({"tag": [uuid.uuid4().hex] * len(u), "pair": u})

    out = sorted_ds.map_batches(
        tag, batch_format="pandas", batch_size=None
    ).to_pandas()
    return out


@pytest.mark.parametrize(
    "keys,copies_per_block,blocks",
    [
        # 3 heavy keys × every block: every sampled boundary IS a
        # duplicated key value
        (np.array([10, 20, 30], dtype=np.int64), 400, 8),
        # degenerate: ONE key everywhere (all boundaries equal)
        (np.array([7], dtype=np.int64), 1000, 6),
        # heavy keys + a unique-per-row tail (mixed skew)
        (np.array([1, 2, 3, 4, 5], dtype=np.int64), 200, 5),
    ],
)
def test_sort_colocates_equal_keys(ray_session, keys, copies_per_block,
                                   blocks):
    tables = [
        pa.table({"pair": pa.array(np.repeat(keys, copies_per_block),
                                   pa.int64())})
        for _ in range(blocks)
    ]
    ds = ray.data.from_arrow(tables)
    assert ds.num_blocks() == blocks  # each key spans every input block
    tagged = _block_key_sets(ds.sort("pair"))

    # invariant 1: each distinct key appears in exactly ONE output block
    per_key_blocks = tagged.groupby("pair")["tag"].nunique()
    assert (per_key_blocks == 1).all(), (
        f"keys split across blocks: "
        f"{per_key_blocks[per_key_blocks > 1].index.tolist()}")

    # invariant 2: per-block unique == global unique (the dedup output)
    assert sorted(tagged["pair"].tolist()) == sorted(keys.tolist())


def test_minhash_pair_dedup_exact_under_boundary_skew(ray_session):
    """End-to-end shape of the dedup family's range exchange: chunked
    blocks of packed pairs with heavy duplication → sort → per-block
    unique; result must equal the exact global unique set."""
    rng = np.random.default_rng(11)
    # 20 hot pairs + 500 cold ones, scattered over 10 blocks
    hot = rng.integers(0, 1 << 40, size=20, dtype=np.int64)
    cold = rng.integers(0, 1 << 40, size=500, dtype=np.int64)
    tables = []
    for _ in range(10):
        vals = np.concatenate(
            [np.repeat(hot, 50), rng.choice(cold, size=200)])
        tables.append(pa.table({"pair": pa.array(vals, pa.int64())}))
    ds = ray.data.from_arrow(tables)

    def unpack_block(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pair": np.unique(df["pair"].to_numpy())})

    got = ds.sort("pair").map_batches(
        unpack_block, batch_format="pandas", batch_size=None
    ).to_pandas()["pair"].to_numpy()
    want = np.unique(np.concatenate(
        [t.column("pair").to_numpy() for t in tables]))
    assert np.array_equal(np.sort(got), want)
    assert len(got) == len(np.unique(got)), "per-block dedup emitted dupes"


def _key_blocks(ds, keys):
    """[(block tag, key tuple), ...] for every distinct key of each
    output block (``batch_size=None``: one call per block)."""

    def tag(t: pa.Table) -> pa.Table:
        u = t.select(keys).group_by(keys).aggregate([])
        return u.append_column(
            "tag", pa.array([uuid.uuid4().hex] * u.num_rows, pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow",
                          batch_size=None).to_pandas()


@pytest.mark.parametrize("keys", [["name"], ["name", "n"]], ids=str)
def test_repartition_by_key_colocates_heavy_keys(ray_session, keys):
    """``repartition_by_key`` with a string key and a two-column key:
    five heavy keys sit in each of 12 input blocks beside a unique
    tail, so every sampled boundary hits a duplicated key; each key
    must still land in exactly one output block, every row kept."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    heavy = [f"hot-{i}" for i in range(5)]
    tables = []
    for b in range(12):
        names = heavy * 150 + [f"cold-{b}-{i}" for i in range(40)]
        tables.append(pa.table({
            "name": pa.array(names, pa.string()),
            "n": pa.array([len(s) % 2 for s in names], pa.int64()),
        }))
    ds = ray.data.from_arrow(tables)
    assert ds.num_blocks() == 12
    out = repartition_by_key(ds, keys)
    assert out.count() == sum(t.num_rows for t in tables)
    tagged = _key_blocks(out, keys)
    per_key = tagged.groupby(keys)["tag"].nunique()
    assert (per_key == 1).all(), per_key[per_key > 1]
    want = pa.concat_tables(tables).select(keys).group_by(keys) \
        .aggregate([]).num_rows
    assert len(per_key) == want
