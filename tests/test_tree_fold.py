"""``stages.exchange.tree_fold``, ``aggregate_by`` and ``fetch``: the
task-only partial folds (low- and high-cardinality keys) and the
per-worker broadcast cache the operators share."""

import re

import numpy as np
import pandas as pd
import pytest

from rfb_cnpj_etl_ray.stages import exchange as X


def _summer():
    # a closure, so Ray ships it by value (this module is not importable
    # in the worker processes)
    def sum_n(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["n"].sum()

    return sum_n


_sum_n = _summer()


def _partials(n_blocks: int, rows_per_block: int = 40, seed: int = 0):
    """``n_blocks`` blocks of (k, n) partial rows with repeated keys."""
    rng = np.random.default_rng(seed)
    return [pd.DataFrame({
        "k": rng.integers(0, 25, rows_per_block).astype(np.int64),
        "n": rng.integers(1, 100, rows_per_block).astype(np.int64)})
        for _ in range(n_blocks)]


def _fold(frames):
    import ray.data

    ds = ray.data.from_pandas(frames).materialize()
    assert ds.num_blocks() == len(frames)
    return X.tree_fold(ds, _sum_n)


@pytest.mark.parametrize("n_blocks", [1, 8, 64])
def test_tree_fold_equals_one_groupby(ray_session, n_blocks):
    frames = _partials(n_blocks)
    got = _fold(frames).to_pandas().sort_values("k", ignore_index=True)
    want = _sum_n(pd.concat(frames, ignore_index=True))
    pd.testing.assert_frame_equal(got, want)


def test_tree_fold_levels_and_driver_rows_flat_in_block_count(ray_session):
    """64 blocks need two levels (64 → 4 → 1 at width 16), 8 need one;
    either way the result is ONE block holding exactly the distinct
    keys, so the rows reaching the driver do not grow with blocks."""
    assert X.FOLD_WIDTH == 16
    rows = {}
    for n_blocks, levels in ((8, 1), (64, 2)):
        out = _fold(_partials(n_blocks, seed=n_blocks)).materialize()
        assert out.num_blocks() == 1
        assert len(re.findall(r"^Operator \d+ Repartition", out.stats(),
                              re.M)) == levels
        rows[n_blocks] = len(out.to_pandas())
    assert rows[8] == rows[64] == 25


def test_tree_fold_runs_finish_once_on_the_root(ray_session):
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"total": [int(df["n"].sum())],
                             "keys": [len(df)]})

    frames = _partials(64, seed=3)
    import ray.data

    out = X.tree_fold(ray.data.from_pandas(frames), _sum_n,
                      finish).to_pandas()
    whole = pd.concat(frames)
    assert out.to_dict("records") == [
        {"total": int(whole["n"].sum()), "keys": whole["k"].nunique()}]


def test_tree_fold_of_no_rows_is_empty(ray_session):
    import ray.data

    def boom(df):
        raise AssertionError("no root, so nothing may run")

    empty = ray.data.from_pandas([pd.DataFrame({
        "k": pd.Series([], dtype="int64"),
        "n": pd.Series([], dtype="int64")})])
    out = X.tree_fold(empty, boom, boom).to_pandas()
    assert len(out) == 0

    no_blocks = ray.data.range(4).filter(lambda r: False).materialize()
    assert X.tree_fold(no_blocks, boom, boom).count() == 0


def test_aggregate_by_equals_one_groupby(ray_session):
    """Four blocks that each hold every (user, hour) key fold to one row
    per key: sums, mins and maxes equal one pandas groupby of the whole
    input, the key keeps timestamp[us], and the columns are the keys
    then the aggregates in order."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(7)
    user, hour = np.meshgrid(np.arange(30), np.arange(6))
    n = user.size
    blocks = [pa.table({
        "hi": pa.array(rng.integers(-50, 50, n), pa.int64()),
        "user_id": pa.array(user.ravel(), pa.int64()),
        "hour": pa.array(hour.ravel() * 3_600_000_000, pa.timestamp("us")),
        "s": pa.array(rng.integers(0, 100, n), pa.int64()),
        "lo": pa.array(rng.normal(size=n), pa.float64()),
    }) for _ in range(4)]
    keys = ["user_id", "hour"]
    aggs = {"s": "sum", "lo": "min", "hi": "max"}

    out = X.aggregate_by(ray.data.from_arrow(blocks), keys, aggs)
    got = pa.concat_tables(
        ray.get(ref) for ref in out.to_arrow_refs())
    assert got.schema.names == keys + list(aggs)
    assert got.schema.field("hour").type == pa.timestamp("us")
    want = (pa.concat_tables(blocks).to_pandas()
            .groupby(keys, as_index=False).agg(aggs))
    pd.testing.assert_frame_equal(
        got.to_pandas().sort_values(keys, ignore_index=True),
        want[keys + list(aggs)].sort_values(keys, ignore_index=True))


def test_fetch_gets_once_and_keeps_only_the_last_few(ray_session):
    import ray

    X._fetched.clear()
    refs = [ray.put(np.arange(3) + i) for i in range(X.FETCH_KEEP + 1)]
    first = X.fetch(refs[0])
    assert X.fetch(refs[0]) is first           # cached, not re-fetched
    for r in refs[1:]:
        X.fetch(r)
    assert len(X._fetched) == X.FETCH_KEEP
    assert refs[0].binary() not in X._fetched  # least recently used
    assert X.fetch(refs[0]) is not first       # re-fetched after eviction
    np.testing.assert_array_equal(X.fetch(refs[0]), first)
    X._fetched.clear()


def test_fetch_resolves_a_sharded_broadcast_in_one_slot(ray_session):
    """A broadcast put as one list of shard refs (``knn_graph``'s
    corpus) resolves to the shard values and takes ONE cache slot, so
    a 128-shard corpus cannot evict itself from a ``FETCH_KEEP`` cache."""
    import ray

    X._fetched.clear()
    shards = [ray.put(np.arange(3) + 10 * i) for i in range(X.FETCH_KEEP + 2)]
    ref = ray.put(shards)
    got = X.fetch(ref)
    assert len(got) == len(shards)
    for i, v in enumerate(got):
        np.testing.assert_array_equal(v, np.arange(3) + 10 * i)
    assert X.fetch(ref) is got and len(X._fetched) == 1
    X._fetched.clear()
