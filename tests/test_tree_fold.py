"""``stages.exchange.tree_fold``, ``fold_parquet`` (plain and keyed),
``aggregate_by``, ``sum_by`` and ``fetch``: the task-only partial folds
(low- and high-cardinality keys; from a Dataset or straight from
parquet files) and the per-worker broadcast cache the operators
share."""

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


def _counted(tmp_path, fn, tag):
    """``fn`` that also leaves one marker file per call in ``tmp_path``
    (a closure, shipped by value to the task that runs it)."""
    import uuid

    def counted(df: pd.DataFrame) -> pd.DataFrame:
        (tmp_path / f"{tag}-{uuid.uuid4().hex}").write_text(str(len(df)))
        return fn(df)

    return counted


def _calls(tmp_path, tag) -> list[int]:
    """The row counts ``_counted`` calls saw, sorted."""
    return sorted(int(p.read_text()) for p in tmp_path.glob(f"{tag}-*"))


def test_tree_fold_levels_and_driver_rows_flat_in_block_count(ray_session,
                                                              tmp_path):
    """64 blocks need two levels (64 → 4 → 1 at width 16: 4 + 1 combine
    tasks), 8 need one; either way the result is ONE block holding
    exactly the distinct keys, so the rows reaching the driver do not
    grow with blocks."""
    import ray.data

    assert X.FOLD_WIDTH == 16
    rows = {}
    for n_blocks, calls in ((8, 1), (64, 5)):
        marks = tmp_path / str(n_blocks)
        marks.mkdir()
        ds = ray.data.from_pandas(_partials(n_blocks, seed=n_blocks))
        out = X.tree_fold(ds, _counted(marks, _sum_n, "combine"))
        assert len(_calls(marks, "combine")) == calls
        assert out.num_blocks() == 1
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


def _write_row_groups(path, sizes, seed=0):
    """One parquet file whose row groups hold ``sizes`` rows of (k, n)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    frames = [pd.DataFrame({
        "k": rng.integers(0, 25, size).astype(np.int64),
        "n": rng.integers(1, 100, size).astype(np.int64)}) for size in sizes]
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    with pq.ParquetWriter(path, schema) as w:
        for f in frames:
            w.write_table(pa.Table.from_pandas(f, schema=schema,
                                               preserve_index=False))
    assert pq.ParquetFile(path).metadata.num_row_groups == len(sizes)
    return pd.concat(frames, ignore_index=True)


def test_fold_parquet_runs_one_task_per_row_group(ray_session, tmp_path,
                                                  monkeypatch):
    """Three row groups are three piece tasks. Each reads its group in
    batches bounded by ``FOLD_BATCH_BYTES`` (here sized so the 2500-row
    group takes 1024 + 1024 + 452) and combines its own partials once;
    the three piece outputs fold in one root task, where ``finish``
    runs once. The result equals one groupby of the whole file."""
    import pyarrow.parquet as pq

    path = tmp_path / "t.parquet"
    whole = _write_row_groups(path, [2500, 7, 1])
    big = pq.ParquetFile(path).metadata.row_group(0)
    nbytes = sum(big.column(i).total_uncompressed_size for i in range(2))
    monkeypatch.setattr(X, "FOLD_BATCH_BYTES", -(-nbytes * 1024 // 2500))
    assert X._batch_rows(big, ["k", "n"]) == 1024
    marks = tmp_path / "marks"
    marks.mkdir()

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(total=int(df["n"].sum()))

    out = X.fold_parquet(
        path, ["k", "n"], _counted(marks, _sum_n, "partial"),
        _counted(marks, _sum_n, "combine"), _counted(marks, total, "finish"))
    assert _calls(marks, "partial") == [1, 7, 452, 1024, 1024]
    assert len(_calls(marks, "combine")) == 3 + 1
    assert len(_calls(marks, "finish")) == 1
    assert out.num_blocks() == 1
    got = out.to_pandas().sort_values("k", ignore_index=True)
    want = _sum_n(whole)
    pd.testing.assert_frame_equal(got[["k", "n"]], want)
    assert (got["total"] == int(whole["n"].sum())).all()


def test_fold_parquet_of_one_row_group_folds_in_its_piece(ray_session,
                                                          tmp_path):
    """A file in one row group is one task: the piece's own combine and
    ``finish`` are the whole fold, keyed (no bucket split) or not. A
    list of files folds across all."""
    from rfb_cnpj_etl_ray.functions import text as T

    one, two = tmp_path / "one.parquet", tmp_path / "two.parquet"
    a = _write_row_groups(one, [300], seed=1)
    b = _write_row_groups(two, [40, 40], seed=2)
    marks = tmp_path / "marks"
    marks.mkdir()
    out = X.fold_parquet(one, ["k", "n"], _sum_n,
                         _counted(marks, _sum_n, "combine"))
    assert len(_calls(marks, "combine")) == 1
    pd.testing.assert_frame_equal(
        out.to_pandas().sort_values("k", ignore_index=True), _sum_n(a))
    both = X.fold_parquet([str(one), str(two)], ["k", "n"], _sum_n,
                          _sum_n).to_pandas()
    pd.testing.assert_frame_equal(
        both.sort_values("k", ignore_index=True),
        _sum_n(pd.concat([a, b], ignore_index=True)))
    top = X.fold_parquet(one, ["k", "n"], _sum_n,
                         _counted(marks, _sum_n, "keyed"),
                         T._sum_topk("k", 3), by=("k", 4)).to_pandas()
    assert len(_calls(marks, "keyed")) == 1
    want = _sum_n(a).sort_values(["n", "k"], ascending=[False, True])
    assert top["k"].tolist() == want["k"].head(3).tolist()


def test_fold_parquet_of_no_rows_is_empty(ray_session, tmp_path):
    """No partial rows → an empty Dataset; neither ``combine`` nor
    ``finish`` runs, whether the file has no rows or every batch's
    partial is empty, keyed or not."""
    def boom(df):
        raise AssertionError("no root, so nothing may run")

    def nothing(df: pd.DataFrame) -> pd.DataFrame:
        return df.iloc[:0]

    empty = tmp_path / "empty.parquet"
    _write_row_groups(empty, [0])
    assert X.fold_parquet(empty, ["k", "n"], _sum_n, boom,
                          boom).count() == 0
    rows = tmp_path / "rows.parquet"
    _write_row_groups(rows, [50, 50])
    assert X.fold_parquet(rows, ["k", "n"], nothing, boom,
                          boom).count() == 0
    assert X.fold_parquet(rows, ["k", "n"], nothing, boom, boom,
                          by=("k", 4)).count() == 0


def test_fold_parquet_batch_format_pyarrow(ray_session, tmp_path):
    """``batch_format="pyarrow"`` hands ``partial`` an Arrow table; its
    Arrow output folds like a pandas one."""
    import pyarrow as pa

    path = tmp_path / "t.parquet"
    whole = _write_row_groups(path, [100, 60], seed=4)

    def arrow_sum(t: pa.Table) -> pa.Table:
        assert isinstance(t, pa.Table)
        return t.group_by("k").aggregate([("n", "sum")]).rename_columns(
            ["k", "n"])

    out = X.fold_parquet(path, ["k", "n"], arrow_sum, _sum_n,
                         batch_format="pyarrow").to_pandas()
    pd.testing.assert_frame_equal(out.sort_values("k", ignore_index=True),
                                  _sum_n(whole))


def _write_keyed_row_groups(path, n_groups: int, per_group: int):
    """A (k, n) file in ``n_groups`` row groups: each group holds
    ``per_group`` keys of its own at count 17 and the key "x" at
    count 1. "x" totals ``n_groups``; any 16 row groups give it only
    16, fewer than any other key's 17."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])
    groups = []
    with pq.ParquetWriter(path, schema) as w:
        for g in range(n_groups):
            keys = [f"u{g:02d}-{j}" for j in range(per_group)] + ["x"]
            t = pa.table({"k": keys, "n": [17] * per_group + [1]},
                         schema=schema)
            w.write_table(t)
            groups.append(t)
    return pa.concat_tables(groups)


def test_keyed_fold_top_k_over_more_pieces_than_fold_width(ray_session,
                                                            tmp_path):
    """``fold_parquet(by=(key, buckets))`` with a truncating ``finish``
    equals one Arrow ``group_by`` sorted by count descending, then key
    ascending, cut at k — over 20 row groups (> ``FOLD_WIDTH``, so each
    bucket's tree has two levels), with "x" the top key only once every
    piece is summed and ties at the k-th count. A fold that cut below
    the bucket roots would lose "x"."""
    from rfb_cnpj_etl_ray.functions import text as T

    path = tmp_path / "t.parquet"
    whole = _write_keyed_row_groups(path, X.FOLD_WIDTH + 4, per_group=3)
    for k in (1, 5, 61):
        out = X.fold_parquet(path, ["k", "n"], lambda df: df,
                             X.sum_by(["k"], "n"), T._sum_topk("k", k),
                             by=("k", T._TOPK_BUCKETS))
        assert out.num_blocks() == 1
        want = (whole.group_by("k").aggregate([("n", "sum")])
                .sort_by([("n_sum", "descending"), ("k", "ascending")])
                .slice(0, k))
        got = out.to_pandas()
        assert got["k"].tolist() == want.column("k").to_pylist()
        assert got["n"].tolist() == want.column("n_sum").to_pylist()
    assert got["k"].iloc[0] == "x" and got["n"].iloc[0] == X.FOLD_WIDTH + 4


def test_string_keys_ending_in_nul_stay_apart():
    """``sum_by`` and the Jaccard incidence kernel keep 'ab\\x00' apart
    from 'ab'; pandas' ``groupby`` and ``factorize`` merge them."""
    from rfb_cnpj_etl_ray.functions import dedup as D

    df = pd.DataFrame({"k": ["ab\x00", "ab", "x", "ab"],
                       "n": [1, 2, 3, 4]})
    got = X.sum_by(["k"], "n")(df).to_pydict()
    assert dict(zip(got["k"], got["n"])) == {"ab\x00": 1, "ab": 6, "x": 3}
    pairs = D._jaccard_pairs_matrix(
        np.array([0, 1]), [{"ab\x00", "x"}, {"ab", "x"}], 0.0)
    assert pairs["jaccard"].tolist() == [round(1 / 3, 4)]


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


def test_file_folds_start_no_dataset(ray_session, monkeypatch):
    """``cms_token_counts``, ``certified_topk_tokens`` (two passes),
    ``refined_quantiles`` (two passes), ``top_tokens`` and
    ``bigram_topk`` (keyed) are folds only: with
    ``ray.data.read_parquet`` raising on the driver they still run,
    every pass on ``fold_parquet``'s plain tasks, and each matches its
    DuckDB twin."""
    import ray.data

    from rfb_cnpj_etl_ray.functions import text as T
    from tests.conftest import SF_DIR
    from tests.util_compare import assert_query_matches

    def no_dataset(*args, **kwargs):
        raise AssertionError("ray.data.read_parquet in a fold")

    monkeypatch.setattr(ray.data, "read_parquet", no_dataset)
    for fn, sql in ((T.cms_token_counts, T.CMS_TOKEN_COUNTS_SQL),
                    (T.certified_topk_tokens, T.CERTIFIED_TOPK_TOKENS_SQL),
                    (T.refined_quantiles, T.REFINED_QUANTILES_SQL),
                    (T.top_tokens, T.TOP_TOKENS_SQL),
                    (T.bigram_topk, T.BIGRAM_TOPK_SQL)):
        assert_query_matches(fn, sql, SF_DIR)
