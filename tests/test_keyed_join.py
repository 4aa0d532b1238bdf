"""``stages.joins.keyed_join`` against ``pandas.merge``.

The fixtures put keys on one side only (both ways), duplicate keys on
both sides, a null left key, and more input blocks on one side than
the other, so the keyed exchange produces blocks where one side has no
rows. The key columns have different names on the two sides.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


def _sides():
    rng = np.random.default_rng(3)
    # left keys 0..59 (+ one null), right keys 40..99: 0..39 are
    # left-only, 60..99 right-only, 40..59 on both sides
    lk = rng.integers(0, 60, 400).astype(float)
    lk[7] = np.nan
    left = pd.DataFrame({"lk": pd.array(lk, dtype="Int64"),
                         "lv": rng.integers(0, 1000, 400)})
    right = pd.DataFrame({"rk": rng.integers(40, 100, 90),
                          "rv": [f"r{i}" for i in range(90)]})
    lt = pa.Table.from_pandas(left, preserve_index=False)
    rt = pa.Table.from_pandas(right, preserve_index=False)
    lds = ray.data.from_arrow([lt.slice(i, 50) for i in range(0, 400, 50)])
    rds = ray.data.from_arrow([rt.slice(0, 45), rt.slice(45)])
    return left, right, lds, rds


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype(object).where(df.notna(), None)
    return df.sort_values(list(df.columns), key=lambda c: c.astype(str),
                          ignore_index=True)


@pytest.mark.parametrize("how", ["inner", "left outer", "left anti"])
def test_keyed_join_matches_pandas_merge(ray_session, how):
    from rfb_cnpj_etl_ray.stages.joins import keyed_join

    left, right, lds, rds = _sides()
    got = keyed_join(lds, rds, "lk", "rk", how).to_pandas()
    # SQL semantics: a null key matches nothing (pandas would match
    # NaN to NaN, so the null-key row joins through a non-null copy)
    lkey = left["lk"].astype("float64")
    if how == "left anti":
        want = left[~lkey.isin(right["rk"].astype("float64"))]
    else:
        want = left.assign(_k=lkey).merge(
            right.assign(_k=right["rk"].astype("float64")), on="_k",
            how="inner" if how == "inner" else "left",
        ).drop(columns=["_k", "rk"])
        if how == "inner":
            want = want[want["lk"].notna()]
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(_norm(got), _norm(want))
    assert len(got) > 0


def test_keyed_join_same_key_name_and_empty_side(ray_session):
    """Both sides keyed ``doc_id`` (the merge_into shape), and a right
    side with no rows at all: an inner join is empty, an anti join and
    a left outer join keep every left row."""
    from rfb_cnpj_etl_ray.stages.joins import keyed_join

    left = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b", "c"]), "v": pa.array([1, 2, 3])}))
    right = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.string()), "w": pa.array([], pa.int64())}))
    assert keyed_join(left, right, "doc_id", "doc_id", "inner").count() == 0
    anti = keyed_join(left, right, "doc_id", "doc_id", "left anti")
    assert sorted(anti.to_pandas()["doc_id"]) == ["a", "b", "c"]
    outer = keyed_join(left, right, "doc_id", "doc_id", "left outer") \
        .to_pandas()
    assert list(outer.columns) == ["doc_id", "v", "w"]
    assert outer["w"].isna().all() and len(outer) == 3
