"""Driver-style conformance: each relational operator vs its DuckDB oracle
SQL at sf0.001 (the real driver runs the same comparison at sf0.01)."""

import pytest

from rfb_cnpj_etl_ray.pipelines import relational as R
from tests.conftest import SF_DIR
from tests.util_compare import assert_query_matches

CASES = [
    (R.lww_latest_events, R.LWW_LATEST_EVENTS_SQL),
    (R.explode_part_types, R.EXPLODE_PART_TYPES_SQL),
    (R.customers_without_orders, R.CUSTOMERS_WITHOUT_ORDERS_SQL),
    (R.normalize_nation_codes, R.NORMALIZE_NATION_CODES_SQL),
    (R.upsert_static_nations, R.UPSERT_STATIC_NATIONS_SQL),
    (R.pricing_summary, R.PRICING_SUMMARY_SQL),
    (R.revenue_by_nation, R.REVENUE_BY_NATION_SQL),
    (R.parts_per_order, R.PARTS_PER_ORDER_SQL),
    (R.top_orders, R.TOP_ORDERS_SQL),
    (R.hourly_user_activity, R.HOURLY_USER_ACTIVITY_SQL),
    (R.incremental_hourly_activity, R.INCREMENTAL_HOURLY_ACTIVITY_SQL),
    (R.session_windows, R.SESSION_WINDOWS_SQL),
    (R.funnel_stages, R.FUNNEL_STAGES_SQL),
    (R.retention_cohorts, R.RETENTION_COHORTS_SQL),
    (R.distinct_users_per_type, R.DISTINCT_USERS_PER_TYPE_SQL),
    (R.quantity_quantiles, R.QUANTITY_QUANTILES_SQL),
    (R.props_extract_stats, R.PROPS_EXTRACT_STATS_SQL),
    (R.change_feed_users, R.CHANGE_FEED_USERS_SQL),
    (R.replicate_user_state, R.REPLICATE_USER_STATE_SQL),
]


@pytest.mark.parametrize("fn,sql", CASES, ids=[c[0].__name__ for c in CASES])
def test_relational_matches_oracle(ray_session, fn, sql):
    assert_query_matches(fn, sql, SF_DIR)


def test_bloom_filter_no_false_negatives():
    import numpy as np

    from rfb_cnpj_etl_ray.stages.joins import BloomFilter

    keys = np.arange(5000, dtype=np.int64)
    f = BloomFilter.sized_for(5000, fp_rate=0.01)
    f.add(keys)
    assert f.might_contain(keys).all()  # zero false negatives, always
    probe = np.arange(100_000, 200_000, dtype=np.int64)
    fp = f.might_contain(probe).mean()
    assert fp < 0.05  # ~1% designed, generous bound


def test_bucketed_anti_join_matches_oracle(ray_session):
    from rfb_cnpj_etl_ray.pipelines.relational import (
        CUSTOMERS_WITHOUT_ORDERS_SQL,
        customers_without_orders_bucketed,
    )
    assert_query_matches(customers_without_orders_bucketed,
                         CUSTOMERS_WITHOUT_ORDERS_SQL, SF_DIR)


def test_bloom_anti_join_matches_oracle(ray_session):
    from rfb_cnpj_etl_ray.pipelines.relational import (
        CUSTOMERS_WITHOUT_ORDERS_SQL,
        customers_without_orders_bloom,
    )
    assert_query_matches(customers_without_orders_bloom,
                         CUSTOMERS_WITHOUT_ORDERS_SQL, SF_DIR)


def test_sliding_user_activity_matches_oracle(ray_session):
    assert_query_matches(R.sliding_user_activity,
                         R.SLIDING_USER_ACTIVITY_SQL, SF_DIR)


def test_top_orders_per_customer_matches_oracle(ray_session):
    assert_query_matches(R.top_orders_per_customer,
                         R.TOP_ORDERS_PER_CUSTOMER_SQL, SF_DIR)


def test_incremental_view_resumes_from_checkpoint(ray_session, tmp_path, monkeypatch):
    """resume=True restarts from the newest _DONE checkpoint: after a
    completed run (only the final checkpoint and no arrivals remain on
    the scratch path), a resumed call must return the oracle-correct
    view WITHOUT re-reading the log — any recompute attempt would fail
    on the deleted arrivals directory."""
    import shutil
    from pathlib import Path

    from tests.util_compare import assert_query_matches

    import hashlib
    import os

    monkeypatch.setenv("GRAFT_TMP", str(tmp_path))
    key = hashlib.sha1(os.path.abspath(SF_DIR).encode()).hexdigest()[:8]
    scratch = (tmp_path / "rfb_cnpj_etl_ray" / "incr_view"
               / f"{Path(SF_DIR).name}-{key}")

    # cold start with resume=True (no state): builds from scratch
    assert_query_matches(
        lambda sf: R.incremental_hourly_activity(sf, resume=True),
        R.INCREMENTAL_HOURLY_ACTIVITY_SQL, SF_DIR)
    assert (scratch / f"epoch_{R.VIEW_EPOCHS - 1}" / "_DONE").exists()
    assert not (scratch / "arrivals").exists()  # log consumed

    # warm resume: only the final checkpoint remains; the fixed path
    # must NOT rebuild arrivals (no epochs remain — a rebuild would be
    # a full O(log) scan on a fully-caught-up view)
    assert_query_matches(
        lambda sf: R.incremental_hourly_activity(sf, resume=True),
        R.INCREMENTAL_HOURLY_ACTIVITY_SQL, SF_DIR)
    assert not (scratch / "arrivals").exists()  # warm call stayed O(view)


def test_view_checkpoint_write_is_idempotent(ray_session, tmp_path):
    """A retried or re-executed checkpoint task writes its block again:
    the part must be replaced, not added, so the resume read returns
    every (user_id, hour) row once and counts are not doubled."""
    import pandas as pd
    import pyarrow as pa

    block = pa.table({
        "user_id": pa.array([7, 3, 3], pa.int64()),
        "hour": pa.array([5_000, 9_000, 2_000], pa.timestamp("us")),
        "n_events": pa.array([1, 2, 3], pa.int64()),
        "sum_cents": pa.array([10, 20, 30], pa.int64()),
    })
    write = R._ckpt_writer(str(tmp_path))
    first = write(block)
    write(block)  # the retry
    got = R._read_ckpt(tmp_path).to_pandas()
    want = first.to_pandas()
    key = ["user_id", "hour"]
    pd.testing.assert_frame_equal(
        got.sort_values(key, ignore_index=True),
        want.sort_values(key, ignore_index=True), check_dtype=False)
    assert [p.name for p in tmp_path.iterdir()] == ["part-3-2000.parquet"]
