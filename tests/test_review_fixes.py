"""Regression tests for the round-3 CDC review findings: checkpoint
monotonicity under late segments, change-feed safety across repartition,
watermark-aware MERGE LSN allocation, read_lake projection/emptiness.
"""

from pathlib import Path

import pyarrow as pa
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import (
    ingest,
    lake_changes,
    merge_into,
    read_lake,
    read_lake_table,
)
from rfb_cnpj_etl_ray.pipelines.maintenance import compact, repartition_lake
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import (
    make_base,
    make_changelog,
    write_changelog_segments,
)

CFG = EngineConfig(num_partitions=4)
SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def _split_by_lsn(events: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(low half, high half) by the actual LSN midpoint."""
    import pyarrow.compute as pc

    mm = pc.min_max(events.column("lsn")).as_py()
    mid = (mm["min"] + mm["max"]) // 2
    lo = events.filter(pc.less_equal(events.column("lsn"), mid))
    hi = events.filter(pc.greater(events.column("lsn"), mid))
    return lo, hi


def test_lsn_checkpoint_never_regresses_on_late_segment(
        ray_session, tmp_path):
    """A late lower-LSN segment applied in a later epoch must not pull
    the partition checkpoint below already-materialized LSNs — and a
    subsequent merge_into must still win LWW over the whole history."""
    base = make_base(100, seed=61, max_len=16)
    events = make_changelog(600, 100, seed=62, max_len=16)
    lo, hi = _split_by_lsn(events)
    assert lo.num_rows and hi.num_rows

    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    write_changelog_segments(hi, tmp_path / "log_hi", 2)
    ingest(lake, tmp_path / "log_hi", cfg=CFG)
    ck1 = CommitLog(lake / "sequences").snapshot().lsn_high

    write_changelog_segments(lo, tmp_path / "log_lo", 2)
    ingest(lake, tmp_path / "log_lo", cfg=CFG)
    ck2 = CommitLog(lake / "sequences").snapshot().lsn_high
    assert ck2 >= ck1, "late low-LSN segment regressed the checkpoint"
    # state equals replay of the full history regardless of order
    assert_states_equal(replay(base, events), read_lake_table(lake))

    # merge picks an LSN past EVERYTHING: full sync must actually win
    source = make_base(80, seed=63, max_len=16)
    merge_into(lake, source, cfg=CFG, delete_missing=True)
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


def test_lake_changes_refuses_repartition_boundary(ray_session, tmp_path):
    base = make_base(100, seed=64, max_len=16)
    events = make_changelog(300, 100, seed=65, max_len=16)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    write_changelog_segments(events, tmp_path / "log", 2)
    ingest(lake, tmp_path / "log", cfg=CFG)         # epoch 1
    repartition_lake(lake, 8, cfg=CFG)              # epoch 2
    with pytest.raises(ValueError, match="repartition boundary"):
        lake_changes(lake, 1, 2)


def test_merge_lsn_clears_compaction_watermark(ray_session, tmp_path):
    """compact() with a far-future upstream watermark must not silently
    no-op a later merge (its events would all be dropped as late)."""
    base = make_base(60, seed=66, max_len=16)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    compact(lake, watermark_lsn=10_000, cfg=CFG)

    source = make_base(40, seed=67, max_len=16)
    r = merge_into(lake, source, cfg=CFG, delete_missing=True)
    assert r["merge_lsn"] > 10_000
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


def test_read_lake_projects_columns_in_delta_mode(ray_session, tmp_path):
    base = make_base(100, seed=68, max_len=16)
    events = make_changelog(300, 100, seed=69, max_len=16)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    write_changelog_segments(events, tmp_path / "log", 2)
    cfg = EngineConfig(num_partitions=4, write_mode="delta")
    ingest(lake, tmp_path / "log", cfg=cfg)
    assert CommitLog(lake / "sequences").snapshot().deltas_pending

    ds = read_lake(lake, columns=["n_tok"])
    sch = ds.schema()
    assert sch.names == ["n_tok"], sch.names


def test_read_lake_empty_table(ray_session, tmp_path):
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_from_dataset
    import ray.data

    empty = PAYLOAD_SCHEMA.empty_table()
    lake = tmp_path / "lake"
    init_lake_from_dataset(lake, SPEC, ray.data.from_arrow(empty),
                           cfg=EngineConfig(num_partitions=4))
    assert read_lake(lake).count() == 0
    assert read_lake_table(lake).num_rows == 0


def test_token_poly_hashes_matches_duckdb_fold():
    """The tok_hash digest (flagship CDC oracle column) must equal
    DuckDB's list_reduce Horner fold on arbitrary lists, including
    empty and NULL arrays (both digest to 0 engine-side; SQL filters
    deletes before hashing, so only the non-degenerate rows cross)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from rfb_cnpj_etl_ray.hashing import (
        TOK_HASH_BASE, TOK_HASH_PRIME, token_poly_hashes)

    rng = np.random.default_rng(3)
    lists = [rng.integers(0, 50_257, size=int(n)).astype(np.int32).tolist()
             for n in rng.integers(0, 300, size=200)]
    lists[0] = []  # explicit empty
    arr = pa.array(lists, pa.list_(pa.int32()))
    got = token_poly_hashes(arr)

    con = duckdb.connect()
    con.register("t", pa.table({"tokens": arr}))
    want = con.execute(
        "SELECT CASE WHEN len(tokens) = 0 THEN 0 ELSE "
        " list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "  list_transform(tokens, x -> CAST(x AS BIGINT))), "
        f" (a, b) -> (a * {TOK_HASH_BASE} + b) % {TOK_HASH_PRIME}) END "
        "FROM t").fetchnumpy()
    con.close()
    assert np.array_equal(got, list(want.values())[0].astype(np.int64))

    # NULL rows digest to 0 and sliced arrays stay aligned
    with_null = pa.array([None, [1, 2, 3], None], pa.list_(pa.int32()))
    assert token_poly_hashes(with_null)[0] == 0
    assert token_poly_hashes(with_null)[2] == 0
    assert token_poly_hashes(with_null.slice(1, 2))[0] == \
        token_poly_hashes(with_null)[1]
