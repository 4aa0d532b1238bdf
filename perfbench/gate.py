"""Correctness gate. Every check runs outside the timed regions and
raises :class:`GateError` naming the workload on any mismatch:

* a lake against ``oracle.replay`` of the same base and events
  (``assert_states_equal``, per-row token-array equality);
* a ``lookup`` result against the oracle rows for its keys;
* an operator result against its DuckDB ``oracle_sql`` twin, compared
  the way the repository's conformance tests do (sorted columns,
  order-insensitive rows, same dtypes, exact values).
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc


class GateError(AssertionError):
    """Engine output differs from the specification."""


def check_lake(workload: str, label: str, lake_dir: str | Path,
               expected: pa.Table, as_of: int | None = None) -> None:
    """``as_of`` reads a past epoch by time travel."""
    from rfb_cnpj_etl_ray.oracle import assert_states_equal
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake_table

    try:
        assert_states_equal(expected, read_lake_table(lake_dir, as_of=as_of))
    except AssertionError as e:
        raise GateError(f"{workload}: lake {label} differs from "
                        f"oracle.replay: {e}") from None


def expected_rows(state: pa.Table, keys: list[str]) -> pa.Table:
    return state.filter(pc.is_in(state.column("doc_id"),
                                 value_set=pa.array(keys, pa.string())))


def check_lookup(workload: str, keys: list[str], got: pa.Table,
                 state: pa.Table) -> None:
    from rfb_cnpj_etl_ray.oracle import assert_states_equal

    try:
        assert_states_equal(expected_rows(state, keys), got)
    except AssertionError as e:
        raise GateError(f"{workload}: lookup({keys}) differs from the "
                        f"oracle rows: {e}") from None


def _normalize(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(by=list(df.columns), ignore_index=True)


def check_op(workload: str, name: str, got, sql: str, sf_dir: str) -> None:
    """``got`` is the engine result as a pandas frame; ``sql`` its twin
    over ``sf_dir/documents.parquet``."""
    import duckdb
    import pandas as pd

    con = duckdb.connect()
    try:
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/documents.parquet')")
        want = _normalize(con.execute(sql).fetchdf())
    finally:
        con.close()
    got = _normalize(got)
    problem = None
    if list(got.columns) != list(want.columns):
        problem = f"columns {list(got.columns)} != {list(want.columns)}"
    elif len(got) != len(want):
        problem = f"{len(got)} rows != {len(want)}"
    elif list(map(str, got.dtypes)) != list(map(str, want.dtypes)):
        problem = (f"dtypes {list(map(str, got.dtypes))} != "
                   f"{list(map(str, want.dtypes))}")
    else:
        try:
            pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                          check_exact=False, rtol=1e-9,
                                          atol=1e-9)
        except AssertionError as e:
            problem = str(e)
    if problem:
        raise GateError(f"{workload}: {name} differs from its DuckDB "
                        f"twin: {problem}")
