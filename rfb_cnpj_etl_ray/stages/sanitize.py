"""Per-batch sanitizers / normalizers — M1 and M3-M5 of the reference
operator inventory (``utils/db_transformers.py``), re-expressed as vectorized
Arrow/pandas kernels with exactly the reference's cell semantics.

The reference applies these per Python cell inside the producer thread
(db_transformers.py:13-86); here each is a columnar kernel usable inside
``map_batches`` (and composed per-table via :class:`TransformChain`, the
M5 ``transform_batch`` analog, db_transformers.py:99-126).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: sentinels the reference maps to NULL dates (db_transformers.py:67-75);
#: values are stripped first, so " " collapses to "".
_DATE_NULLS = {"00000000", "", "0"}


def sanitize_cells(table: pa.Table, columns: list[str] | None = None) -> pa.Table:
    """M1 (``sanitize_for_sqlite``, db_transformers.py:13-22): for every
    string cell drop NUL bytes and strip surrounding whitespace."""
    cols = columns or [
        f.name for f in table.schema if pa.types.is_string(f.type)
        or pa.types.is_large_string(f.type)
    ]
    for name in cols:
        idx = table.schema.get_field_index(name)
        col = table.column(idx)
        col = pc.replace_substring(col, "\x00", "")
        col = pc.utf8_trim_whitespace(col)
        table = table.set_column(idx, table.schema.field(idx), col)
    return table


def normalize_numeric_br(table: pa.Table, columns: list[str]) -> pa.Table:
    """M3 (``normalize_numeric_br``, db_transformers.py:40-58): for the
    target columns rewrite ``"1.234,56"`` → ``"1234.56"`` — but ONLY when
    the string contains a comma and is all digits after removing ``.``
    and ``,`` (the reference's exact guard); anything else passes through
    untouched."""
    for name in columns:
        idx = table.schema.get_field_index(name)
        col = table.column(idx)
        # ≥1 digit required: the reference guard
        # val.replace(',','').replace('.','').isdigit() is False for
        # digit-free strings like "," — those must pass through untouched.
        # (RE2 has no lookahead, so digit presence is a separate conjunct.)
        eligible = pc.and_(
            pc.and_(
                pc.match_substring(col, ","),
                pc.match_substring_regex(col, r"^[0-9.,]+$"),
            ),
            pc.match_substring_regex(col, r"[0-9]"),
        )
        converted = pc.replace_substring(
            pc.replace_substring(col, ".", ""), ",", "."
        )
        out = pc.if_else(pc.fill_null(eligible, False), converted, col)
        table = table.set_column(idx, table.schema.field(idx), out)
    return table


def normalize_dates(table: pa.Table, columns: list[str] | None = None) -> pa.Table:
    """M4 (``normalize_dates``, db_transformers.py:61-86): ``"YYYYMMDD"``
    strings → date32; sentinels {"00000000", "", "0", " "} → null;
    unparseable values (e.g. month 13) → null. Default targets = columns
    named ``data_*`` (the reference's default, db_transformers.py:67-68).
    Vectorized via pandas ``to_datetime(errors="coerce")``."""
    cols = columns if columns is not None else [
        f.name for f in table.schema if f.name.startswith("data_")
    ]
    for name in cols:
        idx = table.schema.get_field_index(name)
        s = table.column(idx).to_pandas().str.strip()
        s = s.mask(s.isin(_DATE_NULLS))
        dt = pd.to_datetime(s, format="%Y%m%d", errors="coerce")
        arr = pa.Array.from_pandas(dt.dt.date).cast(pa.date32())
        table = table.set_column(idx, pa.field(name, pa.date32()), arr)
    return table


def explode_delimited(
    table: pa.Table,
    key_columns: list[str],
    list_column: str,
    delimiter: str = ",",
    out_column: str | None = None,
) -> pa.Table:
    """F1 (secondary-CNAE explode, db_batch_producer.py:61-72): split the
    delimited column, strip each item, drop empties, emit one child row
    per item carrying the key columns. Fully vectorized: split →
    list_flatten → parent_indices take."""
    col = table.column(list_column)
    items = pc.split_pattern(col, delimiter)
    flat = pc.utf8_trim_whitespace(pc.list_flatten(items))
    parents = pc.list_parent_indices(items)
    keep = pc.not_equal(flat, "")
    out_name = out_column or list_column
    child = pa.table(
        {k: table.column(k).take(parents) for k in key_columns}
        | {out_name: flat}
    )
    return child.filter(keep)


@dataclass
class TransformChain:
    """M5 (``transform_batch`` per-table dispatch, db_transformers.py:99-126):
    a declarative per-table transform chain registered on the TableSpec.

    Example mirroring the reference's registrations::

        CHAINS = {
          "empresa": TransformChain(numeric_br=["capital_social"]),
          "estabelecimento": TransformChain(date_columns=[...3 cols...]),
          "simples": TransformChain(date_columns=[...4 cols...]),
          "socio": TransformChain(date_columns=["data_entrada_sociedade"]),
        }
    """

    sanitize: bool = True
    numeric_br: list[str] = field(default_factory=list)
    date_columns: list[str] | None = None  # None -> data_* default

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.sanitize:
            batch = sanitize_cells(batch)
        if self.numeric_br:
            batch = normalize_numeric_br(batch, self.numeric_br)
        if self.date_columns is not None or any(
            f.name.startswith("data_") for f in batch.schema
        ):
            batch = normalize_dates(batch, self.date_columns)
        return batch
