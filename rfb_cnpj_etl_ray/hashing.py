"""Deterministic, vectorized key hashing for partition routing.

The reference routes rows to tables by filename stem
(``db_batch_producer.py:18-28``) and relies on DB primary keys for
placement; the engine instead hash-partitions every row by its key so the
same ``doc_id`` always lands in the same partition on any node of any
cluster size. Requirements: stable across processes, machines and runs
(so never builtin ``hash``), and vectorized (never a Python loop per row).

Uses pandas' SipHash-based ``hash_array`` with its fixed default key —
deterministic for a given pandas install and computed in C over the whole
column at once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def hash_strings(values: "pa.Array | np.ndarray | list[str]") -> np.ndarray:
    """uint64 SipHash of each UTF-8 string; vectorized, deterministic."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_numpy(zero_copy_only=False)
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def partition_ids(doc_ids, num_partitions: int) -> np.ndarray:
    """Partition index in [0, num_partitions) for each key — int32."""
    return (hash_strings(doc_ids) % np.uint64(num_partitions)).astype(np.int32)


#: SQL-reproducible token-array digest parameters (shared with the
#: DuckDB twin in __ray_entry__.cdc_final_state_sql)
TOK_HASH_BASE = 1_000_003
TOK_HASH_PRIME = 2_147_483_647  # 2^31 - 1


def token_poly_hashes(tokens: "pa.ChunkedArray | pa.Array",
                      base: int = TOK_HASH_BASE) -> np.ndarray:
    """Exact polynomial digest of each row's token array:
    ``h = fold((a, t) -> (a*base + t) % (2^31-1), 0, tokens)`` — the
    Horner fold DuckDB reproduces verbatim with ``list_reduce(
    list_prepend(0, list_transform(tokens, BIGINT)), ...)``, so per-row
    token-array equality is checkable across engines without shipping
    the list column through a value hash. Vectorized: one flat buffer +
    end-aligned powers + ``np.add.reduceat`` (the ``_word_poly_hashes``
    recipe over int32 values instead of code points). Empty / NULL
    arrays digest to 0."""
    import pyarrow.compute as pc

    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(tokens), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    n = len(lens)
    out = np.zeros(n, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return out
    # flatten() yields exactly the concatenated values of non-null rows
    # (slice- and null-safe), aligned with the fill_null(0) lengths
    flat = tokens.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    prime = TOK_HASH_PRIME
    maxlen = int(lens.max())
    powers = np.empty(maxlen, dtype=np.int64)
    powers[0] = 1
    for i in range(1, maxlen):
        powers[i] = (powers[i - 1] * base) % prime
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    ends = offsets + lens
    exp = np.repeat(ends, lens) - 1 - np.arange(total)
    # each term < 2^31 and segments are <= maxlen long, so the reduceat
    # partial sums stay far below int64 overflow before the final mod
    terms = ((flat % prime) * powers[exp]) % prime
    nonempty = lens > 0
    out[nonempty] = np.add.reduceat(terms, offsets[nonempty]) % prime
    return out

