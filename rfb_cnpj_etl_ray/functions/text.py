"""Text-analysis operators for training-data pipelines over ``documents``.

All per-batch kernels are vectorized (Arrow compute / pandas / numpy
over a flat token buffer) — no per-row Python in hot paths. Every
whitespace token is cut by one kernel, ``_words`` (with ``_ngrams`` for
runs of consecutive tokens), which reproduces the SQL twins'
``regexp_extract_all(lower(text), '\\S+')`` exactly; ``dedup`` reads
its tokens from the same two functions. The
reference has no text stages; these are the north-rule additions a
100 TB training-data pipeline needs (language-ID, quality scoring, token
counting, fingerprinting), built with the same stage patterns as the CDC
engine. Per-document outputs are stateless map_batches tasks, with side
inputs broadcast through ``stages.exchange.fetch``. A corpus aggregate
that folds per-batch partials of ``documents`` is one
``stages.exchange.fold_parquet`` (plain tasks per row group, no
Dataset); a top-k over a vocabulary uses its keyed form. A kernel that
maps tokens through a function runs it once per distinct word of the
batch (``_word_codes``). No operator here starts an actor.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from rfb_cnpj_etl_ray.stages.exchange import fetch, fold_parquet, sum_by

#: RE2's ``\s`` (DuckDB's regex engine, so the whitespace of every SQL
#: twin) is the space plus these four ASCII controls and nothing else;
#: Python's ``\s`` also takes \v, \x1c-\x1f, \x85, NBSP, U+2000-200A,
#: U+3000 and more. Every engine-side whitespace class is built from it.
WS_CTRL = r"\t\n\f\r"
#: BPE-ish pre-tokenizer: letter runs, digit runs, single punctuation.
BPE_RE = rf"[A-Za-z]+|[0-9]+|[^A-Za-z0-9{WS_CTRL} ]"
#: the SQL twins' whitespace token (RE2 semantics)
WS_RE = r"\S+"


def _words(texts: pd.Series, lower: bool = True
           ) -> tuple[np.ndarray, np.ndarray]:
    """The engine's one whitespace tokenizer: ``(flat, lens)`` where
    ``flat`` is every token of every row in order (numpy object array)
    and ``lens[i]`` the token count of row ``i`` (zeros kept). Equal to
    DuckDB's ``regexp_extract_all(lower(text), '\\S+')`` (``lower=False``
    drops the ``lower``), so engine and SQL twin tokenize alike by
    construction: lowercasing is Arrow's ``utf8_lower`` (per code point,
    like DuckDB — 'İ' → 'i', word-final 'Σ' → 'σ', where Python's
    ``str.lower`` gives 'i̇' and 'ς'), and splitting is on RE2's ``\\s``
    (``WS_CTRL`` + space). The split maps the four controls to a space
    and splits on the literal space, dropping empty pieces — the same
    tokens as a regex split on ``[\\t\\n\\f\\r ]+``, at a fraction of its
    cost.

    Known oracle gap: the 43 letters Unicode 14 added (U+2C2F, U+A7C0,
    U+10570, ...) are lowercased by Arrow but not by DuckDB 1.0, whose
    case tables are older; raw (``lower=False``) tokens match DuckDB on
    every code point."""
    flat, lens = _word_array(texts, lower)
    # to_pandas interns repeated tokens: half the cost of to_numpy here
    return flat.to_pandas().to_numpy(), lens


def _word_array(texts: pd.Series, lower: bool = True
                ) -> tuple[pa.Array, np.ndarray]:
    """``_words`` with the flat tokens left as an Arrow string array."""
    arr = pa.array(texts, pa.large_string())
    if lower:
        arr = pc.utf8_lower(arr)
    parts = pc.split_pattern(
        pc.replace_substring_regex(arr, f"[{WS_CTRL}]", " "), " ")
    flat = pc.list_flatten(parts)
    keep = pc.not_equal(flat, "")
    lens = np.bincount(pc.list_parent_indices(parts).filter(keep).to_numpy(),
                       minlength=len(arr))
    return flat.filter(keep), lens


def _word_codes(texts: pd.Series
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_words`` as exact word codes: ``(codes, distinct, lens)``, where
    ``distinct[codes]`` is the flat (lowercased) token buffer and
    ``distinct`` an object array of each batch token once. Arrow's
    ``dictionary_encode`` compares tokens byte for byte, so 'ab\\x00'
    and 'ab' get two codes; pandas ``factorize`` would merge them. A
    per-token function (a hash, a count) then runs once per distinct
    word and is gathered by the codes."""
    flat, lens = _word_array(texts)
    d = flat.dictionary_encode()
    return (d.indices.to_numpy(), d.dictionary.to_numpy(zero_copy_only=False),
            lens)


def _ngram_starts(lens: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(row, start)`` of every run of ``n`` consecutive tokens inside
    one row of a flat token buffer with ``lens`` tokens per row, in
    buffer order."""
    row = np.repeat(np.arange(len(lens)), lens)
    start = np.flatnonzero(row[: max(len(row) - n + 1, 0)] == row[n - 1:])
    return row[start], start


def _ngrams(flat: np.ndarray, lens: np.ndarray, n: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """``(row, gram)`` for every run of ``n`` consecutive tokens inside
    one row of a ``_words`` buffer, tokens joined by ``" "``, in buffer
    order (so ``row`` ascends); a row with fewer than ``n`` tokens gives
    none — the ``ws[i] || ' ' || … || ws[i + n - 1]`` of the SQL twins.
    One Arrow ``take`` gathers the members and one ``binary_join`` glues
    them."""
    row, start = _ngram_starts(lens, n)
    idx = (start[:, None] + np.arange(n)).ravel()
    members = pa.ListArray.from_arrays(
        pa.array(np.arange(0, len(idx) + 1, n), pa.int32()),
        pa.array(flat, pa.large_string()).take(idx))
    return row, pc.binary_join(
        members, pa.scalar(" ", pa.large_string())).to_numpy(
        zero_copy_only=False)


#: modulus of the code-point polynomial hashes (2^31-1: a·h + b stays
#: BIGINT-exact in the SQL twins)
_POLY_PRIME = 2147483647


def _poly_powers(base: int, n: int) -> np.ndarray:
    """``base**i mod _POLY_PRIME`` for ``i`` in ``[0, n)`` (at least one)."""
    powers = np.empty(max(n, 1), dtype=np.int64)
    powers[0] = 1
    for i in range(1, n):
        powers[i] = (powers[i - 1] * base) % _POLY_PRIME
    return powers


def _word_poly_hashes(flat_words: np.ndarray, base: int) -> np.ndarray:
    """Polynomial hash (mod 2^31-1) of every word in an object array —
    one flat buffer + end-aligned powers + add.reduceat; identical to
    the SQL fold ``(a*base + ord(char)) % p``. Folds CODE POINTS (via a
    UTF-32 view), exactly what SQL ``ord(substr(...))`` yields — so the
    bit-for-bit oracle claim holds on non-ASCII text too. Callers hash
    a batch's ``_word_codes`` dictionary and gather by the codes, so
    each distinct word is hashed once."""
    if flat_words.size == 0:
        return np.zeros(0, dtype=np.int64)
    # one encode for the whole buffer; a str's len is its code-point
    # count, i.e. its UTF-32 length
    lens = np.fromiter(map(len, flat_words), dtype=np.int64,
                       count=len(flat_words))
    arr = np.frombuffer("".join(flat_words).encode("utf-32-le"),
                        dtype=np.uint32).astype(np.int64)
    powers = _poly_powers(base, int(lens.max()))
    offsets = np.zeros(len(flat_words), dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    ends = offsets + lens
    exp = np.repeat(ends, lens) - 1 - np.arange(len(arr))
    terms = (arr * powers[exp]) % _POLY_PRIME
    return np.add.reduceat(terms, np.minimum(offsets, max(len(terms) - 1, 0))
                           ) % _POLY_PRIME


STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "for", "on", "with")

#: tiny per-language stopword profiles for the n-gram/stopword heuristic
#: language-ID (deterministic, dependency-free).
LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is"),
    "pt": ("de", "da", "do", "que", "em", "para"),
    "es": ("de", "la", "el", "que", "en", "los"),
    "fr": ("de", "la", "le", "et", "les", "des"),
    "de": ("der", "die", "und", "das", "ist", "von"),
}


def _read_docs(sf_dir: str, columns=None):
    from rfb_cnpj_etl_ray.sources.parquet import read_table

    return read_table(f"{sf_dir}/documents.parquet", columns=columns)


def _fold_docs(sf_dir: str, columns: list[str], partial, combine,
               finish=None, by=None):
    """``fold_parquet`` over ``documents``: a per-batch ``partial`` folded
    by ``combine`` (then ``finish``) in plain tasks, with no Dataset."""
    return fold_parquet(f"{sf_dir}/documents.parquet", columns, partial,
                        combine, finish, by=by)


#: hash buckets of ``_topk_by_count``'s keyed fold: each bucket's keys
#: are folded by one task tree, so a vocabulary wider than one worker's
#: heap still splits across this many
_TOPK_BUCKETS = 8


def _sum_topk(key: str, k: int):
    """Fold of (key, n) partial rows: sum per key, keep the k largest
    (count desc, key asc). Exact only over partials with disjoint keys
    (or over every partial at once): a cut key cannot come back."""
    sum_n = sum_by([key], "n")

    def fold(df: pd.DataFrame) -> pa.Table:
        return sum_n(df).sort_by([("n", "descending"),
                                  (key, "ascending")]).slice(0, k)

    return fold


def _topk_by_count(sf_dir: str, partial, key: str, k: int):
    """Global exact top-k over per-batch partial (key, n) counts of
    ``documents``: ``fold_parquet``'s keyed fold on plain tasks. Every
    row group sums its own counts and splits them into
    ``_TOPK_BUCKETS`` hash buckets of the key (``hashing.partition_ids``:
    stable across processes, never builtin ``hash``); each bucket's tree
    only sums, its root keeps the bucket's top-k (exact: a key lives in
    one bucket), and one last task keeps the top-k of the
    ≤ k×``_TOPK_BUCKETS`` survivors. No global sort runs, no step holds
    the whole vocabulary, and no Dataset starts."""
    return _fold_docs(sf_dir, ["text"], partial, sum_by([key], "n"),
                      _sum_topk(key, k), by=(key, _TOPK_BUCKETS))


def _token_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """Vectorized whitespace + BPE-ish counts per document; the BPE
    count runs on Arrow's RE2, the regex engine of the SQL twin."""
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_ws_tokens": _words(batch["text"], lower=False)[1],
            "n_bpe_tokens": pc.count_substring_regex(
                pa.array(batch["text"]), BPE_RE).to_numpy().astype("int64"),
        }
    )


def token_stats(sf_dir: str):
    """Whitespace + BPE-ish token counts per document."""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _token_counts, batch_format="pandas"
    )


TOKEN_STATS_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{WS_RE}'))  AS n_ws_tokens,
       len(regexp_extract_all(text, '{BPE_RE.replace("'", "''")}')) AS n_bpe_tokens
FROM documents
"""


def quality_scores(sf_dir: str):
    """Heuristic quality features: char count, word count, average word
    length, stopword ratio — the standard cheap pre-filters for web-scale
    corpus cleaning, all as vectorized string kernels.

    Ratios are reported in exact integer millis (⌊1000·num/den⌋) so the
    values are bit-identical across engines — float rounding rules
    (half-even vs half-away) are not portable between numpy and SQL."""
    stop_set = set(STOPWORDS)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"]
        flat, counts = _words(s)
        n_words = pd.Series(counts, index=batch.index)
        n_chars = s.str.len().astype("int64")
        word_chars = pc.utf8_length(pc.replace_substring_regex(
            pa.array(s), f"[{WS_CTRL} ]", "")).to_numpy().astype(np.int64)
        # stopword count over the flat word buffer: one isin + one
        # reduceat for the whole batch (no per-row Python)
        hits = np.isin(flat, list(stop_set)).astype(np.int64)
        offsets = np.zeros(len(batch), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        n_stop = np.zeros(len(batch), dtype=np.int64)
        nonempty = counts > 0
        if hits.size:
            n_stop[nonempty] = np.add.reduceat(hits, offsets[nonempty])
        n_stop = pd.Series(n_stop, index=batch.index)
        safe = n_words.replace(0, 1)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars_calc": n_chars,
                "n_words": n_words,
                "avg_word_len_milli": (word_chars * 1000 // safe).astype("int64"),
                "stop_ratio_milli": (n_stop * 1000 // safe).astype("int64"),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


_STOP_SQL_LIST = ", ".join(f"'{w}'" for w in STOPWORDS)
QUALITY_SCORES_SQL = f"""
SELECT doc_id,
       length(text) AS n_chars_calc,
       len(regexp_extract_all(text, '\\S+')) AS n_words,
       length(regexp_replace(text, '\\s', '', 'g')) * 1000
         // GREATEST(len(regexp_extract_all(text, '\\S+')), 1) AS avg_word_len_milli,
       len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                       x -> list_contains([{_STOP_SQL_LIST}], x))) * 1000
         // GREATEST(len(regexp_extract_all(text, '\\S+')), 1) AS stop_ratio_milli
FROM documents
"""


def _language_id(batch: pd.DataFrame) -> pd.DataFrame:
    """Stopword-profile language-ID (n-gram heuristic): score = number of
    words found in each language's profile; argmax wins (ties break to
    the alphabetically-first language), 'und' when no profile word
    occurs. Score reported as integer milli-fraction (score*1000 // n) so
    the DuckDB oracle matches bit-exactly across engines."""
    langs = sorted(LANG_PROFILES)
    # flat word buffer + one isin per language + per-doc reduceat —
    # no per-row Python lambdas
    flat, counts = _words(batch["text"])
    n = np.maximum(counts, 1)
    offsets = np.zeros(len(batch), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    nonempty = counts > 0
    scores = np.zeros((len(batch), len(langs)), dtype=np.int64)
    for j, lang in enumerate(langs):
        hits = np.isin(flat, list(LANG_PROFILES[lang])).astype(np.int64)
        if hits.size:
            scores[nonempty, j] = np.add.reduceat(hits,
                                                  offsets[nonempty])
    best = np.argmax(scores, axis=1)
    best_score = scores[np.arange(len(batch)), best]
    pred = np.where(best_score > 0, np.array(langs)[best], "und")
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "pred_lang": pred,
            "lang_score_milli": (best_score * 1000 // n).astype("int64"),
        }
    )


def language_id(sf_dir: str):
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _language_id, batch_format="pandas"
    )


def _profile_sql(lang: str) -> str:
    words = ", ".join(f"'{w}'" for w in LANG_PROFILES[lang])
    return (f"len(list_filter(regexp_extract_all(lower(text), '\\S+'), "
            f"x -> list_contains([{words}], x)))")


LANGUAGE_ID_SQL = f"""
WITH s AS (
  SELECT doc_id,
         GREATEST(len(regexp_extract_all(lower(text), '\\S+')), 1) AS n,
         {_profile_sql('de')} AS s_de,
         {_profile_sql('en')} AS s_en,
         {_profile_sql('es')} AS s_es,
         {_profile_sql('fr')} AS s_fr,
         {_profile_sql('pt')} AS s_pt
  FROM documents
)
SELECT doc_id,
       CASE WHEN GREATEST(s_de, s_en, s_es, s_fr, s_pt) = 0 THEN 'und'
            WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr
                 AND s_de >= s_pt THEN 'de'
            WHEN s_en >= s_es AND s_en >= s_fr AND s_en >= s_pt THEN 'en'
            WHEN s_es >= s_fr AND s_es >= s_pt THEN 'es'
            WHEN s_fr >= s_pt THEN 'fr'
            ELSE 'pt' END AS pred_lang,
       GREATEST(s_de, s_en, s_es, s_fr, s_pt) * 1000 // n AS lang_score_milli
FROM s
"""


# ---------------------------------------------------------------------------
# document fingerprinting — rolling-hash over a flat byte buffer
# ---------------------------------------------------------------------------

_FP_WINDOW = 16
_FP_BASE = 131
_FP_PRIME = 2147483647  # 2^31-1: products stay exact in int64 (and BIGINT)


def _poly_hashes(texts: "pd.Series", window: int = _FP_WINDOW
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(full polynomial hash, min rolling window hash) per doc, both
    mod 2^31-1 with base 131 — deliberately SQL-reproducible (the DuckDB
    oracle computes the identical fold over code points; equal to bytes
    on ASCII corpora).

    Fully vectorized across the whole batch: concatenate all docs into
    one byte buffer, multiply each byte by its end-aligned power of the
    base (one table lookup), ``np.add.reduceat`` per doc for the full
    hash; window hashes via ``sliding_window_view`` · powers with
    cross-doc windows masked to +inf before ``np.minimum.reduceat`` —
    no per-doc Python loop anywhere.
    """
    # fold CODE POINTS (UTF-32 view), matching SQL ord() exactly — the
    # bit-for-bit oracle holds on non-ASCII text too (ADVICE r2)
    encoded = texts.str.encode("utf-32-le")
    lens = (encoded.str.len() // 4).to_numpy(dtype=np.int64)
    pad = np.maximum(window - lens, 0)  # space-pad short docs (rpad analog)
    buf = b"".join(e + b" \x00\x00\x00" * int(p)
                   for e, p in zip(encoded, pad))
    lens = lens + pad
    n_docs = len(texts)
    arr = np.frombuffer(buf, dtype=np.uint32).astype(np.int64)
    total = len(arr)
    if total == 0:
        z = np.zeros(n_docs, dtype=np.int64)
        return z, z
    offsets = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    ends = offsets + lens
    maxlen = int(lens.max())
    powers = np.empty(maxlen, dtype=np.int64)
    powers[0] = 1
    for i in range(1, maxlen):  # O(maxlen), not O(rows)
        powers[i] = (powers[i - 1] * _FP_BASE) % _FP_PRIME
    # full hash: byte_i * base^(doc_end-1-i), summed per doc
    exp = np.repeat(ends, lens) - 1 - np.arange(total)
    terms = (arr * powers[exp]) % _FP_PRIME        # < 2^31 each
    full = np.add.reduceat(terms, offsets) % _FP_PRIME
    # rolling window hashes: mask cross-doc windows to prime (≥ any hash)
    wpow = powers[window - 1::-1][:window]
    win = np.lib.stride_tricks.sliding_window_view(arr, window)
    whash = (win @ wpow) % _FP_PRIME               # sum < 16*255*2^31 « 2^63
    starts = np.arange(len(whash))
    doc_of = np.searchsorted(ends, starts, side="right")
    valid = starts <= ends[doc_of] - window
    whash = np.where(valid, whash, _FP_PRIME)
    roll = np.minimum.reduceat(whash, np.minimum(offsets, len(whash) - 1))
    return full.astype(np.int64), roll.astype(np.int64)


def fingerprints(sf_dir: str):
    """Two fingerprints per doc: full-text polynomial hash (exact-dup
    key) and min rolling 16-gram hash (locality-sensitive-ish,
    winnowing-lite). Both mod 2^31-1 so the DuckDB oracle reproduces
    them bit-exactly (list_reduce Horner fold / windowed list_min)."""

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        full, rolling = _poly_hashes(batch["text"])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "full_hash": full,
                "rolling_min_hash": rolling,
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pandas"
    )


def _window_term_sql(j: int) -> str:
    power = pow(_FP_BASE, _FP_WINDOW - 1 - j, _FP_PRIME)
    return (f"CAST(ord(substr(p, CAST(i + {j} AS INTEGER), 1)) AS BIGINT)"
            f" * {power}")


FINGERPRINTS_SQL = f"""
WITH padded AS (
  -- NOTE: rpad truncates long strings to n, so pad conditionally
  SELECT doc_id,
         CASE WHEN length(text) < {_FP_WINDOW}
              THEN rpad(text, {_FP_WINDOW}, ' ') ELSE text END AS p
  FROM documents
)
SELECT doc_id,
  list_reduce(
    list_prepend(CAST(0 AS BIGINT),
      list_transform(range(1, length(p) + 1),
        i -> CAST(ord(substr(p, CAST(i AS INTEGER), 1)) AS BIGINT))),
    (a, b) -> (a * {_FP_BASE} + b) % {_FP_PRIME}) AS full_hash,
  list_min(list_transform(range(1, length(p) - {_FP_WINDOW - 2}),
    i -> ({' + '.join(_window_term_sql(j) for j in range(_FP_WINDOW))})
         % {_FP_PRIME})) AS rolling_min_hash
FROM padded
"""


# ---------------------------------------------------------------------------
# dataset splitting + length statistics + sequence packing
# ---------------------------------------------------------------------------

def train_val_split(sf_dir: str):
    """Deterministic hash-free split assignment (doc_id mod 10: 8/1/1
    train/val/test) — the reproducible dataset-split every training
    pipeline needs; pure vectorized arithmetic, stable across runs and
    cluster sizes."""
    import pyarrow as pa_
    import pyarrow.compute as pc_

    ds = _read_docs(sf_dir, ["doc_id"])

    def assign(batch: pa_.Table) -> pa_.Table:
        mod = pc_.subtract(
            batch.column("doc_id"),
            pc_.multiply(pc_.divide(batch.column("doc_id"), 10), 10),
        )
        split = pc_.if_else(
            pc_.less(mod, 8), pa_.scalar("train"),
            pc_.if_else(pc_.equal(mod, 8), pa_.scalar("val"),
                        pa_.scalar("test")),
        )
        return pa_.table({"doc_id": batch.column("doc_id"), "split": split})

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


TRAIN_VAL_SPLIT_SQL = """
SELECT doc_id,
       CASE WHEN doc_id % 10 < 8 THEN 'train'
            WHEN doc_id % 10 = 8 THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


def length_histogram(sf_dir: str):
    """Document-length histogram (100-char buckets): per-batch partial
    counts, summed by ``fold_parquet`` — the schema-profiling aggregate."""

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        b = (batch["n_chars"] // 100).astype("int64")
        out = b.value_counts().rename_axis("bucket").reset_index(name="n_docs")
        return out

    return _fold_docs(sf_dir, ["n_chars"], bucketize,
                      sum_by(["bucket"], "n_docs"))


LENGTH_HISTOGRAM_SQL = """
SELECT n_chars // 100 AS bucket, COUNT(*) AS n_docs
FROM documents GROUP BY 1
"""


PACK_BUDGET = 2048
#: docs pack greedily within fixed doc_id ranges of this size — pack
#: boundaries are a pure function of the data (NOT of block layout), so
#: results are identical at any parallelism and SQL-reproducible.
PACK_GROUP = 256


def pack_sequences(sf_dir: str, budget: int = PACK_BUDGET):
    """Greedy sequence packing: within each fixed doc_id range
    (``doc_id // PACK_GROUP``), walk documents in doc_id order and close
    a pack when adding the next doc would exceed ``budget`` characters —
    the pretraining-batch packing operator. The keyed exchange
    co-locates each group; the greedy walk is inherently sequential
    (data-dependent reset) but bounded to PACK_GROUP rows per group.
    ``pack_id = group * 1_000_000 + local`` is globally unique."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    def add_group(batch: pd.DataFrame) -> pd.DataFrame:
        batch["grp"] = batch["doc_id"] // PACK_GROUP
        return batch

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        schema = pa.schema([("doc_id", pa.int64()),
                            ("pack_id", pa.int64()),
                            ("n_chars", pa.int64())])
        if batch.empty:
            # an empty exchange block must still carry the declared
            # schema, or Ray logs a schema-consistency warning
            return schema.empty_table()
        b = batch.sort_values("doc_id").reset_index(drop=True)
        lens = b["n_chars"].to_numpy()
        grps = b["grp"].to_numpy()
        pack_local = np.zeros(len(b), dtype=np.int64)
        acc, pid, cur = 0, 0, None
        for i, (g, ln) in enumerate(zip(grps, lens)):  # sequential by design
            if g != cur:
                cur, pid, acc = g, 0, 0
            if acc + ln > budget and acc > 0:
                pid += 1
                acc = 0
            acc += ln
            pack_local[i] = pid
        return pa.table(
            {"doc_id": b["doc_id"].to_numpy(),
             "pack_id": grps * 1_000_000 + pack_local,
             "n_chars": b["n_chars"].to_numpy()}, schema=schema
        )

    ds = _read_docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        add_group, batch_format="pandas"
    )
    return repartition_by_key(ds, ["grp"]).map_batches(
        pack, batch_format="pandas", batch_size=None
    )


PACK_SEQUENCES_SQL = f"""
WITH RECURSIVE d AS (
  SELECT doc_id, n_chars, doc_id // {PACK_GROUP} AS grp,
         ROW_NUMBER() OVER (PARTITION BY doc_id // {PACK_GROUP}
                            ORDER BY doc_id) AS rn
  FROM documents
), r AS (
  SELECT grp, rn, doc_id, n_chars,
         CAST(0 AS BIGINT) AS pack_local, n_chars AS acc
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.grp, d.rn, d.doc_id, d.n_chars,
         CASE WHEN r.acc + d.n_chars > {PACK_BUDGET} AND r.acc > 0
              THEN r.pack_local + 1 ELSE r.pack_local END,
         CASE WHEN r.acc + d.n_chars > {PACK_BUDGET} AND r.acc > 0
              THEN d.n_chars ELSE r.acc + d.n_chars END
  FROM r JOIN d ON d.grp = r.grp AND d.rn = r.rn + 1
)
SELECT doc_id, grp * 1000000 + pack_local AS pack_id, n_chars FROM r
"""


# ---------------------------------------------------------------------------
# corpus heavy hitters: global top-K tokens
# ---------------------------------------------------------------------------

TOP_TOKENS_K = 50


def top_tokens(sf_dir: str, k: int = TOP_TOKENS_K):
    """Global top-K most frequent tokens — the corpus-curation heavy
    hitter report. Scale shape: counts pre-aggregate per batch (one
    ``bincount`` of the batch's word codes), so the keyed fold
    (``_topk_by_count``) moves ≤|row-group vocabulary| rows per row
    group, never one row per token occurrence, and only the bucket
    roots cut to k rows."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tok, cnt = _batch_token_counts(batch)
        return pd.DataFrame({"token": tok, "n": cnt})

    return _topk_by_count(sf_dir, partial, "token", k)


def _batch_token_counts(batch: pd.DataFrame
                        ) -> "tuple[np.ndarray, np.ndarray]":
    """(distinct lowercased tokens, counts) of a batch: one
    ``bincount`` of its ``_word_codes`` (exact, so a token with a
    trailing NUL stays its own token, as in DuckDB) — the shared
    counting kernel of ``top_tokens`` and ``certified_topk_tokens``
    (their equality is the latter's contract, so they must tokenize
    identically by construction). Empty batches yield two empty
    arrays."""
    codes, words, _ = _word_codes(batch["text"])
    return words, np.bincount(codes, minlength=len(words)).astype(np.int64)


TOP_TOKENS_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(lower(text), '\\S+')) AS token
      FROM documents)
GROUP BY token ORDER BY n DESC, token ASC LIMIT {TOP_TOKENS_K}
"""


# ---------------------------------------------------------------------------
# exact deterministic stratified sampling (k docs per stratum)
# ---------------------------------------------------------------------------

STRATA_K = 40
_SAMPLE_MULT = 2654435761          # Knuth multiplicative hash
_SAMPLE_MOD = 4294967296           # 2^32


def knuth_hash(ids) -> "np.ndarray":
    """(id * 2654435761) % 2^32, overflow-safe: the product is taken in
    uint64 (wrap = mod 2^64, which preserves the low 32 bits exactly),
    so ids beyond ~3.5e9 — realistic at 100 TB — hash identically to the
    SQL oracle's HUGEINT form instead of wrapping int64 negative."""
    a = np.asarray(ids, dtype=np.uint64)
    return ((a * np.uint64(_SAMPLE_MULT)) % np.uint64(_SAMPLE_MOD)).astype(
        np.int64)


#: the SQL twin of ``knuth_hash`` — HUGEINT keeps the product exact
#: where a BIGINT multiply would raise on large ids; the +2^32 re-mod
#: makes the result the MATHEMATICAL (non-negative) residue, matching
#: numpy's uint64 wrap even for negative ids (SQL ``%`` is truncated
#: toward zero, so a bare ``id * K % 2^32`` would go negative there
#: while numpy never does — identical output for all ids ≥ 0)
KNUTH_HASH_SQL = (f"CAST((CAST({{col}} AS HUGEINT) * {_SAMPLE_MULT} "
                  f"% {_SAMPLE_MOD} + {_SAMPLE_MOD}) % {_SAMPLE_MOD} "
                  f"AS BIGINT)")


def stratified_sample(sf_dir: str, k: int = STRATA_K):
    """Exactly ``k`` documents per language stratum, chosen by a
    deterministic hash order (Knuth multiplicative, BIGINT-exact) — the
    corpus-curation subsample that is reproducible across runs, engines
    and cluster sizes (unlike ``random_sample``, which depends on block
    layout). One keyed exchange on the stratum, then a block-wide sort +
    ``groupby.head`` — the same per-block vectorized rank pattern as
    ``top_orders_per_customer``."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype="object")})
        df = df.copy()
        df["h"] = knuth_hash(df["doc_id"].to_numpy())
        df = df.sort_values(["lang", "h", "doc_id"], kind="stable")
        out = df.groupby("lang", sort=False).head(k)
        return out[["doc_id", "lang"]]

    # de-skew: the SAME rank-pick runs once per input block BEFORE the
    # exchange — a row in the global per-stratum top-k is in its block's
    # local top-k (local rank ≤ global rank), so the pre-prune is
    # lossless and the stratum-keyed shuffle carries ≤ k×blocks rows
    # instead of concentrating the whole corpus into #strata blocks
    ds = _read_docs(sf_dir, ["doc_id", "lang"]).map_batches(
        pick, batch_format="pandas")
    return repartition_by_key(ds, ["lang"]).map_batches(
        pick, batch_format="pandas", batch_size=None)


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY CAST(CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT}
                         % {_SAMPLE_MOD} AS BIGINT), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= {STRATA_K}
"""


# ---------------------------------------------------------------------------
# TF-IDF: per-document top term against a corpus-wide document frequency
# ---------------------------------------------------------------------------

_IDF_SCALE = 1000
_WORD_RE = "[A-Za-z]+"


def _doc_words(batch: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids repeated per word, flat lowercased word buffer) for a
    batch — one findall + one concatenate, no per-row Python."""
    words = batch["text"].str.findall(_WORD_RE)
    counts = words.str.len().to_numpy(dtype=np.int64)
    if not counts.sum():
        return (np.array([], dtype=np.int64), np.array([], dtype=object))
    flat = np.concatenate(
        [np.char.lower(np.asarray(w, dtype=str)) for w in words if len(w)]
    ).astype(object)
    doc_rep = np.repeat(batch["doc_id"].to_numpy(), counts)
    return doc_rep, flat


def tfidf_top_terms(sf_dir: str):
    """Per-document highest-TF-IDF term (linear idf, integer-exact).

    Two streaming passes, the canonical small-side-broadcast shape:

    1. **df pass** — per batch, distinct (doc, word) pairs reduce to
       partial document frequencies; ``fold_parquet`` sums them. The
       vocabulary is sub-linear in corpus size (bounded by the
       language, ~10^7 terms at 100 TB), so the resulting idf map is a
       broadcast table (``ray.put`` once, ``fetch``ed once per worker
       process), never a per-row shuffle. (If the vocab ever outgrew a
       broadcast, the same score is one keyed exchange on ``word`` —
       documented fallback.)
    2. **score pass** — per batch, term frequencies via one vectorized
       groupby over the flat word buffer; scores looked up from the
       broadcast map; per-doc argmax (ties → lexicographically smallest
       term) entirely inside the block, since a document never spans
       batches.

    Score is integer-exact on both engines: ``tf * ((N * 1000) // df)``
    — a linear idf variant chosen over ``log(N/df)`` so no libm ulp can
    diverge between numpy and SQL.
    """
    import ray
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        doc_rep, flat = _doc_words(batch)
        if not flat.size:
            return pd.DataFrame({"w": pd.Series([], dtype="object"),
                                 "df": pd.Series([], dtype="int64")})
        pairs = pd.DataFrame({"doc_id": doc_rep, "w": flat})
        distinct = pairs.drop_duplicates()
        g = distinct.groupby("w", sort=False).size().reset_index(name="df")
        g["df"] = g["df"].astype("int64")
        return g

    df_tbl = _fold_docs(sf_dir, ["doc_id", "text"], df_partial,
                        sum_by(["w"], "df")).to_pandas()
    idf = {} if df_tbl.empty else {
        w: (n_docs * _IDF_SCALE) // int(d)
        for w, d in zip(df_tbl["w"], df_tbl["df"])}
    idf_ref = ray.put(idf)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        doc_rep, flat = _doc_words(batch)
        if not flat.size:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "top_term": pd.Series([], dtype="object"),
                "score": pd.Series([], dtype="int64")})
        tf = (pd.DataFrame({"doc_id": doc_rep, "w": flat})
              .groupby(["doc_id", "w"], sort=False)
              .size().reset_index(name="tf"))
        tf["score"] = (tf["tf"].to_numpy(dtype=np.int64)
                       * tf["w"].map(fetch(idf_ref)).to_numpy(dtype=np.int64))
        tf = tf.sort_values(["doc_id", "score", "w"],
                            ascending=[True, False, True], kind="stable")
        out = tf.drop_duplicates("doc_id", keep="first")
        return pd.DataFrame({"doc_id": out["doc_id"].astype("int64"),
                             "top_term": out["w"],
                             "score": out["score"].astype("int64")})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")


TFIDF_TOP_TERMS_SQL = f"""
WITH words AS (
  SELECT doc_id, lower(w) AS w
  FROM documents, unnest(regexp_extract_all(text, '{_WORD_RE}')) AS t(w)
), tf AS (
  SELECT doc_id, w, COUNT(*) AS tf FROM words GROUP BY doc_id, w
), df AS (
  SELECT w, COUNT(DISTINCT doc_id) AS df FROM words GROUP BY w
), n AS (SELECT COUNT(*) AS n FROM documents)
SELECT doc_id, w AS top_term, CAST(score AS BIGINT) AS score FROM (
  SELECT tf.doc_id, tf.w,
         tf.tf * ((n.n * {_IDF_SCALE}) // df.df) AS score,
         ROW_NUMBER() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * ((n.n * {_IDF_SCALE}) // df.df) DESC, tf.w ASC
         ) AS rn
  FROM tf JOIN df USING (w) CROSS JOIN n
) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# corpus curation: composed filter chain with per-document reject reasons
# ---------------------------------------------------------------------------

_CURATE_MIN_CHARS = 100
_CURATE_MAX_DIGIT_MILLI = 50  # >5% digits → too_numeric
_CURATE_LANGS = ("en", "fr", "es", "de")


def curate_corpus(sf_dir: str):
    """Web-scale curation pass: every document labeled keep / reject
    with the FIRST failing rule (short → numeric → language), the
    shape of a production pre-training filter chain.

    One stateless ``map_batches`` — each rule is a vectorized kernel
    (length compare, one regex count, one ``isin``), composed with
    ``np.select`` so rule precedence is data-independent. No shuffle,
    no state: the stage streams at read bandwidth and the keep/reject
    decision travels with the row for downstream routing (keep rows →
    training shards, rejects → audit sink), mirroring the router's
    multi-target pattern (reference: file→table routing,
    db_batch_producer.py:18-28)."""
    docs = _read_docs(sf_dir, ["doc_id", "text", "lang", "n_chars"])

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_chars"].to_numpy(dtype=np.int64)
        digits = pc.count_substring_regex(
            pa.array(df["text"]), "[0-9]").to_numpy().astype(np.int64)
        digit_milli = np.where(n > 0, digits * 1000 // np.maximum(n, 1), 0)
        status = np.select(
            [n < _CURATE_MIN_CHARS,
             digit_milli >= _CURATE_MAX_DIGIT_MILLI,
             ~df["lang"].isin(_CURATE_LANGS).to_numpy()],
            ["too_short", "too_numeric", "bad_lang"],
            default="keep",
        )
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "status": status})

    return docs.map_batches(classify, batch_format="pandas")


CURATE_CORPUS_SQL = f"""
SELECT doc_id,
       CASE
         WHEN n_chars < {_CURATE_MIN_CHARS} THEN 'too_short'
         WHEN length(regexp_replace(text, '[^0-9]', '', 'g')) * 1000
              // greatest(n_chars, 1) >= {_CURATE_MAX_DIGIT_MILLI}
              THEN 'too_numeric'
         WHEN lang NOT IN ('en', 'fr', 'es', 'de') THEN 'bad_lang'
         ELSE 'keep'
       END AS status
FROM documents
"""


# ---------------------------------------------------------------------------
# within-document bigram heavy hitters
# ---------------------------------------------------------------------------

BIGRAM_K = 20


def bigram_topk(sf_dir: str, k: int = BIGRAM_K):
    """Global top-K adjacent word pairs — phrase-level heavy hitters
    (``top_tokens``'s unigram report misses collocations). Scale shape:
    bigrams never cross documents, so the per-batch partial is one
    ``_ngrams`` pass + one ``value_counts`` over the joined pairs; the
    keyed fold (``_topk_by_count``) moves ≤|row-group bigram vocabulary|
    rows per row group, and only the bucket roots cut to k rows."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        _, pairs = _ngrams(*_words(batch["text"]), 2)
        if not len(pairs):
            return pd.DataFrame({"bigram": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        vc = pd.Series(pairs).value_counts(sort=False)
        return pd.DataFrame({"bigram": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy(dtype=np.int64)})

    return _topk_by_count(sf_dir, partial, "bigram", k)


BIGRAM_TOPK_SQL = f"""
SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n
FROM (
  SELECT ws[i] || ' ' || ws[i + 1] AS bigram
  FROM (SELECT regexp_extract_all(lower(text), '\\S+') AS ws
        FROM documents),
       unnest(range(1, len(ws))) AS t(i)
)
GROUP BY bigram ORDER BY n DESC, bigram ASC LIMIT {BIGRAM_K}
"""


# ---------------------------------------------------------------------------
# train/val decontamination: n-gram overlap between splits
# ---------------------------------------------------------------------------

DECON_N = 5  # shingle width in words


def _shingle_hashes(batch: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """``(doc_id, h)`` for every DISTINCT (doc, ``DECON_N``-word shingle)
    of the rows, ``h`` the ``_CMS_BASE`` code-point polynomial hash of
    the shingle's text (its words joined by " ") — with no shingle
    string built. A shingle is its tuple of exact ``_word_codes``; no
    token holds a space, so distinct tuples are distinct strings. Its
    hash is composed from its words' hashes, each distinct word hashed
    once: ``H(x␣y) = ((H(x)·B + 32)·B^len(y) + H(y)) mod p``, ``len`` in
    code points. Each doc lives in one batch, so the per-batch dedup is
    global."""
    codes, words, lens = _word_codes(batch["text"])
    row, start = _ngram_starts(lens, DECON_N)
    cols = {"row": row}
    cols.update((f"w{j}", codes[start + j]) for j in range(DECON_N))
    uniq = pa.table(cols).group_by(list(cols)).aggregate([])
    wh = _word_poly_hashes(words, _CMS_BASE)
    wlen = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    wpow = _poly_powers(_CMS_BASE, int(wlen.max(initial=0)) + 1)[wlen]
    h = wh[uniq.column("w0").to_numpy()]
    for j in range(1, DECON_N):
        c = uniq.column(f"w{j}").to_numpy()
        h = ((h * _CMS_BASE + ord(" ")) % _POLY_PRIME * wpow[c] + wh[c]
             ) % _POLY_PRIME
    doc = batch["doc_id"].to_numpy(dtype=np.int64)
    return doc[uniq.column("row").to_numpy()], h


def decontaminate_val(sf_dir: str):
    """Benchmark-decontamination report: every *val* document (the
    ``train_val_split`` rule: doc_id % 10 == 8) that shares at least one
    ``DECON_N``-word shingle with ANY *train* document, with the count
    of its contaminated distinct shingles. The standard pre-training
    hygiene op: val/test examples leaking into train inflate evals.

    Scale shape: per-batch flat-buffer shingling emits DISTINCT
    (doc_id, gram) rows (each doc lives in one batch, so the per-batch
    dedup is global), then ONE keyed exchange on the gram — never a
    broadcast of the train-side gram set, which at 100 TB is itself
    TB-scale — marks val rows in buckets that also contain a train row;
    a second, much smaller exchange on doc_id folds the per-doc counts.
    Volume: O(tokens) rows into the first shuffle, O(contaminated
    grams) into the second. The dedup and the mark group grams with
    Arrow, which keeps a gram ending in NUL apart from the same gram
    without it."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    def grams(batch: pd.DataFrame) -> pa.Table:
        batch = batch[batch["doc_id"].to_numpy() % 10 <= 8]  # no test docs
        row, gram = _ngrams(*_words(batch["text"]), DECON_N)
        t = pa.table({
            "doc_id": batch["doc_id"].to_numpy(dtype=np.int64)[row],
            "gram": pa.array(gram, pa.string()),
        }).group_by(["doc_id", "gram"]).aggregate([])
        return t.append_column("is_train", pa.array(
            t.column("doc_id").to_numpy() % 10 < 8))

    def mark(t: pa.Table) -> pa.Table:
        # gram buckets are whole within a block after the exchange;
        # declared-Arrow output keeps empty blocks schema-stable
        if not t.num_rows:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        train = pc.unique(t.filter(t.column("is_train")).column("gram"))
        hit = pc.and_(pc.invert(t.column("is_train")),
                      pc.is_in(t.column("gram"), value_set=train))
        return pa.table({"doc_id": t.column("doc_id").filter(hit)})

    def fold(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            ids, n = [], []
        else:
            out = df.groupby("doc_id", as_index=False).agg(
                n_contaminated=("doc_id", "size"))
            ids, n = out["doc_id"], out["n_contaminated"]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_contaminated": pa.array(n, pa.int64())})

    pairs = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        grams, batch_format="pandas")
    hits = repartition_by_key(pairs, ["gram"]).map_batches(
        mark, batch_format="pyarrow", batch_size=None)
    return repartition_by_key(hits, ["doc_id"]).map_batches(
        fold, batch_format="pandas", batch_size=None)


# gram concat generated from DECON_N so the shingle width can never
# desync between the engine and this oracle
_GRAM_CONCAT = " || ' ' || ".join(f"ws[i + {j}]" for j in range(DECON_N))

DECONTAMINATE_VAL_SQL = f"""
WITH words AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws
  FROM documents WHERE doc_id % 10 <= 8
), grams AS (
  SELECT DISTINCT doc_id,
         {_GRAM_CONCAT} AS gram
  FROM words, unnest(range(1, len(ws) - {DECON_N - 2})) AS t(i)
)
SELECT v.doc_id, CAST(COUNT(*) AS BIGINT) AS n_contaminated
FROM (SELECT doc_id, gram FROM grams WHERE doc_id % 10 = 8) v
JOIN (SELECT DISTINCT gram FROM grams WHERE doc_id % 10 < 8) t
  USING (gram)
GROUP BY v.doc_id
"""


# ---------------------------------------------------------------------------
# Gopher-style repetition quality filters
# ---------------------------------------------------------------------------

def repetition_scores(sf_dir: str):
    """Per-document repetition features (the Gopher/C4 repetition
    filters): duplicate-word fraction, most-frequent-word fraction and
    most-frequent-bigram fraction — the cheap signals that catch
    boilerplate and degenerate generations before training.

    All ratios are exact integer millis (``1000·num // den``) so the
    DuckDB oracle reproduces them bit-for-bit. Scale shape: a document
    never spans batches, so everything is one per-batch pandas hash
    groupby over the flat (doc, word) buffer — no shuffle, no per-row
    Python."""

    def rep(batch: pd.DataFrame) -> pd.DataFrame:
        flat, lens = _words(batch["text"])
        n = len(batch)
        n_words = lens
        zeros = np.zeros(n, dtype=np.int64)
        if lens.sum() == 0:
            n_distinct = zeros
            top_word = zeros
            top_bigram = zeros
            n_bigrams = zeros
        else:
            doc_idx = np.repeat(np.arange(n), lens)
            wc = (
                pd.DataFrame({"d": doc_idx, "w": flat})
                .groupby(["d", "w"], sort=False).size()
            )
            g = wc.groupby(level=0)
            n_distinct = zeros.copy()
            n_distinct[g.size().index.to_numpy()] = g.size().to_numpy()
            top_word = zeros.copy()
            top_word[g.max().index.to_numpy()] = g.max().to_numpy()
            # within-doc bigrams over the same flat buffer (the
            # bigram_topk kernel, per-doc maxima)
            n_bigrams = np.maximum(lens - 1, 0)
            bd, pairs = _ngrams(flat, lens, 2)
            top_bigram = zeros.copy()
            if len(pairs):
                bc = (
                    pd.DataFrame({"d": bd, "b": pairs})
                    .groupby(["d", "b"], sort=False).size()
                    .groupby(level=0).max()
                )
                top_bigram[bc.index.to_numpy()] = bc.to_numpy()
        safe_w = np.maximum(n_words, 1)
        safe_b = np.maximum(n_bigrams, 1)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_words": pd.Series(n_words, index=batch.index),
            "n_distinct_words": pd.Series(n_distinct, index=batch.index),
            "dup_word_frac_milli": pd.Series(
                (n_words - n_distinct) * 1000 // safe_w, index=batch.index),
            "top_word_frac_milli": pd.Series(
                top_word * 1000 // safe_w, index=batch.index),
            "top_bigram_frac_milli": pd.Series(
                top_bigram * 1000 // safe_b, index=batch.index),
        })

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        rep, batch_format="pandas")


REPETITION_SCORES_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws
  FROM documents
), wc AS (
  SELECT doc_id, word, COUNT(*) AS n
  FROM (SELECT doc_id, unnest(ws) AS word FROM w)
  GROUP BY doc_id, word
), wstat AS (
  SELECT doc_id, CAST(SUM(n) AS BIGINT) AS n_words,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         CAST(MAX(n) AS BIGINT) AS top_word
  FROM wc GROUP BY doc_id
), bc AS (
  SELECT doc_id, bg, COUNT(*) AS n
  FROM (SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS bg
        FROM w, unnest(range(1, len(ws))) AS t(i))
  GROUP BY doc_id, bg
), bstat AS (
  SELECT doc_id, CAST(MAX(n) AS BIGINT) AS top_bigram,
         CAST(SUM(n) AS BIGINT) AS n_bigrams
  FROM bc GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(ws.n_words, 0) AS n_words,
       COALESCE(ws.n_distinct, 0) AS n_distinct_words,
       (COALESCE(ws.n_words, 0) - COALESCE(ws.n_distinct, 0)) * 1000
         // GREATEST(COALESCE(ws.n_words, 0), 1) AS dup_word_frac_milli,
       COALESCE(ws.top_word, 0) * 1000
         // GREATEST(COALESCE(ws.n_words, 0), 1) AS top_word_frac_milli,
       COALESCE(bs.top_bigram, 0) * 1000
         // GREATEST(COALESCE(bs.n_bigrams, 0), 1) AS top_bigram_frac_milli
FROM documents d
LEFT JOIN wstat ws USING (doc_id)
LEFT JOIN bstat bs USING (doc_id)
"""


# ---------------------------------------------------------------------------
# temperature-weighted source mixing
# ---------------------------------------------------------------------------

MIX_TOTAL = 100  # target corpus size of the mixed subsample


def source_mix_sample(sf_dir: str, k: int = MIX_TOTAL):
    """Temperature-weighted data mixing across sources: per-source
    sampling budgets proportional to ``isqrt(total chars)`` (the classic
    alpha=0.5 temperature that up-weights small sources), documents
    chosen per source by the deterministic Knuth-hash order. Everything
    is BIGINT-exact — ``FLOOR(SQRT(x))`` equals ``isqrt(x)`` for any
    x < 2^52, so engine and oracle compute identical budgets.

    Scale shape: the budget pass is a partial per-batch groupby over
    ~#sources rows summed by ``fold_parquet`` (driver holds one row per
    source — the dimension contract); selection is one keyed exchange
    on ``source`` + a per-block vectorized rank, the
    ``stratified_sample`` pattern."""
    import math

    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    def mass(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("source", as_index=False)["n_chars"].sum()
        return g.rename(columns={"n_chars": "chars"})

    masses = _fold_docs(
        sf_dir, ["source", "n_chars"], mass, sum_by(["source"], "chars"),
    ).to_pandas()  # one row per source: bounded like every dimension broadcast
    w = {} if masses.empty else {
        s: math.isqrt(int(c))
        for s, c in zip(masses["source"], masses["chars"])}
    tot = sum(w.values())
    targets = {s: (k * ws) // tot for s, ws in w.items()}

    def pick(df: pd.DataFrame) -> pa.Table:
        # declared-Arrow output: sources whose budget is 0 yield empty
        # blocks whose pandas schema Ray cannot infer (clean shuffle tail)
        if df.empty:
            out = df
        else:
            df = df.copy()
            df["h"] = knuth_hash(df["doc_id"].to_numpy())
            df = df.sort_values(["source", "h", "doc_id"], kind="stable")
            df["rn"] = df.groupby("source", sort=False).cumcount() + 1
            df["tgt"] = df["source"].map(targets).fillna(0).astype("int64")
            out = df.loc[df["rn"] <= df["tgt"]]
        return pa.table({
            "doc_id": pa.array(out["doc_id"] if len(out) else [], pa.int64()),
            "source": pa.array(out["source"] if len(out) else [], pa.string()),
        })

    # de-skew pre-prune (see stratified_sample): local rank ≤ global
    # rank, so block-local pick-per-source keeps a superset of the final
    # selection and the source-keyed shuffle moves ≤ Σtargets×blocks rows
    ds = _read_docs(sf_dir, ["doc_id", "source"]).map_batches(
        pick, batch_format="pandas")
    return repartition_by_key(ds, ["source"]).map_batches(
        pick, batch_format="pandas", batch_size=None)


SOURCE_MIX_SAMPLE_SQL = f"""
WITH m AS (
  SELECT source,
         CAST(FLOOR(SQRT(CAST(SUM(n_chars) AS BIGINT))) AS BIGINT) AS w
  FROM documents GROUP BY source
), t AS (
  SELECT source, CAST(({MIX_TOTAL} * w) // (SELECT SUM(w) FROM m) AS BIGINT)
           AS tgt
  FROM m
), r AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (
           PARTITION BY source
           ORDER BY CAST(CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT}
                         % {_SAMPLE_MOD} AS BIGINT), doc_id
         ) AS rn
  FROM documents
)
SELECT doc_id, source FROM r JOIN t USING (source) WHERE rn <= tgt
"""


# ---------------------------------------------------------------------------
# cross-document duplicated-span statistics (ExactSubstr-dedup analog)
# ---------------------------------------------------------------------------

DUP_N = 8  # span width in words


def dup_span_stats(sf_dir: str):
    """Per-document duplicated-span report: for every document, the
    total number of ``DUP_N``-word span positions and how many of those
    positions carry a span that also occurs in at least one OTHER
    document — the fixed-width approximation of suffix-array exact-
    substring dedup (long verbatim overlaps between documents are what
    make trained models regurgitate). Within-doc repetition is excluded
    on purpose (``repetition_scores`` covers it): a span counts as
    duplicated only when ≥2 distinct doc_ids carry it.

    Scale shape: per-batch flat-buffer shingling pre-folds to DISTINCT
    (doc_id, gram, n_pos) rows (each doc lives in one batch, so the
    per-batch fold is exact); ONE keyed exchange on the gram co-locates
    each span's carriers and folds per-doc partials inside the bucket;
    a second, much smaller exchange on doc_id sums the partials. The
    wide text column never shuffles and no gram set is ever broadcast
    — O(tokens) rows into the first exchange, O(docs·buckets) into the
    second."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    def spans(batch: pd.DataFrame) -> pd.DataFrame:
        row, gram = _ngrams(*_words(batch["text"]), DUP_N)
        if not len(gram):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "gram": pd.Series([], dtype="object"),
                                 "n_pos": pd.Series([], dtype="int64")})
        return (
            pd.DataFrame({"doc_id": batch["doc_id"].to_numpy()[row],
                          "gram": gram})
            .groupby(["doc_id", "gram"], as_index=False, sort=False)
            .size().rename(columns={"size": "n_pos"})
        )

    def mark(df: pd.DataFrame) -> pa.Table:
        # gram buckets are whole within a block after the exchange; fold
        # straight to per-doc partials so the doc exchange stays tiny
        if df.empty:
            out = pd.DataFrame({"doc_id": [], "tot": [], "dup": []})
        else:
            shared = df.groupby("gram", sort=False)["doc_id"].transform(
                "nunique") >= 2
            out = (
                pd.DataFrame({"doc_id": df["doc_id"], "tot": df["n_pos"],
                              "dup": df["n_pos"].where(shared, 0)})
                .groupby("doc_id", as_index=False).sum()
            )
        return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                         "tot": pa.array(out["tot"], pa.int64()),
                         "dup": pa.array(out["dup"], pa.int64())})

    def fold(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            out = pd.DataFrame({"doc_id": [], "tot": [], "dup": []})
        else:
            out = df.groupby("doc_id", as_index=False).sum()
        tot = out["tot"].to_numpy(dtype=np.int64)
        dup = out["dup"].to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "n_spans": pa.array(tot, pa.int64()),
            "n_dup_spans": pa.array(dup, pa.int64()),
            "dup_span_frac_milli": pa.array(
                dup * 1000 // np.maximum(tot, 1), pa.int64()),
        })

    parts = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        spans, batch_format="pandas")
    partials = repartition_by_key(parts, ["gram"]).map_batches(
        mark, batch_format="pandas", batch_size=None)
    return repartition_by_key(partials, ["doc_id"]).map_batches(
        fold, batch_format="pandas", batch_size=None)


# span concat generated from DUP_N so the width can never desync
# between the engine and this oracle (r3 ADVICE rule)
_SPAN_CONCAT = " || ' ' || ".join(f"ws[i + {j}]" for j in range(DUP_N))

DUP_SPAN_STATS_SQL = f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, {_SPAN_CONCAT} AS gram, COUNT(*) AS n_pos
  FROM w, unnest(range(1, len(ws) - {DUP_N - 2})) AS t(i)
  GROUP BY doc_id, gram
), shared AS (
  SELECT gram FROM g GROUP BY gram HAVING COUNT(DISTINCT doc_id) >= 2
)
SELECT g.doc_id,
       CAST(SUM(n_pos) AS BIGINT) AS n_spans,
       CAST(SUM(CASE WHEN s.gram IS NOT NULL THEN n_pos ELSE 0 END)
            AS BIGINT) AS n_dup_spans,
       CAST(SUM(CASE WHEN s.gram IS NOT NULL THEN n_pos ELSE 0 END) * 1000
            // SUM(n_pos) AS BIGINT) AS dup_span_frac_milli
FROM g LEFT JOIN shared s USING (gram)
GROUP BY g.doc_id
"""


# ---------------------------------------------------------------------------
# context-window chunking (fixed window, overlapping stride)
# ---------------------------------------------------------------------------

CHUNK_W = 32  # window width in words
CHUNK_S = 24  # stride (CHUNK_W - CHUNK_S words of overlap)


def chunk_sequences(sf_dir: str):
    """Split every document into ``CHUNK_W``-word windows advancing by
    ``CHUNK_S`` words (the context-window chunking step that turns long
    documents into trainable sequences with overlap so no span is lost
    at a boundary). Emits ``(doc_id, chunk_id, n_tok, chunk_text)``;
    the final window of a document may be short, empty documents emit
    nothing.

    Scale shape: embarrassingly parallel — one stateless ``map_batches``
    with zero shuffle. The kernel is a flat word buffer + numpy offset
    arithmetic; the overlapping windows are materialized by ONE fancy
    gather and joined back to strings by ONE ``np.add.reduceat`` over
    the gathered buffer — no per-row (or per-chunk) Python join."""

    def chunks(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                              "chunk_id": pd.Series([], dtype="int64"),
                              "n_tok": pd.Series([], dtype="int64"),
                              "chunk_text": pd.Series([], dtype="object")})
        flat, lens = _words(batch["text"], lower=False)
        if not lens.sum():
            return empty
        # chunks per doc: starts 0, S, 2S, ... while start < n_words
        k = np.where(lens > 0, (lens - 1) // CHUNK_S + 1, 0)
        n_chunks = int(k.sum())
        doc_rep = np.repeat(batch["doc_id"].to_numpy(), k)
        chunk_id = np.arange(n_chunks) - np.repeat(np.cumsum(k) - k, k)
        start = chunk_id * CHUNK_S
        n_tok = np.minimum(CHUNK_W, np.repeat(lens, k) - start)
        # global start of each chunk inside the flat buffer
        off = np.cumsum(lens) - lens
        gstart = np.repeat(off, k) + start
        # gather all (overlapping) window members with one fancy index
        tot_tok = int(n_tok.sum())
        bounds = np.cumsum(n_tok) - n_tok
        pos = np.arange(tot_tok) - np.repeat(bounds, n_tok)
        gathered = flat[np.repeat(gstart, n_tok) + pos] + " "
        joined = np.add.reduceat(gathered, bounds)
        return pd.DataFrame({
            "doc_id": doc_rep,
            "chunk_id": chunk_id.astype(np.int64),
            "n_tok": n_tok.astype(np.int64),
            # every word is \\S+ so exactly one trailing space to drop
            "chunk_text": pd.Series(joined, dtype=object).str[:-1],
        })

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        chunks, batch_format="pandas")


CHUNK_SEQUENCES_SQL = f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
)
SELECT doc_id,
       CAST(i // {CHUNK_S} AS BIGINT) AS chunk_id,
       CAST(len(ws[i + 1 : i + {CHUNK_W}]) AS BIGINT) AS n_tok,
       array_to_string(ws[i + 1 : i + {CHUNK_W}], ' ') AS chunk_text
FROM w, unnest(range(0, len(ws), {CHUNK_S})) AS t(i)
"""


# ---------------------------------------------------------------------------
# token rarity: per-document frequency-profile features
# ---------------------------------------------------------------------------


def _corpus_token_counts(sf_dir: str):
    """Global (token, count) map over lowercased whitespace tokens, as a
    plain dict — per-batch ``_batch_token_counts`` partials (the
    ``top_tokens`` kernel, so every consumer tokenizes alike by
    construction) pre-aggregate to ≤|batch vocab| rows per batch and
    ``fold_parquet`` sums them. The result is sub-linear in corpus size
    (bounded by the language's vocabulary), so it is a broadcastable
    small side, the same contract as ``tfidf_top_terms``'s idf map."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tok, cnt = _batch_token_counts(batch)
        return pd.DataFrame({"token": pd.Series(tok, dtype="object"),
                             "n": pd.Series(cnt, dtype="int64")})

    tbl = _fold_docs(sf_dir, ["text"], partial,
                     sum_by(["token"], "n")).to_pandas()
    if tbl.empty:
        return {}
    return dict(zip(tbl["token"], (int(x) for x in tbl["n"])))


def token_rarity_scores(sf_dir: str):
    """Per-document token-frequency profile — the rarity features a
    corpus-quality filter keys on (documents dominated by rare tokens
    are OCR noise / boilerplate-mangled; documents of only ultra-common
    tokens carry little signal): token count, the corpus frequency of
    the document's rarest token, and the floor-average corpus frequency
    of its tokens. Integer-exact on both engines (no log/float).

    Scale shape: the corpus count map is the broadcast small side
    (``ray.put`` once, ``fetch``ed once per worker process); the score
    pass is one stateless flat-buffer kernel per batch — map each
    distinct word's count with one vectorized lookup, gather by the word
    codes, then per-doc ``minimum.reduceat`` /
    ``add.reduceat``. No shuffle on the document stream. A token the
    count pass never saw (the input changed between the two passes)
    raises ``ValueError`` instead of scoring against a partial map."""
    counts_ref = ray.put(_corpus_token_counts(sf_dir))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        codes, words, lens = _word_codes(batch["text"])
        n = len(batch)
        min_c = np.zeros(n, dtype=np.int64)
        sum_c = np.zeros(n, dtype=np.int64)
        if lens.sum():
            words = pd.Series(words)
            mapped = words.map(fetch(counts_ref))
            if mapped.isna().any():
                raise ValueError(
                    f"token_rarity_scores: {int(mapped.isna().sum())} "
                    f"token(s) of the score pass (e.g. "
                    f"{words[mapped.isna()].iloc[0]!r}) are missing from "
                    f"the count pass (input changed between passes?)")
            c = mapped.to_numpy(dtype=np.int64)[codes]
            offsets = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=offsets[1:])
            ne = lens > 0
            min_c[ne] = np.minimum.reduceat(c, offsets[ne])
            sum_c[ne] = np.add.reduceat(c, offsets[ne])
        avg_c = np.where(lens > 0, sum_c // np.maximum(lens, 1), 0)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "n_tokens": lens,
            "min_tok_count": min_c,
            "avg_tok_count": avg_c.astype(np.int64),
        })

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")


TOKEN_RARITY_SCORES_SQL = """
WITH words AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\S+')) AS w
  FROM documents
), cnt AS (
  SELECT w, COUNT(*) AS c FROM words GROUP BY w
), per AS (
  SELECT doc_id,
         COUNT(*) AS n_tokens,
         MIN(c) AS min_tok_count,
         SUM(c) // COUNT(*) AS avg_tok_count
  FROM words JOIN cnt USING (w) GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(per.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(per.min_tok_count, 0) AS BIGINT) AS min_tok_count,
       CAST(COALESCE(per.avg_tok_count, 0) AS BIGINT) AS avg_tok_count
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


# ---------------------------------------------------------------------------
# PMI collocations: top bigrams by pointwise mutual information
# ---------------------------------------------------------------------------

PMI_K = 20
PMI_MIN_COUNT = 5


def pmi_bigram_topk(sf_dir: str, k: int = PMI_K,
                    min_count: int = PMI_MIN_COUNT):
    """Top-K collocations by integer PMI — ``bigram_topk`` ranks by raw
    count (dominated by stopword pairs); PMI ranks by association
    strength, the standard phrase-mining signal. Score is exact
    arbitrary-precision integer arithmetic (Python int on the folded
    table, HUGEINT in SQL): ``pmi_ppm = ⌊10^6·T·c(ab) / (c(a)·c(b))⌋``
    over whitespace tokens, bigrams with ``c(ab) ≥ min_count``.

    Scale shape: (1) unigram counts fold exactly like ``top_tokens`` and
    broadcast (vocabulary-bounded small side); (2) bigram partials
    pre-aggregate per batch, then ONE keyed exchange on (l, r) — the
    min-count filter needs global counts so no lossy pre-prune, but the
    exchange still moves ≤|block bigram vocab| rows per block; (3) the
    PMI compute + local top-k run per block (lossless rank pre-prune:
    global top-k ⊆ union of block top-k) so the final sort sees
    ≤ k×blocks rows. The exact-int math runs only on the ≥min_count
    folded table, never per occurrence."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    uni = _corpus_token_counts(sf_dir)
    total = sum(uni.values())
    uni_ref = ray.put(uni)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        _, pairs = _ngrams(*_words(batch["text"]), 2)
        if not len(pairs):
            return pd.DataFrame({"l": pd.Series([], dtype="object"),
                                 "r": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        # one value_counts over the joined pair key, then split back —
        # the separator cannot appear inside \S+ tokens
        vc = pd.Series(pairs).value_counts(sort=False)
        lr = vc.index.to_series().str.partition(" ")
        return pd.DataFrame({"l": lr[0].to_numpy(), "r": lr[2].to_numpy(),
                             "n": vc.to_numpy(dtype=np.int64)})

    out_schema = pa.schema([("bigram", pa.string()),
                            ("pmi_ppm", pa.int64()), ("n", pa.int64())])
    sum_n = sum_by(["l", "r"], "n")

    def fold(df: pd.DataFrame) -> pa.Table:
        # Arrow out, so a block with no bigram above min_count is a typed
        # empty block rather than an object-dtype frame
        if df.empty:
            return out_schema.empty_table()
        g = sum_n(df).to_pandas()
        g = g[g["n"] >= min_count]
        if g.empty:
            return out_schema.empty_table()
        # exact big-int PMI on the folded, thresholded table only:
        # 10^6·T·c(ab) can pass 2^63 at web scale, so Python ints
        # here and HUGEINT in the oracle; the final column is BIGINT
        # (asserted) — a >2^63 ppm means c(a)=c(b)=c(ab)=min_count
        # at T>9e12, loud not wrong
        uni = fetch(uni_ref)
        ca = g["l"].map(uni).astype(object)
        cb = g["r"].map(uni).astype(object)
        num = g["n"].astype(object) * (1_000_000 * total)
        pmi = (num // (ca * cb)).map(int)
        out = pd.DataFrame({
            "bigram": g["l"].astype(str) + " " + g["r"].astype(str),
            "pmi_ppm": pmi.astype("int64"),
            "n": g["n"].astype("int64"),
        })
        top = out.sort_values(["pmi_ppm", "bigram"],
                              ascending=[False, True], kind="stable").head(k)
        return pa.Table.from_pandas(top, schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    ds = _read_docs(sf_dir, ["text"]).map_batches(
        partial, batch_format="pandas")
    folded = repartition_by_key(ds, ["l", "r"]).map_batches(
        fold, batch_format="pandas", batch_size=None)
    return folded.sort(["pmi_ppm", "bigram"],
                       descending=[True, False]).limit(k)


PMI_BIGRAM_TOPK_SQL = f"""
WITH ws AS (
  SELECT regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
), bg AS (
  SELECT ws[i] AS l, ws[i + 1] AS r
  FROM ws, unnest(range(1, len(ws))) AS t(i)
), bc AS (
  SELECT l, r, COUNT(*) AS c_ab FROM bg GROUP BY l, r
  HAVING COUNT(*) >= {PMI_MIN_COUNT}
), uc AS (
  SELECT w, COUNT(*) AS c
  FROM (SELECT unnest(regexp_extract_all(lower(text), '\\S+')) AS w
        FROM documents) GROUP BY w
), tot AS (SELECT COUNT(*) AS t
           FROM (SELECT unnest(regexp_extract_all(lower(text), '\\S+'))
                 FROM documents))
SELECT bc.l || ' ' || bc.r AS bigram,
       CAST(CAST(1000000 AS HUGEINT) * tot.t * bc.c_ab
            // (CAST(ul.c AS HUGEINT) * ur.c) AS BIGINT) AS pmi_ppm,
       CAST(bc.c_ab AS BIGINT) AS n
FROM bc JOIN uc ul ON ul.w = bc.l JOIN uc ur ON ur.w = bc.r CROSS JOIN tot
ORDER BY pmi_ppm DESC, bigram ASC LIMIT {PMI_K}
"""


# ---------------------------------------------------------------------------
# sharded training export: deterministic hash shards + per-shard manifest
# ---------------------------------------------------------------------------

EXPORT_SHARDS = 8


def export_training_shards(sf_dir: str, n_shards: int = EXPORT_SHARDS):
    """Write the corpus as ``n_shards`` deterministic hash shards (one
    directory per shard, Knuth-hash assignment so the layout is
    reproducible across runs, engines and cluster sizes) and return the
    per-shard manifest ``(shard, n_docs, n_tokens, n_chars)`` — the
    training-export step that feeds a data loader expecting balanced,
    restartable shard dirs.

    Scale shape: shard tag + token count are one stateless vectorized
    pass; ONE keyed exchange on ``shard`` co-locates each shard; every
    block writes each of its shards as one parquet part named by the
    part's smallest doc_id, staged under a temp name and renamed into
    place — a retried task or a second consume of the returned Dataset
    rewrites the same file, never adds one, and exactly one task
    attempt's OUTPUT reaches the manifest (production flows commit the
    manifest through the commit log, state/commitlog.py).
    The manifest fold is ≤ n_shards rows. Output dirs live under the
    scratch root (GRAFT_TMP); per-shard dirs are the resume unit."""
    import os
    import shutil
    import uuid

    import pyarrow.parquet as _pq

    from rfb_cnpj_etl_ray.scratch import scratch_dir
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    out_root = scratch_dir("train_shards", sf_dir)
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True, exist_ok=True)
    root_str = str(out_root)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = (knuth_hash(df["doc_id"].to_numpy())
                       % n_shards).astype("int64")
        df["n_tok"] = _words(df["text"], lower=False)[1]
        return df

    def write_and_count(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"shard": pd.Series([], dtype="int64"),
                              "n_docs": pd.Series([], dtype="int64"),
                              "n_tokens": pd.Series([], dtype="int64"),
                              "n_chars": pd.Series([], dtype="int64")})
        if df.empty:
            return empty
        rows = []
        # ≤ n_shards groups per block (shard-keyed exchange upstream);
        # per-group work is a columnar parquet write, not row Python
        for shard, g in df.groupby("shard", sort=True):
            d = Path(root_str) / f"shard={int(shard)}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".part-{uuid.uuid4().hex}.tmp"
            _pq.write_table(
                pa.Table.from_pandas(g[["doc_id", "text"]],
                                     preserve_index=False),
                tmp, compression="zstd")
            os.replace(tmp, d / f"part-{int(g['doc_id'].min())}.parquet")
            rows.append((int(shard), len(g), int(g["n_tok"].sum()),
                         int(g["n_chars"].sum())))
        return pd.DataFrame(rows, columns=["shard", "n_docs", "n_tokens",
                                           "n_chars"]).astype("int64")

    docs = _read_docs(sf_dir, ["doc_id", "text", "n_chars"])
    tagged = docs.map_batches(tag, batch_format="pandas")
    # the per-block manifest rows ARE global: repartition_by_key's
    # contract (one key never spans two blocks — the same invariant the
    # LWW merge and every keyed fold in the engine lean on) means each
    # shard appears in exactly one block's output row
    return repartition_by_key(tagged, ["shard"]).map_batches(
        write_and_count, batch_format="pandas", batch_size=None)


EXPORT_TRAINING_SHARDS_SQL = f"""
SELECT {KNUTH_HASH_SQL.format(col='doc_id')} % {EXPORT_SHARDS} AS shard,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS n_tokens,
       CAST(SUM(n_chars) AS BIGINT) AS n_chars
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------------------------
# histogram-sketch quantiles — the mergeable fixed-bin alternative to a
# global sort for order statistics at 100 TB: every batch reduces to a
# ≤ |source|×bins count vector, ``fold_parquet`` sums them, and the
# quantile answer is the lower edge of the bin holding the ceil(q·n)-th
# element (exactly ``quantile_disc`` over the binned values, so a DuckDB
# oracle pins it). Same family as ``quantity_quantiles`` (exact,
# bounded-domain) but for UNBOUNDED domains where exactness needs a
# sort: the sketch trades bin-width resolution for a constant-size
# exchange. Ranks are computed in exact rational arithmetic (no q·n
# float product).
# ---------------------------------------------------------------------------

_TOKLEN_BIN = 16
_TOKLEN_QS = ((1, 2, "p50_lo"), (9, 10, "p90_lo"), (99, 100, "p99_lo"))


def token_length_histogram(sf_dir: str):
    """Per-source P50/P90/P99 of whitespace token count, answered from a
    16-wide fixed-bin histogram (lower bin edge reported)."""

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        n_ws = _words(df["text"], lower=False)[1]
        part = pd.DataFrame({"source": df["source"],
                             "bin": n_ws // _TOKLEN_BIN})
        return part.groupby(["source", "bin"], as_index=False).agg(
            cnt=("bin", "size"))

    def quantiles(folded: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, g in folded.groupby("source", sort=True):
            g = g.sort_values("bin", kind="stable")
            cum = g["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            bins = g["bin"].to_numpy()
            picks = [int(bins[np.searchsorted(
                cum, -(-num * n // den))]) * _TOKLEN_BIN
                for num, den, _ in _TOKLEN_QS]
            rows.append((src, *picks))
        return pd.DataFrame(
            rows, columns=["source"] + [name for _, _, name in _TOKLEN_QS])

    return _fold_docs(sf_dir, ["source", "text"], bin_partial,
                      sum_by(["source", "bin"], "cnt"), quantiles)


TOKEN_LENGTH_HISTOGRAM_SQL = f"""
WITH t AS (
  SELECT source,
         len(regexp_extract_all(text, '{WS_RE}')) // {_TOKLEN_BIN} AS bin
  FROM documents
)
SELECT source,
       CAST(quantile_disc(bin, 0.50) * {_TOKLEN_BIN} AS BIGINT) AS p50_lo,
       CAST(quantile_disc(bin, 0.90) * {_TOKLEN_BIN} AS BIGINT) AS p90_lo,
       CAST(quantile_disc(bin, 0.99) * {_TOKLEN_BIN} AS BIGINT) AS p99_lo
FROM t GROUP BY source
"""


# ---------------------------------------------------------------------------
# Count-Min frequency sketch — the third sketch-family member: point
# frequency estimates from a DEPTH×WIDTH counter grid whose merges are
# elementwise sums (order-independent, unlike Misra-Gries/SpaceSaving,
# which is why THIS sketch can carry a bit-exact cross-engine oracle
# under Ray's nondeterministic block order). Exact `top_tokens` moves
# |block vocabulary| rows per block through its exchange; the sketch
# moves ≤ DEPTH×WIDTH (+|query|) counter rows per block at any corpus
# size — the 100 TB path for "how often does token X appear". All
# integer: the minhash family's code-point polynomial hash (bit-exact
# SQL twin proven on non-ASCII) + pairwise (a·h+b) mod p mod W rows.
# ---------------------------------------------------------------------------

_CMS_PRIME = _POLY_PRIME           # 2^31-1, same modulus as the minhash fold
_CMS_BASE = 131                    # same code-point polynomial base
_CMS_WIDTH = 1024
_CMS_PERMS = ((1103, 12345), (12289, 6789), (524287, 42), (8191, 9999))
#: fixed query set: corpus-frequent terms + two stopwords that exist in
#: the synthetic documents — a query list where most answers are
#: non-zero actually exercises the counter grid (STOPWORDS are mostly
#: absent from the word-soup corpus)
_CMS_QUERY = ("join", "hash", "row", "batch", "scan", "column",
              "filter", "merge", "the", "a")


def cms_token_counts(sf_dir: str):
    """CMS-estimated vs hash-exact occurrence counts for the fixed
    stopword query set. Per batch: hash each distinct word once
    (``_word_codes``), bincount each of the 4 pairwise-permuted rows
    weighted by the words' occurrences (≤ 4×1024 counter rows per
    block) plus hash-equality exact partials for the 10 query tokens
    (tagged row = -1 in the same partial stream); ``fold_parquet`` sums
    the grid and its root takes the per-token min across rows. cms_count ≥
    exact_count always (one-sided CMS error), and both engines
    reproduce both columns bit-for-bit. NB exact_count counts HASH
    matches (identical definition in the SQL); at vocabulary scales
    where base-131 poly collisions with a query hash become likely it
    is itself a (tiny) overcount of the string count."""
    qh = _word_poly_hashes(np.array(_CMS_QUERY, dtype=object), _CMS_BASE)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        codes, words, _ = _word_codes(batch["text"])
        frames = []
        if len(codes):
            h = _word_poly_hashes(words, _CMS_BASE)
            occ = np.bincount(codes, minlength=len(words))
            for r, (a, b) in enumerate(_CMS_PERMS):
                buckets = ((a * h + b) % _CMS_PRIME) % _CMS_WIDTH
                cnt = np.bincount(buckets, weights=occ, minlength=_CMS_WIDTH)
                nz = np.nonzero(cnt)[0]
                frames.append(pd.DataFrame({
                    "row": np.full(len(nz), r, dtype=np.int64),
                    "bucket": nz.astype(np.int64),
                    "cnt": cnt[nz].astype(np.int64)}))
            exact = occ @ (h[:, None] == qh[None, :])
            frames.append(pd.DataFrame({
                "row": np.full(len(qh), -1, dtype=np.int64),
                "bucket": np.arange(len(qh), dtype=np.int64),
                "cnt": exact.astype(np.int64)}))
        if not frames:
            return pd.DataFrame({"row": pd.Series([], dtype="int64"),
                                 "bucket": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    def finish(folded: pd.DataFrame) -> pd.DataFrame:
        grid = {(int(r), int(b)): int(c) for r, b, c in
                folded[folded["row"] >= 0].itertuples(index=False)}
        exact = {int(b): int(c) for _, b, c in
                 folded[folded["row"] < 0].itertuples(index=False)}
        rows = []
        for i, tok in enumerate(_CMS_QUERY):
            est = min(grid.get(
                (r, int(((a * int(qh[i]) + b) % _CMS_PRIME) % _CMS_WIDTH)), 0)
                for r, (a, b) in enumerate(_CMS_PERMS))
            rows.append((tok, est, exact.get(i, 0)))
        return pd.DataFrame(rows, columns=["token", "cms_count",
                                           "exact_count"])

    return _fold_docs(sf_dir, ["text"], partial,
                      sum_by(["row", "bucket"], "cnt"), finish)


_CMS_POLY_SQL = (
    "list_reduce(list_prepend(CAST(0 AS BIGINT), "
    "list_transform(range(1, length({w}) + 1), "
    "i -> CAST(ord(substr({w}, CAST(i AS INTEGER), 1)) AS BIGINT))), "
    f"(x, y) -> (x * {_CMS_BASE} + y) % {_CMS_PRIME})"
)

_CMS_ROW_CTES = ",\n".join(
    f"c{r} AS (SELECT (({a} * h + {b}) % {_CMS_PRIME}) % {_CMS_WIDTH} AS b, "
    f"COUNT(*) AS c FROM toks GROUP BY 1)"
    for r, (a, b) in enumerate(_CMS_PERMS))

_CMS_ROW_JOINS = "\n".join(
    f"LEFT JOIN c{r} ON c{r}.b = (({a} * q.qh + {b}) % {_CMS_PRIME})"
    f" % {_CMS_WIDTH}"
    for r, (a, b) in enumerate(_CMS_PERMS))

_CMS_QUERY_VALUES = ", ".join(f"('{t}')" for t in _CMS_QUERY)

# min across however many rows _CMS_PERMS defines — kept generated so a
# depth change can't desync the oracle from the engine's min
_CMS_LEAST_ARGS = ", ".join(
    f"COALESCE(c{r}.c, 0)" for r in range(len(_CMS_PERMS)))

CMS_TOKEN_COUNTS_SQL = f"""
WITH toks AS (
  SELECT unnest(list_transform(regexp_extract_all(lower(text), '{WS_RE}'),
    w -> {_CMS_POLY_SQL.format(w="w")})) AS h
  FROM documents
), q AS (
  SELECT token, {_CMS_POLY_SQL.format(w="token")} AS qh
  FROM (VALUES {_CMS_QUERY_VALUES}) AS t(token)
),
{_CMS_ROW_CTES}
SELECT q.token,
       CAST(least({_CMS_LEAST_ARGS}) AS BIGINT)
         AS cms_count,
       CAST(COALESCE((SELECT COUNT(*) FROM toks WHERE toks.h = q.qh), 0)
         AS BIGINT) AS exact_count
FROM q
{_CMS_ROW_JOINS}
"""


# ---------------------------------------------------------------------------
# Bloom-filter decontamination: the constant-size-broadcast twin of
# decontaminate_val. The keyed-gram-exchange path moves O(tokens) rows
# through a shuffle; when the benchmark/val set is small (the real-world
# case: eval suites are MBs, the train corpus is TBs), the right shape
# is a Bloom filter over the val grams — a fixed 128 KB bitmap broadcast
# once (ray.put + stages.exchange.fetch) — probed per batch on the train
# side with ZERO shuffle. The filter is fully deterministic (polynomial gram hash +
# pairwise-permuted positions, all mod 2^31-1), so the DuckDB oracle
# reproduces it bit-for-bit, false positives included.
# ---------------------------------------------------------------------------

_BLOOM_M = 1 << 20                  # filter width in bits (128 KB packed)
_BLOOM_PERMS = ((2971, 1234), (6389, 5678), (9973, 91011))
#: fill rate above which the filter warns: with k=3 positions the
#: false-positive rate is ≈ fill^3, 1.6% here and 17% at a ×10 stress
#: run's ~55%
_BLOOM_FILL_WARN = 0.25


def _bloom_fill_check(packed: np.ndarray) -> float:
    """Fill rate of a packed val-gram bitmap; warns above
    ``_BLOOM_FILL_WARN`` with the remedy, since a crowded filter turns
    the decontamination report into mostly false positives."""
    fill = int(np.unpackbits(packed).sum()) / _BLOOM_M
    if fill > _BLOOM_FILL_WARN:
        warnings.warn(
            f"bloom_decontaminate: the val-gram Bloom filter is "
            f"{fill:.1%} filled (> {_BLOOM_FILL_WARN:.0%}), so false "
            f"positives reach ~{fill ** len(_BLOOM_PERMS):.1%} of probes; "
            f"widen _BLOOM_M (now {_BLOOM_M} bits)", stacklevel=2)
    return fill


def _bloom_positions(h: np.ndarray) -> "list[np.ndarray]":
    """k bit positions per gram hash: pairwise (a·h+b) mod p mod M —
    the CMS row recipe, reused so the SQL twin stays one expression."""
    return [((a * h + b) % _CMS_PRIME) % _BLOOM_M for a, b in _BLOOM_PERMS]


def bloom_decontaminate(sf_dir: str):
    """Train-side decontamination report via a broadcast Bloom filter:
    every *train* doc (``doc_id % 10 < 8``) with the count of its
    distinct ``DECON_N``-word shingles whose k Bloom positions are all
    set by some *val* shingle (``doc_id % 10 == 8``). Counts include
    the filter's (deterministic) false positives — the operator's
    contract is "what a Bloom-gated filter would drop", and the oracle
    reproduces the same bitmap exactly.

    Both passes hash each distinct (doc, shingle) from its words' hashes
    (``_shingle_hashes``): no shingle string is built.

    Scale shape: the build pass emits ONE packed 128 KB bitmap row per
    batch (constant, whatever the batch holds) which ``fold_parquet``
    ORs in tasks; only the root bitmap reaches the driver, and the root
    warns when the filter is over ``_BLOOM_FILL_WARN`` full. The probe
    pass is a stateless task over the unpacked bitmap from ``ray.put``
    (``fetch``ed once per worker process, never re-shipped per batch)
    and runs with NO shuffle at all: each doc lives in one batch, so
    per-batch distinct-gram counts are final.
    Compare ``decontaminate_val``, which pays a full gram exchange to
    get exact (FP-free) overlap — this is the 100 TB fast path when
    the val side fits a constant-size sketch."""

    def val_bits(batch: pd.DataFrame) -> pa.Table:
        _, h = _shingle_hashes(batch[batch["doc_id"].to_numpy() % 10 == 8])
        if not len(h):
            # blocks with no val docs contribute NOTHING — at corpus
            # scale ~all blocks are train-only, and emitting a zero
            # bitmap per block would make the driver fold scale with
            # corpus block count instead of val size
            return pa.table({"bits": pa.array([], pa.binary())})
        bits = np.zeros(_BLOOM_M, dtype=bool)
        for pos in _bloom_positions(h):
            bits[pos] = True
        return pa.table(
            {"bits": pa.array([np.packbits(bits).tobytes()], pa.binary())})

    def or_bits(df: pd.DataFrame) -> pa.Table:
        rows = np.frombuffer(b"".join(df["bits"]), dtype=np.uint8)
        merged = np.bitwise_or.reduce(rows.reshape(-1, _BLOOM_M // 8))
        return pa.table({"bits": pa.array([merged.tobytes()], pa.binary())})

    def check_fill(df: pd.DataFrame) -> pd.DataFrame:
        _bloom_fill_check(np.frombuffer(df["bits"].iloc[0], dtype=np.uint8))
        return df

    root = _fold_docs(sf_dir, ["doc_id", "text"], val_bits, or_bits,
                      check_fill).to_pandas()
    bitmap = (np.frombuffer(root["bits"].iloc[0], dtype=np.uint8)
              if len(root) else np.zeros(_BLOOM_M // 8, dtype=np.uint8))
    bits_ref = ray.put(np.unpackbits(bitmap).astype(bool))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        doc, h = _shingle_hashes(batch[batch["doc_id"].to_numpy() % 10 < 8])
        ok = np.ones(len(h), dtype=bool)
        if len(h):
            bits = fetch(bits_ref)
            for pos in _bloom_positions(h):
                ok &= bits[pos]
        ids, n = np.unique(doc[ok], return_counts=True)
        return pd.DataFrame({"doc_id": ids.astype(np.int64),
                             "n_bloom_hits": n.astype(np.int64)})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        probe, batch_format="pandas")


_BLOOM_POS_SQL = tuple(
    f"(({a} * h + {b}) % {_CMS_PRIME}) % {_BLOOM_M}"
    for a, b in _BLOOM_PERMS)

_BLOOM_PROBE_SQL = "\n  AND ".join(
    f"{p} IN (SELECT pos FROM val_pos)" for p in _BLOOM_POS_SQL)

# position expressions generated from _BLOOM_PERMS (the CMS lesson: a
# depth/constant change must not be able to desync the two engines)
BLOOM_DECONTAMINATE_SQL = f"""
WITH words AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WS_RE}') AS ws
  FROM documents WHERE doc_id % 10 <= 8
), grams AS (
  SELECT DISTINCT doc_id, {_GRAM_CONCAT} AS gram
  FROM words, unnest(range(1, len(ws) - {DECON_N - 2})) AS t(i)
), hashed AS (
  SELECT doc_id, {_CMS_POLY_SQL.format(w="gram")} AS h FROM grams
), val_pos AS (
  SELECT DISTINCT pos FROM (
    SELECT unnest([{", ".join(_BLOOM_POS_SQL)}]) AS pos
    FROM hashed WHERE doc_id % 10 = 8)
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bloom_hits
FROM hashed
WHERE doc_id % 10 < 8
  AND {_BLOOM_PROBE_SQL}
GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# certified exact top-k tokens: constant-shuffle heavy hitters with a
# proof of exactness (SpaceSaving-style local top-C + threshold sum)
# ---------------------------------------------------------------------------

_CTK_C = 4096          # per-batch candidate width


def certified_topk_tokens(sf_dir: str, k: int = TOP_TOKENS_K):
    """Exact global top-k tokens WITHOUT shuffling the vocabulary: pass
    1 keeps each batch's local top-``_CTK_C`` tokens plus that batch's
    exclusion threshold τ (the largest count it dropped); any token
    outside the candidate union has global count ≤ Στ. ``fold_parquet``
    unions the candidates and sums Στ in tasks; only that root reaches
    the driver. Pass 2 broadcasts the candidate set (``ray.put``,
    ``fetch``ed once per worker process) and re-counts ONLY candidates
    exactly, so every partial is ≤ |candidates| rows instead of |block
    vocabulary|; a second ``fold_parquet`` sums them and its root picks the
    top-k and checks the certificate. The result is certified exact
    iff Στ = 0 (no batch overflowed C) or the k-th candidate count
    strictly exceeds Στ; otherwise the operator fails LOUDLY with the
    remedy (raise C) rather than returning a silently-approximate
    top-k. Same output contract as ``top_tokens`` (oracle shared), with
    no keyed exchange at all — the 100 TB heavy-hitter path when the
    vocabulary itself is too wide to exchange."""

    def local_tops(batch: pd.DataFrame) -> pd.DataFrame:
        tok, cnt = _batch_token_counts(batch)
        if not len(tok):
            return pd.DataFrame({"token": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        order = np.lexsort((tok, -cnt))  # count desc, tok asc
        keep = order[:_CTK_C]
        tau = int(cnt[order[_CTK_C]]) if len(order) > _CTK_C else 0
        out = pd.DataFrame({"token": tok[keep],
                            "n": cnt[keep].astype(np.int64)})
        # τ rides the same stream as a row with the impossible token ""
        # (``_words`` tokens are never empty)
        return pd.concat(
            [out, pd.DataFrame({"token": [""], "n": [tau]})],
            ignore_index=True)

    # summing per token keeps the candidate union (counts are unused)
    # and Στ (the "" row) in one combine
    sum_n = sum_by(["token"], "n")
    union = _fold_docs(sf_dir, ["text"], local_tops, sum_n).to_pandas()
    if union.empty:                       # no tokens at all
        cands, s_tau = np.array([], dtype=object), 0
    else:
        is_tau = union["token"] == ""
        cands = union.loc[~is_tau, "token"].to_numpy()
        s_tau = int(union.loc[is_tau, "n"].sum())
    cand_ref = ray.put(cands)

    def count_candidates(batch: pd.DataFrame) -> pd.DataFrame:
        tok, cnt = _batch_token_counts(batch)
        m = pd.Series(tok).isin(fetch(cand_ref)).to_numpy()  # batch vocab
        return pd.DataFrame({"token": pd.Series(tok[m], dtype="object"),
                             "n": pd.Series(cnt[m], dtype="int64")})

    top = _sum_topk("token", k)

    def certify(df: pd.DataFrame) -> pd.DataFrame:
        df = top(df).to_pandas()
        certified = s_tau == 0 or (
            len(df) == k and int(df["n"].min()) > s_tau)
        if not certified:
            raise ValueError(
                f"certified_topk_tokens cannot prove exactness: the "
                f"k-th candidate count must strictly exceed the "
                f"exclusion bound Στ={s_tau}; re-run with a larger "
                f"candidate width (_CTK_C={_CTK_C})")
        return df

    return _fold_docs(sf_dir, ["text"], count_candidates, sum_n, certify)


#: same contract, same oracle: the certificate guarantees the cheap
#: path returns exactly what the full-exchange top-k returns
CERTIFIED_TOPK_TOKENS_SQL = TOP_TOKENS_SQL


# ---------------------------------------------------------------------------
# two-pass refined EXACT quantiles: constant exchange volume, no sort.
# quantity_quantiles' one-pass shape exchanges O(distinct values) rows;
# a global sort exchanges everything. This is the third point on that
# curve: two passes whose exchanges are both O(1) in corpus size.
# ---------------------------------------------------------------------------

_RQ_W = 64          # coarse bin width
_RQ_BINS = 1024     # domain cap: every value must sit below W × BINS
_RQ_QS = ((1, 2, "p50_chars"), (9, 10, "p90_chars"), (99, 100, "p99_chars"))


def refined_quantiles(sf_dir: str):
    """Exact per-language P50/P90/P99 of ``n_chars`` WITHOUT a global
    sort: pass 1 ``fold_parquet``s a coarse fixed-width histogram (≤
    langs×1024 count rows per block — constant in corpus size) and its
    root locates, for each (lang, q), the ONE coarse bin holding the
    exact rank ``ceil(q·n)`` (exact rational ``(num·n + den − 1) // den``
    — no float product), so only ≤ langs×3 target rows reach the
    driver; pass 2 re-counts exact values ONLY inside those ≤3 target
    bins per lang (≤ 3×``_RQ_W`` distinct values per lang per block),
    and a second ``fold_parquet``'s root picks the ranked value from
    cumulative counts.

    The quantile twin of ``certified_topk_tokens``: two scans, both
    with constant-size exchanges, exact output — where a one-pass
    exact quantile must exchange every distinct value and a sort-based
    one must exchange everything. Values at or above ``_RQ_W·_RQ_BINS``
    fail LOUDLY (widen the bins) instead of silently clamping. Rank
    convention is DuckDB ``quantile_disc`` (first value whose
    cumulative count reaches ceil(q·n)); the rational rank was probed
    equal to DuckDB on boundary n (n=100 at q=0.99 etc.)."""

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["n_chars"].to_numpy()
        if len(v) and int(v.max()) >= _RQ_W * _RQ_BINS:
            raise ValueError(
                f"refined_quantiles: n_chars {int(v.max())} is outside "
                f"the {_RQ_W}×{_RQ_BINS} coarse domain; widen _RQ_W")
        df = pd.DataFrame({"lang": batch["lang"],
                           "bin": (v // _RQ_W).astype(np.int64)})
        return df.groupby(["lang", "bin"], as_index=False).agg(
            cnt=("bin", "size"))

    def locate(hist: pd.DataFrame) -> pd.DataFrame:
        # for each (lang, q): the coarse bin holding rank ceil(q·n) and
        # the residual rank within it
        rows_out = []
        for lang, g in hist.groupby("lang", sort=False):
            g = g.sort_values("bin")
            cum = g["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            bins = g["bin"].to_numpy()
            for num, den, col in _RQ_QS:
                rank = (num * n + den - 1) // den
                i = int(np.searchsorted(cum, rank))
                below = int(cum[i - 1]) if i else 0
                rows_out.append((lang, col, int(bins[i]), rank - below))
        return pd.DataFrame(rows_out,
                            columns=["lang", "col", "bin", "rank_in"])

    located = _fold_docs(sf_dir, ["lang", "n_chars"], hist_partial,
                         sum_by(["lang", "bin"], "cnt"), locate).to_pandas()
    if located.empty:
        return ray.data.from_pandas(pd.DataFrame({
            "lang": pd.Series([], dtype=object),
            **{col: pd.Series([], dtype="int64")
               for _, _, col in _RQ_QS}}))
    targets: dict = {}
    for lang, col, b, rank_in in located.itertuples(index=False):
        targets.setdefault(lang, {})[col] = (int(b), int(rank_in))

    def exact_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        df = pd.DataFrame({"lang": batch["lang"],
                           "v": batch["n_chars"].to_numpy().astype(
                               np.int64)})
        for lang, g in df.groupby("lang", sort=False):   # ≤ |langs| groups
            need = targets.get(lang)
            if not need:
                continue
            bins = sorted({b for b, _ in need.values()})
            sel = g[np.isin(g["v"].to_numpy() // _RQ_W, bins)]
            if len(sel):
                c = sel.groupby("v", as_index=False).agg(cnt=("v", "size"))
                c.insert(0, "lang", lang)
                out.append(c)
        if not out:
            return pd.DataFrame({"lang": pd.Series([], dtype=object),
                                 "v": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        return pd.concat(out, ignore_index=True)

    def pick(counts: pd.DataFrame) -> pd.DataFrame:
        rows_out = []
        for lang in sorted(targets):
            need = targets[lang]
            g = counts[counts["lang"] == lang]
            vals = {}
            for num, den, col in _RQ_QS:
                b, rank_in = need[col]
                sub = g[(g["v"].to_numpy() // _RQ_W) == b].sort_values("v")
                cum = sub["cnt"].cumsum().to_numpy()
                if not len(cum) or cum[-1] < rank_in:
                    raise ValueError(
                        "refined_quantiles: pass-2 counts disagree with "
                        "the pass-1 histogram (input changed between "
                        "passes?)")
                vals[col] = int(sub["v"].to_numpy()[
                    np.searchsorted(cum, rank_in)])
            rows_out.append((lang, *(vals[col] for _, _, col in _RQ_QS)))
        return pd.DataFrame(rows_out, columns=["lang"] + [
            col for _, _, col in _RQ_QS])

    # the folded counts table is ≤ langs × 3 × _RQ_W rows
    return _fold_docs(sf_dir, ["lang", "n_chars"], exact_partial,
                      sum_by(["lang", "v"], "cnt"), pick)


REFINED_QUANTILES_SQL = """
SELECT lang,
       CAST(quantile_disc(n_chars, 0.5)  AS BIGINT) AS p50_chars,
       CAST(quantile_disc(n_chars, 0.9)  AS BIGINT) AS p90_chars,
       CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99_chars
FROM documents GROUP BY lang
"""
