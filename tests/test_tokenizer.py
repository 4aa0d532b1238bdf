"""The engine's one whitespace tokenizer (``functions.text._words`` /
``_ngrams``) against DuckDB, the engine of every SQL twin: the kernel
on its own (no Ray), then every tokenizing operator on a non-ASCII
corpus whose whitespace and case mapping differ between Python and
DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rfb_cnpj_etl_ray.functions import dedup as D
from rfb_cnpj_etl_ray.functions import text as T
from tests.util_compare import normalize, to_pandas


def _duck_tokens(texts: list[str], expr: str) -> list[list[str]]:
    tbl = pa.table({"i": list(range(len(texts))), "text": texts})
    con = duckdb.connect()
    con.register("tbl", tbl)
    out = con.execute(
        f"SELECT regexp_extract_all({expr}, '\\S+') AS ws FROM tbl ORDER BY i"
    ).fetch_arrow_table()["ws"].to_pylist()
    con.close()
    return out


def _split(flat, lens) -> list[list[str]]:
    out, at = [], 0
    for n in lens:
        out.append(list(flat[at:at + n]))
        at += n
    return out


def test_words_raw_split_matches_duckdb_on_every_bmp_code_point():
    """Every BMP code point as token body, prefix and separator: the
    raw split is RE2's ``\\s`` exactly, so Unicode spaces Python calls
    whitespace (\\v, \\x1c-\\x1f, \\x85, NBSP, U+2000-200A, U+3000, ...)
    stay inside tokens, as in DuckDB."""
    texts = [f"A{chr(c)}b {chr(c)}Z{chr(c)}" for c in range(0x10000)
             if not 0xD800 <= c <= 0xDFFF]
    flat, lens = T._words(pd.Series(texts), lower=False)
    ref = _duck_tokens(texts, "text")
    got = _split(flat, lens)
    bad = [hex(ord(texts[i][1])) for i in range(len(texts)) if got[i] != ref[i]]
    assert not bad, f"{len(bad)} code points split unlike DuckDB: {bad[:20]}"
    assert list(lens) == [len(r) for r in ref]


def test_words_lowercase_matches_duckdb_lower():
    """Lowercasing is DuckDB's per-code-point ``lower``: 'İ' → 'i' (not
    Python's 'i̇'), word-final 'Σ' → 'σ' (not 'ς'); empty and all-space
    rows give zero tokens."""
    texts = ["İstanbul İ", "ΟΔΟΣ ΚΟΣΜΟΣ", "ẞ straẞe", "Ǆ ǅ ǆ",
             "ÀÉÎÕÜ Çà Ñandú", "ПРИВЕТ Мир Ёж", "", "   ", "\t\n\f\r ",
             "a\xa0B x\x0bY \x85 c　D"]
    flat, lens = T._words(pd.Series(texts))
    ref = _duck_tokens(texts, "lower(text)")
    assert _split(flat, lens) == ref
    assert list(lens) == [len(r) for r in ref]
    assert lens[6] == lens[7] == lens[8] == 0


def test_ngrams_are_runs_inside_one_row():
    """``_ngrams`` joins n consecutive tokens of ONE row, never across
    rows, with rows too short for n contributing nothing."""
    rows = [[], ["a"], ["b", "c"], ["d", "e", "f"], ["g", "h", "i", "j"]]
    flat = pd.Series([w for r in rows for w in r], dtype=object).to_numpy()
    lens = pd.Series([len(r) for r in rows]).to_numpy()
    for n in range(1, 6):
        row, gram = T._ngrams(flat, lens, n)
        ref = [(i, " ".join(r[j:j + n])) for i, r in enumerate(rows)
               for j in range(len(r) - n + 1)]
        assert list(zip(row.tolist(), gram.tolist())) == ref, n


# ---------------------------------------------------------------------------
# every tokenizing operator vs its SQL twin on a non-ASCII corpus
# ---------------------------------------------------------------------------

NON_ASCII_ROWS = ["İstanbul", "ΟΔΟΣ", "a\xa0b", "x\x0by", "\x85",
                  "c　d", "café"]

OPS = [
    (T.token_stats, T.TOKEN_STATS_SQL),
    (T.quality_scores, T.QUALITY_SCORES_SQL),
    (T.language_id, T.LANGUAGE_ID_SQL),
    (T.top_tokens, T.TOP_TOKENS_SQL),
    (T.certified_topk_tokens, T.CERTIFIED_TOPK_TOKENS_SQL),
    (T.curate_corpus, T.CURATE_CORPUS_SQL),
    (T.bigram_topk, T.BIGRAM_TOPK_SQL),
    (T.decontaminate_val, T.DECONTAMINATE_VAL_SQL),
    (T.bloom_decontaminate, T.BLOOM_DECONTAMINATE_SQL),
    (T.repetition_scores, T.REPETITION_SCORES_SQL),
    (T.dup_span_stats, T.DUP_SPAN_STATS_SQL),
    (T.chunk_sequences, T.CHUNK_SEQUENCES_SQL),
    (T.token_rarity_scores, T.TOKEN_RARITY_SCORES_SQL),
    (T.pmi_bigram_topk, T.PMI_BIGRAM_TOPK_SQL),
    (T.export_training_shards, T.EXPORT_TRAINING_SHARDS_SQL),
    (T.token_length_histogram, T.TOKEN_LENGTH_HISTOGRAM_SQL),
    (T.cms_token_counts, T.CMS_TOKEN_COUNTS_SQL),
    (D.exact_dedup, D.EXACT_DEDUP_SQL),
    (D.jaccard_block_pairs, D.JACCARD_BLOCK_PAIRS_SQL),
    (D.jaccard_shingle_pairs, D.JACCARD_SHINGLE_PAIRS_SQL),
    (D.minhash_lsh_candidates, D.MINHASH_LSH_CANDIDATES_SQL),
    (D.simhash_fingerprints, D.SIMHASH_FINGERPRINTS_SQL),
]


@pytest.fixture(scope="module")
def non_ascii_sf(tmp_path_factory):
    """The seven rows alone; two copies (train doc 7, val doc 8) of all
    of them joined — long enough for every n-gram width, for the PMI
    count floor and for a train/val overlap; then rows that only a
    Unicode-whitespace split would turn into a twin of doc 2, an
    English stopword profile, or the longest doc (48 tokens)."""
    joined = " ".join(NON_ASCII_ROWS * T.PMI_MIN_COUNT)
    texts = NON_ASCII_ROWS + [joined, joined + " İ", "a b",
                              "the\u2003and of", "w\x0b" * 48]
    sf = tmp_path_factory.mktemp("non_ascii")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": texts,
        "lang": ["en"] * len(texts),
        "source": ["web"] * len(texts),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), sf / "documents.parquet")
    return str(sf)


@pytest.mark.parametrize("fn,sql", OPS, ids=[f.__name__ for f, _ in OPS])
def test_op_matches_twin_on_non_ascii_text(ray_session, non_ascii_sf, fn, sql):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{non_ascii_sf}/documents.parquet')")
    ora = normalize(con.execute(sql).fetchdf())
    con.close()
    eng = normalize(to_pandas(fn(non_ascii_sf)))
    assert len(ora), "twin returned no rows: the corpus exercises nothing"
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


# ---------------------------------------------------------------------------
# the token-counting and token-hashing kernels on awkward code points
# ---------------------------------------------------------------------------

def _poly_hashes_per_token(flat_words, base):
    """``dedup._word_poly_hashes`` as it was written before its one-buffer
    encode: one UTF-32 encode per token. The reference for the test below."""
    if flat_words.size == 0:
        return np.zeros(0, dtype=np.int64)
    enc = [w.encode("utf-32-le") for w in flat_words]
    lens = np.array([len(e) // 4 for e in enc], dtype=np.int64)
    arr = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.int64)
    maxlen = int(lens.max())
    powers = np.empty(max(maxlen, 1), dtype=np.int64)
    powers[0] = 1
    for i in range(1, maxlen):
        powers[i] = (powers[i - 1] * base) % D._SH_PRIME
    offsets = np.zeros(len(enc), dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    ends = offsets + lens
    exp = np.repeat(ends, lens) - 1 - np.arange(len(arr))
    terms = (arr * powers[exp]) % D._SH_PRIME
    return np.add.reduceat(terms, np.minimum(offsets, max(len(terms) - 1, 0))
                           ) % D._SH_PRIME


def test_word_poly_hashes_equal_the_per_token_encode():
    """Random words over ASCII, astral code points, 'İ', 'Σ' and NUL,
    one-character words among them, hash exactly as the per-token
    encode did."""
    rng = np.random.default_rng(5)
    alphabet = ["a", "z", "é", "İ", "Σ", "σ", "\x00", "中", "\U0001F600",
                "\U00010570", "\U0010FFFF"]
    for _ in range(20):
        lens = rng.integers(1, 9, rng.integers(1, 200))
        words = np.array(["".join(rng.choice(alphabet, n)) for n in lens],
                         dtype=object)
        for base in (131, 137):
            np.testing.assert_array_equal(
                D._word_poly_hashes(words, base),
                _poly_hashes_per_token(words, base))
    one = np.array(list(alphabet), dtype=object)
    np.testing.assert_array_equal(D._word_poly_hashes(one, 131),
                                  _poly_hashes_per_token(one, 131))
    assert D._word_poly_hashes(np.array([], dtype=object), 131).size == 0


#: 'ab\x00' beside 'ab' (and each query token of ``cms_token_counts``
#: beside itself plus NUL); train doc 0 and val doc 8 each hold the
#: 5-word shingles "b c d e ab" and "b c d e ab\x00"; doc 9 is a test doc
NUL_ROWS = ["b c d e ab\x00 z b c d e ab", "ab\x00 ab x", "ab x y", "x",
            "a a\x00 the the\x00 join join\x00 a", "ab ab\x00 ab ab\x00",
            "x ab\x00", "z z", "b c d e ab y b c d e ab\x00",
            "b c d e ab\x00 q"]


@pytest.mark.parametrize("fn,sql", [
    (T.top_tokens, T.TOP_TOKENS_SQL),
    (T.certified_topk_tokens, T.CERTIFIED_TOPK_TOKENS_SQL),
    (T.token_rarity_scores, T.TOKEN_RARITY_SCORES_SQL),
    (T.bloom_decontaminate, T.BLOOM_DECONTAMINATE_SQL),
    (T.decontaminate_val, T.DECONTAMINATE_VAL_SQL),
    (T.bigram_topk, T.BIGRAM_TOPK_SQL),
    (T.cms_token_counts, T.CMS_TOKEN_COUNTS_SQL),
    (D.simhash_fingerprints, D.SIMHASH_FINGERPRINTS_SQL),
], ids=lambda v: getattr(v, "__name__", "sql"))
def test_token_with_a_trailing_nul_is_its_own_token(ray_session, tmp_path,
                                                    fn, sql):
    """'ab\\x00' is a token apart from 'ab', and a shingle ending in it
    a shingle apart, as in DuckDB: the counting, coding and grouping
    kernels keep the NUL that NumPy's fixed-width strings and pandas'
    string hash tables would drop. The rows are compared as sorted
    Python tuples: ``normalize``'s pandas sort ranks 'join' and
    'join\\x00' as equal, so tied rows would keep their input order."""
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(NUL_ROWS)), pa.int64()),
        "text": NUL_ROWS,
        "lang": ["en"] * len(NUL_ROWS),
        "source": ["web"] * len(NUL_ROWS),
        "n_chars": pa.array([len(t) for t in NUL_ROWS], pa.int64()),
    }), tmp_path / "documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{tmp_path}/documents.parquet')")
    ora = _rows(con.execute(sql).fetchdf())
    con.close()
    assert ora, "twin returned no rows: the corpus exercises nothing"
    assert _rows(to_pandas(fn(str(tmp_path)))) == ora


def _rows(df: pd.DataFrame) -> list[tuple]:
    """The rows of ``df`` as Python tuples (columns by name), sorted by
    Python's exact comparison."""
    return sorted(df[sorted(df.columns)].itertuples(index=False, name=None))
