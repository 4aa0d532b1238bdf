"""Training-data operators: oracle-checked where SQL can express them,
structural/determinism checks for the rest."""

import numpy as np
import pandas as pd
import pytest

from rfb_cnpj_etl_ray.functions import dedup as D
from rfb_cnpj_etl_ray.functions import multimodal as M
from rfb_cnpj_etl_ray.functions import similarity as S
from rfb_cnpj_etl_ray.functions import text as T
from rfb_cnpj_etl_ray.pipelines import relational as R
from tests.conftest import SF_DIR
from tests.util_compare import assert_query_matches, normalize, to_pandas

ORACLE_CASES = [
    (T.token_stats, T.TOKEN_STATS_SQL),
    (T.quality_scores, T.QUALITY_SCORES_SQL),
    (D.exact_dedup, D.EXACT_DEDUP_SQL),
    (D.jaccard_block_pairs, D.JACCARD_BLOCK_PAIRS_SQL),
    (S.ann_topk, S.ANN_TOPK_SQL),
    (T.token_rarity_scores, T.TOKEN_RARITY_SCORES_SQL),
    (T.pmi_bigram_topk, T.PMI_BIGRAM_TOPK_SQL),
    (T.export_training_shards, T.EXPORT_TRAINING_SHARDS_SQL),
    (D.embedding_lsh_near_dup, D.EMBEDDING_LSH_NEAR_DUP_SQL),
    (R.hll_distinct_users, R.HLL_DISTINCT_USERS_SQL),
    (T.token_length_histogram, T.TOKEN_LENGTH_HISTOGRAM_SQL),
    (T.cms_token_counts, T.CMS_TOKEN_COUNTS_SQL),
    (T.bloom_decontaminate, T.BLOOM_DECONTAMINATE_SQL),
    (T.certified_topk_tokens, T.CERTIFIED_TOPK_TOKENS_SQL),
    (T.refined_quantiles, T.REFINED_QUANTILES_SQL),
    (S.semantic_dedup, S.SEMANTIC_DEDUP_SQL),
]


def test_export_shards_files_cover_corpus_exactly_once(ray_session):
    """The sharded export's on-disk layout (not just its manifest) must
    hold every doc exactly once, in the shard its hash names — also
    after the returned Dataset is consumed twice (each consume re-runs
    the writes, as a task retry would)."""
    import pyarrow.parquet as pq

    from rfb_cnpj_etl_ray.scratch import scratch_dir

    ds = T.export_training_shards(SF_DIR)
    to_pandas(ds)  # run the export
    to_pandas(ds)  # and again
    root = scratch_dir("train_shards", SF_DIR)
    parts = []
    for f in sorted(root.glob("shard=*/part-*.parquet")):
        df = pq.read_table(f).to_pandas()
        df["dir_shard"] = int(f.parent.name.split("=")[1])
        parts.append(df)
    out = pd.concat(parts, ignore_index=True)
    src = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert sorted(out["doc_id"]) == sorted(src["doc_id"])
    expect = T.knuth_hash(out["doc_id"].to_numpy()) % T.EXPORT_SHARDS
    assert (out["dir_shard"].to_numpy() == expect).all()


@pytest.mark.parametrize("fn,sql", ORACLE_CASES, ids=[c[0].__name__ for c in ORACLE_CASES])
def test_training_op_matches_oracle(ray_session, fn, sql):
    assert_query_matches(fn, sql, SF_DIR)


def test_language_id_deterministic_and_total(ray_session):
    a = normalize(to_pandas(T.language_id(SF_DIR)))
    b = normalize(to_pandas(T.language_id(SF_DIR)))
    pd.testing.assert_frame_equal(a, b)
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert len(a) == len(docs)
    assert set(a["pred_lang"]) <= set(T.LANG_PROFILES) | {"und"}


def test_fingerprints_deterministic_and_batchsize_invariant(ray_session):
    a = normalize(to_pandas(T.fingerprints(SF_DIR)))
    b = normalize(to_pandas(T.fingerprints(SF_DIR)))
    pd.testing.assert_frame_equal(a, b)
    # rolling-min-hash must not depend on batch boundaries: compute the
    # same thing driver-side in one batch
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet").sort_values("doc_id")
    full, rolled = T._poly_hashes(docs["text"].reset_index(drop=True))
    srt = a.sort_values("doc_id")
    assert (srt["rolling_min_hash"].to_numpy() == rolled).all()
    assert (srt["full_hash"].to_numpy() == full).all()


def test_minhash_candidates_superset_of_true_dups(ray_session):
    """LSH candidates must contain every high-jaccard pair that exact
    blocked search finds with J >= 0.9 (16 bands × 4 rows: miss prob
    (1-J^4)^16 < 1e-3 at J=0.9)."""
    cand = to_pandas(D.minhash_lsh_candidates(SF_DIR))
    cand_set = set(zip(cand["doc_a"], cand["doc_b"]))
    exact = to_pandas(D.jaccard_block_pairs(SF_DIR))
    strong = exact[exact["jaccard"] >= 0.9]
    missing = [
        p for p in zip(strong["doc_a"], strong["doc_b"]) if p not in cand_set
    ]
    assert not missing, f"LSH missed strong pairs: {missing[:5]}"


def test_simhash_close_for_near_dups(ray_session):
    fp = to_pandas(D.simhash_fingerprints(SF_DIR)).set_index("doc_id")["simhash"]
    exact = to_pandas(D.jaccard_block_pairs(SF_DIR))
    strong = exact[exact["jaccard"] >= 0.9]
    if len(strong):
        a = fp.loc[strong["doc_a"]].to_numpy().astype(np.uint64)
        b = fp.loc[strong["doc_b"]].to_numpy().astype(np.uint64)
        ham = np.array([bin(int(x) ^ int(y)).count("1") for x, y in zip(a, b)])
        assert (ham <= 16).all()


def test_embedding_near_dup_structure(ray_session):
    pairs = to_pandas(D.embedding_near_dup(SF_DIR))
    assert list(sorted(pairs.columns)) == ["cosine", "vec_a", "vec_b"]
    if len(pairs):
        assert (pairs["cosine"] >= D.COSINE_THRESHOLD).all()
        assert (pairs["vec_a"] < pairs["vec_b"]).all()


def test_ann_ivf_oracle_at_sampling_scale(ray_session, tmp_path):
    """The hash-threshold and rk-trim arms of the IVF fit are dead code at
    every shipped sf (all < 2×IVF_SAMPLE rows keep threshold saturated at
    1.0 and the sample under IVF_SAMPLE). Synthesize an embeddings table
    big enough that BOTH arms bite (6000 > 4096 → threshold ≈0.68, kept
    ≈4100 > 2048 → trim), then require the engine and ANN_IVF_TOPK_SQL to
    still agree bit-for-bit."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    n, dim = 6000, 16
    rng = np.random.default_rng(1234)
    emb = rng.normal(size=(n, dim)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), dim).cast(pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n).astype(np.int32)),
    })
    sf = tmp_path / "sf_big_emb"
    sf.mkdir()
    pq.write_table(t, sf / "embeddings.parquet")
    for name in os.listdir(SF_DIR):  # the oracle view set needs all tables
        if name != "embeddings.parquet" and name.endswith(".parquet"):
            os.symlink(os.path.join(SF_DIR, name), sf / name)
    assert_query_matches(S.ann_ivf_topk, S.ANN_IVF_TOPK_SQL, str(sf))


def test_ann_ivf_matches_probed_bucket_oracle(ray_session):
    """IVF result must equal a driver-side brute-force search restricted
    to the same probed buckets (self-consistency — absolute recall is a
    property of how clustered the data is, not of the operator). The
    exact cross-engine check is ANN_IVF_TOPK_SQL in test_entry.py."""
    approx = to_pandas(S.ann_ivf_topk(SF_DIR)).sort_values("vec_id")
    cids, cents = S._fit_centroids(SF_DIR)
    q = S._query_vector(SF_DIR)
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    milli = np.rint(np.round(cn @ q, 4) * 10_000).astype(np.int64)
    probes = set(cids[np.lexsort((cids, -milli))[: S.NUM_PROBES]].tolist())
    emb = pd.read_parquet(f"{SF_DIR}/embeddings.parquet")
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    assign, _ = S._assign_batch(m, cids, cents)
    mask = np.isin(assign, list(probes))
    mn = m[mask] / np.linalg.norm(m[mask], axis=1, keepdims=True)
    sims = np.round(mn @ q, 4)
    expect = (
        pd.DataFrame({"vec_id": emb["vec_id"].to_numpy()[mask], "cosine": sims})
        .sort_values(["cosine", "vec_id"], ascending=[False, True])
        .head(S.TOP_K)
        .sort_values("vec_id")
    )
    assert list(approx["vec_id"]) == list(expect["vec_id"])
    # the query vector itself lives in a probed bucket by construction
    assert 0 in set(approx["vec_id"])


def test_multimodal_plumbing(ray_session):
    feats = to_pandas(M.multimodal_features(SF_DIR))
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert len(feats) == len(docs)
    assert set(feats.columns) == {"doc_id", "media_type", "width", "height",
                                  "mean_luma_milli", "n_bytes"}
    assert (feats["n_bytes"] == docs.set_index("doc_id").loc[
        feats["doc_id"], "text"].str.encode("utf-8").str.len().to_numpy()).all()
    # deterministic
    again = to_pandas(M.multimodal_features(SF_DIR))
    pd.testing.assert_frame_equal(
        normalize(feats), normalize(again)
    )


def test_real_decoder_stub_raises(ray_session):
    import pyarrow as pa

    dec = M.RealDecoder()
    with pytest.raises(NotImplementedError, match="not in this"):
        dec(M.MEDIA_SCHEMA.empty_table())


def test_pack_sequences_invariants(ray_session):
    """Greedy packing: every doc assigned exactly once; every pack within
    budget unless it holds a single over-budget doc; deterministic."""
    from rfb_cnpj_etl_ray.functions.text import PACK_BUDGET, pack_sequences

    out = to_pandas(pack_sequences(SF_DIR))
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert sorted(out["doc_id"]) == sorted(docs["doc_id"])
    sizes = out.groupby("pack_id").agg(total=("n_chars", "sum"),
                                       n=("n_chars", "size"))
    over = sizes[sizes["total"] > PACK_BUDGET]
    assert (over["n"] == 1).all()  # only single oversized docs exceed
    again = to_pandas(pack_sequences(SF_DIR))
    pd.testing.assert_frame_equal(normalize(out), normalize(again))


def test_multimodal_features_matches_oracle(ray_session):
    assert_query_matches(M.multimodal_features, M.MULTIMODAL_FEATURES_SQL,
                         SF_DIR)


def test_wav_decode_real_codec(ray_session):
    """WavDecoder parses genuine RIFF/WAV bytes: header fields and RMS
    must match the generator exactly (16000-amplitude sine → RMS ≈
    16000/√2, within quantization)."""
    df = to_pandas(M.multimodal_wav_decode(SF_DIR)).sort_values("doc_id")
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert len(df) == len(docs)
    assert (df["sample_rate"] == 8000).all()
    assert (df["n_channels"] == 1).all()
    assert (df["n_frames"] == 400).all()
    assert (df["duration_ms"] == 50).all()
    # uniform integer waveform: rms ≈ 16384/sqrt(3) ≈ 9459
    assert df["rms"].between(9000, 9900).all()


def test_wav_decode_matches_oracle(ray_session):
    """Real stdlib-codec decode vs the integer-waveform DuckDB oracle
    (bit-exact: modular integer PCM + IEEE sqrt)."""
    assert_query_matches(
        M.multimodal_wav_decode, M.MULTIMODAL_WAV_DECODE_SQL, SF_DIR)


def test_minhash_dedup_groups_linear_path(ray_session):
    """The linear-scale near-dup operator: labels are component minima —
    every LSH candidate pair must share a group after min-propagation
    (bucket-bipartite diameter at SF_DIR is well within 3 rounds)."""
    groups = to_pandas(D.minhash_dedup_groups(SF_DIR))
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    assert len(groups) == len(docs)
    assert (groups["group_id"] <= groups["doc_id"]).all()
    label = dict(zip(groups["doc_id"], groups["group_id"]))
    pairs = to_pandas(D.minhash_lsh_candidates(SF_DIR))
    same = (pairs["doc_a"].map(label).to_numpy()
            == pairs["doc_b"].map(label).to_numpy())
    assert same.mean() >= 0.99
    # determinism
    again = to_pandas(D.minhash_dedup_groups(SF_DIR))
    pd.testing.assert_frame_equal(
        groups.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True))


def test_minhash_dedup_groups_matches_component_oracle(ray_session):
    """Exact oracle: group_id == connected-component min over the exact
    LSH candidate graph (recursive-CTE closure in DuckDB)."""
    assert_query_matches(
        D.minhash_dedup_groups, D.MINHASH_DEDUP_GROUPS_SQL, SF_DIR
    )


def test_poly_hash_code_point_parity_non_ascii(ray_session, tmp_path):
    """Engine poly hashes fold CODE POINTS (UTF-32 view) like SQL ord():
    fingerprints/simhash/minhash oracles must stay bit-exact on
    non-ASCII text (ADVICE r2 — ASCII corpora couldn't catch this)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": [
            "ação público côrte",          # pt-BR accents
            "straße über münchen",         # de umlauts + ß
            "café noël déjà vu",           # fr accents
            "plain ascii words here",      # control row
            # near-identical pair: forces a non-empty candidate set
            "ação pública côrte suprema do país " * 8,
            "ação pública côrte suprema do país " * 8 + "extra",
        ],
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{sf}/documents.parquet')")
    for fn, sql in [
        (T.fingerprints, T.FINGERPRINTS_SQL),
        (D.simhash_fingerprints, D.SIMHASH_FINGERPRINTS_SQL),
        (D.minhash_lsh_candidates, D.MINHASH_LSH_CANDIDATES_SQL),
    ]:
        eng = normalize(to_pandas(fn(sf)))
        ora = normalize(con.execute(sql).fetchdf())
        pd.testing.assert_frame_equal(eng, ora, check_dtype=False)
    con.close()


def test_top_tokens_matches_oracle(ray_session):
    """Heavy hitters: partial per-batch counts → groupby → top-k."""
    assert_query_matches(T.top_tokens, T.TOP_TOKENS_SQL, SF_DIR)


def test_stratified_sample_matches_oracle(ray_session):
    """Exact deterministic k-per-stratum sample (hash order)."""
    assert_query_matches(
        T.stratified_sample, T.STRATIFIED_SAMPLE_SQL, SF_DIR)
    df = to_pandas(T.stratified_sample(SF_DIR))
    assert (df.groupby("lang").size() <= T.STRATA_K).all()


def test_dedup_corpus_matches_oracle(ray_session):
    """End-to-end near-dup removal: surviving representatives with text
    and absorbed-duplicate counts vs the closure+join DuckDB oracle."""
    assert_query_matches(D.dedup_corpus, D.DEDUP_CORPUS_SQL, SF_DIR)


def test_tfidf_top_terms_matches_oracle(ray_session):
    """Per-doc top TF-IDF term: broadcast idf map + in-block argmax."""
    assert_query_matches(T.tfidf_top_terms, T.TFIDF_TOP_TERMS_SQL, SF_DIR)


def test_curate_corpus_matches_oracle(ray_session):
    """Composed filter chain with first-match reject reasons."""
    assert_query_matches(T.curate_corpus, T.CURATE_CORPUS_SQL, SF_DIR)
    df = to_pandas(T.curate_corpus(SF_DIR))
    assert set(df["status"]).issubset(
        {"keep", "too_short", "too_numeric", "bad_lang"})


def test_knn_graph_matches_oracle(ray_session):
    """All-pairs cosine k-NN graph vs the windowed-rank DuckDB oracle."""
    from rfb_cnpj_etl_ray.functions import similarity as S
    assert_query_matches(S.knn_graph, S.KNN_GRAPH_SQL, SF_DIR)


def test_bigram_topk_matches_oracle(ray_session):
    """Phrase heavy hitters: boundary-masked flat-buffer bigrams →
    partial counts → groupby → deterministic top-k."""
    assert_query_matches(T.bigram_topk, T.BIGRAM_TOPK_SQL, SF_DIR)
    df = to_pandas(T.bigram_topk(SF_DIR))
    assert len(df) == T.BIGRAM_K
    # every heavy hitter is a within-doc pair: two space-separated words
    assert df["bigram"].str.count(" ").eq(1).all()


def test_decontaminate_val_matches_oracle(ray_session):
    """Train/val n-gram decontamination: val docs sharing a DECON_N-word
    shingle with any train doc, counted, vs the distinct-gram join
    oracle. Non-trivial on the synthetic corpus (near-dup clusters span
    the split boundary)."""
    assert_query_matches(
        T.decontaminate_val, T.DECONTAMINATE_VAL_SQL, SF_DIR)
    df = to_pandas(T.decontaminate_val(SF_DIR))
    assert len(df) > 0, "corpus has near-dup clusters across the split"
    # every flagged doc is a val doc with a positive contamination count
    assert (df["doc_id"] % 10 == 8).all()
    assert (df["n_contaminated"] >= 1).all()


def test_repetition_scores_matches_oracle(ray_session):
    """Gopher repetition filters: integer-milli dup/top-word/top-bigram
    fractions vs the unnest+groupby oracle."""
    assert_query_matches(T.repetition_scores, T.REPETITION_SCORES_SQL, SF_DIR)
    df = to_pandas(T.repetition_scores(SF_DIR))
    # the word-salad corpus repeats heavily: scores must be non-trivial
    assert (df["dup_word_frac_milli"] > 0).any()
    assert df["top_word_frac_milli"].between(0, 1000).all()


def test_source_mix_sample_matches_oracle(ray_session):
    """Temperature mixing: isqrt(char-mass) budgets, Knuth-hash
    deterministic selection, BIGINT-exact on both sides."""
    assert_query_matches(T.source_mix_sample, T.SOURCE_MIX_SAMPLE_SQL, SF_DIR)
    df = to_pandas(T.source_mix_sample(SF_DIR))
    # budgets sum to ≤ the target (floor division), cover many sources
    assert 0 < len(df) <= T.MIX_TOTAL
    assert df["source"].nunique() > 1
    # determinism: a second run picks the identical sample
    df2 = to_pandas(T.source_mix_sample(SF_DIR))
    assert sorted(df["doc_id"]) == sorted(df2["doc_id"])


def test_kmeans_clusters_matches_oracle(ray_session):
    """Distributed Lloyd's (2 unrolled iterations) vs the CTE-unrolled
    DuckDB oracle: identical init, rounded-cosine assignment, rounded
    per-dimension mean updates."""
    from rfb_cnpj_etl_ray.functions import similarity as S
    assert_query_matches(S.kmeans_clusters, S.KMEANS_CLUSTERS_SQL, SF_DIR)
    df = to_pandas(S.kmeans_clusters(SF_DIR))
    # every vector assigned exactly once; all K clusters survive on the
    # label-structured synthetic embeddings
    assert df["vec_id"].is_unique
    assert df["cluster"].nunique() == S.KMEANS_K


def test_cluster_balanced_sample_matches_oracle(ray_session):
    """Cluster-balanced subsample: kmeans assignment composed with the
    deterministic per-cluster Knuth-hash rank, vs the CTE-composed
    oracle. Exactly n per surviving cluster."""
    from rfb_cnpj_etl_ray.functions import similarity as S
    assert_query_matches(
        S.cluster_balanced_sample, S.CLUSTER_BALANCED_SAMPLE_SQL, SF_DIR)
    df = to_pandas(S.cluster_balanced_sample(SF_DIR))
    assert (df.groupby("cluster").size() == S.CLUSTER_SAMPLE_N).all()


def test_simhash_near_dup_pairs_matches_oracle(ray_session):
    """Hamming-bounded simhash pairs: 4 disjoint bands over 62 bits are
    pigeonhole-EXHAUSTIVE for hamming<=3, so the banded engine output
    equals the all-pairs oracle exactly (recall 1.0, not LSH-style
    probabilistic)."""
    from rfb_cnpj_etl_ray.functions import dedup as D
    assert_query_matches(
        D.simhash_near_dup_pairs, D.SIMHASH_NEAR_DUP_PAIRS_SQL, SF_DIR)
    df = to_pandas(D.simhash_near_dup_pairs(SF_DIR))
    assert (df["hamming"] <= D.SH_HAM_MAX).all()
    assert (df["doc_a"] < df["doc_b"]).all()


def test_minhash_dedup_wordless_docs_are_singletons(ray_session, tmp_path):
    """A whitespace-only document never enters an LSH bucket, but the
    exact component labeling still owns it as its own singleton group —
    engine and oracle must agree on corpora containing such docs."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq_

    from rfb_cnpj_etl_ray.functions import dedup as D

    src = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    extra = pd.DataFrame({
        "doc_id": [900001, 900002],
        "text": ["", "   \t "],
        "lang": ["en", "en"],
        "source": ["blank", "blank"],
        "n_chars": [0, 5],
    })
    docs = pd.concat([src, extra], ignore_index=True)
    d = tmp_path / "sfblank"
    d.mkdir()
    import pyarrow as pa_

    pq_.write_table(pa_.Table.from_pandas(docs, preserve_index=False),
                    d / "documents.parquet")

    got = to_pandas(D.minhash_dedup_groups(str(d)))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(D.MINHASH_DEDUP_GROUPS_SQL).fetchdf()
    con.close()
    got = got.sort_values(["doc_id"]).reset_index(drop=True)
    want = want.sort_values(["doc_id"]).reset_index(drop=True)
    assert len(got) == len(want) == len(docs)
    assert (got["group_id"].to_numpy() == want["group_id"].to_numpy()).all()
    # the blank docs are their own groups
    blanks = got[got["doc_id"] >= 900001]
    assert (blanks["group_id"] == blanks["doc_id"]).all()


def test_minhash_dedup_raises_on_rounds_cap(ray_session):
    """Exiting the propagation loop without a fixed point must be loud:
    silent partial labels would break the exact-component contract."""
    import pytest as _pytest

    from rfb_cnpj_etl_ray.functions import dedup as D

    with _pytest.raises(RuntimeError, match="fixed point"):
        # rounds=1 leaves no round to CONFIRM convergence on this corpus
        D.minhash_dedup_groups(SF_DIR, rounds=1).materialize()


def test_minhash_family_mega_duplicate_cluster(ray_session, tmp_path):
    """Degenerate skew: EVERY doc identical → one LSH bucket per band,
    one connected component, maximally duplicated sort keys. Exercises
    the sort-based range exchange with all-equal keys (boundary sampling
    collapses; every row must still land in exactly one block) and the
    quadratic pair construction inside a single mega-bucket."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 60
    docs = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": ["the same exact words in every single document"] * n,
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{sf}/documents.parquet')")
    for fn, sql in [
        (D.minhash_lsh_candidates, D.MINHASH_LSH_CANDIDATES_SQL),
        (D.minhash_dedup_groups, D.MINHASH_DEDUP_GROUPS_SQL),
        (D.dedup_corpus, D.DEDUP_CORPUS_SQL),
        (D.simhash_near_dup_pairs, D.SIMHASH_NEAR_DUP_PAIRS_SQL),
    ]:
        eng = normalize(to_pandas(fn(sf)))
        ora = normalize(con.execute(sql).fetchdf())
        pd.testing.assert_frame_equal(eng, ora, check_dtype=False)
    con.close()
    # sanity on the shape: all-pairs candidates, one component
    pairs = to_pandas(D.minhash_lsh_candidates(sf))
    assert len(pairs) == n * (n - 1) // 2
    groups = to_pandas(D.minhash_dedup_groups(sf))
    assert set(groups["group_id"]) == {0}


def test_hll_estimate_near_exact_distinct(ray_session):
    """m=256 registers -> ~6.5% standard error; assert the sketch lands
    within 25% of the exact per-type distinct count (and is positive)."""
    approx = normalize(to_pandas(R.hll_distinct_users(SF_DIR)))
    exact = normalize(to_pandas(R.distinct_users_per_type(SF_DIR)))
    m = approx.merge(exact, on="event_type")
    assert len(m) == len(exact)
    rel = (m["hll_estimate"] - m["n_users"]).abs() / m["n_users"]
    assert (m["hll_estimate"] > 0).all()
    assert float(rel.max()) < 0.25, m.to_string()


def test_token_length_histogram_invariants(ray_session):
    """Quantile edges are 16-multiples, monotone, and bracket the true
    per-source whitespace-token-count order statistics within one bin."""
    out = normalize(to_pandas(T.token_length_histogram(SF_DIR)))
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                           columns=["source", "text"])
    docs["n_ws"] = docs["text"].str.count(r"\S+")
    for _, row in out.iterrows():
        lows = [row["p50_lo"], row["p90_lo"], row["p99_lo"]]
        assert all(v % 16 == 0 for v in lows)
        assert lows[0] <= lows[1] <= lows[2]
        g = docs.loc[docs["source"] == row["source"], "n_ws"].sort_values()
        n = len(g)
        for q_idx, (num, den) in enumerate(((1, 2), (9, 10), (99, 100))):
            true_val = int(g.iloc[-(-num * n // den) - 1])
            assert lows[q_idx] <= true_val < lows[q_idx] + 16


def test_hll_survives_strided_and_negative_ids(ray_session, tmp_path):
    """Regression (review): bucketing must come from the hash's mixed
    high bits — strided id schemes (all multiples of 256) previously
    collapsed into one bucket and linear-counted to ~1. Also pins the
    negative-id path: numpy's uint64 wrap and the SQL oracle's
    mathematical residue must agree."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 20_000
    ids = np.arange(1, n + 1, dtype=np.int64) * 256   # strided
    ids[::7] = -ids[::7]                              # negative mixed in
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array([0] * n, pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array(ids),
        "event_type": pa.array(["click"] * n),
        "value": pa.array(np.zeros(n)),
        "props": pa.array(["{}"] * n),
    })
    sf = tmp_path / "sf_strided"
    sf.mkdir()
    pq.write_table(t, sf / "events.parquet")
    for name in os.listdir(SF_DIR):
        if name != "events.parquet" and name.endswith(".parquet"):
            os.symlink(os.path.join(SF_DIR, name), sf / name)
    assert_query_matches(R.hll_distinct_users, R.HLL_DISTINCT_USERS_SQL,
                         str(sf))
    out = normalize(to_pandas(R.hll_distinct_users(str(sf))))
    est = int(out.loc[out["event_type"] == "click", "hll_estimate"].iloc[0])
    assert abs(est - n) / n < 0.25, est


def test_cms_one_sided_and_exact_against_recount(ray_session):
    """CMS estimate must never undercount (one-sided error), and the
    hash-equality exact column must bracket a driver-side string
    recount of the query tokens: string_count <= exact_count (hash
    matches are a superset of string matches) <= cms_count. On this
    pinned corpus there are no base-131 collisions with the query
    hashes, so the lower bound is also checked tight."""
    out = normalize(to_pandas(T.cms_token_counts(SF_DIR))).set_index("token")
    assert (out["cms_count"] >= out["exact_count"]).all()
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    flat = pd.Series(
        np.concatenate(docs["text"].str.lower().str.findall(T.WS_RE).to_list())
    )
    counts = flat.value_counts()
    for tok in T._CMS_QUERY:
        string_n = int(counts.get(tok, 0))
        assert string_n <= out.loc[tok, "exact_count"], tok
        assert out.loc[tok, "exact_count"] == string_n, tok  # tight here


def test_bloom_hits_superset_of_true_overlaps(ray_session):
    """Bloom membership is one-sided: every train doc that TRULY shares
    a DECON_N-gram with the val split must appear in the bloom report,
    with n_bloom_hits >= its true shared-distinct-gram count (false
    positives only ever add)."""
    from tests.util_compare import duck_con

    out = normalize(to_pandas(T.bloom_decontaminate(SF_DIR)))
    out = out.set_index("doc_id")["n_bloom_hits"]
    con = duck_con(SF_DIR)
    truth = con.execute(f"""
        WITH words AS (
          SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws
          FROM documents WHERE doc_id % 10 <= 8
        ), grams AS (
          SELECT DISTINCT doc_id, {T._GRAM_CONCAT} AS gram
          FROM words, unnest(range(1, len(ws) - {T.DECON_N - 2})) AS t(i)
        )
        SELECT tr.doc_id, CAST(COUNT(*) AS BIGINT) AS n_true
        FROM (SELECT doc_id, gram FROM grams WHERE doc_id % 10 < 8) tr
        JOIN (SELECT DISTINCT gram FROM grams WHERE doc_id % 10 = 8) v
          USING (gram)
        GROUP BY tr.doc_id
    """).fetchdf().set_index("doc_id")["n_true"]
    con.close()
    assert truth.index.isin(out.index).all()
    for doc_id, n_true in truth.items():
        assert out.loc[doc_id] >= n_true, (doc_id, n_true)


def test_certified_topk_equals_full_exchange_topk(ray_session):
    """The certified path must return exactly what the full-vocabulary
    exchange returns — the certificate is a proof, not a heuristic."""
    cheap = normalize(to_pandas(T.certified_topk_tokens(SF_DIR)))
    full = normalize(to_pandas(T.top_tokens(SF_DIR)))
    pd.testing.assert_frame_equal(cheap, full)


def test_certified_topk_fails_loud_when_uncertifiable(ray_session, monkeypatch):
    """With a candidate width of 1, every batch drops tokens (stau > 0)
    and the candidate union cannot cover top-k — the operator must
    refuse to return a silently-approximate answer."""
    monkeypatch.setattr(T, "_CTK_C", 1)
    with pytest.raises(Exception) as exc_info:
        to_pandas(T.certified_topk_tokens(SF_DIR))
    assert "certified_topk_tokens" in str(exc_info.value)


def test_refined_quantiles_domain_cap_fails_loud(ray_session, monkeypatch):
    """Values outside the coarse W x BINS domain must abort pass 1 with
    the remedy, never clamp into the last bin silently."""
    monkeypatch.setattr(T, "_RQ_BINS", 2)
    with pytest.raises(Exception) as exc_info:
        to_pandas(T.refined_quantiles(SF_DIR))
    assert "refined_quantiles" in str(exc_info.value)


def test_semantic_dedup_rep_is_component_min_and_closed(ray_session):
    """Every rep_id must be the min vec_id of its group (so rep_id <=
    vec_id), reps must be their own reps (closure), and groups must
    never span clusters."""
    out = normalize(to_pandas(S.semantic_dedup(SF_DIR)))
    assert (out["rep_id"] <= out["vec_id"]).all()
    reps = out[out["vec_id"].isin(out["rep_id"])]
    assert (reps["rep_id"] == reps["vec_id"]).all()
    assert out.groupby("rep_id")["cluster"].nunique().max() == 1


def test_semantic_dedup_cluster_cap_fails_loud(ray_session, tmp_path):
    """One cluster above the dense-matrix cap must abort with both
    remedies named, never allocate its m x m similarity matrix."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = S.SEM_DEDUP_MAX_CLUSTER + 1
    # identical vectors tie with every centroid; the min-cid rule puts
    # all of them in one cluster
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([[1.0, 0.0, 0.0, 0.0]] * n,
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, dtype=np.int32)),
    }), tmp_path / "embeddings.parquet")
    with pytest.raises(Exception) as exc_info:
        to_pandas(S.semantic_dedup(str(tmp_path)))
    msg = str(exc_info.value)
    assert f"{n} rows" in msg
    assert "toward sqrt(N)" in msg and "embedding_lsh_near_dup" in msg


def test_refined_quantiles_adversarial_corpora(ray_session, tmp_path):
    """Rank-boundary cases the shipped corpus can't hit: group sizes
    that are exact multiples of the quantile denominators (n=100/200 at
    q=0.99 sit exactly on a rank boundary), an all-ties group (every
    value identical -> all three quantiles equal it), and a power-law
    group with values straddling coarse-bin edges (63/64/65)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    langs, vals = [], []
    langs += ["bnd"] * 100
    vals += list(rng.integers(40, 600, 100))          # n=100: q=.99 boundary
    langs += ["tie"] * 57
    vals += [64] * 57                                 # ties on a bin edge
    langs += ["pow"] * 200
    vals += list((rng.pareto(2.0, 200) * 60 + 44).astype(np.int64))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(vals), dtype=np.int64)),
        "text": pa.array(["x"] * len(vals)),
        "lang": pa.array(langs),
        "source": pa.array(["web"] * len(vals)),
        "n_chars": pa.array(np.asarray(vals, dtype=np.int64)),
    })
    sf = tmp_path / "sf_quant"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    for name in os.listdir(SF_DIR):
        if name != "documents.parquet" and name.endswith(".parquet"):
            os.symlink(os.path.join(SF_DIR, name), sf / name)
    assert_query_matches(T.refined_quantiles, T.REFINED_QUANTILES_SQL,
                         str(sf))
    out = normalize(to_pandas(T.refined_quantiles(str(sf))))
    tie = out[out["lang"] == "tie"].iloc[0]
    assert tie["p50_chars"] == tie["p90_chars"] == tie["p99_chars"] == 64


def test_token_rarity_input_drift_fails_loud(ray_session, monkeypatch):
    """A score-pass token missing from the count pass means the input
    changed between the two passes; the op must name itself and the
    cause instead of failing in a numpy cast."""
    full = T._corpus_token_counts(SF_DIR)
    dropped = max(full, key=full.get)
    monkeypatch.setattr(
        T, "_corpus_token_counts",
        lambda sf: {t: c for t, c in full.items() if t != dropped})
    with pytest.raises(Exception) as exc_info:
        to_pandas(T.token_rarity_scores(SF_DIR))
    msg = str(exc_info.value)
    assert "token_rarity_scores" in msg and "input changed" in msg


def test_bloom_fill_rate_warns_only_above_threshold():
    """The Bloom filter warns, naming the fill rate and the remedy, once
    more than a quarter of its bits are set — and stays quiet below."""
    import warnings

    def packed(fill):
        bits = np.zeros(T._BLOOM_M, dtype=bool)
        bits[:int(fill * T._BLOOM_M)] = True
        return np.packbits(bits)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert T._bloom_fill_check(packed(0.20)) == pytest.approx(0.20)
    with pytest.warns(UserWarning, match=r"30\.0% filled.*widen _BLOOM_M"):
        T._bloom_fill_check(packed(0.30))
