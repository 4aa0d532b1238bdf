"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC change-log replay end-to-end on a small
deterministic dataset; ``queries()`` registers every implemented operator
(SURVEY.md §2 + the training-data additions); ``oracle_sql()`` carries
the DuckDB-equivalent SQL for the SQL-expressible subset (column names
aligned with the Ray results).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable
from pathlib import Path
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
import sys

if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

# Ray worker processes need the package importable too (they do not
# inherit the driver's sys.path mutations).
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


# ---------------------------------------------------------------------------
# flagship: CDC change-log replay → lake upsert
# ---------------------------------------------------------------------------

def _sf_of(sf_dir: str) -> float:
    name = Path(sf_dir).name  # "sf0.01"
    try:
        return float(name.replace("sf", ""))
    except ValueError:
        return 0.001


def _cdc_sizes(sf: float) -> tuple[int, int]:
    n_docs = max(200, int(200_000 * sf))
    return n_docs, 10 * n_docs


def run_cdc_pipeline(sf_dir: str, num_partitions: int = 16):
    """Synthesize (cached) a base snapshot + change-log sized to the sf,
    replay it through the engine, return the final lake state Dataset."""
    from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
    from rfb_cnpj_etl_ray.pipelines import ingest, read_lake
    from rfb_cnpj_etl_ray.state import init_lake
    from rfb_cnpj_etl_ray.synth import synth_dataset
    import pyarrow.parquet as pq

    sf = _sf_of(sf_dir)
    n_docs, n_events = _cdc_sizes(sf)
    cache = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    data = synth_dataset(cache / f"cdc_sf{sf}", n_docs=n_docs,
                         n_events=n_events, n_segments=8, max_len=64)
    lake = cache / f"lake_sf{sf}"
    shutil.rmtree(lake, ignore_errors=True)  # replay from scratch each call
    base = pq.read_table(data / "base.parquet")
    init_lake(lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
              base=base, num_partitions=num_partitions)
    ingest(lake, data / "log", cfg=EngineConfig(num_partitions=num_partitions))
    return read_lake(lake)


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale; driver checks rows>=0."""
    return run_cdc_pipeline("/root/testdata/sf0.001")


def cdc_final_state(sf_dir: str):
    """Driver-facing flagship surface: the replayed lake's final state
    with the token array projected to an exact polynomial digest
    (``tok_hash``, Horner fold mod 2^31-1 — identical in the DuckDB
    twin), because the driver's value-hash compares scalar columns.
    Per-row token-ARRAY equality stays pinned two ways: this digest
    (collision odds ~2^-31 per differing row) and the single-threaded
    replayer oracle in tests/test_ingest.py, which compares full
    arrays."""
    import pyarrow as pa

    from rfb_cnpj_etl_ray.hashing import token_poly_hashes

    ds = run_cdc_pipeline(sf_dir)

    def project(t: "pa.Table") -> "pa.Table":
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tok": t.column("n_tok"),
            "source": t.column("source"),
            "tok_hash": pa.array(
                token_poly_hashes(t.column("tokens")), pa.int64()),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


def cdc_final_state_sql(sf_dir: str = "/root/testdata/sf0.01") -> str:
    """Exact DuckDB oracle for the flagship CDC replay (VERDICT r4 #3):
    the final lake state IS one last-writer-wins SQL over (base snapshot
    at lsn 0) ∪ (change log), deletes dropped — the same algebra the
    engine ships as ``LWW_LATEST_EVENTS_SQL`` and that the single-
    threaded replayer oracle pins in tests. The synthetic base/log
    parquet is the very input ``run_cdc_pipeline`` replays (deterministic
    cached synth keyed by sf); synthesis here is idempotent, so the SQL
    is valid whichever side the driver runs first. LSNs are unique by
    construction (strictly increasing at generation), so the ROW_NUMBER
    pick is deterministic. ``tok_hash`` is the same Horner fold
    ``hashing.token_poly_hashes`` computes."""
    from rfb_cnpj_etl_ray.hashing import TOK_HASH_BASE, TOK_HASH_PRIME
    from rfb_cnpj_etl_ray.synth import synth_dataset

    sf = _sf_of(sf_dir)
    n_docs, n_events = _cdc_sizes(sf)
    cache = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    data = synth_dataset(cache / f"cdc_sf{sf}", n_docs=n_docs,
                         n_events=n_events, n_segments=8, max_len=64)
    base = (data / "base.parquet").as_posix()
    log = (data / "log" / "seg-*.parquet").as_posix()
    return f"""
WITH ev AS (
  SELECT lsn, op, doc_id, tokens, n_tok, source
  FROM read_parquet('{log}')
), base AS (
  SELECT CAST(0 AS BIGINT) AS lsn, 'I' AS op, doc_id, tokens, n_tok, source
  FROM read_parquet('{base}')
), ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY lsn DESC) AS rn
  FROM (SELECT * FROM base UNION ALL SELECT * FROM ev)
)
SELECT doc_id, n_tok, source,
       list_reduce(list_prepend(CAST(0 AS BIGINT),
                   list_transform(tokens, t -> CAST(t AS BIGINT))),
                   (a, b) -> (a * {TOK_HASH_BASE} + b) % {TOK_HASH_PRIME})
         AS tok_hash
FROM ranked WHERE rn = 1 AND op <> 'D'
"""


# ---------------------------------------------------------------------------
# operator registry
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    from rfb_cnpj_etl_ray.functions import dedup as D
    from rfb_cnpj_etl_ray.functions import multimodal as M
    from rfb_cnpj_etl_ray.functions import similarity as S
    from rfb_cnpj_etl_ray.functions import text as T
    from rfb_cnpj_etl_ray import cnpj as C
    from rfb_cnpj_etl_ray.pipelines import relational as R

    return {
        # --- registry ORDER is part of the driver contract: the driver
        # checks the FIRST 50 entries. Standing policy (VERDICT r4 #1):
        # every operator whose engine code changed since its last driver
        # row is ordered inside the window, and the rest of the window
        # goes to the entries with the OLDEST driver rows. This window =
        # the 37 entries moved onto Ray tasks only (the keyed exchange
        # became the task sort; joins became ``keyed_join``; actor-pool
        # stages became ``fetch``-fed task functions; three folds became
        # ``tree_fold``s) → 13 unchanged entries whose last driver row is
        # r4. Outside the window: the flagship and the unchanged r5-green
        # entries, then the remaining r4-green CNPJ loads. ---
        # keyed exchange users (pipelines/relational.py)
        "lww_latest_events": R.lww_latest_events,
        "parts_per_order": R.parts_per_order,
        "lagged_events": R.lagged_events,
        "running_user_totals": R.running_user_totals,
        "asof_join_last_purchase": R.asof_join_last_purchase,
        "top_orders_per_customer": R.top_orders_per_customer,
        "session_windows": R.session_windows,
        "funnel_stages": R.funnel_stages,
        "retention_cohorts": R.retention_cohorts,
        # keyed exchange + tree_fold
        "distinct_users_per_type": R.distinct_users_per_type,
        "quantity_quantiles": R.quantity_quantiles,
        "hll_distinct_users": R.hll_distinct_users,
        # broadcast anti-join via fetch; keyed_join anti-joins
        "customers_without_orders": R.customers_without_orders,
        "customers_without_orders_bucketed": R.customers_without_orders_bucketed,
        "customers_without_orders_bloom": R.customers_without_orders_bloom,
        # two keyed_joins each
        "revenue_by_nation": R.revenue_by_nation,
        "cnpj_estabelecimento_report": C.cnpj_estabelecimento_report,
        # idempotent checkpoint parts
        "incremental_hourly_activity": R.incremental_hourly_activity,
        # dedup family: task-function MinHash/embedding coders, keyed
        # exchanges, keyed_join for the surviving corpus
        "minhash_lsh_candidates": D.minhash_lsh_candidates,
        "minhash_dedup_groups": D.minhash_dedup_groups,
        "dedup_corpus": D.dedup_corpus,
        "embedding_lsh_near_dup": D.embedding_lsh_near_dup,
        "simhash_near_dup_pairs": D.simhash_near_dup_pairs,
        "exact_dedup": D.exact_dedup,
        # similarity: fetch-fed scorers, keyed exchange
        "ann_topk": S.ann_topk,
        "ann_ivf_topk": S.ann_ivf_topk,
        "knn_graph": S.knn_graph,
        "cluster_balanced_sample": S.cluster_balanced_sample,
        # multimodal decoders as task functions
        "multimodal_features": M.multimodal_features,
        "multimodal_wav_decode": M.multimodal_wav_decode,
        # text ops over the keyed exchange
        "pack_sequences": T.pack_sequences,
        "stratified_sample": T.stratified_sample,
        "decontaminate_val": T.decontaminate_val,
        "source_mix_sample": T.source_mix_sample,
        "dup_span_stats": T.dup_span_stats,
        "pmi_bigram_topk": T.pmi_bigram_topk,
        "export_training_shards": T.export_training_shards,
        # unchanged, last driver row r4
        "pricing_summary": R.pricing_summary,
        "hourly_user_activity": R.hourly_user_activity,
        "sliding_user_activity": R.sliding_user_activity,
        "props_extract_stats": R.props_extract_stats,
        "top_orders": R.top_orders,
        "explode_part_types": R.explode_part_types,
        "normalize_nation_codes": R.normalize_nation_codes,
        "upsert_static_nations": R.upsert_static_nations,
        "change_feed_users": R.change_feed_users,
        "replicate_user_state": R.replicate_user_state,
        "chunk_sequences": T.chunk_sequences,
        # the reference's CNPJ registry instantiated end-to-end: zip →
        # headerless latin-1 CSV → route (multi-target) → transform
        # chain → hash-partitioned lake load (schema.py:11-193,
        # db_batch_producer.py:18-28,61-72)
        "cnpj_empresa_load": C.cnpj_empresa_load,
        "cnpj_estabelecimento_load": C.cnpj_estabelecimento_load,
        # --- entries below are outside the 50-entry window; their code
        # is unchanged since their last driver row ---
        # flagship CDC replay, oracle-checked: the final lake state is
        # one LWW SQL over (base snapshot at lsn 0) ∪ change log
        # (VERDICT r4 #3); the replayer/kill/evolution pytests remain
        # the stateful-semantics gate
        "cdc_ingest_final_state": cdc_final_state,
        "repetition_scores": T.repetition_scores,
        "token_stats": T.token_stats,
        "quality_scores": T.quality_scores,
        "language_id": T.language_id,
        "fingerprints": T.fingerprints,
        "train_val_split": T.train_val_split,
        "length_histogram": T.length_histogram,
        "top_tokens": T.top_tokens,
        "tfidf_top_terms": T.tfidf_top_terms,
        "curate_corpus": T.curate_corpus,
        "bigram_topk": T.bigram_topk,
        "simhash_fingerprints": D.simhash_fingerprints,
        "kmeans_clusters": S.kmeans_clusters,
        "token_rarity_scores": T.token_rarity_scores,
        # HyperLogLog's twin sketches: fixed-bin histogram quantiles and
        # a Count-Min frequency sketch (order-independent counter-grid
        # merges, hence bit-exact oracle)
        "token_length_histogram": T.token_length_histogram,
        "cms_token_counts": T.cms_token_counts,
        # broadcast-Bloom decontamination (constant 128 KB bitmap vs
        # decontaminate_val's gram exchange) and certified exact top-k
        # (local top-C + Στ exclusion certificate + candidate-only
        # rescore — constant shuffle volume)
        "bloom_decontaminate": T.bloom_decontaminate,
        "certified_topk_tokens": T.certified_topk_tokens,
        # two-pass refined exact quantiles: both passes exchange O(1)
        # rows in corpus size
        "refined_quantiles": T.refined_quantiles,
        # SemDeDup-style semantic dedup: kmeans clusters (shared fit) →
        # within-cluster cosine components → min-vec_id representative
        "semantic_dedup": S.semantic_dedup,
        "jaccard_block_pairs": D.jaccard_block_pairs,
        "jaccard_shingle_pairs": D.jaccard_shingle_pairs,
        "embedding_near_dup": D.embedding_near_dup,
        "cnpj_cnae_sec_explode": C.cnpj_cnae_sec_explode,
        "cnpj_pais_dim_load": C.cnpj_pais_dim_load,
        "cnpj_simples_load": C.cnpj_simples_load,
        "cnpj_socio_load": C.cnpj_socio_load,
        "cnpj_cnae_dim_load": C.cnpj_cnae_dim_load,
        "cnpj_motivo_dim_load": C.cnpj_motivo_dim_load,
        "cnpj_municipio_dim_load": C.cnpj_municipio_dim_load,
        "cnpj_natureza_dim_load": C.cnpj_natureza_dim_load,
        "cnpj_qualificacao_dim_load": C.cnpj_qualificacao_dim_load,
    }


def oracle_sql() -> dict[str, str]:
    from rfb_cnpj_etl_ray.functions import dedup as D
    from rfb_cnpj_etl_ray.functions import multimodal as M
    from rfb_cnpj_etl_ray.functions import similarity as S
    from rfb_cnpj_etl_ray.functions import text as T
    from rfb_cnpj_etl_ray import cnpj as C
    from rfb_cnpj_etl_ray.pipelines import relational as R

    return {
        # flagship CDC replay: LWW over base ∪ log (paths synthesized
        # deterministically at sf0.01, the driver's oracle scale)
        "cdc_ingest_final_state": cdc_final_state_sql(),
        "cnpj_empresa_load": C.CNPJ_EMPRESA_SQL,
        "cnpj_estabelecimento_report": C.CNPJ_REPORT_SQL,
        "cnpj_estabelecimento_load": C.CNPJ_ESTABELECIMENTO_SQL,
        "cnpj_cnae_sec_explode": C.CNPJ_CNAE_SEC_SQL,
        "cnpj_pais_dim_load": C.CNPJ_PAIS_SQL,
        "cnpj_simples_load": C.CNPJ_SIMPLES_SQL,
        "cnpj_socio_load": C.CNPJ_SOCIO_SQL,
        "cnpj_cnae_dim_load": C.CNPJ_CNAE_SQL,
        "cnpj_motivo_dim_load": C.CNPJ_MOTIVO_SQL,
        "cnpj_municipio_dim_load": C.CNPJ_MUNICIPIO_SQL,
        "cnpj_natureza_dim_load": C.CNPJ_NATUREZA_SQL,
        "cnpj_qualificacao_dim_load": C.CNPJ_QUALIFICACAO_SQL,
        "lww_latest_events": R.LWW_LATEST_EVENTS_SQL,
        "explode_part_types": R.EXPLODE_PART_TYPES_SQL,
        "customers_without_orders": R.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "customers_without_orders_bucketed": R.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "customers_without_orders_bloom": R.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "normalize_nation_codes": R.NORMALIZE_NATION_CODES_SQL,
        "upsert_static_nations": R.UPSERT_STATIC_NATIONS_SQL,
        "pricing_summary": R.PRICING_SUMMARY_SQL,
        "revenue_by_nation": R.REVENUE_BY_NATION_SQL,
        "parts_per_order": R.PARTS_PER_ORDER_SQL,
        "top_orders": R.TOP_ORDERS_SQL,
        "hourly_user_activity": R.HOURLY_USER_ACTIVITY_SQL,
        "incremental_hourly_activity": R.INCREMENTAL_HOURLY_ACTIVITY_SQL,
        "sliding_user_activity": R.SLIDING_USER_ACTIVITY_SQL,
        "top_orders_per_customer": R.TOP_ORDERS_PER_CUSTOMER_SQL,
        "lagged_events": R.LAGGED_EVENTS_SQL,
        "running_user_totals": R.RUNNING_USER_TOTALS_SQL,
        "asof_join_last_purchase": R.ASOF_JOIN_LAST_PURCHASE_SQL,
        "session_windows": R.SESSION_WINDOWS_SQL,
        "funnel_stages": R.FUNNEL_STAGES_SQL,
        "retention_cohorts": R.RETENTION_COHORTS_SQL,
        "distinct_users_per_type": R.DISTINCT_USERS_PER_TYPE_SQL,
        "quantity_quantiles": R.QUANTITY_QUANTILES_SQL,
        "token_stats": T.TOKEN_STATS_SQL,
        "quality_scores": T.QUALITY_SCORES_SQL,
        "train_val_split": T.TRAIN_VAL_SPLIT_SQL,
        "length_histogram": T.LENGTH_HISTOGRAM_SQL,
        "language_id": T.LANGUAGE_ID_SQL,
        "fingerprints": T.FINGERPRINTS_SQL,
        "pack_sequences": T.PACK_SEQUENCES_SQL,
        "top_tokens": T.TOP_TOKENS_SQL,
        "stratified_sample": T.STRATIFIED_SAMPLE_SQL,
        "tfidf_top_terms": T.TFIDF_TOP_TERMS_SQL,
        "curate_corpus": T.CURATE_CORPUS_SQL,
        "bigram_topk": T.BIGRAM_TOPK_SQL,
        "decontaminate_val": T.DECONTAMINATE_VAL_SQL,
        "repetition_scores": T.REPETITION_SCORES_SQL,
        "dup_span_stats": T.DUP_SPAN_STATS_SQL,
        "chunk_sequences": T.CHUNK_SEQUENCES_SQL,
        "source_mix_sample": T.SOURCE_MIX_SAMPLE_SQL,
        "props_extract_stats": R.PROPS_EXTRACT_STATS_SQL,
        "change_feed_users": R.CHANGE_FEED_USERS_SQL,
        "replicate_user_state": R.REPLICATE_USER_STATE_SQL,
        "embedding_near_dup": D.EMBEDDING_NEAR_DUP_SQL,
        "exact_dedup": D.EXACT_DEDUP_SQL,
        "jaccard_block_pairs": D.JACCARD_BLOCK_PAIRS_SQL,
        "jaccard_shingle_pairs": D.JACCARD_SHINGLE_PAIRS_SQL,
        "simhash_fingerprints": D.SIMHASH_FINGERPRINTS_SQL,
        "simhash_near_dup_pairs": D.SIMHASH_NEAR_DUP_PAIRS_SQL,
        "minhash_lsh_candidates": D.MINHASH_LSH_CANDIDATES_SQL,
        "minhash_dedup_groups": D.MINHASH_DEDUP_GROUPS_SQL,
        "dedup_corpus": D.DEDUP_CORPUS_SQL,
        "ann_topk": S.ANN_TOPK_SQL,
        "ann_ivf_topk": S.ANN_IVF_TOPK_SQL,
        "knn_graph": S.KNN_GRAPH_SQL,
        "kmeans_clusters": S.KMEANS_CLUSTERS_SQL,
        "cluster_balanced_sample": S.CLUSTER_BALANCED_SAMPLE_SQL,
        "multimodal_features": M.MULTIMODAL_FEATURES_SQL,
        "multimodal_wav_decode": M.MULTIMODAL_WAV_DECODE_SQL,
        "token_rarity_scores": T.TOKEN_RARITY_SCORES_SQL,
        "pmi_bigram_topk": T.PMI_BIGRAM_TOPK_SQL,
        "export_training_shards": T.EXPORT_TRAINING_SHARDS_SQL,
        "embedding_lsh_near_dup": D.EMBEDDING_LSH_NEAR_DUP_SQL,
        "hll_distinct_users": R.HLL_DISTINCT_USERS_SQL,
        "token_length_histogram": T.TOKEN_LENGTH_HISTOGRAM_SQL,
        "cms_token_counts": T.CMS_TOKEN_COUNTS_SQL,
        "bloom_decontaminate": T.BLOOM_DECONTAMINATE_SQL,
        "certified_topk_tokens": T.CERTIFIED_TOPK_TOKENS_SQL,
        "refined_quantiles": T.REFINED_QUANTILES_SQL,
        "semantic_dedup": S.SEMANTIC_DEDUP_SQL,
        # every queries() entry now carries an exact oracle — the
        # stateful CDC guarantees (exactly-once, evolution, resume) stay
        # pinned by the replayer/kill/property pytests
    }
