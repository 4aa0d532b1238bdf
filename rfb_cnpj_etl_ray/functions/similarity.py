"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — broadcast the query matrix once
(``ray.put``), numpy matmul per batch, per-batch local top-k, tiny global
sort. Scale path: IVF — coarse centroids fit on a sample, batches routed
to nearest-centroid buckets, probes limited to the closest buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from rfb_cnpj_etl_ray.sources.parquet import read_table as _read_table
from rfb_cnpj_etl_ray.stages.exchange import fetch

TOP_K = 10


def _query_vector(sf_dir: str) -> np.ndarray:
    """Deterministic query: the embedding of the minimum vec_id (0 at
    every sf). Point read, not a scan: row-group statistics locate the
    global min, then ONLY that row group's (vec_id, embedding) columns
    are read — O(row group), never O(corpus), same zone-map pruning the
    lake's ``lookup()`` uses."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    md = pf.metadata
    vid_idx = next(
        i for i in range(md.row_group(0).num_columns)
        if md.row_group(0).column(i).path_in_schema == "vec_id"
    )
    stats = [md.row_group(g).column(vid_idx).statistics
             for g in range(md.num_row_groups)]
    if all(s is not None and s.has_min_max for s in stats):
        target = min(s.min for s in stats)
        groups = [g for g, s in enumerate(stats) if s.min <= target <= s.max]
    else:  # stats-less writer: still only the key column scans, not vectors
        ids = pf.read(columns=["vec_id"]).column("vec_id").to_numpy()
        target = int(ids.min())
        groups = list(range(md.num_row_groups))
    t = pf.read_row_groups(groups, columns=["vec_id", "embedding"])
    import pyarrow.compute as pc_

    row = t.filter(pc_.equal(t.column("vec_id"), target))
    v = np.asarray(row.column("embedding")[0].as_py(), dtype=np.float64)
    return v / np.linalg.norm(v)


def ann_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id-0 query. Each batch emits
    only its local top-k (k rows), so the global sort sees ~k×#batches
    rows, not the corpus."""
    q_ref = ray.put(_query_vector(sf_dir))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        sims = m @ fetch(q_ref)
        out = pd.DataFrame(
            {"vec_id": batch["vec_id"], "cosine": np.round(sims, 4)}
        )
        # sort+head, not nlargest: positional tie-breaks on the
        # ROUNDED cosine could drop a globally-winning smaller
        # vec_id at the local top-k boundary
        return out.sort_values(["cosine", "vec_id"],
                               ascending=[False, True]).head(TOP_K)

    ds = _read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    local = ds.map_batches(score, batch_format="pandas")
    return local.sort(["cosine", "vec_id"], descending=[True, False]).limit(TOP_K)


# rank by the ROUNDED cosine with vec_id tie-break — the engine's rule —
# and evaluate in DOUBLE like the engine's float64 matmul (the KNN_GRAPH
# pattern); ranking by the raw float32 similarity could keep a different
# row at the LIMIT boundary when two cosines round equal
ANN_TOPK_SQL = f"""
SELECT vec_id,
       ROUND(CAST(list_cosine_similarity(
           CAST(embedding AS DOUBLE[]),
           (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
            ORDER BY vec_id LIMIT 1)
       ) AS DOUBLE), 4) AS cosine
FROM embeddings
ORDER BY cosine DESC, vec_id ASC
LIMIT {TOP_K}
"""


NUM_CENTROIDS = 8
NUM_PROBES = 2


IVF_ROUNDS = 5
IVF_SAMPLE = 2048


def _fit_centroids(
    sf_dir: str,
    num_centroids: int = NUM_CENTROIDS,
    sample_size: int = IVF_SAMPLE,
    rounds: int = IVF_ROUNDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic spherical k-means on a DISTRIBUTED hash-sample: each
    batch keeps only rows whose Knuth-hashed vec_id falls under a
    threshold sized from the parquet metadata row count, so the driver
    collects ~2×sample_size rows no matter how big the corpus is (and,
    unlike ``random_sample``, the selection is independent of block
    layout — two calls always agree).

    Every step is pinned to the SQL-expressible protocol shared with
    ``kmeans_clusters`` so ANN_IVF_TOPK_SQL reproduces the fit exactly:
    init = the first ``num_centroids`` sampled vectors in (hash, vec_id)
    order (cid = that rank); assignment = 4-decimal-rounded cosine with
    min-cid tie-break (``_assign_batch``); update = per-dimension mean of
    the RAW embeddings rounded to 6 decimals (cosine is scale-invariant,
    so skipping normalization changes nothing and keeps the SQL an AVG);
    empty clusters drop out. Returns ``(cids, centroids)``."""
    ds = _read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    total = max(1, ds.count())  # metadata-only for parquet
    frac = min(1.0, (2.0 * sample_size) / total)
    threshold = np.uint64(int(frac * float(1 << 32)))

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy().astype(np.uint64)
        h = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        return batch.filter(pa.array(h < threshold))

    # batch collect, not take_all: row-wise conversion pays ~1 ms/row
    # on list columns — the batches are already the arrow table we want
    sampled = list(
        ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    sample = pa.concat_tables(sampled) if sampled else None
    if sample is None or sample.num_rows < num_centroids:
        raise ValueError(
            f"IVF centroid fit needs >= {num_centroids} sampled vectors, "
            f"got {0 if sample is None else sample.num_rows} — corpus too "
            f"small for num_centroids={num_centroids}")
    # order by (hash, vec_id) → the retained subset AND the centroid
    # init are a deterministic function of vec_ids alone (block arrival
    # order cancels out; the vec_id tie-break guards hash collisions)
    ids = sample.column("vec_id").to_numpy().astype(np.uint64)
    h = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    order = np.lexsort((ids, h))[:sample_size]
    m = np.stack(
        sample.column("embedding").to_numpy(zero_copy_only=False)[order]
    ).astype(np.float64)
    cids = np.arange(num_centroids, dtype=np.int64)
    cents = m[:num_centroids].copy()
    for _ in range(rounds):  # Lloyd iterations, vectorized + pinned
        assign, _ = _assign_batch(m, cids, cents)
        uniq = np.unique(assign)  # empty clusters drop out (both sides)
        cents = np.stack(
            [np.round(m[assign == c].mean(axis=0), 6) for c in uniq])
        cids = uniq
    return cids, cents


def ann_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN: centroids from a driver-side k-means on a
    distributed hash-sample (deterministic, SQL-pinned — see
    ``_fit_centroids``), every batch scores only rows whose bucket is
    among the query's NUM_PROBES closest centroids. Approximate by
    design (recall depends on how clustered the corpus is), but the
    probed-bucket RESULT is exactly reproducible: ANN_IVF_TOPK_SQL
    unrolls the identical fit + probe + scan in DuckDB. At 100 TB
    buckets become the partition key so probes prune whole partitions
    at the read."""
    cids, cents = _fit_centroids(sf_dir)
    q = _query_vector(sf_dir)
    # probe selection pinned like every ranking here: 4-decimal-rounded
    # cosine, min-cid tie-break
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    milli = np.rint(np.round(cn @ q, 4) * 10_000).astype(np.int64)
    probe_buckets = set(
        cids[np.lexsort((cids, -milli))[:NUM_PROBES]].tolist())
    side_ref = ray.put((cids, cents, q, sorted(probe_buckets)))

    def probe_score(batch: pd.DataFrame) -> pd.DataFrame:
        cids, cents, q, probes = fetch(side_ref)
        m = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        assign, _ = _assign_batch(m, cids, cents)
        mask = np.isin(assign, probes)
        if not mask.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        mn = m[mask] / np.linalg.norm(m[mask], axis=1, keepdims=True)
        out = pd.DataFrame(
            {"vec_id": batch["vec_id"].to_numpy()[mask],
             "cosine": np.round(mn @ q, 4)}
        )
        return out.sort_values(["cosine", "vec_id"],
                               ascending=[False, True]).head(TOP_K)

    ds = _read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    local = ds.map_batches(probe_score, batch_format="pandas")
    return local.sort(["cosine", "vec_id"], descending=[True, False]).limit(TOP_K)


def _ivf_assign_sql(src: str, cent: str) -> str:
    """Nearest-centroid assignment CTE body, pinned to `_assign_batch`:
    4-decimal-rounded DOUBLE cosine, min-cid tie-break."""
    return f"""
    SELECT vec_id, cid FROM (
       SELECT s.vec_id, c.cid,
          ROW_NUMBER() OVER (PARTITION BY s.vec_id
            ORDER BY ROUND(CAST(list_cosine_similarity(s.emb, c.c)
                               AS DOUBLE), 4) DESC, c.cid) AS rn
       FROM {src} s CROSS JOIN {cent} c) WHERE rn = 1"""


def _ivf_update_sql(assign: str, src: str) -> str:
    """Centroid update CTE body: per-dimension mean of the raw sample
    embeddings rounded to 6 decimals; empty clusters drop out."""
    return f"""
    SELECT cid, list(val ORDER BY ord) AS c FROM (
      SELECT a.cid, t.i AS ord, ROUND(AVG(s.emb[t.i]), 6) AS val
      FROM {assign} a JOIN {src} s USING (vec_id),
           unnest(range(1, len(s.emb) + 1)) AS t(i)
      GROUP BY 1, 2) GROUP BY cid"""


def _ivf_chain_sql(rounds: int) -> tuple[str, str]:
    """(unrolled Lloyd-round CTE chain, final centroid CTE name)."""
    parts, prev = [], "f0"
    for r in range(rounds):
        parts.append(f"ia{r} AS ({_ivf_assign_sql('s', prev)})")
        prev = f"f{r + 1}"
        parts.append(f"{prev} AS ({_ivf_update_sql(f'ia{r}', 's')})")
    return ",\n".join(parts), prev


_IVF_CHAIN, _IVF_FINAL = _ivf_chain_sql(IVF_ROUNDS)

# the exact twin of ann_ivf_topk: same hash sample (threshold floored in
# DOUBLE from the same expression), same hash-rank init, IVF_ROUNDS
# unrolled Lloyd rounds under the rounded-cosine/min-cid protocol, same
# probe pick, same probed-bucket scan — bit-for-bit reproducible.
#
# RESIDUAL FP-BOUNDARY RISK (ADVICE r4, documented by design): the
# "bit-for-bit" claim rests on no cosine/mean landing EXACTLY on a
# 1e-4/1e-6 rounding boundary — numpy sums pairwise + rounds half-to-
# even, DuckDB sums sequentially + rounds half-away-from-zero, so a
# value on the quantum could flip one assignment and cascade through
# the unrolled Lloyd rounds. Probability ~|values|/quantum-ulps (never
# observed at sf0.001-0.1 or in the 6000-row sampling test); if a
# future corpus trips it, the failure reads as a driver hash mismatch
# on this one entry — the probed-bucket self-consistency pytest
# (test_training_ops) is the fallback gate that distinguishes a
# tolerance miss from an engine bug.
ANN_IVF_TOPK_SQL = f"""
WITH allv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb,
         CAST(CAST(vec_id AS HUGEINT) * 2654435761 % 4294967296 AS BIGINT)
           AS h
  FROM embeddings
), thr AS (
  SELECT CAST(FLOOR(LEAST(1.0, (2.0 * {IVF_SAMPLE}) /
              (SELECT CAST(COUNT(*) AS DOUBLE) FROM embeddings))
              * 4294967296.0) AS BIGINT) AS t
), s AS (
  SELECT vec_id, emb, rk - 1 AS rk FROM (
    SELECT vec_id, emb,
           ROW_NUMBER() OVER (ORDER BY h, vec_id) AS rk
    FROM allv WHERE h < (SELECT t FROM thr))
  WHERE rk <= {IVF_SAMPLE}
), f0 AS (
  SELECT rk AS cid, emb AS c FROM s WHERE rk < {NUM_CENTROIDS}
),
{_IVF_CHAIN},
q AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings
      ORDER BY vec_id LIMIT 1),
probes AS (
  SELECT cid FROM (
    SELECT c.cid,
           ROW_NUMBER() OVER (ORDER BY
             ROUND(CAST(list_cosine_similarity(c.c, (SELECT v FROM q))
                        AS DOUBLE), 4) DESC, c.cid) AS rn
    FROM {_IVF_FINAL} c) WHERE rn <= {NUM_PROBES}
), aall AS ({_ivf_assign_sql('allv', _IVF_FINAL)})
SELECT e.vec_id,
       ROUND(CAST(list_cosine_similarity(e.emb, (SELECT v FROM q))
                  AS DOUBLE), 4) AS cosine
FROM allv e JOIN aall a USING (vec_id)
WHERE a.cid IN (SELECT cid FROM probes)
ORDER BY cosine DESC, vec_id ASC
LIMIT {TOP_K}
"""


# ---------------------------------------------------------------------------
# k-NN graph: every vector's k nearest neighbors (the all-pairs variant)
# ---------------------------------------------------------------------------

KNN_K = 5
#: broadcast-side shard budget: keeps per-worker shard views and the
#: per-batch candidate width bounded as the corpus grows (ADVICE r4)
_KNN_TARGET_SHARDS = 128


def knn_graph(sf_dir: str, k: int = KNN_K):
    """Cosine k-NN graph over the embedding table — the dedup/cluster
    building block (each vector → its ``k`` nearest others, ranked).

    Shape: the corpus matrix broadcasts ONCE (``ray.put``; N×64 floats —
    at 100 TB the broadcast side is replaced by the IVF router below,
    probing only nearest-centroid buckets, same per-batch body), then
    every batch computes one (batch×N) matmul and keeps k rows per
    vector. Ranking is on the ROUNDED similarity (4 decimals, both
    engines) with vec_id tie-break, so float summation order can never
    flip a rank; the per-row top-k uses a packed int64 sort key
    (similarity milli-units × 2^32 + neighbor id) — one ``np.partition``
    + one small sort per batch, no Python loops."""
    # broadcast-side build STREAMS: each batch becomes one object-store
    # shard (``ray.put`` per block), so driver RSS stays O(batch) while
    # the full matrix only ever materializes inside the workers (which
    # need it anyway). The brute-force contract is that the REFERENCE
    # side fits the object store (same contract as every broadcast join
    # here); when it doesn't, ann_ivf_topk's router replaces this
    # broadcast.
    shard_refs = []
    # bounded shard COUNT (ADVICE r4): size the shard rows from the
    # parquet metadata row count so ref fan-out and the per-batch
    # candidate hstack stay ~_KNN_TARGET_SHARDS wide no matter how big
    # the corpus grows (each worker holds O(shards) views and the
    # candidate matrix is B × (shards × k))
    import pyarrow.parquet as _pq

    n_rows = _pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    shard_rows = max(8192, -(-n_rows // _KNN_TARGET_SHARDS))
    corpus = _read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    for b in corpus.iter_batches(batch_format="pyarrow",
                                 batch_size=shard_rows):
        ids_b = b.column("vec_id").to_numpy()
        if ids_b.size and ids_b.max() >= (1 << 31):
            # same loud failure as dedup._pack_pairs: the packed int64
            # sort key holds the neighbor id in its low 32 bits, so an
            # oversized id would silently corrupt both words
            raise ValueError(
                "knn_graph packs neighbor ids into 32 bits; remap "
                "vec_ids or widen the pack for ids >= 2^31")
        m_b = np.stack([np.asarray(v, dtype=np.float64) for v in
                        b.column("embedding").to_numpy(zero_copy_only=False)])
        m_b /= np.linalg.norm(m_b, axis=1, keepdims=True)
        shard_refs.append(ray.put((ids_b.astype(np.int64), m_b)))

    # ONE broadcast object holding the shard refs: ``fetch`` resolves
    # it to the shard values once per worker process (one cache slot,
    # however many shards). The views stay plasma-backed (zero-copy,
    # read-only): all workers on a node share ONE physical corpus copy
    shards_ref = ray.put(shard_refs)

    def neighbors(batch: pd.DataFrame) -> pd.DataFrame:
        shards = fetch(shards_ref)
        q = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        qids = batch["vec_id"].to_numpy()
        kk = min(k, sum(len(ids) for ids, _ in shards) - 1)
        # per-shard local top-kk (local top-k ⊇ global top-k), then
        # one global partition over the B×(shards×kk) candidates —
        # peak memory is one B×n_shard key matrix, not B×N
        cands = []
        for ids, m in shards:
            simr = np.round(q @ m.T, 4)  # 4-decimal pinned
            # packed descending-sim / ascending-id key: int64 is
            # exact (sim milli ≤ 2×10^4 → high word; ids < 2^31 →
            # low word); rint, not a cast: 0.2563*10⁴ is 2562.999…
            milli = np.rint(simr * 10_000).astype(np.int64)
            key = ((10_000 - milli) << 32) + ids[None, :]
            # self-exclusion: push own id past any real key
            self_mask = qids[:, None] == ids[None, :]
            key = np.where(self_mask, np.int64(2**62), key)
            kl = min(kk, key.shape[1])
            cands.append(np.partition(key, kl - 1, axis=1)[:, :kl])
        key = np.hstack(cands) if len(cands) > 1 else cands[0]
        part = np.partition(key, kk - 1, axis=1)[:, :kk]
        part.sort(axis=1)
        neigh = (part & 0xFFFFFFFF).astype(np.int64)
        sim = (10_000 - (part >> 32)).astype(np.float64) / 10_000
        b = part.shape[0]
        return pd.DataFrame({
            "vec_id": np.repeat(batch["vec_id"].to_numpy(), kk)
            .astype("int64"),
            "rank": np.tile(np.arange(1, kk + 1, dtype=np.int64), b),
            "neighbor_id": neigh.reshape(-1),
            "cosine": sim.reshape(-1),
        })

    ds = _read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ds.map_batches(neighbors, batch_format="pandas")


KNN_GRAPH_SQL = f"""
SELECT vec_id, rank, neighbor_id, cosine FROM (
  SELECT a.vec_id,
         b.vec_id AS neighbor_id,
         ROUND(CAST(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                               CAST(b.embedding AS DOUBLE[]))
                    AS DOUBLE), 4) AS cosine,
         ROW_NUMBER() OVER (
           PARTITION BY a.vec_id
           ORDER BY ROUND(CAST(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                               CAST(b.embedding AS DOUBLE[]))
                               AS DOUBLE), 4) DESC, b.vec_id ASC
         ) AS rank
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
) WHERE rank <= {KNN_K}
"""


# ---------------------------------------------------------------------------
# distributed k-means over the embedding column
# ---------------------------------------------------------------------------

KMEANS_K = 8
KMEANS_ITERS = 2


def _assign_batch(x: np.ndarray, cids: np.ndarray, cents: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid by ROUNDED cosine (4 decimals, the knn_graph
    protocol: summation order can never flip a rank) with min-cid
    tie-break via a packed integer key."""
    if cids.size and cids.max() >= (1 << 20):
        # the packed key's cid term must stay strictly below one milli
        # step or a 1-milli cosine difference no longer dominates the
        # tie-break — fail loudly instead of mis-ranking (ADVICE r4)
        raise ValueError(
            "_assign_batch packs centroid ids below 2^20; fewer "
            "centroids or a wider packing needed")
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    simr = np.round(xn @ cn.T, 4)
    milli = np.rint(simr * 10_000).astype(np.int64)
    key = milli * (1 << 20) - cids[None, :]   # max sim, then min cid
    j = np.argmax(key, axis=1)
    return cids[j], simr[np.arange(len(j)), j]


def _kmeans_fit(sf_dir: str, k: int = KMEANS_K,
                iters: int = KMEANS_ITERS):
    """The deterministic Lloyd fit shared by ``kmeans_clusters`` and
    ``semantic_dedup`` — returns ``(cids, cents)`` at the pinned fixed
    point (init = k smallest vec_ids via a predicate-pushed point read,
    4-decimal-rounded cosine assignment with min-cid tie-break,
    6-decimal-rounded per-dimension means; both the rounding and the
    tie rule are reproduced verbatim by the unrolled-Lloyd SQL CTEs).

    Scale shape per iteration: centroids broadcast once (``ray.put``,
    k×d floats; tasks ``ray.get`` it zero-copy from the object store);
    each batch does ONE matmul and collapses
    to k×(d+1) partial-sum rows; a coalescing ``repartition`` + one
    per-block combine bounds the driver collect to ≤ fold_width·k·(d+1)
    rows no matter how many input blocks exist. Empty clusters drop out
    (both sides)."""
    import pyarrow.parquet as pq

    if k > 64:
        raise ValueError(
            f"kmeans_clusters supports k <= 64 (packed tie-break key "
            f"stride), got k={k}")
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", k)])
    ids0 = t.column("vec_id").to_numpy()
    order = np.argsort(ids0)
    cents = np.stack([np.asarray(v, dtype=np.float64) for v in
                      t.column("embedding").to_numpy(zero_copy_only=False)]
                     )[order]
    cids = ids0[order].astype(np.int64)

    from rfb_cnpj_etl_ray.sources.parquet import sized_blocks

    path = f"{sf_dir}/embeddings.parquet"
    # size-derived block count: the CPU-derived default over-splits a
    # small table into 64 blocks, and THREE passes then pay three
    # 64-task scheduling waves to move a few MB (measured 17 s → 3 s
    # at sf0.1); a 100 TB corpus still gets bytes/32MB blocks
    n_blocks = sized_blocks([path])

    def _ds():
        return _read_table(path, columns=["vec_id", "embedding"],
                           override_num_blocks=n_blocks)

    def partial(batch: pd.DataFrame, *, ref) -> pd.DataFrame:
        cids_, cents_ = ray.get(ref)       # zero-copy plasma read
        x = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        cl, _ = _assign_batch(x, cids_, cents_)
        d = x.shape[1]
        uniq, inv = np.unique(cl, return_inverse=True)
        sums = np.zeros((len(uniq), d), dtype=np.float64)
        np.add.at(sums, inv, x)
        counts = np.bincount(inv).astype(np.float64)
        # rows: (cluster, dim, s); dim=-1 carries the count
        return pd.DataFrame({
            "cluster": np.concatenate(
                [np.repeat(uniq, d), uniq]).astype("int64"),
            "dim": np.concatenate(
                [np.tile(np.arange(d, dtype=np.int64), len(uniq)),
                 np.full(len(uniq), -1, dtype=np.int64)]),
            "s": np.concatenate([sums.ravel(), counts]),
        })

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["cluster", "dim"], as_index=False)["s"].sum()

    fold_width = 16
    for _ in range(iters):
        ref = ray.put((cids, cents))
        # ≤ fold_width·k·(d+1) rows reach the driver — never O(corpus).
        # to_pandas, not take_all: Ray 2.49's row-wise take_all pays a
        # ~5 s fixed conversion tax on even tiny results (measured).
        folded = (_ds()
                  .map_batches(partial, fn_kwargs={"ref": ref},
                               batch_format="pandas")
                  .repartition(fold_width)  # coalesce, no hash shuffle
                  .map_batches(combine, batch_format="pandas",
                               batch_size=None)
                  .to_pandas())
        g = folded.groupby(["cluster", "dim"])["s"].sum()
        counts = g.xs(-1, level="dim")
        cids = np.array(sorted(counts.index), dtype=np.int64)
        d = int(g.index.get_level_values("dim").max()) + 1
        cents = np.stack([
            np.round(g.loc[c].reindex(range(d)).to_numpy()
                     / counts.loc[c], 6)
            for c in cids])

    return cids, cents


def kmeans_clusters(sf_dir: str, k: int = KMEANS_K,
                    iters: int = KMEANS_ITERS):
    """Distributed spherical k-means (Lloyd's) over ``embeddings`` —
    the semantic-clustering primitive behind cluster-balanced data
    mixing and cluster-level dedup in training-data pipelines. The fit
    lives in ``_kmeans_fit`` (shared with ``semantic_dedup``); the
    final assignment here streams one matmul per batch against the
    broadcast centroids."""
    from rfb_cnpj_etl_ray.sources.parquet import sized_blocks

    cids, cents = _kmeans_fit(sf_dir, k, iters)
    path = f"{sf_dir}/embeddings.parquet"
    n_blocks = sized_blocks([path])

    def _ds():
        return _read_table(path, columns=["vec_id", "embedding"],
                           override_num_blocks=n_blocks)

    ref = ray.put((cids, cents))

    def assign(batch: pd.DataFrame, *, ref) -> pd.DataFrame:
        cids_, cents_ = ray.get(ref)
        x = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        cl, sim = _assign_batch(x, cids_, cents_)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].astype("int64"),
            "cluster": cl,
            "cosine": sim,
        })

    return _ds().map_batches(assign, fn_kwargs={"ref": ref},
                             batch_format="pandas")


def _kmeans_assign_sql(cent_cte: str) -> str:
    # both sides cast to DOUBLE[] (the KNN_GRAPH/ANN_TOPK rule): DuckDB's
    # list_cosine_similarity(FLOAT[], FLOAT[]) evaluates in float32,
    # which can flip a 4-decimal ROUND boundary vs the engine's float64
    # matmul and re-key a cluster
    return f"""
    SELECT vec_id, cid FROM (
       SELECT e.vec_id, c.cid,
          ROW_NUMBER() OVER (PARTITION BY e.vec_id
            ORDER BY ROUND(CAST(list_cosine_similarity(
                   CAST(e.embedding AS DOUBLE[]), CAST(c.c AS DOUBLE[]))
                               AS DOUBLE), 4) DESC, c.cid) AS rn
       FROM embeddings e CROSS JOIN {cent_cte} c) WHERE rn = 1"""


def _kmeans_update_sql(assign_cte: str) -> str:
    return f"""
    SELECT cid, list(val ORDER BY ord) AS c FROM (
      SELECT a.cid, t.i AS ord,
             ROUND(AVG(CAST(e.embedding[t.i] AS DOUBLE)), 6) AS val
      FROM {assign_cte} a JOIN embeddings e USING (vec_id),
           unnest(range(1, len(e.embedding) + 1)) AS t(i)
      GROUP BY 1, 2) GROUP BY cid"""


def _kmeans_chain_sql(iters: int = KMEANS_ITERS) -> tuple[str, str]:
    """(CTE chain, final-centroid CTE name) for ``iters`` unrolled Lloyd
    rounds — generated from KMEANS_ITERS (the _ivf_chain_sql lesson: a
    hand-written unroll desyncs from the engine the day the constant
    changes), shared by KMEANS_CLUSTERS_SQL and SEMANTIC_DEDUP_SQL."""
    parts = [f"""c0 AS (SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS c
            FROM embeddings WHERE vec_id < {KMEANS_K})"""]
    for i in range(iters):
        parts.append(f"a{i} AS ({_kmeans_assign_sql(f'c{i}')})")
        parts.append(f"c{i + 1} AS ({_kmeans_update_sql(f'a{i}')})")
    return ",\n".join(parts), f"c{iters}"


_KMEANS_CHAIN, _KMEANS_FINAL = _kmeans_chain_sql(KMEANS_ITERS)

KMEANS_CLUSTERS_SQL = f"""
WITH {_KMEANS_CHAIN}
SELECT vec_id, cid AS cluster, cosine FROM (
   SELECT e.vec_id, c.cid,
          ROUND(CAST(list_cosine_similarity(
                CAST(e.embedding AS DOUBLE[]), CAST(c.c AS DOUBLE[]))
                     AS DOUBLE), 4) AS cosine,
          ROW_NUMBER() OVER (PARTITION BY e.vec_id
            ORDER BY ROUND(CAST(list_cosine_similarity(
                  CAST(e.embedding AS DOUBLE[]), CAST(c.c AS DOUBLE[]))
                               AS DOUBLE), 4) DESC, c.cid) AS rn
   FROM embeddings e CROSS JOIN {_KMEANS_FINAL} c) WHERE rn = 1
"""


CLUSTER_SAMPLE_N = 20


def cluster_balanced_sample(sf_dir: str, n_per_cluster: int = CLUSTER_SAMPLE_N):
    """Cluster-balanced subsample: run the distributed k-means, then keep
    ``n_per_cluster`` vectors per cluster chosen by the deterministic
    Knuth-hash order — the semantic-diversity subsampling step (DCLM-style
    cluster balancing) composed from two engine primitives. One extra
    keyed exchange on the cluster id; selection is a per-block vectorized
    rank (the ``stratified_sample`` pattern)."""
    from rfb_cnpj_etl_ray.stages.exchange import repartition_by_key

    from rfb_cnpj_etl_ray.functions.text import knuth_hash

    def pick(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            out = df
        else:
            df = df.copy()
            df["h"] = knuth_hash(df["vec_id"].to_numpy())
            df = df.sort_values(["cluster", "h", "vec_id"], kind="stable")
            df["rn"] = df.groupby("cluster", sort=False).cumcount() + 1
            out = df.loc[df["rn"] <= n_per_cluster]
        return pa.table({
            "vec_id": pa.array(out["vec_id"] if len(out) else [],
                               pa.int64()),
            "cluster": pa.array(out["cluster"] if len(out) else [],
                                pa.int64()),
        })

    # de-skew pre-prune (the stratified_sample pattern): local rank ≤
    # global rank, so a block-local pick keeps a superset of the final
    # per-cluster selection and the cluster-keyed shuffle carries
    # ≤ n_per_cluster×blocks rows — no cluster ever concentrates the
    # corpus into one block
    assigned = (kmeans_clusters(sf_dir)
                .select_columns(["vec_id", "cluster"])
                .map_batches(pick, batch_format="pandas"))
    return repartition_by_key(assigned, ["cluster"]).map_batches(
        pick, batch_format="pandas", batch_size=None)


CLUSTER_BALANCED_SAMPLE_SQL = f"""
WITH assigned AS ({KMEANS_CLUSTERS_SQL})
SELECT vec_id, cluster FROM (
  SELECT vec_id, cluster,
         ROW_NUMBER() OVER (
           PARTITION BY cluster
           ORDER BY CAST(CAST(vec_id AS HUGEINT) * 2654435761
                         % 4294967296 AS BIGINT), vec_id
         ) AS rn
  FROM assigned
) WHERE rn <= {CLUSTER_SAMPLE_N}
"""


# ---------------------------------------------------------------------------
# SemDeDup-style semantic dedup: cluster, then dedup within clusters
# (Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
# through semantic deduplication" — public arXiv method)
# ---------------------------------------------------------------------------

from rfb_cnpj_etl_ray.functions.dedup import COSINE_THRESHOLD \
    as SEM_DEDUP_THRESHOLD  # one tuning knob for the whole cosine
# near-dup family (dedup.py imports nothing from this module — no
# cycle); the synthetic embeddings are uniform-random, so the shared
# 0.3 cutoff (vs a production ~0.95) is what exercises real components

#: largest cluster ``semantic_dedup`` compares densely: its m×m float64
#: similarity matrix is 512 MiB at 8,192 rows, and one such matrix (plus
#: the boolean adjacency and the label scratch) must fit a worker's heap
SEM_DEDUP_MAX_CLUSTER = 8192


def semantic_dedup(sf_dir: str, threshold: float = SEM_DEDUP_THRESHOLD):
    """SemDeDup: k-means the embedding space (the shared ``_kmeans_fit``
    fixed point), then find cosine-connected components WITHIN each
    cluster and elect the min-vec_id representative — every vector gets
    a ``rep_id`` (singletons point at themselves); dedup = keep rows
    where ``vec_id == rep_id``. The clustering makes web-scale semantic
    dedup tractable: pairwise search runs only inside clusters (the
    paper's core trick), so the quadratic term is bounded by cluster
    size while the cross-cluster volume is ONE assignment matmul per
    batch against broadcast centroids plus one keyed exchange on the
    cluster id.

    Exactness protocol: assignment is the 4-decimal-rounded-cosine /
    min-cid rule the kmeans oracle pins; the in-cluster edge test uses
    the same 4-decimal half-away rounding before the threshold compare
    on BOTH engines; components close under min-label propagation
    (bounded per cluster here; the recursive-CTE twin closes the same
    graph). Per-cluster ``map_groups`` holds one cluster in memory —
    the bounded-block contract ``jaccard_*`` documents; a cluster above
    ``SEM_DEDUP_MAX_CLUSTER`` rows raises ``ValueError`` instead of
    allocating its matrix, and LSH (``embedding_lsh_near_dup``) is the
    unbounded fallback."""
    from rfb_cnpj_etl_ray.numeric import round_half_away
    from rfb_cnpj_etl_ray.sources.parquet import sized_blocks

    cids, cents = _kmeans_fit(sf_dir)
    ref = ray.put((cids, cents))
    path = f"{sf_dir}/embeddings.parquet"
    n_blocks = sized_blocks([path])  # the _kmeans_fit over-split lesson

    def assign(batch: pd.DataFrame, *, ref) -> pd.DataFrame:
        cids_, cents_ = ray.get(ref)
        x = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        cl, _ = _assign_batch(x, cids_, cents_)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].astype("int64"),
            "cluster": cl,
            "embedding": batch["embedding"],
        })

    ds = _read_table(path, columns=["vec_id", "embedding"],
                     override_num_blocks=n_blocks).map_batches(
        assign, fn_kwargs={"ref": ref}, batch_format="pandas")

    def dedup_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > SEM_DEDUP_MAX_CLUSTER:
            raise ValueError(
                f"semantic_dedup: cluster {g['cluster'].iloc[0]} has "
                f"{len(g)} rows, above the {SEM_DEDUP_MAX_CLUSTER}-row cap "
                f"of its dense similarity matrix ({len(g) ** 2 * 8 >> 20} "
                f"MiB); raise the cluster count k (KMEANS_K="
                f"{KMEANS_K}) toward sqrt(N) so clusters shrink, or use "
                f"embedding_lsh_near_dup, which has no cluster bound")
        order = np.argsort(g["vec_id"].to_numpy())
        ids = g["vec_id"].to_numpy()[order]
        m = np.stack(g["embedding"].to_numpy()[order]).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        adj = round_half_away(m @ m.T, 4) >= threshold
        # min-label fixed point over the (bounded) cluster adjacency;
        # ids are sorted, so min INDEX label == min vec_id of the
        # component. Self-similarity is 1.0, so the diagonal keeps each
        # row's own label in the min.
        lab = np.arange(len(ids), dtype=np.int64)
        while True:
            new = np.where(adj, lab[None, :], len(ids)).min(axis=1)
            if (new == lab).all():
                break
            lab = new
        return pd.DataFrame({
            "vec_id": pd.Series(ids, dtype="int64"),
            "cluster": pd.Series(
                np.full(len(ids), g["cluster"].iloc[0]), dtype="int64"),
            "rep_id": pd.Series(ids[lab], dtype="int64"),
        })

    return ds.groupby("cluster").map_groups(
        dedup_group, batch_format="pandas")


SEMANTIC_DEDUP_SQL = f"""
WITH RECURSIVE {_KMEANS_CHAIN},
assign AS ({_kmeans_assign_sql(_KMEANS_FINAL)}),
pairs AS (
  SELECT aa.vec_id AS u, ab.vec_id AS v
  FROM assign aa
  JOIN assign ab ON ab.cid = aa.cid AND ab.vec_id > aa.vec_id
  JOIN embeddings ea ON ea.vec_id = aa.vec_id
  JOIN embeddings eb ON eb.vec_id = ab.vec_id
  WHERE ROUND(CAST(list_cosine_similarity(
          CAST(ea.embedding AS DOUBLE[]), CAST(eb.embedding AS DOUBLE[]))
          AS DOUBLE), 4) >= {SEM_DEDUP_THRESHOLD}
),
adj AS (
  SELECT u, v FROM pairs UNION ALL SELECT v AS u, u AS v FROM pairs
),
reach(u, v) AS (
  SELECT vec_id AS u, vec_id AS v FROM embeddings
  UNION
  SELECT r.u, a.v FROM reach r JOIN adj a ON r.v = a.u
)
SELECT r.u AS vec_id, an.cid AS cluster, MIN(r.v) AS rep_id
FROM reach r JOIN assign an ON an.vec_id = r.u
GROUP BY 1, 2
"""
