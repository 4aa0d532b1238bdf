#!/usr/bin/env python
"""Benchmark harness.

Default: run the headline CDC change-log replay (synth cached under /tmp,
sized by GRAFT_BENCH_EVENTS) plus a set of representative operator
pipelines over $GRAFT_SF_DIR, and print ONE JSON line:

    {"metric": "cdc_ingest_sec", "value": <sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": <sf>, "num_cpus": N,
     "events": E, "events_per_sec": ...}

--scaling: run the headline job twice in fresh processes at
RAY_GRAFT_SCALING_CPUS (default "8,32") on the SAME cached input and
print both throughputs + scaling efficiency (the in-sandbox stand-in for
the north rule's N vs 4N node clusters; see BASELINE.md).

This script OWNS its Ray session (the only places allowed to:
bench/CLI/test fixture).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)
os.environ["PYTHONPATH"] = REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_EVENTS = int(os.environ.get("GRAFT_BENCH_EVENTS", "8000000"))
#: bench scratch defaults to tmpfs: the single local disk would otherwise
#: cap the shuffle at its writeback bandwidth, which no per-node disk does
#: on a real multi-node cluster (each node has its own).
os.environ.setdefault("GRAFT_TMP", "/dev/shm")
N_DOCS = max(200, N_EVENTS // 10)
NUM_PARTITIONS = int(os.environ.get("GRAFT_BENCH_PARTITIONS", "64"))

#: operator pipelines timed per-run (returning lazy Datasets; timing
#: includes full execution via materialize()).
QUERY_NAMES = [
    "lww_latest_events",
    "pricing_summary",
    "revenue_by_nation",
    "hourly_user_activity",
    "token_stats",
    "exact_dedup",
    "ann_topk",
    "multimodal_features",
    # round-2 additions (keyed-exchange vectorized group ops)
    "parts_per_order",
    "lagged_events",
    "minhash_lsh_candidates",
    "minhash_dedup_groups",
    "pack_sequences",
    # round-3: the reference flagship analytical query over the loaded
    # CNPJ lake (fixture load is cached per sf_dir; best-of-2 times the
    # warm query, the first repeat absorbs the one-time load)
    "cnpj_estabelecimento_report",
    # round-3: incremental view maintenance + broadcast-idf TF-IDF
    "incremental_hourly_activity",
    "tfidf_top_terms",
    # round-3: decontamination (O(tokens) gram exchange) + distributed
    # k-means (per-iteration broadcast + partial-sum reduce)
    "decontaminate_val",
    "kmeans_clusters",
    # round-4: the operators that first got driver-verification this
    # round — banded simhash near-dup, end-to-end survivor corpus,
    # streamed-broadcast knn, probe-pruned IVF ANN
    "simhash_near_dup_pairs",
    "dedup_corpus",
    "knn_graph",
    "ann_ivf_topk",
    # round-4 additions: cross-doc duplicated-span stats (gram-keyed
    # exchange) + zero-shuffle context-window chunking
    "dup_span_stats",
    "chunk_sequences",
    # round-5 additions: broadcast-count rarity profile, big-int PMI
    # collocations over the bigram exchange, hash-sharded training
    # export (staged per-shard parquet + exact manifest)
    "token_rarity_scores",
    "pmi_bigram_topk",
    "export_training_shards",
    # hyperplane-LSH embedding near-dup (integer-exact verify)
    "embedding_lsh_near_dup",
    # sketch family: HLL approximate distinct (constant-size exchange)
    # + fixed-bin histogram quantiles (mergeable order statistics)
    "hll_distinct_users",
    "token_length_histogram",
    "cms_token_counts",
    # broadcast-Bloom decontamination (zero-shuffle probe) + certified
    # exact top-k (constant-shuffle heavy hitters) — the sketch-gated
    # twins of decontaminate_val / top_tokens
    "bloom_decontaminate",
    "certified_topk_tokens",
    # two-pass refined exact quantiles (constant exchange, no sort)
    "refined_quantiles",
    # SemDeDup: cluster then dedup within clusters
    "semantic_dedup",
]


def _bench_input() -> Path:
    from rfb_cnpj_etl_ray.synth import synth_dataset, synth_dataset_big

    cache = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    if N_EVENTS > 16_000_000:  # chunked generation for 10^8-scale logs
        return synth_dataset_big(
            cache / f"bench_big_{N_DOCS}_{N_EVENTS}",
            n_docs=N_DOCS, n_events=N_EVENTS,
            n_segments=max(32, NUM_PARTITIONS), max_len=64,
        )
    return synth_dataset(
        cache / f"bench_{N_DOCS}_{N_EVENTS}",
        n_docs=N_DOCS, n_events=N_EVENTS, n_segments=max(8, NUM_PARTITIONS),
        max_len=64,
    )


def run_headline() -> dict:
    """CDC replay: init lake from base snapshot, ingest the full log.

    Timed portion = ingest only (the steady-state operation); lake init is
    setup. Before timing: page cache warmed (untimed reads) and the Ray
    worker pool warmed with a small throwaway ingest — first-task worker
    spawn/import costs are session artifacts, not pipeline throughput."""


    from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
    from rfb_cnpj_etl_ray.pipelines import ingest
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_distributed
    from rfb_cnpj_etl_ray.synth import synth_dataset

    data = _bench_input()
    tmp = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    lake = tmp / f"bench_lake_{NUM_CPUS}"
    shutil.rmtree(lake, ignore_errors=True)

    # warm page cache (untimed)
    for p in sorted((data / "log").glob("*.parquet")):
        p.read_bytes()
    (data / "base.parquet").read_bytes()

    # bench payload rows are ~170 B → large batches are safe and fastest
    cfg = EngineConfig(
        num_partitions=NUM_PARTITIONS,
        batch_size=int(os.environ.get("GRAFT_BENCH_BATCH_SIZE", "131072")),
    )

    # warm the worker pool with a small throwaway replay (untimed)
    warm_data = synth_dataset(tmp / "warmup", n_docs=20_000,
                              n_events=100_000, n_segments=8, max_len=64)
    warm_lake = tmp / f"warmup_lake_{NUM_CPUS}"
    shutil.rmtree(warm_lake, ignore_errors=True)
    init_lake_distributed(
        warm_lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
        [str(warm_data / "base.parquet")], cfg=cfg,
    )
    ingest(warm_lake, warm_data / "log", cfg=cfg)
    shutil.rmtree(warm_lake, ignore_errors=True)

    # best-of-N timed replays (fresh lake each) — damps scheduler/IO noise
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
    best_sec, report, phases = None, None, {}
    for _ in range(repeats):
        shutil.rmtree(lake, ignore_errors=True)
        init_lake_distributed(
            lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
            [str(data / "base.parquet")], cfg=cfg,
        )
        t0 = time.perf_counter()
        r = ingest(lake, data / "log", cfg=cfg)
        sec = time.perf_counter() - t0
        if best_sec is None or sec < best_sec:
            best_sec, report = sec, r
            phases = r.get("phase_seconds", {})
    return {
        "sec": best_sec,
        "events": report["events_read"],
        "events_per_sec": report["events_read"] / best_sec,
        "phase_seconds": phases,
    }


def run_queries() -> dict[str, float]:
    """Per-operator timings: best-of-2 (shared-VM noise is ±30% on
    single shots) except the two minhash entries, whose volume-bound
    runtimes are long enough to be stable single-shot."""
    import __ray_entry__ as E

    q = E.queries()
    out = {}
    for name in QUERY_NAMES:
        # volume-bound entries are long enough to be stable single-shot
        # (dedup_corpus embeds the minhash fixed-point loop)
        repeats = 1 if name.startswith("minhash") or name == "dedup_corpus" \
            else int(os.environ.get("GRAFT_BENCH_QUERY_REPEATS", "2"))
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = q[name](SF_DIR)
            # force full execution
            import ray.data

            if isinstance(res, ray.data.Dataset):
                res.materialize()
            sec = time.perf_counter() - t0
            best = sec if best is None else min(best, sec)
        out[name] = round(best, 3)
    return out


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    # empty hash partitions at small SF emit zero-block bundles whose
    # schema is None; Ray's executor-state logger warns about the
    # (cosmetic) schema change — keep the bench tail clean
    import logging as _logging

    _logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).setLevel(_logging.ERROR)

    head = run_headline()
    queries = run_queries() if os.environ.get("GRAFT_BENCH_QUERIES", "1") == "1" \
        else {}
    sf = Path(SF_DIR).name.replace("sf", "")
    out = {
        "metric": "cdc_ingest_sec",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": float(sf) if sf else None,
        "num_cpus": NUM_CPUS,
        "query_protocol": "best_of_2_materialize",
        "events": head["events"],
        "events_per_sec": round(head["events_per_sec"], 1),
        "scratch": os.environ.get("GRAFT_TMP", "/tmp"),
    }
    ray.shutdown()
    if os.environ.get("GRAFT_BENCH_DISK", "1") == "1":
        # the same headline with scratch on the single local DISK (a
        # per-node disk on a real cluster; tmpfs number above removes
        # this box's one-disk writeback bottleneck) — reported in the
        # same JSON so both figures are on record.
        env = dict(os.environ, GRAFT_TMP="/tmp", GRAFT_BENCH_QUERIES="0",
                   GRAFT_BENCH_REPEATS="1", GRAFT_BENCH_DISK="0")
        try:
            disk = json.loads(subprocess.run(
                [sys.executable, os.path.join(REPO, "bench.py")],
                env=env, capture_output=True, text=True, check=True,
                timeout=900,
            ).stdout.strip().splitlines()[-1])
            out["disk_sec"] = disk["value"]
            out["disk_events_per_sec"] = disk["events_per_sec"]
        except Exception as e:  # disk figure is informative, not gating
            out["disk_error"] = str(e)[:200]
    print(json.dumps(out))


def scaling() -> None:
    """Same job at N and 4N parallelism, fresh processes (the in-sandbox
    stand-in for the north rule's N vs 4N node clusters; BASELINE.md).

    Primary pair = 4 vs 16 ray CPUs: both within this machine's 16
    PHYSICAL cores, so the ratio measures genuine compute scaling. The
    8 vs 32 pair is also reported: 32 "CPUs" are SMT siblings of the same
    16 cores, so its efficiency is bounded by ~0.5 on this box — a
    hardware artifact, not a pipeline property (per-phase breakdowns in
    BASELINE.md)."""
    pairs = os.environ.get("RAY_GRAFT_SCALING_CPUS", "4,16;8,32")

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_QUERIES="0", GRAFT_BENCH_DISK="0")
        # bigger job for scaling runs: amortizes the per-pipeline serial
        # floor so the ratio measures the parallel fraction
        env.setdefault("GRAFT_BENCH_EVENTS", "16000000")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    result: dict = {"metric": "scaling_efficiency"}
    first = True
    for pair in pairs.split(";"):
        levels = [int(x) for x in pair.split(",")]
        lo, hi = levels[0], levels[-1]
        r_lo = run(lo)
        time.sleep(5)  # let the previous Ray session's teardown settle
        r_hi = run(hi)
        time.sleep(5)
        tp_lo, tp_hi = r_lo["events_per_sec"], r_hi["events_per_sec"]
        eff = (tp_hi / tp_lo) / (hi / lo)
        result.update({
            f"sec_{lo}": r_lo["value"],
            f"sec_{hi}": r_hi["value"],
            f"events_per_sec_{lo}": tp_lo,
            f"events_per_sec_{hi}": tp_hi,
            f"efficiency_{lo}_to_{hi}": round(eff, 3),
        })
        if first:
            result["scaling_efficiency"] = round(eff, 3)
            result["cpu_ratio"] = hi / lo
            result["events"] = r_lo["events"]
            first = False
    print(json.dumps(result))


def steady_state() -> None:
    """Steady-state CDC comparison: many small epochs, cow vs delta.

    Shows the write-amplification story: cow rewrites every touched
    partition per epoch (O(table)); delta appends O(events) and defers
    the fold to compaction. Prints one JSON line with per-epoch seconds
    for both modes + the final delta compaction cost."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
    from rfb_cnpj_etl_ray.pipelines import ingest
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_distributed
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact, compact_deltas
    from rfb_cnpj_etl_ray.synth import make_changelog, synth_dataset, write_changelog_segments

    n_docs = int(os.environ.get("GRAFT_STEADY_DOCS", "1000000"))
    epoch_events = int(os.environ.get("GRAFT_STEADY_EPOCH_EVENTS", "250000"))
    n_epochs = int(os.environ.get("GRAFT_STEADY_EPOCHS", "8"))
    tmp = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    base_data = synth_dataset(tmp / f"steady_base_{n_docs}", n_docs=n_docs,
                              n_events=1, n_segments=1, max_len=64)
    log_root = tmp / f"steady_logs_{n_docs}_{epoch_events}_{n_epochs}"
    if not (log_root / "_done").exists():
        for e in range(n_epochs):
            ev = make_changelog(epoch_events, n_docs, seed=1000 + e,
                                start_lsn=10_000_000 + e * epoch_events,
                                max_len=64)
            write_changelog_segments(ev, log_root / f"epoch{e}", 8,
                                     shuffle_seed=e)
        (log_root / "_done").write_text("1")

    result = {"metric": "steady_state", "num_cpus": NUM_CPUS,
              "n_docs": n_docs, "epoch_events": epoch_events,
              "n_epochs": n_epochs}
    for mode in ("cow", "delta", "tiered"):
        lake = tmp / f"steady_lake_{mode}_{NUM_CPUS}"
        shutil.rmtree(lake, ignore_errors=True)
        write_mode = "delta" if mode == "tiered" else mode
        cfg = EngineConfig(num_partitions=NUM_PARTITIONS,
                           write_mode=write_mode)
        init_lake_distributed(
            lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
            [str(base_data / "base.parquet")], cfg=cfg,
        )
        secs = []
        for e in range(n_epochs):
            t0 = time.perf_counter()
            ingest(lake, log_root / f"epoch{e}", cfg=cfg)
            if mode == "tiered":
                # size-tiered policy: fold only partitions whose delta
                # mass crossed the ratio — amortized, no full-fold spike
                compact_deltas(lake, min_delta_ratio=0.3)
            secs.append(round(time.perf_counter() - t0, 2))
        result[f"{mode}_epoch_sec"] = secs
        result[f"{mode}_total_sec"] = round(sum(secs), 2)
        if mode == "delta":
            t0 = time.perf_counter()
            compact(lake)
            result["delta_compact_sec"] = round(time.perf_counter() - t0, 2)
    result["delta_speedup_per_epoch"] = round(
        (result["cow_total_sec"] / max(result["delta_total_sec"], 1e-9)), 2
    )
    result["tiered_max_epoch_sec"] = max(result["tiered_epoch_sec"])
    result["tiered_speedup_vs_cow"] = round(
        (result["cow_total_sec"] / max(result["tiered_total_sec"], 1e-9)), 2
    )
    print(json.dumps(result))
    ray.shutdown()


def endurance() -> None:
    """10^9-event endurance: chunked synth (GRAFT_END_EVENTS, default
    1e9) replayed in GRAFT_END_EPOCHS epochs (bounds the transient
    staging footprint to one epoch's events), progressive manifest like
    a live WAL. Prints per-epoch seconds + overall events/sec. Shorter
    token lists (max_len=32) keep the log inside the tmpfs budget; the
    ratio events:doc and the merge work per event match the headline
    shape."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
    from rfb_cnpj_etl_ray.pipelines import ingest
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_distributed
    from rfb_cnpj_etl_ray.synth import synth_dataset_big

    n_events = int(os.environ.get("GRAFT_END_EVENTS", "1000000000"))
    n_docs = int(os.environ.get("GRAFT_END_DOCS", "20000000"))
    n_epochs = int(os.environ.get("GRAFT_END_EPOCHS", "10"))
    tmp = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    t_synth0 = time.perf_counter()
    data = synth_dataset_big(
        tmp / f"end_{n_docs}_{n_events}", n_docs=n_docs, n_events=n_events,
        n_segments=n_epochs * 16, max_len=32,
    )
    t_synth = time.perf_counter() - t_synth0

    manifest_path = data / "log" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    all_segs = manifest["segments"]
    per = (len(all_segs) + n_epochs - 1) // n_epochs

    lake = tmp / f"end_lake_{NUM_CPUS}"
    shutil.rmtree(lake, ignore_errors=True)
    cfg = EngineConfig(
        num_partitions=int(os.environ.get("GRAFT_END_PARTITIONS", "128")),
        batch_size=int(os.environ.get("GRAFT_BENCH_BATCH_SIZE", "131072")),
    )
    init_lake_distributed(
        lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
        [str(data / "base.parquet")], cfg=cfg,
    )
    epoch_secs, epoch_events = [], []
    t0 = time.perf_counter()
    for e in range(n_epochs):
        manifest["segments"] = all_segs[: (e + 1) * per]
        manifest_path.write_text(json.dumps(manifest))
        te = time.perf_counter()
        r = ingest(lake, data / "log", cfg=cfg)
        epoch_secs.append(round(time.perf_counter() - te, 2))
        epoch_events.append(r["events_read"])
    total = time.perf_counter() - t0
    manifest["segments"] = all_segs
    manifest_path.write_text(json.dumps(manifest))
    print(json.dumps({
        "metric": "endurance_events_per_sec",
        "events": int(sum(epoch_events)),
        "num_cpus": NUM_CPUS,
        "query_protocol": "best_of_2_materialize",
        "n_docs": n_docs,
        "epochs": n_epochs,
        "epoch_sec": epoch_secs,
        "epoch_events": epoch_events,
        "total_sec": round(total, 2),
        "events_per_sec": round(sum(epoch_events) / total, 1),
        "synth_sec": round(t_synth, 1),
        "scratch": os.environ.get("GRAFT_TMP", "/tmp"),
    }))
    ray.shutdown()


def north() -> None:
    """The north rule's literal replay: GRAFT_NORTH_EVENTS (default 10^10)
    change events applied to a final-state-correct lake table, in
    GRAFT_NORTH_EPOCHS (default 20) epochs of 5x10^8 events each, with
    ``write_mode="delta"`` + size-tiered ``compact_deltas`` folded inline
    per epoch (the steady-state shape BASELINE.md documents).

    Epoch sizing is a single-node storage constraint, not a pipeline
    one: one epoch's log + its staged exchange + the lake must coexist
    on this node's tmpfs (a 10^9-event epoch needs ~44+68+28 GB > the
    126 GB available; 5x10^8 fits with headroom — on a real cluster
    each node brings its own store and 10^9 epochs are the natural
    grain). Storage discipline: one epoch's log is synthesized fresh —
    its own RNG substreams and a contiguous, globally-increasing lsn
    range — ingested, then DELETED before the next epoch is generated,
    so tmpfs holds at most one epoch's log plus the lake at any time.
    Prints per-epoch synth /
    ingest / compact seconds and the overall sustained events/sec
    (ingest+compact only — synth is data generation, not pipeline work;
    the all-in wall time is reported separately)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR",
             object_store_memory=int(os.environ.get(
                 "GRAFT_NORTH_STORE", str(24 * 2**30))))
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
    from rfb_cnpj_etl_ray.pipelines import ingest
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_distributed
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas
    from rfb_cnpj_etl_ray.synth import make_base, make_changelog

    n_events = int(os.environ.get("GRAFT_NORTH_EVENTS", "10000000000"))
    n_epochs = int(os.environ.get("GRAFT_NORTH_EPOCHS", "20"))
    n_docs = int(os.environ.get("GRAFT_NORTH_DOCS", "20000000"))
    segs_per_epoch = int(os.environ.get("GRAFT_NORTH_SEGMENTS", "80"))
    max_len = 32
    # remainder events land in the early epochs so the total is EXACTLY
    # n_events (10^10 requested must mean 10^10 replayed)
    epoch_events_plan = [n_events // n_epochs + (1 if e < n_events % n_epochs
                                                 else 0)
                         for e in range(n_epochs)]
    epoch_starts = [10_000_000 + sum(epoch_events_plan[:e])
                    for e in range(n_epochs)]
    tmp = Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
    root = tmp / f"north_{n_docs}_{n_events}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True, exist_ok=True)

    t_all0 = time.perf_counter()
    base_path = root / "base.parquet"
    t_b0 = time.perf_counter()
    pq.write_table(make_base(n_docs, seed=42, max_len=max_len), base_path,
                   compression="zstd")
    base_sec = round(time.perf_counter() - t_b0, 1)

    lake = root / "lake"
    cfg = EngineConfig(
        num_partitions=int(os.environ.get("GRAFT_NORTH_PARTITIONS", "128")),
        batch_size=int(os.environ.get("GRAFT_BENCH_BATCH_SIZE", "131072")),
        write_mode="delta",
    )
    init_lake_distributed(
        lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
        [str(base_path)], cfg=cfg,
    )

    @ray.remote(num_cpus=1)
    def _gen_seg(log_dir: str, e: int, k: int,
                 epoch_start: int, epoch_n: int) -> dict:
        # own RNG substream per (epoch, segment); lsn contiguous and
        # globally increasing across epochs so LWW order is the replay
        # order (same layout contract as synth_dataset_big)
        per_seg = epoch_n // segs_per_epoch
        n = per_seg if k < segs_per_epoch - 1 else \
            epoch_n - per_seg * (segs_per_epoch - 1)
        start = epoch_start + per_seg * k
        ev = make_changelog(n, n_docs, seed=42 + 100 + e * segs_per_epoch + k,
                            start_lsn=start, min_len=8, max_len=max_len)
        perm = np.random.default_rng(42 + 500 + e * segs_per_epoch + k
                                     ).permutation(n)
        ev = ev.take(pa.array(perm))
        name = f"seg-{e:02d}-{k:05d}.parquet"
        pq.write_table(ev, Path(log_dir) / name, compression="zstd")
        lsns = ev.column("lsn").to_numpy()
        return {"name": name, "rows": n,
                "min_lsn": int(lsns.min()), "max_lsn": int(lsns.max()),
                "bytes": os.path.getsize(Path(log_dir) / name)}

    epochs = []
    pipeline_sec = 0.0
    for e in range(n_epochs):
        log_dir = root / f"log_{e:02d}"
        log_dir.mkdir(parents=True, exist_ok=True)
        t_s0 = time.perf_counter()
        segs = ray.get([_gen_seg.remote(str(log_dir), e, k,
                                        epoch_starts[e],
                                        epoch_events_plan[e])
                        for k in range(segs_per_epoch)])
        segs.sort(key=lambda s: s["name"])
        (log_dir / "manifest.json").write_text(json.dumps({"segments": segs}))
        synth_sec = time.perf_counter() - t_s0

        t_i0 = time.perf_counter()
        r = ingest(lake, log_dir, cfg=cfg)
        ingest_sec = time.perf_counter() - t_i0

        t_c0 = time.perf_counter()
        c = compact_deltas(lake, min_delta_ratio=0.3, cfg=cfg)
        compact_sec = time.perf_counter() - t_c0

        shutil.rmtree(log_dir, ignore_errors=True)
        pipeline_sec += ingest_sec + compact_sec
        epochs.append({
            "epoch": e, "events": int(r["events_read"]),
            "synth_sec": round(synth_sec, 1),
            "ingest_sec": round(ingest_sec, 1),
            "compact_sec": round(compact_sec, 1),
            "parts_folded": int(c.get("partitions_folded", 0)),
        })
        done = sum(x["events"] for x in epochs)
        print(json.dumps({"north_progress": epochs[-1], "events_done": done}),
              file=sys.stderr, flush=True)

    total_events = sum(x["events"] for x in epochs)
    wall = time.perf_counter() - t_all0
    print(json.dumps({
        "metric": "north_replay_events_per_sec",
        "events": int(total_events),
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "epochs": epochs,
        "write_mode": "delta+size_tiered_compact(ratio=0.3)",
        "pipeline_sec": round(pipeline_sec, 1),
        "events_per_sec": round(total_events / pipeline_sec, 1),
        "wall_sec_incl_synth": round(wall, 1),
        "base_synth_sec": base_sec,
        "scratch": os.environ.get("GRAFT_TMP", "/tmp"),
    }))
    ray.shutdown()


def _stress_corpus(src_sf_dir: str, copies: int) -> Path:
    """Deterministic ``copies``× blow-up of a documents table for the
    dedup-family scale stress (VERDICT r4 #5). Copy j re-tags every WORD
    with a ``c{j}`` prefix (copy 0 is verbatim), so word/shingle hashes —
    and therefore minhash signatures and LSH buckets — are independent
    across copies: duplicate CLUSTERS scale linearly (10× docs → ~10×
    clusters of the same size distribution), the realistic growth mode,
    instead of 10×-deeper clusters whose pair volume would explode
    quadratically. doc_ids offset by 10M per copy (stays < 2^31 for the
    packed-pair path)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = Path(src_sf_dir) / "documents.parquet"
    out_root = (Path(os.environ.get("GRAFT_TMP", "/tmp"))
                / "rfb_cnpj_etl_ray"
                / f"dedup_stress_{Path(src_sf_dir).name}_x{copies}")
    out = out_root / "documents.parquet"
    if out.exists():
        return out_root
    out_root.mkdir(parents=True, exist_ok=True)
    df = pq.read_table(src).to_pandas()
    parts = []
    for j in range(copies):
        c = df.copy()
        c["doc_id"] = c["doc_id"] + j * 10_000_000
        if j:
            c["text"] = c["text"].str.replace(
                r"(\S+)", rf"c{j}\1", regex=True)
            c["n_chars"] = c["text"].str.len().astype("int64")
        parts.append(c)
    big = pd.concat(parts, ignore_index=True)
    tmp = out_root / "documents.parquet.tmp"
    pq.write_table(pa.Table.from_pandas(big, preserve_index=False), tmp,
                   compression="zstd")
    os.replace(tmp, out)
    return out_root


def dedup_stress() -> None:
    """Scale curve for the sort-based range-exchange dedup family
    (VERDICT r4 #5): run minhash_lsh_candidates / minhash_dedup_groups /
    dedup_corpus at sf0.1 and at a GRAFT_STRESS_COPIES× (default 10×)
    corpus, report wall seconds, docs, and result rows at both scales.
    The pair stream is the quadratic-risk object; linear cluster growth
    (see _stress_corpus) is the honest 100 TB growth mode."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as E

    copies = int(os.environ.get("GRAFT_STRESS_COPIES", "10"))
    big_dir = _stress_corpus(SF_DIR, copies)
    q = E.queries()
    names = ["minhash_lsh_candidates", "minhash_dedup_groups",
             "dedup_corpus"]
    result: dict = {"metric": "dedup_stress", "num_cpus": NUM_CPUS,
                    "sf_dir": SF_DIR, "copies": copies}
    import pyarrow.parquet as pq

    repeats = int(os.environ.get("GRAFT_STRESS_REPEATS", "2"))
    for label, d in (("base", SF_DIR), (f"x{copies}", str(big_dir))):
        result[f"{label}_docs"] = pq.ParquetFile(
            Path(d) / "documents.parquet").metadata.num_rows
        for name in names:
            # best-of-N: this box's shared-VM noise band is ±30-40% per
            # single shot (worst observed on minhash: 5.7 s vs 60.3 s) —
            # the scale RATIO is the measurement, so damp both ends
            best = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                n_rows = q[name](d).count()  # forces full execution
                sec = time.perf_counter() - t0
                best = sec if best is None else min(best, sec)
            result[f"{label}_{name}_sec"] = round(best, 2)
            result[f"{label}_{name}_rows"] = int(n_rows)
    for name in names:
        base_s = result[f"base_{name}_sec"]
        big_s = result[f"x{copies}_{name}_sec"]
        result[f"{name}_time_ratio"] = round(big_s / base_s, 2)
    print(json.dumps(result))
    ray.shutdown()


def _nodes_dedup_child() -> None:
    """Child: n-node local Ray cluster (one raylet + plasma store per
    node), run GRAFT_NODES_DEDUP_OP (default minhash_dedup_groups) over
    GRAFT_SF_DIR, report docs/sec. The family's wide steps are the
    banded keyed exchange + the packed-pair sort (range exchange) +
    (for dedup_groups) the label-propagation rounds — exactly the
    shuffle machinery whose node scaling VERDICT r4 #6 asks for.
    minhash_lsh_candidates is the volume-bound member (one shot through
    the pair stream, no sequential rounds) — use it to measure shuffle
    bandwidth scaling; dedup_groups' fixed-point adds a sequential
    round-latency floor that dominates at small corpora."""
    n_nodes = int(os.environ["GRAFT_NODES"])
    cpus_per_node = int(os.environ.get("GRAFT_CPUS_PER_NODE", "4"))
    from ray.cluster_utils import Cluster

    import ray

    # cluster_utils gives each simulated node a 150 MB object store by
    # default — three orders of magnitude below any real cluster node,
    # and small enough that a 32M-event leg lives in permanent
    # spill/restore churn (measured: ingest 42 s under plain ray.init vs
    # >30 min under the default-store harness). Size the store like a
    # real node so the harness measures the pipeline, not plasma thrash.
    node_store = int(os.environ.get("GRAFT_NODE_STORE", str(8 * 2**30)))
    cluster = Cluster()
    cluster.add_node(num_cpus=cpus_per_node, include_dashboard=False,
                     object_store_memory=node_store)
    for _ in range(n_nodes - 1):
        cluster.add_node(num_cpus=cpus_per_node,
                         object_store_memory=node_store)
    ray.init(address=cluster.address, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    copies = int(os.environ.get("GRAFT_STRESS_COPIES", "0"))
    sf_dir = str(_stress_corpus(SF_DIR, copies)) if copies > 1 else SF_DIR
    n_docs = pq.ParquetFile(
        Path(sf_dir) / "documents.parquet").metadata.num_rows
    op = os.environ.get("GRAFT_NODES_DEDUP_OP", "minhash_dedup_groups")
    q = E.queries()
    # warm the worker pool (untimed) with one SMALL run — enough to
    # spawn workers/import modules without paying the big corpus twice
    q[op](SF_DIR).count()
    best = None
    for _ in range(int(os.environ.get("GRAFT_NODES_DEDUP_REPEATS", "2"))):
        t0 = time.perf_counter()
        rows = q[op](sf_dir).count()
        sec = time.perf_counter() - t0
        best = sec if best is None else min(best, sec)
    print(json.dumps({
        "metric": f"{op}_sec",
        "value": round(best, 3),
        "nodes": len([n for n in ray.nodes() if n["Alive"]]),
        "cpus_per_node": cpus_per_node,
        "docs": int(n_docs),
        "rows": int(rows),
        "docs_per_sec": round(n_docs / best, 1),
    }))
    ray.shutdown()
    cluster.shutdown()


def nodes_dedup_scaling() -> None:
    """N vs 4N NODE scaling for the dedup family (VERDICT r4 #6) — same
    protocol as --nodes but the job is minhash_dedup_groups (banded
    exchange + packed-pair range exchange + label propagation)."""
    levels = [int(x) for x in
              os.environ.get("GRAFT_NODE_LEVELS", "1,4").split(",")]

    def run(n_nodes: int) -> dict:
        env = dict(os.environ, GRAFT_NODES=str(n_nodes))
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py"),
             "--nodes-dedup-child"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = levels[0], levels[-1]
    r_lo = run(lo)
    time.sleep(5)
    r_hi = run(hi)
    eff = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / (hi / lo)
    print(json.dumps({
        "metric": "dedup_node_scaling_efficiency",
        "op": os.environ.get("GRAFT_NODES_DEDUP_OP",
                             "minhash_dedup_groups"),
        f"sec_{lo}_nodes": r_lo["value"],
        f"sec_{hi}_nodes": r_hi["value"],
        f"docs_per_sec_{lo}_nodes": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}_nodes": r_hi["docs_per_sec"],
        "cpus_per_node": r_lo["cpus_per_node"],
        "node_ratio": hi / lo,
        "scaling_efficiency": round(eff, 3),
        "docs": r_lo["docs"],
    }))


def _multinode_child() -> None:
    """Child process: build an n-node local Ray cluster (one raylet +
    object store per node — real inter-node object transfers over
    loopback) and run the headline replay on it."""
    n_nodes = int(os.environ["GRAFT_NODES"])
    cpus_per_node = int(os.environ.get("GRAFT_CPUS_PER_NODE", "4"))
    from ray.cluster_utils import Cluster

    import ray

    # cluster_utils gives each simulated node a 150 MB object store by
    # default — three orders of magnitude below any real cluster node,
    # and small enough that a 32M-event leg lives in permanent
    # spill/restore churn (measured: ingest 42 s under plain ray.init vs
    # >30 min under the default-store harness). Size the store like a
    # real node so the harness measures the pipeline, not plasma thrash.
    node_store = int(os.environ.get("GRAFT_NODE_STORE", str(8 * 2**30)))
    cluster = Cluster()
    cluster.add_node(num_cpus=cpus_per_node, include_dashboard=False,
                     object_store_memory=node_store)
    for _ in range(n_nodes - 1):
        cluster.add_node(num_cpus=cpus_per_node,
                         object_store_memory=node_store)
    ray.init(address=cluster.address, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    alive = len([n for n in ray.nodes() if n["Alive"]])
    head = run_headline()
    print(json.dumps({
        "metric": "cdc_ingest_sec",
        "value": round(head["sec"], 3),
        "nodes": alive,
        "cpus_per_node": cpus_per_node,
        "events": head["events"],
        "events_per_sec": round(head["events_per_sec"], 1),
    }))
    ray.shutdown()
    cluster.shutdown()


def nodes_scaling() -> None:
    """The north rule verbatim: the SAME job on an N-node and a 4N-node
    Ray cluster (simulated locally with ray.cluster_utils.Cluster — one
    raylet + plasma store per node, so scheduling and object movement
    are genuinely multi-node; the 'shared storage' is the local FS).
    Node counts via GRAFT_NODE_LEVELS (default "1,4" × 4 CPUs/node)."""
    levels = [int(x) for x in
              os.environ.get("GRAFT_NODE_LEVELS", "1,4").split(",")]

    def run(n_nodes: int) -> dict:
        env = dict(os.environ, GRAFT_NODES=str(n_nodes),
                   GRAFT_BENCH_QUERIES="0", GRAFT_BENCH_DISK="0")
        env.setdefault("GRAFT_BENCH_EVENTS", "16000000")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py"), "--nodes-child"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = levels[0], levels[-1]
    r_lo = run(lo)
    time.sleep(5)
    r_hi = run(hi)
    eff = (r_hi["events_per_sec"] / r_lo["events_per_sec"]) / (hi / lo)
    print(json.dumps({
        "metric": "node_scaling_efficiency",
        f"sec_{lo}_nodes": r_lo["value"],
        f"sec_{hi}_nodes": r_hi["value"],
        f"events_per_sec_{lo}_nodes": r_lo["events_per_sec"],
        f"events_per_sec_{hi}_nodes": r_hi["events_per_sec"],
        "cpus_per_node": r_lo["cpus_per_node"],
        "node_ratio": hi / lo,
        "scaling_efficiency": round(eff, 3),
        "events": r_lo["events"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--steady" in sys.argv:
        steady_state()
    elif "--endurance" in sys.argv:
        endurance()
    elif "--north" in sys.argv:
        north()
    elif "--dedup-stress" in sys.argv:
        dedup_stress()
    elif "--nodes-dedup-child" in sys.argv:
        _nodes_dedup_child()
    elif "--nodes-dedup" in sys.argv:
        nodes_dedup_scaling()
    elif "--nodes" in sys.argv:
        nodes_scaling()
    elif "--nodes-child" in sys.argv:
        _multinode_child()
    else:
        main()
