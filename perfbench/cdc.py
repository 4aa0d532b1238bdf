"""The three change-log workloads: ``bulk_replay``, ``tail_epochs`` and
``skewed_mixed``.

Each workload is three functions: ``setup`` (inputs from the seed, lake
init, warm-up; repeated by the runner so it can report a median),
``measure`` (the timed region) and ``check`` (the correctness gate,
untimed). Inputs come from ``rfb_cnpj_etl_ray.synth``; the engine only
ever sees the generated files. With tracing on, ``measure`` alternates
traced and untraced units of work, and afterwards replays one epoch's
segments through the two merge phases in-process on a copy of the lake.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import time
from contextlib import contextmanager
from statistics import mean
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import hi_percentile, median
from gate import check_lake, check_lookup

TABLE = "sequences"
PARTITIONS = 16
MAX_LEN = 64                      # tokens per document, upper bound

BULK_DOCS, BULK_EVENTS, BULK_SEGMENTS = 20_000, 100_000, 8
TAIL_DOCS, TAIL_EPOCH_EVENTS = 20_000, 2_000
TAIL_EPOCHS_PER_S = 3             # epochs per second of --seconds
SKEW_DOCS, SKEW_EPOCHS, SKEW_EPOCH_EVENTS = 20_000, 6, 15_000
SKEW_ZIPF_A, SKEW_OP_MIX = 1.6, (0.4, 0.3, 0.3)
LOOKUP_KEYS_PER_KIND = 20
LOOKUPS_PER_PHASE_PER_S = 10     # lookups per phase per second of --seconds
FIRST_LSN = 1_000_000


# ---------------------------------------------------------------------------
# inputs and lake helpers
# ---------------------------------------------------------------------------

def _spec():
    from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec

    return TableSpec(name=TABLE, schema=PAYLOAD_SCHEMA)


def _cfg(write_mode: str = "cow"):
    from rfb_cnpj_etl_ray.config import EngineConfig

    return EngineConfig(num_partitions=PARTITIONS, write_mode=write_mode)


def write_base(path: Path, n_docs: int, seed: int) -> None:
    from rfb_cnpj_etl_ray.synth import make_base

    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(make_base(n_docs, seed=seed, max_len=MAX_LEN), path,
                   compression="zstd")


def init_lake_from(lake: Path, base_path: Path) -> None:
    from rfb_cnpj_etl_ray.state.commitlog import init_lake

    init_lake(lake, _spec(), base=pq.read_table(base_path),
              num_partitions=PARTITIONS)


def write_segment(log_dir: Path, name: str, events: pa.Table) -> dict:
    """One segment file plus its manifest entry (the producer's side)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    path = log_dir / name
    pq.write_table(events, path, compression="zstd")
    lsn = events.column("lsn").to_numpy()
    return {"name": name, "rows": events.num_rows, "min_lsn": int(lsn.min()),
            "max_lsn": int(lsn.max()), "bytes": os.path.getsize(path)}


def publish(log_dir: Path, entries: list[dict]) -> None:
    """Atomically replace ``manifest.json`` with ``entries``."""
    tmp = log_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps({"segments": entries}))
    os.replace(tmp, log_dir / "manifest.json")


def changelog(n_events: int, n_docs: int, seed: int, start_lsn: int,
              **kw) -> pa.Table:
    from rfb_cnpj_etl_ray.synth import make_changelog

    return make_changelog(n_events, n_docs, seed=seed, start_lsn=start_lsn,
                          max_len=MAX_LEN, **kw)


def read_events(log_dir: Path, names: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(log_dir / n) for n in names],
                            promote_options="permissive")


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def oracle_state(run, base: pa.Table, events: pa.Table) -> pa.Table:
    """``oracle.replay``, timed for ``oracle.replay_events_per_s``."""
    from rfb_cnpj_etl_ray.oracle import replay

    t0 = time.perf_counter()
    state = replay(base, events)
    run.oracle_events += events.num_rows
    run.oracle_s += time.perf_counter() - t0
    return state


def warm_up(run, d: Path) -> None:
    """Touch every engine path the workloads time, on a throwaway lake:
    delta ingest, size-tiered fold, merge-on-read scan, point lookup."""
    from rfb_cnpj_etl_ray.pipelines.ingest import ingest, lookup, read_lake
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas

    write_base(d / "base.parquet", 200, seed=run.seed)
    init_lake_from(d / "lake", d / "base.parquet")
    ev = changelog(500, 200, seed=run.seed, start_lsn=FIRST_LSN)
    publish(d / "log", [write_segment(d / "log", "seg-00000.parquet", ev)])
    g = run.guard
    g.call("warm-up ingest", ingest, d / "lake", d / "log",
           cfg=_cfg("delta"))
    g.call("warm-up compact_deltas", compact_deltas, d / "lake",
           min_delta_ratio=0.0, cfg=_cfg("delta"))
    g.call("warm-up read_lake", lambda: read_lake(d / "lake").count())
    g.call("warm-up lookup", lookup, d / "lake", ["doc00000001"])


# ---------------------------------------------------------------------------
# tracing: wrappers around the driver-side layer calls
# ---------------------------------------------------------------------------

@contextmanager
def instrument(tracer):
    """Record spans around the public layer functions the engine calls on
    the driver: manifest validation, commit-log reads and appends, and
    partition-state loads (lookups). Restores the originals on exit."""
    from rfb_cnpj_etl_ray.stages import merge as merge_mod
    from rfb_cnpj_etl_ray.state.commitlog import CommitLog

    # the package re-exports the ``ingest`` function under the module name
    ingest_mod = importlib.import_module("rfb_cnpj_etl_ray.pipelines.ingest")
    orig = (ingest_mod.validate_segments, CommitLog.latest, CommitLog.append,
            merge_mod.load_partition_state)

    def append(self, record):
        with tracer.span("commitlog.append") as a:
            path = orig[2](self, record)
            a["bytes"] = path.stat().st_size
            return path

    def load_state(table_dir, rels, int_sch):
        with tracer.span("merge.load_partition_state", files=len(rels)):
            return orig[3](table_dir, rels, int_sch)

    ingest_mod.validate_segments = tracer.wrap("manifest.validate", orig[0])
    CommitLog.latest = tracer.wrap("commitlog.latest", orig[1])
    CommitLog.append = append
    merge_mod.load_partition_state = load_state
    try:
        yield
    finally:
        (ingest_mod.validate_segments, CommitLog.latest, CommitLog.append,
         merge_mod.load_partition_state) = orig


def traced_call(run, traced: bool, name: str, fn, *args, **kwargs):
    """One counted engine call, inside a span and the layer wrappers when
    ``traced``. Returns (result, wall seconds)."""
    t0 = time.perf_counter()
    if traced:
        with instrument(run.tracer), run.tracer.span(name):
            out = run.guard.call(name, fn, *args, **kwargs)
    else:
        out = run.guard.call(name, fn, *args, **kwargs)
    return out, time.perf_counter() - t0


def inprocess_replay(run, lake: Path, log_dir: Path, names: list[str],
                     write_mode: str) -> None:
    """Phase 1 (``make_stage_partitioner``) and phase 2
    (``make_partition_merger``) of one epoch, called in this process on
    ``lake`` (a copy) with no Ray scheduler, every call inside a span.
    Fills the ``merge.*``, ``hashing.*`` and ``commitlog.write_table_s``
    metrics."""
    from rfb_cnpj_etl_ray.hashing import partition_ids
    from rfb_cnpj_etl_ray.spec import schema_from_jsonable, schema_to_jsonable
    from rfb_cnpj_etl_ray.stages import merge as merge_mod
    from rfb_cnpj_etl_ray.state.commitlog import CommitLog

    tr = run.tracer
    table_dir = lake / TABLE
    last = CommitLog(table_dir).latest()
    payload = schema_from_jsonable(last["schema"])
    epoch = last["epoch"] + 1
    staging = table_dir / "_staging" / f"trace-{epoch:06d}"
    stage = merge_mod.make_stage_partitioner(
        payload, PARTITIONS, str(staging),
        min_lsn_exclusive=last.get("compaction_watermark"))
    rows_in = rows_out = 0
    part_rows = np.zeros(PARTITIONS, dtype=np.int64)
    with tr.span("merge.stage"):
        for name in names:
            with tr.span("segment.read"):
                seg = pq.read_table(log_dir / name)
            part_rows += np.bincount(
                partition_ids(seg.column("doc_id"), PARTITIONS),
                minlength=PARTITIONS)
            for batch in seg.to_batches(max_chunksize=_cfg().batch_size):
                with tr.span("merge.stage_batch"):
                    stats = stage(pa.Table.from_batches([batch]))
                rows_in += batch.num_rows
                rows_out += sum(r for p, r in zip(stats["part"].to_pylist(),
                                                  stats["rows"].to_pylist())
                                if p >= 0)
    chunks = list(staging.rglob("stage-*.arrow"))
    touched = sorted({int(c.parent.name.split("=")[1]) for c in chunks})
    merge = merge_mod.make_partition_merger(
        str(table_dir), str(staging), epoch,
        {int(k): [f for f in [v.get("file")] + list(v.get("deltas", []))
                  if f is not None]
         for k, v in last["partitions"].items()},
        schema_to_jsonable(payload), write_mode=write_mode)
    orig_write = merge_mod.atomic_write_table
    merge_mod.atomic_write_table = tr.wrap("commitlog.write_table", orig_write)
    snapshot_bytes = 0
    try:
        for p in touched:
            with tr.span("merge.fold", part=p):
                out = merge(pa.table({"part": pa.array([p], pa.int64())}))
            snapshot_bytes += sum(out["bytes"].to_pylist())
    finally:
        merge_mod.atomic_write_table = orig_write
    folds = tr.self_times("merge.fold")
    layer = run.layer
    layer["merge.stage_s"] = sum(tr.durations("merge.stage"))
    layer["merge.stage_rows_in"] = rows_in
    layer["merge.stage_rows_out"] = rows_out
    layer["merge.reduce_ratio"] = rows_out / max(rows_in, 1)
    layer["merge.staged_bytes"] = sum(c.stat().st_size for c in chunks)
    layer["merge.staged_chunks"] = len(chunks)
    layer["merge.fold_s_total"] = sum(folds)
    layer["merge.fold_s_p50"] = median(folds)
    layer["merge.fold_s_max"] = max(folds, default=0.0)
    layer["merge.fold_skew"] = (max(folds) / median(folds)) if folds else 0.0
    layer["merge.snapshot_bytes"] = snapshot_bytes
    layer["commitlog.write_table_s"] = sum(
        tr.durations("commitlog.write_table"))
    layer["hashing.part_rows_max_over_mean"] = (
        float(part_rows.max() / part_rows.mean()) if part_rows.sum() else 0.0)
    shutil.rmtree(staging, ignore_errors=True)


def ingest_layers(run, reports: list[dict], walls: list[float]) -> None:
    """Driver-side layer metrics from the traced ingests, plus the
    orchestration share: ingest wall minus the in-process kernel time
    of the same segments (``inprocess_replay`` must have run)."""
    tr, layer = run.tracer, run.layer
    ph = [r.get("phase_seconds", {}) for r in reports]
    layer["manifest.validate_ms"] = 1000 * median(
        tr.durations("manifest.validate"))
    layer["commitlog.latest_ms"] = 1000 * median(
        tr.durations("commitlog.latest"))
    appended = tr.attrs("commitlog.append")
    layer["commitlog.commit_bytes_last"] = (appended[-1]["bytes"]
                                            if appended else 0)
    layer["ingest.setup_s"] = median([p.get("setup", 0.0) for p in ph])
    layer["ingest.stage_s"] = median([p.get("stage", 0.0) for p in ph])
    layer["ingest.merge_s"] = median([p.get("merge", 0.0) for p in ph])
    layer["ingest.commit_s"] = median(
        [r["seconds"] - sum(p.values()) for r, p in zip(reports, ph)])
    layer["ingest.partitions_touched"] = median(
        [r["partitions_touched"] for r in reports])
    kernel = layer["merge.stage_s"] + sum(tr.durations("merge.fold"))
    layer["ingest.orchestration_s"] = median(walls) - kernel


def overhead_ratio(run, traced: list[float], untraced: list[float]) -> None:
    if traced and untraced:
        run.layer["trace.overhead_ratio"] = median(traced) / median(untraced)


# ---------------------------------------------------------------------------
# bulk_replay: one large multi-segment log as a single cow epoch
# ---------------------------------------------------------------------------

def setup_bulk(run, d: Path) -> dict:
    from rfb_cnpj_etl_ray.synth import write_changelog_segments

    write_base(d / "base.parquet", BULK_DOCS, seed=run.seed)
    events = changelog(BULK_EVENTS, BULK_DOCS, seed=run.seed + 1,
                       start_lsn=FIRST_LSN)
    write_changelog_segments(events, d / "log", BULK_SEGMENTS,
                             shuffle_seed=run.seed + 2)
    init_lake_from(d / "lake-0", d / "base.parquet")
    warm_up(run, d / "warm")
    return {"dir": d, "lakes": [d / "lake-0"]}


def measure_bulk(run, st: dict) -> None:
    from rfb_cnpj_etl_ray.pipelines.ingest import ingest

    d = st["dir"]
    log_bytes = sum(p.stat().st_size for p in (d / "log").glob("*.parquet"))
    walls, rates, amps, traced_w, reports = [], [], [], [], []
    t_end = time.perf_counter() + run.seconds
    i = 0
    while i < 2 or time.perf_counter() < t_end:
        lake = d / f"lake-{i}"
        if not lake.exists():
            init_lake_from(lake, d / "base.parquet")
            st["lakes"].append(lake)
        traced = run.trace and i % 2 == 1
        before = tree_bytes(lake)
        rep, wall = traced_call(run, traced, "ingest", ingest, lake,
                                d / "log", cfg=_cfg())
        if traced:
            traced_w.append(wall)
            reports.append(rep)
        else:
            walls.append(wall)
            rates.append(rep["events_read"] / wall)
        amps.append((tree_bytes(lake) - before) / log_bytes)
        i += 1
    hi, hi_label = hi_percentile([1000 * w for w in walls])
    run.set_e2e(1000 * median(walls), hi, hi_label, median(rates),
                f"ingest of {BULK_EVENTS} events in {BULK_SEGMENTS} "
                f"segments; events/s")
    run.report("ingest_events_per_s", median(rates), "1/s")
    run.report("write_amp", median(amps), "ratio",
               "persistent lake bytes added / change-log bytes")
    run.layer["lake.write_amp"] = median(amps)
    if run.trace:
        names = sorted(p.name for p in (d / "log").glob("seg-*.parquet"))
        copy = d / "trace-lake"
        init_lake_from(copy, d / "base.parquet")
        inprocess_replay(run, copy, d / "log", names, "cow")
        run.layer["manifest.segments"] = len(names)
        ingest_layers(run, reports, traced_w)
        overhead_ratio(run, traced_w, walls)


def check_bulk(run, st: dict) -> None:
    d = st["dir"]
    names = sorted(p.name for p in (d / "log").glob("seg-*.parquet"))
    expected = oracle_state(run, pq.read_table(d / "base.parquet"),
                            read_events(d / "log", names))
    # every replay applies the same log to the same base: the first and
    # the last lake stand for all of them
    for lake in {st["lakes"][0], st["lakes"][-1]}:
        check_lake(run.workload, lake.name, lake, expected)


# ---------------------------------------------------------------------------
# tail_epochs: closed loop, one producer, one small segment per epoch
# ---------------------------------------------------------------------------

def _tail_epoch(run, st: dict, k: int, traced: bool) -> float:
    """Produce segment ``k``, republish the manifest, then ingest and
    fold deltas; returns seconds from publish to maintenance return."""
    from rfb_cnpj_etl_ray.pipelines.ingest import ingest
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas

    log = st["dir"] / "log"
    ev = changelog(TAIL_EPOCH_EVENTS, TAIL_DOCS, seed=run.seed * 7919 + k,
                   start_lsn=FIRST_LSN + k * TAIL_EPOCH_EVENTS)
    st["entries"].append(write_segment(log, f"seg-{k:05d}.parquet", ev))
    publish(log, st["entries"])
    t0 = time.perf_counter()
    rep, ingest_s = traced_call(run, traced, "ingest", ingest, st["lake"],
                                log, cfg=_cfg("delta"))
    before = _latest(st["lake"]) if traced else None
    res, _ = traced_call(run, traced, "maintenance.compact_deltas",
                         compact_deltas, st["lake"], min_delta_ratio=0.3,
                         cfg=_cfg("delta"))
    wall = time.perf_counter() - t0
    if traced:
        st["reports"].append(rep)
        st["ingest_walls"].append(ingest_s)
        st["folded"].append(res["partitions_folded"])
        st["rewritten"].append(_rewritten_bytes(st["lake"], before, res))
    return wall


def _latest(lake: Path) -> dict:
    from rfb_cnpj_etl_ray.state.commitlog import CommitLog

    return CommitLog(lake / TABLE).latest()


def _rewritten_bytes(lake: Path, before: dict, res: dict) -> int:
    if res.get("noop"):
        return 0
    after = _latest(lake)
    return sum(v["bytes"] for k, v in after["partitions"].items()
               if v.get("file") != before["partitions"][k].get("file"))


def setup_tail(run, d: Path) -> dict:
    write_base(d / "base.parquet", TAIL_DOCS, seed=run.seed)
    init_lake_from(d / "lake", d / "base.parquet")
    st = {"dir": d, "lake": d / "lake", "entries": [], "reports": [],
          "ingest_walls": [], "folded": [], "rewritten": []}
    warm_up(run, d / "warm")
    _tail_epoch(run, st, 0, traced=False)    # warm epoch: not timed
    return st


def measure_tail(run, st: dict) -> None:
    # a fixed epoch count per run length, not a deadline: with a deadline
    # a faster engine would run more epochs, grow more history, and hide
    # part of its own gain in the later, slower epochs
    n_epochs = max(10, round(run.seconds * TAIL_EPOCHS_PER_S))
    epochs, traced_w = [], []
    for k in range(1, n_epochs + 1):
        traced = run.trace and k % 2 == 0
        wall = _tail_epoch(run, st, k, traced)
        (traced_w if traced else epochs).append(1000 * wall)
    st["epochs"] = produced = n_epochs + 1    # the warm epoch included
    n = len(epochs)
    fifth = max(1, n // 5)
    growth = median(epochs[-fifth:]) / median(epochs[:fifth])
    hi, hi_label = hi_percentile(epochs)
    rate = median([TAIL_EPOCH_EVENTS / (ms / 1000) for ms in epochs])
    run.set_e2e(median(epochs), hi, hi_label, rate,
                f"epoch = publish -> ingest + compact_deltas of "
                f"{TAIL_EPOCH_EVENTS} events; events/s")
    run.report("epoch_ms_p50", median(epochs), "ms", f"n={n}")
    run.report("epoch_ms_hi", hi, "ms", hi_label)
    run.report("epoch_growth", growth, "ratio",
               f"median of last {fifth} / first {fifth} epochs")
    log_bytes = tree_bytes(st["lake"] / TABLE / "_commit_log") / produced
    run.report("commit_log_bytes_per_epoch", log_bytes, "B",
               f"{produced} producer epochs incl. the warm one")
    run.report("sustainable_events_per_s", rate, "1/s",
               "closed loop, one producer")
    run.layer["ingest.epoch_growth"] = growth
    run.layer["commitlog.log_bytes_per_epoch"] = log_bytes
    if run.trace:
        tr = run.tracer
        run.layer["manifest.segments"] = len(st["entries"])
        run.layer["maintenance.compact_deltas_ms"] = 1000 * median(
            tr.durations("maintenance.compact_deltas"))
        # folds come in bursts (every partition crosses the 0.3 ratio at
        # about the same epoch), so these are means per call
        run.layer["maintenance.partitions_folded"] = mean(st["folded"])
        run.layer["maintenance.bytes_rewritten"] = mean(st["rewritten"])
        copy = st["dir"] / "trace-lake"
        shutil.copytree(st["lake"], copy)
        inprocess_replay(run, copy, st["dir"] / "log",
                         [st["entries"][-1]["name"]], "delta")
        ingest_layers(run, st["reports"], st["ingest_walls"])
        overhead_ratio(run, traced_w, epochs)


def check_tail(run, st: dict) -> None:
    d = st["dir"]
    expected = oracle_state(
        run, pq.read_table(d / "base.parquet"),
        read_events(d / "log", [e["name"] for e in st["entries"]]))
    check_lake(run.workload, f"after {st['epochs']} epochs", st["lake"],
               expected)


# ---------------------------------------------------------------------------
# skewed_mixed: heavy-skew delta epochs, point lookups between them, then
# a merge-on-read scan, compact, and a second scan
# ---------------------------------------------------------------------------

def _doc_ids(idx) -> list[str]:
    return [f"doc{int(i):08d}" for i in idx]


def setup_skewed(run, d: Path) -> dict:
    write_base(d / "base.parquet", SKEW_DOCS, seed=run.seed)
    init_lake_from(d / "lake", d / "base.parquet")
    log = d / "log"
    epochs = []
    for e in range(SKEW_EPOCHS):
        ev = changelog(SKEW_EPOCH_EVENTS, SKEW_DOCS, seed=run.seed + 10 + e,
                       start_lsn=FIRST_LSN + e * SKEW_EPOCH_EVENTS,
                       zipf_a=SKEW_ZIPF_A, op_mix=SKEW_OP_MIX)
        half = ev.num_rows // 2
        epochs.append([write_segment(log, f"seg-{2 * e + j:05d}.parquet", part)
                       for j, part in enumerate(
                           (ev.slice(0, half), ev.slice(half)))])
    rng = np.random.default_rng(run.seed + 99)
    n = LOOKUP_KEYS_PER_KIND
    keys = (_doc_ids(rng.integers(0, 8, n))                        # hot
            + _doc_ids(rng.integers(SKEW_DOCS // 2, SKEW_DOCS, n))  # cold
            + _doc_ids(rng.integers(90_000_000, 99_999_999, n)))    # absent
    warm_up(run, d / "warm")
    return {"dir": d, "lake": d / "lake", "epochs": epochs,
            "keys": keys, "lookups": []}


def _lookups(run, st: dict, epoch: int, samples: dict):
    """Single-key lookups cycling hot/cold/absent keys, a fixed number per
    phase (scaled by ``--seconds``). A time budget per phase would give
    the faster early phases (fewer delta files) more samples, and the
    median would jump between the phases' latency modes."""
    from rfb_cnpj_etl_ray.pipelines.ingest import lookup

    keys = st["keys"]
    n = LOOKUP_KEYS_PER_KIND
    for i in range(max(3, round(run.seconds * LOOKUPS_PER_PHASE_PER_S))):
        key = keys[(i % 3) * n + (i // 3) % n]
        traced = run.trace and i % 2 == 1
        got, wall = traced_call(run, traced, "lookup", lookup, st["lake"],
                                [key])
        samples["traced" if traced else "untraced"].append(1000 * wall)
        st["lookups"].append((epoch, key, got))


def measure_skewed(run, st: dict) -> None:
    from rfb_cnpj_etl_ray.pipelines.ingest import ingest
    from rfb_cnpj_etl_ray.pipelines.maintenance import compact

    d, lake = st["dir"], st["lake"]
    entries, rates, reports, ingest_w = [], [], [], []
    samples = {"traced": [], "untraced": []}
    lake_before = tree_bytes(lake)
    for e, segs in enumerate(st["epochs"]):
        _lookups(run, st, e, samples)
        entries += segs
        publish(d / "log", entries)
        if run.trace and e == SKEW_EPOCHS - 1:
            shutil.copytree(lake, d / "trace-lake")
        traced = run.trace and e % 2 == 1
        rep, wall = traced_call(run, traced, "ingest", ingest, lake,
                                d / "log", cfg=_cfg("delta"))
        rates.append(rep["events_read"] / wall)
        if traced:
            reports.append(rep)
            ingest_w.append(wall)
    _lookups(run, st, SKEW_EPOCHS, samples)
    log_bytes = sum(e["bytes"] for e in entries)
    write_amp = (tree_bytes(lake) - lake_before) / log_bytes
    committed = _latest(lake)
    referenced = sum(os.path.getsize(lake / TABLE / rel) for rels in
                     _file_lists(committed) for rel in rels)
    delta_files = sum(len(rels) - 1 for rels in _file_lists(committed))
    rows, scan_s = _scan(run, lake)
    _, compact_s = traced_call(run, run.trace, "maintenance.compact",
                               compact, lake, cfg=_cfg("delta"))
    _scan(run, lake)
    st["referenced"] = referenced
    lk = samples["untraced"]
    hi, hi_label = hi_percentile(lk)
    run.set_e2e(median(lk), hi, hi_label, median(rates),
                f"single-key lookup; ingest events/s over {SKEW_EPOCHS} "
                f"delta epochs of {SKEW_EPOCH_EVENTS}")
    run.report("ingest_events_per_s", median(rates), "1/s")
    run.report("lookup_ms_p50", median(lk), "ms", f"n={len(lk)}")
    run.report("lookup_ms_hi", hi, "ms", hi_label)
    run.report("scan_rows_per_s", rows / scan_s, "1/s",
               f"{rows} live rows, {delta_files} delta files")
    run.report("compact_s", compact_s, "s")
    run.report("write_amp", write_amp, "ratio",
               "persistent lake bytes added / change-log bytes")
    run.layer["lake.write_amp"] = write_amp
    run.layer["scan.rows_per_s"] = rows / scan_s
    run.layer["scan.delta_files"] = delta_files
    run.layer["maintenance.compact_s"] = compact_s
    if run.trace:
        tr = run.tracer
        loads = tr.attrs("merge.load_partition_state")
        n_lookup = len(tr.durations("lookup"))
        run.layer["lookup.partitions_read"] = len(loads) / max(n_lookup, 1)
        run.layer["lookup.files_read"] = (sum(a["files"] for a in loads)
                                          / max(n_lookup, 1))
        run.layer["manifest.segments"] = len(entries)
        after = _latest(lake)
        run.layer["maintenance.partitions_folded"] = len(after["partitions"])
        run.layer["maintenance.bytes_rewritten"] = sum(
            v["bytes"] for v in after["partitions"].values())
        last = [s["name"] for s in st["epochs"][-1]]
        inprocess_replay(run, d / "trace-lake", d / "log", last, "delta")
        ingest_layers(run, reports, ingest_w)
        overhead_ratio(run, samples["traced"], lk)


def _file_lists(commit: dict) -> list[list[str]]:
    return [[f for f in [v.get("file")] + list(v.get("deltas", [])) if f]
            for v in commit["partitions"].values()]


def _scan(run, lake: Path) -> tuple[int, float]:
    """Materialize the full merge-on-read scan; (live rows, seconds)."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    t0 = time.perf_counter()
    rows = run.guard.call("read_lake", lambda: read_lake(lake).materialize()
                          .count())
    return rows, time.perf_counter() - t0


def check_skewed(run, st: dict) -> None:
    d = st["dir"]
    state = pq.read_table(d / "base.parquet")
    states = [state]
    for segs in st["epochs"]:
        state = oracle_state(run, state,
                             read_events(d / "log", [s["name"] for s in segs]))
        states.append(state)
    for epoch, key, got in st["lookups"]:
        check_lookup(run.workload, [key], got, states[epoch])
    # compact dropped tombstones only: the live state is unchanged, and
    # the merge-on-read state before it stays readable by time travel
    check_lake(run.workload, "after compact", st["lake"], states[-1])
    check_lake(run.workload, "before compact", st["lake"], states[-1],
               as_of=_latest(st["lake"])["parent"])
    final = d / "oracle-final.parquet"
    pq.write_table(states[-1], final, compression="zstd")
    space_amp = st["referenced"] / final.stat().st_size
    run.report("space_amp", space_amp, "ratio",
               "bytes referenced before compact / oracle state as zstd")
    run.layer["lake.space_amp"] = space_amp
