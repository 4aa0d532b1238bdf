"""CLI — the reference's 5-command surface (``main.py:26-83``: download /
db init / db load / db index / complete) re-mapped to the CDC engine:

    init      create a lake table from a base snapshot (≈ db init + load)
    ingest    replay pending change-log segments      (≈ monthly re-load)
    validate  pre-flight manifest + post-commit invariant gate (≈ FK phase)
    compact   tombstone GC / snapshot rewrite         (≈ index phase, P9)
    synth     generate deterministic test data        (no reference analog)
    bench     see bench.py

CLI entry points own their Ray session (guarded init, shutdown at exit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="rfb-cnpj-etl-ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("init", help="init lake table from base parquet")
    sp.add_argument("lake")
    sp.add_argument("base_parquet", nargs="+")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--num-partitions", type=int, default=32)

    sp = sub.add_parser("ingest", help="replay pending change-log segments")
    sp.add_argument("lake")
    sp.add_argument("log_dir")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--write-mode", default="cow", choices=["cow", "delta"])
    sp.add_argument("--batch-size", type=int, default=None)

    sp = sub.add_parser("validate", help="manifest + lake invariant gates")
    sp.add_argument("lake")
    sp.add_argument("--log-dir", default=None)
    sp.add_argument("--table", default="sequences")

    sp = sub.add_parser(
        "lineage",
        help="per-partition audit trail: epochs/segments behind each file")
    sp.add_argument("lake")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--part", type=int, default=None)

    sp = sub.add_parser("compact", help="tombstone GC below an LSN watermark")
    sp.add_argument("lake")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--watermark-lsn", type=int, default=None)

    sp = sub.add_parser("repartition", help="change the hash-partition count")
    sp.add_argument("lake")
    sp.add_argument("new_num_partitions", type=int)
    sp.add_argument("--table", default="sequences")

    sp = sub.add_parser("tail", help="poll the log and ingest continuously")
    sp.add_argument("lake")
    sp.add_argument("log_dir")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--poll-interval", type=float, default=2.0)
    sp.add_argument("--idle-rounds", type=int, default=5)
    sp.add_argument("--remote-log-dir", default=None,
                    help="mirror this remote log (resumable fetch) each round")

    sp = sub.add_parser("compact-deltas",
                        help="size-tiered delta fold (no GC spike)")
    sp.add_argument("lake")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--min-delta-ratio", type=float, default=0.2)

    sp = sub.add_parser("gc", help="delete snapshots superseded by newer commits")
    sp.add_argument("lake")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--keep-commits", type=int, default=2)

    sp = sub.add_parser("changes",
                        help="change-data feed between two committed epochs")
    sp.add_argument("lake")
    sp.add_argument("from_epoch", type=int)
    sp.add_argument("to_epoch", type=int, nargs="?", default=None)
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--out-dir", default=None,
                    help="write the feed as parquet instead of printing "
                         "a summary")

    sp = sub.add_parser("replicate",
                        help="incrementally replicate one lake into another")
    sp.add_argument("src_lake")
    sp.add_argument("dst_lake")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--num-partitions", type=int, default=None,
                    help="dst partition count on first replication "
                         "(default: same as src)")

    sp = sub.add_parser("lookup",
                        help="point-read doc_ids (zone-map pruned, no scan)")
    sp.add_argument("lake")
    sp.add_argument("doc_ids", nargs="+")
    sp.add_argument("--table", default="sequences")

    sp = sub.add_parser("merge",
                        help="MERGE INTO: apply a payload parquet as one "
                             "upsert epoch (optionally full-snapshot sync)")
    sp.add_argument("lake")
    sp.add_argument("source_parquet")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--delete-missing", action="store_true",
                    help="also delete lake keys absent from the source")
    sp.add_argument("--assume-unique", action="store_true",
                    help="skip the source doc_id uniqueness gate (for "
                         "pre-deduplicated sources; duplicate doc_ids then "
                         "merge nondeterministically under the same-LSN "
                         "tie rule)")

    sp = sub.add_parser("export", help="export lake state through a sink")
    sp.add_argument("lake")
    sp.add_argument("out_dir")
    sp.add_argument("--table", default="sequences")
    sp.add_argument("--sink", default="parquet",
                    choices=["parquet", "ipc", "csv"])

    sp = sub.add_parser("fetch", help="mirror a remote change-log (resume)")
    sp.add_argument("remote_log_dir")
    sp.add_argument("local_log_dir")

    sp = sub.add_parser("load-cnpj", help="full load of CNPJ zip archives")
    sp.add_argument("lake")
    sp.add_argument("zips", nargs="+")
    sp.add_argument("--num-partitions", type=int, default=32)
    sp.add_argument("--overwrite", action="store_true")

    sp = sub.add_parser(
        "complete",
        help="reference 'complete' analog: fetch CNPJ zips (resumable, "
             "File/Http transport) + full load + validate")
    sp.add_argument("remote", help="source dir or http(s) base URL")
    sp.add_argument("lake")
    sp.add_argument("--work-dir", default=None,
                    help="download dir (default <lake>/_downloads)")
    sp.add_argument("--files", default=None,
                    help="comma-separated zip names (required for http "
                         "sources, which cannot be listed)")
    sp.add_argument("--num-partitions", type=int, default=32)
    sp.add_argument("--overwrite", action="store_true")
    # 1:1 flag parity with the reference's `complete` (main.py:71-83)
    sp.add_argument("--skip-validation", action="store_true",
                    help="skip the post-load invariant gate (reference "
                         "--skip-validation)")
    sp.add_argument("--skip-index", action="store_true",
                    help="accepted for reference-CLI parity: the engine's "
                         "index analog (doc_id-sorted snapshots + parquet "
                         "zone-map stats) is built inline by the merge at "
                         "no separate cost, so there is no step to skip")
    sp.add_argument("--low-memory", action="store_true",
                    help="quarter the merge batch size (reference "
                         "--low-memory BATCH_RATIO shrink)")
    sp.add_argument("--workers", type=int, default=None,
                    help="cap concurrent zip downloads (reference --workers)")
    sp.add_argument("--clean", action="store_true",
                    help="remove previously downloaded files first "
                         "(reference --clean)")

    sp = sub.add_parser("synth", help="generate deterministic base+log data")
    sp.add_argument("out_dir")
    sp.add_argument("--docs", type=int, default=10_000)
    sp.add_argument("--events", type=int, default=100_000)
    sp.add_argument("--segments", type=int, default=8)
    sp.add_argument("--seed", type=int, default=42)

    args = p.parse_args(argv)

    if args.cmd == "synth":  # no Ray needed
        from rfb_cnpj_etl_ray.synth import synth_dataset

        root = synth_dataset(args.out_dir, n_docs=args.docs,
                             n_events=args.events, n_segments=args.segments,
                             seed=args.seed)
        print(json.dumps({"out": str(root), "docs": args.docs,
                          "events": args.events}))
        return 0

    if args.cmd == "lineage":  # commit-log walk only — no Ray needed
        from rfb_cnpj_etl_ray.pipelines.maintenance import partition_lineage

        print(json.dumps(partition_lineage(
            args.lake, table=args.table, part=args.part), indent=2))
        return 0

    import ray

    owns_session = not ray.is_initialized()
    _ray_session(args.num_cpus)

    try:
        if args.cmd == "init":
            from rfb_cnpj_etl_ray.config import EngineConfig
            from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_distributed
            from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec

            rec = init_lake_distributed(
                args.lake,
                TableSpec(name=args.table, schema=PAYLOAD_SCHEMA),
                args.base_parquet,
                cfg=EngineConfig(num_partitions=args.num_partitions),
            )
            print(json.dumps({"epoch": rec["epoch"],
                              "rows": rec["metrics"]["rows_total"]}))
        elif args.cmd == "ingest":
            from rfb_cnpj_etl_ray.config import EngineConfig
            from rfb_cnpj_etl_ray.pipelines.ingest import ingest

            kw = {"write_mode": args.write_mode}
            if args.batch_size:
                kw["batch_size"] = args.batch_size
            report = ingest(args.lake, args.log_dir, table=args.table,
                            cfg=EngineConfig(**kw))
            print(json.dumps(report))
        elif args.cmd == "validate":
            from rfb_cnpj_etl_ray.pipelines.maintenance import validate_lake
            from rfb_cnpj_etl_ray.state.manifest import validate_segments

            out = {}
            if args.log_dir:
                out["manifest"] = validate_segments(args.log_dir, strict=False)
            out["lake"] = validate_lake(args.lake, args.table, strict=False)
            print(json.dumps(out))
            return 0 if out["lake"]["ok"] else 1
        elif args.cmd == "compact":
            from rfb_cnpj_etl_ray.pipelines.maintenance import compact

            print(json.dumps(compact(args.lake, args.table,
                                     watermark_lsn=args.watermark_lsn)))
        elif args.cmd == "repartition":
            from rfb_cnpj_etl_ray.pipelines.maintenance import repartition_lake

            print(json.dumps(repartition_lake(
                args.lake, args.new_num_partitions, args.table)))
        elif args.cmd == "tail":
            from rfb_cnpj_etl_ray.pipelines.ingest import tail

            print(json.dumps(tail(
                args.lake, args.log_dir, table=args.table,
                poll_interval=args.poll_interval,
                idle_rounds_to_stop=args.idle_rounds,
                remote_log_dir=args.remote_log_dir)))
        elif args.cmd == "compact-deltas":
            from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas

            print(json.dumps(compact_deltas(
                args.lake, args.table,
                min_delta_ratio=args.min_delta_ratio)))
        elif args.cmd == "gc":
            from rfb_cnpj_etl_ray.pipelines.maintenance import gc_snapshots

            print(json.dumps(gc_snapshots(args.lake, args.table,
                                          keep_commits=args.keep_commits)))
        elif args.cmd == "changes":
            from rfb_cnpj_etl_ray.pipelines.ingest import lake_changes

            feed = lake_changes(args.lake, args.from_epoch,
                                to_epoch=args.to_epoch, table=args.table)
            if args.out_dir:
                feed.write_parquet(args.out_dir)
                print(json.dumps({"out": args.out_dir}))
            else:
                counts: dict[str, int] = {}
                for batch in feed.iter_batches(batch_format="pyarrow"):
                    g = batch.group_by("change_type").aggregate(
                        [([], "count_all")])
                    for kind, n in zip(g.column("change_type").to_pylist(),
                                       g.column("count_all").to_pylist()):
                        counts[kind] = counts.get(kind, 0) + n
                print(json.dumps({"changes": counts}))
        elif args.cmd == "replicate":
            from rfb_cnpj_etl_ray.pipelines.ingest import replicate

            print(json.dumps(replicate(
                args.src_lake, args.dst_lake, table=args.table,
                num_partitions=args.num_partitions)))
        elif args.cmd == "lookup":
            from rfb_cnpj_etl_ray.pipelines.ingest import lookup

            t = lookup(args.lake, args.doc_ids, table=args.table)
            print(json.dumps({"rows": t.to_pylist()}, default=str))
        elif args.cmd == "merge":
            from rfb_cnpj_etl_ray.pipelines.ingest import merge_into
            from rfb_cnpj_etl_ray.sources.parquet import (
                read_table,
                sized_blocks,
            )

            src = read_table(
                args.source_parquet,
                override_num_blocks=sized_blocks([args.source_parquet]))
            print(json.dumps(merge_into(
                args.lake, src, table=args.table,
                delete_missing=args.delete_missing,
                validate_unique=not args.assume_unique)))
        elif args.cmd == "export":
            from rfb_cnpj_etl_ray.sinks import export_lake

            print(json.dumps(export_lake(
                args.lake, args.out_dir, table=args.table, sink=args.sink)))
        elif args.cmd == "fetch":
            from rfb_cnpj_etl_ray.sources.fetcher import fetch_manifest_segments

            reports = fetch_manifest_segments(args.remote_log_dir,
                                              args.local_log_dir)
            print(json.dumps({"segments": len(reports),
                              "bytes": sum(r["bytes"] for r in reports)}))
        elif args.cmd == "complete":
            from pathlib import Path

            from rfb_cnpj_etl_ray.cnpj import load_cnpj_files
            from rfb_cnpj_etl_ray.config import EngineConfig
            from rfb_cnpj_etl_ray.pipelines.maintenance import validate_lake
            from rfb_cnpj_etl_ray.sources.fetcher import (
                FileTransport,
                HttpTransport,
                fetch_segments,
            )

            # the reference's `complete` command (main.py: download +
            # load + patch, orchestrator.run_orchestrator) as one
            # resumable engine run: crash anywhere and re-run — fetched
            # zips short-circuit, committed tables are idempotent
            work = Path(args.work_dir or (Path(args.lake) / "_downloads"))
            if args.clean and work.exists():
                import shutil as _shutil

                _shutil.rmtree(work)
            if args.remote.startswith(("http://", "https://")):
                if not args.files:
                    raise SystemExit("--files is required for http sources")
                transport = HttpTransport(args.remote)
                names = [f.strip() for f in args.files.split(",")]
            else:
                transport = FileTransport(args.remote)
                names = sorted(
                    p.name for p in Path(args.remote).glob("*.zip")
                ) if not args.files else                     [f.strip() for f in args.files.split(",")]
            fetched = fetch_segments(transport, names, work,
                                     max_parallel=args.workers)
            cfg_kw = {"num_partitions": args.num_partitions}
            if args.low_memory:
                cfg_kw["batch_size"] = EngineConfig().batch_size // 4
            out = load_cnpj_files(
                [str(work / n) for n in names], args.lake,
                cfg=EngineConfig(**cfg_kw),
                overwrite=args.overwrite,
            )
            result = {
                "fetched": {r["name"]: r["bytes"] for r in fetched},
                "tables": {t: rec["metrics"]["rows_total"]
                           for t, rec in out.items()},
            }
            if not args.skip_validation:
                result["validated"] = {
                    t: validate_lake(args.lake, t, strict=False)["ok"]
                    for t in out}
            print(json.dumps(result))
        elif args.cmd == "load-cnpj":
            from rfb_cnpj_etl_ray.cnpj import load_cnpj_files
            from rfb_cnpj_etl_ray.config import EngineConfig

            out = load_cnpj_files(
                args.zips, args.lake,
                cfg=EngineConfig(num_partitions=args.num_partitions),
                overwrite=args.overwrite,
            )
            print(json.dumps({
                t: {"rows": rec["metrics"]["rows_total"]}
                for t, rec in out.items()
            }))
    finally:
        if owns_session:  # don't tear down a caller-owned session
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
