"""Benchmark entry point for the CDC lake engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs one workload (``bulk_replay``, ``tail_epochs``, ``skewed_mixed`` or
``corpus_ops``; see README.md in this directory) against the engine's
public API in a fresh local Ray session, checks every output against the
oracle, prints each metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones. Everything the
run writes goes under ``.bench_run/`` next to this directory.

Exit code: 0 when every operation succeeded and every output matched,
1 when the run printed a result with failures or mismatches, 2 when the
engine package is missing (nothing is measured).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time
import traceback
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    Guard,
    Tracer,
    calibration_probe,
    kill_descendants,
    median,
    tree_peak_rss_mb,
)

#: logical CPUs given to Ray whatever the machine has. At 1 logical CPU
#: ``top_tokens`` deadlocks (its hash-shuffle aggregator actors take the
#: only CPU and starve the map tasks) and at 2 ``certified_topk_tokens``
#: stalls; 4 completes every workload, also on a 1-core machine.
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
SETUP_REPS = 3
CALL_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0

#: the bounded metrics. ``latency_ms_hi`` is printed but not bounded: on
#: a shared VM its run-to-run spread (IQR/median of 10 runs: 0.37 for
#: lookups) is wider than any usable regression bound.
E2E = (("setup_s", "s"), ("latency_ms_p50", "ms"), ("throughput_per_s", "1/s"))

OPS = ("top_tokens", "cms_token_counts", "token_rarity_scores",
       "bloom_decontaminate", "certified_topk_tokens", "refined_quantiles")
PER_LAYER = (
    ("manifest.validate_ms", "ms"), ("manifest.segments", "count"),
    ("commitlog.latest_ms", "ms"), ("commitlog.commit_bytes_last", "B"),
    ("commitlog.write_table_s", "s"), ("commitlog.log_bytes_per_epoch", "B"),
    ("ingest.setup_s", "s"), ("ingest.stage_s", "s"), ("ingest.merge_s", "s"),
    ("ingest.commit_s", "s"), ("ingest.orchestration_s", "s"),
    ("ingest.partitions_touched", "count"), ("ingest.epoch_growth", "ratio"),
    ("merge.stage_s", "s"), ("merge.stage_rows_in", "count"),
    ("merge.stage_rows_out", "count"), ("merge.reduce_ratio", "ratio"),
    ("merge.staged_bytes", "B"), ("merge.staged_chunks", "count"),
    ("merge.fold_s_total", "s"), ("merge.fold_s_p50", "s"),
    ("merge.fold_s_max", "s"), ("merge.fold_skew", "ratio"),
    ("merge.snapshot_bytes", "B"),
    ("hashing.part_rows_max_over_mean", "ratio"),
    ("lookup.partitions_read", "count"), ("lookup.files_read", "count"),
    ("scan.delta_files", "count"), ("scan.rows_per_s", "1/s"),
    ("maintenance.compact_deltas_ms", "ms"),
    ("maintenance.partitions_folded", "count"),
    ("maintenance.bytes_rewritten", "B"), ("maintenance.compact_s", "s"),
    ("lake.write_amp", "ratio"), ("lake.space_amp", "ratio"),
    *((f"functions.{op}{suffix}", unit) for op in OPS
      for suffix, unit in (("_s", "s"), ("_driver_rows", "count"),
                           ("_output_bytes", "B"))),
    ("functions.ops_s", "s"),
    ("oracle.replay_events_per_s", "1/s"),
    ("env.calib_s", "s"), ("env.nproc", "count"), ("env.ray_cpus", "count"),
    ("ray.peak_rss_mb", "MB"), ("trace.overhead_ratio", "ratio"),
)


class Run:
    """What one benchmark run knows and reports."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, guard: Guard):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.work, self.guard = trace, work, guard
        self.tracer = Tracer(f"{workload}-{seed}-{uuid.uuid4().hex[:8]}",
                             enabled=trace)
        self.named: dict[str, tuple[float, str, str]] = {}
        self.e2e: dict[str, float] = {}
        self.e2e_notes: dict[str, str] = {}
        self.layer: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
        self.operator_stats: list[dict] = []
        self.oracle_events = 0
        self.oracle_s = 0.0
        self.correct = False

    def report(self, name: str, value: float, unit: str, note: str = ""):
        """A workload-specific end-to-end metric, printed by name."""
        self.named[name] = (value, unit, note)

    def set_e2e(self, p50_ms: float, hi_ms: float, hi_label: str,
                throughput: float, what: str) -> None:
        self.e2e.update(latency_ms_p50=p50_ms, latency_ms_hi=hi_ms,
                        throughput_per_s=throughput)
        self.e2e_notes.update(latency_ms_hi=hi_label, what=what)

    def result(self) -> dict:
        if self.trace:
            metrics = {n: {"value": self.layer.get(n, 0), "unit": u}
                       for n, u in PER_LAYER}
        else:
            metrics = {n: {"value": self.e2e.get(n, 0.0), "unit": u}
                       for n, u in E2E}
        return {"correct": self.correct and self.guard.failed == 0,
                "attempted": max(1, self.guard.attempted),
                "failed": self.guard.failed, "metrics": metrics}

    def print_report(self) -> None:
        g = self.guard
        print(f"# workload {self.workload}  seed {self.seed}  "
              f"trace {int(self.trace)}  nproc {self.layer['env.nproc']}  "
              f"ray_cpus {RAY_CPUS}  env.calib_s "
              f"{self.layer['env.calib_s']:.4f}")
        if self.e2e_notes.get("what"):
            print(f"# unit of work: {self.e2e_notes['what']}")
        for name, unit in E2E + (("latency_ms_hi", "ms"),):
            if name in self.e2e:
                note = self.e2e_notes.get(name, "")
                print(f"{name:32s} {self.e2e[name]:14.4f} {unit:6s} {note}")
        for name, (value, unit, note) in self.named.items():
            print(f"{name:32s} {value:14.4f} {unit:6s} {note}")
        print(f"{'fail_ratio':32s} {g.failed / max(1, g.attempted):14.4f} "
              f"{'ratio':6s} {g.failed}/{g.attempted} operations")
        if self.trace:
            for name, unit in PER_LAYER:
                print(f"{name:44s} {float(self.layer[name]):16.4f} {unit}")
            for s in self.operator_stats:
                print(f"  operator {s['op']}/{s['operator']}: "
                      f"rows {s['rows']} bytes {s['bytes']} "
                      f"wall_s {s['wall_s']:.4f}")
        for err in g.errors:
            print(f"FAILED {err}")


def _workloads():
    import cdc
    import corpus

    return {
        "bulk_replay": (cdc.setup_bulk, cdc.measure_bulk, cdc.check_bulk),
        "tail_epochs": (cdc.setup_tail, cdc.measure_tail, cdc.check_tail),
        "skewed_mixed": (cdc.setup_skewed, cdc.measure_skewed,
                         cdc.check_skewed),
        "corpus_ops": (corpus.setup_corpus, corpus.measure_corpus,
                       corpus.check_corpus),
    }


WORKLOADS = ("bulk_replay", "tail_epochs", "skewed_mixed", "corpus_ops")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_ray(work_root: Path) -> None:
    """A local session whose files all stay under ``work_root``. Ray's
    session sockets must fit the 107-byte AF_UNIX limit, which a deep
    checkout path can exceed, so the temp dir is named through this
    process's ``/proc/<pid>/cwd`` link (the cwd is ``work_root``)."""
    import ray
    import ray.data

    os.chdir(work_root)
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=f"/proc/{os.getpid()}/cwd/ray",
             _plasma_directory=str(work_root / "plasma"))
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    kill_descendants()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "rfb_cnpj_etl_ray" / "__init__.py").is_file():
        print(f"perfbench: the engine package rfb_cnpj_etl_ray is not in "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_run"
    work = work_root / args.workload
    shutil.rmtree(work_root, ignore_errors=True)
    for d in (work, work_root / "ray", work_root / "plasma",
              work_root / "tmp"):
        d.mkdir(parents=True)
    os.environ["TMPDIR"] = os.environ["GRAFT_TMP"] = str(work_root / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(HERE)] + [p for p in
                                  [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(ROOT))

    def on_deadline(guard: Guard) -> None:
        run.print_report()
        print(json.dumps(run.result()), flush=True)
        kill_descendants()
        os._exit(1)

    # a terminated run still unwinds through the ``finally`` below and
    # stops its Ray processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    guard = Guard(args.workload, CALL_TIMEOUT_S, RUN_DEADLINE_S, on_deadline)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work,
              guard)
    run.layer["env.calib_s"] = calibration_probe()
    run.layer["env.nproc"] = len(os.sched_getaffinity(0))
    run.layer["env.ray_cpus"] = RAY_CPUS
    setup, measure, check = _workloads()[args.workload]
    from gate import GateError

    try:
        t0 = time.perf_counter()
        guard.current = "ray.init"
        start_ray(work_root)
        ray_start_s = time.perf_counter() - t0
        setups = []
        for k in range(SETUP_REPS):
            d = work / f"setup-{k}"
            t0 = time.perf_counter()
            state = setup(run, d)
            setups.append(time.perf_counter() - t0)
            if k < SETUP_REPS - 1:
                shutil.rmtree(d)
        run.e2e["setup_s"] = ray_start_s + median(setups)
        run.e2e_notes["setup_s"] = (f"ray.init {ray_start_s:.3f} s + median "
                                    f"of {SETUP_REPS} set-ups")
        measure(run, state)
        guard.current = "correctness gate"
        check(run, state)
        run.correct = True
    except GateError as e:
        guard.errors.append(str(e))
    except Exception as e:  # noqa: BLE001 - counted and reported below
        traceback.print_exc()
        if not getattr(e, "counted", False):
            guard.attempted += 1
            guard.failed += 1
            guard.errors.append(f"{args.workload}: {guard.current}: "
                                f"{type(e).__name__}: {e}")
    finally:
        run.layer["ray.peak_rss_mb"] = tree_peak_rss_mb()
        guard.current = "ray.shutdown"
        stop_ray()
        guard.stop()
    if run.oracle_s:
        run.layer["oracle.replay_events_per_s"] = (run.oracle_events
                                                   / run.oracle_s)
    if run.trace:
        run.tracer.dump(work / "spans.json")
    run.print_report()
    result = run.result()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
