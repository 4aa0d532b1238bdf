"""MERGE INTO: arbitrary payload dataset -> one atomic upsert epoch.

With delete_missing the call is a full-snapshot sync, so the crisp
invariant is post-state == source exactly; without it, rows absent from
the source survive. Composed from ingest primitives, so exactly-once /
idempotence / crash behavior are inherited (covered by test_ingest);
these tests pin the MERGE semantics themselves.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal
from rfb_cnpj_etl_ray.pipelines.ingest import merge_into, read_lake_table
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base

CFG = EngineConfig(num_partitions=4)


def _lake(tmp_path, base):
    lake = tmp_path / "lake"
    init_lake(lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
              base=base, num_partitions=4)
    return lake


def _mutated_source(base: pa.Table) -> pa.Table:
    """Drop ~1/4 of docs, rewrite tokens of another ~1/4, add new docs."""
    ids = base.column("doc_id").to_pylist()
    keep = base.filter(
        pc.greater_equal(pc.utf8_length(base.column("doc_id")), 0))
    # drop every 4th doc, mutate every 4th+1 doc's tokens
    rows = keep.to_pylist()
    out = []
    for i, r in enumerate(rows):
        if i % 4 == 0:
            continue  # deleted from the source
        if i % 4 == 1:
            r = dict(r)
            r["tokens"] = [7, 7, 7]
            r["n_tok"] = 3
        out.append(r)
    # brand-new docs
    for j in range(20):
        out.append({"doc_id": f"new-{j:04d}", "tokens": [j, j + 1],
                    "n_tok": 2, "source": "merge"})
    assert ids  # base non-empty
    return pa.Table.from_pylist(out, schema=base.schema)


def test_merge_into_full_sync(ray_session, tmp_path):
    base = make_base(200, seed=91, max_len=16)
    lake = _lake(tmp_path, base)
    source = _mutated_source(base)

    report = merge_into(lake, source, cfg=CFG, delete_missing=True)
    assert report["epoch"] == 1 and not report.get("noop")
    # full sync: lake state IS the source
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))

    # merging the identical source again is value-idempotent (new LSN,
    # same rows; no deletes left to emit)
    report2 = merge_into(lake, source, cfg=CFG, delete_missing=True)
    assert report2["merge_lsn"] > report["merge_lsn"]
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


def test_merge_into_upsert_only_keeps_missing(ray_session, tmp_path):
    base = make_base(120, seed=92, max_len=16)
    lake = _lake(tmp_path, base)
    source = _mutated_source(base)
    merge_into(lake, source, cfg=CFG, delete_missing=False)

    final = read_lake_table(lake)
    src_ids = set(source.column("doc_id").to_pylist())
    base_ids = set(base.column("doc_id").to_pylist())
    final_ids = set(final.column("doc_id").to_pylist())
    # union semantics: nothing deleted, new rows present
    assert final_ids == base_ids | src_ids
    # updated rows carry the source payload
    upd = final.filter(pc.equal(final.column("doc_id"),
                                source.column("doc_id")[0]))
    src0 = source.slice(0, 1)
    assert upd.column("tokens").to_pylist() == src0.column("tokens").to_pylist()


def test_merge_lsn_advances_past_history(ray_session, tmp_path):
    base = make_base(50, seed=93, max_len=16)
    lake = _lake(tmp_path, base)
    source = base  # no-op content, still an epoch
    r = merge_into(lake, source, cfg=CFG)
    lsn_high = CommitLog(lake / "sequences").snapshot().lsn_high
    assert r["merge_lsn"] <= lsn_high
    # a second merge picks a strictly higher LSN than everything committed
    r2 = merge_into(lake, source, cfg=CFG)
    assert r2["merge_lsn"] > lsn_high - 1
    assert_states_equal(base.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_merge_into_random_mutations_full_sync(ray_session, tmp_path, seed):
    """Property-style: a seeded random mutation of the base (drop /
    rewrite / add in random proportions) merged with delete_missing must
    leave the lake EXACTLY equal to the source — for any mutation mix."""
    rng = np.random.default_rng(seed)
    base = make_base(int(rng.integers(50, 300)), seed=seed, max_len=16)
    lake = tmp_path / "lake"
    init_lake(lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
              base=base, num_partitions=int(rng.integers(2, 8)))
    rows = base.to_pylist()
    out = []
    for r in rows:
        u = rng.random()
        if u < 0.3:
            continue  # dropped
        if u < 0.6:
            r = dict(r)
            n = int(rng.integers(1, 6))
            r["tokens"] = rng.integers(0, 1000, n).tolist()
            r["n_tok"] = n
        out.append(r)
    for j in range(int(rng.integers(0, 40))):
        n = int(rng.integers(1, 6))
        out.append({"doc_id": f"rnd-{seed}-{j:04d}",
                    "tokens": rng.integers(0, 1000, n).tolist(),
                    "n_tok": n, "source": "prop"})
    source = pa.Table.from_pylist(out, schema=base.schema)
    merge_into(lake, source, cfg=CFG, delete_missing=True)
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


def test_sigkill_mid_merge_then_remerge(ray_session, tmp_path):
    """SIGKILL a real `cli merge` subprocess mid-flight, then re-merge in
    this session: whatever the kill hit (source staging, anti-join,
    ingest staging, commit), the re-run must land exactly at the source
    state — the scratch events regenerate at the same LSN (no commit
    advanced it) and the LWW fold absorbs any half-staged chunks."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import pyarrow.parquet as pq

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base = make_base(2000, seed=94, max_len=32)
    lake = tmp_path / "lake"
    init_lake(lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
              base=base, num_partitions=8)
    source = _mutated_source(base)
    src_path = tmp_path / "src.parquet"
    pq.write_table(source, src_path)

    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfb_cnpj_etl_ray.cli", "--num-cpus", "4",
         "merge", str(lake), str(src_path), "--delete-missing"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    time.sleep(4.0)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    time.sleep(1.0)

    merge_into(lake, source, cfg=EngineConfig(num_partitions=8),
               delete_missing=True)
    assert_states_equal(source.sort_by([("doc_id", "ascending")]),
                        read_lake_table(lake))


def test_merge_into_rejects_duplicate_source_keys(ray_session, tmp_path):
    """Duplicate doc_ids in the source all land at the same merge LSN, so
    the surviving payload would depend on block order — the engine must
    reject them loudly (ADVICE r3) unless validation is waived."""
    base = make_base(50, seed=93, max_len=16)
    lake = _lake(tmp_path, base)
    dup = pa.concat_tables([base, base.slice(0, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        merge_into(lake, dup, cfg=CFG)
    # the failed merge must not have committed an epoch
    assert CommitLog(lake / "sequences").latest()["epoch"] == 0
    # identical rows ARE idempotent under LWW — a caller that knows the
    # dups are exact copies can waive the gate and still converge
    merge_into(lake, dup, cfg=CFG, validate_unique=False)
    assert_states_equal(read_lake_table(lake), base)
