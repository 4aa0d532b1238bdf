"""The north-replay loop shape (bench.py --north) at test scale: multiple
fresh-log epochs (delete-after-ingest) in delta write-mode with size-tiered
compaction folded inline per epoch must converge to the oracle replay of
the concatenated event stream — the final-state-correct contract the
north rule names, exercised through the exact epoch loop the 10^10
artifact runs."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rfb_cnpj_etl_ray import EngineConfig, PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import (
    ingest, init_lake_distributed, read_lake_table,
)
from rfb_cnpj_etl_ray.pipelines.maintenance import compact_deltas
from rfb_cnpj_etl_ray.synth import make_base, make_changelog


@pytest.mark.parametrize("n_epochs,segs", [(3, 4)])
def test_north_loop_matches_oracle(ray_session, tmp_path, n_epochs, segs):
    n_docs, per_epoch = 5_000, 30_000
    per_seg = per_epoch // segs
    base = make_base(n_docs, seed=42, max_len=32)
    pq.write_table(base, tmp_path / "base.parquet", compression="zstd")
    cfg = EngineConfig(num_partitions=8, write_mode="delta")
    lake = tmp_path / "lake"
    init_lake_distributed(
        lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
        [str(tmp_path / "base.parquet")], cfg=cfg,
    )
    all_events = []
    for e in range(n_epochs):
        log = tmp_path / f"log_{e}"
        log.mkdir()
        entries = []
        for k in range(segs):
            n = per_seg if k < segs - 1 else per_epoch - per_seg * (segs - 1)
            start = 10_000_000 + per_epoch * e + per_seg * k
            ev = make_changelog(n, n_docs, seed=42 + 100 + e * segs + k,
                                start_lsn=start, min_len=8, max_len=32)
            perm = np.random.default_rng(42 + 500 + e * segs + k).permutation(n)
            ev = ev.take(pa.array(perm))
            name = f"seg-{e:02d}-{k:05d}.parquet"
            pq.write_table(ev, log / name, compression="zstd")
            lsns = ev.column("lsn").to_numpy()
            entries.append({
                "name": name, "rows": n,
                "min_lsn": int(lsns.min()), "max_lsn": int(lsns.max()),
                "bytes": os.path.getsize(log / name),
            })
            all_events.append(ev)
        (log / "manifest.json").write_text(json.dumps({"segments": entries}))
        r = ingest(lake, log, cfg=cfg)
        assert r["events_read"] == per_epoch
        c = compact_deltas(lake, min_delta_ratio=0.3, cfg=cfg)
        assert not c.get("noop")
        # the north loop deletes each epoch's log before the next —
        # resume state must live in the commit log, not the log dir
        shutil.rmtree(log)

    expected = replay(base, pa.concat_tables(all_events))
    assert_states_equal(expected, read_lake_table(lake))
