"""The correctness gate fails a run whose outputs were corrupted, and
the watchdog turns a stalled call into a counted failure.

    python3 -m pytest perfbench/test_gate.py -q

No Ray session is needed: the lakes here are built with ``init_lake``
alone, and the run-level test swaps the Ray start/stop for no-ops.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

import cdc  # noqa: E402
import run as bench  # noqa: E402
from common import Guard, StallError  # noqa: E402
from gate import GateError, check_lake, check_lookup, check_op  # noqa: E402


def _lake(tmp_path: Path) -> tuple[Path, pa.Table]:
    """A 300-doc lake and its oracle state."""
    from rfb_cnpj_etl_ray.oracle import replay
    from rfb_cnpj_etl_ray.spec import CHANGE_SCHEMA

    cdc.write_base(tmp_path / "base.parquet", 300, seed=5)
    cdc.init_lake_from(tmp_path / "lake", tmp_path / "base.parquet")
    base = pq.read_table(tmp_path / "base.parquet")
    return tmp_path / "lake", replay(base, CHANGE_SCHEMA.empty_table())


def _rewrite_first_partition(lake: Path, edit) -> None:
    path = sorted((lake / cdc.TABLE).glob("part=*/epoch-000000.parquet"))[0]
    pq.write_table(edit(pq.read_table(path)), path)


def _bump_first_token(t: pa.Table) -> pa.Table:
    rows = t.to_pylist()
    rows[0]["tokens"] = [rows[0]["tokens"][0] + 1] + rows[0]["tokens"][1:]
    return pa.Table.from_pylist(rows, schema=t.schema)


def test_clean_lake_passes(tmp_path):
    lake, expected = _lake(tmp_path)
    check_lake("bulk_replay", "clean", lake, expected)


@pytest.mark.parametrize("edit", [
    _bump_first_token,
    lambda t: t.slice(1),                                  # lost row
    lambda t: t.set_column(t.schema.get_field_index("_deleted"), "_deleted",
                           pa.array([True] + [False] * (t.num_rows - 1))),
], ids=["changed-token", "lost-row", "spurious-delete"])
def test_corrupted_lake_fails(tmp_path, edit):
    lake, expected = _lake(tmp_path)
    _rewrite_first_partition(lake, edit)
    with pytest.raises(GateError, match="^tail_epochs: lake"):
        check_lake("tail_epochs", "corrupted", lake, expected)


def test_wrong_lookup_fails(tmp_path):
    _, expected = _lake(tmp_path)
    keys = expected.column("doc_id").to_pylist()[:2]
    got = expected.filter(pc.equal(expected.column("doc_id"), keys[0]))
    with pytest.raises(GateError, match="^skewed_mixed: lookup"):
        check_lookup("skewed_mixed", keys, got, expected)


def test_wrong_op_result_fails(tmp_path):
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                             "text": ["a b", "b c", "c"]}),
                   tmp_path / "documents.parquet")
    sql = "SELECT COUNT(*) AS n FROM documents"
    check_op("corpus_ops", "count", pd.DataFrame({"n": [3]}), sql,
             str(tmp_path))
    with pytest.raises(GateError, match="^corpus_ops: count"):
        check_op("corpus_ops", "count", pd.DataFrame({"n": [4]}), sql,
                 str(tmp_path))


def test_stalled_call_is_a_counted_failure():
    guard = Guard("tail_epochs", call_timeout_s=0.2, hard_deadline_s=60,
                  on_hard_deadline=lambda g: None)
    try:
        assert guard.call("lookup", lambda: "ok") == "ok"
        with pytest.raises(StallError):
            guard.call("ingest", time.sleep, 5)
    finally:
        guard.stop()
    assert (guard.attempted, guard.failed) == (2, 1)
    assert guard.errors[0].startswith("tail_epochs: ingest: StallError")


def test_benchmark_json_matches_the_runner():
    """BENCHMARK.json names workloads run.py runs and exactly the metrics
    it reports, within the benchmark contract's limits."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)
    assert spec["end_to_end"][0] == {"name": "setup_s", "unit": "s",
                                     "better": "lower", "bound": 0.25}
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names + list(bench.WORKLOADS))
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_run_with_corrupted_lake_fails(tmp_path, monkeypatch, capsys):
    """End to end through ``run.main``: the workload's lake is corrupted
    before the gate, so the run prints ``correct: false``, names the
    workload and exits 1."""
    for var in ("TMPDIR", "GRAFT_TMP", "PYTHONPATH"):
        monkeypatch.setenv(var, "")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "start_ray", lambda work_root: None)
    monkeypatch.setattr(bench, "stop_ray", lambda: None)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)

    def setup(run, d):
        d.mkdir(parents=True)
        lake, expected = _lake(d)
        return {"lake": lake, "expected": expected}

    def measure(run, st):
        run.set_e2e(1.0, 2.0, "max n=1", 3.0, "nothing")
        _rewrite_first_partition(st["lake"], _bump_first_token)

    def check(run, st):
        check_lake(run.workload, "final", st["lake"], st["expected"])

    monkeypatch.setattr(bench, "_workloads",
                        lambda: {"bulk_replay": (setup, measure, check)})
    code = bench.main(["--workload", "bulk_replay", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert any(line.startswith("FAILED bulk_replay: lake final")
               for line in out)
