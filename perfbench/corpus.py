"""The ``corpus_ops`` workload: one pass over six docs-only registry
operators on a seeded ``documents.parquet``, each result materialized on
the driver and checked against its DuckDB ``oracle_sql()`` twin.

The vocabulary is the word list of the repository's test corpus plus
accented Latin words, with random Title/UPPER casing so ``lower()`` does
real work. Every word lowercases identically in Python and DuckDB.
'İ' (U+0130) is left out on purpose: Python lowercases it to 'i̇'
(two code points) and DuckDB to 'i', a known open divergence in the
tokenizer path; with it in the corpus the gate would fail for that bug
instead of measuring speed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import hi_percentile, median
from gate import check_op

N_DOCS = 5_000
OPS = ("top_tokens", "cms_token_counts", "token_rarity_scores",
       "bloom_decontaminate", "certified_topk_tokens", "refined_quantiles")
WARM_OP = "cms_token_counts"

TEST_CORPUS_WORDS = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the dup").split()
ACCENTED_WORDS = (
    "café été ñandú über ação ça øre þing ærø niño façade crème señal "
    "möglich coração élan àéîõü").split()
LANGS = ("en", "es", "de", "fr", "pt", "zh")


def write_documents(path: Path, n_docs: int, seed: int) -> None:
    """``doc_id, text, lang, source, n_chars`` with Zipf-weighted words."""
    rng = np.random.default_rng(seed)
    vocab = np.array(TEST_CORPUS_WORDS + ACCENTED_WORDS, dtype=object)
    vocab = vocab[rng.permutation(len(vocab))]
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 0.8
    weights /= weights.sum()
    lens = rng.integers(8, 97, n_docs)
    words = vocab[rng.choice(len(vocab), int(lens.sum()), p=weights)]
    case = rng.random(len(words))
    words = np.where(case < 0.10, [w.title() for w in words],
                     np.where(case < 0.15, [w.upper() for w in words], words))
    bounds = np.concatenate([[0], np.cumsum(lens)])
    text = [" ".join(words[bounds[i]:bounds[i + 1]]) for i in range(n_docs)]
    lang_p = np.array([0.4, 0.15, 0.15, 0.1, 0.1, 0.1])
    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(np.array(LANGS)[rng.choice(len(LANGS), n_docs,
                                                    p=lang_p)]),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
        "n_chars": pa.array([len(t) for t in text], pa.int64()),
    }), path)


def _to_pandas(result):
    import pandas as pd

    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def _registry():
    import __ray_entry__ as entry

    return entry.queries(), entry.oracle_sql()


def setup_corpus(run, d: Path) -> dict:
    write_documents(d / "documents.parquet", N_DOCS, seed=run.seed)
    fns, _ = _registry()
    out = run.guard.call(f"warm-up {WARM_OP}",
                         lambda: _to_pandas(fns[WARM_OP](str(d))))
    return {"dir": d, "results": [(WARM_OP, out)]}


def _one_pass(run, st: dict, traced: bool) -> list[float]:
    fns, _ = _registry()
    sf = str(st["dir"])
    walls = []
    for name in OPS:
        t0 = time.perf_counter()
        with run.tracer.span(f"functions.{name}") if traced else nullcontext():
            res, df = run.guard.call(name, _run_op, fns[name], sf)
        walls.append(time.perf_counter() - t0)
        st["results"].append((name, df))
        if traced:
            _op_layers(run, name, res, df, walls[-1])
    return walls


def _run_op(fn, sf: str):
    res = fn(sf)
    return res, _to_pandas(res)


def _op_layers(run, name: str, res, df, wall: float) -> None:
    """Wall time, rows reaching the driver, and the per-operator rows,
    bytes and wall time Ray Data recorded for the returned dataset."""
    layer = run.layer
    layer[f"functions.{name}_s"] = wall
    layer[f"functions.{name}_driver_rows"] = len(df)
    out_bytes = 0
    todo = [res._get_stats_summary()] if hasattr(res, "_get_stats_summary") \
        else []
    while todo:
        summary = todo.pop()
        todo += summary.parents
        for op in summary.operators_stats:
            rows = (op.output_num_rows or {}).get("sum", 0)
            nbytes = (op.output_size_bytes or {}).get("sum", 0)
            out_bytes += nbytes
            run.operator_stats.append({
                "op": name, "operator": op.operator_name, "rows": rows,
                "bytes": nbytes,
                "wall_s": (op.wall_time or {}).get("sum", 0.0)})
    layer[f"functions.{name}_output_bytes"] = out_bytes


def measure_corpus(run, st: dict) -> None:
    calls, passes = [], []
    t_end = time.perf_counter() + run.seconds
    while not passes or time.perf_counter() < t_end:
        walls = _one_pass(run, st, traced=False)
        calls += walls
        passes.append(sum(walls))
    for i, name in enumerate(OPS):
        run.report(f"{name}_s", median(calls[i::len(OPS)]), "s")
    ops_s = median(passes)
    if run.trace:
        run.layer["functions.ops_s"] = ops_s
        run.layer["trace.overhead_ratio"] = (
            sum(_one_pass(run, st, traced=True)) / ops_s)
    hi, hi_label = hi_percentile([1000 * w for w in passes])
    run.set_e2e(1000 * ops_s, hi, hi_label, N_DOCS / ops_s,
                f"one pass over the {len(OPS)} ops on {N_DOCS} docs; "
                f"docs/s through all of them")
    run.report("ops_s", ops_s, "s", f"n={len(passes)} passes")


def check_corpus(run, st: dict) -> None:
    _, sqls = _registry()
    for name, df in st["results"]:
        check_op(run.workload, name, df, sqls[name], str(st["dir"]))
