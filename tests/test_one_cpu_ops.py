"""The corpus operators run on a one-CPU Ray cluster.

No operator in ``functions.text`` starts an actor, so a single logical
CPU is enough: the map tasks, the sort shuffle of ``top_tokens`` and the
``tree_fold`` levels all take turns on it. An operator that pinned a CPU
with a long-lived actor (an actor pool, a hash-shuffle aggregator) would
starve its own upstream tasks here and never finish. Runs in a fresh
interpreter because the test session's cluster has four CPUs.
"""

import os
import subprocess
import sys
import textwrap

from tests.conftest import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPS = (("top_tokens", "TOP_TOKENS_SQL"),
       ("certified_topk_tokens", "CERTIFIED_TOPK_TOKENS_SQL"),
       ("token_rarity_scores", "TOKEN_RARITY_SCORES_SQL"),
       ("bloom_decontaminate", "BLOOM_DECONTAMINATE_SQL"))

SCRIPT = textwrap.dedent("""
    import sys
    import time

    import ray
    import ray.data

    from rfb_cnpj_etl_ray.functions import text as T
    from tests.util_compare import assert_query_matches

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    sf_dir = sys.argv[1]
    for name, sql in {ops!r}:
        t0 = time.perf_counter()
        assert_query_matches(getattr(T, name), getattr(T, sql), sf_dir)
        print(f"ok {{name}} {{time.perf_counter() - t0:.2f}}s", flush=True)
    ray.shutdown()
""")


def test_corpus_ops_finish_on_one_cpu():
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(ops=OPS), SF_DIR],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    done = [line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("ok ")]
    assert proc.returncode == 0 and done == [n for n, _ in OPS], (
        f"finished {done}; stderr tail:\n{proc.stderr[-3000:]}")
