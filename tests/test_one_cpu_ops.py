"""The registry operators run on a one-CPU Ray cluster.

No operator starts an actor: map work runs as plain tasks, keyed
exchanges are Ray's task sort, joins are ``keyed_join`` and
low-cardinality folds are ``tree_fold``. A single logical CPU is
therefore enough — the tasks take turns on it. An operator that pinned
a CPU with a long-lived actor (an actor pool, a hash-shuffle
aggregator) would starve its own upstream tasks here and never finish.

The op list is every ``__ray_entry__.queries()`` entry; each op is
checked against its ``oracle_sql()`` twin. All of them run in one
fresh interpreter, because the test session's cluster has four CPUs.
"""

import os
import subprocess
import sys
import textwrap

import __ray_entry__ as E
from tests.conftest import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPS = list(E.queries())

SCRIPT = textwrap.dedent("""
    import sys
    import time

    import ray
    import ray.data

    import __ray_entry__ as E
    from tests.util_compare import assert_query_matches

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    sf_dir = sys.argv[1]
    queries, oracles = E.queries(), E.oracle_sql()
    # the flagship oracle is sized for the driver's sf; re-derive it
    oracles["cdc_ingest_final_state"] = E.cdc_final_state_sql(sf_dir)
    for name in sys.argv[2:]:
        t0 = time.perf_counter()
        assert_query_matches(queries[name], oracles[name], sf_dir)
        print(f"ok {name} {time.perf_counter() - t0:.2f}s", flush=True)
    ray.shutdown()
""")


def test_registry_ops_finish_on_one_cpu():
    assert set(OPS) <= set(E.oracle_sql())
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, SF_DIR, *OPS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    done = [line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("ok ")]
    assert proc.returncode == 0 and done == OPS, (
        f"finished {done}; stderr tail:\n{proc.stderr[-3000:]}")
