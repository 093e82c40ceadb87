"""Reproduce the serial-return defect the benchmark works around.

    PYTHONPATH=src python3 perfbench/serial_return.py

Bounces a kv tenant node0 -> node1 -> node0 with serial snapshots and
the default ``drop_source_copy=False``.  The return migration restores
onto node0, which still holds the old copy, and the restore raises
``SchemaError: tenant already exists``.  The benchmark's bounce
workloads set ``drop_source_copy=True``, as a fleet that moves tenants
retires the source copy.  Exits 0 when the error is reproduced.
"""

from __future__ import annotations

import sys

from repro.api import Middleware, MigrationOptions, SnapshotStrategy
from repro.cluster.cluster import Cluster
from repro.errors import SchemaError
from repro.sim.core import Environment
from repro.workload.simplekv import setup_kv_tenant


def main() -> int:
    env = Environment()
    cluster = Cluster(env)
    for node in ("node0", "node1"):
        cluster.add_node(node)
    middleware = Middleware(env, cluster)
    outcome = {}

    def bounce():
        yield from setup_kv_tenant(cluster.node("node0").instance, "A", 8)
        middleware.register_tenant("A", "node0")
        options = MigrationOptions(strategy=SnapshotStrategy.SERIAL)
        for destination in ("node1", "node0"):
            try:
                yield from middleware.migrate("A", destination, options)
            except SchemaError as exc:
                outcome["error"] = exc
                return

    env.process(bounce())
    env.run(until=600.0)
    if "error" not in outcome:
        print("not reproduced: both serial migrations succeeded")
        return 1
    print("reproduced: %s: %s" % (type(outcome["error"]).__name__,
                                  outcome["error"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
