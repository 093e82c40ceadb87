"""Calibration driver for Figure 6 (not part of the library)."""
import sys
import time

from repro.sim import Environment, StreamFactory
from repro.cluster import Cluster
from repro.core import (Middleware, MiddlewareConfig, MigrationOptions,
                        policy_by_name)
from repro.errors import CatchUpTimeout
from repro.engine.dump import TransferRates
from repro.workload.tpcw import (EbConfig, PopulationParams, TpcwContext,
                                 populate, start_tenant_load)


def run(policy, ebs, deadline=1200.0):
    env = Environment()
    cluster = Cluster(env)
    n0 = cluster.add_node("node0")
    cluster.add_node("node1")
    mw = Middleware(env, cluster, MiddlewareConfig(
        policy=policy, verify_consistency=True, catchup_deadline=deadline))
    params = PopulationParams(items=100000, ebs=100, row_scale=0.005)
    sf = StreamFactory(7)
    populate(n0.instance, "A", params, sf.stream("pop"))
    mw.register_tenant("A", "node0")
    scaled = params.scaled_cardinalities()
    ctx = TpcwContext(customers=scaled["customer"], items=scaled["item"],
                      orders=scaled["orders"])
    cfg = EbConfig(ebs=ebs, think_time=7.0, cpu_scale=1.35)
    start_tenant_load(env, mw, "A", ctx, cfg, seed=1)
    out = {}

    def mig(env):
        yield env.timeout(30)
        try:
            rep = yield from mw.migrate(
                "A", "node1", MigrationOptions(rates=TransferRates()))
            out["r"] = rep
        except CatchUpTimeout as exc:
            out["na"] = exc
    t0 = time.time()
    env.run(until=env.any_of([env.process(mig(env)), env.timeout(2500)]))
    wall = time.time() - t0
    if "r" in out:
        r = out["r"]
        print("%-7s ebs=%4d mig=%7.1f s (dump %.0f restore %.0f catchup "
              "%.0f switch %.1f) sync=%5d group=%.2f cons=%s wall=%.0fs"
              % (policy.name, ebs, r.migration_time, r.dump_time,
                 r.restore_time, r.catchup_time, r.switch_time,
                 r.syncsets_propagated, r.slave_mean_group_size,
                 r.consistent, wall), flush=True)
    else:
        e = out.get("na")
        print("%-7s ebs=%4d N/A (backlog=%s) wall=%.0fs"
              % (policy.name, ebs, getattr(e, "backlog", "?"), wall),
              flush=True)


if __name__ == "__main__":
    policy = policy_by_name(sys.argv[1])
    for ebs_arg in sys.argv[2:]:
        run(policy, int(ebs_arg))
