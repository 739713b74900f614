"""Inference serving on top of the memory planner (the `repro.serve`
runtime).

Benchmarks VGG-11 under an open-loop Poisson load three ways: a light
load that the flush timer dominates, an overload that exercises
admission control and deadlines, and the same overload against the
split-transformed model — whose lower forward peak buys a larger
discovered batch and therefore more throughput headroom.  Each run is a
serve-bench: a one-tenant, one-replica, flush-only fleet.

Run:  python examples/serve_bench.py
"""

from repro.serve import (
    FleetBenchConfig, SLOClass, TenantConfig, render_report, run_fleet_bench,
)


def serve_bench(rps, duration, split=1, queue_depth=256, deadline=None):
    tenant = TenantConfig(
        name="vgg11", model="vgg11", split=split, rps=rps,
        slo=SLOClass("example", deadline=deadline, flush_timeout=0.005),
        queue_depth=queue_depth, max_replicas=1)
    config = FleetBenchConfig(tenants=[tenant], duration=duration,
                              continuous=False, autoscale=False)
    fleet, metrics = run_fleet_bench(config)
    return render_report(fleet, config, metrics)


def main() -> None:
    print("Discovering serving capacity for vgg11 (plans inference graphs "
          "at doubling batch sizes)...\n")
    print(serve_bench(rps=100, duration=5.0))

    print("\n--- overload: 3000 req/s against the same model ---\n")
    print(serve_bench(rps=3000, duration=2.0, queue_depth=64,
                      deadline=0.050))

    print("\n--- same overload, split-CNN (4 patches, depth 0.5) ---\n")
    print(serve_bench(rps=3000, duration=2.0, queue_depth=64,
                      deadline=0.050, split=4))


if __name__ == "__main__":
    main()
