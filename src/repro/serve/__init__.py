"""``repro.serve`` — memory-plan-aware inference serving runtime.

The serving side of the reproduction: forward-only inference graphs
planned by HMMS, verified by :mod:`repro.hmms.verify`, cached per
``(model, split scheme, batch, pipeline fingerprint)``, and driven by
admission queue -> dynamic batcher -> engine on a simulated clock.  One
event loop drives that pipeline, the fleet runtime
(:mod:`repro.serve.fleet`): N engines co-resident on one device with
shared memory accounting, per-tenant SLO classes and quotas, continuous
batching at wavefront-step boundaries, and a replica autoscaler.
``serve-bench`` runs it as a one-tenant, one-replica, flush-only fleet.
See ``docs/serving.md`` and ``docs/fleet_serving.md``.
"""

from .batcher import DynamicBatcher
from .engine import CachedBatchPlan, ServingEngine
from .fleet import (
    DeviceLedger, FleetMetrics, FleetScheduler, TenantConfig,
    wavefront_steps,
)
from .loadgen import (
    FleetBenchConfig, fleet_arrivals, render_fleet_report, render_report,
    run_fleet_bench,
)
from .metrics import LatencyHistogram, ServingMetrics, percentile
from .queue import AdmissionQueue, OversizeRequestError
from .request import DenseRequest, Request
from .slo import BATCH, INTERACTIVE, SLO_CLASSES, STANDARD, SLOClass

__all__ = [
    "Request", "DenseRequest",
    "AdmissionQueue", "OversizeRequestError",
    "DynamicBatcher",
    "ServingEngine", "CachedBatchPlan",
    "LatencyHistogram", "ServingMetrics", "percentile",
    "render_report",
    "SLOClass", "INTERACTIVE", "STANDARD", "BATCH", "SLO_CLASSES",
    "TenantConfig", "DeviceLedger", "FleetMetrics", "FleetScheduler",
    "wavefront_steps",
    "FleetBenchConfig", "fleet_arrivals", "run_fleet_bench",
    "render_fleet_report",
]
