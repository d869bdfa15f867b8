"""``RuntimeSpec``: the declarative knobs of the serving runtime.

A spec is pure configuration — the gateway materializes it into a
:class:`~repro.runtime.runtime.ShardRuntime` (and, when ``autoscale`` is
set, an :class:`~repro.runtime.elasticity.ElasticityController`).  It can
ride on a :class:`~repro.api.ServerSpec` so one frozen recipe describes
both the per-shard pipeline and the tier that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.elasticity import ElasticityPolicy

if TYPE_CHECKING:  # import-time cycle: gateway imports repro.runtime
    from repro.gateway.scheduling import RoutingSpec

__all__ = ["RuntimeSpec"]

MODES = ("sync", "async")


@dataclass(frozen=True)
class RuntimeSpec:
    """How flushed micro-batches execute, and whether the tier self-sizes.

    Every flushed micro-batch goes through its shard's lane and runs
    inline on the caller's thread; ``mode`` picks the lane's contract.
    ``"sync"`` (what a gateway built without a spec gets) never sheds and
    reports no queue signal — ``queue_capacity`` does not apply.
    ``"async"`` models a bounded queue on the virtual clock: a batch
    counts as queued until its modeled service end, so queue depth is a
    real autoscaler signal.  Either way the lane charges every batch its
    virtual service time, and with ample queue capacity the two modes
    apply bit-identical updates.

    ``queue_capacity`` bounds each shard lane's pending micro-batches;
    a batch arriving to a full lane is rejected outright (its results are
    counted, never silently dropped), so overload degrades throughput
    instead of growing memory without bound.  ``autoscale`` attaches a
    queue-driven :class:`ElasticityPolicy`; None keeps shard count manual.
    ``routing`` attaches a device-placement recipe
    (:class:`~repro.gateway.scheduling.RoutingSpec`); None keeps the
    consistent-hash default.  Routing is orthogonal to delivery —
    ``RuntimeSpec(mode="sync", routing=...)`` configures placement while
    batches still never shed.
    """

    mode: str = "async"
    queue_capacity: int = 64
    autoscale: ElasticityPolicy | None = None
    routing: RoutingSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        # Duck-checked (a module-level RoutingSpec import would cycle
        # through repro.gateway, which imports repro.runtime).
        if self.routing is not None and not callable(
            getattr(self.routing, "build", None)
        ):
            raise TypeError("routing must be a RoutingSpec (or expose build())")
