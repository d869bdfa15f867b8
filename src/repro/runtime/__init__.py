"""repro.runtime — the elastic serving runtime.

This package slots between :class:`~repro.gateway.gateway.Gateway` and
its :class:`~repro.server.server.FleetServer` shards.  The gateway stays
the *policy* tier (routing, admission, micro-batch boundaries, shard
synchronization); the runtime is the *mechanism* tier that decides
whether and when a flushed micro-batch executes:

* :class:`ShardRuntime` — the gateway's one delivery path: a serialized
  lane per shard running decode → stage ``on_batch`` → ``submit_many``
  for every flushed micro-batch, always inline on the caller's thread.
  A sync lane never sheds; an async lane models a bounded queue on the
  virtual clock and sheds when it is full.  Its lanes are the tier's
  only model of virtual lane occupancy — busy time, backlog and the
  routing load signal all read it (:mod:`repro.runtime.runtime`);
* :class:`ElasticityController` — queue-driven autoscaling: watches
  occupancy, backlog and shed rate over a sliding window and calls the
  gateway's ``scale_up``/``scale_down`` between configurable bounds
  (:mod:`repro.runtime.elasticity`);
* :class:`AggregationCostModel` — the assumed affine service time the
  lanes charge per batch (:mod:`repro.runtime.telemetry`).
"""

from repro.runtime.elasticity import (
    ElasticityController,
    ElasticityPolicy,
    ScalingEvent,
)
from repro.runtime.runtime import ShardRuntime
from repro.runtime.spec import RuntimeSpec
from repro.runtime.telemetry import AggregationCostModel

__all__ = [
    "AggregationCostModel",
    "RuntimeSpec",
    "ShardRuntime",
    "ElasticityController",
    "ElasticityPolicy",
    "ScalingEvent",
]
