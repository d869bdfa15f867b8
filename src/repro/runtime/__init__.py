"""repro.runtime — the elastic serving runtime.

This package slots between :class:`~repro.gateway.gateway.Gateway` and
its :class:`~repro.server.server.FleetServer` shards.  The gateway stays
the *policy* tier (routing, admission, micro-batch boundaries, shard
synchronization); the runtime is the *mechanism* tier that decides where
and when a flushed micro-batch actually executes:

* :class:`ShardRuntime` — the gateway's one delivery path: a serialized
  lane per shard running decode → stage ``on_batch`` → ``submit_many``
  for every flushed micro-batch.  A sync lane runs it inline and never
  sheds; an async lane sits behind a bounded queue, off the caller's
  thread on the threads executor.  Its lanes are the tier's only model
  of virtual lane occupancy — busy time, backlog and the routing load
  signal all read it (:mod:`repro.runtime.runtime`);
* :class:`VirtualLaneExecutor` / :class:`ThreadLaneExecutor` — the two
  execution substrates: a deterministic discrete-event mode that is
  bit-identical to the synchronous path, and a thread pool for wall-clock
  serving (:mod:`repro.runtime.executors`);
* :class:`ElasticityController` — queue-driven autoscaling: watches
  occupancy, backlog and shed rate over a sliding window and calls the
  gateway's ``scale_up``/``scale_down`` between configurable bounds
  (:mod:`repro.runtime.elasticity`);
* :class:`AggregationCostModel` — the assumed affine service time the
  lanes charge per batch, and :class:`ServiceTimeEstimator`, which fits
  observed batch service times back into one
  (:mod:`repro.runtime.telemetry`).
"""

from repro.runtime.elasticity import (
    ElasticityController,
    ElasticityPolicy,
    ScalingEvent,
)
from repro.runtime.executors import (
    BatchTicket,
    ThreadLaneExecutor,
    VirtualLaneExecutor,
)
from repro.runtime.runtime import ShardRuntime
from repro.runtime.spec import RuntimeSpec
from repro.runtime.telemetry import AggregationCostModel, ServiceTimeEstimator

__all__ = [
    "AggregationCostModel",
    "RuntimeSpec",
    "ShardRuntime",
    "BatchTicket",
    "VirtualLaneExecutor",
    "ThreadLaneExecutor",
    "ElasticityController",
    "ElasticityPolicy",
    "ScalingEvent",
    "ServiceTimeEstimator",
]
