"""Sharded serving gateway: route, batch, admit, synchronize N shards."""

from repro.gateway.backpressure import TokenBucket
from repro.gateway.batching import (
    EncodedResult,
    MicroBatcher,
    decode_result,
    encode_result,
)
from repro.gateway.gateway import Gateway, GatewayConfig
from repro.gateway.hashing import ConsistentHashRing
from repro.gateway.scheduling import (
    DeadlineAwareRouter,
    HashRouter,
    Router,
    RoutingSpec,
)
from repro.gateway.sync import ShardSynchronizer, SyncRecord
from repro.observability import ObservabilitySpec
from repro.runtime import ElasticityPolicy, RuntimeSpec

__all__ = [
    "Gateway",
    "GatewayConfig",
    "ObservabilitySpec",
    "RuntimeSpec",
    "ElasticityPolicy",
    "RoutingSpec",
    "Router",
    "HashRouter",
    "DeadlineAwareRouter",
    "ConsistentHashRing",
    "MicroBatcher",
    "EncodedResult",
    "encode_result",
    "decode_result",
    "TokenBucket",
    "ShardSynchronizer",
    "SyncRecord",
]
