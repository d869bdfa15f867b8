"""``FleetBuilder`` / ``ServerSpec``: declarative construction of servers.

Every FLeet capability — the optimizer family, the profiler, the SLO and
the request/result stage chains — is one chained builder call; ``build()``
produces a configured :class:`~repro.server.server.FleetServer` and
``spec()`` freezes the recipe into a :class:`ServerSpec` that stamps out
any number of identically-configured, state-independent servers (the
gateway's shard factory).

    server = (
        FleetBuilder(params, num_labels=10)
        .algorithm("adasgd", learning_rate=0.02, initial_tau_thres=12.0)
        .pretrained_profiler(xs, ys)
        .slo(3.0)
        .admission(min_batch_size=16)
        .dp(clip_norm=2.0, noise_multiplier=0.05)
        .robust("median", window=4)
        .telemetry()
        .build()
    )

Stages run in the order they are declared.  The CLI exposes the same
surface through ``--stage`` flags parsed by :func:`parse_stage_spec`.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.adasgd import (
    StalenessAwareServer,
    make_adasgd,
    make_dynsgd,
    make_fedavg,
    make_ssgd,
)
from repro.durability import DurabilitySpec
from repro.profiler.iprof import IProf, SLO
from repro.runtime import RuntimeSpec
from repro.server.ab_testing import ABThresholdTuner
from repro.server.controller import Controller
from repro.server.server import FleetServer
from repro.server.stages import (
    ABRoutingStage,
    AdmissionStage,
    GradientPrivacyStage,
    RequestStage,
    ResultStage,
    RobustAggregationStage,
    SparseUploadDecodeStage,
    TelemetryStage,
)
from repro.server.telemetry import MetricsRegistry

if TYPE_CHECKING:  # runtime import stays lazy: api must not pull gateway
    from repro.gateway.scheduling import RoutingSpec

__all__ = [
    "FleetBuilder",
    "ServerSpec",
    "parse_stage_spec",
    "apply_stage_specs",
    "STAGE_SPEC_HELP",
]

# Where a stage factory's product is attached.  "dual" stages (telemetry)
# are instantiated once per build and joined to BOTH chains, so their
# request- and result-side views share state.
_REQUEST, _RESULT, _DUAL = "request", "result", "dual"


@dataclass(frozen=True)
class ServerSpec:
    """A frozen server recipe: factories for every stateful part.

    Calling the spec (``spec(index)``) builds a fresh server, which makes
    a spec directly usable as a gateway shard factory: every shard gets
    its own optimizer, profiler and stage instances with zero shared
    mutable state.
    """

    optimizer_factory: Callable[[], StalenessAwareServer]
    profiler_factory: Callable[[], IProf]
    slo: SLO
    stage_factories: tuple[tuple[str, Callable[[], object]], ...] = ()
    # Tier-level serving-runtime recipe (worker lanes, bounded queues,
    # autoscaling): ignored by ``build()`` — a single server has no tier —
    # and picked up by ``Gateway.from_spec``.
    runtime: RuntimeSpec | None = None
    # Tier-level durability recipe (per-shard WAL + checkpoints + the
    # failure detector behind gateway failover): same contract — ignored
    # by ``build()``, consumed by ``Gateway.from_spec``.
    durability: DurabilitySpec | None = None

    def build(self, index: int = 0) -> FleetServer:
        """One fresh, fully independent server (``index`` is cosmetic)."""
        request_stages: list[RequestStage] = []
        result_stages: list[ResultStage] = []
        for kind, factory in self.stage_factories:
            stage = factory()
            if kind in (_REQUEST, _DUAL):
                request_stages.append(stage)
            if kind in (_RESULT, _DUAL):
                result_stages.append(stage)
        return FleetServer(
            self.optimizer_factory(),
            self.profiler_factory(),
            self.slo,
            request_stages=request_stages,
            result_stages=result_stages,
        )

    def __call__(self, index: int = 0) -> FleetServer:
        return self.build(index)


class FleetBuilder:
    """Fluent builder for :class:`FleetServer` pipelines.

    Parameters
    ----------
    initial_parameters:
        Flat model vector the optimizer starts from (each build copies it).
    num_labels:
        Label-space size, required by similarity-boosting algorithms
        (``adasgd``).
    """

    def __init__(
        self,
        initial_parameters: np.ndarray | None = None,
        num_labels: int | None = None,
    ) -> None:
        self._params = (
            None
            if initial_parameters is None
            else np.asarray(initial_parameters, dtype=np.float64)
        )
        self._num_labels = num_labels
        self._algorithm = "adasgd"
        self._algorithm_kwargs: dict = {}
        self._optimizer_factory: Callable[[], StalenessAwareServer] | None = None
        self._profiler_factory: Callable[[], IProf] = IProf
        self._slo = SLO(time_seconds=3.0)
        self._stage_factories: list[tuple[str, Callable[[], object]]] = []
        self._runtime: RuntimeSpec | None = None
        self._routing = None
        self._durability: DurabilitySpec | None = None

    # ------------------------------------------------------------------
    # Model / optimizer / profiler / SLO
    # ------------------------------------------------------------------
    def parameters(
        self, initial_parameters: np.ndarray, num_labels: int | None = None
    ) -> "FleetBuilder":
        """Set (or replace) the initial model vector."""
        self._params = np.asarray(initial_parameters, dtype=np.float64)
        if num_labels is not None:
            self._num_labels = num_labels
        return self

    def algorithm(self, name: str = "adasgd", **kwargs) -> "FleetBuilder":
        """Choose the aggregation family: adasgd, dynsgd, fedavg or ssgd.

        ``kwargs`` are forwarded to the matching ``make_*`` factory
        (learning_rate, aggregation_k, initial_tau_thres, ...).
        """
        if name not in ("adasgd", "dynsgd", "fedavg", "ssgd"):
            raise ValueError(f"unknown algorithm {name!r}")
        self._algorithm = name
        self._algorithm_kwargs = dict(kwargs)
        self._optimizer_factory = None
        return self

    def optimizer(
        self, factory: Callable[[], StalenessAwareServer]
    ) -> "FleetBuilder":
        """Fully custom optimizer factory (overrides :meth:`algorithm`)."""
        self._optimizer_factory = factory
        return self

    def profiler(self, factory: Callable[[], IProf]) -> "FleetBuilder":
        """Custom profiler factory (defaults to a cold ``IProf``)."""
        self._profiler_factory = factory
        return self

    def pretrained_profiler(self, xs: np.ndarray, ys: np.ndarray) -> "FleetBuilder":
        """Fresh I-Prof per build, cold-start-fitted on offline measurements."""

        def factory() -> IProf:
            iprof = IProf()
            iprof.pretrain_time(xs, ys)
            return iprof

        return self.profiler(factory)

    def slo(self, slo: SLO | float) -> "FleetBuilder":
        """The advertised SLO; a bare number means seconds of compute time."""
        self._slo = slo if isinstance(slo, SLO) else SLO(time_seconds=float(slo))
        return self

    # ------------------------------------------------------------------
    # Built-in stages (declared in pipeline order)
    # ------------------------------------------------------------------
    def admission(
        self,
        controller: Controller | None = None,
        *,
        min_batch_size=None,
        max_similarity=None,
    ) -> "FleetBuilder":
        """Admission control (the paper's controller) as a request stage.

        Pass a configured :class:`Controller`, or threshold kwargs to build
        one per server.  Without this call the server still gets a
        permissive admission stage (the governed enforcement point always
        exists).  A passed controller is deep-copied per build so spec-
        stamped shards never share admission state (stateful thresholds
        would otherwise observe interleaved cross-shard traffic); for
        deliberate sharing use ``request_stage`` with a custom factory.
        """
        if controller is not None:
            if min_batch_size is not None or max_similarity is not None:
                raise ValueError("pass a controller or thresholds, not both")
            factory = lambda: AdmissionStage(copy.deepcopy(controller))  # noqa: E731
        else:
            factory = lambda: AdmissionStage(  # noqa: E731
                Controller(
                    min_batch_size=min_batch_size, max_similarity=max_similarity
                )
            )
        self._stage_factories.append((_REQUEST, factory))
        return self

    def ab_routing(self, tuner: ABThresholdTuner) -> "FleetBuilder":
        """A/B threshold-arm routing (§2.4); the tuner is shared by design."""
        self._stage_factories.append((_REQUEST, lambda: ABRoutingStage(tuner)))
        return self

    def dp(
        self,
        clip_norm: float = 1.0,
        noise_multiplier: float = 0.1,
        seed: int = 0,
    ) -> "FleetBuilder":
        """DP gradient hardening: clip + Gaussian noise before aggregation.

        Each build derives its noise stream from ``(seed, build ordinal)``,
        so shards stamped from one spec draw independent noise — identical
        streams would be correlated releases the moments accountant does
        not cover, and would partially survive weighted shard averaging.
        Reproducibility holds per (seed, build order).
        """
        builds = itertools.count()
        self._stage_factories.append(
            (
                _RESULT,
                lambda: GradientPrivacyStage(
                    clip_norm=clip_norm,
                    noise_multiplier=noise_multiplier,
                    seed=(seed, next(builds)),
                ),
            )
        )
        return self

    def robust(
        self,
        rule: str = "median",
        window: int = 4,
        num_byzantine: int = 1,
        trim: int = 1,
    ) -> "FleetBuilder":
        """Byzantine-robust pre-combine of every ``window`` gradients."""
        self._stage_factories.append(
            (
                _RESULT,
                lambda: RobustAggregationStage(
                    rule=rule, window=window, num_byzantine=num_byzantine, trim=trim
                ),
            )
        )
        return self

    def sparse_uploads(self, fraction: float | None = None) -> "FleetBuilder":
        """Accept top-k sparsified uploads; ``fraction`` advertises k/d."""
        self._stage_factories.append(
            (_RESULT, lambda: SparseUploadDecodeStage(fraction=fraction))
        )
        return self

    def telemetry(self, registry: MetricsRegistry | None = None) -> "FleetBuilder":
        """Metrics on both chains; pass one registry to share across shards.

        With ``registry=None`` every build gets its own registry.
        """
        self._stage_factories.append(
            (_DUAL, lambda: TelemetryStage(registry=registry))
        )
        return self

    # ------------------------------------------------------------------
    # Serving runtime (tier-level, consumed by Gateway.from_spec)
    # ------------------------------------------------------------------
    def runtime(self, spec: RuntimeSpec | None = None, **kwargs) -> "FleetBuilder":
        """Attach a serving-runtime recipe to the spec.

        Pass a ready :class:`RuntimeSpec`, or keyword knobs (``mode``,
        ``queue_capacity``, ``autoscale``, ``routing``) to build one.  The
        runtime rides on the :class:`ServerSpec` so
        ``Gateway.from_spec(n, spec)`` assembles the lanes and the
        autoscaler without a separate argument; ``build()`` ignores it.
        """
        if spec is not None and kwargs:
            raise ValueError("pass a RuntimeSpec or knobs, not both")
        self._runtime = spec if spec is not None else RuntimeSpec(**kwargs)
        return self

    def durability(self, spec: DurabilitySpec | None = None, **kwargs) -> "FleetBuilder":
        """Attach a shard-durability recipe to the spec.

        Pass a ready :class:`~repro.durability.spec.DurabilitySpec`, or
        keyword knobs (``root_dir``, ``checkpoint_every_updates``,
        ``fsync``, ``detector_timeout_s``, ``auto_failover``,
        ``journal_path``, ...) to build one.  ``Gateway.from_spec`` then
        arms every shard with a write-ahead log and checkpoint store and
        the failure detector that drives failover; ``build()`` ignores
        it (a single server has no tier to fail over within).
        """
        if spec is not None and kwargs:
            raise ValueError("pass a DurabilitySpec or knobs, not both")
        self._durability = spec if spec is not None else DurabilitySpec(**kwargs)
        return self

    def routing(self, spec: "RoutingSpec | None" = None, **kwargs) -> "FleetBuilder":
        """Attach a device-placement recipe to the spec.

        Pass a ready :class:`~repro.gateway.scheduling.RoutingSpec`, or
        keyword knobs (``policy``, ``straggler_factor``, ``hysteresis``,
        ``min_dwell_s``, ``max_rebalance_fraction``, ``candidates``,
        ``seed``, ...) to build one.  The recipe rides on the spec's
        :class:`RuntimeSpec` — a sync-mode one is created when
        :meth:`runtime` was never called — so ``Gateway.from_spec``
        builds the configured router; ``build()`` ignores it (a single
        server routes nothing).
        """
        from repro.gateway.scheduling import RoutingSpec

        if spec is not None and kwargs:
            raise ValueError("pass a RoutingSpec or knobs, not both")
        self._routing = spec if spec is not None else RoutingSpec(**kwargs)
        return self

    # ------------------------------------------------------------------
    # Custom stages
    # ------------------------------------------------------------------
    @staticmethod
    def _as_factory(
        stage_or_factory: RequestStage | ResultStage | Callable[[], object],
    ) -> Callable[[], object]:
        # A callable is treated as a per-build factory; a stage instance is
        # reused across builds (shared state — fine for a single server,
        # deliberate for cross-shard aggregation of custom metrics).
        if isinstance(stage_or_factory, (RequestStage, ResultStage)):
            return lambda: stage_or_factory
        if callable(stage_or_factory):
            return stage_or_factory
        raise TypeError("expected a stage instance or a zero-arg stage factory")

    def request_stage(
        self, stage_or_factory: RequestStage | Callable[[], RequestStage]
    ) -> "FleetBuilder":
        """Append a custom request stage (instance or zero-arg factory)."""
        self._stage_factories.append((_REQUEST, self._as_factory(stage_or_factory)))
        return self

    def result_stage(
        self, stage_or_factory: ResultStage | Callable[[], ResultStage]
    ) -> "FleetBuilder":
        """Append a custom result stage (instance or zero-arg factory)."""
        self._stage_factories.append((_RESULT, self._as_factory(stage_or_factory)))
        return self

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def _make_optimizer_factory(self) -> Callable[[], StalenessAwareServer]:
        if self._optimizer_factory is not None:
            return self._optimizer_factory
        if self._params is None:
            raise ValueError(
                "no initial parameters: pass them to FleetBuilder(...) or "
                ".parameters(...), or provide a custom .optimizer(factory)"
            )
        params = self._params
        kwargs = dict(self._algorithm_kwargs)
        if self._algorithm == "adasgd":
            if self._num_labels is None:
                raise ValueError("adasgd needs num_labels for similarity boosting")
            num_labels = self._num_labels
            return lambda: make_adasgd(params.copy(), num_labels, **kwargs)
        maker = {"dynsgd": make_dynsgd, "fedavg": make_fedavg, "ssgd": make_ssgd}[
            self._algorithm
        ]
        return lambda: maker(params.copy(), **kwargs)

    def spec(self) -> ServerSpec:
        """Freeze the recipe (later builder mutations do not affect it)."""
        runtime = self._runtime
        if self._routing is not None:
            # Routing rides on the runtime spec; placement alone does not
            # imply async delivery, so the synthesized spec is sync-mode.
            runtime = (
                dataclasses.replace(runtime, routing=self._routing)
                if runtime is not None
                else RuntimeSpec(mode="sync", routing=self._routing)
            )
        return ServerSpec(
            optimizer_factory=self._make_optimizer_factory(),
            profiler_factory=self._profiler_factory,
            slo=self._slo,
            stage_factories=tuple(self._stage_factories),
            runtime=runtime,
            durability=self._durability,
        )

    def build(self) -> FleetServer:
        """One configured server."""
        return self.spec().build()

    def shard_factory(self) -> Callable[[int], FleetServer]:
        """Alias for :meth:`spec`: the spec is callable with a shard index."""
        return self.spec()


# ----------------------------------------------------------------------
# CLI stage specs
# ----------------------------------------------------------------------
STAGE_SPEC_HELP = (
    "pipeline stage, repeatable; NAME[:k=v,...] with NAME one of "
    "dp (clip, noise, seed), robust (rule, window, f, trim), "
    "sparse (fraction), telemetry, admission (min_batch, max_similarity)"
)


def _parse_value(raw: str) -> float | int | str:
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def parse_stage_spec(spec: str) -> tuple[str, dict]:
    """Parse ``name[:key=value,...]`` into (name, options)."""
    name, _, raw_options = spec.partition(":")
    name = name.strip().lower()
    options: dict = {}
    if raw_options:
        for item in raw_options.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed stage option {item!r} in {spec!r}")
            options[key.strip()] = _parse_value(value.strip())
    return name, options


def apply_stage_specs(
    builder: FleetBuilder,
    specs: list[str],
    *,
    telemetry_registry: MetricsRegistry | None = None,
) -> FleetBuilder:
    """Attach CLI ``--stage`` specs to a builder, in flag order.

    ``telemetry_registry`` backs any ``telemetry`` stage in ``specs``; the
    CLI passes one registry so a multi-shard gateway reports tier-wide
    pipeline metrics instead of one shard's slice.
    """
    for spec in specs:
        name, options = parse_stage_spec(spec)
        if name == "dp":
            builder.dp(
                clip_norm=float(options.pop("clip", 1.0)),
                noise_multiplier=float(options.pop("noise", 0.1)),
                seed=int(options.pop("seed", 0)),
            )
        elif name == "robust":
            builder.robust(
                rule=str(options.pop("rule", "median")),
                window=int(options.pop("window", 4)),
                num_byzantine=int(options.pop("f", 1)),
                trim=int(options.pop("trim", 1)),
            )
        elif name == "sparse":
            fraction = options.pop("fraction", None)
            builder.sparse_uploads(
                fraction=None if fraction is None else float(fraction)
            )
        elif name == "telemetry":
            builder.telemetry(registry=telemetry_registry)
        elif name == "admission":
            builder.admission(
                min_batch_size=options.pop("min_batch", None),
                max_similarity=options.pop("max_similarity", None),
            )
        else:
            raise ValueError(f"unknown stage {name!r} (from {spec!r})")
        if options:
            raise ValueError(f"unknown options {sorted(options)} for stage {name!r}")
    return builder
