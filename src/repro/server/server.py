"""The FLeet server: I-Prof + a stage pipeline + AdaSGD behind one endpoint.

``FleetServer.handle_request`` runs protocol steps 2-4 of Figure 2 (workload
bound, similarity, then the **request-stage chain** — admission control is
the first stage) and ``handle_result`` runs the server half of step 5 (the
**result-stage chain** — DP noise, robust pre-combine, sparse decode, … —
then profiler feedback + staleness-aware model update).

Construction sites should use :class:`repro.api.FleetBuilder`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.adasgd import GradientUpdate, StalenessAwareServer, stack_gradients
from repro.profiler.iprof import IProf, SLO
from repro.server.protocol import (
    TaskAssignment,
    TaskRejection,
    TaskRequest,
    TaskResult,
)
from repro.server.stages import (
    AdmissionStage,
    RequestContext,
    RequestStage,
    ResultStage,
)
from repro.server.telemetry import RejectionStats

__all__ = ["FleetServer"]


class FleetServer:
    """Service-provider side of the middleware.

    Parameters
    ----------
    optimizer:
        A configured :class:`StalenessAwareServer` (e.g. via ``make_adasgd``).
    profiler:
        I-Prof (or any object with the same recommend/report interface, such
        as :class:`repro.profiler.maui.MauiProfiler` for baselines).
    slo:
        The service-level objective advertised to workers.
    request_stages / result_stages:
        The middleware chains (see :mod:`repro.server.stages`).  If no
        ``AdmissionStage`` is present a permissive one is prepended, so
        every server has a governed admission point.
    """

    def __init__(
        self,
        optimizer: StalenessAwareServer,
        profiler: IProf,
        slo: SLO,
        *,
        request_stages: list[RequestStage] | tuple[RequestStage, ...] = (),
        result_stages: list[ResultStage] | tuple[ResultStage, ...] = (),
    ) -> None:
        self.optimizer = optimizer
        self.profiler = profiler
        self.slo = slo
        self.request_stages: list[RequestStage] = list(request_stages)
        if not any(isinstance(s, AdmissionStage) for s in self.request_stages):
            self.request_stages.insert(0, AdmissionStage())
        self.result_stages: list[ResultStage] = list(result_stages)
        for stage in (*self.request_stages, *self.result_stages):
            stage.bind(self)
        self.assignments_issued = 0
        self.results_applied = 0
        self.rejection_stats = RejectionStats()
        # Optional write-ahead log (repro.durability): every delivery is
        # recorded in _deliver before the fold so a crashed shard can be
        # replayed bit-exactly from its last checkpoint.
        self.wal = None

    @property
    def rejections(self):
        """Ring buffer of the most recent rejections (bounded; see
        :class:`~repro.server.telemetry.RejectionStats` for full counts)."""
        return self.rejection_stats.recent

    def find_request_stage(self, stage_type: type) -> RequestStage | None:
        """First request stage of the given type, or None."""
        for stage in self.request_stages:
            if isinstance(stage, stage_type):
                return stage
        return None

    def find_result_stage(self, stage_type: type) -> ResultStage | None:
        """First result stage of the given type, or None."""
        for stage in self.result_stages:
            if isinstance(stage, stage_type):
                return stage
        return None

    # ------------------------------------------------------------------
    # Steps 2-4: request handling
    # ------------------------------------------------------------------
    def handle_request(
        self, request: TaskRequest, now: float | None = None
    ) -> TaskAssignment | TaskRejection:
        """Bound the workload, compute similarity, run the request chain.

        ``now`` is passed to the stages (and otherwise ignored) so a
        ``FleetServer`` and a :class:`~repro.gateway.gateway.Gateway` are
        interchangeable endpoints for time-driven callers like the fleet
        simulation.
        """
        decision = self.profiler.recommend(
            request.device_model, request.features.as_vector(), self.slo
        )
        similarity = self.optimizer.similarity_of_counts(request.label_counts)
        ctx = RequestContext(
            request=request,
            batch_size=decision.batch_size,
            similarity=similarity,
            server=self,
            now=now,
        )
        for stage in self.request_stages:
            stage.on_request(ctx)
            if ctx.rejection is not None:
                self.rejection_stats.record(ctx.rejection)
                return ctx.rejection

        parameters, pull_step = self.optimizer.pull()
        self.assignments_issued += 1
        annotations = dict(ctx.annotations)
        # I-Prof's deadline prediction rides on the assignment: the
        # worker sees what the server expects of it, and a gateway in
        # front of this shard feeds it to straggler-aware routing.
        if decision.predicted_time_s is not None:
            annotations.setdefault(
                "profiler.predicted_time_s", decision.predicted_time_s
            )
            if self.slo.time_seconds is not None:
                annotations.setdefault(
                    "profiler.deadline_s", self.slo.time_seconds
                )
        return TaskAssignment(
            parameters=parameters,
            pull_step=pull_step,
            batch_size=ctx.batch_size,
            similarity=ctx.similarity,
            annotations=annotations,
        )

    # ------------------------------------------------------------------
    # Step 5 (server side): result handling
    # ------------------------------------------------------------------
    def handle_result(self, result: TaskResult, now: float | None = None) -> bool:
        """Run the result chain, feed the profiler, fold into the model.

        Returns True when the submission triggered a model update.
        ``now`` is accepted (and ignored) for gateway interchangeability.

        ``results_applied`` counts finite gradients delivered to the
        optimizer — at delivery time, in every code path (single, batched,
        finalize), so gateway sync weights compare shards in one unit even
        when ``aggregation_k > 1`` buffers deliveries across updates.  A
        buffering stage (e.g. robust pre-combine) that absorbs this result
        contributes at the later delivery instead.
        """
        self._validate_uploads([result])
        update = self._report_and_convert(result)
        carried: list[GradientUpdate] = [update]
        for stage in self.result_stages:
            transformed: list[GradientUpdate] = []
            for item in carried:
                out = stage.on_result(item, self)
                if out is not None:
                    transformed.append(out)
            carried = transformed
            if not carried:
                return False
        return self._deliver(carried)

    # hot-path
    def handle_result_batch(self, results: list[TaskResult]) -> bool:
        """Batched step 5: one model update for a gateway micro-batch.

        Every result still feeds the profiler individually (I-Prof learns
        from each device measurement), the batch traverses each result
        stage's ``on_batch`` hook, and the surviving gradients are folded
        into the model through :meth:`StalenessAwareServer.submit_many`,
        so the hot aggregation path runs once per batch instead of once
        per gradient.
        """
        if not results:
            return False
        self._validate_uploads(results)
        traces = [result.trace for result in results if result.trace is not None]
        updates = [self._report_and_convert(result) for result in results]
        if not traces:
            for stage in self.result_stages:
                updates = stage.on_batch(updates, self)
                if not updates:
                    return False
            return self._deliver(updates, batched=True)
        # Traced batch: meter each stage and the final fold.  Every trace
        # in the batch is charged the whole batch's stage time — each
        # upload waited for all of it (see the tracing module).
        for stage in self.result_stages:
            started = time.perf_counter()
            updates = stage.on_batch(updates, self)
            elapsed = time.perf_counter() - started
            for ctx in traces:
                ctx.add_phase(f"stage:{stage.name}", elapsed)
            if not updates:
                return False
        started = time.perf_counter()
        delivered = self._deliver(updates, batched=True)
        elapsed = time.perf_counter() - started
        for ctx in traces:
            ctx.add_phase("fold", elapsed)
        return delivered

    # hot-path
    def _deliver(self, updates: list[GradientUpdate], batched: bool = False) -> bool:
        """Validate post-stage updates and hand them to the optimizer.

        Same unit in every path: finite gradients delivered, counted at
        delivery (a NaN/Inf upload is rejected by the optimizer and must
        not weight this shard in gateway syncs).  The batched path stacks
        the surviving gradients once — the finite count and the
        optimizer's validation/fold all run on that one ``(B, D)`` matrix,
        and the row mask computed here is handed down so the optimizer does
        not re-validate the same bytes.
        """
        self._validate_updates(updates)
        if not updates:
            return False
        if self.wal is not None:
            # Write-ahead: the delivery hits disk before the fold touches
            # any optimizer state, so replay sees exactly what was applied.
            self.wal.log_apply(
                updates, clock=self.optimizer.clock, batched=batched
            )
        if not batched and len(updates) == 1:
            self.results_applied += int(np.isfinite(updates[0].gradient).all())
            return self.optimizer.submit(updates[0])
        stacked = stack_gradients([update.gradient for update in updates])
        finite = np.isfinite(stacked).all(axis=1)
        self.results_applied += int(finite.sum())
        return self.optimizer.submit_many(updates, stacked=stacked, finite=finite)

    def _validate_uploads(self, results: list[TaskResult]) -> None:
        """Reject malformed uploads BEFORE any state changes.

        Failing up front keeps a bad batch from polluting the profiler or
        inflating ``results_applied`` when the optimizer later raises.
        Dense gradients must match the model shape; sparse uploads must
        match the model dimension AND the server must actually run a
        decode stage — otherwise the payload would only blow up in
        ``_validate_updates`` after the profiler absorbed the batch.
        Other payload types pass through: a custom result stage may decode
        them, and ``_validate_updates`` still guards the optimizer.
        """
        from repro.server.sparsification import SparseGradient
        from repro.server.stages import SparseUploadDecodeStage

        shape = self.optimizer.parameter_shape
        for result in results:
            gradient = result.gradient
            if isinstance(gradient, np.ndarray):
                if gradient.shape != shape:
                    raise ValueError("gradient shape does not match model parameters")
            elif isinstance(gradient, SparseGradient):
                if (gradient.dimension,) != shape:
                    raise ValueError(
                        "sparse gradient dimension does not match model parameters"
                    )
                if self.find_result_stage(SparseUploadDecodeStage) is None:
                    raise ValueError(
                        "sparse upload to a server without a sparse-decode "
                        "stage (configure FleetBuilder.sparse_uploads)"
                    )

    def _validate_updates(self, updates: list[GradientUpdate]) -> None:
        """After the chain ran, every gradient must be a dense model vector."""
        shape = self.optimizer.parameter_shape
        for update in updates:
            if (
                not isinstance(update.gradient, np.ndarray)
                or update.gradient.shape != shape
            ):
                raise ValueError("gradient shape does not match model parameters")

    def _report_and_convert(self, result: TaskResult) -> GradientUpdate:
        """Feed one result's measurements to the profiler; wrap its gradient."""
        self.profiler.report(
            result.device_model,
            result.features.as_vector(),
            result.batch_size,
            computation_time_s=result.computation_time_s,
            energy_percent=result.energy_percent,
        )
        return GradientUpdate(
            gradient=result.gradient,
            pull_step=result.pull_step,
            label_counts=result.label_counts,
            batch_size=result.batch_size,
            worker_id=result.worker_id,
        )

    def finalize(self, now: float | None = None) -> None:
        """End of run: drain stage buffers, then any partial optimizer window.

        A no-op with stateless stages and ``aggregation_k = 1``; with
        buffering stages (robust pre-combine) or time/size-window
        aggregation it prevents gradients from being stranded when the
        caller's clock stops.  Gradients already delivered were counted in
        ``results_applied`` at delivery time; stage leftovers are counted
        here, at their delivery.
        """
        for index, stage in enumerate(self.result_stages):
            leftovers = stage.flush(self)
            if not leftovers:
                continue
            for later in self.result_stages[index + 1 :]:
                leftovers = later.on_batch(leftovers, self)
                if not leftovers:
                    break
            if leftovers:
                self._deliver(leftovers, batched=True)
        self.optimizer.flush()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def current_parameters(self) -> np.ndarray:
        """The canonical global model vector."""
        return self.optimizer.current_parameters()

    def applied_staleness(self) -> np.ndarray:
        """Staleness of every gradient folded into the model."""
        return self.optimizer.applied_staleness()

    @property
    def clock(self) -> int:
        return self.optimizer.clock
