"""Command-line interface: run scaled-down versions of the paper's experiments.

Usage::

    python -m repro list
    python -m repro staleness --algorithm adasgd --steps 600 --mu 6 --sigma 2
    python -m repro online --days 4
    python -m repro profile --device "Galaxy S7" --requests 8
    python -m repro dampening --tau-thres 12
    python -m repro fleet-sim --users 20 --hours 1
    python -m repro gateway-sim --shards 4 --batch-size 4
    python -m repro gateway-sim --runtime async --autoscale --max-shards 8
    python -m repro gateway-sim --routing deadline --straggler-factor 1.5
    python -m repro freshness --users 16

Every command prints a compact textual report; the benchmark suite in
``benchmarks/`` remains the authoritative regeneration of the paper's
tables and figures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        ("staleness", "AdaSGD/DynSGD/FedAvg/SSGD under Gaussian staleness (Fig. 8)"),
        ("online", "Online vs Standard FL on the tweet stream (Fig. 6)"),
        ("profile", "I-Prof vs MAUI on one device (Fig. 12)"),
        ("dampening", "print the Fig. 5 dampening curves"),
        ("devices", "list the simulated device catalog"),
        ("fleet-sim", "end-to-end middleware simulation on a virtual clock"),
        ("gateway-sim", "fleet simulation through the sharded serving gateway"),
        ("trace-report", "critical-path/causes report from a JSONL journal"),
        ("slo-report", "alert timeline + budget summary from a JSONL journal"),
        ("freshness", "Standard vs Online FL data-freshness gap (Fig. 1)"),
    ]
    for name, desc in rows:
        print(f"  {name:<12} {desc}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.devices import CATALOG

    print(f"{'model':<18} {'year':<5} {'cores':<8} {'ms/sample':<10} battery")
    for spec in sorted(CATALOG.values(), key=lambda s: s.alpha_time):
        little = spec.little.num_cores if spec.little else 0
        print(f"{spec.name:<18} {spec.year:<5} {spec.big.num_cores}+{little:<6} "
              f"{spec.alpha_time*1e3:<10.2f} {spec.battery_mwh:.0f} mWh")
    return 0


def _cmd_dampening(args: argparse.Namespace) -> int:
    from repro.core import ExponentialDampening, InverseDampening

    exp_d = ExponentialDampening(args.tau_thres)
    inv_d = InverseDampening()
    print(f"tau_thres = {args.tau_thres}, beta = {exp_d.beta:.4f}")
    print(f"{'tau':>5} {'AdaSGD':>10} {'DynSGD':>10}")
    for tau in range(0, int(4 * args.tau_thres) + 1, max(1, int(args.tau_thres / 4))):
        print(f"{tau:>5} {exp_d(tau):>10.4f} {inv_d(tau):>10.4f}")
    return 0


def _cmd_staleness(args: argparse.Namespace) -> int:
    from repro.core import make_adasgd, make_dynsgd, make_fedavg, make_ssgd
    from repro.data import make_mnist_like, shard_non_iid_split
    from repro.nn import build_mnist_cnn
    from repro.simulation import GaussianStaleness, run_staleness_experiment

    dataset = make_mnist_like(seed=args.seed, train_per_class=80, test_per_class=25)
    partition = shard_non_iid_split(
        dataset.train_y, 20, np.random.default_rng(args.seed)
    )
    model = build_mnist_cnn(np.random.default_rng(args.seed + 1), scale=0.5)
    params = model.get_parameters()

    factories = {
        "adasgd": lambda: make_adasgd(
            params.copy(), 10, learning_rate=args.learning_rate,
            initial_tau_thres=args.mu + 3 * args.sigma,
        ),
        "dynsgd": lambda: make_dynsgd(params.copy(), learning_rate=args.learning_rate),
        "fedavg": lambda: make_fedavg(params.copy(), learning_rate=args.learning_rate),
        "ssgd": lambda: make_ssgd(params.copy(), learning_rate=args.learning_rate),
    }
    if args.algorithm not in factories:
        print(f"unknown algorithm {args.algorithm!r}", file=sys.stderr)
        return 2
    server = factories[args.algorithm]()
    staleness = None
    if args.algorithm != "ssgd":
        staleness = GaussianStaleness(
            args.mu, args.sigma, np.random.default_rng(args.seed + 2)
        )
    curve = run_staleness_experiment(
        server, model, dataset, partition, staleness, num_steps=args.steps,
        rng=np.random.default_rng(args.seed + 3), batch_size=args.batch_size,
        eval_every=max(1, args.steps // 8), eval_size=200,
    )
    print(f"{args.algorithm} on non-IID MNIST-like, staleness "
          f"N({args.mu}, {args.sigma}), {args.steps} steps:")
    for step, acc in zip(curve.steps, curve.accuracy):
        print(f"  step {step:>5}  accuracy {acc:.3f}")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from repro.data.tweets import TweetStream, TweetStreamConfig
    from repro.nn import build_hashtag_rnn
    from repro.simulation.online import run_online_comparison

    config = TweetStreamConfig(
        num_days=args.days, tweets_per_hour=25, num_users=30,
        vocab_size=120, num_hashtags=30, seed=args.seed,
    )
    stream = TweetStream(config)

    def builder():
        return build_hashtag_rnn(
            np.random.default_rng(0), vocab_size=config.vocab_size,
            embed_dim=12, hidden_dim=16, num_hashtags=config.num_hashtags,
        )

    result = run_online_comparison(stream, builder, learning_rate=0.4)
    online, standard, baseline = result.mean_f1()
    print(f"F1@top-5 over {len(result.chunk_index)} chunks: "
          f"online {online:.3f}, standard {standard:.3f}, baseline {baseline:.3f}")
    print(f"boost: {result.mean_boost():.2f}x")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.devices import SimulatedDevice, get_spec
    from repro.profiler import IProf, SLO, collect_offline_dataset

    train = [
        SimulatedDevice(get_spec(n), np.random.default_rng(i))
        for i, n in enumerate(["Galaxy S6", "Nexus 5", "Pixel", "MotoG3"])
    ]
    xs, ys = collect_offline_dataset(train, slo_seconds=args.slo, kind="time")
    iprof = IProf()
    iprof.pretrain_time(xs, ys)
    device = SimulatedDevice(get_spec(args.device), np.random.default_rng(args.seed))
    slo = SLO(time_seconds=args.slo)
    print(f"I-Prof on {args.device}, SLO {args.slo}s:")
    for k in range(args.requests):
        features = device.features().as_vector()
        decision = iprof.recommend(args.device, features, slo)
        m = device.execute(decision.batch_size)
        iprof.report(args.device, features, decision.batch_size,
                     computation_time_s=m.computation_time_s)
        print(f"  req {k}: batch {decision.batch_size:>5}  "
              f"actual {m.computation_time_s:.2f}s  "
              f"error {m.computation_time_s - args.slo:+.2f}s")
        device.idle(45.0)
    return 0


def _fleet_workload(
    seed: int,
    num_users: int,
    stage_specs: list[str] | None = None,
    telemetry_registry=None,
):
    """Shared fleet-sim bootstrap: dataset, partition, model, server spec.

    ``fleet-sim`` builds one server from the spec; ``gateway-sim`` stamps
    out several shards from the same spec.  Keeping the construction in
    one place keeps the two arms comparable, and ``--stage`` flags attach
    pipeline stages (DP, robust, sparse decode, telemetry, admission) to
    every server the spec produces.
    """
    from repro.api import FleetBuilder, apply_stage_specs
    from repro.data import iid_split, make_mnist_like
    from repro.devices import SimulatedDevice, fleet_specs
    from repro.nn import build_logistic
    from repro.profiler import collect_offline_dataset

    rng = np.random.default_rng(seed)
    dataset = make_mnist_like(train_per_class=200, test_per_class=25)
    partition = iid_split(dataset.train_y, num_users, rng)
    training = [
        SimulatedDevice(spec, np.random.default_rng(60 + i))
        for i, spec in enumerate(fleet_specs(5, np.random.default_rng(6)))
    ]
    xs, ys = collect_offline_dataset(training, slo_seconds=3.0, kind="time")
    model = build_logistic(np.random.default_rng(1), 28 * 28, 10)

    builder = (
        FleetBuilder(model.get_parameters(), num_labels=10)
        .algorithm("adasgd", learning_rate=0.02, initial_tau_thres=12.0)
        .pretrained_profiler(xs, ys)
        .slo(3.0)
    )
    apply_stage_specs(
        builder, stage_specs or [], telemetry_registry=telemetry_registry
    )
    return rng, dataset, partition, model, builder.spec()


def _print_pipeline_summary(server) -> None:
    """Rejection breakdown (always) + telemetry report (when staged)."""
    from repro.server.stages import TelemetryStage

    from repro.server.telemetry import format_reason_counts

    if hasattr(server, "rejection_counts"):  # gateway: merged across shards
        breakdown = format_reason_counts(server.rejection_counts())
    else:
        breakdown = server.rejection_stats.breakdown()
    print(f"rejections by reason: {breakdown}")
    # Gateways expose the first shard's chain; the CLI builds every shard's
    # telemetry stage on one shared registry, so this report is tier-wide.
    stage = server.find_result_stage(TelemetryStage)
    if stage is not None:
        print(stage.report())


def _cmd_fleet_sim(args: argparse.Namespace) -> int:
    from repro.analysis import cdf_table, gaussian_tail_split
    from repro.simulation import FleetSimConfig, FleetSimulation

    rng, dataset, partition, model, spec = _fleet_workload(
        args.seed, args.users, stage_specs=args.stage
    )
    server = spec.build()
    simulation = FleetSimulation(
        server=server, model=model, dataset=dataset, partition=partition,
        rng=rng,
        config=FleetSimConfig(horizon_s=args.hours * 3600.0,
                              mean_think_time_s=args.think_time),
    )
    result = simulation.run()
    print(f"{result.completed} tasks completed, {result.aborted} aborted, "
          f"{server.clock} model updates, final accuracy "
          f"{result.final_accuracy():.3f}")
    if result.round_trip_seconds:
        print("round trip:",
              cdf_table(np.array(result.round_trip_seconds), unit="s"))
    staleness = result.applied_staleness(server)
    if staleness.size:
        body, tail = gaussian_tail_split(staleness)
        print(f"staleness: body mean {body.mean():.1f} std {body.std():.1f}, "
              f"tail n={tail.size}, max {staleness.max():.0f}")
    else:
        print("staleness: no gradients applied")
    _print_pipeline_summary(server)
    return 0


def _tier_gateway(
    args: argparse.Namespace, spec, admission_rate, sample_rate=1.0, **kwargs
):
    """The gateway both tier commands drive: batching, admission and
    ``--trace`` (at ``sample_rate``) from the shared tier flags."""
    from repro.gateway import Gateway, GatewayConfig, ObservabilitySpec
    from repro.runtime import AggregationCostModel

    return Gateway.from_spec(
        args.shards, spec,
        GatewayConfig(
            batch_size=args.batch_size,
            batch_deadline_s=args.batch_deadline,
            sync_every_s=args.sync_every,
            admission_rate_per_s=admission_rate,
        ),
        cost_model=AggregationCostModel(),
        observability=(
            ObservabilitySpec(sample_rate=sample_rate, seed=args.seed)
            if args.trace
            else None
        ),
        **kwargs,
    )


def _print_tier_tail(gateway, args: argparse.Namespace) -> None:
    """The report tail both tier commands share: journal export
    (``--journal``) and metrics dump (``--metrics-format``)."""
    if args.journal is not None:
        traces = (
            [t.to_dict() for t in gateway.tracer.collector.traces]
            if gateway.tracer is not None
            else []
        )
        written = gateway.journal.export_jsonl(args.journal, extra=traces)
        print(f"journal: {written} records -> {args.journal}")
    if args.metrics_format == "prom":
        from repro.observability import render_prometheus

        print(render_prometheus(gateway.metrics), end="")
    elif args.metrics_format == "json":
        import json

        from repro.observability import registry_snapshot

        print(json.dumps(registry_snapshot(gateway.metrics), indent=2))


def _cmd_gateway_sim(args: argparse.Namespace) -> int:
    from repro.gateway import ElasticityPolicy, RoutingSpec, RuntimeSpec
    from repro.server.telemetry import MetricsRegistry
    from repro.simulation import FleetSimConfig, FleetSimulation

    rng, dataset, partition, model, spec = _fleet_workload(
        args.seed, args.users, stage_specs=args.stage,
        telemetry_registry=MetricsRegistry(),
    )
    # With --autoscale, --admission-rate is per shard (the controller
    # retunes the bucket to rate × shards on every scaling event);
    # without it, the flag stays the tier-wide rate it always was.
    admission_rate = args.admission_rate
    routing = (
        RoutingSpec(
            policy="deadline",
            straggler_factor=args.straggler_factor,
            seed=args.seed,
        )
        if args.routing == "deadline"
        else None
    )
    policy = None
    if args.autoscale:
        policy = ElasticityPolicy(
            min_shards=1,
            max_shards=args.max_shards,
            window_s=args.autoscale_window,
            cooldown_s=args.autoscale_window,
            admission_rate_per_shard=args.admission_rate,
        )
        if args.admission_rate is not None:
            admission_rate = args.admission_rate * args.shards
    runtime = RuntimeSpec(
        mode=args.runtime,
        queue_capacity=args.queue_capacity,
        autoscale=policy,
        routing=routing,
    )
    durability = None
    if args.durability or args.wal_dir is not None or args.crash_shard_at is not None:
        import tempfile
        from pathlib import Path

        from repro.durability import DurabilitySpec

        root = args.wal_dir or tempfile.mkdtemp(prefix="repro-durability-")
        durability = DurabilitySpec(
            root_dir=root,
            checkpoint_every_updates=args.checkpoint_every,
            detector_timeout_s=args.detector_timeout,
            journal_path=Path(root) / "journal.jsonl",
        )
    slo = None
    if args.slo or args.slo_json is not None:
        from repro.observability import SLOSpec

        slo = SLOSpec(
            latency_bound_s=args.slo_latency_bound,
            staleness_bound=args.slo_staleness_bound,
            fast_window_s=args.slo_fast_window,
            slow_window_s=args.slo_slow_window,
        )
    gateway = _tier_gateway(
        args, spec, admission_rate, sample_rate=args.trace_sample,
        runtime=runtime, durability=durability, slo=slo,
    )
    heartbeat_s = args.autoscale_window / 2 if args.autoscale else None
    if args.crash_shard_at is not None:
        # Detection needs time to keep ticking while the dead shard's
        # devices go quiet: heartbeat at half the detector timeout.
        detect_tick = args.detector_timeout / 2
        heartbeat_s = min(heartbeat_s, detect_tick) if heartbeat_s else detect_tick
    simulation = FleetSimulation(
        server=gateway, model=model, dataset=dataset, partition=partition,
        rng=rng,
        config=FleetSimConfig(
            horizon_s=args.hours * 3600.0,
            mean_think_time_s=args.think_time,
            heartbeat_s=heartbeat_s,
            crash_shard_at_s=args.crash_shard_at,
        ),
    )
    result = simulation.run()
    print(f"{args.shards} shards ({args.runtime}), batch {args.batch_size}: "
          f"{result.completed} tasks completed, {result.aborted} aborted, "
          f"{gateway.requests_shed()} shed, {gateway.clock} model updates, "
          f"final accuracy {result.final_accuracy():.3f}")
    print(f"serving-tier throughput {gateway.virtual_throughput():.2f} results/s "
          f"(virtual), upload compression {gateway.batcher.compression_ratio():.1f}x")
    print(f"routing: {gateway.router.describe()}")
    print("per-shard staleness tails:")
    for shard_id in sorted(gateway.shards):
        staleness = gateway.shards[shard_id].applied_staleness()
        if staleness.size:
            print(f"  {shard_id}: n={staleness.size} "
                  f"p50={np.percentile(staleness, 50):.1f} "
                  f"p95={np.percentile(staleness, 95):.1f} "
                  f"max={staleness.max():.0f}")
        else:
            print(f"  {shard_id}: no gradients applied")
    print(gateway.report())
    if gateway.autoscaler is not None:
        # The scaling-event timeline itself is part of gateway.report().
        print(f"autoscaler: {gateway.num_shards} shards at end, "
              f"{len(gateway.autoscaler.events)} scaling events")
    if gateway.durability is not None:
        kinds = gateway.journal.counts_by_kind()
        print(f"durability: root {gateway.durability.root}, "
              f"{gateway.durability.checkpoints_written} checkpoints, "
              f"{gateway.durability.restores} restores "
              f"(crashes {kinds.get('shard_crash', 0)}, "
              f"failovers {kinds.get('failover_done', 0)}); "
              f"inspect with: repro wal-inspect {gateway.durability.root}")
    if gateway.slo_engine is not None:
        health = gateway.health_snapshot()
        alerts = gateway.slo_engine.active_alerts()
        print(f"health: {health['status']} "
              f"({health['num_shards']} shards live, "
              f"{len(health['crashed_shards'])} down), "
              f"active alerts: {', '.join(alerts) if alerts else 'none'}")
    if args.slo_json is not None:
        import json

        document = {
            "slo": gateway.slo_engine.snapshot(),
            "health": gateway.health_snapshot(),
        }
        with open(args.slo_json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True,
                      allow_nan=False)
            handle.write("\n")
        print(f"slo snapshot -> {args.slo_json}")
    _print_pipeline_summary(gateway)

    if args.trace:
        from repro.observability import critical_path_table, journal_summary

        traces = [t.to_dict() for t in gateway.tracer.collector.traces]
        print(f"tracing: {gateway.tracer.started} sampled of "
              f"{gateway.tracer.uploads_seen} uploads "
              f"(rate {gateway.tracer.spec.sample_rate:g}), "
              f"{gateway.tracer.dropped} dropped by full lanes")
        print(critical_path_table(traces))
        print(journal_summary(
            gateway.journal.to_dicts(), gateway.journal.counts_by_kind()
        ))
        if args.per_shard:
            from repro.observability import (
                per_shard_event_table,
                per_shard_table,
            )

            print(per_shard_table(traces))
            print(per_shard_event_table(gateway.journal.to_dicts()))
    _print_tier_tail(gateway, args)
    return 0


def _cmd_frontend_sim(args: argparse.Namespace) -> int:
    """Drive the asyncio device frontend over loopback TCP.

    Unlike ``fleet-sim``/``gateway-sim`` (virtual clock, in-process
    calls), every upload here crosses a real socket through the wire
    protocol of docs/protocol.md, then drains gracefully.  ``closed``
    mode runs the full REQUEST → ASSIGNMENT → compute → RESULT cycle
    with real workers on the MNIST-like workload; ``open``/``push``
    modes push synthetic gradients to stress admission and windows.
    """
    from repro.devices import SimulatedDevice, fleet_specs
    from repro.frontend import FrontendConfig, LoadGenConfig, run_loopback_sync
    from repro.observability import SLOSpec
    from repro.server.telemetry import MetricsRegistry
    from repro.server.worker import Worker

    rng, dataset, partition, model, spec = _fleet_workload(
        args.seed, args.devices, stage_specs=args.stage,
        telemetry_registry=MetricsRegistry(),
    )
    gateway = _tier_gateway(
        args, spec, args.admission_rate, slo=SLOSpec() if args.slo else None
    )
    dimension = model.get_parameters().size
    request_factory = result_factory = None
    if args.mode == "closed":
        device_specs = fleet_specs(5, np.random.default_rng(6))
        workers = {}
        for user_id in range(args.devices):
            indices = partition.user_indices[user_id % partition.num_users]
            workers[user_id] = Worker(
                worker_id=user_id,
                model=model,
                data_x=dataset.train_x[indices],
                data_y=dataset.train_y[indices],
                num_labels=dataset.num_classes,
                device=SimulatedDevice(
                    device_specs[user_id % len(device_specs)],
                    np.random.default_rng(60 + user_id),
                ),
                rng=np.random.default_rng(600 + user_id),
            )
        request_factory = lambda wid: workers[wid].build_request()  # noqa: E731
        result_factory = (  # noqa: E731
            lambda wid, assignment: workers[wid].execute_assignment(assignment)
        )
    config = LoadGenConfig(
        devices=args.devices,
        mode=args.mode,
        uploads_per_device=args.uploads,
        think_time_s=args.think_time,
        rate_per_s=args.rate,
        duration_s=args.duration,
        window=args.window,
        dimension=dimension,
        num_labels=dataset.num_classes,
        seed=args.seed,
    )
    report = run_loopback_sync(
        gateway, config,
        frontend_config=FrontendConfig(max_inflight=args.window),
        request_factory=request_factory,
        result_factory=result_factory,
    )
    stats = report.stats
    print(f"{args.devices} devices ({args.mode} loop) over loopback TCP: "
          f"{stats.uploads_sent} uploads sent, {stats.acked} acked "
          f"({stats.applied} applied inline), {stats.overloaded} overloaded, "
          f"{gateway.requests_shed()} shed at admission")
    print(f"gateway: {report.results_received} received, "
          f"{report.results_applied} applied after drain "
          f"(drain {report.drain['drain_s']*1e3:.1f} ms), "
          f"{gateway.clock} model updates")
    print(f"wall time {report.wall_s:.2f} s, "
          f"{report.uploads_per_s:.0f} acked uploads/s")
    metrics = gateway.metrics
    print("frontend: "
          f"{metrics.counter('frontend.connections').value} connections "
          f"(peak {metrics.gauge('frontend.peak_connections').value:.0f} open), "
          f"{metrics.counter('frontend.bytes_in').value} B in, "
          f"{metrics.counter('frontend.bytes_out').value} B out, "
          f"{metrics.counter('frontend.torn_disconnects').value} torn")
    if stats.rejections:
        print(f"typed rejections: {stats.rejections}")
    _print_pipeline_summary(gateway)
    if args.slo:
        health = gateway.health_snapshot()
        alerts = gateway.slo_engine.active_alerts()
        print(f"health: {health['status']}, active alerts: "
              f"{', '.join(alerts) if alerts else 'none'}")
    if args.trace:
        from repro.observability import critical_path_table

        traces = [t.to_dict() for t in gateway.tracer.collector.traces]
        print(critical_path_table(traces))
    _print_tier_tail(gateway, args)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.observability import (
        critical_path_table,
        journal_summary,
        load_jsonl,
        per_shard_event_table,
        per_shard_table,
    )

    records = load_jsonl(args.path)
    traces = [r for r in records if r.get("kind") == "trace"]
    events = [r for r in records if r.get("kind") != "trace"]
    print(critical_path_table(traces))
    print(journal_summary(events))
    if args.per_shard:
        print(per_shard_table(traces))
        print(per_shard_event_table(events))
    return 0


def _cmd_slo_report(args: argparse.Namespace) -> int:
    from repro.observability import alert_timeline, load_jsonl

    records = load_jsonl(args.path)
    print(alert_timeline(records))
    if args.snapshot is not None:
        import json

        with open(args.snapshot, encoding="utf-8") as handle:
            document = json.load(handle)
        slo = document.get("slo", document)
        print(f"slo engine: {slo.get('evaluations', 0)} evaluations, "
              f"{slo.get('alerts_fired', 0)} fired / "
              f"{slo.get('alerts_resolved', 0)} resolved")
        for name, objective in sorted(slo.get("objectives", {}).items()):
            state = "FIRING" if objective.get("firing") else "ok"
            print(f"  {name:<18} "
                  f"objective={objective.get('objective', 0.0):.4f} "
                  f"budget={objective.get('budget_remaining', 0.0):.1%} "
                  f"{state}")
        health = document.get("health")
        if health is not None:
            print(f"health: {health.get('status', '?')} "
                  f"({health.get('num_shards', 0)} shards live)")
    return 0


def _cmd_wal_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.durability import checkpoint_summary, wal_summary

    root = Path(args.path)
    if not root.is_dir():
        print(f"not a directory: {root}")
        return 1
    # Accept either a durability root (one subdirectory per shard) or a
    # single shard's directory (wal/ + checkpoints/ directly inside).
    if (root / "wal").is_dir() or (root / "checkpoints").is_dir():
        shard_dirs = [root]
    else:
        shard_dirs = sorted(
            child for child in root.iterdir()
            if (child / "wal").is_dir() or (child / "checkpoints").is_dir()
        )
    if not shard_dirs:
        print(f"no shard durability directories under {root}")
        return 1
    for shard_dir in shard_dirs:
        print(f"{shard_dir.name}:")
        wal = wal_summary(shard_dir / "wal")
        status = "intact" if wal["intact"] else "TORN TAIL"
        print(f"  wal: {len(wal['segments'])} segments, {wal['records']} records "
              f"({wal['apply_records']} apply / {wal['param_records']} params), "
              f"{wal['results_logged']} results logged, "
              f"last clock {wal['last_clock']}, {status}")
        for segment in wal["segments"]:
            print(f"    {segment['file']}: {segment['bytes']} bytes, "
                  f"{segment['records']} records "
                  f"(seq {segment['first_seq']}..{segment['last_seq']})")
        ckpt = checkpoint_summary(shard_dir / "checkpoints")
        print(f"  checkpoints: {ckpt['count']} retained, "
              f"latest wal_seq {ckpt['latest_wal_seq']}, "
              f"latest clock {ckpt['latest_clock']}")
        for entry in ckpt["checkpoints"]:
            print(f"    {entry['file']}: wal_seq={entry['wal_seq']} "
                  f"clock={entry['clock']} t={entry['time']:.1f}s")
    return 0


def _cmd_freshness(args: argparse.Namespace) -> int:
    from repro.devices.activity import UserActivityModel
    from repro.devices.charging import ChargingModel
    from repro.analysis import sparkline
    from repro.network import WIFI, NetworkConditions, NetworkInterface
    from repro.simulation.standard_fl import (
        EligibilityPolicy,
        ParticipantProfile,
        eligibility_fraction,
        simulate_freshness,
    )

    profiles = []
    for user in range(args.users):
        rng = np.random.default_rng(args.seed * 1000 + user)
        conditions = (NetworkConditions(rng, fixed_link=WIFI) if user % 4 == 0
                      else NetworkConditions(rng, mean_dwell_s=1800.0))
        profiles.append(ParticipantProfile(
            activity=UserActivityModel(seed=user),
            charging=ChargingModel(seed=user),
            network=NetworkInterface(conditions, rng),
        ))
    curve = eligibility_fraction(
        profiles, EligibilityPolicy.standard_fl(), day_start_s=24 * 3600.0
    )
    print(f"Standard-FL eligibility by hour: {sparkline(curve, low=0.0, high=1.0)}")
    online = simulate_freshness(profiles, EligibilityPolicy.online_fl(),
                                np.random.default_rng(0), policy_name="online")
    standard = simulate_freshness(profiles, EligibilityPolicy.standard_fl(),
                                  np.random.default_rng(0), policy_name="standard")
    print(f"median data-to-model delay: online {online.median_delay_s/60:.1f} min, "
          f"standard {standard.median_delay_s/3600:.1f} h "
          f"({standard.median_delay_s/online.median_delay_s:.0f}x gap)")
    return 0


def _add_tier_flags(
    parser: argparse.ArgumentParser,
    *,
    shards: int,
    batch_deadline: float,
    sync_every: float,
    help: dict[str, str],
) -> None:
    """The serving-tier flags ``gateway-sim`` and ``frontend-sim`` share.

    Each command keeps its own defaults (virtual vs wall-clock seconds)
    and its own help text, keyed by flag in ``help``.
    """
    from repro.api import STAGE_SPEC_HELP

    parser.add_argument("--shards", type=int, default=shards)
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--batch-deadline", type=float, default=batch_deadline,
                        help=help.get("--batch-deadline"))
    parser.add_argument("--sync-every", type=float, default=sync_every)
    parser.add_argument("--admission-rate", type=float, default=None,
                        help=help["--admission-rate"])
    parser.add_argument("--stage", action="append", default=None,
                        metavar="SPEC", help=STAGE_SPEC_HELP)
    parser.add_argument("--trace", action="store_true", help=help["--trace"])
    parser.add_argument("--slo", action="store_true", help=help["--slo"])
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help=help["--journal"])
    parser.add_argument("--metrics-format", choices=["text", "prom", "json"],
                        default="text", help=help.get("--metrics-format"))
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLeet reproduction: scaled-down paper experiments",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("devices", help="list the simulated device catalog")

    damp = sub.add_parser("dampening", help="print Fig. 5 dampening curves")
    damp.add_argument("--tau-thres", type=float, default=12.0)

    stale = sub.add_parser("staleness", help="run one Fig. 8-style training")
    stale.add_argument("--algorithm", default="adasgd",
                       choices=["adasgd", "dynsgd", "fedavg", "ssgd"])
    stale.add_argument("--steps", type=int, default=600)
    stale.add_argument("--mu", type=float, default=6.0)
    stale.add_argument("--sigma", type=float, default=2.0)
    stale.add_argument("--learning-rate", type=float, default=0.1)
    stale.add_argument("--batch-size", type=int, default=64)
    stale.add_argument("--seed", type=int, default=0)

    online = sub.add_parser("online", help="Online vs Standard FL (Fig. 6)")
    online.add_argument("--days", type=int, default=4)
    online.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser("profile", help="I-Prof on one device (Fig. 12)")
    profile.add_argument("--device", default="Galaxy S7")
    profile.add_argument("--requests", type=int, default=6)
    profile.add_argument("--slo", type=float, default=3.0)
    profile.add_argument("--seed", type=int, default=0)

    from repro.api import STAGE_SPEC_HELP

    fleet = sub.add_parser(
        "fleet-sim", help="end-to-end middleware simulation (virtual clock)"
    )
    fleet.add_argument("--users", type=int, default=20)
    fleet.add_argument("--hours", type=float, default=0.5)
    fleet.add_argument("--think-time", type=float, default=15.0)
    fleet.add_argument("--stage", action="append", default=None,
                       metavar="SPEC", help=STAGE_SPEC_HELP)
    fleet.add_argument("--seed", type=int, default=0)

    gateway = sub.add_parser(
        "gateway-sim", help="fleet simulation through the sharded gateway"
    )
    gateway.add_argument("--users", type=int, default=20)
    gateway.add_argument("--hours", type=float, default=0.5)
    gateway.add_argument("--think-time", type=float, default=15.0)
    gateway.add_argument("--runtime", choices=["sync", "async"], default="sync",
                         help="micro-batch delivery: on the caller's thread "
                              "(sync) or per-shard worker lanes (async)")
    gateway.add_argument("--autoscale", action="store_true",
                         help="auto add/remove shards from queue signals "
                              "(--shards is the starting count)")
    gateway.add_argument("--max-shards", type=int, default=8,
                         help="autoscaler upper bound")
    gateway.add_argument("--autoscale-window", type=float, default=60.0,
                         help="autoscaler observation window (virtual s)")
    gateway.add_argument("--queue-capacity", type=int, default=64,
                         help="pending micro-batches per shard lane (async)")
    gateway.add_argument("--routing", choices=["hash", "deadline"],
                         default="hash",
                         help="device placement: consistent hash only, or "
                              "steer predicted stragglers to quiet shards")
    gateway.add_argument("--straggler-factor", type=float, default=1.5,
                         help="latency/deadline ratio above which a device "
                              "is steered (with --routing deadline)")
    gateway.add_argument("--trace-sample", type=float, default=1.0,
                         help="fraction of uploads traced with --trace "
                              "(library default is 1/64; the CLI defaults "
                              "to 1.0 so short runs report fully)")
    gateway.add_argument("--durability", action="store_true",
                         help="write-ahead log + periodic checkpoints per "
                              "shard (implied by --wal-dir/--crash-shard-at)")
    gateway.add_argument("--wal-dir", default=None, metavar="PATH",
                         help="durability root directory (one subdirectory "
                              "per shard; a temp dir when omitted)")
    gateway.add_argument("--crash-shard-at", type=float, default=None,
                         metavar="T",
                         help="kill one shard's in-memory state at T virtual "
                              "seconds; the failure detector then drives "
                              "failover from checkpoint + WAL replay")
    gateway.add_argument("--checkpoint-every", type=int, default=100,
                         metavar="N",
                         help="model updates between shard checkpoints")
    gateway.add_argument("--detector-timeout", type=float, default=60.0,
                         help="seconds of shard silence before the failure "
                              "detector declares it dead")
    gateway.add_argument("--slo-latency-bound", type=float, default=2.0,
                         help="end-to-end upload latency bound (virtual s) "
                              "for the latency SLO")
    gateway.add_argument("--slo-staleness-bound", type=float, default=16.0,
                         help="applied-staleness bound (model steps) for "
                              "the staleness SLO")
    gateway.add_argument("--slo-fast-window", type=float, default=300.0,
                         help="fast burn-rate window (virtual s)")
    gateway.add_argument("--slo-slow-window", type=float, default=3600.0,
                         help="slow burn-rate window (virtual s)")
    gateway.add_argument("--slo-json", default=None, metavar="PATH",
                         help="write the SLO snapshot + health document as "
                              "JSON for `repro slo-report` (implies --slo)")
    gateway.add_argument("--per-shard", action="store_true",
                         help="with --trace, also print per-shard latency "
                              "and event attribution tables")
    _add_tier_flags(
        gateway, shards=4, batch_deadline=30.0, sync_every=300.0,
        help={
            "--admission-rate": "token-bucket rate (requests/s; per shard "
                                "with --autoscale); omit to disable",
            "--trace": "trace uploads end to end and print the "
                       "critical-path breakdown",
            "--slo": "evaluate burn-rate SLOs (latency, shed rate, "
                     "staleness, availability) during the run and "
                     "journal alert transitions",
            "--journal": "export the event journal (plus any traces) "
                         "as JSONL for `repro trace-report`",
            "--metrics-format": "also dump the metrics registry as "
                                "Prometheus text exposition or a JSON "
                                "snapshot",
        },
    )

    frontend = sub.add_parser(
        "frontend-sim",
        help="drive the asyncio device frontend over loopback TCP "
             "(wire protocol of docs/protocol.md)",
    )
    frontend.add_argument("--devices", type=int, default=16,
                          help="concurrent device connections")
    frontend.add_argument("--mode", choices=["closed", "open", "push"],
                          default="closed",
                          help="closed: request/assign/compute/upload cycle "
                               "with real workers; open: Poisson-paced "
                               "synthetic uploads; push: saturation")
    frontend.add_argument("--uploads", type=int, default=8,
                          help="uploads per device")
    frontend.add_argument("--think-time", type=float, default=0.0,
                          help="closed loop: mean seconds between cycles")
    frontend.add_argument("--rate", type=float, default=50.0,
                          help="open loop: per-device uploads/s target")
    frontend.add_argument("--duration", type=float, default=None,
                          help="open loop: stop after this many seconds")
    frontend.add_argument("--window", type=int, default=8,
                          help="per-connection in-flight upload window")
    _add_tier_flags(
        frontend, shards=2, batch_deadline=0.05, sync_every=10.0,
        help={
            "--batch-deadline": "micro-batch flush deadline (wall seconds "
                                "here: the frontend clock is real time)",
            "--admission-rate": "token-bucket rate (requests/s); shed "
                                "requests come back as typed REJECTION "
                                "frames; omit to disable",
            "--trace": "trace uploads and print the critical path",
            "--slo": "evaluate burn-rate SLOs during the run",
            "--journal": "export the event journal (connection and "
                         "drain records included) as JSONL",
        },
    )

    report = sub.add_parser(
        "trace-report",
        help="critical-path and decision-cause report from a JSONL journal",
    )
    report.add_argument("path", help="journal file written by "
                                     "`gateway-sim --journal PATH`")
    report.add_argument("--per-shard", action="store_true",
                        help="also print per-shard latency and event "
                             "attribution tables")

    slo_report = sub.add_parser(
        "slo-report",
        help="alert timeline and budget summary from a journal JSONL",
    )
    slo_report.add_argument("path", help="journal file written by "
                                         "`gateway-sim --slo --journal PATH`")
    slo_report.add_argument("--snapshot", default=None, metavar="PATH",
                            help="SLO snapshot JSON written by "
                                 "`gateway-sim --slo-json PATH`")

    wal = sub.add_parser(
        "wal-inspect",
        help="summarize a durability directory (WAL segments + checkpoints)",
    )
    wal.add_argument("path", help="durability root written by `gateway-sim "
                                  "--wal-dir PATH` (or one shard's directory)")

    freshness = sub.add_parser(
        "freshness", help="Standard vs Online FL freshness gap (Fig. 1)"
    )
    freshness.add_argument("--users", type=int, default=16)
    freshness.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "devices": _cmd_devices,
    "dampening": _cmd_dampening,
    "staleness": _cmd_staleness,
    "online": _cmd_online,
    "profile": _cmd_profile,
    "fleet-sim": _cmd_fleet_sim,
    "gateway-sim": _cmd_gateway_sim,
    "frontend-sim": _cmd_frontend_sim,
    "trace-report": _cmd_trace_report,
    "slo-report": _cmd_slo_report,
    "wal-inspect": _cmd_wal_inspect,
    "freshness": _cmd_freshness,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
