"""Straggler-aware routing: I-Prof deadline predictions drive placement.

The gateway's default placement is identity-based: a consistent-hash ring
pins each device to one shard, so a slow device lands wherever its id
hashes.  Every gradient a straggler pushes arrives after its shard's
clock has advanced through many other updates, so identity routing
inflates the staleness tail of whichever shard the hash picked
(ROADMAP: "straggler-aware scheduling").

This module closes the loop with the signals the rest of the stack
already produces:

* **deadline predictions** — :class:`~repro.server.server.FleetServer`
  annotates every :class:`~repro.server.protocol.TaskAssignment` with
  I-Prof's predicted computation time and the SLO deadline; the gateway
  feeds both into the router (:meth:`Router.observe_prediction`);
* **measured latency** — the gateway timestamps each assignment and
  reports the observed request→result round trip
  (:meth:`Router.observe_latency`), folded into a per-device EMA so a
  device that *measures* slow is caught even when its prediction meets
  the deadline;
* **live shard load** — :meth:`repro.gateway.gateway.Gateway.shard_load`
  reads the runtime lane's
  :meth:`~repro.runtime.runtime.ShardRuntime.load_s`:
  ``max(recent_load, backlog) + recent_shed_s`` — the larger of the
  lane's decayed recent service and its virtual backlog, plus the
  seconds of work recently shed by full lanes.

:class:`DeadlineAwareRouter` keeps fast devices on their hash-ring home
(profiler history and pull leases stay put for the bulk of the fleet)
and steers predicted stragglers to the least-loaded of a small
deterministic candidate set — a bounded power-of-two-choices pick.
Assignments are **sticky** (one steering decision per dwell period, not
per request), moves require the current shard's load to exceed the
alternative by a **hysteresis** factor, and candidate picks hash from
``(seed, worker, membership epoch)``, so the whole placement is
deterministic under a seed and does not flap.  Membership changes
trigger *bounded* reassignment: devices on a retired shard always move
(deterministically, to their best candidate), while a join may relocate
at most ``max_rebalance_fraction`` of the steered population (any
positive fraction buys at least one move; 0 pins placements).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.gateway.hashing import ConsistentHashRing

__all__ = ["RoutingSpec", "Router", "HashRouter", "DeadlineAwareRouter"]

POLICIES = ("hash", "deadline")


def _stable_hash(*parts: object) -> int:
    """Order-independent-of-PYTHONHASHSEED 64-bit hash of the parts."""
    digest = hashlib.sha1(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RoutingSpec:
    """Declarative knobs of gateway routing (rides on a ``RuntimeSpec``).

    ``policy`` selects the router: ``"hash"`` is the classic consistent
    hash ring, ``"deadline"`` the straggler-aware router.  A device is a
    *straggler* once its predicted-or-measured latency exceeds
    ``straggler_factor ×`` its deadline.  ``candidates`` is the size of
    the power-of-choices pick (2 = classic power of two).  A sticky
    assignment is reconsidered at most once per ``min_dwell_s`` of
    virtual time and only moves when the current shard's load exceeds
    the best candidate's by ``hysteresis``.  ``steer_penalty_s`` is the
    seconds of virtual load each already-steered device adds to its
    shard's score, which spreads stragglers when every other signal is
    flat.  ``ema_alpha`` weights new round-trip measurements in the
    per-device latency EMA.
    """

    policy: str = "deadline"
    straggler_factor: float = 1.5
    hysteresis: float = 1.5
    min_dwell_s: float = 60.0
    max_rebalance_fraction: float = 0.25
    candidates: int = 2
    ema_alpha: float = 0.3
    steer_penalty_s: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be positive")
        if self.hysteresis < 1.0:
            raise ValueError("hysteresis must be at least 1.0")
        if self.min_dwell_s < 0:
            raise ValueError("min_dwell_s must be non-negative")
        if not 0.0 <= self.max_rebalance_fraction <= 1.0:
            raise ValueError("max_rebalance_fraction must be in [0, 1]")
        if self.candidates < 2:
            raise ValueError("candidates must be at least 2")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        if self.steer_penalty_s < 0:
            raise ValueError("steer_penalty_s must be non-negative")

    def build(self, replicas: int = 128) -> "Router":
        """Materialize the configured router."""
        if self.policy == "hash":
            return HashRouter(replicas=replicas)
        return DeadlineAwareRouter(self, replicas=replicas)


class Router:
    """Device → shard placement behind the gateway (hash-ring base).

    The base class IS the identity router: every worker goes to its
    consistent-hash home, membership changes move only the ring's ~1/N
    key slice, and the observation hooks are no-ops.  Subclasses add
    policy on top of the ring.  All methods run on the gateway caller's
    thread; the gateway never routes from worker lanes.
    """

    def __init__(self, replicas: int = 128) -> None:
        self.ring = ConsistentHashRing(replicas=replicas)
        self._gateway = None
        # Membership epoch: bumped by routers that rehash on membership
        # changes; the identity router's placement never depends on it.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, gateway) -> None:
        """Attach the gateway whose load signals placement may consult."""
        self._gateway = gateway

    def add_shard(self, shard_id: str, now: float = 0.0) -> None:
        self.ring.add_node(shard_id)
        self._on_membership(now)

    def remove_shard(self, shard_id: str, now: float = 0.0) -> None:
        self.ring.remove_node(shard_id)
        self._on_membership(now, removed=shard_id)

    def on_failover(self, shard_id: str, now: float = 0.0) -> None:
        """A shard was restored in place after a crash.

        The ring is unchanged — the restored shard answers to the same
        id, and its replayed clock validates every outstanding lease — so
        the base router does nothing beyond the membership hook.  The
        deadline-aware router bumps its epoch and runs one bounded
        rebalance pass: placements made while the shard was dark get a
        fresh look without a reassignment storm.
        """
        self._on_membership(now)

    def _on_membership(self, now: float, removed: str | None = None) -> None:
        """Subclass hook: react to the ring changing."""

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def route(self, worker_id: int, now: float = 0.0) -> str:
        """Place this device's next task (may update routing state)."""
        return self.ring.node_for(worker_id)

    def placement_of(self, worker_id: int) -> str:
        """Current placement, as a pure query — no steering decisions,
        no dwell resets.  Safe for dashboards and result delivery."""
        return self.ring.node_for(worker_id)

    # ------------------------------------------------------------------
    # Observation hooks (no-ops for the identity router)
    # ------------------------------------------------------------------
    def observe_prediction(
        self,
        worker_id: int,
        predicted_s: float | None,
        deadline_s: float | None,
        now: float,
    ) -> None:
        """I-Prof's predicted computation time vs the task deadline."""

    def observe_latency(self, worker_id: int, latency_s: float, now: float) -> None:
        """Measured request→result round trip of one completed task."""

    def describe(self) -> str:
        return "hash"


class HashRouter(Router):
    """Pure consistent-hash placement (the gateway's default)."""


class DeadlineAwareRouter(Router):
    """Steer predicted stragglers off their hash home to quiet shards."""

    def __init__(self, spec: RoutingSpec | None = None, replicas: int = 128) -> None:
        super().__init__(replicas=replicas)
        self.spec = spec or RoutingSpec()
        # Latest predicted latency and the EMA of measured round trips,
        # both as ratios to the device's deadline (1.0 = exactly on time).
        self._predicted: dict[int, float] = {}
        self._observed: dict[int, float] = {}
        self._deadline: dict[int, float] = {}
        # Sticky placements of flagged stragglers (worker → shard), the
        # virtual time each was (re)considered, and per-shard counts for
        # the anti-dogpile load penalty.
        self._steered: dict[int, str] = {}
        self._steered_at: dict[int, float] = {}
        self._steered_count: dict[str, int] = {}
        self.reassignments = 0
        # The bound gateway's event journal (when it has one): every
        # steer/move/release lands there with the scores that drove it.
        self._journal = None

    def bind(self, gateway) -> None:
        super().bind(gateway)
        self._journal = getattr(gateway, "journal", None)

    # ------------------------------------------------------------------
    # Straggler signal
    # ------------------------------------------------------------------
    def latency_ratio(self, worker_id: int) -> float:
        """Worst known latency/deadline ratio for a device (0 = unknown)."""
        return max(
            self._predicted.get(worker_id, 0.0),
            self._observed.get(worker_id, 0.0),
        )

    def is_straggler(self, worker_id: int) -> bool:
        return self.latency_ratio(worker_id) > self.spec.straggler_factor

    def observe_prediction(
        self,
        worker_id: int,
        predicted_s: float | None,
        deadline_s: float | None,
        now: float,
    ) -> None:
        if predicted_s is None or deadline_s is None or deadline_s <= 0:
            return
        self._deadline[worker_id] = float(deadline_s)
        self._predicted[worker_id] = float(predicted_s) / float(deadline_s)

    def observe_latency(self, worker_id: int, latency_s: float, now: float) -> None:
        deadline = self._deadline.get(worker_id)
        if deadline is None:
            return  # no deadline known yet: nothing to compare against
        ratio = float(latency_s) / deadline
        previous = self._observed.get(worker_id)
        alpha = self.spec.ema_alpha
        self._observed[worker_id] = (
            ratio if previous is None else (1.0 - alpha) * previous + alpha * ratio
        )

    # ------------------------------------------------------------------
    # Load scoring
    # ------------------------------------------------------------------
    def _load(
        self, shard_id: str, now: float, moving: int | None = None
    ) -> float:
        """Shard score: gateway load + steer penalties.

        ``moving`` names a worker whose own penalty must not count
        against whichever shard currently holds it — comparing "my shard
        with me on it" to "an empty shard without me" would make every
        steered device see a phantom improvement and ping-pong between
        its candidates at each dwell expiry.
        """
        base = 0.0
        if self._gateway is not None:
            base = self._gateway.shard_load(shard_id, now)
        count = self._steered_count.get(shard_id, 0)
        if moving is not None and self._steered.get(moving) == shard_id:
            count -= 1
        return base + self.spec.steer_penalty_s * count

    def _candidates(self, worker_id: int) -> list[str]:
        """Deterministic candidate shards for one device.

        Hashes ``(seed, worker, epoch, salt)`` into the sorted shard
        list until ``candidates`` distinct picks accumulate; the epoch
        salt re-deals the hand on every membership change without
        depending on call order.
        """
        nodes = self.ring.nodes  # sorted
        if len(nodes) <= self.spec.candidates:
            return list(nodes)
        picks: list[str] = []
        salt = 0
        while len(picks) < self.spec.candidates:
            index = _stable_hash(
                self.spec.seed, worker_id, self.epoch, salt
            ) % len(nodes)
            if nodes[index] not in picks:
                picks.append(nodes[index])
            salt += 1
        return picks

    def _pick(self, worker_id: int, now: float) -> str:
        return min(
            self._candidates(worker_id),
            key=lambda s: (self._load(s, now, moving=worker_id), s),
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def route(self, worker_id: int, now: float = 0.0) -> str:
        home = self.ring.node_for(worker_id)
        current = self._steered.get(worker_id)
        if not self.is_straggler(worker_id):
            if current is None:
                return home
            # Recovered device: hold through the dwell, then release to
            # its hash home (lease clamping makes the hop safe).
            if now - self._steered_at[worker_id] < self.spec.min_dwell_s:
                return current
            self._release(worker_id, now, reason="recovered")
            return home
        if current is not None:
            if now - self._steered_at[worker_id] < self.spec.min_dwell_s:
                return current
            # Dwell expired: reconsider once, with hysteresis.
            pick = self._pick(worker_id, now)
            self._steered_at[worker_id] = now
            if pick != current and self._load(
                current, now, moving=worker_id
            ) > (self.spec.hysteresis * self._load(pick, now, moving=worker_id)):
                self._move(worker_id, pick, now, reason="dwell_rebalance")
            return self._steered[worker_id]
        # Fresh straggler: least-loaded candidate (which may be home —
        # recorded anyway so the pick is sticky and counted).
        self._steer(worker_id, self._pick(worker_id, now), now)
        return self._steered[worker_id]

    def placement_of(self, worker_id: int) -> str:
        """Pure query: the sticky steer if one exists, else the hash home."""
        return self._steered.get(worker_id) or self.ring.node_for(worker_id)

    def _steer(
        self,
        worker_id: int,
        shard_id: str,
        now: float,
        reason: str = "fresh_straggler",
    ) -> None:
        self._steered[worker_id] = shard_id
        self._steered_at[worker_id] = now
        self._steered_count[shard_id] = self._steered_count.get(shard_id, 0) + 1
        self._emit(
            now, worker_id, "steer", reason,
            self.ring.node_for(worker_id), shard_id,
        )

    def _move(
        self,
        worker_id: int,
        shard_id: str,
        now: float = 0.0,
        reason: str = "rebalance",
    ) -> None:
        previous = self._steered[worker_id]
        self._steered_count[previous] -= 1
        self._steered[worker_id] = shard_id
        self._steered_count[shard_id] = self._steered_count.get(shard_id, 0) + 1
        self.reassignments += 1
        self._emit(now, worker_id, "move", reason, previous, shard_id)

    def _release(
        self, worker_id: int, now: float = 0.0, reason: str | None = None
    ) -> None:
        shard_id = self._steered.pop(worker_id)
        self._steered_at.pop(worker_id, None)
        self._steered_count[shard_id] -= 1
        if reason is not None:
            self._emit(
                now, worker_id, "release", reason,
                shard_id, self.ring.node_for(worker_id),
            )

    def _emit(
        self,
        now: float,
        worker_id: int,
        action: str,
        reason: str,
        from_shard: str,
        to_shard: str,
    ) -> None:
        """Journal one placement decision with the evidence behind it."""
        if self._journal is None:
            return
        self._journal.steer(
            now, worker_id, action, reason,
            from_shard=from_shard, to_shard=to_shard,
            latency_ratio=self.latency_ratio(worker_id),
            from_load=self._safe_load(from_shard, now, worker_id),
            to_load=self._safe_load(to_shard, now, worker_id),
        )

    def _safe_load(self, shard_id: str, now: float, worker_id: int) -> float:
        try:
            return self._load(shard_id, now, moving=worker_id)
        except KeyError:
            return 0.0  # shard already left the tier (forced-move source)

    # ------------------------------------------------------------------
    # Membership: bounded reassignment
    # ------------------------------------------------------------------
    def _on_membership(self, now: float, removed: str | None = None) -> None:
        self.epoch += 1
        if removed is not None:
            # Forced moves: every straggler steered to the leaver re-picks
            # its best candidate, in worker order — deterministic, and
            # exempt from the rebalance bound (they cannot stay).
            displaced = sorted(
                worker
                for worker, shard in self._steered.items()
                if shard == removed
            )
            for worker in displaced:
                self._release(worker)
            for worker in displaced:
                self._steer(
                    worker, self._pick(worker, now), now, reason="shard_removed"
                )
                self.reassignments += 1
            return
        # A join: at most max_rebalance_fraction of the steered population
        # may chase the new capacity (hysteresis still applies), so a
        # scale-up event cannot reshuffle the whole straggler set at once.
        # A fraction of 0 pins steered placements entirely; any positive
        # fraction always buys at least one move, so small populations
        # still make progress.
        if not self._steered or self.spec.max_rebalance_fraction == 0.0:
            return
        budget = max(
            1, int(self.spec.max_rebalance_fraction * len(self._steered))
        )
        for worker in sorted(self._steered):
            if budget == 0:
                break
            current = self._steered[worker]
            pick = self._pick(worker, now)
            if pick != current and self._load(current, now, moving=worker) > (
                self.spec.hysteresis * self._load(pick, now, moving=worker)
            ):
                self._move(worker, pick, now, reason="join_rebalance")
                self._steered_at[worker] = now
                budget -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def steered(self) -> dict[int, str]:
        """Current sticky straggler placements (copy)."""
        return dict(self._steered)

    @property
    def steered_count(self) -> int:
        return len(self._steered)

    def describe(self) -> str:
        return (
            f"deadline (factor {self.spec.straggler_factor:g}, "
            f"{self.steered_count} steered, "
            f"{self.reassignments} reassignments)"
        )
