"""Heartbeat failure detector over shard-lane liveness.

The :class:`~repro.durability.manager.DurabilityManager` owns the
detector and keeps it in step with its lifecycle (attach registers,
delivery beats, restore revives, retire deregisters).  The gateway's pump
runs :meth:`FailureDetector.probe`, which beats every live shard — a beat
is a liveness probe, so an *idle but healthy* shard keeps beating while a
crashed one goes silent.  After ``timeout_s`` of silence the detector
declares the shard dead; the gateway then drives ``failover`` (or leaves
it to an explicit operator call when ``auto_failover`` is off).
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["FailureDetector"]


class FailureDetector:
    """Timeout-based failure detector keyed by shard id."""

    def __init__(self, timeout_s: float = 30.0) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self._last_beat: dict[str, float] = {}
        self._dead: dict[str, float] = {}
        # Tier-wide probes are quantized to a small fraction of the
        # timeout: probing on every pump would tax the hot path for no
        # extra detection fidelity (silence is only meaningful on the
        # timeout's scale, not per upload).
        self.probe_interval_s = timeout_s / 64.0
        self._next_probe_s = float("-inf")

    def register(self, shard_id: str, now: float = 0.0) -> None:
        """Start watching a shard (its registration counts as a beat)."""
        self._last_beat[shard_id] = now
        self._dead.pop(shard_id, None)

    def deregister(self, shard_id: str) -> None:
        """Stop watching a shard (planned removal, not a failure)."""
        self._last_beat.pop(shard_id, None)
        self._dead.pop(shard_id, None)

    def beat(self, shard_id: str, now: float) -> None:
        """Record liveness; a dead shard stays dead until revived."""
        if shard_id in self._dead:
            return
        if shard_id in self._last_beat:
            self._last_beat[shard_id] = max(self._last_beat[shard_id], now)

    def revive(self, shard_id: str, now: float) -> None:
        """Bring a shard back after failover restored it."""
        if shard_id in self._last_beat:
            self._dead.pop(shard_id, None)
            self._last_beat[shard_id] = now

    def is_dead(self, shard_id: str) -> bool:
        return shard_id in self._dead

    def silence_s(self, shard_id: str, now: float) -> float:
        """Seconds since the shard's last beat (0 for unknown shards)."""
        if shard_id not in self._last_beat:
            return 0.0
        return max(0.0, now - self._last_beat[shard_id])

    def suspects(self, now: float) -> list[str]:
        """Shards newly past the timeout, marked dead as a side effect."""
        newly_dead = []
        for shard_id, last in self._last_beat.items():
            if shard_id in self._dead:
                continue
            if now - last > self.timeout_s:
                self._dead[shard_id] = now
                newly_dead.append(shard_id)
        return newly_dead

    def probe(self, now: float, live: Iterable[str]) -> list[str] | None:
        """Beat every ``live`` shard, THEN judge silence (:meth:`suspects`),
        so only shards that genuinely stopped can be suspected.  None
        while the next probe is not due."""
        if now < self._next_probe_s:
            return None
        self._next_probe_s = now + self.probe_interval_s
        for shard_id in live:
            self.beat(shard_id, now)
        return self.suspects(now)

    def dead(self) -> list[str]:
        """Every shard currently considered dead, in detection order."""
        return sorted(self._dead, key=lambda shard: (self._dead[shard], shard))
