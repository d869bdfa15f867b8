"""Typed SLO alert records and the fire/resolve state machine.

Alerts are :class:`~repro.observability.journal.EventJournal` records —
the same append-bounded, JSONL-exportable stream that carries admission
sheds and failovers — so "why did the autoscaler grow at t=412s" and
"which objective was burning at the time" are answered from one file.

The state machine implements multi-window hysteresis:

* **fire** — both the fast and the slow window burn at or above
  :data:`FIRE_BURN_RATE` (the fast window reacts quickly, the slow window
  suppresses blips that cannot actually exhaust the budget);
* **resolve** — the fast window burns below :data:`RESOLVE_BURN_RATE`
  (recovery is judged on the reactive window only; waiting for the slow
  window to drain would hold alerts long after the incident ended).

Transitions only — a steadily-burning objective journals one fire, not
one record per evaluation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["AlertFireRecord", "AlertResolveRecord", "AlertManager"]

#: An alert fires when both windows burn error budget at 4× the
#: sustainable rate, and resolves once the fast window is back at budget.
FIRE_BURN_RATE = 4.0
RESOLVE_BURN_RATE = 1.0


@dataclass(frozen=True)
class AlertFireRecord:
    """An objective started burning budget past the fire threshold."""

    kind = "alert_fire"
    time: float
    slo: str
    objective: float
    burn_rate_fast: float
    burn_rate_slow: float
    window_fast_s: float
    window_slow_s: float
    budget_remaining: float


@dataclass(frozen=True)
class AlertResolveRecord:
    """A firing objective's fast window dropped below the resolve bar."""

    kind = "alert_resolve"
    time: float
    slo: str
    burn_rate_fast: float
    budget_remaining: float
    duration_s: float


class AlertManager:
    """Per-objective alert state with journaled transitions.

    ``spec`` supplies the windows; ``journal`` (optional) receives
    one record per transition.  Active alerts are exposed in fire order
    — deterministic because the engine evaluates trackers in a fixed
    order on a deterministic clock.
    """

    def __init__(self, spec, journal=None) -> None:
        self.spec = spec
        self.journal = journal
        self._active: dict[str, float] = {}  # name -> fire time
        self.fired = 0
        self.resolved = 0
        self.transitions: list = []

    def is_active(self, name: str) -> bool:
        return name in self._active

    @property
    def active(self) -> tuple[str, ...]:
        """Currently-firing objective names, oldest fire first."""
        return tuple(self._active)

    def update(self, status, now: float):
        """Fold one evaluation into the state machine.

        Takes and returns an :class:`~repro.observability.slo.SLOStatus`
        (the returned copy carries the post-transition ``firing`` flag).
        """
        name = status.name
        if name not in self._active:
            should_fire = (
                status.burn_rate_fast >= FIRE_BURN_RATE
                and status.burn_rate_slow >= FIRE_BURN_RATE
            )
            if should_fire:
                self._active[name] = now
                self.fired += 1
                record = AlertFireRecord(
                    time=now,
                    slo=name,
                    objective=status.objective,
                    burn_rate_fast=status.burn_rate_fast,
                    burn_rate_slow=status.burn_rate_slow,
                    window_fast_s=self.spec.fast_window_s,
                    window_slow_s=self.spec.slow_window_s,
                    budget_remaining=status.budget_remaining,
                )
                self.transitions.append(record)
                if self.journal is not None:
                    self.journal.record(record)
                return _with_firing(status, True)
            return status
        if status.burn_rate_fast < RESOLVE_BURN_RATE:
            fired_at = self._active.pop(name)
            self.resolved += 1
            record = AlertResolveRecord(
                time=now,
                slo=name,
                burn_rate_fast=status.burn_rate_fast,
                budget_remaining=status.budget_remaining,
                duration_s=now - fired_at,
            )
            self.transitions.append(record)
            if self.journal is not None:
                self.journal.record(record)
            return _with_firing(status, False)
        return _with_firing(status, True)


def _with_firing(status, firing: bool):
    if status.firing == firing:
        return status
    return dataclasses.replace(status, firing=firing)
