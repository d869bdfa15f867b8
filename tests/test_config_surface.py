"""Dead-knob guard: every field of the tier's config objects has a caller.

A config field that no caller sets is a configuration no test or
benchmark has ever run; it belongs in a module constant, not on the
settable surface.  This test parses the repository's Python sources with
:mod:`ast` and requires, for every field of the config dataclasses below,
a call to the class (or to the ``FleetBuilder`` method that forwards
``**kwargs`` to it) that passes the field by keyword or by position.
Calls inside ``with pytest.raises(...)`` blocks do not count: a test of a
field's own validation is not a caller.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.durability.spec import DurabilitySpec
from repro.frontend.server import FrontendConfig
from repro.gateway.gateway import GatewayConfig
from repro.gateway.scheduling import RoutingSpec
from repro.observability.slo import SLOSpec
from repro.observability.tracing import ObservabilitySpec
from repro.runtime.elasticity import ElasticityPolicy
from repro.runtime.spec import RuntimeSpec
from repro.simulation.fleet_sim import FleetSimConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "benchmarks", "examples", "tests")

CONFIGS = (
    RuntimeSpec,
    ElasticityPolicy,
    RoutingSpec,
    GatewayConfig,
    ObservabilitySpec,
    SLOSpec,
    FrontendConfig,
    DurabilitySpec,
    FleetSimConfig,
)

#: ``FleetBuilder`` methods that forward ``**kwargs`` to a config class.
FORWARDERS = {
    "runtime": RuntimeSpec,
    "durability": DurabilitySpec,
    "routing": RoutingSpec,
}

#: Fields a caller sets only indirectly, and why.
ALLOWED = {
    # Set through tests/test_scheduling.py's ``**spec_kwargs`` helpers.
    ("RoutingSpec", "hysteresis"): "set via **spec_kwargs",
    ("RoutingSpec", "max_rebalance_fraction"): "set via **spec_kwargs",
    ("RoutingSpec", "ema_alpha"): "set via **spec_kwargs",
    ("RoutingSpec", "steer_penalty_s"): "set via **spec_kwargs",
    # Deployment settings.
    ("FrontendConfig", "host"): "deployment setting",
    ("FrontendConfig", "port"): "deployment setting",
    # Selects the flush that makes WAL records durable.
    ("DurabilitySpec", "fsync"): "durability flush",
}


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_raises_block(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call) and _callee(expr) == "raises":
            return True
    return False


class _SetFields(ast.NodeVisitor):
    """Collect (class name, field) pairs set by some call."""

    def __init__(self) -> None:
        self.fields_of = {cls.__name__: _fields(cls) for cls in CONFIGS}
        self.set: set[tuple[str, str]] = set()

    def visit_With(self, node: ast.With) -> None:
        if not _is_raises_block(node):
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _callee(node)
        owner = FORWARDERS[name].__name__ if name in FORWARDERS else name
        fields = self.fields_of.get(owner) if owner is not None else None
        if fields is not None:
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            if name in FORWARDERS:
                positional = []  # the forwarder's first parameter is a spec
            for field_name in fields[: len(positional)]:
                self.set.add((owner, field_name))
            for keyword in node.keywords:
                if keyword.arg in fields:
                    self.set.add((owner, keyword.arg))
        self.generic_visit(node)


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.init]


def _unset_fields() -> list[str]:
    visitor = _SetFields()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return [
        f"{cls.__name__}.{name}"
        for cls in CONFIGS
        for name in _fields(cls)
        if (cls.__name__, name) not in visitor.set
        and (cls.__name__, name) not in ALLOWED
    ]


def test_every_config_field_has_a_caller():
    unset = _unset_fields()
    assert not unset, (
        "config fields no caller sets (make them module constants, or "
        f"allow-list an indirect caller): {unset}"
    )


def test_allow_list_names_live_fields():
    for owner, name in ALLOWED:
        cls = next(c for c in CONFIGS if c.__name__ == owner)
        assert name in _fields(cls), f"{owner}.{name} is allow-listed but gone"
