"""Tenant specs: auth tokens mapped to QoS budgets and weights.

A :class:`TenantSpec` is the static description of one tenant — its
auth ``token``, scheduling ``priority`` (priority-FIFO mode and
within-tenant order), fair-share ``weight``, and admission limits
(``quota_fraction``/``quota_bytes`` of modelled HBM, plus
``max_in_flight``).  The :class:`TenantRegistry` authenticates HELLO
tokens and translates the specs into the
:class:`~repro.serve.concurrent.TenantBudget` map and weight table
the :class:`~repro.serve.AsyncEngine` enforces.
"""

from __future__ import annotations

import json

from ..errors import ReproError
from ..serve.concurrent import TenantBudget


class TenantConfigError(ReproError):
    """The tenant configuration is malformed."""


class TenantSpec:
    """One tenant's identity and QoS envelope."""

    __slots__ = (
        "name", "token", "priority", "weight",
        "quota_bytes", "quota_fraction", "max_in_flight",
        "slo_ms", "slo_target",
    )

    def __init__(
        self,
        name: str,
        token: str,
        priority: int = 0,
        weight: float = 1.0,
        quota_bytes: int | None = None,
        quota_fraction: float | None = None,
        max_in_flight: int | None = None,
        slo_ms: float | None = None,
        slo_target: float = 0.99,
    ):
        if not name:
            raise TenantConfigError("tenant name must be non-empty")
        if not token:
            raise TenantConfigError(f"tenant {name!r} has an empty token")
        if weight <= 0:
            raise TenantConfigError(f"tenant {name!r} weight must be > 0")
        if quota_bytes is not None and quota_fraction is not None:
            raise TenantConfigError(
                f"tenant {name!r}: quota_bytes and quota_fraction are exclusive"
            )
        if quota_fraction is not None and not 0 < quota_fraction <= 1:
            raise TenantConfigError(
                f"tenant {name!r}: quota_fraction must be in (0, 1]"
            )
        if slo_ms is not None and slo_ms <= 0:
            raise TenantConfigError(
                f"tenant {name!r}: slo_ms must be positive"
            )
        if not 0 < slo_target < 1:
            raise TenantConfigError(
                f"tenant {name!r}: slo_target must be in (0, 1)"
            )
        self.name = name
        self.token = token
        self.priority = int(priority)
        self.weight = float(weight)
        self.quota_bytes = quota_bytes
        self.quota_fraction = quota_fraction
        self.max_in_flight = max_in_flight
        self.slo_ms = slo_ms
        self.slo_target = float(slo_target)

    def budget(self, capacity_bytes: int) -> TenantBudget:
        """The admission budget against a concrete device capacity."""
        quota = self.quota_bytes
        if quota is None and self.quota_fraction is not None:
            quota = max(1, int(capacity_bytes * self.quota_fraction))
        return TenantBudget(
            quota_bytes=quota, max_in_flight=self.max_in_flight,
        )


class TenantRegistry:
    """The tenant roster: token authentication + budget/weight tables."""

    def __init__(self, specs):
        self.specs: dict[str, TenantSpec] = {}
        self._by_token: dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.name in self.specs:
                raise TenantConfigError(f"duplicate tenant name {spec.name!r}")
            if spec.token in self._by_token:
                raise TenantConfigError(
                    f"tenant {spec.name!r} reuses another tenant's token"
                )
            self.specs[spec.name] = spec
            self._by_token[spec.token] = spec
        if not self.specs:
            raise TenantConfigError("tenant registry is empty")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs.values())

    def authenticate(self, token: str) -> TenantSpec | None:
        """The spec for a HELLO token, or None (never raises)."""
        return self._by_token.get(token)

    def budgets(self, capacity_bytes: int) -> dict[str, TenantBudget]:
        return {
            spec.name: spec.budget(capacity_bytes) for spec in self
        }

    def weights(self) -> dict[str, float]:
        return {spec.name: spec.weight for spec in self}

    def slo_objectives(self):
        """Per-tenant latency objectives for tenants that declare one.

        Returns ``{name: SLObjective}`` (tenants without ``slo_ms``
        fall through to the engine's default objective).
        """
        from ..obs.telemetry import SLObjective

        return {
            spec.name: SLObjective(spec.slo_ms, spec.slo_target)
            for spec in self
            if spec.slo_ms is not None
        }

    @classmethod
    def from_config(cls, config) -> "TenantRegistry":
        """A registry from parsed JSON: a list of tenant objects."""
        if not isinstance(config, list):
            raise TenantConfigError(
                "tenant config must be a JSON list of tenant objects"
            )
        specs = []
        for entry in config:
            if not isinstance(entry, dict):
                raise TenantConfigError(
                    f"tenant entry must be an object, got {entry!r}"
                )
            unknown = set(entry) - {
                "name", "token", "priority", "weight",
                "quota_bytes", "quota_fraction", "max_in_flight",
                "slo_ms", "slo_target",
            }
            if unknown:
                raise TenantConfigError(
                    f"unknown tenant fields: {sorted(unknown)}"
                )
            try:
                specs.append(TenantSpec(**entry))
            except TypeError as exc:
                raise TenantConfigError(str(exc)) from None
        return cls(specs)

    @classmethod
    def from_json_file(cls, path) -> "TenantRegistry":
        with open(path) as handle:
            try:
                config = json.load(handle)
            except json.JSONDecodeError as exc:
                raise TenantConfigError(
                    f"cannot parse tenant config {path}: {exc}"
                ) from None
        return cls.from_config(config)


#: The demo/CI roster: a high-priority heavy tenant and a low-priority
#: light one — the pair the starvation tests contrast across policies.
def demo_registry() -> TenantRegistry:
    return TenantRegistry([
        TenantSpec(
            "alpha", token="alpha-token", priority=10, weight=3.0,
            quota_fraction=0.8, max_in_flight=8,
            slo_ms=250.0, slo_target=0.95,
        ),
        TenantSpec(
            "beta", token="beta-token", priority=0, weight=1.0,
            quota_fraction=0.5, max_in_flight=4,
            slo_ms=1000.0, slo_target=0.9,
        ),
    ])


def single_tenant_registry(
    token: str = "local", name: str = "default",
) -> TenantRegistry:
    """One unrestricted tenant — the no-QoS default for `net serve`."""
    return TenantRegistry([TenantSpec(name, token=token)])
