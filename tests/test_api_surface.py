"""Snapshot tests pinning the public ``repro.api`` surface.

The façade is the library's compatibility contract: user code imports from
``repro.api`` and nowhere else.  These tests pin the exported names, the
:class:`~repro.api.policy.ServicePolicy` builder-method signatures, the
:class:`~repro.api.session.Session` public methods and every configuration
surface (the policy value objects' fields, the replication and failover
constructors' signatures) against explicit snapshots, so any PR that
renames, removes or accidentally grows the surface fails with a readable
diff (what appeared vs what disappeared) instead of a silent break for
downstream imports.

Additions are deliberate decisions too: extending the surface — a new knob
included — means updating the snapshot here, which makes the change visible
in review.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro.api as api
from repro.api import CachePolicy, ServicePolicy, Session
from repro.api import errors
from repro.network.heartbeat import HeartbeatDetector
from repro.runtime.faulttolerance import FaultTolerantInvoker, RetryPolicy
from repro.runtime.pipelining import PipelineScheduler
from repro.runtime.replication import ReplicaEndpoint, ReplicaManager

#: The façade's exported names — the only supported import surface.
EXPECTED_API_ALL = (
    "CachePolicy",
    "CallContext",
    "DeadlineInterceptor",
    "FutureView",
    "Interceptor",
    "InterceptorChain",
    "MetricsInterceptor",
    "RateLimitInterceptor",
    "Service",
    "ServicePolicy",
    "Session",
    "cacheable",
    "errors",
)

#: ServicePolicy's public builder/helper methods.
EXPECTED_POLICY_METHODS = (
    "scheduler_key",
    "with_batching",
    "with_caching",
    "with_middleware",
    "with_pipelining",
    "with_replication",
    "with_retry",
    "with_static_checks",
    "with_tenant",
    "with_tracing",
    "with_transport",
)

#: Signatures of the builders user code chains on (the redesign contract).
EXPECTED_POLICY_SIGNATURES = {
    "with_replication": (
        "(self, replicas: 'Optional[int]' = None, "
        "quorum: 'Optional[Union[int, str]]' = None, *, "
        "sync: 'Optional[str]' = None, "
        "readonly: 'Optional[Sequence[str]]' = None) -> \"'ServicePolicy'\""
    ),
    "with_caching": (
        "(self, policy: 'Optional[CachePolicy]' = None, *, "
        "max_entries: 'Optional[int]' = None, "
        "lease_ms: 'Optional[float]' = None, mode: 'Optional[str]' = None, "
        "cacheable: 'Optional[Sequence[str]]' = None) -> \"'ServicePolicy'\""
    ),
}

#: Fields of the configuration value objects, as ``name: type = default``.
EXPECTED_CONFIGURATION_FIELDS = {
    ServicePolicy: (
        "transport: Optional[str] = None",
        "batch_window: int = 1",
        "pipeline_depth: int = 1",
        "retry: Optional[RetryPolicy] = None",
        "replication_factor: int = 1",
        "quorum: int = 1",
        "sync: str = 'eager'",
        "readonly: Tuple[str, ...] = ()",
        "cache: Optional[CachePolicy] = None",
        "middleware: Tuple = ()",
        "server_middleware: Tuple = ()",
        "tenant: Optional[str] = None",
        "static_checks: bool = False",
        "tracing: Optional[float] = None",
    ),
    RetryPolicy: (
        "max_attempts: int = 3",
        "initial_backoff: float = 0.001",
    ),
    CachePolicy: (
        "max_entries: int = 256",
        "lease_ms: float = 50.0",
        "mode: str = 'leases'",
        "cacheable: Tuple[str, ...] = ()",
    ),
}

#: Signatures of the constructors the façade configures replication and
#: failover through.
EXPECTED_CONFIGURATION_SIGNATURES = {
    ReplicaManager.__init__: (
        "(self, cluster, *, application: 'Any' = None, detector: 'Any' = None) -> 'None'"
    ),
    ReplicaManager.replicate: (
        "(self, impl: 'Any', *, name: 'str', primary_node: 'str', "
        "backup_nodes: 'Sequence[str]', readonly: 'Sequence[str]' = (), "
        "sync: 'str' = 'eager', quorum: 'int' = 1, "
        "transport: 'Optional[str]' = None) -> 'ReplicaGroup'"
    ),
    ReplicaEndpoint.__init__: (
        "(self, impl: 'Any', application: 'Any' = None, *, epoch: 'int' = 0) -> 'None'"
    ),
    PipelineScheduler.__init__: (
        "(self, space: 'Any', *, max_batch: 'int' = 32, window: 'int' = 4, "
        "transport: 'Optional[str]' = None, "
        "retry_policy: 'RetryPolicy' = RetryPolicy(max_attempts=1, initial_backoff=0.001), "
        "failure_log: 'Optional[FailureLog]' = None, replica_manager=None) -> 'None'"
    ),
    FaultTolerantInvoker.__init__: (
        "(self, space, "
        "policy: 'RetryPolicy' = RetryPolicy(max_attempts=3, initial_backoff=0.001), "
        "log: 'Optional[FailureLog]' = None, *, replica_manager=None) -> 'None'"
    ),
    HeartbeatDetector.__init__: (
        "(self, network, monitor_node: 'str', *, interval: 'float' = 0.002, "
        "miss_threshold: 'int' = 2) -> 'None'"
    ),
}

#: Session's public methods (its lifecycle + service construction contract).
EXPECTED_SESSION_METHODS = (
    "adapt",
    "auto_adapt",
    "close",
    "dismantle",
    "drain",
    "enable_adaptivity",
    "flush",
    "metrics",
    "service",
    "services",
    "tracer",
)

#: Errors the public façade module must export (the supported error names).
EXPECTED_ERROR_NAMES = (
    "AdmissionError",
    "DeadlineExceededError",
    "FencedError",
    "NetworkError",
    "PolicyError",
    "QuorumLostError",
    "RateLimitError",
    "RemoteInvocationError",
    "ReplicationError",
    "ReproError",
    "ThrottledError",
    "TransportError",
)


def _diff(kind: str, expected, actual) -> str:
    """A readable added/removed report for a surface mismatch."""
    expected, actual = set(expected), set(actual)
    lines = [f"{kind} surface changed:"]
    for name in sorted(actual - expected):
        lines.append(f"  + {name} (new — extend the snapshot if intentional)")
    for name in sorted(expected - actual):
        lines.append(f"  - {name} (removed — this breaks downstream imports)")
    return "\n".join(lines)


def _public_methods(cls) -> list:
    return sorted(
        name
        for name, _ in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    )


class TestFacadeExports:
    def test_api_all_matches_snapshot(self):
        actual = tuple(api.__all__)
        assert sorted(actual) == sorted(EXPECTED_API_ALL), _diff(
            "repro.api.__all__", EXPECTED_API_ALL, actual
        )

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, (
                f"repro.api.__all__ lists {name!r} but the attribute is missing"
            )

    def test_error_facade_exports(self):
        actual = [name for name in errors.__all__]
        missing = sorted(set(EXPECTED_ERROR_NAMES) - set(actual))
        assert not missing, (
            f"repro.api.errors no longer exports: {', '.join(missing)}"
        )
        for name in actual:
            value = getattr(errors, name)
            assert isinstance(value, type) and issubclass(value, Exception)


class TestServicePolicySurface:
    def test_builder_methods_match_snapshot(self):
        actual = _public_methods(ServicePolicy)
        assert actual == sorted(EXPECTED_POLICY_METHODS), _diff(
            "ServicePolicy", EXPECTED_POLICY_METHODS, actual
        )

    def test_builder_signatures_match_snapshot(self):
        for name, expected in EXPECTED_POLICY_SIGNATURES.items():
            actual = str(inspect.signature(getattr(ServicePolicy, name)))
            assert actual == expected, (
                f"ServicePolicy.{name} signature changed:\n"
                f"  expected {expected}\n"
                f"  actual   {actual}\n"
                "Keyword names and defaults are public API — update the "
                "snapshot only for a deliberate, documented change."
            )

    def test_builders_return_new_policy_instances(self):
        policy = ServicePolicy()
        derived = policy.with_replication(3, quorum="majority")
        assert derived is not policy
        assert isinstance(derived, ServicePolicy)


class TestConfigurationSurface:
    def test_value_object_fields_match_snapshot(self):
        for cls, expected in EXPECTED_CONFIGURATION_FIELDS.items():
            actual = tuple(
                f"{field.name}: {field.type} = {field.default!r}"
                for field in dataclasses.fields(cls)
            )
            assert actual == expected, _diff(f"{cls.__name__} fields", expected, actual)

    def test_constructor_signatures_match_snapshot(self):
        for function, expected in EXPECTED_CONFIGURATION_SIGNATURES.items():
            actual = str(inspect.signature(function))
            assert actual == expected, (
                f"{function.__qualname__} signature changed:\n"
                f"  expected {expected}\n"
                f"  actual   {actual}\n"
                "A new knob is a deliberate, documented change: update the snapshot."
            )


class TestSessionSurface:
    def test_public_methods_match_snapshot(self):
        actual = _public_methods(Session)
        assert actual == sorted(EXPECTED_SESSION_METHODS), _diff(
            "Session", EXPECTED_SESSION_METHODS, actual
        )

    def test_session_is_a_context_manager(self):
        assert hasattr(Session, "__enter__") and hasattr(Session, "__exit__")
