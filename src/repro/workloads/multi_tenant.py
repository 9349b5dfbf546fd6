"""Two tenants sharing one bounded service, one of them hogging.

The fairness workload behind ``benchmarks/bench_middleware.py``.  A *hog*
tenant offers traffic far above the shared service pool's capacity while a
*polite* tenant offers a modest rate well inside its fair share.  Without admission control the hog
floods the pool's admission queue and the polite tenant's calls are shed
alongside the hog's excess; with a per-tenant
:class:`~repro.api.middleware.RateLimitInterceptor` on each tenant's
*client* chain, the hog's excess is rejected locally — typed, and without
ever shipping a message — so the pool keeps capacity for the polite
tenant.  A server-side chain on the hosting space acts as the
authoritative backstop: client-side enforcement is an optimisation, the
serving node's limiter is the guarantee.

The scenario drives the :mod:`repro.api` façade end to end: one deploying
session installs the server-side chain, and each tenant runs its own
session whose :class:`~repro.api.policy.ServicePolicy` carries its tenant
label (``with_tenant``) and optional client-side chain
(``with_middleware``).
"""

from __future__ import annotations

from typing import Optional

from repro.api import RateLimitInterceptor, ServicePolicy, Session
from repro.api.errors import AdmissionError, RateLimitError, ThrottledError
from repro.workloads._runs import run_prefix

class TenantLedger:
    """The shared service: records one unit of work per admitted call."""

    def __init__(self):
        self.records = {}

    def record(self, tenant, value):
        count = self.records.get(tenant, 0) + 1
        self.records[tenant] = count
        return count

    def count(self, tenant):
        return self.records.get(tenant, 0)


def _classify(futures: list) -> dict:
    """Per-tenant outcome counts from a tenant's settled futures."""
    completed = throttled = shed = failed = 0
    for future in futures:
        if future.ok:
            completed += 1
            continue
        error = future.exception()
        if isinstance(error, (ThrottledError, RateLimitError)):
            # A typed rate-limit rejection — client-local or the server
            # backstop; either way the tenant was over its quota.
            throttled += 1
        elif isinstance(error, AdmissionError):
            # Shed by the saturated service pool itself.
            shed += 1
        else:
            failed += 1
    return {
        "offered": len(futures),
        "completed": completed,
        "throttled": throttled,
        "shed": shed,
        "failed": failed,
    }


def run_multi_tenant_scenario(
    cluster,
    *,
    transport: str = "rmi",
    duration: float = 0.5,
    hog_rate: float = 4000.0,
    polite_rate: float = 400.0,
    limit_rate: Optional[float] = None,
    burst: float = 32.0,
    workers: int = 2,
    queue_limit: int = 8,
    service_time: float = 0.002,
    pipeline_depth: int = 8,
    server: str = "server",
    hog_client: str = "hog",
    polite_client: str = "polite",
    ledger: Optional[TenantLedger] = None,
) -> dict:
    """Offer hog + polite traffic at a shared bounded service for ``duration``.

    A :class:`TenantLedger` is deployed on ``server`` behind a bounded
    :class:`~repro.network.simnet.ServicePool` (sustainable capacity
    ``workers / service_time`` calls/s).  The hog tenant on ``hog_client``
    offers ``hog_rate`` calls/s and the polite tenant on ``polite_client``
    offers ``polite_rate`` calls/s, both open-loop at fixed inter-arrival
    gaps (deterministic, so runs are exactly reproducible).

    ``limit_rate=None`` runs *without* admission control — the contention
    baseline where the hog's flood starves the polite tenant at the pool.
    A positive ``limit_rate`` grants each tenant that many calls/s via a
    client-side :class:`~repro.api.middleware.RateLimitInterceptor` (one
    bucket per tenant session), with a shared server-side limiter at 1.5×
    as the authoritative backstop; the hog's excess then fails locally
    without shipping and the polite tenant — below its own limit — runs
    undisturbed.

    Returns per-tenant outcome counts plus ``fairness_ratio``: the polite
    tenant's completed/offered fraction, the number the regression gate
    holds a floor under.
    """

    if duration <= 0:
        raise ValueError("duration must be positive")
    if hog_rate <= 0 or polite_rate <= 0:
        raise ValueError("offered rates must be positive")
    if limit_rate is not None and limit_rate <= 0:
        raise ValueError("limit_rate must be positive (or None for no limiting)")
    if ledger is None:
        ledger = TenantLedger()

    pool = cluster.set_service_pool(
        server, workers=workers, queue_limit=queue_limit, service_time=service_time
    )
    network = cluster.network
    name = run_prefix(cluster, "multi-tenant")

    deploy_policy = ServicePolicy(transport=transport)
    if limit_rate is not None:
        # The backstop admits a little more than the per-tenant grant so
        # well-behaved (client-limited) traffic never trips it; it only
        # bites tenants that bypass or misconfigure their client chain.
        deploy_policy = deploy_policy.with_middleware(
            server=[RateLimitInterceptor(rate=1.5 * limit_rate, burst=2 * burst)]
        )

    def tenant_policy(tenant: str) -> ServicePolicy:
        policy = ServicePolicy(
            transport=transport, batch_window=1, pipeline_depth=pipeline_depth
        ).with_tenant(tenant)
        if limit_rate is not None:
            policy = policy.with_middleware(
                RateLimitInterceptor(rate=limit_rate, burst=burst)
            )
        return policy

    with Session(cluster, node=polite_client) as deployer:
        deployer.service(name, deploy_policy, impl=ledger, node=server)
        with Session(cluster, node=hog_client) as hog_session, Session(
            cluster, node=polite_client
        ) as polite_session:
            hog = hog_session.service(name, tenant_policy("hog"))
            polite = polite_session.service(name, tenant_policy("polite"))

            start = cluster.clock.now
            hog_futures: list = []
            polite_futures: list = []

            def offer(service, futures, tenant, rate, phase) -> None:
                gap = 1.0 / rate

                def arrive(elapsed: float) -> None:
                    futures.append(service.future.record(tenant, len(futures)))
                    upcoming = elapsed + gap
                    if upcoming < duration:
                        network.events.schedule_at(
                            start + upcoming, lambda: arrive(upcoming)
                        )

                network.events.schedule_at(start + phase, lambda: arrive(phase))

            # Phase offsets keep the two deterministic arrival trains from
            # landing on identical instants (ties would serialise one tenant
            # permanently behind the other in the event queue).
            offer(hog, hog_futures, "hog", hog_rate, 0.25 / hog_rate)
            offer(polite, polite_futures, "polite", polite_rate, 0.75 / polite_rate)

            network.events.run_until_idle()
            hog_session.drain()
            polite_session.drain()

            elapsed = max(duration, cluster.clock.now - start)
            hog_report = _classify(hog_futures)
            polite_report = _classify(polite_futures)

    for report in (hog_report, polite_report):
        report["goodput"] = report["completed"] / elapsed
        report["completion_ratio"] = (
            report["completed"] / report["offered"] if report["offered"] else 0.0
        )
    return {
        "transport": transport,
        "duration": duration,
        "elapsed": elapsed,
        "limited": limit_rate is not None,
        "limit_rate": limit_rate,
        "capacity": pool.capacity,
        "hog": hog_report,
        "polite": polite_report,
        "fairness_ratio": polite_report["completion_ratio"],
        "server_records": {
            "hog": ledger.count("hog"),
            "polite": ledger.count("polite"),
        },
        "pool": pool.snapshot(),
    }
