"""Sessions: the single entry point of the :mod:`repro.api` façade.

A :class:`Session` represents one client's view of a cluster.  It owns —
and, crucially, *tears down* — every piece of shared machinery the services
created through it need:

* one pipeline scheduler per distinct pipelined policy shape (so submission
  streams shard and pipeline across all services that agree on their knobs)
  and one private to every batched or direct service,
* at most one :class:`~repro.network.heartbeat.HeartbeatDetector` and one
  :class:`~repro.runtime.replication.ReplicaManager` (created lazily when the
  first replicated service appears), and
* a naming-service rebind listener that keeps every service's reference
  fresh across failovers and migrations.

:meth:`Session.close` unregisters the rebind listener, detaches the replica
manager from the detector, stops the heartbeat probes and unwatches their
nodes — so opening and closing many sessions in one process leaks neither
callbacks nor event-queue activity.  Sessions are context managers::

    with Session(cluster, node="client") as session:
        orders = session.service("orders", policy, impl=OrderIntake(),
                                 node="server")
        orders.submit("sku-1", 2, 10)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro._errors import PolicyError
from repro.api.dispatch import (
    BatchPipe,
    ChainedPipe,
    DirectPipe,
    StreamPipe,
)
from repro.api.middleware import InterceptorChain, MetricsInterceptor
from repro.api.policy import ServicePolicy
from repro.api.service import Service
from repro.core.interfaces import cacheable_members
from repro.core.metaobject import KIND_LOCAL, KIND_REMOTE, metaobject_of
from repro.network.heartbeat import HeartbeatDetector
from repro.network.metrics import LatencyHistogram
from repro.observability.tracing import Tracer
from repro.runtime.caching import CacheManager
from repro.runtime.faulttolerance import NO_RETRY
from repro.runtime.pipelining import PipelineScheduler
from repro.runtime.remote_ref import RemoteRef
from repro.runtime.replication import ReplicaManager


class _AdoptedLeg:
    """What the ``remote_invoker`` slot of an adopted handle holds: the remote
    leg of every call through the handle is the adopting service's pipe."""

    def __init__(self, service: Service) -> None:
        #: Read by the boundary-change operations, which refuse the handle.
        self.service = service

    def invoke(self, reference, member, args=(), kwargs=None, **_binding) -> Any:
        """The handle's call, enqueued on the service (which owns reference,
        transport and issuing space) and waited for."""
        return self.service.call(member, *args, **(kwargs or {}))


class Session:
    """One client's façade over a cluster: create and consume named services.

    Parameters
    ----------
    cluster:
        The :class:`~repro.runtime.cluster.Cluster` to operate against.
    node:
        The cluster node this session's calls are issued from (defaults to
        the cluster's first node).
    """

    def __init__(self, cluster: Any, *, node: Optional[str] = None) -> None:
        self.cluster = cluster
        self.node_id = node if node is not None else cluster.default_node_id
        #: The address space this session issues calls from.
        self.space = cluster.space(self.node_id)
        self._services: Dict[str, Service] = {}
        self._schedulers: Dict[Any, PipelineScheduler] = {}
        self._detector: Optional[HeartbeatDetector] = None
        self._manager: Optional[ReplicaManager] = None
        self._cache_manager: Optional[CacheManager] = None
        self._tracer: Optional[Tracer] = None
        self._adaptive: Optional[Any] = None
        self._adapt_epoch = 0
        #: ``(name, group, host node, reference, impl, adopted metaobject or
        #: None)`` of every deployment this session made, consumed by
        #: :meth:`dismantle`.
        self._deployments: List[tuple] = []
        #: ``(chain, spaces)`` of every server-side middleware install this
        #: session made at deploy time, removed again on :meth:`close`.
        self._server_chains: List[tuple] = []
        self._closed = False
        cluster.naming.on_rebind(self._on_rebind)

    # ------------------------------------------------------------------
    # service creation / lookup
    # ------------------------------------------------------------------

    def service(
        self,
        name: str,
        policy: Optional[ServicePolicy] = None,
        *,
        impl: Any = None,
        node: Optional[str] = None,
        backup_nodes: Optional[Sequence[str]] = None,
    ) -> Service:
        """Obtain the :class:`~repro.api.service.Service` bound to ``name``.

        Without ``impl``, the name is looked up in the cluster's naming
        service (some other party deployed it).  With ``impl``, this session
        deploys it first: the object is exported from ``node`` (required
        with ``impl``) and bound to ``name`` —
        or, when the policy's ``replication_factor`` exceeds 1, registered as
        a replica group with ``replication_factor - 1`` backups on
        ``backup_nodes`` (default: ring placement over the remaining nodes)
        with heartbeat-driven failover armed.

        ``impl`` may be a rebindable handle of a transformed application
        deployed on this cluster (``app.new("C", ...)`` under a dynamic
        policy): the session *adopts* it.  The object behind the handle is
        deployed exactly like any other ``impl``, then the handle is rebound
        onto the returned service, so every reference the program already
        holds reaches the object through this policy's pipe — batching,
        retries, replication, caching, the interceptor chain and tracing —
        with the class's own interface.  The handle must be local, and it is
        the session's until :meth:`dismantle` brings it back: boundary changes
        on it raise :class:`~repro.api.errors.RedistributionError`.

        Either way the returned service dispatches per ``policy``: plain
        calls, ``.future`` calls, batching, pipelining, retries and failover
        are all assembled internally, in the right order.
        """
        self._ensure_open()
        if policy is None:
            policy = ServicePolicy()
        if name in self._services:
            raise PolicyError(
                f"session already has a service named {name!r}; "
                "hold on to the object it returned"
            )
        adopted = metaobject_of(impl)
        if adopted is not None:
            if adopted.is_remote or self.space.application is None:
                raise PolicyError(
                    f"cannot adopt the handle as {name!r}: it must be local, and its "
                    "application deployed on this cluster"
                )
            impl = adopted.target
        if policy.static_checks:
            if impl is None:
                raise PolicyError(
                    "static_checks only applies when this session deploys "
                    "the implementation (pass impl=...); attaching to an "
                    "existing name gives no source to verify"
                )
            # Lint before any deployment side effect: a refused service
            # must leave no export, no binding and no replica group behind.
            self._verify_static(impl, policy)
        group = None
        host: Optional[str] = None
        #: Nodes hosting the implementation (primary + backups when
        #: replicated) — where server-side middleware installs.
        host_nodes: List[str] = []
        if impl is None:
            if policy.server_middleware:
                raise PolicyError(
                    "server_middleware only applies when this session deploys "
                    "the implementation (pass impl=...); attaching to an "
                    "existing name cannot reconfigure its hosting node's "
                    "dispatch path"
                )
            if policy.replicated:
                raise PolicyError(
                    "replication_factor only applies when this session deploys "
                    "the implementation (pass impl=...); attaching to an "
                    "existing name gives no failover machinery — drop the "
                    "replication knob, or deploy the service replicated"
                )
            reference = self.cluster.naming.lookup(name)
        elif name in self.cluster.naming:
            # Deploying over an existing binding would silently steal the
            # name from whoever published it (and rewire their live services
            # through the rebind listeners).  Failover/migration rebinds are
            # legitimate; a second *deploy* of the same name is not.
            raise PolicyError(
                f"name {name!r} is already bound in this cluster's naming "
                "service; choose another name, or attach to the existing "
                "deployment by omitting impl"
            )
        elif node is None:
            raise PolicyError(f"deploying {name!r} needs node=: the node that hosts it")
        elif policy.replicated:
            primary = node
            backups = self._backup_nodes(policy, primary, backup_nodes)
            manager = self._ensure_replication()
            for watched in (primary, *backups):
                if watched != self.node_id:
                    self._detector.watch(watched)
            group = manager.replicate(
                impl,
                name=name,
                primary_node=primary,
                backup_nodes=backups,
                readonly=policy.readonly,
                sync=policy.sync,
                quorum=policy.quorum,
                transport=policy.transport,
            )
            reference = group.primary_ref
            host_nodes = [primary, *backups]
        else:
            host = node
            reference = self.cluster.space(host).export(impl)
            self.cluster.naming.rebind(name, reference)
            host_nodes = [host]
        if policy.server_middleware and host_nodes:
            # One chain INSTANCE shared by every hosting space: a replica
            # group's primary and backups then share interceptor state, so
            # a failover re-ship neither double-charges a rate-limit bucket
            # nor resets accumulated metrics.
            chain = InterceptorChain(policy.server_middleware)
            spaces = [self.cluster.space(host_node) for host_node in host_nodes]
            for space in spaces:
                space.use_middleware(chain)
            self._server_chains.append((chain, spaces))
        cache = None
        if policy.cached:
            # Cacheability metadata comes from the implementation's
            # ``@cacheable`` markers when this session deploys it; attaching
            # to a foreign deployment relies on the CachePolicy's explicit
            # ``cacheable`` list (unioned in by the cache itself).
            cacheable = cacheable_members(type(impl)) if impl is not None else frozenset()
            cache = self._ensure_cache_manager().create_cache(policy.cache, cacheable)
        service = Service(self, name, policy, reference, group=group, cache=cache)
        self._services[name] = service
        if impl is not None:
            self._deployments.append((name, group, host, reference, impl, adopted))
        if adopted is not None:
            proxy = self.space.application.proxy_for_ref(
                reference, self.space, transport=policy.transport
            )
            adopted.rebind(proxy, KIND_REMOTE, node_id=reference.node_id)
            adopted.remote_invoker = _AdoptedLeg(service)
        return service

    def _verify_static(self, impl: Any, policy: ServicePolicy) -> None:
        """Run the distribution-safety rules against ``impl``'s source.

        Raises :class:`PolicyError` naming every error-severity finding
        (rule id + ``path:line``) when the implementation violates a
        contract the policy makes load-bearing — e.g. DS101
        (nondeterministic writes) escalates to an error under quorum
        replication because backups re-execute acknowledged writes.  For a
        transformed object (a handle or a generated local implementation,
        whose text was ``exec``'d and has no file) the class linted is the one
        the user wrote.
        """
        from repro.analysis import verify_deployment

        cls = type(impl)
        application = self.space.application
        if application is not None and application.is_transformed(
            getattr(cls, "_repro_class_name", None)
        ):
            cls = application.artifacts(cls._repro_class_name).model.python_class
        try:
            findings = verify_deployment(cls, policy)
        except (OSError, TypeError) as error:
            raise PolicyError(
                f"static checks requested but the source of {cls.__name__!r} "
                f"cannot be recovered: {error}"
            ) from error
        if findings:
            details = "; ".join(
                f"{finding.rule} at {finding.location}: {finding.message}"
                for finding in findings
            )
            raise PolicyError(
                f"static checks refuse to deploy {cls.__name__!r}: {details}"
            )

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-side merged counters from every metrics interceptor in play.

        Scans the client (``middleware``) and server (``server_middleware``)
        chains of every service this session created for
        :class:`~repro.api.middleware.MetricsInterceptor` instances and
        merges their snapshots **per side**::

            {"client": {"members": {member: {"calls", "errors", "total_latency"}},
                        "latency": {...histogram summary...}},
             "server": {...same shape...}}

        Client and server chains are deliberately *not* summed into one
        counter: when both sides install metrics, every call is observed
        twice (once per side of the wire), and a flat merge would
        double-count it.  An interceptor shared by several policies is
        counted once per side; the latency digests combine via
        :meth:`~repro.network.metrics.LatencyHistogram.merge`.
        """
        report: Dict[str, Dict[str, Any]] = {}
        seen: set = set()
        sides = (
            ("client", lambda policy: policy.middleware),
            ("server", lambda policy: policy.server_middleware),
        )
        for side, chain_of in sides:
            members: Dict[str, Dict[str, float]] = {}
            histogram = LatencyHistogram()
            for service in self._services.values():
                for interceptor in chain_of(service.policy):
                    if not isinstance(interceptor, MetricsInterceptor):
                        continue
                    if (side, id(interceptor)) in seen:
                        continue
                    seen.add((side, id(interceptor)))
                    for member, row in interceptor.snapshot().items():
                        into = members.setdefault(
                            member, {"calls": 0, "errors": 0, "total_latency": 0.0}
                        )
                        for key, value in row.items():
                            into[key] = into.get(key, 0) + value
                    histogram.merge(interceptor.histogram)
            report[side] = {"members": members, "latency": histogram.summary()}
        return report

    def tracer(self) -> Tracer:
        """The session's tracer (created lazily, shared by every layer).

        Creating it hangs the tracer off the cluster network's ``tracer``
        attribute, which is where the dispatch, link, pool, server and
        replication layers pick it up; :meth:`close` detaches it again.
        Calls are only actually traced on services whose policy carries
        :meth:`~repro.api.policy.ServicePolicy.with_tracing`; read the
        collected traces from ``session.tracer().collector``.
        """
        self._ensure_open()
        if self._tracer is None:
            network = self.cluster.network
            self._tracer = Tracer(clock=network.clock)
            network.tracer = self._tracer
        return self._tracer

    # ------------------------------------------------------------------
    # shared machinery (internal, used by the pipes)
    # ------------------------------------------------------------------

    @property
    def replica_manager(self) -> Optional[ReplicaManager]:
        """The session's replica manager (``None`` until something replicates)."""
        return self._manager

    @property
    def detector(self) -> Optional[HeartbeatDetector]:
        """The session's heartbeat detector (``None`` until something replicates)."""
        return self._detector

    @property
    def cache_manager(self) -> Optional[CacheManager]:
        """The session's cache manager (``None`` until a policy caches)."""
        return self._cache_manager

    def _ensure_cache_manager(self) -> CacheManager:
        """Create the shared cache manager on the first cached service."""
        if self._cache_manager is None:
            self._cache_manager = CacheManager(self.space)
        return self._cache_manager

    def _build_pipe(self, service: Service):
        """Choose and build the dispatch pipe a service's policy calls for.

        A policy carrying ``middleware`` — or tracing — gets its pipe
        wrapped in a :class:`~repro.api.dispatch.ChainedPipe`, so every
        enqueue runs through the client-side interceptor chain (and opens
        its root trace span) whatever dispatch shape (direct, batched,
        pipelined) the other knobs picked.
        """
        policy = service.policy
        if policy.pipelined:
            pipe = StreamPipe(service, self._scheduler_for(policy))
        elif policy.batched:
            pipe = BatchPipe(service)
        else:
            pipe = DirectPipe(service)
        if policy.intercepted or policy.traced:
            pipe = ChainedPipe(
                service,
                pipe,
                InterceptorChain(policy.middleware),
                tracer=self.tracer() if policy.traced else None,
                sample_rate=policy.tracing if policy.tracing is not None else 1.0,
            )
        return pipe

    def _scheduler_for(
        self, policy: ServicePolicy, owner: Optional[str] = None
    ) -> PipelineScheduler:
        """The scheduler for one policy shape (created on first use).

        Pipelined policies share one per shape.  A batched or direct service
        passes its name as ``owner`` and gets one to itself: two services
        sharing a window would change batch composition and wire bytes.
        """
        key = policy.scheduler_key() if owner is None else owner
        scheduler = self._schedulers.get(key)
        if scheduler is None:
            scheduler = PipelineScheduler(
                self.space,
                max_batch=policy.batch_window,
                window=policy.pipeline_depth,
                transport=policy.transport,
                retry_policy=policy.retry if policy.retry is not None else NO_RETRY,
                replica_manager=self._manager,
            )
            self._schedulers[key] = scheduler
        return scheduler

    def _ensure_replication(self) -> ReplicaManager:
        """Create the session's detector + manager on its first replicated service.

        Every replicated service shares the pair; each group carries its own
        policy's transport, sync mode and quorum.
        """
        if self._manager is not None:
            return self._manager
        self._detector = HeartbeatDetector(self.cluster.network, self.node_id)
        self._manager = ReplicaManager(
            self.cluster,
            detector=self._detector,
            # So that a transformed object's state is read, written and
            # re-created through its generated accessors and local class.
            application=self.space.application,
        )
        self._detector.start()
        # Schedulers built before replication appeared must see the manager,
        # or their fatal-failure path would never take the failover branch.
        for scheduler in self._schedulers.values():
            scheduler.replica_manager = self._manager
        return self._manager

    def _backup_nodes(
        self,
        policy: ServicePolicy,
        primary: str,
        explicit: Optional[Sequence[str]],
    ) -> List[str]:
        """Backup placement: explicit nodes, or a ring over the remaining ones."""
        if explicit is not None:
            backups = list(explicit)
            if len(backups) != policy.backup_count:
                raise PolicyError(
                    f"policy wants {policy.backup_count} backup(s), "
                    f"got {len(backups)} backup node(s)"
                )
            return backups
        # Ring placement: walk the node list starting just after the primary,
        # so replicated services deployed on successive nodes spread their
        # backups instead of piling them onto the first candidate.
        nodes = [n for n in self.cluster.node_ids() if n != self.node_id]
        if primary in nodes:
            start = nodes.index(primary) + 1
            ring = nodes[start:] + nodes[:start]
        else:
            ring = nodes
        candidates = [n for n in ring if n != primary]
        if len(candidates) < policy.backup_count:
            raise PolicyError(
                f"cluster has {len(candidates)} candidate backup node(s), "
                f"policy wants {policy.backup_count}; pass backup_nodes=..."
            )
        return candidates[: policy.backup_count]

    def _on_rebind(self, name: str, old: Optional[RemoteRef], new: RemoteRef) -> None:
        """Naming listener: keep the matching service's reference fresh.

        A cached service additionally flushes entries held against the old
        reference — a failover or migration must not leave leases pointing
        at a retired export.
        """
        service = self._services.get(name)
        if service is not None:
            service._reference = new
            if service.cache is not None and old is not None:
                self._cache_manager.flush_reference(old)

    def _ensure_open(self) -> None:
        if self._closed:
            raise PolicyError("this session is closed")

    # ------------------------------------------------------------------
    # adaptivity (auto-wired; see ROADMAP "façade could auto-wire adaptivity")
    # ------------------------------------------------------------------

    @property
    def adaptive_manager(self) -> Optional[Any]:
        """The session's adaptive manager (``None`` until enabled)."""
        return self._adaptive

    def enable_adaptivity(
        self,
        application: Any,
        *,
        controller: Any = None,
        threshold: float = 0.6,
        min_calls: int = 10,
        interval: Optional[float] = None,
    ):
        """Own an adaptive distribution manager wired to this session's stack.

        ``application`` is a deployed
        :class:`~repro.core.transformer.TransformedApplication` on this
        session's cluster (its rebindable handles are what the manager
        monitors and moves).  Every handle the application has already
        produced is monitored, and the cluster's network feeds the measured
        queueing-delay weight
        (:meth:`~repro.policy.adaptive.AdaptiveDistributionManager.connect_network`)
        so congested traffic argues more strongly for moving objects.  The
        session's services feed nothing: their traffic never passes through
        a movable handle's monitor.  ``interval`` additionally starts
        :meth:`auto_adapt`.  Returns the manager.
        """
        from repro.policy.adaptive import AdaptiveDistributionManager
        from repro.runtime.redistribution import DistributionController

        self._ensure_open()
        if self._adaptive is not None:
            raise PolicyError("adaptivity is already enabled on this session")
        if controller is None:
            controller = DistributionController(application, self.cluster)
        manager = AdaptiveDistributionManager(
            application, controller, threshold=threshold, min_calls=min_calls
        )
        self._adaptive = manager
        manager.connect_network(self.cluster.network)
        manager.attach_all()
        if interval is not None:
            self.auto_adapt(interval)
        return manager

    def adapt(self):
        """Close one observation epoch: apply suggested moves, reset windows.

        Requires :meth:`enable_adaptivity`; returns the round's
        :class:`~repro.policy.adaptive.AdaptationRecord`.
        """
        self._ensure_open()
        if self._adaptive is None:
            raise PolicyError(
                "adaptivity is not enabled; call enable_adaptivity(application) first"
            )
        return self._adaptive.adapt()

    def auto_adapt(self, interval: float) -> None:
        """Drive :meth:`adapt` every ``interval`` simulated seconds.

        The rounds ride the cluster's event queue (like heartbeat probes and
        interval replication sync), so they interleave deterministically
        with in-flight traffic.  Calling again re-paces the loop;
        :meth:`close` cancels it — pending ticks become no-ops.
        """
        self._ensure_open()
        if self._adaptive is None:
            raise PolicyError(
                "adaptivity is not enabled; call enable_adaptivity(application) first"
            )
        if interval <= 0:
            raise PolicyError("auto_adapt interval must be positive")
        self._adapt_epoch += 1
        epoch = self._adapt_epoch
        events = self.cluster.network.events

        def tick() -> None:
            if self._closed or epoch != self._adapt_epoch:
                return
            self._adaptive.adapt()
            events.schedule(interval, tick)

        events.schedule(interval, tick)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Ship every buffered window across all of this session's services."""
        for service in self._services.values():
            service.flush()

    def drain(self) -> None:
        """Flush, then pump events until nothing of this session is in flight."""
        self.flush()
        for scheduler in self._schedulers.values():
            if scheduler.outstanding > 0:
                scheduler.drain()

    def close(self, *, drain: bool = True) -> None:
        """Tear the session down; idempotent.

        Drains in-flight work (unless ``drain=False``), stops the heartbeat
        probes and unwatches their nodes, detaches the replica manager's
        detector listeners, stops its sync loops, and unregisters the naming
        rebind listener — repeated sessions in one process must not leak
        callbacks into the cluster's long-lived naming service, detector
        rounds onto its event queue, or listener lists anywhere else.
        """
        if self._closed:
            return
        try:
            if drain:
                self.drain()
        finally:
            # Teardown must run even when the drain raises (a dead target, a
            # stalled pipeline): otherwise the very callbacks this method
            # exists to remove would leak, and _closed would stay False.
            # The drain's error still propagates afterwards.
            for service in self._services.values():
                # Retire every pipe: a closed session's buffered windows must
                # fail rather than ship when a held future's result() is
                # demanded later.
                service._pipe.stop()
            for scheduler in self._schedulers.values():
                # Retire the schedulers so a backoff re-ship still sitting on
                # the cluster's shared event queue cannot fire a dead
                # session's batch into a later session's run.
                scheduler.stop()
            if self._detector is not None:
                self._detector.stop()
                for node_id in list(self._detector.watched_nodes()):
                    self._detector.unwatch(node_id)
            if self._manager is not None:
                self._manager.stop()
                self._manager.detach()
            if self._cache_manager is not None:
                # Detach the invalidation listener from the (long-lived)
                # address space and drop every cached entry.
                self._cache_manager.close()
            # Uninstall the server-side chains this session deployed: the
            # hosting spaces outlive the session, and a later session's
            # traffic must not be billed to a dead session's rate limiters.
            server_chains, self._server_chains = self._server_chains, []
            for chain, spaces in server_chains:
                for space in spaces:
                    space.remove_middleware(chain)
            # Detach the tracer from the (long-lived) network — unless a
            # later session already installed its own.
            if (
                self._tracer is not None
                and getattr(self.cluster.network, "tracer", None) is self._tracer
            ):
                self.cluster.network.tracer = None
            # Cancel any auto-adapt loop: pending ticks become no-ops.  The
            # handles outlive the session, so its access monitors come off.
            self._adapt_epoch += 1
            if self._adaptive is not None:
                self._adaptive.detach_all()
            self.cluster.naming.off_rebind(self._on_rebind)
            self._closed = True

    def dismantle(self, *, drain: bool = True) -> None:
        """:meth:`close`, then undo every deployment this session made.

        Where ``close()`` only retires the session's *client-side* machinery
        (listeners, probes, schedulers), ``dismantle()`` makes the session
        fully reversible: every implementation it exported is unexported
        from its host space, every replica group it created is torn down
        (primary wrapper and backup endpoints unexported), and every name it
        bound is unbound from the cluster's naming service.  Services other
        parties deployed — ones this session merely attached to — are left
        untouched.  An adopted handle comes back local on this session's node,
        bound to the live copy of its object (the current primary's, for a
        replica group) and free to be redistributed again; after a plain
        ``close()`` it stays the session's and its calls raise
        :class:`PolicyError`.  Idempotent; safe after a plain ``close()``.
        """
        try:
            self.close(drain=drain)
        finally:
            deployments, self._deployments = self._deployments, []
            for name, group, host, reference, impl, adopted in deployments:
                if adopted is not None:
                    adopted.remote_invoker = None
                    live = group.primary_impl if group is not None else impl
                    adopted.rebind(live, KIND_LOCAL, node_id=self.node_id)
                if group is not None:
                    if self._manager is not None:
                        self._manager.dismantle(group)
                elif host is not None and host in self.cluster:
                    self.cluster.space(host).unexport(reference)
                if name in self.cluster.naming:
                    self.cluster.naming.unbind(name)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Draining after an application error could mask it with a pipeline
        # stall; tear down without draining in that case.
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session node={self.node_id!r} services={sorted(self._services)} "
            f"{'closed' if self._closed else 'open'}>"
        )
