"""Address spaces: the nodes of the distributed object layer.

An :class:`AddressSpace` is the unit of distribution in the paper: objects
live in exactly one address space, other spaces hold proxies to them, and
"changing applications to span address space boundaries" means placing
objects in different spaces.  Each space owns

* an object table of exported objects (keyed by object identifier),
* a marshaller that converts arguments and results to and from wire values,
* the set of installed transports, and
* a network-facing dispatcher that serves incoming invocation requests by
  invoking the target object and returning the marshalled result.

Address spaces are deliberately unaware of policy and of the transformation:
they host whatever objects the application exports into them.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._errors import InvocationError, NetworkError, TransportError, UnknownObjectError
from repro.core.interception import CallContext, Interceptor, InterceptorChain
from repro.core.interfaces import cacheable_members
from repro.network.simnet import SimulatedNetwork
from repro.observability.tracing import trace_refs_from_contexts
from repro.runtime.invocation import (
    RequestFields,
    read_request,
    read_response,
    request_dict,
    response_dict,
)
from repro.runtime.pipelining import BatchResult
from repro.runtime.remote_ref import ObjectIdAllocator, RemoteRef
from repro.runtime.serialization import Marshaller
from repro.transports.base import (
    CONTROL_FRAME_BYTE,
    LEAVES,
    Live,
    TransportRegistry,
    attach_invalidations,
    frame_invalidation,
    frame_invalidation_ack,
    frame_pong,
    frame_subscription_ack,
    is_invalidation,
    is_ping,
    is_subscription,
    parse_heartbeat,
    parse_invalidation_body,
    parse_subscription,
    split_invalidations,
)

#: One call of a batch: (reference, member, positional args, keyword args),
#: optionally extended with a fifth element — the call's wire-context dict
#: (call id, tenant, deadline; see :class:`~repro.core.interception.CallContext`).
BatchCall = Tuple[RemoteRef, str, tuple, dict]


class _BatchScope:
    """The commits one batch dispatch owes, and the calls held for them.

    A call joins a commit through :meth:`AddressSpace.on_batch_commit`; its
    dispatcher then holds the call's outcome — and, on a served message, the
    server-side interceptor brackets still open around it — until
    :meth:`commit` has run every commit once.  A commit refuses by raising:
    its error replaces the outcome of every call that joined it.
    """

    def __init__(self) -> None:
        #: ``key -> commit``, in the order the batch's calls first joined them.
        self.commits: Dict[Any, Callable[[Any, bool], None]] = {}
        #: Keys of the commits the call being served joined (``None``: none).
        self.joining: Optional[List[Any]] = None
        #: ``(keys, settle)`` of every call held for a commit.
        self.held: List[Tuple[List[Any], Callable[[Optional[BaseException]], None]]] = []

    def hold(self, settle: Callable[[Optional[BaseException]], None]) -> None:
        """Hold the call just served; ``settle(refusal or None)`` after the commits."""
        self.held.append((self.joining, settle))
        self.joining = None

    def commit(self) -> None:
        """Run every commit once, then settle each held call with its refusal."""
        refusals: Dict[Any, BaseException] = {}
        for key, commit in self.commits.items():
            try:
                commit(key, True)
            except Exception as error:  # noqa: BLE001 - a commit refuses by raising
                refusals[key] = error
        for keys, settle in self.held:
            refusal = None
            if refusals:
                refusal = next((refusals[key] for key in keys if key in refusals), None)
            settle(refusal)


def _settle(brackets: Sequence[Any], response: dict, error: Optional[BaseException]) -> None:
    """Close the opened interceptor ``brackets`` of one served call, innermost first."""
    if error is None:
        for bracket in reversed(brackets):
            bracket.close(response["result"])
    else:
        for bracket in reversed(brackets):
            bracket.fail(error)


def _refuse(response: dict, refusal: Optional[BaseException]) -> None:
    """Turn a held call's response into the description of ``refusal``, if any."""
    if refusal is not None:
        response.clear()
        response.update(response_dict(error=refusal))


def _refuse_result(result: BatchResult, refusal: Optional[BaseException]) -> None:
    """Turn a held co-located call's outcome into ``refusal``, if any."""
    if refusal is not None:
        result.value, result.error = None, refusal


class AddressSpace:
    """One simulated address space (node) hosting exported objects."""

    def __init__(
        self,
        node_id: str,
        network: SimulatedNetwork,
        transports: TransportRegistry,
        default_transport: str = "rmi",
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.transports = transports
        self.default_transport = default_transport
        self.marshaller = Marshaller(self)
        #: Set by TransformedApplication.bind_runtime; used to build proxies
        #: for references that arrive over the wire.
        self.application: Any = None

        self._objects: Dict[str, Any] = {}
        self._exported_refs: Dict[int, RemoteRef] = {}
        self._allocator = ObjectIdAllocator(node_id)
        self._dispatch_hooks: list[Any] = []
        #: Server-side interceptor chains (see :meth:`use_middleware`),
        #: bracketing every dispatched request in installation order.
        self._middleware_chains: list[Any] = []
        #: The batch scope of the batch being dispatched (``None``: none).
        self._batch_scope: Optional[_BatchScope] = None
        #: Cache-coherence state (server side): object id → {node → lease
        #: expiry in simulated seconds}.
        self._cache_subscribers: Dict[str, Dict[str, float]] = {}
        #: Cacheable-member sets memoized per implementation type.
        self._cacheable_sets: Dict[type, frozenset] = {}
        #: Client-declared cacheable members per object id (from ``!sub``
        #: frames), honoured in addition to the ``@cacheable`` markers.
        self._cacheable_declared: Dict[str, set] = {}
        #: Mutated-and-subscribed object ids of the message being served.
        self._pending_invalidations: set[str] = set()
        #: Cache-coherence state (client side): listeners fed every ``!inv``
        #: frame (standalone or piggybacked) that reaches this space.
        self._invalidation_listeners: list[Any] = []
        #: Highest replication epoch seen per object id on epoch-stamped
        #: ``!inv`` frames; frames claiming an older epoch are rejected.
        self._invalidation_epoch_floor: Dict[str, int] = {}
        #: ``(trace_id, client_span_id)`` of every traced call dispatched
        #: from the message currently being served — server-side observers
        #: (eager replication forwards) parent their spans here.
        self._message_trace_refs: List[Tuple[str, Optional[str]]] = []

        #: Number of invocation requests served by this space's dispatcher.
        self.invocations_served = 0
        #: Number of remote invocations issued from this space.
        self.invocations_sent = 0
        #: Number of batch messages issued from this space.
        self.batches_sent = 0
        #: Number of batch messages served by this space's dispatcher.
        self.batches_served = 0
        #: Number of heartbeat probes answered by this space.
        self.pings_answered = 0
        #: Cache subscriptions registered with this space (renewals included).
        self.cache_subscriptions = 0
        #: Standalone ``!inv`` frames this space has sent to subscribers.
        self.invalidations_sent = 0
        #: Responses that left this space carrying piggybacked invalidations.
        self.invalidations_piggybacked = 0
        #: Invalidation deliveries applied at this space (as a client).
        self.invalidations_received = 0
        #: Epoch-stamped ``!inv`` frames rejected for claiming an epoch older
        #: than one already seen for the object (fenced ex-primary traffic).
        self.stale_invalidations_rejected = 0
        #: Dispatched ``@cacheable`` calls that rebound instance state on
        #: their target — the runtime complement of lint rule DS102.  Each
        #: offending ``(class, member)`` pair additionally gets a one-shot
        #: :class:`RuntimeWarning`.  Detection compares a shallow
        #: ``__dict__`` snapshot by identity around the call, so attribute
        #: rebinding is caught but in-place container mutation is not —
        #: the static rule covers that half.
        self.cacheable_violations = 0
        self._cacheable_violations_warned: set = set()

        network.register(node_id, self._handle_message)

    # ------------------------------------------------------------------
    # Serving capacity
    # ------------------------------------------------------------------

    def install_service_pool(self, pool: Any) -> None:
        """Bound this node's request-serving capacity.

        Installs a :class:`~repro.network.simnet.ServicePool` on the
        network for this node: delivered messages wait for one of the
        pool's workers (holding it for the pool's service time) and are
        refused with :class:`~repro.api.errors.AdmissionError` once the pool
        saturates.  Passing ``None`` removes the bound and restores the
        idealised unbounded-concurrency model.
        """
        self.network.set_service_pool(self.node_id, pool)

    @property
    def service_pool(self) -> Any:
        """This node's installed service pool, or ``None`` when unbounded."""
        return self.network.service_pool(self.node_id)

    # ------------------------------------------------------------------
    # Object table
    # ------------------------------------------------------------------

    def export(self, implementation: Any, interface_name: Optional[str] = None) -> RemoteRef:
        """Export an object from this space, returning its remote reference.

        Exporting the same object twice returns the same reference.
        """

        existing = self._exported_refs.get(id(implementation))
        if existing is not None:
            return existing
        if interface_name is None:
            interface_name = getattr(type(implementation), "_repro_interface_name", None)
            if interface_name is None:
                interface_name = type(implementation).__name__
        object_id = self._allocator.allocate()
        reference = RemoteRef(object_id, self.node_id, interface_name)
        self._objects[object_id] = implementation
        self._exported_refs[id(implementation)] = reference
        return reference

    def unexport(self, reference: RemoteRef) -> None:
        implementation = self._objects.pop(reference.object_id, None)
        if implementation is not None:
            self._exported_refs.pop(id(implementation), None)
        # A retired export needs no coherence bookkeeping: long-lived spaces
        # serving many short-lived caching clients must not accumulate
        # subscriber tables or declared-cacheable sets per dead object id.
        # (Failover captures the dead primary's subscribers *before* its
        # unexport, so the promoted node can still flush them.)
        self._cache_subscribers.pop(reference.object_id, None)
        self._cacheable_declared.pop(reference.object_id, None)

    def lookup_local_object(self, object_id: str) -> Any:
        try:
            return self._objects[object_id]
        except KeyError as exc:
            raise UnknownObjectError(
                f"object {object_id!r} is not exported by node {self.node_id!r}"
            ) from exc

    def is_exported(self, implementation: Any) -> bool:
        return id(implementation) in self._exported_refs

    def reference_for(self, implementation: Any) -> Optional[RemoteRef]:
        return self._exported_refs.get(id(implementation))

    def exported_objects(self) -> Dict[str, Any]:
        return dict(self._objects)

    def object_count(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Dispatch hooks (used by the application to track the executing node)
    # ------------------------------------------------------------------

    def add_dispatch_hook(self, hook: Any) -> None:
        if hook not in self._dispatch_hooks:
            self._dispatch_hooks.append(hook)

    # ------------------------------------------------------------------
    # Server-side middleware (see repro.core.interception)
    # ------------------------------------------------------------------

    def use_middleware(self, chain: Any) -> Any:
        """Install an interceptor chain around every request this space serves.

        ``chain`` is an :class:`~repro.core.interception.InterceptorChain` (or a
        sequence of interceptors, wrapped into one).  The chain runs inside
        dispatch — after the request is decoded, before/after the target
        method — and is batch-aware: one framed batch message brackets its N
        calls individually.  A ``begin`` rejection (deadline expired, tenant
        over quota) aborts the call before it executes and travels back as a
        typed error response.  Several chains may be installed (e.g. by
        different sessions deploying onto the same node); they nest in
        installation order.  Returns the installed chain (the handle for
        :meth:`remove_middleware`).

        The same chain *instance* may be installed on several spaces — a
        replica group's primary and backups share interceptor state that
        way, so a failover does not reset rate-limit buckets or metrics.
        """
        if isinstance(chain, (list, tuple)):
            chain = InterceptorChain(chain)
        elif isinstance(chain, Interceptor):
            chain = InterceptorChain((chain,))
        if chain not in self._middleware_chains:
            self._middleware_chains.append(chain)
        return chain

    def remove_middleware(self, chain: Any) -> None:
        """Uninstall a chain installed by :meth:`use_middleware` (idempotent)."""
        if chain in self._middleware_chains:
            self._middleware_chains.remove(chain)

    # ------------------------------------------------------------------
    # Batch-dispatch scope (commits that can refuse the calls that joined them)
    # ------------------------------------------------------------------

    def on_batch_commit(self, key: Any, commit: Callable[[Any, bool], None]) -> None:
        """Make the call being served answer only once ``commit`` succeeded.

        Server-side observers — eager replication's acknowledgement step —
        amortise their per-call work this way.  While this space executes
        the calls of one batch message (served, or co-located), the call
        *joins* ``commit``: every commit of the batch runs once, as
        ``commit(key, True)``, after the batch's last call and before its
        response is framed — ``key`` names it, so the calls joining the same
        key share one run.  A commit refuses by raising: every call that
        joined it answers with that error instead of its result, and the
        server-side interceptor brackets of a joined call, held open until
        then, settle with the call's final outcome.  So nothing is
        acknowledged before its commit.

        Outside a batch ``commit(key, False)`` runs at once and its refusal
        raises to the caller.  The scope belongs to one message: the plain
        messages this space serves while a batch call waits on another node
        (a call back into this space) commit on their own.
        """
        scope = self._batch_scope
        if scope is None:
            commit(key, False)
            return
        scope.commits.setdefault(key, commit)
        if scope.joining is None:
            scope.joining = [key]
        elif key not in scope.joining:
            scope.joining.append(key)

    def _in_batch_scope(self, serve: Callable[[], list]) -> list:
        """``serve()`` inside a fresh batch scope; its commits run before it returns."""
        outer, scope = self._batch_scope, _BatchScope()
        self._batch_scope = scope
        try:
            return serve()
        finally:
            self._batch_scope = outer
            if scope.commits:
                scope.commit()

    # ------------------------------------------------------------------
    # Cache coherence (see repro.runtime.caching)
    # ------------------------------------------------------------------

    def add_invalidation_listener(self, listener: Any) -> None:
        """Feed ``listener(object_ids)`` every invalidation reaching this space.

        Registered by the client-side :class:`~repro.runtime.caching.CacheManager`;
        both standalone ``!inv`` frames and invalidations piggybacked on
        response messages are delivered.
        """
        if listener not in self._invalidation_listeners:
            self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(self, listener: Any) -> None:
        """Detach a listener registered with :meth:`add_invalidation_listener`."""
        if listener in self._invalidation_listeners:
            self._invalidation_listeners.remove(listener)

    def invalidation_listener_count(self) -> int:
        """How many invalidation listeners are registered (leak checks)."""
        return len(self._invalidation_listeners)

    def _deliver_invalidations(self, object_ids: Sequence[str]) -> None:
        """Hand one invalidation delivery to every registered listener."""
        if not object_ids:
            return
        self.invalidations_received += 1
        for listener in list(self._invalidation_listeners):
            listener(list(object_ids))

    def register_cache_subscriber(self, object_id: str, node_id: str, expiry: float) -> None:
        """Record one client node's interest in ``object_id``'s invalidations.

        ``expiry`` ends the subscription, in simulated seconds.  Subscriptions
        are one-shot: sending (or piggybacking) an invalidation drops the
        subscriber, and the client re-subscribes on its next cache fill.  One
        node may host several caching clients, so a re-registration can only
        *extend* the recorded expiry — a short-lease subscriber must not
        silence the invalidations a longer-lease subscriber on the same node
        relies on.
        """
        subscribers = self._cache_subscribers.setdefault(object_id, {})
        subscribers[node_id] = max(expiry, subscribers.get(node_id, expiry))
        self.cache_subscriptions += 1

    def cache_subscriber_count(self, object_id: Optional[str] = None) -> int:
        """Live subscriptions for one object (or in total, introspection)."""
        if object_id is not None:
            return len(self._cache_subscribers.get(object_id, {}))
        return sum(len(nodes) for nodes in self._cache_subscribers.values())

    def take_cache_subscribers(self, object_id: str) -> Dict[str, float]:
        """Remove and return one object's subscriber table.

        Used by the failover path: the demoted primary's subscriptions are
        handed to the promoted node, which flushes them with an explicit
        invalidation (the dead node can no longer send anything itself).
        """
        return self._cache_subscribers.pop(object_id, {})

    def send_cache_invalidations(
        self,
        object_ids: Sequence[str],
        nodes: Sequence[str],
        epoch: Optional[int] = None,
    ) -> int:
        """Send one ``!inv`` frame for ``object_ids`` to each of ``nodes``.

        Unreachable subscribers are skipped (their caches self-expire or
        re-key); returns how many frames were delivered.  ``epoch`` stamps
        the frame with the sender's replication epoch so recipients can
        reject invalidations minted by a fenced ex-primary.
        """
        return sum(
            self._send_invalidation(node, object_ids, epoch) for node in sorted(set(nodes))
        )

    def _send_invalidation(
        self, node: str, object_ids: Sequence[str], epoch: Optional[int] = None
    ) -> bool:
        """Frame one ``!inv`` for ``object_ids`` and send it to ``node``.

        The one sender of ``!inv`` frames, for writes and for failover;
        returns whether the frame was delivered.
        """
        try:
            self.network.send_request(
                self.node_id, node, frame_invalidation(object_ids, epoch)
            )
        except NetworkError:
            return False
        self.invalidations_sent += 1
        return True

    def _cacheable_members_for(self, target: Any) -> frozenset:
        """The target's side-effect-free members, memoized per type.

        Wrappers that interpose on a real implementation (e.g. the
        replication layer's ``ReplicatedObject``) expose it via
        ``_repro_cache_target`` so cacheability is read off the real class.
        """
        unwrapped = getattr(target, "_repro_cache_target", None)
        if unwrapped is not None:
            target = unwrapped
        cls = type(target)
        members = self._cacheable_sets.get(cls)
        if members is None:
            members = cacheable_members(cls)
            self._cacheable_sets[cls] = members
        return members

    def _mutates_subscribed_object(
        self, object_id: str, target: Any, member: str
    ) -> bool:
        """Whether dispatching ``member`` must invalidate subscriber caches.

        Any member not marked cacheable is conservatively a write; objects
        nobody subscribed to need no bookkeeping at all.
        """
        if object_id not in self._cache_subscribers:
            return False
        if member in self._cacheable_members_for(target):
            return False
        declared = self._cacheable_declared.get(object_id)
        return declared is None or member not in declared

    def _broadcast_invalidations(
        self, object_ids: set, exclude: Optional[str] = None
    ) -> set:
        """Invalidate every live subscriber of ``object_ids`` — now.

        One ``!inv`` frame travels per subscriber node (ids coalesced), paid
        on the simulated network *before* the triggering write's response
        leaves.  Expired leases are pruned instead of invalidated, and
        delivered subscriptions are dropped (one-shot).  Subscriptions held
        by ``exclude`` — the node whose request triggered the write — are
        returned instead of messaged, so the caller can piggyback them on
        the response for free.

        An *undeliverable* invalidation (the subscriber's node is down, the
        frame was dropped) falls back to the lease: the write stalls until
        the lost subscriber's lease has run out, so by the time the write is
        acknowledged the unreachable cache's entries have expired on their
        own.
        """
        clock = self.network.clock
        # node → [ids to invalidate, latest lease expiry among them]
        per_node: Dict[str, list] = {}
        excluded_ids: set = set()
        for object_id in object_ids:
            for node, expiry in self._cache_subscribers.pop(object_id, {}).items():
                if expiry <= clock.now:
                    continue
                if node == exclude:
                    excluded_ids.add(object_id)
                    continue
                pending = per_node.setdefault(node, [[], expiry])
                pending[0].append(object_id)
                pending[1] = max(pending[1], expiry)
        for node in sorted(per_node):
            ids, latest = per_node[node]
            if not self._send_invalidation(node, ids) and latest > clock.now:
                # Wait the lost subscriber's leases out before the write is
                # acknowledged: its entries expire by themselves.
                clock.advance(latest - clock.now)
        return excluded_ids

    def _handle_subscription(self, payload: bytes) -> bytes:
        """Serve one ``!sub`` frame: record the subscriber, acknowledge."""
        body = parse_subscription(payload)
        expiry = self.network.clock.now + body["lease"]
        object_id = str(body["object_id"])
        declared = body.get("cacheable") or ()
        if declared:
            self._cacheable_declared.setdefault(object_id, set()).update(
                str(member) for member in declared
            )
        self.register_cache_subscriber(object_id, str(body["node"]), expiry)
        return frame_subscription_ack()

    # ------------------------------------------------------------------
    # Hosted objects (where every call, local or served, ends)
    # ------------------------------------------------------------------

    def _call_hosted(
        self, object_id: str, member: str, args: Sequence, kwargs: dict, mutated: set
    ) -> Any:
        """Call ``member`` of the object exported here as ``object_id``.

        The one place a member is looked up on a hosted object and run.  A
        write to an object with cache subscribers adds its id to ``mutated``
        — before execution: a write that raises may still have mutated state,
        so subscribers are invalidated either way (conservative, never
        stale).  *When* the collected ids are broadcast is the caller's
        business and the only thing the callers differ in: the co-located
        short-circuit before it returns, a co-located batch after its last
        call, a served message before its response leaves.
        """
        target = self.lookup_local_object(object_id)
        try:
            method = getattr(target, member)
        except AttributeError:
            raise InvocationError(
                f"object {object_id!r} has no member {member!r}"
            ) from None
        if self._cache_subscribers and self._mutates_subscribed_object(
            object_id, target, member
        ):
            mutated.add(object_id)
        snapshot = None
        if member in self._cacheable_members_for(target):
            snapshot = self._state_snapshot(target)
        try:
            return method(*args, **kwargs)
        finally:
            # Checked on the error path too: a @cacheable member that
            # mutated and *then* raised still poisoned the caches.
            if snapshot is not None:
                self._check_cacheable_purity(target, member, snapshot)

    # ------------------------------------------------------------------
    # Outgoing invocations (the proxy side)
    # ------------------------------------------------------------------

    def invoke_remote(
        self,
        reference: RemoteRef,
        member: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        transport: Optional[str] = None,
        context: Optional[dict] = None,
    ) -> Any:
        """Invoke ``member`` on the object behind ``reference``.

        When the reference points at this very space the call short-circuits
        to a direct local invocation — remote and non-remote versions of an
        object are interchangeable, so a proxy that finds itself co-located
        with its target behaves like the local version.  (The short-circuit
        bypasses the wire *and* the serving space's middleware chain — a
        co-located caller is trusted like local code — and raises the
        application's own exception, not a description of it.)

        ``context`` is the call's wire-context dict (call id, tenant,
        deadline); it rides the request as a ``ctx`` control field and is
        rebuilt into the server-side
        :class:`~repro.core.interception.CallContext`.
        """

        kwargs = kwargs or {}
        if reference.located_on(self.node_id):
            mutated: set[str] = set()
            try:
                return self._call_hosted(reference.object_id, member, args, kwargs, mutated)
            finally:
                if mutated:
                    # A co-located writer bypasses the dispatcher, but remote
                    # subscribers must still drop their entries before the
                    # write returns to the caller.
                    self._broadcast_invalidations(mutated)
        return self._exchange(
            [(reference, member, args, kwargs, context)], reference.node_id, transport, False
        ).unwrap()

    def invoke_remote_many(
        self,
        calls: Sequence[BatchCall],
        transport: Optional[str] = None,
    ) -> List[BatchResult]:
        """Invoke N member calls with one framed network message (a batch).

        Every call must target the same destination space; the batch travels
        as a single wire message, the transport's fixed processing charge and
        the network round trip are paid once, and the responses come back in
        request order.  Application errors raised by individual calls are
        isolated into their :class:`~repro.runtime.pipelining.BatchResult`
        slots; a transport- or network-level failure raises and fails the
        whole batch atomically.

        When the batch targets this very space it short-circuits to direct
        local invocations (with the same per-call error isolation), mirroring
        :meth:`invoke_remote`.
        """

        return self._ship_batch(calls, transport)

    def invoke_remote_many_async(
        self,
        calls: Sequence[BatchCall],
        on_results: Any,
        on_error: Any,
        transport: Optional[str] = None,
    ) -> None:
        """Ship a batch asynchronously; the outcome arrives via callback.

        The batch is encoded and posted on the network's event queue, then
        control returns to the caller immediately — several batches (to the
        same node or to different shards) can be in flight at once, and their
        round-trip delays overlap in simulated time.  When the response event
        fires, ``on_results`` receives the same ordered
        :class:`~repro.runtime.pipelining.BatchResult` list the synchronous
        :meth:`invoke_remote_many` would have returned; a transport- or
        network-level failure of the whole message reaches ``on_error``
        instead.

        This is the completion-callback primitive under
        :class:`~repro.runtime.pipelining.PipelineScheduler`; application
        code normally uses the scheduler's future-based API rather than
        calling this directly.
        """

        self._ship_batch(calls, transport, on_results, on_error)

    def _ship_batch(
        self,
        calls: Sequence[BatchCall],
        transport: Optional[str],
        on_results: Any = None,
        on_error: Any = None,
    ) -> Optional[List[BatchResult]]:
        """Both ``invoke_remote_many`` forms: where a batch goes, then one exchange.

        An empty or co-located batch crosses no network; any other ships in
        a batch frame — inline without callbacks, posted with them.
        """
        # Uniform 5-tuples: the context is optional in a caller's tuple.
        normalized = [
            (reference, member, args, kwargs or {}, rest[0] if rest else None)
            for reference, member, args, kwargs, *rest in calls
        ]
        destinations = {call[0].node_id for call in normalized}
        if len(destinations) > 1:
            raise InvocationError(
                f"a batch must target one address space, got {sorted(destinations)}"
            )
        if destinations <= {self.node_id}:
            if on_results is None:
                return self._invoke_batch_locally(normalized)
            self.network.events.schedule(
                0.0, lambda: on_results(self._invoke_batch_locally(normalized))
            )
            return None
        (destination,) = destinations
        return self._exchange(normalized, destination, transport, True, on_results, on_error)

    def _invoke_batch_locally(self, calls: Sequence[tuple]) -> List[BatchResult]:
        mutated: set[str] = set()

        def serve() -> List[BatchResult]:
            results: list[BatchResult] = []
            scope = self._batch_scope
            for index, (reference, member, args, kwargs, _context) in enumerate(calls):
                try:
                    value = self._call_hosted(
                        reference.object_id, member, args, kwargs, mutated
                    )
                except Exception as error:  # noqa: BLE001 - per-call isolation
                    results.append(BatchResult(index=index, error=error))
                else:
                    results.append(BatchResult(index=index, value=value))
                if scope.joining is not None:
                    scope.hold(partial(_refuse_result, results[-1]))
            return results

        try:
            results = self._in_batch_scope(serve)
        finally:
            if mutated:
                # A co-located batch has no response message to piggyback on;
                # every subscriber (this node's own caches included) gets the
                # broadcast before the results reach the caller.
                self._broadcast_invalidations(mutated)
        return results

    # -- the one remote round trip: requests out, results back ---------------

    def _exchange(
        self,
        calls: Sequence[tuple],
        destination: str,
        transport: Optional[str],
        batch: bool,
        on_results: Any = None,
        on_error: Any = None,
    ) -> Union[BatchResult, List[BatchResult], None]:
        """Ship ``calls`` to ``destination`` in one frame; one result per call.

        Each call is ``(reference, member, args, kwargs, context)``.  ``batch``
        picks the framing — a single frame carries exactly one call, and its
        result comes back as that one :class:`BatchResult`, not in a list —
        and is the only thing a single call and a batch differ in on the way
        out and back.  Without callbacks the frame is sent inline and the
        results returned; with them it is posted and the outcome reaches
        ``on_results`` or ``on_error`` from the event queue.
        """
        payload = self._encode_calls(calls, transport, batch)
        count = len(calls)
        self.invocations_sent += count
        if batch:
            self.batches_sent += 1
        trace = None
        if self.network.tracer is not None:
            trace = trace_refs_from_contexts(call[4] for call in calls) or None
        if on_results is None:
            return self._decode_results(
                self.network.send_request(self.node_id, destination, payload, trace=trace),
                count,
                batch,
            )

        def complete(raw_response: bytes) -> None:
            try:
                results = self._decode_results(raw_response, count, batch)
            except Exception as error:  # noqa: BLE001 - routed to callback
                on_error(error)
                return
            on_results(results)

        self.network.post(
            self.node_id, destination, payload, complete, on_error, trace=trace
        )
        return None

    def _encode_calls(
        self, calls: Sequence[tuple], transport: Optional[str], batch: bool
    ) -> bytes:
        """Frame ``calls`` into one request message, charging encode cost.

        A function of its own so that the request dicts and the unframed body
        are gone before the round trip starts: held across it, a batch of
        large payloads would sit beside the serving side's copy at the peak.
        """
        codec, _batch, prefix = self.transports.framing(
            transport or self.default_transport, batch
        )
        if batch:
            body = codec.encode_batch_request([self._request(*call) for call in calls])
        else:
            body = codec.encode_request(self._request(*calls[0]))
        self.network.clock.advance(codec.processing_overhead)
        return prefix + body

    def _request(
        self, reference: RemoteRef, member: str, args: Sequence, kwargs: dict,
        context: Optional[dict],
    ) -> dict:
        """One call's request dict, its non-leaf arguments as :class:`Live` markers."""
        marshaller = self.marshaller
        return request_dict(
            reference, member,
            [item if type(item) in LEAVES else Live(item, marshaller) for item in args],
            {key: item if type(item) in LEAVES else Live(item, marshaller)
             for key, item in kwargs.items()} if kwargs else {},
            context,
        )

    def _decode_results(
        self, raw_response: bytes, expected: int, batch: bool
    ) -> Union[BatchResult, List[BatchResult]]:
        """Decode one framed response message into per-call results, charging decode cost.

        Piggybacked invalidations are delivered first — before the results
        are decoded, so reads in the same window re-fill with
        post-invalidation state — and a response in the other framing than
        the request's is refused.  The results are read live.
        """
        if raw_response[:1] == CONTROL_FRAME_BYTE:
            piggybacked, raw_response = split_invalidations(raw_response)
            if piggybacked:
                self._deliver_invalidations(piggybacked)
        (codec, response_is_batch, _prefix), body = self.transports.split_frame(raw_response)
        if response_is_batch != batch:
            raise TransportError(
                "batch response received for a single invocation"
                if response_is_batch
                else "single response received for a batched invocation"
            )
        self.network.clock.advance(codec.processing_overhead)
        if not batch:
            response = codec.decode_response(body, marshaller=self.marshaller)
            return BatchResult(0, *read_response(response))
        responses = codec.decode_batch_response(body, marshaller=self.marshaller)
        if len(responses) != expected:
            raise TransportError(
                f"batch response carries {len(responses)} results for {expected} calls"
            )
        return [
            BatchResult(index, *read_response(response))
            for index, response in enumerate(responses)
        ]

    # ------------------------------------------------------------------
    # Incoming invocations (the dispatcher side)
    # ------------------------------------------------------------------

    def _handle_message(self, source: str, payload: bytes) -> bytes:
        if payload[:1] == CONTROL_FRAME_BYTE:
            # No transport name starts with this byte, so an invocation
            # frame never pays for the control-frame tests.
            answer = self._handle_control(payload)
            if answer is not None:
                return answer
        # Mutations of subscribed objects collect per served message, so one
        # batch of writes coalesces into one invalidation round.
        outer_pending = self._pending_invalidations
        self._pending_invalidations = set()
        outer_refs = self._message_trace_refs
        self._message_trace_refs = []
        # A batch scope belongs to one message: a plain message served while
        # a batch call waits elsewhere must not join that batch's commits.
        outer_scope = self._batch_scope
        self._batch_scope = None
        try:
            (transport, is_batch, prefix), body = self.transports.split_frame(payload)
            # Every request is read — its arguments live — and checked before
            # the first one runs: a frame with a malformed call in it fails
            # whole, with nothing executed that a retry would execute again.
            if is_batch:
                self.batches_served += 1
                decoded = transport.decode_batch_request(body, marshaller=self.marshaller)
                requests = list(map(read_request, decoded))
                # The batch's commits (e.g. replication acknowledgements) run
                # before the response is framed, and may refuse its calls.
                responses = self._in_batch_scope(lambda: list(map(self._dispatch, requests)))
                framed = prefix + transport.encode_batch_response(responses)
            else:
                request = read_request(
                    transport.decode_request(body, marshaller=self.marshaller)
                )
                framed = prefix + transport.encode_response(self._dispatch(request))
        finally:
            self._batch_scope = outer_scope
            pending, self._pending_invalidations = (
                self._pending_invalidations,
                outer_pending,
            )
            self._message_trace_refs = outer_refs
        if pending:
            # Coherence guarantee: every subscriber's entries drop before the
            # write's response leaves this node.  The requesting client's own
            # invalidation rides the response itself (free), everyone else
            # pays one !inv frame per node.
            piggyback = self._broadcast_invalidations(pending, exclude=source)
            if piggyback:
                framed = attach_invalidations(framed, sorted(piggyback))
                self.invalidations_piggybacked += 1
        return framed

    def _handle_control(self, payload: bytes) -> Optional[bytes]:
        """Answer a heartbeat or cache-control frame; ``None`` for any other."""
        if is_ping(payload):
            # Liveness probes are answered before any transport decoding —
            # a node that can run its handler is alive, whatever protocols
            # it speaks.  They do not count as served invocations.
            self.pings_answered += 1
            return frame_pong(parse_heartbeat(payload))
        if is_subscription(payload):
            # Cache control frames bypass the codecs like heartbeats do.
            return self._handle_subscription(payload)
        if not is_invalidation(payload):
            return None
        object_ids, epoch = parse_invalidation_body(payload)
        if epoch is not None:
            # Epoch-stamped frames are fenced: an invalidation claiming
            # an epoch older than one already seen for the object came
            # from a superseded primary and must not flush (or, worse,
            # re-prime) the local caches.
            accepted = []
            for object_id in object_ids:
                floor = self._invalidation_epoch_floor.get(object_id, -1)
                if epoch < floor:
                    self.stale_invalidations_rejected += 1
                    continue
                self._invalidation_epoch_floor[object_id] = epoch
                accepted.append(object_id)
            object_ids = accepted
        self._deliver_invalidations(object_ids)
        return frame_invalidation_ack(len(object_ids))

    def _dispatch(self, request: RequestFields) -> dict:
        """Serve one checked request; the response dict, success or error."""
        _target, interface, member, _args, _kwargs, context = request
        self.invocations_served += 1
        for hook in self._dispatch_hooks:
            hook.before_dispatch(self)
        tracer = self.network.tracer
        span = None
        if tracer is not None and context and "x" in context:
            ref = (context["x"], context.get("p"))
            # Remember which traces this message carried: replication
            # forwards triggered by the call attribute their spans here.
            self._message_trace_refs.append(ref)
            span = tracer.start_span(
                f"{interface}.{member}",
                trace_id=ref[0],
                parent_id=ref[1],
                kind="server",
                ts=self.network.clock.now,
                node=self.node_id,
            )
        try:
            if self._middleware_chains:
                return self._dispatch_intercepted(request, span)
            response = self._serve_request(request)[0]
            scope = self._batch_scope
            if scope is not None and scope.joining is not None:
                scope.hold(partial(_refuse, response))
            return response
        finally:
            if span is not None:
                tracer.end_span(span, ts=self.network.clock.now)
            for hook in reversed(self._dispatch_hooks):
                hook.after_dispatch(self)

    def _dispatch_intercepted(self, request: RequestFields, span: Any = None) -> dict:
        """Serve one request inside every installed interceptor chain.

        Chains nest in installation order: the first installed chain's
        ``begin`` runs first and its ``end``/``abort`` runs last.  A
        ``begin`` rejection aborts the call before the target method runs
        and travels back as a typed error response; the chains already
        opened are failed in reverse so their brackets stay balanced.
        Batches need no special handling here — the serve loop dispatches
        each framed call individually, so N calls get N brackets.
        """
        _target, interface, member, args, kwargs, context = request
        ctx = CallContext.from_wire(
            context,
            service=interface,
            member=member,
            args=tuple(args),
            kwargs=dict(kwargs),
            clock=self.network.clock,
        )
        if span is not None:
            # Server-side interceptor spans nest under the dispatch span,
            # not under the remote client's span.
            ctx.trace = span
            ctx.tracer = self.network.tracer
        brackets = []
        for chain in list(self._middleware_chains):
            try:
                brackets.append(chain.open(ctx))
            except Exception as exc:  # noqa: BLE001 - typed rejection travels back
                for bracket in reversed(brackets):
                    bracket.fail(exc)
                return response_dict(error=exc)
        try:
            response, error = self._serve_request(request)
        except BaseException as exc:
            # Whatever escapes the call's own error handling, the opened
            # brackets must still settle exactly once.
            _settle(brackets, {}, exc)
            raise
        scope = self._batch_scope
        if scope is None or scope.joining is None:
            _settle(brackets, response, error)
            return response

        # The call joined a batch commit: its outcome, and so its brackets,
        # wait for that commit.
        def settle(refusal: Optional[BaseException]) -> None:
            _refuse(response, refusal)
            _settle(brackets, response, refusal or error)

        scope.hold(settle)
        return response

    def _serve_request(
        self, request: RequestFields
    ) -> tuple[dict, Optional[BaseException]]:
        """Execute one checked request against the local object table.

        Returns ``(response, error)`` where ``error`` is the exception
        instance the response describes (``None`` on success) — the
        middleware layer needs the live instance for its ``abort`` hooks,
        not just the marshalled error text.  The arguments arrived live.
        """
        target_id, _interface, member, args, kwargs, _context = request
        try:
            result = self._call_hosted(
                target_id, member, args, kwargs, self._pending_invalidations
            )
            # Application errors travel back, and so does a result that
            # cannot be marshalled.
            return response_dict(self.marshaller.to_wire(result)), None
        except Exception as exc:  # noqa: BLE001 - see above
            return response_dict(error=exc), exc

    @staticmethod
    def _state_snapshot(target: Any) -> Optional[Dict[str, Any]]:
        """A shallow copy of the real implementation's ``__dict__``.

        Wrappers (e.g. the replication layer's ``ReplicatedObject``) are
        unwrapped via ``_repro_cache_target`` so purity is judged on the
        application object itself.  ``None`` when the target keeps no
        instance dict (slots-only objects have nothing to compare).
        """
        real = getattr(target, "_repro_cache_target", target)
        try:
            return dict(vars(real))
        except TypeError:
            return None

    def _check_cacheable_purity(
        self, target: Any, member: str, before: Dict[str, Any]
    ) -> None:
        """Count (and warn once per class/member) a @cacheable mutation.

        Identity comparison only — no application ``__eq__`` runs, so the
        check can never raise out of the dispatch path.
        """
        real = getattr(target, "_repro_cache_target", target)
        try:
            after = vars(real)
        except TypeError:
            return
        if before.keys() == after.keys() and all(
            before[key] is after[key] for key in before
        ):
            return
        self.cacheable_violations += 1
        key = (type(real), member)
        if key not in self._cacheable_violations_warned:
            self._cacheable_violations_warned.add(key)
            warnings.warn(
                f"@cacheable member {type(real).__name__}.{member} mutated "
                "instance state during dispatch — cached results go stale "
                "with no invalidation ever broadcast (lint rule DS102)",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Detach this space from the network and drop its object table."""
        self.network.unregister(self.node_id)
        self._objects.clear()
        self._exported_refs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AddressSpace {self.node_id!r} objects={len(self._objects)}>"
