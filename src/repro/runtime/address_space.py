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
they host whatever objects the application exports into them.  They are
unaware of cache coherence too: each space's
:class:`~repro.runtime.caching.CoherenceEndpoint` holds it and answers the
``!sub`` and ``!inv`` frames, found by kind in one table (the space answers
``!ping`` itself).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._errors import InvocationError, TransportError, UnknownObjectError
from repro.core.interception import CallContext, Interceptor, InterceptorChain
from repro.network.simnet import SimulatedNetwork
from repro.observability.tracing import trace_refs_from_contexts
from repro.runtime.caching import CoherenceEndpoint
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
    PING_FRAME_PREFIX,
    Live,
    TransportRegistry,
    frame_pong,
    parse_heartbeat,
)

#: One call of a batch: (reference, member, positional args, keyword args),
#: optionally extended with a fifth element — the call's wire-context dict
#: (call id, tenant, deadline; see :class:`~repro.core.interception.CallContext`).
BatchCall = Tuple[RemoteRef, str, tuple, dict]


class _Scope:
    """What one served message, or one co-located batch, owes before it returns.

    ``commits`` maps the key of each commit a call joined
    (:meth:`AddressSpace.on_batch_commit`) to it, in first-join order —
    ``None`` when calls commit at once: a single-call message, or a scope
    that is settling; ``joining`` holds the keys the call being served
    joined, ``held`` the ``(keys, settle)`` of every call waiting for them.
    ``mutated`` collects the subscribed objects the calls wrote,
    ``trace_refs`` the ``(trace id, client span id)`` of the traced calls,
    and ``requester`` is the node whose invalidations ride the response.
    """

    __slots__ = ("requester", "commits", "joining", "held", "mutated", "trace_refs")

    def __init__(
        self, requester: Optional[str], batch: bool, trace_refs: List[Tuple[str, Optional[str]]]
    ) -> None:
        self.requester = requester
        self.commits: Optional[Dict[Any, Callable[[Any, bool], None]]] = {} if batch else None
        self.joining: Optional[List[Any]] = None
        self.held: List[Tuple[List[Any], Callable[[Optional[BaseException]], None]]] = []
        self.mutated: set[str] = set()
        self.trace_refs = trace_refs

    def hold(self, settle: Callable[[Optional[BaseException]], None]) -> None:
        """Hold the call just served; ``settle(refusal or None)`` after the commits."""
        self.held.append((self.joining, settle))
        self.joining = None

    def commit(self) -> None:
        """Run every commit once, then settle each held call; no call joins after.

        A commit refuses by raising: its error replaces the outcome of every
        call that joined it.
        """
        commits, self.commits = self.commits, None
        refusals: Dict[Any, BaseException] = {}
        for key, commit in commits.items():
            try:
                commit(key, True)
            except Exception as error:  # noqa: BLE001 - a commit refuses by raising
                refusals[key] = error
        for keys, settle in self.held:
            refusal = None
            if refusals:
                refusal = next((refusals[key] for key in keys if key in refusals), None)
            settle(refusal)


def _close(brackets: Sequence[Any], response: dict, error: Optional[BaseException]) -> None:
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
        #: Set by TransformedApplication.deploy; used to build proxies for
        #: references that arrive over the wire.
        self.application: Any = None
        #: The cluster's naming service, set by the cluster: every node reads
        #: the one forward table it keeps for retired references.
        self.naming: Any = None

        self._objects: Dict[str, Any] = {}
        self._exported_refs: Dict[int, RemoteRef] = {}
        self._allocator = ObjectIdAllocator(node_id)
        self._dispatch_hooks: list[Any] = []
        #: Server-side interceptor chains (see :meth:`use_middleware`),
        #: bracketing every dispatched request in installation order.
        self._middleware_chains: list[Any] = []
        #: The scope of the message (or co-located batch) being served.
        self._scope: Optional[_Scope] = None
        #: Cache coherence, server and client side (see repro.runtime.caching).
        self.coherence = CoherenceEndpoint(self)
        #: The handler of every control frame this space answers, by kind
        #: (the frame's bytes up to its first newline, that newline included).
        self._control_frames: Dict[bytes, Callable[[str, bytes], bytes]] = {
            PING_FRAME_PREFIX: self._answer_ping,
            **self.coherence.control_frames,
        }

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
        #: Standalone ``!inv`` frames this space has sent to subscribers
        #: (counted by :attr:`coherence`).
        self.invalidations_sent = 0
        #: Responses that left this space carrying piggybacked invalidations
        #: (counted by :attr:`coherence`).
        self.invalidations_piggybacked = 0

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
        self.coherence.forget(reference.object_id)

    def lookup_local_object(self, object_id: str) -> Any:
        try:
            return self._objects[object_id]
        except KeyError as exc:
            raise UnknownObjectError(
                f"object {object_id!r} is not exported by node {self.node_id!r}"
            ) from exc

    def _interface_of(self, object_id: str) -> str:
        """The interface ``object_id`` was exported under here (an id not exported names itself)."""
        if object_id not in self._objects:
            return object_id
        return self._exported_refs[id(self._objects[object_id])].interface_name

    def reference_for(self, implementation: Any) -> Optional[RemoteRef]:
        return self._exported_refs.get(id(implementation))

    def exported_objects(self) -> Dict[str, Any]:
        return dict(self._objects)

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
    # The served message's scope (commits that can refuse the calls that
    # joined them, the writes it owes invalidations for, its traces)
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
        scope = self._scope
        if scope is None or scope.commits is None:
            commit(key, False)
            return
        scope.commits.setdefault(key, commit)
        if scope.joining is None:
            scope.joining = [key]
        elif key not in scope.joining:
            scope.joining.append(key)

    def trace_refs(self) -> Sequence[Tuple[str, Optional[str]]]:
        """``(trace id, client span id)`` of the traced calls of the message served.

        Eager replication bills its forwards' spans to these; a co-located
        batch has those of the message it runs in.  Empty outside a message.
        """
        scope = self._scope
        return scope.trace_refs if scope is not None else ()

    def _settle(
        self,
        scope: _Scope,
        serve: Callable[[Any], Any],
        calls: Any,
        encode: Optional[Callable[[Any], bytes]] = None,
        prefix: bytes = b"",
    ) -> Any:
        """Run ``serve(calls)`` with ``scope`` current, then settle the scope.

        The one place the settle order lives: the commits the calls joined
        run once (the scope still current for their traces, but closed to
        joins) and settle the calls held for them; ``encode`` frames the
        outcome, behind ``prefix``, as a served message's response (a
        co-located batch returns it as it is); the writes' invalidations go
        out, the requester's own riding that response; then it returns.
        """
        outer, self._scope = self._scope, scope
        try:
            try:
                outcome = serve(calls)
            finally:
                if scope.commits:
                    scope.commit()
        finally:
            self._scope = outer
        if encode is not None:
            outcome = prefix + encode(outcome)
        if scope.mutated:
            outcome = self.coherence.settle(scope.mutated, scope.requester, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Hosted objects (where every call, local or served, ends)
    # ------------------------------------------------------------------

    def _call_hosted(
        self, object_id: str, member: str, args: Sequence, kwargs: dict, mutated: set
    ) -> Any:
        """Call ``member`` of the object exported here as ``object_id``.

        The one place a member is looked up on a hosted object and run,
        through the coherence endpoint: a write to an object with cache
        subscribers adds its id to ``mutated``.  The co-located
        short-circuit broadcasts them before it returns; a served message
        or a co-located batch when its scope settles.
        """
        target = self.lookup_local_object(object_id)
        try:
            method = getattr(target, member)
        except AttributeError:
            raise InvocationError(
                f"object {object_id!r} has no member {member!r}"
            ) from None
        return self.coherence.call(object_id, target, member, method, args, kwargs, mutated)

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
                    self.coherence.settle(mutated)
        return self._exchange(
            [(reference, member, args, kwargs, context)], reference.node_id, transport, False
        ).unwrap()

    def invoke_remote_result(
        self,
        reference: RemoteRef,
        member: str,
        args: tuple,
        kwargs: dict,
        transport: Optional[str] = None,
        context: Optional[dict] = None,
    ) -> BatchResult:
        """:meth:`invoke_remote`'s outcome as its one :class:`BatchResult`.

        The call's own error — raised by the object, here or remote — lands
        in the result, as it does in a batch's slot; an error before the
        frame is sent (unknown transport, an argument that cannot be
        marshalled) or on the way raises, as it does from a batch.
        """
        if reference.located_on(self.node_id):
            try:
                return BatchResult(
                    0, self.invoke_remote(reference, member, args, kwargs, transport, context))
            except Exception as error:  # noqa: BLE001 - the call's own error is its slot's
                return BatchResult(0, error=error)
        return self._exchange(
            [(reference, member, args, kwargs, context)], reference.node_id, transport, False
        )

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
        """Serve a co-located batch in its own scope; with no response to
        piggyback on, every subscriber gets a frame before the results return."""
        outer = self._scope
        scope = _Scope(None, True, outer.trace_refs if outer is not None else [])
        return self._settle(scope, self._serve_locally, calls)

    def _serve_locally(self, calls: Sequence[tuple]) -> List[BatchResult]:
        """Run a co-located batch's calls in order, each error isolated in its result."""
        scope = self._scope
        results: List[BatchResult] = []
        for index, (reference, member, args, kwargs, _context) in enumerate(calls):
            try:
                value = self._call_hosted(reference.object_id, member, args, kwargs, scope.mutated)
            except Exception as error:  # noqa: BLE001 - per-call isolation
                results.append(BatchResult(index, error=error))
            else:
                results.append(BatchResult(index, value))
            if scope.joining is not None:
                scope.hold(partial(_refuse_result, results[-1]))
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
            raw_response = self.coherence.split_response(raw_response)
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
        """Serve one delivered frame: a control frame by its kind, any other as calls."""
        if payload[:1] == CONTROL_FRAME_BYTE:
            # No transport name starts with this byte, so an invocation frame
            # never pays for the lookup; a frame of no known kind is read as
            # an invocation (and refused as one).
            answer = self._control_frames.get(payload[: payload.find(b"\n") + 1])
            if answer is not None:
                return answer(source, payload)
        (transport, is_batch, prefix), body = self.transports.split_frame(payload)
        # Every request is read — its arguments live — and checked before the
        # first one runs: a frame with a malformed call in it fails whole, with
        # nothing executed that a retry would execute again.
        if is_batch:
            self.batches_served += 1
            decoded = transport.decode_batch_request(body, marshaller=self.marshaller)
            requests = list(map(read_request, decoded, repeat(self.node_id)))
            serve, encode = self._dispatch_all, transport.encode_batch_response
        else:
            requests = read_request(
                transport.decode_request(body, marshaller=self.marshaller), self.node_id)
            serve, encode = self._dispatch, transport.encode_response
        return self._settle(_Scope(source, is_batch, []), serve, requests, encode, prefix)

    def _answer_ping(self, _source: str, payload: bytes) -> bytes:
        """Answer a heartbeat probe, echoing its sequence.

        Every node answers, watched by a detector or not, before any
        transport decoding — a node that can run its handler is alive,
        whatever protocols it speaks.  Probes are not served invocations.
        """
        self.pings_answered += 1
        return frame_pong(parse_heartbeat(payload))

    def _dispatch_all(self, requests: List[RequestFields]) -> List[dict]:
        """Serve a batch's checked requests in order; their response dicts."""
        return list(map(self._dispatch, requests))

    def _dispatch(self, request: RequestFields) -> dict:
        """Serve one checked request; the response dict, success or error."""
        target, member, _args, _kwargs, context = request
        self.invocations_served += 1
        for hook in self._dispatch_hooks:
            hook.before_dispatch(self)
        scope = self._scope
        tracer = self.network.tracer
        span = None
        if tracer is not None and context and "x" in context:
            ref = (context["x"], context.get("p"))
            # Remember which traces this message carried: replication
            # forwards triggered by the call attribute their spans here.
            scope.trace_refs.append(ref)
            span = tracer.start_span(
                f"{self._interface_of(target)}.{member}", trace_id=ref[0], parent_id=ref[1],
                kind="server", ts=self.network.clock.now, node=self.node_id,
            )
        try:
            if self._middleware_chains:
                return self._dispatch_intercepted(request, scope, span)
            response = self._serve_request(request, scope.mutated)[0]
            if scope.joining is not None:
                scope.hold(partial(_refuse, response))
            return response
        finally:
            if span is not None:
                tracer.end_span(span, ts=self.network.clock.now)
            for hook in reversed(self._dispatch_hooks):
                hook.after_dispatch(self)

    def _dispatch_intercepted(
        self, request: RequestFields, scope: _Scope, span: Any = None
    ) -> dict:
        """Serve one request inside every installed interceptor chain.

        Chains nest in installation order: the first installed chain's
        ``begin`` runs first and its ``end``/``abort`` runs last.  A
        ``begin`` rejection aborts the call before the target method runs
        and travels back as a typed error response; the chains already
        opened are failed in reverse so their brackets stay balanced.
        Batches need no special handling here — the serve loop dispatches
        each framed call individually, so N calls get N brackets.
        """
        target, member, args, kwargs, context = request
        ctx = CallContext.from_wire(
            context, service=self._interface_of(target), member=member, args=tuple(args),
            kwargs=dict(kwargs), clock=self.network.clock,
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
            response, error = self._serve_request(request, scope.mutated)
        except BaseException as exc:
            # Whatever escapes the call's own error handling, the opened
            # brackets must still settle exactly once.
            _close(brackets, {}, exc)
            raise
        if scope.joining is None:
            _close(brackets, response, error)
            return response

        # The call joined a batch commit: its outcome, and so its brackets,
        # wait for that commit.
        def settle(refusal: Optional[BaseException]) -> None:
            _refuse(response, refusal)
            _close(brackets, response, refusal or error)

        scope.hold(settle)
        return response

    def _serve_request(
        self, request: RequestFields, mutated: set
    ) -> tuple[dict, Optional[BaseException]]:
        """Execute one checked request against the local object table.

        Returns ``(response, error)`` where ``error`` is the exception
        instance the response describes (``None`` on success) — the
        middleware layer needs the live instance for its ``abort`` hooks,
        not just the marshalled error text.  The arguments arrived live.
        """
        target_id, member, args, kwargs, _context = request
        try:
            result = self._call_hosted(target_id, member, args, kwargs, mutated)
            # Application errors travel back, and so does a result that
            # cannot be marshalled.
            return response_dict(self.marshaller.to_wire(result)), None
        except Exception as exc:  # noqa: BLE001 - see above
            return response_dict(error=exc), exc

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AddressSpace {self.node_id!r} objects={len(self._objects)}>"
