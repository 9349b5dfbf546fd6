"""Coherent client-side result caching: leases with write-invalidation.

Every read used to pay a full round trip even though read-mostly services are
the canonical middleware hot path.  This module closes that gap: a
:class:`CacheManager` interposes on remote invocations and serves repeated
calls to :func:`~repro.core.interfaces.cacheable` (side-effect-free) members
from a per-client :class:`ResultCache`, kept coherent by one protocol —
**time-bounded leases** plus **write-invalidation frames**:

* On a cache fill the client *subscribes* to the owning address space (a
  ``!sub`` control frame, see :mod:`repro.transports.base`) for the policy's
  lease.  Subscribing happens *before* the read ships, so no write can slip
  into the gap unnoticed.
* When any client invokes a mutating member, the owning address space's
  :class:`CoherenceEndpoint` sends a ``!inv`` frame to every live
  subscriber **before the write is acknowledged** — and piggybacks the
  invalidation on the (batch) response when the writer is itself a
  subscriber.  A delivered invalidation ends the subscription; the next
  fill subscribes again.
* Every invalidation bumps a per-object *version*; a fill records the
  version it started from and is discarded if an invalidation arrived while
  its read was in flight.  This closes the read/write race: a response
  computed before a write can never resurrect stale data after it.
* The lease bounds staleness when an invalidation cannot be delivered: an
  entry older than ``lease_ms`` of simulated time is a miss, and a write
  whose ``!inv`` is lost waits the subscriber's lease out before it is
  acknowledged, so the unreachable cache's entries have expired by then.
  The server prunes expired subscriptions instead of invalidating them.

**A hit** is one :meth:`ResultCache.lookup`: build the key, check that no
write of this client to the object is unsettled (a membership test — each
write leaves the pending map from its future's done-callback), take the
entry, compare its expiry with the simulated clock and re-insert it at the
back of the LRU order.  No message, no simulated time, no future for a plain
call: 8 Python calls from the attribute call down, about 1.8 µs on a 2 GHz
Xeon with CPython 3.11 (``runtime.cache_hit_ns`` of the wall-clock ledger,
``make micro``).  Misses and writes go through :func:`cached_enqueue`; a
miss hands its key to the fill.

**Keys carry exact types.**  Calls whose positional arguments are all leaves
(``None``, ``bool``, ``int``, ``float``, ``str``) and that pass no keyword
arguments are keyed by ``(object id, member, args, types of args)``; any
other call by :func:`freeze_arguments`, which tags every level — list,
tuple, dict, set and leaf — with its type and keeps a dict's item order.
``f(1)``, ``f(True)`` and ``f(1.0)``, ``f([1, 2])`` and ``f((1, 2))``, or
``f({"a": 1, "b": 2})`` and ``f({"b": 2, "a": 1})``, are different calls on
the wire and never share an entry.

**Container results are copied.**  An entry keeps its own copy of a dict,
list, tuple or set result, and every hit returns a fresh copy of those
containers, so a caller mutating what it got cannot change what the next
caller reads.  Leaves, bytes, proxies and references are shared, so a leaf
result costs no copy.

**Two ends.**  The client end is a :class:`CacheManager` per caching
session with its :class:`ResultCache` objects.  Every
:class:`~repro.runtime.address_space.AddressSpace` has the other end, one
:class:`CoherenceEndpoint` (``space.coherence``) holding the server side's
subscriber table, declared-cacheable sets and ``@cacheable`` purity check,
the client side's invalidation listeners and epoch floors, and the
handlers of the ``!sub`` and ``!inv`` frames; the space reaches it through
a few calls and never frames or parses a coherence frame itself.

The façade consumes this module through
:class:`~repro.api.policy.ServicePolicy`'s ``cache`` field — a transformed
object's handle included, once a session has adopted it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._errors import NetworkError, PolicyError, TransportError, UnknownObjectError
from repro.core.interfaces import cacheable_members
from repro.runtime.pipelining import InvocationFuture
from repro.runtime.remote_ref import RemoteRef
from repro.transports.base import (
    INV_FRAME_PREFIX,
    LEAVES,
    SUB_FRAME_PREFIX,
    attach_invalidations,
    frame_invalidation,
    frame_invalidation_ack,
    frame_subscription,
    frame_subscription_ack,
    parse_invalidation_body,
    parse_subscription,
    split_invalidations,
)


@dataclass(frozen=True)
class CachePolicy:
    """Declarative knobs of one service's client-side result cache.

    An immutable value object carried by
    :class:`~repro.api.policy.ServicePolicy` (``cache=``): ``max_entries``
    bounds the cache's size (LRU eviction), ``lease_ms`` bounds an entry's
    lifetime and its subscription in *simulated* milliseconds, and ``mode``
    names the coherence protocol, whose one value is ``"leases"``.
    ``cacheable`` names members that are safe to cache in addition to any
    :func:`~repro.core.interfaces.cacheable`-decorated members of the
    implementation class — useful when attaching to a service deployed by
    another party, where the implementation class is not at hand.
    """

    #: Maximum entries held; least-recently-used entries are evicted beyond.
    max_entries: int = 256
    #: Entry and subscription lifetime in simulated milliseconds.
    lease_ms: float = 50.0
    #: The coherence protocol; ``"leases"`` is the only one.
    mode: str = "leases"
    #: Explicitly cacheable member names (unioned with ``@cacheable`` markers).
    cacheable: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise PolicyError("max_entries must be at least 1")
        if self.lease_ms <= 0:
            raise PolicyError("lease_ms must be positive")
        if self.mode != "leases":
            raise PolicyError(
                f"unknown cache mode {self.mode!r} (leases is the only coherence protocol)"
            )
        if not isinstance(self.cacheable, tuple):
            object.__setattr__(self, "cacheable", tuple(self.cacheable))

    @property
    def lease_seconds(self) -> float:
        """The lease converted to the simulated clock's seconds."""
        return self.lease_ms / 1000.0


def _freeze(value: Any) -> Any:
    """``value`` as a hashable key part tagged with its exact type at every level."""
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_freeze, value))
    if isinstance(value, dict):
        # In insertion order: the wire writes a map's items in that order.
        return type(value), tuple((_freeze(key), _freeze(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return type(value), frozenset(map(_freeze, value))
    hash(value)
    return type(value), value


def freeze_arguments(args: tuple, kwargs: dict) -> Any:
    """Canonicalize call arguments into a hashable cache-key component.

    Lists, tuples, dicts and sets are frozen recursively and every value
    keeps its exact type (a dict also its item order), so arguments the wire
    keeps apart (``1`` and ``True``, ``[1]`` and ``(1,)``, ``{"a": 1, "b":
    2}`` and ``{"b": 2, "a": 1}``) never share an entry; unhashable values
    that remain raise ``TypeError``.
    """
    return _freeze(args), _freeze(kwargs)


def _key(object_id: str, member: str, args: tuple, kwargs: dict) -> Optional[tuple]:
    """The entry key of one call (``None`` when its arguments cannot be hashed)."""
    if not kwargs:
        kinds = tuple(map(type, args))
        if LEAVES.issuperset(kinds):
            return object_id, member, args, kinds
    try:
        return object_id, member, freeze_arguments(args, kwargs)
    except TypeError:
        return None


_CONTAINERS = frozenset((dict, list, tuple, set))


def _copied(value: Any) -> Any:
    """``value`` with its dicts, lists, tuples and sets rebuilt; anything else shared."""
    kind = type(value)
    if kind is dict:
        return {key: _copied(item) for key, item in value.items()}
    if kind in _CONTAINERS:
        return kind(map(_copied, value))
    return value


@dataclass(frozen=True)
class FillToken:
    """The validity snapshot a cache fill captures before its read ships.

    ``version`` is the target object's invalidation version at fill start;
    :meth:`ResultCache.store` rejects the fill when the version moved while
    the read was in flight (a write raced it).  ``expires_at`` is the lease
    deadline measured from fill *start*, so an entry can never outlive the
    subscription that guards it.  ``key`` is the entry key the missed
    lookup computed (``None``: :meth:`ResultCache.store` derives it).
    """

    object_id: str
    version: int
    expires_at: float
    key: Optional[tuple]


class ResultCache:
    """One service's client-side result cache (keyed by member + arguments).

    Built by :meth:`CacheManager.create_cache`; the manager routes incoming
    invalidations into every cache it created.  Entries are keyed by object
    id, member and typed arguments (see the module docstring); an
    invalidation drops every entry of the named object.  All counters
    (``hits``, ``misses``, ...) are exposed for benchmarks.
    """

    def __init__(
        self,
        manager: "CacheManager",
        policy: CachePolicy,
        cacheable: frozenset = frozenset(),
    ) -> None:
        self.manager = manager
        self.policy = policy
        #: Member names this cache may serve (union of implementation
        #: ``@cacheable`` markers and the policy's explicit list).
        self.cacheable = frozenset(cacheable) | frozenset(policy.cacheable)
        self._network = manager.space.network
        self._clock = self._network.clock
        #: key → ``(value, simulated expiry)``, least recently used first.
        self._entries: Dict[tuple, tuple] = {}
        self._by_object: Dict[str, set] = {}
        #: object id → this client's unsettled writes to it.
        self._pending_writes: Dict[str, set] = {}
        #: Lookups served locally (no round trip).
        self.hits = 0
        #: Lookups that had to go to the network.
        self.misses = 0
        #: Entries stored (successful fills).
        self.stores = 0
        #: Fills discarded because an invalidation raced the read.
        self.racy_fills_discarded = 0
        #: Entries dropped by incoming invalidations.
        self.entries_invalidated = 0
        #: Lookups refused because an own write was still unresolved.
        self.write_bypasses = 0
        #: Entries dropped because their lease expired.
        self.entries_expired = 0

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------

    def lookup(self, reference: RemoteRef, member: str, args: tuple, kwargs: dict):
        """Serve one call locally if possible; returns ``(hit, value)``.

        Misses when the member is not cacheable, the arguments are not
        hashable, the entry is absent or lease-expired, or a write through
        this client is still unresolved (serving a pre-write value while the
        write is in flight would violate program order).  On a miss of a
        cacheable member ``value`` is the call's entry key, for
        :meth:`begin_fill`.  Hits and misses are traced as instants.
        """
        if member not in self.cacheable:
            return False, None
        object_id = reference.object_id
        key = _key(object_id, member, args, kwargs)
        entry = None
        if object_id in self._pending_writes:
            self.write_bypasses += 1
        else:
            entry = self._entries.pop(key, None)
        tracer = self._network.tracer
        if entry is not None:
            value, expires_at = entry
            if self._clock.now < expires_at:
                # LRU touch: re-insert at the back of the (ordered) dict.
                self._entries[key] = entry
                self.hits += 1
                if tracer is not None:
                    # The hit never reaches the dispatch pipe, so no trace is
                    # sampled for it — a global instant is the only record.
                    tracer.instant("cache-hit", ts=self._clock.now, member=member,
                                   object=object_id)
                return True, _copied(value) if type(value) in _CONTAINERS else value
            self._discard(key)
            self.entries_expired += 1
        self.misses += 1
        if tracer is not None:
            tracer.instant("cache-miss", ts=self._clock.now, member=member, object=object_id)
        return False, key

    def begin_fill(self, reference: RemoteRef, key: Optional[tuple] = None) -> FillToken:
        """Snapshot validity for one miss about to go to the network.

        Subscribing happens here — *before* the read ships — so any write
        the read races is guaranteed to either be observed by the read or to
        bump the version and void the fill.  ``key`` is the missed
        :meth:`lookup`'s, carried to :meth:`store` on the token; a fill
        begun without one has :meth:`store` derive it from the arguments.
        """
        lease = self.policy.lease_seconds
        expires_at = self.manager.now() + lease
        version = self.manager.version(reference.object_id)
        subscribed_until = self.manager.subscribe(
            reference, lease, cacheable=self.policy.cacheable
        )
        if subscribed_until is None:
            # No subscription, no coherence guarantee: poison the token so
            # this fill is never stored (the read itself still runs — and
            # typically rides a failover to a re-keyed export).
            version = -1
        else:
            # An entry must never outlive the subscription guarding it: a
            # reused (earlier) subscription shortens the entry, it does not
            # stretch the lease.
            expires_at = min(expires_at, subscribed_until)
        return FillToken(
            object_id=reference.object_id,
            version=version,
            expires_at=expires_at,
            key=key,
        )

    def store(
        self,
        reference: RemoteRef,
        member: str,
        args: tuple,
        kwargs: dict,
        value: Any,
        token: FillToken,
    ) -> bool:
        """Insert one filled result, unless an invalidation raced its read.

        The entry keeps its own copy of a container result, so a caller
        mutating the value it got back cannot change later hits.
        """
        if member not in self.cacheable:
            return False
        object_id = reference.object_id
        if token.object_id != object_id or token.version != self.manager.version(
            object_id
        ):
            self.racy_fills_discarded += 1
            return False
        if self._clock.now >= token.expires_at:
            return False
        key = token.key if token.key is not None else _key(object_id, member, args, kwargs)
        if key is None:
            return False
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = (_copied(value), token.expires_at)
        self._by_object.setdefault(object_id, set()).add(key)
        self.stores += 1
        while len(self._entries) > self.policy.max_entries:
            oldest = next(iter(self._entries))
            self._discard(oldest)
        return True

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

    def note_write(self, reference: RemoteRef, future: Any = None) -> None:
        """React to a (possibly still buffered) write through this client.

        The object's entries drop and its version bumps immediately — a
        pre-write value must not survive, and in-flight fills must be
        voided.  When the write's ``future`` is supplied, cacheable lookups
        on the object additionally *bypass* the cache until it resolves, so
        a read enqueued after an unflushed write never observes the
        pre-write state out of order.
        """
        object_id = reference.object_id
        self.manager.bump_version(object_id)
        if future is not None and not future.done:
            self._pending_writes.setdefault(object_id, set()).add(future)
            future.add_done_callback(lambda done: self._write_settled(object_id, done))

    def _write_settled(self, object_id: str, future: Any) -> None:
        pending = self._pending_writes.get(object_id, set())
        pending.discard(future)
        if not pending:
            self._pending_writes.pop(object_id, None)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate_object(self, object_id: str) -> None:
        """Drop every entry of one object, counting them in ``entries_invalidated``."""
        for key in self._by_object.pop(object_id, ()):
            if self._entries.pop(key, None) is not None:
                self.entries_invalidated += 1

    def clear(self) -> None:
        """Drop everything (counters are kept)."""
        self._entries.clear()
        self._by_object.clear()

    def _discard(self, key: tuple) -> None:
        self._entries.pop(key, None)
        keys = self._by_object.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_object[key[0]]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache entries={len(self._entries)} hits={self.hits} "
            f"misses={self.misses} lease_ms={self.policy.lease_ms!r}>"
        )


def cached_enqueue(
    cache: "ResultCache",
    reference: RemoteRef,
    member: str,
    args: tuple,
    kwargs: dict,
    enqueue: Any,
    key: Optional[tuple],
) -> InvocationFuture:
    """Dispatch one call of a cached service that its cache did not serve.

    Every call form of the façade (:meth:`repro.api.service.Service.call`,
    ``.future`` and an adopted handle's calls) first asks
    :meth:`ResultCache.lookup`, which answers a hit on the spot; everything
    else funnels through this one function, so the coherence-critical
    sequence lives in exactly one place: a cacheable **miss** (``key`` is the
    lookup's) snapshots a fill token (subscribing *before* the read ships)
    and stores the result only if no invalidation raced it; a
    **non-cacheable** call counts as a write — it drops the cache's entries
    for the object and bypasses lookups until its future resolves.
    ``enqueue(member, args, kwargs)`` performs the actual dispatch and must
    return an :class:`~repro.runtime.pipelining.InvocationFuture`.
    """
    if member in cache.cacheable:
        token = cache.begin_fill(reference, key)
        future = enqueue(member, args, kwargs)

        def fill(done: InvocationFuture) -> None:
            if done.ok:
                cache.store(reference, member, args, kwargs, done.result(), token)

        future.add_done_callback(fill)
        return future
    future = enqueue(member, args, kwargs)
    cache.note_write(reference, future)
    return future


class CacheManager:
    """The per-client cache control plane: one per caching address space.

    The manager owns the pieces every cache on one client shares: the
    invalidation listener registered with the client space's
    :class:`CoherenceEndpoint` (standalone ``!inv`` frames and response
    piggybacks both arrive there), the per-object
    invalidation *versions* that void racy fills, and the subscription
    bookkeeping that keeps ``!sub`` traffic down to one message per object
    per lease window.  :class:`~repro.api.session.Session` creates one
    lazily when the first cached service appears and closes it on teardown.
    """

    def __init__(self, space: Any) -> None:
        self.space = space
        self._caches: List[ResultCache] = []
        self._versions: Dict[str, int] = {}
        #: Active subscriptions: object id → simulated expiry.
        self._subscriptions: Dict[str, float] = {}
        #: Standalone + piggybacked invalidation frames applied.
        self.invalidations_received = 0
        #: Subscription frames actually sent (renewals included).
        self.subscriptions_sent = 0
        self._closed = False
        space.coherence.listeners.append(self._on_invalidation)

    # ------------------------------------------------------------------
    # cache creation / lifecycle
    # ------------------------------------------------------------------

    def create_cache(
        self, policy: CachePolicy, cacheable: frozenset = frozenset()
    ) -> ResultCache:
        """Build one service's :class:`ResultCache` under this manager."""
        cache = ResultCache(self, policy, cacheable)
        self._caches.append(cache)
        return cache

    def close(self) -> None:
        """Detach from the address space and drop every cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.space.coherence.listeners.remove(self._on_invalidation)
        for cache in self._caches:
            cache.clear()
        self._subscriptions.clear()

    # ------------------------------------------------------------------
    # shared coherence state
    # ------------------------------------------------------------------

    def now(self) -> float:
        """The simulated clock the leases are measured against."""
        return self.space.network.clock.now

    def version(self, object_id: str) -> int:
        """The object's invalidation version (bumped on every invalidation)."""
        return self._versions.get(object_id, 0)

    def bump_version(self, object_id: str) -> int:
        """Advance the object's version and drop its entries everywhere."""
        self._versions[object_id] = self._versions.get(object_id, 0) + 1
        for cache in self._caches:
            cache.invalidate_object(object_id)
        return self._versions[object_id]

    def subscribe(
        self, reference: RemoteRef, lease: float, cacheable: tuple = ()
    ) -> Optional[float]:
        """Ensure a live subscription for ``reference`` lasting ``lease`` seconds.

        Returns the active subscription's expiry in simulated time — fills
        clamp their entries to it — or ``None`` when the owner is
        unreachable (mid-failover), in which case the caller must not cache
        its fill.  A subscription still
        covering at least half the lease is reused rather than renewed, so
        a burst of misses on one object pays one ``!sub`` frame, not one
        per miss.  The server answers invalidations by *dropping* the
        subscription, and :meth:`_on_invalidation` mirrors that here — the
        next fill re-subscribes.  ``cacheable`` carries the policy's
        explicitly-declared side-effect-free members for the server to
        honour (see :func:`~repro.transports.base.frame_subscription`).
        """
        object_id = reference.object_id
        now = self.now()
        current = self._subscriptions.get(object_id)
        if current is not None and current - now >= lease / 2:
            return current
        payload = frame_subscription(object_id, self.space.node_id, lease, cacheable=cacheable)
        try:
            self.space.network.send_request(
                self.space.node_id, reference.node_id, payload
            )
        except NetworkError:
            return None
        expiry = now + lease
        self._subscriptions[object_id] = expiry
        self.subscriptions_sent += 1
        return expiry

    def flush_reference(self, reference: RemoteRef) -> None:
        """Drop every cached entry and the subscription held against ``reference``.

        Called by the session when a service's name is rebound (failover,
        migration): leases held against a retired export are flushed rather
        than left to expire.  The version bump that drops the entries also
        voids a fill already in flight against the old reference at
        :meth:`ResultCache.store` time — without it that fill would re-prime
        the cache with a pre-rebind value right after the flush.
        """
        self._subscriptions.pop(reference.object_id, None)
        self.bump_version(reference.object_id)

    def _on_invalidation(self, object_ids: List[str]) -> None:
        """The address space's listener: apply one ``!inv`` frame."""
        tracer = getattr(self.space.network, "tracer", None)
        for object_id in object_ids:
            self.invalidations_received += 1
            self._subscriptions.pop(object_id, None)
            self.bump_version(object_id)
            if tracer is not None:
                tracer.instant(
                    "cache-inv", ts=self.now(), object=object_id, node=self.space.node_id
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CacheManager node={self.space.node_id!r} caches={len(self._caches)}>"


class CoherenceEndpoint:
    """One address space's end of cache coherence, server side and client side.

    Every :class:`~repro.runtime.address_space.AddressSpace` builds one, as
    ``space.coherence``, and reaches coherence only through it: :meth:`call`
    around every hosted call, :meth:`settle` when a message settles,
    :meth:`forget` on ``unexport``, :meth:`split_response` for a response
    that starts with ``!``, and ``control_frames``, its handlers of the
    ``!sub`` and ``!inv`` frames by kind.  The server side keeps the
    ``subscribers`` table (object id → {node → lease expiry in simulated
    seconds}), the members clients declared cacheable and the ``@cacheable``
    purity check; the client side keeps the invalidation ``listeners`` and
    the epoch floors.  The space's ``invalidations_sent`` and
    ``invalidations_piggybacked`` are counted here.
    """

    def __init__(self, space: Any) -> None:
        self._space = space
        self._clock = space.network.clock
        #: Object id → {node → lease expiry}: who to invalidate on a write.
        self.subscribers: Dict[str, Dict[str, float]] = {}
        #: Client-declared cacheable members per object id (from ``!sub``
        #: frames), honoured in addition to the ``@cacheable`` markers.
        self._declared: Dict[str, set] = {}
        #: Cacheable-member sets memoized per implementation type.
        self._cacheable_sets: Dict[type, frozenset] = {}
        #: ``listener(object_ids)`` of every invalidation reaching the space,
        #: standalone or piggybacked (a :class:`CacheManager` adds one).
        self.listeners: List[Callable[[List[str]], None]] = []
        #: Highest replication epoch seen per object id on ``!inv`` frames.
        self._epoch_floor: Dict[str, int] = {}
        #: Invalidation deliveries applied at this space (as a client).
        self.invalidations_received = 0
        #: Epoch-stamped ``!inv`` frames rejected for claiming an epoch older
        #: than one already seen for the object (fenced ex-primary traffic).
        self.stale_invalidations_rejected = 0
        #: Hosted ``@cacheable`` calls that rebound their target's state —
        #: the runtime complement of lint rule DS102.  A shallow ``__dict__``
        #: snapshot is compared by identity, so rebinding is caught but
        #: in-place container mutation is not; the static rule covers that.
        self.cacheable_violations = 0
        self._violations_warned: set = set()
        self.control_frames = {
            SUB_FRAME_PREFIX: self._on_subscription,
            INV_FRAME_PREFIX: self._on_invalidation,
        }

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def call(
        self, object_id: str, target: Any, member: str, method: Callable,
        args: Sequence, kwargs: dict, mutated: set,
    ) -> Any:
        """Run ``method``, the hosted ``target``'s ``member``, watched for coherence.

        A member not cacheable by marker or by a subscriber's declaration is
        a write: if the object has subscribers its id joins ``mutated``
        *before* execution, since a write that raises may have mutated
        anyway.  Wrappers (the replication layer's ``ReplicatedObject``)
        expose the real implementation as ``_repro_cache_target``.
        """
        real = getattr(target, "_repro_cache_target", target)
        cacheable = self._cacheable_sets.get(type(real))
        if cacheable is None:
            cacheable = self._cacheable_sets[type(real)] = cacheable_members(type(real))
        if member not in cacheable:
            if object_id in self.subscribers:
                declared = self._declared.get(object_id)
                if declared is None or member not in declared:
                    mutated.add(object_id)
            return method(*args, **kwargs)
        try:
            before = dict(vars(real))
        except TypeError:  # no instance dict: nothing to compare
            before = None
        try:
            return method(*args, **kwargs)
        finally:
            # Checked on the error path too: a @cacheable member that
            # mutated and *then* raised still poisoned the caches.
            if before is not None:
                self._check_purity(real, member, before)

    def _check_purity(self, real: Any, member: str, before: Dict[str, Any]) -> None:
        """Count, and warn once per class and member, a ``@cacheable`` mutation.

        Identity comparison only: no application ``__eq__`` runs, so the
        check can never raise out of the dispatch path.
        """
        after = vars(real)
        if before.keys() == after.keys() and all(before[key] is after[key] for key in before):
            return
        self.cacheable_violations += 1
        key = (type(real), member)
        if key not in self._violations_warned:
            self._violations_warned.add(key)
            warnings.warn(
                f"@cacheable member {type(real).__name__}.{member} mutated "
                "instance state during dispatch — cached results go stale "
                "with no invalidation ever broadcast (lint rule DS102)",
                RuntimeWarning,
                stacklevel=2,
            )

    def settle(self, mutated: set, requester: Optional[str] = None, response: Any = None) -> Any:
        """Invalidate every live subscriber of the ``mutated`` ids — now.

        One ``!inv`` frame per subscriber node (ids coalesced), paid *before*
        the writes' response leaves; expired leases are pruned, delivered
        subscriptions dropped (one-shot).  The subscriptions of
        ``requester``, the node ``response`` goes back to, ride that framed
        response instead, which is returned with them attached; without a
        requester (a co-located call or batch) ``response`` comes back
        untouched.  An undeliverable invalidation falls back to the lease:
        the write stalls until the lost subscriber's lease has run out, so
        the unreachable cache's entries have expired by its acknowledgement.
        """
        clock = self._clock
        # node → [ids to invalidate, latest lease expiry among them]
        per_node: Dict[str, list] = {}
        piggyback: List[str] = []
        for object_id in mutated:
            for node, expiry in self.subscribers.pop(object_id, {}).items():
                if expiry <= clock.now:
                    continue
                if node == requester:
                    piggyback.append(object_id)
                    continue
                pending = per_node.setdefault(node, [[], expiry])
                pending[0].append(object_id)
                pending[1] = max(pending[1], expiry)
        for node in sorted(per_node):
            ids, latest = per_node[node]
            if not self._send(node, ids) and latest > clock.now:
                clock.advance(latest - clock.now)
        if piggyback:
            response = attach_invalidations(response, piggyback)
            self._space.invalidations_piggybacked += 1
        return response

    def forget(self, object_id: str) -> None:
        """Drop an unexported object's state: dead ids must not pile up.

        (Failover takes a dead primary's subscribers *before* its unexport,
        so the promoted node can still flush them.)
        """
        self.subscribers.pop(object_id, None)
        self._declared.pop(object_id, None)

    def register_cache_subscriber(self, object_id: str, node_id: str, expiry: float) -> None:
        """Record ``node_id``'s interest in ``object_id`` until ``expiry`` (simulated s).

        One node may host several caching clients, so a re-registration can
        only *extend* the recorded expiry: a short lease must not silence the
        invalidations a longer one on the same node relies on.
        """
        nodes = self.subscribers.setdefault(object_id, {})
        nodes[node_id] = max(expiry, nodes.get(node_id, expiry))

    def _on_subscription(self, source: str, payload: bytes) -> bytes:
        """Answer one ``!sub`` frame: record its sender's subscription, acknowledge.

        A frame naming another node than its sender is refused: a write would
        wait out the lease of a node that never subscribed, were it down.  An
        id the space does not export is acknowledged but not recorded: ids
        are never reused, so the entry could never be invalidated.
        """
        body = parse_subscription(payload)
        if str(body["node"]) != source:
            raise TransportError(
                "malformed subscription frame: it names another node than its sender"
            )
        object_id = str(body["object_id"])
        try:
            self._space.lookup_local_object(object_id)
        except UnknownObjectError:
            return frame_subscription_ack()
        declared = body.get("cacheable")
        if declared:
            self._declared.setdefault(object_id, set()).update(map(str, declared))
        self.register_cache_subscriber(object_id, source, self._clock.now + body["lease"])
        return frame_subscription_ack()

    def take_cache_subscribers(self, object_id: str) -> Dict[str, float]:
        """Remove and return one object's subscriber table (failover hand-off).

        The promoted node flushes them: the dead primary cannot send anything.
        """
        return self.subscribers.pop(object_id, {})

    def send_cache_invalidations(
        self, object_ids: Sequence[str], nodes: Sequence[str], epoch: Optional[int] = None
    ) -> int:
        """Send one ``!inv`` for ``object_ids`` to each of ``nodes``; how many arrived.

        Unreachable nodes are skipped (their caches self-expire or re-key).
        ``epoch`` stamps the frame with the sender's replication epoch, so
        recipients reject invalidations a fenced ex-primary mints.
        """
        return sum(self._send(node, object_ids, epoch) for node in sorted(set(nodes)))

    def _send(self, node: str, object_ids: Sequence[str], epoch: Optional[int] = None) -> bool:
        """Send one ``!inv`` frame to ``node``, the one sender of them; whether it arrived."""
        space = self._space
        try:
            space.network.send_request(space.node_id, node, frame_invalidation(object_ids, epoch))
        except NetworkError:
            return False
        space.invalidations_sent += 1
        return True

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def split_response(self, raw_response: bytes) -> bytes:
        """Deliver the invalidations piggybacked on ``raw_response``; the rest of it."""
        object_ids, raw_response = split_invalidations(raw_response)
        self._deliver(object_ids)
        return raw_response

    def _on_invalidation(self, source: str, payload: bytes) -> bytes:
        """Answer one ``!inv`` frame: deliver its ids, acknowledge how many.

        An epoch-stamped frame claiming an epoch older than one already seen
        for an object came from a superseded primary: it must not flush (or,
        worse, re-prime) the local caches.
        """
        object_ids, epoch = parse_invalidation_body(payload)
        if epoch is not None:
            accepted = []
            for object_id in object_ids:
                if epoch < self._epoch_floor.get(object_id, -1):
                    self.stale_invalidations_rejected += 1
                    continue
                self._epoch_floor[object_id] = epoch
                accepted.append(object_id)
            object_ids = accepted
        self._deliver(object_ids)
        return frame_invalidation_ack(len(object_ids))

    def _deliver(self, object_ids: List[str]) -> None:
        """Hand one invalidation delivery to every listener."""
        if not object_ids:
            return
        self.invalidations_received += 1
        for listener in list(self.listeners):
            listener(list(object_ids))
