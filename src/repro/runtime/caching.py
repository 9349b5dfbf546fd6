"""Coherent client-side result caching with leases and write-invalidation.

Every read used to pay a full round trip even though read-mostly services are
the canonical middleware hot path.  This module closes that gap: a
:class:`CacheManager` interposes on remote invocations and serves repeated
calls to :func:`~repro.core.interfaces.cacheable` (side-effect-free) members
from a per-client :class:`ResultCache`, kept coherent by **time-bounded
leases** plus **write-invalidation frames**:

* On a cache fill the client *subscribes* to the owning address space (a
  ``!sub`` control frame, see :mod:`repro.transports.base`), optionally
  bounded by the policy's lease.  Subscribing happens *before* the read
  ships, so no write can slip into the gap unnoticed.
* When any client invokes a mutating member, the owning
  :class:`~repro.runtime.address_space.AddressSpace` broadcasts a ``!inv``
  frame to every live subscriber **before the write is acknowledged** — and
  piggybacks the invalidation on the (batch) response when the writer is
  itself a subscriber.
* Every invalidation bumps a per-object *version*; a fill records the
  version it started from and is discarded if an invalidation arrived while
  its read was in flight.  This closes the read/write race: a response
  computed before a write can never resurrect stale data after it.
* Leases bound staleness in time even without invalidation traffic: an
  entry older than ``lease_ms`` of simulated time is a miss, and the server
  prunes expired subscriptions instead of invalidating them.

Three :class:`CachePolicy` modes trade coherence for traffic:

``"leases"`` (default)
    Subscriptions carry the lease; entries expire after ``lease_ms`` *and*
    are invalidated on writes — full coherence with self-cleaning server
    state.
``"invalidate"``
    Unbounded subscriptions, no time expiry: entries live until a write
    invalidates them.  Full coherence; server subscription state lives until
    the next write.
``"write_through"``
    No subscriptions: the client's own writes invalidate its own entries,
    other clients' writes go unnoticed until the lease expires — bounded
    staleness (≤ ``lease_ms``), zero coherence traffic.

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

The façade consumes this module through
:class:`~repro.api.policy.ServicePolicy`'s ``cache`` field — a transformed
object's handle included, once a session has adopted it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro._errors import NetworkError, PolicyError
from repro.runtime.pipelining import InvocationFuture
from repro.runtime.remote_ref import RemoteRef
from repro.transports.base import LEAVES, frame_subscription

#: The three cache-coherence modes (see the module docstring).
CACHE_MODES = ("leases", "invalidate", "write_through")


@dataclass(frozen=True)
class CachePolicy:
    """Declarative knobs of one service's client-side result cache.

    An immutable value object carried by
    :class:`~repro.api.policy.ServicePolicy` (``cache=``): ``max_entries``
    bounds the cache's size (LRU eviction), ``lease_ms`` bounds an entry's
    lifetime in *simulated* milliseconds, and ``mode`` picks the coherence
    protocol (``"leases"``, ``"invalidate"`` or ``"write_through"``).
    ``cacheable`` names members that are safe to cache in addition to any
    :func:`~repro.core.interfaces.cacheable`-decorated members of the
    implementation class — useful when attaching to a service deployed by
    another party, where the implementation class is not at hand.
    """

    #: Maximum entries held; least-recently-used entries are evicted beyond.
    max_entries: int = 256
    #: Entry/lease lifetime in simulated milliseconds (ignored by
    #: ``"invalidate"`` mode, which keeps entries until a write).
    lease_ms: float = 50.0
    #: Coherence mode: one of :data:`CACHE_MODES`.
    mode: str = "leases"
    #: Explicitly cacheable member names (unioned with ``@cacheable`` markers).
    cacheable: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise PolicyError("max_entries must be at least 1")
        if self.lease_ms <= 0:
            raise PolicyError("lease_ms must be positive")
        if self.mode not in CACHE_MODES:
            raise PolicyError(
                f"unknown cache mode {self.mode!r} (use one of {CACHE_MODES})"
            )
        if not isinstance(self.cacheable, tuple):
            object.__setattr__(self, "cacheable", tuple(self.cacheable))

    @property
    def lease_seconds(self) -> float:
        """The lease converted to the simulated clock's seconds."""
        return self.lease_ms / 1000.0

    @property
    def subscribes(self) -> bool:
        """Whether this mode registers for write-invalidation frames."""
        return self.mode in ("leases", "invalidate")

    @property
    def expires(self) -> bool:
        """Whether entries time out after the lease."""
        return self.mode in ("leases", "write_through")


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
_NEVER = float("inf")


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
    expires_at: Optional[float]
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
        now = self.manager.now()
        expires_at = now + self.policy.lease_seconds if self.policy.expires else None
        version = self.manager.version(reference.object_id)
        if self.policy.subscribes:
            lease = self.policy.lease_seconds if self.policy.mode == "leases" else None
            subscribed_until = self.manager.subscribe(
                reference, lease, cacheable=self.policy.cacheable
            )
            if subscribed_until is None:
                # No subscription, no coherence guarantee: poison the token
                # so this fill is never stored (the read itself still runs —
                # and typically rides a failover to a re-keyed export).
                version = -1
            elif expires_at is not None:
                # An entry must never outlive the subscription guarding it:
                # a reused (earlier) subscription shortens the entry, it
                # does not stretch the lease.
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
        expires_at = _NEVER if token.expires_at is None else token.expires_at
        if self._clock.now >= expires_at:
            return False
        key = token.key if token.key is not None else _key(object_id, member, args, kwargs)
        if key is None:
            return False
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = (_copied(value), expires_at)
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

    def invalidate_object(self, object_id: str) -> int:
        """Drop every entry of one object; returns how many were dropped."""
        keys = self._by_object.pop(object_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                dropped += 1
        self.entries_invalidated += dropped
        return dropped

    def flush_reference(self, reference: RemoteRef) -> int:
        """Drop every entry held against ``reference`` (failover, rebind)."""
        return self.invalidate_object(reference.object_id)

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

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served locally (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache entries={len(self._entries)} hits={self.hits} "
            f"misses={self.misses} mode={self.policy.mode!r}>"
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
    invalidation listener registered with the client's
    :class:`~repro.runtime.address_space.AddressSpace` (standalone ``!inv``
    frames and response piggybacks both arrive there), the per-object
    invalidation *versions* that void racy fills, and the subscription
    bookkeeping that keeps ``!sub`` traffic down to one message per object
    per lease window.  :class:`~repro.api.session.Session` creates one
    lazily when the first cached service appears and closes it on teardown.
    """

    def __init__(self, space: Any) -> None:
        self.space = space
        self._caches: List[ResultCache] = []
        self._versions: Dict[str, int] = {}
        #: Active subscriptions: object id → simulated expiry (inf = no lease).
        self._subscriptions: Dict[str, float] = {}
        #: Standalone + piggybacked invalidation frames applied.
        self.invalidations_received = 0
        #: Subscription frames actually sent (renewals included).
        self.subscriptions_sent = 0
        self._closed = False
        space.add_invalidation_listener(self._on_invalidation)

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

    def caches(self) -> List[ResultCache]:
        """Every cache created through this manager."""
        return list(self._caches)

    def close(self) -> None:
        """Detach from the address space and drop every cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.space.remove_invalidation_listener(self._on_invalidation)
        for cache in self._caches:
            cache.clear()
        self._subscriptions.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

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
        self,
        reference: RemoteRef,
        lease: Optional[float],
        cacheable: tuple = (),
    ) -> Optional[float]:
        """Ensure a live subscription for ``reference``.

        Returns the active subscription's expiry in simulated time
        (``inf`` for an unbounded one) — fills clamp their entries to it —
        or ``None`` when the owner is unreachable (mid-failover), in which
        case the caller must not cache its fill.  A subscription still
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
        if current is not None:
            if current == float("inf"):
                return current
            if lease is not None and current - now >= lease / 2:
                return current
        payload = frame_subscription(
            object_id,
            self.space.node_id,
            None if lease is None else lease,
            cacheable=cacheable,
        )
        try:
            self.space.network.send_request(
                self.space.node_id, reference.node_id, payload
            )
        except NetworkError:
            return None
        expiry = float("inf") if lease is None else now + lease
        self._subscriptions[object_id] = expiry
        self.subscriptions_sent += 1
        return expiry

    def flush_reference(self, reference: RemoteRef) -> int:
        """Drop every cached entry held against ``reference``.

        Used by the failover path: leases held against a demoted primary are
        flushed rather than left to expire.  The flush also bumps the
        object's version so a fill already in flight against the demoted
        primary is voided at :meth:`ResultCache.store` time — without the
        bump it would re-prime the cache with a pre-failover value right
        after the flush emptied it.
        """
        self._subscriptions.pop(reference.object_id, None)
        dropped = 0
        for cache in self._caches:
            dropped += cache.flush_reference(reference)
        self.bump_version(reference.object_id)
        return dropped

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

    # ------------------------------------------------------------------
    # aggregate statistics (consumed by benchmarks)
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Total hits across every cache."""
        return sum(cache.hits for cache in self._caches)

    @property
    def misses(self) -> int:
        """Total misses across every cache."""
        return sum(cache.misses for cache in self._caches)

    @property
    def hit_rate(self) -> float:
        """Aggregate fraction of lookups served locally."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheManager node={self.space.node_id!r} caches={len(self._caches)} "
            f"hit_rate={self.hit_rate:.2f}>"
        )
