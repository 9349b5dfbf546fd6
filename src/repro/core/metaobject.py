"""The metaobject protocol backing generated implementations.

RAFDA is a *reflective* framework: the behaviour of transformed objects can
be inspected and adjusted at run time.  Each handle produced by an object
factory is backed by a :class:`Metaobject` which

* records call statistics per member and per calling node (used by the
  adaptive distribution policy),
* lets interceptors observe or veto invocations (the hook point for
  monitoring, tracing and failure injection), and
* can be **rebound** to a different base object — the mechanism by which the
  distribution boundary of an already-referenced object is changed at run
  time (a local implementation is swapped for a remote proxy or vice versa)
  without invalidating the references other objects hold.

The :class:`Redirector` is the interface-typed handle whose members all
delegate through its metaobject; the transformation emits one redirector
subclass per extracted interface so handles introspect with the correct
methods.  :class:`Proxy` is the corresponding base of the generated proxies.

There is one call path from a handle to the wire: ``Redirector`` →
:meth:`Metaobject.invoke` → :meth:`Proxy._call` → the handle's
``remote_invoker`` slot when one is set, else ``space.invoke_remote``.
``Proxy._call`` is the only place under :mod:`repro.core` where a call leaves
its address space; every method of a generated proxy is one call of it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Invocation:
    """A single member invocation flowing through a metaobject."""

    member: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: Node identifier of the caller, when known (filled by the runtime).
    caller_node: Optional[str] = None
    #: Node identifier of the current target, when the target is remote.
    target_node: Optional[str] = None


@dataclass
class CallStatistics:
    """Aggregated call statistics collected by a metaobject."""

    total_calls: int = 0
    calls_per_member: Counter = field(default_factory=Counter)
    calls_per_caller_node: Counter = field(default_factory=Counter)
    remote_calls: int = 0
    local_calls: int = 0

    def record(self, invocation: Invocation, remote: bool) -> None:
        self.total_calls += 1
        self.calls_per_member[invocation.member] += 1
        if invocation.caller_node is not None:
            self.calls_per_caller_node[invocation.caller_node] += 1
        if remote:
            self.remote_calls += 1
        else:
            self.local_calls += 1

    def reset(self) -> None:
        self.total_calls = 0
        self.calls_per_member.clear()
        self.calls_per_caller_node.clear()
        self.remote_calls = 0
        self.local_calls = 0

    @property
    def remote_fraction(self) -> float:
        if self.total_calls == 0:
            return 0.0
        return self.remote_calls / self.total_calls


class Interceptor:
    """Base class for invocation interceptors.

    ``before`` runs prior to dispatch and may raise to veto the call;
    ``after`` observes the result (or the raised error) once dispatch
    completed.  Subclasses override whichever hooks they need.
    """

    def before(self, invocation: Invocation) -> None:  # pragma: no cover - default no-op
        return None

    def after(self, invocation: Invocation, result: Any, error: Optional[BaseException]) -> None:
        return None  # pragma: no cover - default no-op


class TracingInterceptor(Interceptor):
    """Records every invocation (member, args) in order — useful in tests."""

    def __init__(self) -> None:
        self.trace: list[tuple[str, tuple, dict]] = []

    def before(self, invocation: Invocation) -> None:
        self.trace.append((invocation.member, invocation.args, dict(invocation.kwargs)))

    def clear(self) -> None:
        self.trace.clear()


class TimingInterceptor(Interceptor):
    """Accumulates wall-clock time spent per member (real time, not simulated)."""

    def __init__(self) -> None:
        self.elapsed_per_member: dict[str, float] = defaultdict(float)
        self._started: dict[int, float] = {}

    def before(self, invocation: Invocation) -> None:
        self._started[id(invocation)] = time.perf_counter()

    def after(self, invocation: Invocation, result: Any, error: Optional[BaseException]) -> None:
        started = self._started.pop(id(invocation), None)
        if started is not None:
            self.elapsed_per_member[invocation.member] += time.perf_counter() - started


#: The kinds of base object a metaobject may be bound to.
KIND_LOCAL = "local"
KIND_REMOTE = "remote"


class Metaobject:
    """Reflective intermediary between a handle and its current base object."""

    def __init__(
        self,
        target: Any,
        kind: str = KIND_LOCAL,
        *,
        interface_name: Optional[str] = None,
        node_id: Optional[str] = None,
        application: Any = None,
    ) -> None:
        self._target = target
        self._kind = kind
        self.interface_name = interface_name
        #: The node currently hosting the base object (None when local-only).
        self.node_id = node_id
        #: The owning transformed application, when the handle participates in
        #: a deployed (multi-address-space) program.  Used to route calls that
        #: originate on a different node from the object's home through the
        #: distributed object layer, so location transparency is preserved.
        self._application = application
        #: The one slot on the handle's remote leg: when set, calls that leave
        #: the node go through its ``invoke(reference, member, args, kwargs,
        #: transport=, space=)`` instead of the plain ``invoke_remote``.
        #: :func:`~repro.runtime.faulttolerance.guard_handle` puts its retrying
        #: invoker here, a session the service that adopted the handle.  It
        #: belongs to the handle, not to the binding: it survives every rebind
        #: and is idle while the object is local to its caller.
        self.remote_invoker: Any = None
        #: ``(proxy, transport)`` of the remote leg, resolved by the application
        #: on the first call that leaves the node and dropped by :meth:`rebind`.
        self._remote_leg: Optional[tuple] = None
        self.statistics = CallStatistics()
        self._interceptors: list[Interceptor] = []
        self._rebind_listeners: list[Callable[["Metaobject"], None]] = []

    # -- configuration --------------------------------------------------------

    @property
    def target(self) -> Any:
        return self._target

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def is_remote(self) -> bool:
        return self._kind == KIND_REMOTE

    def add_interceptor(self, interceptor: Interceptor) -> Interceptor:
        self._interceptors.append(interceptor)
        return interceptor

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        if interceptor in self._interceptors:
            self._interceptors.remove(interceptor)

    def interceptors(self) -> tuple[Interceptor, ...]:
        return tuple(self._interceptors)

    def on_rebind(self, listener: Callable[["Metaobject"], None]) -> None:
        self._rebind_listeners.append(listener)

    # -- the two reflective operations ----------------------------------------

    def rebind(self, target: Any, kind: str, node_id: Optional[str] = None) -> None:
        """Swap the base object this metaobject dispatches to.

        Rebinding is how dynamic redistribution works: the handle that other
        objects hold keeps its identity while its implementation changes from
        a local object to a remote proxy (or back) underneath it.
        """

        self._target = target
        self._kind = kind
        self.node_id = node_id
        self._remote_leg = None
        for listener in list(self._rebind_listeners):
            listener(self)

    def _route_via_runtime(self) -> bool:
        """Should this invocation go through the distributed object layer?

        When the owning application is deployed, a handle behaves
        location-transparently: code executing on the object's home node calls
        it directly, while code executing on any other node pays a remote call
        over the simulated network — regardless of whether the handle is
        currently bound to a local implementation or to a proxy.
        """

        application = self._application
        if application is None or self.node_id is None:
            return False
        if not getattr(application, "is_bound", False):
            return False
        if self._kind == KIND_LOCAL and application._current_node_id() == self.node_id:
            return False
        return True

    def invoke(self, member: str, *args: Any, **kwargs: Any) -> Any:
        """Dispatch one member invocation through the interception chain."""
        invocation = Invocation(
            member=member,
            args=args,
            kwargs=kwargs,
            target_node=self.node_id,
        )
        for interceptor in self._interceptors:
            interceptor.before(invocation)
        route_via_runtime = self._route_via_runtime()
        effective_remote = self.is_remote
        if route_via_runtime:
            effective_remote = (
                self._application._current_node_id() != self.node_id
            )
        self.statistics.record(invocation, remote=effective_remote)
        error: Optional[BaseException] = None
        result: Any = None
        try:
            if route_via_runtime:
                application = self._application
                if self._remote_leg is None:
                    self._remote_leg = application._remote_leg(self)
                proxy, transport = self._remote_leg
                # Issued from the space the calling code runs in, not the one
                # the proxy was built in, so traffic lands on the right link.
                result = proxy._call(
                    member, args, kwargs, space=application.current_space,
                    transport=transport, via=self.remote_invoker,
                )
            else:
                bound = getattr(self._target, member)
                result = bound(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised after interceptors run
            error = exc
        for interceptor in self._interceptors:
            interceptor.after(invocation, result, error)
        if error is not None:
            raise error
        return result


class Redirector:
    """Interface-typed handle delegating every member through a metaobject.

    The transformation emits one concrete subclass per extracted interface with
    explicit methods; this base class provides the shared machinery and a
    ``__getattr__`` fallback so that even members not present on the
    generated subclass still reach the metaobject.
    """

    #: Set by the emitted text of each derived class.
    _repro_interface_name: Optional[str] = None

    def __init__(self, metaobject: Metaobject) -> None:
        object.__setattr__(self, "__meta__", metaobject)

    @property
    def meta(self) -> Metaobject:
        return self.__meta__

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        meta: Metaobject = object.__getattribute__(self, "__meta__")

        def delegate(*args: Any, **kwargs: Any) -> Any:
            return meta.invoke(name, *args, **kwargs)

        delegate.__name__ = name
        return delegate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        meta: Metaobject = object.__getattribute__(self, "__meta__")
        return (
            f"<Redirector {self._repro_interface_name or '?'} -> "
            f"{meta.kind}@{meta.node_id or 'here'}>"
        )


class Proxy:
    """What every generated ``A_O_Proxy_<T>`` / ``A_C_Proxy_<T>`` inherits: its
    binding to a remote reference and the address space it calls from, which
    varies neither by class nor by transport (so it is not emitted per proxy),
    and the one method through which every call it forwards leaves."""

    #: Overridden by the emitted text of each derived class.
    _repro_transport: Optional[str] = None

    def __init__(self, ref: Any = None, space: Any = None) -> None:
        self._ref = ref
        self._space = space

    def bind(self, ref: Any, space: Any) -> "Proxy":
        """Bind this proxy to a remote reference and the local address space."""
        self._ref = ref
        self._space = space
        return self

    def remote_reference(self) -> Any:
        """The remote reference this proxy forwards to."""
        return self._ref

    def _call(
        self,
        member: str,
        args: tuple,
        kwargs: Optional[dict] = None,
        *,
        space: Any = None,
        transport: Optional[str] = None,
        via: Any = None,
    ) -> Any:
        """Invoke ``member`` on the remote object: from ``space`` over
        ``transport`` when a handle's metaobject names them, else from the
        proxy's own space over the transport it was generated for; through
        ``via`` (the handle's ``remote_invoker`` slot) when there is one."""
        space = space if space is not None else self._space
        transport = transport or self._repro_transport
        if via is not None:
            return via.invoke(self._ref, member, args, kwargs, transport=transport, space=space)
        return space.invoke_remote(self._ref, member, args, kwargs or {}, transport=transport)


def metaobject_of(handle: Any) -> Optional[Metaobject]:
    """Return the metaobject backing ``handle``, or None for plain objects."""
    return getattr(handle, "__meta__", None)


def is_redirected(handle: Any) -> bool:
    """True when ``handle`` is a rebindable (dynamic-distribution) handle."""
    return metaobject_of(handle) is not None


def unwrap(handle: Any) -> Any:
    """Follow redirector handles down to the current base object."""
    seen: set[int] = set()
    current = handle
    while True:
        meta = metaobject_of(current)
        if meta is None or id(current) in seen:
            return current
        seen.add(id(current))
        current = meta.target


def collect_statistics(handles: Iterable[Any]) -> CallStatistics:
    """Merge the call statistics of several handles into one aggregate."""
    merged = CallStatistics()
    for handle in handles:
        meta = metaobject_of(handle)
        if meta is None:
            continue
        stats = meta.statistics
        merged.total_calls += stats.total_calls
        merged.remote_calls += stats.remote_calls
        merged.local_calls += stats.local_calls
        merged.calls_per_member.update(stats.calls_per_member)
        merged.calls_per_caller_node.update(stats.calls_per_caller_node)
    return merged
