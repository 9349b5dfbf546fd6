"""The metaobject protocol backing generated implementations.

RAFDA is a *reflective* framework: the behaviour of transformed objects can
be inspected and adjusted at run time.  Each handle produced by an object
factory is backed by a :class:`Metaobject` which

* carries one :class:`~repro.core.interception.InterceptorChain`, the same
  begin/end/abort chain that brackets a service's calls: empty (and free)
  unless something — the adaptive policy's access monitor, a test, a user —
  adds interceptors to observe or veto the handle's calls, and
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

from typing import Any, Optional

from repro._errors import FencedError, RemoteInvocationError, UnknownObjectError
from repro.core.interception import CallContext, Interceptor, InterceptorChain

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
        #: The handle's interceptor chain: empty unless something monitors or
        #: vetoes its calls (:meth:`add_interceptor`), and free while empty.
        self.chain = InterceptorChain()

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
        """Append ``interceptor`` to the handle's chain (its ``begin`` runs last)."""
        chain = self.chain
        chain.interceptors = InterceptorChain((*chain.interceptors, interceptor)).interceptors
        return interceptor

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Take ``interceptor`` off the handle's chain (idempotent)."""
        chain = self.chain
        chain.interceptors = tuple(i for i in chain.interceptors if i is not interceptor)

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

    def invoke(self, member: str, *args: Any, **kwargs: Any) -> Any:
        """Dispatch one member invocation, bracketed by the handle's chain.

        A handle is location-transparent once its application is deployed:
        code executing on the object's home node, with the handle bound
        locally, calls the target directly; code executing on any other node,
        or a handle bound to a proxy, pays a remote call over the simulated
        network through the remote leg.
        """
        application = self._application
        deployed = application is not None and application.is_bound
        bracket = None
        if self.chain.interceptors:
            bracket = self.chain.open(CallContext(
                service=self.interface_name or "", member=member, args=args, kwargs=kwargs,
                clock=application.cluster.clock if deployed else None,
            ))
        try:
            if not deployed or self.node_id is None or (
                self._kind == KIND_LOCAL and application._current_node_id() == self.node_id
            ):
                result = getattr(self._target, member)(*args, **kwargs)
            else:
                if self._remote_leg is None:
                    self._remote_leg = application._remote_leg(self)
                proxy, transport = self._remote_leg
                # Issued from the space the calling code runs in, not the one
                # the proxy was built in, so traffic lands on the right link.
                result = proxy._call(
                    member, args, kwargs, space=application.current_space,
                    transport=transport, via=self.remote_invoker,
                )
        except BaseException as error:
            if bracket is not None:
                bracket.fail(error)
            raise
        if bracket is not None:
            bracket.close(result)
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
    """What every generated ``A_O_Proxy`` / ``A_C_Proxy`` inherits: its binding
    — the remote reference, the address space it calls from and the transport
    it calls over — and the one method through which every call it forwards
    leaves.  Neither varies by class, so neither is emitted per proxy."""

    def __init__(self, ref: Any, space: Any, transport: str) -> None:
        self._ref = ref
        self._space = space
        self._transport = transport

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
        proxy's own space over the transport of its binding; through
        ``via`` (the handle's ``remote_invoker`` slot) when there is one.
        A call refused unrun by a retired reference (its id unknown there, or
        fenced) is re-issued, once per hop, to where the forward table says
        the object went, and the proxy re-bound there."""
        space = space if space is not None else self._space
        transport = transport or self._transport
        try:
            if via is not None:
                return via.invoke(self._ref, member, args, kwargs, transport=transport, space=space)
            return space.invoke_remote(self._ref, member, args, kwargs or {}, transport=transport)
        except (UnknownObjectError, FencedError, RemoteInvocationError) as refusal:
            # Typed when co-located; an unknown id that crossed the wire is named
            # by its remote_type.  Any other remote error ran the call.
            if getattr(refusal, "remote_type", "UnknownObjectError") != "UnknownObjectError":
                raise
            current = space.naming.forwarded(self._ref)
            if current is None:
                raise
            self._ref = current
        return self._call(member, args, kwargs, space=space, transport=transport, via=via)


def metaobject_of(handle: Any) -> Optional[Metaobject]:
    """Return the metaobject backing ``handle``, or None for plain objects."""
    return getattr(handle, "__meta__", None)


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

