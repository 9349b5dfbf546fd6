"""Marshalling of invocation arguments and results.

Primitive values pass by value.  Containers pass by value with their elements
marshalled recursively.  Objects of transformed classes — local
implementations, proxies and rebindable handles alike — pass **by
reference**: the sending side exports the object (or reuses the reference a
proxy already carries) and puts a :class:`~repro.runtime.remote_ref.RemoteRef`
on the wire; the receiving side either resolves the reference to its own
local object (when the reference points home) or manufactures a proxy for it
through the owning application's registry.

This is the mechanism that makes Figure 1 work: when the shared instance of
``C`` becomes remote, the references ``A`` and ``B`` hold are (transparently)
references, not copies.

The :class:`Marshaller` owns what a value *means* on the wire: its tree
(:class:`repro.transports.base.Tree`) and the references in it.  A dict or
list travels as itself; the tree tags only what a plain wire value cannot say
(tuples, sets, bytes, references, and a map holding the ``"__kind__"`` key, so
that a user map is never read as a tree), and ``from_wire`` still reads the
old form that tagged every container.  The binary codec writes and reads tree
bytes straight from live values, calling back only for what is tagged and
primitive subclasses; the tree itself is built for SOAP and in-process frames
and for a served result (marshalled before its response exists, so one that
cannot be is that call's error response).
"""

from __future__ import annotations

import base64
from typing import Any

from repro._errors import SerializationError, UnknownObjectError
from repro.runtime.remote_ref import RemoteRef
from repro.transports.base import LEAVES, Tree

_PRIMITIVES = (type(None), bool, int, float, str)


def _is_transformed_instance(value: Any) -> bool:
    """True for generated locals, proxies and redirector handles."""
    return getattr(type(value), "_repro_interface_name", None) is not None


class Marshaller:
    """Converts between live values and wire values for one address space."""

    def __init__(self, space) -> None:
        self._space = space

    # ------------------------------------------------------------------
    # live -> wire
    # ------------------------------------------------------------------

    def to_wire(self, value: Any) -> Any:
        if type(value) in LEAVES:
            return value
        to_wire = self.to_wire
        if isinstance(value, dict):
            wire = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SerializationError(
                        f"only string keys can be marshalled, got {type(key).__name__}"
                    )
                wire[key] = item if type(item) in LEAVES else to_wire(item)
            if Tree.KIND in wire:  # a user map that would read as a tree: escaped
                return {Tree.KIND: Tree.MAP, Tree.ITEMS: [list(entry) for entry in wire.items()]}
            return wire
        if isinstance(value, (list, tuple)):
            items = [item if type(item) in LEAVES else to_wire(item) for item in value]
            return items if isinstance(value, list) else {Tree.KIND: Tree.TUPLE, Tree.ITEMS: items}
        # Everything below is rare: subclasses of the primitives (an IntEnum
        # travels as itself), bytes, sets and references.
        if isinstance(value, _PRIMITIVES):
            return value
        if isinstance(value, bytes):
            return {Tree.KIND: Tree.BYTES, Tree.DATA: base64.b64encode(value).decode("ascii")}
        if isinstance(value, (set, frozenset)):
            return {
                Tree.KIND: Tree.SET,
                Tree.ITEMS: sorted((to_wire(item) for item in value), key=repr),
            }
        if isinstance(value, RemoteRef):
            return value.to_wire()
        if _is_transformed_instance(value):
            return self._reference_for(value).to_wire()
        raise SerializationError(
            f"cannot marshal value of type {type(value).__name__}: it is neither a "
            "primitive, a container of marshallable values, nor an instance of a "
            "transformed class"
        )

    def _reference_for(self, value: Any) -> RemoteRef:
        role = getattr(type(value), "_repro_role", None)
        if role == "proxy":
            reference = getattr(value, "_ref", None)
            if reference is None:
                raise SerializationError("proxy is not bound to a remote reference")
            return reference
        if role == "redirector":
            meta = getattr(value, "__meta__", None)
            if meta is None:
                raise SerializationError("redirector handle has no metaobject")
            return self._reference_for(meta.target)
        # A local implementation (instance or class singleton): export it from
        # this address space so the receiver can call back into it.
        return self._space.export(value)

    # ------------------------------------------------------------------
    # wire -> live
    # ------------------------------------------------------------------

    def from_wire(self, value: Any) -> Any:
        """The live value of a wire value (a malformed tree: SerializationError)."""
        if type(value) in LEAVES:
            return value
        from_wire = self.from_wire
        if isinstance(value, dict):
            kind = value.get(Tree.KIND)
            if kind is None:
                return {key: item if type(item) in LEAVES else from_wire(item)
                        for key, item in value.items()}
            if kind == Tree.REF:
                return self._resolve_reference(RemoteRef.from_wire(value))
            if kind == Tree.BYTES:
                try:
                    return base64.b64decode(value.get(Tree.DATA), validate=True)
                except (TypeError, ValueError):
                    raise SerializationError("wire bytes carry no valid base64 data") from None
            items = value.get(Tree.ITEMS)
            if kind not in (Tree.MAP, Tree.LIST, Tree.TUPLE, Tree.SET) or type(items) is not list:
                raise SerializationError(f"unknown wire kind {kind!r}, or no list of items")
            try:
                if kind == Tree.MAP:
                    if all(type(entry) is list and len(entry) == 2 for entry in items):
                        return {key: item if type(item) in LEAVES else from_wire(item)
                                for key, item in items}
                    raise SerializationError("wire map entry is not a [key, value] pair")
                if kind == Tree.SET:
                    return {from_wire(item) for item in items}
            except TypeError:  # an unhashable map key or set item
                raise SerializationError(f"wire {kind} holds an unhashable key or item") from None
            items = [item if type(item) in LEAVES else from_wire(item) for item in items]
            return items if kind == Tree.LIST else tuple(items)
        if isinstance(value, list):
            return [item if type(item) in LEAVES else from_wire(item) for item in value]
        if isinstance(value, _PRIMITIVES):
            return value
        raise SerializationError(
            f"cannot unmarshal wire value of type {type(value).__name__}"
        )

    def _resolve_reference(self, reference: RemoteRef) -> Any:
        if reference.located_on(self._space.node_id):
            try:
                return self._space.lookup_local_object(reference.object_id)
            except UnknownObjectError:  # retired here: follow the forward table
                current = self._space.naming.forwarded(reference)
                if current is None:
                    raise
                return self._resolve_reference(current)
        application = getattr(self._space, "application", None)
        if application is None:
            raise SerializationError(
                "cannot build a proxy for an incoming reference: the address space "
                "is not attached to a transformed application"
            )
        return application.proxy_for_ref(reference, self._space)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def marshal_arguments(self, args: tuple, kwargs: dict) -> tuple[list, dict]:
        return (
            [self.to_wire(argument) for argument in args],
            {key: self.to_wire(value) for key, value in kwargs.items()},
        )

    def unmarshal_arguments(self, args: list, kwargs: dict) -> tuple[list, dict]:
        return (
            [self.from_wire(argument) for argument in args],
            {key: self.from_wire(value) for key, value in kwargs.items()},
        )
