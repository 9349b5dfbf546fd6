"""Object state: copying it and walking it.

Every field of a transformed object is a property, so its full state is
reachable through the extracted interface without knowing the implementation.
Two things are built on that fact: the one state-copy pair
(:func:`snapshot_state` / :func:`apply_state`, shared by relocation and
replication) and :func:`reachable_handles`, the walk that finds the rebindable
handles an object graph holds.  What *happens* when an object moves is
:mod:`repro.runtime.redistribution`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.metaobject import metaobject_of


def _accessors(obj: Any, application: Any, kind: str) -> Optional[list]:
    """The generated ``"get"``/``"set"`` accessors of ``obj``; ``None`` when
    ``application`` does not know its class (an untransformed object)."""
    class_name = getattr(type(obj), "_repro_class_name", None)
    if application is None or class_name not in application.registry.class_names():
        return None
    interface = application.artifacts(class_name).instance_interface
    return [sig for sig in interface.accessors() if sig.accessor_kind == kind]


def snapshot_state(obj: Any, application: Any = None) -> dict:
    """Capture ``obj``'s state as a plain dict of wire values.

    A transformed object — local implementation, proxy or handle, when
    ``application`` knows its class — is read through its generated getters,
    in interface order; an ordinary object contributes its public instance
    attributes.
    """
    getters = _accessors(obj, application, "get")
    if getters is None:
        return {name: value for name, value in vars(obj).items() if not name.startswith("_")}
    return {sig.accessor_for: getattr(obj, sig.name)() for sig in getters}


def apply_state(obj: Any, state: dict, application: Any = None) -> int:
    """Write a :func:`snapshot_state` dict into ``obj``; returns fields written."""
    setters = _accessors(obj, application, "set")
    if setters is None:
        for name, value in state.items():
            setattr(obj, name, value)
        return len(state)
    written = 0
    for sig in setters:
        if sig.accessor_for in state:
            getattr(obj, sig.name)(state[sig.accessor_for])
            written += 1
    return written


def reachable_handles(application, root: Any, max_depth: int = 10) -> list[Any]:
    """Rebindable handles reachable from ``root`` through interface accessors.

    Performs a breadth-first walk over getter values (descending into lists,
    tuples and dict values).  Only redirector handles are returned — they are
    the references that can be transparently re-pointed when a whole object
    graph is migrated together.
    """

    seen: set[int] = set()
    found: list[Any] = []
    frontier: list[tuple[Any, int]] = [(root, 0)]
    while frontier:
        current, depth = frontier.pop(0)
        if depth > max_depth or id(current) in seen:
            continue
        seen.add(id(current))
        if metaobject_of(current) is not None and current is not root:
            found.append(current)
        for signature in _accessors(current, application, "get") or ():
            for candidate in _iter_candidates(getattr(current, signature.name)()):
                frontier.append((candidate, depth + 1))
    return found


def _iter_candidates(value: Any):
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _iter_candidates(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_candidates(item)
    elif value is not None and not isinstance(value, (bool, int, float, str, bytes)):
        yield value
