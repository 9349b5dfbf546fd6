"""The wrapper-per-instance baseline (paper §3).

An alternative to transforming code directly is to generate wrappers for
every class: a wrapper encapsulates one object and intercepts every access
request to it, and all references to the object are altered to refer to the
wrapper.  The paper notes that although this is much simpler in terms of
implementation, it introduces **significantly greater overhead** and does not
remove the other limitations.

This module implements that baseline so the overhead comparison (experiment
E6) can be reproduced: every attribute read, attribute write and method call
on a wrapped object goes through a generic interception path
(``__getattr__`` + a per-call bookkeeping step), whereas the transformed
classes pay only a direct accessor/method call.
"""

from __future__ import annotations

from typing import Any


class ObjectWrapper:
    """Encapsulates one object and intercepts all access to it."""

    __slots__ = ("_target", "_interceptions", "_method_cache")

    def __init__(self, target: Any) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_interceptions", 0)
        object.__setattr__(self, "_method_cache", {})

    # -- interception ----------------------------------------------------------

    def _intercept(self) -> None:
        object.__setattr__(self, "_interceptions", self.interception_count + 1)

    @property
    def interception_count(self) -> int:
        return object.__getattribute__(self, "_interceptions")

    @property
    def wrapped(self) -> Any:
        return object.__getattribute__(self, "_target")

    def __getattr__(self, name: str) -> Any:
        self._intercept()
        target = object.__getattribute__(self, "_target")
        value = getattr(target, name)
        if callable(value):
            def intercepted(*args: Any, **kwargs: Any) -> Any:
                self._intercept()
                # Arguments that are themselves wrappers are unwrapped so the
                # target sees ordinary objects, mirroring how generated
                # wrappers would bridge between wrapped and unwrapped views.
                unwrapped_args = tuple(
                    argument.wrapped if isinstance(argument, ObjectWrapper) else argument
                    for argument in args
                )
                unwrapped_kwargs = {
                    key: value.wrapped if isinstance(value, ObjectWrapper) else value
                    for key, value in kwargs.items()
                }
                return value(*unwrapped_args, **unwrapped_kwargs)

            return intercepted
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        self._intercept()
        target = object.__getattribute__(self, "_target")
        setattr(target, name, value.wrapped if isinstance(value, ObjectWrapper) else value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectWrapper around {type(self.wrapped).__name__}>"


def wrap(target: Any) -> ObjectWrapper:
    """Wrap one object (idempotent: wrapping a wrapper returns it unchanged)."""
    if isinstance(target, ObjectWrapper):
        return target
    return ObjectWrapper(target)


class WrapperRuntime:
    """Creates wrapped instances, one wrapper per object.

    This is the baseline's analogue of the object factory: creation goes
    through the runtime so that "all references to that object are altered to
    refer to the wrapper" — callers only ever receive wrappers.
    """

    def new(self, cls: type, *args: Any, **kwargs: Any) -> ObjectWrapper:
        unwrapped_args = tuple(
            argument.wrapped if isinstance(argument, ObjectWrapper) else argument
            for argument in args
        )
        unwrapped_kwargs = {
            key: value.wrapped if isinstance(value, ObjectWrapper) else value
            for key, value in kwargs.items()
        }
        return wrap(cls(*unwrapped_args, **unwrapped_kwargs))
