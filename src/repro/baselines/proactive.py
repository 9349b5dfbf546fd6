"""ProActive-style baseline (paper §3).

ProActive PDC offers dynamic object distribution and migration through
*active objects*: an active object has its own thread of control and a
request queue; method calls on it are asynchronous and return futures.  The
programmer must still determine statically which objects are to be remotely
accessible, and the architecture resembles the wrapper-generation approach.

The reproduction models the essential mechanics deterministically: requests
enqueue, ``serve``/``serve_all`` processes them in FIFO order, and futures
resolve when their request has been served.  Placement is per-object and
programmer-directed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro._errors import InvocationError


class Future:
    """The placeholder returned by an asynchronous call on an active object."""

    def __init__(self, active_object: "ActiveObject") -> None:
        self._active_object = active_object
        self._resolved = False
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: Any) -> None:
        self._resolved = True
        self._value = value

    def _fail(self, error: BaseException) -> None:
        self._resolved = True
        self._error = error

    def get(self) -> Any:
        """Wait-by-necessity: serve pending requests until this future resolves."""
        while not self._resolved:
            served = self._active_object.serve()
            if served == 0 and not self._resolved:
                raise InvocationError("future cannot resolve: no pending requests")
        if self._error is not None:
            raise self._error
        return self._value


class _Request:
    __slots__ = ("member", "args", "kwargs", "future")

    def __init__(self, member: str, args: tuple, kwargs: dict, future: Future) -> None:
        self.member = member
        self.args = args
        self.kwargs = kwargs
        self.future = future


class ActiveObject:
    """Wraps an ordinary object with a request queue and asynchronous calls."""

    def __init__(self, target: Any, node_id: str) -> None:
        self._target = target
        self._node_id = node_id
        self._queue: Deque[_Request] = deque()
        self.requests_served = 0

    # -- asynchronous invocation --------------------------------------------------

    def call(self, member: str, *args: Any, **kwargs: Any) -> Future:
        """Enqueue an asynchronous method call and return its future."""
        future = Future(self)
        self._queue.append(_Request(member, args, kwargs, future))
        return future

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)

        def asynchronous(*args: Any, **kwargs: Any) -> Future:
            return self.call(name, *args, **kwargs)

        asynchronous.__name__ = name
        return asynchronous

    # -- the active object's own thread of control ---------------------------------

    def serve(self) -> int:
        """Serve at most one pending request; returns how many were served."""
        if not self._queue:
            return 0
        request = self._queue.popleft()
        try:
            member = getattr(self._target, request.member)
            result = member(*request.args, **request.kwargs)
        except BaseException as exc:  # noqa: BLE001 - delivered through the future
            request.future._fail(exc)
        else:
            request.future._resolve(result)
        self.requests_served += 1
        return 1

    def serve_all(self) -> int:
        served = 0
        while self._queue:
            served += self.serve()
        return served

    # -- programmer-directed migration ----------------------------------------------


class ProActiveRuntime:
    """Creates active objects on named nodes of a cluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def new_active(self, cls: type, args: tuple = (), node: Optional[str] = None) -> ActiveObject:
        node_id = node or self.cluster.default_node_id
        if node_id not in self.cluster.node_ids():
            raise InvocationError(f"cluster has no node {node_id!r}")
        instance = cls(*args)
        return ActiveObject(instance, node_id)
