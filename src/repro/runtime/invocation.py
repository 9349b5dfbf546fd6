"""The four steps between a call and the message dicts the transports speak.

The dict documented at the top of :mod:`repro.transports.base` is the only
form a message takes above the bytes, and a single-call frame and a batch
carry the same dicts.  So there is one function here for each step, whichever
frame a call travels in:

* :func:`request_dict` — call → request dict (calling side);
* :func:`read_request` — request dict → checked fields (serving side; the
  shape check of everything that arrives off the wire);
* :func:`response_dict` — outcome → response dict (serving side);
* :func:`read_response` — response dict → wire value or remote error
  (calling side).

Both readers raise :class:`~repro._errors.TransportError` for a message of the
wrong shape: it fails the whole frame it came in, like any other decode
failure.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro._errors import ReproError, TransportError, remote_error
from repro.runtime.remote_ref import RemoteRef

#: The checked fields of one request, in :func:`read_request`'s order:
#: (target's full object id, member, args, kwargs, context).
RequestFields = Tuple[str, str, list, dict, Optional[dict]]


def request_dict(
    reference: RemoteRef, member: str, args: list, kwargs: dict, context: Optional[dict]
) -> dict:
    """The request for ``member`` on the object behind ``reference``.

    The target is the object's key on the node the request goes to
    (:attr:`~repro.runtime.remote_ref.RemoteRef.key`), not its full id.
    ``args`` and ``kwargs`` hold wire values or ``Live`` markers.  ``context``
    carries the call's control fields (call id, tenant, deadline — see
    :class:`~repro.core.interception.CallContext`).  ``kwargs`` and ``ctx``
    are keys only when non-empty; the interface is not one (the serving space
    knows it from its export).  The key order here is the order on the wire.
    """
    request = {"target": reference.key, "member": member, "args": args}
    if kwargs:
        request["kwargs"] = kwargs
    if context:
        request["ctx"] = context
    return request


def read_request(request: dict, node_id: str) -> RequestFields:
    """The fields of one request decoded on node ``node_id``, checked against
    the documented shape.

    A transport's decoder answers for the frame, not for what is in it, and
    what is in it came from another machine.  A target without ``:`` is a key
    on this node and comes back as its full id, ``<node_id>:<target>``; one
    with ``:`` is a full id already (a frame written before keys, or a
    reference whose id does not start with its node).  A missing ``kwargs`` is
    empty; an ``interface`` (a frame written when requests named it) is not
    read.
    """
    try:
        target, member, args = request["target"], request["member"], request["args"]
        kwargs, context = request.get("kwargs", {}), request.get("ctx")
    except (KeyError, TypeError, AttributeError):  # a field missing, or not a dict at all
        raise _malformed(request) from None
    # Exact types: a decoder builds str, list and dict, never a subclass.
    if not (type(target) is str and type(member) is str and type(args) is list
            and type(kwargs) is dict and (context is None or type(context) is dict)):
        raise _malformed(request)
    for key in kwargs:
        if type(key) is not str:
            raise _malformed(request)
    if ":" not in target:
        target = f"{node_id}:{target}"
    return target, member, args, kwargs, context


def _malformed(request: Any) -> TransportError:
    found = ({key: type(value).__name__ for key, value in request.items()}
             if isinstance(request, dict) else type(request).__name__)
    return TransportError(
        "malformed invocation request: need a dict with str target and member, "
        f"a list of args, optional str-keyed kwargs and an optional dict ctx; got {found}"
    )


def response_dict(result: Any = None, error: Optional[BaseException] = None) -> dict:
    """The response carrying a marshalled ``result``, or describing ``error``."""
    if error is not None:
        return {"error": {"type": type(error).__name__, "message": str(error)}}
    return {"result": result}


def read_response(response: dict) -> Tuple[Any, Optional[ReproError]]:
    """``(wire value, None)`` or ``(None, the remote error to raise)``.

    A missing or ``None`` ``error`` means success, and a missing ``result``
    is ``None``.
    """
    if not isinstance(response, dict):
        raise TransportError(
            f"invocation response must be a dictionary, got {type(response).__name__}"
        )
    error = response.get("error")
    if error is None:
        return response.get("result"), None
    if not isinstance(error, dict):
        raise TransportError(
            f"invocation error payload must be a dictionary, got {type(error).__name__}"
        )
    return None, remote_error(
        str(error.get("type", "Exception")), str(error.get("message", ""))
    )
