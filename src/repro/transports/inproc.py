"""In-process transport.

The "null" transport: requests and responses are carried as JSON with no
envelope and no simulated marshalling charge.  It is used for calls that stay
within one address space and as the lower bound in the transport-comparison
benchmarks (experiment E7) — the closest a remote call can get to a direct
local invocation.
"""

from __future__ import annotations

import json
from typing import Any

from repro._errors import TransportError
from repro.transports.base import BATCH_REQUEST, BATCH_RESPONSE, Live, Transport

#: The key a batch frame's wrapper object keeps its messages under; a single
#: frame is its one message, bare.
_BATCH_KEYS = {BATCH_REQUEST: "batch", BATCH_RESPONSE: "responses"}


def _tree(value: Any) -> Any:
    """What JSON writes for a :class:`Live` marker: its value's tree."""
    if type(value) is Live:
        return value.to_wire()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class InProcTransport(Transport):
    """JSON passthrough with no protocol framing."""

    name = "inproc"
    processing_overhead = 0.0

    def encode_frame(self, kind: str, messages: list) -> bytes:
        key = _BATCH_KEYS.get(kind)
        document = messages[0] if key is None else {key: messages}
        try:
            return json.dumps(document, separators=(",", ":"), default=_tree).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise TransportError(f"message is not JSON-encodable: {exc}") from exc

    def decode_frame(self, kind: str, payload: bytes) -> list:
        try:
            document = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"malformed in-process message: {exc}") from exc
        key = _BATCH_KEYS.get(kind)
        if key is None:
            return [document]
        if not isinstance(document, dict) or not isinstance(document.get(key), list):
            raise TransportError(f"in-process batch has no {key!r} list")
        return document[key]
