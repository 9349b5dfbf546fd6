"""RMI-like transport.

A compact binary protocol inspired by Java RMI's JRMP: a two-byte magic, a
one-byte message type and an unaligned tag-length-value body.  As in JRMP, a
call carries its fields by position: a request or result is a positional
record with no field names (an error response, or any dict of another shape,
travels as a keyed map; see :mod:`repro.transports.codec`).  It is the
cheapest of the remote transports both in bytes on the wire and in simulated
marshalling cost, which is the role RMI plays in the paper's set of proxy
implementations.
"""

from __future__ import annotations

from repro._errors import TransportError
from repro.transports.base import BATCH_REQUEST, BATCH_RESPONSE, REQUEST, RESPONSE
from repro.transports.codec import BinaryTransport

_MAGIC = b"JR"


class RmiTransport(BinaryTransport):
    """Compact binary request/response protocol (JRMP-like)."""

    name = "rmi"
    processing_overhead = 0.00005
    alignment = 1
    message_types = {REQUEST: 0x50, RESPONSE: 0x51, BATCH_REQUEST: 0x52, BATCH_RESPONSE: 0x53}

    def pack_header(self, message_type: int, body: bytes) -> bytes:
        return _MAGIC + bytes((message_type,))

    def open_header(self, payload: bytes, expected_type: int) -> bytes:
        if len(payload) < 3 or payload[:2] != _MAGIC:
            raise TransportError("not an RMI message (bad magic)")
        if payload[2] != expected_type:
            raise TransportError(
                f"unexpected RMI message type 0x{payload[2]:02x}"
            )
        return payload[3:]
