"""CORBA-like transport.

Mimics the structure of GIOP/IIOP messages: a 12-byte GIOP header (magic,
version, flags, message type, body length) followed by a CDR-style body in
which primitive values are aligned to their natural boundaries.  As in GIOP,
a request carries its object key, operation and arguments by position
and a reply its result: each is a positional record with no field
names (an error response, or any dict of another shape, travels as a keyed
map; see :mod:`repro.transports.codec`).  The
alignment padding makes CORBA messages slightly larger than the RMI-like
ones, and its marshalling charge sits between RMI and SOAP — preserving the
relative cost ordering of the three middleware families the paper names.
"""

from __future__ import annotations

import struct

from repro._errors import TransportError
from repro.transports.base import BATCH_REQUEST, BATCH_RESPONSE, REQUEST, RESPONSE
from repro.transports.codec import BinaryTransport

_MAGIC = b"GIOP"
_VERSION = (1, 2)
_HEADER = struct.Struct("!4sBBBBI")  # magic, major, minor, flags, type, body length


class CorbaTransport(BinaryTransport):
    """GIOP-framed, CDR-aligned binary protocol."""

    name = "corba"
    processing_overhead = 0.00012
    alignment = 8
    message_types = {REQUEST: 0, RESPONSE: 1, BATCH_REQUEST: 2, BATCH_RESPONSE: 3}

    def pack_header(self, message_type: int, body: bytes) -> bytes:
        return _HEADER.pack(_MAGIC, _VERSION[0], _VERSION[1], 0, message_type, len(body))

    def open_header(self, payload: bytes, expected_type: int) -> bytes:
        if len(payload) < _HEADER.size:
            raise TransportError("truncated GIOP message")
        magic, major, minor, _flags, message_type, length = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise TransportError("not a GIOP message (bad magic)")
        if (major, minor) != _VERSION:
            raise TransportError(f"unsupported GIOP version {major}.{minor}")
        if message_type != expected_type:
            raise TransportError(f"unexpected GIOP message type {message_type}")
        body = payload[_HEADER.size :]
        if len(body) != length:
            raise TransportError("GIOP body length mismatch")
        return body
