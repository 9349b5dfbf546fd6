"""Interchangeable wire protocols behind the generated proxy classes."""

from repro.transports.base import (
    BATCH_FRAME_MARKER,
    Transport,
    TransportRegistry,
    frame_message,
    parse_frame,
    unframe_message,
)
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

__all__ = [
    "BATCH_FRAME_MARKER",
    "CorbaTransport",
    "InProcTransport",
    "RmiTransport",
    "SoapTransport",
    "Transport",
    "TransportRegistry",
    "frame_message",
    "parse_frame",
    "unframe_message",
]
