"""SOAP-like transport.

Encodes invocation requests and responses as XML envelopes, mimicking the
shape (and the verbosity) of SOAP 1.1 messages: an ``Envelope`` containing a
``Body`` with either an ``Invoke`` element or an ``InvokeResponse`` /
``Fault`` element.  Values are encoded as nested ``value`` elements carrying
an ``xsi:type``-style attribute.

The point of this transport in the reproduction is not wire-level
compatibility with real SOAP stacks (unavailable offline) but preserving the
characteristics that matter for the paper's claims: a much larger message
size and higher marshalling cost than the binary protocols, while remaining
fully interchangeable with them behind the same extracted interfaces.
"""

from __future__ import annotations

import base64
import re
import xml.etree.ElementTree as ET
from typing import Any

from repro._errors import TransportError
from repro.transports.base import (
    BATCH_REQUEST,
    BATCH_RESPONSE,
    REQUEST,
    RESPONSE,
    Live,
    Transport,
)

_ENVELOPE = "Envelope"
_BODY = "Body"
_INVOKE = "Invoke"
_RESPONSE = "InvokeResponse"
_FAULT = "Fault"
_BATCH = "InvokeBatch"
_BATCH_RESPONSE = "InvokeBatchResponse"

#: Characters that cannot appear in an XML 1.0 document at all (even escaped),
#: plus carriage return, which XML parsers normalise away and which therefore
#: would not survive a round trip as literal text.
_XML_ILLEGAL = re.compile(
    "[\x00-\x08\x0b\x0c\x0d\x0e-\x1f\x7f\ud800-\udfff￾￿]"
)

#: Characters an XML attribute value cannot carry literally: everything the
#: text rule rejects plus tab and newline, which attribute-value
#: normalisation (XML 1.0 §3.3.3) would silently turn into spaces.
_XML_ATTR_ILLEGAL = re.compile(
    "[\x00-\x1f\x7f\ud800-\udfff￾￿]"
)


def _encode_text(value: str) -> tuple[str, bool]:
    """Return (text, base64?) — strings XML cannot carry are base64-wrapped."""
    if _XML_ILLEGAL.search(value):
        return base64.b64encode(value.encode("utf-8", "surrogatepass")).decode("ascii"), True
    return value, False


def _decode_text(text: str, encoded: bool) -> str:
    if encoded:
        return base64.b64decode(text.encode("ascii")).decode("utf-8", "surrogatepass")
    return text


def _set_attr(element: ET.Element, name: str, value: str) -> None:
    """Set an attribute, base64-wrapping values XML attributes cannot carry."""
    if _XML_ATTR_ILLEGAL.search(value):
        element.set(
            name,
            base64.b64encode(value.encode("utf-8", "surrogatepass")).decode("ascii"),
        )
        element.set(f"{name}-enc", "base64")
    else:
        element.set(name, value)


def _get_attr(element: ET.Element, name: str, default: str = "") -> str:
    return _decode_text(
        element.get(name, default), element.get(f"{name}-enc") == "base64"
    )


def _value_to_element(value: Any, tag: str = "value") -> ET.Element:
    element = ET.Element(tag)
    if value is None:
        element.set("type", "null")
    elif isinstance(value, bool):
        element.set("type", "boolean")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = int.__repr__(value)  # an IntEnum's str() is its name before 3.11
    elif isinstance(value, float):
        element.set("type", "double")
        element.text = float.__repr__(value)
    elif isinstance(value, str):
        element.set("type", "string")
        text, encoded = _encode_text(value)
        element.text = text
        if encoded:
            element.set("enc", "base64")
    elif isinstance(value, (list, tuple)):
        element.set("type", "array")
        for item in value:
            element.append(_value_to_element(item, "item"))
    elif isinstance(value, dict):
        element.set("type", "struct")
        for key, item in value.items():
            if not isinstance(key, str):
                raise TransportError("SOAP struct keys must be strings")
            member = _value_to_element(item, "member")
            _set_attr(member, "name", key)
            element.append(member)
    elif type(value) is Live:
        return _value_to_element(value.to_wire(), tag)
    else:
        raise TransportError(
            f"value of type {type(value).__name__} is not a wire value"
        )
    return element


def _element_to_value(element: ET.Element) -> Any:
    kind = element.get("type", "null")
    if kind == "null":
        return None
    if kind == "boolean":
        return element.text == "true"
    if kind == "int":
        return int(element.text or "0")
    if kind == "double":
        return float(element.text or "0.0")
    if kind == "string":
        return _decode_text(element.text or "", element.get("enc") == "base64")
    if kind == "array":
        return [_element_to_value(child) for child in element]
    if kind == "struct":
        return {_get_attr(child, "name"): _element_to_value(child) for child in element}
    raise TransportError(f"unknown SOAP value type {kind!r}")


def _write_invoke(parent: ET.Element, request: dict) -> None:
    invoke = ET.SubElement(parent, _INVOKE)
    # A request without a target or a member travels without the attribute,
    # and its reader refuses the whole frame, as the binary protocols do.
    for attribute in ("target", "member"):
        if attribute in request:
            _set_attr(invoke, attribute, str(request[attribute]))
    arguments = ET.SubElement(invoke, "arguments")
    arguments.extend([_value_to_element(argument, "argument")
                      for argument in request.get("args", [])])
    # Keywords, and call-control fields (deadline, tenant, call id) as one
    # struct-typed header element, travel only in a request that has them.
    if "kwargs" in request:
        keywords = ET.SubElement(invoke, "keywords")
        for key, value in request["kwargs"].items():
            keyword = _value_to_element(value, "keyword")
            _set_attr(keyword, "name", key)
            keywords.append(keyword)
    if request.get("ctx"):
        invoke.append(_value_to_element(request["ctx"], "context"))


def _read_invoke(invoke: ET.Element) -> dict:
    if invoke.tag != _INVOKE:
        raise TransportError(f"unexpected SOAP request element {invoke.tag!r}")
    request = {
        attribute: _get_attr(invoke, attribute)
        for attribute in ("target", "member") if attribute in invoke.attrib
    }
    request["args"] = [_element_to_value(child) for child in invoke.iterfind("arguments/*")]
    keywords, context = invoke.find("keywords"), invoke.find("context")
    if keywords is not None:
        request["kwargs"] = {_get_attr(child, "name"): _element_to_value(child)
                             for child in keywords}
    if context is not None:
        request["ctx"] = _element_to_value(context)
    return request


def _write_response(parent: ET.Element, response: dict) -> None:
    if "error" in response and response["error"] is not None:
        fault = ET.SubElement(parent, _FAULT)
        _set_attr(fault, "faultcode", str(response["error"].get("type", "Server")))
        _set_attr(fault, "faultstring", str(response["error"].get("message", "")))
    else:
        result = ET.SubElement(parent, _RESPONSE)
        result.append(_value_to_element(response.get("result"), "return"))


def _read_response(element: ET.Element) -> dict:
    if element.tag == _FAULT:
        return {
            "error": {
                "type": _get_attr(element, "faultcode", "Server"),
                "message": _get_attr(element, "faultstring"),
            }
        }
    if element.tag == _RESPONSE:
        returned = element.find("return")
        return {"result": _element_to_value(returned) if returned is not None else None}
    raise TransportError(f"unexpected SOAP response element {element.tag!r}")


# How one message is written and read, and the tags its element may carry (a
# Body is searched for them in this order: a fault wins over a result).
_REQUESTS = ((_INVOKE,), _write_invoke, _read_invoke)
_RESPONSES = ((_FAULT, _RESPONSE), _write_response, _read_response)
#: Per frame kind: the element wrapping a batch's messages — ``None`` for a
#: single frame, whose one message sits in the Body itself — then the above.
_FRAMES = {
    REQUEST: (None, *_REQUESTS),
    RESPONSE: (None, *_RESPONSES),
    BATCH_REQUEST: (_BATCH, *_REQUESTS),
    BATCH_RESPONSE: (_BATCH_RESPONSE, *_RESPONSES),
}


class SoapTransport(Transport):
    """XML-envelope transport; verbose but human-readable on the wire.

    One envelope per frame.  Its Body holds the message's element or, for a
    batch, one ``InvokeBatch`` / ``InvokeBatchResponse`` element with the N
    messages as children — the envelope and XML declaration are paid once for
    the whole batch.
    """

    name = "soap"
    #: Parsing and building XML costs more CPU than binary packing; the
    #: simulated per-call processing charge reflects that.
    processing_overhead = 0.00030

    def encode_frame(self, kind: str, messages: list) -> bytes:
        wrapper, _tags, write, _read = _FRAMES[kind]
        envelope = ET.Element(_ENVELOPE)
        parent = ET.SubElement(envelope, _BODY)
        if wrapper is not None:
            parent = ET.SubElement(parent, wrapper)
            parent.set("count", str(len(messages)))
        for message in messages:
            write(parent, message)
        return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)

    def decode_frame(self, kind: str, payload: bytes) -> list:
        wrapper, tags, _write, read = _FRAMES[kind]
        try:
            envelope = ET.fromstring(payload)
        except ET.ParseError as exc:
            raise TransportError(f"malformed SOAP message: {exc}") from exc
        body = envelope.find(_BODY)
        if body is None:
            raise TransportError("SOAP message has no Body")
        if wrapper is None:
            for tag in tags:
                element = body.find(tag)
                if element is not None:
                    return [read(element)]
            raise TransportError(f"SOAP message has no {' or '.join(tags)} element")
        batch = body.find(wrapper)
        if batch is None:
            raise TransportError(f"SOAP message has no {wrapper} element")
        messages = [read(child) for child in batch]
        declared = batch.get("count")
        if declared is not None and declared != str(len(messages)):
            raise TransportError(
                f"SOAP batch declares {declared!r} entries but carries {len(messages)}"
            )
        return messages
