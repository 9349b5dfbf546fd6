"""Unit tests for the exception hierarchy."""

from __future__ import annotations

import builtins

import pytest

import matrix
from repro.api import errors
from repro.core.analyzer import NonTransformableReason
from repro.runtime.invocation import read_response


class TestHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        error_classes = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert len(error_classes) > 15
        for error_class in error_classes:
            assert issubclass(error_class, errors.ReproError)

    def test_subsystem_groupings(self):
        assert issubclass(errors.NotTransformableError, errors.TransformationError)
        assert issubclass(errors.RedistributionError, errors.RuntimeLayerError)
        assert issubclass(errors.PartitionError, errors.NetworkError)
        assert issubclass(errors.UnknownTransportError, errors.TransportError)

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.MessageDroppedError("gone")


class TestErrorPayloads:
    def test_not_transformable_error_reports_reasons(self):
        error = errors.NotTransformableError(
            "NativeIO", [NonTransformableReason.NATIVE_METHODS]
        )
        assert error.class_name == "NativeIO"
        assert "native" in str(error)

    def test_not_transformable_error_without_reasons(self):
        assert "unknown reason" in str(errors.NotTransformableError("Thing"))

    def test_remote_invocation_error_carries_remote_details(self):
        error = errors.RemoteInvocationError("KeyError", "missing key")
        assert error.remote_type == "KeyError"
        assert "missing key" in str(error)

    def test_unknown_transport_error_lists_available(self):
        error = errors.UnknownTransportError("iiop", matrix.TRANSPORTS)
        assert all(name in str(error) for name in matrix.TRANSPORTS)

    def test_unknown_transport_error_with_no_alternatives(self):
        assert "none" in str(errors.UnknownTransportError("iiop"))

    def test_unknown_class_error(self):
        error = errors.UnknownClassError("Ghost")
        assert error.class_name == "Ghost"
        assert "Ghost" in str(error)


def remote_error(remote_type, message):
    """What a caller raises for an error response of ``remote_type``."""
    value, error = read_response({"error": {"type": remote_type, "message": message}})
    assert value is None
    return error


class TestRemoteErrors:
    """A remote error of a builtin type is also that type; control-plane
    rejections keep their own classes; anything else stays plain."""

    @pytest.mark.parametrize("name", ["KeyError", "ValueError", "OSError", "StopIteration"])
    def test_a_builtin_error_keeps_its_type(self, name):
        error = remote_error(name, "missing ключ")
        assert isinstance(error, errors.RemoteInvocationError)
        assert isinstance(error, getattr(builtins, name))
        assert error.remote_type == name and error.remote_message == "missing ключ"
        # KeyError's own str would quote the message; the remote form does not.
        assert str(error) == f"remote {name}: missing ключ"
        assert type(error) is type(remote_error(name, "again"))  # one class per name

    @pytest.mark.parametrize(
        "name",
        ["ExceptionGroup", "UnicodeDecodeError", "UnicodeEncodeError", "UnicodeTranslateError",
         "SystemExit", "KeyboardInterrupt", "Orders", "len", "RemoteInvocationError"],
    )
    def test_other_names_fall_back_to_a_plain_remote_error(self, name):
        error = remote_error(name, "boom")
        assert type(error) is errors.RemoteInvocationError
        assert str(error) == f"remote {name}: boom"

    @pytest.mark.parametrize(
        "cls", [errors.DeadlineExceededError, errors.FencedError, errors.QuorumLostError,
                errors.RateLimitError, errors.ThrottledError],
    )
    def test_control_plane_errors_keep_their_classes(self, cls):
        error = remote_error(cls.__name__, "refused")
        assert type(error) is cls and str(error) == "refused"
