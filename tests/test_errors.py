"""Unit tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.api import errors
from repro.core.analyzer import NonTransformableReason


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
        error = errors.UnknownTransportError("iiop", ["rmi", "soap"])
        assert "rmi" in str(error) and "soap" in str(error)

    def test_unknown_transport_error_with_no_alternatives(self):
        assert "none" in str(errors.UnknownTransportError("iiop"))

    def test_unknown_class_error(self):
        error = errors.UnknownClassError("Ghost")
        assert error.class_name == "Ghost"
        assert "Ghost" in str(error)
