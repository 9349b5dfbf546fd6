"""Unit tests for the §2.4 transformability analysis."""

from __future__ import annotations

import pytest

import sample_app
import sample_unsupported
from repro.api.errors import NotTransformableError
from repro.core.analyzer import (
    NonTransformableReason,
    TransformabilityAnalyzer,
)
from repro.core.introspect import class_model_from_descriptor, class_model_from_python
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy


def _models(*classes):
    return [class_model_from_python(cls) for cls in classes]


def _analyse(models):
    return TransformabilityAnalyzer(models).analyse()


class TestDirectRules:
    def test_native_methods_exclude_a_class(self):
        result = _analyse(_models(sample_unsupported.NativeIO))
        assert not result.is_transformable("NativeIO")
        assert NonTransformableReason.NATIVE_METHODS in result.reasons_for("NativeIO")

    def test_exception_classes_are_special(self):
        result = _analyse(_models(sample_unsupported.ProtocolError))
        assert not result.is_transformable("ProtocolError")
        assert NonTransformableReason.SPECIAL_CLASS in result.reasons_for("ProtocolError")

    def test_explicitly_excluded_class(self):
        result = TransformabilityAnalyzer(
            _models(sample_unsupported.CleanHelper), excluded={"CleanHelper"}
        ).analyse()
        assert not result.is_transformable("CleanHelper")
        assert NonTransformableReason.EXPLICIT_EXCLUSION in result.reasons_for("CleanHelper")

    def test_extra_special_class_names(self):
        result = TransformabilityAnalyzer(
            _models(sample_unsupported.CleanHelper),
            special_class_names={"CleanHelper"},
        ).analyse()
        assert not result.is_transformable("CleanHelper")

    def test_clean_class_is_transformable(self):
        result = _analyse(_models(sample_unsupported.CleanHelper))
        assert result.is_transformable("CleanHelper")

    def test_sample_application_fully_transformable(self):
        result = _analyse(_models(sample_app.X, sample_app.Y, sample_app.Z))
        for name in ("X", "Y", "Z"):
            assert result.is_transformable(name)


class TestClosureRules:
    def test_superclass_of_non_transformable_is_poisoned(self):
        result = _analyse(
            _models(sample_unsupported.BaseDevice, sample_unsupported.RawDevice)
        )
        assert not result.is_transformable("RawDevice")
        assert not result.is_transformable("BaseDevice")
        assert (
            NonTransformableReason.SUPERCLASS_OF_NON_TRANSFORMABLE
            in result.reasons_for("BaseDevice")
        )

    def test_classes_referenced_by_non_transformable_are_poisoned(self):
        result = _analyse(
            _models(sample_unsupported.NativeIO, sample_unsupported.Codec)
        )
        assert not result.is_transformable("Codec")
        assert (
            NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE
            in result.reasons_for("Codec")
        )

    def test_references_from_transformable_classes_do_not_poison(self):
        # X references Y and Z; all three are clean, so references are harmless.
        result = _analyse(_models(sample_app.X, sample_app.Y, sample_app.Z))
        assert not result.non_transformable

    def test_closure_is_transitive(self):
        a = class_model_from_descriptor("A", native_methods=["jni"])
        b = class_model_from_descriptor("B")
        c = class_model_from_descriptor("C")
        a.referenced_types.add("B")
        b.referenced_types.add("C")
        result = _analyse([a, b, c])
        assert not result.is_transformable("B")
        assert not result.is_transformable("C")

    def test_inheritance_chain_propagates_upwards(self):
        grandparent = class_model_from_descriptor("GrandParent")
        parent = class_model_from_descriptor("Parent", superclass="GrandParent")
        child = class_model_from_descriptor("Child", superclass="Parent", native_methods=["jni"])
        result = _analyse([grandparent, parent, child])
        assert not result.is_transformable("Parent")
        assert not result.is_transformable("GrandParent")

    def test_unknown_references_are_assumed_non_transformable(self):
        model = class_model_from_descriptor("App", references=["MysteryLib"])
        result = _analyse([model])
        assert not result.is_transformable("MysteryLib")
        assert NonTransformableReason.UNKNOWN_DEFINITION in result.reasons_for("MysteryLib")
        # The referencing class itself is unaffected (the edge points outwards).
        assert result.is_transformable("App")

    def test_unknown_handling_can_be_disabled(self):
        model = class_model_from_descriptor("App", references=["MysteryLib"])
        result = TransformabilityAnalyzer(
            [model], treat_unknown_as_non_transformable=False
        ).analyse()
        assert "MysteryLib" not in result.non_transformable


class TestAnalysisResult:
    def _result(self):
        return _analyse(
            _models(
                sample_unsupported.NativeIO,
                sample_unsupported.Codec,
                sample_unsupported.CleanHelper,
                sample_unsupported.ProtocolError,
            )
        )

    def test_every_class_has_exactly_one_outcome(self):
        result = self._result()
        assert set(result.transformable).isdisjoint(result.non_transformable)
        # ProtocolError's superclass is referenced but not supplied: it gets an outcome too.
        assert set(result.transformable) | set(result.non_transformable) == {
            "NativeIO", "Codec", "CleanHelper", "ProtocolError", "Exception"
        }
        assert result.total_classes == 5

    def test_direct_versus_propagated_partition(self):
        result = self._result()
        assert result.reasons_for("NativeIO") == {NonTransformableReason.NATIVE_METHODS}
        # Codec is clean itself: only the closure over NativeIO's references excludes it.
        assert result.reasons_for("Codec") == {
            NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE
        }

    def test_reasons_histogram_counts_classes(self):
        histogram = self._result().reasons_histogram()
        assert histogram[NonTransformableReason.NATIVE_METHODS] >= 1
        assert histogram[NonTransformableReason.SPECIAL_CLASS] >= 1

    def test_require_transformable_raises_with_reasons(self):
        result = self._result()
        with pytest.raises(NotTransformableError) as excinfo:
            result.require_transformable("NativeIO")
        assert "NativeIO" in str(excinfo.value)
        result.require_transformable("CleanHelper")  # should not raise

    def test_empty_universe_has_no_classes(self):
        result = _analyse([])
        assert result.total_classes == 0 and not result.non_transformable


class TestSubstitutability:
    """The transformer substitutes a class when it is transformable and the policy allows it."""

    def test_policy_restricts_substitutable_set(self):
        policy = all_local_policy()
        policy.set_class("Z", substitutable=False)
        app = ApplicationTransformer(policy).transform([sample_app.X, sample_app.Y, sample_app.Z])
        assert app.transformed_classes() == {"X", "Y"}

    def test_non_transformable_class_cannot_be_substitutable(self):
        classes = [sample_unsupported.NativeIO, sample_unsupported.CleanHelper]
        app = ApplicationTransformer().transform(classes)
        assert app.transformed_classes() == {"CleanHelper"}
        with pytest.raises(NotTransformableError, match="NativeIO"):
            ApplicationTransformer(strict=True).transform(classes)

    def test_default_is_every_transformable_class(self):
        app = ApplicationTransformer().transform([sample_app.X, sample_app.Y])
        assert app.transformed_classes() == {"X", "Y"}
