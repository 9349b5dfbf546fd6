"""Unit tests for whole-application transformation executed in one address space.

This is the paper's §4 claim: the transformations act on a non-distributed
program to produce a componentised, semantically equivalent version, and the
local version of the transformed application executes within a single address
space.
"""

from __future__ import annotations

import pytest

import sample_app
import sample_unsupported
from repro.api.errors import NotTransformableError, TransformationError, UnknownClassError
from repro.core.analyzer import NonTransformableReason
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import ClassPolicy, DistributionPolicy, all_local_policy

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


class TestTransformDriver:
    def test_transform_returns_an_application_with_all_classes(self):
        app = ApplicationTransformer().transform(CLASSES)
        assert app.transformed_classes() == {"X", "Y", "Z"}

    def test_one_proxy_is_generated_per_interface(self):
        artifacts = ApplicationTransformer().transform(CLASSES).artifacts("X")
        assert artifacts.proxy_cls.__name__ == "X_O_Proxy"
        assert artifacts.class_proxy_cls.__name__ == "X_C_Proxy"

    def test_class_models_can_be_passed_directly(self):
        from repro.core.introspect import class_model_from_python

        models = [class_model_from_python(cls) for cls in CLASSES]
        app = ApplicationTransformer().transform(models)
        assert app.is_transformed("X")

    def test_empty_input_is_an_error(self):
        with pytest.raises(TransformationError):
            ApplicationTransformer().transform([])

    def test_invalid_input_is_an_error(self):
        with pytest.raises(TransformationError):
            ApplicationTransformer().transform(["not-a-class"])  # type: ignore[list-item]

    def test_unknown_class_lookup_raises(self):
        app = ApplicationTransformer().transform(CLASSES)
        with pytest.raises(UnknownClassError):
            app.artifacts("Missing")

    def test_non_transformable_classes_are_left_out(self):
        app = ApplicationTransformer().transform(
            CLASSES + [sample_unsupported.NativeIO, sample_unsupported.ProtocolError]
        )
        assert not app.is_transformed("NativeIO")
        assert not app.is_transformed("ProtocolError")
        assert app.is_transformed("X")

    def test_strict_mode_raises_for_non_transformable_input(self):
        transformer = ApplicationTransformer(strict=True)
        with pytest.raises(NotTransformableError):
            transformer.transform(CLASSES + [sample_unsupported.NativeIO])

    def test_policy_exclusion_is_honoured(self):
        policy = all_local_policy()
        policy.set_class("Z", substitutable=False)
        app = ApplicationTransformer(policy).transform(CLASSES)
        assert not app.is_transformed("Z")
        assert app.is_transformed("X")

    @pytest.mark.parametrize("key", ["X", "X*", "[X]"])
    def test_a_pattern_exclusion_is_an_exact_one(self, key):
        """X references Y and Z, so excluding X keeps them untransformed too."""
        policy = all_local_policy()
        policy.set_class(key, substitutable=False)
        app = ApplicationTransformer(policy).transform(CLASSES)
        assert app.transformed_classes() == set()
        assert app.analysis.non_transformable == {
            "X": {NonTransformableReason.EXPLICIT_EXCLUSION},
            "Y": {NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE},
            "Z": {NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE},
        }

    def test_an_unsubstitutable_default_is_an_exclusion(self):
        """The default excludes X and Z like an entry would, so Y, which X
        references, stays original although its own entry is substitutable."""
        policy = DistributionPolicy(default=ClassPolicy(substitutable=False))
        policy.set_class("Y")
        app = ApplicationTransformer(policy).transform(CLASSES)
        assert app.transformed_classes() == set()
        assert app.analysis.non_transformable["X"] == {NonTransformableReason.EXPLICIT_EXCLUSION}
        assert app.analysis.non_transformable["Y"] == {
            NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE
        }


class TestSingleAddressSpaceExecution:
    @pytest.fixture
    def app(self):
        return ApplicationTransformer().transform(CLASSES)

    def test_program_behaviour_matches_original(self, app):
        for base, j, i in [(0, 0, 0), (5, 3, 2), (-4, 10, 7)]:
            expected = sample_app.run_original(base, j, i)
            y = app.new("Y", base)
            x = app.new("X", y)
            observed = (x.m(j), app.statics("X").p(i), app.statics("Y").get_K())
            assert observed == expected

    def test_new_applies_the_local_policy(self, app):
        assert type(app.new("Y", 1)).__name__ == "Y_O_Local"

    def test_objects_are_interface_typed(self, app):
        y = app.new("Y", 1)
        assert isinstance(y, app.artifacts("Y").instance_interface_cls)

    def test_independent_instances_do_not_share_state(self, app):
        first = app.new("Y", 1)
        second = app.new("Y", 100)
        assert first.n(0) == 1
        assert second.n(0) == 100

    def test_statics_shared_across_instances(self, app):
        # X.p uses the class singleton regardless of which instance exists.
        app.new("X", app.new("Y", 0))
        assert app.statics("X").p(2) == sample_app.X.p(2)

    def test_unbound_application_has_no_cluster(self, app):
        assert not app.is_bound
        assert app.cluster is None
        assert app.current_space is None

    def test_executing_on_requires_deployment(self, app):
        with pytest.raises(TransformationError):
            with app.executing_on("anywhere"):
                pass

    def test_emit_sources_available_for_every_class(self, app):
        for name in ("X", "Y", "Z"):
            sources = app.emit_sources(name)
            assert f"{name}_O_Int" in sources

    def test_handles_list_empty_without_dynamic_policy(self, app):
        app.new("Y", 1)
        assert app.handles() == []


class TestNamespaceSeeding:
    def test_module_globals_are_visible_to_rewritten_code(self):
        """Rewritten bodies may reference helpers from the original module."""
        app = ApplicationTransformer().transform(CLASSES)
        assert "run_original" in app.registry.namespace

    def test_registry_namespace_contains_generated_artifacts(self):
        app = ApplicationTransformer().transform(CLASSES)
        namespace = app.registry.namespace
        for name in ("X_O_Int", "X_O_Local", "X_O_Factory", "X_C_Factory"):
            assert name in namespace
