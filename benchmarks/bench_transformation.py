"""Experiments E2-E4 (Figures 3-5): cost of the transformation itself.

The paper presents the transformation as an offline step; these benchmarks
measure what that step costs in the reproduction — building class models by
reflection, extracting interfaces, generating the live artifacts (one proxy
per interface, whatever the transport), and emitting the Figures 3-5 source
listings.
"""

from __future__ import annotations

from _helpers import transform_sample
# isort: split  (the _helpers import put src/ and tests/ on sys.path)

import sample_app
from repro.core.codegen import emit_class_artifacts
from repro.core.interfaces import extract_class_interface, extract_instance_interface
from repro.core.introspect import class_model_from_python
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.workloads.figure1 import A, B, C
from repro.workloads.orders import Catalog, CustomerSession, OrderStore
from repro.workloads.pipeline import Buffer, Consumer, Producer
from repro.workloads.shared_cache import Cache, CacheClient

ALL_WORKLOAD_CLASSES = [
    sample_app.X, sample_app.Y, sample_app.Z,
    A, B, C,
    Cache, CacheClient,
    Buffer, Producer, Consumer,
    Catalog, OrderStore, CustomerSession,
]


def bench_introspection(benchmark):
    """Reflection: build a class model for the sample class X."""
    model = benchmark(class_model_from_python, sample_app.X)
    assert model.get_method("m") is not None


def bench_interface_extraction(benchmark):
    """Figures 3/4: extract both interfaces of X."""
    model = class_model_from_python(sample_app.X)

    def run():
        return (
            extract_instance_interface(model, {"X", "Y", "Z"}),
            extract_class_interface(model, {"X", "Y", "Z"}),
        )

    instance, class_interface = benchmark(run)
    assert instance.method_names() == ["get_y", "set_y", "m"]
    assert class_interface.method_names() == ["get_z", "set_z", "p"]


def bench_whole_application_transformation(benchmark):
    """Transform the three Figure 2 classes end to end."""
    app = benchmark(transform_sample)
    assert app.transformed_classes() == {"X", "Y", "Z"}
    benchmark.extra_info["generated_artifacts_per_class"] = len(app.artifacts("X").sources)


def bench_transformation_scales_with_class_count(benchmark):
    """Transform every workload class shipped with the reproduction (14 classes)."""

    def run():
        return ApplicationTransformer(all_local_policy()).transform(ALL_WORKLOAD_CLASSES)

    app = benchmark(run)
    assert len(app.transformed_classes()) == len(ALL_WORKLOAD_CLASSES)
    benchmark.extra_info["classes_transformed"] = len(ALL_WORKLOAD_CLASSES)


def bench_source_emission(benchmark):
    """Figures 3-5: emit the full set of source listings for X."""
    universe = {
        cls.__name__: class_model_from_python(cls)
        for cls in (sample_app.X, sample_app.Y, sample_app.Z)
    }

    def run():
        return emit_class_artifacts(universe["X"], set(universe), universe)

    sources = benchmark(run)
    assert "X_O_Factory" in sources
    benchmark.extra_info["emitted_listings"] = len(sources)
