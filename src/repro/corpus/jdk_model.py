"""Descriptors for the synthetic JDK-like class corpus.

The paper reports that "about 40 % of the 8,200 classes and interfaces in JDK
1.4.1 cannot be transformed".  We do not have the JDK class files, so the
corpus substitutes a synthetic population that reproduces the *structural*
properties the §2.4 analysis consumes: which classes contain native methods,
which are Throwable descendants, how classes reference one another and how
they inherit.  :class:`PackageProfile` captures per-package prevalence of
those properties (AWT and the ``sun.*`` implementation packages are
native-heavy, the collections and Swing packages are almost pure Java, and
so on), mirroring the composition of JDK 1.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.classmodel import ClassModel
from repro.core.introspect import class_model_from_descriptor


@dataclass
class ClassDescriptor:
    """Plain-data description of one corpus class or interface."""

    name: str
    package: str
    is_interface: bool = False
    is_throwable: bool = False
    has_native_methods: bool = False
    superclass: Optional[str] = None
    references: list[str] = field(default_factory=list)
    method_count: int = 4
    field_count: int = 2

    def to_class_model(self) -> ClassModel:
        instance_methods = [f"method_{index}" for index in range(self.method_count)]
        native_methods = instance_methods[:1] if self.has_native_methods else []
        return class_model_from_descriptor(
            self.name,
            module=self.package,
            superclass=self.superclass,
            instance_fields=[f"field_{index}" for index in range(self.field_count)],
            instance_methods=instance_methods,
            native_methods=native_methods,
            references=self.references,
            is_interface=self.is_interface,
            is_exception=self.is_throwable,
        )


@dataclass
class PackageProfile:
    """Statistical profile of one package of the synthetic JDK."""

    name: str
    class_count: int
    #: Fraction of classes containing at least one native method.
    native_fraction: float = 0.0
    #: Fraction of classes that are Throwable descendants.
    throwable_fraction: float = 0.02
    #: Fraction of types that are interfaces.
    interface_fraction: float = 0.15
    #: Mean number of intra-package references per class.
    internal_references: float = 2.0
    #: Packages this package references, with the mean number of references
    #: per class into each of them.
    dependencies: dict[str, float] = field(default_factory=dict)
    #: Fraction of classes whose superclass lies in a dependency package
    #: (otherwise superclasses are intra-package or absent).
    external_inheritance: float = 0.0


#: Package profiles approximating the composition of JDK 1.4.1 (~8,200 types).
#: Class counts sum to 8,200; native prevalence follows the well-known split
#: between the native-backed platform packages (java.lang, java.io, java.net,
#: java.awt, sun.*) and the pure-Java libraries (collections, Swing, CORBA
#: stubs, XML).
JDK_1_4_1_PROFILES: tuple[PackageProfile, ...] = (
    PackageProfile(
        "java.lang", 320, native_fraction=0.40, throwable_fraction=0.18,
        interface_fraction=0.10, internal_references=2.5,
    ),
    PackageProfile(
        "java.io", 220, native_fraction=0.30, throwable_fraction=0.10,
        internal_references=2.0, dependencies={"java.lang": 1.5},
    ),
    PackageProfile(
        "java.net", 160, native_fraction=0.30, throwable_fraction=0.10,
        internal_references=1.5, dependencies={"java.lang": 1.0, "java.io": 1.0},
    ),
    PackageProfile(
        "java.nio", 180, native_fraction=0.35, throwable_fraction=0.05,
        internal_references=2.0, dependencies={"java.lang": 1.0},
    ),
    PackageProfile(
        "java.util", 820, native_fraction=0.04, throwable_fraction=0.03,
        interface_fraction=0.20, internal_references=2.5,
        dependencies={"java.lang": 1.0},
    ),
    PackageProfile(
        "java.text", 110, native_fraction=0.05, internal_references=2.0,
        dependencies={"java.lang": 0.5, "java.util": 0.5},
    ),
    PackageProfile(
        "java.awt", 940, native_fraction=0.35, throwable_fraction=0.02,
        interface_fraction=0.18, internal_references=3.0,
        dependencies={"java.lang": 1.0, "java.util": 0.5},
    ),
    PackageProfile(
        "javax.swing", 1520, native_fraction=0.01, throwable_fraction=0.01,
        interface_fraction=0.18, internal_references=3.0,
        dependencies={"java.awt": 1.5, "java.util": 0.5, "java.lang": 0.5},
        external_inheritance=0.15,
    ),
    PackageProfile(
        "java.security", 420, native_fraction=0.08, throwable_fraction=0.12,
        internal_references=2.0, dependencies={"java.lang": 0.5, "java.util": 0.5},
    ),
    PackageProfile(
        "java.sql", 260, native_fraction=0.01, throwable_fraction=0.08,
        interface_fraction=0.45, internal_references=1.5,
        dependencies={"java.util": 0.5, "java.lang": 0.5},
    ),
    PackageProfile(
        "java.rmi", 160, native_fraction=0.10, throwable_fraction=0.20,
        internal_references=1.5, dependencies={"java.lang": 0.5, "java.net": 0.5},
    ),
    PackageProfile(
        "java.beans", 140, native_fraction=0.03, internal_references=1.5,
        dependencies={"java.lang": 0.5, "java.util": 0.5},
    ),
    PackageProfile(
        "org.omg", 920, native_fraction=0.005, throwable_fraction=0.15,
        interface_fraction=0.40, internal_references=2.0,
    ),
    PackageProfile(
        "javax.xml", 430, native_fraction=0.005, throwable_fraction=0.05,
        interface_fraction=0.45, internal_references=2.0,
    ),
    PackageProfile(
        "sun.misc", 680, native_fraction=0.30, throwable_fraction=0.03,
        internal_references=2.0, dependencies={"java.lang": 1.0, "java.io": 0.5},
    ),
    PackageProfile(
        "sun.awt", 560, native_fraction=0.45, throwable_fraction=0.01,
        internal_references=2.5, dependencies={"java.awt": 1.5, "java.lang": 0.5},
    ),
    PackageProfile(
        "com.sun.corba", 360, native_fraction=0.05, throwable_fraction=0.05,
        internal_references=2.0, dependencies={"org.omg": 1.0},
    ),
)


def descriptors_to_models(descriptors: Iterable[ClassDescriptor]) -> list[ClassModel]:
    """Convert descriptors into the class models the analyser consumes."""
    return [descriptor.to_class_model() for descriptor in descriptors]
