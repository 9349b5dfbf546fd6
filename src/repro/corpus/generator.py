"""Deterministic generation of the synthetic JDK-like corpus.

Given a set of :class:`~repro.corpus.jdk_model.PackageProfile` entries and a
seed, :func:`generate_corpus` produces the full population of class
descriptors: per-package native-method and Throwable prevalence, an
intra-package inheritance forest, intra-package reference edges and
cross-package references following the declared dependencies.  The same seed
always yields the same corpus, so the transformability study (experiment E5)
is reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro._errors import CorpusError
from repro.corpus.jdk_model import (
    ClassDescriptor,
    JDK_1_4_1_PROFILES,
    PackageProfile,
)


@dataclass
class Corpus:
    """A generated population of class descriptors."""

    descriptors: list[ClassDescriptor] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.descriptors)

    def names(self) -> set[str]:
        return {descriptor.name for descriptor in self.descriptors}

    def native_class_count(self) -> int:
        return sum(1 for descriptor in self.descriptors if descriptor.has_native_methods)


def _class_name(package: str, index: int) -> str:
    stem = "".join(part.capitalize() for part in package.split("."))
    return f"{stem}Type{index:04d}"


#: Fraction of intra-package references that may point *upward* in the
#: package's layering.  Real library packages are layered — most references
#: point from higher-level classes down to lower-level helpers — which is
#: what keeps the §2.4 reference closure from engulfing whole packages.
UPWARD_REFERENCE_FRACTION = 0.05


def _generate_package(
    profile: PackageProfile, rng: random.Random
) -> list[ClassDescriptor]:
    """Generate one package as a *layered* population of classes.

    Classes are ordered by layer: the native-backed classes occupy the lowest
    layers (they sit at the bottom of the software stack, next to the
    platform), Throwable descendants come next (leaf classes that reference
    little), and the pure-Java bulk of the package sits on top.  References
    added later point predominantly downward, mirroring how real packages are
    layered and keeping the non-transformability closure realistic.
    """

    native_count = round(profile.class_count * profile.native_fraction)
    throwable_count = round(profile.class_count * profile.throwable_fraction)
    descriptors: list[ClassDescriptor] = []
    for index in range(profile.class_count):
        has_native = index < native_count
        is_throwable = (not has_native) and index < native_count + throwable_count
        is_interface = (
            not has_native
            and not is_throwable
            and rng.random() < profile.interface_fraction
        )
        descriptors.append(
            ClassDescriptor(
                name=_class_name(profile.name, index),
                package=profile.name,
                is_interface=is_interface,
                is_throwable=is_throwable,
                has_native_methods=has_native,
                method_count=rng.randint(2, 12),
                field_count=rng.randint(0, 6),
            )
        )

    # Intra-package inheritance: classes extend classes from lower layers,
    # producing shallow forests like real library packages.
    for index, descriptor in enumerate(descriptors):
        if descriptor.is_interface or index == 0:
            continue
        if rng.random() < 0.45:
            parent = descriptors[rng.randrange(0, index)]
            if not parent.is_interface:
                descriptor.superclass = parent.name
    return descriptors


#: Skew exponents for reference-target selection.  Real reference graphs are
#: heavily skewed: most references point at a package's small popular core
#: (java.lang.String, java.util.ArrayList, the AWT Component hierarchy), not
#: uniformly across the package.  Higher exponents concentrate references on
#: the low-index (core) classes.
INTRA_PACKAGE_SKEW = 2.0
CROSS_PACKAGE_SKEW = 3.0


def _skewed_index(limit: int, rng: random.Random, exponent: float) -> int:
    """Draw an index in ``[0, limit)`` skewed towards 0 (the popular core)."""
    if limit <= 1:
        return 0
    return int(limit * (rng.random() ** exponent))


def _pick_reference_target(
    descriptors: list[ClassDescriptor], index: int, rng: random.Random
) -> ClassDescriptor:
    """Pick an intra-package reference target, biased downward and towards the core."""
    if index > 0 and rng.random() >= UPWARD_REFERENCE_FRACTION:
        return descriptors[_skewed_index(index, rng, INTRA_PACKAGE_SKEW)]
    return descriptors[_skewed_index(len(descriptors), rng, INTRA_PACKAGE_SKEW)]


def _pick_cross_package_target(
    targets: list[ClassDescriptor], rng: random.Random
) -> ClassDescriptor:
    """Pick a cross-package reference target from the target package's core."""
    return targets[_skewed_index(len(targets), rng, CROSS_PACKAGE_SKEW)]


def _add_references(
    descriptors_by_package: dict[str, list[ClassDescriptor]],
    profiles: Sequence[PackageProfile],
    rng: random.Random,
) -> None:
    profile_by_name = {profile.name: profile for profile in profiles}
    for package, descriptors in descriptors_by_package.items():
        profile = profile_by_name[package]
        for index, descriptor in enumerate(descriptors):
            # Intra-package references (layer-biased).
            internal = _poisson_like(profile.internal_references, rng)
            for _ in range(internal):
                target = _pick_reference_target(descriptors, index, rng)
                if target.name != descriptor.name:
                    descriptor.references.append(target.name)
            # Cross-package references along declared dependencies.
            for dependency, mean_count in profile.dependencies.items():
                targets = descriptors_by_package.get(dependency)
                if not targets:
                    continue
                for _ in range(_poisson_like(mean_count, rng)):
                    descriptor.references.append(
                        _pick_cross_package_target(targets, rng).name
                    )
            # External inheritance (e.g. Swing components extending AWT ones).
            if (
                descriptor.superclass is None
                and not descriptor.is_interface
                and profile.external_inheritance > 0
                and rng.random() < profile.external_inheritance
                and profile.dependencies
            ):
                dependency = rng.choice(sorted(profile.dependencies))
                targets = [
                    candidate
                    for candidate in descriptors_by_package.get(dependency, [])
                    if not candidate.is_interface
                ]
                if targets:
                    descriptor.superclass = rng.choice(targets).name


def _poisson_like(mean: float, rng: random.Random) -> int:
    """A cheap integer approximation of a Poisson draw with the given mean."""
    if mean <= 0:
        return 0
    base = int(mean)
    remainder = mean - base
    return base + (1 if rng.random() < remainder else 0)


def generate_corpus(
    profiles: Sequence[PackageProfile] = JDK_1_4_1_PROFILES,
    seed: int = 1414,
) -> Corpus:
    """Generate the synthetic JDK-like corpus for the given profiles and seed."""
    if not profiles:
        raise CorpusError("at least one package profile is required")
    rng = random.Random(seed)
    descriptors_by_package: dict[str, list[ClassDescriptor]] = {}
    for profile in profiles:
        descriptors_by_package[profile.name] = _generate_package(profile, rng)
    _add_references(descriptors_by_package, profiles, rng)
    descriptors = [
        descriptor
        for package in descriptors_by_package.values()
        for descriptor in package
    ]
    return Corpus(descriptors=descriptors, seed=seed)


def generate_user_code(
    corpus: Corpus,
    class_count: int = 200,
    native_fraction: float = 0.0,
    references_into_jdk: float = 2.0,
    seed: int = 7,
) -> list[ClassDescriptor]:
    """Generate synthetic *user* classes layered on top of the JDK corpus.

    Each user class references a few JDK classes; ``native_fraction`` of them
    contain native methods.  The paper notes that the non-transformable
    percentage "would increase if the user code contains native methods which
    refer to a JDK class" — :func:`repro.corpus.analysis.user_code_sensitivity`
    measures exactly that effect using this generator.
    """

    rng = random.Random(seed)
    jdk_names = sorted(corpus.names())
    user_classes: list[ClassDescriptor] = []
    for index in range(class_count):
        references = [
            rng.choice(jdk_names)
            for _ in range(_poisson_like(references_into_jdk, rng))
        ]
        user_classes.append(
            ClassDescriptor(
                name=f"UserClass{index:04d}",
                package="com.example.app",
                has_native_methods=rng.random() < native_fraction,
                references=references,
                method_count=rng.randint(2, 8),
                field_count=rng.randint(0, 4),
            )
        )
    return user_classes
