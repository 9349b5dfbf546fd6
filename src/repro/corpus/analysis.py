"""The JDK transformability study (experiment E5).

Runs the §2.4 transformability analysis over the synthetic JDK-like corpus
and reports the fraction of classes that cannot be transformed, the breakdown
per package and per reason, and the sensitivity of that fraction to user code
containing native methods that reference JDK classes — the three quantitative
statements §2.4 makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.analyzer import AnalysisResult, TransformabilityAnalyzer
from repro.core.classmodel import ClassUniverse
from repro.corpus.generator import Corpus, generate_corpus, generate_user_code
from repro.corpus.jdk_model import ClassDescriptor, descriptors_to_models


@dataclass
class PackageBreakdown:
    """Per-package transformability figures."""

    package: str
    total: int
    non_transformable: int

    @property
    def fraction(self) -> float:
        return self.non_transformable / self.total if self.total else 0.0


@dataclass
class StudyResult:
    """Outcome of one transformability study over a corpus."""

    corpus_size: int
    non_transformable: int
    analysis: AnalysisResult
    packages: list[PackageBreakdown] = field(default_factory=list)

    @property
    def fraction_non_transformable(self) -> float:
        return self.non_transformable / self.corpus_size if self.corpus_size else 0.0

    @property
    def percent_non_transformable(self) -> float:
        return 100.0 * self.fraction_non_transformable

    def reasons(self) -> dict[str, int]:
        return {
            str(reason): count
            for reason, count in sorted(
                self.analysis.reasons_histogram().items(), key=lambda item: str(item[0])
            )
        }


def run_study(
    corpus: Corpus, extra_descriptors: Sequence[ClassDescriptor] = ()
) -> StudyResult:
    """Run the transformability analysis over ``corpus`` (+ optional user code)."""
    descriptors = list(corpus.descriptors) + list(extra_descriptors)
    models = descriptors_to_models(descriptors)
    universe = ClassUniverse(models)
    analyzer = TransformabilityAnalyzer(universe)
    analysis = analyzer.analyse()

    corpus_names = {descriptor.name for descriptor in corpus.descriptors}
    non_transformable_in_corpus = sum(
        1 for name in corpus_names if not analysis.is_transformable(name)
    )

    packages: dict[str, list[str]] = {}
    for descriptor in corpus.descriptors:
        packages.setdefault(descriptor.package, []).append(descriptor.name)
    breakdowns = [
        PackageBreakdown(
            package=package,
            total=len(names),
            non_transformable=sum(
                1 for name in names if not analysis.is_transformable(name)
            ),
        )
        for package, names in sorted(packages.items())
    ]
    return StudyResult(
        corpus_size=len(corpus_names),
        non_transformable=non_transformable_in_corpus,
        analysis=analysis,
        packages=breakdowns,
    )


@dataclass
class SensitivityPoint:
    """One point of the user-code sensitivity sweep."""

    native_fraction: float
    user_classes: int
    percent_non_transformable: float
    percent_increase_over_baseline: float


def user_code_sensitivity(
    corpus: Optional[Corpus] = None,
    *,
    user_classes: int = 400,
    native_fractions: Sequence[float] = (0.0, 0.05, 0.10, 0.25, 0.50),
    seed: int = 7,
) -> list[SensitivityPoint]:
    """Measure how user native code referencing JDK classes raises the figure.

    For each fraction of user classes containing native methods, the study is
    re-run over the JDK corpus plus that user code; the reported percentage is
    computed over the *JDK* classes only, so an increase means JDK classes
    that were previously transformable have been dragged into the
    non-transformable set by references from native user code — exactly the
    effect §2.4 describes.
    """

    corpus = corpus if corpus is not None else generate_corpus()
    baseline = run_study(corpus).percent_non_transformable
    points: list[SensitivityPoint] = []
    for native_fraction in native_fractions:
        user_code = generate_user_code(
            corpus,
            class_count=user_classes,
            native_fraction=native_fraction,
            seed=seed,
        )
        result = run_study(corpus, extra_descriptors=user_code)
        points.append(
            SensitivityPoint(
                native_fraction=native_fraction,
                user_classes=user_classes,
                percent_non_transformable=result.percent_non_transformable,
                percent_increase_over_baseline=(
                    result.percent_non_transformable - baseline
                ),
            )
        )
    return points
