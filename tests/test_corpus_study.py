"""Experiment E5: the JDK 1.4.1 transformability study (§2.4).

The paper's quantitative claims:

* "About 40 % of the 8,200 classes and interfaces in JDK 1.4.1 cannot be
  transformed."
* "This percentage would increase if the user code contains native methods
  which refer to a JDK class."

The corpus is synthetic (we have no JDK class files), so the tests check the
calibrated reproduction of the headline figure, the structural properties of
the corpus, and the direction and monotonicity of the user-code sensitivity.
"""

from __future__ import annotations

import pytest

from repro.api.errors import CorpusError
from repro.corpus.analysis import run_study, user_code_sensitivity
from repro.corpus.generator import Corpus, generate_corpus, generate_user_code
from repro.corpus.jdk_model import JDK_1_4_1_PROFILES, PackageProfile


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return generate_corpus()


@pytest.fixture(scope="module")
def study(corpus):
    return run_study(corpus)


class TestCorpusStructure:
    def test_corpus_has_8200_classes_like_jdk_141(self, corpus):
        assert sum(profile.class_count for profile in JDK_1_4_1_PROFILES) == 8200
        assert len(corpus) == 8200

    def test_generation_is_deterministic_per_seed(self):
        first = generate_corpus(seed=5)
        second = generate_corpus(seed=5)
        assert first.names() == second.names()
        assert first.native_class_count() == second.native_class_count()

    def test_different_seeds_differ(self):
        assert generate_corpus(seed=1).native_class_count() != pytest.approx(
            generate_corpus(seed=2).native_class_count(), abs=0
        ) or generate_corpus(seed=1).names() == generate_corpus(seed=2).names()

    def test_native_prevalence_is_realistic(self, corpus):
        # Roughly 15 % of JDK classes are native-backed in the profile.
        fraction = corpus.native_class_count() / len(corpus)
        assert 0.10 <= fraction <= 0.20

    def test_awt_is_more_native_than_swing(self, corpus):
        def native_fraction(package):
            members = [d for d in corpus.descriptors if d.package == package]
            return sum(1 for d in members if d.has_native_methods) / len(members)

        assert native_fraction("java.awt") > native_fraction("javax.swing")

    def test_descriptors_convert_to_class_models(self, corpus):
        descriptor = corpus.descriptors[0]
        model = descriptor.to_class_model()
        assert model.name == descriptor.name
        assert model.has_native_methods == descriptor.has_native_methods

    def test_empty_profile_list_rejected(self):
        with pytest.raises(CorpusError):
            generate_corpus(profiles=())


class TestHeadlineResult:
    def test_about_40_percent_cannot_be_transformed(self, study):
        """Paper: about 40 % of 8,200 classes cannot be transformed."""
        assert study.corpus_size == 8200
        assert 34.0 <= study.percent_non_transformable <= 47.0

    def test_result_is_stable_across_seeds(self):
        for seed in (7, 99):
            result = run_study(generate_corpus(seed=seed))
            assert 34.0 <= result.percent_non_transformable <= 47.0

    def test_native_heavy_packages_are_hit_hardest(self, study):
        by_package = {b.package: b.fraction for b in study.packages}
        assert by_package["java.awt"] > by_package["javax.swing"]
        assert by_package["java.lang"] > by_package["javax.xml"]

    def test_reason_breakdown_includes_both_direct_and_propagated(self, study):
        reasons = study.reasons()
        assert any("native" in reason for reason in reasons)
        assert any("referenced by" in reason for reason in reasons)


class TestUserCodeSensitivity:
    def test_user_native_code_increases_the_percentage(self, corpus):
        """Paper: the percentage increases when user native code references the JDK."""
        points = user_code_sensitivity(
            corpus, user_classes=300, native_fractions=(0.0, 0.25, 0.5), seed=11
        )
        baseline, quarter, half = points
        assert baseline.percent_increase_over_baseline == pytest.approx(0.0, abs=0.2)
        assert quarter.percent_increase_over_baseline > 0.0
        assert half.percent_increase_over_baseline >= quarter.percent_increase_over_baseline

    def test_pure_python_user_code_is_harmless(self, corpus):
        user_code = generate_user_code(corpus, class_count=100, native_fraction=0.0)
        with_user = run_study(corpus, extra_descriptors=user_code)
        without_user = run_study(corpus)
        assert with_user.percent_non_transformable == pytest.approx(
            without_user.percent_non_transformable, abs=0.2
        )

    def test_user_classes_reference_the_corpus(self, corpus):
        user_code = generate_user_code(corpus, class_count=50, native_fraction=0.2, seed=3)
        jdk_names = corpus.names()
        assert any(set(descriptor.references) & jdk_names for descriptor in user_code)


class TestCustomProfiles:
    def test_pure_java_corpus_is_fully_transformable_modulo_throwables(self):
        profiles = (
            PackageProfile("pure.lib", 200, native_fraction=0.0, throwable_fraction=0.0),
        )
        result = run_study(generate_corpus(profiles=profiles, seed=1))
        assert result.percent_non_transformable == 0.0

    def test_fully_native_corpus_is_fully_non_transformable(self):
        profiles = (
            PackageProfile("native.lib", 100, native_fraction=1.0, interface_fraction=0.0),
        )
        result = run_study(generate_corpus(profiles=profiles, seed=1))
        assert result.percent_non_transformable == 100.0

    def test_more_native_means_less_transformable(self):
        fractions = []
        for native in (0.0, 0.2, 0.6):
            profiles = (
                PackageProfile(
                    "lib", 300, native_fraction=native, throwable_fraction=0.0,
                    interface_fraction=0.1, internal_references=2.0,
                ),
            )
            fractions.append(
                run_study(generate_corpus(profiles=profiles, seed=4)).fraction_non_transformable
            )
        assert fractions == sorted(fractions)
