"""Synthetic JDK-like class corpus and the §2.4 transformability study."""

from repro.corpus.analysis import (
    PackageBreakdown,
    SensitivityPoint,
    StudyResult,
    run_study,
    user_code_sensitivity,
)
from repro.corpus.generator import Corpus, generate_corpus, generate_user_code
from repro.corpus.jdk_model import (
    ClassDescriptor,
    JDK_1_4_1_PROFILES,
    PackageProfile,
    descriptors_to_models,
)

__all__ = [
    "ClassDescriptor",
    "Corpus",
    "JDK_1_4_1_PROFILES",
    "PackageBreakdown",
    "PackageProfile",
    "SensitivityPoint",
    "StudyResult",
    "descriptors_to_models",
    "generate_corpus",
    "generate_user_code",
    "run_study",
    "user_code_sensitivity",
]
