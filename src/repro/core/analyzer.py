"""Transformability and substitutability analysis (paper §2.4).

A class that cannot be transformed cannot be substitutable.  The paper gives
four structural reasons why a class cannot be transformed:

1. **Native methods** — code in native methods cannot be inspected or
   transformed, so a class containing them is left untouched.
2. **Special classes** — some system classes and interfaces have special
   semantics in the VM (e.g. anything thrown must extend ``Throwable``);
   these are never transformed.  The Python analogues are exception classes
   and system/builtin classes.
3. **Inheritance constraint** — a *non-transformable* class that extends a
   transformed one would have to inherit from both the instance and static
   implementations of its super-class, which would require multiple
   inheritance of classes.  Therefore the super-class of a non-transformable
   class cannot be transformed: non-transformability propagates *upwards*
   along the ``extends`` edge.
4. **Reference constraint** — references inside a non-transformable class
   cannot be rewritten, so every class or interface it references must remain
   available in its original form: non-transformability propagates along the
   *outgoing reference edges* of non-transformable classes.

Rules 3 and 4 make non-transformability a closure over the class graph; the
analyser computes the fixpoint and records, for every non-transformable
class, the set of reasons that made it so.  The corpus study (experiment E5)
uses exactly this computation to reproduce the paper's "about 40 % of the
8,200 classes and interfaces in JDK 1.4.1 cannot be transformed" claim.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable

from repro._errors import NotTransformableError
from repro.core.classmodel import ClassModel, ClassUniverse


class NonTransformableReason(enum.Enum):
    """Why a class was excluded from transformation."""

    NATIVE_METHODS = "contains native methods"
    SPECIAL_CLASS = "special VM semantics (Throwable-like or system class)"
    SUPERCLASS_OF_NON_TRANSFORMABLE = "is the super-class of a non-transformable class"
    REFERENCED_BY_NON_TRANSFORMABLE = "is referenced by a non-transformable class"
    UNKNOWN_DEFINITION = "referenced but not available to the transformer"
    EXPLICIT_EXCLUSION = "excluded by policy"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class AnalysisResult:
    """The outcome of a transformability analysis over a class universe."""

    universe: ClassUniverse
    transformable: set[str] = field(default_factory=set)
    non_transformable: dict[str, set[NonTransformableReason]] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------

    def is_transformable(self, name: str) -> bool:
        return name in self.transformable

    def reasons_for(self, name: str) -> set[NonTransformableReason]:
        return set(self.non_transformable.get(name, set()))

    def require_transformable(self, name: str) -> None:
        """Raise :class:`NotTransformableError` if ``name`` cannot be transformed."""
        if name not in self.transformable:
            raise NotTransformableError(name, sorted(self.reasons_for(name), key=str))

    # -- statistics ----------------------------------------------------------

    @property
    def total_classes(self) -> int:
        return len(self.transformable) + len(self.non_transformable)

    def reasons_histogram(self) -> Counter:
        """How many classes carry each reason (a class may carry several)."""
        histogram: Counter = Counter()
        for reasons in self.non_transformable.values():
            for reason in reasons:
                histogram[reason] += 1
        return histogram


class TransformabilityAnalyzer:
    """Computes which classes of a universe can be transformed.

    Parameters
    ----------
    universe:
        The closed set of class models under consideration.
    special_class_names:
        Additional class names to treat as special (rule 2) beyond those the
        models themselves flag via ``is_exception``/``is_system``.
    excluded:
        Class names excluded by policy (treated as a direct reason).
    treat_unknown_as_non_transformable:
        When True (the default), names referenced by classes in the universe
        but not defined in it are treated as non-transformable system classes
        whose reference constraint does **not** propagate further (they have
        no outgoing edges we can see).
    """

    def __init__(
        self,
        universe: ClassUniverse | Iterable[ClassModel],
        *,
        special_class_names: Iterable[str] = (),
        excluded: Iterable[str] = (),
        treat_unknown_as_non_transformable: bool = True,
    ) -> None:
        if not isinstance(universe, ClassUniverse):
            universe = ClassUniverse(universe)
        self.universe = universe
        self.special_class_names = set(special_class_names)
        self.excluded = set(excluded)
        self.treat_unknown_as_non_transformable = treat_unknown_as_non_transformable

    # -- direct rules ---------------------------------------------------------

    def direct_reasons(self, model: ClassModel) -> set[NonTransformableReason]:
        reasons: set[NonTransformableReason] = set()
        if model.has_native_methods:
            reasons.add(NonTransformableReason.NATIVE_METHODS)
        if model.is_exception or model.is_system or model.name in self.special_class_names:
            reasons.add(NonTransformableReason.SPECIAL_CLASS)
        if model.name in self.excluded:
            reasons.add(NonTransformableReason.EXPLICIT_EXCLUSION)
        return reasons

    # -- closure --------------------------------------------------------------

    def analyse(self) -> AnalysisResult:
        """Run the analysis over the whole universe and return the result."""
        non_transformable: dict[str, set[NonTransformableReason]] = {}
        worklist: deque[str] = deque()

        def mark(name: str, reason: NonTransformableReason) -> None:
            reasons = non_transformable.setdefault(name, set())
            if reason not in reasons:
                reasons.add(reason)
                worklist.append(name)

        # Seed with the direct rules.
        for model in self.universe:
            for reason in self.direct_reasons(model):
                mark(model.name, reason)

        if self.treat_unknown_as_non_transformable:
            for name in self.universe.unknown_references():
                mark(name, NonTransformableReason.UNKNOWN_DEFINITION)

        # Propagate rules 3 and 4 to a fixpoint.
        while worklist:
            name = worklist.popleft()
            model = self.universe.get(name)
            if model is None:
                # Unknown class: no modelled edges to propagate along.
                continue
            # Rule 3: the super-class of a non-transformable class cannot be
            # transformed (the subclass cannot inherit from the generated
            # instance *and* static implementations).
            if model.superclass_name:
                mark(
                    model.superclass_name,
                    NonTransformableReason.SUPERCLASS_OF_NON_TRANSFORMABLE,
                )
            # Rule 4: classes referenced by a non-transformable class must
            # remain available in their original form.
            for referenced in model.referenced_class_names():
                mark(referenced, NonTransformableReason.REFERENCED_BY_NON_TRANSFORMABLE)

        transformable = {
            model.name for model in self.universe if model.name not in non_transformable
        }
        # Restrict the reported non-transformable map to names that exist in
        # the universe plus unknown references (so fractions are well defined
        # over the modelled population plus the unknowns we had to assume).
        known_or_unknown = self.universe.names() | (
            self.universe.unknown_references()
            if self.treat_unknown_as_non_transformable
            else set()
        )
        non_transformable = {
            name: reasons
            for name, reasons in non_transformable.items()
            if name in known_or_unknown
        }
        return AnalysisResult(
            universe=self.universe,
            transformable=transformable,
            non_transformable=non_transformable,
        )
