"""Registry of transformation artifacts.

A :class:`TransformationRegistry` records, for every transformed class, the
full set of generated artifacts (interfaces, local implementations, proxies,
redirector and factories) and provides the reverse lookups the runtime needs:
from an interface name back to the owning class (used when a remote reference
arrives over the wire and a proxy has to be manufactured for it).

The registry also owns the shared *namespace* dictionary in which the text of
every generated artifact is executed (:mod:`repro.core.generator`): each
``class`` statement binds its name there and rewritten method bodies resolve
their globals there, which is how a method of class ``X`` can call
``Y_O_Factory.create(...)`` even though ``Y``'s artifacts were loaded after
``X``'s.
"""

from __future__ import annotations

from typing import Any, Dict

from repro._errors import UnknownClassError
from repro.core.generator import ClassArtifacts


class TransformationRegistry:
    """All artifacts produced by one application transformation."""

    def __init__(self) -> None:
        self._by_class: Dict[str, ClassArtifacts] = {}
        self._class_by_interface: Dict[str, str] = {}
        #: Shared exec namespace for generated code (see module docstring).
        self.namespace: Dict[str, Any] = {}

    # -- registration ----------------------------------------------------------

    def register(self, artifacts: ClassArtifacts) -> ClassArtifacts:
        name = artifacts.class_name
        self._by_class[name] = artifacts
        self._class_by_interface[artifacts.instance_interface.name] = name
        self._class_by_interface[artifacts.class_interface.name] = name
        return artifacts

    # -- lookups ----------------------------------------------------------------

    def artifacts(self, class_name: str) -> ClassArtifacts:
        try:
            return self._by_class[class_name]
        except KeyError as exc:
            raise UnknownClassError(class_name) from exc

    def class_for_interface(self, interface_name: str) -> str:
        try:
            return self._class_by_interface[interface_name]
        except KeyError as exc:
            raise UnknownClassError(interface_name) from exc

    def artifacts_for_interface(self, interface_name: str) -> ClassArtifacts:
        return self.artifacts(self.class_for_interface(interface_name))

    def interface_kind(self, interface_name: str) -> str:
        """Return ``"instance"`` or ``"class"`` for an interface name."""
        artifacts = self.artifacts_for_interface(interface_name)
        if artifacts.instance_interface.name == interface_name:
            return "instance"
        return "class"

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._by_class

    def class_names(self) -> set[str]:
        return set(self._by_class)
