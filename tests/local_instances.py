"""Local instances of transformed classes, made without the placement policy."""

from __future__ import annotations

from typing import Any


def new_local(app: Any, class_name: str, *args: Any, **kwargs: Any) -> Any:
    """A local ``class_name`` implementation of ``app``, initialised as its factory would."""
    artifacts = app.artifacts(class_name)
    instance = artifacts.local_cls()
    artifacts.object_factory.init(instance, *args, **kwargs)
    return instance
