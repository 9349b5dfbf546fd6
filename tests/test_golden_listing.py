"""Golden listing: the transformation's output, pinned to the byte.

``golden_listing.txt`` holds ``emit_sources()`` of every artifact generated
for the paper's Figure 1 classes ``A``, ``B``, ``C`` and Figure 2's ``X``,
``Y``, ``Z`` (``sample_app``), transformed under the all-local policy with the
default transports.  That text is what ``core/generator.py`` executes, so a
change to the introspector, the rewriter or the emitters that moves one
character of a listing fails here.

``ast.unparse`` may format the same tree differently on another Python, so the
comparison runs on Python 3.11 only, as ``make bench-golden`` does.  Regenerate
(only when the listing is *meant* to change) with
``PYTHONPATH=src:tests python tests/test_golden_listing.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import sample_app
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.workloads.figure1 import A, B, C

GOLDEN_PATH = Path(__file__).with_name("golden_listing.txt")

CLASS_SETS = {
    "figure1": (A, B, C),
    "figure2": (sample_app.X, sample_app.Y, sample_app.Z),
}


def render() -> str:
    """Every artifact of both class sets, each under a header naming it."""
    parts = []
    for label, classes in CLASS_SETS.items():
        app = ApplicationTransformer(all_local_policy()).transform(classes)
        for cls in classes:
            for artifact, source in app.emit_sources(cls.__name__).items():
                parts.append(f"# ===== {label} {cls.__name__}: {artifact} =====\n{source}")
    return "\n".join(parts)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="ast.unparse formatting is pinned on Python 3.11"
)
def test_listing_is_byte_equal_to_the_golden_file():
    assert render() == GOLDEN_PATH.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
