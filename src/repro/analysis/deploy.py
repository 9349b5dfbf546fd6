"""Deploy-time static verification for :meth:`Session.service`.

When a :class:`~repro.api.policy.ServicePolicy` carries
``with_static_checks()``, the session runs the distribution-safety rules
against the *implementation class actually being deployed* — source is
recovered via :mod:`inspect`, dedented, and linted with
``assume_service=True`` (the class is a service by construction; no
marker heuristics needed).  The policy itself decides how strict the run
is: under quorum replication a nondeterministic write (DS101) is no
longer a style warning but a guaranteed divergence, so it escalates to a
deploy-blocking error; plain replication escalates mutable class-level
state (DS104) the same way.
"""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, List, Optional

from repro.analysis.findings import Finding


def policy_severity_overrides(policy) -> Dict[str, str]:
    """Severity escalations implied by ``policy``'s distribution contract.

    Reads the policy's ``quorum_replicated`` / ``replicated`` properties
    (a :class:`~repro.api.policy.ServicePolicy`; this module never imports
    :mod:`repro.api`); a policy without them is an ``AttributeError``, not
    a contract without escalations.
    """
    overrides: Dict[str, str] = {}
    if policy.quorum_replicated:
        # Writes are replayed on backups and must converge; a
        # nondeterministic write under a quorum contract is corruption
        # waiting for a failover, not a style issue.
        overrides["DS101"] = "error"
    if policy.replicated:
        # Class-level state is invisible to per-instance replica sync.
        overrides["DS104"] = "error"
    return overrides


def verify_deployment(cls, policy, *, engine=None) -> List[Finding]:
    """Lint ``cls`` under ``policy``; returns the error-severity findings.

    An empty list means the deployment passes.  Raises :class:`OSError`
    when the class's source cannot be recovered (e.g. defined in a REPL) —
    the caller decides whether that blocks the deploy.
    """
    if engine is None:
        from repro.analysis import default_engine

        engine = default_engine()
    source = inspect.getsource(cls)
    _, first_line = inspect.getsourcelines(cls)
    path = _source_path(cls)
    findings = engine.run_source(
        textwrap.dedent(source),
        path,
        line_offset=max(first_line - 1, 0),
        assume_service=True,
        severity_overrides=policy_severity_overrides(policy),
    )
    return [f for f in findings if f.severity == "error"]


def _source_path(cls) -> str:
    path: Optional[str] = None
    try:
        path = inspect.getsourcefile(cls)
    except TypeError:
        path = None
    return path or f"<{cls.__module__}.{cls.__qualname__}>"
