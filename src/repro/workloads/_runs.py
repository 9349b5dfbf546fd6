"""Service names for workload runs that share one cluster."""

from __future__ import annotations

import itertools


def run_prefix(cluster, stem: str) -> str:
    """The first ``stem-N`` that no name bound in ``cluster.naming`` uses.

    A run names its services ``stem-N`` or ``stem-N-...``; deploying over a
    bound name is a :class:`~repro.api.errors.PolicyError` by design, so a
    second run on the same cluster takes the next ``N``, and the first run
    on a fresh cluster always gets ``stem-0``.
    """
    bound = cluster.naming.names()
    for run in itertools.count():
        prefix = f"{stem}-{run}"
        if not any(name == prefix or name.startswith(prefix + "-") for name in bound):
            return prefix
