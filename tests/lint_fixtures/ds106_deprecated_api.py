"""DS106 fixture: deprecated repro API usage."""

from repro.api import ServicePolicy


def build_policies():
    """Positive: bare with_replication without a commit-rule choice."""
    bare = ServicePolicy().with_replication(3)  # expect: DS106
    defaulted = ServicePolicy().with_replication()  # expect: DS106
    by_factor = ServicePolicy().with_replication(factor=2)  # expect: DS106
    return bare, defaulted, by_factor


def build_suppressed():
    """Suppressed: legacy mode kept knowingly."""
    return ServicePolicy().with_replication(2)  # repro: ignore[DS106]


def build_clean():
    """Negative: the replication contract is stated explicitly."""
    quorum = ServicePolicy().with_replication(3, quorum="majority")
    fenced = ServicePolicy().with_replication(3, quorum=2, fencing=True)
    legacy = ServicePolicy().with_replication(2, quorum=1, fencing=False)
    return quorum, fenced, legacy
