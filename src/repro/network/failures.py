"""Failure injection for the simulated network.

Changing applications to span address-space boundaries introduces network
failure problems (paper §4): calls that were in-process can now fail.  The
failure model lets tests and benchmarks inject message loss and network
partitions deterministically so that the behaviour of transformed
applications under failure can be studied.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set, Tuple


class FailureModel:
    """Deterministic message-loss and partition model.

    Parameters
    ----------
    drop_probability:
        Probability in ``[0, 1]`` that any given message is dropped.
    seed:
        Seed for the internal random generator; runs are reproducible for a
        fixed seed.
    """

    def __init__(self, drop_probability: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        self.drop_probability = drop_probability
        self._random = random.Random(seed)
        self._partitioned_pairs: Set[Tuple[str, str]] = set()
        self._down_nodes: Set[str] = set()

    # -- node failures ----------------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        """Mark a node as crashed: all traffic to and from it fails."""
        self._down_nodes.add(node_id)

    def recover_node(self, node_id: str) -> None:
        self._down_nodes.discard(node_id)

    def is_node_down(self, node_id: str) -> bool:
        return node_id in self._down_nodes

    # -- partitions ---------------------------------------------------------------

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Partition the network between two groups of nodes (both directions)."""
        for a in group_a:
            for b in group_b:
                self._partitioned_pairs.add((a, b))
                self._partitioned_pairs.add((b, a))

    def heal(self, node_a: Optional[str] = None, node_b: Optional[str] = None) -> None:
        """Heal partitions: every one (bare), one node's (single), or one pair.

        Called with no arguments, every partition disappears.  Called with a
        single node, every partition pair that node participates in is healed
        (the node rejoins the network, whichever side it was on) — the shape
        a failover-then-recovery sequence needs.  Called with two nodes, only
        that pair is healed, in both directions.
        """
        if node_a is None and node_b is None:
            self._partitioned_pairs.clear()
            return
        if node_a is None or node_b is None:
            node = node_a if node_a is not None else node_b
            self._partitioned_pairs = {
                pair for pair in self._partitioned_pairs if node not in pair
            }
            return
        self._partitioned_pairs.discard((node_a, node_b))
        self._partitioned_pairs.discard((node_b, node_a))

    def is_partitioned(self, source: str, destination: str) -> bool:
        return (source, destination) in self._partitioned_pairs

    # -- message loss ----------------------------------------------------------------

    def should_drop(self, source: str, destination: str) -> bool:
        """Decide whether the next message from ``source`` to ``destination`` drops."""
        if self.drop_probability <= 0.0:
            return False
        return self._random.random() < self.drop_probability


class NoFailures(FailureModel):
    """A failure model that never fails anything (the default)."""

    def __init__(self) -> None:
        super().__init__(drop_probability=0.0, seed=0)

    def should_drop(self, source: str, destination: str) -> bool:  # pragma: no cover
        return False
