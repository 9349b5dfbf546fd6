"""The replication invariants, asserted in one place.

Failover and heal tests call :func:`check_replication_invariants` after the
event they exercise, so every scenario is held to the same three rules:

* every acknowledged write is on the current primary and on every healthy
  backup (no acked write lost);
* epochs strictly increase across the manager's failovers of a group, ending
  at the group's current epoch;
* at most one unfenced primary of a group is exported anywhere.
"""

from __future__ import annotations

from repro.runtime.replication import ReplicatedObject


def holds_order(impl, sku) -> bool:
    """Whether an order intake copy accepted an order for ``sku``."""
    return any(order["sku"] == sku for order in impl.accepted)


def check_replication_invariants(manager, group, acked=(), holds=holds_order) -> None:
    """Assert the three replication invariants on ``group`` of ``manager``.

    ``acked`` lists the writes the clients saw acknowledged and ``holds(impl,
    write)`` tells whether one replica copy contains one of them (default:
    an order intake holding an order for that sku).
    """
    copies = {group.primary_node: group.primary_impl}
    copies.update({record.node_id: record.impl for record in group.healthy_backups()})
    for node_id, impl in copies.items():
        for write in acked:
            assert holds(impl, write), f"acked write {write!r} is missing on {node_id}"

    epochs = [record.epoch for record in manager.failovers if record.group_name == group.name]
    assert all(earlier < later for earlier, later in zip(epochs, epochs[1:])), epochs
    assert not epochs or epochs[-1] == group.epoch, (epochs, group.epoch)

    unfenced = [
        space.node_id
        for space in manager.cluster.spaces()
        for exported in space.exported_objects().values()
        if isinstance(exported, ReplicatedObject)
        and exported._group is group
        and not (group.fencing and exported._epoch < group.epoch)
    ]
    assert len(unfenced) <= 1, f"unfenced primaries of {group.name!r} on {unfenced}"
