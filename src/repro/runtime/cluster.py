"""Clusters: a convenience bundle of address spaces on one simulated network.

A :class:`Cluster` creates the address spaces, installs the same transport
registry on each of them, shares a naming service and exposes the pieces the
benchmarks need (clock, metrics).  It is what a transformed application binds
to via :meth:`~repro.core.transformer.TransformedApplication.deploy`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.network.clock import SimClock
from repro.network.failures import FailureModel
from repro.network.metrics import NetworkMetrics
from repro.network.simnet import LinkConfig, ServicePool, SimulatedNetwork
from repro.runtime.address_space import AddressSpace
from repro.runtime.naming import NamingService
from repro.transports.base import TransportRegistry
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport


def default_transport_registry() -> TransportRegistry:
    """All transports shipped with the reproduction."""
    return TransportRegistry(
        [InProcTransport(), RmiTransport(), CorbaTransport(), SoapTransport()]
    )


class Cluster:
    """A set of address spaces connected by one simulated network."""

    def __init__(
        self,
        node_ids: Sequence[str] = ("node-0", "node-1"),
        *,
        network: Optional[SimulatedNetwork] = None,
        link: Optional[LinkConfig] = None,
        failures: Optional[FailureModel] = None,
        transports: Optional[TransportRegistry] = None,
        default_transport: str = "rmi",
    ) -> None:
        if not node_ids:
            raise ValueError("a cluster needs at least one node")
        if network is None:
            network = SimulatedNetwork(
                default_link=link or SimulatedNetwork().default_link,
                failures=failures,
            )
        self.network = network
        self.transports = transports or default_transport_registry()
        self.naming = NamingService()
        self._spaces: Dict[str, AddressSpace] = {}
        for node_id in node_ids:
            space = AddressSpace(
                node_id, network, self.transports, default_transport=default_transport
            )
            space.naming = self.naming
            self._spaces[node_id] = space
        self._default_node_id = node_ids[0]

    # ------------------------------------------------------------------

    @property
    def default_node_id(self) -> str:
        return self._default_node_id

    @property
    def clock(self) -> SimClock:
        return self.network.clock

    @property
    def metrics(self) -> NetworkMetrics:
        return self.network.metrics

    def space(self, node_id: str) -> AddressSpace:
        try:
            return self._spaces[node_id]
        except KeyError as exc:
            raise KeyError(f"cluster has no node {node_id!r}") from exc

    def spaces(self) -> Iterable[AddressSpace]:
        return list(self._spaces.values())

    def node_ids(self) -> list[str]:
        return list(self._spaces)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._spaces

    def set_service_pool(
        self,
        node_id: str,
        pool: Optional[ServicePool] = None,
        *,
        workers: int = 1,
        queue_limit: int = 16,
        service_time: float = 0.0,
    ) -> Optional[ServicePool]:
        """Bound ``node_id``'s serving capacity and return the pool.

        Pass a ready-made :class:`~repro.network.simnet.ServicePool`, or let
        the keyword arguments build one (``workers`` parallel servers, an
        admission queue of ``queue_limit``, each request holding a worker for
        ``service_time`` simulated seconds).  ``pool=None`` with default
        keywords still installs a fresh pool; call
        ``space(node_id).install_service_pool(None)`` to remove a bound.
        """
        space = self.space(node_id)  # validates the node exists
        if pool is None:
            pool = ServicePool(
                workers=workers, queue_limit=queue_limit, service_time=service_time
            )
        space.install_service_pool(pool)
        return pool

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster nodes={sorted(self._spaces)}>"
