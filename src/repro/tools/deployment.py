"""Deployment descriptors: capture a whole deployment as data.

A descriptor names the nodes of the deployment, the characteristics of the
links between them, the default node the application's driver code runs on,
and the distribution policy (in the :mod:`repro.policy.loader` format).  The
same transformed program can then be redeployed under any number of
descriptors — a laptop-only configuration, a two-tier LAN, a WAN split —
without touching application code, which is exactly the flexibility the paper
argues current middleware lacks.

Example (the dictionary form, written as JSON)::

    {
        "nodes": [{"id": "client"}, {"id": "server", "default_transport": "rmi"}],
        "default_node": "client",
        "default_link": {"latency": 0.0005, "bandwidth": 12500000},
        "links": [
            {"from": "client", "to": "server", "latency": 0.002, "symmetric": true}
        ],
        "policy": {
            "default": {"placement": "local"},
            "classes": {"Cache": {"placement": "remote", "node": "server",
                                   "transport": "rmi", "dynamic": true}}
        }
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro._errors import PolicyError
from repro.network.simnet import LAN_LINK, LinkConfig, SimulatedNetwork
from repro.policy.loader import policy_from_dict, policy_to_dict
from repro.policy.policy import DistributionPolicy
from repro.runtime.cluster import Cluster


@dataclass(frozen=True)
class NodeSpec:
    """One node of the deployment."""

    node_id: str
    default_transport: str = "rmi"

    def to_dict(self) -> dict:
        return {"id": self.node_id, "default_transport": self.default_transport}

    @classmethod
    def from_dict(cls, config: Mapping) -> "NodeSpec":
        if "id" not in config:
            raise PolicyError("node specification requires an 'id'")
        return cls(
            node_id=str(config["id"]),
            default_transport=str(config.get("default_transport", "rmi")),
        )


@dataclass(frozen=True)
class LinkSpec:
    """Link characteristics between two named nodes."""

    source: str
    destination: str
    latency: float = LAN_LINK.latency
    bandwidth: float = LAN_LINK.bandwidth
    jitter: float = 0.0
    symmetric: bool = True

    def to_link_config(self) -> LinkConfig:
        return LinkConfig(latency=self.latency, bandwidth=self.bandwidth, jitter=self.jitter)

    def to_dict(self) -> dict:
        return {
            "from": self.source,
            "to": self.destination,
            "latency": self.latency,
            "bandwidth": self.bandwidth,
            "jitter": self.jitter,
            "symmetric": self.symmetric,
        }

    @classmethod
    def from_dict(cls, config: Mapping) -> "LinkSpec":
        if "from" not in config or "to" not in config:
            raise PolicyError("link specification requires 'from' and 'to'")
        return cls(
            source=str(config["from"]),
            destination=str(config["to"]),
            latency=float(config.get("latency", LAN_LINK.latency)),
            bandwidth=float(config.get("bandwidth", LAN_LINK.bandwidth)),
            jitter=float(config.get("jitter", 0.0)),
            symmetric=bool(config.get("symmetric", True)),
        )


def _link_config_from_dict(config: Mapping) -> LinkConfig:
    return LinkConfig(
        latency=float(config.get("latency", LAN_LINK.latency)),
        bandwidth=float(config.get("bandwidth", LAN_LINK.bandwidth)),
        jitter=float(config.get("jitter", 0.0)),
    )


@dataclass
class DeploymentDescriptor:
    """A complete, data-captured deployment configuration."""

    nodes: Sequence[NodeSpec]
    default_node: Optional[str] = None
    default_link: LinkConfig = LAN_LINK
    links: Sequence[LinkSpec] = ()
    policy: DistributionPolicy = field(default_factory=DistributionPolicy)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise PolicyError("a deployment requires at least one node")
        node_ids = [node.node_id for node in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise PolicyError("duplicate node identifiers in deployment")
        if self.default_node is None:
            self.default_node = node_ids[0]
        elif self.default_node not in node_ids:
            raise PolicyError(f"default node {self.default_node!r} is not a deployment node")
        for link in self.links:
            for endpoint in (link.source, link.destination):
                if endpoint not in node_ids:
                    raise PolicyError(f"link endpoint {endpoint!r} is not a deployment node")

    # ------------------------------------------------------------------

    def node_ids(self) -> list[str]:
        return [node.node_id for node in self.nodes]

    def build_cluster(self) -> Cluster:
        """Create the cluster (network + address spaces) this descriptor defines."""
        network = SimulatedNetwork(default_link=self.default_link)
        cluster = Cluster(tuple(self.node_ids()), network=network)
        for link in self.links:
            if link.symmetric:
                network.set_symmetric_link(link.source, link.destination, link.to_link_config())
            else:
                network.set_link(link.source, link.destination, link.to_link_config())
        return cluster

    def apply(self, application, cluster: Optional[Cluster] = None) -> Cluster:
        """Deploy a transformed application according to this descriptor.

        The descriptor's policy is merged over the application's: its entries
        and patterns win, and so does its default when it states one.
        """
        cluster = cluster if cluster is not None else self.build_cluster()
        application.policy = application.policy.merged_with(self.policy)
        application.deploy(cluster, default_node=self.default_node)
        return cluster

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [node.to_dict() for node in self.nodes],
            "default_node": self.default_node,
            "default_link": {
                "latency": self.default_link.latency,
                "bandwidth": self.default_link.bandwidth,
                "jitter": self.default_link.jitter,
            },
            "links": [link.to_dict() for link in self.links],
            "policy": policy_to_dict(self.policy),
        }


def deployment_from_dict(config: Mapping) -> DeploymentDescriptor:
    """Build a :class:`DeploymentDescriptor` from its dictionary form."""
    if not isinstance(config, Mapping):
        raise PolicyError("deployment configuration must be a mapping")
    nodes_config = config.get("nodes")
    if not nodes_config:
        raise PolicyError("deployment configuration requires a 'nodes' list")
    nodes = [NodeSpec.from_dict(entry) for entry in nodes_config]
    links = [LinkSpec.from_dict(entry) for entry in config.get("links", [])]
    default_link = (
        _link_config_from_dict(config["default_link"])
        if "default_link" in config
        else LAN_LINK
    )
    policy = policy_from_dict(config["policy"]) if "policy" in config else DistributionPolicy()
    return DeploymentDescriptor(
        nodes=nodes,
        default_node=config.get("default_node"),
        default_link=default_link,
        links=links,
        policy=policy,
    )
