"""Unit tests for deployment descriptors."""

from __future__ import annotations

import json

import pytest

import sample_app
from repro.api.errors import PolicyError
from repro.core.transformer import ApplicationTransformer
from repro.network.simnet import LAN_LINK
from repro.policy.policy import all_local_policy
from repro.tools.deployment import (
    DeploymentDescriptor,
    LinkSpec,
    NodeSpec,
    deployment_from_dict,
)

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]

CONFIG = {
    "nodes": [{"id": "client"}, {"id": "server", "default_transport": "rmi"}],
    "default_node": "client",
    "default_link": {"latency": 0.0005, "bandwidth": 12_500_000},
    "links": [{"from": "client", "to": "server", "latency": 0.002, "symmetric": True}],
    "policy": {
        "default": {"placement": "local"},
        "classes": {
            "Y": {"placement": "remote", "node": "server", "transport": "soap", "dynamic": True}
        },
    },
}


class TestSpecs:
    def test_node_spec_round_trip(self):
        spec = NodeSpec.from_dict({"id": "edge", "default_transport": "soap"})
        assert spec.node_id == "edge"
        assert NodeSpec.from_dict(spec.to_dict()) == spec

    def test_node_spec_requires_id(self):
        with pytest.raises(PolicyError):
            NodeSpec.from_dict({})

    def test_link_spec_round_trip_and_config(self):
        spec = LinkSpec.from_dict({"from": "a", "to": "b", "latency": 0.01, "bandwidth": 1000})
        assert spec.to_link_config().latency == 0.01
        assert LinkSpec.from_dict(spec.to_dict()) == spec

    def test_link_spec_requires_endpoints(self):
        with pytest.raises(PolicyError):
            LinkSpec.from_dict({"from": "a"})


class TestDescriptorValidation:
    def test_requires_nodes(self):
        with pytest.raises(PolicyError):
            DeploymentDescriptor(nodes=())

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(PolicyError):
            DeploymentDescriptor(nodes=(NodeSpec("a"), NodeSpec("a")))

    def test_default_node_must_exist(self):
        with pytest.raises(PolicyError):
            DeploymentDescriptor(nodes=(NodeSpec("a"),), default_node="z")

    def test_link_endpoints_must_exist(self):
        with pytest.raises(PolicyError):
            DeploymentDescriptor(
                nodes=(NodeSpec("a"), NodeSpec("b")),
                links=(LinkSpec("a", "ghost"),),
            )

    def test_default_node_defaults_to_first(self):
        descriptor = DeploymentDescriptor(nodes=(NodeSpec("a"), NodeSpec("b")))
        assert descriptor.default_node == "a"


class TestLoadingAndRoundTrip:
    def test_from_dict(self):
        descriptor = deployment_from_dict(CONFIG)
        assert descriptor.node_ids() == ["client", "server"]
        assert descriptor.default_node == "client"
        assert descriptor.policy.instance_decision("Y").node_id == "server"

    def test_round_trip_through_dict(self):
        descriptor = deployment_from_dict(CONFIG)
        rebuilt = deployment_from_dict(descriptor.to_dict())
        assert rebuilt.node_ids() == descriptor.node_ids()
        assert rebuilt.policy.instance_decision("Y") == descriptor.policy.instance_decision("Y")

    def test_from_json_and_file(self, tmp_path):
        """The JSON form is the dictionary form: ``to_dict`` survives a file."""
        descriptor = deployment_from_dict(CONFIG)
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(descriptor.to_dict()), encoding="utf-8")
        loaded = deployment_from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert loaded.to_dict() == descriptor.to_dict()
        assert loaded.default_node == "client"
        assert loaded.policy.instance_decision("Y") == descriptor.policy.instance_decision("Y")

    def test_malformed_documents_rejected(self):
        with pytest.raises(PolicyError):
            deployment_from_dict({"nodes": []})
        with pytest.raises(PolicyError):
            deployment_from_dict("nope")  # type: ignore[arg-type]

    def test_missing_policy_defaults_to_all_local(self):
        descriptor = deployment_from_dict({"nodes": [{"id": "solo"}]})
        assert not descriptor.policy.instance_decision("Anything").is_remote
        assert descriptor.default_link == LAN_LINK


class TestApplyingADeployment:
    def test_build_cluster_installs_links(self):
        descriptor = deployment_from_dict(CONFIG)
        cluster = descriptor.build_cluster()
        assert set(cluster.node_ids()) == {"client", "server"}
        assert cluster.network.link_config("client", "server").latency == 0.002
        assert cluster.network.link_config("server", "client").latency == 0.002

    def test_apply_deploys_the_application(self):
        descriptor = deployment_from_dict(CONFIG)
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        cluster = descriptor.apply(app)
        assert app.is_bound
        assert app.current_space.node_id == "client"
        # The descriptor's policy took effect: Y is remote over SOAP.
        y = app.new("Y", 4)
        assert type(y).__name__ == "Y_O_Redirector"
        assert y.n(1) == 5
        assert cluster.metrics.total_messages > 0

    def test_a_default_the_descriptor_states_wins(self):
        descriptor = deployment_from_dict(
            {
                "nodes": [{"id": "client"}, {"id": "server"}],
                "policy": {"default": {"placement": "remote", "node": "server"}},
            }
        )
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        cluster = descriptor.apply(app)
        y = app.new("Y", 4)
        assert (type(y).__name__, y._transport) == ("Y_O_Proxy", "rmi")
        assert len(cluster.space("server").exported_objects()) == 1

    @pytest.mark.parametrize("policy", [{"classes": {}}, None], ids=["no_default", "no_policy"])
    def test_a_default_the_descriptor_leaves_unstated_keeps_the_applications(self, policy):
        config = {"nodes": [{"id": "client"}, {"id": "server"}]}
        if policy is not None:
            config["policy"] = policy
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(CLASSES)
        deployment_from_dict(config).apply(app)
        assert type(app.new("Y", 4)).__name__ == "Y_O_Redirector"
        assert app.policy.instance_decision("Y") == all_local_policy(dynamic=True).default.instances

    def test_same_program_two_descriptors(self):
        """The point of the exercise: same code, different captured deployments."""
        single = deployment_from_dict({"nodes": [{"id": "laptop"}]})
        split = deployment_from_dict(CONFIG)

        app_single = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        single.apply(app_single)
        app_split = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        split_cluster = split.apply(app_split)

        local_y = app_single.new("Y", 7)
        remote_y = app_split.new("Y", 7)
        assert local_y.n(3) == remote_y.n(3) == 10
        assert split_cluster.metrics.total_messages > 0
