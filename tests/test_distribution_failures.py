"""Distribution-specific edge cases: container arguments and network failure.

The paper concedes (§4) that spanning address spaces makes it impossible to
guarantee full preservation of the original semantics because of network
failure.  These tests pin down what the reproduction does in exactly those
situations: containers of references marshal correctly, partitions surface as
network errors rather than silent corruption, healing restores operation, and
the failure never leaks half-applied state into the remote object.
"""

from __future__ import annotations

import pytest

from repro.api.errors import NetworkError, PartitionError
from repro.core.transformer import ApplicationTransformer
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster


class Sensor:
    """Produces readings; lives near the hardware."""

    def __init__(self, name, scale):
        self.name = name
        self.scale = scale

    def read(self, raw):
        return raw * self.scale


class Aggregator:
    """Aggregates over a *collection* of sensors passed by reference."""

    def __init__(self):
        self.sensors = []
        self.samples = 0

    def attach_all(self, sensors):
        current = self.sensors
        for sensor in sensors:
            current.append(sensor)
        self.sensors = current
        return len(current)

    def collect(self, raw):
        self.samples = self.samples + 1
        return sum(sensor.read(raw) for sensor in self.sensors)

    def sensor_count(self):
        return len(self.sensors)


CLASSES = [Sensor, Aggregator]


def _deployed(drop_probability=0.0):
    app = ApplicationTransformer(place_classes_on({"Aggregator": "hub"})).transform(CLASSES)
    network = SimulatedNetwork(failures=FailureModel(drop_probability=drop_probability, seed=3))
    cluster = Cluster(("edge", "hub"), network=network)
    app.deploy(cluster, default_node="edge")
    return app, cluster


class TestContainerArgumentsAcrossSpaces:
    def test_list_of_transformed_objects_passes_by_reference(self):
        app, cluster = _deployed()
        sensors = [app.new("Sensor", f"s{i}", i + 1) for i in range(3)]
        aggregator = app.new("Aggregator")
        assert (type(aggregator).__name__, aggregator._transport) == ("Aggregator_O_Proxy", "rmi")
        assert aggregator.attach_all(sensors) == 3
        # collect() on the hub calls back into the edge-resident sensors.
        assert aggregator.collect(10) == 10 * (1 + 2 + 3)
        assert cluster.metrics.messages_between("hub", "edge") > 0

    def test_results_match_the_all_local_run(self):
        local_app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        local_sensors = [local_app.new("Sensor", f"s{i}", i + 1) for i in range(3)]
        local_aggregator = local_app.new("Aggregator")
        local_aggregator.attach_all(local_sensors)
        expected = local_aggregator.collect(7)

        app, _ = _deployed()
        sensors = [app.new("Sensor", f"s{i}", i + 1) for i in range(3)]
        aggregator = app.new("Aggregator")
        aggregator.attach_all(sensors)
        assert aggregator.collect(7) == expected

    def test_nested_containers_with_references(self):
        app, _ = _deployed()
        sensors = [app.new("Sensor", "a", 2), app.new("Sensor", "b", 3)]
        aggregator = app.new("Aggregator")
        # A tuple inside a list inside the argument list still marshals.
        aggregator.attach_all([sensors[0]])
        aggregator.attach_all((sensors[1],))
        assert aggregator.sensor_count() == 2


class TestPartitionSemantics:
    def test_partition_makes_remote_calls_fail_loudly(self):
        app, cluster = _deployed()
        aggregator = app.new("Aggregator")
        cluster.network.failures.partition(["edge"], ["hub"])
        with pytest.raises(PartitionError):
            aggregator.collect(1)

    def test_healing_restores_operation_and_state(self):
        app, cluster = _deployed()
        sensors = [app.new("Sensor", "s", 5)]
        aggregator = app.new("Aggregator")
        aggregator.attach_all(sensors)
        aggregator.collect(1)

        cluster.network.failures.partition(["edge"], ["hub"])
        with pytest.raises(NetworkError):
            aggregator.collect(2)
        cluster.network.failures.heal()

        # The failed call never reached the hub, so the sample count reflects
        # only the successful invocations.
        assert aggregator.collect(3) == 15
        assert aggregator.get_samples() == 2

    def test_local_deployment_is_immune_to_partitions(self):
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        network = SimulatedNetwork(failures=FailureModel())
        cluster = Cluster(("edge", "hub"), network=network)
        app.deploy(cluster, default_node="edge")
        aggregator = app.new("Aggregator")
        aggregator.attach_all([app.new("Sensor", "s", 2)])
        cluster.network.failures.partition(["edge"], ["hub"])
        # Everything is in one address space: the partition is irrelevant.
        assert aggregator.collect(4) == 8

    def test_dropped_request_does_not_mutate_remote_state(self):
        app, cluster = _deployed()
        aggregator = app.new("Aggregator")
        cluster.network.failures.drop_probability = 1.0
        with pytest.raises(NetworkError):
            aggregator.collect(1)
        cluster.network.failures.drop_probability = 0.0
        assert aggregator.get_samples() == 0
