"""Property-based tests (hypothesis) for core invariants.

Covers the wire codecs (round-trip for arbitrary wire values), the
marshaller, the transformability analysis (monotonicity and partition
invariants), the policy loader (round-trip) and the simulated clock
(monotonicity).
"""

from __future__ import annotations

import matrix
import sample_app
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analyzer import TransformabilityAnalyzer
from repro.core.introspect import class_model_from_descriptor
from repro.core.transformer import ApplicationTransformer
from repro.network.clock import SimClock
from repro.policy.loader import policy_from_dict, policy_to_dict
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

# ---------------------------------------------------------------------------
# Wire values: what the marshaller may hand to a transport.
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

_wire_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(min_size=1, max_size=10), children, max_size=5),
    ),
    max_leaves=15,
)

_requests = st.fixed_dictionaries(
    {
        "target": st.text(min_size=1, max_size=20),
        "member": st.text(min_size=1, max_size=20),
        "args": st.lists(_wire_values, max_size=4),
        "kwargs": st.dictionaries(st.text(min_size=1, max_size=8), _wire_values, max_size=3),
    }
)


class TestTransportRoundTripProperties:
    """Every transport round-trips any message: ``test_wire_properties.py``.
    What a request costs on each is compared here."""

    @given(request=_requests)
    @settings(max_examples=30, deadline=None)
    def test_soap_is_never_smaller_than_rmi(self, request):
        soap = len(SoapTransport().encode_request(request))
        rmi = len(RmiTransport().encode_request(request))
        assert soap >= rmi


# ---------------------------------------------------------------------------
# Marshalling of application values through a deployed application.
# ---------------------------------------------------------------------------

_marshal_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=4),
    ),
    max_leaves=10,
)


class TestMarshallerProperties:
    @given(value=_marshal_values)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_marshalling_round_trips_plain_values(self, value):
        cluster = Cluster(("a", "b"))
        marshaller = cluster.space("a").marshaller
        assert marshaller.from_wire(marshaller.to_wire(value)) == value

    @given(base=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_remote_calls_preserve_argument_values(self, base):
        app = ApplicationTransformer(place_classes_on({"Y": "server"})).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        app.deploy(Cluster(("client", "server")), default_node="client")
        y = app.new("Y", base)
        assert y.n(base) == base + base


# ---------------------------------------------------------------------------
# Analysis invariants over random synthetic universes.
# ---------------------------------------------------------------------------

@st.composite
def _universes(draw):
    count = draw(st.integers(min_value=2, max_value=25))
    names = [f"C{i}" for i in range(count)]
    models = []
    for index, name in enumerate(names):
        has_native = draw(st.booleans()) and draw(st.integers(0, 3)) == 0
        references = draw(
            st.lists(st.sampled_from(names), max_size=3).map(
                lambda refs: [r for r in refs if r != name]
            )
        )
        superclass = None
        if index > 0 and draw(st.booleans()):
            superclass = draw(st.sampled_from(names[:index]))
        models.append(
            class_model_from_descriptor(
                name,
                superclass=superclass,
                native_methods=["jni"] if has_native else [],
                references=references,
            )
        )
    return models


class TestAnalysisProperties:
    @given(models=_universes())
    @settings(max_examples=40, deadline=None)
    def test_transformable_and_non_transformable_partition_the_universe(self, models):
        result = TransformabilityAnalyzer(models).analyse()
        names = {model.name for model in models}
        non_transformable_in_universe = set(result.non_transformable) & names
        assert result.transformable | non_transformable_in_universe == names
        assert result.transformable.isdisjoint(non_transformable_in_universe)

    @given(models=_universes())
    @settings(max_examples=40, deadline=None)
    def test_native_classes_are_never_transformable(self, models):
        result = TransformabilityAnalyzer(models).analyse()
        for model in models:
            if model.has_native_methods:
                assert not result.is_transformable(model.name)

    @given(models=_universes())
    @settings(max_examples=40, deadline=None)
    def test_closure_is_consistent(self, models):
        """Every class referenced by a non-transformable class is non-transformable."""
        result = TransformabilityAnalyzer(models).analyse()
        index = {model.name: model for model in models}
        for name in set(result.non_transformable) & set(index):
            for referenced in index[name].referenced_class_names():
                assert not result.is_transformable(referenced)

    @given(models=_universes())
    @settings(max_examples=30, deadline=None)
    def test_excluding_classes_never_increases_the_transformable_set(self, models):
        baseline = TransformabilityAnalyzer(models).analyse()
        excluded = {models[0].name}
        restricted = TransformabilityAnalyzer(models, excluded=excluded).analyse()
        assert restricted.transformable <= baseline.transformable


# ---------------------------------------------------------------------------
# Policy round-trips and clock monotonicity.
# ---------------------------------------------------------------------------

_node_names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestPolicyProperties:
    @given(
        placements=st.dictionaries(
            st.text(alphabet="ABCDEFG", min_size=1, max_size=5), _node_names, max_size=5
        ),
        transport=st.sampled_from(matrix.TRANSPORTS),
    )
    @settings(max_examples=40, deadline=None)
    def test_policy_round_trips_through_dict_form(self, placements, transport):
        policy = place_classes_on(placements, transport=transport)
        rebuilt = policy_from_dict(policy_to_dict(policy))
        for class_name in placements:
            assert rebuilt.instance_decision(class_name) == policy.instance_decision(class_name)

    @given(class_name=st.text(min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_default_policy_is_total(self, class_name):
        policy = all_local_policy()
        assert policy.for_class(class_name) is not None
        assert not policy.instance_decision(class_name).is_remote


class TestClockProperties:
    @given(steps=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards(self, steps):
        clock = SimClock()
        previous = clock.now
        for step in steps:
            clock.advance(step)
            assert clock.now >= previous
            previous = clock.now
