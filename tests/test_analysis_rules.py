"""Tests for the distribution-safety static analyzer (``repro.analysis``).

The per-rule cases are fixture-driven: each module under
``tests/lint_fixtures/`` marks its violating lines with ``# expect: DS1xx``
comments, and the tests here assert the engine reports *exactly* the marked
(rule, line) pairs — so a rule that over-fires on the fixture's clean
negatives fails the same test as one that under-fires on its positives.

The deploy-time half covers the acceptance scenario from the issue: a
service whose write method calls ``random.random()`` must be refused by
``with_replication(3, quorum="majority").with_static_checks()`` with a
:class:`PolicyError` naming DS101 and the offending ``path:line``.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from lint_fixtures.deploy_targets import (
    FlakyLedger,
    ImpureCatalog,
    InPlaceCatalog,
    SoundLedger,
)

from repro.analysis import (
    PARSE_ERROR_RULE,
    Finding,
    Rule,
    RuleEngine,
    SuppressionIndex,
    all_rules,
    default_engine,
    parse_suppression,
    policy_severity_overrides,
    verify_deployment,
)
from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError
from repro.runtime.cluster import Cluster

FIXTURE_DIR = Path(__file__).resolve().parent / "lint_fixtures"
EXPECT_MARKER = re.compile(r"#\s*expect:\s*(DS\d+)")

RULE_FIXTURES = {
    "DS101": "ds101_nondeterminism.py",
    "DS102": "ds102_cacheable_mutation.py",
    "DS103": "ds103_unserializable_signature.py",
    "DS104": "ds104_mutable_class_state.py",
    "DS105": "ds105_interceptor_hooks.py",
    "DS107": "ds107_span_leaks.py",
}


def expected_markers(path: Path) -> set:
    hits = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for rule in EXPECT_MARKER.findall(line):
            hits.add((rule, lineno))
    return hits


class TestRuleFixtures:
    """Every fixture reports exactly its marked (rule, line) pairs."""

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_reports_exactly_the_marked_lines(self, rule_id):
        path = FIXTURE_DIR / RULE_FIXTURES[rule_id]
        expected = expected_markers(path)
        assert expected, f"fixture {path.name} has no # expect: markers"
        findings, checked = default_engine().run_paths([path])
        got = {(f.rule, f.line) for f in findings}
        assert got == expected
        assert checked == 1

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_findings_all_carry_the_fixture_rule(self, rule_id):
        """A fixture exercises its own rule — no cross-rule bycatch."""
        path = FIXTURE_DIR / RULE_FIXTURES[rule_id]
        findings, _ = default_engine().run_paths([path])
        assert {f.rule for f in findings} == {rule_id}

    def test_findings_carry_locations_and_messages(self):
        path = FIXTURE_DIR / RULE_FIXTURES["DS101"]
        findings, _ = default_engine().run_paths([path])
        for finding in findings:
            assert finding.location == f"{path}:{finding.line}"
            assert finding.message
            assert finding.severity in ("warning", "error")

    def test_ds107_findings_suggest_the_replacement(self):
        path = FIXTURE_DIR / RULE_FIXTURES["DS107"]
        findings, _ = default_engine().run_paths([path])
        suggestions = [f.suggestion for f in findings if f.suggestion]
        assert any("with tracer.span(" in s for s in suggestions)


class TestEngineBehavior:
    def test_rule_ids_cover_the_documented_set(self):
        assert sorted(rule.id for rule in default_engine().rules) == sorted(RULE_FIXTURES)

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            default_engine().select(["DS999"])

    def test_select_restricts_to_the_named_rules(self):
        path = FIXTURE_DIR / RULE_FIXTURES["DS101"]
        engine = default_engine().select(["DS102"])
        findings, _ = engine.run_paths([path])
        assert findings == []

    def test_parse_error_surfaces_as_ds000(self):
        findings = default_engine().run_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert findings[0].severity == "error"

    def test_missing_path_raises_not_skips(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            default_engine().run_paths([tmp_path / "nope.py"])

    def test_assume_service_lints_undecorated_classes(self):
        source = (
            "import time\n"
            "class Plain:\n"
            "    def write(self, v):\n"
            "        self.v = time.time()\n"
        )
        quiet = default_engine().run_source(source, path="p.py")
        assert quiet == []
        forced = default_engine().run_source(
            source, path="p.py", assume_service=True
        )
        assert [f.rule for f in forced] == ["DS101"]

    def test_every_rule_explains_itself(self):
        for rule in all_rules():
            text = rule.explain()
            assert rule.id in (rule.id,) and text.strip()

    def test_a_rule_without_a_check_cannot_be_made(self):
        class Unfinished(Rule):
            id = "DS900"

        with pytest.raises(TypeError, match="check"):
            Unfinished()

    def test_engine_refuses_two_rules_with_one_id(self):
        rule = all_rules()[0]
        with pytest.raises(ValueError, match="duplicate rule ids"):
            RuleEngine([rule, type(rule)()])

    def test_engine_accepts_an_explicit_rule_list(self):
        engine = RuleEngine(all_rules())
        path = FIXTURE_DIR / RULE_FIXTURES["DS104"]
        findings, _ = engine.run_paths([path])
        assert {f.rule for f in findings} == {"DS104"}


class TestSuppressions:
    def test_bare_ignore_silences_every_rule(self):
        source = (
            "import time\n"
            "from repro.core.interfaces import cacheable\n"
            "class Svc:\n"
            "    @cacheable\n"
            "    def reads(self):\n"
            "        return 1\n"
            "    def write(self):\n"
            "        self.t = time.time()  # repro: ignore\n"
        )
        assert default_engine().run_source(source, path="s.py") == []

    def test_ignore_on_its_own_line_extends_to_the_next(self):
        source = (
            "import time\n"
            "from repro.core.interfaces import cacheable\n"
            "class Svc:\n"
            "    @cacheable\n"
            "    def reads(self):\n"
            "        return 1\n"
            "    def write(self):\n"
            "        # repro: ignore[DS101]\n"
            "        self.t = time.time()\n"
        )
        assert default_engine().run_source(source, path="s.py") == []

    def test_mismatched_rule_id_does_not_suppress(self):
        source = (
            "import time\n"
            "from repro.core.interfaces import cacheable\n"
            "class Svc:\n"
            "    @cacheable\n"
            "    def reads(self):\n"
            "        return 1\n"
            "    def write(self):\n"
            "        self.t = time.time()  # repro: ignore[DS104]\n"
        )
        findings = default_engine().run_source(source, path="s.py")
        assert [f.rule for f in findings] == ["DS101"]

    @given(st.text(max_size=200))
    def test_parse_suppression_never_raises(self, line):
        parse_suppression(line)

    @given(st.text(max_size=500))
    def test_suppression_index_never_raises(self, source):
        index = SuppressionIndex(source)
        index.is_suppressed(1, "DS101")


class TestPolicyEscalation:
    def test_quorum_policies_escalate_ds101_to_error(self):
        policy = ServicePolicy().with_replication(3, quorum="majority")
        overrides = policy_severity_overrides(policy)
        assert overrides.get("DS101") == "error"

    def test_plain_replication_escalates_ds104(self):
        policy = ServicePolicy().with_replication(2, quorum=1)
        overrides = policy_severity_overrides(policy)
        assert overrides.get("DS104") == "error"
        assert "DS101" not in overrides

    def test_unreplicated_policy_adds_no_overrides(self):
        assert policy_severity_overrides(ServicePolicy()) == {}

    def test_a_policy_without_the_replication_properties_is_an_error(self):
        class Bare:
            replicated = True  # no quorum_replicated

        for policy in (Bare(), object()):
            with pytest.raises(AttributeError):
                policy_severity_overrides(policy)

    def test_verify_deployment_only_trips_on_errors(self):
        # Unreplicated: DS101 stays a warning, so the gate passes.
        assert verify_deployment(FlakyLedger, ServicePolicy()) == []
        # Quorum-replicated: the same finding is now an error.
        quorum = ServicePolicy().with_replication(3, quorum="majority")
        findings = verify_deployment(FlakyLedger, quorum)
        assert [f.rule for f in findings] == ["DS101"]
        assert findings[0].severity == "error"
        assert findings[0].path.endswith("deploy_targets.py")

    def test_verify_deployment_reports_real_source_lines(self):
        source_path = Path(__file__).parent / "lint_fixtures" / "deploy_targets.py"
        lines = source_path.read_text().splitlines()
        expected_line = next(
            i for i, text in enumerate(lines, start=1) if "random.random()" in text
        )
        quorum = ServicePolicy().with_replication(3, quorum="majority")
        (finding,) = verify_deployment(FlakyLedger, quorum)
        assert finding.line == expected_line


class TestDeployTimeGate:
    """The acceptance scenario: deploys are refused, not just warned about."""

    @pytest.fixture
    def cluster(self):
        return Cluster(("client", "p0", "p1", "p2"))

    def test_quorum_deploy_of_flaky_writer_is_refused(self, cluster):
        policy = (
            ServicePolicy(transport="rmi")
            .with_replication(3, quorum="majority")
            .with_static_checks()
        )
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError) as excinfo:
                session.service("flaky", policy, impl=FlakyLedger(), node="p0")
        message = str(excinfo.value)
        assert "DS101" in message
        assert "FlakyLedger" in message
        line = next(
            i
            for i, text in enumerate(
                (FIXTURE_DIR / "deploy_targets.py").read_text().splitlines(), 1
            )
            if "random.random()" in text
        )
        assert f"deploy_targets.py:{line}" in message
        # Refused means refused: nothing was bound in the naming service.
        assert "flaky" not in cluster.naming

    def test_clean_service_deploys_under_the_same_policy(self, cluster):
        policy = (
            ServicePolicy(transport="rmi")
            .with_replication(3, quorum="majority")
            .with_static_checks()
        )
        with Session(cluster, node="client") as session:
            svc = session.service("sound", policy, impl=SoundLedger(), node="p0")
            assert svc.credit(5.0) == 5.0

    def test_flaky_writer_passes_unreplicated_with_checks_on(self, cluster):
        """DS101 is only a warning without a quorum policy, so the gate
        (which refuses on *errors*) lets the deploy through."""
        policy = ServicePolicy(transport="rmi").with_static_checks()
        with Session(cluster, node="client") as session:
            svc = session.service("flaky", policy, impl=FlakyLedger(), node="p0")
            assert svc.total() == 0.0

    def test_static_checks_require_a_deploying_session(self, cluster):
        policy = ServicePolicy().with_static_checks()
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError, match="static_checks"):
                session.service("absent", policy)


class TestRuntimeCacheableComplement:
    """The runtime half of DS102: dispatched @cacheable calls that rebind
    state are counted and warned about once per (class, member)."""

    @pytest.fixture
    def cluster(self):
        return Cluster(("client", "server"))

    def _deploy(self, cluster, session, impl, name):
        return session.service(
            name, ServicePolicy(transport="rmi"), impl=impl, node="server"
        )

    def test_rebinding_cacheable_member_counts_and_warns_once(self, cluster):
        with Session(cluster, node="client") as session:
            svc = self._deploy(cluster, session, ImpureCatalog(), "catalog")
            svc.put_item("a", 1)
            space = cluster.space("server")
            assert space.coherence.cacheable_violations == 0
            with pytest.warns(RuntimeWarning, match="DS102"):
                svc.get_item("a")
            assert space.coherence.cacheable_violations == 1
            # Second offence is counted but not re-warned.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                svc.get_item("a")
            assert space.coherence.cacheable_violations == 2

    def test_in_place_mutation_is_the_documented_blind_spot(self, cluster):
        """The shallow identity snapshot cannot see list.append — the static
        rule (DS102) exists precisely to cover this case."""
        with Session(cluster, node="client") as session:
            svc = self._deploy(cluster, session, InPlaceCatalog(), "inplace")
            svc.put_item("a", 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert svc.get_item("a") == 1
            assert cluster.space("server").coherence.cacheable_violations == 0

    def test_pure_cacheable_members_stay_clean(self, cluster):
        with Session(cluster, node="client") as session:
            svc = self._deploy(cluster, session, SoundLedger(), "ledger")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert svc.total() == 0.0
            assert cluster.space("server").coherence.cacheable_violations == 0


class TestFindingModel:
    def test_to_dict_round_trips_the_row_shape(self):
        finding = Finding(
            rule="DS101",
            severity="warning",
            path="x.py",
            line=3,
            col=4,
            message="m",
            suggestion="s",
        )
        assert finding.to_dict() == {
            "rule": "DS101",
            "severity": "warning",
            "path": "x.py",
            "line": 3,
            "col": 4,
            "message": "m",
            "suggestion": "s",
        }
