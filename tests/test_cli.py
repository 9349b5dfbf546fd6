"""Unit tests for the command-line interface."""

from __future__ import annotations

import argparse
import io
import json
import re
import textwrap
from pathlib import Path

import pytest

import matrix
from repro.api.errors import ReproError
from repro.cli import build_parser, load_classes_from_file, main
from repro.core.transformer import ApplicationTransformer
from repro.policy.loader import policy_from_json
from repro.policy.policy import all_local_policy

APP_SOURCE = textwrap.dedent(
    '''
    """A tiny application used by the CLI tests."""

    from repro.core.introspect import native


    class Ledger:
        RATE = 3

        def __init__(self, owner):
            self.owner = owner
            self.balance = 0

        def credit(self, amount):
            self.balance = self.balance + amount
            return self.balance

        @staticmethod
        def convert(amount):
            return amount * Ledger.RATE


    class NativeBridge:
        @native
        def poke(self, register):
            return register
    '''
)


@pytest.fixture
def app_file(tmp_path):
    path = tmp_path / "ledger_app.py"
    path.write_text(APP_SOURCE, encoding="utf-8")
    return path


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestClassLoading:
    def test_loads_only_classes_defined_in_the_file(self, app_file):
        classes = load_classes_from_file(app_file)
        assert {cls.__name__ for cls in classes} == {"Ledger", "NativeBridge"}

    def test_subset_selection(self, app_file):
        classes = load_classes_from_file(app_file, ["Ledger"])
        assert [cls.__name__ for cls in classes] == ["Ledger"]

    def test_missing_class_is_an_error(self, app_file):
        with pytest.raises(ReproError):
            load_classes_from_file(app_file, ["Ghost"])

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ReproError):
            load_classes_from_file(tmp_path / "nope.py")


class TestAnalyzeCommand:
    def test_analyze_reports_both_outcomes(self, app_file):
        code, output = run_cli("analyze", str(app_file))
        assert code == 0
        assert "[ok]   Ledger" in output
        assert "[skip] NativeBridge" in output
        assert "native" in output

    def test_analyze_subset(self, app_file):
        code, output = run_cli("analyze", str(app_file), "--classes", "Ledger")
        assert code == 0
        assert "NativeBridge" not in output

    def test_analyze_missing_file_reports_error(self, tmp_path):
        code, output = run_cli("analyze", str(tmp_path / "missing.py"))
        assert code == 2
        assert "error:" in output


class TestEmitCommand:
    def test_emit_prints_generated_artifacts(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "Ledger")
        assert code == 0
        assert "Ledger_O_Int" in output
        assert "Ledger_O_Local" in output
        assert "Ledger_O_Factory" in output
        assert "that.set_owner(owner)" in output

    def test_emit_prints_one_proxy_per_interface(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "Ledger")
        assert code == 0
        assert "class Ledger_O_Proxy(_repro_Proxy, Ledger_O_Int):" in output
        assert "class Ledger_C_Proxy(_repro_Proxy, Ledger_C_Int):" in output
        assert "_O_Proxy_" not in output and "_repro_transport" not in output

    def test_emit_prints_byte_for_byte_the_text_that_was_executed(self):
        sample = Path(__file__).with_name("sample_app.py")
        code, output = run_cli("emit", str(sample), "--cls", "X")
        assert code == 0
        app = ApplicationTransformer(all_local_policy()).transform(load_classes_from_file(sample))
        executed = app.artifacts("X").sources
        banner = "# " + "=" * 70 + "\n"
        printed = {}
        for section in output.split(banner + "# ")[1:]:
            name, text = section.split("\n" + banner, 1)
            printed[name] = text[:-1]  # print() appended one newline
        assert printed == executed

    def test_emit_for_non_transformable_class_fails(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "NativeBridge")
        assert code == 1
        assert "was not transformed" in output


class TestReportCommand:
    def test_report_without_policy(self, app_file):
        code, output = run_cli("report", str(app_file))
        assert code == 0
        assert "RAFDA transformed application" in output
        assert "Ledger" in output

    def test_report_with_policy_file(self, app_file, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps(
                {"classes": {"Ledger": {"placement": "remote", "node": "server"}}}
            ),
            encoding="utf-8",
        )
        code, output = run_cli("report", str(app_file), "--policy", str(policy_path))
        assert code == 0
        assert "instances on 'server'" in output

    def test_report_with_a_pattern_policy_places_the_classes_it_matches(self):
        """``tests/sample_policy.json``: X by name stays local, ``"*"`` sends
        every other class to the server."""
        tests = Path(__file__).parent
        code, output = run_cli(
            "report", str(tests / "sample_app.py"), "--policy", str(tests / "sample_policy.json")
        )
        assert code == 0
        policies = dict(re.findall(r"^(\w+)\n  policy    : (.*)$", output, re.MULTILINE))
        assert policies == {
            "X": "instances local, dynamic; statics local",
            "Y": "instances on 'server' via corba; statics on 'server'",
            "Z": "instances on 'server' via corba; statics on 'server'",
        }

    def test_report_refuses_a_remote_placement_over_a_transport_without_proxies(
        self, app_file, tmp_path
    ):
        policy_path = tmp_path / "policy.json"
        code, template = run_cli(
            "policy-template", "--classes", "Ledger", "--nodes", "server", "--transport", "bogus"
        )
        assert code == 0
        policy_path.write_text(template, encoding="utf-8")
        code, output = run_cli("report", str(app_file), "--policy", str(policy_path))
        assert code == 2
        assert "'Ledger'" in output and "'bogus'" in output
        assert "via bogus" not in output


    def test_report_accepts_a_remote_placement_over_a_generated_transport(
        self, app_file, tmp_path
    ):
        policy_path = tmp_path / "policy.json"
        code, template = run_cli(
            "policy-template", "--classes", "Ledger", "--nodes", "server", "--transport", "corba"
        )
        assert code == 0
        policy_path.write_text(template, encoding="utf-8")
        code, output = run_cli("report", str(app_file), "--policy", str(policy_path))
        assert code == 0
        assert "instances on 'server' via corba" in output

    def test_report_accepts_a_policy_template_over_every_registered_transport(
        self, app_file, tmp_path
    ):
        """Every transport the cluster registers is one a policy may name."""
        policy_path = tmp_path / "policy.json"
        for transport in matrix.TRANSPORTS:
            code, template = run_cli(
                "policy-template", "--classes", "Ledger", "--nodes", "server",
                "--transport", transport,
            )
            assert code == 0
            policy_path.write_text(template, encoding="utf-8")
            code, output = run_cli("report", str(app_file), "--policy", str(policy_path))
            assert code == 0, output
            assert f"instances on 'server' via {transport}" in output


class TestCorpusAndTemplateCommands:
    def test_corpus_study_smoke(self):
        code, output = run_cli("corpus-study", "--seed", "7")
        assert code == 0
        assert "corpus classes            : 8200" in output
        assert "%" in output

    def test_policy_template_round_robin(self):
        code, output = run_cli(
            "policy-template", "--classes", "A,B,C", "--nodes", "n1,n2", "--transport", "soap"
        )
        assert code == 0
        config = json.loads(output)
        assert config["classes"]["A"]["node"] == "n1"
        assert config["classes"]["B"]["node"] == "n2"
        assert config["classes"]["C"]["node"] == "n1"
        assert config["classes"]["A"]["transport"] == "soap"

    def test_policy_template_keeps_the_order_of_pattern_keys(self):
        code, output = run_cli("policy-template", "--classes", "Z*,*", "--nodes", "n1,n2")
        assert code == 0
        assert list(json.loads(output)["classes"]) == ["Z*", "*"]
        policy = policy_from_json(output)
        assert policy.instance_decision("Zeta").node_id == "n1"
        assert policy.instance_decision("Alpha").node_id == "n2"

    def test_policy_template_requires_arguments(self):
        code, output = run_cli("policy-template", "--classes", "", "--nodes", "n1")
        assert code == 1

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "analyze",
            "emit",
            "report",
            "corpus-study",
            "policy-template",
        ):
            assert command in help_text

    def test_cli_smoke_runs_every_subcommand(self):
        """``make cli-smoke`` is a reachability consumer: a new subcommand joins it."""
        makefile = (Path(__file__).resolve().parents[1] / "Makefile").read_text(encoding="utf-8")
        recipe = makefile.split("\ncli-smoke:", 1)[1].split("\n\n", 1)[0]
        smoked = set(re.findall(r"\bsmoke ([a-z][\w-]*)", recipe))
        (subcommands,) = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert smoked == set(subcommands)

    def test_bench_subcommands_are_gone(self, capsys):
        """The benchmarks live in benchmarks/bench_*.py, not in the CLI."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench-batching"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench-batching'" in capsys.readouterr().err
