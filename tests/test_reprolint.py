"""Tests for the reprolint static analyzer (tools/reprolint).

Three layers: fixture-driven rule tests (each rule fires on its bad
fixture and stays silent on the good twin), suppression machinery
(inline disables, the baseline store, staleness and justification
enforcement), and driver smoke tests — including the acceptance
criterion itself: ``python -m tools.reprolint src tests benchmarks``
exits 0 on this tree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint.baseline import Baseline, BaselineError, entries_for
from tools.reprolint.driver import _DEFAULT_BASELINE, discover, main, run_paths
from tools.reprolint.rules import ALL_RULES, RULES_BY_ID
from tools.reprolint.testing import check_fixture, run_rule

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "reprolint"

#: (rule id, fixture family, minimum findings expected on the bad twin).
CASES = [
    ("REP011", "determinism", 2),
    ("REP012", "determinism", 1),
    ("REP013", "determinism", 1),
    ("REP014", "determinism", 2),
    ("REP021", "shm", 2),
    ("REP022", "shm", 2),
    ("REP023", "shm", 1),
    ("REP031", "cancellation", 1),
    ("REP032", "cancellation", 1),
    ("REP033", "cancellation", 1),
    ("REP034", "cancellation", 2),
    ("REP034", "score_funnel", 3),
    ("REP035", "cancellation", 3),
    ("REP051", "kernel", 1),
    ("REP052", "kernel", 1),
    ("REP061", "index", 3),
    ("REP071", "artifacts", 4),
    ("REP081", "serving", 5),
    ("REP091", "imports", 4),
    ("REP092", "imports", 6),
    ("REP093", "imports", 4),
]


def _unscoped(rule_id):
    """A fresh instance of the rule with its path scope removed."""
    rule = type(RULES_BY_ID[rule_id])()
    rule.scope = ()
    return rule


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id,family,minimum", CASES)
    def test_fires_on_bad_fixture(self, rule_id, family, minimum):
        findings = check_fixture(
            RULES_BY_ID[rule_id], FIXTURES / "{}_bad.py".format(family)
        )
        mine = [finding for finding in findings if finding.rule == rule_id]
        assert len(mine) >= minimum
        for finding in mine:
            assert finding.line > 0
            assert finding.message
            assert finding.rationale  # every finding explains itself
            assert finding.snippet  # the baseline key is populated

    @pytest.mark.parametrize("rule_id,family,minimum", CASES)
    def test_silent_on_good_fixture(self, rule_id, family, minimum):
        findings = check_fixture(
            RULES_BY_ID[rule_id], FIXTURES / "{}_good.py".format(family)
        )
        assert [finding for finding in findings if finding.rule == rule_id] == []

    def test_floor_seam_flags_a_round_loop(self):
        # The frontier-shaped pair: a best-first round loop that restates
        # ``bound < floor`` inline is flagged where it stands; its twin,
        # which asks survives_floor, is silent (the good-fixture case).
        bad = FIXTURES / "index_bad.py"
        source = bad.read_text().splitlines()
        start = source.index("def best_first_rounds(frontier, solve_block, sizes):")
        findings = check_fixture(RULES_BY_ID["REP061"], bad)
        assert any(finding.line > start for finding in findings)

    def test_rule_catalog_shape(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        families = {rule_id[:5] for rule_id in ids}
        assert {"REP01", "REP02", "REP03", "REP05"} <= families
        for rule in ALL_RULES:
            assert rule.rationale  # no rule without a written why

    def test_scope_filters_paths(self):
        determinism = RULES_BY_ID["REP011"]
        assert determinism.applies("src/repro/engine/pipeline.py")
        assert not determinism.applies("benchmarks/bench_engine.py")
        assert not determinism.applies("src/repro/data/table.py")
        assert RULES_BY_ID["REP033"].applies("src/repro/serve.py")
        assert RULES_BY_ID["REP051"].applies("anything/anywhere.py")
        assert RULES_BY_ID["REP081"].applies("src/repro/serving/app.py")
        assert not RULES_BY_ID["REP081"].applies("src/repro/engine/executor.py")
        assert not RULES_BY_ID["REP081"].applies("tests/test_serving.py")
        assert RULES_BY_ID["REP091"].applies("src/repro/nlp/crf.py")
        assert not RULES_BY_ID["REP091"].applies("tests/test_nlp_crf.py")
        assert not RULES_BY_ID["REP091"].applies("tools/reprolint/driver.py")
        assert RULES_BY_ID["REP092"].applies("src/repro/api.py")
        assert not RULES_BY_ID["REP092"].applies("src/repro/engine/__init__.py")
        assert not RULES_BY_ID["REP092"].applies("tests/test_options.py")
        assert RULES_BY_ID["REP093"].applies("benchmarks/test_bench_fig12_accuracy.py")
        assert RULES_BY_ID["REP093"].applies("tests/test_ingest.py")
        assert not RULES_BY_ID["REP093"].applies("tools/reprolint/driver.py")
        funnel = RULES_BY_ID["REP035"]
        assert funnel.applies("src/repro/engine/pipeline.py")
        assert funnel.applies("src/repro/api.py")
        assert funnel.applies("src/repro/data/table.py")
        assert not funnel.applies("src/repro/datasets/suites.py")
        assert not funnel.applies("tests/oracles/generation.py")


class TestInlineSuppression:
    def _run(self, tmp_path, source, rule_id="REP011"):
        target = tmp_path / "code.py"
        target.write_text(source)
        return run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(tmp_path / "baseline.json"),
            rules=[_unscoped(rule_id)],
        )

    def test_same_line_disable_with_rationale(self, tmp_path):
        report, _ = self._run(
            tmp_path,
            "OUT = []\n"
            "for item in {1, 2, 3}:  # reprolint: disable=REP011 -- order-free\n"
            "    OUT.append(item)\n",
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, how = report.suppressed[0]
        assert finding.rule == "REP011"
        assert how == "inline: order-free"
        assert report.clean

    def test_preceding_comment_line_disable(self, tmp_path):
        report, _ = self._run(
            tmp_path,
            "OUT = []\n"
            "# reprolint: disable=REP011 -- order-free\n"
            "for item in {1, 2, 3}:\n"
            "    OUT.append(item)\n",
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_bare_disable_is_an_error_and_does_not_suppress(self, tmp_path):
        report, _ = self._run(
            tmp_path,
            "OUT = []\n"
            "for item in {1, 2, 3}:  # reprolint: disable=REP011\n"
            "    OUT.append(item)\n",
        )
        assert len(report.findings) == 1  # still reported
        assert any("rationale" in error for error in report.errors)
        assert not report.clean

    def test_disable_for_other_rule_does_not_apply(self, tmp_path):
        report, _ = self._run(
            tmp_path,
            "OUT = []\n"
            "for item in {1, 2, 3}:  # reprolint: disable=REP099 -- wrong rule\n"
            "    OUT.append(item)\n",
        )
        assert len(report.findings) == 1
        assert report.suppressed == []


_BAD_SOURCE = "OUT = []\nfor item in {1, 2, 3}:\n    OUT.append(item)\n"
_GOOD_SOURCE = "OUT = []\nfor item in (1, 2, 3):\n    OUT.append(item)\n"


class TestBaseline:
    def _paths(self, tmp_path, source=_BAD_SOURCE):
        target = tmp_path / "code.py"
        target.write_text(source)
        return target, tmp_path / "baseline.json"

    def test_round_trip_suppresses_and_stays_clean(self, tmp_path):
        target, baseline_path = self._paths(tmp_path)
        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        assert len(report.findings) == 1

        entries = entries_for(report.findings, justification="reviewed: fixture")
        Baseline(entries, path=str(baseline_path)).save()

        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        assert report.clean
        assert [how for _, how in report.suppressed] == ["baseline"]

    def test_stale_entry_is_an_error_once_code_is_fixed(self, tmp_path):
        target, baseline_path = self._paths(tmp_path)
        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        entries = entries_for(report.findings, justification="reviewed: fixture")
        Baseline(entries, path=str(baseline_path)).save()

        target.write_text(_GOOD_SOURCE)  # the finding is fixed for real
        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        assert any("stale" in error for error in report.errors)
        assert not report.clean

    def test_missing_justification_is_an_error(self, tmp_path):
        target, baseline_path = self._paths(tmp_path)
        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        entries = entries_for(report.findings)  # justification left empty
        Baseline(entries, path=str(baseline_path)).save()

        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(baseline_path),
            rules=[_unscoped("REP011")],
        )
        assert any("justification" in error for error in report.errors)
        assert not report.clean  # a baseline is reviewed or it is rejected

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(baseline_path)
        baseline_path.write_text('[{"rule": "REP011"}]')  # missing key fields
        with pytest.raises(BaselineError):
            Baseline.load(baseline_path)

    def test_shipped_baseline_is_fully_justified(self):
        baseline = Baseline.load(_DEFAULT_BASELINE)
        assert baseline.entries  # the reviewed grandfather list exists
        assert baseline.justification_errors() == []
        for entry in baseline.entries:
            assert len(entry["justification"]) > 40  # written, not a stub


class TestDriver:
    def test_discovery_skips_fixture_tree(self):
        files = [path.as_posix() for path in discover(["tests"], REPO)]
        assert files  # real tests are found
        assert not any("fixtures/reprolint" in path for path in files)

    def test_explicit_fixture_file_is_scanned(self):
        target = FIXTURES / "shm_bad.py"
        files = discover([str(target)], REPO)
        assert files == [target]

    def test_unknown_path_is_a_usage_error(self):
        assert main(["does/not/exist"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules", "unused"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_repo_tree_is_clean(self, monkeypatch, tmp_path, capsys):
        """The acceptance criterion, in-process, plus the JSON report."""
        monkeypatch.chdir(REPO)
        report_path = tmp_path / "findings.json"
        assert main(["src", "tests", "benchmarks", "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["files_checked"] > 50
        suppressed_rules = {entry["rule"] for entry in payload["suppressed"]}
        assert suppressed_rules  # the baseline is exercised, not bypassed

    def test_module_entry_point_smoke(self):
        """`python -m tools.reprolint src tests benchmarks` exits 0."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "src", "tests", "benchmarks"],
            cwd=str(REPO),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout

    def test_findings_exit_code_and_rendering(self, monkeypatch, tmp_path, capsys):
        target = tmp_path / "code.py"
        target.write_text(
            "REGISTRY = set()\n"
            "def merge_all(items):\n"
            "    return sorted(items)\n"
        )
        monkeypatch.chdir(tmp_path)
        # REP013 is scoped to engine paths; place the file accordingly.
        engine = tmp_path / "src" / "repro" / "engine"
        engine.mkdir(parents=True)
        target.replace(engine / "merging.py")
        rc = main(["src", "--baseline", str(tmp_path / "baseline.json")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP013" in out
        assert "why:" in out  # rationale is printed with the finding

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        report, _ = run_paths(
            [str(target)],
            root=tmp_path,
            baseline_path=str(tmp_path / "baseline.json"),
        )
        assert any("cannot analyze" in error for error in report.errors)
        assert not report.clean


class TestHarness:
    def test_run_rule_on_source_string(self):
        findings = run_rule(
            _unscoped("REP012"),
            "import numpy as np\n\ndef rank(x):\n    return np.argsort(x)\n",
        )
        assert [finding.rule for finding in findings] == ["REP012"]

    def test_context_names_the_enclosing_scope(self):
        findings = run_rule(
            _unscoped("REP012"),
            "import numpy as np\n\n"
            "class Runner:\n"
            "    def go(self, x):\n"
            "        return np.argsort(x)\n",
        )
        assert [finding.context for finding in findings] == ["Runner.go"]
