"""Fixture-corpus driver for the simlint rules (tests/analysis_fixtures/).

Every registered rule code (plus the SIM001 parse-error pseudo-code) has a
``bad/`` tree that must trigger it and a ``good/`` tree that must not; this
module drives both directions, exercises the pragma / CLI machinery on
synthetic trees, and finally asserts the live ``src/`` tree is clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import all_rule_codes, run_analysis
from repro.analysis.cli import main
from repro.analysis.engine import PARSE_ERROR_CODE
from repro.analysis.report import format_github, format_text, to_json_payload

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

ALL_CODES = sorted(set(all_rule_codes()) | {PARSE_ERROR_CODE})


def _scan(path: Path, **kwargs):
    return run_analysis([path], root=REPO_ROOT, **kwargs)


# ------------------------------------------------------------ fixture corpus
@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_code(code):
    result = _scan(FIXTURES / code / "bad")
    assert code in result.codes(), (
        f"{code}: bad fixture produced {sorted(result.codes())}"
    )


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_does_not_trigger_code(code):
    result = _scan(FIXTURES / code / "good")
    assert code not in result.codes(), (
        f"{code}: good fixture produced {sorted(result.codes())}"
    )


def test_fixture_corpus_covers_every_rule():
    on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
    assert on_disk == set(ALL_CODES)
    for code in ALL_CODES:
        assert list((FIXTURES / code / "bad").rglob("*.py")), f"{code}: no bad files"
        assert list((FIXTURES / code / "good").rglob("*.py")), f"{code}: no good files"


# ------------------------------------------------------------------ pragmas
def _write(tmp_path: Path, body: str) -> Path:
    target = tmp_path / "module.py"
    target.write_text(body, encoding="utf-8")
    return target


def test_pragma_same_line_suppresses(tmp_path):
    _write(tmp_path, "import time\nnow = time.time()  # simlint: disable=SIM101 harness\n")
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == set()
    assert len(result.suppressed) == 1


def test_pragma_comment_line_above_suppresses(tmp_path):
    _write(
        tmp_path,
        "import time\n"
        "# simlint: disable=SIM101 reporting-only wall clock\n"
        "now = time.time()\n",
    )
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == set()


def test_pragma_in_comment_block_above_suppresses(tmp_path):
    _write(
        tmp_path,
        "import time\n"
        "# simlint: disable=SIM101 this wall-clock read is a harness\n"
        "# measurement only; it never feeds back into simulated time.\n"
        "now = time.time()\n",
    )
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == set()


def test_pragma_wrong_code_does_not_suppress(tmp_path):
    _write(tmp_path, "import time\nnow = time.time()  # simlint: disable=SIM301\n")
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == {"SIM101"}


def test_pragma_all_token_suppresses_everything(tmp_path):
    _write(tmp_path, "import time\nnow = time.time()  # simlint: disable=all legacy\n")
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == set()


def test_pragma_on_unrelated_line_does_not_suppress(tmp_path):
    _write(
        tmp_path,
        "import time\n"
        "# simlint: disable=SIM101\n"
        "x = 1\n"
        "now = time.time()\n",
    )
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.codes() == {"SIM101"}


# ---------------------------------------------------------------------- CLI
def test_cli_clean_tree_exits_0(tmp_path, monkeypatch, capsys):
    _write(tmp_path, "x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["module.py"]) == 0


def test_cli_findings_exit_1(tmp_path, monkeypatch, capsys):
    _write(tmp_path, "import time\nnow = time.time()\n")
    monkeypatch.chdir(tmp_path)
    assert main(["module.py"]) == 1
    assert "SIM101" in capsys.readouterr().out


def test_cli_missing_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["no-such-dir"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag", [["--baseline", "b.json"], ["--no-baseline"], ["--update-baseline"]],
    ids=["baseline", "no-baseline", "update-baseline"],
)
def test_cli_has_no_baseline(tmp_path, monkeypatch, capsys, flag):
    """A pragma with a reason is the one way to suppress a finding."""
    _write(tmp_path, "x = 1\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["module.py", *flag])
    assert exc.value.code == 2


def test_cli_output_writes_json_artifact(tmp_path, monkeypatch, capsys):
    _write(tmp_path, "import time\nnow = time.time()\n")
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    main(["module.py", "--output", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["counts"] == {"findings": 1, "suppressed": 0}
    assert payload["findings"][0]["code"] == "SIM101"


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in all_rule_codes():
        assert code in out


def test_select_and_ignore(tmp_path):
    _write(tmp_path, "import time\nimport numpy as np\nnow = time.time()\ng = np.random.default_rng(0)\n")
    only_1xx = run_analysis([tmp_path], root=tmp_path, select=["SIM1"])
    assert only_1xx.codes() == {"SIM101"}
    without_1xx = run_analysis([tmp_path], root=tmp_path, ignore=["SIM1"])
    assert "SIM101" not in without_1xx.codes()
    assert "SIM202" in without_1xx.codes()


# ------------------------------------------------------------------ formats
def test_report_formats_smoke(tmp_path):
    _write(tmp_path, "import time\nnow = time.time()\n")
    result = run_analysis([tmp_path], root=tmp_path)
    text = format_text(result)
    assert "SIM101" in text and "module.py" in text
    github = format_github(result)
    assert github.startswith("::error file=")
    payload = to_json_payload(result)
    assert payload["files_scanned"] == 1


# ------------------------------------------------------------- live src tree
def test_simlint_clean_on_live_src():
    """The committed tree must pass simlint; only reasoned pragmas suppress."""
    result = run_analysis([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.ok, (
        "simlint found new violations:\n" + format_text(result)
    )
    assert not (REPO_ROOT / ".simlint-baseline.json").exists()

if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
