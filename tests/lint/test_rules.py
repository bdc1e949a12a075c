"""Every DET rule fires on its flagged fixture and stays silent on the
clean one.

Fixtures live under ``tests/lint/fixtures/`` (excluded from normal lint
runs by the engine's discovery) and are linted here under *virtual*
paths, because most rules are path-scoped — e.g. DET002 only applies
inside ``sim/``/``core/``/``algorithms/``/``experiments/``.
"""

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule → (fixture stem, virtual path the pair is linted under,
#:         expected finding count in the flagged file)
CASES = {
    "DET001": ("det001", "src/repro/algorithms/sample.py", 4),
    "DET002": ("det002", "src/repro/sim/sample.py", 5),
    "DET003": ("det003", "src/repro/experiments/sample.py", 3),
    "DET005": ("det005", "src/repro/sim/events.py", 3),
    "DET006": ("det006", "src/repro/experiments/sample.py", 3),
    "DET007": ("det007", "src/repro/metrics/sample.py", 2),
    "DET008": ("det008", "src/repro/sim/sample.py", 2),
    "DET009": ("det009", "src/repro/sim/sample.py", 4),
    "DET010": ("det010", "src/repro/experiments/sample.py", 8),
    "DET011": ("det011", "src/repro/sim/sample.py", 5),
    "DET012": ("det012", "src/repro/sim/sample.py", 2),
    "DET013": ("det013", "src/repro/experiments/sample.py", 4),
    "DET014": ("det014", "src/repro/experiments/sample.py", 4),
}


def _lint_fixture(stem: str, suffix: str, virtual_path: str):
    source = (FIXTURES / f"{stem}_{suffix}.py").read_text(encoding="utf-8")
    return lint_source(source, virtual_path)


def test_every_rule_has_a_fixture_pair():
    codes = {rule.code for rule in all_rules()}
    assert codes == set(CASES), "CASES must cover exactly the registry"
    for stem, _path, _count in CASES.values():
        assert (FIXTURES / f"{stem}_flagged.py").exists()
        assert (FIXTURES / f"{stem}_clean.py").exists()


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_fires_on_flagged_fixture(code):
    stem, virtual_path, expected = CASES[code]
    findings = _lint_fixture(stem, "flagged", virtual_path)
    assert [f.rule for f in findings] == [code] * expected, findings


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_silent_on_clean_fixture(code):
    stem, virtual_path, _expected = CASES[code]
    findings = _lint_fixture(stem, "clean", virtual_path)
    assert findings == [], findings


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_out_of_scope_path_is_silent(code):
    """Path scoping: the flagged fixture is clean under a foreign path."""
    if code in (
        "DET001",
        "DET003",
        "DET006",
        "DET009",
        "DET010",
        "DET013",
        "DET014",
    ):
        pytest.skip("not path-scoped (applies everywhere it can match)")
    stem, _virtual_path, _expected = CASES[code]
    source = (FIXTURES / f"{stem}_flagged.py").read_text(encoding="utf-8")
    findings = lint_source(source, "src/repro/viz/sample.py")
    assert [f for f in findings if f.rule == code] == []


def test_rule_catalogue_is_complete():
    for rule in all_rules():
        assert rule.code.startswith("DET")
        assert rule.name
        assert rule.description
