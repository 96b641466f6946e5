from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def test_slow_paths_agree_and_exist():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "slow.yml").read_text())
    on = workflow[True]  # YAML 1.1 reads the key ``on`` as the boolean true
    push, pull = on["push"]["paths"], on["pull_request"]["paths"]
    assert push == pull
    assert [path for path in push if not (ROOT / path).exists()] == []
