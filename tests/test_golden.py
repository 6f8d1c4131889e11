"""The committed fingerprints of liftcal's outputs, recomputed for the quick families."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "fingerprints.json"


def _differential():
    path = ROOT / "tools" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_fingerprints_equal_the_golden_file():
    # the CLI and check families, and the other case keys, are left to
    # `tools/differential.py --check tests/golden/fingerprints.json`
    differential = _differential()
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 7551
    hashes = differential.fast_hashes()
    assert len(hashes) == 148 + 18 * differential.FAST_CASES
    assert set(hashes) <= set(golden)
    assert [key for key in hashes if hashes[key] != golden[key]] == []
