"""The set-up digest of tools/fingerprint.py: no benchmark runs here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(fingerprint)


def test_setup_digest_is_the_same_on_a_second_call():
    # kernels, fitted designs and keyless solves are bitwise deterministic
    assert fingerprint.setup_digest() == fingerprint.setup_digest()
