"""The exactness corpus: point sets and certificate reports must match the
digests committed in tests/data/digests.json (see make_digests.py there
for what each digest covers and how to regenerate it)."""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_digests", DATA / "make_digests.py")
make_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_digests)

EXPECTED = json.loads((DATA / "digests.json").read_text())


@pytest.mark.parametrize("section, compute", [
    ("bitmaps", make_digests.bitmap_digests),
    ("involution", make_digests.involution_digests),
    ("distinct", make_digests.distinct_digests),
    ("stdout", make_digests.stdout_digests)])
def test_outputs_match_the_committed_digests(section, compute):
    assert compute() == EXPECTED[section]
