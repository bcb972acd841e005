"""The catalog traces match their committed pin.

``tests/data/catalog_traces.json`` holds, for eight catalog runs in two
engine modes, the record count per category and one digest over every
record in the canonical order (see ``tools/catalog_traces.py``).  A change
that moves a trace must re-record the pin with ``--write`` and say which
runs moved.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import catalog_traces  # noqa: E402


def test_catalog_traces_match_the_pin():
    expected = json.loads(catalog_traces.PIN_PATH.read_text())
    assert catalog_traces.differences(expected, catalog_traces.collect()) == []


def test_every_pinned_run_is_the_same_in_both_modes():
    # The fabric's canonical records equal the single engine's, so a
    # re-record can never pin two modes that disagree.
    pins = json.loads(catalog_traces.PIN_PATH.read_text())
    assert set(catalog_traces.MODES) == {"single", "relaxed-4"}
    for name, modes in pins.items():
        assert set(modes) == set(catalog_traces.MODES), name
        assert modes["single"] == modes["relaxed-4"], name


def test_differences_name_the_moved_categories():
    pins = {"ring": {"single": {"records": 3, "sha256": "a", "counts": {"nic.rx": 2, "nic.tx": 1}}}}
    moved = {"ring": {"single": {"records": 2, "sha256": "b", "counts": {"nic.rx": 1, "nic.tx": 1}}}}
    assert catalog_traces.differences(pins, pins) == []
    assert catalog_traces.differences(pins, moved) == [
        "ring [single]: 3 -> 2 records (nic.rx -1)"
    ]
