"""A fixed slice of the diagnostics corpus (``diagnostics_corpus.py``)
against its pin; CI checks the whole corpus."""

import json

import pytest

import diagnostics_corpus

_SLICE = [label for label in diagnostics_corpus.body_labels() if label.endswith((":reference", ":docgen-0"))]


@pytest.fixture(scope="module")
def pin():
    return json.loads(diagnostics_corpus.PIN.read_text(encoding="utf-8"))


def test_pin_covers_every_body(pin):
    assert list(pin["bodies"]) == sorted(diagnostics_corpus.body_labels())
    assert pin["documents"] == sum(entry["documents"] for entry in pin["bodies"].values())


@pytest.mark.parametrize("label", _SLICE)
def test_outcomes_match_the_pin(label, pin):
    lines = diagnostics_corpus.outcome_lines(label)
    assert {"documents": len(lines), "sha256": diagnostics_corpus.digest(lines)} == pin["bodies"][label]
