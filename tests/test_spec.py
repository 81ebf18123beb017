"""Tests for repro.spec — the one analysis spec and its decoder."""

import pytest

from repro.core.delay import NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_II
from repro.spec import (
    AlgebraSpec,
    AnalysisSpec,
    SpecError,
    decode_algebra,
    decode_spec,
)
from repro.stats.grid import TimeGrid


def test_defaults_live_in_one_place():
    spec = decode_spec()
    assert spec == AnalysisSpec()
    assert spec.config == "I"
    assert spec.algebra == AlgebraSpec.moment()
    assert spec.delay == UnitDelay()
    assert decode_spec(algebra="grid").algebra == \
        AlgebraSpec.grid(TimeGrid(-8.0, 60.0, 2048))


def test_algebra_tokens_are_pinned():
    # Hier interface-store keys hash these strings: they must not move.
    assert decode_algebra("moments").token() == "moment"
    assert decode_algebra("mixture").token() == "mixture:8"
    assert decode_algebra("grid").token() == "grid:-8.0:60.0:2048:direct"
    assert decode_algebra("grid", "-4:30:512").token() == \
        "grid:-4.0:30.0:512:direct"


def test_spellings_of_one_analysis_fingerprint_equally():
    a = decode_spec("ii", "moments", "ignored", {"kind": "normal"})
    b = decode_spec("II", None, None,
                    {"sigma": 0.1, "mu": 1.0, "kind": "normal"})
    assert a == b
    assert a.stats is CONFIG_II
    assert a.delay == NormalDelay(1.0, 0.1)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != decode_spec("II").fingerprint()


@pytest.mark.parametrize("fields, field", [
    ({"config": "III"}, "config"),
    ({"algebra": "tensor"}, "algebra"),
    ({"algebra": "grid", "grid": "1:2"}, "grid"),
    ({"delay": {"kind": "quantum"}}, "delay"),
    ({"delay": {"kind": "frozen"}}, "delay"),
])
def test_errors_name_their_field(fields, field):
    with pytest.raises(SpecError) as info:
        decode_spec(**fields)
    assert info.value.field == field
