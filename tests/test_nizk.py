"""Simulated proximity proof system.

The backend is an HMAC commitment over the public inputs: sound against
parties without the key, deterministic, and NOT zero-knowledge.  Tests
cover exactly the properties the protocol relies on: statement soundness,
public-input binding, and unforgeability without the verifying key.
"""

import dataclasses
import hashlib
import hmac
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp.canon import EARTH_RADIUS_M, FieldElement, Q, cd_core, lp_encode
from sbpp.nizk import (
    BACKEND_ID,
    DOMAIN_PROOF,
    NizkError,
    Proof,
    PublicInputs,
    StatementFalseError,
    Witness,
    _tag,
    decode_target,
    distance_m,
    make_public_inputs,
    prove,
    radius_value,
    setup,
    verify,
)

Z32 = bytes(32)
CD = cd_core("d1", "1", "ep0", Z32)


def _keys(seed: bytes = b"test-seed") -> tuple[bytes, bytes]:
    return setup(seed)


def test_setup_deterministic():
    assert setup(b"a") == setup(b"a")
    assert setup(b"a") != setup(b"b")


def test_distance_frozen_vector():
    # 0.01 degrees of latitude at the equator
    assert distance_m(0.0, 0.0, 0.01, 0.0) == pytest.approx(1111.9492664455875, abs=1e-9)
    assert distance_m(35.7, 139.75, 35.7, 139.75) == 0.0


def test_distance_agrees_with_small_circle_geometry():
    # ~111.32 km per degree of longitude at the equator, scaled by cos(lat)
    d_eq = distance_m(0.0, 0.0, 0.0, 0.01)
    d_35 = distance_m(35.7, 0.0, 35.7, 0.01)
    assert d_35 / d_eq == pytest.approx(0.8121, abs=0.001)


def test_public_inputs_layout():
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    assert len(pub.elements) == 8
    assert pub[7] == CD
    assert all(pub[i] == FieldElement(0) for i in range(3, 7))
    lat, lon, radius = decode_target(pub)
    assert lat == pytest.approx(35.7, abs=1e-7)
    assert lon == pytest.approx(139.75, abs=1e-7)
    assert radius == 1000.0


def test_public_inputs_validation():
    with pytest.raises(NizkError):
        make_public_inputs(91.0, 0.0, 1000.0, CD)
    with pytest.raises(NizkError):
        make_public_inputs(0.0, 181.0, 1000.0, CD)
    with pytest.raises(NizkError):
        make_public_inputs(0.0, 0.0, 0.0, CD)


_BAD_RADII = [math.inf, -math.inf, math.nan, 1e80, Q, 0.4, 0.5, 0.0, -1.0]


@pytest.mark.parametrize("radius", _BAD_RADII)
def test_public_inputs_refuse_a_radius_no_statement_holds(radius):
    # not finite, or rounding outside [1, Q): a NizkError, never another
    # error type and never a radius-0 statement
    with pytest.raises(NizkError, match="^radius "):
        make_public_inputs(35.7, 139.75, radius, CD)
    with pytest.raises(NizkError, match="^radius "):
        radius_value(radius)


@given(
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
    st.one_of(st.floats(min_value=0.5, max_value=1e12, exclude_min=True), st.integers(1, Q - 1)),
)
@example(90.0, 180.0, 0.51)
@example(-90.0, -180.0, Q - 1)
@settings(max_examples=200, deadline=None)
def test_public_inputs_equal_the_checked_elements(lat, lon, radius):
    # built unchecked, the elements are what the checked constructor makes
    pub = make_public_inputs(lat, lon, radius, CD)
    assert pub.elements == (
        FieldElement(round((lat + 90.0) * 10**7)),
        FieldElement(round((lon + 180.0) * 10**7)),
        FieldElement(round(radius)),
        *[FieldElement(0)] * 4,
        CD,
    )
    assert PublicInputs.from_bytes(pub.to_bytes()) == pub


def test_public_inputs_serialize_round_trip():
    pub = make_public_inputs(-33.8688, 151.2093, 250.0, CD)
    assert PublicInputs.from_bytes(pub.to_bytes()) == pub
    assert len(pub.to_bytes()) == 8 * 32


_HONEST_PUB = make_public_inputs(35.7, 139.75, 1000.0, CD).to_bytes()


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@given(
    st.one_of(
        st.binary(max_size=300),
        st.binary(min_size=256, max_size=256),
        st.integers(0, 8 * 256 - 1).map(lambda bit: _flip(_HONEST_PUB, bit)),
        st.integers(0, 512).map(lambda n: (_HONEST_PUB * 2)[:n]),
    )
)
@example(b"\xff" * 256)
@settings(max_examples=300, deadline=None)
def test_public_inputs_from_bytes_raises_or_round_trips(raw):
    # Arbitrary bytes, bit flips of an honest encoding and wrong lengths.
    try:
        pub = PublicInputs.from_bytes(raw)
    except NizkError:
        return
    assert pub.to_bytes() == raw
    assert _encoded(pub.elements) == raw  # the kept bytes are the elements' encoding


def test_prove_verify_round_trip():
    pk, vk = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    proof = prove(pk, Witness(35.701, 139.751), pub)
    assert verify(vk, pub, proof)


def test_prove_is_deterministic():
    pk, _ = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    a = prove(pk, Witness(35.7, 139.75), pub)
    b = prove(pk, Witness(35.7, 139.75), pub)
    assert a == b


def test_statement_false_raises():
    # ~1.6 km east of the target with a 1 km radius
    pk, _ = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    with pytest.raises(StatementFalseError):
        prove(pk, Witness(35.7, 139.768), pub)


def test_statement_boundary():
    pk, vk = _keys()
    pub = make_public_inputs(0.0, 0.0, 1112.0, CD)
    # 0.01 deg lat = 1111.949... m: just inside an 1112 m radius
    proof = prove(pk, Witness(0.01, 0.0), pub)
    assert verify(vk, pub, proof)
    with pytest.raises(StatementFalseError):
        prove(pk, Witness(0.010001, 0.0), pub)


def test_any_public_input_perturbation_breaks_verification():
    pk, vk = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    proof = prove(pk, Witness(35.7, 139.75), pub)
    for i in range(8):
        bumped = PublicInputs(
            tuple(
                FieldElement(e.value + 1) if j == i else e for j, e in enumerate(pub.elements)
            )
        )
        assert not verify(vk, bumped, proof), f"element {i} not bound"


def test_digest_swap_breaks_verification():
    # the binding the whole protocol hangs on: same target, different session digest
    pk, vk = _keys()
    pub1 = make_public_inputs(35.7, 139.75, 1000.0, cd_core("d1", "1", "ep0", Z32))
    pub2 = make_public_inputs(35.7, 139.75, 1000.0, cd_core("d1", "1", "ep0", b"\x01" * 32))
    proof = prove(pk, Witness(35.7, 139.75), pub1)
    assert verify(vk, pub1, proof)
    assert not verify(vk, pub2, proof)


def test_unforgeability_smoke():
    _, vk = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    rng = random.Random(0)
    hits = sum(
        verify(vk, pub, Proof(BACKEND_ID, rng.randbytes(32))) for _ in range(10_000)
    )
    assert hits == 0


def test_wrong_key_rejects():
    pk, _ = _keys(b"alpha")
    _, vk2 = _keys(b"bravo")
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    proof = prove(pk, Witness(35.7, 139.75), pub)
    assert not verify(vk2, pub, proof)


def test_unknown_backend_rejected():
    pk, vk = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    proof = prove(pk, Witness(35.7, 139.75), pub)
    assert not verify(vk, pub, Proof("other-backend", proof.body))


def test_proof_serialize_round_trip():
    pk, _ = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    proof = prove(pk, Witness(35.7, 139.75), pub)
    assert Proof.parse(proof.serialize()) == proof
    with pytest.raises(NizkError):
        Proof.parse(b"\x00\x00")


def test_a_proof_parsed_from_a_buffer_does_not_change_with_it():
    # a parse copies a bytearray or memoryview once, so a later write to the
    # buffer reaches neither the verdict nor the bytes, and the proof hashes
    pk, vk = _keys()
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    raw = prove(pk, Witness(35.7, 139.75), pub).serialize()
    buf = bytearray(raw)
    for source in (buf, memoryview(buf)):
        proof = Proof.parse(source)
        assert verify(vk, pub, proof)
        buf[-1] ^= 1
        assert verify(vk, pub, proof)
        assert proof.serialize() == raw
        assert type(proof.body) is bytes
        assert hash(proof) == hash(Proof.parse(raw))
        buf[-1] ^= 1


def test_proof_parse_rejects_non_utf8_backend_id():
    with pytest.raises(NizkError):
        Proof.parse(b"\x00\x00\x00\x02\xff\xfe" + bytes(32))


@given(st.binary(max_size=12), st.binary(max_size=40))
@settings(max_examples=300, deadline=None)
def test_proof_parse_raises_or_round_trips(backend_id, body):
    raw = lp_encode([backend_id]) + body
    try:
        proof = Proof.parse(raw)
    except NizkError:
        return
    assert proof.serialize() == raw


@given(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=1.0, max_value=50_000.0),
)
@settings(max_examples=100, deadline=None)
def test_prove_verify_property(lat, lon, radius):
    pk, vk = _keys()
    pub = make_public_inputs(lat, lon, radius, CD)
    proof = prove(pk, Witness(lat, lon), pub)
    assert verify(vk, pub, proof)


def _nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` floats up, or down for a negative count."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def _statement_and_witness(draw):
    """A statement and a witness whose latitude is any float (NaN, ±inf,
    subnormals and points off the globe included) or one about the radius
    north or south of the target or at a pole, and whose longitude is any
    float or the target's or the antimeridian's, each moved a few floats."""
    pub = make_public_inputs(
        draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)), draw(st.integers(1, 50_000)), CD
    )
    lat, lon, radius = decode_target(pub)
    reach = math.degrees(radius / EARTH_RADIUS_M)  # the radius in degrees of latitude
    wlat = draw(st.one_of(st.floats(), st.sampled_from([lat + reach, lat - reach, 90.0, -90.0])))
    wlon = draw(st.one_of(st.floats(), st.sampled_from([lon, 180.0, -180.0])))
    ulps = st.integers(-2, 2)
    return pub, _nudged(wlat, draw(ulps)), _nudged(wlon, draw(ulps))


_TOKYO = make_public_inputs(35.7, 139.75, 1000.0, CD)
_ORIGIN = make_public_inputs(0.0, 0.0, 1000.0, CD)


@given(_statement_and_witness())
@example((_TOKYO, math.nan, 139.75))
@example((_TOKYO, 35.7, math.nan))
@example((_TOKYO, math.inf, 139.75))
@example((_TOKYO, 35.7, -math.inf))
@example((_TOKYO, 400.0, 139.75))
@example((_TOKYO, 35.7, 1e308))
@example((_ORIGIN, 5e-324, -5e-324))
@example((_ORIGIN, math.nextafter(90.0, math.inf), 0.0))
@settings(max_examples=300, deadline=None)
def test_prove_succeeds_exactly_for_a_witness_on_the_globe_within_the_radius(case):
    pub, lat, lon = case
    pk, vk = _keys()
    on_globe = -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0  # false for NaN
    if on_globe:
        t_lat, t_lon, radius = decode_target(pub)
        if distance_m(lat, lon, t_lat, t_lon) <= radius:
            assert verify(vk, pub, prove(pk, Witness(lat, lon), pub))
            return
    # off the globe a NizkError; on it but out of the radius, the statement is false
    with pytest.raises(StatementFalseError if on_globe else NizkError):
        prove(pk, Witness(lat, lon), pub)


# ---------------------------------------------------------------------------
# the carried public-input bytes and the proof tag


def _encoded(elements) -> bytes:
    """The public-input encoding, element by element."""
    return b"".join(e.value.to_bytes(32, "big") for e in elements)


_ELEMENT = st.one_of(st.integers(0, Q - 1), st.sampled_from([0, 1, Q - 1]))


@given(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=1.0, max_value=50_000.0),
    st.integers(0, 7),
    _ELEMENT,
)
@settings(max_examples=200, deadline=None)
def test_carried_bytes_are_the_encoding_of_the_elements(lat, lon, radius, slot, value):
    # made, parsed and replaced public inputs all prove over their own elements
    pk, vk = _keys()
    made = make_public_inputs(lat, lon, radius, CD)
    proof = prove(pk, Witness(lat, lon), made)
    parsed = PublicInputs.from_bytes(made.to_bytes())
    for pub in (made, parsed, dataclasses.replace(parsed)):
        assert pub.to_bytes() == _encoded(made.elements)
        assert pub == made
        assert verify(vk, pub, proof)
    for source in (made, parsed):
        elements = list(source.elements)
        elements[slot] = FieldElement(value)
        edited = dataclasses.replace(source, elements=tuple(elements))
        assert edited.to_bytes() == _encoded(elements)
        assert verify(vk, edited, proof) == (elements[slot] == made[slot])


def test_carried_bytes_are_not_a_field():
    pub = make_public_inputs(35.7, 139.75, 1000.0, CD)
    pub.to_bytes()
    assert [f.name for f in dataclasses.fields(pub) if f.init] == ["elements"]
    assert "_bytes" not in repr(pub)
    with pytest.raises(ValueError):
        dataclasses.replace(pub, _bytes=bytes(256))


@pytest.mark.parametrize("value", [Q, 2**256 - 1], ids=["Q", "2^256-1"])
@pytest.mark.parametrize("slot", [0, 3, 7])
def test_from_bytes_rejects_an_unreduced_element_in_any_slot(slot, value):
    raw = bytearray(make_public_inputs(35.7, 139.75, 1000.0, CD).to_bytes())
    raw[32 * slot : 32 * slot + 32] = value.to_bytes(32, "big")
    with pytest.raises(NizkError, match="not reduced"):
        PublicInputs.from_bytes(bytes(raw))


@given(st.binary(min_size=32, max_size=32), st.lists(_ELEMENT, min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_tag_is_the_hmac_of_the_framed_public_inputs(key, values):
    pub = PublicInputs(tuple(map(FieldElement, values)))
    framed = lp_encode([DOMAIN_PROOF, pub.to_bytes()])
    assert _tag(key, pub) == hmac.new(key, framed, hashlib.sha256).digest()
