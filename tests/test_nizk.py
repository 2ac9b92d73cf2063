"""Simulated proximity proof system.

The backend is an HMAC commitment over the public inputs: sound against
parties without the key, deterministic, and NOT zero-knowledge.  Tests
cover exactly the properties the protocol relies on: statement soundness,
public-input binding, and unforgeability without the verifying key.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp.canon import FieldElement, cd_core, lp_encode
from sbpp.nizk import (
    BACKEND_ID,
    NizkError,
    Proof,
    PublicInputs,
    StatementFalseError,
    Witness,
    decode_target,
    distance_m,
    make_public_inputs,
    prove,
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
