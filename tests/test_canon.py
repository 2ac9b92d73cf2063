"""Length-prefixed encoding and digest tests against frozen vectors.

The hex digests below were computed with an independent hashlib-only
script before this module existed; they pin the wire format.
"""

import hashlib
import hmac
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp.canon import (
    DOMAIN_DIGEST,
    EncodingError,
    FieldElement,
    Q,
    cd_core,
    cd_full,
    decode_elements,
    digest,
    hmac_sha256,
    lp_decode,
    lp_encode,
)

VECTORS = Path(__file__).resolve().parents[1] / "src" / "sbpp" / "vectors" / "digest_vectors.txt"

Z32 = bytes(32)


def test_q_is_the_bn254_scalar_order():
    assert Q == 21888242871839275222246405745257275088548364400416034343698204186575808495617
    assert Q.bit_length() == 254


def test_lp_encode_frozen_bytes():
    assert lp_encode([b"A"]) == bytes.fromhex("0000000141")
    assert lp_encode([b"AB", b"C"]) == bytes.fromhex("0000000241420000000143")
    assert lp_encode([b"A", b"BC"]) == bytes.fromhex("0000000141000000024243")


def test_lp_boundary_shift_changes_encoding():
    # the whole point of the length prefix: ["AB","C"] != ["A","BC"]
    assert lp_encode([b"AB", b"C"]) != lp_encode([b"A", b"BC"])
    assert digest([b"AB", b"C"]) != digest([b"A", b"BC"])


def test_lp_empty_cases():
    assert lp_encode([]) == b""
    assert lp_encode([b""]) == bytes(4)
    assert lp_decode(b"") == []
    assert lp_decode(bytes(4)) == [b""]


def test_lp_decode_rejects_trailing_garbage():
    good = lp_encode([b"A"])
    with pytest.raises(EncodingError):
        lp_decode(good + b"\x00")
    with pytest.raises(EncodingError):
        lp_decode(good[:-1])


def test_lp_strings_encode_as_utf8():
    assert lp_encode(["A"]) == lp_encode([b"A"])
    assert lp_encode(["\U0001f30d"]) == lp_encode(["\U0001f30d".encode()])


def test_digest_of_empty_list():
    assert digest([]).to_bytes().hex() == (
        "221f8a7714359b6db9baddee936a57af86dea0c27db5d107950dc2cbb852b851"
    )


def test_digest_frozen_vectors():
    cases = [
        ([b""], "1dae27cc7fe2af345f160253be3875d449a7e9ba6bd68747d87d4e7054b81115"),
        ([b"A"], "13ccc2dec05666f867f328e6bac62d5db307ba33c0d198c78da5fd5a7065f67a"),
        ([b"AB", b"C"], "19f54d268755c9d6a9ae46cdfe12b2d0ded4a486cd6056182a9b3a4aab8be163"),
        ([b"A", b"BC"], "0a42c4d26f5dbe8554ae064238bd06eccb7dc931c960cd1246b3810c7ede94ea"),
        (
            [b"\xde\xad", b"", b"\xbe\xef"],
            "2a07106fde7771da343da1226f7741807d69298c8998f0a22e4a64df898b68c8",
        ),
        (["\U0001f30d"], "15b576e74532a64681b133134bc8f05d924866ca36027c0cd73ddcb25b033ca1"),
        ([b"x" * 300], "17d5d7e0eb71ef2a114a4ced12bf7e85d9df41fe3fdc962f57bd91675927a128"),
    ]
    for fields, want in cases:
        assert digest(fields).to_bytes().hex() == want


def test_digest_matches_definition():
    # digest = SHA-256(lp_encode(fields)) as a big-endian integer mod Q
    fields = [b"spot", b"check"]
    raw = hashlib.sha256(lp_encode(fields)).digest()
    assert digest(fields).value == int.from_bytes(raw, "big") % Q


def test_context_digest_frozen_vectors():
    assert digest([DOMAIN_DIGEST, "d1", "pv1", "e1", Z32]).to_bytes().hex() == (
        "0b7c1381edd6fe6484520018943d328fb3f88c45a969d9ee37ea8c415ac1b893"
    )
    assert cd_core("d1", "1", "ep0", Z32).to_bytes().hex() == (
        "17a1dc3c80d6c4152a4e868d9ae8fcf8322bf66496ab4291cb91998b13a1ed22"
    )
    assert cd_full("d1", "1", "ep0", Z32, Z32).to_bytes().hex() == (
        "11a122570d5baf1400723cf9021165bcd0b333d75fbc78673f83de5127644cd5"
    )
    assert digest(
        [DOMAIN_DIGEST, "drop-042", "2", "ep17", bytes(range(32)), b"\xff" * 32]
    ).to_bytes().hex() == ("0f8d89c415d6af25bf13635be31efda5cbf6f52a4c39f7d5d19d51b894bb49f8")


def test_vectors_file_parses_and_matches():
    lines = VECTORS.read_text().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(rows) >= 10
    for row in rows:
        field_col, want = row.split("\t")
        fields = [bytes.fromhex(h) for h in field_col.split(",")] if field_col else [b""]
        assert digest(fields).to_bytes().hex() == want, row


def test_cd_core_full_distinct_and_nonce_sensitive():
    a = cd_core("d1", "1", "ep0", Z32)
    b = cd_core("d1", "1", "ep0", b"\x01" + bytes(31))
    assert a != b
    # full-mode digest with an all-zero root is still distinct from core
    assert cd_full("d1", "1", "ep0", Z32, Z32) != a


def test_field_element_range_and_round_trip():
    fe = FieldElement(Q - 1)
    assert FieldElement.from_bytes(fe.to_bytes()) == fe
    with pytest.raises(EncodingError):
        FieldElement(Q)
    with pytest.raises(EncodingError):
        FieldElement(-1)


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@given(
    st.one_of(
        st.binary(max_size=40),
        st.binary(min_size=32, max_size=32),
        st.tuples(st.integers(0, Q - 1), st.integers(0, 255)).map(
            lambda vb: _flip(vb[0].to_bytes(32, "big"), vb[1])
        ),
        st.tuples(st.integers(0, Q - 1), st.integers(0, 64)).map(
            lambda vn: (vn[0].to_bytes(32, "big") * 2)[: vn[1]]
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_field_element_from_bytes_raises_or_round_trips(raw):
    # Arbitrary bytes, bit flips of honest encodings and wrong lengths.
    try:
        fe = FieldElement.from_bytes(raw)
    except EncodingError:
        return
    assert fe.to_bytes() == raw


@given(
    st.lists(st.one_of(st.integers(0, 2**256 - 1), st.sampled_from([0, Q - 1, Q])), max_size=9),
    st.integers(0, 31),
)
@settings(max_examples=300, deadline=None)
def test_decode_elements_equals_the_checked_constructor(values, cut):
    raw = b"".join(v.to_bytes(32, "big") for v in values)
    try:
        expected = tuple(map(FieldElement, values))
    except EncodingError:
        with pytest.raises(EncodingError, match="not reduced"):
            decode_elements(raw)
    else:
        assert decode_elements(raw) == expected
    if raw and cut:
        with pytest.raises(EncodingError):
            decode_elements(raw[:-cut])


def test_lp_rejects_unsupported_field_type():
    with pytest.raises(EncodingError):
        lp_encode([b"", 7])  # type: ignore[list-item]


@pytest.mark.parametrize("field", [bytearray(b"A"), memoryview(b"A"), None])
def test_lp_encode_takes_only_bytes_and_str_fields(field):
    with pytest.raises(EncodingError):
        lp_encode([b"", field])  # type: ignore[list-item]


def test_cd_validates_nonce_and_root_sizes():
    with pytest.raises(EncodingError):
        cd_core("d1", "1", "ep0", b"short")
    with pytest.raises(EncodingError):
        cd_full("d1", "1", "ep0", Z32, b"short")


@given(st.lists(st.binary(max_size=64), max_size=8))
@settings(max_examples=200)
def test_lp_round_trip(fields):
    assert lp_decode(lp_encode(fields)) == fields


def _decoded(data) -> list[bytes] | str:
    try:
        return lp_decode(data)
    except EncodingError as exc:
        return f"EncodingError: {exc}"


@given(
    st.one_of(
        st.binary(max_size=40),
        st.lists(st.binary(max_size=12), max_size=5).map(lp_encode),
        st.tuples(st.lists(st.binary(max_size=12), min_size=1, max_size=5), st.integers(1, 4)).map(
            lambda fn: lp_encode(fn[0])[: -fn[1]]
        ),
    )
)
@settings(max_examples=300)
def test_lp_decode_is_the_same_for_any_bytes_like_input(data):
    # fields and errors alike, and every field comes back as bytes
    expected = _decoded(data)
    for wrapped in (bytearray(data), memoryview(data)):
        got = _decoded(wrapped)
        assert got == expected
        if isinstance(got, list):
            assert all(type(field) is bytes for field in got)


@given(
    st.lists(st.binary(max_size=32), max_size=6),
    st.lists(st.binary(max_size=32), max_size=6),
)
@settings(max_examples=200)
def test_lp_injective(a, b):
    if a != b:
        assert lp_encode(a) != lp_encode(b)


@given(st.lists(st.binary(max_size=48), max_size=6))
@settings(max_examples=100)
def test_digest_in_field_range(fields):
    assert 0 <= digest(fields).value < Q


# ---------------------------------------------------------------------------
# the fixed-shape kernels against their definitions

# any text, lone surrogates included, and the non-text fields digest refuses
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_CD_FIELD = st.one_of(_ANY_TEXT, st.binary(max_size=8), st.none(), st.integers(), st.lists(_ANY_TEXT, max_size=1))
_HASH_FIELD = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32).map(bytearray),
    st.text(st.characters(exclude_categories=()), min_size=32, max_size=32),
)


@given(_CD_FIELD, _CD_FIELD, _CD_FIELD, _HASH_FIELD, st.one_of(st.none(), _HASH_FIELD))
@example("d1", "1", "ep0", Z32, None)
@example("\ud800", "1", "ep0", Z32, Z32)
@example(b"d1", "1", "ep0", Z32, Z32)
@settings(max_examples=500)
def test_challenge_digests_equal_the_generic_digest(drop_id, pv, epoch, nonce, root):
    # same element, or the same error type, as digest() over the field list
    fields = [DOMAIN_DIGEST, drop_id, pv, epoch, nonce]
    if root is None:
        kernel = lambda: cd_core(drop_id, pv, epoch, nonce)  # noqa: E731
    else:
        fields.append(root)
        kernel = lambda: cd_full(drop_id, pv, epoch, nonce, root)  # noqa: E731
    try:
        want = digest(fields)
    except Exception as exc:  # the definition's refusal, whatever its type
        with pytest.raises(type(exc)):
            kernel()
    else:
        assert kernel() == want


@given(st.binary(max_size=200), st.binary(max_size=80), st.lists(st.binary(max_size=300), min_size=1, max_size=3))
@example(bytes(64), b"", [b""])
@example(bytes(65), b"", [b"m"])
@example(b"\xff" * 200, b"head", [b"a", b"b"])
@settings(max_examples=300)
def test_hmac_kernel_equals_hmac_digest(key, head, messages):
    # keys of any length (longer than a block: hashed first), and the keyed
    # states are reused, never consumed, across messages
    mac = hmac_sha256(key, head)
    for message in messages:
        assert mac(message) == hmac.digest(key, head + message, "sha256")
