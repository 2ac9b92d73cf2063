"""`AuditRecord.parse` against a reference decoder built from the checked
constructors.

The parse checks each field once and assembles each value without its
dataclass `__init__`.  The reference here decodes the same frame the slow
way: every value goes through `__init__`, every field element through
`FieldElement`'s own range check, and nothing is shared or carried.  On any
input the two must give equal values, or both raise `AuditRecordError` with
the same message.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpp import nizk
from sbpp.canon import Q, EncodingError, FieldElement, lp_decode, lp_encode
from sbpp.geoindex import gen_uniform_corpus
from sbpp.merkle import SIDE_LEFT, SIDE_RIGHT, MerklePath, PathStep
from sbpp.protocol import AuditRecord, AuditRecordError, emit_audit_record, protocol_pair, seeded_env
from sbpp.receipt import DOMAIN_RECEIPT, Receipt
from sbpp.session import MODE_CORE, MODE_FULL

T0 = 1_700_000_000


def _honest_record(mode: str) -> bytes:
    drops = gen_uniform_corpus(1000, 7, (35.6, 35.8, 139.6, 139.9))
    server, client = protocol_pair(seeded_env(7, drops), mode)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.70, 139.75, 1000.0, T0)
    target = ses.candidates[len(ses.candidates) // 2]
    request = client.build_unlock(ses, target.id, nizk.Witness(target.lat, target.lon))
    return emit_audit_record(ses, request).serialize()


HONEST = {mode: _honest_record(mode) for mode in (MODE_CORE, MODE_FULL)}


# ---------------------------------------------------------------------------
# the reference decoder: one part at a time, each value through __init__


class _Refused(Exception):
    pass


def _receipt(raw: bytes) -> Receipt:
    try:
        fields = lp_decode(raw)
    except EncodingError as exc:
        raise _Refused(f"malformed receipt frame: {exc}")
    if len(fields) != 9:
        raise _Refused("receipt frame has wrong field count")
    domain, S, N, t_exp_raw, root, mode, pv, epoch, sig = fields
    if domain != DOMAIN_RECEIPT.encode():
        raise _Refused("receipt domain tag mismatch")
    if len(N) != 32 or len(root) != 32:
        raise _Refused("receipt nonce/root must be 32 bytes")
    try:
        t_exp_text = t_exp_raw.decode("ascii")
        t_exp = int(t_exp_text)
    except (UnicodeDecodeError, ValueError):
        raise _Refused("receipt expiry is not a decimal string")
    if str(t_exp) != t_exp_text:
        raise _Refused("receipt expiry is not in canonical form")
    try:
        texts = [f.decode("utf-8") for f in (S, mode, pv, epoch)]
    except UnicodeDecodeError:
        raise _Refused("receipt text field is not UTF-8")
    S, mode, pv, epoch = texts
    return Receipt(S=S, N=N, t_exp=t_exp, root=root, mode=mode, pv=pv, epoch=epoch, sig=sig)


def _path(raw: bytes) -> MerklePath:
    if not raw:
        raise _Refused("empty path frame")
    if len(raw) != 1 + raw[0] * 33:
        raise _Refused("path frame length mismatch")
    steps = []
    for pos in range(1, len(raw), 33):
        if raw[pos] not in (SIDE_LEFT, SIDE_RIGHT):
            raise _Refused("invalid path step side")
        steps.append(PathStep(raw[pos], raw[pos + 1 : pos + 33]))
    return MerklePath(tuple(steps))


def _pub(raw: bytes) -> nizk.PublicInputs:
    if len(raw) != 32 * nizk.PUB_LEN:
        raise _Refused("public inputs must be exactly 256 bytes")
    try:
        elements = [FieldElement(int.from_bytes(raw[i : i + 32], "big")) for i in range(0, 256, 32)]
    except EncodingError:
        raise _Refused("public input element: field element encoding not reduced")
    return nizk.PublicInputs(tuple(elements))


def _proof(raw: bytes) -> nizk.Proof:
    if len(raw) < 4:
        raise _Refused("truncated proof frame")
    length = int.from_bytes(raw[:4], "big")
    if 4 + length > len(raw):
        raise _Refused("truncated proof backend id")
    try:
        backend_id = raw[4 : 4 + length].decode("utf-8")
    except UnicodeDecodeError:
        raise _Refused("proof backend id is not UTF-8")
    return nizk.Proof(backend_id, raw[4 + length :])


def reference_parse(raw: bytes) -> AuditRecord | str:
    """The record, or the message `AuditRecord.parse` must refuse it with."""
    try:
        fields = lp_decode(raw)
    except EncodingError as exc:
        return f"malformed record frame: {exc}"
    if len(fields) != 5:
        return "audit record must have 5 fields"
    try:
        receipt = _receipt(fields[0])
        try:
            drop_id = fields[1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _Refused(str(exc))
        return AuditRecord(receipt, drop_id, _path(fields[2]), _pub(fields[3]), _proof(fields[4]))
    except _Refused as exc:
        return f"malformed record field: {exc}"


def assert_parses_like_the_reference(raw: bytes) -> None:
    expected = reference_parse(raw)
    if isinstance(expected, str):
        with pytest.raises(AuditRecordError) as exc:
            AuditRecord.parse(raw)
        assert str(exc.value) == expected
        return
    record = AuditRecord.parse(raw)
    assert record == expected
    assert all(type(step) is PathStep for step in record.merkle_path.steps)
    assert record.serialize() == expected.serialize() == raw
    # the bytes the parse carries are the ones its fields encode to
    assert record.receipt.body_bytes() == expected.receipt.body_bytes()
    assert record.pub.to_bytes() == expected.pub.to_bytes()


# ---------------------------------------------------------------------------
# inputs


def _flip(raw: bytes, pos: int, bit: int) -> bytes:
    out = bytearray(raw)
    out[pos % len(out)] ^= 1 << bit
    return bytes(out)


_honest = st.sampled_from(sorted(HONEST.values()))

# whole frames: random bytes, random five-field frames, and honest records
# with a bit flipped, cut short or extended
_frames = st.one_of(
    st.binary(max_size=64),
    st.lists(st.binary(max_size=80), min_size=4, max_size=6).map(lp_encode),
    st.builds(_flip, _honest, st.integers(0, 10_000), st.integers(0, 7)),
    st.builds(lambda raw, cut: raw[: len(raw) - 1 - cut % len(raw)], _honest, st.integers(0, 2_000)),
    st.builds(lambda raw, tail: raw + tail, _honest, st.binary(min_size=1, max_size=40)),
)

# one field of the receipt replaced, then both frames re-encoded: expiry
# forms int() takes but the receipt does not write, bad UTF-8, wrong lengths
_receipt_values = st.one_of(
    st.sampled_from(
        [b"", b"+1700000120", b"01700000120", b"1_700_000_120", b" 1700000120", b"1700000120\n",
         b"-0", b"0", b"\xd9\xa1", b"\xff", b"\xc3", "é".encode(), bytes(31), bytes(33)]
    ),
    st.binary(max_size=40),
)


def _receipt_edit(raw: bytes, index: int, value: bytes) -> bytes:
    fields = lp_decode(raw)
    receipt = lp_decode(fields[0])
    receipt[index % len(receipt)] = value
    fields[0] = lp_encode(receipt)
    return lp_encode(fields)


# one field of the record edited in place: a bit flipped, cut short,
# extended, or replaced with arbitrary bytes
_field_edits = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10_000), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(1, 300)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("replace"), st.binary(max_size=300)),
)


def _field_edit(raw: bytes, index: int, edit: tuple) -> bytes:
    fields = lp_decode(raw)
    field = fields[index]
    if edit[0] == "flip" and field:
        field = _flip(field, *edit[1:])
    elif edit[0] == "cut":
        field = field[: max(0, len(field) - edit[1])]
    elif edit[0] == "extend":
        field += edit[1]
    elif edit[0] == "replace":
        field = edit[1]
    fields[index] = field
    return lp_encode(fields)


@given(
    st.one_of(
        _frames,
        st.builds(_receipt_edit, _honest, st.integers(0, 8), _receipt_values),
        st.builds(_field_edit, _honest, st.integers(0, 4), _field_edits),
    )
)
@settings(max_examples=1000, deadline=None)
def test_parse_agrees_with_the_reference_decoder(raw):
    assert_parses_like_the_reference(raw)


def test_honest_records_parse_like_the_reference():
    for raw in HONEST.values():
        assert not isinstance(reference_parse(raw), str)
        assert_parses_like_the_reference(raw)


@pytest.mark.parametrize("mode", sorted(HONEST))
@pytest.mark.parametrize(
    "index, value",
    [
        (2, b""), (2, b"\x00\x00"), (2, b"\x00" + bytes(33)), (2, b"\x01" + bytes(33)),
        (2, b"\x01\x02" + bytes(32)), (4, b""), (4, b"\x00\x00\x00"),
        (4, lp_encode(["sim-hmac-v2"]) + bytes(32)), (4, lp_encode(["sim-hmac-v1x"])),
        (4, lp_encode([b"\xff"])), (4, b"\x00\x00\x00\x0bsim-hmac-v"),
    ],
)
def test_edited_path_and_proof_fields_parse_like_the_reference(mode, index, value):
    assert_parses_like_the_reference(_field_edit(HONEST[mode], index, ("replace", value)))


_EDGE_SLOTS = {"Q": Q.to_bytes(32, "big"), "Q-1": (Q - 1).to_bytes(32, "big"), "ff": b"\xff" * 32}


@pytest.mark.parametrize("mode", sorted(HONEST))
@pytest.mark.parametrize("slot", range(nizk.PUB_LEN))
@pytest.mark.parametrize("value", sorted(_EDGE_SLOTS))
def test_edge_slot_values_parse_like_the_reference(mode, slot, value):
    fields = lp_decode(HONEST[mode])
    pub = bytearray(fields[3])
    pub[32 * slot : 32 * slot + 32] = _EDGE_SLOTS[value]
    fields[3] = bytes(pub)
    raw = lp_encode(fields)
    assert isinstance(reference_parse(raw), str) == (value != "Q-1")
    assert_parses_like_the_reference(raw)


def test_a_parsed_record_rebuilt_through_init_is_equal_and_encodes_the_same():
    for raw in HONEST.values():
        record = AuditRecord.parse(raw)
        fresh = dataclasses.replace(
            record, receipt=dataclasses.replace(record.receipt), pub=dataclasses.replace(record.pub)
        )
        assert fresh == record
        assert fresh.receipt._body is None and fresh.pub._bytes is None
        assert fresh.serialize() == raw
