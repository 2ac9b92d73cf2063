"""Signed search receipts: the offline-audit trust anchor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpp.canon import lp_decode, lp_encode
from sbpp.receipt import (
    Receipt,
    ReceiptError,
    receipt_body,
    server_keygen,
    sign_receipt,
    verify_receipt,
)

T_EXP = 1_700_000_300
N = bytes(range(32))
ROOT = b"\xab" * 32


def _receipt(seed: bytes = b"server-seed") -> tuple[bytes, Receipt]:
    key = server_keygen(seed)
    receipt = sign_receipt(key, "ab" * 16, N, T_EXP, ROOT, "full", "1", "ep0")
    return key.public_bytes, receipt


def test_keygen_deterministic():
    assert server_keygen(b"a").public_bytes == server_keygen(b"a").public_bytes
    assert server_keygen(b"a").public_bytes != server_keygen(b"b").public_bytes
    assert len(server_keygen(b"a").public_bytes) == 32


def test_sign_verify_round_trip():
    public, receipt = _receipt()
    assert verify_receipt(public, receipt)


def test_body_layout():
    fields = lp_decode(receipt_body("ab" * 16, N, T_EXP, ROOT, "full", "1", "ep0"))
    assert fields == [
        b"SBPP-RECEIPT",
        ("ab" * 16).encode(),
        N,
        str(T_EXP).encode(),
        ROOT,
        b"full",
        b"1",
        b"ep0",
    ]


def test_serialize_parse_round_trip():
    _, receipt = _receipt()
    raw = receipt.serialize()
    back = Receipt.parse(raw)
    assert back == receipt
    assert back.serialize() == raw


def test_parse_rejects_malformed():
    _, receipt = _receipt()
    raw = receipt.serialize()
    with pytest.raises(ReceiptError):
        Receipt.parse(raw + b"\x00")
    with pytest.raises(ReceiptError):
        Receipt.parse(raw[:10])


def _frame(**overrides: bytes) -> bytes:
    """A receipt frame with the given raw fields swapped in."""
    fields = dict(
        domain=b"SBPP-RECEIPT", S=b"ab" * 16, N=N, t_exp=str(T_EXP).encode(),
        root=ROOT, mode=b"full", pv=b"1", epoch=b"ep0", sig=bytes(64),
    )
    fields.update(overrides)
    return lp_encode(list(fields.values()))


def test_frame_helper_builds_a_parseable_receipt():
    assert Receipt.parse(_frame()).serialize() == _frame()


@pytest.mark.parametrize("field", ["S", "mode", "pv", "epoch"])
def test_parse_rejects_non_utf8_text_field(field):
    with pytest.raises(ReceiptError):
        Receipt.parse(_frame(**{field: b"\xff\xfe"}))


def test_parse_rejects_non_ascii_expiry():
    with pytest.raises(ReceiptError):
        Receipt.parse(_frame(t_exp="１０".encode()))


@pytest.mark.parametrize("t_exp", [b"+10", b"010", b"1_0", b" 10", b"10 ", b"-0", b""])
def test_parse_rejects_non_canonical_expiry(t_exp):
    with pytest.raises(ReceiptError):
        Receipt.parse(_frame(t_exp=t_exp))


def test_parse_accepts_negative_expiry_in_canonical_form():
    assert Receipt.parse(_frame(t_exp=b"-10")).t_exp == -10


@given(
    st.lists(st.binary(max_size=12), min_size=4, max_size=4),
    st.text(alphabet="+-_ 0123456789", max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_parse_raises_or_round_trips(texts, t_exp):
    S, mode, pv, epoch = texts
    raw = _frame(S=S, mode=mode, pv=pv, epoch=epoch, t_exp=t_exp.encode())
    try:
        receipt = Receipt.parse(raw)
    except ReceiptError:
        return
    assert receipt.serialize() == raw


def test_any_field_tamper_breaks_signature():
    public, receipt = _receipt()
    tampered = [
        Receipt("cd" * 16, receipt.N, receipt.t_exp, receipt.root, "full", "1", "ep0", receipt.sig),
        Receipt(receipt.S, bytes(32), receipt.t_exp, receipt.root, "full", "1", "ep0", receipt.sig),
        Receipt(receipt.S, receipt.N, receipt.t_exp + 1, receipt.root, "full", "1", "ep0", receipt.sig),
        Receipt(receipt.S, receipt.N, receipt.t_exp, bytes(32), "full", "1", "ep0", receipt.sig),
        Receipt(receipt.S, receipt.N, receipt.t_exp, receipt.root, "core", "1", "ep0", receipt.sig),
        Receipt(receipt.S, receipt.N, receipt.t_exp, receipt.root, "full", "2", "ep0", receipt.sig),
        Receipt(receipt.S, receipt.N, receipt.t_exp, receipt.root, "full", "1", "ep1", receipt.sig),
    ]
    for bad in tampered:
        assert not verify_receipt(public, bad)


def test_wrong_public_key_rejects():
    _, receipt = _receipt(b"alpha")
    other_pub, _ = _receipt(b"bravo")
    assert not verify_receipt(other_pub, receipt)


def test_corrupted_signature_rejects():
    public, receipt = _receipt()
    bad_sig = bytes([receipt.sig[0] ^ 1]) + receipt.sig[1:]
    assert not verify_receipt(
        public,
        Receipt(
            receipt.S, receipt.N, receipt.t_exp, receipt.root,
            receipt.mode, receipt.pv, receipt.epoch, bad_sig,
        ),
    )


def test_signature_is_deterministic():
    # Ed25519 signing is deterministic: same key and body, same signature
    _, a = _receipt()
    _, b = _receipt()
    assert a.sig == b.sig
