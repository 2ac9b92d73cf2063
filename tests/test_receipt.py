"""Signed search receipts: the offline-audit trust anchor."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp import receipt as receipt_module
from sbpp.canon import lp_decode, lp_encode
from sbpp.harness import attacks
from sbpp.harness.experiments import audit_replay_experiment
from sbpp.protocol import AuditKeys, audit, emit_audit_record, protocol_pair, seeded_env
from sbpp.receipt import (
    DOMAIN_RECEIPT,
    VERIFIED_MAX,
    Receipt,
    ReceiptError,
    receipt_body,
    server_keygen,
    sign_receipt,
    signature_memo,
    signed_fields,
    verify_receipt,
    verify_signature,
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


def test_public_bytes_are_the_raw_encoding_of_the_public_key():
    key = server_keygen(b"a")
    assert key.public_bytes == key.signer().public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    assert key.public_bytes.hex() == "a08a0e540e9af4346d7fede66f9c336ef7f04092eac37f392d41572119052482"


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


# any text, lone surrogates included, and the non-text fields lp_encode refuses
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_TEXT_FIELD = st.one_of(_ANY_TEXT, st.binary(max_size=8), st.none(), st.integers(), st.lists(_ANY_TEXT, max_size=1))
_HASH_FIELD = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32).map(bytearray),
    st.text(st.characters(exclude_categories=()), min_size=32, max_size=32),
)


@given(_TEXT_FIELD, _HASH_FIELD, st.integers(), _HASH_FIELD, _TEXT_FIELD, _TEXT_FIELD, _TEXT_FIELD)
@example("ab" * 16, N, T_EXP, ROOT, "full", "1", "ep0")
@example("\ud800", N, T_EXP, ROOT, "full", "1", "ep0")
@example("ab", N, -(2**70), ROOT, "core", "\udfff", "ep0")
@example("ab", N, 10**5000, ROOT, "core", "1", "ep0")  # more digits than str() gives
@example("ab", bytearray(N), T_EXP, ROOT, "core", "1", "ep0")
@settings(max_examples=500, deadline=None)
def test_receipt_body_equals_its_definition(S, nonce, t_exp, root, mode, pv, epoch):
    # the same bytes, or the same error type, as lp_encode over the field list
    try:
        want = lp_encode([DOMAIN_RECEIPT, S, nonce, str(t_exp), root, mode, pv, epoch])
    except Exception as exc:  # the definition's refusal, whatever its type
        with pytest.raises(type(exc)):
            receipt_body(S, nonce, t_exp, root, mode, pv, epoch)
    else:
        assert receipt_body(S, nonce, t_exp, root, mode, pv, epoch) == want


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


_HONEST = _receipt()[1].serialize()


def _flip(raw: bytes, bit: int) -> bytes:
    return raw[: bit // 8] + bytes([raw[bit // 8] ^ (1 << bit % 8)]) + raw[bit // 8 + 1 :]


@given(
    st.one_of(
        st.binary(max_size=300),
        st.integers(0, 8 * len(_HONEST) - 1).map(lambda bit: _flip(_HONEST, bit)),
        st.integers(0, 2 * len(_HONEST)).map(lambda n: (_HONEST * 2)[:n]),
        st.tuples(st.integers(0, len(_HONEST)), st.binary(min_size=1, max_size=8)).map(
            lambda at: _HONEST[: at[0]] + at[1] + _HONEST[at[0] :]
        ),
    )
)
@example(_HONEST)
@settings(max_examples=300, deadline=None)
def test_parse_of_any_bytes_raises_or_round_trips(raw):
    # Arbitrary bytes, bit flips, truncations and insertions of an honest
    # receipt's bytes.
    try:
        receipt = Receipt.parse(raw)
    except ReceiptError:
        return
    assert receipt.serialize() == raw
    assert receipt.body_bytes() == receipt_body(*_fields(receipt))  # the kept body is canonical


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


def test_verify_signature_answers_false_for_any_bad_part_and_never_raises():
    public, receipt = _receipt()
    body = receipt.body_bytes()
    assert verify_signature(public, receipt.sig, body) is True
    for key, sig, signed in (
        (public, receipt.sig, body + b"\x00"),  # another body
        (public, receipt.sig[:-1], body),  # a signature of the wrong length
        (public[:-1], receipt.sig, body),  # a key of the wrong length
        (_receipt(b"other")[0], receipt.sig, body),  # another server's key
        (b"", b"", b""),
    ):
        assert verify_signature(key, sig, signed) is False


def test_signature_is_deterministic():
    # Ed25519 signing is deterministic: same key and body, same signature
    _, a = _receipt()
    _, b = _receipt()
    assert a.sig == b.sig


# ---------------------------------------------------------------------------
# the carried body


_KEY = server_keygen(b"carried-body")
_NAMES = ("S", "N", "t_exp", "root", "mode", "pv", "epoch")


def _fields(receipt: Receipt) -> tuple:
    return tuple(getattr(receipt, name) for name in _NAMES)


_FIELDS = st.fixed_dictionaries(
    {
        "S": st.text(max_size=8),
        "N": st.binary(min_size=32, max_size=32),
        "t_exp": st.integers(-(2**70), 2**70),
        "root": st.binary(min_size=32, max_size=32),
        "mode": st.text(max_size=5),
        "pv": st.text(max_size=5),
        "epoch": st.text(max_size=5),
    }
)


@given(_FIELDS, st.sampled_from(_NAMES), _FIELDS)
@settings(max_examples=200, deadline=None)
def test_carried_body_is_the_encoding_of_the_fields(fields, changed, other):
    # signed, parsed and replaced receipts all check the body of their own fields
    signed = sign_receipt(_KEY, **fields)
    parsed = Receipt.parse(signed.serialize())
    for receipt in (signed, parsed, dataclasses.replace(parsed)):
        assert receipt.body_bytes() == receipt_body(**fields)
        assert receipt == signed
        assert verify_receipt(_KEY.public_bytes, receipt)
    for source in (signed, parsed):
        edited = dataclasses.replace(source, **{changed: other[changed]})
        assert edited.body_bytes() == receipt_body(*_fields(edited))
        assert verify_receipt(_KEY.public_bytes, edited) == (other[changed] == fields[changed])


def test_carried_body_is_not_a_field():
    _, receipt = _receipt()
    assert [f.name for f in dataclasses.fields(receipt) if f.init] == [*_NAMES, "sig"]
    assert "_body" not in repr(receipt)
    with pytest.raises(ValueError):
        dataclasses.replace(receipt, _body=b"")


# ---------------------------------------------------------------------------
# the verified-signature memo: one Ed25519 check per distinct triple per verifier


_MEMO_KEYS = [server_keygen(bytes([i])) for i in range(2)]
_MEMO_TRIPLES = [
    (key.public_bytes, key.signer().sign(body), body) for key in _MEMO_KEYS for body in (b"a", b"a receipt body")
]


def _flip_bit(raw: bytes, bit: int) -> bytes:
    bit %= 8 * len(raw)
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_MEMO_TRIPLES) - 1),
            st.sampled_from([None, 0, 1, 2]),  # keep the triple, or flip a bit of its key, signature or body
            st.integers(0, 1023),
        ),
        max_size=16,
    )
)
@settings(max_examples=100, deadline=None)
def test_the_memo_answers_what_a_fresh_check_answers(steps):
    memo, verified = signature_memo(), set()
    for index, part, bit in steps:
        triple = list(_MEMO_TRIPLES[index])
        if part is not None:
            triple[part] = _flip_bit(triple[part], bit)
        fresh = verify_signature(*triple)
        assert verify_signature(*triple, memo) is fresh
        if fresh:
            verified.add(tuple(triple))
        # a triple that fails never takes a slot
        assert memo.cache_info().currsize == len(verified)


def test_the_memo_never_holds_more_than_its_bound(ed25519_checks):
    key, memo = server_keygen(b"bound"), signature_memo()
    triples = [
        (key.public_bytes, key.signer().sign(body), body)
        for body in (str(i).encode() for i in range(VERIFIED_MAX + 3))
    ]
    for triple in triples:
        assert verify_signature(*triple, memo)
        assert memo.cache_info().currsize <= VERIFIED_MAX
    assert memo.cache_info().currsize == VERIFIED_MAX
    assert len(ed25519_checks) == VERIFIED_MAX + 3
    assert verify_signature(*triples[-1], memo)  # the latest is kept
    assert len(ed25519_checks) == VERIFIED_MAX + 3
    assert verify_signature(*triples[0], memo)  # the first was dropped, and is checked afresh
    assert len(ed25519_checks) == VERIFIED_MAX + 4


def test_the_memo_keeps_its_bound_under_threads(monkeypatch):
    bound, threads = 16, 8
    monkeypatch.setattr(receipt_module, "VERIFIED_MAX", bound)
    memo = signature_memo()  # made after the bound was set
    key = server_keygen(b"threads")
    triples = [
        [(key.public_bytes, key.signer().sign(body), body) for body in (f"{t}:{i}".encode() for i in range(2 * bound))]
        for t in range(threads)
    ]

    def fill(thread: int) -> None:
        for triple in triples[thread]:
            assert verify_signature(*triple, memo)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(fill, t) for t in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert memo.cache_info().currsize == bound  # no triple lost, no slot past the bound


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
def test_a_buffer_signature_or_body_gets_the_fresh_check(buffer):
    public, receipt = _receipt()
    sig, body = receipt.sig, receipt.body_bytes()
    memo = signature_memo()
    for args in ((public, buffer(sig), body), (public, sig, buffer(body))):
        assert verify_signature(*args, memo) is verify_signature(*args) is True
    changing = bytearray(body)
    assert verify_signature(public, sig, changing, memo)
    changing[-1] ^= 1  # a buffer can change after it verified
    assert verify_signature(public, sig, changing, memo) is verify_signature(public, sig, changing) is False
    assert memo.cache_info().currsize == 0


_KEY_BYTES, _SIGNED = _receipt()


@pytest.mark.parametrize(
    "args",
    [
        (bytearray(_KEY_BYTES), _SIGNED.sig, _SIGNED.body_bytes()),
        (memoryview(_KEY_BYTES), _SIGNED.sig, _SIGNED.body_bytes()),
        (None, _SIGNED.sig, _SIGNED.body_bytes()),
        (_KEY_BYTES.hex(), _SIGNED.sig, _SIGNED.body_bytes()),
        (_KEY_BYTES, None, _SIGNED.body_bytes()),
        (_KEY_BYTES, _SIGNED.sig.hex(), _SIGNED.body_bytes()),
        (_KEY_BYTES, _SIGNED.sig, None),
        (_KEY_BYTES, _SIGNED.sig, _SIGNED.body_bytes().decode("latin-1")),
    ],
    ids=["bytearray-key", "memoryview-key", "None-key", "str-key", "None-sig", "str-sig", "None-body", "str-body"],
)
def test_a_value_no_check_can_take_is_false_not_an_error(args):
    assert verify_signature(*args) is False
    memo = signature_memo()
    assert verify_signature(*args, memo) is False
    assert memo.cache_info().currsize == 0


def test_a_serialized_receipt_is_a_signed_frame_of_its_body_fields():
    # one frame serves receipts and the ladder's blobs
    public, receipt = _receipt()
    assert signed_fields(public, receipt.serialize(), DOMAIN_RECEIPT) == lp_decode(receipt.body_bytes())
    assert signed_fields(public, receipt.serialize(), "V5-CAP") is None
    assert signed_fields(public, bytearray(receipt.serialize()), DOMAIN_RECEIPT) is None


@pytest.fixture
def ed25519_checks(monkeypatch):
    """The keys of the package's Ed25519 verifies, one per check."""
    checks, real = [], receipt_module.Ed25519PublicKey

    def from_public_bytes(data):
        checks.append(data)
        return real.from_public_bytes(data)

    monkeypatch.setattr(receipt_module, "Ed25519PublicKey", SimpleNamespace(from_public_bytes=from_public_bytes))
    return checks


@pytest.mark.parametrize("kind", ["V4b", "V5", "V8"])
def test_an_a4b_trial_checks_each_signed_artifact_once(ed25519_checks, kind):
    # both honest records' evidence, then the splice and the fabrication reuse it
    variant = attacks.build_variant(kind, 0)
    assert attacks.attack_a4b(variant) is attacks.EXPECTED_MATRIX["A4b"][kind]
    assert len(ed25519_checks) == 2


@pytest.mark.parametrize("kind", ["V5", "V6"])
def test_an_a2_trial_checks_the_replayed_grant_once(ed25519_checks, kind):
    variant = attacks.build_variant(kind, 0)
    assert attacks.attack_a2(variant) is True
    assert len(ed25519_checks) == 1


def test_audit_keeps_nothing_past_the_call_and_a_kept_auditor_checks_once(ed25519_checks):
    server, client = protocol_pair(seeded_env(0, attacks.attack_corpus()), "full")
    ses = client.open_session(server, attacks.T0)
    client.search(server, ses, attacks.QUERY_LAT, attacks.QUERY_LON, attacks.RADIUS_M, attacks.T0)
    request = client.build_unlock(ses, ses.result_ids()[0], attacks.WITNESS_NEAR_QUERY)
    record = emit_audit_record(ses, request)
    keys = (server.public_key_bytes, server.nizk_vk)
    assert audit(*keys, record).accepted and audit(*keys, record).accepted
    assert len(ed25519_checks) == 2
    auditor = AuditKeys(*keys, signature_memo())
    assert auditor.audit(record).accepted and auditor.audit(record).accepted
    assert len(ed25519_checks) == 3


def test_the_audit_replay_study_checks_each_receipt_once_per_auditor(ed25519_checks):
    # the full pass and the core trail once each, and the corrupted signatures
    result = audit_replay_experiment(n=10)
    assert result.full_pass == 10
    assert len(ed25519_checks) == 3 * 10
