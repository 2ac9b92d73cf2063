"""End-to-end protocol flow and the verifier's rejection pipeline."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp import nizk
from sbpp.canon import cd_core, cd_full, lp_decode, lp_encode
from sbpp.geoindex import Drop
from sbpp.merkle import MerklePath, PathStep, build_tree
from sbpp.protocol import (
    R_CONSUMED,
    R_EXPIRED,
    R_MERKLE_INVALID,
    R_NONCE_DIGEST,
    R_NOT_IN_RESULT_SET,
    R_PROOF_INVALID,
    R_RECEIPT_SIG,
    R_SESSION_INVALID,
    AuditRecord,
    AuditRecordError,
    ProtocolError,
    SbppClient,
    SbppServer,
    audit,
    emit_audit_record,
)
from sbpp.receipt import server_keygen
from sbpp.session import MODE_CORE, MODE_FULL

T0 = 1_700_000_000
QLAT, QLON = 35.70, 139.75
RADIUS = 1000.0

DROPS = [
    Drop("d00", 35.7000, 139.7500),
    Drop("d01", 35.7004, 139.7500),
    Drop("d02", 35.7008, 139.7504),
    Drop("d03", 35.7012, 139.7508),
    Drop("far", 35.7900, 139.8900),
]


def _pair(mode: str, seed: int = 0) -> tuple[SbppServer, SbppClient]:
    pk, vk = nizk.setup(b"nizk" + bytes([seed]))
    server = SbppServer(
        drops=DROPS,
        search_key=b"\x11" * 32,
        signing_key=server_keygen(b"sign" + bytes([seed])),
        nizk_vk=vk,
        mode=mode,
        ttl_s=300,
        nonce_rng=random.Random(seed),
    )
    return server, SbppClient(b"\x11" * 32, pk)


def _searched(server: SbppServer, client: SbppClient, now: int = T0):
    ses = client.open_session(server, now)
    client.search(server, ses, QLAT, QLON, RADIUS, now)
    return ses


def test_candidate_finds_each_listed_drop_and_refuses_others():
    ses = _searched(*_pair(MODE_FULL))
    assert [ses.candidate(d.id) for d in ses.candidates] == list(ses.candidates)
    for missing in ("", "a", "d005", "d03\x00", "zz"):  # before, between and after the listed ids
        with pytest.raises(ProtocolError):
            ses.candidate(missing)
    ses.candidates = ()
    with pytest.raises(ProtocolError):
        ses.candidate("d00")


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_end_to_end_accept(mode):
    server, client = _pair(mode)
    ses = _searched(server, client)
    assert ses.result_ids() == ["d00", "d01", "d02", "d03"]
    assert ses.receipt is not None
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.7500))
    outcome = server.verify(request, T0 + 1)
    assert outcome.accepted and outcome.fail_reason is None


def test_search_without_matches_leaves_session_unbound():
    server, client = _pair(MODE_FULL)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.01, 139.01, RADIUS, T0)  # empty corner of the map
    assert ses.candidates == () and ses.receipt is None
    # an unbound session cannot verify anything
    request_src = _searched(server, client)
    request = client.build_unlock(request_src, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S=ses.S), T0 + 1)
    assert outcome.fail_reason == R_SESSION_INVALID


def test_candidates_carry_policy_and_epoch_stamps():
    # The stamps are said once, on the session; each candidate is the
    # server's own drop.
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    assert (ses.pv, ses.epoch, ses.radius_m) == ("1", "ep0", RADIUS)
    assert (ses.receipt.pv, ses.receipt.epoch) == (ses.pv, ses.epoch)
    assert all(c is server.drops[c.id] for c in ses.candidates)


def test_unknown_session_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S="00" * 16), T0 + 1)
    assert outcome.fail_reason == R_SESSION_INVALID


def test_expired_session_rejected_at_boundary():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert server.verify(request, T0 + 300).fail_reason == R_EXPIRED
    # one second earlier it would have been fine
    assert server.verify(request, T0 + 299).accepted


def test_consumed_session_rejected_on_second_use():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert server.verify(request, T0 + 1).accepted
    assert server.verify(request, T0 + 2).fail_reason == R_CONSUMED


def test_cross_session_proof_rejected_as_digest_mismatch():
    # Win1 shape: proof generated under session A, submitted under session B
    server, client = _pair(MODE_FULL)
    a = _searched(server, client)
    b = _searched(server, client)
    request = client.build_unlock(a, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S=b.S), T0 + 1)
    assert outcome.fail_reason == R_NONCE_DIGEST


def test_non_member_rejected_core_vs_full():
    # Win2 shape: proving a drop the search never returned
    for mode, want in ((MODE_CORE, R_NOT_IN_RESULT_SET), (MODE_FULL, R_MERKLE_INVALID)):
        server, client = _pair(mode)
        ses = _searched(server, client)
        assert "far" not in ses.result_ids()
        cd = (
            cd_core("far", "1", "ep0", ses.N)
            if mode == MODE_CORE
            else cd_full("far", "1", "ep0", ses.N, build_tree(ses.result_ids()).root)
        )
        pub = nizk.make_public_inputs(35.79, 139.89, RADIUS, cd)
        proof = nizk.prove(client.proving_key, nizk.Witness(35.79, 139.89), pub)
        path = build_tree(ses.result_ids()).prove_membership("d00")
        from sbpp.protocol import UnlockRequest

        request = UnlockRequest(
            S=ses.S, drop_id="far", pub=pub, proof=proof,
            merkle_path=None if mode == MODE_CORE else path,
        )
        assert server.verify(request, T0 + 1).fail_reason == want


def test_tampered_path_rejected_before_proof_check():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_step = PathStep(request.merkle_path.steps[0].side, bytes(32))
    bad = dataclasses.replace(
        request, merkle_path=MerklePath((bad_step, *request.merkle_path.steps[1:]))
    )
    assert server.verify(bad, T0 + 1).fail_reason == R_MERKLE_INVALID
    missing = dataclasses.replace(request, merkle_path=None)
    assert server.verify(missing, T0 + 1).fail_reason == R_MERKLE_INVALID


def test_statement_inconsistent_with_registry_rejected():
    # client claims the drop sits where the prover stands; server checks its registry
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    honest = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    cd = honest.pub[7]
    lied = nizk.make_public_inputs(35.75, 139.80, RADIUS, cd)
    proof = nizk.prove(client.proving_key, nizk.Witness(35.75, 139.80), lied)
    bad = dataclasses.replace(honest, pub=lied, proof=proof)
    assert server.verify(bad, T0 + 1).fail_reason == R_PROOF_INVALID


def test_unregistered_drop_id_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad = dataclasses.replace(request, drop_id="ghost")
    # fails digest first: the digest was computed over "d01", not "ghost"
    assert server.verify(bad, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_corrupt_proof_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_proof = nizk.Proof(request.proof.backend_id, bytes(32))
    assert server.verify(
        dataclasses.replace(request, proof=bad_proof), T0 + 1
    ).fail_reason == R_PROOF_INVALID


def test_rejected_attempts_do_not_consume():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_proof = nizk.Proof(request.proof.backend_id, bytes(32))
    for _ in range(3):
        server.verify(dataclasses.replace(request, proof=bad_proof), T0 + 1)
    assert server.verify(request, T0 + 1).accepted


def test_build_unlock_outside_radius_raises():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    with pytest.raises(nizk.StatementFalseError):
        client.build_unlock(ses, "d01", nizk.Witness(35.75, 139.85))


def test_audit_record_round_trip():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = emit_audit_record(ses, request)
    raw = record.serialize()
    assert AuditRecord.parse(raw) == record
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(raw + b"\x00")
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(raw[:-3])


def test_audit_record_parse_rejects_unreduced_public_input():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    fields = lp_decode(emit_audit_record(ses, request).serialize())
    fields[3] = b"\xff" * (32 * nizk.PUB_LEN)  # every element >= the field order
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(lp_encode(fields))


def _honest_record_fields() -> list[bytes]:
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    return lp_decode(emit_audit_record(ses, request).serialize())


_HONEST_FIELDS = _honest_record_fields()


# A field edit: keep the honest field, flip one bit of it, or replace it.
_EDIT = st.one_of(
    st.none(), st.tuples(st.integers(0, 10_000), st.integers(0, 7)), st.binary(max_size=300)
)


def _edited(field: bytes, edit) -> bytes:
    if edit is None or not field:
        return field
    if isinstance(edit, bytes):
        return edit
    pos, bit = edit
    out = bytearray(field)
    out[pos % len(out)] ^= 1 << bit
    return bytes(out)


@given(
    st.lists(_EDIT, min_size=5, max_size=5),
    st.one_of(st.just(5), st.integers(0, 6)),
    st.one_of(st.just(b""), st.binary(max_size=2)),
)
@example([None] * 5, 5, b"")
@settings(max_examples=300, deadline=None)
def test_audit_record_parse_raises_or_round_trips(edits, n_fields, tail):
    # Each field is the honest one, a bit-flipped copy or arbitrary bytes;
    # the frame may also lose or gain fields and trailing bytes.
    fields = [_edited(f, e) for f, e in zip(_HONEST_FIELDS, edits)]
    fields = (fields + [b"x"])[:n_fields]
    raw = lp_encode(fields) + tail
    try:
        record = AuditRecord.parse(raw)
    except AuditRecordError:
        return
    assert record.serialize() == raw


def test_candidate_meta_is_frozen():
    server, client = _pair(MODE_FULL)
    candidate = _searched(server, client).candidate("d00")
    with pytest.raises(dataclasses.FrozenInstanceError):
        candidate.lat = 0.0
    assert dataclasses.asdict(candidate)["id"] == "d00"


def test_audit_accepts_full_mode_offline():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    assert server.verify(request, T0 + 1).accepted
    record = emit_audit_record(ses, request)
    server.sessions.purge_all()  # audit must not need any of this
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert outcome.accepted


def test_audit_core_mode_cannot_attest_membership():
    server, client = _pair(MODE_CORE)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    assert server.verify(request, T0 + 1).accepted
    record = emit_audit_record(ses, request)
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert not outcome.accepted
    assert outcome.fail_reason == R_MERKLE_INVALID


def test_audit_rejection_order():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = emit_audit_record(ses, request)
    wrong_key = server_keygen(b"someone-else").public_bytes
    assert audit(wrong_key, server.nizk_vk, record).fail_reason == R_RECEIPT_SIG
    other = _searched(server, client)
    swapped = dataclasses.replace(record, receipt=other.receipt)
    assert (
        audit(server.public_key_bytes, server.nizk_vk, swapped).fail_reason == R_NONCE_DIGEST
    )
    bad_step = PathStep(record.merkle_path.steps[0].side, bytes(32))
    torn = dataclasses.replace(record, merkle_path=MerklePath((bad_step, *record.merkle_path.steps[1:])))
    assert (
        audit(server.public_key_bytes, server.nizk_vk, torn).fail_reason == R_MERKLE_INVALID
    )
    forged = dataclasses.replace(record, proof=nizk.Proof(record.proof.backend_id, bytes(32)))
    assert (
        audit(server.public_key_bytes, server.nizk_vk, forged).fail_reason == R_PROOF_INVALID
    )


def test_audit_without_receipt_is_a_signature_failure():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = dataclasses.replace(emit_audit_record(ses, request), receipt=None)
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert outcome.fail_reason == R_RECEIPT_SIG


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_missing_public_inputs_answer_a_reason(mode):
    # the digest stage is the first to read pub: it answers, it does not raise
    server, client = _pair(mode)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = dataclasses.replace(emit_audit_record(ses, request), pub=None)
    assert audit(server.public_key_bytes, server.nizk_vk, record).fail_reason == R_NONCE_DIGEST
    outcome = server.verify(dataclasses.replace(request, pub=None), T0 + 1)
    assert outcome.fail_reason == R_NONCE_DIGEST


def test_emit_audit_record_needs_a_receipt():
    server, client = _pair(MODE_FULL)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.01, 139.01, RADIUS, T0)
    from sbpp.protocol import UnlockRequest

    dummy = UnlockRequest(
        S=ses.S, drop_id="d00",
        pub=nizk.make_public_inputs(QLAT, QLON, RADIUS, cd_core("d00", "1", "ep0", ses.N)),
        proof=nizk.Proof("sim-hmac-v1", bytes(32)), merkle_path=None,
    )
    with pytest.raises(ProtocolError):
        emit_audit_record(ses, dummy)


def test_server_rejects_duplicate_drop_ids():
    with pytest.raises(ProtocolError):
        SbppServer(
            drops=[Drop("a", 35.7, 139.75), Drop("a", 35.7, 139.76)],
            search_key=b"\x11" * 32,
            signing_key=server_keygen(b"k"),
            nizk_vk=nizk.setup(b"n")[1],
        )
