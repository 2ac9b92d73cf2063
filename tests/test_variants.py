"""Per-rung semantics of the comparison ladder V1..V8.

Each rung adds one mechanism; these tests pin down what each mechanism
does and does not check.  The full attack-by-variant grid lives in
test_harness; here we exercise the machinery one reason code at a time.
"""

import dataclasses
import random

import pytest

from sbpp import nizk
from sbpp.canon import digest
from sbpp.geoindex import Drop
from sbpp import protocol
from sbpp.protocol import (
    R_CONSUMED,
    R_EXPIRED,
    R_MERKLE_INVALID,
    R_NONCE_DIGEST,
    R_NOT_IN_RESULT_SET,
    R_PROOF_INVALID,
    R_RECEIPT_SIG,
    R_SESSION_INVALID,
)
from sbpp.receipt import server_keygen
from sbpp.variants import (
    RUNGS,
    VARIANT_KINDS,
    R_EVIDENCE_INVALID,
    R_NONCE_ECHO,
    R_TOKEN_HASH,
    R_TOKEN_SIG,
    GenericVariant,
    VariantEnv,
    VariantError,
    VariantRequest,
    audit_token_hash,
    audit_token_root,
    audit_token_sig,
    context_digest,
    make_variant,
)

T0 = 1_700_000_000
QLAT, QLON = 35.70, 139.75
RADIUS = 1000.0

DROPS = [
    Drop("d00", 35.7000, 139.7500),
    Drop("d01", 35.7004, 139.7500),
    Drop("d02", 35.7008, 139.7504),
    Drop("far", 35.7900, 139.8900),
]


def _env(seed: int = 0) -> VariantEnv:
    pk, vk = nizk.setup(b"variant-nizk" + bytes([seed]))
    return VariantEnv(
        drops=list(DROPS),
        search_key=bytes([seed]) * 32,
        signing_key=server_keygen(b"variant-sign" + bytes([seed])),
        proving_key=pk,
        verifying_key=vk,
        mac_key=bytes([seed ^ 0xFF]) * 32,
        nonce_rng=random.Random(seed),
    )


def _flow(variant, drop_id: str = "d01", now: int = T0):
    vses = variant.open_session(now)
    variant.search(vses, QLAT, QLON, RADIUS, now)
    witness = nizk.Witness(*next((d.lat, d.lon) for d in DROPS if d.id == drop_id))
    request = variant.build_unlock(vses, drop_id, witness)
    return vses, request


def test_make_variant_dispatch():
    env = _env()
    for kind in VARIANT_KINDS:
        variant = make_variant(kind, env)
        assert type(variant) is GenericVariant, kind
        assert variant.kind == variant.traits.kind == kind
    with pytest.raises(VariantError):
        make_variant("V9", env)


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_honest_flow_accepted_everywhere(kind):
    variant = make_variant(kind, _env())
    _, request = _flow(variant)
    assert variant.verify(request, T0 + 1).accepted


@pytest.mark.parametrize("kind", ["V1", "V2"])
def test_session_unaware_rungs_accept_replays(kind):
    # no session table consultation: same request verifies twice, even expired
    variant = make_variant(kind, _env())
    _, request = _flow(variant)
    assert variant.verify(request, T0 + 1).accepted
    assert variant.verify(request, T0 + 1).accepted
    assert variant.verify(request, T0 + variant.env.ttl_s).accepted


def test_v1_searches_in_plaintext_v2_encrypted():
    env = _env()
    assert make_variant("V1", env).traits.plaintext_search
    assert not make_variant("V2", env).traits.plaintext_search


def test_session_aware_rungs_consume_and_expire():
    for kind in ("V3", "V5", "V7", "V8"):
        variant = make_variant(kind, _env())
        _, request = _flow(variant)
        assert variant.verify(request, T0 + 1).accepted
        assert variant.verify(request, T0 + 2).fail_reason == R_CONSUMED
        _, fresh = _flow(variant)
        assert variant.verify(fresh, T0 + variant.env.ttl_s).fail_reason == R_EXPIRED


def test_v3_nonce_echo_is_checked_but_client_computable():
    variant = make_variant("V3", _env())
    vses, request = _flow(variant)
    wrong = dataclasses.replace(request, nonce_echo=bytes(32))
    assert variant.verify(wrong, T0 + 1).fail_reason == R_NONCE_ECHO
    # the echo is the only session binding: swap in another session's id
    # and its nonce, keep the stolen proof, and the rung accepts it
    other = variant.open_session(T0)
    variant.search(other, QLAT, QLON, RADIUS, T0)
    rebound = variant.rebind_request(request, other)
    assert variant.verify(rebound, T0 + 1).accepted


def test_context_digest_is_session_agnostic():
    # the weakness shared by V1/V2/V3/V5/V7: same digest for every session
    assert context_digest("d01", "1", "ep0") == context_digest("d01", "1", "ep0")
    variant_a = make_variant("V2", _env())
    _, req_a = _flow(variant_a)
    assert req_a.pub[7] == context_digest("d01", "1", "ep0")


def test_v5_capability_binds_session_and_drop():
    variant = make_variant("V5", _env())
    vses, request = _flow(variant)
    missing = dataclasses.replace(request, capability=None)
    assert variant.verify(missing, T0 + 1).fail_reason == R_EVIDENCE_INVALID
    tampered = dataclasses.replace(
        request, capability=request.capability[:-1] + bytes([request.capability[-1] ^ 1])
    )
    assert variant.verify(tampered, T0 + 1).fail_reason == R_EVIDENCE_INVALID
    # capability for the right drop but another session
    other = variant.open_session(T0)
    variant.search(other, QLAT, QLON, RADIUS, T0)
    foreign = dataclasses.replace(request, capability=other.capabilities["d01"])
    assert variant.verify(foreign, T0 + 1).accepted is False
    # wrong drop's capability under the right session
    crossed = dataclasses.replace(request, capability=vses.capabilities["d00"])
    assert variant.verify(crossed, T0 + 1).fail_reason == R_EVIDENCE_INVALID


def test_v6_has_no_proof_at_all():
    variant = make_variant("V6", _env())
    vses, request = _flow(variant)
    assert request.pub is None and request.proof is None
    assert variant.verify(request, T0 + 1).accepted
    vses2, request2 = _flow(variant)
    wrong_drop = dataclasses.replace(request2, permit=vses2.permits["d00"])
    assert variant.verify(wrong_drop, T0 + 1).fail_reason == R_EVIDENCE_INVALID


def test_v7_mac_covers_the_result_list():
    variant = make_variant("V7", _env())
    _, request = _flow(variant)
    padded = dataclasses.replace(request, result_ids=(*request.result_ids, "zz-extra"))
    assert variant.verify(padded, T0 + 1).fail_reason == R_EVIDENCE_INVALID
    # MAC intact but the target is not in the list it covers
    outside = dataclasses.replace(request, drop_id="far")
    outcome = variant.verify(outside, T0 + 1)
    assert outcome.fail_reason in (R_NOT_IN_RESULT_SET, R_EVIDENCE_INVALID)
    assert not outcome.accepted


def test_v8_token_digest_binds_the_session():
    variant = make_variant("V8", _env())
    vses, request = _flow(variant)
    assert request.pub[7] == digest([vses.token])
    other = variant.open_session(T0)
    variant.search(other, QLAT, QLON, RADIUS, T0)
    moved = dataclasses.replace(request, S=other.S)
    assert variant.verify(moved, T0 + 1).fail_reason == R_TOKEN_HASH


def test_v8_membership_checked_against_token_root():
    variant = make_variant("V8", _env())
    vses, request = _flow(variant)
    pathless = dataclasses.replace(request, merkle_path=None)
    assert variant.verify(pathless, T0 + 1).fail_reason == R_MERKLE_INVALID


def test_v8_lite_token_omits_the_root():
    variant = make_variant("V8", _env(), token_includes_root=False)
    vses, request = _flow(variant)
    assert request.merkle_path is None
    assert variant.verify(request, T0 + 1).accepted
    _, req2 = _flow(variant)
    outside = dataclasses.replace(req2, drop_id="far")
    # still server-side blockable online (session result set exists) ...
    assert variant.verify(outside, T0 + 1).fail_reason in (
        R_NOT_IN_RESULT_SET,
        R_TOKEN_HASH,
        R_PROOF_INVALID,
    )


def test_set_epoch_stamps_new_sessions():
    variant = make_variant("V5", _env())
    a, _ = _flow(variant)
    variant.set_epoch("ep1")
    b = variant.open_session(T0)
    variant.search(b, QLAT, QLON, RADIUS, T0)
    assert a.epoch == "ep0"
    assert b.epoch == "ep1"
    assert context_digest("d01", "1", "ep0") != context_digest("d01", "1", "ep1")


def test_v4_rungs_run_the_protocol():
    env = _env()
    for kind, mode in (("V4a", "core"), ("V4b", "full")):
        variant = make_variant(kind, env)
        vses, request = _flow(variant)
        assert variant.sessions.validate(vses.S, T0).mode == mode
        assert vses.receipt is not None and vses.receipt.mode == mode
        assert variant.verify(request, T0 + 1).accepted
        assert variant.verify(request, T0 + 2).fail_reason == R_CONSUMED


def test_v4_rungs_share_the_protocol_stage_objects():
    for kind in ("V4a", "V4b"):
        traits = make_variant(kind, _env()).traits
        assert traits.verify is protocol.VERIFY_STAGES
        assert traits.audit is protocol.AUDIT_STAGES
    # the other rungs reuse the protocol's session, proof and consume stages
    v3 = make_variant("V3", _env()).traits.verify
    assert (v3[0], v3[-2], v3[-1]) == (
        protocol.check_session,
        protocol.check_proof,
        protocol.consume_session,
    )


def test_v4_rebind_rejected_via_digest():
    for kind in ("V4a", "V4b"):
        variant = make_variant(kind, _env())
        _, request = _flow(variant)
        target = variant.open_session(T0)
        variant.search(target, QLAT, QLON, RADIUS, T0)
        rebound = variant.rebind_request(request, target)
        assert variant.verify(rebound, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_v4_retarget_rejected_via_digest():
    for kind in ("V4a", "V4b"):
        variant = make_variant(kind, _env())
        vses, request = _flow(variant, drop_id="d00")
        retargeted = variant.retarget_request(request, vses, "d01")
        assert variant.verify(retargeted, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_generic_retarget_accepted_when_digest_ignores_session():
    # V2's context digest covers the drop id, so retarget fails there too;
    # but the proof itself transplants across sessions (the A1/A2 gap)
    variant = make_variant("V2", _env())
    vses, request = _flow(variant, drop_id="d00")
    retargeted = variant.retarget_request(request, vses, "d01")
    assert variant.verify(retargeted, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_splice_accepted_under_context_digest_rungs():
    # A4b mechanism: proof from session 1, sidecar evidence from session 2
    for kind, accepted in (("V5", True), ("V7", True), ("V4b", False), ("V8", False)):
        variant = make_variant(kind, _env())
        s1, r1 = _flow(variant)
        s2, r2 = _flow(variant)
        rec1 = variant.audit_record(s1, r1)
        rec2 = variant.audit_record(s2, r2)
        spliced = variant.splice_records(rec1, rec2)
        assert variant.audit(spliced).accepted is accepted, kind


def test_audit_round_trip_per_rung():
    for kind in ("V5", "V6", "V7", "V8", "V4b"):
        variant = make_variant(kind, _env())
        vses, request = _flow(variant)
        rec = variant.audit_record(vses, request)
        assert variant.audit(rec).accepted, kind


def test_v8_audit_token_tamper_is_undifferentiated():
    # every token-level fault collapses into the same symptom: pub[7] != H(token)
    variant = make_variant("V8", _env())
    vses, request = _flow(variant)
    rec = variant.audit_record(vses, request)
    swapped = dataclasses.replace(rec, token=rec.token[:-1] + bytes([rec.token[-1] ^ 1]))
    assert variant.audit(swapped).fail_reason == R_TOKEN_HASH
    assert variant.audit(dataclasses.replace(rec, token=None)).fail_reason == R_TOKEN_HASH


def test_v8_audit_checks_signature_when_hash_matches():
    # a forged token that the prover honestly committed to still fails: the
    # server never signed it
    variant = make_variant("V8", _env())
    vses, _ = _flow(variant)
    fake_token = b"not-a-real-token"
    cd = digest([fake_token])
    target = vses.candidate("d01")
    pub = nizk.make_public_inputs(target.lat, target.lon, vses.radius_m, cd)
    proof = nizk.prove(variant.env.proving_key, nizk.Witness(target.lat, target.lon), pub)
    rec = dataclasses.replace(
        variant.audit_record(vses, variant.build_unlock(vses, "d01", nizk.Witness(target.lat, target.lon))),
        token=fake_token, pub=pub, proof=proof,
    )
    assert variant.audit(rec).fail_reason == R_TOKEN_SIG


def test_duplicate_drop_ids_rejected():
    # two drops under one id: the id table would keep the second, so a
    # search near the first would answer with a drop ~11 km away
    drops = [Drop("a", 35.70, 139.75), Drop("a", 35.80, 139.75), Drop("b", 35.7001, 139.75)]
    env = dataclasses.replace(_env(), drops=drops)
    for kind in VARIANT_KINDS:
        with pytest.raises(VariantError):
            make_variant(kind, env)


@pytest.mark.parametrize(
    "kind, token_includes_root", [(kind, True) for kind in VARIANT_KINDS] + [("V8", False)]
)
def test_audit_needs_no_server_state(kind, token_includes_root):
    variant = make_variant(kind, _env(), token_includes_root=token_includes_root)
    vses, request = _flow(variant)
    assert variant.verify(request, T0 + 1).accepted
    rec = variant.audit_record(vses, request)
    before = variant.audit(rec)
    # core receipts carry a zero root, so V4a's honest record stops at membership
    assert before.fail_reason == (R_MERKLE_INVALID if kind == "V4a" else None)
    variant.sessions.purge_all()
    variant.token_by_session.clear()
    variant.drops.clear()
    assert variant.audit(rec) == before


def test_every_audit_stage_is_a_verify_stage():
    # the audit is the verify pipeline without server state; only the
    # receipt signature and V8's token stages (which read the record's
    # token, not the session's) run offline alone
    rows = (*RUNGS.values(), make_variant("V8", _env(), token_includes_root=False).traits)
    verify_stages = {stage for row in rows for stage in row.verify}
    audit_stages = {stage for row in rows for stage in row.audit} | set(protocol.AUDIT_STAGES)
    assert audit_stages - verify_stages == {
        protocol.check_receipt,
        audit_token_hash,
        audit_token_sig,
        audit_token_root,
    }


@pytest.mark.parametrize("kind", ["V5", "V6"])
def test_grant_audit_binds_the_claimed_session_and_epoch(kind):
    variant = make_variant(kind, _env())
    vses, request = _flow(variant)
    rec = variant.audit_record(vses, request)
    assert variant.audit(rec).accepted
    other_session = dataclasses.replace(rec, S=variant.open_session(T0).S)
    assert variant.audit(other_session).fail_reason == R_EVIDENCE_INVALID
    other_epoch = dataclasses.replace(rec, epoch="ep1")
    assert variant.audit(other_epoch).fail_reason == R_EVIDENCE_INVALID


def test_v4_audit_without_receipt_is_a_signature_failure():
    for kind in ("V4a", "V4b"):
        variant = make_variant(kind, _env())
        vses, request = _flow(variant)
        rec = dataclasses.replace(variant.audit_record(vses, request), receipt=None)
        assert variant.audit(rec).fail_reason == R_RECEIPT_SIG, kind


# every rung, plus V8 with a token that omits the root
ALL_ROWS = [(kind, True) for kind in VARIANT_KINDS] + [("V8", False)]


@pytest.mark.parametrize("kind, token_includes_root", ALL_ROWS)
def test_audit_record_is_the_stamped_request(kind, token_includes_root):
    variant = make_variant(kind, _env(), token_includes_root=token_includes_root)
    vses, request = _flow(variant)
    stamped = dataclasses.replace(request, token=vses.token, receipt=vses.receipt)
    assert variant.audit_record(vses, request) == stamped


def test_request_must_name_its_context():
    _, request = _flow(make_variant("V2", _env()))
    fields = dict(S=request.S, drop_id=request.drop_id, pub=request.pub, proof=request.proof)
    with pytest.raises(TypeError):
        VariantRequest(**fields, epoch=request.epoch)
    with pytest.raises(TypeError):
        VariantRequest(**fields, pv=request.pv)
    assert VariantRequest(**fields, pv=request.pv, epoch=request.epoch) == request


@pytest.mark.parametrize(
    "kind, token_includes_root",
    [row for row in ALL_ROWS if RUNGS[row[0]].has_proof],
)
def test_missing_public_inputs_answer_a_reason(kind, token_includes_root):
    # the digest stage is the first to read pub: it answers, it does not raise
    variant = make_variant(kind, _env(), token_includes_root=token_includes_root)
    vses, request = _flow(variant)
    expected = R_TOKEN_HASH if kind == "V8" else R_NONCE_DIGEST
    rec = dataclasses.replace(variant.audit_record(vses, request), pub=None)
    assert variant.audit(rec).fail_reason == expected
    assert variant.verify(dataclasses.replace(request, pub=None), T0 + 1).fail_reason == expected
