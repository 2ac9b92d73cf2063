"""Per-rung semantics of the comparison ladder V1..V8.

Each rung adds one mechanism; these tests pin down what each mechanism
does and does not check.  The full attack-by-variant grid lives in
test_harness; here we exercise the machinery one reason code at a time.
"""

import dataclasses
import hmac
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp import canon, merkle, nizk, session, variants
from sbpp.canon import digest, lp_encode
from sbpp.geoindex import TOKEN_LABEL, Drop, GeoIndex, geohash_encode
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
    ProtocolError,
    VariantEnv,
    protocol_pair,
    seeded_env,
)
from sbpp.harness.attacks import (
    QUERY_LAT, QUERY_LON, RADIUS_M, WITNESS_NEAR_QUERY, attack_corpus, rebind, retarget, splice,
)
from sbpp.receipt import server_keygen, sign_fields, signed_fields
from sbpp.variants import (
    DOMAIN_CAPABILITY,
    DOMAIN_PERMIT,
    DOMAIN_TOKEN_FULL,
    DOMAIN_TOKEN_LITE,
    RUNGS,
    VARIANT_KINDS,
    R_EVIDENCE_INVALID,
    R_NONCE_ECHO,
    R_TOKEN_HASH,
    R_TOKEN_SIG,
    GenericVariant,
    VariantRequest,
    audit_token_sig,
    check_mac,
    check_token_root,
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
    with pytest.raises(ProtocolError):
        make_variant("V9", env)


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_honest_flow_accepted_everywhere(kind):
    variant = make_variant(kind, _env())
    _, request = _flow(variant)
    assert variant.verify(request, T0 + 1).accepted


@pytest.mark.parametrize("kind", ["V4b", "V8"])
def test_path_carrying_rungs_commit_to_their_cells(kind, monkeypatch):
    # A drop just west of cell xn77h puts the query's result in two cells;
    # the root is computed before the session store takes its lock.
    env = dataclasses.replace(_env(), drops=[*DROPS, Drop("w00", 35.7000, 139.7440)])
    variant = make_variant(kind, env)
    roots = []

    def stub(cells, member=None):
        assert not variant.sessions._lock.locked()
        tree = merkle.build_tree(cells, member)
        if member is None:  # the server's root, not the client's path
            roots.append(tree.root)
        return tree

    monkeypatch.setattr(session, "build_tree", stub)
    monkeypatch.setattr(variants, "build_tree", stub)
    for drop_id, lat, lon in (("d01", 35.7004, 139.7500), ("w00", 35.7000, 139.7440)):
        vses = variant.open_session(T0)
        variant.search(vses, QLAT, QLON, RADIUS, T0)
        assert len(vses.cells) == 2 and roots[-1] == merkle.build_tree(vses.cells).root
        request = variant.build_unlock(vses, drop_id, nizk.Witness(lat, lon))
        assert merkle.verify_membership(roots[-1], drop_id, request.merkle_path)
        assert variant.verify(request, T0 + 1).accepted
        assert variant.audit(variant.audit_record(vses, request)).accepted
    assert len(roots) == 2


def test_v4b_nonmember_unlock_after_an_empty_search_is_a_variant_error():
    # A full-mode row with nothing listed has no id to take a membership path from.
    variant = make_variant("V4b", _env())
    vses = variant.open_session(T0)
    variant.search(vses, 35.01, 139.01, RADIUS, T0)
    assert vses.candidates == ()
    with pytest.raises(ProtocolError):
        variant.build_nonmember_unlock(vses, DROPS[0], nizk.Witness(DROPS[0].lat, DROPS[0].lon))


@pytest.mark.parametrize("kind", ["V4b", "V8"])
def test_empty_search_clears_the_listed_cells(kind):
    variant = make_variant(kind, _env())
    vses = variant.open_session(T0)
    variant.search(vses, QLAT, QLON, RADIUS, T0)
    assert vses.candidates and vses.cells
    variant.search(vses, QLAT - 1.0, QLON, RADIUS, T0)  # no drop within 100 km
    assert vses.candidates == () and vses.cells == ()


def _dead_session(kind: str, how: str):
    """A variant and a session it must refuse to search: expired at the
    returned time, consumed by an accepted unlock, or issued by another server."""
    variant = make_variant(kind, _env())
    if how == "expired":
        return variant, variant.open_session(T0), T0 + variant.env.ttl_s
    if how == "consumed":
        vses, request = _flow(variant)
        assert variant.verify(request, T0 + 1).accepted
        return variant, vses, T0 + 2
    return make_variant(kind, _env()), variant.open_session(T0), T0  # unknown


@pytest.mark.parametrize("kind", ["V3", "V4a", "V4b", "V5", "V6", "V7", "V8"])
@pytest.mark.parametrize(
    "how, error",
    [
        ("expired", session.ExpiredSessionError),
        ("consumed", session.ConsumedSessionError),
        ("unknown", session.UnknownSessionError),
    ],
)
@pytest.mark.parametrize("qlat", [QLAT, QLAT - 1.0], ids=["hit", "empty"])  # empty: no drop within 100 km
def test_session_aware_rungs_refuse_to_search_a_dead_session(kind, how, error, qlat):
    variant, vses, now = _dead_session(kind, how)
    with pytest.raises(error):
        variant.search(vses, qlat, QLON, RADIUS, now)


_DOMAINS = st.one_of(
    st.sampled_from([DOMAIN_CAPABILITY, DOMAIN_PERMIT, DOMAIN_TOKEN_FULL, DOMAIN_TOKEN_LITE]),
    st.text(max_size=12),
)
_SIGNER = server_keygen(b"blob-sign")


@st.composite
def _blobs(draw):
    """Raw bytes, well-framed field lists, and signed blobs with one byte flipped."""
    kind = draw(st.sampled_from(["raw", "framed", "signed"]))
    if kind == "raw":
        return draw(st.binary(max_size=200))
    fields = draw(st.lists(st.binary(max_size=70), max_size=6))
    if kind == "framed":
        return lp_encode([draw(_DOMAINS), *fields])
    blob = bytearray(sign_fields(_SIGNER, [draw(_DOMAINS), *fields]))
    i = draw(st.integers(0, len(blob) - 1))
    blob[i] ^= draw(st.integers(0, 255))
    return bytes(blob)


@given(_blobs(), _DOMAINS, st.one_of(st.just(_SIGNER.public_bytes), st.binary(max_size=40)))
@example(sign_fields(_SIGNER, ["V5-CAP", "S", "d00"]), "V5-CAP", _SIGNER.public_bytes)
@example(lp_encode([b"x", b"y"]), "\u00e9", b"")  # a non-ASCII domain
@settings(max_examples=400, deadline=None)
def test_signed_fields_returns_fields_or_none(blob, domain, public_bytes):
    fields = signed_fields(public_bytes, blob, domain)
    assert fields is None or (isinstance(fields, list) and all(isinstance(f, bytes) for f in fields))


def test_signed_fields_accepts_exactly_the_signed_fields():
    blob = sign_fields(_SIGNER, ["V5-CAP", "S", "d00", "é"])
    assert signed_fields(_SIGNER.public_bytes, blob, "V5-CAP") == [b"V5-CAP", b"S", b"d00", "é".encode()]
    assert signed_fields(_SIGNER.public_bytes, blob, "V6-PERMIT") is None
    blob = sign_fields(_SIGNER, ["dömain", "x"])
    assert signed_fields(_SIGNER.public_bytes, blob, "dömain") == ["dömain".encode(), b"x"]


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
    # and as behaviour, on the attack corpus: V1's index is keyed by the
    # cells themselves, V2's by their HMAC tags, and one query lists the
    # same drops on both
    env = seeded_env(0, attack_corpus())
    v1, v2 = make_variant("V1", env), make_variant("V2", env)
    cells = {f"{p}:{geohash_encode(d.lat, d.lon, p)}" for d in env.drops for p in env.precisions}
    assert set(v1.server.index.entries) == {cell.encode() for cell in cells}
    assert set(v2.server.index.entries) == {
        hmac.digest(env.search_key, f"{TOKEN_LABEL}:{cell}".encode(), "sha256") for cell in cells
    }
    listed = []
    for variant in (v1, v2):
        ses = variant.open_session(T0)
        listed.append(variant.search(ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0).candidates)
    assert listed[0] and listed[0] == listed[1]


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
    rebound = rebind(request, other)
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


def test_a_deployment_prepares_each_hmac_key_once():
    # the index build, then 50 searches, V7 MACs, proofs, verifies and
    # audits under one deployment: the pads of the search, proof and MAC
    # keys are prepared once each, and every later use finds them kept
    canon._prepared.cache_clear()
    variant = make_variant("V7", _env())
    for _ in range(50):
        vses, request = _flow(variant)
        assert variant.verify(request, T0 + 1).accepted
        assert variant.audit(variant.audit_record(vses, request)).accepted
    kept = canon._prepared.cache_info()
    assert kept.misses == kept.currsize == 3
    # per unlock: the tags, the MAC and the proof, then the MAC and proof checks twice
    assert kept.hits + kept.misses >= 50 * 7


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


@pytest.mark.parametrize(
    "token",
    [None, b"", b"\x00\x00", b"\x00\x00\x00\x09abc", lp_encode([DOMAIN_TOKEN_FULL, "S", b"n"])],
    ids=["missing", "empty", "truncated-prefix", "truncated-body", "three-fields"],
)
def test_v8_token_root_stages_answer_a_bad_token_with_merkle_invalid(token):
    # called directly: in the rung's stage order the token hash check runs
    # first and would answer token-hash-mismatch for each of these tokens
    variant = make_variant("V8", _env())
    vses, request = _flow(variant)
    rec = dataclasses.replace(variant.audit_record(vses, request), token=token)
    assert check_token_root(variant, protocol.Attempt(rec, None)) == R_MERKLE_INVALID
    if token is None:
        variant.token_by_session.pop(request.S)
    else:
        variant.token_by_session[request.S] = token
    attempt = protocol.Attempt(request, T0 + 1)
    assert check_token_root(variant, attempt) == R_MERKLE_INVALID
    # the honest token still admits the honest path
    honest = protocol.Attempt(dataclasses.replace(rec, token=vses.token), None)
    assert check_token_root(variant, honest) is None


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
        rebound = rebind(request, target)
        assert variant.verify(rebound, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_v4_retarget_rejected_via_digest():
    for kind in ("V4a", "V4b"):
        variant = make_variant(kind, _env())
        vses, request = _flow(variant, drop_id="d00")
        retargeted = retarget(request, vses, "d01")
        assert variant.verify(retargeted, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_generic_retarget_accepted_when_digest_ignores_session():
    # V2's context digest covers the drop id, so retarget fails there too;
    # but the proof itself transplants across sessions (the A1/A2 gap)
    variant = make_variant("V2", _env())
    vses, request = _flow(variant, drop_id="d00")
    retargeted = retarget(request, vses, "d01")
    assert variant.verify(retargeted, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_splice_accepted_under_context_digest_rungs():
    # A4b mechanism: proof from session 1, sidecar evidence from session 2
    for kind, accepted in (("V5", True), ("V7", True), ("V4b", False), ("V8", False)):
        variant = make_variant(kind, _env())
        s1, r1 = _flow(variant)
        s2, r2 = _flow(variant)
        rec1 = variant.audit_record(s1, r1)
        rec2 = variant.audit_record(s2, r2)
        spliced = splice(rec1, rec2)
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
        with pytest.raises(ProtocolError, match="'a'"):
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
    # the audit is the verify pipeline without server state; only the two
    # signature checks (the receipt's, and V8's token's) run offline alone
    rows = (*RUNGS.values(), make_variant("V8", _env(), token_includes_root=False).traits)
    verify_stages = {stage for row in rows for stage in row.verify}
    audit_stages = {stage for row in rows for stage in row.audit} | set(protocol.AUDIT_STAGES)
    assert audit_stages - verify_stages == {protocol.check_receipt, audit_token_sig}


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


@pytest.mark.parametrize("kind, token_includes_root", ALL_ROWS)
def test_search_asks_the_index_for_its_hit_cells_only(kind, token_includes_root, monkeypatch):
    # the hit cells are the whole answer: grants and the MAC cover the ids
    # the cells list, in id order, with no second answer from the index.
    # Two drops just west of cell xn77h put the result in two cells, listed
    # out of id order whichever cell comes first.
    west = [Drop("a0", 35.7000, 139.7440), Drop("z0", 35.7004, 139.7450)]
    env = dataclasses.replace(_env(), drops=[*DROPS, *west])
    variant = make_variant(kind, env, token_includes_root=token_includes_root)

    def second_answer(*args):
        raise AssertionError("search asked GeoIndex.match")

    monkeypatch.setattr(GeoIndex, "match", second_answer)
    vses, request = _flow(variant)
    listed = ["a0", "d00", "d01", "d02", "z0"]
    assert len(vses.cells) == 2 and [d.id for d in vses.candidates] != listed
    assert vses.result_ids() == listed
    assert list(vses.capabilities) == (listed if kind == "V5" else [])
    assert list(vses.permits) == (listed if kind == "V6" else [])
    assert request.result_ids == (tuple(listed) if kind == "V7" else None)
    assert variant.verify(request, T0 + 1).accepted
    empty = variant.open_session(T0)
    variant.search(empty, QLAT - 1.0, QLON, RADIUS, T0)  # no drop within 100 km
    assert empty.candidates == () and empty.cells == () and empty.receipt is None


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


def test_a_row_is_its_stage_tuples():
    # what the search side issues and the client attaches follows from the
    # verify stages: a hand-made row that checks a nonce echo and a MAC gets
    # both, with nothing else stated
    row = variants.VariantTraits(
        "X",
        (
            protocol.check_session,
            variants.check_echo,
            variants.check_mac,
            variants.check_context_digest,
            protocol.check_statement,
            protocol.check_proof,
            protocol.consume_session,
        ),
        (variants.check_mac, variants.check_context_digest, protocol.check_proof),
    )
    variant = GenericVariant(row, _env())
    vses, request = _flow(variant)
    outcome = variant.verify(request, T0 + 1)
    assert outcome.accepted, outcome.fail_reason
    assert request.nonce_echo == vses.N
    assert request.result_mac == vses.result_mac is not None
    assert request.result_ids == tuple(vses.result_ids())
    assert variant.audit(variant.audit_record(vses, request)).accepted
    fields = [f.name for f in dataclasses.fields(variants.VariantTraits)]
    assert fields == ["kind", "verify", "audit", "plaintext_search", "mode"]


# ---------------------------------------------------------------------------
# the ladder runs the shipped server and client


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_every_rung_keeps_its_sessions_in_the_protocol_server(kind):
    variant = make_variant(kind, _env())
    assert variant.sessions is variant.server.sessions
    assert isinstance(variant.server, protocol.SbppServer)
    assert isinstance(variant.client, protocol.SbppClient)


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_a_fault_in_the_servers_hits_reaches_every_rung(kind, monkeypatch):
    variant = make_variant(kind, _env())
    vses = variant.open_session(T0)
    variant.search(vses, QLAT, QLON, RADIUS, T0)
    assert vses.cells
    monkeypatch.setattr(protocol.SbppServer, "_hits", lambda self, tags: [])
    vses = variant.open_session(T0)
    variant.search(vses, QLAT, QLON, RADIUS, T0)
    assert vses.candidates == vses.cells == ()


def test_a_v4b_rung_takes_a_cell_it_has_checked_from_its_memo():
    variant = make_variant("V4b", _env())
    trees = variant.client.trees
    _flow(variant)
    assert (trees.hits, trees.misses) == (0, 1)
    _, request = _flow(variant)
    assert (trees.hits, trees.misses) == (1, 1)
    assert variant.verify(request, T0 + 1).accepted


@pytest.mark.parametrize("kind", ["V4a", "V4b"])
def test_an_empty_re_search_leaves_a_protocol_rung_no_receipt(kind):
    # as the protocol client leaves its own session
    variant = make_variant(kind, _env())
    server, client = protocol_pair(_env(), variant.traits.mode)
    vses, ses = variant.open_session(T0), client.open_session(server, T0)
    for lat, lon in ((QLAT, QLON), (35.01, 139.01)):
        variant.search(vses, lat, lon, RADIUS, T0)
        client.search(server, ses, lat, lon, RADIUS, T0)
        assert vses.receipt == ses.receipt and vses.candidates == ses.candidates
    assert vses.receipt is None and vses.candidates == ()


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_a_re_search_replaces_the_last_searchs_evidence(kind):
    # An empty re-search leaves the session no evidence of the first search,
    # as the protocol client leaves it no receipt; the server's own record
    # of the token it issued stays, as its bound session record does.
    variant = make_variant(kind, _env())
    vses = variant.open_session(T0)

    def evidence():
        return vses.capabilities, vses.permits, vses.result_mac, vses.token, vses.receipt

    variant.search(vses, QLAT, QLON, RADIUS, T0)
    assert vses.candidates
    assert any(evidence()) == (kind not in ("V1", "V2", "V3"))
    variant.search(vses, 35.01, 139.01, RADIUS, T0)
    assert vses.candidates == vses.cells == ()
    assert evidence() == ({}, {}, None, None, None)
    assert (vses.S in variant.token_by_session) == (kind == "V8")


@pytest.mark.parametrize("missing", ["result_mac", "result_ids"])
def test_v7_refuses_a_request_without_its_mac_or_id_list(missing):
    variant = make_variant("V7", _env())
    _, request = _flow(variant)
    bare = dataclasses.replace(request, **{missing: None})
    assert check_mac(variant, protocol.Attempt(bare, T0 + 1)) == R_EVIDENCE_INVALID
    assert variant.verify(bare, T0 + 1).fail_reason == R_EVIDENCE_INVALID
    assert variant.verify(request, T0 + 1).accepted  # the refusals consumed nothing


@pytest.mark.parametrize("token_includes_root", [True, False], ids=["full", "lite"])
def test_v8_proves_nothing_for_a_session_it_issued_no_token(token_includes_root):
    # never searched, so no token exists for a digest to commit to
    variant = make_variant("V8", _env(), token_includes_root=token_includes_root)
    vses = variant.open_session(T0)
    far = DROPS[-1]
    with pytest.raises(ProtocolError, match="no token issued for this session"):
        variant.build_nonmember_unlock(vses, far, nizk.Witness(far.lat, far.lon))


# ---------------------------------------------------------------------------
# a session id that is not a str names no session


def _unhashable_id_flow(kind: str):
    """(search, verify, sessions, session, request) for one searched honest
    session: the protocol's server and client in either mode, or a
    session-aware rung; ``search(ses)`` searches a session as the client."""
    env = seeded_env(0, attack_corpus())
    if kind in (session.MODE_CORE, session.MODE_FULL):
        server, client = protocol_pair(env, kind)
        ses = client.open_session(server, T0)

        def search(listed):
            return client.search(server, listed, QLAT, QLON, RADIUS, T0)

        search(ses)
        request = client.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
        return search, server.verify, server.sessions, ses, request
    variant = make_variant(kind.removesuffix("-lite"), env, token_includes_root=not kind.endswith("-lite"))
    vses = variant.open_session(T0)

    def search(listed):
        return variant.search(listed, QLAT, QLON, RADIUS, T0)

    search(vses)
    request = variant.build_unlock(vses, vses.result_ids()[0], WITNESS_NEAR_QUERY)
    return search, variant.verify, variant.sessions, vses, request


@pytest.mark.parametrize("S", [["x"], {"a": 1}, bytearray(b"x"), None], ids=["list", "dict", "bytearray", "none"])
@pytest.mark.parametrize(
    "kind", ["core", "full", "V3", "V4a", "V4b", "V5", "V6", "V7", "V8", "V8-lite"]
)
def test_a_session_id_that_is_not_a_str_is_an_unknown_session(kind, S):
    # ids are issued as str: an unhashable one is refused as unknown, as
    # None is, not with the TypeError of a dict lookup
    search, verify, sessions, ses, request = _unhashable_id_flow(kind)
    bound = [r.bound for r in sessions._records.values()]
    with pytest.raises(session.UnknownSessionError):
        search(dataclasses.replace(ses, S=S))
    assert [r.bound for r in sessions._records.values()] == bound  # binds nothing
    assert verify(dataclasses.replace(request, S=S), T0 + 1).fail_reason == R_SESSION_INVALID
    assert verify(request, T0 + 1).accepted  # the honest request still is
    assert sessions.stats(T0 + 1) == {"issued": 1, "consumed": 1, "expired": 0, "pending": 0}
