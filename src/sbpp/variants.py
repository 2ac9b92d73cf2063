"""Protocol variant ladder for the attack comparison.

Nine rungs share one engine, so attack scripts run unchanged against each:

  V1  plaintext cell search, proof bound to (drop, pv, epoch) only
  V2  encrypted search (tokens), same context-only proof binding
  V3  V2 plus an app-layer nonce echo checked beside the proof
  V4a core protocol: session nonce inside the proof digest, stateful
      result-set check
  V4b full protocol: nonce and result-set Merkle root inside the digest
  V5  context-only proof plus a server-signed per-drop capability
  V6  server-signed per-drop permit, no proximity proof at all
  V7  context-only proof plus a server MAC over the result-id list
  V8  proof digest commits to the hash of an opaque signed token (which
      carries the nonce, and the root unless built "lite")

Each rung is one row of RUNGS: its verify and audit stage tuples, plus the
two facts no stage states, plaintext search and what the session binds
(V1/V2 and V4a/V4b share their stages).  The engine derives from the verify
stages what the search side issues (capabilities, permits, a MAC, a token
or the protocol's signed receipt) and what the client attaches (nonce echo,
result list, proof digest), so a row cannot disagree with itself.  Verify
and audit run the row's stage tuple in order and stop at the first reason,
so each failure maps to one reason on every rung.  V4a and V4b are rows
like the others: their stage tuples are the protocol's own VERIFY_STAGES
and AUDIT_STAGES objects, and the ladder-only stages here (nonce echo,
evidence, context digest, token hash/root) sit beside the shared session,
membership, statement, proof and consume stages.  Every rung runs on a
deployment (sbpp.protocol's `VariantEnv`) served by the protocol's own
server and client (`protocol_pair`), so the matrix attacks the shipped
code and a rung refuses with the protocol's ProtocolError: the server
holds the drops, index and sessions and gives the hit cells (`bind`, or
`_hits` alone on V1/V2; V1's index tags are plaintext), V4a/V4b search and
unlock through the pair itself, and the other rows add their own evidence
here.

An audit is the verify stages run without server state: the audit record
is the request itself, stamped with the token and receipt the session was
issued, and its receipt, where the rung issues one, takes the session
record's place.  So every audit stage is a verify stage too, except the two
signature checks, the protocol's receipt signature and V8's token
signature: online the server's own session and token need none.  V8's
token hash and root read the token the server holds for the session
online and the record's token offline.  No stage raises on a claimed
field: the one stage that reads it answers with its own reason for text
no hash can take (`canon.encodable`: an id, policy version, epoch, session
id or listed id), for evidence that is not `bytes` (a capability, permit,
MAC or token), and for a structured field that is not of its type (the
rule in sbpp.protocol's docstring).  The context is read from a
`SessionRecord` or a `Receipt` only; a claimed receipt of any other type
leaves the claim's own pv and epoch.

A rung's capabilities (V5), permits (V6) and tokens (V8) are signed in
the receipt's frame: sbpp.receipt seals them (`sign_fields`) and splits
and checks them (`signed_fields`), and this module frames no signature.
A rung outlives many checks, so it holds one memo of the signatures that
verified under its key, `verified`, made by `receipt.signature_memo()` at
its first signature check (sbpp.receipt's verify-once rule).  Its receipt
(V4a/V4b audit), capability, permit and token checks go through it, online
and offline, so a trial that shows the rung one signed artifact twice pays
one Ed25519 check for it.

The adversary is not a rung: its moves live in sbpp.harness.attacks, and
this module imports no part of sbpp.harness.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from operator import attrgetter

from . import nizk
from .canon import EncodingError, FieldElement, digest, encodable, hmac_sha256, lp_decode, lp_encode
from .geoindex import Drop, client_tokens, drops_of, plain_tagger
from .merkle import MerklePath, build_tree, verify_membership
from .protocol import (
    AUDIT_STAGES,
    VERIFY_STAGES,
    Attempt,
    ClientSession,
    ProtocolError,
    R_MERKLE_INVALID,
    R_NONCE_DIGEST,
    R_NOT_IN_RESULT_SET,
    R_SESSION_INVALID,
    SbppServer,
    Stage,
    UnlockRequest,
    VariantEnv,
    VerifyOutcome,
    check_digest,
    check_membership,
    check_proof,
    check_session,
    check_statement,
    consume_session,
    protocol_pair,
    run_stages,
)
from .receipt import Receipt, SignatureMemo, sign_fields, signature_memo, signed_fields
from .session import MODE_CORE, MODE_FULL, SessionRecord

# Additional rejection reasons used by the comparison rungs.
R_NONCE_ECHO = "nonce-echo-mismatch"
R_EVIDENCE_INVALID = "evidence-invalid"
R_TOKEN_HASH = "token-hash-mismatch"
R_TOKEN_SIG = "token-sig-invalid"

DOMAIN_CAPABILITY = "V5-CAP"
DOMAIN_PERMIT = "V6-PERMIT"
DOMAIN_MAC = "V7-MAC"
DOMAIN_TOKEN_FULL = "V8-TOKEN-FULL"
DOMAIN_TOKEN_LITE = "V8-TOKEN-LITE"


def context_digest(drop_id: str, pv: str, epoch: str) -> FieldElement:
    """Session-agnostic challenge digest used by the pre-binding rungs."""
    return digest([drop_id, pv, epoch])


class _PlaintextServer(SbppServer):
    _tagger = staticmethod(plain_tagger)  # V1: the index's tags are the cells themselves


@dataclass
class VariantSession(ClientSession):
    """The protocol's client-side session view plus a rung's sidecar evidence."""

    capabilities: dict[str, bytes] = field(default_factory=dict)
    permits: dict[str, bytes] = field(default_factory=dict)
    result_mac: bytes | None = None
    token: bytes | None = None


@dataclass(frozen=True, kw_only=True)
class VariantRequest(UnlockRequest):
    """The protocol's request plus the context it claims and a rung's sidecar
    evidence (V6 sends no proof: ``pub`` and ``proof`` are None).  The audit
    record is the request with the session's ``token`` and ``receipt`` set."""

    pv: str
    epoch: str
    nonce_echo: bytes | None = None
    capability: bytes | None = None
    permit: bytes | None = None
    result_ids: tuple[str, ...] | None = None
    result_mac: bytes | None = None
    token: bytes | None = None
    receipt: Receipt | None = None


# ---------------------------------------------------------------------------
# sidecar evidence: the result MAC here; capabilities, permits and tokens
# are server-signed statements in sbpp.receipt's one frame, sealed by
# `sign_fields` and checked by `signed_fields`


def _mac_tag(mac_key: bytes, S: str, pv: str, epoch: str, ids: tuple[str, ...]) -> bytes:
    msg = lp_encode([DOMAIN_MAC, S, pv, epoch, *ids])
    return hmac_sha256(mac_key)(msg)


# ---------------------------------------------------------------------------
# ladder-only stages; the rest come from the protocol.  Every one but the
# token signature also verifies online; an audit passes them the record as
# the claim, no clock and no session record, so the context is the record's
# own.


def _context(attempt: Attempt) -> tuple[str, str]:
    """(pv, epoch) from the session record, or the receipt, if the rung
    keeps one, else as claimed."""
    record = attempt.record
    if isinstance(record, (SessionRecord, Receipt)):
        return record.pv, record.epoch
    return attempt.claim.pv, attempt.claim.epoch


def check_echo(variant: GenericVariant, attempt: Attempt) -> str | None:
    record = attempt.record
    if record is None or attempt.claim.nonce_echo != record.N:
        return R_NONCE_ECHO
    return None


def _check_grant(
    variant: GenericVariant, attempt: Attempt, *, attr: str, domain: str
) -> str | None:
    """A server-signed grant for exactly this session, drop and context;
    a grant that is not `bytes` is none (`receipt.signed_fields`)."""
    claim = attempt.claim
    fields = signed_fields(variant.public_key_bytes, getattr(claim, attr), domain, variant.verified)
    if fields is None or [f.decode() for f in fields[1:]] != [
        claim.S, claim.drop_id, *_context(attempt)
    ]:
        return R_EVIDENCE_INVALID
    return None


check_capability = partial(_check_grant, attr="capability", domain=DOMAIN_CAPABILITY)
check_permit = partial(_check_grant, attr="permit", domain=DOMAIN_PERMIT)


def check_mac(variant: GenericVariant, attempt: Attempt) -> str | None:
    """The server's MAC over the session's context and listed ids.  A MAC
    that is not `bytes`, or a context or id list no MAC can take (a tuple
    of text, `canon.encodable`), is no evidence."""
    claim = attempt.claim
    context, ids = (claim.S, *_context(attempt)), claim.result_ids
    if (not isinstance(claim.result_mac, bytes) or not isinstance(ids, tuple)
            or not all(map(encodable, (*context, *ids)))):
        return R_EVIDENCE_INVALID
    if not hmac.compare_digest(_mac_tag(variant.env.mac_key, *context, ids), claim.result_mac):
        return R_EVIDENCE_INVALID
    return None if claim.drop_id in ids else R_NOT_IN_RESULT_SET


def check_context_digest(variant: GenericVariant, attempt: Attempt) -> str | None:
    """The context digest over the claimed id and context; an id, policy
    version or epoch no digest can take (`canon.encodable`) is a mismatch,
    as in the protocol's `check_digest`."""
    claim, context = attempt.claim, (attempt.claim.drop_id, *_context(attempt))
    if (not isinstance(claim.pub, nizk.PublicInputs) or not all(map(encodable, context))
            or claim.pub[7] != context_digest(*context)):
        return R_NONCE_DIGEST
    return None


def _token(variant: GenericVariant, attempt: Attempt) -> bytes | None:
    """The token that counts: online the one the server issued the session,
    offline (an audit has no clock) the one the record was stamped with."""
    if attempt.now is None:
        return attempt.claim.token
    return variant.token_by_session.get(attempt.claim.S)


def check_token_hash(variant: GenericVariant, attempt: Attempt) -> str | None:
    """The only anchor of an opaque token is pub[7] == H(token), so any
    token-level tampering collapses into this one symptom.  Online, a
    session issued no token is not one this rung can unlock."""
    token, pub = _token(variant, attempt), attempt.claim.pub
    if token is None and attempt.now is not None:
        return R_SESSION_INVALID
    if not isinstance(token, bytes) or not isinstance(pub, nizk.PublicInputs) or pub[7] != digest([token]):
        return R_TOKEN_HASH
    return None


def check_token_root(variant: GenericVariant, attempt: Attempt) -> str | None:
    """Membership against the root inside the token; a missing token, one
    that is not `bytes`, or one that does not frame a root, admits no path."""
    token, claim = _token(variant, attempt), attempt.claim
    if not isinstance(token, bytes):
        return R_MERKLE_INVALID
    try:
        fields = lp_decode(token)
    except EncodingError:
        return R_MERKLE_INVALID
    path = claim.merkle_path
    if (len(fields) < 4 or not isinstance(path, MerklePath)
            or not verify_membership(fields[3], claim.drop_id, path)):
        return R_MERKLE_INVALID
    return None


def audit_token_sig(variant: GenericVariant, attempt: Attempt) -> str | None:
    """Offline only: the record's token is signed by the server, for the
    rung's token kind (online the server's own copy needs no signature)."""
    domain = DOMAIN_TOKEN_FULL if check_token_root in variant.traits.verify else DOMAIN_TOKEN_LITE
    if signed_fields(variant.public_key_bytes, attempt.claim.token, domain, variant.verified) is None:
        return R_TOKEN_SIG
    return None


# ---------------------------------------------------------------------------
# the rung table


@dataclass(frozen=True)
class VariantTraits:
    """One row of the rung table."""

    kind: str
    verify: tuple[Stage, ...]
    audit: tuple[Stage, ...]
    plaintext_search: bool = False
    mode: str = MODE_CORE  # what the session keeps: the hit cells, or (full) their root

    @property
    def session_aware(self) -> bool:
        return check_session in self.verify

    @property
    def has_proof(self) -> bool:
        return check_proof in self.verify

    @property
    def carries_path(self) -> bool:
        """Requests carry a Merkle path: to the session root, or the token's."""
        return self.mode == MODE_FULL or check_token_root in self.verify


_PROVE = (check_statement, check_proof)  # offline only the proof: an auditor has no drop table
_CONTEXT_VERIFY = (check_context_digest, *_PROVE)
_CONTEXT_AUDIT = (check_context_digest, check_proof)
# The protocol's own stages and signed receipt; V4b binds the session to a Merkle root.
_PROTOCOL = VariantTraits("V4a", VERIFY_STAGES, AUDIT_STAGES)

RUNGS: dict[str, VariantTraits] = {
    "V1": VariantTraits("V1", _CONTEXT_VERIFY, _CONTEXT_AUDIT, plaintext_search=True),
    "V2": VariantTraits("V2", _CONTEXT_VERIFY, _CONTEXT_AUDIT),
    "V3": VariantTraits(
        "V3",
        (check_session, check_echo, *_CONTEXT_VERIFY, consume_session),
        _CONTEXT_AUDIT,
    ),
    "V4a": _PROTOCOL,
    "V4b": replace(_PROTOCOL, kind="V4b", mode=MODE_FULL),
    "V5": VariantTraits(
        "V5",
        (check_session, check_capability, *_CONTEXT_VERIFY, consume_session),
        (check_capability, *_CONTEXT_AUDIT),
    ),
    "V6": VariantTraits(
        "V6",
        (check_session, check_permit, consume_session),
        (check_permit,),  # nothing else to attest: no proof exists
    ),
    "V7": VariantTraits(
        "V7",
        (check_session, check_mac, *_CONTEXT_VERIFY, consume_session),
        (check_mac, *_CONTEXT_AUDIT),
    ),
    "V8": VariantTraits(
        "V8",
        (check_session, check_token_hash, check_token_root, *_PROVE, consume_session),
        (check_token_hash, audit_token_sig, check_token_root, check_proof),
    ),
}
VARIANT_KINDS = tuple(RUNGS)

# V8 with a token that omits the root: membership falls back to the
# session's own cells, and the offline trail has nothing to check it on.
_V8_LITE = replace(
    RUNGS["V8"],
    verify=(check_session, check_token_hash, check_membership, *_PROVE, consume_session),
    audit=(check_token_hash, audit_token_sig, check_proof),
)


# ---------------------------------------------------------------------------
# the engine


class GenericVariant:
    """Any rung: the protocol's server and client, driven by its row."""

    def __init__(self, traits: VariantTraits, env: VariantEnv):
        self.traits = traits
        self.kind = traits.kind
        self.env = env
        server_cls = _PlaintextServer if traits.plaintext_search else SbppServer
        self.server, self.client = protocol_pair(env, traits.mode, server_cls)
        server = self.server  # its state, under the names the stages read
        self.sessions, self.drops, self.nizk_vk = server.sessions, server.drops, server.nizk_vk
        self.unlock_radius_m = server.unlock_radius_m
        self.public_key_bytes = server.public_key_bytes
        self.token_by_session: dict[str, bytes] = {}

    @cached_property
    def verified(self) -> SignatureMemo:
        """The memo for every signature check, online and offline, made at
        the first: a rung that checks no signature makes none."""
        return signature_memo()

    def set_epoch(self, epoch: str) -> None:
        self.sessions.epoch = epoch

    # -- client/server flow

    def open_session(self, now: int) -> VariantSession:
        return VariantSession(**vars(self.server.init_session(now)))

    def search(
        self, vses: VariantSession, lat: float, lon: float, radius_m: float, now: int
    ) -> VariantSession:
        row, server, key, S = self.traits, self.server, self.env.signing_key, vses.S
        stages = row.verify
        if check_digest in stages:  # the protocol's own search and receipt
            return self.client.search(server, vses, lat, lon, radius_m, now)
        _, tags = client_tokens(
            self.env.search_key, lat, lon, radius_m, vses.precisions, tagger=server._tagger
        )
        cells = server.bind(S, tags, now)[0] if row.session_aware else server._hits(tags)
        vses.candidates, vses.cells = drops_of(cells), tuple(cells)
        # this search's evidence replaces the last one's, as the protocol's receipt does
        vses.capabilities, vses.permits, vses.result_mac, vses.token = {}, {}, None, None
        if not cells:
            return vses
        pv, epoch = vses.pv, vses.epoch
        if check_capability in stages:
            for i in vses.result_ids():
                vses.capabilities[i] = sign_fields(key, [DOMAIN_CAPABILITY, S, i, pv, epoch])
        if check_permit in stages:
            for i in vses.result_ids():
                vses.permits[i] = sign_fields(key, [DOMAIN_PERMIT, S, i, pv, epoch])
        if check_mac in stages:
            vses.result_mac = _mac_tag(self.env.mac_key, S, pv, epoch, tuple(vses.result_ids()))
        if check_token_hash in stages:
            if check_token_root in stages:
                root = build_tree(cells).root
                token = sign_fields(key, [DOMAIN_TOKEN_FULL, S, vses.N, root, pv, epoch])
            else:
                token = sign_fields(key, [DOMAIN_TOKEN_LITE, S, vses.N, pv, epoch])
            self.token_by_session[S] = vses.token = token
        return vses

    def build_unlock(
        self, vses: VariantSession, drop_id: str, witness: nizk.Witness
    ) -> VariantRequest:
        return self._request(vses, vses.candidate(drop_id), witness, leaf=drop_id)

    def build_nonmember_unlock(
        self, vses: VariantSession, drop: Drop, witness: nizk.Witness
    ) -> VariantRequest:
        """Attempt an unlock for a drop the search never returned.  The
        adversary follows the client procedure as far as it can, with a
        membership path stolen from the first returned id."""
        leaf = min(map(attrgetter("id"), vses.candidates), default=None)
        return self._request(vses, drop, witness, leaf)

    def _request(
        self, vses: VariantSession, drop: Drop, witness: nizk.Witness, leaf: str | None
    ) -> VariantRequest:
        row = self.traits
        stages = row.verify
        if leaf is None and row.mode == MODE_FULL:
            raise ProtocolError("no listed id to take a membership path from")
        if check_digest in stages:  # the protocol client's checked root, digest and proof
            request = self.client.request(vses, drop, witness, leaf)
            return VariantRequest(**vars(request), pv=vses.pv, epoch=vses.epoch)
        path = pub = proof = None
        if row.carries_path and leaf is not None:
            path = build_tree(vses.cells, leaf).path
        if check_proof in stages:
            if check_token_hash in stages:
                if vses.token is None:
                    raise ProtocolError("no token issued for this session")
                cd = digest([vses.token])
            else:
                cd = context_digest(drop.id, vses.pv, vses.epoch)
            pub = nizk.make_public_inputs(drop.lat, drop.lon, vses.radius_m, cd)
            proof = nizk.prove(self.client.proving_key, witness, pub)
        return VariantRequest(
            S=vses.S,
            drop_id=drop.id,
            pub=pub,
            proof=proof,
            pv=vses.pv,
            epoch=vses.epoch,
            merkle_path=path,
            nonce_echo=vses.N if check_echo in stages else None,
            capability=vses.capabilities.get(drop.id),
            permit=vses.permits.get(drop.id),
            result_ids=tuple(vses.result_ids()) if check_mac in stages else None,
            result_mac=vses.result_mac,
        )

    def verify(self, request: VariantRequest, now: int) -> VerifyOutcome:
        return run_stages(self.traits.verify, self, Attempt(request, now))

    # -- offline audit

    def audit_record(self, vses: VariantSession, request: VariantRequest) -> VariantRequest:
        """The request, stamped with the token and receipt the session was issued."""
        return replace(request, token=vses.token, receipt=vses.receipt)

    def audit(self, rec: VariantRequest) -> VerifyOutcome:
        """The row's audit stages, with the record as the claim and its
        receipt (if the rung issues one) as the session context."""
        return run_stages(self.traits.audit, self, Attempt(rec, None, rec.receipt))


def make_variant(kind: str, env: VariantEnv, token_includes_root: bool = True) -> GenericVariant:
    """Instantiate one rung of the ladder over shared environment material."""
    traits = RUNGS.get(kind)
    if traits is None:
        raise ProtocolError(f"unknown variant kind {kind!r}")
    if kind == "V8" and not token_includes_root:
        traits = _V8_LITE
    return GenericVariant(traits, env)
