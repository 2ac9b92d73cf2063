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

Each rung is one row of RUNGS.  The row says what the search side issues
(capabilities, permits, a MAC, a token or the protocol's signed receipt),
what the client attaches to a request, and which stages verify and audit
it.  Verify and audit run the row's stage tuple in order and stop at the
first reason, so each failure maps to one reason on every rung.  V4a and
V4b are rows like the others: their stage tuples are the protocol's own
VERIFY_STAGES and AUDIT_STAGES objects, and the ladder-only stages here
(nonce echo, evidence, context digest, token hash/root) sit beside the
shared session, membership, statement, proof and consume stages.

An audit is the verify stages run without server state: the audit record
is the request itself, stamped with the token and receipt the session was
issued, and its receipt, where the rung issues one, takes the session
record's place.  So every audit stage is a verify stage too, except the
protocol's receipt signature and V8's token hash, signature and root,
which read the token from the record instead of the server's session.

Attack adapters model an adversary who can re-route anything it computed
itself (session ids, nonce echoes, membership paths) but cannot mint
server-signed evidence for a context the server never issued it for.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field, replace
from functools import partial

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from . import nizk
from .canon import FieldElement, digest, lp_decode, lp_encode
from .geoindex import DEFAULT_PRECISIONS, Drop, build_index, client_tokens, make_token, plain_tag
from .merkle import MerklePath, build_tree, verify_membership
from .protocol import (
    AUDIT_STAGES,
    DEFAULT_UNLOCK_RADIUS_M,
    VERIFY_STAGES,
    Attempt,
    ClientSession,
    R_MERKLE_INVALID,
    R_NONCE_DIGEST,
    R_NOT_IN_RESULT_SET,
    R_SESSION_INVALID,
    Stage,
    UnlockRequest,
    VerifyOutcome,
    candidates_for,
    challenge_digest,
    check_membership,
    check_proof,
    check_session,
    check_statement,
    consume_session,
    first_reason,
    sign_session,
)
from .receipt import Receipt, SigningKey
from .session import DEFAULT_EPOCH, DEFAULT_PV, DEFAULT_TTL_S, MODE_CORE, MODE_FULL, SessionStore

VARIANT_KINDS = ("V1", "V2", "V3", "V4a", "V4b", "V5", "V6", "V7", "V8")

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


class VariantError(ValueError):
    pass


def context_digest(drop_id: str, pv: str, epoch: str) -> FieldElement:
    """Session-agnostic challenge digest used by the pre-binding rungs."""
    return digest([drop_id, pv, epoch])


@dataclass(frozen=True)
class VariantEnv:
    """Deterministic material shared by every rung of one comparison run."""

    drops: list[Drop]
    search_key: bytes
    signing_key: SigningKey
    proving_key: bytes
    verifying_key: bytes
    mac_key: bytes
    precisions: tuple[int, ...] = DEFAULT_PRECISIONS
    ttl_s: int = DEFAULT_TTL_S
    pv: str = DEFAULT_PV
    epoch: str = DEFAULT_EPOCH
    unlock_radius_m: float = DEFAULT_UNLOCK_RADIUS_M
    nonce_rng: random.Random | None = None


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
# signed sidecar blobs (capabilities, permits, tokens)


def _sign_blob(key: SigningKey, fields: list[bytes | str]) -> bytes:
    body = lp_encode(fields)
    return body + lp_encode([key.signer().sign(body)])


def _verify_blob(public_bytes: bytes, blob: bytes, domain: str) -> list[bytes] | None:
    """Parsed fields (sans signature) if the blob is well-formed and signed."""
    try:
        fields = lp_decode(blob)
    except ValueError:
        return None
    if len(fields) < 2 or fields[0] != domain.encode("ascii"):
        return None
    body = lp_encode(fields[:-1])
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(fields[-1], body)
    except (InvalidSignature, ValueError):
        return None
    return fields[:-1]


def _mac_tag(mac_key: bytes, S: str, pv: str, epoch: str, ids: tuple[str, ...]) -> bytes:
    msg = lp_encode([DOMAIN_MAC, S, pv, epoch, *ids])
    return hmac.new(mac_key, msg, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# ladder-only stages; the rest come from the protocol.  Every one but the
# V8 audit stages also verifies online; an audit passes them the record as
# the claim and no session record, so the context is the record's own.


def _context(attempt: Attempt) -> tuple[str, str]:
    """(pv, epoch) from the session if the rung keeps one, else as claimed."""
    record = attempt.record
    if record is not None:
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
    """A server-signed grant for exactly this session, drop and context."""
    claim = attempt.claim
    fields = _verify_blob(variant.public_key_bytes, getattr(claim, attr) or b"", domain)
    if fields is None or [f.decode() for f in fields[1:]] != [
        claim.S, claim.drop_id, *_context(attempt)
    ]:
        return R_EVIDENCE_INVALID
    return None


check_capability = partial(_check_grant, attr="capability", domain=DOMAIN_CAPABILITY)
check_permit = partial(_check_grant, attr="permit", domain=DOMAIN_PERMIT)


def check_mac(variant: GenericVariant, attempt: Attempt) -> str | None:
    claim = attempt.claim
    if claim.result_ids is None or claim.result_mac is None:
        return R_EVIDENCE_INVALID
    expected = _mac_tag(variant.env.mac_key, claim.S, *_context(attempt), claim.result_ids)
    if not hmac.compare_digest(expected, claim.result_mac):
        return R_EVIDENCE_INVALID
    return None if claim.drop_id in claim.result_ids else R_NOT_IN_RESULT_SET


def check_context_digest(variant: GenericVariant, attempt: Attempt) -> str | None:
    claim = attempt.claim
    if claim.pub is None or claim.pub[7] != context_digest(claim.drop_id, *_context(attempt)):
        return R_NONCE_DIGEST
    return None


def _token_member(token: bytes, claim: VariantRequest) -> str | None:
    """Membership against the root inside ``token``."""
    root, path = lp_decode(token)[3], claim.merkle_path
    if path is None or not verify_membership(root, claim.drop_id, path):
        return R_MERKLE_INVALID
    return None


def check_token_hash(variant: GenericVariant, attempt: Attempt) -> str | None:
    token = variant.token_by_session.get(attempt.claim.S)
    if token is None:
        return R_SESSION_INVALID
    pub = attempt.claim.pub
    return None if pub is not None and pub[7] == digest([token]) else R_TOKEN_HASH


def check_token_root(variant: GenericVariant, attempt: Attempt) -> str | None:
    """Membership against the root inside this session's token."""
    return _token_member(variant.token_by_session[attempt.claim.S], attempt.claim)


# V8 audits read the record's token; online, the token the server holds for
# the session is the one that counts, so these are offline-only.


def audit_token_hash(variant: GenericVariant, attempt: Attempt) -> str | None:
    # The only anchor of an opaque token is pub[7] == H(token), so any
    # token-level tampering collapses into this one symptom.
    rec = attempt.claim
    if rec.pub is None or rec.token is None or rec.pub[7] != digest([rec.token]):
        return R_TOKEN_HASH
    return None


def audit_token_sig(variant: GenericVariant, attempt: Attempt) -> str | None:
    domain = DOMAIN_TOKEN_FULL if variant.traits.token_includes_root else DOMAIN_TOKEN_LITE
    if _verify_blob(variant.public_key_bytes, attempt.claim.token, domain) is None:
        return R_TOKEN_SIG
    return None


def audit_token_root(variant: GenericVariant, attempt: Attempt) -> str | None:
    return _token_member(attempt.claim.token, attempt.claim)


# ---------------------------------------------------------------------------
# the rung table


@dataclass(frozen=True)
class VariantTraits:
    """One row of the rung table."""

    kind: str
    verify: tuple[Stage, ...]
    audit: tuple[Stage, ...]
    plaintext_search: bool = False
    mode: str = MODE_CORE  # what the session binds: the id set, or (full) its root
    nonce_echo: bool = False
    digest_kind: str | None = "context"  # context | token | session | None (no proof)
    evidence: str | None = None  # capability | permit | mac | token | receipt
    token_includes_root: bool = True

    @property
    def session_aware(self) -> bool:
        return check_session in self.verify

    @property
    def has_proof(self) -> bool:
        return self.digest_kind is not None

    @property
    def carries_path(self) -> bool:
        """Requests carry a Merkle path: to the session root, or the token's."""
        return self.mode == MODE_FULL or (self.evidence == "token" and self.token_includes_root)


_PROVE = (check_statement, check_proof)  # offline only the proof: an auditor has no drop table
_CONTEXT_VERIFY = (check_context_digest, *_PROVE)
_CONTEXT_AUDIT = (check_context_digest, check_proof)
# The protocol's own stages and signed receipt; V4b binds the session to a Merkle root.
_PROTOCOL = VariantTraits(
    "V4a", VERIFY_STAGES, AUDIT_STAGES, digest_kind="session", evidence="receipt"
)

RUNGS: dict[str, VariantTraits] = {
    "V1": VariantTraits("V1", _CONTEXT_VERIFY, _CONTEXT_AUDIT, plaintext_search=True),
    "V2": VariantTraits("V2", _CONTEXT_VERIFY, _CONTEXT_AUDIT),
    "V3": VariantTraits(
        "V3",
        (check_session, check_echo, *_CONTEXT_VERIFY, consume_session),
        _CONTEXT_AUDIT,
        nonce_echo=True,
    ),
    "V4a": _PROTOCOL,
    "V4b": replace(_PROTOCOL, kind="V4b", mode=MODE_FULL),
    "V5": VariantTraits(
        "V5",
        (check_session, check_capability, *_CONTEXT_VERIFY, consume_session),
        (check_capability, *_CONTEXT_AUDIT),
        evidence="capability",
    ),
    "V6": VariantTraits(
        "V6",
        (check_session, check_permit, consume_session),
        (check_permit,),  # nothing else to attest: no proof exists
        digest_kind=None,
        evidence="permit",
    ),
    "V7": VariantTraits(
        "V7",
        (check_session, check_mac, *_CONTEXT_VERIFY, consume_session),
        (check_mac, *_CONTEXT_AUDIT),
        evidence="mac",
    ),
    "V8": VariantTraits(
        "V8",
        (check_session, check_token_hash, check_token_root, *_PROVE, consume_session),
        (audit_token_hash, audit_token_sig, audit_token_root, check_proof),
        digest_kind="token",
        evidence="token",
    ),
}

# V8 with a token that omits the root: membership falls back to the
# session's own id set, and the offline trail has nothing to check it on.
_V8_LITE = replace(
    RUNGS["V8"],
    verify=(check_session, check_token_hash, check_membership, *_PROVE, consume_session),
    audit=(audit_token_hash, audit_token_sig, check_proof),
    token_includes_root=False,
)


# ---------------------------------------------------------------------------
# the engine


class GenericVariant:
    """Any rung: search side, client side and verifier, driven by its row."""

    def __init__(self, traits: VariantTraits, env: VariantEnv):
        self.traits = traits
        self.kind = traits.kind
        self.env = env
        self.has_proximity_proof = traits.has_proof
        self.drops = {d.id: d for d in env.drops}
        if len(self.drops) != len(env.drops):
            raise VariantError("duplicate drop ids in corpus")
        self.unlock_radius_m = env.unlock_radius_m
        self.nizk_vk = env.verifying_key
        self.sessions = SessionStore(
            ttl_s=env.ttl_s, pv=env.pv, epoch=env.epoch, nonce_rng=env.nonce_rng
        )
        self._tag = plain_tag if traits.plaintext_search else make_token
        self.index = build_index(env.search_key, env.drops, list(env.precisions), tag=self._tag)
        self.token_by_session: dict[str, bytes] = {}

    @property
    def public_key_bytes(self) -> bytes:
        return self.env.signing_key.public_bytes

    def set_epoch(self, epoch: str) -> None:
        self.sessions.epoch = epoch

    # -- client/server flow

    def open_session(self, now: int) -> VariantSession:
        record = self.sessions.issue(now, mode=self.traits.mode)
        return VariantSession(
            record.S, record.N, record.t_exp, record.mode, record.pv, record.epoch,
            self.unlock_radius_m, self.env.precisions,
        )

    def search(
        self, vses: VariantSession, lat: float, lon: float, radius_m: float, now: int
    ) -> VariantSession:
        row, key, S = self.traits, self.env.signing_key, vses.S
        if row.evidence == "receipt":
            self.sessions.validate(S, now)  # the protocol refuses a dead session outright
        _, tags = client_tokens(
            self.env.search_key, lat, lon, radius_m, self.env.precisions, tag=self._tag
        )
        ids = self.index.match(tags)
        pv, epoch = vses.pv, vses.epoch
        if not ids:
            vses.candidates = ()
            return vses
        record = self.sessions.bind_results(S, ids, row.mode, now) if row.session_aware else None
        if row.evidence == "capability":
            for i in ids:
                vses.capabilities[i] = _sign_blob(key, [DOMAIN_CAPABILITY, S, i, pv, epoch])
        elif row.evidence == "permit":
            for i in ids:
                vses.permits[i] = _sign_blob(key, [DOMAIN_PERMIT, S, i, pv, epoch])
        elif row.evidence == "mac":
            vses.result_mac = _mac_tag(self.env.mac_key, S, pv, epoch, tuple(ids))
        elif row.evidence == "token":
            if row.token_includes_root:
                root = build_tree(ids).root
                token = _sign_blob(key, [DOMAIN_TOKEN_FULL, S, vses.N, root, pv, epoch])
            else:
                token = _sign_blob(key, [DOMAIN_TOKEN_LITE, S, vses.N, pv, epoch])
            self.token_by_session[S] = vses.token = token
        elif row.evidence == "receipt":
            vses.receipt = sign_session(key, record)
        vses.candidates = candidates_for(self.drops, ids)
        return vses

    def build_unlock(
        self, vses: VariantSession, drop_id: str, witness: nizk.Witness
    ) -> VariantRequest:
        target = vses.candidate(drop_id)
        return self._request(vses, drop_id, target.lat, target.lon, witness, path_leaf=drop_id)

    def build_nonmember_unlock(
        self, vses: VariantSession, drop: Drop, witness: nizk.Witness
    ) -> VariantRequest:
        """Attempt an unlock for a drop the search never returned.  The
        adversary follows the client procedure as far as it can, with a
        membership path stolen from the first returned id."""
        ids = vses.result_ids()
        leaf = ids[0] if ids else None
        return self._request(vses, drop.id, drop.lat, drop.lon, witness, path_leaf=leaf)

    def _request(
        self, vses: VariantSession, drop_id: str, lat: float, lon: float,
        witness: nizk.Witness, path_leaf: str | None,
    ) -> VariantRequest:
        row = self.traits
        ids = vses.result_ids()
        tree = build_tree(ids) if row.carries_path and path_leaf is not None else None
        pub = proof = None
        if row.has_proof:
            if row.digest_kind == "token":
                if vses.token is None:
                    raise VariantError("no token issued for this session")
                cd = digest([vses.token])
            elif row.digest_kind == "session":
                root = tree.root if tree is not None else None
                cd = challenge_digest(row.mode, drop_id, vses.pv, vses.epoch, vses.N, root)
            else:
                cd = context_digest(drop_id, vses.pv, vses.epoch)
            pub = nizk.make_public_inputs(lat, lon, self.unlock_radius_m, cd)
            proof = nizk.prove(self.env.proving_key, witness, pub)
        return VariantRequest(
            S=vses.S,
            drop_id=drop_id,
            pub=pub,
            proof=proof,
            pv=vses.pv,
            epoch=vses.epoch,
            merkle_path=tree.prove_membership(path_leaf) if tree is not None else None,
            nonce_echo=vses.N if row.nonce_echo else None,
            capability=vses.capabilities.get(drop_id),
            permit=vses.permits.get(drop_id),
            result_ids=tuple(ids) if row.evidence == "mac" else None,
            result_mac=vses.result_mac,
        )

    def verify(self, request: VariantRequest, now: int) -> VerifyOutcome:
        reason = first_reason(self.traits.verify, self, Attempt(request, now))
        return VerifyOutcome(reason is None, reason)

    # -- offline audit

    def audit_record(self, vses: VariantSession, request: VariantRequest) -> VariantRequest:
        """The request, stamped with the token and receipt the session was issued."""
        return replace(request, token=vses.token, receipt=vses.receipt)

    def audit(self, rec: VariantRequest) -> VerifyOutcome:
        """The row's audit stages, with the record as the claim and its
        receipt (if the rung issues one) as the session context."""
        reason = first_reason(self.traits.audit, self, Attempt(rec, None, rec.receipt))
        return VerifyOutcome(reason is None, reason)

    # -- adversary adapters

    def _path_in(
        self, vses: VariantSession, drop_id: str, fallback: MerklePath | None
    ) -> MerklePath | None:
        """A fresh path to ``drop_id`` in this session's list, where the rung
        carries paths and the drop is listed; otherwise ``fallback``."""
        ids = vses.result_ids()
        if self.traits.carries_path and drop_id in ids:
            return build_tree(ids).prove_membership(drop_id)
        return fallback

    def rebind_request(self, request: VariantRequest, target: VariantSession) -> VariantRequest:
        """Re-route a request to another session, adapting only what the
        adversary can recompute (id, echo, membership path)."""
        return replace(
            request,
            S=target.S,
            merkle_path=self._path_in(target, request.drop_id, request.merkle_path),
            nonce_echo=target.N if self.traits.nonce_echo else None,
        )

    def retarget_request(
        self, request: VariantRequest, vses: VariantSession, new_drop_id: str
    ) -> VariantRequest:
        """Point a request at a different drop while keeping its proximity
        attestation (the proof, or for V6 the permit)."""
        return replace(
            request,
            drop_id=new_drop_id,
            merkle_path=self._path_in(vses, new_drop_id, request.merkle_path),
            capability=vses.capabilities.get(new_drop_id),
        )

    def splice_records(self, proof_rec: VariantRequest, ctx_rec: VariantRequest) -> VariantRequest:
        """Pair one record's proof with another record's session evidence."""
        return replace(
            ctx_rec, pub=proof_rec.pub, proof=proof_rec.proof, merkle_path=proof_rec.merkle_path
        )

    def fabricate_nonmember_record(
        self, vses: VariantSession, drop: Drop, witness: nizk.Witness
    ) -> VariantRequest:
        """An audit record for a drop the search never returned, carrying
        whatever evidence the session was issued for other drops."""
        rec = self.audit_record(vses, self.build_nonmember_unlock(vses, drop, witness))
        return replace(
            rec,
            capability=next(iter(vses.capabilities.values()), None),
            permit=next(iter(vses.permits.values()), None),
        )


def make_variant(kind: str, env: VariantEnv, token_includes_root: bool = True) -> GenericVariant:
    """Instantiate one rung of the ladder over shared environment material."""
    traits = RUNGS.get(kind)
    if traits is None:
        raise VariantError(f"unknown variant kind {kind!r}")
    if kind == "V8" and not token_includes_root:
        traits = _V8_LITE
    return GenericVariant(traits, env)
