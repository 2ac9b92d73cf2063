"""The search-bound unlock protocol (core and full modes).

Flow: the server issues a session (id, 256-bit nonce, expiry); the client
searches with encrypted cell tokens; the server binds the session to the
matched result set (core: the id set itself, full: its Merkle root) and
hands back the matched drops themselves, in id order, with a signed receipt;
the session, not each drop, carries the policy version, epoch and unlock
radius.  The client then proves proximity to one returned drop, committing
a challenge digest over (drop, policy, epoch, nonce[, root]) inside the
proof's public inputs; the server re-derives the digest from its own session
state and accepts at most once per session.

Verification is a fixed tuple of stages, VERIFY_STAGES, and every rejection
carries exactly one reason, so a failure localizes to the first broken link:

    session -> bound -> digest -> membership -> statement -> proof -> consume

The audit path, AUDIT_STAGES, is the same verify stages run with no server
state: the signed receipt stands in for the session record and the audit
record (receipt, drop id, membership path, public inputs, proof) for the
request.  That is what makes full-mode unlocks attributable after the
server forgets everything:

    receipt signature -> digest -> membership -> proof

Only the receipt check is offline-only; the statement check stays online,
since it needs the server's drop table.  Each stage is written once.  The
V4a/V4b rungs of the comparison ladder in sbpp.variants run these same
stage objects.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
import random
from typing import Any, Callable, NamedTuple

from . import nizk
from .canon import FieldElement, cd_core, cd_full, lp_encode, lp_decode, EncodingError
from .geoindex import DEFAULT_PRECISIONS, Drop, GeoIndex, build_index, client_tokens
from .merkle import MerklePath, MerkleError, build_tree, verify_membership
from .receipt import Receipt, ReceiptError, SigningKey, sign_receipt, verify_receipt
from .session import (
    DEFAULT_EPOCH,
    DEFAULT_PV,
    DEFAULT_TTL_S,
    MODE_CORE,
    MODE_FULL,
    ConsumedSessionError,
    ExpiredSessionError,
    SessionRecord,
    SessionStore,
    UnknownSessionError,
    in_result_set,
)

# Rejection reasons; one per failed check, in pipeline order.
R_SESSION_INVALID = "session-invalid"
R_EXPIRED = "expired"
R_CONSUMED = "consumed"
R_NONCE_DIGEST = "nonce-digest-mismatch"
R_NOT_IN_RESULT_SET = "not-in-result-set"
R_MERKLE_INVALID = "merkle-invalid"
R_PROOF_INVALID = "proof-invalid"
R_RECEIPT_SIG = "receipt-sig-invalid"

DEFAULT_UNLOCK_RADIUS_M = 1000.0


class ProtocolError(ValueError):
    pass


class AuditRecordError(ValueError):
    """Malformed audit record frame (parse-level, not a cryptographic verdict)."""


@dataclass(frozen=True)
class IssuedSession:
    S: str
    N: bytes
    t_exp: int
    pv: str
    epoch: str


@dataclass(frozen=True)
class SearchResponse:
    candidates: tuple[Drop, ...]
    receipt: Receipt | None


@dataclass(frozen=True)
class UnlockRequest:
    S: str
    drop_id: str
    pub: nizk.PublicInputs
    proof: nizk.Proof
    merkle_path: MerklePath | None = None


@dataclass(frozen=True)
class VerifyOutcome:
    accepted: bool
    fail_reason: str | None = None

    def __post_init__(self) -> None:
        if self.accepted == (self.fail_reason is not None):
            raise ProtocolError("outcome must carry exactly one of accept/reason")


class SbppServer:
    """Server half: index, session table, receipt signer, proof verifier."""

    def __init__(
        self,
        drops: list[Drop],
        search_key: bytes,
        signing_key: SigningKey,
        nizk_vk: bytes,
        mode: str = MODE_FULL,
        precisions: list[int] | None = None,
        ttl_s: int = DEFAULT_TTL_S,
        pv: str = DEFAULT_PV,
        epoch: str = DEFAULT_EPOCH,
        unlock_radius_m: float = DEFAULT_UNLOCK_RADIUS_M,
        nonce_rng: random.Random | None = None,
    ):
        if mode not in (MODE_CORE, MODE_FULL):
            raise ProtocolError(f"unknown protocol mode {mode!r}")
        self.mode = mode
        self.drops = {d.id: d for d in drops}
        if len(self.drops) != len(drops):
            raise ProtocolError("duplicate drop ids in corpus")
        self.index: GeoIndex = build_index(search_key, drops, precisions or list(DEFAULT_PRECISIONS))
        self.signing_key = signing_key
        self.nizk_vk = nizk_vk
        self.unlock_radius_m = unlock_radius_m
        self.sessions = SessionStore(ttl_s=ttl_s, pv=pv, epoch=epoch, nonce_rng=nonce_rng)

    @property
    def public_key_bytes(self) -> bytes:
        return self.signing_key.public_bytes

    def init_session(self, now: int) -> IssuedSession:
        record = self.sessions.issue(now, mode=self.mode)
        return IssuedSession(record.S, record.N, record.t_exp, record.pv, record.epoch)

    def _match_ids(self, tags: list[bytes]) -> list[str]:
        return self.index.match(tags)

    def search(self, S: str, tags: list[bytes], now: int) -> SearchResponse:
        """Match, bind, and attest in one step.  Empty matches leave the
        session unbound and searchable until it expires."""
        self.sessions.validate(S, now)
        ids = self._match_ids(tags)
        if not ids:
            return SearchResponse(candidates=(), receipt=None)
        record = self.sessions.bind_results(S, ids, self.mode, now)
        return SearchResponse(candidates_for(self.drops, ids), sign_session(self.signing_key, record))

    def verify(self, request: UnlockRequest, now: int) -> VerifyOutcome:
        reason = first_reason(VERIFY_STAGES, self, Attempt(request, now))
        return VerifyOutcome(reason is None, reason)


def candidates_for(drops: dict[str, Drop], ids: list[str]) -> tuple[Drop, ...]:
    return tuple(map(drops.__getitem__, ids))


def sign_session(key: SigningKey, s: SessionRecord) -> Receipt:
    """The receipt over a bound session: its nonce, expiry and root."""
    return sign_receipt(key, s.S, s.N, s.t_exp, s.root, s.mode, s.pv, s.epoch)


def challenge_digest(
    mode: str, drop_id: str, pv: str, epoch: str, N: bytes, root: bytes | None
) -> FieldElement:
    """cd_core, or in full mode cd_full over the result-set root."""
    if mode == MODE_CORE:
        return cd_core(drop_id, pv, epoch, N)
    return cd_full(drop_id, pv, epoch, N, root)


# ---------------------------------------------------------------------------
# stages
#
# A stage takes (subject, attempt) and returns a rejection reason, or None to
# pass the attempt on.  Online the subject is the verifier (anything with
# `sessions`, `drops`, `unlock_radius_m` and `nizk_vk`); offline it holds only
# keys (`public_key_bytes`, `nizk_vk`), so an audit runs only the stages that
# read nothing but the attempt and the keys.

Stage = Callable[[Any, Any], "str | None"]


@dataclass
class Attempt:
    """One unlock on its way through the stages.

    ``claim`` is what the prover asserts: the unlock request online, the
    audit record offline.  ``record`` is the server-issued context it is
    checked against: the session record (set by check_session) online, the
    record's signed receipt offline (None on rungs that issue none).
    """

    claim: Any
    now: int | None  # None offline: an audit has no clock
    record: SessionRecord | Receipt | None = None


def first_reason(stages: tuple[Stage, ...], subject: Any, item: Any) -> str | None:
    """Run the stages in order; the first reason stops the run."""
    for stage in stages:
        reason = stage(subject, item)
        if reason is not None:
            return reason
    return None


def check_session(verifier: Any, attempt: Attempt) -> str | None:
    try:
        attempt.record = verifier.sessions.validate(attempt.claim.S, attempt.now)
    except UnknownSessionError:
        return R_SESSION_INVALID
    except ExpiredSessionError:
        return R_EXPIRED
    except ConsumedSessionError:
        return R_CONSUMED
    return None


def check_bound(verifier: Any, attempt: Attempt) -> str | None:
    return None if attempt.record.bound else R_SESSION_INVALID


def check_receipt(keys: Any, attempt: Attempt) -> str | None:
    """Offline only: the receipt is the server's, so its fields are the context."""
    receipt = attempt.record
    if receipt is None or not verify_receipt(keys.public_key_bytes, receipt):
        return R_RECEIPT_SIG
    return None


def check_digest(verifier: Any, attempt: Attempt) -> str | None:
    """The challenge digest binds the proof to this session's context."""
    record, claim = attempt.record, attempt.claim
    if claim.pub is None:
        return R_NONCE_DIGEST
    expected = challenge_digest(
        record.mode, claim.drop_id, record.pv, record.epoch, record.N, record.root
    )
    return None if claim.pub[7] == expected else R_NONCE_DIGEST


def check_membership(verifier: Any, attempt: Attempt) -> str | None:
    """The bound id set where the context holds one (a core session), else a
    Merkle path to the bound root.  A receipt holds no id set, and a core
    receipt's zero root admits no path, so core audit records stop here."""
    record, claim = attempt.record, attempt.claim
    if record.result_set is not None:
        return None if in_result_set(record.result_set, claim.drop_id) else R_NOT_IN_RESULT_SET
    path = claim.merkle_path
    if path is None or not verify_membership(record.root, claim.drop_id, path):
        return R_MERKLE_INVALID
    return None


def check_statement(verifier: Any, attempt: Attempt) -> str | None:
    """Online only: the public inputs state the named drop's position."""
    claim = attempt.claim
    drop = verifier.drops.get(claim.drop_id)
    if drop is None or claim.pub is None:
        return R_PROOF_INVALID
    try:
        expected = nizk.make_public_inputs(
            drop.lat, drop.lon, verifier.unlock_radius_m, claim.pub[7]
        )
    except nizk.NizkError:
        return R_PROOF_INVALID
    return None if expected.elements[:7] == claim.pub.elements[:7] else R_PROOF_INVALID


def check_proof(verifier: Any, attempt: Attempt) -> str | None:
    """The proximity proof holds for the public inputs."""
    pub, proof = attempt.claim.pub, attempt.claim.proof
    if pub is None or proof is None or not nizk.verify(verifier.nizk_vk, pub, proof):
        return R_PROOF_INVALID
    return None


def consume_session(verifier: Any, attempt: Attempt) -> str | None:
    """Exactly-once consumption; the grant is the consume."""
    return None if verifier.sessions.consume(attempt.claim.S, attempt.now) else R_CONSUMED


VERIFY_STAGES: tuple[Stage, ...] = (
    check_session,
    check_bound,
    check_digest,
    check_membership,
    check_statement,
    check_proof,
    consume_session,
)

AUDIT_STAGES: tuple[Stage, ...] = (check_receipt, check_digest, check_membership, check_proof)


@dataclass
class ClientSession:
    """Client-side view of one session: its context, found drops and receipt."""

    S: str
    N: bytes
    t_exp: int
    mode: str
    pv: str
    epoch: str
    radius_m: float
    precisions: tuple[int, ...]  # the index's, which the client's cover chooses among
    candidates: tuple[Drop, ...] = ()
    receipt: Receipt | None = None

    def candidate(self, drop_id: str) -> Drop:
        """The listed drop, found by bisection: candidates are in id order."""
        i = bisect_left(self.candidates, drop_id, key=attrgetter("id"))
        if i < len(self.candidates) and self.candidates[i].id == drop_id:
            return self.candidates[i]
        raise ProtocolError(f"{drop_id!r} is not in this session's result list")

    def result_ids(self) -> list[str]:
        return [c.id for c in self.candidates]


class SbppClient:
    """Client half: token derivation, local root recomputation, proving."""

    def __init__(self, search_key: bytes, proving_key: bytes):
        self.search_key = search_key
        self.proving_key = proving_key

    def open_session(self, server: SbppServer, now: int) -> ClientSession:
        issued = server.init_session(now)
        return ClientSession(
            issued.S, issued.N, issued.t_exp, server.mode, issued.pv, issued.epoch,
            server.unlock_radius_m, tuple(server.index.precisions),
        )

    def search(
        self, server: SbppServer, ses: ClientSession, lat: float, lon: float, radius_m: float, now: int
    ) -> ClientSession:
        _, tags = client_tokens(self.search_key, lat, lon, radius_m, ses.precisions)
        response = server.search(ses.S, tags, now)
        ses.candidates = response.candidates
        ses.receipt = response.receipt
        return ses

    def build_unlock(
        self, ses: ClientSession, drop_id: str, witness: nizk.Witness
    ) -> UnlockRequest:
        """Steps the client runs before submitting: recompute the root from
        its own copy of the result list, derive the digest, prove."""
        target = ses.candidate(drop_id)
        root = path = None
        if ses.mode == MODE_FULL:
            tree = build_tree(ses.result_ids())
            root, path = tree.root, tree.prove_membership(drop_id)
        cd = challenge_digest(ses.mode, drop_id, ses.pv, ses.epoch, ses.N, root)
        pub = nizk.make_public_inputs(target.lat, target.lon, ses.radius_m, cd)
        proof = nizk.prove(self.proving_key, witness, pub)
        return UnlockRequest(S=ses.S, drop_id=drop_id, pub=pub, proof=proof, merkle_path=path)


# ---------------------------------------------------------------------------
# audit records


_EMPTY_PATH = MerklePath(())


@dataclass(frozen=True)
class AuditRecord:
    receipt: Receipt
    drop_id: str
    merkle_path: MerklePath
    pub: nizk.PublicInputs
    proof: nizk.Proof

    def serialize(self) -> bytes:
        return lp_encode(
            [
                self.receipt.serialize(),
                self.drop_id,
                self.merkle_path.serialize(),
                self.pub.to_bytes(),
                self.proof.serialize(),
            ]
        )

    @classmethod
    def parse(cls, raw: bytes) -> "AuditRecord":
        try:
            fields = lp_decode(raw)
        except EncodingError as exc:
            raise AuditRecordError(f"malformed record frame: {exc}") from exc
        if len(fields) != 5:
            raise AuditRecordError("audit record must have 5 fields")
        try:
            return cls(
                receipt=Receipt.parse(fields[0]),
                drop_id=fields[1].decode("utf-8"),
                merkle_path=MerklePath.parse(fields[2]),
                pub=nizk.PublicInputs.from_bytes(fields[3]),
                proof=nizk.Proof.parse(fields[4]),
            )
        except (ReceiptError, MerkleError, nizk.NizkError, UnicodeDecodeError) as exc:
            raise AuditRecordError(f"malformed record field: {exc}") from exc


def emit_audit_record(ses: ClientSession, request: UnlockRequest) -> AuditRecord:
    """Persist everything a third party needs to re-check this unlock."""
    if ses.receipt is None:
        raise ProtocolError("session has no receipt to audit against")
    return AuditRecord(
        receipt=ses.receipt,
        drop_id=request.drop_id,
        merkle_path=request.merkle_path if request.merkle_path is not None else _EMPTY_PATH,
        pub=request.pub,
        proof=request.proof,
    )


class AuditKeys(NamedTuple):
    public_key_bytes: bytes
    nizk_vk: bytes


def audit(server_public_key: bytes, nizk_vk: bytes, record: AuditRecord) -> VerifyOutcome:
    """Replay the protocol's bindings offline, with zero session state:
    AUDIT_STAGES in order (receipt signature, digest, membership, proof),
    with the record's receipt as the session context."""
    reason = first_reason(
        AUDIT_STAGES, AuditKeys(server_public_key, nizk_vk), Attempt(record, None, record.receipt)
    )
    return VerifyOutcome(reason is None, reason)
