"""The search-bound unlock protocol (core and full modes).

Flow: the server issues a session (id, 256-bit nonce, expiry); the client
searches with encrypted cell tokens; the server binds the session to the
matched result set (core: the id set itself, full: its Merkle root) and
hands back a signed receipt; the client then proves proximity to one
returned drop, committing a challenge digest over (drop, policy, epoch,
nonce[, root]) inside the proof's public inputs; the server re-derives the
digest from its own session state and accepts at most once per session.

Verification is a fixed pipeline and every rejection carries exactly one
reason, so a failure localizes to the first broken link:

    session -> digest -> membership -> proof -> consume

The audit path replays the same bindings offline from (receipt, drop id,
membership path, public inputs, proof) with no session state, which is what
makes full-mode unlocks attributable after the server forgets everything.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from . import nizk
from .canon import FieldElement, cd_core, cd_full, lp_encode, lp_decode, EncodingError
from .geoindex import Drop, GeoIndex, build_index, client_tokens
from .merkle import MerklePath, MerkleError, build_tree, verify_membership
from .receipt import Receipt, ReceiptError, SigningKey, sign_receipt, verify_receipt
from .session import (
    MODE_CORE,
    MODE_FULL,
    ConsumedSessionError,
    ExpiredSessionError,
    SessionStore,
    UnknownSessionError,
    ZERO_ROOT,
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


@dataclass(frozen=True)
class CandidateMeta:
    """Everything the client needs to prove proximity to one result."""

    id: str
    lat: float
    lon: float
    radius_m: float
    pv: str
    epoch: str


@dataclass(frozen=True)
class SearchResponse:
    candidates: tuple[CandidateMeta, ...]
    receipt: Receipt | None
    mode: str


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


@dataclass(frozen=True)
class AuditOutcome:
    accepted: bool
    fail_reason: str | None = None


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
        ttl_s: int = 300,
        pv: str = "1",
        epoch: str = "ep0",
        unlock_radius_m: float = DEFAULT_UNLOCK_RADIUS_M,
        nonce_rng: random.Random | None = None,
    ):
        if mode not in (MODE_CORE, MODE_FULL):
            raise ProtocolError(f"unknown protocol mode {mode!r}")
        self.mode = mode
        self.drops = {d.id: d for d in drops}
        if len(self.drops) != len(drops):
            raise ProtocolError("duplicate drop ids in corpus")
        self.index: GeoIndex = build_index(search_key, drops, precisions or [5])
        self.signing_key = signing_key
        self.nizk_vk = nizk_vk
        self.pv = pv
        self.epoch = epoch
        self.unlock_radius_m = unlock_radius_m
        self.sessions = SessionStore(ttl_s=ttl_s, pv=pv, epoch=epoch, nonce_rng=nonce_rng)

    @property
    def public_key_bytes(self) -> bytes:
        return self.signing_key.public_bytes

    def init_session(self, now: int) -> IssuedSession:
        record = self.sessions.issue(now, mode=self.mode)
        return IssuedSession(S=record.S, N=record.N, t_exp=record.t_exp)

    def _match_ids(self, tags: list[bytes]) -> list[str]:
        return self.index.match(tags)

    def search(self, S: str, tags: list[bytes], now: int) -> SearchResponse:
        """Match, bind, and attest in one step.  Empty matches leave the
        session unbound and searchable until it expires."""
        record = self.sessions.validate(S, now)
        ids = self._match_ids(tags)
        if not ids:
            return SearchResponse(candidates=(), receipt=None, mode=self.mode)
        record = self.sessions.bind_results(S, ids, self.mode, now)
        root = record.root if record.root is not None else ZERO_ROOT
        rcpt = sign_receipt(
            self.signing_key, S, record.N, record.t_exp, root, self.mode, record.pv, record.epoch
        )
        candidates = tuple(
            CandidateMeta(
                id=i,
                lat=self.drops[i].lat,
                lon=self.drops[i].lon,
                radius_m=self.unlock_radius_m,
                pv=record.pv,
                epoch=record.epoch,
            )
            for i in ids
        )
        return SearchResponse(candidates=candidates, receipt=rcpt, mode=self.mode)

    def _expected_digest(self, record, drop_id: str) -> FieldElement:
        if record.mode == MODE_CORE:
            return cd_core(drop_id, record.pv, record.epoch, record.N)
        root = record.root if record.root is not None else ZERO_ROOT
        return cd_full(drop_id, record.pv, record.epoch, record.N, root)

    def _statement_ok(self, request: UnlockRequest) -> bool:
        drop = self.drops.get(request.drop_id)
        if drop is None:
            return False
        try:
            expected = nizk.make_public_inputs(
                drop.lat, drop.lon, self.unlock_radius_m, request.pub[7]
            )
        except nizk.NizkError:
            return False
        return expected.elements[:7] == request.pub.elements[:7]

    def verify(self, request: UnlockRequest, now: int) -> VerifyOutcome:
        # 1. session
        try:
            record = self.sessions.validate(request.S, now)
        except UnknownSessionError:
            return VerifyOutcome(False, R_SESSION_INVALID)
        except ExpiredSessionError:
            return VerifyOutcome(False, R_EXPIRED)
        except ConsumedSessionError:
            return VerifyOutcome(False, R_CONSUMED)
        if not record.bound:
            return VerifyOutcome(False, R_SESSION_INVALID)
        # 2. challenge digest binds the proof to this session's context
        if request.pub[7] != self._expected_digest(record, request.drop_id):
            return VerifyOutcome(False, R_NONCE_DIGEST)
        # 3. result-set membership
        if record.mode == MODE_CORE:
            assert record.result_set is not None
            if request.drop_id not in record.result_set:
                return VerifyOutcome(False, R_NOT_IN_RESULT_SET)
        else:
            if request.merkle_path is None or record.root is None:
                return VerifyOutcome(False, R_MERKLE_INVALID)
            if not verify_membership(record.root, request.drop_id, request.merkle_path):
                return VerifyOutcome(False, R_MERKLE_INVALID)
        # 4. statement consistency and the proximity proof itself
        if not self._statement_ok(request):
            return VerifyOutcome(False, R_PROOF_INVALID)
        if not nizk.verify(self.nizk_vk, request.pub, request.proof):
            return VerifyOutcome(False, R_PROOF_INVALID)
        # 5. exactly-once consumption; the grant is the consume
        if not self.sessions.consume(request.S, now):
            return VerifyOutcome(False, R_CONSUMED)
        return VerifyOutcome(True)


@dataclass
class ClientSession:
    """Client-side view of one session's artifacts."""

    S: str
    N: bytes
    t_exp: int
    mode: str
    candidates: tuple[CandidateMeta, ...] = ()
    receipt: Receipt | None = None

    def candidate(self, drop_id: str) -> CandidateMeta:
        for c in self.candidates:
            if c.id == drop_id:
                return c
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
        return ClientSession(S=issued.S, N=issued.N, t_exp=issued.t_exp, mode=server.mode)

    def search(
        self, server: SbppServer, ses: ClientSession, lat: float, lon: float, radius_m: float, now: int
    ) -> ClientSession:
        _, tags = client_tokens(self.search_key, lat, lon, radius_m)
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
        path: MerklePath | None = None
        if ses.mode == MODE_CORE:
            cd = cd_core(drop_id, target.pv, target.epoch, ses.N)
        else:
            tree = build_tree(ses.result_ids())
            cd = cd_full(drop_id, target.pv, target.epoch, ses.N, tree.root)
            path = tree.prove_membership(drop_id)
        pub = nizk.make_public_inputs(target.lat, target.lon, target.radius_m, cd)
        proof = nizk.prove(self.proving_key, witness, pub)
        return UnlockRequest(S=ses.S, drop_id=drop_id, pub=pub, proof=proof, merkle_path=path)


# ---------------------------------------------------------------------------
# audit records


_EMPTY_PATH = MerklePath(())


@dataclass(frozen=True)
class AuditRecord:
    receipt: Receipt
    drop_id: str
    path: MerklePath
    pub: nizk.PublicInputs
    proof: nizk.Proof

    def serialize(self) -> bytes:
        return lp_encode(
            [
                self.receipt.serialize(),
                self.drop_id,
                self.path.serialize(),
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
                path=MerklePath.parse(fields[2]),
                pub=nizk.PublicInputs.from_bytes(fields[3]),
                proof=nizk.Proof.parse(fields[4]),
            )
        except (ReceiptError, MerkleError, nizk.NizkError, EncodingError, UnicodeDecodeError) as exc:
            raise AuditRecordError(f"malformed record field: {exc}") from exc


def emit_audit_record(ses: ClientSession, request: UnlockRequest) -> AuditRecord:
    """Persist everything a third party needs to re-check this unlock."""
    if ses.receipt is None:
        raise ProtocolError("session has no receipt to audit against")
    return AuditRecord(
        receipt=ses.receipt,
        drop_id=request.drop_id,
        path=request.merkle_path if request.merkle_path is not None else _EMPTY_PATH,
        pub=request.pub,
        proof=request.proof,
    )


def audit(server_public_key: bytes, nizk_vk: bytes, record: AuditRecord) -> AuditOutcome:
    """Replay the protocol's bindings offline, with zero session state.

    Order: receipt signature, digest recomputation from the receipt's own
    fields, result-set membership against the receipt's root, then the
    proof.  Core-mode receipts carry a zero root, so core records always
    stop at the membership step: they attest the session, not the set.
    """
    rcpt = record.receipt
    if not verify_receipt(server_public_key, rcpt):
        return AuditOutcome(False, R_RECEIPT_SIG)
    if rcpt.mode == MODE_CORE:
        expected = cd_core(record.drop_id, rcpt.pv, rcpt.epoch, rcpt.N)
    else:
        expected = cd_full(record.drop_id, rcpt.pv, rcpt.epoch, rcpt.N, rcpt.root)
    if record.pub[7] != expected:
        return AuditOutcome(False, R_NONCE_DIGEST)
    if not verify_membership(rcpt.root, record.drop_id, record.path):
        return AuditOutcome(False, R_MERKLE_INVALID)
    if not nizk.verify(nizk_vk, record.pub, record.proof):
        return AuditOutcome(False, R_PROOF_INVALID)
    return AuditOutcome(True)
