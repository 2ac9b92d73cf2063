"""The search-bound unlock protocol (core and full modes).

Flow: the server issues a session and states its whole context (id, 256-bit
nonce, expiry, mode, policy version, epoch, unlock radius and the index's
precisions), so the session, not each drop, carries the policy; the client
searches with encrypted cell tokens; the server binds the session to the
hit cells and answers with them, in tag order, and a signed receipt.  The
hit cells are the result set, so the server makes no union, looks up no id
and lists no drop: the client lists the candidates itself, the cells' drops
cell after cell and in id order inside each cell (sbpp.geoindex.drops_of).
A list in id order is built only where a caller wants one
(`ClientSession.result_ids`).  In core mode the session keeps the hit cells
themselves.  In full mode it keeps the two-level Merkle root of
sbpp.merkle: the top tree over the hit cells' roots, in tag order, built
from roots the index keeps per cell before the session lock is taken.

The server enforces the query's shape: `SbppServer.search` takes exactly
COVER_BUDGET distinct 32-byte tags, the list `client_tokens` sends, and
refuses any other with ProtocolError before it looks the session up.  So a
search binds at most COVER_BUDGET cells, a core record keeps at most that
many references and a full bind hashes at most that many cell roots, for
any client, not only an honest one.  The ladder's rungs derive their own
tags and call `bind` or `_hits` directly.

The client proves proximity to one returned drop, committing a challenge
digest over (drop, policy, epoch, nonce[, root]) inside the proof's public
inputs; the server re-derives the digest from its own session state and
accepts at most once per session.  In full mode the client first rebuilds
the subtree of the target's own cell from its ids and the top tree from the
other cells' roots as the server gave them, and refuses to prove if that
root differs from the receipt's.  So it catches a receipt that disagrees
with the cells shown, or a misstated own cell, but takes the other cells'
roots on trust: a server that commits another cell differently and
consistently goes unnoticed, though the audit of the client's own unlock,
whose path runs through the cell it rebuilt, is unaffected.  The client
takes its own cell's tree from a `TreeMemo` (sbpp.merkle), so a repeat
unlock in a cell it has checked rebuilds no cell; server binding, the
ladder's V8 rung and its adversary adapters keep rebuilding.

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
since it needs the server's drop table.  Each stage is written once.
`audit` is a one-shot auditor and checks every receipt afresh.  An auditor
that one caller keeps across many records is an `AuditKeys` holding a
memo from `receipt.signature_memo()` (sbpp.receipt's verify-once rule),
so records that share a receipt pay one Ed25519 check for it; every
verdict is the one `audit` gives.  A record frames its receipt as
`Receipt.serialize` writes it: sbpp.receipt alone knows a signed frame.

No stage raises on a claimed field: the stage that reads a field answers a
value it cannot use with its own reason.  Text no hash can take
(`canon.encodable`) and evidence that is not `bytes` are answered so, and a
structured field is tested for its type, not for None: `pub` must be a
`nizk.PublicInputs`, `proof` a `nizk.Proof`, `merkle_path` a
`merkle.MerklePath` and a record's `receipt` a `receipt.Receipt`.  An
instance of the right type is trusted to hold what its parse checks; one
built by hand with wrong contents is out of scope.

One deployment is a `VariantEnv`: the drops, every key, the server's
context and its nonce RNG.  `seeded_env` derives every key and the nonce
RNG from one seed (`derive_key`), over the drops its caller gives, with the
TTL and unlock radius left at their defaults, and `protocol_pair` serves a
deployment as a server and client.  The CLI's demo and audit commands, the
studies and the ladder all build their deployments so, and this module
imports no part of the ladder or of sbpp.harness.

The comparison ladder in sbpp.variants runs this server and client: every
rung takes its drop table, index, sessions and hit cells from an
`SbppServer` (`bind`, or `_hits` alone for the rungs with no session), and
its V4a/V4b rows search, unlock, verify and audit through the pair and
these same stage objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import hashlib
from operator import attrgetter
import random
from typing import Any, Callable, NamedTuple

from . import nizk
from .canon import (
    EncodingError, FieldElement, as_bytes, assemble, cd_core, cd_full, encodable, lp_decode, lp_head,
)
from .geoindex import (
    COVER_BUDGET, DEFAULT_PRECISIONS, Drop, GeoIndex, build_index, client_tokens, drops_of, hmac_tagger,
)
from .merkle import (
    EMPTY_PATH, Cell, MerklePath, MerkleError, TreeMemo, build_tree, locate, verify_membership,
)
from .receipt import (
    Receipt, ReceiptError, SignatureMemo, SigningKey, server_keygen, sign_receipt, verify_receipt,
)
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
class SearchResponse:
    cells: tuple[Cell, ...]  # the hit cells in tag order
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


ACCEPTED = VerifyOutcome(True)  # frozen, so every accepting run returns this one


class SbppServer:
    """Server half: index, session table, receipt signer, proof verifier."""

    _tagger = staticmethod(hmac_tagger)  # the index's tagger (the ladder's V1 server overrides it)

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
        try:  # a radius no statement can hold would fail every unlock
            nizk.radius_value(unlock_radius_m)
        except nizk.NizkError as exc:
            raise ProtocolError(f"unlock radius: {exc}") from exc
        self.mode = mode
        self.drops = {d.id: d for d in drops}
        if len(self.drops) != len(drops):
            raise ProtocolError("duplicate drop ids in corpus")
        if precisions is None:  # an empty list is the index's to refuse, not a default
            precisions = list(DEFAULT_PRECISIONS)
        self.index: GeoIndex = build_index(search_key, drops, precisions, tagger=self._tagger)
        self.signing_key = signing_key
        self.nizk_vk = nizk_vk
        self.unlock_radius_m = unlock_radius_m
        self.sessions = SessionStore(ttl_s=ttl_s, pv=pv, epoch=epoch, nonce_rng=nonce_rng)

    @property
    def public_key_bytes(self) -> bytes:
        return self.signing_key.public_bytes

    def init_session(self, now: int) -> ClientSession:
        """Issue a session; the client's view states its whole context."""
        record = self.sessions.issue(now, mode=self.mode)
        return ClientSession(
            record.S, record.N, record.t_exp, record.mode, record.pv, record.epoch,
            self.unlock_radius_m, tuple(self.index.precisions),
        )

    def _hits(self, tags: list[bytes]) -> list[Cell]:
        """The index cells under the tags, in tag order: every search's and
        every ladder rung's (the adversarial servers of
        sbpp.harness.experiments change them here)."""
        return self.index.cells(tags)

    def bind(self, S: str, tags: list[bytes], now: int) -> tuple[list[Cell], SessionRecord | None]:
        """The hit cells and the session bound to them.  Empty matches bind
        nothing (None) and leave the session searchable until it expires."""
        self.sessions.validate(S, now)
        cells = self._hits(tags)
        if not cells:
            return cells, None
        return cells, self.sessions.bind_results(S, cells, self.mode, now)

    def search(self, S: str, tags: list[bytes], now: int) -> SearchResponse:
        """Bind, then attest: the hit cells and the receipt over the bound
        session are the whole answer.  A query is exactly COVER_BUDGET
        distinct 32-byte tags, as `client_tokens` sends; any other list is a
        ProtocolError, raised before the session is looked up (the check
        reads only the tags and takes no lock), so it binds nothing."""
        if not (len(tags) == COVER_BUDGET and all(type(t) is bytes and len(t) == 32 for t in tags)
                and len(set(tags)) == COVER_BUDGET):  # set() last: every tag is hashable by then
            raise ProtocolError(f"a query is {COVER_BUDGET} distinct 32-byte tags")
        cells, s = self.bind(S, tags, now)
        if s is None:
            return SearchResponse(cells=(), receipt=None)
        receipt = sign_receipt(self.signing_key, s.S, s.N, s.t_exp, s.root, s.mode, s.pv, s.epoch)
        return SearchResponse(tuple(cells), receipt)

    def verify(self, request: UnlockRequest, now: int) -> VerifyOutcome:
        return run_stages(VERIFY_STAGES, self, Attempt(request, now))


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
_value = attrgetter("value")


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


def run_stages(stages: tuple[Stage, ...], subject: Any, attempt: Attempt) -> VerifyOutcome:
    """Run the stages in order; the first reason stops the run and rejects."""
    for stage in stages:
        reason = stage(subject, attempt)
        if reason is not None:
            return VerifyOutcome(False, reason)
    return ACCEPTED


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
    """Offline only: the receipt is the server's, so its fields are the
    context.  The signature is checked through the keys' memo, if they
    hold one (sbpp.receipt's verify-once rule)."""
    receipt = attempt.record
    if not isinstance(receipt, Receipt) or not verify_receipt(keys.public_key_bytes, receipt, keys.verified):
        return R_RECEIPT_SIG
    return None


def check_digest(verifier: Any, attempt: Attempt) -> str | None:
    """The challenge digest binds the proof to this session's context.  This
    is the first stage to read the id, so it answers for an id no digest
    can take (`canon.encodable`: not a `str`, or a lone surrogate) with a
    mismatch, as for any other id the proof was not made for."""
    record, claim = attempt.record, attempt.claim
    if not isinstance(claim.pub, nizk.PublicInputs) or not encodable(claim.drop_id):
        return R_NONCE_DIGEST
    expected = challenge_digest(record.mode, claim.drop_id, record.pv, record.epoch, record.N, record.root)
    return None if claim.pub[7] == expected else R_NONCE_DIGEST


def check_membership(verifier: Any, attempt: Attempt) -> str | None:
    """The bound cells where the context holds them (a core session), else a
    Merkle path to the bound root.  A receipt holds no cells, and a core
    receipt's zero root admits no path, so core audit records stop here.
    An id no hash can take (`canon.encodable`) is in no cells and on no path."""
    record, claim = attempt.record, attempt.claim
    if isinstance(record, SessionRecord) and record.result_set is not None:
        member = encodable(claim.drop_id) and locate(record.result_set, claim.drop_id) is not None
        return None if member else R_NOT_IN_RESULT_SET
    path = claim.merkle_path
    if not isinstance(path, MerklePath) or not verify_membership(record.root, claim.drop_id, path):
        return R_MERKLE_INVALID
    return None


def check_statement(verifier: Any, attempt: Attempt) -> str | None:
    """Online only: the public inputs state the named drop's position.  The
    seven statement values (`nizk.statement_values` of the drop and the
    radius, then four zeros) are compared with the public inputs' own, as
    integers; a drop no statement can hold fails here too."""
    claim = attempt.claim
    drop = verifier.drops.get(claim.drop_id)
    if drop is None or not isinstance(claim.pub, nizk.PublicInputs):
        return R_PROOF_INVALID
    try:
        lat, lon, radius = nizk.statement_values(drop.lat, drop.lon, verifier.unlock_radius_m)
    except nizk.NizkError:
        return R_PROOF_INVALID
    stated = tuple(map(_value, claim.pub.elements[:7]))
    return None if stated == (lat, lon, radius, 0, 0, 0, 0) else R_PROOF_INVALID


def check_proof(verifier: Any, attempt: Attempt) -> str | None:
    """The proximity proof holds for the public inputs."""
    pub, proof = attempt.claim.pub, attempt.claim.proof
    if (not isinstance(pub, nizk.PublicInputs) or not isinstance(proof, nizk.Proof)
            or not nizk.verify(verifier.nizk_vk, pub, proof)):
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
    candidates: tuple[Drop, ...] = ()  # the cells' drops, cell after cell
    cells: tuple[Cell, ...] = ()  # the hit cells as the server listed them
    receipt: Receipt | None = None

    def candidate(self, drop_id: str) -> Drop:
        """The listed drop, found through its cell: the first listed cell
        whose sorted ids hold it, at the same position in its drops."""
        found = locate(self.cells, drop_id)
        if found is not None:
            drops = self.cells[found[0]].drops
            if found[1] < len(drops) and drops[found[1]].id == drop_id:
                return drops[found[1]]
        raise ProtocolError(f"{drop_id!r} is not in this session's result list")

    def result_ids(self) -> list[str]:
        """The listed ids in id order, sorted here: the candidates come
        cell after cell."""
        return sorted(map(attrgetter("id"), self.candidates))


class SbppClient:
    """Client half: token derivation, root recomputation and check, proving.
    ``trees`` keeps the own-cell trees it has rebuilt, by their ids."""

    def __init__(self, search_key: bytes, proving_key: bytes):
        self.search_key = search_key
        self.proving_key = proving_key
        self.trees = TreeMemo()

    def open_session(self, server: SbppServer, now: int) -> ClientSession:
        return server.init_session(now)

    def search(
        self, server: SbppServer, ses: ClientSession, lat: float, lon: float, radius_m: float, now: int
    ) -> ClientSession:
        """Send the query's tags and keep the answer: the hit cells, the
        receipt, and the candidates listed from the cells."""
        _, tags = client_tokens(self.search_key, lat, lon, radius_m, ses.precisions)
        response = server.search(ses.S, tags, now)
        ses.candidates = drops_of(response.cells)
        ses.cells = response.cells
        ses.receipt = response.receipt
        return ses

    def build_unlock(
        self, ses: ClientSession, drop_id: str, witness: nizk.Witness
    ) -> UnlockRequest:
        """The request for a listed drop, its own id as the path's leaf."""
        return self.request(ses, ses.candidate(drop_id), witness, drop_id)

    def request(
        self, ses: ClientSession, drop: Drop, witness: nizk.Witness, leaf: str | None
    ) -> UnlockRequest:
        """Steps the client runs before submitting: in full mode rebuild the
        root through the cell of ``leaf`` (its tree taken from ``trees``
        when built before) and refuse unless it is the receipt's, then
        derive the digest for ``drop`` and prove."""
        root = path = None
        if ses.mode == MODE_FULL:
            try:
                root, path = build_tree(ses.cells, leaf, self.trees)
            except MerkleError as exc:
                raise ProtocolError(f"the listed cells do not commit to {leaf!r}") from exc
            if ses.receipt is None or root != ses.receipt.root:
                raise ProtocolError("recomputed root differs from the receipt's")
        cd = challenge_digest(ses.mode, drop.id, ses.pv, ses.epoch, ses.N, root)
        pub = nizk.make_public_inputs(drop.lat, drop.lon, ses.radius_m, cd)
        proof = nizk.prove(self.proving_key, witness, pub)
        return UnlockRequest(S=ses.S, drop_id=drop.id, pub=pub, proof=proof, merkle_path=path)


# ---------------------------------------------------------------------------
# one deployment


@dataclass(frozen=True)
class VariantEnv:
    """One deployment's material: the drops, every key, the server's context
    and its nonce RNG.  `protocol_pair` serves it, and every rung of
    sbpp.variants runs on one (``mac_key`` is V7's)."""

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


def protocol_pair(
    env: VariantEnv, mode: str, server_cls: type[SbppServer] = SbppServer
) -> tuple[SbppServer, SbppClient]:
    """The protocol's server and client over one environment.  The server
    draws its nonces from ``env.nonce_rng``, so give each server its own."""
    server = server_cls(
        drops=env.drops,
        search_key=env.search_key,
        signing_key=env.signing_key,
        nizk_vk=env.verifying_key,
        mode=mode,
        precisions=list(env.precisions),
        ttl_s=env.ttl_s,
        pv=env.pv,
        epoch=env.epoch,
        unlock_radius_m=env.unlock_radius_m,
        nonce_rng=env.nonce_rng,
    )
    return server, SbppClient(env.search_key, env.proving_key)


def derive_key(label: str, seed: int, n: int = 32) -> bytes:
    return hashlib.sha256(f"{label}:{seed}".encode()).digest()[:n]


def seeded_env(seed: int, drops: list[Drop], **fields) -> VariantEnv:
    """The one seeded deployment over ``drops``: every key and a fresh nonce
    RNG derive from ``seed``, and the rest is the env's defaults.
    ``fields`` override the env's plain fields (search key, precisions,
    ttl, pv, epoch, radius)."""
    proving_key, verifying_key = nizk.setup(derive_key("nizk", seed))
    env = VariantEnv(
        drops=drops,
        search_key=derive_key("search", seed),
        signing_key=server_keygen(derive_key("sign", seed)),
        proving_key=proving_key,
        verifying_key=verifying_key,
        mac_key=derive_key("mac", seed),
        nonce_rng=random.Random(seed),
    )
    return replace(env, **fields) if fields else env


# ---------------------------------------------------------------------------
# audit records


@dataclass(frozen=True)
class AuditRecord:
    """What a third party re-checks an unlock from.  Its frame is built from
    the bytes its receipt and public inputs carry (the signed body, the
    256-byte form), and a parse hands each part the bytes it was read from,
    so the audit checks the signature and proof over those same bytes.

    A parse walks the record's frame once (an input that is not `bytes` is
    copied once, there) and calls each part's own parse, a static method,
    once on its field: that call is the one place the part is checked, and
    it builds the part once.  So the parse and `emit_audit_record` assemble
    the record without `__init__`."""

    receipt: Receipt
    drop_id: str
    merkle_path: MerklePath
    pub: nizk.PublicInputs
    proof: nizk.Proof

    def serialize(self) -> bytes:
        """lp_encode of the five parts' frames, joined once from their pieces."""
        receipt, proof = self.receipt.serialize(), self.proof
        drop = as_bytes(self.drop_id)
        path = self.merkle_path.serialize()
        pub = self.pub.to_bytes()
        head = proof.head()
        return b"".join(
            (
                lp_head(len(receipt)), receipt,
                lp_head(len(drop)), drop,
                lp_head(len(path)), path,
                lp_head(len(pub)), pub,
                lp_head(len(head) + len(proof.body)), head, proof.body,
            )
        )

    @classmethod
    def parse(cls, raw: bytes) -> "AuditRecord":
        try:
            fields = lp_decode(raw)
        except EncodingError as exc:
            raise AuditRecordError(f"malformed record frame: {exc}") from exc
        if len(fields) != 5:
            raise AuditRecordError("audit record must have 5 fields")
        receipt, drop_id, path, pub, proof = fields
        try:  # each part's parse checks all of it
            return assemble(
                cls,
                {
                    "receipt": Receipt.parse(receipt),
                    "drop_id": drop_id.decode("utf-8"),
                    "merkle_path": MerklePath.parse(path),
                    "pub": nizk.PublicInputs.from_bytes(pub),
                    "proof": nizk.Proof.parse(proof),
                },
            )
        except (ReceiptError, MerkleError, nizk.NizkError, UnicodeDecodeError) as exc:
            raise AuditRecordError(f"malformed record field: {exc}") from exc


def emit_audit_record(ses: ClientSession, request: UnlockRequest) -> AuditRecord:
    """Persist everything a third party needs to re-check this unlock."""
    if ses.receipt is None:
        raise ProtocolError("session has no receipt to audit against")
    return assemble(  # from the parts the client built and checked
        AuditRecord,
        {
            "receipt": ses.receipt,
            "drop_id": request.drop_id,
            "merkle_path": request.merkle_path if request.merkle_path is not None else EMPTY_PATH,
            "pub": request.pub,
            "proof": request.proof,
        },
    )


class AuditKeys(NamedTuple):
    """The keys an audit checks a record under.  An auditor that one caller
    keeps across many records also holds ``verified``, a memo of the
    signatures that verified under them (`receipt.signature_memo()`), so
    each distinct receipt costs one Ed25519 check; `audit` builds keys
    with none."""

    public_key_bytes: bytes
    nizk_vk: bytes
    verified: SignatureMemo | None = None

    def audit(self, record: AuditRecord) -> VerifyOutcome:
        """AUDIT_STAGES in order (receipt signature, digest, membership,
        proof), with the record's receipt as the session context."""
        return run_stages(AUDIT_STAGES, self, Attempt(record, None, record.receipt))


def audit(server_public_key: bytes, nizk_vk: bytes, record: AuditRecord) -> VerifyOutcome:
    """Replay the protocol's bindings offline, with zero session state.  A
    one-shot auditor: it keeps no memo, so nothing it learns outlives the
    call."""
    return AuditKeys(server_public_key, nizk_vk).audit(record)
