"""Signed session receipts.

A receipt is the server's transferable statement "session S with nonce N,
expiring at t_exp, was bound to this result-set root under policy (pv, e)".
It is what an auditor later anchors on when server-side session state is
long gone, so everything the audit needs to recompute the challenge digest
is inside the signed body.  Core-mode receipts carry an all-zero root: they
attest the session but deliberately cannot attest result-set membership.

Signatures are Ed25519 (deterministic, so identical bindings re-sign to
identical bytes).  Key generation is derived from a caller seed to keep
experiment runs reproducible.  `verify_signature` is the package's one
Ed25519 check; no other module imports `cryptography`.  It answers every
call: a malformed key or signature, or a key, signature or body no check
can take (not bytes-like, or a key that is not `bytes`), is False.

One frame for every server-signed statement.  This module is the only one
that seals or splits one: an `lp_encode` body, then the Ed25519 signature
over those bytes as one more length-prefixed field.  A receipt is one
(`Receipt.serialize`, `Receipt.parse`); the ladder's capabilities, permits
and tokens (sbpp.variants) are the others, sealed by `sign_fields` and
read back by `signed_fields`, which checks the bytes before the
signature's frame as they stand (sbpp.canon's encode once) and answers
None for any blob that is not `bytes`.  So `signed_fields` over a
serialized receipt gives the fields of its body.

Verify a signature once per verifier.  A verifier that outlives one check
holds a memo made by `signature_memo()` and passes it to
`verify_signature` (or `verify_receipt`): each ladder rung (sbpp.variants)
for its receipt, capability, permit and token checks, and an auditor that
one caller keeps across many records (`protocol.AuditKeys` with a memo).
The memo is `functools.lru_cache` around an Ed25519 check that raises on
failure, and a call that raises is never cached: so it keeps only (key,
signature, body) triples that verified, a forged signature never takes a
slot, and a triple found there passes without calling Ed25519 again.  It
is consulted only when all three are `bytes`, so a `bytearray` or
`memoryview` that could change later always gets the fresh check.  It
holds at most VERIFIED_MAX triples, dropping the least recently used
first, and the cache is safe to share between threads.  No memo is
process-wide: `protocol.audit` keeps none, as a one-shot auditor, so
nothing it learns outlives the call, and a replay of the same records
checks them again.

A body is framed after a head fixed at import, `lp_encode([DOMAIN_RECEIPT])`,
in one join, as sbpp.canon frames a challenge digest (its fixed-heads rule);
`receipt_body` falls back to `lp_encode`, its definition, for any field of
another type.

A receipt's body is encoded once (sbpp.canon's carried-bytes rule).  A
`Receipt` keeps the body `sign_receipt` signed, or the one `Receipt.parse`
read, and `body_bytes`, `serialize` and `verify_receipt` reuse it; a receipt
built any other way encodes its body on first use and keeps it.  The parse
accepts only the canonical body (domain tag, 32-byte nonce and root, UTF-8
text, the expiry as `str(int)` writes it), so the bytes it keeps are the
ones `receipt_body` gives for the parsed fields.  The body is a non-init
field that equality ignores, so `dataclasses.replace` makes a receipt with
no body, and a changed field is never checked against the old body.  Once
every field is checked, the parse assembles the receipt in one step, as
`sign_receipt` does from the fields it signed (sbpp.canon's construction
rule).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canon import _HASH_HEAD, _MAX_FIELD, EncodingError, _pack_len, assemble, lp_decode, lp_encode, lp_head

DOMAIN_RECEIPT = "SBPP-RECEIPT"
DOMAIN_KEYGEN = "SBPP-SRVKEY"

_FRAME_FIELDS = 9  # domain, S, N, t_exp, root, mode, pv, epoch, then the signature
_DOMAIN = DOMAIN_RECEIPT.encode("ascii")
_BODY_HEAD = lp_encode([DOMAIN_RECEIPT])  # every body's first field
VERIFIED_MAX = 1024  # triples one verifier's memo keeps


class ReceiptError(ValueError):
    pass


def _seal(body: bytes, sig: bytes) -> bytes:
    """A signed frame: the body, then the length-prefixed signature."""
    return b"".join((body, lp_head(len(sig)), sig))


def _split(frame: bytes) -> tuple[list[bytes], bytes]:
    """(fields, body) of a signed frame: all its fields, the signature last,
    and the frame's own bytes before the signature's field (empty for a
    frame of no fields).  A frame that is not `bytes` is copied once, and
    every part is a slice of the copy.  Raises EncodingError for bytes that
    are no `lp_encode` frame."""
    if type(frame) is not bytes:
        frame = bytes(memoryview(frame))
    fields = lp_decode(frame)
    return fields, frame[: len(frame) - 4 - len(fields[-1])] if fields else b""


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 key pair, parsed once: parsing costs about half a signature."""

    private_bytes: bytes
    public_bytes: bytes = field(init=False)
    _signer: Ed25519PrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        signer = Ed25519PrivateKey.from_private_bytes(self.private_bytes)
        object.__setattr__(self, "_signer", signer)
        object.__setattr__(self, "public_bytes", signer.public_key().public_bytes_raw())

    def signer(self) -> Ed25519PrivateKey:
        return self._signer


def server_keygen(seed: bytes) -> SigningKey:
    """Deterministic Ed25519 key pair from a seed."""
    return SigningKey(hashlib.sha256(lp_encode([DOMAIN_KEYGEN, seed])).digest())


@dataclass(frozen=True)
class Receipt:
    S: str
    N: bytes
    t_exp: int
    root: bytes
    mode: str
    pv: str
    epoch: str
    sig: bytes
    # the signed body, set only by sign_receipt, parse and body_bytes (module docstring)
    _body: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def body_bytes(self) -> bytes:
        """The canonical body: the carried one, else encoded now and kept."""
        body = self._body
        if body is None:
            body = receipt_body(self.S, self.N, self.t_exp, self.root, self.mode, self.pv, self.epoch)
            object.__setattr__(self, "_body", body)
        return body

    def serialize(self) -> bytes:
        """Canonical body followed by the length-prefixed signature."""
        return _seal(self.body_bytes(), self.sig)

    @staticmethod
    def parse(raw: bytes) -> "Receipt":
        """The receipt a `serialize` frame holds.  An input that is not
        `bytes` is copied once; the frame is walked once, every field is
        checked once, then the value is assembled with the body it was read
        from, a slice of the same bytes."""
        try:
            fields, body = _split(raw)
        except EncodingError as exc:
            raise ReceiptError(f"malformed receipt frame: {exc}") from exc
        if len(fields) != _FRAME_FIELDS:
            raise ReceiptError("receipt frame has wrong field count")
        domain, S, N, t_exp_raw, root, mode, pv, epoch, sig = fields
        if domain != _DOMAIN:
            raise ReceiptError("receipt domain tag mismatch")
        if len(N) != 32 or len(root) != 32:
            raise ReceiptError("receipt nonce/root must be 32 bytes")
        try:
            t_exp = int(t_exp_raw)  # int() of bytes reads ASCII only
        except ValueError as exc:
            raise ReceiptError("receipt expiry is not a decimal string") from exc
        if str(t_exp).encode("ascii") != t_exp_raw:
            # int() also takes "+10", "010", "1_0" and " 10"; only the form
            # receipt_body writes re-serializes to the signed bytes.
            raise ReceiptError("receipt expiry is not in canonical form")
        try:
            S, mode, pv, epoch = S.decode(), mode.decode(), pv.decode(), epoch.decode()
        except UnicodeDecodeError as exc:
            raise ReceiptError("receipt text field is not UTF-8") from exc
        # every field re-encodes to the bytes it was read from, so the frame
        # before the signature is receipt_body of the parsed fields
        return assemble(
            Receipt,
            {"S": S, "N": N, "t_exp": t_exp, "root": root, "mode": mode, "pv": pv, "epoch": epoch, "sig": sig,
             "_body": body},
        )


def receipt_body(S: str, N: bytes, t_exp: int, root: bytes, mode: str, pv: str, epoch: str) -> bytes:
    """``lp_encode([DOMAIN_RECEIPT, S, N, str(t_exp), root, mode, pv, epoch])``.
    Four `str` fields and `bytes` nonce and root are framed after the fixed
    head in one join; any other field type goes through `lp_encode`, so the
    bytes and the refusals are the definition's (a lone surrogate's
    UnicodeEncodeError included)."""
    if len(N) != 32:
        raise ReceiptError("nonce must be 32 bytes")
    if len(root) != 32:
        raise ReceiptError("root must be 32 bytes")
    expiry = str(t_exp)
    if type(S) is type(expiry) is type(mode) is type(pv) is type(epoch) is str and type(N) is type(root) is bytes:
        s, t, m, p, e = S.encode(), expiry.encode(), mode.encode(), pv.encode(), epoch.encode()
        if len(s) + len(t) + len(m) + len(p) + len(e) <= _MAX_FIELD:
            return b"".join((
                _BODY_HEAD, _pack_len(len(s)), s, _HASH_HEAD, N, _pack_len(len(t)), t, _HASH_HEAD, root,
                _pack_len(len(m)), m, _pack_len(len(p)), p, _pack_len(len(e)), e,
            ))
    return lp_encode([DOMAIN_RECEIPT, S, N, expiry, root, mode, pv, epoch])


def sign_receipt(
    key: SigningKey, S: str, N: bytes, t_exp: int, root: bytes, mode: str, pv: str, epoch: str
) -> Receipt:
    body = receipt_body(S, N, t_exp, root, mode, pv, epoch)
    sig = key.signer().sign(body)
    return assemble(
        Receipt,
        {"S": S, "N": N, "t_exp": t_exp, "root": root, "mode": mode, "pv": pv, "epoch": epoch, "sig": sig,
         "_body": body},
    )


SignatureMemo = Callable[[bytes, bytes, bytes], None]  # what `signature_memo` returns


def _ed25519_check(public_bytes: bytes, sig: bytes, body: bytes) -> None:
    """Returns iff ``sig`` signs ``body`` under ``public_bytes``; raises otherwise."""
    Ed25519PublicKey.from_public_bytes(public_bytes).verify(sig, body)


def signature_memo() -> SignatureMemo:
    """A new verifier's memo: the Ed25519 check behind an LRU cache of at
    most VERIFIED_MAX triples (the module docstring's verify-once rule)."""
    return lru_cache(maxsize=VERIFIED_MAX)(_ed25519_check)


def verify_signature(
    public_bytes: bytes, sig: bytes, body: bytes, verified: SignatureMemo | None = None
) -> bool:
    """True iff ``sig`` signs ``body`` under ``public_bytes``; anything else
    is False, a malformed key or signature and a value no check can take
    included.  Receipts and the ladder's signed blobs use it.  A triple of
    `bytes` is checked through ``verified``, if given."""
    check = _ed25519_check
    if verified is not None and type(public_bytes) is type(sig) is type(body) is bytes:
        check = verified
    try:
        check(public_bytes, sig, body)
    except (InvalidSignature, ValueError, TypeError):
        return False
    return True


def verify_receipt(public_bytes: bytes, receipt: Receipt, verified: SignatureMemo | None = None) -> bool:
    """True iff the signature covers this receipt's canonical body."""
    return verify_signature(public_bytes, receipt.sig, receipt.body_bytes(), verified)


def sign_fields(key: SigningKey, fields: list[bytes | str]) -> bytes:
    """The signed frame of ``lp_encode(fields)``: the ladder's capabilities,
    permits and tokens."""
    body = lp_encode(fields)
    return _seal(body, key.signer().sign(body))


def signed_fields(
    public_bytes: bytes, blob: bytes, domain: str, verified: SignatureMemo | None = None
) -> list[bytes] | None:
    """The fields of a signed frame, its signature dropped, if ``blob`` is
    `bytes`, its first field is ``domain`` and its own bytes before the
    signature are signed under ``public_bytes`` (checked through
    ``verified``, if given); else None."""
    if not isinstance(blob, bytes):
        return None
    try:
        fields, body = _split(blob)
    except EncodingError:
        return None
    if len(fields) < 2 or fields[0] != domain.encode("utf-8"):  # a domain and a signature at least
        return None
    sig = fields.pop()
    return fields if verify_signature(public_bytes, sig, body, verified) else None
