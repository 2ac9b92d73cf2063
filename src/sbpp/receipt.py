"""Signed session receipts.

A receipt is the server's transferable statement "session S with nonce N,
expiring at t_exp, was bound to this result-set root under policy (pv, e)".
It is what an auditor later anchors on when server-side session state is
long gone, so everything the audit needs to recompute the challenge digest
is inside the signed body.  Core-mode receipts carry an all-zero root: they
attest the session but deliberately cannot attest result-set membership.

Signatures are Ed25519 (deterministic, so identical bindings re-sign to
identical bytes).  Key generation is derived from a caller seed to keep
experiment runs reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .canon import lp_encode, lp_decode, EncodingError

DOMAIN_RECEIPT = "SBPP-RECEIPT"
DOMAIN_KEYGEN = "SBPP-SRVKEY"

_BODY_FIELDS = 8  # domain, S, N, t_exp, root, mode, pv, epoch


class ReceiptError(ValueError):
    pass


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 key pair, parsed once: parsing costs about half a signature."""

    private_bytes: bytes
    public_bytes: bytes = field(init=False)
    _signer: Ed25519PrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        signer = Ed25519PrivateKey.from_private_bytes(self.private_bytes)
        object.__setattr__(self, "_signer", signer)
        object.__setattr__(
            self, "public_bytes", signer.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        )

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
    result_set = None  # not a field: a receipt binds a root, never an id set

    def body_bytes(self) -> bytes:
        return receipt_body(self.S, self.N, self.t_exp, self.root, self.mode, self.pv, self.epoch)

    def serialize(self) -> bytes:
        """Canonical body followed by the length-prefixed signature."""
        return self.body_bytes() + lp_encode([self.sig])

    @classmethod
    def parse(cls, raw: bytes) -> "Receipt":
        try:
            fields = lp_decode(raw)
        except EncodingError as exc:
            raise ReceiptError(f"malformed receipt frame: {exc}") from exc
        if len(fields) != _BODY_FIELDS + 1:
            raise ReceiptError("receipt frame has wrong field count")
        domain, S, N, t_exp_raw, root, mode, pv, epoch, sig = fields
        if domain != DOMAIN_RECEIPT.encode("ascii"):
            raise ReceiptError("receipt domain tag mismatch")
        if len(N) != 32 or len(root) != 32:
            raise ReceiptError("receipt nonce/root must be 32 bytes")
        try:
            t_exp_text = t_exp_raw.decode("ascii")
            t_exp = int(t_exp_text)
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReceiptError("receipt expiry is not a decimal string") from exc
        if str(t_exp) != t_exp_text:
            # int() also takes "+10", "010", "1_0" and " 10"; only the form
            # receipt_body writes re-serializes to the signed bytes.
            raise ReceiptError("receipt expiry is not in canonical form")
        try:
            return cls(
                S=S.decode("utf-8"),
                N=N,
                t_exp=t_exp,
                root=root,
                mode=mode.decode("utf-8"),
                pv=pv.decode("utf-8"),
                epoch=epoch.decode("utf-8"),
                sig=sig,
            )
        except UnicodeDecodeError as exc:
            raise ReceiptError("receipt text field is not UTF-8") from exc


def receipt_body(S: str, N: bytes, t_exp: int, root: bytes, mode: str, pv: str, epoch: str) -> bytes:
    if len(N) != 32:
        raise ReceiptError("nonce must be 32 bytes")
    if len(root) != 32:
        raise ReceiptError("root must be 32 bytes")
    return lp_encode([DOMAIN_RECEIPT, S, N, str(t_exp), root, mode, pv, epoch])


def sign_receipt(
    key: SigningKey, S: str, N: bytes, t_exp: int, root: bytes, mode: str, pv: str, epoch: str
) -> Receipt:
    body = receipt_body(S, N, t_exp, root, mode, pv, epoch)
    sig = key.signer().sign(body)
    return Receipt(S=S, N=N, t_exp=t_exp, root=root, mode=mode, pv=pv, epoch=epoch, sig=sig)


def verify_receipt(public_bytes: bytes, receipt: Receipt) -> bool:
    """True iff the signature covers this receipt's canonical body."""
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(
            receipt.sig, receipt.body_bytes()
        )
        return True
    except InvalidSignature:
        return False
    except ValueError:
        return False
