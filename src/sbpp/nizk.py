"""Simulated proximity-proof backend.

This stands in for a pairing-based NIZK so the protocol's binding logic can
be exercised deterministically at desk scale.  It is NOT zero-knowledge and
NOT publicly verifiable: prover and verifier share a 32-byte secret, a
"proof" is an HMAC over the canonical public inputs, and anyone holding the
secret can mint proofs for true statements.  What it does preserve is the
interface contract the rest of the protocol relies on:

  * prove() succeeds only when the witness actually satisfies the statement
    (planar-approximation distance to the target within the radius), and
  * verify() depends on nothing but (key, public inputs, proof bytes), so a
    proof cannot pass under public inputs it was not generated for.

The public-input layout is eight field elements: scaled latitude, scaled
longitude, radius in meters, four zeroed reserved slots, and the challenge
digest in pub[7].  Swapping in a real backend means replacing setup/prove/
verify and keeping the layout.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass

from .canon import EncodingError, FieldElement, lp_encode

BACKEND_ID = "sim-hmac-v1"
DOMAIN_PROOF = "SBPP-PROOF"
DOMAIN_SETUP = "SBPP-NIZK-SETUP"

EARTH_RADIUS_M = 6_371_000.0
_COORD_SCALE = 10**7

PUB_LEN = 8


class NizkError(ValueError):
    pass


class StatementFalseError(NizkError):
    """The witness does not satisfy the proximity statement."""


@dataclass(frozen=True)
class Witness:
    lat: float
    lon: float


@dataclass(frozen=True)
class PublicInputs:
    elements: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != PUB_LEN:
            raise NizkError(f"public inputs must have {PUB_LEN} elements")

    def __getitem__(self, i: int) -> FieldElement:
        return self.elements[i]

    def to_bytes(self) -> bytes:
        """Canonical 256-byte form: eight 32-byte big-endian elements."""
        return b"".join(e.to_bytes() for e in self.elements)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicInputs":
        if len(raw) != 32 * PUB_LEN:
            raise NizkError("public inputs must be exactly 256 bytes")
        try:
            return cls(tuple(FieldElement.from_bytes(raw[i * 32 : (i + 1) * 32]) for i in range(PUB_LEN)))
        except EncodingError as exc:
            raise NizkError(f"public input element: {exc}") from exc


@dataclass(frozen=True)
class Proof:
    backend_id: str
    body: bytes

    def serialize(self) -> bytes:
        return lp_encode([self.backend_id]) + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "Proof":
        if len(raw) < 4:
            raise NizkError("truncated proof frame")
        length = int.from_bytes(raw[:4], "big")
        if 4 + length > len(raw):
            raise NizkError("truncated proof backend id")
        try:
            backend_id = raw[4 : 4 + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NizkError("proof backend id is not UTF-8") from exc
        return cls(backend_id, raw[4 + length :])


def make_public_inputs(
    target_lat: float, target_lon: float, radius_m: float, cd: FieldElement
) -> PublicInputs:
    """Statement encoding: offset-scaled integer coordinates keep the values
    non-negative so they embed directly as field elements."""
    if not -90.0 <= target_lat <= 90.0 or not -180.0 <= target_lon <= 180.0:
        raise NizkError("target coordinates out of range")
    if radius_m <= 0:
        raise NizkError("radius must be positive")
    zero = FieldElement(0)
    return PublicInputs(
        (
            FieldElement(round((target_lat + 90.0) * _COORD_SCALE)),
            FieldElement(round((target_lon + 180.0) * _COORD_SCALE)),
            FieldElement(round(radius_m)),
            zero,
            zero,
            zero,
            zero,
            cd,
        )
    )


def decode_target(pub: PublicInputs) -> tuple[float, float, float]:
    """(lat, lon, radius_m) back out of the statement encoding."""
    lat = pub[0].value / _COORD_SCALE - 90.0
    lon = pub[1].value / _COORD_SCALE - 180.0
    return lat, lon, float(pub[2].value)


def distance_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Equirectangular approximation, the distance the statement is over.

    Adequate at proximity scales (meters to a few km); not for long arcs.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlmb = math.radians(lon2 - lon1)
    x = dlmb * math.cos((phi1 + phi2) / 2)
    return EARTH_RADIUS_M * math.sqrt(dphi * dphi + x * x)


def setup(seed: bytes) -> tuple[bytes, bytes]:
    """Derive the shared proving/verifying secret.  Both halves are the same
    32 bytes; the split signature mirrors a real backend's key pair."""
    secret = hashlib.sha256(lp_encode([DOMAIN_SETUP, seed])).digest()
    return secret, secret


def _tag(key: bytes, pub: PublicInputs) -> bytes:
    return hmac.new(key, lp_encode([DOMAIN_PROOF, pub.to_bytes()]), hashlib.sha256).digest()


def prove(proving_key: bytes, witness: Witness, pub: PublicInputs) -> Proof:
    """Proof of `distance(witness, target) <= radius`; raises if false."""
    if len(proving_key) != 32:
        raise NizkError("proving key must be 32 bytes")
    lat, lon, radius = decode_target(pub)
    if distance_m(witness.lat, witness.lon, lat, lon) > radius:
        raise StatementFalseError("witness is outside the target radius")
    return Proof(BACKEND_ID, _tag(proving_key, pub))


def verify(verifying_key: bytes, pub: PublicInputs, proof: Proof) -> bool:
    """Stateless check; depends only on (key, pub, proof)."""
    if len(verifying_key) != 32:
        raise NizkError("verifying key must be 32 bytes")
    if proof.backend_id != BACKEND_ID:
        return False
    return hmac.compare_digest(proof.body, _tag(verifying_key, pub))
