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

Public inputs are encoded once (sbpp.canon's carried-bytes rule).  A
`PublicInputs` keeps the 256-byte form that `to_bytes` first encoded from its
elements, or that `from_bytes` parsed, so proving, the server's verify, the
audit record and the offline audit all read the same bytes.  `from_bytes`
accepts only reduced elements, so its bytes are exactly what `to_bytes`
would give; `dataclasses.replace` drops the bytes with the old elements.
Having checked the whole frame, `from_bytes` and `Proof.parse` assemble
their values without `__init__` (sbpp.canon's construction rule).
The proof tag is HMAC-SHA-256 over a head fixed at import (the
`lp_encode` framing of the domain and a 256-byte field) and those bytes.
It is keyed once per key (sbpp.canon's key-once rule): `canon.hmac_sha256`
hashes the key's pads and absorbs the head once and keeps that state, as a
real backend prepares its verifying key once; this module keeps no state
of its own.  Each `prove` and `verify` still tags the public inputs it is
given (BENCH_unlock.json has the tag's cost beside one `hmac.digest` a call).

The server's statement check compares integers: `statement_values` gives
the three values `make_public_inputs` builds its first elements from, with
the same refusals, so no `PublicInputs` is built to be compared.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass, field

from .canon import (
    Q, ZERO, EncodingError, FieldElement, _element, assemble, decode_elements, hmac_sha256, lp_encode,
)

BACKEND_ID = "sim-hmac-v1"
DOMAIN_PROOF = "SBPP-PROOF"
DOMAIN_SETUP = "SBPP-NIZK-SETUP"

EARTH_RADIUS_M = 6_371_000.0
_COORD_SCALE = 10**7

PUB_LEN = 8
_PUB_BYTES = 32 * PUB_LEN

# lp_encode([DOMAIN_PROOF, pub_bytes]) is this head followed by pub_bytes.
_PROOF_HEAD = lp_encode([DOMAIN_PROOF, bytes(_PUB_BYTES)])[:-_PUB_BYTES]
# a serialized proof of this backend starts with this frame of its id
_BACKEND_HEAD = lp_encode([BACKEND_ID])


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
    # the canonical form, set only by to_bytes and from_bytes (module docstring)
    _bytes: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.elements) != PUB_LEN:
            raise NizkError(f"public inputs must have {PUB_LEN} elements")

    def __getitem__(self, i: int) -> FieldElement:
        return self.elements[i]

    def to_bytes(self) -> bytes:
        """Canonical 256-byte form: eight 32-byte big-endian elements,
        encoded on first use and kept."""
        raw = self._bytes
        if raw is None:
            raw = b"".join([e.value.to_bytes(32, "big") for e in self.elements])  # each FieldElement.to_bytes, inline
            object.__setattr__(self, "_bytes", raw)
        return raw

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicInputs":
        if len(raw) != _PUB_BYTES:
            raise NizkError("public inputs must be exactly 256 bytes")
        raw = bytes(raw)
        try:
            elements = decode_elements(raw)
        except EncodingError as exc:
            raise NizkError(f"public input element: {exc}") from exc
        return assemble(cls, elements=elements, _bytes=raw)  # 256 bytes: eight elements


@dataclass(frozen=True)
class Proof:
    backend_id: str
    body: bytes

    def head(self) -> bytes:
        """The frame of the backend id that `serialize` puts before the body."""
        backend_id = self.backend_id
        return _BACKEND_HEAD if backend_id == BACKEND_ID else lp_encode([backend_id])

    def serialize(self) -> bytes:
        return self.head() + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "Proof":
        if raw[: len(_BACKEND_HEAD)] == _BACKEND_HEAD:  # this backend's proof
            return assemble(cls, backend_id=BACKEND_ID, body=raw[len(_BACKEND_HEAD) :])
        if len(raw) < 4:
            raise NizkError("truncated proof frame")
        length = int.from_bytes(raw[:4], "big")
        if 4 + length > len(raw):
            raise NizkError("truncated proof backend id")
        try:
            backend_id = raw[4 : 4 + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NizkError("proof backend id is not UTF-8") from exc
        return assemble(cls, backend_id=backend_id, body=raw[4 + length :])


def radius_value(radius_m: float) -> int:
    """The statement's radius element: ``radius_m`` rounded to whole meters,
    which must be finite and land in [1, Q); NizkError otherwise."""
    try:
        radius = round(radius_m)
    except (OverflowError, ValueError) as exc:  # inf, nan
        raise NizkError(f"radius {radius_m!r} is not finite") from exc
    if not 1 <= radius < Q:
        raise NizkError(f"radius {radius_m!r} does not round to a whole meter in [1, Q)")
    return radius


def statement_values(target_lat: float, target_lon: float, radius_m: float) -> tuple[int, int, int]:
    """The statement's first three values: offset-scaled integer coordinates,
    non-negative so they embed directly as field elements, and the radius
    (`radius_value`).  NizkError for a target off the globe."""
    if not -90.0 <= target_lat <= 90.0 or not -180.0 <= target_lon <= 180.0:
        raise NizkError("target coordinates out of range")
    return (
        round((target_lat + 90.0) * _COORD_SCALE),
        round((target_lon + 180.0) * _COORD_SCALE),
        radius_value(radius_m),
    )


def make_public_inputs(
    target_lat: float, target_lon: float, radius_m: float, cd: FieldElement
) -> PublicInputs:
    """The statement: `statement_values`, four zeroed reserved slots and the
    challenge digest.  Every value is range-checked there, so the elements
    are built without checking again."""
    lat, lon, radius = statement_values(target_lat, target_lon, radius_m)
    return PublicInputs((_element(lat), _element(lon), _element(radius), ZERO, ZERO, ZERO, ZERO, cd))


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
    """HMAC-SHA256 under ``key`` of lp_encode([DOMAIN_PROOF, pub.to_bytes()]),
    from the key's state prepared once with `_PROOF_HEAD` absorbed."""
    return hmac_sha256(key, _PROOF_HEAD)(pub.to_bytes())


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
