"""Canonical encoding and challenge digests.

Every byte string that is hashed, signed, or MAC'd in this package goes
through one injective encoding: each field is prefixed with its length as a
4-byte big-endian integer and the prefixed fields are concatenated.  Because
lengths are explicit, distinct field lists never collide on the wire
(lp_encode(["AB","C"]) != lp_encode(["A","BC"])), which is what lets a single
SHA-256 call act as a binding commitment to a structured message.

Challenge digests are SHA-256 outputs interpreted as big-endian integers and
reduced into the scalar field used by the proof backend, so they can ride in
a public-input slot.  Strings are encoded as UTF-8 without unicode
normalization: two ids that differ in codepoints are different ids.

Encode once, check once.  A value that is hashed, signed or MAC'd more than
once per unlock (a receipt's body, the proof's public inputs) carries the
canonical bytes it was first encoded to or parsed from, and every later use
reads those bytes instead of framing the value again.  The rule that keeps
this sound: carried bytes are set only by the function that encoded them
from the value's own fields, or by a parse that accepts only canonical
input, so they are always what encoding the fields would give.  They live
in a non-init field with ``compare=False, repr=False``: equality ignores
them, and ``dataclasses.replace`` builds a value without them, so a changed
field is never paired with the old field's bytes.  In the same spirit a
value is range-checked once, where it crosses a trust boundary:
`decode_elements` checks a whole run of field elements together and builds
them without running each element's own check again.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass

# Scalar field order of the alt_bn128 (BN254) pairing curve, the field that
# Groth16-style backends expose for public inputs.  Digests are reduced to
# fit; the reduction bias is negligible (the order is 254 bits wide).
Q = 21888242871839275222246405745257275088548364400416034343698204186575808495617

DOMAIN_DIGEST = "SBPP-v1"

_LEN = struct.Struct(">I")
_pack_len = _LEN.pack
_unpack_len = _LEN.unpack_from
_MAX_FIELD = 2**32 - 1


class EncodingError(ValueError):
    """Raised when a field list or a serialized frame cannot be encoded/decoded."""


@dataclass(frozen=True)
class FieldElement:
    """An element of the scalar field, carried as a plain int in [0, Q)."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise EncodingError("field element value must be an int")
        if not 0 <= self.value < Q:
            raise EncodingError("field element out of range")

    def to_bytes(self) -> bytes:
        """Canonical 32-byte big-endian form."""
        return self.value.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FieldElement":
        if len(raw) != 32:
            raise EncodingError("field element must be exactly 32 bytes")
        return decode_elements(raw)[0]


def _element(value: int) -> FieldElement:
    """A FieldElement whose value the caller has put in [0, Q) itself, built
    without running `FieldElement.__post_init__` again."""
    element = object.__new__(FieldElement)
    object.__setattr__(element, "value", value)
    return element


def decode_elements(raw: bytes) -> tuple[FieldElement, ...]:
    """The 32-byte big-endian field elements ``raw`` is a run of, each
    checked reduced (< Q) in one pass over the values, then built once."""
    if len(raw) % 32:
        raise EncodingError("field elements must be 32 bytes each")
    values = [int.from_bytes(raw[i : i + 32], "big") for i in range(0, len(raw), 32)]
    if values and max(values) >= Q:
        raise EncodingError("field element encoding not reduced")
    return tuple(map(_element, values))


def strictly_sorted(ids: list[str] | tuple[str, ...]) -> bool:
    """True iff the ids are unique and in UTF-8 byte order, the canonical
    order of a result set.  Code point order is UTF-8 byte order, so the
    strings are compared unencoded."""
    return all(map(operator.lt, ids, ids[1:]))


def _as_bytes(field: bytes | str) -> bytes:
    if isinstance(field, bytes):
        return field
    if isinstance(field, str):
        return field.encode("utf-8")
    raise EncodingError(f"unsupported field type: {type(field).__name__}")


def lp_encode(fields: list[bytes | str] | tuple[bytes | str, ...]) -> bytes:
    """Length-prefix every field (4-byte big-endian) and concatenate, in one
    join of the prefixes and fields."""
    parts = []
    for field in fields:
        raw = field if type(field) is bytes else _as_bytes(field)
        if len(raw) > _MAX_FIELD:
            raise EncodingError("field exceeds 2^32-1 bytes")
        parts.append(_pack_len(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def lp_decode(data: bytes) -> list[bytes]:
    """Inverse of lp_encode.  Rejects trailing garbage and truncated frames.

    Any bytes-like input gives the same `bytes` fields: one that is not
    `bytes` is copied once, and every field is a slice of the bytes."""
    if type(data) is not bytes:
        data = bytes(memoryview(data))
    fields: list[bytes] = []
    end = len(data)
    pos = 0
    while pos < end:
        if pos + 4 > end:
            raise EncodingError("truncated length prefix")
        (length,) = _unpack_len(data, pos)
        pos += 4
        stop = pos + length
        if stop > end:
            raise EncodingError("truncated field body")
        fields.append(data[pos:stop])
        pos = stop
    return fields


def digest(fields: list[bytes | str] | tuple[bytes | str, ...]) -> FieldElement:
    """SHA-256 over the canonical encoding, reduced into the scalar field."""
    h = hashlib.sha256(lp_encode(fields)).digest()
    return _element(int.from_bytes(h, "big") % Q)


def cd_core(drop_id: str, pv: str, epoch: str, nonce: bytes) -> FieldElement:
    """Core challenge digest: binds drop, policy version, epoch, session nonce."""
    if len(nonce) != 32:
        raise EncodingError("session nonce must be 32 bytes")
    return digest([DOMAIN_DIGEST, drop_id, pv, epoch, nonce])


def cd_full(drop_id: str, pv: str, epoch: str, nonce: bytes, root: bytes) -> FieldElement:
    """Full challenge digest: cd_core inputs plus the result-set Merkle root.

    The extra field makes core and full digests distinct for identical
    sessions, so a full-mode proof can never be replayed as a core one.
    """
    if len(nonce) != 32:
        raise EncodingError("session nonce must be 32 bytes")
    if len(root) != 32:
        raise EncodingError("result-set root must be 32 bytes")
    return digest([DOMAIN_DIGEST, drop_id, pv, epoch, nonce, root])
