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

Text a hash can take.  A text field is a `str` (a subclass too) with a
UTF-8 encoding, that is one holding no lone surrogate; `encodable` is that
rule, answered from `isascii()` for ASCII text without a scan.  The
definitions (`lp_encode`, `digest`, `cd_core`/`cd_full`, the Merkle leaf
hash) keep their refusals: each raises on a field it cannot encode.  A
check that reads a claimed id asks `encodable` first and answers with its
own reason instead, and the drop-id rule's UTF-8 clause is this predicate.

Fixed heads.  A frame whose first fields never change starts with their
`lp_encode` bytes, computed once at import, and appends only its own
fields.  `cd_core` and `cd_full` frame their three text fields and their
32-byte fields after `lp_encode([DOMAIN_DIGEST])` in one join; a field of
any other type goes through `digest`, so both give `digest`'s bytes and
refusals for every input.  The generic `digest` stays the definition and
the ladder's other digests.  A receipt body (sbpp.receipt) is framed the
same way after `lp_encode([DOMAIN_RECEIPT])`, `lp_encode` its definition.

Key once.  A keyed hash runs from state prepared once per key:
`hmac_sha256` hashes a key's two HMAC pads (and any fixed head) once and
finishes copies of those states per message.  It is the one HMAC in the
package and the one owner of keyed state: one bounded cache keeps each
(key, head)'s prepared states, so the index's cell tags (per search key,
sbpp.geoindex), the proof tag of sbpp.nizk (per proof key, the analogue of
a prepared verifying key) and the ladder's result MAC all key once, and
none of them keeps a cache of its own.  Nothing is kept per message: every
tag and digest is computed again from its inputs each time it is checked.
BENCH_unlock.json and BENCH_search.json record what each kernel saves.

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

Build once.  A frozen value normally goes through its dataclass
`__init__`, which sets one field at a time and runs any `__post_init__`
check.  `assemble` fills a value's fields in one step and runs neither.
The construction rule: a value may skip `__init__` only where a parse has
checked every field it sets (the frame, each length, each range, each text
decode), or where an encoder built it from values that were checked when
they were made.  Everywhere else, and in `dataclasses.replace`, values go
through `__init__`.
"""

from __future__ import annotations

import hashlib
import operator
import re
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

# Scalar field order of the alt_bn128 (BN254) pairing curve, the field that
# Groth16-style backends expose for public inputs.  Digests are reduced to
# fit; the reduction bias is negligible (the order is 254 bits wide).
Q = 21888242871839275222246405745257275088548364400416034343698204186575808495617

DOMAIN_DIGEST = "SBPP-v1"

_LEN = struct.Struct(">I")
_pack_len = _LEN.pack
_unpack_len = _LEN.unpack_from
_sha256 = hashlib.sha256
_MAX_FIELD = 2**32 - 1
_SURROGATE = re.compile("[\ud800-\udfff]")


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


_new = object.__new__
_set = object.__setattr__


def assemble(cls, **fields):
    """A ``cls`` value with exactly ``fields`` set, in one step, without
    running ``cls.__init__`` or its checks (the construction rule above)."""
    value = _new(cls)
    _set(value, "__dict__", fields)
    return value


def _element(value: int) -> FieldElement:
    """A FieldElement whose value the caller has put in [0, Q) itself, built
    without running `FieldElement.__post_init__` again."""
    element = _new(FieldElement)
    _set(element, "value", value)
    return element


ZERO = _element(0)
_ZERO_SLOT = bytes(32)
_Q_SLOT = Q.to_bytes(32, "big")


def decode_elements(raw: bytes) -> tuple[FieldElement, ...]:
    """The 32-byte big-endian field elements ``raw`` is a run of, each
    checked reduced (< Q) in one pass, then built once.

    The check compares the 32-byte slots with Q's own 32 bytes: slots of
    one length in big-endian order compare as bytes exactly as their values
    do.  Only nonzero slots are decoded; every zero slot is `ZERO`."""
    if len(raw) % 32:
        raise EncodingError("field elements must be 32 bytes each")
    slots = struct.unpack("32s" * (len(raw) // 32), raw)
    if slots and max(slots) >= _Q_SLOT:
        raise EncodingError("field element encoding not reduced")
    return tuple([ZERO if s == _ZERO_SLOT else _element(int.from_bytes(s, "big")) for s in slots])


def strictly_sorted(ids: list[str] | tuple[str, ...]) -> bool:
    """True iff the ids are unique and in UTF-8 byte order, the canonical
    order of a result set.  Code point order is UTF-8 byte order, so the
    strings are compared unencoded."""
    return all(map(operator.lt, ids, ids[1:]))


def encodable(value: object) -> bool:
    """True iff ``value`` is text a hash can take: a `str` with a UTF-8
    encoding, so no lone surrogate (ASCII text is answered without a scan)."""
    return isinstance(value, str) and (value.isascii() or _SURROGATE.search(value) is None)


def as_bytes(field: bytes | str) -> bytes:
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
        raw = field if type(field) is bytes else as_bytes(field)
        if len(raw) > _MAX_FIELD:
            raise EncodingError("field exceeds 2^32-1 bytes")
        parts.append(_pack_len(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def lp_head(length: int) -> bytes:
    """The length prefix `lp_encode` writes before a field of ``length``
    bytes, for a frame joined from parts."""
    if length > _MAX_FIELD:
        raise EncodingError("field exceeds 2^32-1 bytes")
    return _pack_len(length)


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


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_SHA256_BLOCK = 64
_KEYED_STATES = 16  # (key, head) pairs: the search, proof and MAC keys of a few deployments


def hmac_sha256(key: bytes, head: bytes = b"") -> Callable[[bytes], bytes]:
    """HMAC-SHA-256 (RFC 2104) under ``key``, keyed once: the returned
    function maps a message to ``hmac.digest(key, head + message,
    "sha256")``.  Its states are prepared once per (key, head) and kept in
    one cache for the last `_KEYED_STATES` pairs, under `bytes` copies of
    both, so a `bytearray` key changed after use never reaches them."""
    return _prepared(key if type(key) is bytes else bytes(memoryview(key)),
                     head if type(head) is bytes else bytes(memoryview(head)))


@lru_cache(maxsize=_KEYED_STATES)
def _prepared(key: bytes, head: bytes) -> Callable[[bytes], bytes]:
    """The MAC under ``key``: the key's inner and outer pads hashed, the
    inner state also absorbing ``head``, and each call finishing copies of
    the two states, so no call sets the key up again."""
    if len(key) > _SHA256_BLOCK:
        key = _sha256(key).digest()
    block = key.ljust(_SHA256_BLOCK, b"\0")
    inner = _sha256(block.translate(_IPAD))
    inner.update(head)
    outer = _sha256(block.translate(_OPAD))

    def mac(message: bytes) -> bytes:
        h = inner.copy()
        h.update(message)
        o = outer.copy()
        o.update(h.digest())
        return o.digest()

    return mac


def _reduce(h: bytes) -> FieldElement:
    """A SHA-256 output as a big-endian integer, reduced into the field."""
    return _element(int.from_bytes(h, "big") % Q)


def digest(fields: list[bytes | str] | tuple[bytes | str, ...]) -> FieldElement:
    """SHA-256 over the canonical encoding, reduced into the scalar field."""
    return _reduce(_sha256(lp_encode(fields)).digest())


_DIGEST_HEAD = lp_encode([DOMAIN_DIGEST])  # every challenge digest's first field
_HASH_HEAD = _pack_len(32)  # the length prefix of a 32-byte field


def _challenge(drop_id: str, pv: str, epoch: str, *hashes: bytes) -> FieldElement:
    """`digest([DOMAIN_DIGEST, drop_id, pv, epoch, *hashes])` for the
    32-byte ``hashes`` of a challenge digest (the nonce, then any root).
    Three `str` fields and `bytes` hashes are framed after the fixed head
    in one join; any other field type goes through `digest`, so the bytes
    and the refusals are the definition's (a lone surrogate's
    UnicodeEncodeError included)."""
    if type(drop_id) is type(pv) is type(epoch) is str and type(hashes[0]) is type(hashes[-1]) is bytes:
        d, p, e = drop_id.encode(), pv.encode(), epoch.encode()
        if len(d) + len(p) + len(e) <= _MAX_FIELD:
            frame = (_DIGEST_HEAD, _pack_len(len(d)), d, _pack_len(len(p)), p, _pack_len(len(e)), e,
                     _HASH_HEAD, _HASH_HEAD.join(hashes))
            return _reduce(_sha256(b"".join(frame)).digest())
    return digest([DOMAIN_DIGEST, drop_id, pv, epoch, *hashes])


def cd_core(drop_id: str, pv: str, epoch: str, nonce: bytes) -> FieldElement:
    """Core challenge digest: binds drop, policy version, epoch, session nonce."""
    if len(nonce) != 32:
        raise EncodingError("session nonce must be 32 bytes")
    return _challenge(drop_id, pv, epoch, nonce)


def cd_full(drop_id: str, pv: str, epoch: str, nonce: bytes, root: bytes) -> FieldElement:
    """Full challenge digest: cd_core inputs plus the result-set Merkle root.

    The extra field makes core and full digests distinct for identical
    sessions, so a full-mode proof can never be replayed as a core one.
    """
    if len(nonce) != 32:
        raise EncodingError("session nonce must be 32 bytes")
    if len(root) != 32:
        raise EncodingError("result-set root must be 32 bytes")
    return _challenge(drop_id, pv, epoch, nonce, root)
