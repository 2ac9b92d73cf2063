"""Canonical Merkle commitment over a result set.

The tree is built over the sorted, de-duplicated list of drop ids (UTF-8 byte
order), so any two parties holding the same id set compute the same root.
Leaves and interior nodes use distinct hash domains, which kills
second-preimage tricks that reinterpret an interior node as a leaf.  When a
level has an odd node count the trailing node is paired with itself.

A membership path is the ordered list of (side, sibling) steps from leaf to
root; `side` records where the sibling sits.  For n leaves every path has
exactly ceil(log2(n)) steps (zero for a single leaf), which keeps path sizes
and verification cost uniform across the whole tree.

Both hashes are SHA-256 over the `lp_encode` framing of their fields.  The
part of that framing that never changes (the domain tag, and for a node the
length prefix of the fixed 32-byte left child) is computed once at import
as a constant head, so each hash only appends its own fields.  The head is
byte-identical to what `lp_encode` emits, so roots and paths are the same
as hashing `lp_encode([DOMAIN_LEAF, id])` and
`lp_encode([DOMAIN_NODE, left, right])` directly.

`leaf_hash` and `node_hash` are the definitions, and `verify_membership`
hashes through them.  `MerkleTree` hashes the same bytes a whole level at a
time: each level is one chain of `map`/`zip` over C functions (encode,
length prefix, join with the head, SHA-256, digest), so building a tree
makes no Python-level call per node.  A member's position is found by
bisecting the sorted ids, so the tree keeps no id -> position map.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

from .canon import lp_encode

DOMAIN_LEAF = "SBPP-LEAF"
DOMAIN_NODE = "SBPP-NODE"

SIDE_LEFT = 0  # sibling is the left child
SIDE_RIGHT = 1  # sibling is the right child

_CHILD_LEN = (32).to_bytes(4, "big")
_LEAF_HEAD = lp_encode([DOMAIN_LEAF])
_NODE_HEAD = lp_encode([DOMAIN_NODE]) + _CHILD_LEN

_pack_len = struct.Struct(">I").pack
_digest = type(hashlib.sha256()).digest


class MerkleError(ValueError):
    pass


class NotAMemberError(MerkleError):
    pass


def leaf_hash(drop_id: str) -> bytes:
    raw = drop_id.encode("utf-8")
    return hashlib.sha256(_LEAF_HEAD + len(raw).to_bytes(4, "big") + raw).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    if len(left) != 32 or len(right) != 32:
        raise MerkleError("interior nodes take 32-byte children")
    return hashlib.sha256(_NODE_HEAD + left + _CHILD_LEN + right).digest()


def strictly_sorted(ids: list[str]) -> bool:
    """True iff the ids are unique and in UTF-8 byte order.  Code point
    order is UTF-8 byte order, so the strings are compared unencoded."""
    return all(map(operator.lt, ids, ids[1:]))


def _leaf_level(ids: list[str]) -> list[bytes]:
    """`[leaf_hash(i) for i in ids]`, hashed in one pipeline."""
    raws = list(map(str.encode, ids))
    frames = map(b"".join, zip(repeat(_LEAF_HEAD), map(_pack_len, map(len, raws)), raws))
    return list(map(_digest, map(hashlib.sha256, frames)))


def _node_level(level: list[bytes]) -> list[bytes]:
    """`node_hash` over each (even, odd) pair of an even-length level of
    32-byte hashes, hashed in one pipeline."""
    frames = map(b"".join, zip(repeat(_NODE_HEAD), level[::2], repeat(_CHILD_LEN), level[1::2]))
    return list(map(_digest, map(hashlib.sha256, frames)))


@dataclass(frozen=True)
class PathStep:
    side: int  # SIDE_LEFT or SIDE_RIGHT, position of the sibling
    sibling: bytes


@dataclass(frozen=True)
class MerklePath:
    steps: tuple[PathStep, ...]

    def serialize(self) -> bytes:
        if len(self.steps) > 255:
            raise MerkleError("path too deep to serialize")
        out = bytearray([len(self.steps)])
        for step in self.steps:
            if step.side not in (SIDE_LEFT, SIDE_RIGHT):
                raise MerkleError("invalid path step side")
            if len(step.sibling) != 32:
                raise MerkleError("sibling hash must be 32 bytes")
            out.append(step.side)
            out += step.sibling
        return bytes(out)

    @classmethod
    def parse(cls, raw: bytes) -> "MerklePath":
        if len(raw) < 1:
            raise MerkleError("empty path frame")
        count = raw[0]
        if len(raw) != 1 + count * 33:
            raise MerkleError("path frame length mismatch")
        steps = []
        pos = 1
        for _ in range(count):
            side = raw[pos]
            if side not in (SIDE_LEFT, SIDE_RIGHT):
                raise MerkleError("invalid path step side")
            steps.append(PathStep(side, raw[pos + 1 : pos + 33]))
            pos += 33
        return cls(tuple(steps))


class MerkleTree:
    """Tree over sorted unique ids; keeps all levels for path extraction.

    A level with an odd node count is stored padded with a copy of its last
    node, so every node below the root has a sibling at `index ^ 1`.
    """

    def __init__(self, ids: list[str]):
        if not ids:
            raise MerkleError("cannot commit to an empty result set")
        if not strictly_sorted(ids):
            raise MerkleError("result set ids must be unique and sorted")
        self.ids = list(ids)
        level = _leaf_level(self.ids)
        levels = [level]
        while len(level) > 1:
            if len(level) % 2:
                level.append(level[-1])  # odd tail: the last node pairs with itself
            level = _node_level(level)
            levels.append(level)
        self._levels = levels

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def prove_membership(self, drop_id: str) -> MerklePath:
        index = bisect_left(self.ids, drop_id)
        if index == len(self.ids) or self.ids[index] != drop_id:
            raise NotAMemberError(f"{drop_id!r} is not in the committed set")
        steps = []
        for level in self._levels[:-1]:
            side = SIDE_LEFT if index % 2 else SIDE_RIGHT
            steps.append(PathStep(side, level[index ^ 1]))
            index //= 2
        return MerklePath(tuple(steps))


def build_tree(ids: list[str]) -> MerkleTree:
    return MerkleTree(ids)


def verify_membership(root: bytes, drop_id: str, path: MerklePath) -> bool:
    """Recompute the root from the leaf and path; True iff it matches."""
    if len(root) != 32:
        return False
    node = leaf_hash(drop_id)
    for step in path.steps:
        if step.side not in (SIDE_LEFT, SIDE_RIGHT) or len(step.sibling) != 32:
            return False
        if step.side == SIDE_LEFT:
            node = node_hash(step.sibling, node)
        else:
            node = node_hash(node, step.sibling)
    return node == root


def expected_depth(n: int) -> int:
    """Path length for an n-leaf tree: ceil(log2 n), 0 for a single leaf."""
    if n < 1:
        raise MerkleError("tree size must be positive")
    return math.ceil(math.log2(n)) if n > 1 else 0
