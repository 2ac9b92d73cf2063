"""Canonical Merkle commitment over a result set.

A result set is the union of the index cells its search hit, and it is
committed to in two levels.  Each cell gets a subtree over its sorted,
de-duplicated drop ids (UTF-8 byte order), so any two parties holding the
same cell's ids compute the same cell root.  A top tree is then built with
the cell roots, in the order of the query's sorted tags, as its leaves:
`build_tree` gives its root and, for a member, the member's path through
its own cell's subtree and on through the top tree.  A one-cell result
commits to that cell's own flat root, byte for byte.  The cells' ids never
change after the index is built, so a `Cell` computes its root on first use
and keeps it: the server hashes each cell's ids once, and then binds a
search with at most 15 node hashes.

The trade-off: a client rebuilds only the subtree of the cell that holds the
drop it unlocks, and takes every other cell's root from the server.  It
notices a server that signs a root other than the one over the cells it
showed, or that misstates the client's own cell, but not one that commits a
different cell differently and consistently.  The audit of the client's own
unlock is unaffected: its path runs through the cell the client rebuilt.

A client keeps the cell trees it has rebuilt in a `TreeMemo`, keyed by the
cells' ids and bounded by the bytes it keeps, so a repeat unlock in a cell
it has checked rebuilds no cell and hashes one id, the path's leaf sibling;
a first one costs the rebuild it always did.  The top tree, the path and
the receipt check still run on every unlock.

Leaves and interior nodes use distinct hash domains, which kills
second-preimage tricks that reinterpret an interior node as a leaf, and lets
`verify_membership` check a path through a tree of any shape, so a two-level
path needs no verifier of its own.  When a level has an odd node count the
trailing node is paired with itself.

A membership path is the ordered list of (side, sibling) steps from leaf to
root; `side` records where the sibling sits.  For n leaves every path of a
flat tree has exactly ceil(log2(n)) steps (zero for a single leaf); a
two-level path adds ceil(log2(cells)) steps for the top tree.

Both hashes are SHA-256 over the `lp_encode` framing of their fields.  The
part of that framing that never changes (the domain tag, and for a node the
length prefix of the fixed 32-byte left child) is computed once at import
as a constant head, so each hash only appends its own fields.  The head is
byte-identical to what `lp_encode` emits, so roots and paths are the same
as hashing `lp_encode([DOMAIN_LEAF, id])` and
`lp_encode([DOMAIN_NODE, left, right])` directly.

`leaf_hash` and `node_hash` are the definitions.  `verify_membership`
checks each step once (side, 32-byte sibling) and hashes `node_hash`'s frame
itself, since its running node is always a 32-byte digest; a test pins it to
a fold over the two definitions.  `MerkleTree` hashes the same bytes a whole
level at a time: each level is one chain of `map`/`zip` over C functions
(encode, length prefix, join with the head, SHA-256, digest), so building a
tree makes no Python-level call per node.  A node level of at most four
nodes (a tree's top levels, and the top tree over a search's few cell
roots) is hashed pair by pair instead: setting up the chain costs more than
it saves there (BENCH_unlock.json).  A tree keeps the levels above its
leaves, about one 32-byte hash per id; a path's leaf sibling is one
`leaf_hash` of the neighbouring id.  A member's position is found by
bisecting the sorted ids, so the tree keeps no id -> position map.

A tree checks that its ids are unique and sorted as it hashes its leaves.
A list of three or more ids that are all ASCII and all one width below 128
characters, like the generated corpora's `d000123`, takes a one-buffer
kernel, `_framed_leaf_level`.  Every leaf frame of such a list is one
17-byte head (the domain tag's frame, then the id length, whose low byte
is the width) followed by the id's bytes.  So `head + head.join(ids)` is
encoded once and cut into the frames by one `struct.Struct` of n
fixed-width fields, compiled for the call and then dropped: struct's own
cache would keep up to 100 formats, and a 17,034-field one is 0.55 MB.
The frames are compared for the order check.  Equal heads and equal
lengths make frame order the order of the ids' bytes, which for ASCII is
their code point order, the order `strictly_sorted` checks.  The frames
are then hashed in the same `map` pipeline.  Any other list (mixed widths,
a non-ASCII id, or fewer than three ids, where the per-id pipeline is as
fast) is framed id by id after `strictly_sorted`.  Both paths hash the
same bytes, so no root, path or refusal depends on which one ran.  The
node levels keep their pipeline.

A path carries no bytes of its own, unlike a receipt or public inputs (the
carried-bytes rule of sbpp.canon): its frame is a count byte and 33 bytes a
step, cheap to write again, and a path a tamper test builds from steps
never has old bytes to go stale.  `MerklePath.serialize` checks each step,
its side and then its sibling, in one pass that collects the frame's parts,
and joins them once.  `MerklePath.parse` checks every side byte in one pass
before it builds a step, and a step is a `PathStep` named tuple.  Every
step, parsed or proved, is built by `tuple.__new__` in C, not by the named
tuple's Python `__new__`, and a proved path is assembled from its steps
(sbpp.canon's construction rule: each step's side is one of the two and
its sibling a 32-byte digest by construction).
The one-byte frame of an empty path (a one-leaf tree's) parses to the one
shared `EMPTY_PATH`.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
import sys
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, NamedTuple

from .canon import assemble, encodable, lp_encode, strictly_sorted

DOMAIN_LEAF = "SBPP-LEAF"
DOMAIN_NODE = "SBPP-NODE"

SIDE_LEFT = 0  # sibling is the left child
SIDE_RIGHT = 1  # sibling is the right child

_SIDES = bytes([SIDE_LEFT, SIDE_RIGHT])
_STEP_SIDES = (SIDE_LEFT, SIDE_RIGHT)
_SIDE_BYTES = (b"\x00", b"\x01")  # a side's byte in a path frame
_CHILD_LEN = (32).to_bytes(4, "big")
_LEAF_HEAD = lp_encode([DOMAIN_LEAF])
_LEAF_TEXT = _LEAF_HEAD.decode("ascii") + "\0\0\0"  # a leaf frame's head as text, less the id length's low byte
_FRAMED_MIN_IDS = 3  # below this the per-id pipeline is as fast (BENCH_merkle.json)
_NODE_HEAD = lp_encode([DOMAIN_NODE]) + _CHILD_LEN
_PAIRWISE_MAX = 4  # a node level this short is hashed pair by pair (BENCH_unlock.json)

_pack_len = struct.Struct(">I").pack
_sha256 = hashlib.sha256
_digest = type(_sha256()).digest
_UNSORTED = "result set ids must be unique and sorted"


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


def _leaf_level(ids: list[str]) -> list[bytes]:
    """`[leaf_hash(i) for i in ids]`, hashed in one pipeline."""
    raws = list(map(str.encode, ids))
    frames = map(b"".join, zip(repeat(_LEAF_HEAD), map(_pack_len, map(len, raws)), raws))
    return list(map(_digest, map(hashlib.sha256, frames)))


def _framed_leaf_level(ids: list[str] | tuple[str, ...]) -> list[bytes] | None:
    """`_leaf_level(ids)` for ids that are all ASCII and all one width below
    128, whose leaf frames share one head: the frames are cut from one
    encoded buffer, and MerkleError if they are not strictly increasing,
    which for them is the ids' order.  None for any other list."""
    n = len(ids)
    width = len(ids[0])
    # the last id first: a sorted list of mixed widths mostly ends wider
    if len(ids[-1]) == width and operator.countOf(map(len, ids), width) == n:
        head = _LEAF_TEXT + chr(width)
        text = head + head.join(ids)
        if text.isascii():  # so is the head, which holds chr(width): width < 128
            frames = struct.Struct(f"{len(head) + width}s" * n).unpack(text.encode())
            if not all(map(operator.lt, frames, frames[1:])):
                raise MerkleError(_UNSORTED)
            return list(map(_digest, map(_sha256, frames)))
    return None


def _node_level(level: list[bytes]) -> list[bytes]:
    """`node_hash` over each (even, odd) pair of an even-length level of
    32-byte hashes: pair by pair for a level of at most _PAIRWISE_MAX
    nodes, where setting up the pipeline costs more than it saves, else
    in one pipeline."""
    if len(level) <= _PAIRWISE_MAX:
        return [_digest(_sha256(b"".join((_NODE_HEAD, level[i], _CHILD_LEN, level[i + 1]))))
                for i in range(0, len(level), 2)]
    frames = map(b"".join, zip(repeat(_NODE_HEAD), level[::2], repeat(_CHILD_LEN), level[1::2]))
    return list(map(_digest, map(hashlib.sha256, frames)))


def _levels(level: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree over the 32-byte hashes ``level``, which it
    pads: a level with an odd node count gets a copy of its last node, so
    every node below the root has a sibling at ``index ^ 1``."""
    levels = [level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])  # odd tail: the last node pairs with itself
        level = _node_level(level)
        levels.append(level)
    return levels


class PathStep(NamedTuple):
    side: int  # SIDE_LEFT or SIDE_RIGHT, position of the sibling
    sibling: bytes


# PathStep's own __new__ is a Python function; tuple.__new__ builds the same step in C
_step = partial(tuple.__new__, PathStep)


@dataclass(frozen=True)
class MerklePath:
    steps: tuple[PathStep, ...]

    def serialize(self) -> bytes:
        """The count byte, then each step's side byte and sibling.  One pass
        checks every step (its side, then its sibling) and collects the
        parts, which are joined once.  A path of no steps is the one-byte
        frame of a zero count."""
        if not self.steps:
            return _EMPTY_FRAME
        if len(self.steps) > 255:
            raise MerkleError("path too deep to serialize")
        parts = [len(self.steps).to_bytes(1, "big")]
        for side, sibling in self.steps:
            if side not in _STEP_SIDES:
                raise MerkleError("invalid path step side")
            if len(sibling) != 32:
                raise MerkleError("sibling hash must be 32 bytes")
            parts.append(_SIDE_BYTES[side])
            parts.append(sibling)
        return b"".join(parts)

    @staticmethod
    def parse(raw: bytes) -> "MerklePath":
        """The path a frame of `serialize` holds; every side byte is checked
        in one pass before any step is built.  A frame that is not `bytes` is
        copied once, so one that is not bytes-like (a list) is a TypeError."""
        if type(raw) is not bytes:
            raw = bytes(memoryview(raw))
        if len(raw) < 1:
            raise MerkleError("empty path frame")
        if raw == _EMPTY_FRAME:
            return EMPTY_PATH
        if len(raw) != 1 + raw[0] * 33:
            raise MerkleError("path frame length mismatch")
        sides = raw[1::33]
        if sides.translate(None, _SIDES):
            raise MerkleError("invalid path step side")
        siblings = struct.unpack("x" + "x32s" * raw[0], raw)
        return assemble(MerklePath, {"steps": tuple(map(_step, zip(sides, siblings)))})


EMPTY_PATH = MerklePath(())  # a one-leaf tree's path, and every parse of its frame
_EMPTY_FRAME = b"\x00"  # its frame, a zero count


class MerkleTree:
    """Tree over sorted unique ids; keeps its root, its depth and the levels
    above the leaves (padded, see `_levels`) for path extraction.  The leaf
    level is not kept: a path's first sibling is hashed again from its id."""

    def __init__(self, ids: Sequence[str]):
        if not ids:
            raise MerkleError("cannot commit to an empty result set")
        self.ids = ids = ids if isinstance(ids, tuple) else list(ids)  # a tuple cannot change
        leaves = _framed_leaf_level(ids) if len(ids) >= _FRAMED_MIN_IDS else None
        if leaves is None:
            if not strictly_sorted(ids):
                raise MerkleError(_UNSORTED)
            leaves = _leaf_level(ids)
        levels = _levels(leaves)
        self.root = levels[-1][0]
        self._above = levels[1:]
        self.depth = len(self._above)

    def prove_membership(self, drop_id: str) -> MerklePath:
        index = bisect_left(self.ids, drop_id)
        if index == len(self.ids) or self.ids[index] != drop_id:
            raise NotAMemberError(f"{drop_id!r} is not in the committed set")
        if not self.depth:
            return EMPTY_PATH
        sibling = self.ids[min(index ^ 1, len(self.ids) - 1)]  # odd tail: itself
        first = _step((SIDE_LEFT if index % 2 else SIDE_RIGHT, leaf_hash(sibling)))
        return assemble(MerklePath, {"steps": (first, *_steps(self._above, index // 2))})


def _steps(levels: list[list[bytes]], index: int) -> tuple[PathStep, ...]:
    """The path from node ``index`` of the bottom level to the root."""
    steps = []
    for level in levels[:-1]:
        steps.append(_step((SIDE_LEFT if index % 2 else SIDE_RIGHT, level[index ^ 1])))
        index //= 2
    return tuple(steps)


class Cell:
    """One cell of a result set: its drop ids, sorted and unique, and the
    root of the flat tree over them.  The root is taken as given (a client
    gets it from the server) or computed from the ids on first use and kept.
    A kept root is a 65-byte bytes object on top of the cell itself.

    A cell the index made also lists its drops, in the order of its ids, and
    the precision it was filed at; a cell made from ids alone lists no drop.
    Whether its ids are unique and sorted is checked on first use and kept,
    as the root is."""

    __slots__ = ("ids", "drops", "precision", "_root", "_ordered")

    def __init__(
        self,
        ids: Sequence[str],
        root: bytes | None = None,
        drops: Sequence[Any] = (),
        precision: int | None = None,
    ):
        self.ids = ids
        self.drops = drops
        self.precision = precision
        self._root = root
        self._ordered = None

    @property
    def root(self) -> bytes:
        if self._root is None:  # two racing first uses keep the same root
            self._root = MerkleTree(self.ids).root
        return self._root

    @property
    def ordered(self) -> bool:
        """The ids are unique and sorted (`strictly_sorted`)."""
        if self._ordered is None:
            self._ordered = strictly_sorted(self.ids)
        return self._ordered


MEMO_MAX_BYTES = 8 << 20  # what a TreeMemo may keep: ~45,000 short ids
_TREE_BYTES = 1024  # a kept tree's objects and memo entry
_ID_BYTES = 176  # per id: its string's header, its slot in the key, its share of the hashes


def kept_bytes(ids: tuple[str, ...]) -> int:
    """What a `TreeMemo` charges for keeping the tree over ``ids``: a fixed
    cost per tree and per id, plus the ids' characters at the widest width
    any of them is stored in (the size of their join).  It is an upper
    estimate of tracemalloc on CPython 3.11: a 274-id cell of 7-character
    ids measures 39.4 kB and is charged 51.2 kB."""
    return _TREE_BYTES + _ID_BYTES * len(ids) + sys.getsizeof("".join(ids))


class TreeMemo:
    """The flat cell trees one party has built, kept by content.

    Called with a cell's ids, it returns the `MerkleTree` over them: a kept
    tree when those exact ids were built before, else a fresh one.  The key
    is the ids themselves (the tree keeps that same tuple), so a kept tree
    is exactly the tree a rebuild gives; nothing else a server says about a
    cell (its object, its root) can put a tree in or pick one out.  It keeps
    trees while their `kept_bytes` add up to at most MEMO_MAX_BYTES and
    evicts the least recently used first; a tree charged more than that is
    returned but not kept."""

    def __init__(self):
        self.kept = 0  # bytes charged for the kept trees
        self.hits = self.misses = 0
        self._trees: OrderedDict[tuple[str, ...], tuple[MerkleTree, int]] = OrderedDict()

    def __call__(self, ids: Sequence[str]) -> MerkleTree:
        key = tuple(ids)
        entry = self._trees.get(key)
        if entry is not None:
            self.hits += 1
            self._trees.move_to_end(key)
            return entry[0]
        self.misses += 1
        tree, cost = MerkleTree(key), kept_bytes(key)
        if cost <= MEMO_MAX_BYTES:
            self._trees[key] = tree, cost
            self.kept += cost
            while self.kept > MEMO_MAX_BYTES:
                self.kept -= self._trees.popitem(last=False)[1][1]
        return tree


class ResultTree(NamedTuple):
    root: bytes
    path: MerklePath | None  # the member's, when `build_tree` was given one


def build_tree(
    cells: Sequence[Cell],
    member: str | None = None,
    subtree: Callable[[Sequence[str]], MerkleTree] = MerkleTree,
) -> ResultTree:
    """The commitment to a result set given as its cells in tag order: the
    root of the top tree over the cells' roots.  Once the roots are known it
    hashes no id, so it costs at most 15 node hashes for 16 cells; for one
    cell it is that cell's root.

    With ``member``, the first cell that lists it is rebuilt from its ids by
    ``subtree`` (a fresh `MerkleTree`, or a client's `TreeMemo`), its
    rebuilt root takes that cell's place, and ``path`` runs from the member
    through that subtree and on through the top tree.  The root then equals
    the committed one only if that cell's ids are the committed ones and
    the other cells' roots are as given."""
    if not cells:
        raise MerkleError("cannot commit to an empty result set")
    position, own = -1, None
    if member is not None:
        found = locate(cells, member)
        if found is None:
            raise NotAMemberError(f"{member!r} is not in the committed set")
        position = found[0]
        own = subtree(cells[position].ids)
    roots = [own.root if i == position else cell.root for i, cell in enumerate(cells)]
    if any(len(root) != 32 for root in roots):
        raise MerkleError("cell roots must be 32 bytes")
    top = _levels(roots)
    if own is None:
        return ResultTree(top[-1][0], None)
    steps = own.prove_membership(member).steps + _steps(top, position)
    return ResultTree(top[-1][0], assemble(MerklePath, {"steps": steps}))


def locate(cells: Sequence[Cell], drop_id: str) -> tuple[int, int] | None:
    """(position of the first cell that lists ``drop_id``, its position in
    that cell's ids), found by bisecting each cell; None if no cell does."""
    for position, cell in enumerate(cells):
        ids = cell.ids
        i = bisect_left(ids, drop_id)
        if i < len(ids) and ids[i] == drop_id:
            return position, i
    return None


def verify_membership(root: bytes, drop_id: str, path: MerklePath) -> bool:
    """Recompute the root from the leaf and path; True iff it matches.
    False for an id no leaf can hash (`canon.encodable`).

    Each step is checked once (its side, and a 32-byte sibling), and its
    node is hashed from `node_hash`'s frame directly: the running node is a
    digest, so it needs no length check either."""
    if len(root) != 32 or not encodable(drop_id):
        return False
    node = leaf_hash(drop_id)
    for side, sibling in path.steps:
        if len(sibling) != 32:
            return False
        if side == SIDE_LEFT:
            node = _digest(_sha256(b"".join((_NODE_HEAD, sibling, _CHILD_LEN, node))))
        elif side == SIDE_RIGHT:
            node = _digest(_sha256(b"".join((_NODE_HEAD, node, _CHILD_LEN, sibling))))
        else:
            return False
    return node == root


def expected_depth(n: int) -> int:
    """Path length for an n-leaf tree: ceil(log2 n), 0 for a single leaf."""
    if n < 1:
        raise MerkleError("tree size must be positive")
    return math.ceil(math.log2(n)) if n > 1 else 0
