"""Result-set commitment: tree construction, membership paths, forgery."""

import gc
import hashlib
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp import merkle
from sbpp.canon import lp_encode, strictly_sorted
from sbpp.geoindex import Drop, GeoindexError, build_index, client_tokens, cover_cells, geohash_encode, make_token
from sbpp.merkle import (
    DOMAIN_LEAF,
    DOMAIN_NODE,
    SIDE_LEFT,
    SIDE_RIGHT,
    Cell,
    MerkleError,
    MerklePath,
    MerkleTree,
    NotAMemberError,
    PathStep,
    TreeMemo,
    _leaf_level,
    _node_level,
    build_tree,
    expected_depth,
    kept_bytes,
    leaf_hash,
    node_hash,
    verify_membership,
)

Z32 = bytes(32)


def _ids(n: int) -> list[str]:
    return [f"d{i:06d}" for i in range(n)]


def _utf8_order(ids) -> list[str]:
    return sorted(set(ids), key=lambda s: s.encode("utf-8"))


def _oracle_levels(ids: list[str]) -> list[list[bytes]]:
    """Reference builder: hashes every node through the general lp_encode."""
    levels = [[hashlib.sha256(lp_encode([DOMAIN_LEAF, drop_id])).digest() for drop_id in ids]]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        nxt = []
        for i in range(0, len(prev), 2):
            left = prev[i]
            right = prev[i + 1] if i + 1 < len(prev) else prev[i]
            nxt.append(hashlib.sha256(lp_encode([DOMAIN_NODE, left, right])).digest())
        levels.append(nxt)
    return levels


def _oracle_path(levels: list[list[bytes]], index: int) -> MerklePath:
    steps = []
    for level in levels[:-1]:
        sibling_index = index ^ 1
        if sibling_index >= len(level):
            sibling_index = index  # odd tail: node is its own sibling
        side = SIDE_LEFT if sibling_index < index else SIDE_RIGHT
        steps.append(PathStep(side, level[sibling_index]))
        index //= 2
    return MerklePath(tuple(steps))


def test_leaf_hash_frozen_vector():
    assert leaf_hash("d1").hex() == (
        "4f19ee36242558da37b74839cbe23e82a10a710cea3f8a52d2639c5f1e81a630"
    )


def test_node_hash_frozen_vector():
    assert node_hash(Z32, Z32).hex() == (
        "490b90ce406beeede6a2584da651543c09aac023f1e2ac25d73f40e9a0ef8274"
    )


def test_hashes_match_their_definitions():
    assert leaf_hash("d1") == hashlib.sha256(lp_encode([DOMAIN_LEAF, "d1"])).digest()
    assert node_hash(Z32, Z32) == hashlib.sha256(lp_encode([DOMAIN_NODE, Z32, Z32])).digest()


def test_leaf_and_node_domains_are_separated():
    # a leaf can never be reinterpreted as an interior node
    assert leaf_hash("d1") != node_hash(leaf_hash("d1"), leaf_hash("d1"))


def test_single_leaf_tree():
    tree = MerkleTree(["d1"])
    assert tree.root == leaf_hash("d1")
    assert tree.depth == 0
    path = tree.prove_membership("d1")
    assert path.steps == ()
    assert verify_membership(tree.root, "d1", path)


def test_three_leaf_structure_self_pairs_the_odd_tail():
    ids = sorted(["a", "b", "c"])
    tree = MerkleTree(ids)
    l = [leaf_hash(i) for i in ids]
    want = node_hash(node_hash(l[0], l[1]), node_hash(l[2], l[2]))
    assert tree.root == want


def test_frozen_roots():
    assert MerkleTree(_ids(1000)).root.hex() == (
        "f9daa64a37d901c7ddea2fc3f1c5bf2b166e448499ed20f6774025115688d873"
    )
    assert MerkleTree(["Z", "a", "drop-β", "zz", "é", "日本"]).root.hex() == (
        "82a63a446d6d3538b96f7b393a0ce03f77a308d6a76a71893cbeaebf7e44d293"
    )


def test_requires_sorted_unique_ids():
    with pytest.raises(MerkleError):
        MerkleTree(["b", "a"])
    with pytest.raises(MerkleError):
        MerkleTree(["a", "a"])
    with pytest.raises(MerkleError):
        MerkleTree([])


def test_sort_order_is_byte_wise():
    # "Z" < "a" in UTF-8, unlike a case-folding sort
    tree = MerkleTree(["Z", "a"])
    assert tree.ids == ["Z", "a"]


def test_path_length_table():
    for n, want in {100: 7, 1000: 10, 5000: 13, 10000: 14, 20000: 15, 50000: 16}.items():
        assert expected_depth(n) == want
    tree = MerkleTree(_ids(100))
    assert len(tree.prove_membership("d000000").steps) == 7


def test_exhaustive_completeness_257_leaves():
    # 257 = 2^8 + 1 forces a maximally ragged right edge
    ids = _ids(257)
    tree = MerkleTree(ids)
    assert tree.depth == 9
    for drop_id in ids:
        path = tree.prove_membership(drop_id)
        assert len(path.steps) == 9
        assert verify_membership(tree.root, drop_id, path)


def test_non_member_rejected_with_stolen_paths():
    ids = _ids(64)
    tree = MerkleTree(ids)
    rng = random.Random(0)
    for _ in range(1000):
        victim = rng.choice(ids)
        path = tree.prove_membership(victim)
        assert not verify_membership(tree.root, "zz-outsider", path)


def test_prove_membership_raises_for_outsider():
    tree = MerkleTree(_ids(8))
    with pytest.raises(NotAMemberError):
        tree.prove_membership("nope")


def test_tampered_path_rejected():
    ids = _ids(32)
    tree = MerkleTree(ids)
    path = tree.prove_membership("d000005")
    bad_sib = PathStep(path.steps[0].side, bytes(32))
    assert not verify_membership(tree.root, "d000005", MerklePath((bad_sib, *path.steps[1:])))
    flipped = PathStep(1 - path.steps[0].side, path.steps[0].sibling)
    assert not verify_membership(tree.root, "d000005", MerklePath((flipped, *path.steps[1:])))
    assert not verify_membership(tree.root, "d000005", MerklePath(path.steps[:-1]))
    assert not verify_membership(bytes(32), "d000005", path)


def test_path_serialize_round_trip():
    tree = MerkleTree(_ids(20))
    for drop_id in ("d000000", "d000013", "d000019"):
        path = tree.prove_membership(drop_id)
        assert MerklePath.parse(path.serialize()) == path


def test_path_parse_rejects_malformed_frames():
    tree = MerkleTree(_ids(4))
    raw = tree.prove_membership("d000001").serialize()
    with pytest.raises(MerkleError):
        MerklePath.parse(raw + b"\x00")
    with pytest.raises(MerkleError):
        MerklePath.parse(raw[:-1])
    with pytest.raises(MerkleError):
        MerklePath.parse(b"")
    with pytest.raises(MerkleError):
        MerklePath.parse(bytes([1, 9]) + bytes(32))  # side 9 is not a side


@pytest.mark.parametrize(
    "steps, why",
    [
        ((PathStep(SIDE_LEFT, bytes(32)),) * 256, "too deep"),
        ((PathStep(SIDE_LEFT, bytes(32)), PathStep(2, bytes(32))), "side"),
        ((PathStep(SIDE_RIGHT, bytes(31)),), "32 bytes"),
    ],
    ids=["256-steps", "side-2", "31-byte-sibling"],
)
def test_path_serialize_refuses_a_path_its_frame_cannot_hold(steps, why):
    with pytest.raises(MerkleError, match=why):
        MerklePath(steps).serialize()


def test_a_255_step_path_is_the_deepest_frame():
    path = MerklePath((PathStep(SIDE_LEFT, bytes(32)),) * 255)
    assert MerklePath.parse(path.serialize()) == path


def test_root_changes_with_any_membership_change():
    base = MerkleTree(_ids(10))
    assert MerkleTree(_ids(11)).root != base.root
    swapped = sorted([*_ids(9), "d999999"])
    assert MerkleTree(swapped).root != base.root


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n: st.sets(st.text(max_size=4), min_size=n, max_size=n).map(_utf8_order)
    )
)
@example(_ids(1))
@example(_ids(3))
@example(_ids(257))
@example(["Z", "a", "drop-β", "zz", "é", "日本", "\U0001f600"])
@settings(max_examples=60, deadline=None)
def test_membership_completeness_property(ids):
    # Arbitrary Unicode ids in UTF-8 byte order; the tree must match the
    # lp_encode reference byte for byte, root and every path.
    tree = MerkleTree(ids)
    levels = _oracle_levels(ids)
    assert tree.root == levels[-1][0]
    for index, drop_id in enumerate(ids):
        path = tree.prove_membership(drop_id)
        assert path == _oracle_path(levels, index)
        assert len(path.steps) == expected_depth(len(ids))
        assert verify_membership(tree.root, drop_id, path)


@given(st.lists(st.text(max_size=3), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rejects_exactly_the_lists_not_in_strict_utf8_order(ids):
    if ids == _utf8_order(ids):
        assert MerkleTree(ids).ids == ids
    else:
        with pytest.raises(MerkleError):
            MerkleTree(ids)


@given(st.lists(st.text(max_size=4), min_size=1, max_size=300))
@example([""])
@example(["", "a", ""])
@settings(max_examples=60, deadline=None)
def test_level_pipelines_equal_the_hash_definitions(ids):
    # Every level the tree builds equals leaf_hash / node_hash applied one
    # node at a time; ids need not be sorted for the leaf pipeline.
    level = _leaf_level(ids)
    assert level == [leaf_hash(drop_id) for drop_id in ids]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        nxt = _node_level(level)
        assert nxt == [node_hash(left, right) for left, right in zip(level[::2], level[1::2])]
        level = nxt


# ---------------------------------------------------------------------------
# the one-buffer leaf level: fixed-width ASCII ids are framed from one buffer

_HEAD_TEXT = (lp_encode([DOMAIN_LEAF]) + (7).to_bytes(4, "big")).decode("ascii")  # a width-7 leaf head


def _framed(ids: list[str]) -> bool:
    """Whether `MerkleTree` frames ``ids`` from one buffer: three or more
    ASCII ids, all one width below 128."""
    return (
        len(ids) >= 3
        and len({len(i) for i in ids}) == 1
        and len(ids[0]) < 128
        and all(i.isascii() for i in ids)
    )


@st.composite
def _fixed_width_lists(draw):
    """A list of ids of one width, sorted, then perhaps broken: a repeated
    id, or its first or last pair swapped."""
    width = draw(st.sampled_from([0, 1, 7, 127, 128]))
    alphabet = draw(st.sampled_from(["ab", "\x00\x7fa", "".join(map(chr, range(128)))]))
    unit = st.text(alphabet, min_size=width, max_size=width)
    if width >= len(_HEAD_TEXT):  # ids that hold the head's own text
        padded = st.builds(
            lambda at, pad: (pad * at + _HEAD_TEXT + pad * width)[:width],
            st.integers(0, width - len(_HEAD_TEXT)),
            st.sampled_from("\x00a\x7f"),
        )
        unit = st.one_of(unit, padded)
    ids = _utf8_order(draw(st.lists(unit, min_size=1, max_size=40)))
    fault = draw(st.sampled_from(["none", "repeat", "swap-first", "swap-last"]))
    if fault == "repeat":
        at = draw(st.integers(0, len(ids) - 1))
        ids.insert(at, ids[at])
    elif fault == "swap-first" and len(ids) > 1:
        ids[0], ids[1] = ids[1], ids[0]
    elif fault == "swap-last" and len(ids) > 1:
        ids[-1], ids[-2] = ids[-2], ids[-1]
    return ids


@st.composite
def _mixed_lists(draw):
    """Sorted ids the one-buffer path must not take: ids of one width that
    are not all ASCII, or ids of several widths whose total length is the
    first id's width times their count (so one buffer would cut them)."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 8))
        unit = st.text(st.sampled_from("a\x7f\x80\u00e9\u65e5\U0001f600"), min_size=width, max_size=width)
        return _utf8_order(draw(st.lists(unit, min_size=3, max_size=30)))
    width = draw(st.integers(1, 6))
    widths = [width, *draw(st.lists(st.integers(0, 2 * width), min_size=2, max_size=30))]
    widths[-1] = width * len(widths) - sum(widths[:-1])
    if widths[-1] < 0 or min(widths) == max(widths):
        widths = [width, width - 1, width + 1]
    ids = [chr(97 + i % 26) * w for i, w in enumerate(widths)]  # sorted when the widths allow
    return ids


@given(st.one_of(_fixed_width_lists(), _mixed_lists()))
@example(["ab", "c", "def"])  # equal total length, three widths
@example(["a", "bcd"])  # against ["ab", "cd"]: two ids, framed id by id
@example(["ab", "cd"])
@example([chr(c) for c in range(128)])
@example(["x" * 127] * 3)
@example([""] * 3)  # width 0: framed, and refused
@example(["\x00" * 7, _HEAD_TEXT, "\x7f" * 7])
@settings(max_examples=300, deadline=None)
def test_tree_over_any_list_equals_the_oracle_or_refuses_exactly_the_unsorted(ids):
    # Roots, paths and refusals of either leaf pipeline equal the lp_encode
    # reference's; only the lists `_framed` names skip the per-id order check.
    with mock.patch.object(merkle, "strictly_sorted", wraps=strictly_sorted) as per_id:
        if ids != _utf8_order(ids):
            with pytest.raises(MerkleError, match="^result set ids must be unique and sorted$"):
                MerkleTree(ids)
            tree = None
        else:
            tree = MerkleTree(ids)
    assert per_id.called == (not _framed(ids))
    if tree is None:
        return
    levels = _oracle_levels(ids)
    assert tree.root == levels[-1][0]
    for index, drop_id in enumerate(ids):
        assert tree.prove_membership(drop_id) == _oracle_path(levels, index)


def test_framed_trees_leave_no_compiled_format_behind():
    # struct's module-level cache keeps up to 100 compiled formats, and a
    # 17,034-id format alone is 0.55 MB: the kernel compiles its own
    lists = [_ids(n) for n in range(50, 200)]
    MerkleTree(lists[0])  # first-use allocations are not the trees'
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ids in lists:
            MerkleTree(ids)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 16 * 1024


def _reference_serialize(path: MerklePath) -> bytes:
    """The path frame, checked and written step by step."""
    if len(path.steps) > 255:
        raise MerkleError("path too deep to serialize")
    out = bytearray([len(path.steps)])
    for step in path.steps:
        if step.side not in (SIDE_LEFT, SIDE_RIGHT):
            raise MerkleError("invalid path step side")
        if len(step.sibling) != 32:
            raise MerkleError("sibling hash must be 32 bytes")
        out.append(step.side)
        out += step.sibling
    return bytes(out)


@st.composite
def _paths(draw):
    """Paths of 0, 1, a few, 255 or 256 steps, with a few steps broken: a
    side of 2 or 255, a 31- or 33-byte sibling."""
    count = draw(st.one_of(st.sampled_from([0, 1, 255, 256]), st.integers(0, 12)))
    rng = draw(st.randoms(use_true_random=False))
    steps = [PathStep(rng.choice((SIDE_LEFT, SIDE_RIGHT)), rng.randbytes(32)) for _ in range(count)]
    for _ in range(draw(st.integers(0, 3)) if count else 0):
        at = draw(st.integers(0, count - 1))
        side, sibling = steps[at]
        side = draw(st.sampled_from([side, 2, 255]))
        sibling = draw(st.sampled_from([sibling, sibling[:31], sibling + b"\x00"]))
        steps[at] = PathStep(side, sibling)
    return MerklePath(tuple(steps))


@given(_paths())
@example(MerklePath((PathStep(2, bytes(31)),)))  # side before sibling
@example(MerklePath((PathStep(SIDE_LEFT, bytes(33)), PathStep(255, bytes(32)))))
@example(MerklePath((PathStep(SIDE_RIGHT, bytes(32)),) * 255))
@example(MerklePath((PathStep(2, bytes(31)),) * 256))  # depth first
@settings(max_examples=300, deadline=None)
def test_path_serialize_equals_the_step_by_step_reference(path):
    try:
        want = _reference_serialize(path)
    except MerkleError as exc:
        with pytest.raises(MerkleError, match=f"^{exc}$"):
            path.serialize()
        return
    assert path.serialize() == want


_STEP = st.tuples(
    st.one_of(st.sampled_from([SIDE_LEFT, SIDE_RIGHT]), st.integers(0, 255)),
    st.one_of(st.binary(min_size=32, max_size=32), st.binary(max_size=40)),
)


@given(
    st.lists(_STEP, max_size=6),
    st.one_of(st.none(), st.integers(0, 255)),
    st.one_of(st.just(b""), st.binary(max_size=2)),
)
@example([], None, b"")
@example([(SIDE_RIGHT, bytes(32))], None, b"")
@settings(max_examples=300, deadline=None)
def test_path_parse_raises_or_round_trips(steps, count, tail):
    raw = bytes([len(steps) if count is None else count])
    raw += b"".join(bytes([side]) + sibling for side, sibling in steps) + tail
    try:
        path = MerklePath.parse(raw)
    except MerkleError:
        assert count is not None or tail or any(side > 1 for side, _ in steps) or any(
            len(sibling) != 32 for _, sibling in steps
        )
        return
    assert path.serialize() == raw
    assert path.steps == tuple(PathStep(side, sibling) for side, sibling in steps)


def _reference_verify(root: bytes, drop_id: str, path: MerklePath) -> bool:
    """The membership check as a plain fold over `leaf_hash` and `node_hash`."""
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


@given(st.lists(st.text(max_size=3), min_size=1, max_size=40), st.data())
@settings(max_examples=300, deadline=None)
def test_verify_membership_equals_the_reference_fold(ids, data):
    # honest paths, and paths with a step's side or sibling length broken,
    # against the honest root or a wrong one
    ids = _utf8_order(ids)
    tree = MerkleTree(ids)
    member = data.draw(st.sampled_from(ids))
    honest = tree.prove_membership(member)
    steps = list(honest.steps)
    if steps and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(steps) - 1))
        side = data.draw(st.one_of(st.sampled_from([SIDE_LEFT, SIDE_RIGHT]), st.integers(0, 255)))
        sibling = data.draw(st.one_of(st.just(steps[at].sibling), st.binary(max_size=40)))
        steps[at] = PathStep(side, sibling)
    path = MerklePath(tuple(steps))
    root = data.draw(st.sampled_from([tree.root, leaf_hash(member), tree.root[:31]]))
    for drop_id in (member, "zz-outsider"):
        assert verify_membership(root, drop_id, path) == _reference_verify(root, drop_id, path)
    assert verify_membership(tree.root, member, honest)


# ---------------------------------------------------------------------------
# the two-level commitment against flat per-cell trees


def _oracle_top_levels(roots: list[bytes]) -> list[list[bytes]]:
    """Reference top tree, every level: pair nodes left to right, an odd
    tail with itself."""
    levels = [list(roots)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append([
            node_hash(level[i], level[i + 1] if i + 1 < len(level) else level[i])
            for i in range(0, len(level), 2)
        ])
    return levels


def _oracle_top(roots: list[bytes]) -> bytes:
    """Reference top tree's root."""
    return _oracle_top_levels(roots)[-1][0]


@given(
    st.lists(st.lists(st.text(alphabet="abc\u00e9\U0001f600", min_size=1, max_size=3), min_size=1, max_size=9),
             min_size=1, max_size=16),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_proved_paths_equal_the_reference_fold(id_lists, data):
    # flat and two-level paths, step for step, against the lp_encode
    # reference; every step is a PathStep and the path's steps a tuple
    cells = [Cell(_utf8_order(ids)) for ids in id_lists]
    member = data.draw(st.sampled_from([i for cell in cells for i in cell.ids]))
    position = next(p for p, cell in enumerate(cells) if member in cell.ids)
    own = _oracle_levels(cells[position].ids)
    top = _oracle_top_levels([_oracle_levels(cell.ids)[-1][0] for cell in cells])
    flat = MerkleTree(cells[position].ids).prove_membership(member)
    root, path = build_tree(cells, member)
    assert flat == _oracle_path(own, cells[position].ids.index(member))
    assert root == top[-1][0]
    assert path.steps == flat.steps + _oracle_path(top, position).steps
    for proved in (flat, path):
        assert type(proved.steps) is tuple and all(type(step) is PathStep for step in proved.steps)
        assert MerklePath.parse(proved.serialize()) == proved
    assert verify_membership(root, member, path)


def test_one_cell_result_keeps_the_flat_root_and_paths():
    ids = _ids(11)
    tree = MerkleTree(ids)
    cells = [Cell(ids)]
    assert build_tree(cells) == (tree.root, None)
    for drop_id in ids:
        assert build_tree(cells, drop_id) == (tree.root, tree.prove_membership(drop_id))


def test_result_commitment_rejects_empty_and_malformed_cells():
    with pytest.raises(MerkleError):
        build_tree([])
    with pytest.raises(MerkleError):
        build_tree([Cell(["a"], b"short")])
    with pytest.raises(MerkleError):
        build_tree([Cell(["b", "a"])])
    with pytest.raises(NotAMemberError):
        build_tree([Cell(["a"], leaf_hash("a"))], "b")


@st.composite
def _searched_corpus(draw):
    """Drops in a few square km, with ids in an order unrelated to drop
    order, an index over some precisions, and a query at or near a drop."""
    points = draw(
        st.lists(st.tuples(st.floats(35.68, 35.72), st.floats(139.73, 139.77)), min_size=1, max_size=40)
    )
    order = draw(st.permutations(range(len(points))))
    drops = [Drop(f"d{i:03d}", lat, lon) for i, (lat, lon) in zip(order, points)]
    precisions = sorted(draw(st.sets(st.integers(4, 7), min_size=1)))
    query = draw(st.one_of(st.sampled_from(points), st.tuples(st.floats(35.68, 35.72), st.floats(139.73, 139.77))))
    radius = draw(st.sampled_from([100.0, 300.0, 1000.0, 3000.0]))
    return drops, precisions, query, radius


@given(_searched_corpus())
@example(  # a 10 x 4 grid of drops, so the query hits many precision-6 cells
    ([Drop(f"d{39 - i:03d}", 35.684 + 0.008 * (i // 10), 139.73 + 0.004 * (i % 10)) for i in range(40)],
     [6], (35.70, 139.75), 1000.0)
)
@settings(max_examples=200, deadline=None)
def test_result_commitment_equals_the_top_tree_over_flat_cell_roots(searched):
    drops, precisions, (lat, lon), radius = searched
    key = b"\x0b" * 32
    index = build_index(key, drops, precisions)
    try:
        precision, tags = client_tokens(key, lat, lon, radius, precisions)
    except GeoindexError:
        return  # no indexed precision covers this radius in 16 cells
    cells = index.cells(tags)
    returned = set(index.match(tags))
    # the oracle: the cover's cells from their geohash strings, in tag order
    oracle_cells = []
    for cell in sorted(cover_cells(lat, lon, radius, precision), key=lambda c: make_token(key, precision, c)):
        ids = sorted(d.id for d in drops if geohash_encode(d.lat, d.lon, precision) == cell)
        if ids:
            oracle_cells.append(ids)
    assert [list(c.ids) for c in cells] == oracle_cells
    assert returned == {i for ids in oracle_cells for i in ids}
    if not cells:
        return
    root = build_tree(cells).root
    assert root == _oracle_top([MerkleTree(ids).root for ids in oracle_cells])
    if len(cells) == 1:
        assert root == MerkleTree(sorted(returned)).root
    paths = []
    for drop_id in sorted(returned):
        got_root, path = build_tree(cells, drop_id)
        assert got_root == root and verify_membership(root, drop_id, path)
        paths.append(path)
    for drop in drops:
        if drop.id not in returned:
            with pytest.raises(NotAMemberError):
                build_tree(cells, drop.id)
            assert not any(verify_membership(root, drop.id, p) for p in paths)


# ---------------------------------------------------------------------------
# the client's memo of cell trees


@st.composite
def _memo_runs(draw):
    """A byte bound, a pool of cells (one of two long ids charged more than
    the whole bound) and a sequence of (cells, member) calls drawn from it,
    so cells recur."""
    names = st.text(alphabet="abcd\u00e9\U0001f600", min_size=1, max_size=3)
    cell = st.sets(names, min_size=1, max_size=10).map(lambda c: tuple(_utf8_order(c)))
    pool = draw(st.lists(cell, min_size=1, max_size=5, unique=True))
    charges = sorted(map(kept_bytes, pool))
    bound = draw(st.integers(charges[0], charges[0] + charges[-1]))
    pool.append(("f" * bound, "g"))
    picks = st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3, unique=True)
    calls = []
    for chosen in draw(st.lists(picks, min_size=1, max_size=25)):
        ids = [pool[c] for c in chosen]
        calls.append((ids, draw(st.sampled_from([i for c in ids for i in c]))))
    return bound, calls


@given(_memo_runs())
@settings(max_examples=150, deadline=None)
def test_memoized_build_tree_equals_the_uncached_one(run):
    bound, calls = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merkle, "MEMO_MAX_BYTES", bound)
        memo = TreeMemo()
        for ids, member in calls:
            kept, misses = memo.kept, memo.misses
            cells = [Cell(list(c)) for c in ids]
            assert build_tree(cells, member, memo) == build_tree(cells, member)
            assert memo.kept <= bound
            own = next(c for c in ids if member in c)
            if kept_bytes(own) > bound:  # used, never kept
                assert memo.misses == misses + 1 and memo.kept == kept
    assert memo.hits + memo.misses == len(calls)


def test_memo_evicts_the_least_recently_used_tree(monkeypatch):
    a, b, c = ("a0", "a1"), ("b0", "b1"), ("c0", "c1")
    monkeypatch.setattr(merkle, "MEMO_MAX_BYTES", 2 * kept_bytes(a))
    memo = TreeMemo()
    assert memo(list(a)).root == MerkleTree(a).root
    memo(b)
    assert memo(a) is memo(a)  # a hit, and now the most recently used
    memo(c)  # three trees do not fit: b, the least recently used, goes
    assert (memo.kept, memo.misses) == (2 * kept_bytes(a), 3)
    memo(a), memo(c)
    assert memo.misses == 3
    memo(b)
    assert memo.misses == 4
    big = tuple(_ids(12))
    assert kept_bytes(big) > merkle.MEMO_MAX_BYTES
    assert memo(big).root == MerkleTree(big).root and memo.kept == 2 * kept_bytes(a)
    assert memo(big) is not memo(big)  # charged more than the bound: rebuilt every time


def test_memo_bounds_the_bytes_of_its_ids_not_their_count(monkeypatch):
    # Four two-id cells fill the bound; one more two-id cell of 1 kB ids
    # pushes out three of them, where a bound on ids would push out one.
    shorts = [(f"{c}0", f"{c}1") for c in "abcd"]
    monkeypatch.setattr(merkle, "MEMO_MAX_BYTES", 4 * kept_bytes(shorts[0]))
    memo = TreeMemo()
    for ids in shorts:
        memo(ids)
    long = ("x" * 1000 + "0", "x" * 1000 + "1")
    memo(long)
    assert memo.kept == kept_bytes(shorts[3]) + kept_bytes(long) and memo.misses == 5
    memo(shorts[3]), memo(long)
    assert memo.misses == 5
    memo(shorts[0])
    assert memo.misses == 6
    huge = ("y" * merkle.MEMO_MAX_BYTES,)  # one id, longer than the whole bound
    memo(huge)
    assert memo(huge) is not memo(huge) and memo.kept <= merkle.MEMO_MAX_BYTES


@pytest.mark.parametrize("n", [1, 7, 274])
@pytest.mark.parametrize("head", ["d", "\u00e9", "\U0001f600", "d" * 500])
def test_kept_bytes_covers_what_a_kept_tree_holds(n, head):
    TreeMemo()(("w0", "w1", "w2"))  # first-use allocations are not the tree's
    tracemalloc.start()
    try:
        memo = TreeMemo()
        before = tracemalloc.get_traced_memory()[0]
        memo(tuple(f"{head}{i:06d}" for i in range(n)))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < held <= memo.kept
