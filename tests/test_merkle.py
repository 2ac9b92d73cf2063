"""Result-set commitment: tree construction, membership paths, forgery."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpp.canon import lp_encode
from sbpp.merkle import (
    DOMAIN_LEAF,
    DOMAIN_NODE,
    SIDE_LEFT,
    SIDE_RIGHT,
    MerkleError,
    MerklePath,
    NotAMemberError,
    PathStep,
    _leaf_level,
    _node_level,
    build_tree,
    expected_depth,
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
    tree = build_tree(["d1"])
    assert tree.root == leaf_hash("d1")
    assert tree.depth == 0
    path = tree.prove_membership("d1")
    assert path.steps == ()
    assert verify_membership(tree.root, "d1", path)


def test_three_leaf_structure_self_pairs_the_odd_tail():
    ids = sorted(["a", "b", "c"])
    tree = build_tree(ids)
    l = [leaf_hash(i) for i in ids]
    want = node_hash(node_hash(l[0], l[1]), node_hash(l[2], l[2]))
    assert tree.root == want


def test_frozen_roots():
    assert build_tree(_ids(1000)).root.hex() == (
        "f9daa64a37d901c7ddea2fc3f1c5bf2b166e448499ed20f6774025115688d873"
    )
    assert build_tree(["Z", "a", "drop-β", "zz", "é", "日本"]).root.hex() == (
        "82a63a446d6d3538b96f7b393a0ce03f77a308d6a76a71893cbeaebf7e44d293"
    )


def test_requires_sorted_unique_ids():
    with pytest.raises(MerkleError):
        build_tree(["b", "a"])
    with pytest.raises(MerkleError):
        build_tree(["a", "a"])
    with pytest.raises(MerkleError):
        build_tree([])


def test_sort_order_is_byte_wise():
    # "Z" < "a" in UTF-8, unlike a case-folding sort
    tree = build_tree(["Z", "a"])
    assert tree.ids == ["Z", "a"]


def test_path_length_table():
    for n, want in {100: 7, 1000: 10, 5000: 13, 10000: 14, 20000: 15, 50000: 16}.items():
        assert expected_depth(n) == want
    tree = build_tree(_ids(100))
    assert len(tree.prove_membership("d000000").steps) == 7


def test_exhaustive_completeness_257_leaves():
    # 257 = 2^8 + 1 forces a maximally ragged right edge
    ids = _ids(257)
    tree = build_tree(ids)
    assert tree.depth == 9
    for drop_id in ids:
        path = tree.prove_membership(drop_id)
        assert len(path.steps) == 9
        assert verify_membership(tree.root, drop_id, path)


def test_non_member_rejected_with_stolen_paths():
    ids = _ids(64)
    tree = build_tree(ids)
    rng = random.Random(0)
    for _ in range(1000):
        victim = rng.choice(ids)
        path = tree.prove_membership(victim)
        assert not verify_membership(tree.root, "zz-outsider", path)


def test_prove_membership_raises_for_outsider():
    tree = build_tree(_ids(8))
    with pytest.raises(NotAMemberError):
        tree.prove_membership("nope")


def test_tampered_path_rejected():
    ids = _ids(32)
    tree = build_tree(ids)
    path = tree.prove_membership("d000005")
    bad_sib = PathStep(path.steps[0].side, bytes(32))
    assert not verify_membership(tree.root, "d000005", MerklePath((bad_sib, *path.steps[1:])))
    flipped = PathStep(1 - path.steps[0].side, path.steps[0].sibling)
    assert not verify_membership(tree.root, "d000005", MerklePath((flipped, *path.steps[1:])))
    assert not verify_membership(tree.root, "d000005", MerklePath(path.steps[:-1]))
    assert not verify_membership(bytes(32), "d000005", path)


def test_path_serialize_round_trip():
    tree = build_tree(_ids(20))
    for drop_id in ("d000000", "d000013", "d000019"):
        path = tree.prove_membership(drop_id)
        assert MerklePath.parse(path.serialize()) == path


def test_path_parse_rejects_malformed_frames():
    tree = build_tree(_ids(4))
    raw = tree.prove_membership("d000001").serialize()
    with pytest.raises(MerkleError):
        MerklePath.parse(raw + b"\x00")
    with pytest.raises(MerkleError):
        MerklePath.parse(raw[:-1])
    with pytest.raises(MerkleError):
        MerklePath.parse(b"")
    with pytest.raises(MerkleError):
        MerklePath.parse(bytes([1, 9]) + bytes(32))  # side 9 is not a side


def test_root_changes_with_any_membership_change():
    base = build_tree(_ids(10))
    assert build_tree(_ids(11)).root != base.root
    swapped = sorted([*_ids(9), "d999999"])
    assert build_tree(swapped).root != base.root


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
    tree = build_tree(ids)
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
        assert build_tree(ids).ids == ids
    else:
        with pytest.raises(MerkleError):
            build_tree(ids)


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
        return
    assert path.serialize() == raw
