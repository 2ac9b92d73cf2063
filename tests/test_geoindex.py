"""Geohash encoding, covering-cell queries, and the encrypted index."""

import hashlib
import hmac
import math
import random
import re
from functools import partial
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbpp import geoindex, merkle, nizk
from sbpp.canon import hmac_sha256, strictly_sorted
from sbpp.geoindex import (
    COVER_BUDGET,
    GEOHASH_ALPHABET,
    PAD_LABEL,
    TOKEN_LABEL,
    CorpusError,
    Drop,
    GeoIndex,
    GeoindexError,
    build_index,
    cell_dimensions_m,
    check_ids,
    client_tokens,
    cover_cells,
    drops_of,
    gen_clustered_corpus,
    gen_uniform_corpus,
    geohash_decode_bbox,
    geohash_encode,
    geohash_neighbors,
    haversine_m,
    hmac_tagger,
    load_corpus,
    plain_tagger,
    precision_for_radius,
    save_corpus,
)
from sbpp.harness.attacks import T0, build_variant
from sbpp.merkle import Cell, MerkleTree
from sbpp.protocol import (
    R_MERKLE_INVALID, AuditRecord, SbppServer, audit, derive_key, emit_audit_record, protocol_pair, seeded_env,
)
from sbpp.session import MODE_CORE, MODE_FULL
from sbpp.variants import VARIANT_KINDS, make_variant

TOKYO = (35.6, 35.8, 139.6, 139.9)


def test_geohash_frozen_vectors():
    assert geohash_encode(35.7, 139.75, 5) == "xn77h"
    assert geohash_encode(35.7, 139.75, 6) == "xn77h4"
    assert geohash_encode(35.6895, 139.6917, 8) == "xn774c06"
    assert geohash_encode(0.0, 0.0, 5) == "s0000"
    assert geohash_encode(-33.8688, 151.2093, 7) == "r3gx2f7"


def test_geohash_classic_vectors():
    # the two canonical examples every implementation agrees on
    assert geohash_encode(42.605, -5.603, 5) == "ezs42"
    assert geohash_encode(57.64911, 10.40744, 11) == "u4pruydqqvj"


def test_bbox_frozen_vector():
    assert geohash_decode_bbox("xn76u") == (
        35.6396484375,
        35.68359375,
        139.74609375,
        139.7900390625,
    )


def test_bbox_contains_encoded_point():
    lat, lon = 35.7, 139.75
    cell = geohash_encode(lat, lon, 6)
    lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bbox(cell)
    assert lat_lo <= lat < lat_hi
    assert lon_lo <= lon < lon_hi


def test_geohash_rejects_bad_inputs():
    with pytest.raises(GeoindexError):
        geohash_encode(91.0, 0.0, 5)
    with pytest.raises(GeoindexError):
        geohash_encode(0.0, 181.0, 5)
    with pytest.raises(GeoindexError):
        geohash_encode(0.0, 0.0, 0)
    with pytest.raises(GeoindexError):
        geohash_decode_bbox("xn7a")  # 'a' is not in the base32 alphabet


def test_neighbors_tile_the_3x3_block():
    cell = "xn76u"
    neigh = geohash_neighbors(cell)
    assert len(neigh) == 8
    assert len(set(neigh)) == 8
    assert cell not in neigh
    lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bbox(cell)
    dlat, dlon = lat_hi - lat_lo, lon_hi - lon_lo
    lat_c, lon_c = (lat_lo + lat_hi) / 2, (lon_lo + lon_hi) / 2
    expected = {
        geohash_encode(lat_c + dy * dlat, lon_c + dx * dlon, len(cell))
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dy, dx) != (0, 0)
    }
    assert set(neigh) == expected


def test_neighbors_thin_out_at_the_pole():
    polar = geohash_encode(89.99, 0.0, 3)
    assert len(geohash_neighbors(polar)) < 8


def test_precision_for_radius_table():
    # largest precision whose min cell dimension still covers the radius
    cases = {0.5: 9, 3: 9, 10: 8, 100: 7, 500: 6, 1000: 5, 5000: 4, 50000: 3, 1e7: 1}
    for radius, want in cases.items():
        assert precision_for_radius(radius) == want, radius


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_client_tokens_refuse_a_radius_that_is_not_positive(radius):
    with pytest.raises(GeoindexError, match="^radius must be positive$"):
        client_tokens(bytes(32), 35.7, 139.75, radius)


def test_precision_for_radius_monotone():
    last = 10
    for radius in (1, 10, 100, 1000, 10000, 100000, 1e6):
        p = precision_for_radius(radius)
        assert p <= last
        last = p
    for radius in (0, math.nan):  # NaN fails `radius_m > 0` as 0 does
        with pytest.raises(GeoindexError, match="^radius must be positive$"):
            precision_for_radius(radius)


def test_cell_dimensions_shrink_with_precision():
    for p in range(1, 9):
        assert min(cell_dimensions_m(p, 35.7)) > min(cell_dimensions_m(p + 1, 35.7))


def test_haversine_known_distance():
    # 0.01 degrees of latitude on the reference sphere
    assert haversine_m(0.0, 0.0, 0.01, 0.0) == pytest.approx(1111.9492664455875, abs=1e-6)
    assert haversine_m(35.7, 139.75, 35.7, 139.75) == 0.0


def test_hmac_tagger_frozen_vector():
    tag = hmac_tagger(bytes(32))(5, "xn76u")
    assert tag.hex() == "174f3fb62f6a4c202c6a33228d4e480573c4cfe16449b96b9737080933c87828"
    with pytest.raises(GeoindexError):
        hmac_tagger(b"short")(5, "xn76u")


@given(
    st.binary(min_size=32, max_size=32),
    st.one_of(st.integers(1, 12), st.just(PAD_LABEL)),
    st.text(GEOHASH_ALPHABET + ":0123456789", max_size=16),
)
@settings(max_examples=300, deadline=None)
def test_hmac_tagger_is_one_shot_hmac_sha256(key, precision, cell):
    # the copied keyed state gives the bytes of a fresh HMAC
    message = f"{TOKEN_LABEL}:{precision}:{cell}".encode("ascii")
    assert hmac_tagger(key)(precision, cell) == hmac.digest(key, message, "sha256")


@given(
    st.binary(max_size=200),
    st.one_of(st.integers(1, 12), st.just(PAD_LABEL)),
    st.text(GEOHASH_ALPHABET, max_size=12),
)
@example(bytes(64), 5, "xn76u")
@example(bytes(65), PAD_LABEL, "xn76u")  # longer than a block: hashed first
@example(bytes(32), 5, "xn76u")  # a search key
@settings(max_examples=300, deadline=None)
def test_keyed_tagger_is_hmac_sha256_for_any_key_length(key, precision, cell):
    # the tagger's kernel, its head absorbed, for any key; the tagger itself takes 32 bytes
    message = f"{TOKEN_LABEL}:{precision}:{cell}".encode("ascii")
    tag = hmac_sha256(key, geoindex._TOKEN_HEAD)(f"{precision}:{cell}".encode("ascii"))
    assert tag == hmac.digest(key, message, "sha256")
    if len(key) == 32:
        assert hmac_tagger(key)(precision, cell) == tag
    else:
        with pytest.raises(GeoindexError):
            hmac_tagger(key)


@given(
    st.lists(
        st.tuples(st.binary(min_size=32, max_size=32), st.booleans(), st.text(GEOHASH_ALPHABET, max_size=9)),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_tags_of_keys_made_in_turns_never_mix(queries):
    # more keys than the tagger keeps states for, taggers made before any
    # is used, and a bytearray key changed once its tagger is made: each
    # tag is the HMAC under its own key as it was when the tagger was made
    keys = [bytearray(key) if mutable else key for key, mutable, _ in queries]
    taggers = [hmac_tagger(key) for key in keys]
    frozen = [bytes(key) for key in keys]
    for key in keys:
        if isinstance(key, bytearray):
            key[0] ^= 1
    for tag, key, (_, _, cell) in zip(taggers, frozen, queries):
        message = f"{TOKEN_LABEL}:5:{cell}".encode("ascii")
        assert tag(5, cell) == hmac_tagger(key)(5, cell) == hmac.digest(key, message, "sha256")


def _tag_lists_digest(precisions):
    """SHA-256 of the tag lists of 200 seeded queries over the Tokyo box,
    the queries' keys taking turns (a bytes key and a bytearray key)."""
    rng = random.Random(f"tag lists {precisions}")
    keys = (rng.randbytes(32), bytearray(rng.randbytes(32)))
    lists = []
    for i in range(200):
        lat, lon = rng.uniform(35.6, 35.8), rng.uniform(139.6, 139.9)
        radius = rng.choice((50.0, 300.0, 1000.0, 3000.0))
        precision, tags = client_tokens(keys[i % 2], lat, lon, radius, precisions)
        lists.append(bytes([precision]) + b"".join(tags))
    return hashlib.sha256(b"".join(lists)).hexdigest()


@pytest.mark.parametrize(
    "precisions, expected",
    [
        ([5], "326531fcb3bb8bac2ab94224d24e29352885a90936d2f18163be6bc4364810b6"),
        ([4, 5, 6, 7], "f6febd23a11e9ac6d01f7bf709158b7d3341b54ea66775a8b532cffa4a8aef54"),
    ],
)
def test_seeded_tag_lists_frozen(precisions, expected):
    # the tags as they were when each query keyed its own HMAC and cut
    # its dummy slots one slice at a time
    assert _tag_lists_digest(precisions) == expected


def _chained(cells):
    """The listing as first written: every cell's drops chained, then
    de-duplicated by id only when the cells are of several precisions."""
    drops = tuple(chain.from_iterable(cell.drops for cell in cells))
    if len({cell.precision for cell in cells}) > 1:
        drops = tuple({drop.id: drop for drop in drops}.values())
    return drops


_POOL = [Drop(f"d{i:02d}", 35.7, 139.7) for i in range(24)]  # cells of several precisions share drops


@given(
    st.lists(
        st.tuples(st.sampled_from([None, 4, 5, 6, 7]), st.sets(st.integers(0, 23)), st.booleans()),
        max_size=16,
    ),
    st.booleans(),
)
@example([(5, {0, 1}, False)], False)
@example([(5, {0, 1}, True)], False)  # a cell listing its drops in a list
@example([(5, {0}, False), (5, {1}, False), (5, {2}, False), (5, {3}, False)], False)
@example([(4, {0, 1}, False), (5, {1}, False)], False)
@settings(max_examples=300, deadline=None)
def test_drops_of_is_the_chained_listing(specs, one_precision):
    cells = []
    for precision, members, as_list in specs:
        drops = [_POOL[i] for i in sorted(members)]
        ids = tuple(d.id for d in drops)
        cells.append(Cell(ids, drops=drops if as_list else tuple(drops), precision=5 if one_precision else precision))
    listed = drops_of(cells)
    assert type(listed) is tuple and listed == _chained(cells)
    if len(cells) == 1 and type(cells[0].drops) is tuple:
        assert listed is cells[0].drops  # one cell's answer is its own tuple, not a copy


def test_cells_are_kept_and_their_roots_computed_once(monkeypatch):
    key = b"\x02" * 32
    drops = gen_uniform_corpus(400, seed=11, bbox=TOKYO)
    built = []

    def counting_tree(ids):
        built.append(list(ids))
        return MerkleTree(ids)

    monkeypatch.setattr(merkle, "MerkleTree", counting_tree)
    index = build_index(key, drops, [5])
    _, tags = client_tokens(key, 35.70, 139.75, 1000.0)
    cells = index.cells(tags)
    assert len(cells) >= 2 and built == []  # neither the build nor a lookup hashes an id
    assert [cell.root for cell in cells] and len(built) == len(cells)
    again = index.cells(tags)
    assert all(a is b for a, b in zip(again, cells, strict=True))  # kept, not remade
    assert [cell.root for cell in again] and len(built) == len(cells)  # nor rehashed
    hit = sorted(tag for tag in set(tags) if tag in index.entries)
    for tag, cell in zip(hit, cells, strict=True):
        assert list(cell.ids) == sorted(index.entries[tag].ids)
        assert cell.root == MerkleTree(sorted(index.entries[tag].ids)).root


def test_cells_are_made_with_the_index_and_a_search_makes_none(monkeypatch):
    # Ids shuffled against drop order: every cell still lists them sorted.
    key = derive_key("search", 0)
    drops = gen_uniform_corpus(400, seed=11, bbox=TOKYO)
    order = random.Random(5).sample(range(len(drops)), len(drops))
    drops = [Drop(f"d{i:06d}", d.lat, d.lon) for i, d in zip(order, drops)]
    index = build_index(key, drops, [5])
    assert all(strictly_sorted(cell.ids) for cell in index.entries.values())
    _, tags = client_tokens(key, 35.70, 139.75, 1000.0)
    cells = index.cells(tags)
    assert len(cells) >= 2
    assert all(any(cell is held for held in index.entries.values()) for cell in cells)

    server, client = protocol_pair(seeded_env(0, drops), MODE_FULL)
    rung = build_variant("V4b", 0, drops=drops)
    made = []

    def counting_cell(*args):
        made.append(args)
        return merkle.Cell(*args)

    monkeypatch.setattr(geoindex, "Cell", counting_cell)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.70, 139.75, 1000.0, T0)
    vses = rung.open_session(T0)
    rung.search(vses, 35.70, 139.75, 1000.0, T0)
    assert len(ses.cells) >= 2 and len(vses.cells) >= 2
    assert made == []


def test_client_tokens_emit_the_cover_budget():
    # Every query sends exactly COVER_BUDGET distinct tags, whatever its
    # radius or cover size, and the same query sends the same list.
    for radius in (50.0, 1000.0, 5000.0):
        precision, tags = client_tokens(bytes(32), 35.7, 139.75, radius)
        assert precision == 5
        assert len(tags) == COVER_BUDGET == 16
        assert len(set(tags)) == COVER_BUDGET
        assert all(len(t) == 32 for t in tags)
        assert client_tokens(bytes(32), 35.7, 139.75, radius) == (precision, tags)


def test_client_tokens_deterministic():
    a = client_tokens(bytes(32), 35.7, 139.75, 1000.0)
    b = client_tokens(bytes(32), 35.7, 139.75, 1000.0)
    assert a == b


def test_index_match_is_sorted_union():
    key = b"\x01" * 32
    drops = [
        Drop("b", 35.70, 139.75),
        Drop("a", 35.70, 139.75),
        Drop("c", 35.75, 139.60),  # different cell
    ]
    index = build_index(key, drops, [5])
    _, tags = client_tokens(key, 35.70, 139.75, 1000.0)
    assert index.match(tags) == ["a", "b"]
    assert index.match([b"\x00" * 32]) == []


# Characters around the places where UTF-8, UTF-16 and code point orders
# could disagree, mixed with the whole Unicode range.
_CHARS = st.one_of(
    st.sampled_from(["a", "\x7f", "\x80", "\u07ff", "\u0800", "\ue000", "\uffff", "\U00010000"]),
    st.characters(),
)


@given(st.lists(st.tuples(st.integers(0, 3), st.text(_CHARS, max_size=3)), max_size=60))
@example([(0, "\uffff"), (1, "\U00010000"), (2, "a"), (3, "a")])
@settings(max_examples=200, deadline=None)
def test_match_order_is_utf8_byte_order(postings):
    # Full-Unicode ids, some under several tags: the union comes back
    # de-duplicated and in UTF-8 byte order.
    index = GeoIndex([5])
    lists = {}
    for tag, drop_id in postings:
        lists.setdefault(bytes([tag]), []).append(drop_id)
    index.entries = {tag: Cell(ids) for tag, ids in lists.items()}  # unsorted, with repeats
    ids = {drop_id for _, drop_id in postings}
    got = index.match([bytes([t]) for t in range(4)])
    # surrogatepass: a lone surrogate encodes in its code point's place
    assert got == sorted(ids, key=lambda s: s.encode("utf-8", "surrogatepass"))


def test_covering_recall_within_radius():
    # any drop within the query radius lands in the cover
    key = b"\x02" * 32
    drops = gen_uniform_corpus(400, seed=11, bbox=TOKYO)
    index = build_index(key, drops, [5])
    qlat, qlon, radius = 35.7, 139.75, 1000.0
    _, tags = client_tokens(key, qlat, qlon, radius)
    got = set(index.match(tags))
    truth = {d.id for d in drops if haversine_m(qlat, qlon, d.lat, d.lon) <= radius}
    assert truth <= got


@given(
    st.floats(min_value=35.61, max_value=35.79),
    st.floats(min_value=139.61, max_value=139.89),
    st.floats(min_value=0.0, max_value=0.008),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
@settings(max_examples=150, deadline=None)
def test_covering_property(lat, lon, offset_deg, angle):
    # drop placed within ~889 m of the query is always inside the cover
    key = b"\x03" * 32
    dlat = offset_deg * math.cos(angle)
    dlon = offset_deg * math.sin(angle) / math.cos(math.radians(lat))
    drop = Drop("d0", lat + dlat, lon + dlon)
    if haversine_m(lat, lon, drop.lat, drop.lon) > 1000.0:
        return
    index = build_index(key, [drop], [5])
    _, tags = client_tokens(key, lat, lon, 1000.0)
    assert index.match(tags) == ["d0"]


# ---------------------------------------------------------------------------
# the integer encoder against bisection, and the cover planner


def _bisect_geohash(lat: float, lon: float, precision: int) -> str:
    """Textbook geohash: halve the lon/lat intervals bit by bit, lon first."""
    alphabet = "0123456789bcdefghjkmnpqrstuvwxyz"
    lat_lo, lat_hi, lon_lo, lon_hi = -90.0, 90.0, -180.0, 180.0
    bits = []
    for i in range(5 * precision):
        if i % 2 == 0:
            mid = (lon_lo + lon_hi) / 2
            bits.append(lon >= mid)
            lon_lo, lon_hi = (mid, lon_hi) if lon >= mid else (lon_lo, mid)
        else:
            mid = (lat_lo + lat_hi) / 2
            bits.append(lat >= mid)
            lat_lo, lat_hi = (mid, lat_hi) if lat >= mid else (lat_lo, mid)
    return "".join(
        alphabet[int("".join("1" if b else "0" for b in bits[i : i + 5]), 2)]
        for i in range(0, len(bits), 5)
    )


@given(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.integers(1, 9))
@example(90.0, 180.0, 9)
@example(-90.0, -180.0, 9)
@example(90.0, -180.0, 1)
@example(-90.0, 180.0, 1)
@example(0.0, -1e-300, 9)
@example(-5e-324, 5e-324, 5)
@settings(max_examples=500, deadline=None)
def test_integer_encoder_matches_bisection(lat, lon, precision):
    assert geohash_encode(lat, lon, precision) == _bisect_geohash(lat, lon, precision)


@given(st.integers(1, 9), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_encoder_matches_bisection_on_cell_edges(precision, data):
    # Points exactly on a dyadic cell edge, and one float either side of it.
    lon_bits, lat_bits = (5 * precision + 1) // 2, 5 * precision // 2
    lon = -180.0 + data.draw(st.integers(0, 1 << lon_bits)) * 360.0 / (1 << lon_bits)
    lat = -90.0 + data.draw(st.integers(0, 1 << lat_bits)) * 180.0 / (1 << lat_bits)
    for dlat in (-math.inf, 0, math.inf):
        for dlon in (-math.inf, 0, math.inf):
            p_lat = lat if dlat == 0 else math.nextafter(lat, dlat)
            p_lon = lon if dlon == 0 else math.nextafter(lon, dlon)
            if -90.0 <= p_lat <= 90.0 and -180.0 <= p_lon <= 180.0:
                assert geohash_encode(p_lat, p_lon, precision) == _bisect_geohash(p_lat, p_lon, precision)


def _bitwise_cell_string(x: int, y: int, precision: int) -> str:
    """Cell (x, y) as bisection spells it: deal out one bit at a time, lon
    first, each axis from its top bit, and read five bits to a character."""
    lon_bits, lat_bits = (5 * precision + 1) // 2, 5 * precision // 2
    bits = []
    for i in range(5 * precision):
        if i % 2 == 0:
            lon_bits -= 1
            bits.append(x >> lon_bits & 1)
        else:
            lat_bits -= 1
            bits.append(y >> lat_bits & 1)
    return "".join(
        GEOHASH_ALPHABET[int("".join(map(str, bits[i : i + 5])), 2)] for i in range(0, len(bits), 5)
    )


@st.composite
def _grid_cell(draw):
    """(x, y, precision) for a precision in 1..12, often a corner or edge cell."""
    precision = draw(st.integers(1, 12))
    nx, ny = 1 << (5 * precision + 1) // 2, 1 << 5 * precision // 2
    x = draw(st.one_of(st.integers(0, nx - 1), st.sampled_from([0, 1, nx // 2 - 1, nx // 2, nx - 2, nx - 1])))
    y = draw(st.one_of(st.integers(0, ny - 1), st.sampled_from([0, 1, ny // 2 - 1, ny // 2, ny - 2, ny - 1])))
    return x, y, precision


@given(_grid_cell())
@example((0, 0, 1))
@example((7, 3, 1))
@example((0, (1 << 30) - 1, 12))
@example(((1 << 30) - 1, 0, 12))
@example(((1 << 30) - 1, (1 << 30) - 1, 12))
@example(((1 << 18) - 1, (1 << 17) - 1, 7))
@settings(max_examples=500, deadline=None)
def test_cell_string_matches_bitwise_bisection(cell):
    x, y, precision = cell
    text = geoindex._cell_string(x, y, precision)
    assert text == _bitwise_cell_string(x, y, precision)
    # and the cell's centre, an exact float, encodes to it by bisection
    lon_bits, lat_bits = (5 * precision + 1) // 2, 5 * precision // 2
    lat = -90.0 + (y + 0.5) * 180.0 / (1 << lat_bits)
    lon = -180.0 + (x + 0.5) * 360.0 / (1 << lon_bits)
    assert text == _bisect_geohash(lat, lon, precision)


def _destination(lat: float, lon: float, dist_m: float, bearing: float) -> tuple[float, float]:
    """The point dist_m along a great circle from (lat, lon), lon in [-180, 180)."""
    phi, delta = math.radians(lat), dist_m / 6_371_000.0
    phi2 = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    dlmb = math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * math.sin(phi2),
    )
    return math.degrees(phi2), (lon + math.degrees(dlmb) + 180.0) % 360.0 - 180.0


_NEAR_ANTIMERIDIAN = st.one_of(
    st.floats(-180.0, 180.0), st.floats(179.9, 180.0), st.floats(-180.0, -179.9)
)


@given(
    st.floats(-89.0, 89.0),
    _NEAR_ANTIMERIDIAN,
    st.floats(50.0, 5000.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi),
    st.sets(st.integers(3, 7), min_size=1),
)
@example(0.0, 180.0, 50.0, 1.0, math.pi / 2, {7})
@example(0.0, -180.0, 50.0, 1.0, -math.pi / 2, {7})
@example(89.0, 179.99, 5000.0, 1.0, 0.0, {3})
@settings(max_examples=400, deadline=None)
def test_cover_recall_every_drop_within_the_radius(lat, lon, radius, frac, bearing, precisions):
    d_lat, d_lon = _destination(lat, lon, frac * radius, bearing)
    assume(haversine_m(lat, lon, d_lat, d_lon) <= radius)
    try:
        _, tags = client_tokens(b"\x05" * 32, lat, lon, radius, precisions)
    except GeoindexError:
        assume(False)  # no indexed precision fits: covered by the exactness property
    index = build_index(b"\x05" * 32, [Drop("d", d_lat, d_lon)], sorted(precisions))
    assert index.match(tags) == ["d"]


def test_cover_wraps_at_the_antimeridian_and_opens_at_the_pole():
    key = b"\x06" * 32
    east = [Drop("e180", 0.0, 180.0), Drop("w180", 0.0, -180.0), Drop("w", 0.0, -179.9996)]
    for precisions in ([5], [7]):
        _, tags = client_tokens(key, 0.0, 179.9998, 100.0, precisions)
        assert build_index(key, east, precisions).match(tags) == ["e180", "w", "w180"]
    # A cap that reaches the pole spans every longitude.
    polar = [Drop("p", 89.99, -170.0)]
    precision, tags = client_tokens(key, 89.99, 10.0, 5000.0, [1, 3])
    assert precision == 1
    assert build_index(key, polar, [1, 3]).match(tags) == ["p"]


def test_cover_reaches_the_widest_point_of_the_cap():
    # The cap's easternmost point lies asin(sin d / cos lat) east of the
    # query, a little more than the planar d / cos lat.  A drop just inside
    # that point and just past a cell edge must still be covered.
    key = b"\x09" * 32
    lat, radius = 60.0, 5000.0
    delta = radius / 6_371_000.0
    half = math.degrees(math.asin(math.sin(delta) / math.cos(math.radians(lat))))
    widest_lat = math.degrees(math.asin(math.sin(math.radians(lat)) / math.cos(delta)))
    edge = -180.0 + 540 * 360.0 / (1 << 10)  # a precision-4 lon cell edge
    lon = edge - half + 2e-9
    drop = Drop("east", widest_lat, edge + 1e-9)
    assert haversine_m(lat, lon, drop.lat, drop.lon) <= radius
    assert geohash_encode(drop.lat, drop.lon, 4) != geohash_encode(drop.lat, edge - 1e-9, 4)
    _, tags = client_tokens(key, lat, lon, radius, [4])
    assert build_index(key, [drop], [4]).match(tags) == ["east"]


@given(
    st.floats(-89.0, 89.0),
    st.floats(-180.0, 180.0),
    st.floats(50.0, 5000.0),
    st.sets(st.integers(1, 9)),
)
@settings(max_examples=300, deadline=None)
def test_cover_never_leaves_the_3x3_block(lat, lon, radius, extra):
    # With the precision the 3x3 rule would pick among those indexed, the
    # planner's cells, at that precision or finer, all lie in its 3x3 block.
    coarse = precision_for_radius(radius, lat)
    precision, _ = client_tokens(b"\x07" * 32, lat, lon, radius, extra | {coarse})
    assert precision >= coarse
    center = geohash_encode(lat, lon, coarse)
    block = {center, *geohash_neighbors(center)}
    assert {c[:coarse] for c in cover_cells(lat, lon, radius, precision)} <= block


@given(
    st.floats(-90.0, 90.0),
    _NEAR_ANTIMERIDIAN,
    st.floats(1.0, 3e6),
    st.sets(st.integers(1, 9), max_size=4),
)
@example(35.7, 139.75, 20000.0, {5})
@example(35.7, 139.75, 1000.0, set())
@settings(max_examples=300, deadline=None)
def test_no_fit_raises_exactly_when_no_indexed_precision_fits(lat, lon, radius, precisions):
    key = b"\x08" * 32
    fits = [p for p in precisions if cover_cells(lat, lon, radius, p) is not None]
    if not fits:
        with pytest.raises(GeoindexError):
            client_tokens(key, lat, lon, radius, precisions)
        return
    precision, tags = client_tokens(key, lat, lon, radius, precisions)
    assert precision == max(fits)
    assert len(tags) == len(set(tags)) == COVER_BUDGET
    cells = cover_cells(lat, lon, radius, precision)
    assert 1 <= len(cells) <= COVER_BUDGET
    assert {hmac_tagger(key)(precision, c) for c in cells} <= set(tags)


# ---------------------------------------------------------------------------
# the tag list: the cover's tags and the dummies of one keyed SHAKE-256 stream


# (lat, lon, radius, index precisions, cover cells, SHA-256 of the joined tags)
_TOKEN_VECTORS = [
    (35.68, 139.70, 50.0, [5], 1, "8ffdd267041fe152d0981f5c0c6f89c63f7c6d65afec402893dc1e40414a39c6"),
    (35.68, 139.70, 300.0, [5], 2, "0d73364aaed6f5d23d8672b149ac845feb64531cdeecb292bc27dd86e50267ef"),
    (35.73, 139.70, 300.0, [5], 4, "11b85f82cfbdf75cb386eb1c25205267ac36f3c8364e52e0dbb85caed8663955"),
    (35.68, 139.72, 50.0, [4, 5, 6, 7], 2, "6c2703591929518e5f316dffb75a6891879603e90823cd3bd1d97bdd2cefecb3"),
]


@pytest.mark.parametrize("lat, lon, radius, precisions, n_cells, expected", _TOKEN_VECTORS)
def test_client_tokens_frozen_vectors(lat, lon, radius, precisions, n_cells, expected):
    # the real tags are the cover's HMACs, as they always were; only the
    # dummies come from the SHAKE-256 stream
    key = bytes(range(32))
    precision, tags = client_tokens(key, lat, lon, radius, precisions)
    cells = cover_cells(lat, lon, radius, precision)
    assert len(cells) == n_cells
    assert {hmac_tagger(key)(precision, c) for c in cells} <= set(tags)
    assert hashlib.sha256(b"".join(tags)).hexdigest() == expected


def _dummies(key, precision, cells):
    """The dummy tags the module docstring states: slots len(cells) to
    COVER_BUDGET - 1 of SHAKE-256 over the pad tag of the first cell."""
    stream = hashlib.shake_256(hmac_tagger(key)(PAD_LABEL, cells[0])).digest(32 * COVER_BUDGET)
    return [stream[32 * i : 32 * i + 32] for i in range(len(cells), COVER_BUDGET)]


@given(
    st.floats(-89.0, 89.0),
    _NEAR_ANTIMERIDIAN,
    st.floats(10.0, 20_000.0),
    st.sets(st.integers(1, 9), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi)), max_size=30),
)
@example(35.7, 139.75, 1000.0, {5}, [(0.1, 0.0)])
@example(35.644, 139.867, 1000.0, {4, 5, 6, 7}, [(0.5, 1.0)])  # 16 cells: no dummy
@settings(max_examples=300, deadline=None)
def test_client_tokens_pad_from_one_keyed_tag(lat, lon, radius, precisions, offsets):
    key = b"\x0a" * 32
    calls = []

    def counting(k):
        def tag(precision, cell):
            calls.append((precision, cell))
            return hmac_tagger(k)(precision, cell)

        return tag

    try:
        precision, tags = client_tokens(key, lat, lon, radius, precisions, tagger=counting)
    except GeoindexError:
        assume(False)  # no indexed precision fits: covered by the exactness property
    cells = cover_cells(lat, lon, radius, precision)
    real = [hmac_tagger(key)(precision, c) for c in cells]
    dummies = _dummies(key, precision, cells)
    assert tags == sorted(real + dummies)
    assert len(set(tags)) == COVER_BUDGET and all(len(t) == 32 for t in tags)
    assert len(calls) == (len(cells) + 1 if len(cells) < COVER_BUDGET else COVER_BUDGET)
    assert client_tokens(key, lat, lon, radius, precisions) == (precision, tags)
    # drops in and around the cap: the dummies hit no index entry
    drops = [Drop(f"d{i}", *_destination(lat, lon, f * radius, b)) for i, (f, b) in enumerate(offsets)]
    index = build_index(key, drops, sorted(precisions))
    assert not any(t in index.entries for t in dummies)
    assert index.cells(tags) == index.cells(real)


# ---------------------------------------------------------------------------
# the two-pass index build against a per-drop, per-precision reference


def _reference_entries(key, drops, precisions, tagger):
    """The index built the direct way: encode and tag every drop at every
    precision, then sort each tag's ids."""
    entries = {}
    for drop in drops:
        for p in sorted(set(precisions)):
            entries.setdefault(tagger(key)(p, geohash_encode(drop.lat, drop.lon, p)), []).append(drop.id)
    return {t: tuple(sorted(ids)) for t, ids in entries.items()}


@st.composite
def _cell_edge_point(draw):
    """A point on a dyadic cell edge of some precision, or one float beside it."""
    p = draw(st.integers(1, 9))
    lon_bits, lat_bits = (5 * p + 1) // 2, 5 * p // 2
    lon = -180.0 + draw(st.integers(0, 1 << lon_bits)) * 360.0 / (1 << lon_bits)
    lat = -90.0 + draw(st.integers(0, 1 << lat_bits)) * 180.0 / (1 << lat_bits)
    lat = math.nextafter(lat, draw(st.sampled_from([-math.inf, 0.0, math.inf]))) if draw(st.booleans()) else lat
    lon = math.nextafter(lon, draw(st.sampled_from([-math.inf, 0.0, math.inf]))) if draw(st.booleans()) else lon
    return min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon))


_INDEX_POINTS = st.one_of(
    st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
    st.tuples(st.floats(35.69, 35.71), st.floats(139.74, 139.76)),  # drops sharing cells
    _cell_edge_point(),
    st.tuples(st.sampled_from([-90.0, 90.0, 0.0]), st.sampled_from([-180.0, 180.0, 0.0])),
)


@st.composite
def _index_drops(draw):
    """Drops at _INDEX_POINTS, with ids in an order unrelated to drop order,
    so an id list that came out in drop order, not id order, fails."""
    points = draw(st.lists(_INDEX_POINTS, max_size=40))
    order = draw(st.permutations(range(len(points))))
    return [Drop(f"d{i:03d}", lat, lon) for i, (lat, lon) in zip(order, points)]


@given(_index_drops(), st.sets(st.integers(1, 9), min_size=1), st.sampled_from([hmac_tagger, plain_tagger]))
@example(
    [Drop("d3", 90.0, 180.0), Drop("d2", -90.0, -180.0), Drop("d1", 90.0, -180.0), Drop("d0", -90.0, 180.0)],
    {1, 2, 9},
    hmac_tagger,
)
@settings(max_examples=300, deadline=None)
def test_build_index_equals_the_per_drop_reference(drops, precisions, tagger):
    key = b"\x09" * 32
    index = build_index(key, drops, sorted(precisions), tagger=tagger)
    assert index.precisions == sorted(precisions)
    assert {t: cell.ids for t, cell in index.entries.items()} == _reference_entries(key, drops, precisions, tagger)


def test_build_index_rejects_out_of_range_points():
    key = b"\x09" * 32
    ok = Drop("ok", 35.7, 139.75)
    for drop, message in (
        (Drop("n", 90.000001, 0.0), "latitude out of range"),
        (Drop("s", -91.0, 0.0), "latitude out of range"),
        (Drop("nan", math.nan, 0.0), "latitude out of range"),
        (Drop("n-inf", math.inf, 0.0), "latitude out of range"),
        (Drop("s-inf", -math.inf, 0.0), "latitude out of range"),
        (Drop("e", 0.0, 180.000001), "longitude out of range"),
        (Drop("w", 0.0, -181.0), "longitude out of range"),
        (Drop("lon-nan", 0.0, math.nan), "longitude out of range"),
        (Drop("e-inf", 0.0, math.inf), "longitude out of range"),
        (Drop("w-inf", 0.0, -math.inf), "longitude out of range"),
    ):
        with pytest.raises(GeoindexError, match=f"^{message}$"):
            build_index(key, [ok, drop], [4, 5, 6, 7])
        # the build's inline pre-filter and the point rule itself refuse alike
        with pytest.raises(GeoindexError, match=f"^{message}$"):
            geohash_encode(drop.lat, drop.lon, 5)


def test_build_index_names_the_first_bad_drop_in_id_order_latitude_first():
    key = b"\x09" * 32
    bad = [
        Drop("d4", 35.7, math.nan),  # longitude only
        Drop("d2", math.nan, 139.75),  # latitude only
        Drop("d1", 91.0, 181.0),  # both: latitude is checked first
        Drop("d3", -math.inf, -181.0),
        Drop("d0", 35.7, 139.75),  # fine
    ]
    for first, message in (("d1", "latitude"), ("d2", "latitude"), ("d3", "latitude"), ("d4", "longitude")):
        drops = [d for d in bad if d.id == "d0" or d.id >= first]
        with pytest.raises(GeoindexError, match=f"^{message} out of range$"):
            build_index(key, drops, [5])
        # the first bad drop in id order decides, whatever the list order
        with pytest.raises(GeoindexError, match=f"^{message} out of range$"):
            build_index(key, drops[::-1], [4, 5, 6, 7])


@given(_cell_edge_point(), st.sets(st.integers(1, 9), min_size=1, max_size=3))
@example((90.0, 180.0), {9})
@example((-90.0, -180.0), {9})
@example((math.nextafter(90.0, 0.0), math.nextafter(180.0, 0.0)), {1, 9})
@example((math.nextafter(-90.0, 0.0), math.nextafter(-180.0, 0.0)), {1, 9})
@example((90.0, -180.0), {5})
@example((-90.0, 180.0), {5})
@example((0.0, -0.0), {9})
@settings(max_examples=300, deadline=None)
def test_build_files_each_drop_under_the_axis_cell(point, precisions):
    # the build's inline cell is _axis_cell's at every level, on and beside edges
    lat, lon = point
    index = build_index(b"", [Drop("d", lat, lon)], sorted(precisions), tagger=plain_tagger)
    expected = set()
    for p in precisions:
        lon_bits, lat_bits = (5 * p + 1) // 2, 5 * p // 2
        x = geoindex._axis_cell(lon, -180.0, 360.0, lon_bits)
        y = geoindex._axis_cell(lat, -90.0, 180.0, lat_bits)
        expected.add(f"{p}:{geoindex._cell_string(x, y, p)}".encode())
    assert set(index.entries) == expected


def test_build_index_of_no_drops_is_empty():
    index = build_index(b"\x09" * 32, [], [7, 5])
    assert index.entries == {} and index.precisions == [5, 7]
    assert index.match([hmac_tagger(b"\x09" * 32)(5, "xn77h")]) == []


def test_build_index_frozen_digest():
    # SHA-256 of the sorted (tag, ids) dump of a 2,000-drop [4,5,6,7] index,
    # as the per-drop build wrote it.
    index = build_index(bytes(range(32)), gen_uniform_corpus(2000, 11), [4, 5, 6, 7])
    dump = b"".join(
        tag.hex().encode() + b"\t" + ",".join(cell.ids).encode() + b"\n" for tag, cell in sorted(index.entries.items())
    )
    assert len(index.entries) == 2853
    assert hashlib.sha256(dump).hexdigest() == "f50f37cc91754a6b2d6377f1ab3ca288d9706f9d7a9528fd6c0a980b68b946e4"


def test_corpus_round_trip(tmp_path):
    # coordinates are stored at 7 decimals (about 1 cm), ids exactly
    drops = gen_uniform_corpus(50, seed=3, bbox=TOKYO)
    path = tmp_path / "corpus.tsv"
    save_corpus(str(path), drops)
    back = load_corpus(str(path))
    assert [d.id for d in back] == [d.id for d in drops]
    for got, want in zip(back, drops):
        assert got.lat == pytest.approx(want.lat, abs=5e-8)
        assert got.lon == pytest.approx(want.lon, abs=5e-8)
    save_corpus(str(path), back)
    assert load_corpus(str(path)) == back


def test_generated_corpora_and_unusual_valid_ids_round_trip(tmp_path):
    path = tmp_path / "corpus.tsv"
    odd = [Drop(i, 35.7, 139.75) for i in (" a", "a ", "x#", "a b", "é", "\U00010000", "a\x85", "-")]
    for drops in (gen_clustered_corpus(500, seed=3), odd):
        save_corpus(str(path), drops)
        back = load_corpus(str(path))
        assert [d.id for d in back] == [d.id for d in drops]
        for got, want in zip(back, drops):
            assert got.lat == pytest.approx(want.lat, abs=5e-8)
            assert got.lon == pytest.approx(want.lon, abs=5e-8)


# Each id the loader would change ("#b" comes back as a comment) or refuse
# (the rest make the file unloadable).
@pytest.mark.parametrize(
    "drop_id, why",
    [
        ("#b", "comment"),
        ("", "empty"),
        ("a\tb", "TAB"),
        ("a\nb", "LF"),
        ("a\rb", "CR"),
        ("\ud800", "UTF-8"),
        ("ok", "duplicate"),
    ],
)
def test_save_corpus_refuses_an_id_it_cannot_write_back(tmp_path, drop_id, why):
    path = tmp_path / "corpus.tsv"
    drops = [Drop("ok", 35.7, 139.75), Drop(drop_id, 35.71, 139.76)]
    with pytest.raises(CorpusError, match=why) as raised:
        save_corpus(str(path), drops)
    assert repr(drop_id) in str(raised.value)
    assert not path.exists()  # refused before anything is written


def test_save_corpus_refuses_a_coordinate_the_loader_refuses(tmp_path):
    path = tmp_path / "corpus.tsv"
    for lat, lon in ((math.nan, 0.0), (90.5, 0.0), (0.0, -181.0)):
        with pytest.raises(CorpusError, match="'d1'"):
            save_corpus(str(path), [Drop("d1", lat, lon)])
    assert not path.exists()


def test_corpus_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\nd1\t35.7\t139.75\n\nd2\t35.71\t139.76\n")
    assert [d.id for d in load_corpus(str(path))] == ["d1", "d2"]


def test_corpus_ids_keep_their_whitespace_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\n \t \n a \t35.7\t139.75\n\t\n\x0bb\t35.71\t139.76")
    assert [d.id for d in load_corpus(str(path))] == [" a ", "\x0bb"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("d1\t35.7\t139.75\nd1\t35.71\t139.76\n", "line 2: duplicate drop id 'd1'"),
        ("# header\nd1\t91.0\t139.75\n", "line 2: coordinate out of range"),
        ("d1\t35.7\t-180.5\n", "line 1: coordinate out of range"),
        ("d1\tnan\t139.75\n", "line 1: coordinate out of range"),
    ],
    ids=["duplicate", "latitude", "longitude", "nan"],
)
def test_corpus_names_the_line_of_a_duplicate_or_off_globe_drop(tmp_path, text, message):
    path = tmp_path / "c.tsv"
    path.write_text(text)
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_corpus(str(path))


def test_corpus_rejects_an_empty_id_with_its_line_number(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\nd1\t35.7\t139.75\n\t35.71\t139.76\n")
    with pytest.raises(CorpusError, match="^line 3: empty drop id$"):
        load_corpus(str(path))


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_an_id_that_is_not_utf8_fails_at_index_build(mode):
    # a lone surrogate can be neither leaf-hashed nor digested: the build
    # names it instead of every search of its cell (full) or its unlock
    # (core) failing later
    drops = [Drop("ok", 35.7, 139.75), Drop("\ud800", 35.7, 139.75), Drop("z", 35.7, 139.75)]
    env = seeded_env(0, drops)
    with pytest.raises(GeoindexError, match=re.escape(repr("\ud800"))):
        protocol_pair(env, mode)
    for kind in ("V1", "V4a", "V4b"):
        with pytest.raises(GeoindexError, match=re.escape(repr("\ud800"))):
            make_variant(kind, env)


# The drop-id rule, restated char by char as the reference: (why, refused).
_RULE_REFERENCE = (
    ("TAB, CR or LF", lambda i: any(c in i for c in "\t\r\n")),
    ("empty", lambda i: not i),
    ("comment", lambda i: i.startswith("#")),
    ("UTF-8", lambda i: any("\ud800" <= c <= "\udfff" for c in i)),
)
_EDGY_CHARS = st.sampled_from(["a", "b", "#", "\n", "\t", "\r", " ", "\x85", "\u2028", "\ud800", "\udfff", "é"])
_ANY_ID = st.text(_EDGY_CHARS | st.characters(), max_size=4)
# an id the rule accepts (other than "zz", the corpus's other id), and one
# it refuses for each of its reasons
_GOOD_ID = st.text(
    st.sampled_from(["a", "#", " ", "\x0b", "\x85", "\u2028", "é"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
).filter(lambda i: not i.startswith("#") and i != "zz")
_BAD_ID = st.one_of(
    st.just(""),
    st.text(max_size=3).map(lambda t: "#" + t),
    st.tuples(st.text(max_size=3), st.sampled_from(["\t", "\n", "\r", "\ud800", "\udfff"]), st.text(max_size=3)).map(
        "".join
    ),
)


@given(st.lists(_ANY_ID, max_size=8))
@example(["#"])
@example(["a\n"])
@example(["\n"])
@example(["b", "\n", "a#"])
@example(["a", "", "b"])
@example(["\n", ""])
@example([])
@settings(max_examples=300, deadline=None)
def test_one_pass_refuses_exactly_when_an_id_is_refused_and_names_the_first(ids):
    refused = sorted(i for i in ids if any(bad(i) for _, bad in _RULE_REFERENCE))
    if not refused:
        check_ids(ids)
        return
    with pytest.raises(CorpusError) as raised:
        check_ids(ids)
    why = next(why for why, bad in _RULE_REFERENCE if bad(refused[0]))
    assert str(raised.value).startswith(f"drop id {refused[0]!r} ") and why in str(raised.value)


REFUSED_IDS = {"empty": "", "tab": "a\tb", "lf": "a\nb", "cr": "a\rb", "comment": "#b", "surrogate": "\ud800"}


@pytest.mark.parametrize("drop_id", REFUSED_IDS.values(), ids=REFUSED_IDS)
def test_every_door_refuses_an_id_the_rule_refuses_naming_it(tmp_path, drop_id):
    drops = [Drop("ok", 35.7, 139.75), Drop(drop_id, 35.7001, 139.7501)]
    env = seeded_env(0, drops)
    server_keys = (env.search_key, env.signing_key, env.verifying_key)
    doors = [
        partial(build_index, env.search_key, drops, [5]),
        *(partial(SbppServer, drops, *server_keys, mode=mode) for mode in (MODE_CORE, MODE_FULL)),
        *(partial(make_variant, kind, env) for kind in VARIANT_KINDS),
        partial(save_corpus, str(tmp_path / "c.tsv"), drops),
    ]
    for door in doors:
        with pytest.raises(CorpusError, match=f"^drop id {re.escape(repr(drop_id))} "):
            door()
    assert not (tmp_path / "c.tsv").exists()


@given(_BAD_ID)
@settings(max_examples=100, deadline=None)
def test_a_refused_id_is_named_where_drops_enter(tmp_path_factory, drop_id):
    drops = [Drop("ok", 35.7, 139.75), Drop(drop_id, 35.7001, 139.7501)]
    path = tmp_path_factory.getbasetemp() / "refused.tsv"
    for door in (partial(build_index, b"\x09" * 32, drops, [5]), partial(save_corpus, str(path), drops)):
        with pytest.raises(CorpusError, match=f"^drop id {re.escape(repr(drop_id))} "):
            door()


@given(_GOOD_ID)
@example(" ")
@example("a#")
@example("\x85")
@example("\U00010000")
@settings(max_examples=50, deadline=None)
def test_an_accepted_id_round_trips_its_file_and_serves_search_unlock_and_audit(tmp_path_factory, drop_id):
    path = tmp_path_factory.getbasetemp() / "accepted.tsv"
    save_corpus(str(path), [Drop(drop_id, 35.7, 139.75), Drop("zz", 35.7001, 139.7501)])
    drops = load_corpus(str(path))
    assert [d.id for d in drops] == [drop_id, "zz"]
    for mode in (MODE_CORE, MODE_FULL):
        server, client = protocol_pair(seeded_env(0, drops), mode)
        ses = client.open_session(server, T0)
        client.search(server, ses, 35.7, 139.75, 1000.0, T0)
        assert drop_id in ses.result_ids()
        request = client.build_unlock(ses, drop_id, nizk.Witness(35.7, 139.75))
        assert server.verify(request, T0 + 1).accepted
        record = AuditRecord.parse(emit_audit_record(ses, request).serialize())
        # a core record carries no membership path, so only a full one attests
        outcome = audit(server.public_key_bytes, server.nizk_vk, record)
        want = (True, None) if mode == MODE_FULL else (False, R_MERKLE_INVALID)
        assert (outcome.accepted, outcome.fail_reason) == want


def test_corpus_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("d1\t35.7\n")
    with pytest.raises(CorpusError):
        load_corpus(str(path))
    path.write_text("d1\tnorth\t139.75\n")
    with pytest.raises(CorpusError):
        load_corpus(str(path))


def test_gen_uniform_corpus_deterministic_and_bounded():
    a = gen_uniform_corpus(100, seed=5, bbox=TOKYO)
    b = gen_uniform_corpus(100, seed=5, bbox=TOKYO)
    assert a == b
    assert gen_uniform_corpus(100, seed=6, bbox=TOKYO) != a
    assert len({d.id for d in a}) == 100
    lat_lo, lat_hi, lon_lo, lon_hi = TOKYO
    for d in a:
        assert lat_lo <= d.lat <= lat_hi
        assert lon_lo <= d.lon <= lon_hi


def test_gen_clustered_corpus_in_bbox():
    drops = gen_clustered_corpus(200, seed=5, bbox=TOKYO)
    assert len(drops) == 200
    lat_lo, lat_hi, lon_lo, lon_hi = TOKYO
    for d in drops:
        assert lat_lo <= d.lat <= lat_hi
        assert lon_lo <= d.lon <= lon_hi
