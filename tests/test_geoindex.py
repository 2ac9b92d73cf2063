"""Geohash encoding, covering-cell queries, and the encrypted index."""

import hashlib
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbpp.geoindex import (
    COVER_BUDGET,
    CorpusError,
    Drop,
    GeoIndex,
    GeoindexError,
    build_index,
    cell_dimensions_m,
    client_tokens,
    cover_cells,
    gen_clustered_corpus,
    gen_uniform_corpus,
    geohash_decode_bbox,
    geohash_encode,
    geohash_neighbors,
    haversine_m,
    load_corpus,
    make_token,
    plain_tag,
    precision_for_radius,
    save_corpus,
)

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


def test_precision_for_radius_monotone():
    last = 10
    for radius in (1, 10, 100, 1000, 10000, 100000, 1e6):
        p = precision_for_radius(radius)
        assert p <= last
        last = p
    with pytest.raises(GeoindexError):
        precision_for_radius(0)


def test_cell_dimensions_shrink_with_precision():
    for p in range(1, 9):
        assert min(cell_dimensions_m(p, 35.7)) > min(cell_dimensions_m(p + 1, 35.7))


def test_haversine_known_distance():
    # 0.01 degrees of latitude on the reference sphere
    assert haversine_m(0.0, 0.0, 0.01, 0.0) == pytest.approx(1111.9492664455875, abs=1e-6)
    assert haversine_m(35.7, 139.75, 35.7, 139.75) == 0.0


def test_make_token_frozen_vector():
    tag = make_token(bytes(32), 5, "xn76u")
    assert tag.hex() == "174f3fb62f6a4c202c6a33228d4e480573c4cfe16449b96b9737080933c87828"
    with pytest.raises(GeoindexError):
        make_token(b"short", 5, "xn76u")


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
    for tag, drop_id in postings:
        index.entries.setdefault(bytes([tag]), []).append(drop_id)
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
    assert {make_token(key, precision, c) for c in cells} <= set(tags)


# ---------------------------------------------------------------------------
# the two-pass index build against a per-drop, per-precision reference


def _reference_entries(key, drops, precisions, tag):
    """The index built the direct way: encode and tag every drop at every
    precision, appending ids in drop order."""
    entries = {}
    for drop in drops:
        for p in sorted(set(precisions)):
            entries.setdefault(tag(key, p, geohash_encode(drop.lat, drop.lon, p)), []).append(drop.id)
    return entries


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
    so an id list that came out in id order, not drop order, fails."""
    points = draw(st.lists(_INDEX_POINTS, max_size=40))
    order = draw(st.permutations(range(len(points))))
    return [Drop(f"d{i:03d}", lat, lon) for i, (lat, lon) in zip(order, points)]


@given(_index_drops(), st.sets(st.integers(1, 9), min_size=1), st.sampled_from([make_token, plain_tag]))
@example(
    [Drop("d3", 90.0, 180.0), Drop("d2", -90.0, -180.0), Drop("d1", 90.0, -180.0), Drop("d0", -90.0, 180.0)],
    {1, 2, 9},
    make_token,
)
@settings(max_examples=300, deadline=None)
def test_build_index_equals_the_per_drop_reference(drops, precisions, tag):
    key = b"\x09" * 32
    index = build_index(key, drops, sorted(precisions), tag=tag)
    assert index.precisions == sorted(precisions)
    assert index.entries == _reference_entries(key, drops, precisions, tag)


def test_build_index_rejects_out_of_range_points():
    key = b"\x09" * 32
    ok = Drop("ok", 35.7, 139.75)
    for drop, message in (
        (Drop("n", 90.000001, 0.0), "latitude out of range"),
        (Drop("s", -91.0, 0.0), "latitude out of range"),
        (Drop("nan", math.nan, 0.0), "latitude out of range"),
        (Drop("e", 0.0, 180.000001), "longitude out of range"),
        (Drop("w", 0.0, -181.0), "longitude out of range"),
    ):
        with pytest.raises(GeoindexError, match=f"^{message}$"):
            build_index(key, [ok, drop], [4, 5, 6, 7])


def test_build_index_of_no_drops_is_empty():
    index = build_index(b"\x09" * 32, [], [7, 5])
    assert index.entries == {} and index.precisions == [5, 7]
    assert index.match([make_token(b"\x09" * 32, 5, "xn77h")]) == []


def test_build_index_frozen_digest():
    # SHA-256 of the sorted (tag, ids) dump of a 2,000-drop [4,5,6,7] index,
    # as the per-drop build wrote it.
    index = build_index(bytes(range(32)), gen_uniform_corpus(2000, 11), [4, 5, 6, 7])
    dump = b"".join(
        tag.hex().encode() + b"\t" + ",".join(ids).encode() + b"\n" for tag, ids in sorted(index.entries.items())
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


def test_corpus_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\nd1\t35.7\t139.75\n\nd2\t35.71\t139.76\n")
    assert [d.id for d in load_corpus(str(path))] == ["d1", "d2"]


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
