"""Encrypted geographic discovery over geohash cells.

Drops are indexed under HMAC tags of their geohash cells at one or more
precisions.  A querying client covers its search circle with cells at one of
the index's own precisions, pads the tag list to a fixed length with dummy
tags, and the server intersects tag sets without ever seeing a coordinate or
cell string.  Anyone holding the search key can reproduce the tags, so the
key is the query capability.

A cell is an integer pair (x, y): x counts lon steps of 360 / 2**lon_bits
east of -180, y counts lat steps of 180 / 2**lat_bits north of -90, exactly
the cell that geohash bisection lands in.  Its string interleaves the bits of
x and y, longitude first, five to a base-32 character.

The index is built in two passes.  The first computes each drop's cell once,
at the finest indexed precision, and takes every coarser precision's cell by
shifting: bisection is a prefix, so fewer bits are the top bits of more, and
the coarser cell is (x >> dx, y >> dy) for the difference dx, dy in lon and
lat bits.  A drop costs no function call when it is in range and its
quotient cell is bracketed by that cell's exact edges, the rule that defines
the cell; `_check_point`, the package's one point rule (`canon.off_globe`)
as a GeoindexError, runs only to raise, and `_axis_cell`, the one
definition, only to repair a quotient (see `build_index`).  The second
derives one tag per distinct (precision, cell), so the HMACs a build makes
scale with the cells the corpus occupies, not its drops.

A cell's string is read from a table of the 1,024 character pairs, each 5
lon and 5 lat bits, with no loop per character (`_cell_string`).

The cover is recall-first: for each indexed precision, finest first, take the
cells that meet the bounding box of the spherical cap of the radius, and keep
the first precision whose cover has at most COVER_BUDGET cells.  Every point
within the radius lies in that box, so it lands in the cover; a radius no
indexed precision can cover within the budget is a GeoindexError, never an
empty answer.  Every query sends COVER_BUDGET tags, so the tag count does
not reveal the radius; the number of tags that hit the index (the non-empty
cover cells) does.

The index is a map from tag to `Cell` (see sbpp.merkle), one per (precision,
cell), made by the build with its ids sorted and its drops beside them in
the same order: pass 1 visits the drops in id order, so each cell's ids come
out sorted without sorting any cell.  A query gets the cells it hit, in tag
order, as the index holds them, and those cells are its result: the server
answers with them, and the client lists their drops cell after cell
(`drops_of`), as the studies do; a one-cell answer is that cell's own
drops tuple, not a copy.  `GeoIndex.match`, the sorted union of their ids,
is the tests' reference and `protocol_latency_bench`'s timed match.
A cell's Merkle root is computed on its first use in a commitment and kept,
so a build hashes no id and a search hashes only cells never committed
before.

A drop id is non-empty, holds no TAB, CR or LF, does not start with '#' and
encodes to UTF-8 (`canon.encodable`): exactly what a corpus file line holds
as an id and gives back unchanged, and what a leaf hash and a proof digest
can take.  The rule has one home, the table `_ID_RULE` that `check_ids`
runs, and every door a drop comes in by applies it: `build_index` (so
every server, rung, study and CLI command, an index file's drops included),
and `check_corpus`, which `save_corpus` calls.  `load_corpus` refuses a bad
line by its number.
There is no length cap: `canon.lp_encode` frames up to 2**32 - 1 bytes, the
client's tree memo charges by bytes and a corpus file has no line limit.

Tags are HMAC-SHA-256 (RFC 2104), from the package's one keyed-once kernel,
`canon.hmac_sha256`, keyed once per search key: `hmac_tagger` asks it for
the key's state with the tags' fixed head absorbed, which it prepares on
the key's first use and keeps, as it does the proof and MAC keys'.  So a
build keys at most once and a query not at all.  Only the key's state is
kept: every tag is computed again from its cell.  A tagger maps a search
key to its cell-tag function, and the index and the queries take the same
one: `hmac_tagger` by default, `plain_tagger` (the cell string itself) for
the plaintext baseline.

A query's dummy tags cost one keyed tag, not one each.  The tag of
(PAD_LABEL, first cover cell) seeds a SHAKE-256 stream, and the dummy in slot
i, for each i from the cover's size to COVER_BUDGET - 1, is the stream's bytes
[32i, 32i + 32), all slots cut in one precompiled unpack.  A dummy is XOF
output over a PRF output under the search key, so without the key the
server can no more tell it from a real tag, or predict it, than it could an
HMAC of its own.  Two queries share the dummy in slot i exactly when they
share their first cell and both pad slot i, the rule a keyed tag of
"{first cell}:{i}" per slot gives, so the dummies link two queries only
where their first cells already do.  A query of
n < COVER_BUDGET cells makes n + 1 keyed tags.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .canon import EARTH_RADIUS_M, encodable, hmac_sha256, off_globe, strictly_sorted
from .merkle import Cell

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_INDEX = {c: i for i, c in enumerate(GEOHASH_ALPHABET)}

TOKEN_LABEL = "gridse:index"
PAD_LABEL = "pad"  # in the precision slot of the tag seeding a query's dummies; no index entry uses it
COVER_BUDGET = 16  # tags per query: the cover's cells, then dummies
DEFAULT_PRECISIONS = (5,)  # of an index built without a choice
MIN_PRECISION = 1
MAX_PRECISION = 9
MAX_GEOHASH_PRECISION = 12

_M_PER_DEG = math.pi / 180.0 * EARTH_RADIUS_M
# Relative widening of the cover's box, far above the float rounding of the
# trigonometry and far below a cell.
_COVER_MARGIN = 1e-7


class GeoindexError(ValueError):
    pass


class CorpusError(GeoindexError):
    """A drop a corpus file cannot hold, named by its id, or a malformed
    corpus file, named by its line."""


@dataclass(frozen=True)
class Drop:
    id: str
    lat: float
    lon: float


# ---------------------------------------------------------------------------
# geohash cells as integer (x, y)


def _spread(v: int) -> int:
    """The bits of v moved apart: bit i goes to bit 2i."""
    return sum(((v >> i) & 1) << (2 * i) for i in range(v.bit_length()))


# Two characters carry 5 lon bits and 5 lat bits, lon first: _PAIRS[x << 5 | y]
# for the 5-bit slices x and y.
_PAIRS = tuple(
    GEOHASH_ALPHABET[v >> 5] + GEOHASH_ALPHABET[v & 31]
    for v in (_spread(x) << 1 | _spread(y) for x in range(32) for y in range(32))
)
# (lon, lat) shifts per precision that pad a cell's bits to 15 each (three
# pairs) up to precision 6, and to 30 each (six pairs) up to 12.
_PADS = (None,) + tuple(
    (bits - (5 * p + 1) // 2, bits - 5 * p // 2)
    for p in range(1, MAX_GEOHASH_PRECISION + 1)
    for bits in [15 if p <= 6 else 30]
)


def _grid_bits(precision: int) -> tuple[int, int]:
    """(lon_bits, lat_bits): five bits per character, longitude first."""
    if not MIN_PRECISION <= precision <= MAX_GEOHASH_PRECISION:
        raise GeoindexError("precision out of range")
    bits = 5 * precision
    return (bits + 1) // 2, bits // 2


def _axis_cell(v: float, lo: float, span: float, bits: int) -> int:
    """The cell along one axis that bisection puts v in: the largest k with
    lo + k * step <= v, the last cell for v at the top edge.  Cell edges are
    exact floats, so comparing v against them repairs the division's rounding."""
    n = 1 << bits
    step = span / n
    k = min(int((v - lo) / step), n - 1)
    if v < lo + k * step:
        return k - 1
    if k + 1 < n and v >= lo + (k + 1) * step:
        return k + 1
    return k


def _check_point(lat: float, lon: float) -> None:
    axis = off_globe(lat, lon)
    if axis:
        raise GeoindexError(f"{axis} out of range")


def _cell_string(x: int, y: int, precision: int) -> str:
    """The geohash of cell (x, y) at the given precision, which must be in
    range: the first ``precision`` characters of the string of its
    south-west descendant whose bits fill three pairs (precision 6), or six
    (precision 12)."""
    lon_pad, lat_pad = _PADS[precision]
    x <<= lon_pad
    y <<= lat_pad
    s = f"{_PAIRS[x >> 5 & 992 | y >> 10 & 31]}{_PAIRS[x & 992 | y >> 5 & 31]}{_PAIRS[x << 5 & 992 | y & 31]}"
    if precision > 6:
        s = (
            f"{_PAIRS[x >> 20 & 992 | y >> 25]}{_PAIRS[x >> 15 & 992 | y >> 20 & 31]}"
            f"{_PAIRS[x >> 10 & 992 | y >> 15 & 31]}{s}"
        )
    return s[:precision]


def geohash_encode(lat: float, lon: float, precision: int) -> str:
    _check_point(lat, lon)
    lon_bits, lat_bits = _grid_bits(precision)
    x = _axis_cell(lon, -180.0, 360.0, lon_bits)
    return _cell_string(x, _axis_cell(lat, -90.0, 180.0, lat_bits), precision)


def _cell_xy(cell: str) -> tuple[int, int]:
    """The (x, y) of a geohash string: its bits dealt out, lon first."""
    if not cell:
        raise GeoindexError("empty geohash")
    _grid_bits(len(cell))
    xy = [0, 0]
    for i, c in enumerate(cell):
        if c not in _CHAR_INDEX:
            raise GeoindexError(f"invalid geohash character {c!r}")
        v = _CHAR_INDEX[c]
        for j in range(5):
            axis = (5 * i + j) & 1  # 0: lon, 1: lat
            xy[axis] = xy[axis] << 1 | (v >> (4 - j)) & 1
    return xy[0], xy[1]


def geohash_decode_bbox(cell: str) -> tuple[float, float, float, float]:
    """(lat_min, lat_max, lon_min, lon_max) of the cell."""
    x, y = _cell_xy(cell)
    lon_bits, lat_bits = _grid_bits(len(cell))
    dlat, dlon = 180.0 / (1 << lat_bits), 360.0 / (1 << lon_bits)
    return (-90.0 + y * dlat, -90.0 + (y + 1) * dlat, -180.0 + x * dlon, -180.0 + (x + 1) * dlon)


def geohash_neighbors(cell: str) -> list[str]:
    """The up-to-8 adjacent cells at the same precision.

    Longitude wraps at the antimeridian; rows past the poles are dropped, so
    polar cells have fewer than 8 neighbors.
    """
    x, y = _cell_xy(cell)
    p = len(cell)
    lon_bits, lat_bits = _grid_bits(p)
    return [
        _cell_string((x + dx) % (1 << lon_bits), y + dy, p)
        for dy in (-1, 0, 1)
        if 0 <= y + dy < 1 << lat_bits
        for dx in (-1, 0, 1)
        if dx or dy
    ]


def cell_dimensions_m(precision: int, lat: float) -> tuple[float, float]:
    """(height, width) in meters of a cell at the given precision and latitude."""
    lon_bits, lat_bits = _grid_bits(precision)
    height = (180.0 / (1 << lat_bits)) * _M_PER_DEG
    width = (360.0 / (1 << lon_bits)) * _M_PER_DEG * math.cos(math.radians(abs(lat)))
    return (height, width)


def precision_for_radius(radius_m: float, lat: float = 35.7) -> int:
    """Largest precision whose min cell dimension still covers the radius.

    Clamped to [1, 9].  The query cell at this precision is the plaintext
    latency baseline's; its 3x3 neighborhood holds every point within
    radius_m of the query, up to the curvature the planar width leaves out.
    """
    if not radius_m > 0:  # false for NaN too
        raise GeoindexError("radius must be positive")
    best = MIN_PRECISION
    for p in range(MIN_PRECISION, MAX_PRECISION + 1):
        if min(cell_dimensions_m(p, lat)) >= radius_m:
            best = p
    return best


def cover_cells(lat: float, lon: float, radius_m: float, precision: int) -> list[str] | None:
    """The cells at ``precision`` that meet the bounding box of the spherical
    cap of ``radius_m`` around (lat, lon), row by row from the south; None
    when there are more than COVER_BUDGET of them."""
    _check_point(lat, lon)
    if not radius_m > 0:
        raise GeoindexError("radius must be positive")
    lon_bits, lat_bits = _grid_bits(precision)
    delta = radius_m / EARTH_RADIUS_M * (1.0 + _COVER_MARGIN)  # cap radius, radians
    lat_lo, lat_hi = lat - math.degrees(delta), lat + math.degrees(delta)
    y_lo = _axis_cell(max(lat_lo, -90.0), -90.0, 180.0, lat_bits)
    rows = _axis_cell(min(lat_hi, 90.0), -90.0, 180.0, lat_bits) - y_lo + 1
    n = 1 << lon_bits
    ratio = 1.0 if lat_lo <= -90.0 or lat_hi >= 90.0 else math.sin(delta) / math.cos(math.radians(lat))
    if ratio >= 1.0:  # the cap reaches a pole: every longitude
        x_lo, cols = 0, n
    else:
        half = math.degrees(math.asin(ratio))  # at most 90, so the box wraps at most once
        west, east = lon - half, lon + half
        if west <= -180.0:
            west += 360.0
        elif east >= 180.0:
            east -= 360.0
        x_lo = _axis_cell(west, -180.0, 360.0, lon_bits)
        cols = (_axis_cell(east, -180.0, 360.0, lon_bits) - x_lo) % n + 1
    if rows * cols > COVER_BUDGET:
        return None
    return [
        _cell_string((x_lo + i) % n, y, precision) for y in range(y_lo, y_lo + rows) for i in range(cols)
    ]


# ---------------------------------------------------------------------------
# distances


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on the reference sphere; ground truth for recall."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


# ---------------------------------------------------------------------------
# tokens and index


_TOKEN_HEAD = f"{TOKEN_LABEL}:".encode("ascii")  # every cell tag's message starts so


def hmac_tagger(key: bytes) -> Callable[[int | str, str], bytes]:
    """The cell tags under ``key``, HMAC-SHA-256 keyed once per key, with
    the tags' fixed head absorbed (`canon.hmac_sha256` keeps the key's
    state): the index's default tagger.  A tag is the only thing the server
    ever sees of a cell; a dummy tag puts PAD_LABEL in the precision slot."""
    if len(key) != 32:
        raise GeoindexError("search key must be 32 bytes")
    mac = hmac_sha256(key, _TOKEN_HEAD)

    def token(precision: int | str, cell: str) -> bytes:
        return mac(f"{precision}:{cell}".encode("ascii"))

    return token


def plain_tagger(key: bytes) -> Callable[[int | str, str], bytes]:
    """The cell itself as the tag, whatever the key: the plaintext-search
    baseline (V1 of sbpp.variants)."""
    return lambda precision, cell: f"{precision}:{cell}".encode("ascii")


_SLOTS = struct.Struct("32s" * COVER_BUDGET)  # a query's tag slots, cut from the pad stream at once


def client_tokens(
    key: bytes,
    lat: float,
    lon: float,
    radius_m: float,
    precisions: Iterable[int] = DEFAULT_PRECISIONS,
    tagger=hmac_tagger,
) -> tuple[int, list[bytes]]:
    """Token set for a proximity query: the cover at the finest of the
    index's ``precisions`` that fits in COVER_BUDGET cells, one tag per
    cell from ``tagger(key)``, padded with 32-byte dummy tags to exactly
    COVER_BUDGET and sorted.  A tagger maps a search key to the function
    from (precision, cell) to the cell's tag: ``hmac_tagger``, or
    ``plain_tagger`` for the plaintext baseline.

    The dummies are slots n to COVER_BUDGET - 1 of one SHAKE-256 stream
    seeded with the tag of (PAD_LABEL, <first cell>) (module docstring), so
    a cover of n < COVER_BUDGET cells makes n + 1 tags.

    Returns (precision, tags).  Deterministic, so identical queries emit
    byte-identical tag lists regardless of which protocol variant sends them.
    ``tagger`` must be the one the index was built with.  Raises
    GeoindexError when no indexed precision fits.
    """
    for precision in sorted(precisions, reverse=True):
        cells = cover_cells(lat, lon, radius_m, precision)
        if cells is not None:
            break
    else:
        raise GeoindexError(
            f"radius {radius_m:g} m has no cover of at most {COVER_BUDGET} cells "
            f"at precisions {sorted(precisions)}"
        )
    tag_of = tagger(key)
    tags = [tag_of(precision, c) for c in cells]
    if len(tags) < COVER_BUDGET:
        pad = hashlib.shake_256(tag_of(PAD_LABEL, cells[0])).digest(_SLOTS.size)
        tags += _SLOTS.unpack(pad)[len(cells):]
    tags.sort()
    return precision, tags


class GeoIndex:
    """Server-side tag -> `Cell` map.  Built with ``hmac_tagger`` it holds
    no plaintext geometry; built with ``plain_tagger`` it is the plaintext
    baseline."""

    def __init__(self, precisions: list[int]):
        if not precisions:
            raise GeoindexError("at least one precision level required")
        for p in precisions:
            if not MIN_PRECISION <= p <= MAX_PRECISION:
                raise GeoindexError("index precision out of range")
        self.precisions = sorted(set(precisions))
        self.entries: dict[bytes, Cell] = {}

    def match(self, tags: list[bytes]) -> list[str]:
        """Union of ids under the queried tags, de-duplicated and sorted in
        UTF-8 byte order (which is code point order, so no key is needed).
        No search or study calls it: it is the tests' reference and the match
        `protocol_latency_bench` times (criterion 8).  A query's cells are of
        one precision, so they are disjoint and the union is a merge of their
        sorted lists; tags of several precisions may overlap and are
        de-duplicated."""
        ids = sorted(chain.from_iterable(cell.ids for cell in self.cells(tags)))
        return ids if strictly_sorted(ids) else sorted(set(ids))

    def cells(self, tags: list[bytes]) -> list[Cell]:
        """The cells under the queried tags, each once and in tag order: the
        index's own, so a root computed once is kept for every later search."""
        return [self.entries[tag] for tag in sorted(set(tags)) if tag in self.entries]


# The most cells whose drop tuples `drops_of` joins by `+`.  Each join copies
# the cells before it again, and a chain's one pass costs about two copies
# per drop: at four paper-scale cells the two tie, and from nine on `+` takes
# about twice as long (BENCH_search.json's listing_joins).
_JOINED_CELLS = 3


def drops_of(cells: Sequence[Cell]) -> tuple[Drop, ...]:
    """The drops the cells list, cell after cell, each cell's in id order:
    a client's candidates, listed from the cells a search answered with.
    A query's cells are of one precision, so they are disjoint; cells of
    several precisions may overlap, and only then is a drop listed again
    dropped.

    Nothing is copied that need not be: one cell's answer is its own drops
    tuple, up to `_JOINED_CELLS` cells' tuples are joined by `+`, and more
    cells are chained in one pass."""
    listed = [cell.drops for cell in cells]
    if len({cell.precision for cell in cells}) > 1:
        return tuple({drop.id: drop for drop in chain.from_iterable(listed)}.values())
    if 0 < len(listed) <= _JOINED_CELLS and all(type(drops) is tuple for drops in listed):
        return sum(listed[1:], listed[0])
    return tuple(chain.from_iterable(listed))


# ---------------------------------------------------------------------------
# the drop-id rule: one table, applied by every door a drop comes in by

# (why, test), in the order a refused id is told why.  A test reads ids
# joined between LFs and their number, so one C-level pass checks a whole
# corpus, and the same test over "\n" + id + "\n" and 1 checks one id.  Only
# the LF test counts: an LF inside an id is one LF more than the joins.  The
# others may also fire on an id holding an LF, which that test refuses first.
# The '#' test and the UTF-8 test (`canon.encodable`, the rule for any text a
# hash takes) first ask what no valid corpus needs a full scan for: whether
# the text holds a '#' at all, or anything beyond ASCII.
_ID_RULE = (
    ("holds a TAB, CR or LF", lambda text, n: "\t" in text or "\r" in text or text.count("\n") > n + 1),
    ("is empty", lambda text, n: "\n\n" in text),
    ("starts with '#', which marks a comment", lambda text, n: "#" in text and "\n#" in text),
    ("does not encode to UTF-8", lambda text, n: not encodable(text)),
)


def check_ids(ids: Iterable[str]) -> None:
    """CorpusError naming the first of ``ids``, in id order, that the drop-id
    rule refuses, and why.  Each test runs once over all the ids joined
    between LFs; only when one fails do the tests run id by id."""
    framed = ["", *ids, ""]
    text, n = "\n".join(framed), len(framed) - 2
    if any(test(text, n) for _, test in _ID_RULE):
        i, why = next((i, why) for i in sorted(framed[1:-1]) for why, test in _ID_RULE if test(f"\n{i}\n", 1))
        raise CorpusError(f"drop id {i!r} {why}")


def build_index(key: bytes, drops: list[Drop], precisions: list[int], tagger=hmac_tagger) -> GeoIndex:
    """The index of ``drops`` at each of ``precisions``, in two passes.

    Pass 1 visits the drops in id order, computes each drop's (x, y) cell
    once, at the finest precision, and files the drop under that cell and
    each coarser precision's (x >> dx, y >> dy): bisection is a prefix, so
    the shift is the coarser cell.  A drop costs no function call: a chained
    comparison of `canon.off_globe`'s bounds, written inline as a fast
    pre-filter, checks its range, and `_check_point` (the rule itself) runs
    only when that fails, so the first bad drop in id order raises,
    latitude before longitude.  Along each axis the quotient
    k = int((v - lo) / step) is the cell when k < n and
    lo + k * step <= v < lo + (k + 1) * step, the exact edges that define
    it; otherwise `_axis_cell` repairs it (at the top edge, and where the
    division rounds across an edge).  Pass 2 derives one tag
    per distinct (precision, cell) and files the cell's drops, sorted by the
    visit order, and their ids as one `Cell`, under the tag ``tagger(key)``
    gives it (``hmac_tagger``, or ``plain_tagger`` for the plaintext
    baseline; see `client_tokens`).  Pass 1 files each id beside
    its drop, while the drop is fresh in the cache: reading the ids in pass
    2 would revisit every drop out of memory order.

    The ids are checked against the drop-id rule (`check_ids`) once pass 1
    has filed them, so an id the rule refuses is a CorpusError naming it,
    before any tag is made: no server, rung or study serves a drop its own
    corpus file could not hold.
    """
    index = GeoIndex(precisions)
    lon_bits, lat_bits = _grid_bits(index.precisions[-1])
    levels = []  # (precision, lon shift, lat shift, {(x, y): (ids, drops)})
    for p in index.precisions:
        px, py = _grid_bits(p)
        levels.append((p, lon_bits - px, lat_bits - py, defaultdict(lambda: ([], []))))
    nx, ny = 1 << lon_bits, 1 << lat_bits
    dlon, dlat = 360.0 / nx, 180.0 / ny
    for drop in sorted(drops, key=attrgetter("id")):
        lat, lon = drop.lat, drop.lon
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # off_globe, inline
            _check_point(lat, lon)
        x = int((lon + 180.0) / dlon)
        if not (x < nx and -180.0 + x * dlon <= lon < -180.0 + (x + 1) * dlon):
            x = _axis_cell(lon, -180.0, 360.0, lon_bits)
        y = int((lat + 90.0) / dlat)
        if not (y < ny and -90.0 + y * dlat <= lat < -90.0 + (y + 1) * dlat):
            y = _axis_cell(lat, -90.0, 180.0, lat_bits)
        for _, dx, dy, cells in levels:
            ids, members = cells[x >> dx, y >> dy]
            ids.append(drop.id)
            members.append(drop)
    # a level files each id once, so the rule's one pass over it reads them all
    check_ids(chain.from_iterable([ids for ids, _ in levels[0][3].values()]))
    tag_of = tagger(key)
    for p, _, _, cells in levels:
        for (x, y), (ids, members) in cells.items():
            cell = Cell(tuple(ids), drops=tuple(members), precision=p)
            index.entries[tag_of(p, _cell_string(x, y, p))] = cell
    return index

# ---------------------------------------------------------------------------
# corpus files: one drop per line, `id<TAB>lat<TAB>lon`, '#' comments at column 0


def load_corpus(path: str) -> list[Drop]:
    """The drops of a corpus file, ids exactly as `save_corpus` wrote them:
    only the line terminator is stripped.  Blank and whitespace-only lines
    and lines with '#' at column 0 are skipped."""
    drops: dict[str, Drop] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: expected id<TAB>lat<TAB>lon")
            drop_id, lat_s, lon_s = parts
            if not drop_id:
                raise CorpusError(f"line {lineno}: empty drop id")
            if drop_id in drops:
                raise CorpusError(f"line {lineno}: duplicate drop id {drop_id!r}")
            try:
                lat, lon = float(lat_s), float(lon_s)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: bad coordinate") from exc
            if off_globe(lat, lon):
                raise CorpusError(f"line {lineno}: coordinate out of range")
            drops[drop_id] = Drop(drop_id, lat, lon)
    return list(drops.values())


def check_corpus(drops: Sequence[Drop]) -> None:
    """CorpusError, naming the id and why, at a drop a corpus file cannot
    hold as it is (`load_corpus` would refuse or change it): the first id in
    id order that the drop-id rule refuses, else the first duplicate id or
    off-globe coordinate in list order."""
    check_ids(map(attrgetter("id"), drops))
    seen: set[str] = set()
    for drop in drops:
        if drop.id in seen:
            raise CorpusError(f"drop id {drop.id!r} is a duplicate")
        if off_globe(drop.lat, drop.lon):
            raise CorpusError(f"drop id {drop.id!r} has a coordinate out of range")
        seen.add(drop.id)


def save_corpus(path: str, drops: list[Drop]) -> None:
    """Write ``drops``, once `check_corpus` passes, as ``load_corpus`` reads."""
    check_corpus(drops)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id\tlat\tlon\n")
        for drop in drops:
            fh.write(f"{drop.id}\t{drop.lat:.7f}\t{drop.lon:.7f}\n")


TOKYO_BBOX = (35.6, 35.8, 139.6, 139.9)  # (lat_min, lat_max, lon_min, lon_max)


def gen_uniform_corpus(
    n: int, seed: int, bbox: tuple[float, float, float, float] = TOKYO_BBOX
) -> list[Drop]:
    rng = random.Random(seed)
    lat_min, lat_max, lon_min, lon_max = bbox
    return [
        Drop(f"d{i:06d}", rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
        for i in range(n)
    ]


def gen_clustered_corpus(
    n: int,
    seed: int,
    bbox: tuple[float, float, float, float] = TOKYO_BBOX,
    clusters: int = 12,
    sigma_deg: float = 0.004,
) -> list[Drop]:
    """Hotspot model: cluster centers uniform in the bbox, drops scattered around them."""
    rng = random.Random(seed)
    lat_min, lat_max, lon_min, lon_max = bbox
    centers = [
        (rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max)) for _ in range(clusters)
    ]
    drops = []
    for i in range(n):
        clat, clon = centers[rng.randrange(clusters)]
        lat = min(lat_max, max(lat_min, rng.gauss(clat, sigma_deg)))
        lon = min(lon_max, max(lon_min, rng.gauss(clon, sigma_deg)))
        drops.append(Drop(f"d{i:06d}", lat, lon))
    return drops
