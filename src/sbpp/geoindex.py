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
lat bits.  The second derives one tag per distinct (precision, cell), so the
HMACs a build makes scale with the cells the corpus occupies, not its drops.

The cover is recall-first: for each indexed precision, finest first, take the
cells that meet the bounding box of the spherical cap of the radius, and keep
the first precision whose cover has at most COVER_BUDGET cells.  Every point
within the radius lies in that box, so it lands in the cover; a radius no
indexed precision can cover within the budget is a GeoindexError, never an
empty answer.  Every query sends COVER_BUDGET tags, so the tag count does
not reveal the radius; the number of tags that hit the index (the non-empty
cover cells) does.
"""

from __future__ import annotations

import hmac
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_INDEX = {c: i for i, c in enumerate(GEOHASH_ALPHABET)}

TOKEN_LABEL = "gridse:index"
PAD_LABEL = "pad"  # in the precision slot of a dummy tag, which no index entry uses
COVER_BUDGET = 16  # tags per query: the cover's cells, then dummies
DEFAULT_PRECISIONS = (5,)  # of an index built without a choice
MIN_PRECISION = 1
MAX_PRECISION = 9
MAX_GEOHASH_PRECISION = 12

EARTH_RADIUS_M = 6_371_000.0
_M_PER_DEG = math.pi / 180.0 * EARTH_RADIUS_M
# Relative widening of the cover's box, far above the float rounding of the
# trigonometry and far below a cell.
_COVER_MARGIN = 1e-7


class GeoindexError(ValueError):
    pass


class CorpusError(GeoindexError):
    """Malformed corpus file (reported with a line number)."""


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


# Two characters carry 5 lon bits and 5 lat bits (lon first): _PAIRS holds
# them at 2 * (x << 5 | y).  An odd last character carries 3 lon bits and 2
# lat bits: _TAILS[x << 2 | y].  One string each keeps the tables at 2 KB.
_PAIRS = "".join(
    GEOHASH_ALPHABET[v >> 5] + GEOHASH_ALPHABET[v & 31]
    for v in (_spread(x) << 1 | _spread(y) for x in range(32) for y in range(32))
)
_TAILS = "".join(GEOHASH_ALPHABET[_spread(x) | _spread(y) << 1] for x in range(8) for y in range(4))


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
    if not -90.0 <= lat <= 90.0:
        raise GeoindexError("latitude out of range")
    if not -180.0 <= lon <= 180.0:
        raise GeoindexError("longitude out of range")


def _cell_string(x: int, y: int, precision: int) -> str:
    """The geohash of cell (x, y) at the given precision."""
    sx, sy = _grid_bits(precision)
    chars = []
    for _ in range(precision // 2):
        sx -= 5
        sy -= 5
        i = ((x >> sx) & 31) << 6 | ((y >> sy) & 31) << 1
        chars.append(_PAIRS[i : i + 2])
    if precision & 1:
        chars.append(_TAILS[(x & 7) << 2 | (y & 3)])
    return "".join(chars)


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
    if radius_m <= 0:
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


def make_token(key: bytes, precision: int | str, cell: str) -> bytes:
    """HMAC tag for one cell; the only thing the server ever sees of it.
    A dummy tag puts PAD_LABEL in the precision slot."""
    if len(key) != 32:
        raise GeoindexError("search key must be 32 bytes")
    return hmac.digest(key, f"{TOKEN_LABEL}:{precision}:{cell}".encode("ascii"), "sha256")


def plain_tag(key: bytes, precision: int | str, cell: str) -> bytes:
    """The cell itself as the tag: the plaintext-search baseline.  Ignores the key."""
    return f"{precision}:{cell}".encode("ascii")


def client_tokens(
    key: bytes,
    lat: float,
    lon: float,
    radius_m: float,
    precisions: Iterable[int] = DEFAULT_PRECISIONS,
    tag=make_token,
) -> tuple[int, list[bytes]]:
    """Token set for a proximity query: the cover at the finest of the
    index's ``precisions`` that fits in COVER_BUDGET cells, padded with
    dummy tags to exactly COVER_BUDGET and sorted.

    Returns (precision, tags).  Deterministic, so identical queries emit
    byte-identical tag lists regardless of which protocol variant sends them.
    ``tag`` must be the function the index was built with.  Raises
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
    tags = [tag(key, precision, c) for c in cells]
    tags += [tag(key, PAD_LABEL, f"{cells[0]}:{i}") for i in range(len(cells), COVER_BUDGET)]
    tags.sort()
    return precision, tags


class GeoIndex:
    """Server-side tag -> drop-id map.  Built with HMAC tags it holds no
    plaintext geometry; built with ``plain_tag`` it is the plaintext baseline."""

    def __init__(self, precisions: list[int]):
        if not precisions:
            raise GeoindexError("at least one precision level required")
        for p in precisions:
            if not MIN_PRECISION <= p <= MAX_PRECISION:
                raise GeoindexError("index precision out of range")
        self.precisions = sorted(set(precisions))
        self.entries: dict[bytes, list[str]] = {}

    def match(self, tags: list[bytes]) -> list[str]:
        """Union of ids under the queried tags, de-duplicated and sorted in
        UTF-8 byte order (which is code point order, so no key is needed)."""
        found: set[str] = set()
        for tag in tags:
            ids = self.entries.get(tag)
            if ids:
                found.update(ids)
        return sorted(found)


def build_index(key: bytes, drops: list[Drop], precisions: list[int], tag=make_token) -> GeoIndex:
    """The index of ``drops`` at each of ``precisions``, in two passes.

    Pass 1 computes each drop's (x, y) cell once, at the finest precision, and
    files its id under that cell and each coarser precision's (x >> dx, y >> dy):
    bisection is a prefix, so the shift is the coarser cell.  Pass 2 derives
    one tag per distinct (precision, cell).  Id lists keep drop order.
    """
    index = GeoIndex(precisions)
    lon_bits, lat_bits = _grid_bits(index.precisions[-1])
    levels = []  # (precision, lon shift, lat shift, {(x, y): ids})
    for p in index.precisions:
        px, py = _grid_bits(p)
        levels.append((p, lon_bits - px, lat_bits - py, {}))
    for drop in drops:
        _check_point(drop.lat, drop.lon)
        x = _axis_cell(drop.lon, -180.0, 360.0, lon_bits)
        y = _axis_cell(drop.lat, -90.0, 180.0, lat_bits)
        for _, dx, dy, cells in levels:
            cells.setdefault((x >> dx, y >> dy), []).append(drop.id)
    for p, _, _, cells in levels:
        for (x, y), ids in cells.items():
            index.entries[tag(key, p, _cell_string(x, y, p))] = ids
    return index


# ---------------------------------------------------------------------------
# corpus files: one drop per line, `id<TAB>lat<TAB>lon`, '#' comments


def load_corpus(path: str) -> list[Drop]:
    drops: list[Drop] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: expected id<TAB>lat<TAB>lon")
            drop_id, lat_s, lon_s = parts
            if drop_id in seen:
                raise CorpusError(f"line {lineno}: duplicate drop id {drop_id!r}")
            try:
                lat, lon = float(lat_s), float(lon_s)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: bad coordinate") from exc
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise CorpusError(f"line {lineno}: coordinate out of range")
            seen.add(drop_id)
            drops.append(Drop(drop_id, lat, lon))
    return drops


def save_corpus(path: str, drops: list[Drop]) -> None:
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
