"""Encrypted geographic discovery over geohash cells.

Drops are indexed under HMAC tags of their geohash cells at one or more
precisions; a querying client derives the tags for its own cell plus the
eight neighbors and the server intersects tag sets without ever seeing a
coordinate or cell string.  Anyone holding the search key can reproduce the
tags, so the key is the query capability.

Precision selection is recall-first: pick the largest precision whose
minimum cell dimension (at the query's latitude) still covers the search
radius.  Every in-radius drop is then guaranteed to land in the 3x3 cell
neighborhood, at the cost of precision for small radii in coarse cells.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import random
from dataclasses import dataclass

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_INDEX = {c: i for i, c in enumerate(GEOHASH_ALPHABET)}

TOKEN_LABEL = "gridse:index"
MIN_PRECISION = 1
MAX_PRECISION = 9

EARTH_RADIUS_M = 6_371_000.0
_M_PER_DEG = math.pi / 180.0 * EARTH_RADIUS_M


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
# geohash


def geohash_encode(lat: float, lon: float, precision: int) -> str:
    if not -90.0 <= lat <= 90.0:
        raise GeoindexError("latitude out of range")
    if not -180.0 <= lon <= 180.0:
        raise GeoindexError("longitude out of range")
    if not MIN_PRECISION <= precision <= 12:
        raise GeoindexError("precision out of range")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars = []
    bit = 0
    ch = 0
    even = True  # bits alternate starting with longitude
    while len(chars) < precision:
        if even:
            mid = (lon_lo + lon_hi) / 2
            if lon >= mid:
                ch = (ch << 1) | 1
                lon_lo = mid
            else:
                ch <<= 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2
            if lat >= mid:
                ch = (ch << 1) | 1
                lat_lo = mid
            else:
                ch <<= 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            chars.append(GEOHASH_ALPHABET[ch])
            bit = 0
            ch = 0
    return "".join(chars)


def geohash_decode_bbox(cell: str) -> tuple[float, float, float, float]:
    """(lat_min, lat_max, lon_min, lon_max) of the cell."""
    if not cell:
        raise GeoindexError("empty geohash")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    for c in cell:
        if c not in _CHAR_INDEX:
            raise GeoindexError(f"invalid geohash character {c!r}")
        idx = _CHAR_INDEX[c]
        for shift in range(4, -1, -1):
            if even:
                mid = (lon_lo + lon_hi) / 2
                if (idx >> shift) & 1:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2
                if (idx >> shift) & 1:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return (lat_lo, lat_hi, lon_lo, lon_hi)


def geohash_neighbors(cell: str) -> list[str]:
    """The up-to-8 adjacent cells at the same precision.

    Computed by stepping one cell dimension from the center and re-encoding.
    Longitude wraps at the antimeridian; rows past the poles are dropped, so
    polar cells have fewer than 8 neighbors.
    """
    lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bbox(cell)
    lat_c = (lat_lo + lat_hi) / 2
    lon_c = (lon_lo + lon_hi) / 2
    dlat = lat_hi - lat_lo
    dlon = lon_hi - lon_lo
    out = []
    for dy in (-1, 0, 1):
        lat = lat_c + dy * dlat
        if not -90.0 <= lat <= 90.0:
            continue
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            lon = lon_c + dx * dlon
            if lon >= 180.0:
                lon -= 360.0
            elif lon < -180.0:
                lon += 360.0
            out.append(geohash_encode(lat, lon, len(cell)))
    return out


def cell_dimensions_m(precision: int, lat: float) -> tuple[float, float]:
    """(height, width) in meters of a cell at the given precision and latitude."""
    total_bits = 5 * precision
    lon_bits = (total_bits + 1) // 2
    lat_bits = total_bits // 2
    height = (180.0 / (1 << lat_bits)) * _M_PER_DEG
    width = (360.0 / (1 << lon_bits)) * _M_PER_DEG * math.cos(math.radians(abs(lat)))
    return (height, width)


def precision_for_radius(radius_m: float, lat: float = 35.7) -> int:
    """Largest precision whose min cell dimension still covers the radius.

    Clamped to [1, 9].  The covering guarantee: a query plus its 3x3
    neighborhood at the returned precision contains every point within
    radius_m of the query.
    """
    if radius_m <= 0:
        raise GeoindexError("radius must be positive")
    best = MIN_PRECISION
    for p in range(MIN_PRECISION, MAX_PRECISION + 1):
        if min(cell_dimensions_m(p, lat)) >= radius_m:
            best = p
    return best


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


def make_token(key: bytes, precision: int, cell: str) -> bytes:
    """HMAC tag for one cell; the only thing the server ever sees of it."""
    if len(key) != 32:
        raise GeoindexError("search key must be 32 bytes")
    msg = f"{TOKEN_LABEL}:{precision}:{cell}".encode("ascii")
    return hmac.new(key, msg, hashlib.sha256).digest()


def plain_tag(key: bytes, precision: int, cell: str) -> bytes:
    """The cell itself as the tag: the plaintext-search baseline.  Ignores the key."""
    return f"{precision}:{cell}".encode("ascii")


def client_tokens(
    key: bytes, lat: float, lon: float, radius_m: float, tag=make_token
) -> tuple[int, list[bytes]]:
    """Token set for a proximity query: center cell plus all neighbors.

    Returns (precision, tags).  Deterministic, so identical queries emit
    byte-identical tag sets regardless of which protocol variant sends them.
    ``tag`` must be the function the index was built with.
    """
    precision = precision_for_radius(radius_m, lat)
    center = geohash_encode(lat, lon, precision)
    cells = [center] + geohash_neighbors(center)
    return precision, [tag(key, precision, c) for c in cells]


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

    def add(self, tag: bytes, drop_id: str) -> None:
        self.entries.setdefault(tag, []).append(drop_id)

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
    index = GeoIndex(precisions)
    for drop in drops:
        for p in index.precisions:
            cell = geohash_encode(drop.lat, drop.lon, p)
            index.add(tag(key, p, cell), drop.id)
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
