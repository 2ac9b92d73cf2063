"""Host-speed gauge: a fixed slice of reference work timed between ops.

A shared 2-core host (Intel Xeon at 2.1 GHz) moves between speed levels up
to about 1.8x apart, every few seconds, and CPU time moves with wall time,
so the levels come from the host, not from being descheduled.  Timing the same
op at different moments measures the level as much as the program.

A ``SpeedGauge`` runs a short reference slice after every ``EVERY_S`` of op
time, outside the timed region.  The slice does the two kinds of work sbpp
spends its time in, with code that is not sbpp's: a Merkle-style tree of
length-framed SHA-256 hashes over 64 leaves (hashlib), and one Ed25519 sign
and verify (``cryptography``).  Passes recorded with candidate slices timed
after every op picked this one: the op time of every workload slowed with
it by about the same factor (a log-log slope of 1.0 on ``full-1km``, 1.1 on
``core-1km``, 0.8 on ``ladder``), where a pure-Python loop or a walk through
a large table tracked the program worse than not scaling at all.

A time taken near slice ``i`` is scaled by ``REFERENCE_SLICE_S`` over the
median of the slices around ``i``.  The reported time is then the time the
op would have taken on a host where one slice takes ``REFERENCE_SLICE_S``:
wall time at a fixed reference speed.  A change to sbpp cannot move the
slice.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# A round figure near the slice time on a 2-core Intel Xeon at 2.1 GHz
# (Python 3.11, cryptography 48), so a scaled time reads close to a raw time
# measured there.
REFERENCE_SLICE_S = 0.4e-3
SLICE_LEAVES = 64
EVERY_S = 4e-3  # op time between two slices
WINDOW = 3  # slices on each side of a time that set its speed
SETUP_SLICES = 5

_KEY = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"perfbench:gauge").digest())
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(64))


def _framed(*parts: bytes) -> bytes:
    return b"".join(len(p).to_bytes(4, "big") + p for p in parts)


def reference_slice() -> bytes:
    level = [hashlib.sha256(b"\x00" + _framed(i.to_bytes(4, "big"))).digest() for i in range(SLICE_LEAVES)]
    while len(level) > 1:
        level = [hashlib.sha256(b"\x01" + _framed(a, b)).digest() for a, b in zip(level[::2], level[1::2])]
    signature = _KEY.sign(_MESSAGE + level[0])
    _PUBLIC.verify(signature, _MESSAGE + level[0])
    return signature


def time_slice() -> float:
    t0 = perf_counter()
    reference_slice()
    return perf_counter() - t0


class SpeedGauge:
    """Slices interleaved with the ops of one pass, and the scale they give."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._since = 0.0

    def after_op(self, op_s: float) -> int:
        """Mark of the op that just took ``op_s``; runs a slice when one is due."""
        mark = len(self.slices)
        self._since += op_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.slices.append(time_slice())
        return mark

    def scale(self, mark: int) -> float:
        """Factor from raw to reference time for a time taken at ``mark``."""
        if not self.slices:  # a pass shorter than EVERY_S
            self.slices.append(time_slice())
        window = self.slices[max(0, mark - WINDOW) : mark + WINDOW + 1]
        return REFERENCE_SLICE_S / statistics.median(window)

    def scaled_now(self, seconds: float) -> float:
        """``seconds`` just measured (a set-up), scaled by fresh slices."""
        fresh = [time_slice() for _ in range(SETUP_SLICES)]
        self.slices.extend(fresh)
        return seconds * REFERENCE_SLICE_S / statistics.median(fresh)
