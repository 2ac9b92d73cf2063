"""Search-session lifecycle: issue, bind, validate, consume.

A session is issued with a fresh 256-bit nonce and a hard expiry, bound at
most once to a search result set, and consumed at most once by a successful
unlock.  Consumption is a compare-and-swap under a lock, so two concurrent
unlock attempts against the same session can never both win.  Expiry is
exclusive at t_exp (a request arriving exactly at t_exp is already late);
every check asks `SessionRecord.expired`, the rule's one home.

A bind is given the hit cells, in tag order, in both storage modes.  "core"
keeps the cells themselves (stateful membership checks): at most 16
references to the index's immutable cells, since a search is refused unless
it sends exactly 16 distinct tags (sbpp.protocol), so a record costs the
same whatever the result size, and membership bisects each cell's sorted ids.
"full" keeps only the 32-byte Merkle root over them (sbpp.merkle.build_tree),
built before the bind takes the store's lock, so nothing is hashed under it.
A core bind checks that each cell's ids are unique and sorted; the cell keeps
the answer, as it keeps its root, so each cell is checked once.

The store retains terminal records and counts purges, so issued sessions can
always be reconciled exactly as consumed + expired + pending.
"""

from __future__ import annotations

import random
import secrets
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

from .canon import lp_encode
from .merkle import Cell, build_tree, locate

DEFAULT_TTL_S = 300
DEFAULT_PV = "1"  # policy version
DEFAULT_EPOCH = "ep0"
MODE_CORE = "core"
MODE_FULL = "full"

ZERO_ROOT = b"\x00" * 32


class SessionError(ValueError):
    pass


class UnknownSessionError(SessionError):
    pass


class ExpiredSessionError(SessionError):
    pass


class ConsumedSessionError(SessionError):
    pass


class AlreadyBoundError(SessionError):
    pass


def in_result_set(cells: Sequence[Cell], drop_id: str) -> bool:
    """Membership in a core session's cells, each sorted and unique."""
    return locate(cells, drop_id) is not None


@dataclass
class SessionRecord:
    S: str
    N: bytes
    t_exp: int
    mode: str
    pv: str
    epoch: str
    result_set: tuple[Cell, ...] | None = None  # core mode: the hit cells
    root: bytes | None = None
    consumed: bool = False

    @property
    def bound(self) -> bool:
        """Bound to a result set: every bind sets the root (ZERO_ROOT in core mode)."""
        return self.root is not None

    def expired(self, now: int) -> bool:
        """Past its expiry at ``now``; expiry is exclusive at t_exp."""
        return now >= self.t_exp

    def compact_bytes(self) -> bytes:
        """Serialized fixed-width form of a full-mode record; size is
        independent of the result-set cardinality."""
        root = self.root if self.root is not None else ZERO_ROOT
        return lp_encode(
            [
                self.S,
                self.N,
                self.t_exp.to_bytes(8, "big"),
                root,
                self.mode,
                self.pv,
                self.epoch,
            ]
        )


@dataclass
class SessionStore:
    """In-memory session table keyed by session id.

    nonce_rng: optional deterministic RNG for reproducible experiments; left
    unset, ids and nonces come from the OS CSPRNG.
    """

    ttl_s: int = DEFAULT_TTL_S
    pv: str = DEFAULT_PV
    epoch: str = DEFAULT_EPOCH
    nonce_rng: random.Random | None = None
    _records: dict[str, SessionRecord] = field(default_factory=dict, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False)
    issued_count: int = field(default=0, init=False)
    consumed_count: int = field(default=0, init=False)
    purged_expired_count: int = field(default=0, init=False)

    def _random_bytes(self, n: int) -> bytes:
        if self.nonce_rng is not None:
            return self.nonce_rng.randbytes(n)
        return secrets.token_bytes(n)

    def issue(self, now: int, mode: str = MODE_FULL) -> SessionRecord:
        if mode not in (MODE_CORE, MODE_FULL):
            raise SessionError(f"unknown session mode {mode!r}")
        with self._lock:
            while True:
                S = self._random_bytes(16).hex()
                if S not in self._records:
                    break
            record = SessionRecord(
                S=S,
                N=self._random_bytes(32),
                t_exp=now + self.ttl_s,
                mode=mode,
                pv=self.pv,
                epoch=self.epoch,
            )
            self._records[S] = record
            self.issued_count += 1
            return record

    def _live(self, S: str, now: int) -> SessionRecord:
        """Caller holds the lock.  Ids are issued as `str`, so any other
        value, hashable or not, names no session."""
        record = self._records.get(S) if isinstance(S, str) else None
        if record is None:
            raise UnknownSessionError("no such session")
        if record.consumed:
            raise ConsumedSessionError("session already consumed")
        if record.expired(now):
            raise ExpiredSessionError("session expired")
        return record

    def validate(self, S: str, now: int) -> SessionRecord:
        """The record, if the session exists, is unconsumed, and is unexpired."""
        with self._lock:
            return self._live(S, now)

    def bind_results(self, S: str, cells: Sequence[Cell], mode: str, now: int) -> SessionRecord:
        """Bind the search result, its hit cells in tag order; a session
        binds at most once.  In full mode the record keeps their root, built
        before the lock is taken; in core mode it keeps the cells."""
        if not cells or not all(cell.ids for cell in cells):
            raise SessionError("cannot bind an empty result set")
        if mode == MODE_FULL:
            root = build_tree(cells).root
        elif not all(cell.ordered for cell in cells):
            raise SessionError("result set ids must be unique and sorted")
        with self._lock:
            record = self._live(S, now)
            if record.bound:
                raise AlreadyBoundError("session already bound to results")
            if mode != record.mode:
                raise SessionError("bind mode does not match session mode")
            if mode == MODE_FULL:
                record.root = root
            else:
                record.result_set = tuple(cells)
                record.root = ZERO_ROOT
            return record

    def consume(self, S: str, now: int) -> bool:
        """Atomically mark the session used.  True exactly once per session;
        False on replay, expiry, or unknown id."""
        with self._lock:
            try:
                record = self._live(S, now)
            except SessionError:
                return False
            record.consumed = True
            self.consumed_count += 1
            return True

    def purge_expired(self, now: int) -> int:
        """Drop expired unconsumed records; returns how many went."""
        with self._lock:
            dead = [s for s, r in self._records.items() if not r.consumed and r.expired(now)]
            for s in dead:
                del self._records[s]
            self.purged_expired_count += len(dead)
            return len(dead)

    def purge_all(self) -> int:
        """Drop every record (simulates server-side state loss before audit).
        An unconsumed record can never be consumed now, so it counts as
        expired."""
        with self._lock:
            n = len(self._records)
            self.purged_expired_count += sum(1 for r in self._records.values() if not r.consumed)
            self._records.clear()
            return n

    def stats(self, now: int) -> dict[str, int]:
        """Exact lifecycle accounting; issued == consumed + expired + pending."""
        with self._lock:
            unconsumed = [r.expired(now) for r in self._records.values() if not r.consumed]
        expired_live = sum(unconsumed)
        return {
            "issued": self.issued_count,
            "consumed": self.consumed_count,
            "expired": expired_live + self.purged_expired_count,
            "pending": len(unconsumed) - expired_live,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
