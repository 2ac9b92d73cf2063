"""Search-session lifecycle: issue, bind, validate, consume.

A session is issued with a fresh 256-bit nonce and a hard expiry, bound at
most once to a search result set, and consumed at most once by a successful
unlock.  Consumption is a compare-and-swap under a lock, so two concurrent
unlock attempts against the same session can never both win; expiry is
exclusive at t_exp (a request arriving exactly at t_exp is already late).

Two storage modes: "core" keeps the bound result-set ids (stateful
membership checks), "full" keeps only the 32-byte Merkle root, so per-session
state is constant-size no matter how large the result set was.  Core ids are
kept as the sorted tuple the search produced and looked up by bisection: a
tuple of str costs one pointer per id and is not tracked by the garbage
collector, where a frozenset costs several times that and is.

The store retains terminal records and counts purges, so issued sessions can
always be reconciled exactly as consumed + expired + pending.
"""

from __future__ import annotations

import random
import secrets
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

from .canon import lp_encode
from .merkle import build_tree, strictly_sorted

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


def in_result_set(result_set: tuple[str, ...], drop_id: str) -> bool:
    """Membership in a core session's sorted, unique id tuple."""
    i = bisect_left(result_set, drop_id)
    return i < len(result_set) and result_set[i] == drop_id


@dataclass
class SessionRecord:
    S: str
    N: bytes
    t_issue: int
    t_exp: int
    mode: str
    pv: str
    epoch: str
    result_set: tuple[str, ...] | None = None  # core mode: sorted unique ids
    root: bytes | None = None
    consumed: bool = False
    bound: bool = False

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
    _records: dict[str, SessionRecord] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    issued_count: int = 0
    consumed_count: int = 0
    purged_expired_count: int = 0

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
                t_issue=now,
                t_exp=now + self.ttl_s,
                mode=mode,
                pv=self.pv,
                epoch=self.epoch,
            )
            self._records[S] = record
            self.issued_count += 1
            return record

    def _live(self, S: str, now: int) -> SessionRecord:
        """Caller holds the lock."""
        record = self._records.get(S)
        if record is None:
            raise UnknownSessionError("no such session")
        if record.consumed:
            raise ConsumedSessionError("session already consumed")
        if now >= record.t_exp:
            raise ExpiredSessionError("session expired")
        return record

    def validate(self, S: str, now: int) -> SessionRecord:
        """The record, if the session exists, is unconsumed, and is unexpired."""
        with self._lock:
            return self._live(S, now)

    def bind_results(self, S: str, ids: list[str], mode: str, now: int) -> SessionRecord:
        """Bind the search result set; a session binds at most once."""
        if not ids:
            raise SessionError("cannot bind an empty result set")
        with self._lock:
            record = self._live(S, now)
            if record.bound:
                raise AlreadyBoundError("session already bound to results")
            if mode != record.mode:
                raise SessionError("bind mode does not match session mode")
            if mode == MODE_CORE:
                if not strictly_sorted(ids):
                    raise SessionError("result set ids must be unique and sorted")
                record.result_set = tuple(ids)
                record.root = ZERO_ROOT
            else:
                record.root = build_tree(ids).root
                record.result_set = None
            record.bound = True
            return record

    def consume(self, S: str, now: int) -> bool:
        """Atomically mark the session used.  True exactly once per session;
        False on replay, expiry, or unknown id."""
        with self._lock:
            record = self._records.get(S)
            if record is None or record.consumed or now >= record.t_exp:
                return False
            record.consumed = True
            self.consumed_count += 1
            return True

    def purge_expired(self, now: int) -> int:
        """Drop expired unconsumed records; returns how many went."""
        with self._lock:
            dead = [s for s, r in self._records.items() if not r.consumed and now >= r.t_exp]
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
            expired_live = sum(
                1 for r in self._records.values() if not r.consumed and now >= r.t_exp
            )
            pending = sum(1 for r in self._records.values() if not r.consumed and now < r.t_exp)
        return {
            "issued": self.issued_count,
            "consumed": self.consumed_count,
            "expired": expired_live + self.purged_expired_count,
            "pending": pending,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
