"""Session table: issue, expiry, one-time consumption, lifecycle accounting."""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from sbpp.canon import lp_decode
from sbpp.merkle import build_tree
from sbpp.session import (
    MODE_CORE,
    MODE_FULL,
    AlreadyBoundError,
    ConsumedSessionError,
    ExpiredSessionError,
    SessionError,
    SessionStore,
    UnknownSessionError,
    in_result_set,
)

T0 = 1_700_000_000


def _store(seed: int = 0, ttl_s: int = 300) -> SessionStore:
    return SessionStore(ttl_s=ttl_s, nonce_rng=random.Random(seed))


def test_issue_shapes_and_uniqueness():
    store = _store()
    records = [store.issue(T0) for _ in range(500)]
    assert len({r.S for r in records}) == 500
    assert len({r.N for r in records}) == 500
    for r in records[:10]:
        assert len(r.S) == 32 and bytes.fromhex(r.S)
        assert len(r.N) == 32
        assert r.t_exp == T0 + 300
        assert not r.consumed and not r.bound


def test_issue_deterministic_under_seeded_rng():
    a = _store(seed=42).issue(T0)
    b = _store(seed=42).issue(T0)
    assert (a.S, a.N) == (b.S, b.N)


def test_issue_rejects_unknown_mode():
    with pytest.raises(SessionError):
        _store().issue(T0, mode="half")


def test_validate_unknown_session():
    with pytest.raises(UnknownSessionError):
        _store().validate("ff" * 16, T0)


def test_expiry_boundary_is_exclusive():
    store = _store(ttl_s=300)
    record = store.issue(T0)
    assert store.validate(record.S, T0 + 299) is record
    with pytest.raises(ExpiredSessionError):
        store.validate(record.S, T0 + 300)


def test_consume_exactly_once():
    store = _store()
    record = store.issue(T0)
    assert store.consume(record.S, T0 + 1) is True
    assert store.consume(record.S, T0 + 1) is False
    with pytest.raises(ConsumedSessionError):
        store.validate(record.S, T0 + 1)


def test_consume_refuses_expired_and_unknown():
    store = _store(ttl_s=300)
    record = store.issue(T0)
    assert store.consume(record.S, T0 + 300) is False
    assert store.consume("00" * 16, T0) is False


def test_parallel_double_consume_single_winner():
    # the race the lock exists for: two submitters, one session
    store = _store()
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        for _ in range(200):
            record = store.issue(T0)
            barrier = threading.Barrier(2)

            def attempt() -> bool:
                barrier.wait()
                return store.consume(record.S, T0 + 1)

            a, b = pool.submit(attempt), pool.submit(attempt)
            assert sorted([a.result(), b.result()]) == [False, True]
    finally:
        pool.shutdown()


def test_bind_results_core_vs_full():
    store = _store()
    core = store.issue(T0, mode=MODE_CORE)
    store.bind_results(core.S, ["a", "b"], MODE_CORE, T0 + 1)
    assert core.result_set == ("a", "b")
    assert core.root == bytes(32)

    full = store.issue(T0, mode=MODE_FULL)
    store.bind_results(full.S, ["a", "b"], MODE_FULL, T0 + 1)
    assert full.result_set is None
    assert full.root == build_tree(["a", "b"]).root


@pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"], ["a", "b", "b"], ["é", "z"]])
def test_core_bind_rejects_ids_not_unique_and_sorted(ids):
    store = _store()
    record = store.issue(T0, mode=MODE_CORE)
    with pytest.raises(SessionError):
        store.bind_results(record.S, ids, MODE_CORE, T0 + 1)
    assert not record.bound and record.result_set is None
    store.bind_results(record.S, sorted(set(ids)), MODE_CORE, T0 + 1)
    assert record.result_set == tuple(sorted(set(ids)))


@given(st.sets(st.text(max_size=3), max_size=40), st.text(max_size=3), st.data())
@settings(max_examples=200, deadline=None)
def test_in_result_set_is_set_membership(ids, outsider, data):
    bound = tuple(sorted(ids, key=lambda s: s.encode("utf-8")))
    drop_id = data.draw(st.sampled_from(bound)) if bound and data.draw(st.booleans()) else outsider
    assert in_result_set(bound, drop_id) == (drop_id in ids)


def test_bind_is_once_and_mode_checked():
    store = _store()
    record = store.issue(T0, mode=MODE_FULL)
    store.bind_results(record.S, ["a"], MODE_FULL, T0 + 1)
    with pytest.raises(AlreadyBoundError):
        store.bind_results(record.S, ["b"], MODE_FULL, T0 + 2)
    other = store.issue(T0, mode=MODE_FULL)
    with pytest.raises(SessionError):
        store.bind_results(other.S, ["a"], MODE_CORE, T0 + 1)
    with pytest.raises(SessionError):
        store.bind_results(other.S, [], MODE_FULL, T0 + 1)


def test_compact_state_is_constant_size():
    # what a compact verifier keeps per session: root, never the result list
    store = _store()
    small = store.issue(T0, mode=MODE_FULL)
    store.bind_results(small.S, ["a"], MODE_FULL, T0 + 1)
    big = store.issue(T0, mode=MODE_FULL)
    store.bind_results(big.S, [f"d{i:06d}" for i in range(5000)], MODE_FULL, T0 + 1)
    assert len(small.compact_bytes()) == len(big.compact_bytes()) == 140


def test_compact_bytes_fields():
    store = _store()
    record = store.issue(T0, mode=MODE_FULL)
    store.bind_results(record.S, ["a", "b"], MODE_FULL, T0 + 1)
    fields = lp_decode(record.compact_bytes())
    assert fields == [
        record.S.encode(),
        record.N,
        record.t_exp.to_bytes(8, "big"),
        record.root,
        b"full",
        b"1",
        b"ep0",
    ]


def test_lifecycle_conservation():
    store = _store(ttl_s=300)
    records = [store.issue(T0) for _ in range(100)]
    for r in records[:30]:
        assert store.consume(r.S, T0 + 10)
    assert store.purge_expired(T0 + 300) == 70
    stats = store.stats(T0 + 300)
    assert stats == {"issued": 100, "consumed": 30, "expired": 70, "pending": 0}
    assert stats["issued"] == stats["consumed"] + stats["expired"] + stats["pending"]


def test_stats_counts_live_expired_before_purge():
    store = _store(ttl_s=300)
    store.issue(T0)
    stats = store.stats(T0 + 300)
    assert stats["expired"] == 1 and stats["pending"] == 0
    assert len(store) == 1  # still in the table until purged


def test_purge_all_simulates_state_loss():
    store = _store()
    for _ in range(5):
        store.issue(T0)
    assert store.purge_all() == 5
    assert len(store) == 0


def test_purge_all_counts_unconsumed_records_as_expired():
    store = _store()
    records = [store.issue(T0) for _ in range(10)]
    for r in records[:3]:
        assert store.consume(r.S, T0 + 10)
    assert store.purge_all() == 10
    assert store.stats(T0 + 10) == {"issued": 10, "consumed": 3, "expired": 7, "pending": 0}


class SessionLifecycle(RuleBasedStateMachine):
    """Issue, bind, consume, purge and advance the clock in any order: the
    counts always balance and no session is consumed twice."""

    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.store = _store(ttl_s=60)
        self.now = T0
        self.consumed: set[str] = set()

    @rule(target=sessions, mode=st.sampled_from([MODE_CORE, MODE_FULL]))
    def issue(self, mode):
        return self.store.issue(self.now, mode).S

    @rule(
        S=sessions,
        mode=st.sampled_from([MODE_CORE, MODE_FULL]),
        ids=st.lists(st.sampled_from("abcd"), min_size=1, unique=True),
    )
    def bind(self, S, mode, ids):
        try:
            self.store.bind_results(S, sorted(ids), mode, self.now)
        except SessionError:
            pass  # unknown, expired, consumed, already bound or wrong mode

    @rule(S=sessions)
    def consume(self, S):
        if self.store.consume(S, self.now):
            assert S not in self.consumed
            self.consumed.add(S)

    @rule()
    def purge_expired(self):
        self.store.purge_expired(self.now)

    @rule()
    def purge_all(self):
        self.store.purge_all()

    @rule(dt=st.integers(0, 90))
    def advance(self, dt):
        self.now += dt

    @invariant()
    def conserved(self):
        stats = self.store.stats(self.now)
        assert stats["issued"] == stats["consumed"] + stats["expired"] + stats["pending"]
        assert stats["consumed"] == len(self.consumed)


TestSessionLifecycle = SessionLifecycle.TestCase
TestSessionLifecycle.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
