"""Session table: issue, expiry, one-time consumption, lifecycle accounting."""

import dataclasses
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from sbpp import merkle
from sbpp.canon import lp_decode, strictly_sorted
from sbpp.merkle import Cell, MerkleTree
from sbpp.session import (
    MODE_CORE,
    MODE_FULL,
    AlreadyBoundError,
    ConsumedSessionError,
    ExpiredSessionError,
    SessionError,
    SessionStore,
    UnknownSessionError,
)

T0 = 1_700_000_000


def _store(seed: int = 0, ttl_s: int = 300) -> SessionStore:
    return SessionStore(ttl_s=ttl_s, nonce_rng=random.Random(seed))


def _cells(ids: list[str]) -> list[Cell]:
    """A result: one cell holding ``ids``."""
    return [Cell(ids)]


@pytest.mark.parametrize(
    "name", ["_records", "_lock", "issued_count", "consumed_count", "purged_expired_count"]
)
def test_store_internals_are_not_constructor_options(name):
    with pytest.raises(TypeError):
        SessionStore(**{name: 5})


def test_store_options_are_its_policy_and_rng():
    options = [f.name for f in dataclasses.fields(SessionStore) if f.init]
    assert options == ["ttl_s", "pv", "epoch", "nonce_rng"]


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


@pytest.mark.parametrize("late", [False, True], ids=["before-t_exp", "at-t_exp"])
def test_validate_consume_purge_and_stats_share_one_expiry_rule(late):
    store = _store(ttl_s=300)
    record, _ = store.issue(T0), store.issue(T0)
    now = T0 + 300 if late else T0 + 299
    assert record.expired(now) is late
    stats = store.stats(now)
    assert (stats["expired"], stats["pending"]) == ((2, 0) if late else (0, 2))
    assert store.consume(record.S, now) is not late
    assert store.purge_expired(now) == (2 if late else 0)
    assert store.stats(now)["issued"] == 2


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
    cells = _cells(["a", "b"])
    store.bind_results(core.S, cells, MODE_CORE, T0 + 1)
    assert core.result_set == tuple(cells)  # the cells themselves, not a copy of their ids
    assert core.root == bytes(32)

    full = store.issue(T0, mode=MODE_FULL)
    store.bind_results(full.S, _cells(["a", "b"]), MODE_FULL, T0 + 1)
    assert full.result_set is None
    assert full.root == MerkleTree(["a", "b"]).root


@pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"], ["a", "b", "b"], ["é", "z"]])
def test_core_bind_rejects_ids_not_unique_and_sorted(ids):
    store = _store()
    record = store.issue(T0, mode=MODE_CORE)
    with pytest.raises(SessionError):
        store.bind_results(record.S, _cells(ids), MODE_CORE, T0 + 1)
    assert not record.bound and record.result_set is None
    cells = _cells(sorted(set(ids)))
    store.bind_results(record.S, cells, MODE_CORE, T0 + 1)
    assert record.result_set == tuple(cells)


def test_core_bind_checks_each_cell_once(monkeypatch):
    checked = []

    def counting(ids):
        checked.append(tuple(ids))
        return strictly_sorted(ids)

    monkeypatch.setattr(merkle, "strictly_sorted", counting)
    store = _store()
    good, bad = Cell(("a", "b")), Cell(("b", "a"))
    for _ in range(3):
        store.bind_results(store.issue(T0, mode=MODE_CORE).S, [good], MODE_CORE, T0 + 1)
        with pytest.raises(SessionError):
            store.bind_results(store.issue(T0, mode=MODE_CORE).S, [good, bad], MODE_CORE, T0 + 1)
    assert checked == [("a", "b"), ("b", "a")]


@given(st.sets(st.text(max_size=3), max_size=40), st.text(max_size=3), st.data())
@settings(max_examples=200, deadline=None)
def test_in_result_set_is_set_membership(ids, outsider, data):
    # The ids cut into cells, each sorted, listed in any order.
    bound = sorted(ids, key=lambda s: s.encode("utf-8"))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(bound)), max_size=4)))
    spans = zip([0, *cuts], [*cuts, len(bound)])
    cells = data.draw(st.permutations([Cell(tuple(bound[a:b])) for a, b in spans if a < b]))
    drop_id = data.draw(st.sampled_from(bound)) if bound and data.draw(st.booleans()) else outsider
    assert (merkle.locate(cells, drop_id) is not None) == (drop_id in ids)


def test_bind_is_once_and_mode_checked():
    store = _store()
    record = store.issue(T0, mode=MODE_FULL)
    store.bind_results(record.S, _cells(["a"]), MODE_FULL, T0 + 1)
    with pytest.raises(AlreadyBoundError):
        store.bind_results(record.S, _cells(["b"]), MODE_FULL, T0 + 2)
    other = store.issue(T0, mode=MODE_FULL)
    with pytest.raises(SessionError):
        store.bind_results(other.S, _cells(["a"]), MODE_CORE, T0 + 1)
    with pytest.raises(SessionError):
        store.bind_results(other.S, [], MODE_FULL, T0 + 1)


def test_compact_state_is_constant_size():
    # what a compact verifier keeps per session: root, never the result list
    store = _store()
    small = store.issue(T0, mode=MODE_FULL)
    store.bind_results(small.S, _cells(["a"]), MODE_FULL, T0 + 1)
    big = store.issue(T0, mode=MODE_FULL)
    store.bind_results(big.S, _cells([f"d{i:06d}" for i in range(5000)]), MODE_FULL, T0 + 1)
    assert len(small.compact_bytes()) == len(big.compact_bytes()) == 140


def test_compact_bytes_fields():
    store = _store()
    record = store.issue(T0, mode=MODE_FULL)
    store.bind_results(record.S, _cells(["a", "b"]), MODE_FULL, T0 + 1)
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
            ids = sorted(ids)
            self.store.bind_results(S, _cells(ids), mode, self.now)
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
