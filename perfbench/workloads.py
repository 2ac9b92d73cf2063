"""Seeded inputs and closed-loop drivers for the three workloads.

One client, no threads: each op starts when the previous one has ended.
A run repeats *passes*.  A pass builds a fresh server (or, on ``ladder``, the
nine rungs) and runs the workload's fixed op list on it, so memory, result
sets and per-op counts depend on the seed alone and not on how fast the
program is.  Every pass runs the same inputs, which makes each pass one
comparable sample of the timings.  Logical time is fixed at ``NOW``, well
inside every session's TTL, so nothing expires mid-flow.

  full-1km  search -> unlock -> audit-record round trip -> audit(), full mode
  core-1km  the same corpus, queries and picks in core mode; the audit step is
            the record round trip only, because core receipts carry no root
            and ``audit()`` stops at membership for them by design
  ladder    ``run_attack_matrix`` over all nine rungs and six attacks on the
            seven-drop attack corpus; the op is one attack trial

Correctness checks run between ops, outside the timed region.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from sbpp import nizk, protocol
from sbpp.canon import cd_core, cd_full
from sbpp.geoindex import Drop
from sbpp.harness import attacks
from sbpp.receipt import server_keygen, verify_receipt
from sbpp.session import MODE_CORE, MODE_FULL, ZERO_ROOT
from sbpp.variants import VARIANT_KINDS

from gauge import SpeedGauge
from tracing import Tracer

TOKYO_BBOX = (35.6, 35.8, 139.6, 139.9)  # (lat_min, lat_max, lon_min, lon_max)
N_DROPS = 10_000
RADIUS_M = 1000.0
PRECISIONS = (5,)
NOW = 1_700_000_000
TTL_S = 300
EARTH_RADIUS_M = 6_371_000.0

PROTOCOL_REASONS = (
    "session-invalid",
    "expired",
    "consumed",
    "nonce-digest-mismatch",
    "not-in-result-set",
    "merkle-invalid",
    "proof-invalid",
    "receipt-sig-invalid",
)
VARIANT_REASONS = PROTOCOL_REASONS + (
    "nonce-echo-mismatch",
    "evidence-invalid",
    "token-hash-mismatch",
    "token-sig-invalid",
)

# Which end-to-end timing each variant method's time counts towards on `ladder`.
LADDER_PHASES = {
    "open_session": "search_ms",
    "search": "search_ms",
    "build_unlock": "unlock_ms",
    "build_nonmember_unlock": "unlock_ms",
    "verify": "unlock_ms",
    "audit_record": "audit_ms",
    "audit": "audit_ms",
}


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Query:
    lat: float
    lon: float
    pick: float  # in [0, 1): which returned candidate the user unlocks


def derive_key(label: str, seed: int) -> bytes:
    return hashlib.sha256(f"perfbench:{label}:{seed}".encode()).digest()


def make_corpus(seed: int, n: int = N_DROPS) -> list[Drop]:
    rng = random.Random(f"corpus:{seed}")
    lat_min, lat_max, lon_min, lon_max = TOKYO_BBOX
    return [
        Drop(f"d{i:06d}", rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
        for i in range(n)
    ]


def make_queries(seed: int, rows: int, cols: int) -> list[Query]:
    """One uniform query in each cell of a rows x cols grid over the bbox, in
    seeded order.  Stratifying keeps the mix of central and edge queries, and
    so the result-set sizes, nearly the same from seed to seed."""
    rng = random.Random(f"queries:{seed}")
    lat_min, lat_max, lon_min, lon_max = TOKYO_BBOX
    dlat, dlon = (lat_max - lat_min) / rows, (lon_max - lon_min) / cols
    queries = [
        Query(
            lat_min + (r + rng.random()) * dlat,
            lon_min + (c + rng.random()) * dlon,
            rng.random(),
        )
        for r in range(rows)
        for c in range(cols)
    ]
    rng.shuffle(queries)
    return queries


def pick_index(pick: float, n: int) -> int:
    return min(n - 1, int(pick * n))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin((phi2 - phi1) / 2) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


class Oracle:
    """Ids of the drops within the radius by great-circle distance."""

    def __init__(self, drops: list[Drop], radius_m: float):
        self.radius_m = radius_m
        self._by_lat = sorted(drops, key=lambda d: d.lat)
        self._lats = [d.lat for d in self._by_lat]
        self._dlat = 1.01 * math.degrees(radius_m / EARTH_RADIUS_M)

    def within(self, lat: float, lon: float) -> frozenset[str]:
        lo = bisect.bisect_left(self._lats, lat - self._dlat)
        hi = bisect.bisect_right(self._lats, lat + self._dlat)
        return frozenset(
            d.id
            for d in self._by_lat[lo:hi]
            if haversine_m(lat, lon, d.lat, d.lon) <= self.radius_m
        )


# ---------------------------------------------------------------------------
# what a run collects


TIMINGS = ("search_ms", "unlock_ms", "audit_ms")


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


@dataclass
class PassStats:
    """One pass.  Times are kept raw and, for the metrics, scaled to the
    reference host speed by the pass's gauge (see gauge.py)."""

    setup_s: float = 0.0  # building the server, or the nine rungs; scaled
    ops: int = 0
    op_s: float = 0.0  # seconds spent inside ops; scaled on close()
    raw_op_s: float = 0.0
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    samples: dict[str, list[tuple[float, int]]] = field(default_factory=lambda: {k: [] for k in TIMINGS})
    op_marks: list[tuple[float, int]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)  # samples per timing
    percentiles: dict[str, tuple[float, float]] = field(default_factory=dict)  # scaled (p50, p90)

    def add_setup(self, seconds: float) -> None:
        self.setup_s += self.gauge.scaled_now(seconds)

    def add_op(self, op_s: float, timings_ms: dict[str, float]) -> None:
        """An op that took ``op_s`` and spent ``timings_ms`` in each timed phase.

        Called after the op has ended: the gauge may run a slice here."""
        mark = self.gauge.after_op(op_s)
        self.raw_op_s += op_s
        self.op_marks.append((op_s, mark))
        for key, ms in timings_ms.items():
            self.samples[key].append((ms, mark))

    def close(self) -> None:
        """Scale the times and keep only the percentiles, so memory does not
        grow with the number of passes."""
        scale = self.gauge.scale
        self.op_s = sum(s * scale(mark) for s, mark in self.op_marks)
        for key, values in self.samples.items():
            self.counts[key] = len(values)
            if len(values) >= 2:
                scaled = [ms * scale(mark) for ms, mark in values]
                self.percentiles[key] = (statistics.median(scaled), p90(scaled))
        self.samples, self.op_marks = {}, []


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    passes: list[PassStats] = field(default_factory=list)
    returned_ids: int = 0  # ids returned by searches
    in_radius_ids: int = 0  # of those, ids within the radius

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] += 1


# ---------------------------------------------------------------------------
# full-1km and core-1km


class ProtocolWorkload:
    """Search, unlock and audit sessions of one SBPP mode over 10k Tokyo drops."""

    corpus = "uniform-tokyo"

    def __init__(self, mode: str, seed: int, grid: tuple[int, int]):
        self.mode = mode
        self.seed = seed
        self.drops = make_corpus(seed)
        self.queries = make_queries(seed, *grid)
        self.search_key = derive_key("search", seed)
        self.signing_key = server_keygen(derive_key("sign", seed))
        self.proving_key, self.verifying_key = nizk.setup(derive_key("nizk", seed))
        self.client = protocol.SbppClient(self.search_key, self.proving_key)
        self.oracle = Oracle(self.drops, RADIUS_M)
        self._truth: dict[int, frozenset[str]] = {}
        self.result_sizes: dict[int, int] = {}
        self.table_len = 0

    def build(self) -> protocol.SbppServer:
        return protocol.SbppServer(
            drops=self.drops,
            search_key=self.search_key,
            signing_key=self.signing_key,
            nizk_vk=self.verifying_key,
            mode=self.mode,
            precisions=list(PRECISIONS),
            ttl_s=TTL_S,
            unlock_radius_m=RADIUS_M,
            nonce_rng=random.Random(f"nonce:{self.seed}"),
        )

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> None:
        stats = PassStats()
        if tracer:
            tracer.begin("setup")
        t0 = perf_counter()
        server = self.build()
        t1 = perf_counter()
        if tracer:
            tracer.end()
        stats.add_setup(t1 - t0)
        for i, query in enumerate(self.queries):
            self._op(server, i, query, tally, stats, tracer)
        stats.close()
        tally.passes.append(stats)
        self.table_len = len(server.sessions)

    def _op(self, server, i: int, q: Query, tally: Tally, stats: PassStats, tracer: Tracer | None) -> None:
        client = self.client
        tally.attempted += 1
        stats.ops += 1
        if tracer:
            tracer.begin("op")
        t0 = perf_counter()
        ses = client.open_session(server, NOW)
        client.search(server, ses, q.lat, q.lon, RADIUS_M, NOW)
        t1 = perf_counter()
        if not ses.candidates:
            if tracer:
                tracer.end()
            stats.add_op(t1 - t0, {})
            tally.fail("empty-search")
            return
        target = ses.candidates[pick_index(q.pick, len(ses.candidates))]
        request = client.build_unlock(ses, target.id, nizk.Witness(target.lat, target.lon))
        outcome = server.verify(request, NOW)
        t2 = perf_counter()
        record = protocol.emit_audit_record(ses, request)
        parsed = protocol.AuditRecord.parse(record.serialize())
        verdict = None
        if self.mode == MODE_FULL:
            verdict = protocol.audit(server.public_key_bytes, self.verifying_key, parsed)
        t3 = perf_counter()
        if tracer:
            tracer.end()
        stats.add_op(
            t3 - t0,
            {"search_ms": (t1 - t0) * 1e3, "unlock_ms": (t2 - t1) * 1e3, "audit_ms": (t3 - t2) * 1e3},
        )
        problem = self._check(server, i, q, ses, target, request, outcome, record, parsed, verdict, tally)
        if problem:
            tally.fail(problem)

    def truth(self, i: int, q: Query) -> frozenset[str]:
        if i not in self._truth:
            self._truth[i] = self.oracle.within(q.lat, q.lon)
        return self._truth[i]

    def _check(
        self, server, i, q, ses, target, request, outcome, record, parsed, verdict, tally
    ) -> str | None:
        """The first thing wrong with a finished op, or None."""
        returned = {c.id for c in ses.candidates}
        truth = self.truth(i, q)
        self.result_sizes[i] = len(returned)
        tally.returned_ids += len(returned)
        tally.in_radius_ids += len(truth & returned)
        if not truth <= returned:
            return "recall-below-1"
        if not outcome.accepted:
            return f"honest-unlock-rejected:{outcome.fail_reason}"
        if verdict is not None and not verdict.accepted:
            return f"honest-audit-rejected:{verdict.fail_reason}"
        if parsed != record:
            return "audit-record-round-trip"
        rcpt = ses.receipt
        if rcpt is None or not verify_receipt(server.public_key_bytes, rcpt):
            return "receipt-signature"
        # The proof's digest commits to the client's recomputed root, so it
        # matches a digest over receipt.root only if the two roots are equal.
        if self.mode == MODE_FULL:
            expected = cd_full(target.id, rcpt.pv, rcpt.epoch, rcpt.N, rcpt.root)
        else:
            expected = cd_core(target.id, rcpt.pv, rcpt.epoch, rcpt.N)
            if rcpt.root != ZERO_ROOT:
                return "core-receipt-root"
        if request.pub[7] != expected:
            return "client-root-differs-from-receipt"
        return None

    def meta(self) -> dict:
        sizes = list(self.result_sizes.values()) or [0]
        return {
            "corpus": self.corpus,
            "corpus_size": len(self.drops),
            "radius_m": RADIUS_M,
            "mode": self.mode,
            "index_precisions": list(PRECISIONS),
            "ops_per_pass": len(self.queries),
            "result_set": {"min": min(sizes), "mean": sum(sizes) / len(sizes), "max": max(sizes)},
        }


# ---------------------------------------------------------------------------
# ladder


def _stopwatch(fn, phase: str, phases: Counter):
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[phase] += perf_counter() - t0

    return timed


class LadderWorkload:
    """The V1-V8 attack matrix; the op is one attack trial against one rung.

    On this workload ``search_ms``, ``unlock_ms`` and ``audit_ms`` are the
    time one trial spends in the rung's search, unlock and audit calls
    (see LADDER_PHASES); a trial that makes no such call adds no sample.
    """

    corpus = "attack-corpus"

    def __init__(self, seed: int, trials_per_cell: int):
        self.seed = seed
        self.trials = trials_per_cell
        self.drops = attacks.attack_corpus()
        self.truth = Oracle(self.drops, attacks.RADIUS_M).within(attacks.QUERY_LAT, attacks.QUERY_LON)
        probe = attacks.build_variant("V4b", seed)
        ses = probe.open_session(attacks.T0)
        probe.search(ses, attacks.QUERY_LAT, attacks.QUERY_LON, attacks.RADIUS_M, attacks.T0)
        self.result_size = len(ses.result_ids())
        self.rung_s: Counter = Counter()  # untraced trial seconds per rung
        self.rung_trials: Counter = Counter()
        self.table_len = 0

    def build(self) -> list:
        return [attacks.build_variant(kind, self.seed) for kind in VARIANT_KINDS]

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> None:
        stats = PassStats()
        phases: Counter = Counter()
        rungs: list = []
        build_variant, attack_funcs = attacks.build_variant, attacks.ATTACK_FUNCS

        def instrumented_build(kind, seed, token_includes_root=True):
            if tracer:
                tracer.begin("setup")
            t0 = perf_counter()
            variant = build_variant(kind, seed, token_includes_root=token_includes_root)
            t1 = perf_counter()
            if tracer:
                tracer.end()
            stats.add_setup(t1 - t0)
            for method, phase in LADDER_PHASES.items():
                setattr(variant, method, _stopwatch(getattr(variant, method), phase, phases))
            if tracer:
                variant.search = self._counting_search(variant.search, tally)
            rungs.append(variant)
            return variant

        def trial_of(attack: str, fn):
            expected = attacks.EXPECTED_MATRIX[attack]

            def trial(variant) -> bool:
                phases.clear()
                tally.attempted += 1
                stats.ops += 1
                if tracer:
                    tracer.begin("op")
                t0 = perf_counter()
                try:
                    blocked = fn(variant)
                except attacks.EnvInsufficientError:
                    tally.fail(f"skipped:{attack}/{variant.kind}")
                    raise
                finally:
                    dt = perf_counter() - t0
                    if tracer:
                        tracer.end()
                stats.add_op(dt, {phase: seconds * 1e3 for phase, seconds in phases.items()})
                if tracer is None:
                    self.rung_s[variant.kind] += dt
                    self.rung_trials[variant.kind] += 1
                if blocked != expected[variant.kind]:
                    tally.fail(f"matrix-cell:{attack}/{variant.kind}")
                return blocked

            return trial

        failed_before = tally.failed
        attacks.build_variant = instrumented_build
        attacks.ATTACK_FUNCS = {a: trial_of(a, fn) for a, fn in attack_funcs.items()}
        try:
            result = attacks.run_attack_matrix(trials=self.trials, seed=self.seed)
        finally:
            attacks.build_variant, attacks.ATTACK_FUNCS = build_variant, attack_funcs
        if tally.failed == failed_before and not result.matches_expected():
            tally.fail("matrix-differs")
        stats.close()
        tally.passes.append(stats)
        self.table_len = sum(len(v.sessions) for v in rungs)

    def _counting_search(self, search, tally: Tally):
        def counted(vses, lat, lon, radius_m, now):
            out = search(vses, lat, lon, radius_m, now)
            ids = set(vses.result_ids())
            tally.returned_ids += len(ids)
            tally.in_radius_ids += len(ids & self.truth)
            return out

        return counted

    def meta(self) -> dict:
        n = self.result_size
        return {
            "corpus": self.corpus,
            "corpus_size": len(self.drops),
            "radius_m": attacks.RADIUS_M,
            "mode": "V1-V8 ladder",
            "index_precisions": list(PRECISIONS),
            "trials_per_cell": self.trials,
            "ops_per_pass": self.trials * len(attacks.ATTACK_KINDS) * len(VARIANT_KINDS),
            "result_set": {"min": n, "mean": n, "max": n},
        }


# A pass has at least 100 samples of each timing, so that ten lie beyond its
# p90, and is short enough that a run holds several passes.
WORKLOADS = {
    "full-1km": lambda seed: ProtocolWorkload(MODE_FULL, seed, grid=(10, 10)),
    "core-1km": lambda seed: ProtocolWorkload(MODE_CORE, seed, grid=(15, 20)),
    "ladder": lambda seed: LadderWorkload(seed, trials_per_cell=15),
}
