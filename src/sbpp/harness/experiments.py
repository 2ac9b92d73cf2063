"""Desk-scale experiments: re-association, audit replay, fault localization,
Merkle scaling, session atomicity/isolation, malicious-server behaviors,
protocol-path latency, and search quality.

Every function takes a seed and returns a small result dataclass whose
`to_report()` renders an aligned table / CSV.  Non-timing outputs are
deterministic given the seed; timings are reported but never asserted here.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from ..canon import cd_core, lp_decode, lp_encode
from ..geoindex import (
    EARTH_RADIUS_M,
    Drop,
    TOKYO_BBOX,
    build_index,
    client_tokens,
    gen_clustered_corpus,
    gen_uniform_corpus,
    geohash_encode,
    haversine_m,
    precision_for_radius,
)
from ..merkle import MerklePath, build_tree, verify_membership
from ..protocol import (
    AuditRecord,
    R_CONSUMED,
    R_EXPIRED,
    SbppClient,
    SbppServer,
    UnlockRequest,
    audit,
    emit_audit_record,
)
from ..receipt import verify_receipt
from ..session import DEFAULT_EPOCH, DEFAULT_PV, MODE_CORE, MODE_FULL, SessionRecord, SessionStore
from .attacks import (
    QUERY_LAT,
    QUERY_LON,
    RADIUS_M,
    T0,
    TTL_S,
    WITNESS_NEAR_QUERY,
    build_variant,
    derive_key,
    protocol_pair,
    seeded_env,
)
from .report import ExperimentReport


def _honest_flow(server: SbppServer, client: SbppClient, now: int):
    ses = client.open_session(server, now)
    client.search(server, ses, QUERY_LAT, QUERY_LON, RADIUS_M, now)
    request = client.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
    return ses, request


# ---------------------------------------------------------------------------
# cross-session re-association


@dataclass
class ReassociationResult:
    n_sessions: int
    epoch_every: int
    n_drops: int
    seed: int
    rates: dict[str, float]
    analytic_rate: float

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport(
            "reassociation",
            {
                "n_sessions": self.n_sessions,
                "epoch_every": self.epoch_every,
                "n_drops": self.n_drops,
                "seed": self.seed,
            },
        )
        rep.add("analytic_rate_uniform_model", self.analytic_rate)
        for kind, rate in self.rates.items():
            rep.add(f"rate_{kind}", rate)
        return rep


def reassociation_experiment(
    n_sessions: int = 1000,
    epoch_every: int = 25,
    n_drops: int = 20,
    seed: int = 0,
    variants: tuple[str, ...] = ("V2", "V3", "V4a", "V4b"),
) -> ReassociationResult:
    """Adversary links proofs across sessions that share (drop, pv, epoch).

    Model: `n_drops` co-located drops, one unlock per session with the drop
    chosen uniformly, epoch rotated every `epoch_every` sessions.  A session
    is re-associated when some other same-epoch session produced a proof
    with an identical challenge digest for the same drop.  Under uniform
    choice the per-session rate is 1 - (1 - 1/m)^(K-1).
    """
    if epoch_every < 1:
        raise ValueError("epoch_every must be >= 1")
    cluster = [Drop(f"d{i:02d}", QUERY_LAT + i * 5e-5, QUERY_LON) for i in range(n_drops)]
    analytic = 1.0 - (1.0 - 1.0 / n_drops) ** (epoch_every - 1)
    rates: dict[str, float] = {}
    for kind in variants:
        variant = build_variant(kind, seed, drops=cluster)
        chooser = random.Random(f"reassoc:{seed}")
        records: list[tuple[str, str, bytes]] = []
        for i in range(n_sessions):
            if i % epoch_every == 0:
                variant.set_epoch(f"ep{i // epoch_every}")
            ses = variant.open_session(T0)
            variant.search(ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
            ids = ses.result_ids()
            drop_id = ids[chooser.randrange(len(ids))]
            request = variant.build_unlock(ses, drop_id, WITNESS_NEAR_QUERY)
            records.append((ses.epoch, drop_id, request.pub[7].to_bytes()))
        groups = Counter(records)
        hits = sum(1 for rec in records if groups[rec] >= 2)
        rates[kind] = hits / n_sessions
    return ReassociationResult(n_sessions, epoch_every, n_drops, seed, rates, analytic)


# ---------------------------------------------------------------------------
# Merkle verifier scaling


@dataclass(frozen=True)
class MerkleSizeRow:
    n: int
    build_ms: float
    prove_us: float
    verify_us: float
    steps: int
    compact_state_bytes: int


@dataclass
class MerkleBenchResult:
    rows: list[MerkleSizeRow]

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport("merkle_bench", {"sizes": [r.n for r in self.rows]})
        for r in self.rows:
            rep.add(f"n={r.n} build_ms", round(r.build_ms, 3))
            rep.add(f"n={r.n} prove_us", round(r.prove_us, 2))
            rep.add(f"n={r.n} verify_us", round(r.verify_us, 2))
            rep.add(f"n={r.n} path_steps", r.steps)
            rep.add(f"n={r.n} compact_state_bytes", r.compact_state_bytes)
        return rep


def merkle_bench(
    sizes: tuple[int, ...] = (100, 1000, 5000, 10000, 20000, 50000),
    prove_samples: int = 100,
    seed: int = 0,
) -> MerkleBenchResult:
    """Tree build/prove/verify scaling plus the size of the state a
    compact verifier keeps per session (root, not result set)."""
    rng = random.Random(f"merkle:{seed}")
    rows = []
    for n in sizes:
        ids = [f"d{i:06d}" for i in range(n)]
        t_start = time.perf_counter()
        tree = build_tree(ids)
        build_ms = (time.perf_counter() - t_start) * 1e3
        sample = [ids[rng.randrange(n)] for _ in range(prove_samples)]
        t_start = time.perf_counter()
        paths = [tree.prove_membership(d) for d in sample]
        prove_us = (time.perf_counter() - t_start) / prove_samples * 1e6
        t_start = time.perf_counter()
        ok = all(
            verify_membership(tree.root, d, p) for d, p in zip(sample, paths, strict=True)
        )
        verify_us = (time.perf_counter() - t_start) / prove_samples * 1e6
        if not ok:
            raise AssertionError("membership verification failed during bench")
        record = SessionRecord(
            S="00" * 16,
            N=bytes(32),
            t_issue=T0,
            t_exp=T0 + TTL_S,
            mode=MODE_FULL,
            pv=DEFAULT_PV,
            epoch=DEFAULT_EPOCH,
            root=tree.root,
        )
        rows.append(
            MerkleSizeRow(
                n=n,
                build_ms=build_ms,
                prove_us=prove_us,
                verify_us=verify_us,
                steps=len(paths[0].steps),
                compact_state_bytes=len(record.compact_bytes()),
            )
        )
    return MerkleBenchResult(rows)


# ---------------------------------------------------------------------------
# offline audit replay and fault localization


@dataclass
class AuditReplayResult:
    n: int
    full_pass: int
    core_pass: int
    core_reasons: Counter
    v4b_fault_reasons: dict[str, Counter]
    v8_fault_reasons: dict[str, Counter]

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport("audit_replay", {"n": self.n})
        rep.add("full_honest_pass", f"{self.full_pass}/{self.n}")
        rep.add("core_honest_pass", f"{self.core_pass}/{self.n}")
        for reason, count in sorted(self.core_reasons.items()):
            rep.add(f"core_fail[{reason}]", count)
        for injection, reasons in self.v4b_fault_reasons.items():
            for reason, count in sorted(reasons.items()):
                rep.add(f"v4b_fault[{injection}][{reason}]", count)
        for injection, reasons in self.v8_fault_reasons.items():
            for reason, count in sorted(reasons.items()):
                rep.add(f"v8_fault[{injection}][{reason}]", count)
        return rep


def _flip_byte(raw: bytes, index: int = 0) -> bytes:
    out = bytearray(raw)
    out[index] ^= 0xFF
    return bytes(out)


def _flip_first_sibling(path: MerklePath) -> MerklePath:
    first, *rest = path.steps
    return MerklePath((replace(first, sibling=_flip_byte(first.sibling)), *rest))


def _fault_reasons(injections: dict, audit_one, n: int) -> dict[str, Counter]:
    """Per injection, what its n tampered records audit to: a reason or "accepted"."""
    return {
        name: Counter(audit_one(make(i)).fail_reason or "accepted" for i in range(n))
        for name, make in injections.items()
    }


def audit_replay_experiment(n: int = 100, seed: int = 0) -> AuditReplayResult:
    """Honest full-mode records all replay after the server purges state;
    core-mode records never do; three tampering classes localize to three
    distinct reasons under the full protocol and collapse to one
    undifferentiated reason under the opaque-token rung."""
    # honest full-mode trail, re-parsed from serialized bytes
    server, client = protocol_pair(seeded_env(seed), MODE_FULL)
    records: list[AuditRecord] = []
    for _ in range(n):
        ses, request = _honest_flow(server, client, T0)
        outcome = server.verify(request, T0 + 5)
        if not outcome.accepted:
            raise AssertionError(f"honest unlock rejected: {outcome.fail_reason}")
        rec = emit_audit_record(ses, request)
        records.append(AuditRecord.parse(rec.serialize()))
    server.sessions.purge_all()  # the server forgets everything
    pub_key, vk = server.public_key_bytes, server.nizk_vk
    full_pass = sum(int(audit(pub_key, vk, rec).accepted) for rec in records)

    # core-mode trail: receipts carry no root, so replay cannot attest
    core_server, core_client = protocol_pair(seeded_env(seed + 1), MODE_CORE)
    core_reasons: Counter = Counter()
    core_pass = 0
    for _ in range(n):
        ses, request = _honest_flow(core_server, core_client, T0)
        if not core_server.verify(request, T0 + 5).accepted:
            raise AssertionError("honest core unlock rejected")
        rec = AuditRecord.parse(emit_audit_record(ses, request).serialize())
        outcome = audit(core_server.public_key_bytes, core_server.nizk_vk, rec)
        core_pass += int(outcome.accepted)
        if not outcome.accepted:
            core_reasons[outcome.fail_reason] += 1

    # fault localization on the full-mode records
    injections = {
        "receipt_swap": lambda i: replace(records[i], receipt=records[(i + 1) % n].receipt),
        "path_corrupt": lambda i: replace(
            records[i], merkle_path=_flip_first_sibling(records[i].merkle_path)
        ),
        "receipt_sig_corrupt": lambda i: replace(
            records[i], receipt=replace(records[i].receipt, sig=_flip_byte(records[i].receipt.sig))
        ),
    }
    v4b_faults = _fault_reasons(injections, lambda rec: audit(pub_key, vk, rec), n)

    # the same three tampering classes against the opaque-token rung
    v8 = build_variant("V8", seed + 2)
    v8_records = []
    for _ in range(n):
        ses = v8.open_session(T0)
        v8.search(ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        request = v8.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
        v8_records.append(v8.audit_record(ses, request))

    def _tamper_token_field(token: bytes, field_index: int) -> bytes:
        fields = lp_decode(token)
        fields[field_index] = _flip_byte(fields[field_index])
        return lp_encode(fields)

    v8_injections = {
        "token_swap": lambda i: replace(v8_records[i], token=v8_records[(i + 1) % n].token),
        "token_root_tamper": lambda i: replace(
            v8_records[i], token=_tamper_token_field(v8_records[i].token, 3)
        ),
        "token_sig_tamper": lambda i: replace(
            v8_records[i], token=_tamper_token_field(v8_records[i].token, 6)
        ),
    }
    v8_faults = _fault_reasons(v8_injections, v8.audit, n)

    return AuditReplayResult(
        n=n,
        full_pass=full_pass,
        core_pass=core_pass,
        core_reasons=core_reasons,
        v4b_fault_reasons=v4b_faults,
        v8_fault_reasons=v8_faults,
    )


# ---------------------------------------------------------------------------
# session atomicity and multi-client isolation


@dataclass
class AtomicityResult:
    trials: int
    sequential_ok: int
    parallel_exactly_one: int
    expiry_ok: int
    lifecycle: dict[str, int]
    conservation_ok: bool
    cross_attempts: int
    cross_successes: int
    honest_after_cross: int

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport("atomicity_isolation", {"trials": self.trials})
        rep.add("sequential_double_submit_ok", f"{self.sequential_ok}/{self.trials}")
        rep.add("parallel_exactly_one", f"{self.parallel_exactly_one}/{self.trials}")
        rep.add("expiry_boundary_ok", f"{self.expiry_ok}/{self.trials}")
        for key, value in self.lifecycle.items():
            rep.add(f"lifecycle_{key}", value)
        rep.add("lifecycle_conserved", self.conservation_ok)
        rep.add("cross_access_successes", f"{self.cross_successes}/{self.cross_attempts}")
        rep.add("honest_unlocks_after_cross_attempts", self.honest_after_cross)
        return rep


def atomicity_and_isolation_suite(
    seed: int = 0, trials: int = 1000, bulk_sessions: int = 10000, clients: int = 100
) -> AtomicityResult:
    server, client = protocol_pair(seeded_env(seed), MODE_FULL)

    sequential_ok = 0
    for _ in range(trials):
        _, request = _honest_flow(server, client, T0)
        first = server.verify(request, T0 + 5)
        second = server.verify(request, T0 + 6)
        sequential_ok += int(
            first.accepted and not second.accepted and second.fail_reason == R_CONSUMED
        )

    parallel_exactly_one = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(trials):
            _, request = _honest_flow(server, client, T0)
            barrier = threading.Barrier(2)

            def submit(req=request, gate=barrier):
                gate.wait()
                return server.verify(req, T0 + 5)

            futures = [pool.submit(submit), pool.submit(submit)]
            accepted = sum(int(f.result().accepted) for f in futures)
            parallel_exactly_one += int(accepted == 1)

    expiry_ok = 0
    for t in range(trials):
        _, request = _honest_flow(server, client, T0)
        if t % 2 == 0:
            expiry_ok += int(server.verify(request, T0 + TTL_S - 1).accepted)
        else:
            outcome = server.verify(request, T0 + TTL_S)
            expiry_ok += int(not outcome.accepted and outcome.fail_reason == R_EXPIRED)

    # bulk lifecycle on a bare store: issue, consume a third, expire a wave,
    # leave the late wave pending; the counts must balance exactly
    store = SessionStore(ttl_s=TTL_S, nonce_rng=random.Random(seed + 7))
    first_wave = [store.issue(T0, MODE_FULL) for _ in range(bulk_sessions)]
    consumed_n = bulk_sessions // 3
    for record in first_wave[:consumed_n]:
        if not store.consume(record.S, T0 + 10):
            raise AssertionError("bulk consume failed unexpectedly")
    late_wave_n = bulk_sessions // 5
    for _ in range(late_wave_n):
        store.issue(T0 + 200, MODE_FULL)
    store.purge_expired(T0 + TTL_S + 1)
    lifecycle = store.stats(T0 + TTL_S + 1)
    conservation_ok = (
        lifecycle["issued"] == lifecycle["consumed"] + lifecycle["expired"] + lifecycle["pending"]
        and lifecycle["issued"] == bulk_sessions + late_wave_n
        and lifecycle["consumed"] == consumed_n
        and lifecycle["pending"] == late_wave_n
    )

    # isolation: every client tries every other client's session id
    iso_server, iso_client = protocol_pair(seeded_env(seed + 13), MODE_FULL)
    requests = []
    for _ in range(clients):
        _, request = _honest_flow(iso_server, iso_client, T0)
        requests.append(request)
    cross_successes = 0
    cross_attempts = 0
    for i, request in enumerate(requests):
        for j, other in enumerate(requests):
            if i == j:
                continue
            cross_attempts += 1
            forged = replace(request, S=other.S)
            cross_successes += int(iso_server.verify(forged, T0 + 5).accepted)
    honest_after = sum(int(iso_server.verify(r, T0 + 5).accepted) for r in requests)

    return AtomicityResult(
        trials=trials,
        sequential_ok=sequential_ok,
        parallel_exactly_one=parallel_exactly_one,
        expiry_ok=expiry_ok,
        lifecycle=lifecycle,
        conservation_ok=conservation_ok,
        cross_attempts=cross_attempts,
        cross_successes=cross_successes,
        honest_after_cross=honest_after,
    )


# ---------------------------------------------------------------------------
# malicious-server behaviors


class _OmittingServer(SbppServer):
    """Matches honestly, then silently drops the last candidate."""

    def _match_ids(self, tags):
        ids = super()._match_ids(tags)
        return ids[:-1] if len(ids) > 1 else ids


class _BiasedServer(SbppServer):
    """Consistently returns (and signs) a biased subset of the matches."""

    def _match_ids(self, tags):
        ids = super()._match_ids(tags)
        return ids[::2] if len(ids) > 1 else ids


class _PredictableNonceStore(SessionStore):
    """Rigged issuer: every session gets the same 'random' nonce."""

    FIXED_NONCE = b"\x42" * 32

    def _random_bytes(self, n: int) -> bytes:
        if n == 32:
            return self.FIXED_NONCE
        return super()._random_bytes(n)


@dataclass
class MaliciousServerResult:
    trials: int
    omission_detected: int
    biased_audit_passes: int
    transfer_success_rigged: int
    transfer_success_honest: int
    refusal_detected: int
    forgery_successes: int

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport("malicious_server", {"trials": self.trials})
        rep.add("omission_detected_vs_reference_root", f"{self.omission_detected}/{self.trials}")
        rep.add("biased_root_audit_passes (boundary)", f"{self.biased_audit_passes}/{self.trials}")
        rep.add("nonce_transfer_rigged_issuer", f"{self.transfer_success_rigged}/{self.trials}")
        rep.add("nonce_transfer_honest_issuer", f"{self.transfer_success_honest}/{self.trials}")
        rep.add("refusal_detected (boundary)", f"{self.refusal_detected}/{self.trials}")
        rep.add("receipt_forgery_successes", f"{self.forgery_successes}/{self.trials}")
        return rep


def malicious_server_suite(seed: int = 0, trials: int = 100) -> MaliciousServerResult:
    # every server gets its own nonce RNG; all share the seed's keys
    env = seeded_env(seed)

    # candidate omission: detectable against an honest reference root
    omitting, client = protocol_pair(
        replace(env, nonce_rng=random.Random(seed + 1)), MODE_FULL, _OmittingServer
    )
    reference_ids = build_index(env.search_key, env.drops, list(env.precisions)).match(
        client_tokens(env.search_key, QUERY_LAT, QUERY_LON, RADIUS_M, env.precisions)[1]
    )
    reference_root = build_tree(reference_ids).root
    omission_detected = 0
    for _ in range(trials):
        ses = client.open_session(omitting, T0)
        client.search(omitting, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        omission_detected += int(ses.receipt is not None and ses.receipt.root != reference_root)

    # biased root signing: internally consistent, so the audit passes
    biased, _ = protocol_pair(
        replace(env, nonce_rng=random.Random(seed + 2)), MODE_FULL, _BiasedServer
    )
    biased_passes = 0
    for _ in range(trials):
        ses = client.open_session(biased, T0)
        client.search(biased, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        request = client.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
        if not biased.verify(request, T0 + 5).accepted:
            raise AssertionError("biased-server unlock should still verify")
        rec = emit_audit_record(ses, request)
        biased_passes += int(audit(biased.public_key_bytes, biased.nizk_vk, rec).accepted)

    # predictable nonces: pre-computed proofs transfer across users
    def transfer_trial(server: SbppServer) -> bool:
        ses_a = client.open_session(server, T0)
        client.search(server, ses_a, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        drop_id = ses_a.result_ids()[0]
        request_a = client.build_unlock(ses_a, drop_id, WITNESS_NEAR_QUERY)
        ses_b = client.open_session(server, T0)
        client.search(server, ses_b, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        path_b = build_tree(ses_b.result_ids()).prove_membership(drop_id)
        stolen = UnlockRequest(
            S=ses_b.S, drop_id=drop_id, pub=request_a.pub, proof=request_a.proof, merkle_path=path_b
        )
        return server.verify(stolen, T0 + 5).accepted

    rigged, _ = protocol_pair(replace(env, nonce_rng=random.Random(seed + 3)), MODE_FULL)
    rigged.sessions = _PredictableNonceStore(
        ttl_s=env.ttl_s, pv=env.pv, epoch=env.epoch, nonce_rng=rigged.sessions.nonce_rng
    )
    transfer_rigged = sum(int(transfer_trial(rigged)) for _ in range(trials))
    honest, _ = protocol_pair(replace(env, nonce_rng=random.Random(seed + 4)), MODE_FULL)
    transfer_honest = sum(int(transfer_trial(honest)) for _ in range(trials))

    # session refusal: no artifact is ever issued, so nothing is attributable
    refusal_detected = 0  # denial leaves no receipt to audit; boundary by design

    # authorization forgery without the signing key
    rng = random.Random(f"forgery:{seed}")
    honest_session = client.open_session(honest, T0)
    client.search(honest, honest_session, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
    template = honest_session.receipt
    forgery_successes = 0
    for i in range(trials):
        if i % 2 == 0:
            forged = replace(template, sig=rng.randbytes(64))
        else:
            forged = replace(template, root=rng.randbytes(32))  # body swap, stale sig
        forgery_successes += int(verify_receipt(honest.public_key_bytes, forged))

    return MaliciousServerResult(
        trials=trials,
        omission_detected=omission_detected,
        biased_audit_passes=biased_passes,
        transfer_success_rigged=transfer_rigged,
        transfer_success_honest=transfer_honest,
        refusal_detected=refusal_detected,
        forgery_successes=forgery_successes,
    )


# ---------------------------------------------------------------------------
# protocol-path latency


@dataclass(frozen=True)
class PathStats:
    median_us: float
    mean_us: float
    p95_us: float
    p99_us: float


@dataclass
class LatencyBenchResult:
    n_drops: int
    iters: int
    paths: dict[str, PathStats]
    component_share: dict[str, dict[str, float]]
    ratio_sbpp_over_gridse: float
    ratio_gridse_over_plaintext: float

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport(
            "protocol_latency", {"n_drops": self.n_drops, "iters": self.iters}
        )
        for name, stats_row in self.paths.items():
            rep.add(f"{name}_median_us", round(stats_row.median_us, 2))
            rep.add(f"{name}_mean_us", round(stats_row.mean_us, 2))
            rep.add(f"{name}_p95_us", round(stats_row.p95_us, 2))
            rep.add(f"{name}_p99_us", round(stats_row.p99_us, 2))
        for path, shares in self.component_share.items():
            for comp, share in shares.items():
                rep.add(f"{path}_share_{comp}", round(share, 3))
        rep.add("ratio_sbpp_over_gridse_median", round(self.ratio_sbpp_over_gridse, 3))
        rep.add("ratio_gridse_over_plaintext_median", round(self.ratio_gridse_over_plaintext, 3))
        return rep


def _stats(samples_us: list[float]) -> PathStats:
    ordered = sorted(samples_us)
    n = len(ordered)
    return PathStats(
        median_us=statistics.median(ordered),
        mean_us=statistics.fmean(ordered),
        p95_us=ordered[min(n - 1, int(0.95 * n))],
        p99_us=ordered[min(n - 1, int(0.99 * n))],
    )


def protocol_latency_bench(
    n_drops: int = 1000,
    iters: int = 1000,
    warmup: int = 100,
    seed: int = 0,
    radius_m: float = 1000.0,
) -> LatencyBenchResult:
    """Per-query latency of the three discovery paths.

    plaintext: geohash-encode the query cell (no crypto, no hiding).
    gridse:    derive the padded cover's token set and match it against the index.
    sbpp:      gridse plus the session-validation and challenge-digest steps
               the binding adds to the query path (sessions are issued ahead
               of time; receipt signing and tree building happen per search
               result set, not per query, and are benchmarked separately).
    """
    drops = gen_uniform_corpus(n_drops, seed)
    key = derive_key("latency-search", seed)
    index = build_index(key, drops, [5])
    store = SessionStore(ttl_s=86400, nonce_rng=random.Random(seed + 1))
    rng = random.Random(f"latency:{seed}")
    lat_min, lat_max, lon_min, lon_max = TOKYO_BBOX
    total = warmup + iters
    queries = [
        (rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max)) for _ in range(total)
    ]
    session_records = [store.issue(T0, MODE_CORE) for _ in range(total)]

    plain_us: list[float] = []
    gridse_us: list[float] = []
    sbpp_us: list[float] = []
    comp_sums = {
        "gridse": {"token_gen": 0.0, "match": 0.0},
        "sbpp": {"token_gen": 0.0, "match": 0.0, "validate": 0.0, "digest": 0.0},
    }

    for i, (lat, lon) in enumerate(queries):
        live = i >= warmup
        # plaintext path
        t0 = time.perf_counter_ns()
        p = precision_for_radius(radius_m, lat)
        geohash_encode(lat, lon, p)
        t1 = time.perf_counter_ns()
        if live:
            plain_us.append((t1 - t0) / 1e3)
        # gridse path
        t0 = time.perf_counter_ns()
        _, tags = client_tokens(key, lat, lon, radius_m, index.precisions)
        t1 = time.perf_counter_ns()
        index.match(tags)
        t2 = time.perf_counter_ns()
        if live:
            gridse_us.append((t2 - t0) / 1e3)
            comp_sums["gridse"]["token_gen"] += (t1 - t0) / 1e3
            comp_sums["gridse"]["match"] += (t2 - t1) / 1e3
        # sbpp query path
        record = session_records[i]
        t0 = time.perf_counter_ns()
        _, tags = client_tokens(key, lat, lon, radius_m, index.precisions)
        t1 = time.perf_counter_ns()
        ids = index.match(tags)
        t2 = time.perf_counter_ns()
        store.validate(record.S, T0 + 1)
        t3 = time.perf_counter_ns()
        cd_core(ids[0] if ids else "d000000", record.pv, record.epoch, record.N)
        t4 = time.perf_counter_ns()
        if live:
            sbpp_us.append((t4 - t0) / 1e3)
            comp_sums["sbpp"]["token_gen"] += (t1 - t0) / 1e3
            comp_sums["sbpp"]["match"] += (t2 - t1) / 1e3
            comp_sums["sbpp"]["validate"] += (t3 - t2) / 1e3
            comp_sums["sbpp"]["digest"] += (t4 - t3) / 1e3

    paths = {
        "plaintext": _stats(plain_us),
        "gridse": _stats(gridse_us),
        "sbpp": _stats(sbpp_us),
    }
    component_share = {
        path: {comp: val / sum(comps.values()) for comp, val in comps.items()}
        for path, comps in comp_sums.items()
    }
    return LatencyBenchResult(
        n_drops=n_drops,
        iters=iters,
        paths=paths,
        component_share=component_share,
        ratio_sbpp_over_gridse=paths["sbpp"].median_us / paths["gridse"].median_us,
        ratio_gridse_over_plaintext=paths["gridse"].median_us / paths["plaintext"].median_us,
    )


# ---------------------------------------------------------------------------
# search quality (recall against a haversine oracle) and token-set leakage


QUALITY_RADII_M = (50.0, 100.0, 300.0, 1000.0, 3000.0, 5000.0)
QUALITY_PRECISIONS = ((5,), (4, 5, 6, 7))
QUALITY_CORPORA = {"uniform": gen_uniform_corpus, "clustered": gen_clustered_corpus}


@dataclass(frozen=True)
class QualityRow:
    """One (corpus, index precisions, radius) cell of the sweep."""

    corpus: str
    precisions: tuple[int, ...]
    radius_m: float
    recall_mean: float
    recall_min: float
    queries_with_truth: int
    precision_mean: float
    ids_mean: float  # result-set size per query
    hits_mean: float  # tags per query that hit the index: what the server sees of the cover
    jaccard_near: float
    jaccard_far: float


@dataclass
class SearchQualityResult:
    n_drops: int
    n_queries: int
    rows: tuple[QualityRow, ...]
    runtime_s: float

    @property
    def recall_mean(self) -> float:
        return statistics.fmean(r.recall_mean for r in self.rows)

    @property
    def recall_min(self) -> float:
        return min(r.recall_min for r in self.rows)

    @property
    def precision_mean(self) -> float:
        return statistics.fmean(r.precision_mean for r in self.rows)

    @property
    def jaccard_near_mean(self) -> float:
        return statistics.fmean(r.jaccard_near for r in self.rows)

    @property
    def jaccard_far_mean(self) -> float:
        return statistics.fmean(r.jaccard_far for r in self.rows)

    def to_report(self) -> ExperimentReport:
        rep = ExperimentReport(
            "search_quality",
            {"n_drops": self.n_drops, "n_queries": self.n_queries, "rows": len(self.rows)},
        )
        rep.add("recall_mean", round(self.recall_mean, 4))
        rep.add("recall_min", round(self.recall_min, 4))
        rep.add("precision_mean", round(self.precision_mean, 4))
        rep.add("token_jaccard_near_pairs", round(self.jaccard_near_mean, 4))
        rep.add("token_jaccard_far_pairs", round(self.jaccard_far_mean, 4))
        for row in self.rows:
            name = f"{row.corpus}/p{'+'.join(map(str, row.precisions))}/{row.radius_m:g}m"
            rep.add(f"{name}/recall_min", round(row.recall_min, 4))
            rep.add(f"{name}/queries_with_truth", row.queries_with_truth)
            rep.add(f"{name}/precision_mean", round(row.precision_mean, 4))
            rep.add(f"{name}/ids_mean", round(row.ids_mean, 2))
            rep.add(f"{name}/hits_mean", round(row.hits_mean, 2))
            rep.add(f"{name}/jaccard_near", round(row.jaccard_near, 4))
            rep.add(f"{name}/jaccard_far", round(row.jaccard_far, 4))
        rep.add("runtime_s", round(self.runtime_s, 2))
        return rep


def _jaccard(a: set, b: set) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def _within(by_lat: list[Drop], lats: list[float], lat: float, lon: float, radius_m: float) -> set[str]:
    """Ids within the radius by haversine, scanning only the latitude band."""
    dlat = 1.01 * math.degrees(radius_m / EARTH_RADIUS_M)
    lo, hi = bisect.bisect_left(lats, lat - dlat), bisect.bisect_right(lats, lat + dlat)
    return {d.id for d in by_lat[lo:hi] if haversine_m(lat, lon, d.lat, d.lon) <= radius_m}


def search_quality_experiment(
    n_drops: int = 1000, n_queries: int = 200, radius_m: float | None = None, seed: int = 0
) -> SearchQualityResult:
    """Recall/precision of covering-cell search against exact haversine
    ground truth, with the result-set size and the token-set Jaccard
    similarity an observing server sees for co-located versus distant
    queries (the leakage surface).  One row per corpus kind, index
    precisions and radius (``radius_m``, or every QUALITY_RADII_M); the
    queries are uniform over the corpus bbox and the same in every row."""
    t_start = time.perf_counter()
    key = derive_key("quality-search", seed)
    rng = random.Random(f"quality:{seed}")
    lat_min, lat_max, lon_min, lon_max = TOKYO_BBOX
    queries = [(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max)) for _ in range(n_queries)]
    pairs = []
    for _ in range(50):
        lat = rng.uniform(lat_min + 0.01, lat_max - 0.01)
        lon = rng.uniform(lon_min + 0.01, lon_max - 0.01)
        while True:
            lat_f = rng.uniform(lat_min, lat_max)
            lon_f = rng.uniform(lon_min, lon_max)
            if haversine_m(lat, lon, lat_f, lon_f) > 5000.0:
                break
        pairs.append((lat, lon, lat_f, lon_f))
    radii = QUALITY_RADII_M if radius_m is None else (radius_m,)

    rows = []
    for corpus, gen in QUALITY_CORPORA.items():
        drops = gen(n_drops, seed)
        by_lat = sorted(drops, key=lambda d: d.lat)
        lats = [d.lat for d in by_lat]
        truths = {r: [_within(by_lat, lats, lat, lon, r) for lat, lon in queries] for r in radii}
        for precisions in QUALITY_PRECISIONS:
            index = build_index(key, drops, list(precisions))

            def tags(lat: float, lon: float, r: float) -> list[bytes]:
                return client_tokens(key, lat, lon, r, precisions)[1]

            for r in radii:
                recalls: list[float] = []
                hit_rates: list[float] = []
                sizes: list[int] = []
                hits: list[int] = []
                for (lat, lon), truth in zip(queries, truths[r]):
                    query_tags = tags(lat, lon, r)
                    got = set(index.match(query_tags))
                    sizes.append(len(got))
                    hits.append(sum(t in index.entries for t in query_tags))
                    if truth:
                        recalls.append(len(got & truth) / len(truth))
                    if got:
                        hit_rates.append(len(got & truth) / len(got))
                near = [_jaccard(set(tags(a, b, r)), set(tags(a + 0.002, b, r))) for a, b, _, _ in pairs]
                far = [_jaccard(set(tags(a, b, r)), set(tags(c, d, r))) for a, b, c, d in pairs]
                rows.append(
                    QualityRow(
                        corpus=corpus,
                        precisions=precisions,
                        radius_m=r,
                        recall_mean=statistics.fmean(recalls) if recalls else 1.0,  # nothing to miss
                        recall_min=min(recalls, default=1.0),
                        queries_with_truth=len(recalls),
                        precision_mean=statistics.fmean(hit_rates) if hit_rates else 0.0,
                        ids_mean=statistics.fmean(sizes),
                        hits_mean=statistics.fmean(hits),
                        jaccard_near=statistics.fmean(near),
                        jaccard_far=statistics.fmean(far),
                    )
                )
    return SearchQualityResult(
        n_drops=n_drops,
        n_queries=n_queries,
        rows=tuple(rows),
        runtime_s=time.perf_counter() - t_start,
    )
