"""Desk-scale experiments: re-association, audit replay, fault localization,
Merkle scaling, session atomicity/isolation, malicious-server behaviors,
protocol-path latency, and search quality.

Every runner takes a seed and returns the `ExperimentReport` its `sbpp
bench` or `sbpp experiment` command prints: each metric once, with its raw
value (`report[metric]`) and, for a measured float, the decimals it is
shown with.  Non-timing outputs are deterministic given the seed; timings
are reported but never asserted here.
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
from dataclasses import replace

from .. import nizk
from ..canon import cd_core, lp_decode, lp_encode
from ..geoindex import (
    EARTH_RADIUS_M,
    Drop,
    TOKYO_BBOX,
    build_index,
    client_tokens,
    drops_of,
    gen_clustered_corpus,
    gen_uniform_corpus,
    geohash_encode,
    haversine_m,
    precision_for_radius,
)
from ..merkle import (
    Cell,
    MerklePath,
    MerkleTree,
    PathStep,
    build_tree,
    verify_membership,
)
from ..protocol import (
    AuditKeys,
    AuditRecord,
    ClientSession,
    ProtocolError,
    R_CONSUMED,
    R_EXPIRED,
    SbppClient,
    SbppServer,
    UnlockRequest,
    VariantEnv,
    audit,
    derive_key,
    emit_audit_record,
    protocol_pair,
    seeded_env,
)
from ..receipt import signature_memo, verify_receipt
from ..session import DEFAULT_EPOCH, DEFAULT_PV, DEFAULT_TTL_S, MODE_CORE, MODE_FULL, SessionRecord, SessionStore
from .attacks import (
    QUERY_LAT,
    QUERY_LON,
    RADIUS_M,
    T0,
    WITNESS_NEAR_QUERY,
    _searched_sessions,
    attack_corpus,
    build_variant,
)
from .report import ExperimentReport


def _searched(server: SbppServer, client: SbppClient) -> ClientSession:
    """A session opened on ``server`` and searched at the query point, at T0."""
    ses = client.open_session(server, T0)
    return client.search(server, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)


def _honest_flow(server: SbppServer, client: SbppClient) -> tuple[ClientSession, UnlockRequest]:
    """A searched session and the client's request for its first id."""
    ses = _searched(server, client)
    return ses, client.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)


# ---------------------------------------------------------------------------
# cross-session re-association


def reassociation_experiment(
    n_sessions: int = 1000,
    epoch_every: int = 25,
    n_drops: int = 20,
    seed: int = 0,
) -> ExperimentReport:
    """Adversary links proofs across sessions that share (drop, pv, epoch).

    Model: `n_drops` co-located drops, one unlock per session with the drop
    chosen uniformly, epoch rotated every `epoch_every` sessions (the last
    epoch may be shorter).  A session is re-associated when some other
    same-epoch session produced a proof with an identical challenge digest
    for the same drop.  Under uniform choice the rate in an epoch of K
    sessions is 1 - (1 - 1/m)^(K-1); the analytic rate averages it over the
    run's sessions.  Measured on V2, V3 (context-only digests) and V4a, V4b
    (session-bound).
    """
    if epoch_every < 1:
        raise ValueError("epoch_every must be >= 1")
    rep = ExperimentReport(
        "reassociation",
        {"n_sessions": n_sessions, "epoch_every": epoch_every, "n_drops": n_drops, "seed": seed},
    )
    epochs = [min(epoch_every, n_sessions - start) for start in range(0, n_sessions, epoch_every)]
    analytic = sum(k * (1.0 - (1.0 - 1.0 / n_drops) ** (k - 1)) for k in epochs) / n_sessions
    rep.add("analytic_rate_uniform_model", analytic)
    cluster = [Drop(f"d{i:02d}", QUERY_LAT + i * 5e-5, QUERY_LON) for i in range(n_drops)]
    for kind in ("V2", "V3", "V4a", "V4b"):
        variant = build_variant(kind, seed, drops=cluster)
        chooser = random.Random(f"reassoc:{seed}")
        records: list[tuple[str, str, bytes]] = []
        for e, size in enumerate(epochs):
            variant.set_epoch(f"ep{e}")
            for ses in _searched_sessions(variant, size):
                ids = ses.result_ids()
                drop_id = ids[chooser.randrange(len(ids))]
                request = variant.build_unlock(ses, drop_id, WITNESS_NEAR_QUERY)
                records.append((ses.epoch, drop_id, request.pub[7].to_bytes()))
        groups = Counter(records)
        rep.add(f"rate_{kind}", sum(1 for rec in records if groups[rec] >= 2) / n_sessions)
    return rep


# ---------------------------------------------------------------------------
# Merkle verifier scaling


def merkle_bench(
    sizes: tuple[int, ...] = (100, 1000, 5000, 10000, 20000, 50000),
    prove_samples: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Tree build/prove/verify scaling plus the size of the state a
    compact verifier keeps per session (root, not result set)."""
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes {list(sizes)} name a size twice")
    rep = ExperimentReport("merkle_bench", {"sizes": list(sizes)})
    rng = random.Random(f"merkle:{seed}")
    for n in sizes:
        ids = [f"d{i:06d}" for i in range(n)]
        t_start = time.perf_counter()
        tree = MerkleTree(ids)
        rep.add(f"n={n} build_ms", (time.perf_counter() - t_start) * 1e3, 3)
        sample = [ids[rng.randrange(n)] for _ in range(prove_samples)]
        t_start = time.perf_counter()
        paths = [tree.prove_membership(d) for d in sample]
        rep.add(f"n={n} prove_us", (time.perf_counter() - t_start) / prove_samples * 1e6, 2)
        t_start = time.perf_counter()
        ok = all(
            verify_membership(tree.root, d, p) for d, p in zip(sample, paths, strict=True)
        )
        rep.add(f"n={n} verify_us", (time.perf_counter() - t_start) / prove_samples * 1e6, 2)
        if not ok:
            raise AssertionError("membership verification failed during bench")
        record = SessionRecord(
            S="00" * 16,
            N=bytes(32),
            t_exp=T0 + DEFAULT_TTL_S,
            mode=MODE_FULL,
            pv=DEFAULT_PV,
            epoch=DEFAULT_EPOCH,
            root=tree.root,
        )
        rep.add(f"n={n} path_steps", len(paths[0].steps))
        rep.add(f"n={n} compact_state_bytes", len(record.compact_bytes()))
    return rep


# ---------------------------------------------------------------------------
# offline audit replay and fault localization


def _flip_byte(raw: bytes, index: int = 0) -> bytes:
    out = bytearray(raw)
    out[index] ^= 0xFF
    return bytes(out)


def _flip_first_sibling(path: MerklePath) -> MerklePath:
    first, *rest = path.steps
    return MerklePath((PathStep(first.side, _flip_byte(first.sibling)), *rest))


def _add_faults(rep: ExperimentReport, label: str, injections: dict, audit_one, n: int) -> None:
    """Per injection, how many of its n tampered records audit to each
    reason (or to "accepted"), one row per reason."""
    for name, make in injections.items():
        reasons = Counter(audit_one(make(i)).fail_reason or "accepted" for i in range(n))
        for reason, count in sorted(reasons.items()):
            rep.add(f"{label}[{name}][{reason}]", count)


def _honest_trail(server: SbppServer, client: SbppClient, n: int) -> list[AuditRecord]:
    """The records of ``n`` honest unlocks, each verified by the server and
    re-parsed from its serialized bytes."""
    records = []
    for _ in range(n):
        ses, request = _honest_flow(server, client)
        outcome = server.verify(request, T0 + 5)
        if not outcome.accepted:
            raise AssertionError(f"honest {server.mode} unlock rejected: {outcome.fail_reason}")
        records.append(AuditRecord.parse(emit_audit_record(ses, request).serialize()))
    return records


def audit_replay_experiment(n: int = 100, seed: int = 0) -> ExperimentReport:
    """Honest full-mode records all replay after the server purges state;
    core-mode records never do; three tampering classes localize to three
    distinct reasons under the full protocol and collapse to one
    undifferentiated reason under the opaque-token rung.  Needs n >= 2:
    a swap gives each record another record's receipt (or token)."""
    if n < 2:
        raise ValueError(f"audit replay needs n >= 2 records, got {n}: a swap takes another record's receipt")
    rep = ExperimentReport("audit_replay", {"n": n})
    server, client = protocol_pair(seeded_env(seed, attack_corpus()), MODE_FULL)
    records = _honest_trail(server, client, n)
    server.sessions.purge_all()  # the server forgets everything
    # one auditor per server key, so a receipt it has verified is not verified again
    auditor = AuditKeys(server.public_key_bytes, server.nizk_vk, signature_memo())
    rep.add("full_honest_pass", f"{sum(int(auditor.audit(rec).accepted) for rec in records)}/{n}")

    # core-mode trail: receipts carry no root, so replay cannot attest
    core_server, core_client = protocol_pair(seeded_env(seed + 1, attack_corpus()), MODE_CORE)
    core_auditor = AuditKeys(core_server.public_key_bytes, core_server.nizk_vk, signature_memo())
    core_outcomes = [core_auditor.audit(rec) for rec in _honest_trail(core_server, core_client, n)]
    rep.add("core_honest_pass", f"{sum(int(outcome.accepted) for outcome in core_outcomes)}/{n}")
    for reason, count in sorted(Counter(o.fail_reason for o in core_outcomes if not o.accepted).items()):
        rep.add(f"core_fail[{reason}]", count)

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
    _add_faults(rep, "v4b_fault", injections, auditor.audit, n)

    # the same three tampering classes against the opaque-token rung
    v8 = build_variant("V8", seed + 2)
    v8_records = [
        v8.audit_record(ses, v8.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY))
        for ses in _searched_sessions(v8, n)
    ]

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
    _add_faults(rep, "v8_fault", v8_injections, v8.audit, n)
    return rep


# ---------------------------------------------------------------------------
# session atomicity and multi-client isolation


def atomicity_and_isolation_suite(
    seed: int = 0, trials: int = 1000, bulk_sessions: int = 10000, clients: int = 100
) -> ExperimentReport:
    rep = ExperimentReport("atomicity_isolation", {"trials": trials})
    server, client = protocol_pair(seeded_env(seed, attack_corpus()), MODE_FULL)

    sequential_ok = 0
    for _ in range(trials):
        _, request = _honest_flow(server, client)
        first = server.verify(request, T0 + 5)
        second = server.verify(request, T0 + 6)
        sequential_ok += int(
            first.accepted and not second.accepted and second.fail_reason == R_CONSUMED
        )
    rep.add("sequential_double_submit_ok", f"{sequential_ok}/{trials}")

    parallel_exactly_one = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(trials):
            _, request = _honest_flow(server, client)
            barrier = threading.Barrier(2)

            def submit(req=request, gate=barrier):
                gate.wait()
                return server.verify(req, T0 + 5)

            futures = [pool.submit(submit), pool.submit(submit)]
            accepted = sum(int(f.result().accepted) for f in futures)
            parallel_exactly_one += int(accepted == 1)
    rep.add("parallel_exactly_one", f"{parallel_exactly_one}/{trials}")

    expiry_ok = 0
    for t in range(trials):
        _, request = _honest_flow(server, client)
        if t % 2 == 0:
            expiry_ok += int(server.verify(request, T0 + DEFAULT_TTL_S - 1).accepted)
        else:
            outcome = server.verify(request, T0 + DEFAULT_TTL_S)
            expiry_ok += int(not outcome.accepted and outcome.fail_reason == R_EXPIRED)
    rep.add("expiry_boundary_ok", f"{expiry_ok}/{trials}")

    # bulk lifecycle on a bare store: issue, consume a third, expire a wave,
    # leave the late wave pending; the counts must balance exactly
    store = SessionStore(ttl_s=DEFAULT_TTL_S, nonce_rng=random.Random(seed + 7))
    first_wave = [store.issue(T0, MODE_FULL) for _ in range(bulk_sessions)]
    consumed_n = bulk_sessions // 3
    for record in first_wave[:consumed_n]:
        if not store.consume(record.S, T0 + 10):
            raise AssertionError("bulk consume failed unexpectedly")
    late_wave_n = bulk_sessions // 5
    for _ in range(late_wave_n):
        store.issue(T0 + 200, MODE_FULL)
    store.purge_expired(T0 + DEFAULT_TTL_S + 1)
    lifecycle = store.stats(T0 + DEFAULT_TTL_S + 1)
    for key, value in lifecycle.items():
        rep.add(f"lifecycle_{key}", value)
    rep.add(
        "lifecycle_conserved",
        lifecycle["issued"] == lifecycle["consumed"] + lifecycle["expired"] + lifecycle["pending"]
        and lifecycle["issued"] == bulk_sessions + late_wave_n
        and lifecycle["consumed"] == consumed_n
        and lifecycle["pending"] == late_wave_n,
    )

    # isolation: every client tries every other client's session id
    iso_server, iso_client = protocol_pair(seeded_env(seed + 13, attack_corpus()), MODE_FULL)
    requests = [_honest_flow(iso_server, iso_client)[1] for _ in range(clients)]
    cross_successes = 0
    cross_attempts = 0
    for i, request in enumerate(requests):
        for j, other in enumerate(requests):
            if i == j:
                continue
            cross_attempts += 1
            forged = replace(request, S=other.S)
            cross_successes += int(iso_server.verify(forged, T0 + 5).accepted)
    rep.add("cross_access_successes", f"{cross_successes}/{cross_attempts}")
    rep.add(
        "honest_unlocks_after_cross_attempts",
        sum(int(iso_server.verify(r, T0 + 5).accepted) for r in requests),
    )
    return rep


# ---------------------------------------------------------------------------
# malicious-server behaviors


class _SubsetServer(SbppServer):
    """Matches honestly, then binds, signs and shows the cells re-committed
    to a subset of the matches: ``kept`` slices the listed ids in id order
    (a lone match stays).  By default the last match silently goes;
    ``slice(None, None, 2)`` keeps every other one, a consistent bias."""

    kept = slice(None, -1)

    def _hits(self, tags):
        cells = super()._hits(tags)
        ids = sorted(drop.id for drop in drops_of(cells))
        keep = set(ids[self.kept] if len(ids) > 1 else ids)
        subsets = [tuple(d for d in cell.drops if d.id in keep) for cell in cells]
        return [Cell(tuple(d.id for d in drops), drops=drops) for drops in subsets if drops]


class _MisreportingServer(_SubsetServer):
    """Binds and signs the root of the matches without the last one, but
    shows the client the honest cells, so every match: its receipt
    disagrees with the cell roots it showed."""

    def search(self, S, tags, now):
        response = super().search(S, tags, now)
        return replace(response, cells=tuple(SbppServer._hits(self, tags)))


class _RecommittingServer(SbppServer):
    """Shows every match, but commits (and shows) the last hit cell's root as
    if that cell lacked its last id: consistent, and wrong in one cell."""

    def _hits(self, tags):
        cells = super()._hits(tags)
        last = cells[-1]
        if len(last.ids) > 1:
            cells[-1] = Cell(last.ids, MerkleTree(last.ids[:-1]).root, last.drops)
        return cells


class _FixedNonceRandom(random.Random):
    """A rigged issuer's RNG: every 32-byte draw (a session nonce) is the
    same 'random' nonce; every other draw is the seeded parent's."""

    FIXED_NONCE = b"\x42" * 32

    def randbytes(self, n: int) -> bytes:
        if n == 32:
            return self.FIXED_NONCE
        return super().randbytes(n)


def malicious_server_suite(seed: int = 0, trials: int = 100) -> ExperimentReport:
    rep = ExperimentReport("malicious_server", {"trials": trials})
    # every server gets its own nonce RNG; all share the seed's keys and one client
    env = seeded_env(seed, attack_corpus())
    client = SbppClient(env.search_key, env.proving_key)

    def full_server(
        offset: int, cls: type[SbppServer] = SbppServer, base: VariantEnv = env
    ) -> SbppServer:
        """A full-mode ``cls`` server over ``base``, its nonces drawn from seed + offset."""
        return protocol_pair(replace(base, nonce_rng=random.Random(seed + offset)), MODE_FULL, cls)[0]

    # candidate omission: detectable against the honest server's root
    omitting, honest = full_server(1, _SubsetServer), full_server(4)
    tags = client_tokens(env.search_key, QUERY_LAT, QUERY_LON, RADIUS_M, env.precisions)[1]
    reference_root = build_tree(honest.index.cells(tags)).root
    omission_detected = 0
    for _ in range(trials):
        ses = _searched(omitting, client)
        omission_detected += int(ses.receipt is not None and ses.receipt.root != reference_root)
    rep.add("omission_detected_vs_reference_root", f"{omission_detected}/{trials}")

    # biased root signing: internally consistent, so the audit passes
    biased = full_server(2, _SubsetServer)
    biased.kept = slice(None, None, 2)
    biased_passes = 0
    for _ in range(trials):
        ses, request = _honest_flow(biased, client)
        if not biased.verify(request, T0 + 5).accepted:
            raise AssertionError("biased-server unlock should still verify")
        rec = emit_audit_record(ses, request)
        biased_passes += int(audit(biased.public_key_bytes, biased.nizk_vk, rec).accepted)
    rep.add("biased_root_audit_passes (boundary)", f"{biased_passes}/{trials}")

    # predictable nonces: pre-computed proofs transfer across users
    def transfer_trial(server: SbppServer) -> bool:
        _, request_a = _honest_flow(server, client)
        ses_b = _searched(server, client)
        path_b = build_tree(ses_b.cells, request_a.drop_id).path
        return server.verify(replace(request_a, S=ses_b.S, merkle_path=path_b), T0 + 5).accepted

    rigged = protocol_pair(replace(env, nonce_rng=_FixedNonceRandom(seed + 3)), MODE_FULL)[0]
    for name, server in (("rigged", rigged), ("honest", honest)):
        transfers = sum(int(transfer_trial(server)) for _ in range(trials))
        rep.add(f"nonce_transfer_{name}_issuer", f"{transfers}/{trials}")

    # session refusal: no artifact is ever issued, so nothing is attributable;
    # denial leaves no receipt to audit, a boundary by design
    rep.add("refusal_detected (boundary)", f"0/{trials}")

    # authorization forgery without the signing key
    rng = random.Random(f"forgery:{seed}")
    template = _searched(honest, client).receipt
    forgery_successes = 0
    for i in range(trials):
        if i % 2 == 0:
            forged = replace(template, sig=rng.randbytes(64))
        else:
            forged = replace(template, root=rng.randbytes(32))  # body swap, stale sig
        forgery_successes += int(verify_receipt(honest.public_key_bytes, forged))
    rep.add("receipt_forgery_successes", f"{forgery_successes}/{trials}")

    # The client checks its recomputed root against the receipt.  Over a
    # corpus whose 1 km query hits several precision-6 cells, it catches
    # every receipt that disagrees with the cells shown, but not a server
    # that commits a cell other than the target's differently and
    # consistently: that rate is the share of picks outside that cell.
    box = (QUERY_LAT - 0.01, QUERY_LAT + 0.01, QUERY_LON - 0.012, QUERY_LON + 0.012)
    spread = seeded_env(seed, gen_uniform_corpus(200, seed, box), precisions=(6,))
    picker = random.Random(f"cells:{seed}")

    def cell_trial(server: SbppServer) -> bool:
        """True iff the client builds a request and its unlock and audit pass."""
        ses = _searched(server, client)
        ids = ses.result_ids()
        target = ses.candidate(ids[picker.randrange(len(ids))])
        try:
            request = client.build_unlock(ses, target.id, nizk.Witness(target.lat, target.lon))
        except ProtocolError:
            return False
        rec = emit_audit_record(ses, request)
        return (
            server.verify(request, T0 + 5).accepted
            and audit(server.public_key_bytes, server.nizk_vk, rec).accepted
        )

    misreporting = full_server(5, _MisreportingServer, spread)
    mismatch_detected = sum(int(not cell_trial(misreporting)) for _ in range(trials))
    rep.add("receipt_vs_shown_cells_detected", f"{mismatch_detected}/{trials}")
    recommitting = full_server(6, _RecommittingServer, spread)
    recommit_unnoticed = sum(int(cell_trial(recommitting)) for _ in range(trials))
    rep.add("other_cell_recommit_unnoticed (boundary)", f"{recommit_unnoticed}/{trials}")
    return rep


# ---------------------------------------------------------------------------
# protocol-path latency


def protocol_latency_bench(
    n_drops: int = 1000,
    iters: int = 1000,
    warmup: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Per-query latency of the three discovery paths.

    plaintext: geohash-encode the query cell (no crypto, no hiding).
    gridse:    derive the padded cover's token set and match it against the index.
    sbpp:      gridse plus the session-validation and challenge-digest steps
               the binding adds to the query path (sessions are issued ahead
               of time; receipt signing and tree building happen per search
               result set, not per query, and are benchmarked separately).

    Every query is a RADIUS_M (1 km) circle, as the attack matrix's.
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

    samples_us: dict[str, list[float]] = {"plaintext": [], "gridse": [], "sbpp": []}
    comp_sums = {
        "gridse": {"token_gen": 0.0, "match": 0.0},
        "sbpp": {"token_gen": 0.0, "match": 0.0, "validate": 0.0, "digest": 0.0},
    }

    for i, (lat, lon) in enumerate(queries):
        live = i >= warmup
        # plaintext path
        t0 = time.perf_counter_ns()
        p = precision_for_radius(RADIUS_M, lat)
        geohash_encode(lat, lon, p)
        t1 = time.perf_counter_ns()
        if live:
            samples_us["plaintext"].append((t1 - t0) / 1e3)
        # gridse path
        t0 = time.perf_counter_ns()
        _, tags = client_tokens(key, lat, lon, RADIUS_M, index.precisions)
        t1 = time.perf_counter_ns()
        index.match(tags)
        t2 = time.perf_counter_ns()
        if live:
            samples_us["gridse"].append((t2 - t0) / 1e3)
            comp_sums["gridse"]["token_gen"] += (t1 - t0) / 1e3
            comp_sums["gridse"]["match"] += (t2 - t1) / 1e3
        # sbpp query path
        record = session_records[i]
        t0 = time.perf_counter_ns()
        _, tags = client_tokens(key, lat, lon, RADIUS_M, index.precisions)
        t1 = time.perf_counter_ns()
        ids = index.match(tags)
        t2 = time.perf_counter_ns()
        store.validate(record.S, T0 + 1)
        t3 = time.perf_counter_ns()
        cd_core(ids[0] if ids else "d000000", record.pv, record.epoch, record.N)
        t4 = time.perf_counter_ns()
        if live:
            samples_us["sbpp"].append((t4 - t0) / 1e3)
            comp_sums["sbpp"]["token_gen"] += (t1 - t0) / 1e3
            comp_sums["sbpp"]["match"] += (t2 - t1) / 1e3
            comp_sums["sbpp"]["validate"] += (t3 - t2) / 1e3
            comp_sums["sbpp"]["digest"] += (t4 - t3) / 1e3

    rep = ExperimentReport("protocol_latency", {"n_drops": n_drops, "iters": iters})
    for name, samples in samples_us.items():
        ordered = sorted(samples)
        rep.add(f"{name}_median_us", statistics.median(ordered), 2)
        rep.add(f"{name}_mean_us", statistics.fmean(ordered), 2)
        rep.add(f"{name}_p95_us", ordered[min(iters - 1, int(0.95 * iters))], 2)
        rep.add(f"{name}_p99_us", ordered[min(iters - 1, int(0.99 * iters))], 2)
    for path, comps in comp_sums.items():
        for comp, val in comps.items():
            rep.add(f"{path}_share_{comp}", val / sum(comps.values()), 3)
    for upper, lower in (("sbpp", "gridse"), ("gridse", "plaintext")):
        ratio = rep[f"{upper}_median_us"] / rep[f"{lower}_median_us"]
        rep.add(f"ratio_{upper}_over_{lower}_median", ratio, 3)
    return rep


# ---------------------------------------------------------------------------
# search quality (recall against a haversine oracle) and token-set leakage


QUALITY_RADII_M = (50.0, 100.0, 300.0, 1000.0, 3000.0, 5000.0)
QUALITY_PRECISIONS = ((5,), (4, 5, 6, 7))
QUALITY_CORPORA = {"uniform": gen_uniform_corpus, "clustered": gen_clustered_corpus}

# per (corpus, index precisions, radius) row: each metric reported and the
# decimals it is shown with; ids_mean is the result-set size per query and
# hits_mean the tags per query that hit the index, what the server sees of the cover
QUALITY_ROW_DIGITS = {
    "recall_min": 4,
    "queries_with_truth": None,
    "precision_mean": 4,
    "ids_mean": 2,
    "hits_mean": 2,
    "jaccard_near": 4,
    "jaccard_far": 4,
}


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
) -> ExperimentReport:
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

    rows: dict[str, dict[str, float]] = {}
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
                    got = {drop.id for drop in drops_of(index.cells(query_tags))}
                    sizes.append(len(got))
                    hits.append(sum(t in index.entries for t in query_tags))
                    if truth:
                        recalls.append(len(got & truth) / len(truth))
                    if got:
                        hit_rates.append(len(got & truth) / len(got))
                near = [_jaccard(set(tags(a, b, r)), set(tags(a + 0.002, b, r))) for a, b, _, _ in pairs]
                far = [_jaccard(set(tags(a, b, r)), set(tags(c, d, r))) for a, b, c, d in pairs]
                rows[f"{corpus}/p{'+'.join(map(str, precisions))}/{r:g}m"] = {
                    "recall_mean": statistics.fmean(recalls) if recalls else 1.0,  # nothing to miss
                    "recall_min": min(recalls, default=1.0),
                    "queries_with_truth": len(recalls),
                    "precision_mean": statistics.fmean(hit_rates) if hit_rates else 0.0,
                    "ids_mean": statistics.fmean(sizes),
                    "hits_mean": statistics.fmean(hits),
                    "jaccard_near": statistics.fmean(near),
                    "jaccard_far": statistics.fmean(far),
                }
    rep = ExperimentReport(
        "search_quality", {"n_drops": n_drops, "n_queries": n_queries, "rows": len(rows)}
    )

    def mean(metric: str) -> float:
        return statistics.fmean(row[metric] for row in rows.values())

    rep.add("recall_mean", mean("recall_mean"), 4)
    rep.add("recall_min", min(row["recall_min"] for row in rows.values()), 4)
    rep.add("precision_mean", mean("precision_mean"), 4)
    rep.add("token_jaccard_near_pairs", mean("jaccard_near"), 4)
    rep.add("token_jaccard_far_pairs", mean("jaccard_far"), 4)
    for row_name, row in rows.items():
        for metric, digits in QUALITY_ROW_DIGITS.items():
            rep.add(f"{row_name}/{metric}", row[metric], digits)
    rep.add("runtime_s", time.perf_counter() - t_start, 2)
    return rep
