"""Acceptance gate: nine go/no-go criteria, one test and one printed
verdict line per criterion.

Run with `-s` (or read the -v test lines) to see the per-criterion
summary.  Every assertion here is at full advertised scale; the reduced
fast versions live in the per-module test files.
"""

import random
import time

import pytest

from sbpp import nizk
from sbpp.canon import digest, lp_encode
from sbpp.harness.attacks import (
    EXPECTED_MATRIX,
    OUT_DROP,
    QUERY_LAT,
    QUERY_LON,
    RADIUS_M,
    T0,
    WITNESS_NEAR_OUT,
    build_variant,
    fabricate,
    rebind,
    run_attack_matrix,
    splice,
)
from sbpp.harness.experiments import (
    atomicity_and_isolation_suite,
    audit_replay_experiment,
    merkle_bench,
    protocol_latency_bench,
    reassociation_experiment,
    search_quality_experiment,
)
from sbpp.merkle import MerkleTree, expected_depth, verify_membership
from sbpp.protocol import R_MERKLE_INVALID, R_NOT_IN_RESULT_SET
from sbpp.variants import VARIANT_KINDS


def _verdict(n: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {n}] {status} - {desc}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def replay():
    return audit_replay_experiment(n=100, seed=0)


def test_criterion_1_attack_matrix_cell_for_cell():
    t_start = time.perf_counter()
    mismatched = []
    for seed in range(5):
        matrix = run_attack_matrix(trials=100, seed=seed)
        assert len(matrix.results) == 6 * 9
        if not matrix.matches_expected():
            mismatched.append(seed)
    elapsed = time.perf_counter() - t_start
    _verdict(
        1,
        not mismatched and elapsed < 60,
        "attack matrix reproduced cell-for-cell, 100 trials x 5 seeds",
        f"runtime {elapsed:.1f}s, mismatched seeds: {mismatched or 'none'}",
    )


def test_criterion_2_merkle_steps_and_compact_state():
    result = merkle_bench()  # 100 .. 50000
    sizes = result.parameters["sizes"]
    steps = [result[f"n={n} path_steps"] for n in sizes]
    state_sizes = {result[f"n={n} compact_state_bytes"] for n in sizes}
    ok = steps == [7, 10, 13, 14, 15, 16] and len(state_sizes) == 1
    _verdict(
        2,
        ok,
        "proof path steps {7,10,13,14,15,16}; compact state byte-identical",
        f"steps {steps}, state {sorted(state_sizes)} bytes",
    )


def test_criterion_3_offline_audit_replay(replay):
    full, core = replay["full_honest_pass"], replay["core_honest_pass"]
    ok = full == "100/100" and core == "0/100"
    _verdict(
        3,
        ok,
        "state purged: full-mode audits 100/100, core-mode 0/100",
        f"full {full}, core {core}",
    )


def test_criterion_4_fault_localization(replay):
    want = {
        "receipt_swap": "nonce-digest-mismatch",
        "path_corrupt": "merkle-invalid",
        "receipt_sig_corrupt": "receipt-sig-invalid",
    }
    faults = {
        label: {m: v for m, v in replay.values.items() if m.startswith(f"{label}[")}
        for label in ("v4b_fault", "v8_fault")
    }
    full_ok = faults["v4b_fault"] == {f"v4b_fault[{inj}][{reason}]": 100 for inj, reason in want.items()}
    # every V8 injection, 100 records each, audits to the one reason
    v8_ok = faults["v8_fault"] == {
        f"v8_fault[{inj}][token-hash-mismatch]": 100
        for inj in ("token_swap", "token_root_tamper", "token_sig_tamper")
    }
    _verdict(
        4,
        full_ok and v8_ok,
        "3 fault types localize to 3 distinct reasons (100/100 each); "
        "V8 collapses to one symptom",
        f"v4b {faults['v4b_fault']}, v8 {faults['v8_fault']}",
    )


def test_criterion_5_reassociation_rates():
    result = reassociation_experiment(n_sessions=1000, epoch_every=25, n_drops=20, seed=0)
    analytic = result["analytic_rate_uniform_model"]
    rates = {kind: result[f"rate_{kind}"] for kind in ("V2", "V3", "V4a", "V4b")}
    zero_ok = rates["V4a"] == 0.0 and rates["V4b"] == 0.0
    model_ok = all(abs(rates[k] - analytic) <= 0.03 for k in ("V2", "V3"))
    _verdict(
        5,
        zero_ok and model_ok,
        "re-association 0 under session binding; context-digest rungs match "
        "the analytic epoch model within 3%",
        f"rates {rates}, analytic {analytic:.4f} (reference rate 0.718 reported, not asserted)",
    )


def test_criterion_6_atomicity_and_isolation():
    result = atomicity_and_isolation_suite(
        seed=0, trials=1000, bulk_sessions=10000, clients=100
    )
    stats = {key: result[f"lifecycle_{key}"] for key in ("issued", "consumed", "expired", "pending")}
    conserved = (
        result["lifecycle_conserved"] is True
        and stats["issued"] == stats["consumed"] + stats["expired"] + stats["pending"]
    )
    ok = (
        result["parallel_exactly_one"] == "1000/1000"
        and result["sequential_double_submit_ok"] == "1000/1000"
        and conserved
        and result["cross_access_successes"] == "0/9900"
    )
    _verdict(
        6,
        ok,
        "parallel double-submit exactly-one 1000/1000; lifecycle conserved; "
        "0/9900 cross-access",
        f"lifecycle {stats}, cross {result['cross_access_successes']}",
    )


def test_criterion_7_search_quality():
    result = search_quality_experiment(n_drops=1000, n_queries=200, radius_m=1000.0, seed=0)
    ok = result["recall_mean"] >= 0.92 and result["runtime_s"] < 10
    _verdict(
        7,
        ok,
        "recall vs haversine oracle >= 0.92 at 1 km over 1000 Tokyo drops",
        f"recall {result['recall_mean']:.4f}, precision {result['precision_mean']:.4f} "
        f"(reported), runtime {result['runtime_s']:.2f}s",
    )


def test_criterion_8_relative_latency():
    result = protocol_latency_bench(n_drops=1000, iters=1000, warmup=100, seed=0)
    ratio = result["ratio_sbpp_over_gridse_median"]
    medians = {name: round(result[f"{name}_median_us"], 2) for name in ("plaintext", "gridse", "sbpp")}
    _verdict(
        8,
        ratio <= 1.2,
        "protocol-path median <= 1.2x encrypted-search baseline at 1000 drops",
        f"ratio {ratio:.3f}, medians_us {medians} (absolute values reported only)",
    )


def test_criterion_9_property_suites():
    failures: list[str] = []

    # Theorems 1/2: cross-session rebinding rejected, 100 pairs per mode
    for kind in ("V4a", "V4b"):
        variant = build_variant(kind, seed=90)
        accepted = 0
        for _ in range(100):
            a = variant.open_session(T0)
            variant.search(a, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
            b = variant.open_session(T0)
            variant.search(b, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
            target = a.candidates[0]
            request = variant.build_unlock(a, target.id, nizk.Witness(target.lat, target.lon))
            rebound = rebind(request, b)
            accepted += int(variant.verify(rebound, T0 + 1).accepted)
        if accepted:
            failures.append(f"theorem-1/2 {kind}: {accepted}/100 rebinds accepted")

    # Theorem 3: non-member rejection with mode-specific reasons, 100 trials
    for kind, want in (("V4a", R_NOT_IN_RESULT_SET), ("V4b", R_MERKLE_INVALID)):
        variant = build_variant(kind, seed=91)
        bad = 0
        for _ in range(100):
            vses = variant.open_session(T0)
            variant.search(vses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
            request = variant.build_nonmember_unlock(vses, OUT_DROP, WITNESS_NEAR_OUT)
            outcome = variant.verify(request, T0 + 1)
            if outcome.accepted or outcome.fail_reason != want:
                bad += 1
        if bad:
            failures.append(f"theorem-3 {kind}: {bad}/100 wrong outcome")

    # Win2 flavor: stolen member paths never authenticate an outsider
    tree = MerkleTree([f"d{i:06d}" for i in range(64)])
    rng = random.Random(92)
    stolen_hits = sum(
        verify_membership(tree.root, "intruder", tree.prove_membership(f"d{rng.randrange(64):06d}"))
        for _ in range(100)
    )
    if stolen_hits:
        failures.append(f"win2: {stolen_hits}/100 stolen paths verified")

    # Win3: audit re-association splice and receipt forgery, 100 each
    variant = build_variant("V4b", seed=93)
    splice_hits = forge_hits = 0
    for _ in range(100):
        s1 = variant.open_session(T0)
        variant.search(s1, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        s2 = variant.open_session(T0)
        variant.search(s2, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        t1, t2 = s1.candidates[0], s2.candidates[0]
        r1 = variant.build_unlock(s1, t1.id, nizk.Witness(t1.lat, t1.lon))
        r2 = variant.build_unlock(s2, t2.id, nizk.Witness(t2.lat, t2.lon))
        rec1 = variant.audit_record(s1, r1)
        rec2 = variant.audit_record(s2, r2)
        splice_hits += int(variant.audit(splice(rec1, rec2)).accepted)
        forge_hits += int(
            variant.audit(fabricate(variant, s1, OUT_DROP, WITNESS_NEAR_OUT)).accepted
        )
    if splice_hits or forge_hits:
        failures.append(f"win3: {splice_hits} splices, {forge_hits} fabrications accepted")

    # LP injectivity and frozen digest vectors
    if lp_encode([b"AB", b"C"]) == lp_encode([b"A", b"BC"]):
        failures.append("lp: boundary shift collided")
    if digest([b"A"]).to_bytes().hex() != (
        "13ccc2dec05666f867f328e6bac62d5db307ba33c0d198c78da5fd5a7065f67a"
    ):
        failures.append("digest: frozen vector mismatch")
    rng = random.Random(94)
    for _ in range(1000):
        a = [rng.randbytes(rng.randrange(8)) for _ in range(rng.randrange(1, 5))]
        b = [rng.randbytes(rng.randrange(8)) for _ in range(rng.randrange(1, 5))]
        if a != b and lp_encode(a) == lp_encode(b):
            failures.append(f"lp: collision {a} vs {b}")
            break

    # Merkle completeness, exhaustive 257-leaf tree
    ids = [f"d{i:06d}" for i in range(257)]
    tree = MerkleTree(ids)
    if not all(verify_membership(tree.root, i, tree.prove_membership(i)) for i in ids):
        failures.append("merkle: 257-leaf completeness failed")
    if tree.depth != expected_depth(257):
        failures.append("merkle: 257-leaf depth mismatch")

    # nizk unforgeability smoke: 10^4 random proofs
    _, vk = nizk.setup(b"acceptance")
    pub = nizk.make_public_inputs(QUERY_LAT, QUERY_LON, RADIUS_M, digest([b"ctx"]))
    rng = random.Random(95)
    forged = sum(
        nizk.verify(vk, pub, nizk.Proof("sim-hmac-v1", rng.randbytes(32)))
        for _ in range(10_000)
    )
    if forged:
        failures.append(f"nizk: {forged}/10000 random proofs verified")

    _verdict(
        9,
        not failures,
        "property suites: theorems 1-3, win-condition injections, LP/digest "
        "vectors, 257-leaf completeness, proof unforgeability",
        "; ".join(failures) if failures else "all sub-suites clean",
    )


def test_expected_matrix_is_the_published_table():
    # guards the expectation itself against accidental edits: 9 variants,
    # 6 attacks, and the exact blocked pattern asserted cell by cell
    assert list(EXPECTED_MATRIX) == ["A1", "A2", "A3", "A4a", "A4b", "A5"]
    assert all(list(row) == list(VARIANT_KINDS) for row in EXPECTED_MATRIX.values())
    flat = {a: "".join("1" if row[v] else "0" for v in VARIANT_KINDS) for a, row in EXPECTED_MATRIX.items()}
    assert flat == {
        "A1": "000111111",
        "A2": "000111111",
        "A3": "111111111",
        "A4a": "000111111",
        "A4b": "000010001",
        "A5": "001111111",
    }
