"""Adversary harness and experiment invariants at reduced scale.

The full-scale runs (100 trials, 1000 sessions, five seeds) live in
test_acceptance; these tests pin the same behaviors fast enough to run
on every edit.
"""

import pytest

from sbpp.harness.attacks import (
    ATTACK_FUNCS,
    EXPECTED_MATRIX,
    AttackResult,
    QUERY_LAT,
    QUERY_LON,
    RADIUS_M,
    T0,
    build_variant,
    derive_key,
    protocol_pair,
    run_attack_matrix,
    seeded_env,
)
from sbpp.harness.experiments import (
    atomicity_and_isolation_suite,
    audit_replay_experiment,
    malicious_server_suite,
    merkle_bench,
    protocol_latency_bench,
    reassociation_experiment,
    search_quality_experiment,
)
from sbpp.merkle import expected_depth
from sbpp.session import MODE_FULL
from sbpp.variants import VARIANT_KINDS


def test_derive_key_stable_and_distinct():
    assert derive_key("a", 0) == derive_key("a", 0)
    assert derive_key("a", 0) != derive_key("a", 1)
    assert derive_key("a", 0) != derive_key("b", 0)
    assert len(derive_key("a", 0, 16)) == 16


def test_protocol_pair_and_v4b_rung_share_one_deployment():
    # Same seed, same environment: the server and the V4b rung issue the
    # same first session and sign the same receipt under the same key.
    for seed in (0, 5):
        server, client = protocol_pair(seeded_env(seed), MODE_FULL)
        variant = build_variant("V4b", seed)
        ses = client.open_session(server, T0)
        vses = variant.open_session(T0)
        assert (ses.S, ses.N) == (vses.S, vses.N)
        assert server.public_key_bytes == variant.public_key_bytes
        client.search(server, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        variant.search(vses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        assert ses.receipt is not None and ses.receipt == vses.receipt


def test_seeded_env_gives_each_call_its_own_nonce_rng():
    first, second = seeded_env(4), seeded_env(4, search_key=b"k" * 32, ttl_s=60)
    assert first.nonce_rng is not second.nonce_rng
    assert first.nonce_rng.random() == second.nonce_rng.random()
    assert (second.search_key, second.ttl_s) == (b"k" * 32, 60)
    assert second.signing_key.public_bytes == first.signing_key.public_bytes


def test_attack_result_validates_counts():
    with pytest.raises(ValueError):
        AttackResult("V1", "A1", 10, 11)
    assert AttackResult("V1", "A1", 10, 10).blocked
    assert not AttackResult("V1", "A1", 10, 9).blocked
    assert not AttackResult("V1", "A1", 10, 10, skipped=True).blocked


def test_matrix_matches_expected_at_low_trials():
    matrix = run_attack_matrix(trials=10, seed=0)
    assert matrix.matches_expected()
    assert not any(r.skipped for r in matrix.results.values())


def test_matrix_stable_across_seeds():
    for seed in (1, 2):
        assert run_attack_matrix(trials=5, seed=seed).matches_expected(), seed


def test_matrix_covers_every_cell():
    matrix = run_attack_matrix(trials=3, seed=0)
    assert set(matrix.results) == {
        (a, v) for a in ATTACK_FUNCS for v in VARIANT_KINDS
    }
    assert len(matrix.results) == 54


def test_attack_outcomes_are_all_or_nothing():
    # the attacks are deterministic given the variant; partial counts would
    # mean hidden nondeterminism in the harness
    matrix = run_attack_matrix(trials=10, seed=3)
    for result in matrix.results.values():
        assert result.blocked_count in (0, result.trials), result


def test_expected_matrix_shape():
    assert set(EXPECTED_MATRIX) == set(ATTACK_FUNCS)
    for row in EXPECTED_MATRIX.values():
        assert set(row) == set(VARIANT_KINDS)
    # every attack is blocked by Full SBPP, none is blocked by the baseline
    assert all(EXPECTED_MATRIX[a]["V4b"] for a in EXPECTED_MATRIX)
    assert not any(
        EXPECTED_MATRIX[a]["V1"] for a in EXPECTED_MATRIX if a != "A3"
    )


def test_impoverished_token_opens_a4b():
    # contrapositive: remove the root from the token and the splice works
    matrix = run_attack_matrix(trials=5, seed=0, token_includes_root=False)
    assert not matrix.cell("A4b", "V8").blocked
    for attack in ("A1", "A2", "A3", "A4a", "A5"):
        assert matrix.cell(attack, "V8").blocked, attack
    # the other columns are untouched by the token flavor
    for (attack, kind), result in matrix.results.items():
        if kind != "V8":
            assert result.blocked == EXPECTED_MATRIX[attack][kind], (attack, kind)


def test_reassociation_v4_zero_and_analytic_reference():
    result = reassociation_experiment(n_sessions=400, epoch_every=25, seed=0)
    assert result.rates["V4a"] == 0.0
    assert result.rates["V4b"] == 0.0
    assert 0 < result.analytic_rate < 1
    for kind in ("V2", "V3"):
        assert result.rates[kind] == pytest.approx(result.analytic_rate, abs=0.08)


def test_reassociation_single_epoch_means_no_rotation_pairs():
    result = reassociation_experiment(n_sessions=100, epoch_every=1, seed=0)
    assert result.analytic_rate == 0.0
    assert all(rate == 0.0 for rate in result.rates.values())


def test_merkle_bench_structure():
    result = merkle_bench(sizes=(100, 300, 1000), prove_samples=10)
    assert [row.n for row in result.rows] == [100, 300, 1000]
    for row in result.rows:
        assert row.steps == expected_depth(row.n)
        assert row.compact_state_bytes == 140
        assert row.build_ms > 0 and row.prove_us > 0 and row.verify_us > 0
    assert len({row.compact_state_bytes for row in result.rows}) == 1


def test_audit_replay_reduced():
    result = audit_replay_experiment(n=20, seed=0)
    assert result.full_pass == 20
    assert result.core_pass == 0
    assert result.core_reasons == {"merkle-invalid": 20}
    assert result.v4b_fault_reasons == {
        "receipt_swap": {"nonce-digest-mismatch": 20},
        "path_corrupt": {"merkle-invalid": 20},
        "receipt_sig_corrupt": {"receipt-sig-invalid": 20},
    }
    assert result.v8_fault_reasons == {
        "token_swap": {"token-hash-mismatch": 20},
        "token_root_tamper": {"token-hash-mismatch": 20},
        "token_sig_tamper": {"token-hash-mismatch": 20},
    }


def test_atomicity_reduced():
    result = atomicity_and_isolation_suite(
        seed=0, trials=50, bulk_sessions=500, clients=10
    )
    assert result.sequential_ok == 50
    assert result.parallel_exactly_one == 50
    assert result.expiry_ok == 50
    assert result.conservation_ok
    stats = result.lifecycle
    assert stats["issued"] == stats["consumed"] + stats["expired"] + stats["pending"]
    assert result.cross_successes == 0
    assert result.cross_attempts == 10 * 9
    assert result.honest_after_cross == 10


def test_malicious_server_reduced():
    result = malicious_server_suite(seed=0, trials=10)
    assert result.omission_detected == 10
    assert result.biased_audit_passes == 10
    assert result.transfer_success_rigged == 10
    assert result.transfer_success_honest == 0
    assert result.forgery_successes == 0
    assert result.refusal_detected == 0


def test_latency_bench_structure():
    result = protocol_latency_bench(n_drops=200, iters=50, warmup=5, seed=0)
    assert set(result.paths) == {"plaintext", "gridse", "sbpp"}
    for stats in result.paths.values():
        assert 0 < stats.median_us
        assert stats.median_us <= stats.p95_us <= stats.p99_us
    assert result.paths["plaintext"].median_us <= result.paths["gridse"].median_us
    assert result.ratio_sbpp_over_gridse > 0
    for path, shares in result.component_share.items():
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9), path


def test_search_quality_reduced():
    result = search_quality_experiment(n_drops=300, n_queries=50, seed=0)
    assert result.recall_mean == pytest.approx(1.0)
    assert 0 < result.precision_mean < 0.5
    assert result.jaccard_near_mean > result.jaccard_far_mean
    assert result.runtime_s < 10
