"""Adversary harness and experiment invariants at reduced scale.

The full-scale runs (100 trials, 1000 sessions, five seeds) live in
test_acceptance; these tests pin the same behaviors fast enough to run
on every edit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbpp
from sbpp import cli
from sbpp.geoindex import Drop
from sbpp.harness import attacks
from sbpp.harness.attacks import (
    ATTACK_FUNCS,
    EXPECTED_MATRIX,
    MatrixResult,
    OUT_DROP,
    OUT_DROP_ID,
    QUERY_LAT,
    QUERY_LON,
    RADIUS_M,
    T0,
    attack_corpus,
    build_variant,
    run_attack_matrix,
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
from sbpp.harness.report import ExperimentReport
from sbpp.merkle import expected_depth
from sbpp.protocol import derive_key, protocol_pair, seeded_env
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
        server, client = protocol_pair(seeded_env(seed, attack_corpus()), MODE_FULL)
        variant = build_variant("V4b", seed)
        ses = client.open_session(server, T0)
        vses = variant.open_session(T0)
        assert (ses.S, ses.N) == (vses.S, vses.N)
        assert server.public_key_bytes == variant.public_key_bytes
        client.search(server, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        variant.search(vses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        assert ses.receipt is not None and ses.receipt == vses.receipt


def test_seeded_env_gives_each_call_its_own_nonce_rng():
    first, second = seeded_env(4, []), seeded_env(4, [], search_key=b"k" * 32, ttl_s=60)
    assert first.nonce_rng is not second.nonce_rng
    assert first.nonce_rng.random() == second.nonce_rng.random()
    assert (second.search_key, second.ttl_s) == (b"k" * 32, 60)
    assert second.signing_key.public_bytes == first.signing_key.public_bytes


def test_matrix_matches_expected_at_low_trials():
    matrix = run_attack_matrix(trials=10, seed=0)
    assert matrix.matches_expected()
    assert None not in matrix.results.values()


def test_matrix_refuses_zero_trials():
    # zero trials would count every attack as blocked and match nothing real
    with pytest.raises(ValueError, match="trials"):
        run_attack_matrix(trials=0)


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
    for cell, blocked in matrix.results.items():
        assert blocked in (0, matrix.trials), cell


def test_matrix_renders_skipped_and_partial_cells(monkeypatch):
    # One drop at the query: no result set holds two drops, so A3 has no
    # sibling to retarget at on any rung, and the matrix says so.  The
    # outlier drop stays, so that A4a has its drop to attack.
    monkeypatch.setattr(attacks, "attack_corpus", lambda: [Drop("d00", QUERY_LAT, QUERY_LON), OUT_DROP])
    matrix = run_attack_matrix(trials=2, seed=0)
    assert {key for key, blocked in matrix.results.items() if blocked is None} == {
        ("A3", kind) for kind in VARIANT_KINDS
    }
    assert not matrix.matches_expected()

    def row(result: MatrixResult, attack: str) -> list[str]:
        lines = result.render().splitlines()
        return next(line for line in lines if line.startswith(f"{attack} ")).split()

    assert row(matrix, "A3") == ["A3", *["skip"] * len(VARIANT_KINDS)]
    assert matrix.render().endswith("-> DIFFERS FROM the expected matrix")
    assert ["A3", "V4b", "2", "0", "True"] in matrix.csv_rows()
    partial = MatrixResult(2, 0, {**matrix.results, ("A1", "V4b"): 1})
    assert row(partial, "A1")[1 + VARIANT_KINDS.index("V4b")] == "1/2"


def test_a4a_skips_on_a_corpus_without_the_outlier_drop(monkeypatch):
    # Without `zz-out` every rung's statement check refuses the unknown drop,
    # which says nothing of the rung: the A4a cell is a skip, not a block.
    cluster = [drop for drop in attacks.attack_corpus() if drop.id != OUT_DROP_ID]
    assert len(cluster) == 6
    monkeypatch.setattr(attacks, "attack_corpus", lambda: cluster)
    matrix = run_attack_matrix(trials=2, seed=0)
    assert {key for key, blocked in matrix.results.items() if blocked is None} == {("A4a", kind) for kind in VARIANT_KINDS}
    row = next(line for line in matrix.render().splitlines() if line.startswith("A4a "))
    assert row.split() == ["A4a", *["skip"] * len(VARIANT_KINDS)]
    assert not matrix.matches_expected()


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
    assert matrix.results[("A4b", "V8")] == 0
    for attack in ("A1", "A2", "A3", "A4a", "A5"):
        assert matrix.results[(attack, "V8")] == matrix.trials, attack
    # the other columns are untouched by the token flavor
    for (attack, kind), blocked in matrix.results.items():
        if kind != "V8":
            assert (blocked == matrix.trials) == EXPECTED_MATRIX[attack][kind], (attack, kind)


def test_reassociation_v4_zero_and_analytic_reference():
    result = reassociation_experiment(n_sessions=400, epoch_every=25, seed=0)
    assert result["rate_V4a"] == 0.0
    assert result["rate_V4b"] == 0.0
    assert 0 < result["analytic_rate_uniform_model"] < 1
    for kind in ("V2", "V3"):
        assert result[f"rate_{kind}"] == pytest.approx(result["analytic_rate_uniform_model"], abs=0.08)


def test_reassociation_single_epoch_means_no_rotation_pairs():
    result = reassociation_experiment(n_sessions=100, epoch_every=1, seed=0)
    assert result["analytic_rate_uniform_model"] == 0.0
    assert all(result[f"rate_{kind}"] == 0.0 for kind in ("V2", "V3", "V4a", "V4b"))


def test_reassociation_analytic_rate_averages_over_a_shorter_last_epoch():
    # 30 sessions in epochs of 25 and 5: the model's expectation per session
    # weighs each epoch's rate 1 - (1 - 1/m)^(K-1) by its K sessions
    result = reassociation_experiment(n_sessions=30, epoch_every=25, n_drops=20, seed=0)
    expected = (25 * (1 - 0.95**24) + 5 * (1 - 0.95**4)) / 30
    assert result["analytic_rate_uniform_model"] == pytest.approx(expected, rel=1e-12)
    assert f"{expected:.6g}" == "0.620925"
    # with an exact division the per-epoch rate is the whole run's
    exact = reassociation_experiment(n_sessions=50, epoch_every=25, n_drops=20, seed=0)
    assert exact["analytic_rate_uniform_model"] == pytest.approx(1 - 0.95**24, rel=1e-12)


def test_merkle_bench_structure():
    result = merkle_bench(sizes=(100, 300, 1000), prove_samples=10)
    assert result.parameters["sizes"] == [100, 300, 1000]
    assert len(result.values) == 3 * 5
    for n in (100, 300, 1000):
        assert result[f"n={n} path_steps"] == expected_depth(n)
        assert result[f"n={n} compact_state_bytes"] == 140
        assert all(result[f"n={n} {timing}"] > 0 for timing in ("build_ms", "prove_us", "verify_us"))


def test_merkle_bench_refuses_a_repeated_size():
    with pytest.raises(ValueError, match="twice"):
        merkle_bench(sizes=(100, 100), prove_samples=1)


def _rows(report, prefix: str) -> dict:
    """The report's raw values of every metric that starts with ``prefix``."""
    return {metric: value for metric, value in report.values.items() if metric.startswith(prefix)}


def test_audit_replay_reduced():
    result = audit_replay_experiment(n=20, seed=0)
    assert result["full_honest_pass"] == "20/20"
    assert result["core_honest_pass"] == "0/20"
    assert _rows(result, "core_fail[") == {"core_fail[merkle-invalid]": 20}
    assert _rows(result, "v4b_fault[") == {
        "v4b_fault[receipt_swap][nonce-digest-mismatch]": 20,
        "v4b_fault[path_corrupt][merkle-invalid]": 20,
        "v4b_fault[receipt_sig_corrupt][receipt-sig-invalid]": 20,
    }
    assert _rows(result, "v8_fault[") == {
        "v8_fault[token_swap][token-hash-mismatch]": 20,
        "v8_fault[token_root_tamper][token-hash-mismatch]": 20,
        "v8_fault[token_sig_tamper][token-hash-mismatch]": 20,
    }


def test_audit_replay_refuses_a_single_record():
    # a swap with one record would give the record its own receipt and token
    with pytest.raises(ValueError, match="n >= 2"):
        audit_replay_experiment(n=1, seed=0)


def test_atomicity_reduced():
    result = atomicity_and_isolation_suite(
        seed=0, trials=50, bulk_sessions=500, clients=10
    )
    assert result["sequential_double_submit_ok"] == "50/50"
    assert result["parallel_exactly_one"] == "50/50"
    assert result["expiry_boundary_ok"] == "50/50"
    assert result["lifecycle_conserved"] is True
    stats = {key: result[f"lifecycle_{key}"] for key in ("issued", "consumed", "expired", "pending")}
    assert stats["issued"] == stats["consumed"] + stats["expired"] + stats["pending"]
    assert result["cross_access_successes"] == f"0/{10 * 9}"
    assert result["honest_unlocks_after_cross_attempts"] == 10


def test_malicious_server_reduced():
    result = malicious_server_suite(seed=0, trials=10)
    assert result["omission_detected_vs_reference_root"] == "10/10"
    assert result["biased_root_audit_passes (boundary)"] == "10/10"
    assert result["nonce_transfer_rigged_issuer"] == "10/10"
    assert result["nonce_transfer_honest_issuer"] == "0/10"
    assert result["receipt_forgery_successes"] == "0/10"
    assert result["refusal_detected (boundary)"] == "0/10"
    # the client's root check over a 12-cell result: a receipt that disagrees
    # with the cells shown is always caught; a consistent recommit of one
    # cell only when the client unlocks a drop in that cell (1 pick in 10)
    assert result["receipt_vs_shown_cells_detected"] == "10/10"
    assert result["other_cell_recommit_unnoticed (boundary)"] == "9/10"


def test_latency_bench_structure():
    result = protocol_latency_bench(n_drops=200, iters=50, warmup=5, seed=0)
    paths = ("plaintext", "gridse", "sbpp")
    assert {metric.split("_")[0] for metric in result.values} == {*paths, "ratio"}
    for path in paths:
        assert 0 < result[f"{path}_median_us"]
        assert result[f"{path}_median_us"] <= result[f"{path}_p95_us"] <= result[f"{path}_p99_us"]
    assert result["plaintext_median_us"] <= result["gridse_median_us"]
    assert result["ratio_sbpp_over_gridse_median"] > 0
    for path in ("gridse", "sbpp"):
        shares = _rows(result, f"{path}_share_")
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9), path


def test_search_quality_reduced():
    result = search_quality_experiment(n_drops=300, n_queries=50, seed=0)
    assert result["recall_mean"] == pytest.approx(1.0)
    assert 0 < result["precision_mean"] < 0.5
    assert result["token_jaccard_near_pairs"] > result["token_jaccard_far_pairs"]
    assert result["runtime_s"] < 10


def test_a_report_keeps_the_raw_value_and_rounds_only_what_it_shows(tmp_path):
    rep = ExperimentReport("r", {"n": 1})
    rep.add("x_ms", 1.23456789, 3)
    rep.add("count", 7)
    assert rep["x_ms"] == 1.23456789
    assert rep.render().splitlines()[2:] == ["   x_ms   1.235", "   count  7"]
    assert rep.write_csv(tmp_path).read_bytes() == b"metric,value\r\nx_ms,1.235\r\ncount,7\r\n"
    with pytest.raises(ValueError, match="twice"):
        rep.add("count", 8)


def _fresh_python(code: str, *argv: str) -> str:
    """Run code in a new interpreter that imports this checkout's sbpp, with
    ``argv`` as its arguments; its stdout."""
    src = str(Path(sbpp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": path},
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout


def test_importing_the_attack_harness_leaves_the_experiments_unloaded():
    # The harness package re-exports nothing, so the matrix loads no runner.
    _fresh_python(
        "import sys, sbpp.harness.attacks; sys.exit('sbpp.harness.experiments' in sys.modules)"
    )


def test_the_ladder_loads_no_part_of_the_harness():
    # the adversary's moves and scripts read the rungs, never the reverse
    _fresh_python(
        "import sys, sbpp.variants; "
        "sys.exit(sorted(m for m in sys.modules if m.startswith('sbpp.harness')) or None)"
    )


def test_importing_one_module_leaves_the_rest_of_the_package_unloaded():
    # The package root re-exports nothing, so canon loads no protocol and no Ed25519.
    _fresh_python(
        "import sys, sbpp.canon; "
        "sys.exit(sorted({'sbpp.protocol', 'sbpp.receipt', 'cryptography'} & set(sys.modules)) or None)"
    )


# sbpp.cli with the arguments given, if any; exits non-zero if the command
# does, or naming every ladder, harness or study-only module it loaded
_CLI_ALONE = (
    "import sys, sbpp.cli; code = sbpp.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
    "sys.exit(code or sorted(m for m in sys.modules if m.startswith("
    "('sbpp.variants', 'sbpp.harness', 'concurrent.futures', 'statistics'))) or None)"
)


def test_the_demo_and_audit_commands_load_neither_the_ladder_nor_a_study(tmp_path):
    # a search, an unlock and its record's offline audit are clients of sbpp.protocol alone
    corpus, index, record = tmp_path / "corpus.tsv", tmp_path / "index.json", tmp_path / "rec.bin"
    assert cli.main(["gen-corpus", "--n", "200", "--seed", "7", "--out", str(corpus)]) == 0
    assert cli.main(["index", "--corpus", str(corpus), "--seed", "7", "--out", str(index)]) == 0
    demo = ["--index", str(index), "--seed", "7"]
    _fresh_python(_CLI_ALONE)
    searched = json.loads(_fresh_python(_CLI_ALONE, "search", "--lat", "35.70", "--lon", "139.75", *demo))
    drop = searched["candidates"][0]
    unlocked = json.loads(_fresh_python(
        _CLI_ALONE, "unlock", "--drop", drop["id"], "--lat", str(drop["lat"]), "--lon", str(drop["lon"]),
        "--qlat", "35.70", "--qlon", "139.75", "--emit-record", str(record), *demo,
    ))
    assert unlocked["accepted"] and record.exists()
    audited = _fresh_python(
        _CLI_ALONE, "audit", "--record-file", str(record),
        "--server-pubkey-hex", unlocked["server_pubkey_hex"], "--seed", "7",
    )
    assert json.loads(audited) == {"accepted": True, "fail_reason": None}
