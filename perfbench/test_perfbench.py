"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sbpp.harness import attacks  # noqa: E402
from sbpp.protocol import SbppServer, VerifyOutcome  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# host-speed scaling


def test_scale_uses_the_median_of_the_slices_around_a_mark():
    g = gauge.SpeedGauge()
    ref = gauge.REFERENCE_SLICE_S
    g.slices = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert g.scale(0) == 1.0  # slices 0..3
    assert g.scale(9) == 0.5  # slices 6..9
    assert g.scale(4) == 0.5  # slices 1..7: three at ref, four at 2 * ref


def test_pass_scales_each_sample_by_its_own_window():
    stats = workloads.PassStats()
    ref = gauge.REFERENCE_SLICE_S
    # ops of 1 s each: the gauge runs a slice after every op, so op i has mark i
    for _ in range(20):
        stats.add_op(1.0, {"search_ms": 10.0})
    # the host halves its speed from slice 10 on: ops 0-9 see a majority of
    # fast slices in their window, ops 10-19 a majority of slow ones
    stats.gauge.slices = [ref] * 10 + [2 * ref] * 10
    stats.close()
    assert stats.op_s == pytest.approx(10 * 1.0 + 10 * 0.5)
    assert stats.raw_op_s == 20.0
    assert stats.percentiles["search_ms"] == pytest.approx((7.5, 10.0))


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_of_nested_spans():
    # op:  a [0, 100)  ->  b [10, 40)  ->  c [15, 25)
    #                  ->  d [50, 90)
    #      e [100, 120) top-level
    spans = [
        ["a", -1, 0, 100],
        ["b", 0, 10, 40],
        ["c", 1, 15, 25],
        ["d", 0, 50, 90],
        ["e", -1, 100, 120],
    ]
    calls, self_ns, covered = self_times(spans)
    assert self_ns == {"a": 100 - 30 - 40, "b": 30 - 10, "c": 10, "d": 40, "e": 20}
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}
    assert covered == 120


def test_self_time_sums_repeated_names_and_self_times_add_up():
    spans = [["x", -1, 0, 50], ["y", 0, 5, 15], ["y", 0, 20, 30], ["x", 2, 22, 27]]
    calls, self_ns, covered = self_times(spans)
    assert calls == {"x": 2, "y": 2}
    assert self_ns == {"x": 50 - 20 + 5, "y": 10 + 10 - 5}
    assert sum(self_ns.values()) == covered == 50


def test_tracer_folds_scopes_into_totals():
    tracer = Tracer()
    tracer.begin("op")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.count("hits", 3)
    tracer.close(outer)
    tracer.end()
    tracer.count("hits")  # outside a scope: dropped
    totals = tracer.totals["op"]
    assert totals.scopes == 1
    assert totals.calls == {"outer": 1, "inner": 1}
    assert totals.counts == {"hits": 3}
    assert 0 < totals.covered_ns <= totals.wall_ns
    assert tracer.scope is None


# ---------------------------------------------------------------------------
# inputs


def _inputs_digest(seed: int) -> str:
    corpus = workloads.make_corpus(seed)
    queries = workloads.make_queries(seed, 10, 10)
    return hashlib.sha256(repr((corpus, queries)).encode()).hexdigest()


def _chosen_ids(seed: int, n: int = 5) -> list[str]:
    wl = workloads.WORKLOADS["full-1km"](seed)
    server = wl.build()
    chosen = []
    for q in wl.queries[:n]:
        ses = wl.client.open_session(server, workloads.NOW)
        wl.client.search(server, ses, q.lat, q.lon, workloads.RADIUS_M, workloads.NOW)
        chosen.append(ses.candidates[workloads.pick_index(q.pick, len(ses.candidates))].id)
    return chosen


def test_same_seed_gives_identical_inputs_and_choices():
    assert _inputs_digest(7) == _inputs_digest(7)
    assert _chosen_ids(7) == _chosen_ids(7)


def test_different_seed_changes_inputs():
    assert _inputs_digest(7) != _inputs_digest(8)
    assert _chosen_ids(7) != _chosen_ids(8)


def test_queries_cover_every_grid_cell_once():
    lat_min, lat_max, lon_min, lon_max = workloads.TOKYO_BBOX
    queries = workloads.make_queries(3, 10, 10)
    cells = {
        (int((q.lat - lat_min) / (lat_max - lat_min) * 10), int((q.lon - lon_min) / (lon_max - lon_min) * 10))
        for q in queries
    }
    assert len(cells) == 100 and all(0 <= q.pick < 1 for q in queries)


# ---------------------------------------------------------------------------
# traced runs: exact counts repeat, layers land where the layer map predicts


def is_exact(name: str) -> bool:
    """Counts and ratios of counts; everything else is a time."""
    return (
        name.endswith(".calls")
        or ".rejects." in name
        or name in ("geoindex.match.ids", "geoindex.match.in_radius_ratio", "session.table_len")
    )


@pytest.fixture(scope="module")
def traced():
    """Two shortest traced runs (one untraced and one traced pass) per workload."""
    return {
        name: [run.run(name, seed=5, seconds=0, trace=True) for _ in range(2)]
        for name in ("full-1km", "core-1km", "ladder")
    }


@pytest.mark.parametrize("name", ["full-1km", "core-1km", "ladder"])
def test_exact_counts_repeat_across_runs(traced, name):
    (first, _, tally1), (second, _, tally2) = traced[name]
    assert tally1.failed == tally2.failed == 0
    exact = sorted(k for k in first if is_exact(k))
    assert "merkle.hashes.calls" in exact and "geoindex.match.ids" in exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_core_mode_builds_no_merkle_tree(traced):
    metrics = traced["core-1km"][0][0]
    merkle = {k: v for k, v in metrics.items() if k.startswith("merkle.") and k.endswith(".calls")}
    assert merkle and all(v == 0 for v in merkle.values())


def test_merkle_has_the_largest_self_time_on_full(traced):
    metrics = traced["full-1km"][0][0]
    by_layer: dict[str, float] = {}
    for k, v in metrics.items():
        if k.endswith(".self_ms") and k != "geoindex.build_index.self_ms":  # set-up, not per op
            layer = k.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + v
    assert max(by_layer, key=by_layer.get) == "merkle"
    assert metrics["merkle.build_tree.server.calls"] == metrics["merkle.build_tree.client.calls"] == 1


def test_ladder_trace_sees_every_rung(traced):
    metrics = traced["ladder"][0][0]
    assert all(metrics[f"attacks.rung_s.{k}"] > 0 for k in attacks.VARIANT_KINDS)
    assert metrics["variants.verify.calls"] > 0 and metrics["geoindex.match.in_radius_ratio"] > 0


# ---------------------------------------------------------------------------
# the checks catch a wrong verdict


def test_rejected_honest_unlock_counts_as_failure(monkeypatch):
    def reject(self, request, now):
        return VerifyOutcome(False, "proof-invalid")

    monkeypatch.setattr(SbppServer, "verify", reject)
    wl = workloads.WORKLOADS["core-1km"](1)
    wl.queries = wl.queries[:3]
    tally = workloads.Tally()
    wl.run_pass(tally)
    assert tally.attempted == tally.failed == 3
    assert tally.failures == {"honest-unlock-rejected:proof-invalid": 3}


def test_matrix_cell_differing_from_expected_counts_as_failure(monkeypatch):
    flipped = {a: dict(row) for a, row in attacks.EXPECTED_MATRIX.items()}
    flipped["A1"]["V4b"] = not flipped["A1"]["V4b"]
    monkeypatch.setattr(attacks, "EXPECTED_MATRIX", flipped)
    wl = workloads.LadderWorkload(seed=1, trials_per_cell=1)
    tally = workloads.Tally()
    wl.run_pass(tally)
    assert tally.failures == {"matrix-cell:A1/V4b": 1}


# ---------------------------------------------------------------------------
# the declared metrics are the ones the run prints


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
