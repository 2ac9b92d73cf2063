"""CLI exit-code discipline and file formats: 0 ok, 1 usage, 2 rejection."""

import hashlib
import json

import pytest

from sbpp.cli import main
from sbpp.geoindex import geohash_encode, geohash_neighbors, haversine_m, load_corpus
from sbpp.harness import attacks
from sbpp.receipt import Receipt


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def demo(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    index = tmp_path / "index.json"
    code, _ = _run(
        capsys, "gen-corpus", "--kind", "uniform", "--n", "150", "--seed", "7",
        "--out", str(corpus),
    )
    assert code == 0
    code, _ = _run(capsys, "index", "--corpus", str(corpus), "--seed", "7", "--out", str(index))
    assert code == 0
    return {"corpus": corpus, "index": index, "tmp": tmp_path}


def test_gen_corpus_emits_parseable_lines(tmp_path, capsys):
    out_file = tmp_path / "c.tsv"
    code, _ = _run(capsys, "gen-corpus", "--n", "1000", "--seed", "1", "--out", str(out_file))
    assert code == 0
    rows = [ln for ln in out_file.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1000
    assert all(len(r.split("\t")) == 3 for r in rows)


def test_gen_corpus_clustered(tmp_path, capsys):
    out_file = tmp_path / "c.tsv"
    code, _ = _run(
        capsys, "gen-corpus", "--kind", "clustered", "--n", "50", "--seed", "2",
        "--out", str(out_file),
    )
    assert code == 0


def test_index_file_shape(demo):
    blob = json.loads(demo["index"].read_text())
    assert blob["format"] == "sbpp-index-v1"
    assert blob["precisions"] == [5]
    assert len(blob["drops"]) == 150
    assert "entries" not in blob


def test_index_precisions_drive_the_search(tmp_path, capsys):
    # A precision-6 file answers a 300 m query from its own precision-6 tags.
    corpus = tmp_path / "corpus.tsv"
    index = tmp_path / "index6.json"
    _run(capsys, "gen-corpus", "--n", "2000", "--seed", "7", "--out", str(corpus))
    code, _ = _run(
        capsys, "index", "--corpus", str(corpus), "--seed", "7", "--precisions", "6",
        "--out", str(index),
    )
    assert code == 0
    assert json.loads(index.read_text())["precisions"] == [6]
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75", "--radius", "300",
        "--index", str(index), "--seed", "7",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["candidates"]
    assert parsed["receipt_hex"]


def test_index_file_with_entries_still_loads(demo, capsys):
    argv = ("search", "--lat", "35.70", "--lon", "139.75", "--seed", "7", "--index")
    _, plain = _run(capsys, *argv, str(demo["index"]))
    blob = json.loads(demo["index"].read_text())
    blob["entries"] = {"00" * 32: ["d000001"]}
    legacy = demo["tmp"] / "legacy.json"
    legacy.write_text(json.dumps(blob))
    code, out = _run(capsys, *argv, str(legacy))
    assert code == 0
    assert out == plain


def test_search_outputs_session_and_candidates(demo, capsys):
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["session"]["N"]) == 64
    assert parsed["session"]["t_exp"] == 1_700_000_300
    assert parsed["candidates"]
    assert parsed["receipt_hex"]


def test_search_output_is_frozen(demo, capsys):
    # The whole JSON document (session, every candidate in order, receipt)
    # for a fixed corpus, index and seed.
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 0
    got = {c["id"] for c in json.loads(out)["candidates"]}
    # The cover shrinks the 3x3 block of precision-5 cells around the query
    # (39 drops) and still holds every drop within the 1 km radius.
    drops = load_corpus(str(demo["corpus"]))
    center = geohash_encode(35.70, 139.75, 5)
    block = {center, *geohash_neighbors(center)}
    block_ids = {d.id for d in drops if geohash_encode(d.lat, d.lon, 5) in block}
    truth = {d.id for d in drops if haversine_m(35.70, 139.75, d.lat, d.lon) <= 1000.0}
    assert len(block_ids) == 39
    assert truth <= got <= block_ids
    assert len(got) == 8
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "798bb362487a704fb47065278b8b7dd9b82a6e1c2d15da126ad5d6e61658de86"
    )


def test_search_stamps_every_candidate_with_the_session_context(demo, capsys):
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--pv", "7", "--epoch", "ep42", "--ttl-seconds", "60",
    )
    assert code == 0
    parsed = json.loads(out)
    receipt = Receipt.parse(bytes.fromhex(parsed["receipt_hex"]))
    assert (receipt.pv, receipt.epoch, receipt.t_exp) == ("7", "ep42", 1_700_000_060)
    assert parsed["session"]["t_exp"] == receipt.t_exp
    assert parsed["candidates"]
    for cand in parsed["candidates"]:
        assert list(cand) == ["id", "lat", "lon", "radius_m", "pv", "epoch"]
        assert (cand["radius_m"], cand["pv"], cand["epoch"]) == (1000.0, "7", "ep42")


@pytest.mark.parametrize("command", ["search", "unlock"])
def test_radius_the_index_cannot_answer_is_a_usage_error(demo, capsys, command):
    # A 20 km box spans about 9 x 11 precision-5 cells at lat 35.7, more than
    # the 16-tag budget; the demo index holds only precision 5.
    argv = [
        command, "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    ]
    if command == "unlock":
        argv += ["--drop", "d000000"]
    code = main(argv + ["--radius", "20000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "radius 20000 m has no cover of at most 16 cells at precisions [5]" in captured.err
    code, out = _run(capsys, *argv, "--radius", "1000")
    assert code != 1
    if command == "search":
        assert json.loads(out)["candidates"] and json.loads(out)["receipt_hex"]


def test_radius_300_on_the_precision_5_index_finds_every_drop_in_range(demo, capsys):
    # Queried at a drop, so the haversine truth is never empty.
    drops = load_corpus(str(demo["corpus"]))
    qlat, qlon = drops[0].lat, drops[0].lon
    code, out = _run(
        capsys, "search", "--lat", str(qlat), "--lon", str(qlon), "--radius", "300",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["receipt_hex"]
    truth = {d.id for d in drops if haversine_m(qlat, qlon, d.lat, d.lon) <= 300.0}
    assert drops[0].id in truth
    assert truth <= {c["id"] for c in parsed["candidates"]}


def _without(key):
    def edit(blob):
        del blob[key]
        return blob
    return edit


def _first_drop_as(value):
    def edit(blob):
        blob["drops"][min(blob["drops"])] = value
        return blob
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _without("precisions"),
        _without("drops"),
        _without("key_fingerprint"),
        lambda blob: [blob],
        _first_drop_as(5),
        _first_drop_as("ab"),
        _first_drop_as([35.7]),
        lambda blob: {**blob, "drops": [["d0", 35.7, 139.75]]},
        lambda blob: {**blob, "precisions": 5},
        lambda blob: {**blob, "precisions": [[5]]},
    ],
    ids=[
        "no-precisions", "no-drops", "no-key-fingerprint", "json-array",
        "drop-is-a-number", "drop-is-a-string", "drop-is-short", "drops-is-a-list",
        "precisions-is-a-number", "precision-is-a-list",
    ],
)
def test_malformed_index_file_is_a_usage_error(demo, capsys, edit):
    bad = demo["tmp"] / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(demo["index"].read_text()))))
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(bad), "--seed", "7",
    )
    assert code == 1
    assert out == ""


def _first_candidate(demo, capsys) -> dict:
    _, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    return json.loads(out)["candidates"][0]


def test_unlock_and_audit_accept(demo, capsys):
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    code, out = _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--emit-record", str(record),
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["accepted"] is True
    assert record.exists()
    code, out = _run(
        capsys, "audit", "--record-file", str(record),
        "--server-pubkey-hex", parsed["server_pubkey_hex"], "--seed", "7",
    )
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_unlock_rejects_remote_witness(demo, capsys):
    cand = _first_candidate(demo, capsys)
    code, out = _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", "35.79", "--lon", "139.89",  # nowhere near the drop
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 2
    assert json.loads(out)["accepted"] is False


def test_unlock_rejects_unreturned_drop(demo, capsys):
    code, out = _run(
        capsys, "unlock", "--drop", "d-nonexistent",
        "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 2
    assert json.loads(out)["fail_reason"] == "drop-not-returned-by-search"


def test_audit_wrong_key_is_a_crypto_rejection(demo, capsys):
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--emit-record", str(record),
    )
    code, out = _run(
        capsys, "audit", "--record-file", str(record),
        "--server-pubkey-hex", "11" * 32, "--seed", "7",
    )
    assert code == 2
    assert json.loads(out)["fail_reason"] == "receipt-sig-invalid"


def test_audit_tampered_record_rejected(demo, capsys):
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    _, out = _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--emit-record", str(record),
    )
    pubkey = json.loads(out)["server_pubkey_hex"]
    raw = bytearray(record.read_bytes())
    raw[-1] ^= 1  # the proof bytes sit at the tail
    record.write_bytes(bytes(raw))
    code, out = _run(
        capsys, "audit", "--record-file", str(record),
        "--server-pubkey-hex", pubkey, "--seed", "7",
    )
    assert code == 2
    assert json.loads(out)["fail_reason"] == "proof-invalid"


def test_audit_unparseable_record_is_a_usage_error(demo, capsys):
    code, _ = _run(
        capsys, "audit", "--record-file", str(demo["corpus"]),
        "--server-pubkey-hex", "11" * 32,
    )
    assert code == 1


def test_key_mismatch_is_a_usage_error(demo, capsys):
    code, _ = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--key-hex", "22" * 32,
    )
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_bbox_exits_1(tmp_path, capsys):
    code, _ = _run(
        capsys, "gen-corpus", "--n", "5", "--bbox", "1,2,3", "--out", str(tmp_path / "x"),
    )
    assert code == 1


def test_attack_matrix_command(capsys):
    code, out = _run(capsys, "attack-matrix", "--trials", "2", "--seed", "0")
    assert code == 0
    assert "matches the expected matrix" in out
    assert "V4b" in out and "A4b" in out


def test_attack_matrix_mismatch_exits_1(capsys, monkeypatch):
    flipped = {a: dict(row) for a, row in attacks.EXPECTED_MATRIX.items()}
    flipped["A1"]["V4b"] = not flipped["A1"]["V4b"]
    monkeypatch.setattr(attacks, "EXPECTED_MATRIX", flipped)
    code, out = _run(capsys, "attack-matrix", "--trials", "1", "--seed", "0")
    assert code == 1
    assert "DIFFERS FROM the expected matrix" in out


def test_impoverished_token_matrix_exits_0(capsys):
    # A4b opens on V8 by design here, so the differing matrix is not an error
    code, out = _run(capsys, "attack-matrix", "--trials", "1", "--seed", "0", "--impoverished-token")
    assert code == 0
    assert "DIFFERS FROM the expected matrix" in out


def test_bench_merkle_writes_csv(tmp_path, capsys):
    code, out = _run(
        capsys, "bench", "merkle", "--sizes", "100,200", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "merkle_bench.csv").exists()
    assert "path_steps" in out


def test_experiment_command_writes_csv(tmp_path, capsys):
    code, out = _run(
        capsys, "experiment", "audit-replay", "--n", "5", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "audit_replay.csv").exists()
    assert "full_honest_pass" in out
