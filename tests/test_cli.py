"""CLI exit-code discipline and file formats: 0 ok, 1 usage, 2 rejection."""

import csv
import hashlib
import inspect
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from sbpp import cli
from sbpp.cli import main
from sbpp.geoindex import geohash_encode, geohash_neighbors, haversine_m, hmac_tagger, load_corpus
from sbpp.harness import attacks, experiments
from sbpp.merkle import MerkleTree, node_hash
from sbpp.protocol import ClientSession, derive_key
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
    # The 8 candidates span two cells, so the receipt commits to the top
    # tree over the two cells' flat roots, in the order of their tags.
    by_cell: dict[str, list[str]] = {}
    for d in drops:
        if d.id in got:
            by_cell.setdefault(geohash_encode(d.lat, d.lon, 5), []).append(d.id)
    assert sorted(by_cell) == ["xn775", "xn77h"]
    key = derive_key("search", 7)
    left, right = (
        MerkleTree(sorted(by_cell[c])).root
        for c in sorted(by_cell, key=lambda c: hmac_tagger(key)(5, c))
    )
    receipt = Receipt.parse(bytes.fromhex(json.loads(out)["receipt_hex"]))
    assert receipt.root == node_hash(left, right)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9cd468d0c0063285e9f9503672fd72fcf3b741fe391a52201dc2a46b0dc1360f"
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


def _with_drop(drop_id):
    """The index with one more drop, by the query point, whose id a corpus
    file could not hold."""
    def edit(blob):
        blob["drops"][drop_id] = [35.7001, 139.7501]
        return blob
    return edit


def _first_drop_named_twice(blob):
    """The index's text with its first drop id named once more, by the query
    point, ahead of its own entry: a JSON object with a repeated key."""
    first = json.dumps(min(blob["drops"]))
    text = json.dumps(blob)
    return text.replace('"drops": {', f'"drops": {{{first}: [35.7001, 139.7501], ', 1)


# Ids a corpus file cannot hold; a JSON escape carries the lone surrogate.
UNWRITABLE_IDS = {"tab": "a\tb", "lf": "a\nb", "cr": "a\rb", "empty": "", "comment": "#b", "surrogate": "\ud800"}
# JSON values the loader once coerced: true to 1.0, "35.7001" to a number,
# 5.9 to precision 5, "5" to 5 and true to precision 1; and a point of three
# numbers, once refused without naming its drop.
NOT_COORDINATES = {"bool": [True, 139.75], "strings": ["35.7001", "139.7501"], "three": [35.7, 139.75, 0.0]}
NOT_PRECISIONS = {"fraction": [5.9], "string": ["5"], "bool": [True]}
# Points off the globe; json.dump writes the last two as NaN and Infinity.
OFF_GLOBE = {"lat-91": [91, 139.75], "lon-minus-181": [35.7, -181], "nan": [math.nan, 139.75], "infinity": [35.7, math.inf]}


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
        *map(_with_drop, UNWRITABLE_IDS.values()),
        *map(_first_drop_as, NOT_COORDINATES.values()),
        *(lambda blob, p=p: {**blob, "precisions": p} for p in NOT_PRECISIONS.values()),
        _first_drop_named_twice,
        *map(_first_drop_as, OFF_GLOBE.values()),
    ],
    ids=[
        "no-precisions", "no-drops", "no-key-fingerprint", "json-array",
        "drop-is-a-number", "drop-is-a-string", "drop-is-short", "drops-is-a-list",
        "precisions-is-a-number", "precision-is-a-list",
        *(f"id-{name}" for name in UNWRITABLE_IDS),
        *(f"coordinate-{name}" for name in NOT_COORDINATES),
        *(f"precision-{name}" for name in NOT_PRECISIONS),
        "id-named-twice",
        *(f"point-{name}" for name in OFF_GLOBE),
    ],
)
def test_malformed_index_file_is_a_usage_error(demo, capsys, edit):
    bad = demo["tmp"] / "bad.json"
    edited = edit(json.loads(demo["index"].read_text()))
    bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    code, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(bad), "--seed", "7",
    )
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("command", ["search", "unlock"])
def test_an_index_file_naming_a_drop_twice_is_refused_naming_it(demo, capsys, command):
    # json.load alone keeps the second entry and serves it
    blob = json.loads(demo["index"].read_text())
    first = min(blob["drops"])
    bad = demo["tmp"] / "twice.json"
    bad.write_text(_first_drop_named_twice(blob))
    argv = [command, "--lat", "35.7001", "--lon", "139.7501", "--index", str(bad), "--seed", "7"]
    if command == "unlock":
        argv += ["--drop", first]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert f"index file names {first!r} twice" in captured.err


@pytest.mark.parametrize("command", ["search", "unlock"])
@pytest.mark.parametrize("drop_id", UNWRITABLE_IDS.values(), ids=UNWRITABLE_IDS)
def test_an_index_file_drop_a_corpus_cannot_hold_is_named(demo, capsys, command, drop_id):
    # the index is a corpus file's: an id the file format cannot hold is
    # never searched, listed or unlocked
    bad = demo["tmp"] / "bad.json"
    bad.write_text(json.dumps(_with_drop(drop_id)(json.loads(demo["index"].read_text()))))
    argv = [command, "--lat", "35.7001", "--lon", "139.7501", "--index", str(bad), "--seed", "7"]
    if command == "unlock":
        argv += ["--drop", drop_id]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert f"drop id {drop_id!r} " in captured.err


@pytest.mark.parametrize(
    "field, value",
    [*(("drop", v) for v in NOT_COORDINATES.values()), *(("precisions", v) for v in NOT_PRECISIONS.values())],
    ids=[*(f"coordinate-{name}" for name in NOT_COORDINATES), *(f"precision-{name}" for name in NOT_PRECISIONS)],
)
def test_an_index_file_number_that_is_not_a_json_number_is_named(demo, capsys, field, value):
    blob = json.loads(demo["index"].read_text())
    if field == "precisions":
        blob["precisions"], named = value, f"precisions {value!r} must be JSON integers"
    else:
        first = min(blob["drops"])
        blob["drops"][first], named = value, f"drop {first!r}: coordinates {value!r} must be two JSON numbers"
    bad = demo["tmp"] / "bad.json"
    bad.write_text(json.dumps(blob))
    code = main(["search", "--lat", "35.70", "--lon", "139.75", "--index", str(bad), "--seed", "7"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert named in captured.err


@pytest.mark.parametrize("command", ["search", "unlock"])
@pytest.mark.parametrize("point", OFF_GLOBE.values(), ids=OFF_GLOBE)
def test_an_index_file_point_off_the_globe_is_named(demo, capsys, command, point):
    blob = json.loads(demo["index"].read_text())
    first = min(blob["drops"])
    blob["drops"][first] = point
    bad = demo["tmp"] / "bad.json"
    bad.write_text(json.dumps(blob))
    argv = [command, "--lat", "35.70", "--lon", "139.75", "--index", str(bad), "--seed", "7"]
    if command == "unlock":
        argv += ["--drop", first]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert f"drop id {first!r} has a coordinate out of range" in captured.err


def test_an_index_file_in_any_drop_order_gives_the_same_outputs(demo, capsys):
    # the index build puts the drops in id order, so the file's order is never read
    blob = json.loads(demo["index"].read_text())
    reverse = demo["tmp"] / "reverse.json"
    reverse.write_text(json.dumps({**blob, "drops": dict(sorted(blob["drops"].items(), reverse=True))}))
    assert list(json.loads(reverse.read_text())["drops"]) == sorted(blob["drops"], reverse=True)
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    outputs = []
    for index in (demo["index"], reverse):
        search = _run(capsys, "search", "--lat", "35.70", "--lon", "139.75", "--index", str(index), "--seed", "7")
        unlock = _run(
            capsys, "unlock", "--drop", cand["id"], "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
            "--qlat", "35.70", "--qlon", "139.75", "--index", str(index), "--seed", "7",
            "--emit-record", str(record),
        )
        outputs.append((search, unlock, record.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0] == 0 and json.loads(outputs[0][1][1])["accepted"] is True


def test_an_index_file_with_no_precision_is_a_usage_error(demo, capsys):
    # refused by the index, not served at the default precision
    bad = demo["tmp"] / "bad.json"
    bad.write_text(json.dumps({**json.loads(demo["index"].read_text()), "precisions": []}))
    code = main(
        ["search", "--lat", "35.70", "--lon", "139.75", "--index", str(bad), "--seed", "7"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "at least one precision" in captured.err


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


def test_accepted_unlock_never_sorts_the_returned_ids(demo, capsys, monkeypatch):
    # membership is one cell lookup; only the refusal lists the ids, sorted
    cand = _first_candidate(demo, capsys)

    def refuse(self):
        raise AssertionError("an accepted unlock sorted the returned ids")

    monkeypatch.setattr(ClientSession, "result_ids", refuse)
    code, out = _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--emit-record", str(demo["tmp"] / "rec.bin"),
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


_COORDINATE_FLAGS = [
    ("search", "--lat"), ("search", "--lon"),
    ("unlock", "--lat"), ("unlock", "--lon"), ("unlock", "--qlat"), ("unlock", "--qlon"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "400", "1e308"])
@pytest.mark.parametrize("command, flag", _COORDINATE_FLAGS, ids=[" ".join(f) for f in _COORDINATE_FLAGS])
def test_a_coordinate_flag_off_the_globe_is_a_usage_error_naming_it(demo, capsys, command, flag, value):
    # a listed drop and its own position, but one flag off the globe: refused before any session or record
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    argv = [command, "--index", str(demo["index"]), "--seed", "7"]
    point = {"--lat": cand["lat"], "--lon": cand["lon"]}
    if command == "unlock":
        argv += ["--drop", cand["id"], "--emit-record", str(record)]
        point.update({"--qlat": 35.70, "--qlon": 139.75})
    point[flag] = value
    code = main(argv + [f"{name}={v}" for name, v in point.items()])  # "=" lets "-inf" be a value
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {flag} ")
    assert not record.exists()


def test_unlock_refusal_lists_the_returned_ids_in_id_order(demo, capsys):
    _, out = _run(
        capsys, "search", "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    listed = [c["id"] for c in json.loads(out)["candidates"]]
    code, out = _run(
        capsys, "unlock", "--drop", "d-nonexistent",
        "--lat", "35.70", "--lon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
    )
    assert code == 2
    assert out == json.dumps(
        {"accepted": False, "fail_reason": "drop-not-returned-by-search", "candidates": listed}
    ) + "\n"
    assert listed == sorted(listed)


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


@pytest.mark.parametrize(
    "server_key, vk_hex, flag",
    [
        ("abcd", None, "--server-pubkey-hex"),
        ("", None, "--server-pubkey-hex"),
        ("11" * 33, None, "--server-pubkey-hex"),
        ("own", "abcd", "--nizk-vk-hex"),  # beside the key the receipt verifies under
        ("11" * 32, "abcd", "--nizk-vk-hex"),  # beside a foreign server key
    ],
    ids=["2-byte-server-key", "empty-server-key", "33-byte-server-key",
         "2-byte-vk-own-server-key", "2-byte-vk-foreign-server-key"],
)
def test_an_audit_key_that_is_not_32_bytes_is_a_usage_error(demo, capsys, server_key, vk_hex, flag):
    cand = _first_candidate(demo, capsys)
    record = demo["tmp"] / "rec.bin"
    _, out = _run(
        capsys, "unlock", "--drop", cand["id"],
        "--lat", str(cand["lat"]), "--lon", str(cand["lon"]),
        "--qlat", "35.70", "--qlon", "139.75",
        "--index", str(demo["index"]), "--seed", "7",
        "--emit-record", str(record),
    )
    if server_key == "own":
        server_key = json.loads(out)["server_pubkey_hex"]
    argv = ["audit", "--record-file", str(record), "--server-pubkey-hex", server_key, "--seed", "7"]
    if vk_hex is not None:
        argv += ["--nizk-vk-hex", vk_hex]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert f"{flag} must decode to 32 bytes" in captured.err


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


@pytest.mark.parametrize(
    "key_hex", ["22" * 31, "22" * 33, ""], ids=["31-bytes", "33-bytes", "empty"]
)
def test_a_search_key_that_is_not_32_bytes_is_a_usage_error(demo, capsys, key_hex):
    code = main(
        ["search", "--lat", "35.70", "--lon", "139.75", "--index", str(demo["index"]),
         "--key-hex", key_hex]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "--key-hex must decode to 32 bytes" in captured.err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_bbox_exits_1(tmp_path, capsys):
    code, _ = _run(
        capsys, "gen-corpus", "--n", "5", "--bbox", "1,2,3", "--out", str(tmp_path / "x"),
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-corpus", "--n", "-5"],
        ["gen-corpus", "--n", "0"],
        ["attack-matrix", "--trials", "0"],
        ["bench", "latency", "--n-drops", "0"],
        ["bench", "latency", "--iters", "0"],
        ["experiment", "reassoc", "--sessions", "0"],
        ["experiment", "reassoc", "--drops-per-cell", "0"],
        ["experiment", "reassoc", "--epoch-every", "0"],
        ["experiment", "audit-replay", "--n", "0"],
        ["experiment", "malicious-server", "--trials", "0"],
        ["experiment", "atomicity", "--trials", "-1"],
        ["experiment", "search-quality", "--n-drops", "0"],
        ["experiment", "search-quality", "--n-queries", "0"],
        ["bench", "merkle", "--sizes", "0"],
        ["bench", "merkle", "--sizes", "100,-5"],
        # a session TTL under one second would issue every session expired
        ["search", "--ttl-seconds", "0"],
        ["search", "--ttl-seconds", "-5"],
        ["unlock", "--ttl-seconds", "0"],
        ["unlock", "--ttl-seconds", "-5"],
    ],
)
def test_non_positive_count_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "corpus.tsv"
    flag = next(arg for arg in argv if arg.startswith("--"))
    if argv[0] == "gen-corpus":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a positive integer" in captured.err
    assert not out.exists()


def test_attack_matrix_command(capsys):
    code, out = _run(capsys, "attack-matrix", "--trials", "2", "--seed", "0")
    assert code == 0
    assert "matches the expected matrix" in out
    assert "V4b" in out and "A4b" in out


def test_attack_matrix_writes_csv(tmp_path, capsys):
    code, out = _run(capsys, "attack-matrix", "--trials", "2", "--out-dir", str(tmp_path))
    assert code == 0
    with (tmp_path / "attack_matrix.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["attack", "variant", "trials", "blocked_count", "skipped"]
    assert len(rows) == len(attacks.ATTACK_KINDS) * 9 == 54
    assert f"csv: {tmp_path / 'attack_matrix.csv'}" in out


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


# CI's console-script steps for the studies, at CI's sizes and seed 0:
# (argv, how many metric rows the report has where CI counts them, the rows
# CI greps, each a name and a value as an ERE).
_CI_STUDIES = [
    (("experiment", "atomicity", "--trials", "20"), None, [
        "sequential_double_submit_ok +20/20",
        "parallel_exactly_one +20/20",
        "expiry_boundary_ok +20/20",
        "lifecycle_issued +12000",
        "lifecycle_consumed +3333",
        "lifecycle_expired +6667",
        "lifecycle_pending +2000",
        "lifecycle_conserved +True",
        "cross_access_successes +0/9900",
        "honest_unlocks_after_cross_attempts +100",
    ]),
    (("experiment", "malicious-server", "--trials", "20"), 8, [
        "omission_detected_vs_reference_root +20/20",
        r"biased_root_audit_passes \(boundary\) +20/20",
        "nonce_transfer_rigged_issuer +20/20",
        "nonce_transfer_honest_issuer +0/20",
        r"refusal_detected \(boundary\) +0/20",
        "receipt_forgery_successes +0/20",
        "receipt_vs_shown_cells_detected +20/20",
        r"other_cell_recommit_unnoticed \(boundary\) +16/20",
    ]),
    (("experiment", "reassoc", "--sessions", "200"), None, [
        "rate_V4a +0", "rate_V4b +0", "rate_V2 +0.72", "rate_V3 +0.72",
    ]),
    (("experiment", "search-quality", "--n-drops", "2000", "--n-queries", "40"), None, [
        "recall_min +1", r"token_jaccard_near_pairs +0\.7645", r"token_jaccard_far_pairs +0\.0171",
    ]),
    (("experiment", "audit-replay", "--n", "20"), 9, [
        "full_honest_pass +20/20",
        "core_honest_pass +0/20",
        r"core_fail\[merkle-invalid\] +20",
        r"v4b_fault\[receipt_swap\]\[nonce-digest-mismatch\] +20",
        r"v4b_fault\[path_corrupt\]\[merkle-invalid\] +20",
        r"v4b_fault\[receipt_sig_corrupt\]\[receipt-sig-invalid\] +20",
        r"v8_fault\[token_swap\]\[token-hash-mismatch\] +20",
        r"v8_fault\[token_root_tamper\]\[token-hash-mismatch\] +20",
        r"v8_fault\[token_sig_tamper\]\[token-hash-mismatch\] +20",
    ]),
    (("bench", "merkle", "--sizes", "100,1000,5000"), 15, [
        "n=100 path_steps +7", "n=1000 path_steps +10", "n=5000 path_steps +13",
        *(f"n={n} compact_state_bytes +140" for n in (100, 1000, 5000)),
    ]),
    (("bench", "latency", "--n-drops", "200", "--iters", "50"), 20, []),  # timings are not pinned
]


@pytest.mark.parametrize("argv, count, rows", _CI_STUDIES, ids=["-".join(argv[:2]) for argv, _, _ in _CI_STUDIES])
def test_ci_study_steps_render_their_pinned_rows(capsys, argv, count, rows):
    code, out = _run(capsys, *argv, "--seed", "0")
    assert code == 0
    for row in rows:
        assert re.search(f"^ *{row}$", out, re.MULTILINE), row
    metric_rows = [line for line in out.splitlines() if not re.match(r"==| *parameters:| *$", line)]
    assert count is None or len(metric_rows) == count


# Each study's whole text (less its "csv:" line) and CSV as frozen in
# tests/studies/, at small sizes and seed 0.  A timing row is compared by
# name only: its value is masked on both sides.
_FROZEN_STUDIES = {
    "reassociation": ("experiment", "reassoc", "--sessions", "100"),
    "audit_replay": ("experiment", "audit-replay", "--n", "10"),
    "atomicity_isolation": ("experiment", "atomicity", "--trials", "10"),
    "malicious_server": ("experiment", "malicious-server", "--trials", "10"),
    "search_quality": ("experiment", "search-quality", "--n-drops", "300", "--n-queries", "20"),
    "merkle_bench": ("bench", "merkle", "--sizes", "100,1000"),
    "protocol_latency": ("bench", "latency", "--n-drops", "200", "--iters", "50"),
}
_TIMING_METRIC = re.compile(r"_ms$|_us$|^runtime_s$|_share_|^ratio_")


def _untimed(metric: str, value: str) -> str:
    return "*" if _TIMING_METRIC.search(metric.strip()) else value


def _untimed_text(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        if line.startswith("   ") and not line.startswith("   parameters:"):
            head, value = line.rsplit(" ", 1)  # a shown value has no space
            line = f"{head} {_untimed(head, value)}"
        lines.append(line)
    return lines


def _untimed_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return [[metric, _untimed(metric, value)] for metric, value in csv.reader(fh)]


@pytest.mark.parametrize("name", _FROZEN_STUDIES)
def test_study_prints_and_writes_its_frozen_report(tmp_path, capsys, name):
    frozen = Path(__file__).parent / "studies"
    code, out = _run(capsys, *_FROZEN_STUDIES[name], "--seed", "0", "--out-dir", str(tmp_path))
    assert code == 0
    *text, csv_line = out.splitlines()
    assert csv_line == f"csv: {tmp_path / name}.csv"
    assert _untimed_text("\n".join(text)) == _untimed_text((frozen / f"{name}.txt").read_text())
    assert _untimed_csv(tmp_path / f"{name}.csv") == _untimed_csv(frozen / f"{name}.csv")


@pytest.mark.parametrize("flags", [(), ("--impoverished-token",)], ids=["full", "impoverished"])
def test_attack_matrix_prints_and_writes_its_frozen_grid(tmp_path, capsys, flags):
    # the grid and the CSV byte for byte, as frozen in tests/studies/
    frozen = Path(__file__).parent / "studies"
    name = "attack_matrix" + "_impoverished" * bool(flags)
    code, out = _run(
        capsys, "attack-matrix", "--trials", "3", "--seed", "0", *flags, "--out-dir", str(tmp_path)
    )
    assert code == 0
    *grid, csv_line = out.splitlines(keepends=True)
    assert csv_line == f"csv: {tmp_path / 'attack_matrix.csv'}\n"
    assert "".join(grid).encode() == (frozen / f"{name}.txt").read_bytes()
    assert (tmp_path / "attack_matrix.csv").read_bytes() == (frozen / f"{name}.csv").read_bytes()


def test_audit_replay_of_one_record_exits_1_with_nothing_on_stdout(capsys):
    # one record has no other to swap with: the study would report its own
    # receipt and token as a swap that audits as accepted
    assert main(["experiment", "audit-replay", "--n", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "n >= 2" in err


def test_reassoc_analytic_rate_counts_the_shorter_last_epoch(capsys):
    # epochs of 25 and 5 sessions: (25 (1 - .95^24) + 5 (1 - .95^4)) / 30
    code, out = _run(capsys, "experiment", "reassoc", "--sessions", "30", "--epoch-every", "25")
    assert code == 0
    assert re.search(r"^ +analytic_rate_uniform_model +0\.620925$", out, re.MULTILINE)


def test_root_help_names_no_private_helper(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "experiment" in out
    assert not re.search(r"\b_[a-z]", out), out


def test_experiment_command_writes_csv(tmp_path, capsys):
    code, out = _run(
        capsys, "experiment", "audit-replay", "--n", "5", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "audit_replay.csv").exists()
    assert "full_honest_pass" in out


@pytest.mark.parametrize("bbox", ["95,0,100,10", "nan,0,1,1", "10,-200,20,-190"])
def test_bbox_off_the_globe_exits_1_and_writes_nothing(tmp_path, capsys, bbox):
    out = tmp_path / "corpus.tsv"
    assert main(["gen-corpus", "--n", "3", "--bbox", bbox, "--out", str(out)]) == 1
    assert "bbox must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [[], ["--sizes", "100"]])
def test_bench_merkle_passes_the_seed(tmp_path, capsys, monkeypatch, sizes):
    real, seen = experiments.merkle_bench, []

    def spy(**kwargs):  # records the keywords, then runs one small size
        seen.append(kwargs)
        return real((100,), prove_samples=5, seed=kwargs["seed"])

    monkeypatch.setattr(experiments, "merkle_bench", spy)
    code, _ = _run(capsys, "bench", "merkle", *sizes, "--seed", "5", "--out-dir", str(tmp_path))
    given = (100,) if sizes else (100, 1000, 5000, 10000, 20000, 50000)
    assert code == 0 and seen == [{"seed": 5, "sizes": given}]


# (command, study) -> (runner, {own flag: runner keyword}, the keywords a bare run passes)
STUDIES = {
    ("bench", "merkle"): (
        "merkle_bench", {"--sizes": "sizes"}, {"seed": 0, "sizes": (100, 1000, 5000, 10000, 20000, 50000)},
    ),
    ("bench", "latency"): (
        "protocol_latency_bench",
        {"--n-drops": "n_drops", "--iters": "iters"},
        {"seed": 0, "n_drops": 1000, "iters": 1000},
    ),
    ("experiment", "reassoc"): (
        "reassociation_experiment",
        {"--sessions": "n_sessions", "--epoch-every": "epoch_every", "--drops-per-cell": "n_drops"},
        {"seed": 0, "n_sessions": 1000, "epoch_every": 25, "n_drops": 20},
    ),
    ("experiment", "audit-replay"): ("audit_replay_experiment", {"--n": "n"}, {"seed": 0, "n": 100}),
    # the CLI keeps 100 trials, not the suite's own default of 1000
    ("experiment", "atomicity"): (
        "atomicity_and_isolation_suite", {"--trials": "trials"}, {"seed": 0, "trials": 100},
    ),
    ("experiment", "malicious-server"): (
        "malicious_server_suite", {"--trials": "trials"}, {"seed": 0, "trials": 100},
    ),
    ("experiment", "search-quality"): (
        "search_quality_experiment",
        {"--n-drops": "n_drops", "--n-queries": "n_queries"},
        {"seed": 0, "n_drops": 1000, "n_queries": 200},
    ),
}
_STUDY_FLAGS = sorted({flag for _, flags, _ in STUDIES.values() for flag in flags})


def test_the_study_table_declares_exactly_the_pinned_studies():
    assert {(c, s) for c, (_, studies) in cli.STUDIES.items() for s in studies} == set(STUDIES)


# the flags whose default is the CLI's own, not its runner's
_CLI_OWN_DEFAULTS = {("experiment", "atomicity", "trials"): 100}


def test_every_study_flag_default_is_its_runners_unless_pinned_as_the_clis_own():
    # the table holds every default, so the parser reads no runner; this
    # keeps each one equal to the runner's own signature default
    for command, (_, studies) in cli.STUDIES.items():
        for study, (_, runner, flags) in studies.items():
            parameters = inspect.signature(getattr(experiments, runner)).parameters
            for keyword, _, default, _ in flags.values():
                own = _CLI_OWN_DEFAULTS.get((command, study, keyword))
                if own is None:
                    assert default == parameters[keyword].default, (study, keyword)
                else:
                    assert default == own != parameters[keyword].default, (study, keyword)


def _spy(monkeypatch, runner: str) -> list[dict]:
    calls = []

    def run(**kwargs):
        calls.append(kwargs)
        return SimpleNamespace(render=lambda: "report")

    monkeypatch.setattr(experiments, runner, run)
    return calls


@pytest.mark.parametrize("study", STUDIES, ids="-".join)
def test_study_defaults_and_flags_reach_its_runner(capsys, monkeypatch, study):
    runner, flags, defaults = STUDIES[study]
    calls = _spy(monkeypatch, runner)
    assert _run(capsys, *study) == (0, "report\n")
    argv, given = [*study, "--seed", "4"], {"seed": 4}
    for flag, keyword in flags.items():
        argv += [flag, "3"]
        given[keyword] = (3,) if flag == "--sizes" else 3  # --sizes is a list of counts
    assert _run(capsys, *argv) == (0, "report\n")
    assert calls == [defaults, given]


@pytest.mark.parametrize(
    "study, flag",
    [(study, flag) for study, (_, flags, _) in STUDIES.items() for flag in _STUDY_FLAGS
     if flag not in flags],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v,
)
def test_study_refuses_the_flags_of_other_studies(capsys, monkeypatch, study, flag):
    calls = _spy(monkeypatch, STUDIES[study][0])
    with pytest.raises(SystemExit) as exc:
        main([*study, flag, "3"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    # the study's own usage line, not the root parser's
    assert err.startswith(f"usage: sbpp {' '.join(study)} [-h] [--seed SEED]")
    assert f"error: unrecognized arguments: {flag} 3" in err
    assert calls == []


# what each study's --help shows as its flags' defaults, --seed first
_SHOWN_DEFAULTS = {
    ("bench", "merkle"): ["0", "100,1000,5000,10000,20000,50000"],
    ("bench", "latency"): ["0", "1000", "1000"],
    ("experiment", "reassoc"): ["0", "1000", "25", "20"],
    ("experiment", "audit-replay"): ["0", "100"],
    ("experiment", "atomicity"): ["0", "100"],
    ("experiment", "malicious-server"): ["0", "100"],
    ("experiment", "search-quality"): ["0", "1000", "200"],
}


@pytest.mark.parametrize("study", STUDIES, ids="-".join)
def test_study_help_lists_exactly_its_own_flags(capsys, study):
    with pytest.raises(SystemExit) as exc:
        main([*study, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"--[a-z][a-z-]*", out))
    assert listed == {"--help", "--seed", "--out-dir", *STUDIES[study][1]}
    # every flag but --help and --out-dir has help text ending in its default
    assert re.findall(r"\(default: ([^)]*)\)", " ".join(out.split())) == _SHOWN_DEFAULTS[study]


def test_study_flags_go_after_the_study_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--seed", "1", "reassoc"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""
