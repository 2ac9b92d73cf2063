"""Command-line entry point.

Single-process demo flows (client and server in one invocation) plus the
experiment/benchmark harness.  Exit codes: 0 success, 1 usage or input
error (and, for attack-matrix, a matrix that differs from the expected
one), 2 cryptographic rejection (failed unlock verification or audit).

All randomness flows through --seed; the search key may be supplied as
--key-hex, and the server signing / proof-system keys are derived from the
seed (harness.attacks.seeded_env) so independent invocations agree on them.
The index file fixes the geohash precisions that search and unlock use; a
radius that none of them covers in geoindex.COVER_BUDGET cells is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import nizk
from .geoindex import (
    Drop,
    GeoIndex,
    gen_clustered_corpus,
    gen_uniform_corpus,
    load_corpus,
    save_corpus,
)
from .harness.attacks import derive_key, protocol_pair, run_attack_matrix, seeded_env
from .harness.experiments import (
    atomicity_and_isolation_suite,
    audit_replay_experiment,
    malicious_server_suite,
    merkle_bench,
    protocol_latency_bench,
    reassociation_experiment,
    search_quality_experiment,
)
from .protocol import AuditRecord, AuditRecordError, audit
from .session import DEFAULT_EPOCH, DEFAULT_PV, DEFAULT_TTL_S, MODE_CORE, MODE_FULL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2

INDEX_FORMAT = "sbpp-index-v1"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "NoReturn":  # noqa: F821 - argparse idiom
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _key_fingerprint(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()[:16]


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox needs four comma-separated numbers")
    lat_min, lon_min, lat_max, lon_max = parts
    if lat_min >= lat_max or lon_min >= lon_max:
        raise ValueError("bbox must be lat_min,lon_min,lat_max,lon_max")
    return (lat_min, lat_max, lon_min, lon_max)


def _search_key(args: argparse.Namespace) -> bytes:
    if getattr(args, "key_hex", None):
        key = bytes.fromhex(args.key_hex)
        if len(key) != 32:
            raise ValueError("--key-hex must decode to 32 bytes")
        return key
    return derive_key("search", args.seed)


def _load_index_file(path: str, key: bytes) -> tuple[list[Drop], tuple[int, ...]]:
    """The drops and the precisions an index file declares; ValueError on any other shape."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file")
    try:
        if blob["key_fingerprint"] != _key_fingerprint(key):
            raise ValueError("search key does not match the key this index was built with")
        drops = [Drop(i, float(lat), float(lon)) for i, (lat, lon) in sorted(blob["drops"].items())]
        return drops, tuple(int(p) for p in blob["precisions"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {INDEX_FORMAT} file: {exc!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    bbox = _parse_bbox(args.bbox)
    gen = gen_uniform_corpus if args.kind == "uniform" else gen_clustered_corpus
    drops = gen(args.n, args.seed, bbox)
    save_corpus(args.out, drops)
    print(f"wrote {len(drops)} drops to {args.out}")
    return EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    key = _search_key(args)
    drops = load_corpus(args.corpus)
    precisions = GeoIndex([int(p) for p in args.precisions.split(",")]).precisions
    blob = {
        "format": INDEX_FORMAT,
        "precisions": precisions,
        "key_fingerprint": _key_fingerprint(key),
        "drops": {d.id: [d.lat, d.lon] for d in drops},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"indexed {len(drops)} drops at precisions {precisions} -> {args.out}")
    return EXIT_OK


def _demo_search(args: argparse.Namespace, lat: float, lon: float):
    """The demo server and client from the index file, and one searched session."""
    key = _search_key(args)
    drops, precisions = _load_index_file(args.index, key)
    env = seeded_env(
        args.seed, drops, search_key=key, precisions=precisions,
        ttl_s=args.ttl_seconds, pv=args.pv, epoch=args.epoch,
    )
    server, client = protocol_pair(env, args.mode)
    ses = client.open_session(server, args.now)
    client.search(server, ses, lat, lon, args.radius, args.now)
    return server, client, ses


def _cmd_search(args: argparse.Namespace) -> int:
    server, _, ses = _demo_search(args, args.lat, args.lon)
    stamps = {"radius_m": ses.radius_m, "pv": ses.pv, "epoch": ses.epoch}
    out = {
        "session": {"S": ses.S, "N": ses.N.hex(), "t_exp": ses.t_exp},
        "mode": server.mode,
        "candidates": [{**asdict(d), **stamps} for d in ses.candidates],
        "receipt_hex": ses.receipt.serialize().hex() if ses.receipt else None,
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_unlock(args: argparse.Namespace) -> int:
    query_lat = args.qlat if args.qlat is not None else args.lat
    query_lon = args.qlon if args.qlon is not None else args.lon
    server, client, ses = _demo_search(args, query_lat, query_lon)
    if args.drop not in ses.result_ids():
        print(
            json.dumps(
                {
                    "accepted": False,
                    "fail_reason": "drop-not-returned-by-search",
                    "candidates": ses.result_ids(),
                }
            )
        )
        return EXIT_REJECTED
    try:
        request = client.build_unlock(ses, args.drop, nizk.Witness(args.lat, args.lon))
    except nizk.StatementFalseError:
        print(json.dumps({"accepted": False, "fail_reason": "statement-false-out-of-radius"}))
        return EXIT_REJECTED
    outcome = server.verify(request, args.now + 1)
    result = {
        "accepted": outcome.accepted,
        "fail_reason": outcome.fail_reason,
        "drop": args.drop,
        "server_pubkey_hex": server.public_key_bytes.hex(),
        "nizk_vk_hex": server.nizk_vk.hex(),
    }
    if args.emit_record:
        from .protocol import emit_audit_record

        record = emit_audit_record(ses, request)
        Path(args.emit_record).write_bytes(record.serialize())
        result["record_file"] = args.emit_record
    print(json.dumps(result, indent=1))
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


def _cmd_audit(args: argparse.Namespace) -> int:
    try:
        raw = Path(args.record_file).read_bytes()
        record = AuditRecord.parse(raw)
    except (OSError, AuditRecordError) as exc:
        print(f"error: cannot read audit record: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pub_key = bytes.fromhex(args.server_pubkey_hex)
    if args.nizk_vk_hex:
        vk = bytes.fromhex(args.nizk_vk_hex)
    else:
        vk = seeded_env(args.seed).verifying_key
    outcome = audit(pub_key, vk, record)
    print(json.dumps({"accepted": outcome.accepted, "fail_reason": outcome.fail_reason}))
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


def _write_matrix_csv(matrix, outdir: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / "attack_matrix.csv"
    with target.open("w", newline="") as fh:
        csv.writer(fh).writerows(matrix.csv_rows())
    return target


def _cmd_attack_matrix(args: argparse.Namespace) -> int:
    matrix = run_attack_matrix(
        trials=args.trials, seed=args.seed, token_includes_root=not args.impoverished_token
    )
    print(matrix.render())
    if args.out_dir:
        print(f"csv: {_write_matrix_csv(matrix, args.out_dir)}")
    # An impoverished token opens A4b on V8 by design, so only the full
    # ladder is held to the expected matrix.
    if args.impoverished_token or matrix.matches_expected():
        return EXIT_OK
    return EXIT_USAGE


def _emit_report(report, out_dir: str | None) -> None:
    print(report.render())
    if out_dir:
        print(f"csv: {report.write_csv(out_dir)}")


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.which == "merkle":
        sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
        result = merkle_bench(sizes) if sizes else merkle_bench()
    else:
        result = protocol_latency_bench(
            n_drops=args.n_drops, iters=args.iters, seed=args.seed
        )
    _emit_report(result.to_report(), args.out_dir)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    which = args.which
    if which == "reassoc":
        result = reassociation_experiment(
            n_sessions=args.sessions,
            epoch_every=args.epoch_every,
            n_drops=args.drops_per_cell,
            seed=args.seed,
        )
    elif which == "audit-replay":
        result = audit_replay_experiment(n=args.n, seed=args.seed)
    elif which == "atomicity":
        result = atomicity_and_isolation_suite(seed=args.seed, trials=args.trials)
    elif which == "malicious-server":
        result = malicious_server_suite(seed=args.seed, trials=args.trials)
    else:  # search-quality
        result = search_quality_experiment(
            n_drops=args.n_drops, n_queries=args.n_queries, seed=args.seed
        )
    _emit_report(result.to_report(), args.out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_demo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key-hex", help="32-byte search key (hex); default derived from seed")
    p.add_argument("--ttl-seconds", type=int, default=DEFAULT_TTL_S)
    p.add_argument("--mode", choices=[MODE_CORE, MODE_FULL], default=MODE_FULL)
    p.add_argument("--pv", default=DEFAULT_PV, help="policy version label")
    p.add_argument("--epoch", default=DEFAULT_EPOCH, help="epoch label")
    p.add_argument("--now", type=int, default=1_700_000_000, help="wall-clock seconds for the demo")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sbpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic drop corpus")
    p.add_argument("--kind", choices=["uniform", "clustered"], default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bbox", default="35.6,139.6,35.8,139.9", help="lat_min,lon_min,lat_max,lon_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_corpus)

    p = sub.add_parser("index", help="build an encrypted-tag index file from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--key-hex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precisions", default="5", help="comma-separated geohash precisions")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("search", help="demo: open a session and search (steps 1-6)")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--radius", type=float, default=1000.0)
    p.add_argument("--index", required=True)
    _add_demo_flags(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("unlock", help="demo: full flow ending in proof verification")
    p.add_argument("--drop", required=True, help="drop id to unlock")
    p.add_argument("--lat", type=float, required=True, help="prover latitude")
    p.add_argument("--lon", type=float, required=True, help="prover longitude")
    p.add_argument("--qlat", type=float, help="query latitude (default: prover position)")
    p.add_argument("--qlon", type=float, help="query longitude")
    p.add_argument("--radius", type=float, default=1000.0)
    p.add_argument("--index", required=True)
    p.add_argument("--emit-record", help="write the offline audit record to this file")
    _add_demo_flags(p)
    p.set_defaults(fn=_cmd_unlock)

    p = sub.add_parser("audit", help="replay an audit record offline")
    p.add_argument("--record-file", required=True)
    p.add_argument("--server-pubkey-hex", required=True)
    p.add_argument("--nizk-vk-hex", help="verifying key; default derived from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("attack-matrix", help="run every attack against every variant")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--impoverished-token",
        action="store_true",
        help="strip the result-set root from the V8 token",
    )
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_attack_matrix)

    p = sub.add_parser("bench", help="performance benchmarks")
    p.add_argument("which", choices=["merkle", "latency"])
    p.add_argument("--sizes", help="merkle: comma-separated tree sizes")
    p.add_argument("--n-drops", type=int, default=1000)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("experiment", help="evaluation experiments")
    p.add_argument(
        "which",
        choices=["reassoc", "audit-replay", "atomicity", "malicious-server", "search-quality"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=int, default=1000)
    p.add_argument("--epoch-every", type=int, default=25)
    p.add_argument("--drops-per-cell", type=int, default=20)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-drops", type=int, default=1000)
    p.add_argument("--n-queries", type=int, default=200)
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
