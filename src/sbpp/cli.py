"""Command-line entry point.

Single-process demo flows (client and server in one invocation) plus the
experiment/benchmark harness.  Exit codes: 0 success, 1 usage or input
error (and, for attack-matrix, a matrix that differs from the expected
one), 2 cryptographic rejection (failed unlock verification or audit).

Every command but attack-matrix, bench and experiment is a plain client of
the protocol: it loads no module of the ladder (sbpp.variants) or of
sbpp.harness, which those three import inside their handlers.

All randomness flows through --seed; the search key may be supplied as
--key-hex, and the server signing / proof-system keys are derived from the
seed (sbpp.protocol.seeded_env) so independent invocations agree on them.
A key flag (--key-hex, and `audit`'s --server-pubkey-hex and --nizk-vk-hex)
that does not decode to 32 bytes is a usage error naming the flag, checked
before any work: `audit` answers a verdict only under keys of the right size.
So is a coordinate flag (--lat, --lon, --qlat, --qlon) off the globe, by
the package's one point rule (`canon.off_globe`: NaN and ±inf are off it),
named and refused before any session opens or any record is written: an
unlock's prover position is a point on the globe or no unlock at all.
The index file fixes the geohash precisions that search and unlock use; a
radius that none of them covers in geoindex.COVER_BUDGET cells is a usage error.
Its numbers must be JSON numbers: a coordinate an int or a float, a precision
an int.  A bool, a numeric string or a fractional precision is a usage error
naming the drop or the precision list, never coerced.  The file is read in
one pass, in file order, that checks each drop once: a point that is not two
JSON numbers on the globe is a usage error naming the drop.  Each other rule
has one door: a repeated key is `_unique_keys`'s, and the drop-id rule and
the id order are geoindex.build_index's, which every server runs, so this
module neither checks the ids again nor sorts the drops.

The `bench` and `experiment` studies are one table, STUDIES: each names its
runner in sbpp.harness.experiments, which `_cmd_study` looks up there by
name when the study runs, and holds every flag's default, so building the
parser loads no runner.  A runner returns the ExperimentReport the study
prints (and writes as CSV with --out-dir).

`sbpp --help` shows a one-sentence description; this docstring is for the
module's maintainers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

from . import nizk
from .canon import off_globe
from .geoindex import (
    Drop,
    GeoIndex,
    gen_clustered_corpus,
    gen_uniform_corpus,
    load_corpus,
    save_corpus,
)
from .protocol import (
    AuditRecord, AuditRecordError, ProtocolError, audit, derive_key, emit_audit_record, protocol_pair,
    seeded_env,
)
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

    def parse_known_args(self, args=None, namespace=None):
        """Refuse an argument this parser does not know here, so the usage
        line printed is this (sub)command's own, not the root's."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _count(text: str) -> int:
    """The type of every count flag: a positive int, or a usage error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _counts(text: str) -> tuple[int, ...]:
    """A comma-separated list of counts."""
    return tuple(map(_count, text.split(",")))


def _key_fingerprint(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()[:16]


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox needs four comma-separated numbers")
    lat_min, lon_min, lat_max, lon_max = parts
    if off_globe(*parts[:2]) or off_globe(*parts[2:]) or not (lat_min < lat_max and lon_min < lon_max):
        raise ValueError(
            "bbox must be lat_min,lon_min,lat_max,lon_max with -90 <= lat_min < lat_max <= 90"
            " and -180 <= lon_min < lon_max <= 180"
        )
    return (lat_min, lat_max, lon_min, lon_max)


def _hex_key(text: str, flag: str) -> bytes:
    """The 32 bytes a key flag's hex names; anything else is a usage error
    naming the flag (an empty key is refused, not defaulted)."""
    try:
        key = bytes.fromhex(text)
    except ValueError:
        key = b""
    if len(key) != 32:
        raise ValueError(f"{flag} must decode to 32 bytes")
    return key


def _point(lat: float, lon: float, lat_flag: str, lon_flag: str) -> tuple[float, float]:
    """(lat, lon) as two coordinate flags give it; ValueError naming the
    flag whose value `canon.off_globe` puts off the globe, latitude first."""
    axis = off_globe(lat, lon)
    if axis:
        flag, value = (lat_flag, lat) if axis == "latitude" else (lon_flag, lon)
        raise ValueError(f"{flag} {value!r}: {axis} out of range")
    return lat, lon


def _search_key(args: argparse.Namespace) -> bytes:
    if getattr(args, "key_hex", None) is not None:
        return _hex_key(args.key_hex, "--key-hex")
    return derive_key("search", args.seed)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ValueError naming a key it repeats (of several,
    the first to appear), where `json.load` would keep the last value
    without a word."""
    blob = dict(pairs)
    if len(blob) < len(pairs):
        twice = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"index file names {twice!r} twice")
    return blob


def _load_index_file(path: str, key: bytes) -> tuple[list[Drop], tuple[int, ...]]:
    """The drops, in file order, and the precisions an index file declares,
    read in one pass; ValueError on a repeated key (a drop id named twice,
    `_unique_keys`), on any other shape, on a coordinate or precision that is
    not a JSON number of its kind, or on a point off the globe, naming the
    drop.  The drop-id rule is the index build's (`build_index`, which every
    server runs), and so is the id order: the build sorts the drops once."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(blob, dict) or blob.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file")
    try:
        if blob["key_fingerprint"] != _key_fingerprint(key):
            raise ValueError("search key does not match the key this index was built with")
        drops = []
        for i, point in blob["drops"].items():
            lat, lon = point if type(point) is list and len(point) == 2 else (None, None)
            if type(lat) not in (int, float) or type(lon) not in (int, float):  # nor a bool or a string
                raise ValueError(f"drop {i!r}: coordinates {point!r} must be two JSON numbers")
            if off_globe(lat, lon):
                raise ValueError(f"drop id {i!r} has a coordinate out of range")
            drops.append(Drop(i, float(lat), float(lon)))
        precisions = blob["precisions"]
        if not all(type(p) is int for p in precisions):
            raise ValueError(f"precisions {precisions!r} must be JSON integers")
        return drops, tuple(precisions)
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
    server, _, ses = _demo_search(args, *_point(args.lat, args.lon, "--lat", "--lon"))
    stamps = {"radius_m": ses.radius_m, "pv": ses.pv, "epoch": ses.epoch}
    listed = sorted(ses.candidates, key=attrgetter("id"))  # listed cell by cell
    out = {
        "session": {"S": ses.S, "N": ses.N.hex(), "t_exp": ses.t_exp},
        "mode": server.mode,
        "candidates": [{**asdict(d), **stamps} for d in listed],
        "receipt_hex": ses.receipt.serialize().hex() if ses.receipt else None,
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_unlock(args: argparse.Namespace) -> int:
    lat, lon = _point(args.lat, args.lon, "--lat", "--lon")
    qlat = lat if args.qlat is None else args.qlat
    qlon = lon if args.qlon is None else args.qlon
    server, client, ses = _demo_search(args, *_point(qlat, qlon, "--qlat", "--qlon"))
    try:
        ses.candidate(args.drop)
    except ProtocolError:  # only a refusal lists the ids, sorted
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
        request = client.build_unlock(ses, args.drop, nizk.Witness(lat, lon))
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
        record = emit_audit_record(ses, request)
        Path(args.emit_record).write_bytes(record.serialize())
        result["record_file"] = args.emit_record
    print(json.dumps(result, indent=1))
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


def _cmd_audit(args: argparse.Namespace) -> int:
    # both keys are checked before any audit: a bad key is a usage error, not a verdict
    pub_key = _hex_key(args.server_pubkey_hex, "--server-pubkey-hex")
    if args.nizk_vk_hex is not None:
        vk = _hex_key(args.nizk_vk_hex, "--nizk-vk-hex")
    else:
        vk = seeded_env(args.seed, []).verifying_key
    try:
        raw = Path(args.record_file).read_bytes()
        record = AuditRecord.parse(raw)
    except (OSError, AuditRecordError) as exc:
        print(f"error: cannot read audit record: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = audit(pub_key, vk, record)
    print(json.dumps({"accepted": outcome.accepted, "fail_reason": outcome.fail_reason}))
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


def _cmd_attack_matrix(args: argparse.Namespace) -> int:
    from .harness.attacks import run_attack_matrix
    from .harness.report import write_csv

    matrix = run_attack_matrix(
        trials=args.trials, seed=args.seed, token_includes_root=not args.impoverished_token
    )
    print(matrix.render())
    if args.out_dir:
        print(f"csv: {write_csv(args.out_dir, 'attack_matrix', matrix.csv_rows())}")
    # An impoverished token opens A4b on V8 by design, so only the full
    # ladder is held to the expected matrix.
    if args.impoverished_token or matrix.matches_expected():
        return EXIT_OK
    return EXIT_USAGE


def _cmd_study(args: argparse.Namespace) -> int:
    from .harness import experiments

    _, studies = STUDIES[args.command]
    _, runner, flags = studies[args.study]
    kwargs = {kw: getattr(args, kw) for kw, _, _, _ in flags.values()}
    report = getattr(experiments, runner)(seed=args.seed, **kwargs)
    print(report.render())
    if args.out_dir:
        print(f"csv: {report.write_csv(args.out_dir)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_demo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key-hex", help="32-byte search key (hex); default derived from seed")
    p.add_argument("--ttl-seconds", type=_count, default=DEFAULT_TTL_S)
    p.add_argument("--mode", choices=[MODE_CORE, MODE_FULL], default=MODE_FULL)
    p.add_argument("--pv", default=DEFAULT_PV, help="policy version label")
    p.add_argument("--epoch", default=DEFAULT_EPOCH, help="epoch label")
    p.add_argument("--now", type=int, default=1_700_000_000, help="wall-clock seconds for the demo")


# command -> (help, study -> (help, runner, {flag: (runner keyword, type, default, help)})).
# The runner is a name in sbpp.harness.experiments, looked up there when the
# study runs and called with seed= and every flag's keyword.
STUDIES = {
    "bench": ("performance benchmarks", {
        "merkle": ("commitment scaling, path lengths, compact state size", "merkle_bench",
                   {"--sizes": ("sizes", _counts, (100, 1000, 5000, 10000, 20000, 50000),
                                "comma-separated result-set sizes to commit to")}),
        "latency": ("plaintext vs encrypted vs protocol path", "protocol_latency_bench",
                    {"--n-drops": ("n_drops", _count, 1000, "drops in the corpus"),
                     "--iters": ("iters", _count, 1000, "timed queries per path")}),
    }),
    "experiment": ("evaluation experiments", {
        "reassoc": ("cross-session re-association rates", "reassociation_experiment",
                    {"--sessions": ("n_sessions", _count, 1000, "sessions, one unlock each"),
                     "--epoch-every": ("epoch_every", _count, 25, "sessions per epoch"),
                     "--drops-per-cell": ("n_drops", _count, 20, "co-located drops")}),
        "audit-replay": ("offline audit after state purge + fault localization",
                         "audit_replay_experiment",
                         {"--n": ("n", _count, 100, "audit records per row")}),
        "atomicity": ("double-submit races, lifecycle conservation, isolation",
                      "atomicity_and_isolation_suite",
                      {"--trials": ("trials", _count, 100, "trials per check")}),
        "malicious-server": ("omission, bias, predictable nonces, forgery, cell-root checks",
                             "malicious_server_suite",
                             {"--trials": ("trials", _count, 100, "trials per attack")}),
        "search-quality": ("recall, result size, token leakage per corpus, precisions and radius",
                           "search_quality_experiment",
                           {"--n-drops": ("n_drops", _count, 1000, "drops per corpus"),
                            "--n-queries": ("n_queries", _count, 200, "queries per row")}),
    }),
}


def _default_text(default: object) -> str:
    """A flag's default as its help shows it, a list of counts comma-separated."""
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sbpp",
        description="Search-bound proximity proofs: search, unlock and audit demos, the attack"
        " matrix, and the benchmark and experiment studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic drop corpus")
    p.add_argument("--kind", choices=["uniform", "clustered"], default="uniform")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--bbox", default="35.6,139.6,35.8,139.9", help="lat_min,lon_min,lat_max,lon_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_corpus)

    p = sub.add_parser(
        "index", help="write an index file: the drops in plaintext, precisions, key fingerprint"
    )
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
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--impoverished-token",
        action="store_true",
        help="strip the result-set root from the V8 token",
    )
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_attack_matrix)

    for command, (command_help, studies) in STUDIES.items():
        study_parsers = sub.add_parser(command, help=command_help).add_subparsers(
            dest="study", required=True
        )
        for study, (study_help, _, flags) in studies.items():
            # no abbreviations, or audit-replay's --n would pass as latency's --n-drops
            p = study_parsers.add_parser(study, help=study_help, allow_abbrev=False)
            p.add_argument("--seed", type=int, default=0, help="seed of every input (default: 0)")
            p.add_argument("--out-dir", help="also write the report as CSV into this directory")
            for flag, (keyword, type_, default, flag_help) in flags.items():
                p.add_argument(
                    flag, dest=keyword, type=type_, default=default,
                    help=f"{flag_help} (default: {_default_text(default)})",
                )
            p.set_defaults(fn=_cmd_study)

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
