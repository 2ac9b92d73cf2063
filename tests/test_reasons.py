"""Frozen rejection reasons: one mutation per verify and audit stage.

Every rung of the ladder and the protocol server in both modes sees the
same honest flow, then one field of the request (or of the audit record)
is broken at a time.  Each cell pins the reason the first failing stage
reports, "accept", or "n/a" when the subject has no such field to break.
The table is the fault-isolation contract: a refactor of the stage code
must leave every cell as it is.
"""

import dataclasses
import random

import pytest

from sbpp import nizk
from sbpp.canon import Q, FieldElement, digest
from sbpp.geoindex import Drop
from sbpp.merkle import build_tree
from sbpp.protocol import SbppClient, SbppServer, audit, emit_audit_record
from sbpp.receipt import server_keygen
from sbpp.session import MODE_CORE, MODE_FULL
from sbpp.variants import VARIANT_KINDS, VariantEnv, make_variant

T0 = 1_700_000_000
TTL = 300
QLAT, QLON = 35.70, 139.75
RADIUS = 1000.0
DROPS = [
    Drop("d00", 35.7000, 139.7500),
    Drop("d01", 35.7004, 139.7500),
    Drop("d02", 35.7008, 139.7504),
    Drop("far", 35.7900, 139.8900),
]
TARGET, SIBLING, OUTSIDE = "d01", "d00", "far"
WITNESS = nizk.Witness(35.7004, 139.7500)
PROVING_KEY, VERIFYING_KEY = nizk.setup(b"reasons-nizk")
SEARCH_KEY = bytes(range(32))
SIGNING_KEY = server_keygen(b"reasons-sign")


class Ladder:
    """One rung behind the calls the table needs."""

    def __init__(self, kind: str, token_includes_root: bool = True):
        env = VariantEnv(
            drops=list(DROPS),
            search_key=SEARCH_KEY,
            signing_key=SIGNING_KEY,
            proving_key=PROVING_KEY,
            verifying_key=VERIFYING_KEY,
            mac_key=bytes(32),
            ttl_s=TTL,
            nonce_rng=random.Random(3),
        )
        self.variant = make_variant(kind, env, token_includes_root=token_includes_root)

    def open(self):
        return self.variant.open_session(T0)

    def search(self, ses):
        self.variant.search(ses, QLAT, QLON, RADIUS, T0)

    def unlock(self, ses, drop_id):
        return self.variant.build_unlock(ses, drop_id, WITNESS)

    def verify(self, request, now):
        return self.variant.verify(request, now)

    def record(self, ses, request):
        return self.variant.audit_record(ses, request)

    def audit(self, rec):
        return self.variant.audit(rec)


class Server:
    """The protocol server and client in one mode."""

    def __init__(self, mode: str):
        self.server = SbppServer(
            drops=list(DROPS),
            search_key=SEARCH_KEY,
            signing_key=SIGNING_KEY,
            nizk_vk=VERIFYING_KEY,
            mode=mode,
            ttl_s=TTL,
            nonce_rng=random.Random(3),
        )
        self.client = SbppClient(SEARCH_KEY, PROVING_KEY)

    def open(self):
        return self.client.open_session(self.server, T0)

    def search(self, ses):
        self.client.search(self.server, ses, QLAT, QLON, RADIUS, T0)

    def unlock(self, ses, drop_id):
        return self.client.build_unlock(ses, drop_id, WITNESS)

    def verify(self, request, now):
        return self.server.verify(request, now)

    def record(self, ses, request):
        return emit_audit_record(ses, request)

    def audit(self, rec):
        return audit(self.server.public_key_bytes, VERIFYING_KEY, rec)


SUBJECTS = (*VARIANT_KINDS, "V8-lite", "server-core", "server-full")


def _subject(name: str):
    if name == "V8-lite":
        return Ladder("V8", token_includes_root=False)
    if name == "server-core":
        return Server(MODE_CORE)
    if name == "server-full":
        return Server(MODE_FULL)
    return Ladder(name)


def _flip(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 1])


def _shifted_digest(pub: nizk.PublicInputs) -> nizk.PublicInputs:
    cd = FieldElement((pub[7].value + 1) % Q)
    return nizk.PublicInputs(pub.elements[:7] + (cd,))


def _moved_statement(pub: nizk.PublicInputs) -> nizk.PublicInputs:
    lat, lon, radius = nizk.decode_target(pub)
    return nizk.make_public_inputs(lat + 0.01, lon, radius, pub[7])


def _path_of(ses, drop_id: str):
    return build_tree(ses.result_ids()).prove_membership(drop_id)


# ---------------------------------------------------------------------------
# verify side


def _edit(obj, field: str, change):
    """``obj`` with ``field`` changed, or None if it has no such field set."""
    value = getattr(obj, field, None)
    if value is None:
        return None
    return dataclasses.replace(obj, **{field: change(value)})


VERIFY_MUTATIONS = (
    "honest",
    "unknown-session",
    "expired",
    "consumed",
    "unbound-session",
    "wrong-echo",
    "tampered-capability",
    "tampered-permit",
    "tampered-mac",
    "wrong-digest",
    "non-member-drop",
    "missing-path",
    "bad-path",
    "wrong-statement",
    "bad-proof",
)


def verify_cell(name: str, mutation: str) -> str:
    sub = _subject(name)
    ses = sub.open()
    sub.search(ses)
    request = sub.unlock(ses, TARGET)
    now = T0 + 1
    if mutation == "unknown-session":
        request = dataclasses.replace(request, S="ff" * 16)
    elif mutation == "expired":
        now = T0 + TTL
    elif mutation == "consumed":
        assert sub.verify(request, now).accepted
    elif mutation == "unbound-session":
        request = dataclasses.replace(request, S=sub.open().S)
    elif mutation == "wrong-echo":
        request = _edit(request, "nonce_echo", lambda n: bytes(32))
    elif mutation == "tampered-capability":
        request = _edit(request, "capability", _flip)
    elif mutation == "tampered-permit":
        request = _edit(request, "permit", _flip)
    elif mutation == "tampered-mac":
        request = _edit(request, "result_mac", _flip)
    elif mutation == "wrong-digest":
        request = _edit(request, "pub", _shifted_digest)
    elif mutation == "non-member-drop":
        request = dataclasses.replace(request, drop_id=OUTSIDE)
    elif mutation == "missing-path":
        request = _edit(request, "merkle_path", lambda p: None)
    elif mutation == "bad-path":
        request = _edit(request, "merkle_path", lambda p: _path_of(ses, SIBLING))
    elif mutation == "wrong-statement":
        request = _edit(request, "pub", _moved_statement)
    elif mutation == "bad-proof":
        request = _edit(request, "proof", lambda p: dataclasses.replace(p, body=_flip(p.body)))
    if request is None:
        return "n/a"
    outcome = sub.verify(request, now)
    return "accept" if outcome.accepted else outcome.fail_reason


# ---------------------------------------------------------------------------
# audit side


def _field(rec, name: str):
    return getattr(rec, name, None)


AUDIT_MUTATIONS = (
    "honest",
    "receipt-signature",
    "digest",
    "path",
    "proof",
    "token-hash",
    "token-signature",
    "evidence",
)


def audit_cell(name: str, mutation: str) -> str:
    sub = _subject(name)
    ses = sub.open()
    sub.search(ses)
    rec = sub.record(ses, sub.unlock(ses, TARGET))
    if mutation == "receipt-signature":
        receipt = _field(rec, "receipt")
        rec = None if receipt is None else dataclasses.replace(
            rec, receipt=dataclasses.replace(receipt, sig=_flip(receipt.sig))
        )
    elif mutation == "digest":
        pub = _field(rec, "pub")
        rec = None if pub is None else dataclasses.replace(rec, pub=_shifted_digest(pub))
    elif mutation == "path":
        path = _field(rec, "merkle_path")
        # a core record's path is empty or unset: there is no root to break it against
        rec = dataclasses.replace(rec, merkle_path=_path_of(ses, SIBLING)) if path and path.steps else None
    elif mutation == "proof":
        proof = _field(rec, "proof")
        rec = None if proof is None else dataclasses.replace(
            rec, proof=dataclasses.replace(proof, body=_flip(proof.body))
        )
    elif mutation == "token-hash":
        token = _field(rec, "token")
        rec = None if token is None else dataclasses.replace(rec, token=_flip(token))
    elif mutation == "token-signature":
        # a token the prover honestly committed to, which the server never signed
        token = _field(rec, "token")
        if token is not None:
            fake = _flip(token)
            pub = nizk.make_public_inputs(*nizk.decode_target(_field(rec, "pub")), digest([fake]))
            rec = dataclasses.replace(rec, token=fake, pub=pub, proof=nizk.prove(PROVING_KEY, WITNESS, pub))
        else:
            rec = None
    elif mutation == "evidence":
        for name_ in ("capability", "permit", "result_mac"):
            value = _field(rec, name_)
            if value is not None:
                rec = dataclasses.replace(rec, **{name_: _flip(value)})
                break
        else:
            rec = None
    if rec is None:
        return "n/a"
    outcome = sub.audit(rec)
    return "accept" if outcome.accepted else outcome.fail_reason


# ---------------------------------------------------------------------------
# the frozen table

ABBREVIATIONS = {
    "ok": "accept",
    "-": "n/a",
    "sess": "session-invalid",
    "exp": "expired",
    "cons": "consumed",
    "dig": "nonce-digest-mismatch",
    "set": "not-in-result-set",
    "mrk": "merkle-invalid",
    "prf": "proof-invalid",
    "rcpt": "receipt-sig-invalid",
    "echo": "nonce-echo-mismatch",
    "evid": "evidence-invalid",
    "thash": "token-hash-mismatch",
    "tsig": "token-sig-invalid",
}

# Columns in VERIFY_MUTATIONS order.
EXPECTED_VERIFY = {
    "V1":           "ok    ok    ok    ok    ok    -     -     -     -     dig   dig   -     -     prf   prf",
    "V2":           "ok    ok    ok    ok    ok    -     -     -     -     dig   dig   -     -     prf   prf",
    "V3":           "ok    sess  exp   cons  echo  echo  -     -     -     dig   dig   -     -     prf   prf",
    "V4a":          "ok    sess  exp   cons  sess  -     -     -     -     dig   dig   -     -     prf   prf",
    "V4b":          "ok    sess  exp   cons  sess  -     -     -     -     dig   dig   mrk   mrk   prf   prf",
    "V5":           "ok    sess  exp   cons  evid  -     evid  -     -     dig   evid  -     -     prf   prf",
    "V6":           "ok    sess  exp   cons  evid  -     -     evid  -     -     evid  -     -     -     -",
    "V7":           "ok    sess  exp   cons  evid  -     -     -     evid  dig   set   -     -     prf   prf",
    "V8":           "ok    sess  exp   cons  sess  -     -     -     -     thash mrk   mrk   mrk   prf   prf",
    "V8-lite":      "ok    sess  exp   cons  sess  -     -     -     -     thash set   -     -     prf   prf",
    "server-core":  "ok    sess  exp   cons  sess  -     -     -     -     dig   dig   -     -     prf   prf",
    "server-full":  "ok    sess  exp   cons  sess  -     -     -     -     dig   dig   mrk   mrk   prf   prf",
}

# Columns in AUDIT_MUTATIONS order.  Core receipts carry a zero root, so
# a core record stops at membership even when it is honest.
EXPECTED_AUDIT = {
    "V1":           "ok    -     dig   -     prf   -     -     -",
    "V2":           "ok    -     dig   -     prf   -     -     -",
    "V3":           "ok    -     dig   -     prf   -     -     -",
    "V4a":          "mrk   rcpt  dig   -     mrk   -     -     -",
    "V4b":          "ok    rcpt  dig   mrk   prf   -     -     -",
    "V5":           "ok    -     dig   -     prf   -     -     evid",
    "V6":           "ok    -     -     -     -     -     -     evid",
    "V7":           "ok    -     dig   -     prf   -     -     evid",
    "V8":           "ok    -     thash mrk   prf   thash tsig  -",
    "V8-lite":      "ok    -     thash -     prf   thash tsig  -",
    "server-core":  "mrk   rcpt  dig   -     mrk   -     -     -",
    "server-full":  "ok    rcpt  dig   mrk   prf   -     -     -",
}


def _expected(table: dict[str, str], name: str, columns: tuple[str, ...], mutation: str) -> str:
    cells = table[name].split()
    assert len(cells) == len(columns)
    return ABBREVIATIONS[cells[columns.index(mutation)]]


@pytest.mark.parametrize("mutation", VERIFY_MUTATIONS)
@pytest.mark.parametrize("name", SUBJECTS)
def test_verify_reason(name, mutation):
    expected = _expected(EXPECTED_VERIFY, name, VERIFY_MUTATIONS, mutation)
    assert verify_cell(name, mutation) == expected


@pytest.mark.parametrize("mutation", AUDIT_MUTATIONS)
@pytest.mark.parametrize("name", SUBJECTS)
def test_audit_reason(name, mutation):
    expected = _expected(EXPECTED_AUDIT, name, AUDIT_MUTATIONS, mutation)
    assert audit_cell(name, mutation) == expected
