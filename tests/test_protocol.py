"""End-to-end protocol flow and the verifier's rejection pipeline."""

import dataclasses
import math
import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbpp import merkle, nizk, session
from sbpp.canon import FieldElement, Q, cd_core, cd_full, encodable, lp_decode, lp_encode
from sbpp.geoindex import (
    COVER_BUDGET, PAD_LABEL, Drop, GeoindexError, client_tokens, drops_of, gen_uniform_corpus, geohash_encode,
    hmac_tagger,
)
from sbpp.merkle import EMPTY_PATH, Cell, MerklePath, PathStep, build_tree
from sbpp.protocol import (
    R_CONSUMED,
    R_EXPIRED,
    R_MERKLE_INVALID,
    R_NONCE_DIGEST,
    R_NOT_IN_RESULT_SET,
    R_PROOF_INVALID,
    R_RECEIPT_SIG,
    R_SESSION_INVALID,
    Attempt,
    AuditRecord,
    AuditRecordError,
    ClientSession,
    ProtocolError,
    SbppClient,
    SbppServer,
    VariantEnv,
    VerifyOutcome,
    audit,
    check_statement,
    emit_audit_record,
    protocol_pair,
    run_stages,
    seeded_env,
)
from sbpp.harness.attacks import QUERY_LAT, QUERY_LON, RADIUS_M, WITNESS_NEAR_QUERY, attack_corpus
from sbpp.receipt import server_keygen
from sbpp.session import MODE_CORE, MODE_FULL
from sbpp.variants import (
    R_EVIDENCE_INVALID, R_TOKEN_HASH, VARIANT_KINDS, VariantRequest, make_variant,
)

T0 = 1_700_000_000
KEY = b"\x11" * 32
QLAT, QLON = 35.70, 139.75
RADIUS = 1000.0

DROPS = [
    Drop("d00", 35.7000, 139.7500),
    Drop("d01", 35.7004, 139.7500),
    Drop("d02", 35.7008, 139.7504),
    Drop("d03", 35.7012, 139.7508),
    Drop("far", 35.7900, 139.8900),
]
# Two more drops just west of cell xn77h, in xn775: the query hits two cells.
TWO_CELLS = DROPS + [Drop("w00", 35.7000, 139.7440), Drop("w01", 35.7004, 139.7450)]


def _pair(mode: str, seed: int = 0, drops: list[Drop] = DROPS) -> tuple[SbppServer, SbppClient]:
    pk, vk = nizk.setup(b"nizk" + bytes([seed]))
    server = SbppServer(
        drops=drops,
        search_key=b"\x11" * 32,
        signing_key=server_keygen(b"sign" + bytes([seed])),
        nizk_vk=vk,
        mode=mode,
        ttl_s=300,
        nonce_rng=random.Random(seed),
    )
    return server, SbppClient(b"\x11" * 32, pk)


def _searched(server: SbppServer, client: SbppClient, now: int = T0):
    ses = client.open_session(server, now)
    client.search(server, ses, QLAT, QLON, RADIUS, now)
    return ses


def test_candidate_finds_each_listed_drop_and_refuses_others():
    ses = _searched(*_pair(MODE_FULL))
    assert [ses.candidate(d.id) for d in ses.candidates] == list(ses.candidates)
    for missing in ("", "a", "d005", "d03\x00", "zz"):  # before, between and after the listed ids
        with pytest.raises(ProtocolError):
            ses.candidate(missing)
    ses.cells = ()  # a drop is found through its cell
    with pytest.raises(ProtocolError):
        ses.candidate("d00")


def test_candidate_is_the_drop_its_cell_lists_at_that_id():
    ses = _searched(*_pair(MODE_CORE))
    (cell,) = ses.cells
    assert [d.id for d in cell.drops] == ["d00", "d01", "d02", "d03"]
    for listed in (cell.drops[::-1], ()):  # drops out of step with the ids, or none
        ses.cells = (Cell(cell.ids, None, listed),)
        with pytest.raises(ProtocolError):
            ses.candidate("d00")


def test_full_search_commits_to_the_cells_it_lists():
    server, client = _pair(MODE_FULL, drops=TWO_CELLS)
    ses = _searched(server, client)
    assert sorted(list(c.ids) for c in ses.cells) == [["d00", "d01", "d02", "d03"], ["w00", "w01"]]
    assert ses.receipt.root == build_tree(ses.cells).root
    for d in ses.candidates:
        request = client.build_unlock(ses, d.id, nizk.Witness(d.lat, d.lon))
        assert merkle.verify_membership(ses.receipt.root, d.id, request.merkle_path)
    assert server.verify(request, T0 + 1).accepted
    record = AuditRecord.parse(emit_audit_record(ses, request).serialize())
    assert audit(server.public_key_bytes, server.nizk_vk, record).accepted


def test_commitment_runs_while_the_store_lock_is_free(monkeypatch):
    server, client = _pair(MODE_FULL, drops=TWO_CELLS)
    calls = []

    def stub(cells):
        assert not server.sessions._lock.locked()
        calls.append(len(cells))
        return merkle.build_tree(cells)

    monkeypatch.setattr(session, "build_tree", stub)
    ses = _searched(server, client)
    assert calls == [2] and ses.receipt.root == merkle.build_tree(ses.cells).root


def test_core_search_computes_no_cell_root(monkeypatch):
    def no_tree(ids):
        raise AssertionError("core mode built a cell tree")

    monkeypatch.setattr(merkle, "MerkleTree", no_tree)
    server, client = _pair(MODE_CORE, drops=TWO_CELLS)
    ses = _searched(server, client)
    assert len(ses.candidates) == 6 and len(ses.cells) == 2
    assert client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON)).merkle_path is None


def _flip(raw: bytes) -> bytes:
    return bytes([raw[0] ^ 1]) + raw[1:]


TAMPERS = ["receipt-root", "no-receipt", "other-cell-root", "own-cell-ids", "target-unlisted"]


def _own_cell(cells: list[Cell]) -> int:
    return next(i for i, c in enumerate(cells) if "d00" in c.ids)


def _tamper(ses: ClientSession, tamper: str) -> None:
    """Apply one of TAMPERS to a searched session whose result lists d00."""
    cells = list(ses.cells)
    own = _own_cell(cells)
    root, drops = cells[own].root, cells[own].drops
    if tamper == "receipt-root":
        ses.receipt = dataclasses.replace(ses.receipt, root=_flip(ses.receipt.root))
    elif tamper == "no-receipt":
        ses.receipt = None
    elif tamper == "other-cell-root":
        cells[1 - own] = Cell(cells[1 - own].ids, _flip(cells[1 - own].root))
    else:  # own-cell-ids drops d01, target-unlisted d00
        kept = [d for d in drops if d.id != ("d01" if tamper == "own-cell-ids" else "d00")]
        cells[own] = Cell([d.id for d in kept], root, kept)
    ses.cells = tuple(cells)


def _v4b_searched(drops: list[Drop]):
    """The ladder's V4b rung over the keys of ``_pair``, searched at the query."""
    pk, vk = nizk.setup(b"nizk\x00")
    env = VariantEnv(
        drops=drops, search_key=b"\x11" * 32, signing_key=server_keygen(b"sign\x00"),
        proving_key=pk, verifying_key=vk, mac_key=bytes(32), nonce_rng=random.Random(0),
    )
    variant = make_variant("V4b", env)
    ses = variant.open_session(T0)
    return variant, variant.search(ses, QLAT, QLON, RADIUS, T0)


@pytest.mark.parametrize(
    "tamper, subject",
    [pytest.param(t, "client", id=t) for t in TAMPERS]
    + [pytest.param(t, "V4b", id=f"V4b-{t}") for t in TAMPERS],
)
def test_client_refuses_a_root_that_differs_from_the_receipt(tamper, subject):
    if subject == "client":
        server, client = _pair(MODE_FULL, drops=TWO_CELLS)
        ses = _searched(server, client)
    else:  # the ladder's full-protocol rung runs the same client check
        client, ses = _v4b_searched(TWO_CELLS)
    _tamper(ses, tamper)
    with pytest.raises(ProtocolError):
        client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))


@pytest.mark.parametrize("root", [b"\x01" * 31, b"\x01" * 33, b""], ids=["31", "33", "empty"])
def test_client_turns_a_commitment_it_cannot_build_into_a_protocol_error(root):
    # Another shown cell's root is no 32-byte hash, so no top tree exists:
    # the client refuses with its own error, naming the drop, not merkle's.
    server, client = _pair(MODE_FULL, drops=TWO_CELLS)
    ses = _searched(server, client)
    cells = list(ses.cells)
    other = 1 - _own_cell(cells)
    cells[other] = Cell(cells[other].ids, root)
    ses.cells = tuple(cells)
    with pytest.raises(ProtocolError, match="do not commit to 'd00'") as raised:
        client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert isinstance(raised.value.__cause__, merkle.MerkleError)


def _warm_pair() -> tuple[SbppServer, SbppClient]:
    """A two-cell pair whose client has already unlocked d00 honestly, so
    its memo keeps the tree of d00's cell."""
    server, client = _pair(MODE_FULL, drops=TWO_CELLS)
    request = client.build_unlock(_searched(server, client), "d00", nizk.Witness(QLAT, QLON))
    assert server.verify(request, T0 + 1).accepted and client.trees.misses == 1
    return server, client


@pytest.mark.parametrize("tamper", TAMPERS)
def test_client_with_a_warm_memo_refuses_a_root_that_differs_from_the_receipt(tamper):
    server, client = _warm_pair()
    ses = _searched(server, client)
    _tamper(ses, tamper)
    with pytest.raises(ProtocolError):
        client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    # the honest own cell comes from the memo; altered ids never match it
    assert client.trees.hits == (tamper in ("receipt-root", "no-receipt", "other-cell-root"))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("receipt", ["honest", "follows-misstated-root"])
def test_client_ignores_a_misstated_root_of_its_own_cell(warm, receipt):
    # Honest own-cell ids under a wrong root: the client rebuilds that root
    # (or takes its tree from the memo) and accepts exactly when the
    # receipt's root is the rebuilt one.
    server, client = _warm_pair() if warm else _pair(MODE_FULL, drops=TWO_CELLS)
    ses = _searched(server, client)
    cells = list(ses.cells)
    own = _own_cell(cells)
    cells[own] = Cell(cells[own].ids, _flip(cells[own].root), cells[own].drops)
    ses.cells = tuple(cells)
    if receipt == "honest":
        request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
        assert server.verify(request, T0 + 1).accepted
    else:
        ses.receipt = dataclasses.replace(ses.receipt, root=build_tree(cells).root)
        with pytest.raises(ProtocolError):
            client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert client.trees.hits == warm


def test_a_fresh_client_first_unlock_misses_after_the_server_computed_every_root():
    # Server and client share Cell objects in-process: the roots the server
    # keeps on them must not fill any client's memo.
    server, client = _pair(MODE_FULL, drops=TWO_CELLS)
    assert all(len(cell.root) == 32 for cell in server.index.entries.values())
    for fresh in (client, SbppClient(client.search_key, client.proving_key)):
        ses = _searched(server, fresh)
        assert fresh.trees.kept == 0
        fresh.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
        own = ses.cells[_own_cell(ses.cells)].ids
        assert (fresh.trees.hits, fresh.trees.misses) == (0, 1)
        assert fresh.trees.kept == merkle.kept_bytes(own) and len(own) == 4


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_end_to_end_accept(mode):
    server, client = _pair(mode)
    ses = _searched(server, client)
    assert ses.result_ids() == ["d00", "d01", "d02", "d03"]
    assert ses.receipt is not None
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.7500))
    outcome = server.verify(request, T0 + 1)
    assert outcome.accepted and outcome.fail_reason is None


# Ids whose code point, UTF-16 and UTF-8 orders could disagree, that the
# drop-id rule accepts: no lone surrogate, TAB, LF or CR, and no '#' (a
# character strategy cannot bar only a leading one).
_ID_CHARS = st.one_of(
    st.sampled_from(["d", "\x7f", "\x80", "\u07ff", "\u0800", "\ue000", "\uffff", "\U00010000"]),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r#"),
)
_NEAR = st.tuples(st.floats(35.69, 35.71), st.floats(139.74, 139.76))  # drops sharing cells
_TAGS = ("one-precision", "mixed-precisions", "with-pads", "with-unknown")


@st.composite
def _hit_index(draw):
    """(drops, precisions, tags): drops around the query, an index of one to
    four precisions, and a tag list of one of the _TAGS kinds, padded to
    COVER_BUDGET with tags the index does not hold, as `client_tokens` pads
    with dummies, and shuffled.  A tag drawn twice stays repeated."""
    points = draw(st.lists(_NEAR, min_size=1, max_size=30))
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=3), min_size=len(points),
                        max_size=len(points), unique=True))
    drops = [Drop(i, lat, lon) for i, (lat, lon) in zip(ids, points)]
    precisions = sorted(draw(st.sets(st.integers(4, 8), min_size=1, max_size=4)))
    kind = draw(st.sampled_from(_TAGS))
    chosen = precisions if kind == "mixed-precisions" else [draw(st.sampled_from(precisions))]
    tags = []
    for lat, lon in draw(st.lists(st.sampled_from(points), min_size=1, max_size=6)):
        p = draw(st.sampled_from(chosen))
        tags.append(hmac_tagger(KEY)(p, geohash_encode(lat, lon, p)))
    if kind == "with-pads":
        tags += [hmac_tagger(KEY)(PAD_LABEL, f"x:{i}") for i in range(draw(st.integers(1, 10)))]
    elif kind == "with-unknown":
        tags += draw(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=4))
    tags += [hmac_tagger(KEY)(PAD_LABEL, f"pad:{i}") for i in range(COVER_BUDGET - len(tags))]
    return drops, precisions, draw(st.permutations(tags))


_SIGNING_KEY = server_keygen(b"sign\x00")
_VK = nizk.setup(b"nizk\x00")[1]


@given(_hit_index(), st.text(_ID_CHARS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_search_lists_the_matched_drops_once_and_binds_their_cells(case, outsider):
    drops, precisions, tags = case
    for mode in (MODE_CORE, MODE_FULL):
        server = SbppServer(drops, KEY, _SIGNING_KEY, _VK, mode=mode, precisions=precisions)
        matched = server.index.match(tags)  # the reference: a sorted union
        ses = server.init_session(T0)
        if len(set(tags)) < len(tags):  # not a query's shape
            with pytest.raises(ProtocolError):
                server.search(ses.S, tags, T0)
            continue
        response = server.search(ses.S, tags, T0)
        candidates = drops_of(response.cells)  # the client's listing
        ses.candidates, ses.cells, ses.receipt = candidates, response.cells, response.receipt
        listed = [d.id for d in candidates]
        assert len(listed) == len(set(listed)) and set(listed) == set(matched)
        assert ses.result_ids() == matched
        assert all(ses.candidate(i) is server.drops[i] for i in matched)
        if len({c.precision for c in response.cells}) == 1:  # one precision: no de-duplication
            assert candidates == tuple(d for c in response.cells for d in c.drops)
        if not matched:
            assert response.receipt is None
            continue
        record = server.sessions.validate(ses.S, T0)
        if mode == MODE_CORE:
            for drop_id in [*server.drops, outsider]:
                assert (merkle.locate(record.result_set, drop_id) is not None) == (drop_id in matched)
        else:
            assert record.result_set is None and record.root == build_tree(response.cells).root


# An index of some hundreds of cells over Tokyo, so a list of its own tags
# could bind far more than COVER_BUDGET of them.
_SPREAD = {
    mode: SbppServer(gen_uniform_corpus(300, 5), KEY, _SIGNING_KEY, _VK, mode=mode, precisions=[4, 5, 6])
    for mode in (MODE_CORE, MODE_FULL)
}
_SPREAD_TAGS = sorted(_SPREAD[MODE_CORE].index.entries)
_A_TAG = st.one_of(st.sampled_from(_SPREAD_TAGS), st.binary(min_size=32, max_size=32))
_TAG_LISTS = st.one_of(
    st.lists(st.one_of(_A_TAG, st.binary(max_size=40), st.none(), st.text(max_size=2), st.integers()),
             max_size=3 * COVER_BUDGET),
    st.lists(_A_TAG, min_size=COVER_BUDGET, max_size=COVER_BUDGET),
    st.lists(st.sampled_from(_SPREAD_TAGS), min_size=COVER_BUDGET, max_size=COVER_BUDGET, unique=True),
)


@given(_TAG_LISTS, st.sampled_from([MODE_CORE, MODE_FULL]))
@settings(max_examples=200, deadline=None)
def test_a_tag_list_is_refused_or_binds_at_most_the_budget(tags, mode):
    server = _SPREAD[mode]
    ses = server.init_session(T0)
    shaped = len(tags) == COVER_BUDGET == len(set(tags)) and all(type(t) is bytes and len(t) == 32 for t in tags)
    try:
        response = server.search(ses.S, tags, T0)
    except ProtocolError:
        assert not shaped
        assert not server.sessions.validate(ses.S, T0).bound  # refused before any bind
        return
    assert shaped
    assert len(response.cells) <= COVER_BUDGET
    record = server.sessions.validate(ses.S, T0)
    assert record.result_set is None or len(record.result_set) <= COVER_BUDGET


@given(st.floats(-80, 80), st.floats(-180, 180), st.floats(1.0, 3000.0), st.sampled_from([MODE_CORE, MODE_FULL]))
@settings(max_examples=100, deadline=None)
@example(35.70, 139.75, 1000.0, MODE_FULL)
def test_an_honest_query_always_has_the_shape(lat, lon, radius, mode):
    server = _SPREAD[mode]
    try:
        tags = client_tokens(KEY, lat, lon, radius, server.index.precisions)[1]
    except GeoindexError:
        assume(False)  # no cover within the budget: nothing to send
    ses = server.init_session(T0)
    server.search(ses.S, tags, T0)


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_search_answers_with_cells_and_a_receipt_and_reads_no_drop(mode, monkeypatch):
    server, _ = _pair(mode, drops=TWO_CELLS)
    tags = client_tokens(KEY, QLAT, QLON, RADIUS, server.index.precisions)[1]
    ses = server.init_session(T0)

    def unread(cell):
        raise AssertionError("the server read a cell's drops")

    monkeypatch.setattr(Cell, "drops", property(unread))
    response = server.search(ses.S, tags, T0)
    monkeypatch.undo()
    assert [f.name for f in dataclasses.fields(response)] == ["cells", "receipt"]
    assert len(response.cells) == 2 and response.receipt.S == ses.S
    assert sorted(d.id for d in drops_of(response.cells)) == server.index.match(tags)


def test_search_without_matches_leaves_session_unbound():
    server, client = _pair(MODE_FULL)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.01, 139.01, RADIUS, T0)  # empty corner of the map
    assert ses.candidates == () and ses.receipt is None
    # an unbound session cannot verify anything
    request_src = _searched(server, client)
    request = client.build_unlock(request_src, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S=ses.S), T0 + 1)
    assert outcome.fail_reason == R_SESSION_INVALID


def test_candidates_carry_policy_and_epoch_stamps():
    # The stamps are said once, on the session; each candidate is the
    # server's own drop.
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    assert (ses.pv, ses.epoch, ses.radius_m) == ("1", "ep0", RADIUS)
    assert (ses.receipt.pv, ses.receipt.epoch) == (ses.pv, ses.epoch)
    assert all(c is server.drops[c.id] for c in ses.candidates)


def test_unknown_session_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S="00" * 16), T0 + 1)
    assert outcome.fail_reason == R_SESSION_INVALID


def test_expired_session_rejected_at_boundary():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert server.verify(request, T0 + 300).fail_reason == R_EXPIRED
    # one second earlier it would have been fine
    assert server.verify(request, T0 + 299).accepted


def test_consumed_session_rejected_on_second_use():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d00", nizk.Witness(QLAT, QLON))
    assert server.verify(request, T0 + 1).accepted
    assert server.verify(request, T0 + 2).fail_reason == R_CONSUMED


def test_cross_session_proof_rejected_as_digest_mismatch():
    # Win1 shape: proof generated under session A, submitted under session B
    server, client = _pair(MODE_FULL)
    a = _searched(server, client)
    b = _searched(server, client)
    request = client.build_unlock(a, "d00", nizk.Witness(QLAT, QLON))
    outcome = server.verify(dataclasses.replace(request, S=b.S), T0 + 1)
    assert outcome.fail_reason == R_NONCE_DIGEST


def test_non_member_rejected_core_vs_full():
    # Win2 shape: proving a drop the search never returned
    for mode, want in ((MODE_CORE, R_NOT_IN_RESULT_SET), (MODE_FULL, R_MERKLE_INVALID)):
        server, client = _pair(mode)
        ses = _searched(server, client)
        assert "far" not in ses.result_ids()
        cd = (
            cd_core("far", "1", "ep0", ses.N)
            if mode == MODE_CORE
            else cd_full("far", "1", "ep0", ses.N, build_tree(ses.cells).root)
        )
        pub = nizk.make_public_inputs(35.79, 139.89, RADIUS, cd)
        proof = nizk.prove(client.proving_key, nizk.Witness(35.79, 139.89), pub)
        from sbpp.protocol import UnlockRequest

        request = UnlockRequest(
            S=ses.S, drop_id="far", pub=pub, proof=proof,
            merkle_path=None if mode == MODE_CORE else build_tree(ses.cells, "d00").path,
        )
        assert server.verify(request, T0 + 1).fail_reason == want


def test_tampered_path_rejected_before_proof_check():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_step = PathStep(request.merkle_path.steps[0].side, bytes(32))
    bad = dataclasses.replace(
        request, merkle_path=MerklePath((bad_step, *request.merkle_path.steps[1:]))
    )
    assert server.verify(bad, T0 + 1).fail_reason == R_MERKLE_INVALID
    missing = dataclasses.replace(request, merkle_path=None)
    assert server.verify(missing, T0 + 1).fail_reason == R_MERKLE_INVALID


def test_statement_inconsistent_with_registry_rejected():
    # client claims the drop sits where the prover stands; server checks its registry
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    honest = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    cd = honest.pub[7]
    lied = nizk.make_public_inputs(35.75, 139.80, RADIUS, cd)
    proof = nizk.prove(client.proving_key, nizk.Witness(35.75, 139.80), lied)
    bad = dataclasses.replace(honest, pub=lied, proof=proof)
    assert server.verify(bad, T0 + 1).fail_reason == R_PROOF_INVALID


def test_unregistered_drop_id_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad = dataclasses.replace(request, drop_id="ghost")
    # fails digest first: the digest was computed over "d01", not "ghost"
    assert server.verify(bad, T0 + 1).fail_reason == R_NONCE_DIGEST


def test_corrupt_proof_rejected():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_proof = nizk.Proof(request.proof.backend_id, bytes(32))
    assert server.verify(
        dataclasses.replace(request, proof=bad_proof), T0 + 1
    ).fail_reason == R_PROOF_INVALID


def test_rejected_attempts_do_not_consume():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    bad_proof = nizk.Proof(request.proof.backend_id, bytes(32))
    for _ in range(3):
        server.verify(dataclasses.replace(request, proof=bad_proof), T0 + 1)
    assert server.verify(request, T0 + 1).accepted


def test_build_unlock_outside_radius_raises():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    with pytest.raises(nizk.StatementFalseError):
        client.build_unlock(ses, "d01", nizk.Witness(35.75, 139.85))


def test_audit_record_round_trip():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = emit_audit_record(ses, request)
    raw = record.serialize()
    assert AuditRecord.parse(raw) == record
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(raw + b"\x00")
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(raw[:-3])


def test_audit_record_parse_rejects_unreduced_public_input():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    fields = lp_decode(emit_audit_record(ses, request).serialize())
    fields[3] = b"\xff" * (32 * nizk.PUB_LEN)  # every element >= the field order
    with pytest.raises(AuditRecordError):
        AuditRecord.parse(lp_encode(fields))


def _honest_record_fields() -> list[bytes]:
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    return lp_decode(emit_audit_record(ses, request).serialize())


_HONEST_FIELDS = _honest_record_fields()


# A field edit: keep the honest field, flip one bit of it, or replace it.
_EDIT = st.one_of(
    st.none(), st.tuples(st.integers(0, 10_000), st.integers(0, 7)), st.binary(max_size=300)
)


def _edited(field: bytes, edit) -> bytes:
    if edit is None or not field:
        return field
    if isinstance(edit, bytes):
        return edit
    pos, bit = edit
    out = bytearray(field)
    out[pos % len(out)] ^= 1 << bit
    return bytes(out)


@given(
    st.lists(_EDIT, min_size=5, max_size=5),
    st.one_of(st.just(5), st.integers(0, 6)),
    st.one_of(st.just(b""), st.binary(max_size=2)),
)
@example([None] * 5, 5, b"")
@settings(max_examples=300, deadline=None)
def test_audit_record_parse_raises_or_round_trips(edits, n_fields, tail):
    # Each field is the honest one, a bit-flipped copy or arbitrary bytes;
    # the frame may also lose or gain fields and trailing bytes.
    fields = [_edited(f, e) for f, e in zip(_HONEST_FIELDS, edits)]
    fields = (fields + [b"x"])[:n_fields]
    raw = lp_encode(fields) + tail
    try:
        record = AuditRecord.parse(raw)
    except AuditRecordError:
        return
    assert record.serialize() == raw
    # and re-encoded from the parsed fields, without the bytes they carry
    fresh = dataclasses.replace(
        record, receipt=dataclasses.replace(record.receipt), pub=dataclasses.replace(record.pub)
    )
    assert fresh.serialize() == raw


def test_candidate_meta_is_frozen():
    server, client = _pair(MODE_FULL)
    candidate = _searched(server, client).candidate("d00")
    with pytest.raises(dataclasses.FrozenInstanceError):
        candidate.lat = 0.0
    assert dataclasses.asdict(candidate)["id"] == "d00"


def test_audit_accepts_full_mode_offline():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    assert server.verify(request, T0 + 1).accepted
    record = emit_audit_record(ses, request)
    server.sessions.purge_all()  # audit must not need any of this
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert outcome.accepted


def test_audit_core_mode_cannot_attest_membership():
    server, client = _pair(MODE_CORE)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    assert server.verify(request, T0 + 1).accepted
    record = emit_audit_record(ses, request)
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert not outcome.accepted
    assert outcome.fail_reason == R_MERKLE_INVALID


def test_audit_rejection_order():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = emit_audit_record(ses, request)
    wrong_key = server_keygen(b"someone-else").public_bytes
    assert audit(wrong_key, server.nizk_vk, record).fail_reason == R_RECEIPT_SIG
    other = _searched(server, client)
    swapped = dataclasses.replace(record, receipt=other.receipt)
    assert (
        audit(server.public_key_bytes, server.nizk_vk, swapped).fail_reason == R_NONCE_DIGEST
    )
    bad_step = PathStep(record.merkle_path.steps[0].side, bytes(32))
    torn = dataclasses.replace(record, merkle_path=MerklePath((bad_step, *record.merkle_path.steps[1:])))
    assert (
        audit(server.public_key_bytes, server.nizk_vk, torn).fail_reason == R_MERKLE_INVALID
    )
    forged = dataclasses.replace(record, proof=nizk.Proof(record.proof.backend_id, bytes(32)))
    assert (
        audit(server.public_key_bytes, server.nizk_vk, forged).fail_reason == R_PROOF_INVALID
    )


def test_audit_without_receipt_is_a_signature_failure():
    server, client = _pair(MODE_FULL)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = dataclasses.replace(emit_audit_record(ses, request), receipt=None)
    outcome = audit(server.public_key_bytes, server.nizk_vk, record)
    assert outcome.fail_reason == R_RECEIPT_SIG


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_missing_public_inputs_answer_a_reason(mode):
    # the digest stage is the first to read pub: it answers, it does not raise
    server, client = _pair(mode)
    ses = _searched(server, client)
    request = client.build_unlock(ses, "d01", nizk.Witness(35.7004, 139.75))
    record = dataclasses.replace(emit_audit_record(ses, request), pub=None)
    assert audit(server.public_key_bytes, server.nizk_vk, record).fail_reason == R_NONCE_DIGEST
    outcome = server.verify(dataclasses.replace(request, pub=None), T0 + 1)
    assert outcome.fail_reason == R_NONCE_DIGEST


def _unlocker(subject: str):
    """Honest unlocks on ``subject`` (a mode's server and client, a rung, or
    "V8-lite", the V8 rung whose token omits the root): each call searches
    a fresh session on the one server and gives its honest request, the
    subject's verify, the request's audit record and the subject's audit."""
    env = seeded_env(0, attack_corpus())
    if subject in (MODE_CORE, MODE_FULL):
        server, client = protocol_pair(env, subject)
        keys = (server.public_key_bytes, server.nizk_vk)

        def unlock():
            ses = client.open_session(server, T0)
            client.search(server, ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
            request = client.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
            return request, server.verify, emit_audit_record(ses, request), partial(audit, *keys)

        return unlock
    variant = make_variant(subject.removesuffix("-lite"), env, token_includes_root=subject != "V8-lite")

    def unlock():
        ses = variant.open_session(T0)
        variant.search(ses, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        request = variant.build_unlock(ses, ses.result_ids()[0], WITNESS_NEAR_QUERY)
        return request, variant.verify, variant.audit_record(ses, request), variant.audit

    return unlock


def _unlocked(subject: str):
    """One honest unlock on ``subject`` (`_unlocker`)."""
    return _unlocker(subject)()


# every test_reasons subject: the server in both modes, each rung, V8-lite
ID_SUBJECTS = (MODE_CORE, MODE_FULL, *VARIANT_KINDS, "V8-lite")
DIGEST_SUBJECTS = (MODE_CORE, MODE_FULL, "V1", "V2", "V3", "V4a", "V4b")


@pytest.mark.parametrize("drop_id", ["\ud800", "d0\udfff", None, ["d00"], b"d00", 7], ids=repr)
@pytest.mark.parametrize("subject", DIGEST_SUBJECTS)
def test_an_id_that_is_no_encodable_str_answers_a_digest_mismatch(subject, drop_id):
    # the digest stage is the first to read the id: it answers, online and
    # offline, it does not raise, and the session stays open for the honest
    # request
    request, verify, record, audit_of = _unlocked(subject)
    assert verify(dataclasses.replace(request, drop_id=drop_id), T0 + 1).fail_reason == R_NONCE_DIGEST
    assert audit_of(dataclasses.replace(record, drop_id=drop_id)).fail_reason == R_NONCE_DIGEST
    assert verify(request, T0 + 2).accepted


# (online, offline) for an id no hash can take, on the rungs without a
# digest over the id.  V8-lite's audit has no membership stage, so its
# record is accepted: the A4b boundary, by design.
_ID_ANSWERS = {
    "V5": (R_EVIDENCE_INVALID, R_EVIDENCE_INVALID),
    "V6": (R_EVIDENCE_INVALID, R_EVIDENCE_INVALID),
    "V7": (R_NOT_IN_RESULT_SET, R_NOT_IN_RESULT_SET),
    "V8": (R_MERKLE_INVALID, R_MERKLE_INVALID),
    "V8-lite": (R_NOT_IN_RESULT_SET, None),
}


@pytest.mark.parametrize("drop_id", [None, 7, b"d00", ["x"], "\ud800"], ids=repr)
@pytest.mark.parametrize("subject", list(_ID_ANSWERS))
def test_an_id_that_is_no_encodable_str_answers_each_rungs_own_reason(subject, drop_id):
    assert set(DIGEST_SUBJECTS) | set(_ID_ANSWERS) == set(ID_SUBJECTS)  # the two tests cover every subject
    request, verify, record, audit_of = _unlocked(subject)
    online, offline = _ID_ANSWERS[subject]
    assert verify(dataclasses.replace(request, drop_id=drop_id), T0 + 1).fail_reason == online
    assert audit_of(dataclasses.replace(record, drop_id=drop_id)).fail_reason == offline
    assert verify(request, T0 + 2).accepted


class _Text(str):
    pass


# any text, lone surrogates often, and what is no text at all
_CLAIMED_TEXT = st.text(
    st.sampled_from(["d", "0", "\ud800", "\udbff", "\udc00", "\udfff", "\U0010ffff"])
    | st.characters(exclude_categories=()),
    max_size=6,
)
_CLAIMED_ID = st.one_of(
    _CLAIMED_TEXT,
    _CLAIMED_TEXT.map(_Text),
    st.sampled_from(["d00", _Text("d00")]),
    st.none(),
    st.integers(),
    st.binary(max_size=6),
    st.lists(_CLAIMED_TEXT, max_size=2),
)
_CLAIMED_VALUE = _CLAIMED_ID | st.binary(max_size=64) | st.lists(_CLAIMED_TEXT, max_size=3).map(tuple)

# A claim's structured fields, each tested for its type by the stage that
# reads it (the `protocol` docstring), and the values they are probed with:
# no type's, another structured field's type, and their own type
_STRUCTURED = ("pub", "proof", "merkle_path", "receipt")
_STRUCTURED_VALUES = (None, 7, "x", b"x", ["x"], EMPTY_PATH, nizk.Proof(nizk.BACKEND_ID, bytes(32)))
# every field a request or audit record of any subject carries
_CLAIMED_FIELDS = tuple(f.name for f in dataclasses.fields(VariantRequest))


def _carries(claim, name: str) -> bool:
    return name in {f.name for f in dataclasses.fields(claim)}


@pytest.fixture(scope="module")
def unlockers():
    """Each subject's `_unlocker`, kept across examples."""
    return {}


def _each_structured_value(test):
    """``test`` with every structured field and probe value as an example."""
    for name in _STRUCTURED:
        for value in _STRUCTURED_VALUES:
            test = example(name=name, value=value)(test)
    return test


@given(name=st.sampled_from(_CLAIMED_FIELDS), value=_CLAIMED_VALUE | st.sampled_from(_STRUCTURED_VALUES))
@example(name="drop_id", value="d0\udfff")
@example(name="drop_id", value=_Text("d00"))
@example(name="result_ids", value=("\ud800",))
@example(name="token", value="x")
@_each_structured_value
@settings(max_examples=300, deadline=None)
def test_no_verify_or_audit_stage_raises_on_any_claimed_field(unlockers, name, value):
    # on a fresh session of every subject: the field set to the value gives
    # an outcome online and offline, never an online accept of an id no
    # hash can take, and unless it was accepted online (the session's one
    # accept) the honest request is accepted after it
    assert {f.name for f in dataclasses.fields(AuditRecord)} <= set(_CLAIMED_FIELDS)
    for subject in ID_SUBJECTS:
        if subject not in unlockers:
            unlockers[subject] = _unlocker(subject)
        request, verify, record, audit_of = unlockers[subject]()
        accepted = False
        if _carries(request, name):
            online = verify(dataclasses.replace(request, **{name: value}), T0 + 1)
            assert isinstance(online, VerifyOutcome)
            assert name != "drop_id" or encodable(value) or not online.accepted
            accepted = online.accepted
        if _carries(record, name):
            assert isinstance(audit_of(dataclasses.replace(record, **{name: value})), VerifyOutcome)
        assert verify(request, T0 + 2).accepted or accepted


# The exact answer of the one stage that reads a claimed field, for each
# probe value: (subjects, fields, values, reason, also online).  Online the
# session rungs read the session's own context, and V8 the token the
# server holds, so those claims are answered offline only.
_FIELD_PROBES = (
    (("V1", "V2"), ("pv", "epoch"), (None, "\ud800"), R_NONCE_DIGEST, True),
    (("V3",), ("pv", "epoch"), (None, "\ud800"), R_NONCE_DIGEST, False),
    (("V7",), ("pv", "epoch", "S"), (None, "\ud800"), R_EVIDENCE_INVALID, False),
    (("V7",), ("result_ids",), (7, ("\ud800",), (None,)), R_EVIDENCE_INVALID, True),
    (("V7",), ("result_mac",), ("x", 7), R_EVIDENCE_INVALID, True),
    (("V5",), ("capability",), ("x", 7), R_EVIDENCE_INVALID, True),
    (("V6",), ("permit",), ("x", 7), R_EVIDENCE_INVALID, True),
    (("V8", "V8-lite"), ("token",), ("x", 7), R_TOKEN_HASH, False),
)


@pytest.mark.parametrize(
    "subject, name, value, reason, online",
    [
        (subject, name, value, reason, online)
        for subjects, names, values, reason, online in _FIELD_PROBES
        for subject in subjects
        for name in names
        for value in values
    ],
    ids=repr,
)
def test_a_claimed_field_no_hash_can_take_gets_its_stages_reason(subject, name, value, reason, online):
    request, verify, record, audit_of = _unlocked(subject)
    assert audit_of(dataclasses.replace(record, **{name: value})).fail_reason == reason
    if online:
        assert verify(dataclasses.replace(request, **{name: value}), T0 + 1).fail_reason == reason
    assert verify(request, T0 + 2).accepted


# The shipped server's answer, in (core verify, core audit, full verify,
# full audit), to a structured field set to any probe value; None is an
# accept, and "-" a field the claim does not carry (a request holds no
# receipt).  A core session checks its own cells, not the path, and a core
# receipt's zero root admits no path, so a core audit stops at membership.
_STRUCTURED_ANSWERS = {
    "pub": (R_NONCE_DIGEST, R_NONCE_DIGEST, R_NONCE_DIGEST, R_NONCE_DIGEST),
    "proof": (R_PROOF_INVALID, R_MERKLE_INVALID, R_PROOF_INVALID, R_PROOF_INVALID),
    "merkle_path": (None, R_MERKLE_INVALID, R_MERKLE_INVALID, R_MERKLE_INVALID),
    "receipt": ("-", R_RECEIPT_SIG, "-", R_RECEIPT_SIG),
}


@pytest.mark.parametrize(
    "value", _STRUCTURED_VALUES, ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else repr(v)
)
@pytest.mark.parametrize("name", _STRUCTURED)
def test_the_shipped_server_answers_a_structured_field_of_any_value(name, value):
    answers = []
    for mode in (MODE_CORE, MODE_FULL):
        request, verify, record, audit_of = _unlocked(mode)
        if _carries(request, name):
            online = verify(dataclasses.replace(request, **{name: value}), T0 + 1)
            answers.append(online.fail_reason)
        else:
            answers.append("-")
        answers.append(audit_of(dataclasses.replace(record, **{name: value})).fail_reason)
    assert tuple(answers) == _STRUCTURED_ANSWERS[name]


def _reference_statement(verifier, attempt):
    """The statement check as a comparison of whole public inputs: the
    expected elements built by their checked constructor from the
    statement's definition (offset-scaled coordinates on the globe, the
    radius, four zeros), the first seven compared."""
    claim = attempt.claim
    drop = verifier.drops.get(claim.drop_id)
    if drop is None or claim.pub is None:
        return R_PROOF_INVALID
    if not (-90.0 <= drop.lat <= 90.0 and -180.0 <= drop.lon <= 180.0):
        return R_PROOF_INVALID
    try:
        radius = nizk.radius_value(verifier.unlock_radius_m)
    except nizk.NizkError:
        return R_PROOF_INVALID
    values = (round((drop.lat + 90.0) * 10**7), round((drop.lon + 180.0) * 10**7), radius, 0, 0, 0, 0)
    expected = tuple(map(FieldElement, values))
    return None if expected == claim.pub.elements[:7] else R_PROOF_INVALID


_EDGE_LATS = [-90.0, 90.0, math.nextafter(-90.0, -100), math.nextafter(90.0, 100), -0.0, 35.7, math.nan]
_EDGE_LONS = [-180.0, 180.0, math.nextafter(-180.0, -200), math.nextafter(180.0, 200), 0.0, 139.75, math.inf]
_EDGE_RADII = [0.5, 0.5000000000000001, 1.0, 1.5, 2.5, 999.5, 1000.5, 0.0, -1.0, math.inf, math.nan, float(Q)]


@given(
    st.one_of(st.sampled_from(_EDGE_LATS), st.floats(-91, 91)),
    st.one_of(st.sampled_from(_EDGE_LONS), st.floats(-181, 181)),
    st.one_of(st.sampled_from(_EDGE_RADII), st.floats(0, 1e7)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_statement_check_agrees_with_the_whole_public_inputs_comparison(lat, lon, radius, data):
    # an arbitrary statement, and where the drop and radius admit one the
    # honest statement and each one-off-by-one-in-one-slot statement, for
    # the named drop and an unknown id, at the globe's edges and at radius
    # rounding edges
    verifier = SimpleNamespace(drops={"d": Drop("d", lat, lon)}, unlock_radius_m=radius)
    values = data.draw(st.lists(st.integers(0, Q - 1), min_size=8, max_size=8))
    statements = [values]
    try:
        honest = nizk.make_public_inputs(lat, lon, radius, FieldElement(values[7]))
    except nizk.NizkError:
        honest = None
    if honest is not None:
        base = [e.value for e in honest.elements]
        statements.append(base)
        for slot in range(7):
            for delta in (1, -1):
                statements.append([*base[:slot], (base[slot] + delta) % Q, *base[slot + 1 :]])
    for statement in statements:
        pub = nizk.PublicInputs(tuple(map(FieldElement, statement)))
        for drop_id in ("d", "other"):
            attempt = Attempt(SimpleNamespace(drop_id=drop_id, pub=pub), None)
            assert check_statement(verifier, attempt) == _reference_statement(verifier, attempt)
    if honest is not None:
        assert check_statement(verifier, Attempt(SimpleNamespace(drop_id="d", pub=honest), None)) is None


def test_emit_audit_record_needs_a_receipt():
    server, client = _pair(MODE_FULL)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.01, 139.01, RADIUS, T0)
    from sbpp.protocol import UnlockRequest

    dummy = UnlockRequest(
        S=ses.S, drop_id="d00",
        pub=nizk.make_public_inputs(QLAT, QLON, RADIUS, cd_core("d00", "1", "ep0", ses.N)),
        proof=nizk.Proof("sim-hmac-v1", bytes(32)), merkle_path=None,
    )
    with pytest.raises(ProtocolError):
        emit_audit_record(ses, dummy)


def test_server_rejects_duplicate_drop_ids():
    with pytest.raises(ProtocolError):
        SbppServer(
            drops=[Drop("a", 35.7, 139.75), Drop("a", 35.7, 139.76)],
            search_key=b"\x11" * 32,
            signing_key=server_keygen(b"k"),
            nizk_vk=nizk.setup(b"n")[1],
        )


@pytest.mark.parametrize("radius", [float("inf"), float("nan"), 1e80, 0.4])
def test_server_and_rungs_refuse_an_unlock_radius_no_statement_holds(radius):
    # refused at construction: such a radius would fail every unlock
    env = seeded_env(0, attack_corpus(), unlock_radius_m=radius)
    for mode in (MODE_CORE, MODE_FULL):
        with pytest.raises(ProtocolError, match="^unlock radius: radius "):
            protocol_pair(env, mode)
    for kind in VARIANT_KINDS:
        with pytest.raises(ProtocolError, match="^unlock radius: radius "):
            make_variant(kind, env)


@pytest.mark.parametrize("ttl", [0, -5])
def test_server_and_rungs_refuse_a_ttl_below_one_second(ttl):
    # refused at construction: every session would be issued already expired
    env = seeded_env(0, attack_corpus(), ttl_s=ttl)
    for mode in (MODE_CORE, MODE_FULL):
        with pytest.raises(ProtocolError, match=f"^session ttl must be at least 1 second, got {ttl}$"):
            protocol_pair(env, mode)
    for kind in VARIANT_KINDS:
        with pytest.raises(ProtocolError, match="^session ttl "):
            make_variant(kind, env)


def test_server_and_rungs_refuse_an_empty_precision_list():
    # no precision is an index error, not a silent precision 5
    with pytest.raises(GeoindexError, match="at least one precision"):
        SbppServer(DROPS, KEY, server_keygen(b"k"), nizk.setup(b"n")[1], precisions=[])
    env = seeded_env(0, attack_corpus(), precisions=())
    for mode in (MODE_CORE, MODE_FULL):
        with pytest.raises(GeoindexError, match="at least one precision"):
            protocol_pair(env, mode)
    for kind in VARIANT_KINDS:
        with pytest.raises(GeoindexError, match="at least one precision"):
            make_variant(kind, env)


def test_run_stages_stops_at_the_first_reason():
    called = []

    def stage(name, reason=None):
        def run(subject, attempt):
            called.append(name)
            return reason

        return run

    attempt = Attempt(claim=None, now=T0)
    stages = (stage("a"), stage("b", "first"), stage("c", "second"))
    assert run_stages(stages, None, attempt) == VerifyOutcome(False, "first")
    assert called == ["a", "b"]
    called.clear()
    assert run_stages((stage("a"), stage("b")), None, attempt) == VerifyOutcome(True, None)
    assert called == ["a", "b"]


# A deployment whose every session field differs from the defaults.
CONTEXT = dict(precisions=[6, 5], ttl_s=120, pv="7", epoch="ep9", unlock_radius_m=750.0)


def _states_context(ses: ClientSession, mode: str, store: session.SessionStore) -> None:
    record = store.validate(ses.S, T0)
    assert (ses.N, ses.t_exp) == (record.N, T0 + 120)
    assert (ses.mode, ses.pv, ses.epoch, ses.radius_m, ses.precisions) == (
        mode, "7", "ep9", 750.0, (5, 6)
    )


@pytest.mark.parametrize("mode", [MODE_CORE, MODE_FULL])
def test_issued_session_states_the_whole_context(mode):
    pk, vk = nizk.setup(b"nizk\x00")
    server = SbppServer(
        drops=DROPS, search_key=b"\x11" * 32, signing_key=server_keygen(b"sign\x00"),
        nizk_vk=vk, mode=mode, nonce_rng=random.Random(0), **CONTEXT,
    )
    client = SbppClient(b"\x11" * 32, pk)
    for ses in (server.init_session(T0), client.open_session(server, T0)):
        assert type(ses) is ClientSession
        _states_context(ses, mode, server.sessions)


@pytest.mark.parametrize("kind", [*VARIANT_KINDS, "V8-lite"])
def test_every_rung_issues_a_session_stating_the_whole_context(kind):
    env = seeded_env(0, attack_corpus(), **{**CONTEXT, "precisions": (6, 5)})
    variant = make_variant(kind.removesuffix("-lite"), env, token_includes_root=kind != "V8-lite")
    _states_context(variant.open_session(T0), variant.traits.mode, variant.sessions)
