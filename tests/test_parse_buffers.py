"""Every parse takes any bytes-like input and keeps nothing of the buffer.

The five parses of an audit record and its parts (`AuditRecord.parse`,
`Receipt.parse`, `MerklePath.parse`, `PublicInputs.from_bytes`,
`Proof.parse`) copy an input that is not `bytes` once.  So a `bytearray`, or
a `memoryview` over one, gives the value the same bytes give (or the same
refusal, message for message), every bytes field of that value is exact
`bytes`, and writing to the buffer afterwards changes nothing in it.  The
copy goes through `memoryview`, so an input that is not bytes-like (a list of
ints) is a TypeError.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpp import nizk
from sbpp.canon import lp_decode
from sbpp.geoindex import gen_uniform_corpus
from sbpp.merkle import MerklePath
from sbpp.protocol import AuditRecord, emit_audit_record, protocol_pair, seeded_env
from sbpp.receipt import Receipt
from sbpp.session import MODE_CORE, MODE_FULL

T0 = 1_700_000_000


def _honest_record(mode: str) -> bytes:
    drops = gen_uniform_corpus(1000, 7, (35.6, 35.8, 139.6, 139.9))
    server, client = protocol_pair(seeded_env(7, drops), mode)
    ses = client.open_session(server, T0)
    client.search(server, ses, 35.70, 139.75, 1000.0, T0)
    target = ses.candidates[len(ses.candidates) // 2]
    request = client.build_unlock(ses, target.id, nizk.Witness(target.lat, target.lon))
    return emit_audit_record(ses, request).serialize()


# (parse, the inverse that gives the frame back)
PARSES = {
    "record": (AuditRecord.parse, AuditRecord.serialize),
    "receipt": (Receipt.parse, Receipt.serialize),
    "path": (MerklePath.parse, MerklePath.serialize),
    "pub": (nizk.PublicInputs.from_bytes, nizk.PublicInputs.to_bytes),
    "proof": (nizk.Proof.parse, nizk.Proof.serialize),
}


def _honest_frames() -> dict[str, list[bytes]]:
    """Each parse's honest frames: the whole record and its parts, of a core
    and a full record (the full one's path has steps, the core one's none)."""
    frames = {name: [] for name in PARSES}
    for raw in (_honest_record(MODE_CORE), _honest_record(MODE_FULL)):
        receipt, _, path, pub, proof = lp_decode(raw)
        for name, frame in (("record", raw), ("receipt", receipt), ("path", path), ("pub", pub), ("proof", proof)):
            frames[name].append(frame)
    return frames


HONEST = _honest_frames()


def _edit(raw: bytes, edit: tuple) -> bytes:
    """``raw`` with a bit flipped, cut short, extended or replaced."""
    kind, *args = edit
    if kind == "flip" and raw:
        out = bytearray(raw)
        out[args[0] % len(out)] ^= 1 << args[1]
        return bytes(out)
    if kind == "cut":
        return raw[: max(0, len(raw) - args[0])]
    if kind == "extend":
        return raw + args[0]
    if kind == "replace":
        return args[0]
    return raw


_edits = st.one_of(
    st.just(("keep",)),
    st.tuples(st.just("flip"), st.integers(0, 10_000), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(1, 300)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("replace"), st.binary(max_size=300)),
)

_inputs = st.sampled_from(sorted(PARSES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(HONEST[name]), _edits)
)


def _outcome(parse, source):
    """The parsed value, or the refusal as (type, message)."""
    try:
        return parse(source)
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


def _bytes_fields(value):
    """Every bytes-like value a parsed value holds, through its dataclass
    fields (carried ones included) and tuples."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _bytes_fields(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _bytes_fields(getattr(value, f.name))


@given(_inputs)
@settings(max_examples=600, deadline=None)
def test_a_parse_of_a_buffer_is_the_parse_of_its_bytes_and_keeps_none_of_it(case):
    name, honest, edit = case
    parse, frame_of = PARSES[name]
    raw = _edit(honest, edit)
    expected = _outcome(parse, raw)
    buf = bytearray(raw)
    for source in (buf, memoryview(buf)):
        got = _outcome(parse, source)
        assert got == expected
        if isinstance(expected, tuple):
            continue
        assert all(type(b) is bytes for b in _bytes_fields(got))
        hash(got)
        buf[:] = bytes(b ^ 0xFF for b in buf)  # the same length: a memoryview over it stays valid
        assert frame_of(got) == raw
        assert got == expected
        buf[:] = raw


def test_a_parse_refuses_an_input_that_is_not_bytes_like():
    # a list of ints is no buffer: `bytes()` would take it, `memoryview` does not
    for parse, _ in PARSES.values():
        for source in ([0], [1] + [0] * 33):
            with pytest.raises(TypeError):
                parse(source)
