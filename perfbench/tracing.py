"""Spans and counters around the public functions of each sbpp module.

The benchmark never edits the program to trace it.  Instead it replaces, for
the length of a traced pass, the names each module looks up at call time
(``sbpp.session.build_tree``, ``sbpp.protocol.sign_receipt``,
``sbpp.geoindex.GeoIndex.match`` ...) with wrappers that record a span, and
puts the originals back afterwards.

A span is ``[name, parent, start_ns, end_ns]``.  Spans are kept in memory for
one scope at a time (one set-up or one op, so all spans of a request share
that scope) and folded into per-name totals when the scope closes.  A span's
self time is its duration minus the durations of its direct children.
Outside a scope the wrappers call straight through and record nothing, so
correctness checks made between ops do not show up in the trace.

Hot leaf functions (``lp_encode``, ``leaf_hash``, ``node_hash``,
``geohash_encode``) get counters, not spans: a span costs about as much as
the function itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

SPAN = "span"
COUNT = "count"


def _rungs(method: str) -> tuple[str, str]:
    return (f"sbpp.variants:GenericVariant.{method}", f"sbpp.variants:SbppVariant.{method}")


# (metric prefix, kind, targets).  A target is "module:attribute" or
# "module:Class.attribute", the name a caller looks up at call time.
INSTRUMENTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("geoindex.build_index", SPAN, ("sbpp.protocol:build_index", "sbpp.variants:build_index")),
    ("geoindex.client_tokens", SPAN, ("sbpp.protocol:client_tokens", "sbpp.variants:client_tokens")),
    ("geoindex.match", SPAN, ("sbpp.geoindex:GeoIndex.match", "sbpp.geoindex:PlainIndex.match")),
    ("geoindex.geohash_encode", COUNT, ("sbpp.geoindex:geohash_encode",)),
    ("merkle.build_tree.server", SPAN, ("sbpp.session:build_tree",)),
    ("merkle.build_tree.client", SPAN, ("sbpp.protocol:build_tree",)),
    ("merkle.build_tree.variants", SPAN, ("sbpp.variants:build_tree",)),
    (
        "merkle.verify_membership",
        SPAN,
        ("sbpp.protocol:verify_membership", "sbpp.variants:verify_membership"),
    ),
    ("merkle.hashes", COUNT, ("sbpp.merkle:leaf_hash", "sbpp.merkle:node_hash")),
    ("session.issue", SPAN, ("sbpp.session:SessionStore.issue",)),
    ("session.validate", SPAN, ("sbpp.session:SessionStore.validate",)),
    ("session.bind_results", SPAN, ("sbpp.session:SessionStore.bind_results",)),
    ("session.consume", SPAN, ("sbpp.session:SessionStore.consume",)),
    ("receipt.sign_receipt", SPAN, ("sbpp.protocol:sign_receipt",)),
    ("receipt.verify_receipt", SPAN, ("sbpp.protocol:verify_receipt",)),
    ("receipt.SigningKey.signer", SPAN, ("sbpp.receipt:SigningKey.signer",)),
    ("nizk.prove", SPAN, ("sbpp.nizk:prove",)),
    ("nizk.verify", SPAN, ("sbpp.nizk:verify",)),
    ("canon.cd_core", SPAN, ("sbpp.canon:cd_core",)),
    ("canon.cd_full", SPAN, ("sbpp.canon:cd_full",)),
    ("canon.lp_encode", COUNT, ("sbpp.canon:lp_encode",)),
    ("protocol.SbppServer.search", SPAN, ("sbpp.protocol:SbppServer.search",)),
    ("protocol.SbppServer.verify", SPAN, ("sbpp.protocol:SbppServer.verify",)),
    ("protocol.SbppClient.build_unlock", SPAN, ("sbpp.protocol:SbppClient.build_unlock",)),
    ("protocol.audit", SPAN, ("sbpp.protocol:audit", "sbpp.variants:sbpp_audit")),
    ("protocol.AuditRecord.parse", SPAN, ("sbpp.protocol:AuditRecord.parse",)),
    ("variants.search", SPAN, _rungs("search")),
    ("variants.build_unlock", SPAN, _rungs("build_unlock")),
    ("variants.verify", SPAN, _rungs("verify")),
    ("variants.audit", SPAN, _rungs("audit")),
)

# Wrapped in the defining module and in every sbpp module that imported the
# same function by name, since each of those calls its own binding.
EVERYWHERE = frozenset(
    {
        "geoindex.geohash_encode",
        "nizk.prove",
        "nizk.verify",
        "canon.cd_core",
        "canon.cd_full",
        "canon.lp_encode",
    }
)

# Spans that run while a server is built; reported per set-up, not per op.
SETUP_SPANS = frozenset({"geoindex.build_index"})


def _rejects(layer: str):
    return lambda outcome: [] if outcome.accepted else [(f"{layer}.rejects.{outcome.fail_reason}", 1)]


# Counters derived from a wrapped call's result: span -> function(result) -> [(counter, n)].
RESULT_COUNTERS = {
    "geoindex.match": lambda ids: [("geoindex.match.ids", len(ids))],
    "protocol.SbppServer.verify": _rejects("protocol"),
    "protocol.audit": _rejects("protocol"),
    "variants.verify": _rejects("variants"),
    "variants.audit": _rejects("variants"),
}


def self_times(spans: list[list]) -> tuple[Counter, Counter, int]:
    """(calls per name, self ns per name, ns covered by top-level spans).

    ``spans`` lists ``[name, parent_index, start_ns, end_ns]`` in the order
    they opened, so a parent always precedes its children; parent -1 marks a
    top-level span.
    """
    child_ns = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    covered = 0
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if parent < 0:
            covered += end - start
    return calls, self_ns, covered


@dataclass
class ScopeTotals:
    """Sums over every closed scope of one kind ("setup" or "op")."""

    scopes: int = 0
    wall_ns: int = 0
    covered_ns: int = 0
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.scope: str | None = None
        self.totals = {"setup": ScopeTotals(), "op": ScopeTotals()}
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._t0 = 0

    def begin(self, scope: str) -> None:
        if self.scope is not None:
            raise RuntimeError(f"scope {self.scope!r} is still open")
        self.scope = scope
        self._spans, self._stack, self._counts = [], [], Counter()
        self._t0 = perf_counter_ns()

    def end(self) -> None:
        wall = perf_counter_ns() - self._t0
        calls, self_ns, covered = self_times(self._spans)
        totals = self.totals[self.scope]
        totals.scopes += 1
        totals.wall_ns += wall
        totals.covered_ns += covered
        totals.calls.update(calls)
        totals.self_ns.update(self_ns)
        totals.counts.update(self._counts)
        self.scope = None

    def open(self, name: str) -> int:
        idx = len(self._spans)
        self._spans.append([name, self._stack[-1] if self._stack else -1, perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._spans[idx][3] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.scope is not None:
            self._counts[name] += n


def _span_wrapper(tracer: Tracer, name: str, fn, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.scope is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            for counter, n in on_result(result):
                tracer.count(counter, n)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.scope is not None:
            tracer._counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(target: str):
    """(owner, attribute) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if attr not in vars(owner):
        raise AttributeError(f"{target} not found")
    return owner, attr


class Instrumentation:
    """Context manager: installs every wrapper in INSTRUMENTS, then restores
    the originals.

    A target the program no longer has is skipped and listed in ``missing``,
    so a refactor that renames a function shows up as a zero count rather
    than as a crash.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for name, kind, targets in INSTRUMENTS:
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if kind == SPAN:
                    wrapped = _span_wrapper(self.tracer, name, fn, RESULT_COUNTERS.get(name))
                else:
                    wrapped = _count_wrapper(self.tracer, name, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                owners = [owner]
                if name in EVERYWHERE:
                    owners += [
                        m for key, m in list(sys.modules.items())
                        if m is not None and m is not owner
                        and (key == "sbpp" or key.startswith("sbpp."))
                        and vars(m).get(attr) is raw
                    ]
                for o in owners:
                    self._saved.append((o, attr, vars(o)[attr]))
                    setattr(o, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
