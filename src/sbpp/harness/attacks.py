"""Adversary moves, attack scripts and the variant-by-attack matrix.

The adversary re-routes anything it computed itself (session ids, nonce
echoes, membership paths) but cannot mint server-signed evidence for a
context the server never issued it for.  Its moves are plain functions:
`rebind`, `retarget`, `splice` and `fabricate`.  A move reads only the
request or record it is handed and the sessions the adversary opened,
never the rung's stage table: it rebinds the nonce echo only where the
request carries one, and rebuilds a membership path only where the
request carries one and the drop is listed in the session it targets.

Each attack is a deterministic script of moves run against a live rung; a
"trial" opens fresh sessions (fresh nonces) and replays the same strategy.

Attacks:
  A1   substitute a proof from the adversary's first session into a second
  A2   replay a victim's intercepted request under the adversary's session
  A3   retarget an accepted drop's credentials at a different drop
  A4a  unlock a drop the search never returned (online)
  A4b  forge the offline audit trail for a never-returned drop (splice two
       sessions' records, or fabricate membership outright)
  A5   hold a fully built honest request past the session TTL

The matrix maps each (attack, rung) cell to the number of trials the rung
blocked, or to None where the environment cannot stage the attack (a skip).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import nizk
from ..geoindex import Drop
from ..merkle import MerklePath, build_tree, locate
from ..protocol import seeded_env
from ..session import DEFAULT_TTL_S
from ..variants import VARIANT_KINDS, VariantRequest, VariantSession, make_variant
from .report import render_grid

# Fixed desk-scale geometry: a candidate cluster near the query point and a
# lone drop ~12 km east, so it never lands in the 1 km query's cover.
QUERY_LAT, QUERY_LON = 35.70, 139.75
OUT_LAT, OUT_LON = 35.70, 139.88
OUT_DROP_ID = "zz-out"
RADIUS_M = 1000.0
T0 = 1_700_000_000

WITNESS_NEAR_QUERY = nizk.Witness(QUERY_LAT + 0.0001, QUERY_LON + 0.0001)
WITNESS_NEAR_OUT = nizk.Witness(OUT_LAT + 0.0001, OUT_LON + 0.0001)
OUT_DROP = Drop(OUT_DROP_ID, OUT_LAT, OUT_LON)


class EnvInsufficientError(RuntimeError):
    """The environment cannot satisfy an attack's preconditions."""


def attack_corpus() -> list[Drop]:
    drops = [
        Drop(f"d{i:02d}", QUERY_LAT + i * 0.0004, QUERY_LON + i * 0.0004) for i in range(6)
    ]
    drops.append(OUT_DROP)
    return drops


def build_variant(
    kind: str, seed: int, token_includes_root: bool = True, drops: list[Drop] | None = None
):
    """One rung over the seeded environment, serving ``drops`` (default: the
    attack corpus)."""
    env = seeded_env(seed, attack_corpus() if drops is None else drops)
    return make_variant(kind, env, token_includes_root=token_includes_root)


# ---------------------------------------------------------------------------
# the adversary's moves


def _path_in(vses: VariantSession, drop_id: str, request: VariantRequest) -> MerklePath | None:
    """A fresh path to ``drop_id`` in the session's list, where the request
    carries a path and the drop is listed; otherwise the request's own."""
    path = request.merkle_path
    if path is not None and locate(vses.cells, drop_id) is not None:
        return build_tree(vses.cells, drop_id).path
    return path


def rebind(request: VariantRequest, target: VariantSession) -> VariantRequest:
    """Re-route a request to another session, recomputing only what the
    adversary can (session id, nonce echo, membership path)."""
    return replace(
        request,
        S=target.S,
        merkle_path=_path_in(target, request.drop_id, request),
        nonce_echo=None if request.nonce_echo is None else target.N,
    )


def retarget(request: VariantRequest, vses: VariantSession, drop_id: str) -> VariantRequest:
    """Point a request at a different drop while keeping its proximity
    attestation (the proof, or for V6 the permit)."""
    return replace(
        request,
        drop_id=drop_id,
        merkle_path=_path_in(vses, drop_id, request),
        capability=vses.capabilities.get(drop_id),
    )


def splice(proof_rec: VariantRequest, ctx_rec: VariantRequest) -> VariantRequest:
    """Pair one record's proof with another record's session evidence."""
    return replace(ctx_rec, pub=proof_rec.pub, proof=proof_rec.proof, merkle_path=proof_rec.merkle_path)


def fabricate(variant, vses: VariantSession, drop: Drop, witness: nizk.Witness) -> VariantRequest:
    """An audit record for a drop the search never returned, carrying
    whatever evidence the session was issued for other drops."""
    rec = variant.audit_record(vses, variant.build_nonmember_unlock(vses, drop, witness))
    return replace(
        rec,
        capability=next(iter(vses.capabilities.values()), None),
        permit=next(iter(vses.permits.values()), None),
    )


# ---------------------------------------------------------------------------
# the attack scripts


def _searched_sessions(variant, n: int):
    out = []
    for _ in range(n):
        s = variant.open_session(T0)
        variant.search(s, QUERY_LAT, QUERY_LON, RADIUS_M, T0)
        if not s.result_ids():
            raise EnvInsufficientError("search returned no candidates")
        out.append(s)
    return out


def attack_a1(variant) -> bool:
    """Cross-session proof substitution between two adversary sessions."""
    s1, s2 = _searched_sessions(variant, 2)
    request = variant.build_unlock(s1, s1.result_ids()[0], WITNESS_NEAR_QUERY)
    adapted = rebind(request, s2)
    return not variant.verify(adapted, T0 + 5).accepted


def attack_a2(variant) -> bool:
    """Replay of an intercepted (already-spent) request under a new session."""
    victim, attacker = _searched_sessions(variant, 2)
    request = variant.build_unlock(victim, victim.result_ids()[0], WITNESS_NEAR_QUERY)
    variant.verify(request, T0 + 5)  # the victim spends it; adversary taped it
    replay = rebind(request, attacker)
    return not variant.verify(replay, T0 + 10).accepted


def attack_a3(variant) -> bool:
    """Retarget credentials issued for one drop at a sibling drop."""
    (s,) = _searched_sessions(variant, 1)
    ids = s.result_ids()
    if len(ids) < 2:
        raise EnvInsufficientError("retargeting needs two drops in one result set")
    request = variant.build_unlock(s, ids[0], WITNESS_NEAR_QUERY)
    adapted = retarget(request, s, ids[1])
    return not variant.verify(adapted, T0 + 5).accepted


def attack_a4a(variant) -> bool:
    """Unlock a drop outside the returned result set, proving from afar.
    The drop must be the rung's own: a drop it does not hold is refused by
    its statement check whatever the rung, which says nothing of the rung."""
    if OUT_DROP_ID not in variant.drops:
        raise EnvInsufficientError("the corpus holds no outlier drop")
    (s,) = _searched_sessions(variant, 1)
    if OUT_DROP_ID in s.result_ids():
        raise EnvInsufficientError("outlier drop unexpectedly matched the search")
    request = variant.build_nonmember_unlock(s, OUT_DROP, WITNESS_NEAR_OUT)
    return not variant.verify(request, T0 + 5).accepted


def attack_a4b(variant) -> bool:
    """Defeat the offline audit: blocked only if honest records attest AND
    both forgery routes (record splicing, membership fabrication) fail."""
    if not variant.traits.has_proof:
        return False  # nothing in the trail proves proximity
    s1, s2 = _searched_sessions(variant, 2)
    drop_id = s1.result_ids()[0]
    if drop_id not in s2.result_ids():
        raise EnvInsufficientError("no common drop across the two sessions")
    rec1 = variant.audit_record(s1, variant.build_unlock(s1, drop_id, WITNESS_NEAR_QUERY))
    rec2 = variant.audit_record(s2, variant.build_unlock(s2, drop_id, WITNESS_NEAR_QUERY))
    if not (variant.audit(rec1).accepted and variant.audit(rec2).accepted):
        return False  # honest trails don't attest, so there is nothing to defeat
    if variant.audit(splice(rec1, rec2)).accepted:
        return False
    fabricated = fabricate(variant, s1, OUT_DROP, WITNESS_NEAR_OUT)
    if variant.audit(fabricated).accepted:
        return False
    return True


def attack_a5(variant) -> bool:
    """Build honestly, then sit on the request until the TTL lapses."""
    (s,) = _searched_sessions(variant, 1)
    request = variant.build_unlock(s, s.result_ids()[0], WITNESS_NEAR_QUERY)
    return not variant.verify(request, T0 + DEFAULT_TTL_S).accepted


ATTACK_FUNCS = {
    "A1": attack_a1,
    "A2": attack_a2,
    "A3": attack_a3,
    "A4a": attack_a4a,
    "A4b": attack_a4b,
    "A5": attack_a5,
}
ATTACK_KINDS = tuple(ATTACK_FUNCS)

# True = the variant blocks the attack.
EXPECTED_MATRIX: dict[str, dict[str, bool]] = {
    "A1": dict(V1=False, V2=False, V3=False, V4a=True, V4b=True, V5=True, V6=True, V7=True, V8=True),
    "A2": dict(V1=False, V2=False, V3=False, V4a=True, V4b=True, V5=True, V6=True, V7=True, V8=True),
    "A3": dict(V1=True, V2=True, V3=True, V4a=True, V4b=True, V5=True, V6=True, V7=True, V8=True),
    "A4a": dict(V1=False, V2=False, V3=False, V4a=True, V4b=True, V5=True, V6=True, V7=True, V8=True),
    "A4b": dict(V1=False, V2=False, V3=False, V4a=False, V4b=True, V5=False, V6=False, V7=False, V8=True),
    "A5": dict(V1=False, V2=False, V3=True, V4a=True, V4b=True, V5=True, V6=True, V7=True, V8=True),
}


@dataclass
class MatrixResult:
    trials: int
    seed: int
    results: dict[tuple[str, str], int | None]  # (attack, rung) -> blocked trials, None = skip

    def matches_expected(self) -> bool:
        return all(
            blocked == (self.trials if EXPECTED_MATRIX[attack][variant] else 0)
            for (attack, variant), blocked in self.results.items()
        )

    def render(self) -> str:
        def fmt(attack: str, variant: str) -> str:
            blocked = self.results[(attack, variant)]
            if blocked is None:
                return "skip"
            if blocked == self.trials:
                return "✓"
            if blocked == 0:
                return "×"
            return f"{blocked}/{self.trials}"

        grid = render_grid(
            f"attack matrix (trials={self.trials}, seed={self.seed}; "
            "✓ = blocked, × = attack succeeds)",
            list(VARIANT_KINDS),
            list(ATTACK_KINDS),
            fmt,
        )
        verdict = "matches" if self.matches_expected() else "DIFFERS FROM"
        return f"{grid}\n-> {verdict} the expected matrix"

    def csv_rows(self) -> list[list[str]]:
        rows = [["attack", "variant", "trials", "blocked_count", "skipped"]]
        for attack in ATTACK_KINDS:
            for variant in VARIANT_KINDS:
                blocked = self.results[(attack, variant)]
                rows.append([attack, variant, str(self.trials), str(blocked or 0), str(blocked is None)])
        return rows


def run_attack_matrix(trials: int = 100, seed: int = 0, token_includes_root: bool = True) -> MatrixResult:
    """Every attack against every rung, `trials` fresh-session repetitions."""
    if trials < 1:
        raise ValueError("trials must be >= 1")  # zero trials would block every attack
    results: dict[tuple[str, str], int | None] = {}
    for variant_kind in VARIANT_KINDS:
        variant = build_variant(variant_kind, seed, token_includes_root=token_includes_root)
        for attack_kind in ATTACK_KINDS:
            fn = ATTACK_FUNCS[attack_kind]
            try:
                results[(attack_kind, variant_kind)] = sum(fn(variant) for _ in range(trials))
            except EnvInsufficientError:
                results[(attack_kind, variant_kind)] = None
    return MatrixResult(trials=trials, seed=seed, results=results)
