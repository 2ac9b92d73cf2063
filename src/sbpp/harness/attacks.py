"""Adversary scripts and the variant-by-attack matrix.

Each attack is a deterministic manipulation script run against a live
variant instance; a "trial" opens fresh sessions (fresh nonces) and replays
the same strategy.  The adversary can re-route anything a client computes
locally but cannot mint server-signed evidence for contexts the server
never issued.

Attacks:
  A1   substitute a proof from the adversary's first session into a second
  A2   replay a victim's intercepted request under the adversary's session
  A3   retarget an accepted drop's credentials at a different drop
  A4a  unlock a drop the search never returned (online)
  A4b  forge the offline audit trail for a never-returned drop (splice two
       sessions' records, or fabricate membership outright)
  A5   hold a fully built honest request past the session TTL
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from .. import nizk
from ..geoindex import Drop
from ..protocol import SbppClient, SbppServer
from ..receipt import server_keygen
from ..variants import VARIANT_KINDS, VariantEnv, make_variant
from .report import render_grid

ATTACK_KINDS = ("A1", "A2", "A3", "A4a", "A4b", "A5")

# Fixed desk-scale geometry: a candidate cluster near the query point and a
# lone drop ~12 km east, so it never lands in the 1 km query's cover.
QUERY_LAT, QUERY_LON = 35.70, 139.75
OUT_LAT, OUT_LON = 35.70, 139.88
OUT_DROP_ID = "zz-out"
RADIUS_M = 1000.0
T0 = 1_700_000_000
TTL_S = 300

WITNESS_NEAR_QUERY = nizk.Witness(QUERY_LAT + 0.0001, QUERY_LON + 0.0001)
WITNESS_NEAR_OUT = nizk.Witness(OUT_LAT + 0.0001, OUT_LON + 0.0001)
OUT_DROP = Drop(OUT_DROP_ID, OUT_LAT, OUT_LON)


class EnvInsufficientError(RuntimeError):
    """The environment cannot satisfy an attack's preconditions."""


@dataclass(frozen=True)
class AttackResult:
    variant: str
    attack: str
    trials: int
    blocked_count: int
    skipped: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.blocked_count <= self.trials:
            raise ValueError("blocked_count out of range")

    @property
    def blocked(self) -> bool:
        return not self.skipped and self.blocked_count == self.trials


def attack_corpus() -> list[Drop]:
    drops = [
        Drop(f"d{i:02d}", QUERY_LAT + i * 0.0004, QUERY_LON + i * 0.0004) for i in range(6)
    ]
    drops.append(OUT_DROP)
    return drops


def derive_key(label: str, seed: int, n: int = 32) -> bytes:
    return hashlib.sha256(f"{label}:{seed}".encode()).digest()[:n]


def seeded_env(seed: int, drops: list[Drop] | None = None, **fields) -> VariantEnv:
    """The one seeded deployment: every key and a fresh nonce RNG derive
    from ``seed``, over ``drops`` (default: the attack corpus).  ``fields``
    override the env's plain fields (search key, precisions, ttl, pv,
    epoch, radius)."""
    proving_key, verifying_key = nizk.setup(derive_key("nizk", seed))
    env = VariantEnv(
        drops=attack_corpus() if drops is None else drops,
        search_key=derive_key("search", seed),
        signing_key=server_keygen(derive_key("sign", seed)),
        proving_key=proving_key,
        verifying_key=verifying_key,
        mac_key=derive_key("mac", seed),
        ttl_s=TTL_S,
        unlock_radius_m=RADIUS_M,
        nonce_rng=random.Random(seed),
    )
    return replace(env, **fields) if fields else env


def protocol_pair(
    env: VariantEnv, mode: str, server_cls: type[SbppServer] = SbppServer
) -> tuple[SbppServer, SbppClient]:
    """The protocol's server and client over one environment.  The server
    draws its nonces from ``env.nonce_rng``, so give each server its own."""
    server = server_cls(
        drops=env.drops,
        search_key=env.search_key,
        signing_key=env.signing_key,
        nizk_vk=env.verifying_key,
        mode=mode,
        precisions=list(env.precisions),
        ttl_s=env.ttl_s,
        pv=env.pv,
        epoch=env.epoch,
        unlock_radius_m=env.unlock_radius_m,
        nonce_rng=env.nonce_rng,
    )
    return server, SbppClient(env.search_key, env.proving_key)


def build_variant(
    kind: str, seed: int, token_includes_root: bool = True, drops: list[Drop] | None = None
):
    """One rung over the seeded environment."""
    return make_variant(kind, seeded_env(seed, drops), token_includes_root=token_includes_root)


def _searched_sessions(variant, n: int, now: int = T0):
    out = []
    for _ in range(n):
        s = variant.open_session(now)
        variant.search(s, QUERY_LAT, QUERY_LON, RADIUS_M, now)
        if not s.result_ids():
            raise EnvInsufficientError("search returned no candidates")
        out.append(s)
    return out


def attack_a1(variant) -> bool:
    """Cross-session proof substitution between two adversary sessions."""
    s1, s2 = _searched_sessions(variant, 2)
    request = variant.build_unlock(s1, s1.result_ids()[0], WITNESS_NEAR_QUERY)
    adapted = variant.rebind_request(request, s2)
    return not variant.verify(adapted, T0 + 5).accepted


def attack_a2(variant) -> bool:
    """Replay of an intercepted (already-spent) request under a new session."""
    victim, attacker = _searched_sessions(variant, 2)
    request = variant.build_unlock(victim, victim.result_ids()[0], WITNESS_NEAR_QUERY)
    variant.verify(request, T0 + 5)  # the victim spends it; adversary taped it
    replay = variant.rebind_request(request, attacker)
    return not variant.verify(replay, T0 + 10).accepted


def attack_a3(variant) -> bool:
    """Retarget credentials issued for one drop at a sibling drop."""
    (s,) = _searched_sessions(variant, 1)
    ids = s.result_ids()
    if len(ids) < 2:
        raise EnvInsufficientError("retargeting needs two drops in one result set")
    request = variant.build_unlock(s, ids[0], WITNESS_NEAR_QUERY)
    adapted = variant.retarget_request(request, s, ids[1])
    return not variant.verify(adapted, T0 + 5).accepted


def attack_a4a(variant) -> bool:
    """Unlock a drop outside the returned result set, proving from afar."""
    (s,) = _searched_sessions(variant, 1)
    if OUT_DROP_ID in s.result_ids():
        raise EnvInsufficientError("outlier drop unexpectedly matched the search")
    request = variant.build_nonmember_unlock(s, OUT_DROP, WITNESS_NEAR_OUT)
    return not variant.verify(request, T0 + 5).accepted


def attack_a4b(variant) -> bool:
    """Defeat the offline audit: blocked only if honest records attest AND
    both forgery routes (record splicing, membership fabrication) fail."""
    if not variant.has_proximity_proof:
        return False  # nothing in the trail proves proximity
    s1, s2 = _searched_sessions(variant, 2)
    drop_id = s1.result_ids()[0]
    if drop_id not in s2.result_ids():
        raise EnvInsufficientError("no common drop across the two sessions")
    rec1 = variant.audit_record(s1, variant.build_unlock(s1, drop_id, WITNESS_NEAR_QUERY))
    rec2 = variant.audit_record(s2, variant.build_unlock(s2, drop_id, WITNESS_NEAR_QUERY))
    if not (variant.audit(rec1).accepted and variant.audit(rec2).accepted):
        return False  # honest trails don't attest, so there is nothing to defeat
    if variant.audit(variant.splice_records(rec1, rec2)).accepted:
        return False
    fabricated = variant.fabricate_nonmember_record(s1, OUT_DROP, WITNESS_NEAR_OUT)
    if variant.audit(fabricated).accepted:
        return False
    return True


def attack_a5(variant) -> bool:
    """Build honestly, then sit on the request until the TTL lapses."""
    (s,) = _searched_sessions(variant, 1)
    request = variant.build_unlock(s, s.result_ids()[0], WITNESS_NEAR_QUERY)
    return not variant.verify(request, T0 + TTL_S).accepted


ATTACK_FUNCS = {
    "A1": attack_a1,
    "A2": attack_a2,
    "A3": attack_a3,
    "A4a": attack_a4a,
    "A4b": attack_a4b,
    "A5": attack_a5,
}

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
    results: dict[tuple[str, str], AttackResult]

    def cell(self, attack: str, variant: str) -> AttackResult:
        return self.results[(attack, variant)]

    def matches_expected(self) -> bool:
        for (attack, variant), res in self.results.items():
            if res.skipped:
                return False
            want = EXPECTED_MATRIX[attack][variant]
            if res.blocked_count != (res.trials if want else 0):
                return False
        return True

    def render(self) -> str:
        def fmt(attack: str, variant: str) -> str:
            res = self.cell(attack, variant)
            if res.skipped:
                return "skip"
            if res.blocked_count == res.trials:
                return "✓"
            if res.blocked_count == 0:
                return "×"
            return f"{res.blocked_count}/{res.trials}"

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
                r = self.cell(attack, variant)
                rows.append([attack, variant, str(r.trials), str(r.blocked_count), str(r.skipped)])
        return rows


def run_attack_matrix(trials: int = 100, seed: int = 0, token_includes_root: bool = True) -> MatrixResult:
    """Every attack against every rung, `trials` fresh-session repetitions."""
    results: dict[tuple[str, str], AttackResult] = {}
    for variant_kind in VARIANT_KINDS:
        variant = build_variant(variant_kind, seed, token_includes_root=token_includes_root)
        for attack_kind in ATTACK_KINDS:
            fn = ATTACK_FUNCS[attack_kind]
            blocked = 0
            skipped = False
            for _ in range(trials):
                try:
                    blocked += int(fn(variant))
                except EnvInsufficientError:
                    skipped = True
                    break
            results[(attack_kind, variant_kind)] = AttackResult(
                variant=variant_kind,
                attack=attack_kind,
                trials=trials,
                blocked_count=0 if skipped else blocked,
                skipped=skipped,
            )
    return MatrixResult(trials=trials, seed=seed, results=results)
