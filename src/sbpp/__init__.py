"""Search-bound proximity proofs over an encrypted geospatial index.

The package wires four pieces together: an HMAC-token geohash index
(:mod:`sbpp.geoindex`), a nonce-issuing session store (:mod:`sbpp.session`),
Merkle result-set commitments (:mod:`sbpp.merkle`), and a simulated
proximity-proof backend (:mod:`sbpp.nizk`).  :mod:`sbpp.protocol` runs the
end-to-end flow, :mod:`sbpp.variants` exposes the weakened comparison rungs,
and :mod:`sbpp.harness` holds the attack scripts and experiments.
"""

from .canon import FieldElement, Q, cd_core, cd_full, digest, lp_decode, lp_encode
from .geoindex import Drop, build_index, client_tokens, geohash_encode, haversine_m
from .merkle import Cell, MerklePath, MerkleTree, build_tree, verify_membership
from .nizk import Proof, PublicInputs, Witness, make_public_inputs, prove, setup, verify
from .protocol import (
    AuditRecord,
    SbppClient,
    SbppServer,
    UnlockRequest,
    VerifyOutcome,
    audit,
    emit_audit_record,
)
from .receipt import Receipt, server_keygen, sign_receipt, verify_receipt
from .session import SessionStore

__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "Cell",
    "Drop",
    "FieldElement",
    "MerklePath",
    "MerkleTree",
    "Proof",
    "PublicInputs",
    "Q",
    "Receipt",
    "SbppClient",
    "SbppServer",
    "SessionStore",
    "UnlockRequest",
    "VerifyOutcome",
    "Witness",
    "audit",
    "build_index",
    "build_tree",
    "cd_core",
    "cd_full",
    "client_tokens",
    "digest",
    "emit_audit_record",
    "geohash_encode",
    "haversine_m",
    "lp_decode",
    "lp_encode",
    "make_public_inputs",
    "prove",
    "server_keygen",
    "setup",
    "sign_receipt",
    "verify",
    "verify_membership",
    "verify_receipt",
    "__version__",
]
