"""Search-bound proximity proofs over an encrypted geospatial index.

The package wires four pieces together: an HMAC-token geohash index
(:mod:`sbpp.geoindex`), a nonce-issuing session store (:mod:`sbpp.session`),
Merkle result-set commitments (:mod:`sbpp.merkle`), and a simulated
proximity-proof backend (:mod:`sbpp.nizk`).  :mod:`sbpp.protocol` runs the
end-to-end flow, :mod:`sbpp.variants` exposes the weakened comparison rungs,
and :mod:`sbpp.harness` holds the attack scripts and experiments.  Import each name from the module
that defines it; the package root re-exports nothing.
"""

__version__ = "0.1.0"
