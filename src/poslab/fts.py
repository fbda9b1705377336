"""Follow-the-satoshi: the stake lottery mapping pseudo-random indices to owners.

A satoshi index is drawn by hashing (group anchor, slot offset, seed) and
reducing the 256-bit digest modulo the total supply; the stakeholder whose
output covers that index wins. Selection probability is proportional to
stake and invariant under re-partitioning of a holder's outputs.

Hash argument encoding (pinned): sha256 over a domain tag, the anchor as a
big-endian u64, the slot offset as a u64, the seed width as a u16, and the
seed packed big-endian into ceil(kappa/8) bytes.
"""

from __future__ import annotations

import hashlib

from .ledger import LedgerState


def derivation_digest(anchor: int, slot: int, seed: int, kappa: int) -> int:
    seed_bytes = seed.to_bytes((kappa + 7) // 8, "big")
    h = hashlib.sha256(
        b"fts:" + anchor.to_bytes(8, "big") + slot.to_bytes(8, "big")
        + kappa.to_bytes(2, "big") + seed_bytes
    ).digest()
    return int.from_bytes(h, "big")


def satoshi_index(anchor: int, slot: int, seed: int, kappa: int, supply: int) -> int:
    """Reduce the derivation digest to a satoshi index.

    Modulo bias of the 256-bit reduction is below 2^-200 for kappa <= 64.
    """
    return derivation_digest(anchor, slot, seed, kappa) % supply


def follow_the_satoshi(ledger: LedgerState, index: int) -> tuple:
    """Resolve a satoshi index to (owner, utxo id).

    Raises LedgerError for out-of-range indices. Returns (None, None) when the
    index falls into a destroyed (confiscated) hole.
    """
    u = ledger.utxo_covering(index)
    if u is None:
        return (None, None)
    return (u.owner, u.uid)

