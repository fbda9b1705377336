import numpy as np
import pytest
from scipy import stats

from poslab.coa import ChainView, CoaParams
from poslab.fts import derivation_digest, follow_the_satoshi, satoshi_index
from poslab.ledger import Block, LedgerError, LedgerState
from poslab.netsim import ENGINES
from poslab.rng import make_rng

COA_DEFAULTS = {key: default
                for key, (_kind, default) in ENGINES["coa"].params.items()}


def genesis_view(ledger, seed, kappa):
    """A chain view at genesis over `ledger`: it derives the slots of group
    1, anchored at index 0, from the bootstrap `seed`."""
    genesis = Block(index=0, prev_digest=b"\x00" * 32, timestamp=0,
                    creator="genesis", genesis_seed=seed)
    return ChainView(CoaParams(kappa=kappa, **COA_DEFAULTS), genesis, ledger)


def test_derivation_is_deterministic():
    ledger = LedgerState.from_allocation([("a", 10), ("b", 6)])
    first = genesis_view(ledger, 0x5a5, 12).slot_derivation()(3)
    assert first == genesis_view(ledger, 0x5a5, 12).slot_derivation()(3)
    assert first == follow_the_satoshi(
        ledger, satoshi_index(0, 3, 0x5a5, 12, ledger.total_supply))


def test_digest_distinct_inputs():
    seen = set()
    for anchor in range(4):
        for slot in range(1, 5):
            for seed in range(4):
                seen.add(derivation_digest(anchor, slot, seed, 8))
    assert len(seen) == 64


def test_out_of_range_index_raises():
    ledger = LedgerState.from_allocation([("a", 4)])
    with pytest.raises(LedgerError):
        follow_the_satoshi(ledger, 4)


def test_destroyed_hole_returns_none():
    ledger = LedgerState.from_allocation([("a", 4), ("b", 4)])
    burned = ledger.confiscate([0], award=0, reporter="r")
    assert follow_the_satoshi(burned, 1) == (None, None)
    assert follow_the_satoshi(burned, 5)[0] == "b"


def test_proportionality_chi_square():
    """Win frequencies match the stake distribution (p > 0.01 at 10^5 draws)."""
    alloc = [("a", 500), ("b", 300), ("c", 150), ("d", 50)]
    ledger = LedgerState.from_allocation(alloc)
    derive = genesis_view(ledger, 0x3c, 10).slot_derivation()
    counts = {name: 0 for name, _a in alloc}
    n = 10 ** 5
    for z in range(1, n + 1):
        owner, _uid = derive(z)
        counts[owner] += 1
    observed = [counts[name] for name, _a in alloc]
    expected = [n * a / 1000 for _name, a in alloc]
    _stat, p = stats.chisquare(observed, expected)
    assert p > 0.01, p


def test_sybil_invariance_exact():
    """Splitting a holder's output into many outputs never changes who wins."""
    whole = LedgerState.from_allocation([("a", 400), ("b", 624)])
    split = LedgerState.from_allocation(
        [("a", 100), ("a", 150), ("a", 150), ("b", 300), ("b", 324)])
    assert whole.total_supply == split.total_supply == 1024
    whole_derive = genesis_view(whole, 0x155, 10).slot_derivation()
    split_derive = genesis_view(split, 0x155, 10).slot_derivation()
    for z in range(1, 4000):
        assert whole_derive(z)[0] == split_derive(z)[0]


def test_repartition_preserves_distribution_after_transactions():
    from poslab.ledger import Transaction, sign
    rng = make_rng(3, "fts-repartition")
    ledger = LedgerState.from_allocation([("a", 600), ("b", 424)])
    # b re-partitions its own coins into three outputs
    tx = Transaction(((1, b"\x00" * 16),), (("b", 100), ("b", 200), ("b", 124)), 0)
    tx = Transaction(((1, sign("b", tx.signing_digest())),), tx.outputs, 0)
    after = ledger.apply_transaction(tx, 1)
    before_derive = genesis_view(ledger, 9, 10).slot_derivation()
    after_derive = genesis_view(after, 9, 10).slot_derivation()
    for _ in range(2000):
        z = int(rng.integers(1, 10 ** 6))
        assert before_derive(z)[0] == after_derive(z)[0]


def test_satoshi_index_within_supply():
    rng = make_rng(4, "fts-range")
    for _ in range(500):
        supply = int(rng.integers(1, 10 ** 9))
        idx = satoshi_index(int(rng.integers(0, 100)), int(rng.integers(1, 100)),
                            int(rng.integers(0, 2 ** 16)), 16, supply)
        assert 0 <= idx < supply
