import hashlib
import math

import numpy as np
import pytest

from poslab import dense
from poslab.dense import (AggregateSignature, CommitteeRound, SECRET_BYTES,
                          assemble_dense_block, commit_hash,
                          committee_participation_probability,
                          derive_committee, expected_completion_time,
                          grinding_log2_cost, member_sign, next_seed,
                          round1_commit, round2_sign_and_aggregate,
                          validate_dense_block, verify_aggregate)
from poslab.ledger import LedgerError, LedgerState
from poslab.rng import make_rng

ALLOC = [("a", 500), ("b", 300), ("c", 150), ("d", 74)]


def make_round(ledger, index=1, t=0, ell=5, kappa=10, prev_seed=0x2a7):
    members = derive_committee(prev_seed, index, t, ledger, ell, kappa)
    return CommitteeRound(index, t, members)


def run_round(committee, rng):
    secrets = {}
    for pos in range(committee.ell):
        secret, commitment = round1_commit(rng)
        committee.add_commit(pos, commitment)
        secrets[pos] = secret
    signatures = {pos: member_sign(owner, committee)
                  for pos, (owner, _uid) in enumerate(committee.members)}
    agg = round2_sign_and_aggregate(committee, signatures)
    for pos, secret in secrets.items():
        committee.add_reveal(pos, secret)
    return agg


def test_run_round_is_the_step_by_step_round():
    """``dense.run_round`` draws the members' secrets in member order and
    returns the aggregate and the next seed of the round run step by step,
    leaving its rng where the steps leave theirs."""
    ledger = LedgerState.from_allocation(ALLOC)
    committee = make_round(ledger, index=3, t=2)
    steps = make_rng(7, "dense-round")
    agg = run_round(committee, steps)
    seed = next_seed([committee.reveals[j] for j in range(committee.ell)], 10)
    rng = make_rng(7, "dense-round")
    assert dense.run_round(3, 2, committee.members, rng, 10) == (agg, seed)
    assert rng.bytes(16) == steps.bytes(16)


def test_committee_derivation_deterministic_and_fallback_disjoint_inputs():
    ledger = LedgerState.from_allocation(ALLOC)
    m0 = derive_committee(0x2a7, 7, 0, ledger, 5, 10)
    assert m0 == derive_committee(0x2a7, 7, 0, ledger, 5, 10)
    # the fallback committee reads derivation offsets t*ell+j, so the two
    # committees come from disjoint hash inputs (members may still coincide)
    m1 = derive_committee(0x2a7, 7, 1, ledger, 5, 10)
    assert len(m0) == len(m1) == 5
    # a different seed moves the committee
    assert derive_committee(0x155, 7, 0, ledger, 5, 10) != m0 or \
        derive_committee(0x155, 8, 0, ledger, 5, 10) != \
        derive_committee(0x2a7, 8, 0, ledger, 5, 10)


def test_committee_hits_destroyed_satoshi():
    ledger = LedgerState.from_allocation([("a", 8), ("b", 8)])
    burned = ledger.confiscate([0], award=0, reporter="r")
    with pytest.raises(LedgerError):
        for index in range(1, 50):
            derive_committee(3, index, 0, burned, 5, 4)


def test_participation_probability():
    assert committee_participation_probability(0.1, 23) == \
        pytest.approx(1 - 0.9 ** 23)
    assert committee_participation_probability(0.1, 23) == \
        pytest.approx(0.9114, abs=5e-4)
    assert committee_participation_probability(0.0, 23) == 0.0
    assert committee_participation_probability(1.0, 1) == 1.0
    with pytest.raises(ValueError):
        committee_participation_probability(1.5, 23)


def test_empirical_seat_probability_matches_formula():
    ledger = LedgerState.from_allocation(ALLOC)
    total = ledger.total_supply
    f = 300 / total  # stakeholder b
    ell, kappa = 7, 10
    hits = 0
    n = 4000
    for index in range(1, n + 1):
        members = derive_committee(0x11, index, 0, ledger, ell, kappa)
        if any(owner == "b" for owner, _uid in members):
            hits += 1
    want = committee_participation_probability(f, ell)
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(hits / n - want) < 4 * sigma


def test_commit_reveal_binding():
    ledger = LedgerState.from_allocation(ALLOC)
    committee = make_round(ledger)
    rng = make_rng(1, "dense-binding")
    secret, commitment = round1_commit(rng)
    committee.add_commit(0, commitment)
    with pytest.raises(LedgerError):
        committee.add_commit(0, commitment)  # double commit
    with pytest.raises(LedgerError):
        committee.add_reveal(0, b"\x00" * SECRET_BYTES)  # wrong preimage
    committee.add_reveal(0, secret)
    assert committee.reveals[0] == secret


def test_message_requires_all_commitments():
    ledger = LedgerState.from_allocation(ALLOC)
    committee = make_round(ledger)
    committee.add_commit(0, commit_hash(b"\x01" * 32))
    with pytest.raises(LedgerError):
        committee.message()


def test_missing_or_forged_signer_rejected():
    ledger = LedgerState.from_allocation(ALLOC)
    committee = make_round(ledger)
    rng = make_rng(2, "dense-missing")
    for pos in range(committee.ell):
        committee.add_commit(pos, round1_commit(rng)[1])
    signatures = {pos: member_sign(owner, committee)
                  for pos, (owner, _uid) in enumerate(committee.members)}
    partial = dict(signatures)
    del partial[2]
    with pytest.raises(LedgerError):
        round2_sign_and_aggregate(committee, partial)
    forged = dict(signatures)
    forged[2] = member_sign("mallory", committee)
    with pytest.raises(LedgerError):
        round2_sign_and_aggregate(committee, forged)
    agg = round2_sign_and_aggregate(committee, signatures)
    assert verify_aggregate(agg, committee.message(), committee.members)


def test_aggregate_size_constant_in_ell():
    ledger = LedgerState.from_allocation(ALLOC)
    rng = make_rng(3, "dense-size")
    sizes = set()
    for ell in (3, 10, 30):
        committee = make_round(ledger, ell=ell)
        agg = run_round(committee, rng)
        sizes.add(len(agg.tag))
    assert sizes == {32}
    with pytest.raises(ValueError):
        AggregateSignature(b"\x00" * 16, ("a",))


def test_block_assembly_and_validation():
    ledger = LedgerState.from_allocation(ALLOC)
    rng = make_rng(4, "dense-validate")
    prev_seed, kappa, g0 = 0x2a7, 10, 300
    committee = make_round(ledger, index=1, t=0, ell=5,
                           kappa=kappa, prev_seed=prev_seed)
    agg = run_round(committee, rng)
    block = assemble_dense_block(committee, agg, b"\x00" * 32, timestamp=300)
    assert validate_dense_block(block, prev_seed, ledger, kappa,
                                prev_timestamp=0, g0=g0, leniency=120) == "ok"
    # the wrong previous seed derives a different committee
    assert validate_dense_block(block, prev_seed ^ 1, ledger, kappa, 0, g0,
                                120) in ("wrong-committee", "bad-aggregate")
    # tampering with a reveal breaks the aggregate
    bad = block.reveals[:2] + (b"\x55" * 32,) + block.reveals[3:]
    tampered = assemble_dense_block(committee, agg, b"\x00" * 32, 300)
    tampered = type(tampered)(tampered.index, tampered.prev_digest, 300, 0,
                              bad, agg)
    assert validate_dense_block(tampered, prev_seed, ledger, kappa,
                                0, g0, 120) == "bad-aggregate"
    # CoA's clock test: a timestamp of local_time + leniency is admitted,
    # one second more is future-dated
    for leniency in (0, 120):
        assert validate_dense_block(block, prev_seed, ledger, kappa, 0, g0,
                                    leniency, 300 - leniency) == "ok"
        assert validate_dense_block(block, prev_seed, ledger, kappa, 0, g0,
                                    leniency, 299 - leniency) == "future-dated"


def test_fallback_timestamp_rule():
    """A block at fallback counter t must wait t extra G0 timeouts."""
    ledger = LedgerState.from_allocation(ALLOC)
    rng = make_rng(5, "dense-fallback")
    prev_seed, kappa, g0 = 0x2a7, 10, 300
    committee = make_round(ledger, index=1, t=1, ell=5,
                           kappa=kappa, prev_seed=prev_seed)
    agg = run_round(committee, rng)
    early = assemble_dense_block(committee, agg, b"\x00" * 32, timestamp=299)
    assert validate_dense_block(early, prev_seed, ledger, kappa, prev_timestamp=0,
                                g0=g0, leniency=120) == "too-early"
    on_time = assemble_dense_block(committee, agg, b"\x00" * 32, timestamp=300)
    assert validate_dense_block(on_time, prev_seed, ledger, kappa,
                                prev_timestamp=0, g0=g0, leniency=120) == "ok"


def test_incomplete_reveals_block_assembly():
    ledger = LedgerState.from_allocation(ALLOC)
    rng = make_rng(6, "dense-incomplete")
    committee = make_round(ledger)
    secrets = {}
    for pos in range(committee.ell):
        secret, commitment = round1_commit(rng)
        committee.add_commit(pos, commitment)
        secrets[pos] = secret
    signatures = {pos: member_sign(owner, committee)
                  for pos, (owner, _uid) in enumerate(committee.members)}
    agg = round2_sign_and_aggregate(committee, signatures)
    committee.add_reveal(0, secrets[0])  # only one reveal arrives
    with pytest.raises(LedgerError):
        assemble_dense_block(committee, agg, b"\x00" * 32, 300)


def test_next_seed_uniform_with_one_honest_member():
    """Each output bit stays unbiased when all members but one collude by
    fixing their secrets: verified per bit at 3 sigma over 10^5 trials."""
    kappa = 8
    rng = make_rng(7, "dense-seed-uniform")
    n = 10 ** 5
    adversarial = [b"\x13" * 32, b"\x37" * 32, b"\xff" * 32]
    counts = np.zeros(kappa, dtype=np.int64)
    honest = rng.bytes(SECRET_BYTES * n)
    for i in range(n):
        r = honest[i * SECRET_BYTES:(i + 1) * SECRET_BYTES]
        seed = next_seed(adversarial + [r], kappa)
        for bit in range(kappa):
            counts[bit] += (seed >> bit) & 1
    sigma = math.sqrt(0.25 * n)
    assert np.all(np.abs(counts - n / 2) < 3 * sigma), counts
    with pytest.raises(LedgerError):
        next_seed([], kappa)


def test_next_seed_avalanche():
    """Flipping one bit of one reveal changes the seed about half the time."""
    kappa = 16
    base = [b"\x01" * 32, b"\x02" * 32]
    s0 = next_seed(base, kappa)
    changed = 0
    trials = 400
    for k in range(trials):
        flipped = bytearray(base[0])
        flipped[k % 32] ^= 1 << (k // 32 % 8)
        if next_seed([bytes(flipped), base[1]], kappa) != s0:
            changed += 1
    assert changed / trials > 0.99


def test_closed_form_analyses():
    assert expected_completion_time(0.0, 23, 300) == 300.0
    assert expected_completion_time(0.1, 23, 300) == \
        pytest.approx(300 / 0.9 ** 23)
    with pytest.raises(ValueError):
        expected_completion_time(1.0, 5, 300)
    assert grinding_log2_cost(0.05, 23) == pytest.approx(23 * math.log2(20))
    assert grinding_log2_cost(0.05, 23) == pytest.approx(99.40, abs=0.01)
    assert grinding_log2_cost(0.1, 30) == pytest.approx(99.66, abs=0.01)
    with pytest.raises(ValueError):
        grinding_log2_cost(0.0, 23)


def test_dense_block_digest_binds_fields():
    ledger = LedgerState.from_allocation(ALLOC)
    rng = make_rng(8, "dense-digest")
    committee = make_round(ledger)
    agg = run_round(committee, rng)
    b1 = assemble_dense_block(committee, agg, b"\x00" * 32, 300)
    b2 = assemble_dense_block(committee, agg, b"\x00" * 32, 301)
    assert b1.digest() != b2.digest()
    assert b1.digest() == assemble_dense_block(
        committee, agg, b"\x00" * 32, 300).digest()
    assert hashlib.sha256  # digest backed by sha256; smoke check import
