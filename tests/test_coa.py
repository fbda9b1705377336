import pytest

from poslab.coa import (ACCEPT, ChainView, CoaNode, CoaParams, fork_choice,
                        make_genesis, min_timestamp, process_block,
                        record_double_sign, seed_from_group, view_from_path)
from poslab.comb import CombSpec
from poslab.ledger import (Block, EvidenceEntry, LedgerError, Transaction,
                           canonical_block_digest, sign)
from poslab.rng import make_rng


def small_params(**kw):
    defaults = dict(kappa=4, w=1, comb_kind="concat", g0=300, t0=4,
                    timestamp_leniency=120)
    defaults.update(kw)
    return CoaParams(**defaults)


class Builder:
    """Drives a single chain forward for tests."""

    def __init__(self, params, alloc, ts0=0):
        self.params = params
        self.genesis, self.ledger0 = make_genesis(params, alloc, timestamp=ts0)
        self.view = ChainView(params, self.genesis, self.ledger0)
        self.blocks = []

    def craft(self, gap=1, ts_extra=0, txs=(), aux=None, evidence=None,
              creator=None, sign_as=None):
        index = self.view.last_index + gap
        owner = creator or self.view.slot_candidates(gap)[-1][2]
        ts = min_timestamp(self.view.last_timestamp, index,
                           self.view.last_index, self.params.g0) + ts_extra
        block = Block(index=index, prev_digest=self.view.last_digest,
                      timestamp=ts, creator=owner, transactions=tuple(txs),
                      auxiliary_proof=aux, double_sign_evidence=evidence)
        return block.signed_by(sign_as)

    def apply(self, block, local_time=None):
        if local_time is None:
            local_time = block.timestamp
        view, reason = process_block(self.view, block, local_time)
        if reason == ACCEPT:
            self.view = view
            self.blocks.append(block)
        return reason

    def extend(self, n=1, avoid=()):
        """Produce n blocks, skipping slots whose winner is in `avoid`."""
        for _ in range(n):
            gap = 1
            while self.view.slot_candidates(gap)[-1][2] in avoid:
                gap += 1
            assert self.apply(self.craft(gap=gap)) == ACCEPT

    def spendable_utxo(self):
        """A utxo that is unfrozen and is not the next slot's deposit."""
        while True:
            next_uid = self.view.slot_candidates(1)[-1][3]
            for u in self.view.ledger.utxos.values():
                if u.uid != next_uid and not u.is_frozen(self.view.height + 1):
                    return u
            self.extend(1)


def test_seed_from_group_concat_identity():
    spec = CombSpec("concat", 4, 1)
    assert seed_from_group([1, 0, 1, 1], spec) == 0b1011
    with pytest.raises(ValueError):
        seed_from_group([1, 0], spec)


def test_min_timestamp_gap_rule():
    assert min_timestamp(1000, 5, 4, 300) == 1300
    assert min_timestamp(1000, 7, 4, 300) == 1900  # two skipped slots
    with pytest.raises(ValueError):
        min_timestamp(1000, 4, 4, 300)


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(t0=5)
    with pytest.raises(ValueError):
        small_params(c0=10, c1=6)  # c1 > c0/2
    p = small_params(kappa=2, w=9, comb_kind="iterated_majority")
    assert p.ell == 18 and p.t1 == 2


def test_honest_chain_and_recompute_equivalence():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(13)
    assert b.view.height == 13
    fresh = view_from_path(params, b.genesis, b.ledger0, b.blocks)
    assert fresh.groups == b.view.groups
    assert fresh.last_digest == b.view.last_digest
    assert fresh.ledger.utxos == b.view.ledger.utxos
    assert fresh.z_next == b.view.z_next


def test_single_eligible_creator_per_slot():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(5)
    rng = make_rng(1, "single-creator")
    for _ in range(50):
        index = b.view.last_index + int(rng.integers(1, 6))
        first = b.view.eligible_creator(index)
        second = b.view.eligible_creator(index)
        assert first == second and first[0] is not None


def test_wrong_creator_rejected():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    winner = b.view.slot_candidates(1)[-1][2]
    impostor = next(n for n in ("alice", "bob", "carol") if n != winner)
    block = b.craft(creator=impostor, sign_as=impostor)
    assert b.apply(block) == "wrong-creator"


def test_too_early_and_future_dated():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    assert b.apply(b.craft(ts_extra=-1)) == "too-early"
    ok = b.craft(ts_extra=0)
    # local clock far behind the block timestamp
    assert b.apply(ok, local_time=ok.timestamp - params.timestamp_leniency - 1) \
        == "future-dated"
    assert b.apply(ok) == ACCEPT


def test_skipped_slots_cost_g0_each():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    block = b.craft(gap=3)
    assert block.timestamp == b.genesis.timestamp + 3 * params.g0
    assert b.apply(block) == ACCEPT
    assert b.view.last_index == 3


def test_deposit_frozen_for_t0_blocks():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    creator = b.blocks[0].creator
    _owner, uid, _frozen = b.view.slots[b.blocks[0].index]
    u = b.view.ledger.utxos[uid]
    assert u.frozen_until == 1 + params.t0
    # spending it before the freeze expires fails inside a block
    tx = Transaction(((uid, b"\x00" * 16),), ((creator, u.amount),), 0)
    tx = Transaction(((uid, sign(creator, tx.signing_digest())),),
                     tx.outputs, 0)
    assert b.apply(b.craft(txs=(tx,))) == "bad-transaction"


def test_understaked_and_auxiliary_proof():
    # "small" owns a 2-coin output (below c0=3) plus a 3-coin auxiliary
    params = small_params(c0=3, c1=1)
    alloc = [("small", 2), ("small", 3), ("big", 6), ("big2", 5)]
    b = Builder(params, alloc)
    # walk until "small"'s 2-coin output (uid 0) wins a slot while the
    # auxiliary (uid 1) carries no deposit freeze of its own
    for _ in range(300):
        cands = b.view.slot_candidates(1)
        if cands[-1][3] == 0 and \
                not b.view.ledger.utxos[1].is_frozen(b.view.height + 1):
            break
        gap = 1
        while b.view.slot_candidates(gap)[-1][3] == 0:
            gap += 1
        assert b.apply(b.craft(gap=gap)) == ACCEPT
    else:
        pytest.fail("uid 0 never won a slot with an unfrozen auxiliary")
    assert b.apply(b.craft()) == "understaked"
    aux_uid = 1
    # frozen auxiliary is refused
    saved = b.view.ledger
    b.view.ledger = saved.with_frozen(aux_uid, until=b.view.height + 10)
    assert b.apply(b.craft(aux=aux_uid)) == "frozen-stake"
    b.view.ledger = saved
    block = b.craft(aux=aux_uid)
    assert b.apply(block) == ACCEPT
    # both outputs are now frozen as the deposit
    assert b.view.ledger.utxos[0].frozen_until == b.view.height + params.t0
    assert b.view.ledger.utxos[aux_uid].frozen_until == b.view.height + params.t0


def test_chain_binding():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(4)
    u = b.spendable_utxo()
    def bound_tx(latest):
        tx = Transaction(((u.uid, b"\x00" * 16),), ((u.owner, u.amount),), latest)
        return Transaction(((u.uid, sign(u.owner, tx.signing_digest())),),
                           tx.outputs, latest)
    missing = b.view.last_index + 50
    assert b.apply(b.craft(txs=(bound_tx(missing),))) == "binding-violation"
    # binding to the block being created is allowed
    next_index = b.view.last_index + 1
    assert b.apply(b.craft(txs=(bound_tx(next_index),))) == ACCEPT


def test_fee_credited_to_creator_and_frozen():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(4)
    u = b.spendable_utxo()
    tx = Transaction(((u.uid, b"\x00" * 16),), ((u.owner, u.amount - 1),), 0, fee=1)
    tx = Transaction(((u.uid, sign(u.owner, tx.signing_digest())),),
                     tx.outputs, 0, fee=1)
    block = b.craft(txs=(tx,))
    assert b.apply(block) == ACCEPT
    fee_utxo = b.view.ledger.utxos[b.view.ledger.next_uid - 1]
    assert fee_utxo.owner == block.creator and fee_utxo.amount == 1
    assert fee_utxo.frozen_until == b.view.height + params.t0


def make_evidence(offense_block, creator):
    d1 = canonical_block_digest(offense_block)
    d2 = bytes(32)  # a conflicting header digest for the same slot
    return (EvidenceEntry(offense_block.index, creator, d1, sign(creator, d1)),
            EvidenceEntry(offense_block.index, creator, d2, sign(creator, d2)))


def test_double_sign_confiscation_conservation():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(2)
    offender_block = b.blocks[-1]
    evidence = make_evidence(offender_block, offender_block.creator)
    live_before = b.view.ledger.live_total
    _owner, offender_uid, _frozen = b.view.slots[offender_block.index]
    confiscated = b.view.ledger.utxos[offender_uid].amount
    block = b.craft(evidence=evidence)
    assert b.apply(block) == ACCEPT
    assert b.view.ledger.live_total == live_before - (confiscated - params.c1)
    assert b.view.ledger.destroyed == confiscated - params.c1
    reporter_utxo = [u for u in b.view.ledger.utxos.values()
                     if u.owner == block.creator and u.amount == params.c1]
    assert reporter_utxo
    # the same evidence cannot be cashed twice
    assert b.apply(b.craft(evidence=evidence)) == "bad-evidence"


def test_stale_evidence_rejected():
    params = small_params(c0=2, c1=1, t0=4)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    offense = b.blocks[0]
    evidence = make_evidence(offense, offense.creator)
    b.extend(params.t0)  # now the offense is t0+1 slots in the past
    assert b.view.last_index - offense.index >= params.t0
    assert b.apply(b.craft(evidence=evidence)) == "bad-evidence"


def test_record_double_sign_standalone():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(2)
    offense = b.blocks[-1]
    evidence = make_evidence(offense, offense.creator)
    view2, effect = record_double_sign(b.view, evidence,
                                       offense.index + 1, "reporter")
    assert effect["confiscated"] == effect["awarded"] + effect["destroyed"]
    assert effect["awarded"] == params.c1
    with pytest.raises(LedgerError):
        record_double_sign(view2, evidence, offense.index + 2, "reporter")


def test_malformed_evidence_rejected():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    offense = b.blocks[0]
    good = make_evidence(offense, offense.creator)
    same_digest = (good[0], good[0])
    assert b.apply(b.craft(evidence=same_digest)) == "bad-evidence"
    bad_sig = (good[0], EvidenceEntry(offense.index, offense.creator,
                                      bytes(32), b"\x00" * 16))
    assert b.apply(b.craft(evidence=bad_sig)) == "bad-evidence"
    wrong_creator = next(n for n in ("alice", "bob", "carol")
                         if n != offense.creator)
    d1, d2 = b"\x01" * 32, b"\x02" * 32
    forged = (EvidenceEntry(offense.index, wrong_creator, d1,
                            sign(wrong_creator, d1)),
              EvidenceEntry(offense.index, wrong_creator, d2,
                            sign(wrong_creator, d2)))
    assert b.apply(b.craft(evidence=forged)) == "bad-evidence"


def test_three_strikes_blacklist_timing():
    params = small_params()
    alloc = [("lazy", 5), ("alice", 4), ("bob", 4), ("carol", 3)]
    b = Builder(params, alloc)
    lazy_uid = 0
    # lazy never produces; walk until the pending blacklist is scheduled
    for _ in range(400):
        b.extend(1, avoid=("lazy",))
        if b.view.pending_blacklist or lazy_uid in b.view.ledger.blacklist:
            break
    else:
        pytest.fail("lazy never accumulated three strikes")
    if lazy_uid not in b.view.ledger.blacklist:
        (activation, uids), = list(b.view.pending_blacklist.items())
        assert lazy_uid in uids
        # activation is scheduled for the after-next group
        assert activation >= b.view.current_group + 1
        while b.view.current_group < activation:
            b.extend(1, avoid=("lazy",))
    assert lazy_uid in b.view.ledger.blacklist
    # once blacklisted, the skip rule never derives the output again
    for index, _z, _owner, uid in b.view.slot_candidates(20):
        assert uid != lazy_uid


def test_strikes_reset_on_production():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(30)
    # any output that produced a block has zero strikes afterwards
    for block in b.blocks:
        _o, uid, _d = b.view.slots[block.index]
        if uid in b.view.ledger.utxos:
            after_production = [
                i for i in b.view.slots
                if i > block.index and b.view.slots[i][1] == uid]
            if not after_production:
                assert b.view.ledger.utxos[uid].strikes == 0


def test_interleaving_cement():
    """Group g's seed and anchor pin group g+2's slot sequence exactly; a
    mutated group-(g+1) block must not move them."""
    params = small_params()
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    ell = params.ell

    base = Builder(params, alloc)
    base.extend(2 * ell)          # complete groups 1 and 2
    twin = Builder(params, alloc)
    for block in base.blocks:
        assert twin.apply(block) == ACCEPT
    # rebuild group 3 in the twin with shifted timestamps (mutated blocks)
    base.extend(ell)
    for _ in range(ell):
        gap = 1
        while twin.view.slot_candidates(gap)[-1][2] is None:
            gap += 1
        assert twin.apply(twin.craft(gap=gap, ts_extra=17)) == ACCEPT
    assert base.view.current_group == twin.view.current_group == 4
    # group 4 derives from group 2: identical in both chains
    assert base.view.groups[2][0] == twin.view.groups[2][0]
    base_slots = [(o, u) for _i, _z, o, u in base.view.slot_candidates(8)]
    twin_slots = [(o, u) for _i, _z, o, u in twin.view.slot_candidates(8)]
    assert base_slots == twin_slots


def test_node_orphan_and_duplicate():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(3)
    node = CoaNode(params, b.genesis, b.ledger0)
    assert node.receive_block(b.blocks[1]) == (False, "orphan")
    assert node.receive_chain(b.blocks) == 3
    assert node.receive_block(b.blocks[0]) == (True, "duplicate")


def test_checkpoint_solidification_and_fork_rejection():
    params = small_params(t0=4)  # t1 = 2
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(6)
    node = CoaNode(params, main.genesis, main.ledger0)
    node.receive_chain(main.blocks)
    # first candidate at height 4 solidified height 2, height 6 solidified 4
    assert node.solidified_height == 4
    # a fork branching below the solidified prefix is rejected outright
    fork = Builder(params, alloc)
    fork.extend(1, avoid=(main.blocks[0].creator,))
    ok, reason = node.receive_block(fork.blocks[0])
    assert (ok, reason) == (False, "below-solidified")
    # the solidified prefix never reverts
    assert node.solidified_height == 4


def test_reorg_allowed_above_solidified():
    params = small_params(t0=8)  # t1 = 4: nothing solid before height 8
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(2)
    node = CoaNode(params, main.genesis, main.ledger0)
    node.receive_chain(main.blocks)
    short_tip = node.best_tip
    # a longer fork skipping the first winner arrives later and wins
    fork = Builder(params, alloc)
    fork.extend(3, avoid=(main.blocks[0].creator,))
    assert node.receive_chain(fork.blocks) == 3
    assert node.best_tip != short_tip
    assert node.tree.height[node.best_tip] == 3
    assert fork_choice(node.tree) == node.best_tip


def test_equal_length_tie_keeps_first_seen():
    params = small_params()
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(2)
    node = CoaNode(params, main.genesis, main.ledger0)
    node.receive_chain(main.blocks)
    first_tip = node.best_tip
    fork = Builder(params, alloc)
    fork.extend(2, avoid=(main.blocks[0].creator,))
    node.receive_chain(fork.blocks)
    assert node.tree.height[node.best_tip] == 2
    assert node.best_tip == first_tip


def test_blacklisted_derivations_consume_no_index_or_time():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    # blacklist an output by hand; derivation skips it without an index gap
    victim = b.view.slot_candidates(1)[-1]
    b.view.ledger = b.view.ledger.with_blacklisted([victim[3]])
    replacement = b.view.slot_candidates(1)[-1]
    assert replacement[3] != victim[3]
    assert replacement[0] == victim[0]          # same block index
    block = b.craft()
    assert block.creator == replacement[2]
    assert block.timestamp == b.view.last_timestamp + params.g0  # no extra G0
    assert b.apply(block) == ACCEPT


def test_confiscation_event_only_for_accepted_blocks():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(2)
    offense = b.blocks[-1]
    evidence = make_evidence(offense, offense.creator)
    unbound = Transaction(((0, b"\x00" * 16),), (("alice", 1),),
                          b.view.last_index + 50)
    events = []
    observe = lambda kind, payload: events.append((kind, payload))
    block = b.craft(evidence=evidence, txs=(unbound,))
    assert process_block(b.view, block, observer=observe) \
        == (None, "binding-violation")
    assert events == []
    _view, reason = process_block(b.view, b.craft(evidence=evidence),
                                  observer=observe)
    assert reason == ACCEPT
    (kind, payload), = events
    assert kind == "confiscation"
    assert set(payload) == {"confiscated", "awarded", "destroyed",
                            "offense_index", "reporter"}


def signed_spend(u, latest=0, fee=0):
    """A transaction paying output `u` back to its owner, less `fee`."""
    outputs = ((u.owner, u.amount - fee),)
    tx = Transaction(((u.uid, b"\x00" * 16),), outputs, latest, fee=fee)
    return Transaction(((u.uid, sign(u.owner, tx.signing_digest())),),
                       outputs, latest, fee=fee)


def assert_same_view(view, fresh):
    ours, theirs = dict(vars(view)), dict(vars(fresh))
    ledger, fresh_ledger = ours.pop("ledger"), theirs.pop("ledger")
    assert ours == theirs
    for name in ("utxos", "blacklist", "total_supply", "destroyed", "next_uid"):
        assert getattr(ledger, name) == getattr(fresh_ledger, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fork_tree_views_equal_recompute(seed):
    """Every view a node holds after shuffled delivery of competing chains
    equals the recompute from genesis of that view's path."""
    params = small_params(t0=20)  # nothing solidifies below height 20
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(3)
    fee_tx = signed_spend(main.spendable_utxo(), fee=1)
    assert main.apply(main.craft(txs=(fee_tx,))) == ACCEPT
    main.extend(4)

    skipper = Builder(params, alloc)        # skipped slots from block 3 on
    for block in main.blocks[:2]:
        assert skipper.apply(block) == ACCEPT
    assert skipper.apply(skipper.craft(gap=2)) == ACCEPT
    skipper.extend(4, avoid=(main.blocks[2].creator,))
    sibling = Builder(params, alloc)        # forks off the skipping chain
    for block in skipper.blocks[:4]:
        assert sibling.apply(block) == ACCEPT
    assert sibling.apply(sibling.craft(gap=3)) == ACCEPT
    sibling.extend(2)

    reporter = Builder(params, alloc)       # double-sign evidence block
    prefix = len(main.blocks) - 3
    for block in main.blocks[:prefix]:
        assert reporter.apply(block) == ACCEPT
    offense = reporter.blocks[-1]
    evidence = make_evidence(offense, offense.creator)
    assert reporter.apply(reporter.craft(evidence=evidence)) == ACCEPT
    assert reporter.view.punished == {offense.index}
    reporter.extend(2)

    chains = (main, skipper, sibling, reporter)
    blocks = {canonical_block_digest(blk): blk
              for chain in chains for blk in chain.blocks}
    node = CoaNode(params, main.genesis, main.ledger0)
    pending = list(blocks.values())
    rng = make_rng(seed, "fork-tree")
    while pending:
        orphans = []
        for i in rng.permutation(len(pending)):
            ok, reason = node.receive_block(pending[i])
            assert reason in (ACCEPT, "orphan"), reason
            if not ok:
                orphans.append(pending[i])
        assert len(orphans) < len(pending)
        pending = orphans
    assert len(node.views) == len(blocks) + 1
    for digest, view in node.views.items():
        path = [node.tree.blocks[d] for d in node.tree.path(digest)[1:]]
        assert_same_view(view, view_from_path(params, main.genesis,
                                              main.ledger0, path))

    # a skipped slot's index is not a block of the chain: binding fails
    skipped = [i for i, (_o, _u, frozen) in skipper.view.slots.items()
               if not frozen]
    assert skipped
    u = skipper.spendable_utxo()
    assert skipper.apply(skipper.craft(
        txs=(signed_spend(u, latest=skipped[0]),))) == "binding-violation"
    assert skipper.apply(skipper.craft(
        txs=(signed_spend(u, latest=skipper.blocks[0].index),))) == ACCEPT
