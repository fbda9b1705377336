import copy
import hashlib
import itertools
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poslab import coa
from poslab.coa import (ACCEPT, LOOKAHEAD, ChainView, CoaNode, CoaParams,
                        make_genesis, min_timestamp, process_block,
                        view_from_path)
from poslab.comb import CombSpec, comb_apply
from poslab.ledger import (Block, BlockTree, EvidenceEntry, LedgerError,
                           LedgerState, Transaction, block_bit,
                           canonical_block_digest, sign)
from poslab.netsim import ENGINES
from poslab.rng import make_rng

COA_DEFAULTS = {key: default
                for key, (_kind, default) in ENGINES["coa"].params.items()}


def small_params(**kw):
    return CoaParams(**{**COA_DEFAULTS, "kappa": 4, "t0": 4, **kw})


def genesis_state(view):
    """The fork-choice state that marks only the genesis view `view`, with
    its params' checkpoint period."""
    return BlockTree(view.last_block, view, view.params.t1)


def receive_chain(node, blocks, local_time=None):
    """Deliver `blocks` to `node` in order; returns how many it accepted or
    already had."""
    return sum(node.receive_block(block, local_time)[0] for block in blocks)


class Builder:
    """Drives a single chain forward for tests."""

    def __init__(self, params, alloc, ts0=0):
        self.params = params
        self.genesis, self.ledger0 = make_genesis(params, alloc, timestamp=ts0)
        self.view = ChainView(params, self.genesis, self.ledger0)
        self.blocks = []

    def craft(self, gap=1, ts_extra=0, txs=(), aux=None, evidence=None,
              creator=None, sign_as=None):
        last = self.view.last_block
        index = last.index + gap
        owner = creator or self.view.slot_candidates(gap)[-1][2]
        ts = min_timestamp(last.timestamp, index, last.index,
                           self.params.g0_seconds) + ts_extra
        block = Block(index=index, prev_digest=last.digest,
                      timestamp=ts, creator=owner, transactions=tuple(txs),
                      auxiliary_proof=aux, double_sign_evidence=evidence)
        return block.signed_by(sign_as)

    def apply(self, block, local_time=None):
        """Offer `block` to the chain's tip, as a node whose clock reads
        `local_time` would (None: no clock test)."""
        if local_time is not None \
                and coa.future_dated(self.params.timestamp_leniency,
                                     block.timestamp, local_time):
            return "future-dated"
        view, reason = process_block(self.view, block)
        if reason == ACCEPT:
            self.view = view
            self.blocks.append(block)
        return reason

    def node(self):
        """A node on a genesis view and state of its own."""
        return CoaNode(genesis_state(ChainView(
            self.params, self.genesis, self.ledger0)))

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


def test_block_digest_is_computed_once_per_block(monkeypatch):
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    nodes = [b.node() for _ in range(5)]
    block = b.craft()
    encodes = []
    encode = Block.encode
    monkeypatch.setattr(Block, "encode",
                        lambda self: encodes.append(self) or encode(self))
    for node in nodes:
        assert node.receive_block(block) == (True, ACCEPT)
    assert encodes == [block]
    assert block.digest == hashlib.sha256(b"dig:" + block.encode()).digest()
    # a new block object gets its own digest, not the one cached on `block`
    for other in (block.signed_by("mallory"),
                  replace(block, timestamp=block.timestamp + 1)):
        assert other.digest == hashlib.sha256(b"dig:" + other.encode()).digest()
        assert other.digest != block.digest


def test_seed_from_group_concat_identity():
    spec = CombSpec("concat", 4, 1)
    assert comb_apply(spec, [1, 0, 1, 1]) == 0b1011
    with pytest.raises(ValueError):
        comb_apply(spec, [1, 0])
    # a closed group's seed is the comb of its blocks' lottery bits
    b = Builder(small_params(), [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(4)
    assert b.view.groups[1] == (
        comb_apply(spec, [block_bit(blk) for blk in b.blocks]),
        b.blocks[-1].index)


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
    p = small_params(kappa=2, w=9, comb="iterated_majority")
    assert p.ell == 18 and p.t1 == 2


def test_honest_chain_and_recompute_equivalence():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(13)
    assert b.view.height == 13
    fresh = view_from_path(params, b.genesis, b.ledger0, b.blocks)
    assert fresh.groups == b.view.groups
    assert fresh.last_block.digest == b.view.last_block.digest
    assert fresh.ledger.utxos == b.view.ledger.utxos
    assert fresh.z_next == b.view.z_next


def test_single_eligible_creator_per_slot():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(5)
    rng = make_rng(1, "single-creator")
    for _ in range(50):
        index = b.view.last_block.index + int(rng.integers(1, 6))
        gap = index - b.view.last_block.index
        first = b.view.slot_candidates(gap)[-1][2:]
        second = b.view.slot_candidates(gap)[-1][2:]
        assert first == second and first[0] is not None


def test_wrong_creator_rejected():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    winner = b.view.slot_candidates(1)[-1][2]
    impostor = next(n for n in ("alice", "bob", "carol") if n != winner)
    block = b.craft(creator=impostor, sign_as=impostor)
    assert b.apply(block) == "wrong-creator"


def test_a_view_with_no_eligible_creator_plans_no_block():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    view = b.view.clone()
    view.ledger = view.ledger.with_blacklisted(view.ledger.utxos)
    assert view.owners() == {}
    block = Block(index=1, prev_digest=view.last_block.digest,
                  timestamp=params.g0_seconds, creator="alice").signed_by()
    assert process_block(view, block) == (None, "wrong-creator")


def test_too_early_and_future_dated():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    assert b.apply(b.craft(ts_extra=-1)) == "too-early"
    ok = b.craft(ts_extra=0)
    # local clock far behind the block timestamp
    assert b.apply(ok, local_time=ok.timestamp - params.timestamp_leniency - 1) \
        == "future-dated"
    assert b.apply(ok) == ACCEPT


@pytest.mark.parametrize("fault", ["wrong-creator", "too-early"])
def test_future_dated_is_decided_before_any_other_rule(monkeypatch, fault):
    """A block future-dated for the receiving node's clock is rejected as
    such whatever else is wrong with it, and no validation body runs; a
    clock that admits it gets the block's own fault."""
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    node = b.node()
    if fault == "wrong-creator":
        winner = b.view.slot_candidates(1)[-1][2]
        impostor = next(n for n in ("alice", "bob", "carol") if n != winner)
        block = b.craft(creator=impostor, sign_as=impostor)
    else:
        block = b.craft(ts_extra=-1)
    bodies = []
    validate = coa._validate

    def validating(view, blk):
        bodies.append(blk.digest)
        return validate(view, blk)

    monkeypatch.setattr(coa, "_validate", validating)
    behind = block.timestamp - params.timestamp_leniency - 1
    assert node.receive_block(block, behind) == (False, "future-dated")
    assert bodies == [] and node.best_view._outcomes == {}
    assert node.receive_block(block, behind + 1) == (False, fault)
    assert bodies == [block.digest]
    # the kept rejection does not outrank a clock that is behind
    assert node.receive_block(block, behind) == (False, "future-dated")
    assert node.receive_block(block) == (False, fault)
    assert bodies == [block.digest]


def test_skipped_slots_cost_g0_each():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    block = b.craft(gap=3)
    assert block.timestamp == b.genesis.timestamp + 3 * params.g0_seconds
    assert b.apply(block) == ACCEPT
    assert b.view.last_block.index == 3


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
    # frozen auxiliary is refused (checked on a clone: a view is a value)
    saved = b.view
    b.view = saved.clone()
    b.view.ledger = b.view.ledger.with_frozen(aux_uid, until=b.view.height + 10)
    assert b.apply(b.craft(aux=aux_uid)) == "frozen-stake"
    b.view = saved
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
    missing = b.view.last_block.index + 50
    assert b.apply(b.craft(txs=(bound_tx(missing),))) == "binding-violation"
    # binding to the block being created is allowed
    next_index = b.view.last_block.index + 1
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
    assert b.view.last_block.index - offense.index >= params.t0
    assert b.apply(b.craft(evidence=evidence)) == "bad-evidence"


def test_confiscation_effect_is_kept_on_the_accepted_view():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(2)
    assert b.view.effects == ()
    offense = b.blocks[-1]
    evidence = make_evidence(offense, offense.creator)
    block = b.craft(evidence=evidence)
    view, reason = process_block(b.view, block)
    assert reason == ACCEPT
    [(kind, effect)] = view.effects
    assert kind == "confiscation"
    assert effect["confiscated"] == effect["awarded"] + effect["destroyed"]
    assert effect["awarded"] == params.c1
    assert (effect["offense_index"], effect["reporter"]) == (offense.index,
                                                             block.creator)
    b.view = view
    assert b.apply(b.craft(evidence=evidence)) == "bad-evidence"
    # the effect belongs to the block: its child carries none
    b.extend(1)
    assert b.view.effects == ()


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


def test_strikes_reset_only_when_the_creator_has_strikes(monkeypatch):
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    _i, _z, missed_owner, missed_uid = b.view.slot_candidates(1)[-1]
    b.extend(1, avoid=(missed_owner,))
    assert b.view.ledger.utxos[missed_uid].strikes > 0
    for _ in range(50):
        if b.view.slot_candidates(1)[-1][3] == missed_uid:
            break
        b.extend(1)
    resets = []
    with_strikes = LedgerState.with_strikes
    monkeypatch.setattr(LedgerState, "with_strikes", lambda self, uid, n:
                        resets.append((uid, n)) or with_strikes(self, uid, n))
    b.extend(1)     # the struck output produces: its strikes are cleared
    assert resets == [(missed_uid, 0)]
    assert b.view.ledger.utxos[missed_uid].strikes == 0
    b.extend(1)     # a creator without strikes: the ledger is not copied
    assert resets == [(missed_uid, 0)]
    assert_same_view(b.view, view_from_path(params, b.genesis, b.ledger0,
                                            b.blocks))


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
    node = b.node()
    assert node.receive_block(b.blocks[1]) == (False, "orphan")
    assert receive_chain(node, b.blocks) == 3
    assert node.receive_block(b.blocks[0]) == (True, "duplicate")


def test_checkpoint_solidification_and_fork_rejection():
    params = small_params(t0=4)  # t1 = 2
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(6)
    node = main.node()
    receive_chain(node, main.blocks)
    # first candidate at height 4 solidified height 2, height 6 solidified 4
    assert node.solidified_height == 4
    # a fork branching below the solidified prefix is rejected outright
    fork = Builder(params, alloc)
    fork.extend(1, avoid=(main.blocks[0].creator,))
    ok, reason = node.receive_block(fork.blocks[0])
    assert (ok, reason) == (False, "below-solidified")
    # the solidified prefix never reverts
    assert node.solidified_height == 4


def test_checkpoint_prunes_the_views_of_dead_forks():
    """A checkpoint keeps only the views that descend from the new prefix,
    so a fork that branched below it goes even where it is higher than the
    prefix. The node still knows the fork's blocks: a block extending one
    is below-solidified, not an orphan."""
    params = small_params(t0=4)  # t1 = 2
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(4)
    fork = Builder(params, alloc)
    fork.extend(4, avoid=(main.blocks[0].creator,))
    node = main.node()
    assert receive_chain(node, main.blocks[:3] + fork.blocks[:3]) == 6
    assert set(node.views) == node.accepted
    assert receive_chain(node, main.blocks[3:]) == 1
    assert node.solidified_height == 2
    assert set(node.views) == {blk.digest for blk in main.blocks[1:]}
    dead = fork.blocks[2].digest
    assert dead in node.accepted and node.tree.height[dead] == 3
    assert node.receive_block(fork.blocks[3]) == (False, "below-solidified")


def test_reorg_allowed_above_solidified():
    params = small_params(t0=8)  # t1 = 4: nothing solid before height 8
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(2)
    node = main.node()
    receive_chain(node, main.blocks)
    short_tip = node.tree.best
    # a longer fork skipping the first winner arrives later and wins
    fork = Builder(params, alloc)
    fork.extend(3, avoid=(main.blocks[0].creator,))
    assert receive_chain(node, fork.blocks) == 3
    assert node.tree.best != short_tip
    assert node.tree.height[node.tree.best] == 3
    assert node.tree.best_tip() == node.tree.best


def test_equal_length_tie_keeps_first_seen():
    params = small_params()
    alloc = [("alice", 6), ("bob", 5), ("carol", 5)]
    main = Builder(params, alloc)
    main.extend(2)
    node = main.node()
    receive_chain(node, main.blocks)
    first_tip = node.tree.best
    fork = Builder(params, alloc)
    fork.extend(2, avoid=(main.blocks[0].creator,))
    receive_chain(node, fork.blocks)
    assert node.tree.height[node.tree.best] == 2
    assert node.tree.best == first_tip


def test_blacklisted_derivations_consume_no_index_or_time():
    params = small_params()
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(1)
    # blacklist an output by hand; derivation skips it without an index gap
    victim = b.view.slot_candidates(1)[-1]
    b.view = b.view.clone()
    b.view.ledger = b.view.ledger.with_blacklisted([victim[3]])
    replacement = b.view.slot_candidates(1)[-1]
    assert replacement[3] != victim[3]
    assert replacement[0] == victim[0]          # same block index
    block = b.craft()
    assert block.creator == replacement[2]
    # no extra G0
    assert block.timestamp == b.view.last_block.timestamp + params.g0_seconds
    assert b.apply(block) == ACCEPT


def test_confiscation_event_only_for_accepted_blocks():
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(2)
    offense = b.blocks[-1]
    evidence = make_evidence(offense, offense.creator)
    unbound = Transaction(((0, b"\x00" * 16),), (("alice", 1),),
                          b.view.last_block.index + 50)
    block = b.craft(evidence=evidence, txs=(unbound,))
    assert process_block(b.view, block) == (None, "binding-violation")
    assert b.view._outcomes == {block.digest: (None, "binding-violation")}
    view, reason = process_block(b.view, b.craft(evidence=evidence))
    assert reason == ACCEPT
    (kind, payload), = view.effects
    assert kind == "confiscation"
    assert set(payload) == {"confiscated", "awarded", "destroyed",
                            "offense_index", "reporter"}


def signed_spend(u, latest=0, fee=0):
    """A transaction paying output `u` back to its owner, less `fee`."""
    outputs = ((u.owner, u.amount - fee),)
    tx = Transaction(((u.uid, b"\x00" * 16),), outputs, latest, fee=fee)
    return Transaction(((u.uid, sign(u.owner, tx.signing_digest())),),
                       outputs, latest, fee=fee)


LEDGER_FIELDS = ("utxos", "blacklist", "total_supply", "destroyed", "next_uid")


def assert_same_view(view, fresh):
    ours, theirs = dict(vars(view)), dict(vars(fresh))
    ledger, fresh_ledger = ours.pop("ledger"), theirs.pop("ledger")
    for cache in ("_schedule", "_owners", "_outcomes"):
        del ours[cache], theirs[cache]
    assert ours == theirs
    assert view.slot_candidates(LOOKAHEAD) == fresh.slot_candidates(LOOKAHEAD)
    for name in LEDGER_FIELDS:
        assert getattr(ledger, name) == getattr(fresh_ledger, name)


def scanned_owners(view):
    """owner -> [(index, earliest timestamp)] over the view's next LOOKAHEAD
    slots, derived afresh on a clone."""
    last, owners = view.last_block, {}
    for index, _z, owner, _uid in view.clone().slot_candidates(LOOKAHEAD):
        owners.setdefault(owner, []).append((index, min_timestamp(
            last.timestamp, index, last.index, view.params.g0_seconds)))
    return owners


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
    _owner, uid, frozen = reporter.view.slots[offense.index]
    offense_uids = {uid, *frozen}
    assert offense_uids <= reporter.view.ledger.utxos.keys()
    assert reporter.apply(reporter.craft(evidence=evidence)) == ACCEPT
    assert not offense_uids & reporter.view.ledger.utxos.keys()
    reporter.extend(2)

    chains = (main, skipper, sibling, reporter)
    blocks = {canonical_block_digest(blk): blk
              for chain in chains for blk in chain.blocks}
    node = main.node()
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
        # the owner map, built on the first request and kept, is a fresh
        # scan of the lookahead, each owner's slots in index order; a clone
        # starts without one
        owners = view.owners()
        assert {owner: list(slots.items()) for owner, slots in owners.items()} \
            == scanned_owners(view)
        assert view.owners() is owners and view.clone()._owners is None

    # a skipped slot's index is not a block of the chain: binding fails
    skipped = [i for i, (_o, _u, frozen) in skipper.view.slots.items()
               if not frozen]
    assert skipped
    u = skipper.spendable_utxo()
    assert skipper.apply(skipper.craft(
        txs=(signed_spend(u, latest=skipped[0]),))) == "binding-violation"
    assert skipper.apply(skipper.craft(
        txs=(signed_spend(u, latest=skipper.blocks[0].index),))) == ACCEPT


def test_nodes_of_one_run_share_one_view_per_block(monkeypatch):
    """Nodes built on one genesis state call ``process_block`` once per
    delivery that their own clock does not find future-dated, but the
    validation body runs once per (parent view, block) and they all hold
    its one child view, and the nodes that accepted the same blocks in the
    same order hold one state."""
    params = small_params(t0=8)
    b = Builder(params, [("alice", 6), ("bob", 5), ("carol", 5)])
    b.extend(3)
    late = b.craft(ts_extra=1000)   # future-dated for a clock 1000 s behind
    sibling = b.craft(gap=2)        # competes with `late`
    genesis = ChainView(params, b.genesis, b.ledger0)
    root = genesis_state(genesis)
    nodes = [CoaNode(root) for _ in range(3)]
    calls, bodies = Counter(), Counter()
    receiver = []       # the node whose receive_block is running
    receive_block = CoaNode.receive_block
    process_block, validate = coa.process_block, coa._validate

    def receiving(node, block, local_time=None):
        receiver.append(nodes.index(node))
        try:
            return receive_block(node, block, local_time)
        finally:
            receiver.pop()

    def counting(view, block):
        calls[receiver[-1], block.digest] += 1
        return process_block(view, block)

    def validating(view, block):
        bodies[id(view), block.digest] += 1
        return validate(view, block)

    monkeypatch.setattr(CoaNode, "receive_block", receiving)
    monkeypatch.setattr(coa, "process_block", counting)
    monkeypatch.setattr(coa, "_validate", validating)
    for node in nodes:
        assert receive_chain(node, b.blocks) == 3
    assert nodes[0].tree is nodes[1].tree is nodes[2].tree
    behind = late.timestamp - params.timestamp_leniency - 1
    # the first node to see `late` is behind: its rejection is not shared
    assert nodes[1].receive_block(late, behind) == (False, "future-dated")
    assert late.digest not in nodes[1].views
    assert nodes[0].receive_block(late, late.timestamp) == (True, ACCEPT)
    assert nodes[1].receive_block(late, behind) == (False, "future-dated")
    assert nodes[1].receive_block(late, late.timestamp) == (True, ACCEPT)
    assert nodes[2].receive_block(sibling) == (True, ACCEPT)
    monkeypatch.undo()
    assert nodes[0].tree is nodes[1].tree is not nodes[2].tree

    expected = {(i, blk.digest): 1 for i in range(3) for blk in b.blocks}
    # node 1's two deliveries of `late` on a clock behind call nothing
    expected.update({(0, late.digest): 1, (1, late.digest): 1,
                     (2, sibling.digest): 1})
    assert calls == expected
    tip = nodes[0].views[b.blocks[-1].digest]
    parents = [genesis] + [nodes[0].views[blk.digest] for blk in b.blocks]
    assert bodies == Counter(
        [(id(view), blk.digest) for view, blk in zip(parents, b.blocks)]
        + [(id(tip), late.digest), (id(tip), sibling.digest)])
    for node in nodes:
        assert set(node.views) == node.accepted
    assert late.digest not in nodes[2].views
    assert sibling.digest not in nodes[0].views
    for digest in set().union(*(n.views for n in nodes)):
        holders = [n for n in nodes if digest in n.views]
        view = holders[0].views[digest]
        assert all(n.views[digest] is view for n in holders)
        tree = holders[0].tree
        path = [tree.blocks[d] for d in tree.path(digest)[1:]]
        assert_same_view(view, view_from_path(params, b.genesis, b.ledger0,
                                              path))
    # nodes on genesis views of their own share no view
    alone = [b.node() for _ in range(2)]
    for node in alone:
        receive_chain(node, b.blocks)
    assert not {id(v) for v in alone[0].views.values()} \
        & {id(v) for v in alone[1].views.values()}


def test_nodes_sharing_a_genesis_view_hold_one_view_with_each_blocks_effects():
    """Confiscation and blacklist effects come from the one validation of a
    block: every node that accepts it holds the block's one view, which
    carries them, equal to the effects of a recompute of the path."""
    params = small_params(c0=2, c1=1)
    b = Builder(params, [("lazy", 5), ("alice", 4), ("bob", 4), ("carol", 3)])
    lazy_uid = 0
    for _ in range(400):
        b.extend(1, avoid=("lazy",))
        if lazy_uid in b.view.ledger.blacklist:
            break
    else:
        pytest.fail("lazy was never blacklisted")
    offense = b.blocks[-1]
    assert b.apply(b.craft(evidence=make_evidence(offense, offense.creator))) \
        == ACCEPT
    root = genesis_state(ChainView(params, b.genesis, b.ledger0))
    nodes = [CoaNode(root) for _ in range(2)]
    recompute = ChainView(params, b.genesis, b.ledger0)
    held, recomputed = [], []
    for block in b.blocks:
        for node in nodes:
            assert node.receive_block(block) == (True, ACCEPT)
        views = [n.views[block.digest] for n in nodes]
        assert views[0] is views[1]
        held.append(views[0].effects)
        recompute, _reason = process_block(recompute, block)
        recomputed.append(recompute.effects)
    assert held == recomputed
    effects = [effect for block_effects in held for effect in block_effects]
    kinds = [kind for kind, _payload in effects]
    assert "blacklist" in kinds and "confiscation" in kinds
    assert any(lazy_uid in payload["uids"] for kind, payload in effects
               if kind == "blacklist")


def view_state(view):
    """A deep copy of a view's fields, its ledger's and schedule's included,
    with each kept block outcome's child view recorded by identity."""
    state = {k: v for k, v in vars(view).items()
             if k not in ("ledger", "_outcomes")}
    state["ledger"] = {name: getattr(view.ledger, name) for name in LEDGER_FIELDS}
    state["_outcomes"] = {
        digest: (None if new is None else id(new), reason)
        for digest, (new, reason) in view._outcomes.items()}
    return copy.deepcopy(state)


def marks(tree):
    """What a fork-choice state decides: its best tip, its solidified
    prefix and its live marks in order."""
    return tree.best, tree.solidified_prefix, list(tree.live.items())


def height_in(tree):
    """Height of a block of `tree`, counted along its path."""
    return lambda digest: len(tree.path(digest)) - 1


def first_seen_longest(tree, accepts):
    """The fork choice by scan: of the blocks in `accepts` (in accept order)
    that descend from the solidified prefix, the first of greatest height."""
    best = None
    for digest in accepts:
        if tree.solidified_prefix in tree.path(digest) and (
                best is None
                or height_in(tree)(digest) > height_in(tree)(best)):
            best = digest
    return best


@st.composite
def fork_trees(draw):
    """(params, genesis, ledger, blocks) of a random fork tree: each block
    extends an earlier one after skipped slots, with a drawn timestamp, and
    now and then a fee transaction or double-sign evidence."""
    params = small_params(t0=draw(st.sampled_from((2, 4, 8))),
                          c0=draw(st.sampled_from((0, 2))), c1=1)
    genesis, ledger0 = make_genesis(params, [("alice", 6), ("bob", 5),
                                             ("carol", 5)])
    tips = [(ChainView(params, genesis, ledger0), ())]   # (view, path)
    blocks = []
    for _ in range(draw(st.integers(1, 12))):
        # forks off one of the last four views, so paths grow long too
        view, path = tips[draw(st.integers(max(0, len(tips) - 4),
                                           len(tips) - 1))]
        last = view.last_block
        gap = draw(st.integers(1, 3))
        _i, _z, creator, uid = view.slot_candidates(gap)[-1]
        index = last.index + gap
        plain = Block(index=index, prev_digest=last.digest, creator=creator,
                      timestamp=min_timestamp(last.timestamp, index, last.index,
                                              params.g0_seconds)
                      + draw(st.integers(0, 40)))
        extra = draw(st.sampled_from(("none", "fee", "evidence")))
        recent = [blk for blk in path if index - blk.index <= params.t0]
        block = plain
        if extra == "fee":
            spendable = [u for _k, u in sorted(view.ledger.utxos.items())
                         if u.uid != uid and u.amount > 1
                         and not u.is_frozen(view.height + 1)]
            if spendable:
                spend = signed_spend(draw(st.sampled_from(spendable)), fee=1)
                block = replace(plain, transactions=(spend,))
        elif extra == "evidence" and recent:
            offense = draw(st.sampled_from(recent))
            block = replace(plain, double_sign_evidence=make_evidence(
                offense, offense.creator))
        child, reason = process_block(view, block.signed_by())
        if reason != ACCEPT and block is not plain:   # say, stale evidence
            child, reason = process_block(view, plain.signed_by())
        if reason == "understaked":     # a 1-coin fee output won the slot
            continue
        assert reason == ACCEPT, reason
        block = child.last_block
        blocks.append(block)
        tips.append((child, path + (block,)))
    return params, genesis, ledger0, blocks


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fork_trees(), st.data())
def test_views_of_shuffled_fork_trees_are_values_equal_to_recompute(tree, data):
    """Nodes with per-node clocks receive a random fork tree in random order.
    Every view they hold equals the recompute of its path, and it and every
    fork-choice state never change once returned. Supply is conserved.
    Nodes built on one genesis state (one validation per parent view and
    block, one state per accept order) decide and choose exactly as nodes
    built on a genesis view and state each: after every delivery they agree
    on the returned reason, the accepted block's effects, the best tip, the
    solidified prefix and the live marks. The
    best tip is the scanned fork choice, checkpoints fire exactly at the
    first block to reach each height k*t1, k >= 2, and the node holds a view
    for exactly the blocks that descend from its solidified prefix."""
    params, genesis, ledger0, blocks = tree
    count = data.draw(st.integers(2, 3))
    clocks = data.draw(st.lists(st.integers(-100, 20), min_size=count,
                                max_size=count))
    late = data.draw(st.lists(st.integers(-60, 60), min_size=len(blocks),
                              max_size=len(blocks)))
    order = data.draw(st.permutations(range(len(blocks))))
    shared = genesis_state(ChainView(params, genesis, ledger0))
    logs = ([], [])
    runs = [[CoaNode(shared) for _ in range(count)],
            [CoaNode(genesis_state(ChainView(params, genesis, ledger0)))
             for _ in range(count)]]
    snapshots = {}      # id of a returned view -> (view, its state then)
    states = {}         # id of a fork-choice state -> (state, its marks then)
    accepts = {}        # node -> the blocks it accepted, in accept order
    for nodes, log in zip(runs, logs):
        for n in nodes:
            view = n.best_view
            snapshots.setdefault(id(view), (view, view_state(view)))
            accepts[n] = [genesis.digest]
        accepted = True
        while accepted:     # redeliver until a pass accepts nothing new
            accepted = False
            for b in order:
                for i, (n, clock) in enumerate(zip(nodes, clocks)):
                    if blocks[b].digest in n.accepted:
                        continue
                    old = n.tree
                    outcome = n.receive_block(
                        blocks[b], blocks[b].timestamp + clock + late[b])
                    state = n.tree
                    fired = [] if state.solidified_prefix == old.solidified_prefix \
                        else [state.height[state.solidified_prefix]]
                    effects = n.views[blocks[b].digest].effects \
                        if outcome[1] == ACCEPT else None
                    log.append((i, b) + outcome + (
                        effects, state.best, state.solidified_prefix,
                        tuple(state.live)))
                    states.setdefault(id(state), (state, marks(state)))
                    reached = max(map(height_in(n.tree), accepts[n]))
                    checkpoints = []    # the first block at k*t1, k >= 2
                    if outcome[1] == ACCEPT:
                        accepted = True
                        accepts[n].append(blocks[b].digest)
                        height = height_in(n.tree)(blocks[b].digest)
                        if height > reached and height >= 2 * params.t1 \
                                and height % params.t1 == 0:
                            checkpoints = [height - params.t1]
                        view = n.views[blocks[b].digest]
                        snapshots.setdefault(id(view), (view, view_state(view)))
                    assert fired == checkpoints
                    assert n.tree.best == first_seen_longest(n.tree, accepts[n])
                    assert set(n.views) == {
                        d for d in n.accepted
                        if n.tree.solidified_prefix in n.tree.path(d)}
    assert logs[0] == logs[1]
    for state, then in states.values():
        assert marks(state) == then
    for nodes, one_state_per_order in zip(runs, (True, False)):
        for n, m in itertools.combinations(nodes, 2):
            assert (n.tree is m.tree) == (one_state_per_order
                                          and accepts[n] == accepts[m])
    for view, then in snapshots.values():
        now = view_state(view)
        schedule = now.pop("_schedule")
        assert schedule[:len(then["_schedule"])] == then.pop("_schedule")
        assert then.pop("_owners") in (None, now.pop("_owners"))
        outcomes, written = now.pop("_outcomes"), then.pop("_outcomes")
        assert {digest: outcomes[digest] for digest in written} == written
        assert now == then
        for digest, (new, _reason) in view._outcomes.items():
            if new is not None:     # kept on the view the block extends
                assert new.last_block.digest == digest
                assert new.last_block.prev_digest == view.last_block.digest
    for nodes, one_view_per_block in zip(runs, (True, False)):
        held = [{id(v) for v in n.views.values()} for n in nodes]
        digests = [set(n.views) for n in nodes]
        if one_view_per_block:
            assert len(set().union(*held)) == len(set().union(*digests))
        else:
            assert len(set().union(*held)) == sum(map(len, held))
    for n in runs[0] + runs[1]:
        for digest, view in n.views.items():
            path = [n.tree.blocks[d] for d in n.tree.path(digest)[1:]]
            assert_same_view(view, view_from_path(params, genesis, ledger0,
                                                  path))
            ledger = view.ledger
            assert ledger.live_total + ledger.destroyed == 1 << params.kappa
