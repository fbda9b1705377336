"""The CoA consensus state machine.

Eligibility, validation, deposits and confiscation, three-strikes
blacklisting, longest-chain fork choice, and checkpoint solidification.

Slot accounting: the block index is a global slot number. Groups are counted
in produced blocks (a group closes after its ell-th block). The seed formed
by group g assigns, in an interleaved fashion, the slot winners of group
g+2, anchored at the index of group g's last block. Derivation offsets that
land on a blacklisted output (or a destroyed satoshi) are skipped outright:
they consume neither a block index nor G0 time, which is what keeps lost
stake from degrading throughput. A slot whose eligible creator simply fails
to produce does consume an index, costs G0 in the minimum-timestamp rule,
and earns the derived output a strike.

Bootstrap: groups 1 and 2 have no prior seed, so their slots derive from a
protocol constant seed carried in the genesis block (group 1 anchored at
index 0, group 2 at the last index of group 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .comb import CombSpec, comb_apply
from .fts import satoshi_index, follow_the_satoshi
from .ledger import (
    Block, BlockTree, ConfigError, LedgerError, LedgerState, block_bit,
    validate_block_structure,
)

ACCEPT = "accept"
LOOKAHEAD = 10              # slots a node looks ahead to schedule its blocks
MAX_SCAN = 100_000          # derivations past z_next before a view gives up
STRIKES_TO_BLACKLIST = 3    # missed slots that blacklist an output


def default_genesis_seed(kappa: int) -> int:
    digest = hashlib.sha256(b"poslab-genesis-seed").digest()
    return int.from_bytes(digest, "big") % (1 << kappa)


@dataclass(frozen=True)
class CoaParams:
    """A CoA run's params, named as a config's ``params`` names them; their
    defaults are ``netsim.ENGINES["coa"]``'s."""
    kappa: int
    w: int
    comb: str
    g0_seconds: int               # minimal block interval
    c0: int                       # minimal stake
    c1: int                       # confiscation award, 0 <= c1 <= c0/2
    t0: int                       # double-spend safety bound, blocks (even)
    timestamp_leniency: int

    def __post_init__(self):
        # (field, least value); t0 = 0 would leave no checkpoint period
        for name, least in (("g0_seconds", 1), ("c0", 0), ("c1", 0),
                            ("t0", 2), ("timestamp_leniency", 0)):
            if getattr(self, name) < least:
                raise ConfigError(name, "must be at least %d" % least)
        if self.c0 and self.c1 > self.c0 // 2:
            raise ConfigError("c1", "require 0 <= c1 <= c0/2")
        if self.t0 % 2:
            raise ConfigError("t0", "t0 must be even (t0 = 2*t1)")
        CombSpec(self.comb, self.kappa, self.w)  # validates the triple

    @property
    def ell(self) -> int:
        return self.kappa * self.w

    @property
    def t1(self) -> int:
        return self.t0 // 2

    @property
    def comb_spec(self) -> CombSpec:
        return CombSpec(self.comb, self.kappa, self.w)


def min_timestamp(parent_timestamp: int, child_index: int, parent_index: int,
                  g0: int) -> int:
    """Earliest admissible timestamp: one G0 per slot index advanced."""
    if child_index <= parent_index:
        raise ValueError("child index must exceed parent index")
    return parent_timestamp + (child_index - parent_index) * g0


def make_genesis(params: CoaParams, allocation, timestamp: int = 0,
                 genesis_seed: Optional[int] = None) -> tuple:
    """Build the genesis block and ledger. Returns (block, ledger)."""
    ledger = LedgerState.from_allocation(allocation)
    seed = default_genesis_seed(params.kappa) if genesis_seed is None else genesis_seed
    block = Block(index=0, prev_digest=b"\x00" * 32, timestamp=timestamp,
                  creator="genesis", genesis_seed=seed).signed_by()
    return block, ledger


class ChainView:
    """Derived state for one chain path: a pure function of the blocks.

    A view is a value. ``process_block`` extends a shallow clone and replaces
    every container it changes, so a view never changes once it is returned
    and can back many competing children. Its slot schedule is a pure
    function of the view too: ``slot_candidates`` derives it once and
    extends it when asked for more. So is the outcome of each block offered
    to it: ``process_block`` validates a block once per view and keeps the
    outcome. A view also keeps the ``confiscation`` and ``blacklist``
    effects of its last block (``effects``, a tuple of (kind, payload)
    pairs, empty for most blocks).
    """

    def __init__(self, params: CoaParams, genesis: Block, ledger: LedgerState):
        if genesis.genesis_seed is None:
            raise ValueError("genesis block must carry the bootstrap seed")
        self.params = params
        self.ledger = ledger
        self.genesis_seed = genesis.genesis_seed
        self.height = 0
        self.last_block = genesis
        self.group_bits = ()
        self.z_next = 1
        self.pending_blacklist = {}  # activation group -> frozenset of uids
        # slot index -> (owner, uid, uids frozen by its block); the frozen
        # tuple is empty for a skipped slot and never empty for a block
        self.slots = {}
        self.groups = {}             # group number -> (seed, index of its last block)
        self.effects = ()            # (kind, payload) of its last block's effects
        self._schedule = []          # the slot candidates derived so far
        self._owners = None          # see ``owners``; built on first request
        # block digest -> (child view or None, reason)
        self._outcomes = {}

    def clone(self) -> "ChainView":
        """A shallow copy with no schedule, no owner map and no outcomes, for
        ``process_block`` to extend."""
        out = ChainView.__new__(ChainView)
        out.__dict__.update(self.__dict__)
        out._schedule = []
        out._owners = None
        out._outcomes = {}
        return out

    # -- slot derivation -----------------------------------------------------

    @property
    def current_group(self) -> int:
        """Group number of the next block to be produced (1-based)."""
        return self.height // self.params.ell + 1

    def slot_derivation(self) -> Callable:
        """The current group's raw follow-the-satoshi result as a function
        of the derivation offset z, with the group's anchor, seed and supply
        resolved once; reports blacklisted winners (the caller skips them)."""
        g = self.current_group
        if g == 1:
            anchor, seed = 0, self.genesis_seed
        elif g == 2:
            anchor, seed = self.groups[1][1], self.genesis_seed
        else:
            seed, anchor = self.groups[g - 2]
        kappa, ledger = self.params.kappa, self.ledger
        supply = ledger.total_supply
        return lambda z: follow_the_satoshi(
            ledger, satoshi_index(anchor, z, seed, kappa, supply))

    def slot_candidates(self, count: int) -> list:
        """Eligible creators for the next `count` slot indices.

        Returns [(index, z, owner, uid)]; blacklisted or destroyed
        derivations are skipped without consuming an index.
        """
        schedule = self._schedule
        if len(schedule) < count:
            idx, z = schedule[-1][:2] if schedule else (self.last_block.index,
                                                        self.z_next - 1)
            derive, blacklist = self.slot_derivation(), self.ledger.blacklist
            limit = self.z_next + MAX_SCAN
            while len(schedule) < count:
                z += 1
                if z >= limit:
                    raise LedgerError(
                        "no eligible creator found (all stake blacklisted?)")
                owner, uid = derive(z)
                if uid is None or uid in blacklist:
                    continue
                idx += 1
                schedule.append((idx, z, owner, uid))
        return schedule[:count]

    def owners(self) -> dict:
        """Each owner with a slot among the next LOOKAHEAD slot indices ->
        {index: earliest timestamp}, in index order. The first request maps
        every owner, so a view scans its lookahead once however many nodes
        hold it. A view with no eligible creator plans no block, as
        ``_validate`` rejects every block on it."""
        if self._owners is None:
            last, owners = self.last_block, {}
            try:
                candidates = self.slot_candidates(LOOKAHEAD)
            except LedgerError:
                candidates = ()
            for index, _z, owner, _uid in candidates:
                owners.setdefault(owner, {})[index] = min_timestamp(
                    last.timestamp, index, last.index, self.params.g0_seconds)
            self._owners = owners
        return self._owners


def future_dated(leniency: int, timestamp: int, local_time: int) -> bool:
    """Whether a block dated `timestamp` is past a clock reading `local_time`
    by more than `leniency` seconds: a CoA or Dense-CoA node rejects it."""
    return timestamp > local_time + leniency


def process_block(view: ChainView, block: Block) -> tuple:
    """Validate `block` against `view` and, if valid, return the extended view.

    Returns (new_view, "accept") or (None, reason). Typed reasons: the
    structural ones plus wrong-creator, too-early, understaked,
    frozen-stake, bad-evidence, binding-violation, bad-transaction.

    The outcome is computed once per (view, block) and kept on the view, so
    every caller holding the view gets the same pair, and an accepted
    block's child view carries its effects. It reads no clock: the
    receiving node applies ``future_dated`` first.
    """
    outcome = view._outcomes.get(block.digest)
    if outcome is None:
        outcome = view._outcomes[block.digest] = _validate(view, block)
    return outcome


def _validate(view: ChainView, block: Block) -> tuple:
    """The clock-free outcome of `block` on `view`: (new_view, "accept"),
    the new view carrying the block's effects, or (None, reason)."""
    p = view.params
    last = view.last_block
    reason = validate_block_structure(block, last)
    if reason != "ok":
        return None, reason

    gap = block.index - last.index
    try:
        candidates = view.slot_candidates(gap)
    except LedgerError:
        return None, "wrong-creator"
    slot_index, _z, owner, uid = candidates[-1]
    assert slot_index == block.index
    if owner != block.creator:
        return None, "wrong-creator"

    if block.timestamp < min_timestamp(last.timestamp, block.index, last.index,
                                       p.g0_seconds):
        return None, "too-early"

    # The freeze restricts spending and auxiliary use; the derived winner may
    # still create a block while its previous deposit freeze is running (the
    # freeze simply gets extended), otherwise small stakeholder sets stall.
    height = view.height + 1
    derived = view.ledger.utxos[uid]
    deposit_uids = [uid]
    if derived.amount < p.c0:
        aux_uid = block.auxiliary_proof
        aux = view.ledger.utxos.get(aux_uid) if aux_uid is not None else None
        if aux is None or aux.owner != block.creator \
                or aux.amount < p.c0 - derived.amount:
            return None, "understaked"
        if aux.is_frozen(height):
            return None, "frozen-stake"
        deposit_uids.append(aux_uid)

    evidence_effect = None
    if block.double_sign_evidence is not None:
        ev = _check_evidence(view, block)
        if isinstance(ev, str):
            return None, ev
        evidence_effect = ev

    new = view.clone()
    new.slots = dict(view.slots)

    # strikes for the slots that were skipped by inactive creators
    activation = view.current_group + 2
    for idx, _z, missed_owner, missed_uid in candidates[:-1]:
        new.slots[idx] = (missed_owner, missed_uid, ())
        u = new.ledger.utxos[missed_uid]
        strikes = u.strikes + 1
        new.ledger = new.ledger.with_strikes(missed_uid, strikes)
        if strikes >= STRIKES_TO_BLACKLIST:
            pending = new.pending_blacklist
            new.pending_blacklist = {**pending, activation: pending.get(
                activation, frozenset()) | {missed_uid}}
    if new.ledger.utxos[uid].strikes:
        new.ledger = new.ledger.with_strikes(uid, 0)

    # deposit freeze: neither the derived nor the auxiliary output may be
    # spent in the first t0 blocks extending this one
    frozen = []
    for duid in deposit_uids:
        new.ledger = new.ledger.with_frozen(duid, height + p.t0)
        frozen.append(duid)

    effects = []
    if evidence_effect is not None:
        offense_index, confiscate_uids = evidence_effect
        effects.append(("confiscation", dict(
            _confiscate(new, confiscate_uids, block.creator),
            offense_index=offense_index, reporter=block.creator)))

    for tx in block.transactions:
        # chain binding: a transaction is valid only in chains holding the
        # block index it names, or the block being created
        bound = tx.latest_block_index
        record = new.slots.get(bound)
        if bound not in (0, block.index) and not (record and record[2]):
            return None, "binding-violation"
        try:
            new.ledger = new.ledger.apply_transaction(tx, height,
                                                      fee_recipient=block.creator)
        except LedgerError:
            return None, "bad-transaction"
        if tx.fee:
            fee_uid = new.ledger.next_uid - 1
            new.ledger = new.ledger.with_frozen(fee_uid, height + p.t0)
            frozen.append(fee_uid)

    new.slots[block.index] = (owner, uid, tuple(frozen))
    new.group_bits = view.group_bits + (block_bit(block),)
    new.height = height
    new.last_block = block

    if len(new.group_bits) == p.ell:
        completed = (height - 1) // p.ell + 1
        new.groups = {**view.groups, completed: (
            comb_apply(p.comb_spec, new.group_bits), block.index)}
        new.group_bits = ()
        new.z_next = 1
        # activate the blacklist scheduled for the group now opening: a
        # block of group g schedules g + 2, so no earlier group is pending
        opening = completed + 1
        if opening in new.pending_blacklist:
            new.pending_blacklist = dict(new.pending_blacklist)
            uids = new.pending_blacklist.pop(opening)
            new.ledger = new.ledger.with_blacklisted(uids)
            effects.append(("blacklist", {"uids": sorted(uids),
                                          "group": opening}))
    else:
        new.z_next = candidates[-1][1] + 1

    new.effects = tuple(effects)
    return new, ACCEPT


def _check_evidence(view: ChainView, block: Block):
    """Validate double-sign evidence; returns (offense_index, uids) or a reason."""
    a, b = block.double_sign_evidence
    if a.index != b.index or a.creator != b.creator or a.digest == b.digest:
        return "bad-evidence"
    if not (a.valid() and b.valid()):
        return "bad-evidence"
    offense = a.index
    if offense >= block.index or block.index - offense > view.params.t0:
        return "bad-evidence"
    record = view.slots.get(offense)
    if record is None or record[0] != a.creator:
        return "bad-evidence"
    # a confiscation removes every live output of the record and a uid is
    # never reused, so a second report of one offense finds none
    uids = set(record[2]) | {record[1]}
    uids = {u for u in uids if u in view.ledger.utxos}
    if not uids:
        return "bad-evidence"
    return offense, uids


def _confiscate(new: ChainView, uids, reporter: str) -> dict:
    """Confiscate `uids` in the fresh clone `new` and award c1 of it to the
    reporter; returns the effect."""
    total = sum(new.ledger.utxos[u].amount for u in uids)
    award = min(new.params.c1, total)
    new.ledger = new.ledger.confiscate(uids, award, reporter)
    return {"confiscated": total, "awarded": award, "destroyed": total - award}


def view_from_path(params: CoaParams, genesis: Block, ledger: LedgerState,
                   blocks) -> ChainView:
    """Recompute the derived state from genesis; the oracle for the
    incremental/recompute equivalence property."""
    view = ChainView(params, genesis, ledger)
    for block in blocks:
        view, reason = process_block(view, block)
        if reason != ACCEPT:
            raise LedgerError("invalid path at index %d: %s" % (block.index, reason))
    return view


class CoaNode:
    """One network node: the blocks it has accepted and its fork-choice
    state.

    The state (a ``BlockTree``) marks the solidified prefix and its
    descendants, each with the view of its path (``views``), and checkpoints
    every t1 blocks. It is a value: accepting a block moves the node to the
    state's successor for that block. Nodes that start from one genesis
    state share every state and view after it while they accept the same
    blocks in the same order, so each step is computed once (see
    ``BlockTree.add_block`` and ``process_block``).
    """

    def __init__(self, genesis: BlockTree):
        self.tree = genesis
        self.accepted = {genesis.genesis_digest}

    @property
    def views(self) -> dict:
        """Block digest -> view, for each block the state marks live."""
        return self.tree.live

    @property
    def best_view(self) -> ChainView:
        return self.tree.live[self.tree.best]

    def receive_block(self, block: Block, local_time: Optional[int] = None) -> tuple:
        """Offer `block` to this node, whose clock reads `local_time` (None:
        no clock test); returns (ok, reason). An accepted block's view
        (``views[block.digest]``) carries its effects."""
        if block.digest in self.accepted:
            return True, "duplicate"
        view = self.tree.live.get(block.prev_digest)
        if view is None:
            return False, ("below-solidified" if block.prev_digest in self.accepted
                           else "orphan")
        if local_time is not None and future_dated(
                view.params.timestamp_leniency, block.timestamp, local_time):
            return False, "future-dated"
        new_view, reason = process_block(view, block)
        if reason != ACCEPT:
            return False, reason
        self.accepted.add(block.digest)
        self.tree = self.tree.add_block(block, new_view)
        return True, ACCEPT

    @property
    def solidified_height(self) -> int:
        return self.tree.height[self.tree.solidified_prefix]
