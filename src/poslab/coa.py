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

from .comb import CombSpec, ParamError, comb_apply
from .fts import satoshi_index, follow_the_satoshi
from .ledger import (
    Block, BlockTree, EvidenceEntry, LedgerError, LedgerState, Transaction,
    block_bit, canonical_block_digest, validate_block_structure,
)

ACCEPT = "accept"


def default_genesis_seed(kappa: int) -> int:
    digest = hashlib.sha256(b"poslab-genesis-seed").digest()
    return int.from_bytes(digest, "big") % (1 << kappa)


@dataclass(frozen=True)
class CoaParams:
    kappa: int
    w: int = 1
    comb_kind: str = "concat"
    g0: int = 300                 # minimal block interval, seconds
    c0: int = 0                   # minimal stake
    c1: int = 0                   # confiscation award, 0 <= c1 <= c0/2
    t0: int = 8                   # double-spend safety bound, blocks (even)
    timestamp_leniency: int = 120
    strikes_to_blacklist: int = 3

    def __post_init__(self):
        if self.c0 and not 0 <= self.c1 <= self.c0 // 2:
            raise ParamError("c1", "require 0 <= c1 <= c0/2")
        if self.t0 % 2:
            raise ParamError("t0", "t0 must be even (t0 = 2*t1)")
        CombSpec(self.comb_kind, self.kappa, self.w)  # validates the triple

    @property
    def ell(self) -> int:
        return self.kappa * self.w

    @property
    def t1(self) -> int:
        return self.t0 // 2

    @property
    def comb_spec(self) -> CombSpec:
        return CombSpec(self.comb_kind, self.kappa, self.w)


def seed_from_group(bits, spec: CombSpec) -> int:
    """Form the group seed from exactly ell block bits."""
    if len(bits) != spec.ell:
        raise ValueError("expected %d bits, got %d" % (spec.ell, len(bits)))
    return comb_apply(spec, bits)


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

    Mutability is internal; ``process_block`` works on a clone, so a view can
    back multiple competing children.
    """

    def __init__(self, params: CoaParams, genesis: Block, ledger: LedgerState):
        if genesis.genesis_seed is None:
            raise ValueError("genesis block must carry the bootstrap seed")
        self.params = params
        self.ledger = ledger
        self.genesis_seed = genesis.genesis_seed
        self.height = 0
        self.last_index = 0
        self.last_timestamp = genesis.timestamp
        self.last_block = genesis
        self.last_digest = canonical_block_digest(genesis)
        self.group_bits = []
        self.z_next = 1
        self.pending_blacklist = {}  # activation group -> set of uids
        self.punished = set()        # offense indices already confiscated
        # slot index -> (owner, uid, uids frozen by its block); the frozen
        # tuple is empty for a skipped slot and never empty for a block
        self.slots = {}
        self.groups = {}             # group number -> (seed, index of its last block)

    def clone(self) -> "ChainView":
        out = ChainView.__new__(ChainView)
        out.params = self.params
        out.ledger = self.ledger
        out.genesis_seed = self.genesis_seed
        out.height = self.height
        out.last_index = self.last_index
        out.last_timestamp = self.last_timestamp
        out.last_block = self.last_block
        out.last_digest = self.last_digest
        out.group_bits = list(self.group_bits)
        out.z_next = self.z_next
        out.pending_blacklist = {k: set(v) for k, v in self.pending_blacklist.items()}
        out.punished = set(self.punished)
        out.slots = dict(self.slots)
        out.groups = dict(self.groups)
        return out

    # -- slot derivation -----------------------------------------------------

    @property
    def current_group(self) -> int:
        """Group number of the next block to be produced (1-based)."""
        return self.height // self.params.ell + 1

    def _group_context(self) -> tuple:
        g = self.current_group
        if g == 1:
            return 0, self.genesis_seed
        if g == 2:
            return self.groups[1][1], self.genesis_seed
        seed, anchor = self.groups[g - 2]
        return anchor, seed

    def derive_slot_candidate(self, z: int) -> tuple:
        """Raw follow-the-satoshi result for derivation offset z of the
        current group; reports blacklisted winners (the caller skips them)."""
        anchor, seed = self._group_context()
        idx = satoshi_index(anchor, z, seed, self.params.kappa,
                            self.ledger.total_supply)
        return follow_the_satoshi(self.ledger, idx)

    def slot_candidates(self, count: int, _max_scan: int = 100_000) -> list:
        """Eligible creators for the next `count` slot indices.

        Returns [(index, z, owner, uid)]; blacklisted or destroyed
        derivations are skipped without consuming an index.
        """
        out = []
        z = self.z_next
        idx = self.last_index
        scanned = 0
        while len(out) < count:
            owner, uid = self.derive_slot_candidate(z)
            z += 1
            scanned += 1
            if scanned > _max_scan:
                raise LedgerError("no eligible creator found (all stake blacklisted?)")
            if uid is None or uid in self.ledger.blacklist:
                continue
            idx += 1
            out.append((idx, z - 1, owner, uid))
        return out

    def eligible_creator(self, index: Optional[int] = None) -> tuple:
        """The unique non-blacklisted (owner, uid) for a future slot index
        (default: the next one)."""
        if index is None:
            index = self.last_index + 1
        gap = index - self.last_index
        if gap < 1:
            raise ValueError("index %d is not in the future" % index)
        return self.slot_candidates(gap)[-1][2:]

    # -- chain binding ---------------------------------------------------------

    def tx_chain_binding_check(self, tx: Transaction,
                               creating_index: Optional[int] = None) -> bool:
        """A transaction is valid only in chains containing the block index it
        names; binding to the block currently being created is allowed."""
        index = tx.latest_block_index
        record = self.slots.get(index)
        return index in (0, creating_index) or bool(record and record[2])


def process_block(view: ChainView, block: Block, local_time: Optional[int] = None,
                  observer: Optional[Callable] = None) -> tuple:
    """Validate `block` against `view` and, if valid, return the extended view.

    Returns (new_view, "accept") or (None, reason). Typed reasons: the
    structural ones plus wrong-creator, too-early, future-dated, understaked,
    frozen-stake, bad-evidence, binding-violation, bad-transaction.
    """
    p = view.params
    reason = validate_block_structure(block, view.last_block)
    if reason != "ok":
        return None, reason

    gap = block.index - view.last_index
    try:
        candidates = view.slot_candidates(gap)
    except LedgerError:
        return None, "wrong-creator"
    slot_index, _z, owner, uid = candidates[-1]
    assert slot_index == block.index
    if owner != block.creator:
        return None, "wrong-creator"

    if block.timestamp < min_timestamp(view.last_timestamp, block.index,
                                       view.last_index, p.g0):
        return None, "too-early"
    if local_time is not None and block.timestamp > local_time + p.timestamp_leniency:
        return None, "future-dated"

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

    # strikes for the slots that were skipped by inactive creators
    for idx, _z, missed_owner, missed_uid in candidates[:-1]:
        new.slots[idx] = (missed_owner, missed_uid, ())
        u = new.ledger.utxos[missed_uid]
        strikes = u.strikes + 1
        new.ledger = new.ledger.with_strikes(missed_uid, strikes)
        if strikes >= p.strikes_to_blacklist:
            new.pending_blacklist.setdefault(new.current_group + 2, set()).add(missed_uid)
    new.ledger = new.ledger.with_strikes(uid, 0)

    # deposit freeze: neither the derived nor the auxiliary output may be
    # spent in the first t0 blocks extending this one
    frozen = []
    for duid in deposit_uids:
        new.ledger = new.ledger.with_frozen(duid, height + p.t0)
        frozen.append(duid)

    effect = None
    if evidence_effect is not None:
        offense_index, confiscate_uids = evidence_effect
        effect = dict(_confiscate(new, offense_index, confiscate_uids,
                                  block.creator, height),
                      offense_index=offense_index, reporter=block.creator)

    for tx in block.transactions:
        if not new.tx_chain_binding_check(tx, creating_index=block.index):
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

    if effect is not None and observer:
        observer("confiscation", effect)
    new.slots[block.index] = (owner, uid, tuple(frozen))
    new.group_bits.append(block_bit(block))
    new.height = height
    new.last_index = block.index
    new.last_timestamp = block.timestamp
    new.last_block = block
    new.last_digest = canonical_block_digest(block)

    if len(new.group_bits) == p.ell:
        completed = (height - 1) // p.ell + 1
        new.groups[completed] = (seed_from_group(new.group_bits, p.comb_spec),
                                 block.index)
        new.group_bits = []
        new.z_next = 1
        # activate blacklists scheduled for the group now opening
        opening = completed + 1
        for activation in sorted(new.pending_blacklist):
            if activation <= opening:
                uids = new.pending_blacklist.pop(activation)
                new.ledger = new.ledger.with_blacklisted(uids)
                if observer:
                    observer("blacklist", {"uids": sorted(uids), "group": opening})
    else:
        new.z_next = candidates[-1][1] + 1

    return new, ACCEPT


def _check_evidence(view: ChainView, block: Block):
    """Validate double-sign evidence; returns (offense_index, uids) or a reason."""
    a, b = block.double_sign_evidence
    if a.index != b.index or a.creator != b.creator or a.digest == b.digest:
        return "bad-evidence"
    if not (a.valid() and b.valid()):
        return "bad-evidence"
    offense = a.index
    if offense in view.punished:
        return "bad-evidence"
    if offense >= block.index or block.index - offense > view.params.t0:
        return "bad-evidence"
    record = view.slots.get(offense)
    if record is None or record[0] != a.creator:
        return "bad-evidence"
    uids = set(record[2]) | {record[1]}
    uids = {u for u in uids if u in view.ledger.utxos}
    if not uids:
        return "bad-evidence"
    return offense, uids


def _confiscate(new: ChainView, offense: int, uids, reporter: str,
                height: int) -> dict:
    """Confiscate `uids` in the fresh clone `new`, award c1 of it to the
    reporter and mark the offense punished; returns the effect."""
    total = sum(new.ledger.utxos[u].amount for u in uids)
    award = min(new.params.c1, total)
    new.ledger = new.ledger.confiscate(uids, award, reporter, height)
    new.punished.add(offense)
    return {"confiscated": total, "awarded": award, "destroyed": total - award}


def record_double_sign(view: ChainView, evidence: tuple, reporter_index: int,
                       reporter: str) -> tuple:
    """Standalone confiscation effect of presenting double-sign evidence.

    Returns (new_view, {confiscated, awarded, destroyed}); raises LedgerError
    on stale or duplicate evidence. Used directly by tests and analyses; block
    processing applies the same ``_confiscate``.
    """
    probe = Block(index=reporter_index, prev_digest=b"\x00" * 32, timestamp=0,
                  creator=reporter, double_sign_evidence=evidence)
    ev = _check_evidence(view, probe)
    if isinstance(ev, str):
        raise LedgerError(ev)
    offense, uids = ev
    new = view.clone()
    return new, _confiscate(new, offense, uids, reporter, view.height)


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


def fork_choice(tree: BlockTree) -> bytes:
    """Tip with the largest number of blocks; ties first-seen; respects the
    solidified prefix."""
    return tree.best_tip()


class CoaNode:
    """One network node: a block tree, per-tip views, and checkpoint state."""

    def __init__(self, params: CoaParams, genesis: Block, ledger: LedgerState,
                 node_id: str = "node", observer: Optional[Callable] = None):
        self.params = params
        self.node_id = node_id
        self.observer = observer
        self.tree = BlockTree(genesis)
        self.views = {self.tree.genesis_digest: ChainView(params, genesis, ledger)}
        self.checkpoint_heights_seen = set()

    def _emit(self, kind: str, payload: dict):
        if self.observer:
            self.observer(kind, dict(payload, node=self.node_id))

    @property
    def best_tip(self) -> bytes:
        return self.tree.best_tip()

    @property
    def best_view(self) -> ChainView:
        return self.views[self.best_tip]

    def receive_block(self, block: Block, local_time: Optional[int] = None) -> tuple:
        digest = canonical_block_digest(block)
        if digest in self.tree:
            return True, "duplicate"
        parent = block.prev_digest
        if parent not in self.tree:
            self._emit("block-rejected", {"index": block.index, "reason": "orphan"})
            return False, "orphan"
        if not self.tree.is_ancestor(self.tree.solidified_prefix, parent):
            self._emit("block-rejected", {"index": block.index,
                                          "reason": "below-solidified"})
            return False, "below-solidified"
        new_view, reason = process_block(self.views[parent], block, local_time,
                                         observer=self._emit)
        if reason != ACCEPT:
            self._emit("block-rejected", {"index": block.index, "reason": reason})
            return False, reason
        self.tree.add_block(block)
        self.views[digest] = new_view
        self._emit("block-accepted", {"index": block.index, "height":
                                      self.tree.height[digest],
                                      "creator": block.creator})
        self._solidify_checkpoints(digest)
        return True, ACCEPT

    def receive_chain(self, blocks, local_time: Optional[int] = None) -> int:
        """Deliver a list of blocks in order; returns how many were accepted."""
        n = 0
        for block in blocks:
            ok, reason = self.receive_block(block, local_time)
            n += bool(ok)
        return n

    def _solidify_checkpoints(self, digest: bytes):
        t1 = self.params.t1
        h = self.tree.height[digest]
        if h < 2 * t1 or h % t1 or h in self.checkpoint_heights_seen:
            return
        self.checkpoint_heights_seen.add(h)
        ancestor = self.tree.ancestor_at_height(digest, h - t1)
        if self.tree.is_ancestor(self.tree.solidified_prefix, ancestor) \
                and self.tree.height[ancestor] > self.tree.height[self.tree.solidified_prefix]:
            self.tree.solidify(ancestor)
            self._emit("solidification", {"height": h - t1})

    @property
    def solidified_height(self) -> int:
        return self.tree.height[self.tree.solidified_prefix]
