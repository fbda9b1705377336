"""Canonical data model for coins, outputs, transactions, blocks and block trees.

Satoshis are identified by integer indices. Each unspent output owns an
ordered set of disjoint index intervals; the ledger keeps an interval map so
an index resolves to its current owner in O(log #utxos).

Canonical serialization (documented byte-exact in docs/formats.md): fixed
width big-endian integers, length-prefixed lists, fields in declaration
order. Signatures are a simulated scheme: a 16-byte tag derived from the
signer id and the signed digest, verified by recomputation. The simulator
studies incentives, not cryptanalysis.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Tuple

SIG_LEN = 16


class LedgerError(Exception):
    pass


class ConfigError(ValueError):
    """A bad input (config field, param or option), named by ``fieldname``."""
    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.fieldname, self.message = fieldname, message

    def __reduce__(self):   # so it crosses a process pool as itself
        return ConfigError, (self.fieldname, self.message)


class DoubleSpendError(LedgerError):
    pass


class FrozenOutputError(LedgerError):
    pass


class ConservationError(LedgerError):
    pass


# ---------------------------------------------------------------------------
# simulated signature scheme
# ---------------------------------------------------------------------------

def sign(owner: str, digest: bytes) -> bytes:
    """Simulated signature: a tag binding the signer id to the digest."""
    return hashlib.sha256(b"sig:" + owner.encode() + digest).digest()[:SIG_LEN]


def verify(owner: str, digest: bytes, tag: bytes) -> bool:
    return tag == sign(owner, digest)


# ---------------------------------------------------------------------------
# canonical encoding primitives
# ---------------------------------------------------------------------------

def _u8(x: int) -> bytes:
    return x.to_bytes(1, "big")


def _u16(x: int) -> bytes:
    return x.to_bytes(2, "big")


def _u32(x: int) -> bytes:
    return x.to_bytes(4, "big")


def _u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def _s(text: str) -> bytes:
    raw = text.encode()
    return _u16(len(raw)) + raw


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Utxo:
    """A live transaction output covering one or more satoshi intervals.

    Intervals are half-open [start, end), pairwise disjoint and sorted.
    """
    uid: int
    owner: str
    intervals: tuple
    strikes: int = 0
    frozen_until: Optional[int] = None

    @property
    def amount(self) -> int:
        return sum(e - s for s, e in self.intervals)

    def is_frozen(self, height: int) -> bool:
        return self.frozen_until is not None and height <= self.frozen_until


@dataclass(frozen=True)
class Transaction:
    inputs: tuple          # tuple of (uid, signature tag)
    outputs: tuple         # tuple of (owner, amount)
    latest_block_index: int
    fee: int = 0

    def signing_digest(self) -> bytes:
        return hashlib.sha256(b"tx:" + self.encode(signed=False)).digest()

    def encode(self, signed: bool = True) -> bytes:
        """The canonical encoding; without the input signatures it is the
        signing payload (the unsigned encoding)."""
        out = [_u32(len(self.inputs))]
        for uid, tag in self.inputs:
            out.append(_u64(uid) + tag if signed else _u64(uid))
        out.append(_u32(len(self.outputs)))
        for owner, amount in self.outputs:
            out.append(_s(owner) + _u64(amount))
        out.append(_u64(self.latest_block_index))
        out.append(_u64(self.fee))
        return b"".join(out)


@dataclass(frozen=True)
class EvidenceEntry:
    """One half of a double-sign proof: a signed header for a slot index."""
    index: int
    creator: str
    digest: bytes
    signature: bytes

    def valid(self) -> bool:
        return verify(self.creator, self.digest, self.signature)

    def encode(self) -> bytes:
        return _u64(self.index) + _s(self.creator) + self.digest + self.signature


@dataclass(frozen=True)
class Block:
    index: int
    prev_digest: bytes
    timestamp: int
    creator: str
    transactions: tuple = ()
    auxiliary_proof: Optional[int] = None
    double_sign_evidence: Optional[Tuple[EvidenceEntry, EvidenceEntry]] = None
    genesis_seed: Optional[int] = None             # present on the genesis block only
    signature: bytes = b"\x00" * SIG_LEN

    @cached_property
    def unsigned_encoding(self) -> bytes:
        """The encoding without the signature, built once per block object;
        ``signed_by``'s copy keeps it."""
        out = [
            _u64(self.index),
            self.prev_digest,
            _u64(self.timestamp),
            _s(self.creator),
            _u32(len(self.transactions)),
        ]
        for tx in self.transactions:
            out.append(tx.encode())
        if self.auxiliary_proof is None:
            out.append(_u8(0))
        else:
            out.append(_u8(1) + _u64(self.auxiliary_proof))
        if self.double_sign_evidence is None:
            out.append(_u8(0))
        else:
            a, b = self.double_sign_evidence
            out.append(_u8(1) + a.encode() + b.encode())
        if self.genesis_seed is None:
            out.append(_u8(0))
        else:
            out.append(_u8(1) + _u64(self.genesis_seed))
        return b"".join(out)

    def encode(self) -> bytes:
        return self.unsigned_encoding + self.signature

    def signing_digest(self) -> bytes:
        return self._signing_digest

    @cached_property
    def _signing_digest(self) -> bytes:
        return hashlib.sha256(b"blk:" + self.unsigned_encoding).digest()

    @cached_property
    def digest(self) -> bytes:
        """Canonical digest over the full encoding, computed once per block
        object; ``replace`` and ``signed_by`` build a new object."""
        return hashlib.sha256(b"dig:" + self.encode()).digest()

    def signed_by(self, creator: Optional[str] = None) -> "Block":
        """A copy signed by `creator` (by default the block's creator). The
        signature enters neither the unsigned encoding nor the signing
        digest, so the copy keeps both; it gets its own digest."""
        who = creator if creator is not None else self.creator
        tag = sign(who, self.signing_digest())
        out = Block.__new__(Block)
        out.__dict__.update(self.__dict__, signature=tag)
        out.__dict__.pop("digest", None)
        return out


def canonical_block_digest(block: Block) -> bytes:
    """Deterministic digest over the full canonical encoding."""
    return block.digest


def block_bit(block: Block) -> int:
    """The per-block lottery bit: most significant bit of the block digest."""
    return block.digest[0] >> 7


def validate_block_structure(block: Block, parent: Block) -> str:
    """Structural checks against the parent. Returns "ok" or a rejection reason."""
    if block.index <= parent.index:
        return "bad-index"
    if block.prev_digest != parent.digest:
        return "bad-link"
    if not verify(block.creator, block.signing_digest(), block.signature):
        return "bad-signature"
    return "ok"


# ---------------------------------------------------------------------------
# ledger state
# ---------------------------------------------------------------------------

def _carve(intervals: list, amounts: list) -> list:
    """Cut each amount in turn off the sorted `intervals`, lowest index
    first; returns one tuple of [start, end) pieces per amount."""
    cursor = iter(sorted(intervals))
    cur = next(cursor, None)
    out = []
    for need in amounts:
        pieces = []
        while need > 0:
            if cur is None:
                raise ConservationError("ran out of input intervals")
            s, e = cur
            take = min(need, e - s)
            pieces.append((s, s + take))
            need -= take
            cur = (s + take, e) if s + take < e else next(cursor, None)
        out.append(tuple(pieces))
    return out


class LedgerState:
    """Interval map from satoshi indices to unspent outputs.

    Value semantics: every mutating operation returns a fresh LedgerState and
    leaves the receiver untouched, so applying then discarding a transaction
    trivially restores the prior state.
    """

    def __init__(self, utxos: dict, blacklist: frozenset, total_supply: int,
                 destroyed: int = 0, next_uid: int = 0):
        self.utxos = utxos
        self.blacklist = blacklist
        self.total_supply = total_supply
        self.destroyed = destroyed
        self.next_uid = next_uid
        self._starts = None
        self._index_entries = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_allocation(allocation: Iterable) -> "LedgerState":
        """Build a genesis ledger from (owner, amount) pairs, packed contiguously."""
        utxos = {}
        pos = 0
        uid = 0
        for owner, amount in allocation:
            if amount <= 0:
                raise LedgerError("allocation amounts must be positive: %r" % owner)
            utxos[uid] = Utxo(uid, owner, ((pos, pos + amount),))
            pos += amount
            uid += 1
        return LedgerState(utxos, frozenset(), pos, 0, uid)

    def _derive(self, moved: bool, **fields) -> "LedgerState":
        """This state with `fields` replaced. It shares this state's
        interval index unless an interval `moved`."""
        out = LedgerState.__new__(LedgerState)
        out.__dict__.update(self.__dict__, **fields)
        if moved:
            out._starts = out._index_entries = None
        return out

    # -- interval index ----------------------------------------------------

    def _ensure_index(self):
        if self._starts is None:
            entries = []
            for u in self.utxos.values():
                for s, e in u.intervals:
                    entries.append((s, e, u.uid))
            entries.sort()
            self._index_entries = entries
            self._starts = [s for s, _e, _u in entries]

    def utxo_covering(self, index: int) -> Optional[Utxo]:
        """The live output owning a satoshi index, or None if it was destroyed."""
        if not 0 <= index < self.total_supply:
            raise LedgerError("satoshi index %d out of range" % index)
        self._ensure_index()
        i = bisect_right(self._starts, index) - 1
        if i < 0:
            return None
        s, e, uid = self._index_entries[i]
        if s <= index < e:
            return self.utxos[uid]
        return None

    @property
    def live_total(self) -> int:
        return sum(u.amount for u in self.utxos.values())

    # -- transactions ------------------------------------------------------

    def apply_transaction(self, tx: Transaction, height: int,
                          fee_recipient: Optional[str] = None) -> "LedgerState":
        """Spend the inputs and create fresh outputs.

        Spending clears any blacklist membership of the inputs. The fee, if
        nonzero, is credited to ``fee_recipient`` as an additional output.
        """
        in_total = 0
        in_intervals = []
        for uid, tag in tx.inputs:
            u = self.utxos.get(uid)
            if u is None:
                raise DoubleSpendError("input %d is not a live output" % uid)
            if u.is_frozen(height):
                raise FrozenOutputError("input %d frozen until height %d" % (uid, u.frozen_until))
            if not verify(u.owner, tx.signing_digest(), tag):
                raise LedgerError("bad signature on input %d" % uid)
            in_total += u.amount
            in_intervals.extend(u.intervals)
        out_total = sum(a for _o, a in tx.outputs)
        if in_total != out_total + tx.fee:
            raise ConservationError("inputs %d != outputs %d + fee %d"
                                    % (in_total, out_total, tx.fee))
        if tx.fee and fee_recipient is None:
            raise LedgerError("transaction carries a fee but no recipient given")

        utxos = dict(self.utxos)
        spent = set()
        for uid, _tag in tx.inputs:
            if uid in spent:
                raise DoubleSpendError("input %d listed twice" % uid)
            spent.add(uid)
            del utxos[uid]
        blacklist = self.blacklist - spent if self.blacklist & spent else self.blacklist

        payouts = list(tx.outputs)
        if tx.fee:
            payouts.append((fee_recipient, tx.fee))
        uid = self.next_uid
        for (owner, _amount), pieces in zip(
                payouts, _carve(in_intervals, [a for _o, a in payouts])):
            utxos[uid] = Utxo(uid, owner, pieces)
            uid += 1
        return self._derive(True, utxos=utxos, blacklist=blacklist, next_uid=uid)

    # -- bookkeeping used by the consensus engines -------------------------

    def _with_utxo(self, u: Utxo) -> "LedgerState":
        """This state with `u` in place of its uid's output; no interval moves."""
        utxos = dict(self.utxos)
        utxos[u.uid] = u
        return self._derive(False, utxos=utxos)

    def with_frozen(self, uid: int, until: int) -> "LedgerState":
        u = self.utxos[uid]
        return self._with_utxo(Utxo(uid, u.owner, u.intervals, u.strikes, until))

    def with_strikes(self, uid: int, strikes: int) -> "LedgerState":
        u = self.utxos[uid]
        return self._with_utxo(Utxo(uid, u.owner, u.intervals, strikes,
                                    u.frozen_until))

    def with_blacklisted(self, uids: Iterable[int]) -> "LedgerState":
        uids = {u for u in uids if u in self.utxos}
        return self._derive(False, blacklist=self.blacklist | uids)

    def confiscate(self, uids: Iterable[int], award: int,
                   reporter: str) -> "LedgerState":
        """Destroy the given outputs, carving ``award`` satoshis out for the reporter.

        Returns the new state; the amount destroyed is the confiscated total
        minus the award.
        """
        uids = set(uids)
        utxos = dict(self.utxos)
        seized = [utxos.pop(uid) for uid in uids if uid in utxos]
        total = sum(u.amount for u in seized)
        if award > total:
            raise ConservationError("award %d exceeds confiscated %d" % (award, total))
        uid = self.next_uid
        if award > 0:
            [pieces] = _carve([iv for u in seized for iv in u.intervals], [award])
            utxos[uid] = Utxo(uid, reporter, pieces)
            uid += 1
        return self._derive(True, utxos=utxos, blacklist=self.blacklist - uids,
                            destroyed=self.destroyed + total - award, next_uid=uid)


# ---------------------------------------------------------------------------
# block tree
# ---------------------------------------------------------------------------

class BlockTree:
    """A node's fork-choice state, as a value.

    Heights count produced blocks from genesis (genesis has height 0).
    ``blocks`` and ``height`` are one store for every state that grows from
    one genesis state, so a run keeps each block once. ``live`` maps the
    solidified prefix and the blocks that descend from it to their marks,
    parents first. ``best`` is the first marked block seen at the greatest
    height, and a checkpoint every `t1` blocks solidifies the best chain:
    the first block to reach a height k*t1 moves the prefix up to its
    ancestor t1 below (so k >= 2 from genesis). ``add_block`` returns the
    successor state and keeps it by block digest, so the nodes that accept
    the same blocks in the same order hold one state, and each step,
    checkpoint included, runs once. A state it builds records that step as
    ``step``: (the block's mark, the new solidified height or 0, reorg,
    moved). Moved: the best tip moved to the block; reorg: onto a block
    whose parent is not the old best. Any other state's ``step`` is None.
    """

    def __init__(self, genesis: Block, mark, t1: int):
        gd = genesis.digest
        self.genesis_digest = gd
        self.blocks = {gd: genesis}
        self.height = {gd: 0}
        self.t1 = t1
        self.best = gd
        self.solidified_prefix = gd
        self.live = {gd: mark}      # marked digest -> its mark, parents first
        self._next = {}             # block digest -> successor state
        self.step = None

    def _derive(self, **fields) -> "BlockTree":
        """This state with `fields` replaced and no successor yet."""
        out = BlockTree.__new__(BlockTree)
        out.__dict__.update(self.__dict__, _next={}, step=None, **fields)
        return out

    def add_block(self, block: Block, mark=None) -> "BlockTree":
        """The state after `block` arrives: `block` marked with `mark` when
        its parent is marked, else this state. The first call per block
        decides; the mark must be a function of this state and the block,
        as a view is."""
        digest = block.digest
        out = self._next.get(digest)
        if out is not None:
            return out
        parent = block.prev_digest
        if parent not in self.blocks:
            raise LedgerError("parent unknown")
        self.blocks[digest] = block
        height = self.height[digest] = self.height[parent] + 1
        if parent not in self.live:
            return self
        out = self._derive(live={**self.live, digest: mark})
        moved, solidified = height > self.height[self.best], 0
        if moved:
            out.best = digest
            low = height - self.t1
            if height % self.t1 == 0 and low > self.height[self.solidified_prefix]:
                out = out.solidify(self.ancestor_at_height(digest, low))
                solidified = low
        out.step = (mark, solidified, moved and parent != self.best, moved)
        self._next[digest] = out
        return out

    def path(self, digest: bytes) -> list:
        """Digests from genesis to the given block, inclusive."""
        out = [digest]
        while digest != self.genesis_digest:
            digest = self.blocks[digest].prev_digest
            out.append(digest)
        out.reverse()
        return out

    def is_ancestor(self, ancestor: bytes, digest: bytes) -> bool:
        ah = self.height[ancestor]
        while self.height[digest] > ah:
            digest = self.blocks[digest].prev_digest
        return digest == ancestor

    def ancestor_at_height(self, digest: bytes, height: int) -> bytes:
        while self.height[digest] > height:
            digest = self.blocks[digest].prev_digest
        if self.height[digest] != height:
            raise LedgerError("no ancestor at height %d" % height)
        return digest

    def best_tip(self) -> bytes:
        """Tip with most blocks, respecting the solidified prefix; ties first-seen."""
        return self.best

    def solidify(self, digest: bytes) -> "BlockTree":
        """This state with the prefix moved up the best chain to `digest`
        and every mark that does not descend from it dropped, in one pass
        over the marks: a parent's mark comes first, so a descendant finds
        it kept."""
        blocks, live = self.blocks, {digest: self.live.get(digest)}
        for d, mark in self.live.items():
            if blocks[d].prev_digest in live:
                live[d] = mark
        if digest not in self.live or self.best not in live:
            raise LedgerError("solidified prefix may only extend up the best chain")
        return self._derive(solidified_prefix=digest, live=live)
