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
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

SIG_LEN = 16
DIGEST_LEN = 32


class LedgerError(Exception):
    pass


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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise LedgerError("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return int.from_bytes(self.take(1), "big")

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def s(self) -> str:
        return self.take(self.u16()).decode()


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
    creation_height: int
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

    def encode_core(self) -> bytes:
        """Encoding of everything except the input signatures (signing payload)."""
        out = [_u32(len(self.inputs))]
        for uid, _tag in self.inputs:
            out.append(_u64(uid))
        out.append(_u32(len(self.outputs)))
        for owner, amount in self.outputs:
            out.append(_s(owner) + _u64(amount))
        out.append(_u64(self.latest_block_index))
        out.append(_u64(self.fee))
        return b"".join(out)

    def signing_digest(self) -> bytes:
        return hashlib.sha256(b"tx:" + self.encode_core()).digest()

    def encode(self) -> bytes:
        out = [_u32(len(self.inputs))]
        for uid, tag in self.inputs:
            out.append(_u64(uid) + tag)
        out.append(_u32(len(self.outputs)))
        for owner, amount in self.outputs:
            out.append(_s(owner) + _u64(amount))
        out.append(_u64(self.latest_block_index))
        out.append(_u64(self.fee))
        return b"".join(out)

    @staticmethod
    def decode(r: _Reader) -> "Transaction":
        inputs = tuple((r.u64(), r.take(SIG_LEN)) for _ in range(r.u32()))
        outputs = tuple((r.s(), r.u64()) for _ in range(r.u32()))
        return Transaction(inputs, outputs, r.u64(), r.u64())


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

    @staticmethod
    def decode(r: _Reader) -> "EvidenceEntry":
        return EvidenceEntry(r.u64(), r.s(), r.take(DIGEST_LEN), r.take(SIG_LEN))


@dataclass(frozen=True)
class Block:
    index: int
    prev_digest: bytes
    timestamp: int
    creator: str
    transactions: tuple = ()
    auxiliary_proof: Optional[int] = None
    double_sign_evidence: Optional[tuple] = None   # (EvidenceEntry, EvidenceEntry)
    genesis_seed: Optional[int] = None             # present on the genesis block only
    signature: bytes = b"\x00" * SIG_LEN

    def encode_unsigned(self) -> bytes:
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
        return self.encode_unsigned() + self.signature

    def signing_digest(self) -> bytes:
        return hashlib.sha256(b"blk:" + self.encode_unsigned()).digest()

    def signed_by(self, creator: Optional[str] = None) -> "Block":
        who = creator if creator is not None else self.creator
        return replace(self, signature=sign(who, self.signing_digest()))


def decode_block(data: bytes) -> Block:
    r = _Reader(data)
    index = r.u64()
    prev_digest = r.take(DIGEST_LEN)
    timestamp = r.u64()
    creator = r.s()
    txs = tuple(Transaction.decode(r) for _ in range(r.u32()))
    aux = r.u64() if r.u8() else None
    evidence = None
    if r.u8():
        evidence = (EvidenceEntry.decode(r), EvidenceEntry.decode(r))
    genesis_seed = r.u64() if r.u8() else None
    signature = r.take(SIG_LEN)
    return Block(index, prev_digest, timestamp, creator, txs, aux,
                 evidence, genesis_seed, signature)


def canonical_block_digest(block: Block) -> bytes:
    """Deterministic digest over the full canonical encoding."""
    return hashlib.sha256(b"dig:" + block.encode()).digest()


def block_bit(block: Block) -> int:
    """The per-block lottery bit: most significant bit of the block digest."""
    return canonical_block_digest(block)[0] >> 7


def validate_block_structure(block: Block, parent: Block) -> str:
    """Structural checks against the parent. Returns "ok" or a rejection reason."""
    if block.index <= parent.index:
        return "bad-index"
    if block.prev_digest != canonical_block_digest(parent):
        return "bad-link"
    if not verify(block.creator, block.signing_digest(), block.signature):
        return "bad-signature"
    return "ok"


# ---------------------------------------------------------------------------
# ledger state
# ---------------------------------------------------------------------------

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
    def from_allocation(allocation: Iterable, height: int = 0) -> "LedgerState":
        """Build a genesis ledger from (owner, amount) pairs, packed contiguously."""
        utxos = {}
        pos = 0
        uid = 0
        for owner, amount in allocation:
            if amount <= 0:
                raise LedgerError("allocation amounts must be positive: %r" % owner)
            utxos[uid] = Utxo(uid, owner, ((pos, pos + amount),), height)
            pos += amount
            uid += 1
        return LedgerState(utxos, frozenset(), pos, 0, uid)

    def _clone(self, utxos=None, blacklist=None, destroyed=None, next_uid=None):
        return LedgerState(
            utxos if utxos is not None else self.utxos,
            blacklist if blacklist is not None else self.blacklist,
            self.total_supply,
            destroyed if destroyed is not None else self.destroyed,
            next_uid if next_uid is not None else self.next_uid,
        )

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
        return self.total_supply - self.destroyed

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

        in_intervals.sort()
        payouts = list(tx.outputs)
        if tx.fee:
            payouts.append((fee_recipient, tx.fee))
        uid = self.next_uid
        cursor = iter(in_intervals)
        cur = next(cursor, None)
        for owner, amount in payouts:
            pieces = []
            need = amount
            while need > 0:
                if cur is None:
                    raise ConservationError("ran out of input intervals")
                s, e = cur
                take = min(need, e - s)
                pieces.append((s, s + take))
                need -= take
                cur = (s + take, e) if s + take < e else next(cursor, None)
            utxos[uid] = Utxo(uid, owner, tuple(pieces), height)
            uid += 1
        return self._clone(utxos=utxos, blacklist=blacklist, next_uid=uid)

    # -- bookkeeping used by the consensus engines -------------------------

    def _with_utxo(self, uid: int, **changes) -> "LedgerState":
        """Replace fields of one output; no interval moves, so the new state
        shares this one's interval index."""
        utxos = dict(self.utxos)
        utxos[uid] = replace(utxos[uid], **changes)
        out = self._clone(utxos=utxos)
        out._starts, out._index_entries = self._starts, self._index_entries
        return out

    def with_frozen(self, uid: int, until: int) -> "LedgerState":
        return self._with_utxo(uid, frozen_until=until)

    def with_strikes(self, uid: int, strikes: int) -> "LedgerState":
        return self._with_utxo(uid, strikes=strikes)

    def with_blacklisted(self, uids: Iterable[int]) -> "LedgerState":
        uids = {u for u in uids if u in self.utxos}
        return self._clone(blacklist=self.blacklist | uids)

    def confiscate(self, uids: Iterable[int], award: int, reporter: str,
                   height: int) -> "LedgerState":
        """Destroy the given outputs, carving ``award`` satoshis out for the reporter.

        Returns the new state; the amount destroyed is the confiscated total
        minus the award.
        """
        utxos = dict(self.utxos)
        intervals = []
        total = 0
        for uid in uids:
            u = utxos.pop(uid, None)
            if u is None:
                continue
            total += u.amount
            intervals.extend(u.intervals)
        if award > total:
            raise ConservationError("award %d exceeds confiscated %d" % (award, total))
        intervals.sort()
        uid = self.next_uid
        if award > 0 and total > 0:
            pieces = []
            need = award
            for s, e in intervals:
                take = min(need, e - s)
                pieces.append((s, s + take))
                need -= take
                if need == 0:
                    break
            utxos[uid] = Utxo(uid, reporter, tuple(pieces), height)
            uid += 1
        blacklist = self.blacklist - set(uids)
        return LedgerState(utxos, blacklist, self.total_supply,
                           self.destroyed + (total - award), uid)


# ---------------------------------------------------------------------------
# block tree
# ---------------------------------------------------------------------------

class BlockTree:
    """Fork-choice structure over received blocks.

    Heights count produced blocks from genesis (genesis has height 0).
    Arrival order is recorded so equal-length ties replay deterministically.
    """

    def __init__(self, genesis: Block):
        gd = canonical_block_digest(genesis)
        self.genesis_digest = gd
        self.blocks = {gd: genesis}
        self.parent = {gd: None}
        self.children = {gd: []}
        self.height = {gd: 0}
        self.arrival = {gd: 0}
        self._seq = 1
        self.tips = {gd}
        self.solidified_prefix = gd

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.blocks

    def add_block(self, block: Block) -> bytes:
        parent = block.prev_digest
        if parent not in self.blocks:
            raise LedgerError("parent unknown")
        digest = canonical_block_digest(block)
        if digest in self.blocks:
            return digest
        self.blocks[digest] = block
        self.parent[digest] = parent
        self.children.setdefault(digest, [])
        self.children[parent].append(digest)
        self.height[digest] = self.height[parent] + 1
        self.arrival[digest] = self._seq
        self._seq += 1
        self.tips.discard(parent)
        self.tips.add(digest)
        return digest

    def path(self, digest: bytes) -> list:
        """Digests from genesis to the given block, inclusive."""
        out = []
        while digest is not None:
            out.append(digest)
            digest = self.parent[digest]
        out.reverse()
        return out

    def is_ancestor(self, ancestor: bytes, digest: bytes) -> bool:
        ah = self.height[ancestor]
        while digest is not None and self.height[digest] > ah:
            digest = self.parent[digest]
        return digest == ancestor

    def ancestor_at_height(self, digest: bytes, height: int) -> bytes:
        while self.height[digest] > height:
            digest = self.parent[digest]
        if self.height[digest] != height:
            raise LedgerError("no ancestor at height %d" % height)
        return digest

    def best_tip(self) -> bytes:
        """Tip with most blocks, respecting the solidified prefix; ties first-seen."""
        best = None
        for tip in self.tips:
            if not self.is_ancestor(self.solidified_prefix, tip):
                continue
            if best is None or (self.height[tip], -self.arrival[tip]) > \
                    (self.height[best], -self.arrival[best]):
                best = tip
        return best

    def solidify(self, digest: bytes) -> None:
        if not self.is_ancestor(self.solidified_prefix, digest):
            raise LedgerError("solidified prefix may only extend")
        self.solidified_prefix = digest


# ---------------------------------------------------------------------------
# genesis allocation files
# ---------------------------------------------------------------------------

def parse_genesis_allocation(text: str) -> list:
    """Parse an allocation file: one "owner amount" pair per line, # comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise LedgerError("line %d: expected 'owner amount', got %r" % (lineno, raw))
        try:
            amount = int(parts[1])
        except ValueError:
            raise LedgerError("line %d: bad amount %r" % (lineno, parts[1]))
        out.append((parts[0], amount))
    return out


def format_genesis_allocation(allocation: Iterable) -> str:
    return "".join("%s %d\n" % (owner, amount) for owner, amount in allocation)
