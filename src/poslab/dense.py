"""Dense-CoA: a fresh committee per block runs a two-round commit/reveal.

Round 1: each of the ell committee members picks a secret R_j and broadcasts
h(R_j). Round 2: everyone signs M = h(R_1)..h(R_ell); the signatures are
aggregated. The block carries the preimages and the aggregate, and the next
seed is hash(R_1..R_ell), uniform as long as a single member was honest. If
any member withholds, the round times out after G0 and the fallback counter
t advances, deriving an alternative committee from offsets t*ell+j.

The aggregate signature is simulated: a tag over (M, sorted signer ids)
whose verification also checks the signer set equals the derived committee.
Constant-size like the real thing, but offering no cryptographic security;
real multisignature schemes are out of scope.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coa import future_dated
from .fts import follow_the_satoshi, satoshi_index
from .ledger import LedgerError, LedgerState, sign, verify

SECRET_BYTES = 32  # n = 256-bit round-1 secrets


def commit_hash(secret: bytes) -> bytes:
    return hashlib.sha256(b"commit:" + secret).digest()


def derive_committee(prev_seed: int, index: int, t: int, ledger: LedgerState,
                     ell: int, kappa: int) -> List[Tuple[str, int]]:
    """The ell members for block `index` at fallback counter t.

    Member j (1-based) comes from follow-the-satoshi on hash(i, t*ell+j, seed);
    member ell is the leader who selects the transactions.
    """
    members = [follow_the_satoshi(ledger, satoshi_index(
        index, t * ell + j, prev_seed, kappa, ledger.total_supply))
        for j in range(1, ell + 1)]
    if (None, None) in members:
        raise LedgerError("committee derivation hit a destroyed satoshi")
    return members


@dataclass
class CommitteeRound:
    block_index: int
    fallback_counter: int
    members: List[Tuple[str, int]]
    commitments: Dict[int, bytes] = field(default_factory=dict)
    reveals: Dict[int, bytes] = field(default_factory=dict)

    @property
    def ell(self) -> int:
        return len(self.members)

    def add_commit(self, member_pos: int, commitment: bytes):
        if not 0 <= member_pos < self.ell:
            raise ValueError("no such committee member")
        if member_pos in self.commitments:
            raise LedgerError("double commit by member %d" % member_pos)
        self.commitments[member_pos] = commitment

    def message(self) -> bytes:
        """M: the concatenation of all ell commitments, in member order."""
        if len(self.commitments) != self.ell:
            raise LedgerError("round 1 incomplete: %d of %d commitments"
                              % (len(self.commitments), self.ell))
        return b"".join(self.commitments[j] for j in range(self.ell))

    def add_reveal(self, member_pos: int, secret: bytes):
        if commit_hash(secret) != self.commitments.get(member_pos):
            raise LedgerError("reveal does not match commitment")
        self.reveals[member_pos] = secret


def round1_commit(rng) -> Tuple[bytes, bytes]:
    """Pick a fresh secret; returns (R_j, h(R_j))."""
    secret = rng.bytes(SECRET_BYTES)
    return secret, commit_hash(secret)


@dataclass(frozen=True)
class AggregateSignature:
    tag: bytes                 # constant size regardless of ell
    signers: Tuple[str, ...]   # member key ids

    def __post_init__(self):
        if len(self.tag) != 32:
            raise ValueError("aggregate tag must be 32 bytes")


def _aggregate_tag(message: bytes, signers) -> bytes:
    h = hashlib.sha256(b"agg:" + message)
    for s in sorted(signers):
        h.update(s.encode() + b"\x00")
    return h.digest()


def round2_sign_and_aggregate(committee: CommitteeRound,
                              signatures: Dict[int, bytes]) -> AggregateSignature:
    """Aggregate the per-member signatures over M; all ell must be present."""
    m = committee.message()
    digest = hashlib.sha256(m).digest()
    owners = [owner for owner, _uid in committee.members]
    for pos, owner in enumerate(owners):
        tag = signatures.get(pos)
        if tag is None:
            raise LedgerError("missing signer %d" % pos)
        if not verify(owner, digest, tag):
            raise LedgerError("bad signature from member %d" % pos)
    return AggregateSignature(_aggregate_tag(m, owners), tuple(owners))


def member_sign(owner: str, committee: CommitteeRound) -> bytes:
    return sign(owner, hashlib.sha256(committee.message()).digest())


def run_round(block_index: int, t: int, members, rng, kappa: int) -> tuple:
    """(aggregate signature, next seed) of a clean committee's round for
    block `block_index` at fallback counter `t`, secrets from `rng` in order."""
    committee, secrets = CommitteeRound(block_index, t, members), []
    for j in range(committee.ell):
        secret, commitment = round1_commit(rng)
        committee.add_commit(j, commitment)
        secrets.append(secret)
    agg = round2_sign_and_aggregate(committee, {
        j: member_sign(owner, committee) for j, (owner, _uid) in enumerate(members)})
    for j, secret in enumerate(secrets):
        committee.add_reveal(j, secret)
    return agg, next_seed(secrets, kappa)


def verify_aggregate(agg: AggregateSignature, message: bytes,
                     expected_members) -> bool:
    owners = [owner for owner, _uid in expected_members]
    return sorted(agg.signers) == sorted(owners) \
        and agg.tag == _aggregate_tag(message, owners)


@dataclass(frozen=True)
class DenseBlock:
    index: int
    prev_digest: bytes
    timestamp: int
    fallback_counter: int      # t; the starting derivation index is t*ell+1
    reveals: Tuple[bytes, ...]
    aggregate: AggregateSignature

    def digest(self) -> bytes:
        h = hashlib.sha256(b"dense:" + self.index.to_bytes(8, "big")
                           + self.prev_digest
                           + self.timestamp.to_bytes(8, "big")
                           + self.fallback_counter.to_bytes(4, "big"))
        for r in self.reveals:
            h.update(r)
        h.update(self.aggregate.tag)
        return h.digest()


def assemble_dense_block(committee: CommitteeRound, agg: AggregateSignature,
                         prev_digest: bytes, timestamp: int) -> DenseBlock:
    if len(committee.reveals) != committee.ell:
        raise LedgerError("round 2 incomplete: missing reveals")
    reveals = tuple(committee.reveals[j] for j in range(committee.ell))
    return DenseBlock(committee.block_index, prev_digest, timestamp,
                      committee.fallback_counter, reveals, agg)


def validate_dense_block(block: DenseBlock, prev_seed: int, ledger: LedgerState,
                         kappa: int, prev_timestamp: int, g0: int,
                         leniency: int, local_time: Optional[int] = None) -> str:
    """Full validation; returns "ok" or a reject reason.

    The timestamp rule: a block at fallback counter t must be at least t*G0
    after its parent (each failed committee consumed a G0 timeout).
    """
    ell = len(block.reveals)
    try:
        members = derive_committee(prev_seed, block.index,
                                   block.fallback_counter, ledger, ell, kappa)
    except LedgerError:
        return "wrong-committee"
    message = b"".join(commit_hash(r) for r in block.reveals)
    if not verify_aggregate(block.aggregate, message, members):
        return "bad-aggregate"
    if block.timestamp < prev_timestamp + block.fallback_counter * g0:
        return "too-early"
    if local_time is not None and future_dated(leniency, block.timestamp,
                                               local_time):
        return "future-dated"
    return "ok"


def next_seed(reveals, kappa: int) -> int:
    """S = hash(R_1 .. R_ell), truncated to kappa bits (uniform if any R_j was)."""
    if not reveals:
        raise LedgerError("no reveals")
    h = hashlib.sha256(b"seed:" + b"".join(reveals)).digest()
    return int.from_bytes(h, "big") >> (256 - kappa)


# ---------------------------------------------------------------------------
# closed-form analyses
# ---------------------------------------------------------------------------

def committee_participation_probability(stake_fraction: float, ell: int) -> float:
    """Chance a stakeholder holds at least one of the ell seats: 1-(1-f)^ell."""
    if not 0 <= stake_fraction <= 1:
        raise ValueError("stake fraction out of range")
    return 1.0 - (1.0 - stake_fraction) ** ell


def expected_completion_time(withholder_fraction: float, ell: int,
                             g0: float) -> float:
    """Mean time to the first committee free of a withholding stakeholder.

    Each attempt succeeds with probability (1-f)^ell and costs G0; ignores
    the speedup from forks off earlier blocks.
    """
    s = (1.0 - withholder_fraction) ** ell
    if s <= 0:
        raise ValueError("withholder controls every committee")
    return g0 / s


def grinding_log2_cost(stake_fraction: float, ell: int) -> float:
    """log2 of the expected hash invocations to control all ell seats: ell*log2(1/f)."""
    if not 0 < stake_fraction < 1:
        raise ValueError("stake fraction must be in (0,1)")
    return ell * math.log2(1.0 / stake_fraction)
