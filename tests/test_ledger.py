import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab.ledger import (
    Block, BlockTree, ConservationError, DoubleSpendError, EvidenceEntry,
    FrozenOutputError, LedgerError, LedgerState, Transaction,
    canonical_block_digest, sign, validate_block_structure, verify,
)
from poslab.rng import make_rng


def make_ledger():
    return LedgerState.from_allocation([("alice", 100), ("bob", 50), ("carol", 25)])


def signed_tx(ledger, uids, outputs, latest=0, fee=0):
    tx = Transaction(tuple((u, b"\x00" * 16) for u in uids), tuple(outputs),
                     latest, fee)
    digest = tx.signing_digest()
    inputs = tuple((u, sign(ledger.utxos[u].owner, digest)) for u in uids)
    return Transaction(inputs, tuple(outputs), latest, fee)


def test_signature_roundtrip():
    digest = b"\x17" * 32
    tag = sign("alice", digest)
    assert verify("alice", digest, tag)
    assert not verify("bob", digest, tag)
    assert not verify("alice", b"\x18" * 32, tag)


def test_allocation_packs_contiguously():
    ledger = make_ledger()
    assert ledger.total_supply == 175
    assert ledger.utxo_covering(0).owner == "alice"
    assert ledger.utxo_covering(99).owner == "alice"
    assert ledger.utxo_covering(100).owner == "bob"
    assert ledger.utxo_covering(174).owner == "carol"
    with pytest.raises(LedgerError):
        ledger.utxo_covering(175)
    with pytest.raises(LedgerError):
        ledger.utxo_covering(-1)


def test_transaction_apply_and_conservation():
    ledger = make_ledger()
    tx = signed_tx(ledger, [0], [("dave", 60), ("alice", 35)], fee=5)
    new = ledger.apply_transaction(tx, height=1, fee_recipient="bob")
    assert 0 not in new.utxos
    owners = {u.owner for u in new.utxos.values()}
    assert "dave" in owners
    # fee shows up as an extra output for the recipient
    assert sum(u.amount for u in new.utxos.values()) == 175
    assert new.live_total == 175
    # the original state is untouched (value semantics)
    assert 0 in ledger.utxos


def test_live_total_sums_the_outputs_held():
    ledger = make_ledger()
    assert ledger.live_total + ledger.destroyed == ledger.total_supply
    # a ledger that lost an output fails the supply check
    lost = LedgerState({uid: u for uid, u in ledger.utxos.items() if uid != 1},
                       ledger.blacklist, ledger.total_supply, ledger.destroyed,
                       ledger.next_uid)
    assert lost.live_total == 125
    assert lost.live_total + lost.destroyed != lost.total_supply


def test_transaction_bad_amounts_rejected():
    ledger = make_ledger()
    tx = signed_tx(ledger, [0], [("dave", 60)], fee=5)  # 100 != 65
    with pytest.raises(ConservationError):
        ledger.apply_transaction(tx, 1, fee_recipient="bob")


def test_double_spend_rejected():
    ledger = make_ledger()
    tx = signed_tx(ledger, [1], [("dave", 50)])
    new = ledger.apply_transaction(tx, 1)
    with pytest.raises(DoubleSpendError):
        new.apply_transaction(tx, 2)


def test_frozen_input_rejected():
    ledger = make_ledger().with_frozen(1, until=10)
    tx = signed_tx(ledger, [1], [("dave", 50)])
    with pytest.raises(FrozenOutputError):
        ledger.apply_transaction(tx, 5)
    # after the freeze expires it spends fine
    ledger.apply_transaction(tx, 11)


def test_wrong_signature_rejected():
    ledger = make_ledger()
    tx = signed_tx(ledger, [0], [("dave", 100)])
    forged = Transaction(((0, sign("mallory", tx.signing_digest())),),
                         tx.outputs, 0, 0)
    with pytest.raises(LedgerError):
        ledger.apply_transaction(forged, 1)


def test_spending_clears_blacklist():
    ledger = make_ledger().with_blacklisted([1])
    assert 1 in ledger.blacklist
    tx = signed_tx(ledger, [1], [("bob2", 50)])
    new = ledger.apply_transaction(tx, 1)
    assert 1 not in new.blacklist
    # descendants are not blacklisted
    assert not any(u in new.blacklist for u in new.utxos)


def test_confiscation_conservation():
    ledger = make_ledger()
    new = ledger.confiscate([0, 1], award=30, reporter="rep")
    assert new.destroyed == 150 - 30
    assert new.live_total == 175 - 120
    reporter = [u for u in new.utxos.values() if u.owner == "rep"]
    assert len(reporter) == 1 and reporter[0].amount == 30
    # destroyed satoshis resolve to holes
    some_hole = [i for i in range(175) if new.utxo_covering(i) is None]
    assert len(some_hole) == 120


def test_blacklisting_keeps_the_interval_index():
    ledger = make_ledger().confiscate([1], award=20, reporter="rep")
    ledger.utxo_covering(0)  # builds the index
    black = ledger.with_blacklisted([0, 3])
    # states whose intervals stay put share the index; the others rebuild it
    tx = signed_tx(ledger, [2], [("dave", 25)])
    derived = {
        "with_blacklisted": (black, True),
        "with_frozen": (ledger.with_frozen(0, until=9), True),
        "with_strikes": (ledger.with_strikes(3, 2), True),
        "apply_transaction": (ledger.apply_transaction(tx, 1), False),
        "confiscate": (ledger.confiscate([0], award=5, reporter="r2"), False),
    }
    for name, (state, shares) in derived.items():
        assert (state._starts is ledger._starts) is shares, name
        assert (state._index_entries is ledger._index_entries) is shares, name
        fresh = LedgerState(state.utxos, state.blacklist, state.total_supply,
                            state.destroyed, state.next_uid)
        for i in range(state.total_supply):  # every interval start and hole
            assert state.utxo_covering(i) == fresh.utxo_covering(i), name


def test_transaction_block_and_carve_bytes_are_pinned():
    """No engine run carries a transaction, so the trace digests would miss
    a changed transaction layout or carve order; these pins catch both."""
    ledger = make_ledger()
    tx = signed_tx(ledger, [0, 2], [("dave", 70), ("erin", 51)], latest=7,
                   fee=4)
    assert hashlib.sha256(tx.encode()).hexdigest() == \
        "b8d967ed548f419b4efc27dbd783fb8d87f5a98fb83cfff6f7a88574bcfebb3f"
    assert tx.signing_digest().hex() == \
        "d275dd06acf3b67f505c16ff01c38630333d11d17225022bb10e31b40feb8893"
    evidence = tuple(EvidenceEntry(5, "bob", d, sign("bob", d))
                     for d in (b"\x01" * 32, b"\x02" * 32))
    block = Block(9, b"\x03" * 32, 2700, "bob", (tx,), auxiliary_proof=1,
                  double_sign_evidence=evidence).signed_by()
    assert block.digest.hex() == \
        "7df325776cf3ae06ffd7c08d4ec6c883a42b602c62936913d828a8cc77b3d3cb"

    paid = ledger.apply_transaction(tx, 3, fee_recipient="bob")
    assert [(u.uid, u.owner, u.intervals) for u in paid.utxos.values()] == [
        (1, "bob", ((100, 150),)),
        (3, "dave", ((0, 70),)),
        (4, "erin", ((70, 100), (150, 171))),
        (5, "bob", ((171, 175),)),
    ]
    seized = paid.confiscate([4, 1], award=60, reporter="rep")
    assert [(u.uid, u.owner, u.intervals) for u in seized.utxos.values()] == [
        (3, "dave", ((0, 70),)),
        (5, "bob", ((171, 175),)),
        (6, "rep", ((70, 100), (100, 130))),
    ]
    assert (seized.destroyed, seized.next_uid) == (41, 7)


def test_confiscation_award_cannot_exceed_total():
    ledger = make_ledger()
    with pytest.raises(ConservationError):
        ledger.confiscate([2], award=26, reporter="rep")


def test_interval_carving_random_roundtrips():
    rng = make_rng(5, "ledger-carving")
    for trial in range(60):
        amounts = [int(rng.integers(1, 40)) for _ in range(int(rng.integers(2, 6)))]
        ledger = LedgerState.from_allocation(
            [("h%d" % i, a) for i, a in enumerate(amounts)])
        # spend everything into a random re-partition
        uids = list(ledger.utxos)
        total = sum(amounts)
        cuts = sorted(set(int(rng.integers(1, total))
                          for _ in range(int(rng.integers(0, 4)))))
        bounds = [0] + cuts + [total]
        outs = [("n%d" % i, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        new = ledger.apply_transaction(signed_tx(ledger, uids, outs), 1)
        assert sum(u.amount for u in new.utxos.values()) == total
        for idx in range(total):
            assert new.utxo_covering(idx) is not None


# Each property checks every pair in a pool of 30 values drawn from tiny
# domains, so that many pairs differ in only one or two fields: an encoding
# that dropped a field or a string's length prefix would give some pair the
# same bytes. A dropped presence flag or list count cannot make values this
# small collide; the byte pins above and the trace digests catch those.
_names = st.sampled_from(["", "\x00"])
_bits = st.integers(0, 1)
_tag = b"\x00" * 16
_transactions = st.builds(
    Transaction, st.lists(st.tuples(_bits, st.just(_tag)), max_size=1).map(tuple),
    st.lists(st.tuples(_names, st.just(0)), max_size=2).map(tuple), _bits, _bits)
_evidence = st.builds(EvidenceEntry, st.just(0), _names, st.just(b"\x00" * 32),
                      st.just(_tag))
_blocks = st.builds(
    Block, st.just(1), st.just(b"\x00" * 32), st.just(300), _names,
    st.lists(st.sampled_from([Transaction((), (), 0, 0),
                              Transaction((), (("", 0),), 0, 0)]),
             max_size=2).map(tuple), st.sampled_from([None, 0]),
    st.none() | st.tuples(_evidence, _evidence), st.sampled_from([None, 0]))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.lists(_transactions, min_size=30, max_size=30))
def test_transactions_are_equal_exactly_when_their_encodings_are(txs):
    assert len(set(txs)) == len({tx.encode() for tx in txs})


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.lists(_blocks, min_size=30, max_size=30))
def test_blocks_are_equal_exactly_when_their_encodings_are(blocks):
    assert len(set(blocks)) == len({block.encode() for block in blocks})


def test_validate_block_structure():
    parent = Block(0, b"\x00" * 32, 0, "genesis", genesis_seed=1).signed_by()
    good = Block(1, canonical_block_digest(parent), 300, "alice").signed_by()
    assert validate_block_structure(good, parent) == "ok"
    assert validate_block_structure(
        Block(0, canonical_block_digest(parent), 300, "alice").signed_by(),
        parent) == "bad-index"
    assert validate_block_structure(
        Block(1, b"\x01" * 32, 300, "alice").signed_by(), parent) == "bad-link"
    assert validate_block_structure(
        good.signed_by("mallory"), parent) == "bad-signature"


def test_a_signed_copy_hashes_as_a_block_built_from_its_fields():
    """signed_by's copy keeps the unsigned encoding and the signing digest,
    which the signature does not enter, and not the digest, which it does:
    its encoding and digests equal those of a fresh block with its fields,
    also where the block it signs had its digest read first."""
    parent = Block(0, b"\x00" * 32, 0, "genesis", genesis_seed=1).signed_by()
    unsigned = Block(1, parent.digest, 300, "alice", auxiliary_proof=3)
    assert unsigned.digest
    signed = unsigned.signed_by()
    assert signed.__dict__["unsigned_encoding"] \
        is unsigned.__dict__["unsigned_encoding"]
    for block in (signed, signed.signed_by("mallory")):
        fresh = Block(**{f.name: getattr(block, f.name)
                         for f in dataclasses.fields(Block)})
        assert fresh == block
        assert fresh.encode() == block.encode()
        assert fresh.signing_digest() == block.signing_digest()
        assert fresh.digest == block.digest != unsigned.digest
    assert validate_block_structure(signed, parent) == "ok"


NO_CHECKPOINT = 10 ** 6   # a checkpoint period no test chain reaches


def build_chain(tree, parent_digest, n, start_index, ts0=0):
    """Extend `tree` by `n` blocks from `parent_digest`; returns the last
    state and the new blocks' digests."""
    digests = []
    parent = tree.blocks[parent_digest]
    for k in range(n):
        b = Block(start_index + k, canonical_block_digest(parent),
                  ts0 + 300 * (k + 1), "node").signed_by()
        tree = tree.add_block(b)
        digests.append(canonical_block_digest(b))
        parent = b
    return tree, digests


def test_fork_choice_longest_then_first_seen():
    genesis = Block(0, b"\x00" * 32, 0, "genesis", genesis_seed=0).signed_by()
    tree = BlockTree(genesis, None, NO_CHECKPOINT)
    tree, a = build_chain(tree, tree.genesis_digest, 3, 1)
    tree, b = build_chain(tree, tree.genesis_digest, 2, 1, ts0=1)
    assert tree.best_tip() == a[-1]
    # extend b to equal length: the first-seen tip (a) is retained
    tree, b2 = build_chain(tree, b[-1], 1, 3, ts0=1)
    assert tree.height[b2[-1]] == tree.height[a[-1]]
    assert tree.best_tip() == a[-1]
    # longer fork wins
    tree, b3 = build_chain(tree, b2[-1], 1, 4, ts0=1)
    assert tree.best_tip() == b3[-1]


def test_solidified_prefix_excludes_forks():
    genesis = Block(0, b"\x00" * 32, 0, "genesis", genesis_seed=0).signed_by()
    tree = BlockTree(genesis, None, NO_CHECKPOINT)
    tree, a = build_chain(tree, tree.genesis_digest, 4, 1)
    tree = tree.solidify(a[1])
    # a longer conflicting fork below the solidified block is not chosen
    tree, b = build_chain(tree, a[0], 6, 2, ts0=7)
    assert tree.height[b[-1]] > tree.height[a[-1]]
    assert tree.best_tip() == a[-1]
    with pytest.raises(LedgerError):
        tree.solidify(b[-1])
    # a block above the prefix but off the best chain cannot be solidified
    tree, c = build_chain(tree, a[1], 1, 3, ts0=13)
    assert tree.is_ancestor(a[1], c[0]) and not tree.is_ancestor(c[0], a[-1])
    with pytest.raises(LedgerError):
        tree.solidify(c[0])
    assert tree.solidified_prefix == a[1]
    # the marks are the prefix and its descendants; solidifying narrows them
    assert tree.live.keys() == set(a[1:]) | {c[0]}
    narrowed = tree.solidify(a[2])
    assert narrowed.live.keys() == set(a[2:])
    assert tree.live.keys() == set(a[1:]) | {c[0]}


def marks(tree):
    """What a fork-choice state decides: its best tip, its solidified
    prefix and its live marks in order."""
    return tree.best, tree.solidified_prefix, list(tree.live.items())


def descendants(tree, digests, target):
    """Of `digests`, `target` and the blocks that descend from it, by a
    height-sorted scan."""
    kept = {target}
    for d in sorted(digests, key=tree.height.__getitem__):
        if tree.blocks[d].prev_digest in kept:
            kept.add(d)
    return kept


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, NO_CHECKPOINT)),
       st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)), max_size=60))
def test_live_marks_follow_their_parents_and_solidify_keeps_their_descendants(
        t1, steps):
    """Over random add_block and solidify calls, each returns a state and
    leaves the one it was called on as it was. The live marks start at the
    solidified prefix, each mark comes after its parent's and keeps the
    value it was added with. solidify, and the checkpoint that the first
    block to reach a height k*t1 makes when its ancestor t1 below is above
    the prefix, keep exactly the marks that a height-sorted recompute keeps;
    a solidify off the best chain raises."""
    genesis = Block(0, b"\x00" * 32, 0, "genesis", genesis_seed=0)
    tree = BlockTree(genesis, 0, t1)
    given_marks = {genesis.digest: 0}
    added = [genesis.digest]
    for step, (solidify, pick) in enumerate(steps, 1):
        before = marks(tree)
        if solidify:
            # half the targets lie on the best chain, where solidify may succeed
            pool = tree.path(tree.best) if pick % 2 else added
            target = pool[pick // 2 % len(pool)]
            kept = descendants(tree, tree.live, target)
            if target in tree.live and tree.best in kept:
                new = tree.solidify(target)
                assert new.live.keys() == kept
                assert new.solidified_prefix == target
            else:
                with pytest.raises(LedgerError):
                    tree.solidify(target)
                new = tree
        else:
            # two thirds of the blocks extend the best tip, so checkpoints fire
            parent = tree.blocks[tree.best if pick % 3
                                 else added[pick % len(added)]]
            block = Block(parent.index + 1, parent.digest, step, "node")
            new = tree.add_block(block, step)
            given_marks[block.digest] = step
            added.append(block.digest)
            height = tree.height[block.digest]
            if parent.digest not in tree.live:
                assert new is tree
            elif height <= tree.height[tree.best]:
                assert marks(new) == before[:2] + (
                    before[2] + [(block.digest, step)],)
            else:
                assert new.best == block.digest
                prefix = tree.solidified_prefix
                if height % t1 == 0 \
                        and height - t1 > tree.height[tree.solidified_prefix]:
                    prefix = tree.ancestor_at_height(block.digest, height - t1)
                assert new.solidified_prefix == prefix
                assert new.live.keys() == descendants(
                    tree, list(tree.live) + [block.digest], prefix)
        assert marks(tree) == before
        tree = new
        live = list(tree.live)
        assert live[0] == tree.solidified_prefix
        assert all(tree.blocks[d].prev_digest in live[:i]
                   for i, d in enumerate(live) if i)
        assert all(tree.live[d] == given_marks[d] for d in live)
