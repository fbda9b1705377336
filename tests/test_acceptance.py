"""Acceptance suite: one criterion per test, one printed verdict line each."""

import math

import numpy as np
import pytest
from scipy import stats

from poslab import attacks, issuance
from poslab.coa import (ACCEPT, ChainView, CoaNode, CoaParams, make_genesis,
                        min_timestamp, process_block)
from poslab.comb import (CombSpec, coalition_bias, coalition_bounds,
                         last_player_advantage, undetermined_fraction)
from poslab.dense import grinding_log2_cost
from poslab.ledger import Block, BlockTree, LedgerState, Transaction, sign
from poslab.netsim import ENGINES, run_scenario
from poslab.rng import make_rng
from poslab.scenarios import SCENARIOS

COA_DEFAULTS = {key: default
                for key, (_kind, default) in ENGINES["coa"].params.items()}


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = "criterion %02d %s: %s" % (num, name, verdict)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# a small chain driver shared by the protocol-invariant checks
# ---------------------------------------------------------------------------

class Driver:
    def __init__(self, params, alloc, ts0=0):
        self.params = params
        self.genesis, self.ledger0 = make_genesis(params, alloc, timestamp=ts0)
        self.view = ChainView(params, self.genesis, self.ledger0)
        self.blocks = []

    def craft(self, gap=1, ts_extra=0, txs=(), creator=None):
        last = self.view.last_block
        index = last.index + gap
        owner = creator or self.view.slot_candidates(gap)[-1][2]
        ts = min_timestamp(last.timestamp, index, last.index,
                           self.params.g0_seconds) + ts_extra
        return Block(index=index, prev_digest=last.digest,
                     timestamp=ts, creator=owner,
                     transactions=tuple(txs)).signed_by()

    def apply(self, block):
        view, reason = process_block(self.view, block)
        if reason == ACCEPT:
            self.view = view
            self.blocks.append(block)
        return reason

    def extend(self, n=1, avoid=(), ts_extra=0):
        for _ in range(n):
            gap = 1
            while self.view.slot_candidates(gap)[-1][2] in avoid:
                gap += 1
            assert self.apply(self.craft(gap=gap, ts_extra=ts_extra)) == ACCEPT


ALLOC = [("alice", 6), ("bob", 5), ("carol", 5)]


def test_criterion_01_confirmation_bound():
    s = attacks.min_safe_confirmations_density(100, 10, 0.7, 20)
    hours = attacks.confirmation_wait_seconds(s, 300) / 3600.0
    report(1, "confirmation-bound", s == 42 and abs(hours - 3.5) < 1e-12,
           "S=%d, %.2f h" % (s, hours))


def test_criterion_02_takeover_exponent_and_tail():
    e = attacks.takeover_log_bound(459, 0.1, 0.2)
    mc = attacks.takeover_tail_montecarlo(20, 0.3, 0.0, trials=10 ** 6, seed=0)
    ok = abs(e - 371) <= 1.0 and not mc["violated"]
    report(2, "takeover-exponent", ok,
           "E=%.2f, empirical %.4f <= bound %.4f"
           % (e, mc["empirical"], mc["bound"]))


def test_criterion_03_dense_dos_interval():
    mean_min = attacks.simulate_withholding_dos(23, 0.1, 300.0,
                                                n_blocks=4000, seed=0) / 60.0
    ok = 40.0 <= mean_min <= 56.4
    report(3, "dense-dos-interval", ok, "%.1f min" % mean_min)


def test_criterion_04_grinding_arithmetic():
    a = grinding_log2_cost(0.05, 23)
    b = grinding_log2_cost(0.1, 30)
    ok = abs(a - 99.4) < 0.05 and abs(b - 99.7) < 0.05
    report(4, "grinding-arithmetic", ok, "%.2f, %.2f" % (a, b))


def test_criterion_05_ppcoin_streak_interval():
    out = attacks.simulate_streak_interval(0.25, 6, n_blocks=4_000_000, seed=0)
    rel = abs(out["mean_gap"] - 4096) / 4096
    report(5, "ppcoin-streaks", rel < 0.15,
           "gap %.0f vs 4096, rel %.3f" % (out["mean_gap"], rel))


def test_criterion_06_timeweight_attack():
    aged = attacks.simulate_timeweight_attack("v0.2", 0.1, 5.0,
                                              trials=10 ** 5, seed=0)
    capped = attacks.simulate_timeweight_attack("v0.3", 0.1, 5.0,
                                                trials=10 ** 5, seed=0,
                                                saturated=True)
    ok = abs(aged - 0.50) <= 0.03 and abs(capped - 0.1) <= 0.02
    report(6, "timeweight-attack", ok,
           "v0.2 %.3f, v0.3 saturated %.3f" % (aged, capped))


def test_criterion_07_comb_mu_values():
    ok = True
    details = []
    spec = CombSpec("concat", 8, 1)
    for p in (0.02, 0.05, 0.1):
        mu, stderr = last_player_advantage(spec, p, 10 ** 5, rng_seed=0)
        want = 2 * p - p * p
        ok = ok and abs(mu - want) <= 3 * stderr
        details.append("p=%.2f: %.4f~%.4f" % (p, mu, want))
    tie = undetermined_fraction(CombSpec("majority", 1, 9))
    ok = ok and tie == 70 / 256
    details.append("tie %.6f" % tie)
    report(7, "comb-mu", ok, "; ".join(details))


def test_criterion_08_kz_bounds_and_bias():
    eps = 0.1
    lo, hi = coalition_bounds(459, 51, eps)
    exact_ok = abs(lo - 2 * eps) < 1e-12 and abs(hi - 91.8 * eps) < 1e-9
    # kappa=4, w=9, ell=36: a single colluding bit is the achievable
    # coalition for eps=0.5, so the seed bias must stay at or below that
    spec = CombSpec("iterated_majority", 4, 9)
    bias = coalition_bias(spec, [8], trials=10 ** 6, rng_seed=0)
    implied_eps = 0.5
    bias_ok = bias <= implied_eps + 0.02
    report(8, "kz-bounds", exact_ok and bias_ok,
           "achievable %.3f, upper %.3f, bias %.4f <= %.2f"
           % (lo, hi, bias, implied_eps + 0.02))


def test_criterion_09_protocol_invariants():
    rng = make_rng(0, "acceptance-invariants")
    params = CoaParams(**dict(COA_DEFAULTS, kappa=4, t0=4))
    checks = 0

    # 9a: single eligible creator per slot, impostors rejected
    d = Driver(params, ALLOC)
    d.extend(12)
    names = [n for n, _a in ALLOC]
    for _ in range(1000):
        gap = int(rng.integers(1, 6))
        first = d.view.slot_candidates(gap)[-1][2:]
        second = d.view.slot_candidates(gap)[-1][2:]
        assert first == second and first[0] in names
        checks += 1
    for _ in range(50):
        winner = d.view.slot_candidates(1)[-1][2]
        impostor = next(n for n in names if n != winner)
        block = d.craft(creator=impostor)
        assert d.apply(block) == "wrong-creator"
        d.extend(1)
        checks += 1

    # 9b: interleaving cement; mutated group-(g+1) timestamps never move
    # the group-(g+2) slot assignment
    ell = params.ell
    for case in range(1000):
        offset = int(rng.integers(1, 400))
        base = Driver(params, ALLOC, ts0=case)
        base.extend(2 * ell)
        twin = Driver(params, ALLOC, ts0=case)
        for blk in base.blocks:
            assert twin.apply(blk) == ACCEPT
        base.extend(ell)
        twin.extend(ell, ts_extra=offset)
        assert base.view.groups[2][0] == twin.view.groups[2][0]
        a = [(o, u) for _i, _z, o, u in base.view.slot_candidates(4)]
        b = [(o, u) for _i, _z, o, u in twin.view.slot_candidates(4)]
        assert a == b
        checks += 1

    # 9c: confiscation conservation on randomized ledgers
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        amounts = [int(rng.integers(1, 50)) for _ in range(k)]
        ledger = LedgerState.from_allocation(
            [("h%d" % i, a) for i, a in enumerate(amounts)])
        victims = [u for u in ledger.utxos if rng.random() < 0.5] or [0]
        total = sum(ledger.utxos[u].amount for u in victims)
        award = int(rng.integers(0, total + 1))
        new = ledger.confiscate(victims, award, "rep")
        assert new.live_total + new.destroyed == sum(amounts)
        assert new.destroyed == total - award
        checks += 1

    # 9d: three-strikes blacklist activates at the after-next group and the
    # derivation skips blacklisted outputs from then on
    lazy_alloc = [("lazy", 5), ("alice", 4), ("bob", 4), ("carol", 3)]
    d = Driver(params, lazy_alloc)
    steps = 0
    while steps < 1000:
        d.extend(1, avoid=("lazy",))
        steps += 1
        for activation, uids in d.view.pending_blacklist.items():
            assert activation >= d.view.current_group + 1
        if 0 in d.view.ledger.blacklist:
            for _i, _z, _o, uid in d.view.slot_candidates(6):
                assert uid != 0
        checks += 1
    assert 0 in d.view.ledger.blacklist  # three misses accumulated long ago

    # 9e: deposit freeze enforced for t0 blocks
    d = Driver(params, ALLOC)
    d.extend(2)
    rejected = 0
    for _ in range(1000):
        frozen = [u for u in d.view.ledger.utxos.values()
                  if u.is_frozen(d.view.height + 1)]
        if frozen:
            u = frozen[int(rng.integers(0, len(frozen)))]
            tx = Transaction(((u.uid, b"\x00" * 16),),
                             ((u.owner, u.amount),), 0)
            tx = Transaction(((u.uid, sign(u.owner, tx.signing_digest())),),
                             tx.outputs, 0)
            assert d.apply(d.craft(txs=(tx,))) == "bad-transaction"
            rejected += 1
        d.extend(1)
        checks += 1
    assert rejected > 500

    # 9f: checkpoint monotonicity; longer forks below the prefix rejected
    for case in range(40):
        main = Driver(params, ALLOC, ts0=case * 17)
        main.extend(6)
        node = CoaNode(BlockTree(main.genesis, ChainView(
            params, main.genesis, main.ledger0), params.t1))
        solid = 0
        for blk in main.blocks:
            ok, reason = node.receive_block(blk)
            assert ok and reason == ACCEPT
            assert node.solidified_height >= solid
            solid = node.solidified_height
            checks += 1
        assert solid == 4  # t1 = 2: height 6 solidified height 4
        fork = Driver(params, ALLOC, ts0=case * 17)
        fork.extend(8, avoid=(main.blocks[0].creator,))
        ok, reason = node.receive_block(fork.blocks[0])
        assert (ok, reason) == (False, "below-solidified")
        assert node.solidified_height == solid
        checks += 1

    report(9, "protocol-invariants", checks >= 5000, "%d checks" % checks)


def test_criterion_10_determinism():
    mismatches = []
    for name, config in SCENARIOS.items():
        if run_scenario(config).digest() != run_scenario(config).digest():
            mismatches.append(name)
    ok = len(SCENARIOS) >= 20 and not mismatches
    report(10, "determinism", ok, "%d scenarios, mismatches: %s"
           % (len(SCENARIOS), mismatches or "none"))


def test_criterion_11_fts_proportionality_and_sybil():
    def genesis_view(alloc, seed):
        params = CoaParams(kappa=10, **COA_DEFAULTS)
        return ChainView(params, *make_genesis(params, alloc, genesis_seed=seed))

    alloc = [("a", 500), ("b", 300), ("c", 150), ("d", 50)]
    derive = genesis_view(alloc, 0x3c).slot_derivation()
    counts = {name: 0 for name, _a in alloc}
    n = 10 ** 5
    for z in range(1, n + 1):
        owner, _uid = derive(z)
        counts[owner] += 1
    observed = [counts[name] for name, _a in alloc]
    expected = [n * a / 1000 for _name, a in alloc]
    _stat, p = stats.chisquare(observed, expected)

    whole = genesis_view([("a", 400), ("b", 624)], 0x91).slot_derivation()
    split = genesis_view(
        [("a", 100), ("a", 150), ("a", 150), ("b", 300), ("b", 324)],
        0x91).slot_derivation()
    sybil_ok = all(whole(z)[0] == split(z)[0] for z in range(1, 3000))
    report(11, "fts-proportionality", p > 0.01 and sybil_ok,
           "chi2 p=%.4f, sybil exact=%s" % (p, sybil_ok))


def test_criterion_12_fork_rate_conventions():
    out = attacks.fork_rate_study(seconds=4 * 10 ** 8, seed=0)
    pair = out["pairwise_interval"]
    multi = out["multi_solve_interval"]
    ok = abs(pair - 360_000) / 360_000 < 0.20 \
        and abs(multi - 720_000) / 720_000 < 0.20
    report(12, "fork-rate", ok,
           "pairwise %.0f s, multi-solve %.0f s" % (pair, multi))


def test_criterion_13_issuance_equilibrium():
    params = issuance.IssuanceParams(
        production_cost_per_coin=1.0,
        demand=10 ** 6,
        fixed_difficulty=2e-6)
    out = issuance.simulate_issuance(params, steps=800, seed=0)
    tail = out["value"][400:]
    rel = float(np.abs(tail - 1.0).max())
    clamp_ok = issuance.block_rate(params, 10 ** 9) == \
        pytest.approx(1.0 / params.min_gap_seconds)
    report(13, "issuance-equilibrium", rel < 0.1 and clamp_ok,
           "max |value-cost|/cost %.3f, clamp %s" % (rel, clamp_ok))
