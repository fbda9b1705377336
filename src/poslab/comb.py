"""Seed-combining functions and their bias/influence analyzers.

A comb function maps ell = kappa*w stakeholder bits to a kappa-bit seed.
Supported kinds: concatenation (w=1), per-group majority (odd w), and
iterated 3-ary majority (w a power of 3), which is the extractor for
non-oblivious bit-fixing sources. TRIBES is deliberately not offered: it
has no known efficient deterministic construction.

``comb_apply``, which the CoA engine calls once a group, combines its bits
in Python. ``comb_apply_batch`` and the analyzers work on bit matrices in
numpy, which each imports where it is called, so the engine loads none.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .ledger import ConfigError
from .rng import make_rng

ALPHA = math.log(2, 3)  # log_3 2

CONCAT = "concat"
MAJORITY = "majority"
ITERATED_MAJORITY = "iterated_majority"
KINDS = (CONCAT, MAJORITY, ITERATED_MAJORITY)


def _is_power_of_3(w: int) -> bool:
    while w % 3 == 0:
        w //= 3
    return w == 1


@dataclass(frozen=True)
class CombSpec:
    kind: str
    kappa: int
    w: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("comb", "unknown comb kind %r" % self.kind)
        if self.kappa < 1 or self.w < 1:
            raise ConfigError("kappa" if self.kappa < 1 else "w",
                             "kappa and w must be positive")
        if self.kind == CONCAT and self.w != 1:
            raise ConfigError("w", "concat requires w=1")
        if self.kind == MAJORITY and self.w % 2 == 0:
            raise ConfigError("w", "majority requires odd w")
        if self.kind == ITERATED_MAJORITY and not _is_power_of_3(self.w):
            raise ConfigError("w", "iterated majority requires w a power of 3")

    @property
    def ell(self) -> int:
        return self.kappa * self.w


def _group_bits(spec: CombSpec, bits: np.ndarray) -> np.ndarray:
    """Reduce (..., ell) input bits to (..., kappa) output bits."""
    import numpy as np
    grouped = bits.reshape(bits.shape[:-1] + (spec.kappa, spec.w))
    if spec.kind == CONCAT:
        return grouped[..., 0]
    if spec.kind == MAJORITY:
        return (grouped.sum(axis=-1) > spec.w // 2).astype(np.uint8)
    out = grouped
    while out.shape[-1] > 1:
        out = out.reshape(out.shape[:-1] + (out.shape[-1] // 3, 3))
        out = (out.sum(axis=-1) >= 2).astype(np.uint8)
    return out[..., 0]


def comb_apply(spec: CombSpec, bits) -> int:
    """Combine ell bits, each an integer 0 or 1, into a kappa-bit seed
    (first input group -> MSB)."""
    bits = list(bits)
    if len(bits) != spec.ell:
        raise ValueError("expected %d bits, got %d" % (spec.ell, len(bits)))
    try:
        bits = [operator.index(b) for b in bits]    # no floats, no rows
    except TypeError:
        bits = None
    if bits is None or not set(bits) <= {0, 1}:
        raise ValueError("inputs must be bits")
    seed = 0
    for start in range(0, spec.ell, spec.w):
        group = bits[start:start + spec.w]
        if spec.kind == MAJORITY:
            group = [2 * sum(group) > spec.w]
        while len(group) > 1:       # iterated majority: one 3-ary vote a level
            group = [sum(group[i:i + 3]) >= 2 for i in range(0, len(group), 3)]
        seed = seed << 1 | group[0]
    return seed


def comb_apply_batch(spec: CombSpec, bits: np.ndarray) -> np.ndarray:
    """Vectorized comb over a (trials, ell) bit matrix; returns uint64 seeds."""
    import numpy as np
    if bits.shape[-1] != spec.ell:
        raise ValueError("expected %d bits per row" % spec.ell)
    out = _group_bits(spec, bits.astype(np.uint8))
    weights = (1 << np.arange(spec.kappa - 1, -1, -1, dtype=np.uint64))
    return out.astype(np.uint64).dot(weights)


# ---------------------------------------------------------------------------
# extractor parameter arithmetic
# ---------------------------------------------------------------------------

def kz_width(c: float, eps: float) -> int:
    """Group width handling a coalition of c with statistical error eps.

    The formula value 3*(c/eps)^(1/alpha) is rounded up to the next power of
    3 so the iterated-majority tree is well defined; rounding up only
    strengthens the extractor.
    """
    if c <= 0 or not 0 < eps < 1:
        raise ValueError("require c > 0 and 0 < eps < 1")
    value = 3.0 * (c / eps) ** (1.0 / ALPHA)
    w = 3
    while w < value * (1 - 1e-12):
        w *= 3
    return w


def coalition_bounds(ell: int, kappa: int, eps: float) -> tuple:
    """(achievable, upper bound) coalition sizes for an eps-extractor."""
    if kappa < 2 or ell < 1 or ell % kappa:
        raise ValueError("require kappa >= 2 and ell = kappa*w with w >= 1")
    achievable = eps * ((ell / kappa) / 3.0) ** ALPHA
    upper = eps * 10.0 * ell / (kappa - 1)
    return achievable, upper


# ---------------------------------------------------------------------------
# exact tie / pivotality arithmetic
# ---------------------------------------------------------------------------

def majority_tie_probability(w: int) -> float:
    """Probability the last of w bits decides the group majority: C(w-1,(w-1)/2)/2^(w-1)."""
    if w % 2 == 0:
        raise ValueError("w must be odd")
    return math.comb(w - 1, (w - 1) // 2) / 2.0 ** (w - 1)


def undetermined_fraction(spec: CombSpec) -> float:
    """Exact fraction of (w-1)-bit prefixes leaving the group output undecided.

    Exhaustive over 2^(w-1) prefixes; intended for w <= 15.
    """
    w = spec.w
    if w > 20:
        raise ValueError("exhaustive enumeration limited to small w")
    import numpy as np
    n = 1 << (w - 1)
    prefixes = ((np.arange(n)[:, None] >> np.arange(w - 2, -1, -1)) & 1).astype(np.uint8)
    return float(np.mean(_last_bit_decides(spec, prefixes)))


def _last_bit_decides(spec: CombSpec, prefixes: np.ndarray) -> np.ndarray:
    """Per (w-1)-bit prefix row, whether the group's output differs between
    a last bit of 0 and of 1."""
    import numpy as np
    one_group = CombSpec(spec.kind, 1, spec.w)
    n = len(prefixes)
    lo, hi = (_group_bits(one_group, np.concatenate(
        [prefixes, np.full((n, 1), bit, np.uint8)], axis=1))[:, 0]
        for bit in (0, 1))
    return lo != hi


# ---------------------------------------------------------------------------
# adversarial Monte Carlo
# ---------------------------------------------------------------------------

def last_player_advantage(spec: CombSpec, p: float, trials: int,
                          rng_seed: int = 0) -> tuple:
    """Estimate mu: the chance the last player can select herself for the next group.

    The last player sees all honest bits, evaluates both candidate bits and
    takes the better one; the hash is treated as a random oracle, so each
    distinct seed gives an independent Bernoulli(p) self-selection event.
    Returns (mu_hat, standard_error).
    """
    if not 0 < p < 1:
        raise ValueError("require 0 < p < 1")
    if trials < 10 ** 3:
        raise ValueError("at least 10^3 trials required")
    import numpy as np
    rng = make_rng(rng_seed, "mu", spec.kind, spec.kappa, spec.w, p)
    w = spec.w
    # Only the last group can change: the seed differs between the two
    # candidate bits iff that group's output flips.
    prefix = rng.integers(0, 2, size=(trials, w - 1), dtype=np.uint8) \
        if w > 1 else np.zeros((trials, 0), np.uint8)
    differ = _last_bit_decides(spec, prefix)
    first = rng.random(trials) < p
    second = rng.random(trials) < p
    success = np.where(differ, first | second, first)
    mu_hat = float(success.mean())
    stderr = math.sqrt(max(mu_hat * (1 - mu_hat), 1e-12) / trials)
    return mu_hat, stderr


def exhaustive_strategy(spec: CombSpec, bits: np.ndarray,
                        coalition: np.ndarray) -> np.ndarray:
    """Worst-case coalition play: enumerate all 2^c responses, steer the seed
    toward the smallest value (concentrating mass maximizes statistical
    distance). Returns the full bit matrix with coalition columns filled in."""
    import numpy as np
    c = len(coalition)
    if c > 12:
        raise ValueError("exhaustive search limited to c <= 12")
    best_seed = None
    best_bits = None
    for mask in range(1 << c):
        trial = bits.copy()
        for j, pos in enumerate(coalition):
            trial[:, pos] = (mask >> (c - 1 - j)) & 1
        seeds = comb_apply_batch(spec, trial)
        if best_seed is None:
            best_seed, best_bits = seeds, trial
        else:
            better = seeds < best_seed
            best_seed = np.where(better, seeds, best_seed)
            best_bits[better] = trial[better]
    return best_bits


def greedy_strategy(spec: CombSpec, bits: np.ndarray,
                    coalition: np.ndarray) -> np.ndarray:
    """Bit-by-bit steering toward the smallest seed; used above the exact regime."""
    import numpy as np
    trial = bits.copy()
    for pos in coalition:
        trial[:, pos] = 0
    for pos in coalition:
        trial[:, pos] = 0
        s0 = comb_apply_batch(spec, trial)
        trial[:, pos] = 1
        s1 = comb_apply_batch(spec, trial)
        trial[:, pos] = (s1 < s0).astype(np.uint8)
    return trial


def coalition_bias(spec: CombSpec, coalition, strategy=None, trials: int = 10 ** 5,
                   rng_seed: int = 0) -> float:
    """Estimate the statistical distance of the seed from uniform under attack.

    The coalition sees the honest bits before choosing theirs. The estimate is
    the half-L1 distance of the empirical seed histogram from uniform, which
    equals max over events T of Pr[seed in T] - |T|/2^kappa.
    """
    import numpy as np
    if spec.kappa > 16:
        raise ValueError("kappa too large for an exact output histogram")
    coalition = np.asarray(sorted(set(coalition)), dtype=np.int64)
    if coalition.size and (coalition.min() < 0 or coalition.max() >= spec.ell):
        raise ValueError("coalition positions out of range")
    if strategy is None:
        strategy = exhaustive_strategy if coalition.size <= 12 else greedy_strategy
    rng = make_rng(rng_seed, "bias", spec.kind, spec.kappa, spec.w, len(coalition))
    hist = np.zeros(1 << spec.kappa, dtype=np.int64)
    done = 0
    while done < trials:
        n = min(200_000, trials - done)
        bits = rng.integers(0, 2, size=(n, spec.ell), dtype=np.uint8)
        if coalition.size:
            bits = strategy(spec, bits, coalition)
        seeds = comb_apply_batch(spec, bits)
        hist += np.bincount(seeds.astype(np.int64), minlength=1 << spec.kappa)
        done += n
    emp = hist / trials
    return float(0.5 * np.abs(emp - 1.0 / (1 << spec.kappa)).sum())
