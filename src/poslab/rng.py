"""Deterministic random number generation and exact batched samplers.

All randomness in a run flows from a single 64-bit seed. Independent
substreams are derived by hashing the seed together with a label path, so
scenario components can draw without coupling to each other's consumption
order. Philox is counter-based, which keeps runs bit-reproducible across
platforms.

The CoA engine reads its substreams through ``PhiloxStream``: numpy's
Philox4x64-10 words, and the floats ``Generator.uniform`` makes of them,
computed in Python, so a CoA run loads no numpy. The other engines and the
analyses draw from numpy generators (``make_rng``), and numpy serves the
batched samplers below; each of these imports numpy where it is called.

The exact batched samplers let the per-second stake lotteries skip the
seconds without a solve. Their contract: they read the same 64-bit words
as the per-draw calls they replace and return the same values, so no
digest depends on which ran. ``binomial_nonzero`` replays numpy's binomial
inversion (one word per draw, U = (word >> 11) * 2^-53, and the draw is 0
iff U <= (1-p)^n) on the words it is given, and returns None where numpy
would spend other than one word per draw, so that its caller draws from
numpy itself; ``quiet_rows`` reads the words of ``Generator.random`` and
leaves the generator where those draws do. ``PhiloxStream`` and both
samplers rest on numpy's algorithms, not its API: the equivalence tests in
``tests/test_rng.py``, ``tests/test_attacks.py`` and ``tests/test_netsim.py``
compare them with numpy word for word, so a numpy upgrade that changes one
fails there.

``map_word_chunks`` runs such a sampler on every usable core. It hands each
fixed chunk of a stream its own words, read from a Philox advanced to the
chunk's first word, so no result depends on the number of threads or their
order. A thread holds one Philox and one ``WORD_BLOCK`` of words at a time,
and a chunk keeps only its result, so memory grows with neither the stream
nor the chunk.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


def derive_key(seed: int, *labels: object) -> int:
    """Derive a 64-bit substream key from a seed and a label path."""
    material = ("%d/" % seed + "/".join(str(x) for x in labels)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Create a deterministic generator for the given seed and substream labels."""
    import numpy as np
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *labels)))


MASK64 = 2 ** 64 - 1
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and key increments
PHILOX_FILL = 256   # blocks of 4 words a PhiloxStream computes at most at once


def _philox_lanes(key: int, n: int) -> tuple:
    """What ``_philox_blocks`` reads to make n blocks under `key` (below
    2^128): n, the struct format of n lanes of 128 bits, and in each lane a
    1, the low 64 bits, the lane's index and the ten round keys.

    Block j's four counter words ride in bits [128j, 128j + 64) of four
    Python ints, so a round is two big-int multiplies (each lane's product
    fills its 128 bits) and a few shifts, masks and XORs over all n blocks.
    """
    ones, fmt = ((1 << 128 * n) - 1) // ((1 << 128) - 1), "<%dQ" % (2 * n)
    index = [0] * (2 * n)
    index[::2] = range(n)
    k0, k1, keys = key & MASK64, key >> 64, []
    for _ in range(10):
        keys.append((k0 * ones, k1 * ones))
        k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
    return (n, fmt, ones, ones * MASK64,
            int.from_bytes(struct.pack(fmt, *index), "little"), keys)


def _philox_blocks(lanes: tuple, first: int) -> list:
    """The words of Philox4x64-10 blocks `first` .. `first` + n - 1, in
    stream order, for the n and key of `lanes`; each counter is below 2^64."""
    n, fmt, ones, low, index, keys = lanes
    x0, x1, x2, x3 = first * ones + index, 0, 0, 0
    for k0, k1 in keys:
        p0, p1 = x0 * PHILOX_M[0], x2 * PHILOX_M[1]
        x0, x1, x2, x3 = ((p1 >> 64) & low ^ x1 ^ k0, p1 & low,
                          (p0 >> 64) & low ^ x3 ^ k1, p0 & low)
    words = [0] * (4 * n)
    for i, x in enumerate((x0, x1, x2, x3)):
        words[i::4] = struct.unpack(fmt, x.to_bytes(16 * n, "little"))[::2]
    return words


class PhiloxStream:
    """The stream of ``np.random.Philox(key=key)``, read without numpy.

    ``random_raw(n)`` returns the words numpy's ``random_raw(n)`` does, and
    ``uniform`` the floats of a ``Generator`` on that Philox. ``counter``
    counts the blocks (4 words) made so far, as numpy's state does: set it
    to d before the first read to read a Philox advanced by d. The stream
    computes the blocks a read needs, the first time no more, then twice as
    many as the last time, up to ``PHILOX_FILL``; words made ahead are kept
    for the next read. It raises OverflowError rather than let a block's
    counter pass 2^64 - 1, where numpy would carry into the next word.
    """

    def __init__(self, key: int):
        self.key = key
        self.counter = 0
        self._words: list = []
        self._pos = 0           # the next word of _words to read
        self._lanes = (0,)      # the last fill's _philox_lanes

    def random_raw(self, n: int) -> list:
        """The next `n` words, as ints."""
        have = len(self._words) - self._pos
        if have < n:
            need, room = -(-(n - have) // 4), MASK64 - self.counter
            if need > room:
                raise OverflowError("a Philox counter would pass 2^64 - 1")
            fill = min(max(need, min(2 * self._lanes[0], PHILOX_FILL)), room)
            if fill != self._lanes[0]:
                self._lanes = _philox_lanes(self.key, fill)
            self._words = self._words[self._pos:] + _philox_blocks(
                self._lanes, self.counter + 1)
            self._pos, self.counter = 0, self.counter + fill
        self._pos += n
        return self._words[self._pos - n:self._pos]

    def uniform(self, low: float, high: float, size: Optional[int] = None):
        """``Generator.uniform(low, high, size)``: `size` floats as a list,
        or one float, each low + (high - low) * (word >> 11) * 2^-53 in
        doubles."""
        low, high = float(low), float(high)
        span = high - low
        if not 0 <= span <= sys.float_info.max:
            raise ValueError("uniform needs low <= high and a finite high - low")
        draws = [low + span * ((w >> 11) * 2.0 ** -53)
                 for w in self.random_raw(1 if size is None else size)]
        return draws[0] if size is None else draws


WORD_BLOCK = 2 ** 16   # words a sampler reads at a time: 512 KB of uint64


def _inversion_bound(n: int, p: float, q: float) -> int:
    """numpy's cut-off for one inversion draw; past it numpy draws again."""
    return int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))


def _zero_limit(qn: float) -> int:
    """The largest word whose U = (word >> 11) * 2^-53 is <= qn."""
    return min((int(qn * 2.0 ** 53) << 11) | 0x7FF, 2 ** 64 - 1)


def binomial_nonzero(blocks: Iterable[np.ndarray], n: int, p: float):
    """The non-zero draws numpy's ``binomial(n, p)`` makes from the words
    of `blocks`, one word a draw, in stream order; or None where numpy
    would not spend exactly one word per draw.

    That holds in numpy's inversion regime (0 < p <= 1/2, 0 < n*p <= 30)
    unless a draw passes numpy's bound and numpy draws it again. Only the
    words above the integer threshold of U <= (1-p)^n are kept, a block at
    a time, and replay numpy's float recurrence.
    """
    if not (n > 0 and 0.0 < p <= 0.5 and p * n <= 30.0):
        return None
    import numpy as np
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    limit = np.uint64(_zero_limit(qn))
    hits = [np.empty(0, np.uint64)] + [b[b > limit] for b in blocks]
    return _inversion_values(np.concatenate(hits), n, p, q, qn)


def _inversion_values(words: np.ndarray, n: int, p: float, q: float,
                      qn: float):
    """The draws numpy's inversion makes from `words`, each above the zero
    limit of ``qn`` = (1-p)^n, or None if one of them would need another
    word."""
    import numpy as np
    bound = _inversion_bound(n, p, q)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    x = np.zeros(len(words), np.int64)
    px = np.full(len(words), qn)
    live = u > px
    while live.any():
        x[live] += 1
        if x.max() > bound:
            return None
        xl = x[live]
        u[live] -= px[live]
        px[live] = ((n - xl + 1) * p * px[live]) / (xl * q)
        live = u > px
    return x


def quiet_rows(rng: np.random.Generator, probs: Sequence[float],
               rows: int) -> int:
    """Skip the leading rows of `rows` rows of trials in which no trial hits.

    Row r is ``[rng.random() < p for p in probs]``. Returns the index of the
    first row with a hit and leaves `rng` at the start of that row, or
    returns `rows` with every row drawn.
    """
    saved = rng.bit_generator.state
    hit = (rng.random((rows, len(probs))) < probs).any(axis=1)
    if not hit.any():
        return rows
    first = int(hit.argmax())
    rng.bit_generator.state = saved
    rng.bit_generator.random_raw(first * len(probs))
    return first


def usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def map_word_chunks(rng: np.random.Generator, words: int, chunk: int,
                    fn: Callable[[Iterable[np.ndarray]], object]):
    """``[fn(blocks) for each chunk]`` over the chunks of the next `words`
    words of `rng`, leaving `rng` past those words; or None, with `rng`
    untouched, if fn returns None for any chunk.

    Chunk i holds words [i*chunk, min((i+1)*chunk, words)), and `blocks`
    yields them as uint64 arrays of at most ``WORD_BLOCK`` words, so a
    chunk reads its own words and no other. The chunks run on the calling
    thread and ``usable_cores() - 1`` helper threads, each reading from a
    Philox advanced to the chunk's first word, so fn must be thread-safe
    and should spend its time in numpy calls that release the GIL. `rng`
    must be a Philox generator at the start of a counter step (4 words), as
    a fresh one is.
    """
    import numpy as np
    state = rng.bit_generator.state
    if chunk <= 0 or chunk % 4:
        raise ValueError("chunk must be a positive multiple of 4 words")
    if state["bit_generator"] != "Philox" or state["buffer_pos"] != 4 \
            or state["has_uint32"]:
        raise ValueError("map_word_chunks needs a Philox stream at a "
                         "counter step")
    starts = range(0, words, chunk)
    if not starts:
        return []
    results, errors, todo = [None] * len(starts), [], iter(starts)
    lock = threading.Lock()

    def work():
        bits = np.random.Philox()
        while not errors:
            with lock:
                start = next(todo, None)
            if start is None:
                return
            end = min(start + chunk, words)
            try:
                bits.state = state
                bits.advance(start // 4)
                results[start // chunk] = fn(
                    bits.random_raw(min(WORD_BLOCK, end - at))
                    for at in range(start, end, WORD_BLOCK))
            except BaseException as exc:
                errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(usable_cores(), len(starts)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    if any(r is None for r in results):
        return None
    rng.bit_generator.advance((words - 1) // 4)   # to the last counter step,
    rng.bit_generator.random_raw((words - 1) % 4 + 1)   # then its words
    return results
