"""Deterministic random number generation and exact batched samplers.

All randomness in a run flows from a single 64-bit seed. Independent
substreams are derived by hashing the seed together with a label path, so
scenario components can draw without coupling to each other's consumption
order. Philox is counter-based, which keeps runs bit-reproducible across
platforms.

It is also the home of the exact batched samplers that let the per-second
stake lotteries skip the seconds without a solve. Their contract: they read
the same 64-bit words as the per-draw calls they replace, return the same
values and leave the generator in the same state, so no digest depends on
which ran. ``binomial_nonzero`` replays numpy's binomial inversion (one word
per draw, U = (word >> 11) * 2^-53, and the draw is 0 iff U <= (1-p)^n);
``quiet_rows`` reads the words of ``Generator.random``. Both rest on numpy's
algorithms, not its API: the equivalence tests in ``tests/test_attacks.py``
and ``tests/test_netsim.py`` compare them with the per-draw calls word for
word, so a numpy upgrade that changes either algorithm fails there.

``map_word_chunks`` runs such a sampler on every usable core. It cuts a
stream into fixed chunks of words and gives each chunk a generator advanced
to the chunk's first word, so the chunks read the same words as one serial
loop over them. If a chunk ends anywhere but at its last word (a sampler
that falls back to ``rng.binomial`` because numpy would restart a draw), the
call runs that serial loop itself on the untouched stream. The results, and
the words the stream reads next, are therefore the serial loop's, whatever
the number of threads or their order. Only the state's stale ``uinteger``
can differ, if fn draws uint32 halves; no draw reads it while
``has_uint32`` is 0.
Its memory does not grow with the stream: a generator lives only per
thread, and a chunk keeps only its result. Nor does it grow with the chunk:
a sampler reads its words a ``WORD_BLOCK`` at a time, so each thread holds
one block of words and the hits it keeps.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np


def derive_key(seed: int, *labels: object) -> int:
    """Derive a 64-bit substream key from a seed and a label path."""
    material = ("%d/" % seed + "/".join(str(x) for x in labels)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Create a deterministic generator for the given seed and substream labels."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *labels)))


WORD_BLOCK = 2 ** 16   # words a sampler reads at a time: 512 KB of uint64


def _inversion_bound(n: int, p: float, q: float) -> int:
    """numpy's cut-off for one inversion draw; past it numpy draws again."""
    return int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))


def _zero_limit(qn: float) -> int:
    """The largest word whose U = (word >> 11) * 2^-53 is <= qn."""
    return min((int(qn * 2.0 ** 53) << 11) | 0x7FF, 2 ** 64 - 1)


def binomial_nonzero(rng: np.random.Generator, n: int, p: float,
                     size: int) -> np.ndarray:
    """The non-zero entries of ``rng.binomial(n, p, size)`` in stream
    order, drawn from the same words.

    In numpy's inversion regime (0 < p <= 1/2, 0 < n*p <= 30) each word is
    tested against the integer threshold of U <= (1-p)^n, and only the hits
    replay numpy's float recurrence. Elsewhere, or when a hit would pass
    numpy's bound and make it draw again, the draws come from
    ``rng.binomial`` itself. Either way the words are read a ``WORD_BLOCK``
    at a time.
    """
    if n > 0 and 0.0 < p <= 0.5 and p * n <= 30.0:
        saved = rng.bit_generator.state
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        words = _nonzero_by_block(size, rng.bit_generator.random_raw,
                                  np.uint64(_zero_limit(qn)))
        values = _inversion_values(words, n, p, q, qn)
        if values is not None:
            return values
        rng.bit_generator.state = saved
    return _nonzero_by_block(size, lambda m: rng.binomial(n, p, m), 0)


def _nonzero_by_block(size: int, draw: Callable[[int], np.ndarray],
                      limit) -> np.ndarray:
    """The entries above `limit` of `size` draws, made ``draw(m)`` for m up
    to a ``WORD_BLOCK`` at a time (once, empty, when size is 0)."""
    kept = []
    for start in range(0, max(size, 1), WORD_BLOCK):
        block = draw(min(WORD_BLOCK, size - start))
        kept.append(block[block > limit])
    return np.concatenate(kept)


def _inversion_values(words: np.ndarray, n: int, p: float, q: float,
                      qn: float):
    """The draws numpy's inversion makes from `words`, each above the zero
    limit of ``qn`` = (1-p)^n, or None if one of them would need another
    word."""
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


def _mark(state: dict) -> tuple:
    """(counter as one integer, buffer_pos, has_uint32) of a Philox state."""
    counter = int.from_bytes(state["state"]["counter"].astype("<u8").tobytes(),
                             "little")
    return counter, state["buffer_pos"], state["has_uint32"]


def map_word_chunks(rng: np.random.Generator, words: int, chunk: int,
                    fn: Callable[[np.random.Generator, int], object]) -> list:
    """The serial loop ``[fn(rng, m) for m in sizes]`` over the chunks of
    the next `words` words of `rng`: its results, and `rng` where it ends.

    Chunk i holds words [i*chunk, i*chunk + m) with m = min(chunk, words -
    i*chunk); fn should read exactly m words from the generator it is given.
    The chunks run on the calling thread and ``usable_cores() - 1`` helper
    threads, each on a generator advanced to the chunk's first word, so fn
    must be thread-safe and should spend its time in numpy calls that
    release the GIL. `rng` must be a Philox generator at the start of a
    counter step (4 words), as a fresh one is.

    If a chunk reads other than its m words, the parallel results are
    dropped and the serial loop itself runs on `rng`, which the threads
    never touched.
    """
    state = rng.bit_generator.state
    if chunk <= 0 or chunk % 4:
        raise ValueError("chunk must be a positive multiple of 4 words")
    if state["bit_generator"] != "Philox" or state["buffer_pos"] != 4 \
            or state["has_uint32"]:
        raise ValueError("map_word_chunks needs a Philox stream at a "
                         "counter step")
    starts = range(0, words, chunk)
    sizes = [min(chunk, words - s) for s in starts]
    if not sizes:
        return []
    counter, n = _mark(state)[0], len(sizes)
    results, errors, missed = [None] * n, [], []
    todo = iter(range(n))
    lock = threading.Lock()

    def work():
        bits = np.random.Philox()
        gen = np.random.Generator(bits)
        while not errors:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                bits.state = state
                bits.advance(starts[i] // 4)
                results[i] = fn(gen, sizes[i])
                end = starts[i] + sizes[i]   # the stream read [0, end)?
                if _mark(bits.state) != (counter + (end + 3) // 4,
                                         (end - 1) % 4 + 1, 0):
                    missed.append(i)
            except BaseException as exc:
                errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(usable_cores(), n) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    if missed:
        return [fn(rng, m) for m in sizes]
    rng.bit_generator.advance((words - 1) // 4)   # to the last counter step,
    rng.bit_generator.random_raw((words - 1) % 4 + 1)   # then its words
    return results
