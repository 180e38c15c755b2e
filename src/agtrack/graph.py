"""Graph schedules, Metropolis mixing matrices, and spectral mixing constants.

A network of ``m`` agents communicates through a (possibly time-varying)
sequence of undirected graphs.  Each instant ``k`` contributes an edge set
``E^k`` from which a doubly stochastic mixing matrix ``W^k`` is built with the
Metropolis rule

    W_ij = 1 / (1 + max(d_i, d_j))   for (i, j) in E^k,
    W_ii = 1 - sum_{j in N_i} W_ij.

Mixing quality is measured by the deflated spectral norm
``sigma = ||W - (1/m) 1 1^T||_2`` and, for time-varying schedules, by its
``gamma``-step analogue ``sigma_gamma = sup_k ||W^{k,gamma} - (1/m) 1 1^T||_2``
where ``W^{k,gamma} = W^k W^{k-1} ... W^{k-gamma+1}``.  Consensus is possible
whenever the union of any ``gamma`` consecutive edge sets is connected.

The layer works on arrays.  An edge list is validated once, where it enters:
endpoints must be integers (bools and floats are rejected, never truncated)
in ``[0, m)`` with no self-loops.  The result is an ``EdgeSet``, a validated
value that carries its endpoints as arrays; every schedule instant is one, and
``metropolis_weights`` and ``gamma_connectivity`` take its arrays without
parsing the pairs again.  Any other edge list given to ``metropolis_weights``
is validated in full.  A build is one vectorized pass, and one kernel builds a
whole stack of instants as readily as one: ``metropolis_weights`` takes one
edge set, or a list or tuple of ``EdgeSet``s whose stack it builds at once.
Every built stack, and every matrix ``sigma`` takes, is checked for double
stochasticity with row and column sums as matrix-vector products; a NaN entry
fails the check, and an empty stack or a 0 x 0 matrix is rejected.

One rule takes every whole-number argument of the package (an instant, an
agent count, gamma, a horizon; in the other modules t, zeta, a start round,
an iteration or sample count): ``_integer``.  A bool or a float is a
ValueError that names the argument, never truncated, and a numpy integer
becomes the Python int it holds, so no arithmetic on it can wrap.  A number
argument that must be finite takes ``_is_finite``: a real number other than
a bool, NaN or an infinity, and no integer past the float range.

``GraphSchedule.matrix(k)`` is the one way the methods get W^k.  A periodic
schedule builds each of its period matrices once; a seeded_random schedule
draws and builds ``SPECTRAL_CHUNK`` aligned instants at a time and keeps the
last such stack, so a caller that walks the instants in order, as gossip and
multiple consensus do, draws each instant once.  ``sigma`` of a stack bounds
every matrix's norm with two batched matmuls and decomposes only the matrices
that can hold the maximum, in at most two SVD calls, with the same result bit
for bit as one SVD of the whole stack.

The two constants read the same windows of gamma consecutive instants, in one
walk (``_window_ends``, ``_window_stacks``): ``sigma_gamma`` forms a chunk's
window products and takes one ``sigma`` of them, ``gamma_connectivity`` tests
a chunk's windows at once, by reachability on their unions.  A static or
cyclic schedule has one period of windows and ignores ``horizon``; on a
seeded_random schedule ``horizon`` is the last instant read, so both read
instants 0..horizon (default ``HORIZON``).

A seeded_random instant k is numpy's stream for the key (seed, k), so a draw
never depends on evaluation order.  Every instant is read by one rule: as a
row of the aligned ``SPECTRAL_CHUNK`` chunk that holds it, through
``GraphSchedule._chunk``.  ``_chunk`` is the only caller of the draw and the
only code that decides what is kept: every chunk whose first instant is at
most ``HORIZON``, for every seed, plus the last chunk drawn past them, packed
a bit per candidate pair.  So the gamma search, ``sigma_gamma`` (through
``edge_set``) and ``matrix`` read one draw of every instant the constants
read, and a walk in order past the horizon, as multiple consensus makes,
draws each chunk once.  ``GraphSchedule._draw`` draws exactly one chunk, bit
for bit as ``np.random.default_rng`` would.  A chunk whose seed and instants
fit one uint32 word each is drawn without a ``SeedSequence`` per instant: each
instant's four seeding words go to a fresh ``PCG64`` through numpy's public
seed-sequence interface (``ISeedSequence``), so numpy's own C code does the
128-bit seeding; any other chunk goes through ``default_rng((seed, k))``, and
no chunk straddles 2**32.  ``GraphSchedule._seeding_words`` takes a chunk's
words from its aligned ``_WORD_BLOCK`` (1024) block, counted from instant 0,
hashed in one call in uint32 array arithmetic as numpy's ``SeedSequence``
would; the schedule keeps the last block, so the kept chunks to the horizon
(block 0) share one hash, and multiple consensus pays the hash's fixed cost
once per block, not once per chunk.
"""
from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Double-stochasticity tolerances: tight for matrices we build ourselves,
# looser when accepting user-supplied matrices.
DS_BUILD_TOL = 1e-12
DS_INPUT_TOL = 1e-9

# Largest gamma resolve_gamma searches.
MAX_GAMMA = 50

# Windows per chunk of the constants' walk: sigma_gamma's memory is
# O((SPECTRAL_CHUNK + gamma) m^2) whatever the horizon, and gamma_connectivity
# tests that many windows at once.  A seeded_random schedule draws and keeps
# the stacks matrix(k) serves at multiples of it.
SPECTRAL_CHUNK = 64

# Default horizon, the last instant whose edge set the constants of a
# seeded_random schedule read: gamma_connectivity and sigma_gamma both examine
# instants 0..HORIZON.
HORIZON = 1000

# Aligned instants, counted from instant 0, whose PCG64 seeding words are
# hashed in one call: the hash costs about 120 us for 64 keys and 155 us for
# 1024 (2-vCPU VM, numpy 2.4), so a 64-instant chunk that hashed its own keys
# would pay mostly the fixed cost.  A multiple of SPECTRAL_CHUNK and a divisor
# of 2**32, so no chunk straddles a block and no block straddles 2**32; the
# kept chunks of instants 0..HORIZON are block 0.
_WORD_BLOCK = 1024

_BOOL_TYPES = frozenset((bool, np.bool_))


class EdgeSet(tuple):
    """A validated undirected edge set.

    As a tuple it holds the canonical pairs ``(i, j)``: ``i < j``, sorted,
    each pair once, so it hashes, compares and prints like the plain tuple of
    those pairs.  ``.i`` and ``.j`` hold the same endpoints as read-only
    ``intp`` arrays.  Only this module makes one, from endpoints it has
    validated or drawn itself.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"EdgeSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _edge_set_of, (self.i, self.j)


def _edge_set_of(i: np.ndarray, j: np.ndarray) -> EdgeSet:
    """The EdgeSet of canonical endpoint arrays, which it makes read-only."""
    edges = tuple.__new__(EdgeSet, zip(i.tolist(), j.tolist()))
    i.setflags(write=False)
    j.setflags(write=False)
    edges.__dict__.update(i=i, j=j)
    return edges


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and type(v) not in _BOOL_TYPES


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and type(v) not in _BOOL_TYPES


def _is_finite(v) -> bool:
    """A real number (a bool is not) that is a finite float: not NaN or
    infinity, nor an integer past the float range."""
    return _is_real(v) and abs(v) <= sys.float_info.max


def _integer(value, name: str, least: int | None = None) -> int:
    """value as a Python int; ValueError naming ``name`` unless it is an
    integer (a bool is not), at least ``least`` when that is given.  A numpy
    integer becomes the Python int it holds, so arithmetic on it cannot wrap."""
    if not (_is_int(value) and (least is None or value >= least)):
        bound = "" if least is None else f" at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return operator.index(value)


def _check_instant(k) -> int:
    """k as a Python int; ValueError unless it is an instant index, an integer
    k >= 0."""
    k = _integer(k, "instant index")
    if k < 0:
        raise ValueError("instant index must be nonnegative")
    return k


def _edge_arrays(edges, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated endpoints ``(i, j)`` of an undirected edge list, ``i < j``.

    Each edge appears once, sorted by ``(i, j)``.  Raises ValueError for an
    endpoint that is not an integer (bools and floats included), a self-loop,
    or an endpoint outside ``[0, m)``.
    """
    if not isinstance(edges, np.ndarray):
        try:
            edges = list(edges)
        except TypeError:
            raise ValueError("an edge set is a list of (i, j) pairs") from None
    arr = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("an edge set is a list of (i, j) pairs")
    integral = arr.dtype.kind in "iu"
    if integral and not isinstance(edges, np.ndarray):
        # numpy turns a bool among ints into an int, so look at the Python types too.
        integral = _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(edges)))
    if not integral:
        bad = next((e for e in edges if not all(map(_is_int, e))), edges)
        raise ValueError(f"edge {bad!r} has a non-integer endpoint; endpoints are agent indices")
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    if len(lo) and (lo.min() < 0 or hi.max() >= m or (lo == hi).any()):
        for i, j in arr.tolist():  # report the first bad edge
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed; self-weights are implicit")
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range for {m} agents")
    upper = np.zeros((m, m), dtype=bool)
    upper[lo, hi] = True
    return np.nonzero(upper)


def _canonical_edges(edges, m: int) -> EdgeSet:
    """Validate, orient as (min, max), and deduplicate an undirected edge set.

    An EdgeSet whose endpoints lie below m is all of that already and is
    returned as it is.
    """
    if isinstance(edges, EdgeSet) and (not edges or edges.j.max() < m):
        return edges
    return _edge_set_of(*_edge_arrays(edges, m))


@lru_cache(maxsize=8)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``, read-only: the candidate edges of one draw."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


# numpy's stream for the key [seed, k], rebuilt for a batch of k (see
# GraphSchedule._draw).  SeedSequence (O'Neill's seed_seq_fe, NEP 19) hashes a
# key into a pool of four uint32 words, and each hash call xors a running
# constant into its word, steps the constant and multiplies by it.  A two-word
# key takes 16 calls (_XOR_A / _MUL_A, one row each, in call order);
# generate_state(4, uint64) takes 8 more, two passes over the pool (_XOR_B /
# _MUL_B, shaped (2, 4, 1)).  PCG64 (O'Neill, HMC-CS-2014-0905) seeds itself
# from those four words.  The constants stay (1,)-shaped arrays: uint32
# arithmetic on arrays wraps silently, on two numpy scalars it warns.
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant each of ``calls`` hash calls xors with and the one it
    multiplies by, as ``(calls, 1)`` uint32 columns."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_XOR_A, _MUL_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_XOR_B, _MUL_B = (c.reshape(2, 4, 1) for c in _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _XSHIFT)


def _pcg64_states(seed: int, ks: np.ndarray) -> np.ndarray:
    """The seeding words of ``np.random.default_rng([seed, k])``'s PCG64 for
    each k of the uint32 array ``ks``; seed is below 2**32.

    Row c is ``SeedSequence([seed, ks[c]]).generate_state(4, np.uint64)``,
    ``(initstate_hi, initstate_lo, initseq_hi, initseq_lo)``, and the result
    is a C-contiguous ``(len(ks), 4)`` uint64 array.  The hash runs as numpy's
    ``SeedSequence.mix_entropy`` does, each step on every key at once: the
    pool words seed, k, 0, 0 hashed in order, then, for each source word in
    order, every other word mixed with the source's hash.
    """
    pool = np.zeros((4, len(ks)), dtype=np.uint32)
    pool[0], pool[1] = seed, ks
    pool = _hashmix(pool, _XOR_A[:4], _MUL_A[:4])
    for (src, dst), xor, mult in zip(permutations(range(4), 2), _XOR_A[4:], _MUL_A[4:]):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, mult))
    # generate_state's uint64 words are its uint32 words read as little-endian pairs.
    words32 = np.ascontiguousarray(_hashmix(pool, _XOR_B, _MUL_B).reshape(8, -1).T, dtype="<u4")
    return words32.view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """The seed sequence of a run of PCG64s: each takes the next row of
    ``words``, a C-contiguous ``(n, 4)`` uint64 array of ``_pcg64_states``.

    A ``PCG64`` made from an ``ISeedSequence`` asks it once for
    ``generate_state(4, np.uint64)`` and seeds itself from those words in C,
    as it does from a ``SeedSequence``.  numpy reads the returned row's memory
    as it is, so the array's layout is checked here; any other request is a
    ValueError, so this object seeds nothing but a PCG64.
    """

    def __init__(self, words: np.ndarray):
        if not (words.dtype == np.uint64 and words.ndim == 2 and words.shape[1] == 4
                and words.flags.c_contiguous):
            raise ValueError("seeding words are a C-contiguous (n, 4) uint64 array")
        self._rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        # numpy asks with the type object itself; the identity test spares the dtype build.
        if not (n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64)):
            raise ValueError("only PCG64's seeding request generate_state(4, np.uint64) is "
                             f"served, not ({n_words!r}, {dtype!r})")
        return next(self._rows)


@dataclass(frozen=True)
class GraphSchedule:
    """A total function ``k -> E^k`` over m agents with a replay rule.

    ``schedule_kind`` is one of ``static`` (one edge set forever), ``cyclic``
    (a finite list replayed with its period), or ``seeded_random`` (each
    instant draws an Erdos-Renyi edge set reproducibly from ``(seed, k)``).
    Construction validates every given edge set and stores it as an
    ``EdgeSet``; the agent count is an integer at least 1, a seeded_random
    seed a non-negative integer and its edge probability a number in
    [0, 1] (a bool is none of these).  The agent count is kept as a
    Python int.  A field the kind never reads (a seeded_random schedule's
    edge sets, a static or cyclic one's edge probability or seed) is a
    ValueError, since it would take part in ``==`` and hashing unused.
    """

    agent_count: int
    schedule_kind: str
    edge_sets: tuple[EdgeSet, ...] | None = None
    edge_probability: float | None = None
    seed: int | None = None
    # matrix(k)'s store: a periodic schedule's matrices by k mod period, a
    # seeded_random schedule's one chunk stack by its first instant.
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # _chunk's store: a seeded_random schedule's packed chunks of instants
    # 0..HORIZON and the last chunk drawn past them, by their first instant.
    _mask_chunks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # _seeding_words's store: the (_WORD_BLOCK, 4) seeding words of the last
    # block of instants it hashed, by the block's first instant.
    _word_block: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "agent_count", _integer(self.agent_count, "agent_count", 1))
        if self.schedule_kind not in ("static", "cyclic", "seeded_random"):
            raise ValueError(f"unknown schedule_kind {self.schedule_kind!r}")
        unread = (("edge_sets",) if self.schedule_kind == "seeded_random"
                  else ("edge_probability", "seed"))
        stray = [name for name in unread if getattr(self, name) is not None]
        if stray:
            raise ValueError(f"a {self.schedule_kind} schedule does not read {' or '.join(stray)}")
        if self.schedule_kind in ("static", "cyclic"):
            sets = self.edge_sets if isinstance(self.edge_sets, (list, tuple)) else ()
            if not sets:
                raise ValueError(f"{self.schedule_kind} schedule requires explicit edge sets")
            if self.schedule_kind == "static" and len(sets) != 1:
                raise ValueError("static schedule takes exactly one edge set")
            sets = tuple(_canonical_edges(e, self.agent_count) for e in sets)
            object.__setattr__(self, "edge_sets", sets)
        else:
            p = self.edge_probability
            if not (_is_real(p) and 0.0 <= p <= 1.0):
                raise ValueError("seeded_random schedule requires edge_probability in [0, 1], "
                                 f"got {p!r}")
            if not (_is_int(self.seed) and self.seed >= 0):
                raise ValueError("seeded_random schedule requires a non-negative integer "
                                 f"seed, got {self.seed!r}")

    @classmethod
    def static(cls, m: int, edges) -> "GraphSchedule":
        return cls(m, "static", (edges,))

    @classmethod
    def cyclic(cls, m: int, edge_sets) -> "GraphSchedule":
        try:
            edge_sets = tuple(edge_sets)
        except TypeError:  # not iterable: __post_init__ rejects it by name
            pass
        return cls(m, "cyclic", edge_sets)

    @classmethod
    def seeded_random(cls, m: int, edge_probability: float, seed: int) -> "GraphSchedule":
        return cls(m, "seeded_random", None, edge_probability, seed)

    def __getstate__(self):
        # Pickles and deep copies leave the stores behind (a chunk stack is
        # O(SPECTRAL_CHUNK m^2)); the copy draws and rebuilds what it reads.
        return {**self.__dict__, "_matrices": {}, "_mask_chunks": {}, "_word_block": {}}

    @property
    def period(self) -> int | None:
        """Replay period: the number of edge sets (1 for static), None for random."""
        return None if self.schedule_kind == "seeded_random" else len(self.edge_sets)

    def edge_set(self, k: int) -> EdgeSet:
        """The edge set active at instant k, an integer k >= 0 (bools are not
        instants).  A seeded_random row is read from its chunk (``_chunk``).
        """
        if type(k) is not int or k < 0:  # a Python int instant pays only these tests
            k = _check_instant(k)
        if self.period is not None:
            return self.edge_sets[k % self.period]
        iu, ju = _upper_pairs(self.agent_count)
        row = self._chunk(k - k % SPECTRAL_CHUNK)[k % SPECTRAL_CHUNK]
        mask = np.unpackbits(row, count=len(iu)).view(bool)
        return _edge_set_of(iu[mask], ju[mask])

    def _masks(self, start: int, count: int) -> np.ndarray:
        """The ``(count, pairs)`` bool edge masks of instants start, ...,
        start+count-1: row c marks the pairs of ``_upper_pairs`` in E^(start+c).

        Periodic rows are their instants' edge sets; seeded_random rows are
        read from the aligned chunks that hold them (``_chunk``).
        """
        m = self.agent_count
        iu, _ = _upper_pairs(m)
        masks = np.zeros((count, len(iu)), dtype=bool)
        if self.period is not None:
            for row, k in zip(masks, range(start, start + count)):
                e = self.edge_set(k)
                row[e.i * (2 * m - 1 - e.i) // 2 + e.j - e.i - 1] = True  # triu order
            return masks
        stop = start + count
        for first in range(start - start % SPECTRAL_CHUNK, stop, SPECTRAL_CHUNK):
            lo, hi = max(first, start), min(first + SPECTRAL_CHUNK, stop)
            masks[lo - start:hi - start] = np.unpackbits(
                self._chunk(first)[lo - first:hi - first], axis=1, count=len(iu)).view(bool)
        return masks

    def _chunk(self, first: int) -> np.ndarray:
        """The packed edge masks (``np.packbits``, pairs / 8 bytes a row) of
        the aligned ``SPECTRAL_CHUNK`` seeded_random instants from ``first``.

        ``edge_set``, ``_masks`` and ``matrix`` read seeded_random rows only
        here, and this is the only caller of ``_draw`` and the only code that
        decides what is kept: every chunk whose first instant is at most
        ``HORIZON`` (the chunks that hold instants 0..``HORIZON``, which every
        constant reads), plus the last chunk drawn past them.  So the gamma
        search, ``sigma_gamma`` and ``matrix`` read one draw of every instant
        the constants read, and a caller that walks the instants in order, as
        multiple consensus does, draws each chunk once.
        """
        chunk = self._mask_chunks.get(first)
        if chunk is None:
            if first > HORIZON < max(self._mask_chunks, default=0):  # keep one past HORIZON
                del self._mask_chunks[max(self._mask_chunks)]
            chunk = self._mask_chunks[first] = np.packbits(self._draw(first), axis=1)
        return chunk

    def _draw(self, first: int) -> np.ndarray:
        """The ``(SPECTRAL_CHUNK, pairs)`` bool edge masks of the aligned
        chunk of seeded_random instants from ``first``, drawn.

        Row c holds a uniform per pair of ``_upper_pairs``, from numpy's
        stream for the key (seed, first + c), and the pair is an edge when it
        is below p.  A chunk whose seed and instants fit one uint32 word each
        is drawn without a ``SeedSequence`` per instant: ``_seeding_words``
        gives the keys' PCG64 seeding words, and each row gets a fresh
        ``PCG64`` that ``_SeedWords`` hands its key's words (numpy's C code
        does the 128-bit seeding).  This rests on numpy keeping SeedSequence's
        hash fixed, as its stream policy for bit generators (NEP 19) does;
        the tests compare chunks with ``default_rng``, so a change would show
        there.  Any other chunk, of a seed or instants from 2**32 on, is drawn
        through ``default_rng((seed, k))``; 2**32 is a multiple of
        ``SPECTRAL_CHUNK``, so no chunk straddles it.
        """
        u = np.empty((SPECTRAL_CHUNK, len(_upper_pairs(self.agent_count)[0])))
        if self.seed < 1 << 32 and first < 1 << 32:
            seeds = _SeedWords(self._seeding_words(first))
            for row in u:
                np.random.Generator(np.random.PCG64(seeds)).random(out=row)
        else:
            for k, row in enumerate(u, first):
                np.random.default_rng((self.seed, k)).random(out=row)
        return u < self.edge_probability

    def _seeding_words(self, first: int) -> np.ndarray:
        """``_pcg64_states`` of the uint32 keys of the aligned chunk from
        ``first``, its ``SPECTRAL_CHUNK`` rows of the aligned ``_WORD_BLOCK``
        block that holds it, counted from instant 0 and hashed in one call.

        The schedule keeps the last block (32 KB), so a caller that walks the
        instants in order, as the kept chunks and multiple consensus do,
        hashes each key once and pays the hash's fixed cost once per block,
        not once per chunk.
        """
        block = first - first % _WORD_BLOCK
        words = self._word_block.get(block)
        if words is None:
            self._word_block.clear()
            ks = np.arange(block, block + _WORD_BLOCK, dtype=np.int64).astype(np.uint32)
            words = self._word_block[block] = _pcg64_states(self.seed, ks)
        return words[first - block:first - block + SPECTRAL_CHUNK]

    def matrix(self, k: int) -> np.ndarray:
        """The read-only Metropolis matrix W^k of instant k.

        A periodic schedule builds each of its ``period`` matrices once.  A
        seeded_random schedule returns a view into the stack of the
        ``SPECTRAL_CHUNK`` aligned instants that hold k, whose masks are one
        chunk (``_chunk``, unpacked) and whose matrices are built in one
        Metropolis pass.  It keeps that one stack and drops it before the
        next is built, so a caller that walks the instants in order draws
        each once, and the store holds O(SPECTRAL_CHUNK m^2).  Either way W^k is bitwise
        ``metropolis_weights(edge_set(k), m)``.
        """
        if type(k) is not int or k < 0:  # a Python int instant pays only these tests
            k = _check_instant(k)
        if self.schedule_kind == "seeded_random":  # first: multiple consensus calls it per round
            first = k - k % SPECTRAL_CHUNK
            Ws = self._matrices.get(first)
            if Ws is None:
                self._matrices.clear()
                iu, ju = _upper_pairs(self.agent_count)
                masks = np.unpackbits(self._chunk(first), axis=1, count=len(iu)).view(bool)
                b, pair = divmod(np.flatnonzero(masks), len(iu))
                Ws = _metropolis_stack(SPECTRAL_CHUNK, self.agent_count, b, iu[pair], ju[pair])
                Ws.setflags(write=False)
                self._matrices[first] = Ws
            return Ws[k - first]
        key = k % self.period
        W = self._matrices.get(key)
        if W is None:
            W = self._matrices[key] = metropolis_weights(self.edge_set(k), self.agent_count)
            W.setflags(write=False)
        return W


def _check_doubly_stochastic(W: np.ndarray, tol: float):
    """Raise unless W, or every matrix of a ``(..., m, m)`` stack, is doubly stochastic.

    Row sums are one matrix-vector product over the stack's rows and column
    sums one batched ``ones @ W``; two strided ``sum`` reductions over a
    (64, 20, 20) stack cost about three times as much.  A NaN entry makes its
    sums NaN, which the maximum keeps and ``dev <= tol`` rejects.  An empty
    stack or a 0 x 0 matrix has no sums to check and is rejected as empty.
    """
    if W.ndim < 2 or W.shape[-1] != W.shape[-2]:
        raise ValueError("mixing matrix must be square")
    if W.size == 0:
        raise ValueError(f"mixing matrix is empty (shape {W.shape}): a stack needs at least "
                         "one matrix and a matrix at least one agent")
    m = W.shape[-1]
    ones = np.ones(m)
    sums = np.concatenate((W.reshape(-1, m) @ ones, (ones @ W).reshape(-1)))
    dev = np.abs(sums - 1.0).max()
    if not dev <= tol:
        raise ValueError(f"matrix is not doubly stochastic (max row/col sum deviation {dev:.3e})")


def metropolis_weights(edge_set, m: int) -> np.ndarray:
    """Build the Metropolis mixing matrix for one edge set, or the stack of
    matrices for a list of them.

    Off-diagonal weights are ``1 / (1 + max(d_i, d_j))`` for neighbors and the
    diagonal absorbs the remainder, which yields a symmetric doubly stochastic
    matrix with positive diagonal for any undirected graph.  An ``EdgeSet``
    whose endpoints lie below m is used as it is; any other edge list is
    validated like a schedule's (integer endpoints in ``[0, m)``, no
    self-loops), and duplicates and orientation do not matter.  An m that
    is not an integer (bools included) is a ValueError; a numpy integer is
    taken as the Python int it holds.

    A list or tuple (not itself an ``EdgeSet``) whose items include an
    ``EdgeSet`` is a list of edge sets: every item must then be one, and the
    result is their ``(count, m, m)`` stack from one Metropolis pass, each
    matrix bitwise its own build.  Their endpoints are checked against m in
    one pass, one maximum over the concatenated ``.j`` (an ``EdgeSet`` holds
    ``0 <= i < j``); only when it reaches m are the sets checked one by one,
    so the first set past m raises the message a lone build of it gives.
    Any other list is one edge list of pairs, so ``[]`` and ``()`` still give
    the m x m identity.
    """
    m = _integer(m, "m")  # a numpy integer would wrap in the stack's index arithmetic
    if m <= 0:
        raise ValueError("m must be positive")
    if type(edge_set) in (list, tuple) and any(isinstance(e, EdgeSet) for e in edge_set):
        if not all(isinstance(e, EdgeSet) for e in edge_set):
            raise ValueError("a list of edge sets holds EdgeSets only, not (i, j) pairs")
        b = np.repeat(np.arange(len(edge_set)), [len(e) for e in edge_set])
        i = np.concatenate([e.i for e in edge_set])
        j = np.concatenate([e.j for e in edge_set])
        if len(j) and j.max() >= m:  # an EdgeSet has 0 <= i < j: only j can leave [0, m)
            for e in edge_set:
                _canonical_edges(e, m)  # the first set past m raises its own message
        return _metropolis_stack(len(edge_set), m, b, i, j)
    edges = _canonical_edges(edge_set, m)
    return _metropolis_stack(1, m, 0, edges.i, edges.j)[0]


def _metropolis_stack(count: int, m: int, b, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The ``(count, m, m)`` Metropolis matrices of ``count`` edge sets.

    Edge e is ``(i[e], j[e])`` of edge set ``b[e]``, with ``i < j < m`` and
    each edge of an edge set given once; ``b`` may be one index for all.
    Degrees come from ``np.bincount`` over (edge set, agent) rows and each
    diagonal is one minus its row's off-diagonal sum; the stack's double
    stochasticity is checked once.
    """
    rows_i, rows_j = b * m + i, b * m + j  # row of W[b] in the (count * m, m) view
    deg = np.bincount(rows_i, minlength=count * m) + np.bincount(rows_j, minlength=count * m)
    w = 1.0 / (1.0 + np.maximum(deg[rows_i], deg[rows_j]))
    W = np.zeros((count, m, m))
    flat = W.reshape(count * m, m)
    flat[rows_i, j] = w
    flat[rows_j, i] = w
    W.reshape(count, m * m)[:, ::m + 1] = 1.0 - W.sum(axis=-1)
    _check_doubly_stochastic(W, DS_BUILD_TOL)
    return W


def sigma(W) -> float:
    """Deflated spectral norm ``||W - (1/m) 1 1^T||_2`` of a doubly stochastic W.

    Equals the second largest singular value of W; strictly below 1 exactly
    when one round of gossip contracts disagreement.  ``W`` may also be a
    ``(..., m, m)`` stack of matrices: the result is the largest of their
    norms, and only the matrices that can hold it are decomposed.

    Every matrix of a stack is checked for double stochasticity.  Then, with
    ``D = W_b - J`` and ``G = D^T D``, each matrix gets the bound
    ``||D||_2 <= ||G^2||_F^(1/4)`` (``lambda_max(G)^2 <= ||G^2||_F`` for
    symmetric positive semidefinite G; Horn & Johnson, Schatten norms), two
    batched matmuls per stack.  The matrix with the highest bound is
    decomposed first; one more SVD takes the others whose ``bound * (1 +
    1e-9)`` still reaches its norm, a slack far above the bound's rounding
    (relative error of order m eps).  An SVD of a subset of a stack, or of one
    matrix, gives bitwise the singular values the whole batched call gives,
    so the maximum is the same float as one SVD of the stack; a single matrix
    takes that one plain SVD.
    """
    M = np.asarray(W, dtype=float)
    _check_doubly_stochastic(M, DS_INPUT_TOL)
    m = M.shape[-1]
    J = np.ones((m, m)) / m
    if M.ndim == 2 or M.size == m * m:
        val = np.linalg.svd(M - J, compute_uv=False).max()
    else:
        val = _screened_norm_max(M.reshape(-1, m, m), J)
    # Doubly stochastic matrices have singular values at most 1; trim rounding.
    return float(min(max(val, 0.0), 1.0))


def _screened_norm_max(M: np.ndarray, J: np.ndarray) -> float:
    """``max_b ||M[b] - J||_2`` over a ``(count, m, m)`` stack, screened as
    ``sigma`` says, in two (count, m, m) buffers reused through ``out=``."""
    D = np.subtract(M, J, out=np.empty(M.shape))
    G = np.matmul(D.transpose(0, 2, 1), D, out=np.empty(M.shape))
    G2 = np.matmul(G, G, out=D)  # D is spent; G is symmetric, so G @ G = G^T G
    del G
    bound = np.einsum("bij,bij->b", G2, G2) ** 0.125  # ||G^2||_F^(1/4)
    top = int(bound.argmax())
    best = np.linalg.svd(M[top] - J, compute_uv=False).max()
    rest = np.flatnonzero(bound * (1.0 + 1e-9) >= best)
    rest = rest[rest != top]
    if len(rest):
        D = np.take(M, rest, axis=0, out=G2[:len(rest)], mode="clip")  # "clip": unbuffered
        D -= J
        best = max(best, np.linalg.svd(D, compute_uv=False).max())
    return best


def _window_unions(masks: np.ndarray, gamma: int) -> np.ndarray:
    """Row s: the union (elementwise or) of rows s, ..., s+gamma-1 of a
    stack of edge masks, for every window of gamma rows in the stack.

    Unions of 1, 2, 4, ... rows are formed by doubling; a window of gamma
    rows is then the union of two overlapping ones.
    """
    span, unions = 1, masks
    while 2 * span <= gamma:
        unions = unions[:-span] | unions[span:]  # each row now spans 2 * span instants
        span *= 2
    rest = gamma - span  # 0 <= rest < span, so the two spans overlap or touch
    return unions[:len(unions) - rest] | unions[rest:]


def _all_connected(edges: np.ndarray, m: int) -> bool:
    """Whether every graph of a stack is connected; row w of ``edges`` marks
    the pairs of ``_upper_pairs(m)`` that are edges of graph w.

    Reachability from agent 0 grows one hop per batched matrix-vector
    product, until every agent is reached or no graph gains one.  The
    products count paths in float32, exactly, since no count exceeds m.
    """
    links = np.zeros((len(edges), m, m), dtype=bool)
    links[:, np.triu(np.ones((m, m), dtype=bool), 1)] = edges  # row-major: triu order
    links |= links.transpose(0, 2, 1)
    links.reshape(len(edges), m * m)[:, ::m + 1] = True  # reached agents stay reached
    links = links.astype(np.float32)
    reached = links[:, 0] > 0
    count = np.count_nonzero(reached)
    while count < reached.size:
        reached = (links @ reached[:, :, None])[:, :, 0] > 0  # one more hop
        grown = np.count_nonzero(reached)
        if grown == count:
            return False
        count = grown
    return True


def _window_ends(schedule, gamma: int, horizon: int | None) -> tuple[range, int]:
    """The instants at which the windows of gamma instants that the constants
    read end, and gamma as a Python int.

    A periodic schedule (static ones have period 1) has one period of window
    ends, ``gamma - 1 .. gamma + period - 2``, whatever the horizon.  A
    seeded_random schedule has the ends ``gamma - 1 .. horizon`` (default
    ``HORIZON``), so instants 0..horizon are read.  A gamma or horizon that
    is not an integer is a ValueError, never truncated; a numpy integer is
    taken as the Python int it holds, so the walk's arithmetic cannot wrap.
    """
    gamma = _integer(gamma, "gamma", 1)
    horizon = HORIZON if horizon is None else _integer(horizon, "horizon")
    if schedule.period is not None:
        return range(gamma - 1, gamma - 1 + schedule.period), gamma
    if horizon < gamma - 1:
        raise ValueError(f"horizon must be at least gamma - 1 = {gamma - 1}, got {horizon}")
    return range(gamma - 1, horizon + 1), gamma


def _window_stacks(ends: range, gamma: int, fill):
    """Yield, for each chunk of at most ``SPECTRAL_CHUNK`` window ends, the
    stack of the instants its windows span: row s of the chunk whose first
    end is e is instant ``e - gamma + 1 + s``, and the window ending at
    ``e + c`` is rows ``c .. c + gamma - 1``.

    ``fill(first, count)`` returns the rows of instants ``first .. first +
    count - 1``.  The one buffer every chunk is written into takes the first
    result's dtype and row shape, and the last gamma - 1 rows of a chunk
    carry into the next, so each instant is filled once per walk, in order.
    The returned rows are dropped before the chunk is yielded, and a yielded
    stack is overwritten by the next.
    """
    buffer, carry = None, 0  # the first chunk starts at instant ends.start - gamma + 1 = 0
    for first in range(ends.start, ends.stop, SPECTRAL_CHUNK):
        size = gamma - 1 + min(SPECTRAL_CHUNK, ends.stop - first)
        new = fill(first - gamma + 1 + carry, size - carry)
        if buffer is None:
            buffer = np.empty((gamma - 1 + min(SPECTRAL_CHUNK, len(ends)), *new.shape[1:]),
                              dtype=new.dtype)
        rows = buffer[:size]
        rows[:carry] = buffer[SPECTRAL_CHUNK:SPECTRAL_CHUNK + carry]  # the full chunk before
        rows[carry:] = new
        del new
        yield rows
        carry = gamma - 1


def gamma_connectivity(schedule: GraphSchedule, gamma: int, horizon: int | None = None) -> bool:
    """Whether the union of every gamma consecutive edge sets is connected.

    The windows checked are those ``sigma_gamma`` reads (``_window_ends``):
    for static and cyclic schedules one period of windows, whatever the
    horizon, and the verdict is exact; for seeded_random schedules the
    windows within instants 0..horizon (default ``HORIZON``).

    Instants are taken a chunk at a time as a stack of edge masks
    (``GraphSchedule._masks``: a seeded_random stack is read from the
    schedule's chunks, so the calls for each gamma that ``resolve_gamma``
    tries draw each chunk to ``HORIZON`` once between them, and a call's
    walk past it draws each later chunk once; a periodic one comes from its
    edge sets), each once per call and in order.
    The windows that end in a chunk have their unions formed from the stack
    (``_window_unions``) and are tested together by batched reachability;
    the call returns at the first chunk that holds a disconnected window.
    """
    ends, gamma = _window_ends(schedule, gamma, horizon)
    m = schedule.agent_count
    return all(_all_connected(_window_unions(masks, gamma), m)
               for masks in _window_stacks(ends, gamma, schedule._masks))


def sigma_gamma(schedule: GraphSchedule, gamma: int, horizon: int | None = None) -> float:
    """Gamma-step mixing constant ``sup_k ||W^{k,gamma} - (1/m) 1 1^T||_2``.

    The windows are those ``gamma_connectivity`` checks (``_window_ends``):
    periodic schedules (static ones have period 1) take the exact max over
    one full period of windows, whatever the horizon.  A schedule with no
    period (seeded_random) is sampled: the windows ending at ``k in
    [gamma-1, horizon]`` (default ``HORIZON``), instants 0..horizon, so the
    result is an estimate of the supremum exactly when ``schedule.period is
    None``, and callers that report it label it so.

    Windows are handled ``SPECTRAL_CHUNK`` at a time: their matrices are
    stacked, the products ``W^k ... W^{k-gamma+1}`` are formed with batched
    ``@``, and one ``sigma`` call takes each chunk's products (for gamma = 1
    the products are the instants' own matrices).  ``sigma`` bounds every
    window's norm by ``||G^2||_F^(1/4)``, ``G = D^T D`` with ``D`` the window
    minus J, and decomposes only the highest-bound window and those whose
    bound, with a relative slack of 1e-9, still reaches its norm.  An SVD of
    a subset of the stack gives the batched call's values bitwise, so the
    result is the same float as an SVD of every window; on a seeded_random
    schedule the screen usually leaves one window of a chunk to decompose.
    One buffer serves every chunk and carries the last gamma - 1 matrices of
    the one before (``_window_stacks``), so each W^k is built once per call
    and memory is O((SPECTRAL_CHUNK + gamma) m^2), not O(horizon m^2).

    Each chunk's new instants are built in one stacked call,
    ``metropolis_weights([edge_set(r), ...], m)``: one Metropolis pass, and
    every W^r in it is bitwise ``schedule.matrix(r)``.  The chunk is not
    taken from ``matrix``'s stacks (ROADMAP item 1b) because the benchmark's
    traced run (``agbench``) records calls to ``edge_set`` and this module's
    ``metropolis_weights``, fails a workload whose listed name records none,
    and on a seeded_random schedule this is their only caller.  Each
    ``edge_set`` reads its instant from its chunk (``GraphSchedule._chunk``):
    after ``resolve_gamma`` the chunks of instants 0..``HORIZON`` are kept
    already, and a walk past them draws each later chunk once.
    """
    ends, gamma = _window_ends(schedule, gamma, horizon)
    m = schedule.agent_count

    def fill(first, count):
        return metropolis_weights([schedule.edge_set(r) for r in range(first, first + count)], m)

    sig_g = 0.0
    for Ws in _window_stacks(ends, gamma, fill):
        count = len(Ws) - gamma + 1
        P = Ws[:count]  # for gamma = 1 the windows are the instants themselves
        for s in range(1, gamma):
            P = Ws[s:s + count] @ P
        sig_g = max(sig_g, sigma(P))
    return sig_g
