"""Seeded random sample matrices, the covariance transform, and certified eigenvalues.

Everything here is a pure function of its inputs: matrices are built from an
explicit 64-bit seed through a counter-based generator (numpy's Philox), so
identical arguments give bit-identical results, and constructed objects are
read-only and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError

SQRT3 = math.sqrt(3.0)

# Off-diagonal Frobenius tolerance (relative to ||W||_F) of the certificate
# that spectrum() checks.
JACOBI_TOL_FACTOR = 1e-12


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Sub-generator for (seed, index...) derived by seed-sequence hashing.

    Chunked trial loops draw chunk c from derive_rng(seed, c), so parallel
    and serial execution orders see identical streams.  Every seeded draw
    passes here, the one gate that refuses a negative seed (DomainError).
    """
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
    )


def _chunks(seed: int, trials: int, chunk: int):
    """(generator, size) for each chunk of `trials`; chunk c draws from
    derive_rng(seed, c), so the stream depends on the chunk size."""
    for index, start in enumerate(range(0, trials, chunk)):
        yield derive_rng(seed, index), min(chunk, trials - start)


def random_bits(rng: np.random.Generator, size) -> np.ndarray:
    """Generator.integers(0, 2, size) as booleans, read from raw Philox words.

    numpy draws each of these bits as the top bit of a 32-bit half of a
    64-bit word, low half first (Lemire's bounded draw for a range of 2),
    and buffers an unused high half for the next 32-bit draw.  This reads
    the same bits from random_raw and leaves the generator as integers
    would: a buffered half (has_uint32) goes first, an odd remainder
    buffers the last word's high half, and uinteger holds that half even
    when it was used.
    """
    out = np.empty(size, dtype=bool)
    flat = out.reshape(-1)
    if flat.size == 0:
        return out
    bitgen = rng.bit_generator
    state = bitgen.state
    buffered = state["has_uint32"]
    if buffered:
        flat[0] = state["uinteger"] >> 31
    rest = flat.size - buffered
    if rest:
        raw = bitgen.random_raw(-(-rest // 2))
        # little-endian 32-bit halves, low half first; the top bit is the sign
        np.less(raw.astype("<u8", copy=False).view("<i4")[:rest], 0, out=flat[buffered:])
        state = bitgen.state
        state["uinteger"] = int(raw[-1] >> 32)
    state["has_uint32"] = rest % 2
    bitgen.state = state
    return out


# ---------------------------------------------------------------------------
# Entry distributions
# ---------------------------------------------------------------------------

class EntryDistribution(enum.Enum):
    """Law of a single matrix entry: mean 0, variance 1 for every member."""

    RADEMACHER = "rademacher"
    UNIFORM_SYM = "uniform"
    STD_NORMAL = "normal"

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self is EntryDistribution.RADEMACHER:
            return np.where(random_bits(rng, size), 1.0, -1.0)
        if self is EntryDistribution.UNIFORM_SYM:
            return rng.uniform(-SQRT3, SQRT3, size=size)
        return rng.standard_normal(size=size)

    @classmethod
    def parse(cls, name: str) -> "EntryDistribution":
        """The law whose value is `name`, exactly; DomainError otherwise."""
        try:
            return cls(name)
        except ValueError:
            raise DomainError(f"unknown entry distribution {name!r}") from None


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampleMatrix:
    """A k x n matrix of i.i.d. entries together with its provenance."""

    dist: EntryDistribution
    k: int
    n: int
    entries: np.ndarray
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise DimensionError(f"need k >= 1 and n >= 1, got k={self.k}, n={self.n}")
        if self.entries.shape != (self.k, self.n):
            raise DimensionError(
                f"entries shape {self.entries.shape} != ({self.k}, {self.n})"
            )
        if self.dist is EntryDistribution.RADEMACHER and not np.all(np.abs(self.entries) == 1.0):
            raise DomainError("every +/-1 entry must be exactly +1 or -1")
        if self.dist is EntryDistribution.UNIFORM_SYM and np.any(np.abs(self.entries) > SQRT3):
            raise DomainError("uniform entries must lie in [-sqrt(3), sqrt(3)]")
        object.__setattr__(self, "entries", _readonly(self.entries))


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric PSD matrix W = (1/n) C C^T with its normalizing count n."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"covariance matrix must be square, got {v.shape}")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        """Trace of W; an upper bound for the largest eigenvalue."""
        return float(np.trace(self.values))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a CovMatrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    offdiag_residual: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class UnitVector:
    """A direction on the unit sphere; the 2-norm must be 1 within 1e-12."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise DimensionError("unit vector needs a 1-d, nonempty coordinate array")
        norm = math.sqrt(c.dot(c))  # np.linalg.norm's arithmetic on a 1-d array
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"not a unit vector: ||x||_2 = {norm!r}")
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def k(self) -> int:
        return self.coords.size

    @classmethod
    def of(cls, coords) -> "UnitVector":
        """Normalize an arbitrary nonzero vector onto the sphere."""
        c = np.asarray(coords, dtype=np.float64)
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return cls(c / norm)

    @classmethod
    def uniform(cls, k: int) -> "UnitVector":
        """(1, ..., 1)/sqrt(k): every coordinate contributes equally."""
        return cls(np.full(k, 1.0 / math.sqrt(k)))

    @classmethod
    def two_sparse(cls, k: int) -> "UnitVector":
        """(1, 1, 0, ..., 0)/sqrt(2): the two-coordinate strategy."""
        if k < 2:
            raise DimensionError("two-sparse direction needs k >= 2")
        c = np.zeros(k)
        c[0] = c[1] = 1.0 / math.sqrt(2.0)
        return cls(c)

    @classmethod
    def random(cls, k: int, rng: np.random.Generator) -> "UnitVector":
        return cls.of(rng.standard_normal(k))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def sample_matrix(dist: EntryDistribution, k: int, n: int, seed: int) -> SampleMatrix:
    """Draw a k x n matrix of i.i.d. entries; bit-identical for equal arguments."""
    if k < 1 or n < 1:
        raise DimensionError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    rng = derive_rng(seed)
    entries = dist.sample(rng, (k, n))
    return SampleMatrix(dist=dist, k=k, n=n, entries=entries, seed=seed)


def covariance(c: SampleMatrix) -> CovMatrix:
    """W = (1/n) C C^T, exactly symmetric as built: numpy computes C C^T by
    one BLAS syrk call and copies its triangle to the other."""
    return CovMatrix(values=c.entries @ c.entries.T / c.n, n=c.n)


def spectrum(w: CovMatrix) -> Spectrum:
    """Full eigendecomposition of W by LAPACK, with a certificate.

    The certificate is the off-diagonal Frobenius norm of Q^T W Q; above
    1e-12 * ||W||_F it raises ConvergenceError (with the residual).  LAPACK
    reads one triangle only, so asymmetric or non-finite W raises
    DomainError here.  Eigenvalues come back ascending with matching
    eigenvector columns, so W = Q diag(lambda) Q^T.
    """
    a = w.values
    if not (np.all(np.isfinite(a)) and np.all(np.abs(a - a.T) <= 1e-12)):
        raise DomainError("spectrum needs a finite symmetric matrix")
    vals, vecs = np.linalg.eigh(a)
    residual = _offdiag_norm(vecs.T @ a @ vecs)
    thresh = JACOBI_TOL_FACTOR * float(np.linalg.norm(a))
    if residual > thresh:
        raise ConvergenceError(
            f"eigendecomposition certificate failed: residual {residual:.3e} > {thresh:.3e}",
            offdiag_residual=residual,
        )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, offdiag_residual=residual)


def _offdiag_norm(a: np.ndarray) -> float:
    # direct sum over off-diagonal entries; the subtraction form
    # sqrt(||A||^2 - ||diag||^2) floors at sqrt(eps)*||A|| and never converges
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def quadratic_form(c: SampleMatrix, x: UnitVector) -> float:
    """(1/n) sum_i (sum_m x_m C_mi)^2, which equals <x, W x>."""
    if x.k != c.k:
        raise DimensionError(f"direction has {x.k} coordinates, matrix has k={c.k}")
    s = x.coords @ c.entries
    return float(np.dot(s, s) / c.n)


def mp_edges(beta: float) -> tuple[float, float]:
    """Edges ((1 - sqrt(beta))^2, (1 + sqrt(beta))^2) of the continuous part of
    the bulk law at beta = k/n, which holds the min(k, n) nonzero eigenvalues."""
    if beta < 0:
        raise DomainError(f"aspect ratio must be >= 0, got {beta}")
    root = math.sqrt(beta)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


# ---------------------------------------------------------------------------
# Batched trial-loop helpers
# ---------------------------------------------------------------------------
# Monte Carlo experiments draw millions of small matrices; doing that through
# per-instance objects would dominate the runtime.  These helpers operate on
# stacks, keep the entry streams of +/-1 and uniform matrices, draw
# normal-entry W directly, and use closed forms (k <= 2) or LAPACK (k >= 3)
# for eigenvalues, without spectrum()'s eigenvectors or certificate.  Tests
# cross-check them against a Jacobi reference.

# Entries (of C, W or scratch) in one _row_blocks block, which bounds the W
# and the scratch memory that a trial loop holds at a time.
GRAM_BLOCK_ENTRIES = 1 << 20


def _row_blocks(m: int, row_entries: int):
    """Consecutive slices of range(m), of GRAM_BLOCK_ENTRIES // row_entries
    rows each (at least 1), the last shorter: the one block rule of every
    trial loop, for rows of row_entries entries of W or scratch each (a
    row of none counts as one)."""
    step = max(1, GRAM_BLOCK_ENTRIES // max(1, row_entries))
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def covariance_batch(entries: np.ndarray) -> np.ndarray:
    """(m, k, k) stack of (1/n) C C^T for an (m, k, n) stack of C, exactly
    symmetric as built: einsum sums the same products in the same order
    for W_kl and W_lk."""
    return np.einsum("mkn,mln->mkl", entries, entries) / entries.shape[-1]


def gram_blocks(dist: EntryDistribution, rng: np.random.Generator,
                m: int, k: int, n: int):
    """W = (1/n) C C^T for m fresh k x n entry matrices, as (rows, k, k)
    blocks of _row_blocks(m, k max(n, k)) trials (k*n entries and k*k
    products per trial) or, for normal entries, _row_blocks(m, k^2).

    For +/-1 and uniform entries the joined blocks are bit for bit
    covariance_batch(dist.sample(rng, (m, k, n))), and once exhausted the
    generator leaves rng in the same state; for +/-1 entries no float C is
    built: each block is _sign_gram of _sign_distances.  Normal-entry W has
    the same law but is drawn by the Bartlett decomposition, from another
    stream: see _wishart_gram.
    """
    if dist is EntryDistribution.STD_NORMAL:
        yield from _wishart_gram(rng, m, k, n)
        return
    for block in _row_blocks(m, k * max(n, k)):
        size = block.stop - block.start
        if dist is EntryDistribution.RADEMACHER:
            yield _sign_gram(_sign_distances(rng, size, k, n), k, n)
        else:
            yield covariance_batch(dist.sample(rng, (size, k, n)))


def _wishart_gram(rng: np.random.Generator, m: int, k: int, n: int):
    """W = (1/n) L L^T for m normal-entry k x n matrices, by the Bartlett
    decomposition (Muirhead, Aspects of Multivariate Statistical Theory,
    1982, Sec. 3.2), yielded in blocks of _row_blocks(m, k^2) trials.
    nW is real Wishart W_k(n, I), and so is L L^T for the lower
    trapezoidal k x r matrix L, r = min(k, n), with (0-based)
    L_ii = sqrt(chi2(n - i)) for i < r, L_ij standard normal for j < i and
    j < r, and zeros elsewhere.  The rows from index r on are full normal
    rows, so W has rank r, as C C^T / n has.  A trial costs r chi-square
    and r (2k - r - 1)/2 normal draws instead of kn.

    The stream: all m x r chi-squares first, then each trial's strictly
    lower entries in row-major order, one block at a time.  Consecutive
    normal draws continue one stream, so W does not depend on the block
    size.
    """
    r = min(k, n)
    diagonal = rng.chisquare(n - np.arange(r), size=(m, r))
    np.sqrt(diagonal, out=diagonal)
    rows, cols = np.tril_indices(k, -1, r)
    for block in _row_blocks(m, k * k):
        size = block.stop - block.start
        lower = np.zeros((size, k, r))
        lower[:, np.arange(r), np.arange(r)] = diagonal[block]
        lower[:, rows, cols] = rng.standard_normal((size, rows.size))
        # matmul of contiguous operands is several times faster than einsum
        # here, but this gemm is not always exactly symmetric: average it,
        # in place, so that only the block itself is held across the yield
        block = lower @ np.ascontiguousarray(np.swapaxes(lower, -1, -2))
        del lower
        block /= n
        block += np.swapaxes(block, -1, -2)
        block /= 2.0
        yield block


def _sign_distances(rng: np.random.Generator, m: int, k: int, n: int) -> np.ndarray:
    """Distances d_ij = popcount(b_i XOR b_j), i < j, of m +/-1 matrices from
    the bits EntryDistribution.sample draws, as an (m, k(k-1)/2) array in
    np.triu_indices(k, 1) order, of the smallest unsigned type that holds
    n (uint8 up to n = 255, uint16 up to 65,535).  Row i and row j of C
    differ in d_ij entries, so n W_ij = n - 2 d_ij.

    The bits are drawn in gram_blocks' blocks of trials (k max(n, k)
    entries a trial), which bounds the scratch.  They (1 is the entry +1) go into rows zero-padded to whole
    words of 1, 2, 4 or 8 bytes (the smallest that holds a row, else 8),
    one flat packbits turns row i into the words b_i, and only the
    k(k-1)/2 pairs i < j are XORed.
    """
    row_bytes = -(-n // 8)
    word = min(8, 1 << (row_bytes - 1).bit_length())  # bytes
    width = -(-row_bytes // word) * word * 8  # padded bits per row
    rows, cols = np.triu_indices(k, 1)
    distances = np.empty((m, rows.size), dtype=np.min_scalar_type(n))
    for block in _row_blocks(m, k * max(n, k)):
        size = block.stop - block.start
        bits = np.zeros((size, k, width), dtype=bool)
        bits[..., :n] = random_bits(rng, (size, k, n))
        words = np.packbits(bits, bitorder="little").view(f"u{word}").reshape(size, k, -1)
        # trials last, so each XOR and popcount runs along all trials at once
        words = np.ascontiguousarray(words.transpose(1, 2, 0))
        differ = np.bitwise_count(words[rows] ^ words[cols])
        distances[block] = differ.sum(axis=1, dtype=distances.dtype).T
    return distances


def _sign_gram(distances: np.ndarray, k: int, n: int) -> np.ndarray:
    """W of each row of an (m, k(k-1)/2) block of _sign_distances, as an
    (m, k, k) stack with trials last in memory, the layout whose einsum
    round-off sdpic's finite-stage decode keeps.

    n W_ij = n - 2 d_ij is an integer, so W = (nW)/n is the correctly
    rounded quotient that the exact float sums of covariance_batch give
    too.  The diagonal is 1 (distance 0).
    """
    m, upper = distances.shape
    rows, cols = np.triu_indices(k, 1)
    pair = np.full((k, k), upper)  # the diagonal reads the zero row
    pair[rows, cols] = pair[cols, rows] = np.arange(upper)
    padded = np.zeros((upper + 1, m), dtype=distances.dtype)
    padded[:upper] = distances.T
    # the n + 1 possible quotients (n - 2d)/n, looked up by d
    return ((n - 2 * np.arange(n + 1)) / n)[padded[pair].transpose(2, 0, 1)]


def _sign_gram_classes(distances: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of an (m, k(k-1)/2) block of
    +/-1 distances in 0..n (from _sign_distances, or sdpic's sign-flipped
    ones): distances[first] holds each distinct row once, at its first
    index, and distances[first][inverse] is distances again.  Equal
    distances are equal W.

    The key is exact, with no hashing: the distances, bit_length(n) bits
    each, packed into 16-bit words (one all-zero word at k = 1, where every
    W is [[1]]; wider ones if n needs more bits), sorted row by row.  numpy
    sorts 16-bit keys stably by radix, several times faster than 64-bit
    ones.
    """
    m, upper = distances.shape
    bits = int(n).bit_length()
    word = np.promote_types(distances.dtype, np.uint16)
    per_word = max(1, min(upper, 8 * word.itemsize // bits))
    words = np.zeros((m, max(1, -(-upper // per_word))), dtype=word)
    for j in range(min(upper, per_word)):
        # columns j, j + per_word, ... are digit j of words 0, 1, ...
        digit = distances[:, j::per_word]
        words[:, :digit.shape[1]] |= digit.astype(word) << bits * j
    order = np.lexsort(words.T)
    key = words[order]
    new = np.ones(m, dtype=bool)
    new[1:] = np.any(key[1:] != key[:-1], axis=1)
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def eigvalues_batch(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an (m, k, k) stack of symmetric matrices."""
    k = w.shape[-1]
    if k == 1:
        return w[..., 0, 0:1].copy()
    if k == 2:
        a = w[..., 0, 0]
        b = w[..., 1, 1]
        c = w[..., 0, 1]
        mid = (a + b) / 2.0
        radius = np.sqrt(((a - b) / 2.0) ** 2 + c * c)
        return np.stack([mid - radius, mid + radius], axis=-1)
    return np.linalg.eigvalsh(w)


# Floats of scratch per cholesky_completes block (2 MiB), trials last.
CHOLESKY_BLOCK_ENTRIES = 1 << 18


def cholesky_completes(w: np.ndarray, shift: float, sign: float) -> np.ndarray:
    """Per matrix of an (m, k, k) stack of symmetric w: does Cholesky of
    A = sign * (w - shift I) run to the end with positive pivots?

    sign is 1 or -1.  By Sylvester's law of inertia, A is positive
    definite iff every pivot is positive, so with sign -1 a True says
    lambda_max(w) < shift and with sign 1 it says lambda_min(w) > shift,
    up to the factorization's backward error (the caller guards the
    shift).  Only the lower triangle is read.  The factorization is
    left-looking, with the trials of a block of CHOLESKY_BLOCK_ENTRIES
    floats along the last axis, so each step is one vector operation over
    the block; a block stops once every matrix in it has failed.  A failed
    matrix's later columns are zeroed (its pivot is read as inf), so they
    neither overflow nor warn.
    """
    m, k = w.shape[0], w.shape[-1]
    completes = np.zeros(m, dtype=bool)
    step = max(1, CHOLESKY_BLOCK_ENTRIES // (k * k))
    diagonal = np.arange(k)
    rows, cols = np.tril_indices(k)
    for start in range(0, m, step):
        stop = min(start + step, m)
        # gathering the lower triangle first makes the transposing copy cheaper
        lower = w[start:stop].reshape(stop - start, k * k)[:, rows * k + cols]
        lower *= sign
        a = np.empty((k, k, stop - start))
        a[rows, cols] = lower.T
        a[diagonal, diagonal] -= sign * shift
        ok = np.ones(stop - start, dtype=bool)
        for j in range(k):
            if j:
                a[j:, j] -= np.einsum("ipb,pb->ib", a[j:, :j], a[j, :j])
            ok &= a[j, j] > 0
            if j == k - 1 or not ok.any():
                break
            a[j + 1:, j] /= np.sqrt(np.where(ok, a[j, j], np.inf))
        completes[start:stop] = ok
    return completes

