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

# An eigenvalue counts as zero when it is at most ZERO_EIG_TOL * max(1, trace),
# the trace taken as the eigenvalue sum.  For +/-1 entries nW is an integer
# Gram matrix of trace kn: the product of its r nonzero eigenvalues is a
# positive integer and each is at most kn, so every nonzero eigenvalue of W
# is at least 1/(n (kn)^(r-1)), r <= min(k, n), while round-off leaves a
# zero within a few eps * k.  The threshold, about 1e-9 k, separates the two
# exactly when (kn)^min(k, n) < 1e9: every shape with k*n <= 24 (all exact
# enumerations), k = 2 up to n = 15811, k = 3 up to n = 333, k = 4 up to
# n = 44.  Past those shapes, and for the continuous laws, it is a
# tolerance, not a proof.
ZERO_EIG_TOL = 1e-9


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Sub-generator for (seed, index...) derived by seed-sequence hashing.

    Chunked trial loops draw chunk c from derive_rng(seed, c), so parallel
    and serial execution orders see identical streams.
    """
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

    @property
    def bound(self) -> float:
        """Essential supremum of |entry| (inf for the normal case)."""
        if self is EntryDistribution.RADEMACHER:
            return 1.0
        if self is EntryDistribution.UNIFORM_SYM:
            return SQRT3
        return math.inf

    def entry_mgf(self, u):
        """Scalar moment generating function E[exp(u * entry)], vectorized in u."""
        u = np.asarray(u, dtype=float)
        if self is EntryDistribution.RADEMACHER:
            return np.cosh(u)
        if self is EntryDistribution.UNIFORM_SYM:
            v = SQRT3 * u
            small = np.abs(v) < 1e-6
            safe = np.where(small, 1.0, v)
            out = np.where(small, 1.0 + v * v / 6.0, np.sinh(safe) / safe)
            return out
        return np.exp(u * u / 2.0)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self is EntryDistribution.RADEMACHER:
            return np.where(random_bits(rng, size), 1.0, -1.0)
        if self is EntryDistribution.UNIFORM_SYM:
            return rng.uniform(-SQRT3, SQRT3, size=size)
        return rng.standard_normal(size=size)

    @classmethod
    def parse(cls, name: str) -> "EntryDistribution":
        key = name.strip().lower()
        aliases = {
            "rademacher": cls.RADEMACHER,
            "pm1": cls.RADEMACHER,
            "uniform": cls.UNIFORM_SYM,
            "uniform_sym": cls.UNIFORM_SYM,
            "normal": cls.STD_NORMAL,
            "std_normal": cls.STD_NORMAL,
            "gaussian": cls.STD_NORMAL,
        }
        if key not in aliases:
            raise DomainError(f"unknown entry distribution {name!r}")
        return aliases[key]


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
        norm = float(np.linalg.norm(c))
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
        while True:
            g = rng.standard_normal(k)
            norm = float(np.linalg.norm(g))
            if norm > 1e-12:
                return cls(g / norm)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def sample_matrix(dist: EntryDistribution, k: int, n: int, seed: int) -> SampleMatrix:
    """Draw a k x n matrix of i.i.d. entries; bit-identical for equal arguments."""
    if k < 1 or n < 1:
        raise DimensionError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    rng = make_rng(seed)
    entries = dist.sample(rng, (k, n))
    return SampleMatrix(dist=dist, k=k, n=n, entries=entries, seed=seed)


def covariance(c: SampleMatrix) -> CovMatrix:
    """W = (1/n) C C^T, symmetrized to kill BLAS round-off asymmetry."""
    w = c.entries @ c.entries.T / c.n
    w = (w + w.T) / 2.0
    return CovMatrix(values=w, n=c.n)


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


def trace_stat(w: CovMatrix) -> float:
    """Trace of W; an always-valid upper bound for the largest eigenvalue."""
    return w.trace


def mp_edges(beta: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(beta))_+^2, (1 + sqrt(beta))^2) of the bulk law."""
    if beta < 0:
        raise DomainError(f"aspect ratio must be >= 0, got {beta}")
    root = math.sqrt(beta)
    lower = max(1.0 - root, 0.0) ** 2
    upper = (1.0 + root) ** 2
    return lower, upper


# ---------------------------------------------------------------------------
# Batched trial-loop helpers
# ---------------------------------------------------------------------------
# Monte Carlo experiments draw millions of small matrices; doing that through
# per-instance objects would dominate the runtime.  These helpers operate on
# stacks, keep the entry streams of +/-1 and uniform matrices, draw
# normal-entry W directly, and use closed forms (k <= 2) or LAPACK (k >= 3)
# for eigenvalues, without spectrum()'s eigenvectors or certificate.  Tests
# cross-check them against a Jacobi reference.

# Entries (or W entries) drawn at a time by gram_batch, which bounds its
# scratch memory.
GRAM_BLOCK_ENTRIES = 1 << 20

def sample_batch(dist: EntryDistribution, rng: np.random.Generator,
                 m: int, k: int, n: int) -> np.ndarray:
    """m independent k x n entry matrices as an (m, k, n) stack.

    For +/-1 and uniform entries, gram_batch gives bit for bit
    covariance_batch of this stack; for normal entries it draws W by the
    Bartlett decomposition instead, from another stream.
    """
    return dist.sample(rng, (m, k, n))


def covariance_batch(entries: np.ndarray) -> np.ndarray:
    """(m, k, k) stack of (1/n) C C^T for an (m, k, n) stack of C."""
    n = entries.shape[-1]
    w = np.einsum("mkn,mln->mkl", entries, entries) / n
    return (w + np.swapaxes(w, -1, -2)) / 2.0


def gram_batch(dist: EntryDistribution, rng: np.random.Generator,
               m: int, k: int, n: int) -> np.ndarray:
    """(m, k, k) stack of W = (1/n) C C^T for m fresh k x n entry matrices.

    For +/-1 and uniform entries, bit for bit
    covariance_batch(sample_batch(dist, rng, m, k, n)), leaving rng in the
    same state, but drawn GRAM_BLOCK_ENTRIES entries at a time.  For +/-1
    entries no float C is built: see _sign_gram.  Normal-entry W has the
    same law but is drawn by the Bartlett decomposition: see _wishart_gram.
    """
    if dist is EntryDistribution.STD_NORMAL:
        return _wishart_gram(rng, m, k, n)
    w = np.empty((m, k, k))
    # k*n entries and k*k products per trial: size the block by the larger
    step = max(1, GRAM_BLOCK_ENTRIES // (k * max(n, k)))
    for start in range(0, m, step):
        size = min(step, m - start)
        if dist is EntryDistribution.RADEMACHER:
            w[start:start + size] = _sign_gram(rng, size, k, n)
        else:
            w[start:start + size] = covariance_batch(sample_batch(dist, rng, size, k, n))
    return w


def _wishart_gram(rng: np.random.Generator, m: int, k: int, n: int) -> np.ndarray:
    """W = (1/n) L L^T for m normal-entry k x n matrices, by the Bartlett
    decomposition (Muirhead, Aspects of Multivariate Statistical Theory,
    1982, Sec. 3.2).  nW is real Wishart W_k(n, I), and so is L L^T for the
    lower trapezoidal k x r matrix L, r = min(k, n), with (0-based)
    L_ii = sqrt(chi2(n - i)) for i < r, L_ij standard normal for j < i and
    j < r, and zeros elsewhere.  The rows from index r on are full normal
    rows, so W has rank r, as C C^T / n has.  A trial costs r chi-square
    and r (2k - r - 1)/2 normal draws instead of kn.

    The stream: all m x r chi-squares first, then each trial's strictly
    lower entries in row-major order, GRAM_BLOCK_ENTRIES // k^2 trials at
    a time.  Consecutive normal draws continue one stream, so W does not
    depend on the block size.
    """
    r = min(k, n)
    diagonal = np.sqrt(rng.chisquare(n - np.arange(r), size=(m, r)))
    rows, cols = np.tril_indices(k, -1, r)
    w = np.empty((m, k, k))
    step = max(1, GRAM_BLOCK_ENTRIES // (k * k))
    for start in range(0, m, step):
        size = min(step, m - start)
        lower = np.zeros((size, k, r))
        lower[:, np.arange(r), np.arange(r)] = diagonal[start:start + size]
        lower[:, rows, cols] = rng.standard_normal((size, rows.size))
        # matmul of contiguous operands is several times faster than einsum here
        block = lower @ np.ascontiguousarray(np.swapaxes(lower, -1, -2)) / n
        w[start:start + size] = (block + np.swapaxes(block, -1, -2)) / 2.0
    return w


def _sign_gram(rng: np.random.Generator, m: int, k: int, n: int) -> np.ndarray:
    """W for m +/-1 matrices from the bits EntryDistribution.sample draws.

    The bits (1 is the entry +1) go into rows zero-padded to whole words
    of 1, 2, 4 or 8 bytes (the smallest that holds a row, else 8), and one
    flat packbits turns row i into the words b_i.  n W_ij = n - 2d with
    d = popcount(b_i XOR b_j) is an integer, so W = (nW)/n is the
    correctly rounded quotient that the exact float sums of
    covariance_batch give too.
    """
    row_bytes = -(-n // 8)
    word = min(8, 1 << (row_bytes - 1).bit_length())  # bytes
    width = -(-row_bytes // word) * word * 8  # padded bits per row
    bits = np.zeros((m, k, width), dtype=bool)
    bits[..., :n] = random_bits(rng, (m, k, n))
    words = np.packbits(bits, bitorder="little").view(f"u{word}").reshape(m, k, -1)
    # trials last, so each XOR and popcount runs along all m trials at once
    words = np.ascontiguousarray(words.transpose(1, 2, 0))
    differ = np.bitwise_count(words[:, None] ^ words[None, :]).sum(axis=2, dtype=np.intp)
    # the n + 1 possible quotients (n - 2d)/n, looked up by d
    return ((n - 2 * np.arange(n + 1)) / n)[differ.transpose(2, 0, 1)]


def _sign_gram_classes(w: np.ndarray, n: int, extra: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of an (m, k, k) stack of +/-1 W,
    each row keyed with its row of the optional (m, c) integer columns extra:
    w[first] holds each distinct row once, at its first index, and
    w[first][inverse] is w again (so is extra[first][inverse]).

    The key is exact, with no hashing: the strict upper triangle as
    integer distances (n - nW_ij)/2 in 0..n, bit_length(n) bits each,
    packed into int64 words, then the extra columns, sorted row by row.
    The diagonal is 1.  The key needs at least one column (k >= 2 or extra).
    """
    m, k = w.shape[0], w.shape[-1]
    upper = k * (k - 1) // 2
    bits = int(n).bit_length()
    per_word = max(1, min(upper, 63 // bits))
    n_words = -(-upper // per_word)
    distance = np.zeros((m, n_words * per_word), dtype=np.int64)
    rows, cols = np.triu_indices(k, 1)
    distance[:, :upper] = np.rint((1.0 - w[:, rows, cols]) * (n / 2))
    words = (distance.reshape(m, n_words, per_word) << bits * np.arange(per_word)).sum(axis=-1)
    if extra is not None:
        words = np.concatenate([words, extra], axis=1)
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


def bottom_eigenvalues_vanish(lam: np.ndarray, l: int) -> np.ndarray:
    """Per row of an (m, k) stack of ascending eigenvalues: are the bottom l
    at most ZERO_EIG_TOL * max(1, sum(lam))?"""
    scale = np.maximum(1.0, np.sum(lam, axis=1))
    return lam[:, l - 1] <= ZERO_EIG_TOL * scale
