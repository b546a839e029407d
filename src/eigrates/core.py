"""Seeded random sample matrices, the covariance transform, and a symmetric eigensolver.

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

# Off-diagonal Frobenius tolerance (relative to ||W||_F) and sweep cap for
# the cyclic Jacobi eigensolver.
JACOBI_TOL_FACTOR = 1e-12
JACOBI_MAX_SWEEPS = 100


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
            return (rng.integers(0, 2, size=size) * 2 - 1).astype(np.float64)
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
    """Full eigendecomposition of W by cyclic Jacobi sweeps.

    Converged when the off-diagonal Frobenius norm falls below
    1e-12 * ||W||_F; raises ConvergenceError (with the residual) after
    100 sweeps otherwise. Eigenvalues come back ascending with matching
    eigenvector columns, so W = Q diag(lambda) Q^T.
    """
    vals, vecs, residual = jacobi_eigh(w.values)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, offdiag_residual=residual)


def _offdiag_norm(a: np.ndarray) -> float:
    # direct sum over off-diagonal entries; the subtraction form
    # sqrt(||A||^2 - ||diag||^2) floors at sqrt(eps)*||A|| and never converges
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigh(matrix: np.ndarray,
                tol_factor: float = JACOBI_TOL_FACTOR,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns, offdiag residual).
    """
    a = np.array(matrix, dtype=np.float64)
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != k:
        raise DimensionError(f"expected a square matrix, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise DomainError("jacobi_eigh needs a symmetric input")
    q = np.eye(k)
    if k == 1:
        return a[0].copy(), q, 0.0

    norm_f = float(np.linalg.norm(a))
    if norm_f == 0.0:
        return np.zeros(k), q, 0.0
    thresh = tol_factor * norm_f

    converged = False
    off = _offdiag_norm(a)
    for _ in range(max_sweeps):
        if off <= thresh:
            converged = True
            break
        for p in range(k - 1):
            for r in range(p + 1, k):
                apr = a[p, r]
                if apr == 0.0:
                    continue
                tau = (a[r, r] - a[p, p]) / (2.0 * apr)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)  # small-angle limit, tau*tau overflows
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                # A <- G^T A G and Q <- Q G for the (p, r) rotation.
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = cth * col_p - sth * col_r
                a[:, r] = sth * col_p + cth * col_r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = cth * row_p - sth * row_r
                a[r, :] = sth * row_p + cth * row_r
                a[p, r] = 0.0
                a[r, p] = 0.0
                q_p = q[:, p].copy()
                q_r = q[:, r].copy()
                q[:, p] = cth * q_p - sth * q_r
                q[:, r] = sth * q_p + cth * q_r
        off = _offdiag_norm(a)
    else:
        converged = off <= thresh
    if not converged:
        raise ConvergenceError(
            f"jacobi sweeps did not converge: residual {off:.3e} > {thresh:.3e}",
            offdiag_residual=off,
        )

    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], q[:, order], off


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
# per-instance objects and Jacobi sweeps would dominate the runtime.  These
# helpers keep the exact same sampling streams but operate on (m, k, n)
# stacks, and use closed forms (k <= 2) or LAPACK (k >= 3) for eigenvalues.
# Tests cross-check them against spectrum()/jacobi_eigh.

def sample_batch(dist: EntryDistribution, rng: np.random.Generator,
                 m: int, k: int, n: int) -> np.ndarray:
    """m independent k x n entry matrices as an (m, k, n) stack."""
    return dist.sample(rng, (m, k, n))


def covariance_batch(entries: np.ndarray) -> np.ndarray:
    """(m, k, k) stack of (1/n) C C^T for an (m, k, n) stack of C."""
    n = entries.shape[-1]
    w = np.einsum("mkn,mln->mkl", entries, entries) / n
    return (w + np.swapaxes(w, -1, -2)) / 2.0


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


# ---------------------------------------------------------------------------
# Plain-CSV serialization for experiment reproducibility
# ---------------------------------------------------------------------------

def save_sample_matrix(c: SampleMatrix, path) -> None:
    """Row-major CSV with a "k,n,seed,dist" provenance header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,n,seed,dist\n")
        fh.write(f"{c.k},{c.n},{c.seed},{c.dist.value}\n")
        for row in c.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_sample_matrix(path) -> SampleMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "k,n,seed,dist":
            raise DomainError(f"unexpected sample-matrix header {header!r}")
        k_s, n_s, seed_s, dist_s = fh.readline().strip().split(",")
        k, n, seed = int(k_s), int(n_s), int(seed_s)
        dist = EntryDistribution.parse(dist_s)
        rows = [
            np.array([float(v) for v in fh.readline().strip().split(",")])
            for _ in range(k)
        ]
    entries = np.vstack(rows)
    return SampleMatrix(dist=dist, k=k, n=n, entries=entries, seed=seed)
