"""Eigenvalue machinery for unitary matrices and the verification checks.

Unitary matrices are normal, so their eigenproblem is solved here through
the Hermitian splitting A = H + iS with H = (A + A*)/2 and S = (A - A*)/2i:
a Hermitian eigensolve of H fixes the real parts and an eigenbasis; within
each cluster of (nearly) equal real parts, the restriction of S is
diagonalized to separate the imaginary parts.  This keeps every reported
eigenvalue a Rayleigh quotient of an orthonormal vector, which is both
faster and better conditioned than a general nonsymmetric solve, and makes
eigenvector witnesses available at no extra cost.  Only spectra with few
distinct values go to nonsymmetric QR, which deflates their clusters faster.

Raw eigenvalues are grouped into multiplicity classes by single-linkage
clustering on the unit circle, and finite spectra are compared as point
sets in the complex plane by Hausdorff distance, which is insensitive to
multiplicity bookkeeping.

The three verification entry points check, on concrete instances, that the
walk's spectrum equals the union of the per-vertex signed coin-sum spectra
(as a set, with the multiset refinement reported separately), that the same
equality holds along the approximate-eigenvalue route with explicit
residual witnesses, and that the spectrum does not move when the magnetic
potential does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._linalg import as_complex, max_abs, require_unitary
from .coin import (
    DEFAULT_COIN_TOL,
    CoinSystem,
    algebraic_sum,
    validate_coin_system,
)
from .fock import dimension
from .magnetic import (
    MagneticPotential,
    magnetic_basis_vector,
    null_potential,
    random_potential,
)
from .walk import CapacityError, evolution_operator

__all__ = [
    "SpectrumReport",
    "PointSpectrumCheck",
    "ApproximateSpectrumCheck",
    "SpectralStabilityReport",
    "EigensolverError",
    "DEFAULT_SPECTRUM_TOL",
    "unitary_eigenvalues",
    "walk_point_spectrum",
    "coin_sum_eigensystem",
    "coin_union_spectrum",
    "hausdorff_distance",
    "verify_point_spectrum_theorem",
    "verify_approximate_spectrum_theorem",
    "verify_spectral_stability",
]

DEFAULT_SPECTRUM_TOL = 1e-8

# Above this side an ndarray skips the explicit unitarity pre-check (O(N^3)
# products); non-unitary input is then rejected by the Krylov probe's norm
# checks and the eigen-residual and unit-circle gates.  A sparse matrix
# takes the pre-check, two sparse products, at every side.
_UNITARITY_PRECHECK_LIMIT = 2048

# Krylov probe that picks the eigenvalue route above _SATURATION_STEPS: a
# spectrum with at most ~_SATURATION_STEPS distinct values closes the Krylov
# space of a random start vector, and goes to LAPACK's nonsymmetric QR
# (zgeev), which deflates its large clusters faster than the split path.
# At or below that side every Krylov space closes, so the probe is not run.
_SATURATION_STEPS = 64
_SATURATION_TOL = 1e-8

# Side x side complex arrays held by the dense step on either route: H, then
# the eigenvectors and their images, on the split path; the dense A and
# LAPACK's copy of it on the QR route.
_DENSE_ARRAYS = 2

# Consecutive real-part gap below which eigh output is treated as one
# cluster.  Generous merging is safe (the skew restriction re-separates the
# members); splitting too finely risks mixing nearly degenerate vectors.
_COS_CLUSTER_GAP = 1e-6

# Columns whose eigen-residual is already below this are accepted without
# rotation; residual-sized eigenvalue errors at this scale are
# absorbed by the downstream clustering tolerance.  Callers that gate the
# residual pass a threshold kept below their gate (``_pure_column_tol``).
_PURE_COLUMN_TOL = 1e-9

# Columns per block of the images, Rayleigh quotients and defects formed
# after the Hermitian eigensolve: the temporaries are side x block, not
# side x side.
_RESIDUAL_BLOCK = 64

# A cluster representative with negative real part and an imaginary part at
# most this large is put exactly on the negative real axis (imaginary part
# +0.0), so -1 reports arg +pi and sorts last whatever the sign of its
# round-off (about 1e-17), far below every 1e-8 gate.
_SEAM_IM_TOL = 1e-14


class EigensolverError(RuntimeError):
    """The eigensolver missed its eigen-residual or unit-circle gate on
    input proven unitary.

    Raised instead of ``ValueError`` once the explicit unitarity pre-check
    has passed, so a numerical failure is never reported as invalid input.
    """


def _pure_column_tol(gate: float) -> float:
    """Pure-column threshold kept an order of magnitude below ``gate``."""
    return min(_PURE_COLUMN_TOL, gate / 10)


def _eig_unitary(
    a, pure_tol: float = _PURE_COLUMN_TOL
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, orthonormal eigenvectors, and max residual ||Av - lv||.

    ``a`` is a complex ndarray or a scipy sparse matrix; only its Hermitian
    part is made dense for the eigensolve (LAPACK's MRRR driver, evr), and
    the images ``a @ vecs`` are sparse products when ``a`` is sparse.

    The Hermitian part is built once in Fortran order and overwritten by
    the eigensolve.  The Rayleigh quotients and defects, and the sparse
    images, are then formed in blocks of ``_RESIDUAL_BLOCK`` columns, so
    the working set is two side x side arrays: H, then the eigenvectors and
    their images.

    After the Hermitian eigensolve, each column's Rayleigh quotient and
    defect norm cost O(N^2) in total; columns whose defect is at most
    ``pure_tol`` (the common case, including every truly degenerate
    eigenspace) are kept as is.  Flagged columns are rotated in two
    passes.  First, cluster by cluster, by the skew part: within one
    real-part cluster the flagged columns span the orthogonal complement of
    the accepted ones inside an invariant subspace, which is itself
    invariant, so restricting the rotation to them is exact.  Second, any
    columns still flagged, which eigh mixed across real parts that are
    close but outside one cluster (its eigenvector error scales like
    eps / gap), are rotated together by a Schur form of the compression of
    ``a`` to their span, again the complement of accepted eigenvectors.

    The defect Av - lv is formed directly and its norm taken.  The
    subtractive form ||Av||^2 - |<v, Av>|^2 takes the difference of two
    numbers close to 1, so it cancels to round-off of order N eps, whose
    square root (1.5e-8 already for the 2x2 Hadamard) sits above the
    default 1e-8 gate.
    """
    size = a.shape[0]
    sparse = sp.issparse(a)
    # H in Fortran order, so eigh works in this one buffer instead of
    # copying it
    if sparse:
        herm = (a + a.conj().T).toarray(order="F")
    else:
        herm = np.conjugate(a.T, order="F")
        np.add(herm, a, out=herm)
    herm /= 2
    w, vecs = sla.eigh(herm, driver="evr", check_finite=False, overwrite_a=True)
    del herm
    images = np.empty((size, size), dtype=complex)
    if not sparse:
        # a dense product writes straight into images without a copy; cut
        # into blocks, its narrowest blocks would round unlike the whole
        np.matmul(a, vecs, out=images)
    lam = np.empty(size, dtype=complex)
    defect = np.empty(size)
    for lo in range(0, size, _RESIDUAL_BLOCK):
        cols = slice(lo, lo + _RESIDUAL_BLOCK)
        v = vecs[:, cols]
        if sparse:  # the sparse product copies its dense operand to C order
            images[:, cols] = a @ v
        y = images[:, cols]
        lam[cols] = np.einsum("ij,ij->j", v.conj(), y)
        defect[cols] = np.linalg.norm(y - v * lam[cols][None, :], axis=0)

    def rotate(cols: np.ndarray, block: np.ndarray, rot: np.ndarray) -> None:
        sub_v = vecs[:, cols] @ rot
        sub_y = images[:, cols] @ rot
        vecs[:, cols] = sub_v
        images[:, cols] = sub_y
        lam[cols] = np.einsum("ji,ji->i", rot.conj(), block @ rot)
        defect[cols] = np.linalg.norm(sub_y - sub_v * lam[cols][None, :], axis=0)

    flagged = defect > pure_tol
    if flagged.any():
        splits = np.nonzero(np.diff(w) > _COS_CLUSTER_GAP)[0] + 1
        bounds = np.concatenate(([0], splits, [size]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            bad = lo + np.nonzero(flagged[lo:hi])[0]
            if bad.size < 2:
                continue
            block = vecs[:, bad].conj().T @ images[:, bad]
            _, rot = np.linalg.eigh((block - block.conj().T) / 2j)
            rotate(bad, block, rot)
    bad = np.nonzero(defect > pure_tol)[0]
    if bad.size > 1:
        block = vecs[:, bad].conj().T @ images[:, bad]
        _, rot = sla.schur(block, output="complex")
        rotate(bad, block, rot)
    residual = float(defect.max()) if size else 0.0
    return lam, vecs, residual


def _krylov_saturation(a, max_steps: int) -> tuple[bool, float]:
    """Probe whether a random-start Krylov space of ``a`` closes early.

    Returns (saturated, norm_defect).  Saturation within ``max_steps``
    means the minimal polynomial relative to the start vector has small
    degree, i.e. the spectrum has few distinct values.  ``norm_defect`` is
    the largest deviation of ||A q|| from 1 over the orthonormal Krylov
    vectors, a free unitarity probe.  The start vector is drawn from a
    fixed seed so results are reproducible.  ``a`` is a complex ndarray or
    a scipy sparse matrix; only its products with vectors are used.
    """
    size = a.shape[0]
    if size == 0:  # the empty space is closed, and has no vector to norm
        return True, 0.0
    rng = np.random.default_rng(0x5EED)
    q = rng.normal(size=size) + 1j * rng.normal(size=size)
    q /= np.linalg.norm(q)
    basis = np.empty((size, max_steps + 1), dtype=complex)
    basis[:, 0] = q
    norm_defect = 0.0
    for step in range(1, max_steps + 1):
        y = a @ q
        # np.maximum, unlike max, keeps a NaN norm
        norm_defect = float(np.maximum(norm_defect, abs(np.linalg.norm(y) - 1.0)))
        held = basis[:, :step]
        for _ in range(2):  # double reorthogonalization
            y -= held @ (held.conj().T @ y)
        beta = float(np.linalg.norm(y))
        if beta <= _SATURATION_TOL:
            return True, norm_defect
        q = y / beta
        basis[:, step] = q
    return False, norm_defect


def _available_memory() -> float:
    """MemAvailable of /proc/meminfo in bytes; infinite where it is not read."""
    try:
        with open("/proc/meminfo") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError):
        return float("inf")


def _cluster_unit_circle(
    values: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clustering of near-unit-circle values.

    Values are sorted by principal argument and grouped where consecutive
    neighbors (including across the -pi/pi seam) are within ``tol``; each
    group is reported as its normalized mean with the group size as
    multiplicity, sorted by argument.  A mean on the negative real axis up
    to round-off gets an imaginary part of +0.0, so it sorts last.
    """
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        return values, np.zeros(0, dtype=int)
    order = np.argsort(np.angle(values), kind="stable")
    ring = values[order]
    breaks = np.nonzero(np.abs(np.diff(ring)) > tol)[0] + 1
    groups = np.split(np.arange(ring.size), breaks)
    if len(groups) > 1 and abs(ring[0] - ring[-1]) <= tol:
        groups[0] = np.concatenate((groups[-1], groups[0]))
        groups.pop()
    reps = np.empty(len(groups), dtype=complex)
    mults = np.empty(len(groups), dtype=int)
    for i, grp in enumerate(groups):
        total = ring[grp].sum()
        reps[i] = total / abs(total) if abs(total) > 0 else ring[grp[0]]
        mults[i] = grp.size
    on_seam = (reps.real < 0) & (np.abs(reps.imag) <= _SEAM_IM_TOL)
    reps[on_seam] = reps.real[on_seam]
    final = np.argsort(np.angle(reps), kind="stable")
    return reps[final], mults[final]


@dataclass(frozen=True)
class SpectrumReport:
    """Clustered unit-circle eigenvalues with multiplicities and provenance."""

    eigenvalues: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    source: str
    nu: tuple[float, ...] | None
    tolerance: float

    @property
    def values(self) -> np.ndarray:
        return np.array(self.eigenvalues, dtype=complex)

    @property
    def total_multiplicity(self) -> int:
        return int(sum(self.multiplicities))

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "nu": list(self.nu) if self.nu is not None else None,
            "tolerance": self.tolerance,
            "eigenvalues": [
                {
                    "re": float(v.real),
                    "im": float(v.imag),
                    "arg": float(np.angle(v)),
                    "mult": int(m),
                }
                for v, m in zip(self.eigenvalues, self.multiplicities)
            ],
        }


def _make_report(
    raw: np.ndarray,
    source: str,
    nu: MagneticPotential | None,
    cluster_tol: float,
) -> SpectrumReport:
    vals, mults = _cluster_unit_circle(raw, cluster_tol)
    return SpectrumReport(
        eigenvalues=tuple(vals),
        multiplicities=tuple(int(m) for m in mults),
        source=source,
        nu=tuple(float(p) for p in nu.phases) if nu is not None else None,
        tolerance=cluster_tol,
    )


def unitary_eigenvalues(
    a,
    source: str = "unitary matrix",
    nu: MagneticPotential | None = None,
    cluster_tol: float = DEFAULT_SPECTRUM_TOL,
    unitary_tol: float = DEFAULT_SPECTRUM_TOL,
) -> SpectrumReport:
    """Clustered spectrum of a unitary matrix, given as an ndarray or as a
    scipy sparse matrix.

    Above side ``_SATURATION_STEPS`` a fixed-seed Krylov probe sends a
    spectrum with few distinct values to LAPACK's nonsymmetric QR; every
    other spectrum takes the Hermitian-splitting path.  Both are direct
    eigensolves of the matrix as given.  A sparse matrix stays sparse
    except for the Hermitian part, or on the QR route the matrix itself.

    The explicit pre-check (every sparse matrix, an ndarray up to side
    ``_UNITARITY_PRECHECK_LIMIT``) rejects non-unitary or non-finite input
    with ``ValueError``; on input it has proven unitary, a miss of the
    eigen-residual or unit-circle gate raises ``EigensolverError``.  A
    larger ndarray is checked by the probe's norm checks and those gates,
    and a miss raises ``ValueError``.  ``CapacityError`` is raised before
    the dense step when its working set exceeds the available memory.
    """
    a = as_complex(a)
    proven = sp.issparse(a) or not (
        a.ndim == 2 and a.shape[0] == a.shape[1] > _UNITARITY_PRECHECK_LIMIT
    )
    if proven:
        # the product residual also rejects a non-square shape
        require_unitary(a, unitary_tol, what="input")
        fail, failure = EigensolverError, "eigensolver failed on a unitary input"
    else:
        fail, failure = ValueError, "input is not unitary"
    side = a.shape[0]
    saturated = False
    if side > _SATURATION_STEPS:
        saturated, norm_defect = _krylov_saturation(a, _SATURATION_STEPS)
        # on proven input only the route is read
        if not proven and not norm_defect <= unitary_tol:
            raise ValueError(
                f"input is not unitary: norm defect {norm_defect:.3e} on Krylov "
                f"probe vectors exceeds {unitary_tol:.1e}"
            )
    need = _DENSE_ARRAYS * side * side * np.dtype(complex).itemsize
    available = _available_memory()
    if need > available:
        raise CapacityError(
            f"dense eigensolve of side {side} needs about {need / 2**30:.1f} GiB, "
            f"{available / 2**30:.1f} GiB is available"
        )
    if saturated:
        lam = np.linalg.eigvals(a.toarray() if sp.issparse(a) else a)
    else:
        lam, _, residual = _eig_unitary(a, _pure_column_tol(unitary_tol))
        if not residual <= unitary_tol:
            raise fail(
                f"{failure}: eigen-residual {residual:.3e} exceeds {unitary_tol:.1e}"
            )
    off_circle = float(np.abs(np.abs(lam) - 1.0).max()) if lam.size else 0.0
    if not off_circle <= unitary_tol:
        raise fail(
            f"{failure}: unit-circle defect {off_circle:.3e} exceeds {unitary_tol:.1e}"
        )
    return _make_report(lam, source, nu, cluster_tol)


def walk_point_spectrum(
    nu: MagneticPotential,
    cs: CoinSystem,
    cluster_tol: float = DEFAULT_SPECTRUM_TOL,
) -> SpectrumReport:
    """Spectrum of the assembled walk operator (dense eigensolve; n-limited).

    The operator is assembled as the literal Kronecker sum and eigensolved
    directly, without using the per-vertex block structure, so the result
    is an independent side of the spectral comparisons.  The size guard is
    the one in ``WalkOperator.sparse`` (``CapacityError``).
    """
    return _walk_spectrum(evolution_operator(nu, cs).sparse(), nu, cs, cluster_tol)


def _walk_spectrum(
    mat: sp.csr_matrix, nu: MagneticPotential, cs: CoinSystem, cluster_tol: float
) -> SpectrumReport:
    """``walk_point_spectrum`` of a walk matrix already assembled."""
    return unitary_eigenvalues(
        mat,
        source=f"walk operator, n={cs.n}, d={cs.d}",
        nu=nu,
        cluster_tol=cluster_tol,
    )


def coin_sum_eigensystem(
    cs: CoinSystem, sigma: int, tol: float = DEFAULT_SPECTRUM_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of the signed coin
    sum at vertex ``sigma``.

    Columns whose eigen-residual exceeds min(1e-9, ``tol`` / 10) are
    re-resolved (see ``_eig_unitary``), so the pairs can serve as witnesses
    for a check gated at ``tol``.
    """
    lam, vecs, _ = _eig_unitary(algebraic_sum(cs, sigma), _pure_column_tol(tol))
    return lam, vecs


def coin_union_spectrum(
    cs: CoinSystem,
    cluster_tol: float = DEFAULT_SPECTRUM_TOL,
) -> tuple[SpectrumReport, SpectrumReport]:
    """Pooled spectra of the signed coin sums over every vertex.

    Returns (set variant, multiset variant): the set variant lists each
    distinct eigenvalue once; the multiset variant sums multiplicities
    across vertices, totalling 2^(n+1) * d.
    """
    raw = np.concatenate(
        [coin_sum_eigensystem(cs, sigma, cluster_tol)[0] for sigma in range(dimension(cs.n))]
    )
    vals, mults = _cluster_unit_circle(raw, cluster_tol)
    multiset = SpectrumReport(
        eigenvalues=tuple(vals),
        multiplicities=tuple(int(m) for m in mults),
        source=f"coin-sum union (multiset), n={cs.n}, d={cs.d}",
        nu=None,
        tolerance=cluster_tol,
    )
    as_set = SpectrumReport(
        eigenvalues=tuple(vals),
        multiplicities=tuple(1 for _ in vals),
        source=f"coin-sum union (set), n={cs.n}, d={cs.d}",
        nu=None,
        tolerance=cluster_tol,
    )
    return as_set, multiset


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite nonempty point sets in C."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _multisets_match(r1: SpectrumReport, r2: SpectrumReport, tol: float) -> bool:
    """Clustered value lists match one-to-one with equal multiplicities."""
    if len(r1.eigenvalues) != len(r2.eigenvalues):
        return False
    if r1.total_multiplicity != r2.total_multiplicity:
        return False
    v2 = r2.values
    for value, mult in zip(r1.eigenvalues, r1.multiplicities):
        close = np.nonzero(np.abs(v2 - value) <= tol)[0]
        if close.size != 1 or r2.multiplicities[close[0]] != mult:
            return False
    return True


def _validated(cs: CoinSystem, tol: float = DEFAULT_COIN_TOL) -> None:
    report = validate_coin_system(cs, tol=tol)
    if not report.passed(tol):
        raise ValueError(
            f"coin system fails validation: max residual {report.max_residual:.3e} "
            f"exceeds {tol:.1e}"
        )


@dataclass(frozen=True)
class PointSpectrumCheck:
    """Set comparison of the walk spectrum against the coin-sum union.

    ``passed`` reflects the set-level equality (Hausdorff distance within
    tolerance).  ``multiset_passed`` is a strictly stronger refinement --
    equal multiplicities after clustering -- which follows from the block
    structure of the walk but is reported separately from the set claim.
    """

    hausdorff_distance: float
    tolerance: float
    multiset_passed: bool
    walk_spectrum: SpectrumReport
    union_set: SpectrumReport
    union_multiset: SpectrumReport

    @property
    def passed(self) -> bool:
        return self.hausdorff_distance <= self.tolerance


def verify_point_spectrum_theorem(
    nu: MagneticPotential,
    cs: CoinSystem,
    tol: float = DEFAULT_SPECTRUM_TOL,
) -> PointSpectrumCheck:
    """Compare the dense walk spectrum with the pooled coin-sum spectra."""
    _validated(cs)
    walk_rep = walk_point_spectrum(nu, cs, cluster_tol=tol)
    union_set, union_multiset = coin_union_spectrum(cs, cluster_tol=tol)
    distance = hausdorff_distance(walk_rep.values, union_set.values)
    return PointSpectrumCheck(
        hausdorff_distance=distance,
        tolerance=tol,
        multiset_passed=_multisets_match(walk_rep, union_multiset, tol),
        walk_spectrum=walk_rep,
        union_set=union_set,
        union_multiset=union_multiset,
    )


@dataclass(frozen=True)
class ApproximateSpectrumCheck:
    """Approximate-eigenvalue version of the spectrum comparison.

    Mechanics match the point-spectrum check (finite dimension collapses
    the two notions); in addition every union eigenvalue is lifted to the
    walk's space through the eigenbasis fiber of its vertex and certified
    by an explicit residual witness.
    """

    hausdorff_distance: float
    tolerance: float
    max_witness_residual: float
    matches_point_check: bool
    walk_spectrum: SpectrumReport
    union_set: SpectrumReport
    union_multiset: SpectrumReport

    @property
    def passed(self) -> bool:
        return (
            self.hausdorff_distance <= self.tolerance
            and self.max_witness_residual <= self.tolerance
            and self.matches_point_check
        )


def verify_approximate_spectrum_theorem(
    nu: MagneticPotential,
    cs: CoinSystem,
    tol: float = DEFAULT_SPECTRUM_TOL,
) -> ApproximateSpectrumCheck:
    """Spectrum comparison along the approximate-eigenvalue route.

    For a finite-dimensional unitary the point spectrum, the approximate
    eigenvalues and the spectrum coincide: every eigenvalue has its unit
    eigenvector as a constant witness sequence, and every other mu keeps
    ||Ax - mu x|| at least the distance from mu to the spectrum.  So the
    walk side is ``unitary_eigenvalues`` of the same matrix.  Emits both
    this check and the point-spectrum check and compares them; a
    disagreement would falsify that coincidence.
    """
    _validated(cs)
    op = evolution_operator(nu, cs)
    walk_rep = unitary_eigenvalues(
        op.sparse(),
        source=f"walk operator (approximate path), n={cs.n}, d={cs.d}",
        nu=nu,
        cluster_tol=tol,
    )
    union_set, union_multiset = coin_union_spectrum(cs, cluster_tol=tol)
    distance = hausdorff_distance(walk_rep.values, union_set.values)

    max_witness = 0.0
    for sigma in range(dimension(cs.n)):
        lam, vecs = coin_sum_eigensystem(cs, sigma, tol)
        zhat = magnetic_basis_vector(sigma, nu)
        for i in range(lam.size):
            lifted = np.kron(zhat, vecs[:, i])
            defect = op.apply(lifted) - lam[i] * lifted
            # np.maximum, unlike max, keeps a NaN residual
            max_witness = float(np.maximum(max_witness, np.linalg.norm(defect)))

    point_check = verify_point_spectrum_theorem(nu, cs, tol=tol)
    agreement = (
        point_check.passed == (distance <= tol)
        and hausdorff_distance(walk_rep.values, point_check.walk_spectrum.values) <= tol
    )
    return ApproximateSpectrumCheck(
        hausdorff_distance=distance,
        tolerance=tol,
        max_witness_residual=max_witness,
        matches_point_check=agreement,
        walk_spectrum=walk_rep,
        union_set=union_set,
        union_multiset=union_multiset,
    )


@dataclass(frozen=True)
class SpectralStabilityReport:
    """Constancy of the walk spectrum across sampled magnetic potentials.

    ``passed`` requires every pairwise Hausdorff distance between sampled
    spectra to stay within tolerance while at least one pair of sampled
    operators differs materially, showing the invariance is not vacuous.
    """

    n: int
    d: int
    samples: int
    tolerance: float
    max_pairwise_hausdorff: float
    max_operator_difference: float
    operator_difference_floor: float
    spectra: tuple[SpectrumReport, ...]

    @property
    def passed(self) -> bool:
        return (
            self.max_pairwise_hausdorff <= self.tolerance
            and self.max_operator_difference > self.operator_difference_floor
        )


def verify_spectral_stability(
    cs: CoinSystem,
    samples: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_SPECTRUM_TOL,
    rng: np.random.Generator | None = None,
    operator_difference_floor: float = 1e-6,
) -> SpectralStabilityReport:
    """Check that the walk spectrum ignores the magnetic potential.

    Draws ``samples`` random potentials plus the null one, compares all
    walk spectra pairwise, and confirms the operators themselves moved.
    """
    if samples < 2:
        raise ValueError(f"stability check needs samples >= 2, got {samples}")
    _validated(cs)
    if rng is None:
        rng = np.random.default_rng(seed)
    potentials = [null_potential(cs.n)] + [
        random_potential(cs.n, rng) for _ in range(samples)
    ]
    # each operator is assembled once, in sparse form, for its spectrum and
    # for the pairwise differences
    mats = [evolution_operator(nu, cs).sparse() for nu in potentials]
    reports = [_walk_spectrum(mat, nu, cs, tol) for mat, nu in zip(mats, potentials)]

    max_h = 0.0
    max_diff = 0.0
    for i in range(len(potentials)):
        for j in range(i + 1, len(potentials)):
            # np.maximum, unlike max, keeps a NaN distance
            max_h = float(
                np.maximum(max_h, hausdorff_distance(reports[i].values, reports[j].values))
            )
            max_diff = float(np.maximum(max_diff, max_abs(mats[i] - mats[j])))

    return SpectralStabilityReport(
        n=cs.n,
        d=cs.d,
        samples=samples,
        tolerance=tol,
        max_pairwise_hausdorff=max_h,
        max_operator_difference=max_diff,
        operator_difference_floor=operator_difference_floor,
        spectra=tuple(reports),
    )
