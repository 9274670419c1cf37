"""Walk spectra, their clustering, and the three verification checks.

Eigenvalues come from ``_eigen``, the solver of ``unitary_eigenvalues``;
its module docstring derives each route and its gates.  Raw eigenvalues
are grouped into multiplicity classes by single-linkage clustering on the
unit circle, and finite spectra are compared as point sets in the complex
plane by Hausdorff distance, which is insensitive to multiplicity
bookkeeping.

The three verification entry points check, on concrete instances, that the
walk's spectrum equals the union of the per-vertex signed coin-sum spectra
(as a set, with the multiset refinement reported separately), that the same
equality holds along the approximate-eigenvalue route with explicit
residual witnesses, and that the spectrum does not move when the magnetic
potential does.  The walk side of each is a structure-blind solve of the
assembled walk matrix, so it is an independent oracle for the coin sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._eigen import EigensolverError, unitary_eig, unitary_eigvals
from ._linalg import max_abs, worst
from .coin import (
    DEFAULT_COIN_TOL,
    CoinSystem,
    algebraic_sum,
    validate_coin_system,
)
from .fock import dimension
from .magnetic import (
    MagneticPotential,
    magnetic_basis_change,
    null_potential,
    random_potential,
)
from .walk import _lift, evolution_operator

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

# The sampled walk operators must differ by more than this (largest entry)
# for the stability check to show that the potential moved the operator.
_OPERATOR_DIFFERENCE_FLOOR = 1e-6

# A cluster representative with negative real part and an imaginary part at
# most this large is put exactly on the negative real axis (imaginary part
# +0.0), so -1 reports arg +pi and sorts last whatever the sign of its
# round-off (about 1e-17), far below every 1e-8 gate.
_SEAM_IM_TOL = 1e-14


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

    Above side 64 a matrix whose nonzero pattern is 2-cyclic with colour
    classes P and Q of equal size (every walk) is solved on M = A_PQ A_QP
    alone, at half the side, each value mu of M giving the two values
    +-sqrt(mu) with its multiplicity.  Three routes, each tried at most
    once, in this order (derived in the ``_eigen`` docstring); each is a
    solve of the matrix as given, blind to any structure it has but the
    zeros that it stores or holds:

    - trace moments: M above side 64 whose fixed-seed Krylov probe closes.
      Only sparse products run, with the blocks A_QP and A_PQ in turn, and
      no side x side array is made.
    - one Cayley pencil of M, when the probe does not close, or does not
      run (M at or below side 64), or the moment certificate misses.
    - Hermitian splitting: a miss of the pencil, on M at side / 2; and every
      matrix at or below side 64 or not 2-cyclic, at its own side.  It
      alone gives eigenvectors.

    The explicit pre-check rejects non-square, non-finite or non-unitary
    input with ``ValueError``, and is the only source of that error.  Every
    failure after it, a LAPACK non-convergence or a miss of the
    eigen-residual or unit-circle gate, raises ``EigensolverError``.
    ``CapacityError`` is raised when a dense step's two arrays exceed the
    available memory: of side / 2 for a 2-cyclic matrix, before its pencil
    or its split, and of side for every other matrix.  So the trace-moment
    route is not limited by it.
    """
    return _make_report(unitary_eigvals(a, unitary_tol), source, nu, cluster_tol)


def walk_point_spectrum(
    nu: MagneticPotential,
    cs: CoinSystem,
    cluster_tol: float = DEFAULT_SPECTRUM_TOL,
) -> SpectrumReport:
    """Spectrum of the assembled walk operator (n-limited).

    The operator is assembled as the literal Kronecker sum and its CSR
    matrix is eigensolved by ``unitary_eigenvalues`` without using the
    per-vertex block structure, so the result is an independent side of
    the spectral comparisons.  The size guard is the one in
    ``WalkOperator.sparse`` (``CapacityError``).
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
    re-resolved (see ``_eigen.unitary_eig``), so the pairs can serve as
    witnesses for a check gated at ``tol``.  A LAPACK failure raises
    ``EigensolverError``, as the coin system is validated before any check
    reaches its sums.
    """
    lam, vecs, _ = unitary_eig(
        algebraic_sum(cs, sigma), tol, True, f"the coin sum at vertex {sigma}"
    )
    return lam, vecs


def coin_union_spectrum(
    cs: CoinSystem,
    cluster_tol: float = DEFAULT_SPECTRUM_TOL,
) -> tuple[SpectrumReport, SpectrumReport]:
    """Pooled spectra of the signed coin sums over every vertex.

    Returns (set variant, multiset variant): the set variant lists each
    distinct eigenvalue once; the multiset variant sums multiplicities
    across vertices, totalling 2^(n+1) * d.  Only the values are kept, so
    each sum is split at the angle of the eigenvalues-only solves, where a
    conjugate pair needs no rotation pass (``_eigen.unitary_eig``).
    """
    raw = np.concatenate([
        unitary_eig(
            algebraic_sum(cs, sigma), cluster_tol, False, f"the coin sum at vertex {sigma}"
        )[0]
        for sigma in range(dimension(cs.n))
    ])
    multiset = _make_report(
        raw, f"coin-sum union (multiset), n={cs.n}, d={cs.d}", None, cluster_tol
    )
    as_set = replace(
        multiset,
        multiplicities=(1,) * len(multiset.eigenvalues),
        source=f"coin-sum union (set), n={cs.n}, d={cs.d}",
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


def _validated(cs: CoinSystem) -> None:
    report = validate_coin_system(cs)
    if not report.passed(DEFAULT_COIN_TOL):
        raise ValueError(
            f"coin system fails validation: max residual {report.max_residual:.3e} "
            f"exceeds {DEFAULT_COIN_TOL:.1e}"
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

    basis = magnetic_basis_change(nu)

    def witness_residual(sigma: int) -> float:
        lam, vecs = coin_sum_eigensystem(cs, sigma, tol)
        # column i: the eigenbasis vector times coin eigenvector i
        lifted = _lift(basis[:, sigma, None], vecs[None])
        return np.linalg.norm(op.apply(lifted) - lifted * lam, axis=0).max()

    max_witness = worst(map(witness_residual, range(dimension(cs.n))))

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
    spectra: tuple[SpectrumReport, ...]

    @property
    def passed(self) -> bool:
        return (
            self.max_pairwise_hausdorff <= self.tolerance
            and self.max_operator_difference > _OPERATOR_DIFFERENCE_FLOOR
        )


def verify_spectral_stability(
    cs: CoinSystem,
    samples: int = 5,
    tol: float = DEFAULT_SPECTRUM_TOL,
    rng: np.random.Generator | None = None,
) -> SpectralStabilityReport:
    """Check that the walk spectrum ignores the magnetic potential.

    Draws ``samples`` random potentials from ``rng`` (by default a
    generator seeded with 0) plus the null one, compares all walk spectra
    pairwise, and confirms the operators themselves moved by more than
    ``_OPERATOR_DIFFERENCE_FLOOR``.
    """
    if samples < 2:
        raise ValueError(f"stability check needs samples >= 2, got {samples}")
    _validated(cs)
    if rng is None:
        rng = np.random.default_rng(0)
    potentials = [null_potential(cs.n)] + [
        random_potential(cs.n, rng) for _ in range(samples)
    ]
    # each operator is assembled once, in sparse form, for its spectrum and
    # for the pairwise differences
    mats = [evolution_operator(nu, cs).sparse() for nu in potentials]
    reports = [_walk_spectrum(mat, nu, cs, tol) for mat, nu in zip(mats, potentials)]

    return SpectralStabilityReport(
        n=cs.n,
        d=cs.d,
        samples=samples,
        tolerance=tol,
        max_pairwise_hausdorff=worst(
            hausdorff_distance(r.values, s.values) for r, s in itertools.combinations(reports, 2)
        ),
        max_operator_difference=worst(max_abs(x - y) for x, y in itertools.combinations(mats, 2)),
        spectra=tuple(reports),
    )
