"""Eigenvalues of a unitary matrix, the solver behind
``spectra.unitary_eigenvalues``.

Unitary matrices are normal, so every route here ends in Hermitian
eigensolves or in none; no nonsymmetric solve runs at the matrix's own
side.  The only Schur forms (``zgees``) are of small blocks: the Krylov
probe's Hessenberg block and the compression in the split path's second
pass.  Each route is a solve of the matrix as given, blind to any structure
it has but its zero pattern, and each is tried at most once.

Routes.  Above side ``_SATURATION_STEPS`` a matrix whose zero pattern is
2-cyclic (every walk) is solved on its square M = A_PQ A_QP of side m =
side / 2 alone (``_square_eigvals``): the probe and the trace moments, then
one pencil, then the split path, each run on M at most once, and each gate
below is M's own, with M's side m.  Every other matrix, and every matrix at
or below that side, takes the split path at its own side
(``_split_eigvals``), the structure-blind oracle.

2-cyclic square (``_two_cyclic_blocks``; Varga, Matrix Iterative Analysis,
1962).  Every walk's nonzero pattern is 2-cyclic: each shift flips one bit
of the subset, so the walk maps even subsets to odd ones and odd to even.
If no entry of A joins two rows of one colour class, and the classes P and
Q have the same size m, then A permuted to P, Q order is [[0, X], [Y, 0]]
with square blocks X = A_PQ and Y = A_QP.  For lambda != 0,

    det(lambda I - A) = det(lambda I) det(lambda I - Y X / lambda)
                      = det(lambda^2 I - Y X),

and by continuity for every lambda; YX and M = XY have one spectrum.  So
each eigenvalue mu of M gives the two eigenvalues +-sqrt(mu) of A, each
with the multiplicity of mu: lambda and -lambda have equal multiplicities,
and k distinct values of M give 2k of A.  A*A = I makes X and Y unitary, so
M is unitary, of side m = side / 2.  Each mu within tau of the truth puts
its square roots within tau / 2, as |sqrt(mu) + sqrt(mu')| is about 2 for
neighbours mu, mu' on the unit circle.  In P, Q order A^2 = [[XY, 0], [0,
YX]], so

    tr M^p = sum_{i in P} (A^{2p})_ii,

and M's moments need only P's unit vectors, taken through Y and then X,
with no product XY formed for them.  The colouring reads only the zeros of
the input.

Krylov probe (``_krylov_saturation``).  A spectrum with few distinct values
closes the Krylov space of a random start vector early, at some step k, and
the k Ritz values of the Arnoldi Hessenberg block are then its distinct
values.  The space closes where the new Arnoldi vector, orthogonalized
against the k unit vectors before it, has norm at most tau =
``unitary_tol``; as ||Mq|| = 1 for a unit q and a unitary M, that is a test
relative to the product's scale.  When M is of side at most
``_SATURATION_STEPS`` every Krylov space closes, so the probe says nothing
there and is not run: a walk of side up to 2 ``_SATURATION_STEPS`` goes
straight to the pencil of M.  On M, a walk spectrum of up to 2
``_SATURATION_STEPS`` distinct values, paired +-, closes within the probe's
steps.  It sums on the calling thread, so no BLAS thread pool spins beside
the moment workers or the eigensolve that follow it.

Trace moments (``_eigvals_from_moments``).  The multiplicities m_i of the k
Ritz values theta_i of M solve sum_i m_i theta_i^p = tr M^p, p = -K..K,
with K = ceil(k / 2).  As the m_i are real and tr M^-p is the conjugate of
tr M^p for a unitary M, these are 2K + 1 >= k + 1 real equations: sum_i m_i
= m (p = 0), and the real and imaginary parts for p = 1..K, whose traces
come from sparse products of Y, then X, with blocks of unit vectors
(``_trace_powers``).  They are solved by least squares, and every gate
follows from tau = ``unitary_tol``:

- Each Ritz residual ||M y_i - theta_i y_i|| is at most tau.  M is normal,
  so by Bauer-Fike each theta_i lies within tau of an eigenvalue, which is
  the split path's eigen-residual gate.
- Then |theta_i^p - lambda^p| <= p tau on the unit circle, and the true
  multiplicities leave a residual of at most r = m tau sqrt(sum_{p<=K}
  p^2); the least-squares residual, no larger, must be within r.  An
  eigenvalue missing from the Ritz values leaves its share of the moments
  unexplained, a residual of the order of its multiplicity.
- The least-squares m_i lie within r / s of the true multiplicities, where
  s is the Vandermonde matrix's least singular value.  So r / s must be
  below 1/2, every m_i within r / s of a positive integer, and the rounded
  m_i must sum to m; then rounding gives the true multiplicities.

A miss of the certificate goes to the pencil of M.

Cayley pencil (``_eigvals_from_pencil``; Bunse-Gerstner and Elsner, LAA
1991).  It answers when the probe does not close or the certificate
misses, and runs on M, written A below, once, at alpha =
``_PENCIL_ALPHA``.  A miss of its gates, or a Cholesky failure of H' (a
value on the seam), goes to the split path of M.  For a unitary B = e^{-i
alpha} A, take S = i(B* - B) and H' = 2I + B + B*, both Hermitian.  B is normal, so
an eigenvector v of B with B v = e^{i phi} v, phi in (-pi, pi], has B* v =
e^{-i phi} v, and

    S v = 2 sin(phi) v,  H' v = (2 + 2 cos(phi)) v,  S v = t H' v

with t = sin(phi) / (1 + cos(phi)) = tan(phi / 2).  H' is positive definite
unless phi = pi, that is unless A has the eigenvalue -e^{i alpha} (the
seam), so (S, H') is a Hermitian-definite pencil whose eigenvalues are the
real t_j.  As (1 + i t) / (1 - i t) = e^{i phi},

    lambda_j = e^{i alpha} (1 + i t_j) / (1 - i t_j),

each value with its side of the real line.  So one eigenvalues-only solve
(LAPACK's gv driver: a Cholesky factor of H', then a Hermitian eigensolve
of the reduced matrix) gives the spectrum, and no eigenvectors are formed.

With no eigenvectors, two gates certify the values.  A value at angle delta
from the seam has |t| about 2 / delta, and the angles come out with errors
of about eps max|t| (measured on Haar-rotated unitaries of side 512 and
1024 with one phase 1e-1 to 1e-7 from the seam).  With C =
``_PENCIL_CONDITION``:

- Conditioning: C eps (1 + max|t|) must be at most tau.
- Traces: with e = C eps sum_j (1 + |t_j|), sum lambda_j and sum
  lambda_j^2 must lie within e and 2e of the exact tr A and tr A^2
  (``_traces``).  Under the first gate e is at most side tau, so each
  value's share of the sums may be off by up to tau.  The measured misses
  were below e / 30.

The first gate alone does not suffice: a value within about sqrt(eps) of
the seam sits in a numerically singular H', and its t comes out far too
small, so it passes the first gate with an error of up to 2 / |t| (at side
1024, a phase 1e-11 from the seam gave |t| = 4e5 and an error of 5e-6).
Such a value moves the sums by its whole error, far above e, and a value
missing or counted twice moves them by the order of 1.  So an input whose
own unitarity residual is above about 1e-12, though within the pre-check,
can miss the trace gates; the split path of M then answers.

Splitting (``_eig_unitary``).  For an angle alpha, e^{-i alpha} A = H + iS
with H = (B + B*)/2 and S = (B - B*)/2i of B = e^{-i alpha} A: a Hermitian
eigensolve of H fixes the real parts of the values e^{-i alpha} lambda and
an eigenbasis; within each cluster of (nearly) equal real parts, the
restriction of S is diagonalized to separate the imaginary parts.  Every
value is then a Rayleigh quotient of A at an orthonormal vector, and the
eigenvectors serve as witnesses.

At alpha = 0 every conjugate pair e^{+-i phi} of a real-structured spectrum
(a Grover coin sum, a Grover walk) shares a real part cos(phi), so eigh
mixes the pair and both columns need the rotation passes.  The pair shares
a real part of e^{-i alpha} lambda only when phi_1 + phi_2 = 2 alpha modulo
2 pi, so the eigenvalues-only callers (``unitary_eigvals``, the coin-union
spectrum) split at alpha = ``_PENCIL_ALPHA``, 1 radian, off every root of
unity, and the two rotation passes run only as a fallback for values that
mirror about alpha.  The coin-sum eigensystem keeps alpha = 0: its
eigenvectors are the witnesses of the approximate-eigenvalue check and the
``eigen:`` initial states of the CLI, and an eigenspace of multiplicity
above one can get another orthonormal basis at another angle, which would
change those reports.

One entry (``unitary_eig``).  Every split-path solve goes through
``unitary_eig(a, gate, vectors, what)``: the split of ``unitary_eigvals``
(of the input, or of M), and the coin-sum eigensystem and union spectrum
of ``spectra``.  It alone picks the angle, alpha = ``_PENCIL_ALPHA`` when
only the values are used and 0 when the eigenvectors are, and the
pure-column threshold min(1e-9, gate / 10), kept an order below the
caller's residual gate; and it alone turns a LAPACK failure of a split
into ``EigensolverError``, naming ``what`` (the input, or the vertex of a
coin sum).  It runs no unitarity pre-check: the coin sums come from a
validated coin system, and ``unitary_eigvals`` has run its own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._linalg import BLOCK, CapacityError, max_abs, require_unitary, vector_norm

# Krylov probe that picks the eigenvalue route above _SATURATION_STEPS: a
# spectrum with at most ~_SATURATION_STEPS distinct values closes the Krylov
# space of a random start vector, whose Ritz values are then those distinct
# values, and goes to the trace-moment route, which skips the eigenvectors
# and the clusters' rotations of the split path.
_SATURATION_STEPS = 64

# Multiply-adds (powers x the blocks' total nnz x unit vectors) from which
# ``_trace_powers`` shares its products out to a thread pool.  Below it,
# starting and joining the threads costs more than they save (measured on 2
# cores on a side-160 A: 0.7 to 1.6 ms on the calling thread against 2.4 to
# 3.7 ms on two workers; the two cross near 3e6 to 4e6).  The side-448 M of
# the side-896 walks of ``verify-all`` (1e7 and more) keeps the pool.
_MOMENT_POOL_WORK = 4_000_000

# The Cayley pencil of e^{-i _PENCIL_ALPHA} A is singular where A has the
# eigenvalue -e^{i _PENCIL_ALPHA}, its seam, and the eigenvalues-only split
# path mixes values that mirror about the line through e^{i _PENCIL_ALPHA}.
# An angle of 1 radian keeps both off every root of unity, such as +-1 and
# +-i, where structured spectra tend to put their values.
_PENCIL_ALPHA = 1.0
# The pencil's gates bound each value's error by _PENCIL_CONDITION eps
# (1 + |t|), about 100 times the angle errors measured near the seam.
_PENCIL_CONDITION = 64

# Side x side complex arrays held by a dense step: the pencil holds S and
# H', the split path H, then the eigenvectors and their images, both of M's
# side, side / 2, for a 2-cyclic input.  The trace-moment route holds none,
# so an input is checked only once it reaches a dense step.
_DENSE_ARRAYS = 2

# Consecutive real-part gap below which eigh output is treated as one
# cluster.  Generous merging is safe: the skew restriction re-separates the
# members.  Splitting too finely risks mixing nearly degenerate vectors.
_COS_CLUSTER_GAP = 1e-6

# Columns whose eigen-residual is already below this are accepted without
# rotation; residual-sized eigenvalue errors at this scale are
# absorbed by the downstream clustering tolerance.  Callers that gate the
# residual pass a threshold kept below their gate (``_pure_column_tol``).
_PURE_COLUMN_TOL = 1e-9


class EigensolverError(RuntimeError):
    """The eigensolver failed on input proven unitary: LAPACK did not
    converge, or the result missed its eigen-residual or unit-circle gate.

    Raised instead of ``ValueError`` once the explicit unitarity pre-check
    has passed, so a numerical failure is never reported as invalid input.
    """


def unitary_eigvals(a, unitary_tol: float) -> np.ndarray:
    """Eigenvalues of a unitary ``a``, an ndarray or a scipy sparse matrix,
    each repeated by its multiplicity.

    Above side ``_SATURATION_STEPS`` a 2-cyclic ``a`` is solved on its
    square M alone (``_square_eigvals``), each value mu of M giving
    +-sqrt(mu); every other ``a`` is split at its own side
    (``_split_eigvals``).  The errors are those of
    ``spectra.unitary_eigenvalues``.
    """
    # the product residual also rejects a non-square shape
    a = require_unitary(a, unitary_tol, what="input")
    blocks = _two_cyclic_blocks(a) if a.shape[0] > _SATURATION_STEPS else None
    try:
        if blocks is None:
            lam = _split_eigvals(a, unitary_tol)
        else:
            root = np.sqrt(_square_eigvals(blocks, unitary_tol))
            lam = np.concatenate((root, -root))
    except np.linalg.LinAlgError as exc:  # a ValueError, but not invalid input
        raise _failure(exc) from exc
    off_circle = max_abs(np.abs(lam) - 1.0)
    if not off_circle <= unitary_tol:
        raise _failure(f"unit-circle defect {off_circle:.3e} exceeds {unitary_tol:.1e}")
    return lam


def unitary_eig(a, gate: float, vectors: bool, what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, orthonormal eigenvectors (columns) and max residual
    ||Av - lv|| of a unitary ``a`` by the split path (``_eig_unitary``).

    ``vectors`` says whether the caller uses the eigenvectors: if not, the
    split is at ``_PENCIL_ALPHA``, else at 0 (see the module docstring).
    Columns whose residual exceeds min(1e-9, ``gate`` / 10) are rotated.  A
    LAPACK failure raises ``EigensolverError`` naming ``what``.
    """
    try:
        return _eig_unitary(a, _pure_column_tol(gate), 0.0 if vectors else _PENCIL_ALPHA)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not invalid input
        raise _failure(exc, what) from exc


def _failure(detail, what: str = "a unitary input") -> EigensolverError:
    """The ``EigensolverError`` for a failure ``detail`` on ``what``."""
    return EigensolverError(f"eigensolver failed on {what}: {detail}")


def _split_eigvals(a, tol: float) -> np.ndarray:
    """Eigenvalues of a unitary ``a`` by the split path at its own side:
    ``CapacityError`` before the dense step, then ``unitary_eig``, whose
    eigen-residual must be within ``tol``."""
    _require_capacity(a.shape[0])
    # the split path skips LAPACK's finiteness check: the pre-check has
    # already rejected non-finite input
    lam, _, residual = unitary_eig(a, tol, False, "a unitary input")
    if not residual <= tol:
        raise _failure(f"eigen-residual {residual:.3e} exceeds {tol:.1e}")
    return lam


def _square_eigvals(blocks: list, tol: float) -> np.ndarray:
    """Eigenvalues of the unitary M = XY of the 2-cyclic blocks ``blocks`` =
    [X, Y] (see the module docstring).  Each route runs on M at most once,
    in this order: the probe and the trace moments, one pencil, and the
    split path.

    ``blocks`` is emptied first, so that neither block is held through the
    pencil or the split path.
    """
    x, y = blocks
    blocks.clear()
    square = x @ y
    probe = _krylov_saturation(square, tol) if square.shape[0] > _SATURATION_STEPS else None
    lam = None if probe is None else _eigvals_from_moments(x, y, *probe, tol)
    x = y = probe = None  # the dense steps hold only M
    if lam is None:
        lam = _eigvals_from_pencil(square, tol)
    return _split_eigvals(square, tol) if lam is None else lam


def _pure_column_tol(gate: float) -> float:
    """Pure-column threshold kept an order of magnitude below ``gate``."""
    return min(_PURE_COLUMN_TOL, gate / 10)


def _hermitian_sum(a, scale) -> np.ndarray:
    """c A + (c A)* for the scalar c = ``scale``, as a new Fortran-order
    ndarray, which eigh overwrites in place instead of copying it.

    A is scaled before the sum with its adjoint.  The sparse form is made
    dense once; an ndarray is read in blocks of ``BLOCK`` columns, leaving
    the caller's array as it is.
    """
    if sp.issparse(a):
        scaled = a * scale
        return (scaled + scaled.conj().T).toarray(order="F")
    herm = np.conjugate(a.T, order="F")
    herm *= np.conjugate(scale)
    for lo in range(0, a.shape[0], BLOCK):
        cols = slice(lo, lo + BLOCK)
        herm[:, cols] += scale * a[:, cols]
    return herm


def _eig_unitary(
    a, pure_tol: float = _PURE_COLUMN_TOL, angle: float = 0.0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, orthonormal eigenvectors, and max residual ||Av - lv||,
    by the splitting of e^{-i ``angle``} A (see the module docstring).

    ``a`` is a complex ndarray or a scipy sparse matrix; only the Hermitian
    part of e^{-i ``angle``} A is made dense for the eigensolve (LAPACK's
    MRRR driver, evr), and the images ``a @ vecs`` are sparse products when
    ``a`` is sparse.

    The Hermitian part H = (B + B*)/2 of B = e^{-i ``angle``} A comes from
    ``_hermitian_sum`` and is overwritten by the eigensolve.  The Rayleigh
    quotients and defects, and the sparse images, are then formed in blocks
    of ``BLOCK`` columns, so the working set is two side x side arrays: H,
    then the eigenvectors and their images.

    After the Hermitian eigensolve, each column's Rayleigh quotient and
    defect norm cost O(N^2) in total; columns whose defect is at most
    ``pure_tol`` (the common case, including every truly degenerate
    eigenspace) are kept as is.  Flagged columns are rotated in two
    passes.  First, cluster by cluster, by the skew part of B: within one
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
    # a real 1.0 at angle 0 leaves every product as it is without the turn
    turn = np.exp(-1j * angle) if angle else 1.0
    w, vecs = sla.eigh(
        _hermitian_sum(a, 0.5 * turn), driver="evr", check_finite=False, overwrite_a=True
    )
    images = np.empty((size, size), dtype=complex)
    if not sparse:
        # a dense product writes straight into images without a copy; cut
        # into blocks, its narrowest blocks would round unlike the whole
        np.matmul(a, vecs, out=images)
    lam = np.empty(size, dtype=complex)
    defect = np.empty(size)
    for lo in range(0, size, BLOCK):
        cols = slice(lo, lo + BLOCK)
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
            turned = turn * block
            _, rot = np.linalg.eigh((turned - turned.conj().T) / 2j)
            rotate(bad, block, rot)
    bad = np.nonzero(defect > pure_tol)[0]
    if bad.size > 1:
        block = vecs[:, bad].conj().T @ images[:, bad]
        _, rot = sla.schur(block, output="complex")
        rotate(bad, block, rot)
    residual = float(defect.max()) if size else 0.0
    return lam, vecs, residual


def _krylov_saturation(a, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Ritz values and unit Ritz vectors (columns) of a random-start Krylov
    space of ``a`` that closes within ``_SATURATION_STEPS``, or None when it
    does not close: at the step whose new vector, orthogonalized against the
    earlier ones, has norm at most ``tol`` (see the module docstring).

    The Ritz pairs are those of the Arnoldi Hessenberg block: its Schur
    form's diagonal, and its Schur vectors taken into the Krylov basis.
    Closing at step k means the minimal polynomial relative to the start
    vector has degree k, and as the start vector meets every eigenspace
    with probability one, the k Ritz values are the spectrum's distinct
    values, accurate to about the closing tolerance.  The start vector is
    drawn from a fixed seed so results are reproducible.  ``a`` is a
    complex ndarray or a scipy sparse matrix; only its products with
    vectors are used.
    """
    size = a.shape[0]
    rng = np.random.default_rng(0x5EED)
    q = rng.normal(size=size) + 1j * rng.normal(size=size)
    q /= vector_norm(q)
    basis = np.empty((size, _SATURATION_STEPS + 1), dtype=complex, order="F")
    basis[:, 0] = q
    hess = np.zeros((_SATURATION_STEPS + 1, _SATURATION_STEPS), dtype=complex)
    for step in range(1, _SATURATION_STEPS + 1):
        y = a @ q
        held = basis[:, :step]
        coeffs = hess[:step, step - 1]
        for _ in range(2):  # double reorthogonalization
            # held (held* y) by einsum, on the calling thread: a BLAS
            # product this size goes to its thread pool, whose threads keep
            # spinning after it and take cores from the trace-moment
            # workers or the eigensolve that follow the probe
            proj = np.einsum("ij,i->j", held, y.conj()).conj()
            y -= np.einsum("ij,j->i", held, proj)
            coeffs += proj
        beta = vector_norm(y)
        if beta <= tol:
            triangle, schur_vecs = sla.schur(hess[:step, :step], output="complex")
            return triangle.diagonal().copy(), np.einsum("ij,jk->ik", held, schur_vecs)
        hess[step, step - 1] = beta
        q = y / beta
        basis[:, step] = q
    return None


def _moment_workers() -> int:
    """Threads for the trace-moment products: one per CPU this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _trace_powers(x, y, count: int) -> np.ndarray:
    """tr M^p for p = 1..``count`` of M = XY, from the sparse square blocks
    X = ``x`` and Y = ``y``, by sparse products only: M is never formed.

    The unit vectors are taken in ranges E of columns, and E's share of
    tr M^p is the trace of M^p E on E's own rows.  YE is E's columns of Y,
    read from its CSC form, and every other product is a sparse one:
    ``count`` times the blocks' total nnz times side multiply-adds in all.

    The sparse products release the interpreter lock, so from
    ``_MOMENT_POOL_WORK`` multiply-adds up the ranges E are shared out to
    ``_moment_workers`` threads, each range ``BLOCK`` // workers columns
    wide (at least one).  So up to ``BLOCK`` workers keep ``BLOCK`` columns
    in flight, and the working set stays three side x ``BLOCK`` arrays:
    M^p E, Y M^p E and M^(p+1) E.  Less work runs on the calling thread, in
    ranges of ``BLOCK`` columns.  The shares are added in range order, so
    the traces do not depend on thread timing.  The workers call only numpy
    and ``scipy.sparse``.
    """
    side = x.shape[0]
    work = count * (x.nnz + y.nnz) * side
    workers = _moment_workers() if work >= _MOMENT_POOL_WORK else 1
    width = max(1, BLOCK // workers)
    columns = y.tocsc()

    def share(lo: int) -> np.ndarray:
        own = slice(lo, min(lo + width, side))
        block = x @ columns[:, own].toarray()
        part = np.empty(count, dtype=complex)
        for power in range(count):
            if power:
                block = x @ (y @ block)
            part[power] = np.trace(block[own])
        return part

    if workers == 1:
        parts = map(share, range(0, side, width))
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = pool.map(share, range(0, side, width))
    # read once the workers are joined, so the calling thread does not wake
    # for each share and take the interpreter lock from them
    traces = np.zeros(count, dtype=complex)
    for part in parts:
        traces += part
    return traces


def _eigvals_from_moments(
    x, y, ritz: np.ndarray, ritz_vecs: np.ndarray, tol: float
) -> np.ndarray | None:
    """Eigenvalues of the unitary M = XY of the sparse blocks X = ``x`` and
    Y = ``y`` (see ``_trace_powers``) whose distinct values are the Ritz
    values ``ritz`` (unit Ritz vectors ``ritz_vecs``), each repeated by its
    multiplicity, or None when the moment certificate of the module
    docstring, at tau = ``tol``, misses.
    """
    side, count = x.shape[0], ritz.size
    defects = x @ (y @ ritz_vecs) - ritz_vecs * ritz
    # written so that a NaN residual fails
    if not np.linalg.norm(defects, axis=0).max() <= tol:
        return None
    top = -(-count // 2)
    powers = ritz ** np.arange(1, top + 1)[:, None]
    traces = _trace_powers(x, y, top)
    vander = np.vstack((np.ones(count), powers.real, powers.imag))
    moments = np.concatenate(([side], traces.real, traces.imag))
    mults, _, _, sing = np.linalg.lstsq(vander, moments, rcond=None)
    bound = side * tol * np.sqrt((np.arange(1, top + 1) ** 2).sum())
    spread = bound / sing[-1] if sing[-1] > 0 else np.inf
    counts = np.rint(mults)
    if not (np.linalg.norm(vander @ mults - moments) <= bound
            and spread < 0.5
            and np.abs(mults - counts).max() <= spread
            and counts.min() >= 1
            and counts.sum() == side):
        return None
    return np.repeat(ritz, counts.astype(int))


def _traces(a: sp.csr_matrix) -> tuple[complex, complex]:
    """tr A and tr A^2 = sum_ij A_ij A_ji of a sparse ``a``, read from its
    entries in O(nnz)."""
    return complex(a.diagonal().sum()), complex(a.multiply(a.T).sum())


def _eigvals_from_pencil(a, unitary_tol: float) -> np.ndarray | None:
    """Eigenvalues of a sparse unitary ``a`` (a walk's M) from one
    eigenvalues-only solve of its Cayley pencil at ``_PENCIL_ALPHA``, or
    None when the Cholesky factor of H' fails (a value on the seam) or the
    gates of the module docstring miss.

    S = (-iB) + (-iB)* and H' - 2I = B + B* are both ``_hermitian_sum`` of
    ``a``, so the working set is two side x side arrays (``_DENSE_ARRAYS``),
    and ``CapacityError`` is raised first when they exceed the available
    memory.
    """
    _require_capacity(a.shape[0])
    trace, trace_sq = _traces(a)
    try:
        tans = _pencil_tangents(a, _PENCIL_ALPHA)
    except np.linalg.LinAlgError:  # H' not positive definite, or no convergence
        return None
    lam = np.exp(1j * _PENCIL_ALPHA) * (1 + 1j * tans) / (1 - 1j * tans)
    # each value's error bound; written so that a NaN fails
    bounds = _PENCIL_CONDITION * np.finfo(float).eps * (1 + np.abs(tans))
    if (bounds.max() <= unitary_tol
            and abs(lam.sum() - trace) <= bounds.sum()
            and abs((lam * lam).sum() - trace_sq) <= 2 * bounds.sum()):
        return lam
    return None


def _pencil_tangents(a, alpha: float) -> np.ndarray:
    """Eigenvalues t_j = tan(phi_j / 2) of the Cayley pencil (S, H') of
    e^{-i alpha} ``a``, ascending.

    A LAPACK failure, a Cholesky factor of H' among them, raises
    ``LinAlgError``.
    """
    rot = np.exp(-1j * alpha)
    shifted = _hermitian_sum(a, rot)
    diag = np.arange(a.shape[0])
    shifted[diag, diag] += 2.0
    # the pre-check has already rejected non-finite input
    return sla.eigh(
        _hermitian_sum(a, -1j * rot), shifted, eigvals_only=True, driver="gv",
        overwrite_a=True, overwrite_b=True, check_finite=False,
    )


def _nonzero_entries(a) -> sp.csr_matrix | None:
    """The nonzero entries of a square ``a`` as a CSR matrix that stores no
    zeros, or None when they are more than side^2 / 2, the most that a
    2-cyclic pattern with colour classes of equal size has.

    An ndarray is read in blocks of ``BLOCK`` rows, so no side x side
    temporary is made.
    """
    side = a.shape[0]
    if sp.issparse(a):
        entries = a.copy()
        entries.sum_duplicates()
        entries.eliminate_zeros()
        return entries if entries.nnz <= side * side // 2 else None
    blocks, total = [], 0
    for lo in range(0, side, BLOCK):
        blocks.append(sp.csr_matrix(a[lo:lo + BLOCK]))
        total += blocks[-1].nnz
        if total > side * side // 2:
            return None
    return sp.vstack(blocks, format="csr")


def _two_colouring(entries: sp.csr_matrix) -> np.ndarray | None:
    """A colour (bool) for each row such that every stored entry of
    ``entries`` joins rows of different colours, or None when there is
    none.

    Each connected component of the links A_ij != 0 or A_ji != 0 is
    coloured by breadth-first search, one frontier at a time, with
    alternating colours; then every entry is checked against the colours.
    """
    side = entries.shape[0]
    pattern = entries.astype(bool)
    links = (pattern + pattern.T).tocsr()
    colour = np.full(side, -1, dtype=np.int8)
    for start in range(side):
        if colour[start] >= 0:
            continue
        colour[start] = shade = 0
        frontier = np.array([start])
        while frontier.size:
            shade ^= 1
            reached = links[frontier].indices
            frontier = np.unique(reached[colour[reached] < 0])
            colour[frontier] = shade
    joined = entries.tocoo()
    if (colour[joined.row] == colour[joined.col]).any():
        return None
    return colour.astype(bool)


def _two_cyclic_blocks(a) -> list[sp.csr_matrix] | None:
    """The sparse blocks [X, Y] = [A_PQ, A_QP] of side / 2 of ``a``, whose
    product M = XY every route runs on (see the module docstring), or None
    when the nonzero pattern of ``a`` is not 2-cyclic with colour classes P
    and Q of equal size.

    A nonzero diagonal entry is a cycle of length one, so it is read first,
    before any pass over the whole input; a side x side ndarray is then
    read in row blocks (``_nonzero_entries``).
    """
    side = a.shape[0]
    if side % 2 or (a.diagonal() != 0).any():
        return None
    entries = _nonzero_entries(a)
    colour = None if entries is None else _two_colouring(entries)
    if colour is None or 2 * colour.sum() != side:
        return None
    p, q = np.flatnonzero(~colour), np.flatnonzero(colour)
    return [entries[p][:, q], entries[q][:, p]]


def _available_memory() -> float:
    """MemAvailable of /proc/meminfo in bytes; infinite where it is not read."""
    try:
        with open("/proc/meminfo") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError):
        return float("inf")


def _require_capacity(side: int) -> None:
    """Raise ``CapacityError`` unless the dense step's working set of
    ``_DENSE_ARRAYS`` side x side complex arrays fits in available memory."""
    need = _DENSE_ARRAYS * side * side * np.dtype(complex).itemsize
    available = _available_memory()
    if need > available:
        raise CapacityError(
            f"dense eigensolve of side {side} needs about {need / 2**30:.1f} GiB, "
            f"{available / 2**30:.1f} GiB is available"
        )
