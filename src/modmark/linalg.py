"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, spectral matrix powers A**z = V exp(z ln w) V^+,
operator norms, block-diagonal assembly, and the MODMARK_TOL factor that
scales every pinned residual tolerance in the package.  All randomness is
forbidden here: identical input bits give identical output bits, which is
what makes verification reports reproducible.  The one draw, the Lanczos
start vector, comes from a fixed seed.

`settle` holds the one rule by which every certified key is read: the
first of its bound formulas whose bracket settles the verdict gives the
value, else its fallback does.  `certified_value` holds the spectral
formulas of an operator norm, its excess over 1 and a smallest Hermitian
eigenvalue: a Frobenius bound, and from `LANCZOS_MIN_DIM` on a
Golub-Kahan-Lanczos Ritz value and Cholesky factors, before the dense call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonHermitian, NotPositiveDefinite

# Relative thresholds baked into the numeric contracts.
HERMITICITY_RTOL = 1e-12  # allowed |A - A^+|_F relative to |A|_F
PD_FLOOR_RTOL = 1e-12     # eigenvalues below this fraction of lambda_max count as singular
EIG_CONTRACT_RTOL = 1e-12  # reconstruction / orthonormality contract of herm_eig
DEFAULT_BASE_TOL = 1e-9


def base_tolerance() -> float:
    """Base residual tolerance; the MODMARK_TOL env var overrides the default."""
    raw = os.environ.get("MODMARK_TOL", "").strip()
    if not raw:
        return DEFAULT_BASE_TOL
    try:
        base = float(raw)
    except ValueError:
        base = None
    if base is None or not base > 0.0:
        raise ValueError(f"MODMARK_TOL must be a positive number, got {raw!r}")
    return base


def tolerance_factor() -> float:
    """How much MODMARK_TOL loosens (or tightens) the pinned check tolerances."""
    return base_tolerance() / DEFAULT_BASE_TOL


def power_condition_scale(kappa: float, max_abs_power: float) -> float:
    """Amplification kappa**p of floating-point error under real matrix powers."""
    return max(1.0, float(kappa) ** float(abs(max_abs_power)))


def as_cmatrix(a) -> np.ndarray:
    """Validate and normalize to a finite, 2-d complex128 array (row-major)."""
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("matrix entries must be finite")
    return arr


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def op_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_cmatrix(a), 2))


# The Lanczos top singular value stops once it moves by at most this much,
# relative, in one step.
_GKL_RTOL = 1e-14
_GKL_SEED = 0
# A matrix whose largest real or imaginary part lies outside this range is
# first scaled by a power of two, so that no squared norm of a step under-
# or overflows.
_GKL_SAFE = (1e-100, 1e100)


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> None:
    """Remove from x, in place and twice over, its components along the
    orthonormal rows of basis."""
    for _ in range(2):
        x -= basis.T @ (basis @ x.conj()).conj()


def _top_singular_value(a: np.ndarray) -> float:
    """Largest singular value of a finite 2-d complex matrix by Golub-Kahan-
    Lanczos bidiagonalisation (Golub & Kahan 1965).

    Both Lanczos bases are reorthogonalised in full, twice a step, and the
    start vector comes from a fixed seed, so equal bits in give equal bits
    out.  The value returned, the top singular value of the k x k bidiagonal
    B_k, is a Ritz value: a certified lower bound on |a|_op = s_1 up to
    rounding.  The iteration stops when it moves by at most `_GKL_RTOL`
    relative, on breakdown (a zero alpha or beta: the Krylov space is
    invariant), or after min(m, n) steps.  The stop looks at one step's move
    only, so when the top two singular values lie closer than ~1e-7
    relative it can fire before they are split: the value then lies in
    [s_2, s_1], not within rounding of s_1 (at N = 100 and gaps 1e-8 to
    1e-10 it fell 0.07 to 0.64 of the gap below s_1, by matrix).  It is
    within rounding of the SVD only when the top gap exceeds ~1e-7
    relative; a verdict taken from it stays certain either way, since a
    lower bound above tol is a fail.  a^+ u is formed as (u^+ a)^+, with no
    copy of a^+, and the bases and B grow by doubling.  Entries far from 1 are scaled first
    (`_GKL_SAFE`).
    """
    parts = a.ravel(order="K").view(np.float64)  # no copy, C or F order
    top = max(parts.max(initial=0.0), -parts.min(initial=0.0))
    if top and not _GKL_SAFE[0] <= top <= _GKL_SAFE[1]:
        scale = np.ldexp(1.0, -np.frexp(top)[1])  # exact both ways
        return _top_singular_value(a * scale) / scale
    m, n = a.shape
    steps = min(m, n)
    v = np.random.default_rng(_GKL_SEED).standard_normal(2 * n).view(np.complex128)
    v /= np.sqrt(np.vdot(v, v).real)
    size = min(steps, 16)
    vs = np.empty((size, n), dtype=np.complex128)
    us = np.empty((size, m), dtype=np.complex128)
    bid = np.zeros((size, size))
    ritz = beta = 0.0
    for k in range(steps):
        if k == size:
            size = min(2 * size, steps)
            vs = np.concatenate([vs, np.empty((size - k, n), dtype=np.complex128)])
            us = np.concatenate([us, np.empty((size - k, m), dtype=np.complex128)])
            bid = np.pad(bid, (0, size - k))
        vs[k] = v
        u = a @ v
        if k:
            bid[k - 1, k] = beta
            u -= beta * us[k - 1]
            _reorthogonalize(u, us[:k])
        alpha = np.sqrt(np.vdot(u, u).real)
        bid[k, k] = alpha
        prev, ritz = ritz, float(np.linalg.svd(bid[:k + 1, :k + 1], compute_uv=False)[0])
        if alpha == 0.0 or ritz - prev <= _GKL_RTOL * ritz or k + 1 == steps:
            return ritz
        us[k] = u = u / alpha
        w = (u.conj() @ a).conj()
        w -= alpha * v
        _reorthogonalize(w, vs[:k + 1])
        beta = np.sqrt(np.vdot(w, w).real)
        if beta == 0.0:
            return ritz
        v = w / beta
    return ritz


# From this size on, in both dimensions, `certified_value` takes the Lanczos
# route.  On masked flow products, one BLAS thread, the Lanczos kernel took
# 0.52-0.62 ms against 0.40-0.48 ms for the SVD at N = 64, and 0.70-1.02
# against 1.35-1.46 ms at N = 100.
LANCZOS_MIN_DIM = 100
# A Cholesky factor certifies a verdict only when the tolerance it is taken
# for exceeds this many times N eps the matrix's scale: below that, the
# rounding of the Gram matrix and of the factor could decide it.
CHOLESKY_MARGIN = 16.0
_EPS = float(np.finfo(float).eps)


def _has_cholesky(h: np.ndarray) -> bool:
    """Whether LAPACK factors the Hermitian h (its lower triangle) as L L^+."""
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _norm_below(a: np.ndarray, bound: float) -> bool:
    """|a|_op < bound, certified by a Cholesky factor of bound^2 1 - a^+ a."""
    h = a.conj().T @ a
    np.negative(h, out=h)
    h[np.diag_indices_from(h)] += bound * bound
    return _has_cholesky(h)


def _frob_or_inf(a: np.ndarray) -> float:
    """|a|_F, or inf where its sum of squares overflows: a bound that then
    certifies nothing."""
    with np.errstate(over="ignore"):
        return frob(a)


def settle(tol: float, steps, dense) -> float:
    """A residual's value read for its verdict residual <= tol: the one
    rule of every certified key.  steps are lazy bound formulas, called in
    order; each returns a bracket (lo, hi) with lo <= residual <= hi (-inf
    or inf for a missing end), or None where it does not apply.  The first
    bracket that does not straddle tol settles the key: hi <= tol is a
    certain pass and reads hi, lo > tol a certain fail and reads lo.  A
    straddle, lo <= tol < hi, and a nan end settle nothing (a nan never
    passes), and the next step is called.  A key no step settles reads
    dense(), the fallback, which runs only then.  So the verdict is the
    fallback's, a fail reads at or below it, and a pass at or above, but
    for the excess's Cholesky step (`certified_value`): it proves (lo, tol)
    and returns (lo, lo), its pass reading lo, so a record of brackets must
    take it as (lo, tol), the one hi that is not an upper bound.
    """
    for step in steps:
        bracket = step()
        if bracket is not None:
            lo, hi = bracket
            if hi <= tol:
                return hi
            if lo > tol:
                return lo
    return dense()


def certified_value(a, tol: float, kind: str = "norm") -> float:
    """A spectral value of a, read by `settle` for its verdict against tol;
    kind is "norm", |a|_op with the verdict |a|_op <= tol; "masked", the
    same for a masked copy whose caller's bound on |a|_F did not pass (no
    Frobenius step below the gate); "excess", max(0, |a|_op - 1) <= tol; or
    "min_eig", lambda_min >= -tol of the Hermitian a, settled as
    -lambda_min <= tol.

    The steps, r the Golub-Kahan-Lanczos Ritz value (`_top_singular_value`),
    a lower bound on |a|_op, from `LANCZOS_MIN_DIM` on in the smaller
    dimension (the gate):
    - a norm: |a|_F, an upper bound (inf where it overflows), then r;
    - "excess" from the gate: max(0, r - 1), then a Cholesky factor of
      (1 + tol)^2 1 - a^+ a, which certifies |a|_op < 1 + tol and returns
      (lo, lo), `settle`'s one narrow bracket, to keep the recorded bits;
    - "min_eig" from the gate: a Cholesky factor of a, which certifies
      lambda_min > 0 and reads 0.0 (the sp_ucp Choi blocks that the sector
      certificate of `markov.cp_min_eigenvalue` leaves to this route).
    A Cholesky step applies only when tol exceeds `CHOLESKY_MARGIN` N eps
    times the scale (1 for "excess", |a|_F for "min_eig"), so a tiny
    MODMARK_TOL or an overflowing |a|_F goes dense.  The fallback is the
    dense `np.linalg.svd` or `np.linalg.eigvalsh`; a Ritz value is within
    rounding of it when the top singular gap exceeds ~1e-7 relative.
    """
    if kind not in ("norm", "masked", "excess", "min_eig"):
        raise ValueError(f"unknown kind {kind!r}")
    a = as_cmatrix(a)
    large = min(a.shape) >= LANCZOS_MIN_DIM
    if kind == "min_eig":
        def factor():
            factored = tol > CHOLESKY_MARGIN * len(a) * _EPS * _frob_or_inf(a) and _has_cholesky(a)
            return (-np.inf, 0.0) if factored else None
        return -settle(tol, [factor] if large else [], lambda: -float(np.linalg.eigvalsh(a)[0]))

    def top() -> float:
        return float(np.linalg.svd(a, compute_uv=False)[0])

    if kind == "excess":
        steps = []
        if large:
            low = max(0.0, _top_singular_value(a) - 1.0)

            def factor():  # returns (lo, lo): its pass reads lo, as above
                below = tol > CHOLESKY_MARGIN * max(a.shape) * _EPS and _norm_below(a, 1.0 + tol)
                return (low, low) if below else None
            steps = [lambda: (low, np.inf), factor]
        return settle(tol, steps, lambda: max(0.0, top() - 1.0))

    def frobenius():
        return -np.inf, _frob_or_inf(a)

    def ritz():
        return _top_singular_value(a), np.inf
    if large:
        return settle(tol, [frobenius, ritz], top)
    return settle(tol, [frobenius] if kind == "norm" else [], top)


def block_diag(*mats) -> np.ndarray:
    """Block-diagonal matrix of 2-d blocks, in their `np.result_type`."""
    mats = [np.asarray(m) for m in mats]
    if any(m.ndim != 2 for m in mats):
        raise ValueError("block_diag takes 2-d blocks")
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)),
                   dtype=np.result_type(*[m.dtype for m in mats]))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition A = V diag(w) V^+ with w real ascending, V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def herm_eig(a) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Deterministic for identical input bits.  Raises NonHermitian when the
    symmetry defect exceeds HERMITICITY_RTOL relative to |A|_F, and
    NoConvergence when the eigensolver fails or the decomposition misses its
    reconstruction / orthonormality contract.
    """
    arr = as_cmatrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise NonHermitian(f"matrix of shape {arr.shape} is not square")
    nrm = frob(arr)
    defect = frob(arr - arr.conj().T)
    if defect > HERMITICITY_RTOL * nrm:
        raise NonHermitian(
            f"symmetry defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * |A|_F")
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver iteration budget exhausted") from exc
    n = arr.shape[0]
    recon = frob((v * w) @ v.conj().T - arr)
    ortho = frob(v.conj().T @ v - np.eye(n))
    if recon > EIG_CONTRACT_RTOL * max(1.0, nrm) or ortho > EIG_CONTRACT_RTOL * n:
        raise NoConvergence(
            f"eigendecomposition misses its accuracy contract "
            f"(reconstruction {recon:.3e}, orthonormality {ortho:.3e})")
    return HermEig(w, v)


def require_positive_definite(w: np.ndarray) -> None:
    """Refuse an ascending spectrum whose smallest eigenvalue is at or below
    the floor PD_FLOOR_RTOL * w_max (NotPositiveDefinite)."""
    lam_max = float(w[-1])
    if lam_max <= 0.0 or float(w[0]) <= PD_FLOOR_RTOL * lam_max:
        raise NotPositiveDefinite(
            f"eigenvalue {float(w[0]):.3e} at or below the singular floor "
            f"{PD_FLOOR_RTOL * lam_max:.3e}")


def matrix_power_from_eig(eig: HermEig, z: complex) -> np.ndarray:
    """Spectral power V diag(exp(z ln w)) V^+ from a precomputed decomposition.

    Requires a positive-definite spectrum: every eigenvalue must clear the
    floor PD_FLOOR_RTOL * w_max.  z = 0 returns the identity exactly.
    """
    w = eig.eigenvalues
    require_positive_definite(w)
    z = complex(z)
    if z == 0:
        return np.eye(eig.dim, dtype=np.complex128)
    powered = np.exp(z * np.log(w.astype(np.complex128)))
    return (eig.eigenvectors * powered) @ eig.eigenvectors.conj().T


def matrix_power(a, z: complex) -> np.ndarray:
    """A**z for positive-definite Hermitian A via the principal logarithm.

    For real z the result is Hermitian positive definite, for purely
    imaginary z it is unitary, and powers satisfy the group law
    A**z1 @ A**z2 = A**(z1+z2) up to roundoff.
    """
    return matrix_power_from_eig(herm_eig(a), z)
