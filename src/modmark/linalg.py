"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, spectral matrix powers A**z = V exp(z ln w) V^+,
operator norms, block-diagonal assembly, and the MODMARK_TOL factor that
scales every pinned residual tolerance in the package.  All randomness is
forbidden here: identical input bits give identical output bits, which is
what makes verification reports reproducible.

`settle` holds the one rule by which every certified key is read: the
first of its bound formulas whose bracket settles the verdict gives the
value, else its fallback does.  `certified_value` holds the spectral
formulas of an operator norm, its excess over 1 and a smallest Hermitian
eigenvalue, the same at every size: a Frobenius bound, an O(N^2) lower
bound on the norm and Cholesky factors, before the dense call.
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


# A Cholesky factor certifies a verdict only when the tolerance it is taken
# for exceeds this many times N eps the matrix's scale: below that, the
# rounding of the Gram matrix and of the factor could decide it.
CHOLESKY_MARGIN = 16.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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
    """|a|_F, or inf where its sum of squares overflows, or lies below the
    smallest normal float while a is nonzero, where underflow could have
    dropped every square (as in `_norm_lower_bound`): a bound that then
    certifies nothing."""
    with np.errstate(over="ignore", under="ignore"):
        norm = frob(a)
    return np.inf if norm * norm < _TINY and a.any() else norm


def _norm_lower_bound(a: np.ndarray) -> float | None:
    """b = (1 - 4 (m + n) eps) max(max row norm, max column norm, |a y| / |y|)
    <= |a|_op in O(mn), y = a^+ a_j for a_j the heaviest column (one power
    step; Kuczynski & Wozniakowski 1992, Higham 1992); the factor covers
    rounding.  The sums of squares are taken on the float64 view of a, in
    any layout, and a^+ a_j as (a_j^+ a)^+: no m x n temporary, no copy of
    a^+.  None where a sum overflows, which bounds nothing; 0 where every
    sum lies below the smallest normal float, where underflow could round
    one up."""
    m, n = a.shape
    parts = a[..., None].view(np.float64)  # (m, n, 2), real and imaginary parts
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rows = np.einsum("ijk,ijk->i", parts, parts)
        cols = np.einsum("ijk,ijk->j", parts, parts)
        j = int(np.argmax(cols))
        top = max(float(rows.max()), float(cols[j]))
        if not top < np.inf:
            return None
        if top < _TINY:
            return 0.0
        y = ((a[:, j].conj() / np.sqrt(cols[j])) @ a).conj()
        power = float(np.linalg.norm(a @ (y / np.linalg.norm(y))))
    b = (1.0 - 4.0 * (m + n) * _EPS) * np.fmax(np.sqrt(top), power)  # drops a nan power
    return float(b) if b < np.inf else None


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
    kind is "norm", |a|_op with the verdict |a|_op <= tol; "excess",
    max(0, |a|_op - 1) <= tol; or "min_eig", lambda_min >= -tol of the
    Hermitian a, settled as -lambda_min <= tol.

    The steps, the same at every size, b the O(N^2) lower bound on |a|_op
    (`_norm_lower_bound`):
    - "norm": |a|_F, an upper bound (inf where it overflows or underflows,
      `_frob_or_inf`), then the fail step (b, inf);
    - "excess": the fail step (lo, inf), lo = max(0, b - 1), which, where
      it straddles, a Cholesky factor of (1 + tol)^2 1 - a^+ a closes to
      (lo, lo), `settle`'s one narrow bracket: it certifies
      |a|_op < 1 + tol, and its pass reads the same lo;
    - "min_eig": a Cholesky factor of a, which certifies lambda_min > 0
      and reads 0.0.
    A fail step whose sums overflow settles nothing, and takes no Cholesky
    factor.  A Cholesky step applies only when tol exceeds
    `CHOLESKY_MARGIN` N eps times the scale (1 for "excess", |a|_F for
    "min_eig"), so a tiny MODMARK_TOL or an overflowing |a|_F goes dense.
    The fallback is the dense `np.linalg.svd` or `np.linalg.eigvalsh`, so
    a fail reads at or below the dense value.
    """
    if kind not in ("norm", "excess", "min_eig"):
        raise ValueError(f"unknown kind {kind!r}")
    a = as_cmatrix(a)
    if kind == "min_eig":
        def factor():
            factored = tol > CHOLESKY_MARGIN * len(a) * _EPS * _frob_or_inf(a) and _has_cholesky(a)
            return (-np.inf, 0.0) if factored else None
        return -settle(tol, [factor], lambda: -float(np.linalg.eigvalsh(a)[0]))

    def top() -> float:
        return float(np.linalg.svd(a, compute_uv=False)[0])

    def fail():
        b = _norm_lower_bound(a)
        return None if b is None else (b, np.inf)
    if kind == "norm":
        return settle(tol, [lambda: (-np.inf, _frob_or_inf(a)), fail], top)

    def fail_or_factor():  # (lo, lo) where the factor certifies: its pass reads lo
        b = _norm_lower_bound(a)
        if b is None:
            return None
        lo = max(0.0, b - 1.0)
        below = (lo <= tol and tol > CHOLESKY_MARGIN * max(a.shape) * _EPS
                 and _norm_below(a, 1.0 + tol))
        return (lo, lo) if below else (lo, np.inf)
    return settle(tol, [fail_or_factor], lambda: max(0.0, top() - 1.0))


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
