"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, spectral matrix powers A**z = V exp(z ln w) V^+,
operator norms, block-diagonal assembly, and the MODMARK_TOL factor that
scales every pinned residual tolerance in the package.  All randomness is forbidden here: identical input
bits give identical output bits, which is what makes verification reports
reproducible.
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


def max_column_norm(a: np.ndarray) -> float:
    """Largest Euclidean column norm: the worst image of a coordinate unit."""
    return float(np.max(np.linalg.norm(a, axis=0)))


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


def matrix_power_from_eig(eig: HermEig, z: complex) -> np.ndarray:
    """Spectral power V diag(exp(z ln w)) V^+ from a precomputed decomposition.

    Requires a positive-definite spectrum: every eigenvalue must clear the
    floor PD_FLOOR_RTOL * w_max.  z = 0 returns the identity exactly.
    """
    w = eig.eigenvalues
    lam_max = float(w[-1])
    if lam_max <= 0.0 or float(w[0]) <= PD_FLOOR_RTOL * lam_max:
        raise NotPositiveDefinite(
            f"eigenvalue {float(w[0]):.3e} at or below the singular floor "
            f"{PD_FLOOR_RTOL * lam_max:.3e}")
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
