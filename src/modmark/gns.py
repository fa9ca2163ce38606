"""GNS representation of a faithful state in matrix coordinates.

A GNS vector is one matrix per block, so it is an `AlgebraElement` with the
inner product <xi, eta> = sum_k Tr(eta_k^+ xi_k) (`AlgebraElement.inner`);
the algebra acts on it by `x @ xi` and its commutant by `xi @ y`.  An
algebra element x embeds as x D^{1/2}, so the cyclic unit vector is D^{1/2}
itself.  Every modular object is then a closed-form function of the
density's eigendecomposition:

    conjugation   J(xi)      = xi^+              (conjugate-linear involution,
                                                  `AlgebraElement.adjoint`)
    positive op   Delta(xi)  = D xi D^{-1}, complex powers D^z xi D^{-z}
    involution    S          = J o Delta^{1/2},  so S(x D^{1/2}) = x^+ D^{1/2}
    flow          sigma_t(x) = D^{it} x D^{-it}

Complex powers D^z are the spectral ones, V diag(exp(z log w)) V^+, formed
for a whole tuple of exponents at once as block-diagonal matrices on the
carrier C^c, c = sum n_k (`d_power_stack`), and applied by multiplying
blocks, never by materializing the coordinate-space superoperator.  Code
that needs Delta^z as a matrix works in the density eigenframe G = (+)_k
V_k^T kron V_k^+ instead: there left and right multiplication by D^p are
the diagonals lambda_a^p and lambda_b^p of entry (a, b), and Delta^z is the
diagonal exp(z omega), omega = log lambda_a - log lambda_b being the flow
frequency.  Matrices move into and out of the frame through
`ModularData.frame_left` and `frame_right`.  Below N = sum n_k^2 =
`FRAME_MIN_DIM` these multiply by the dense N x N frame
(`ModularData.frame`); from it on they apply G by its Kronecker factors,
vec(A X B) = (B^T kron A) vec(X) (Van Loan 2000, "The ubiquitous Kronecker
product"): two GEMMs per block on (N n, n) reshapes, O(N n^3) where the
dense product is O(N^3), and no N x N frame is formed.  G is unitary to
`herm_eig`'s contract, so an operator norm read in the frame is the norm
in coordinates, and no norm takes a product by G.  Which frequencies are
equal is decided here alone: `frequency_labels` at `label_radius`.

All of it is numpy: the module imports no scipy.  The independent
logm/expm route for the unitary flow, the analytic-vector check, is a test
oracle (tests/test_gns.py), since scipy is a test dependency only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, FaithfulState
from .errors import BadQuadrature, PowerRangeExceeded, ShapeMismatch
from .linalg import EIG_CONTRACT_RTOL, block_diag, require_positive_definite

# Cap on |Re z| for the complex powers Delta^z and D^z: beyond it no
# residual tolerance vouches for the result, so the call refuses.
Z_MAX = 2.0

# From this coordinate dimension N = sum n_k^2 on, the frame is applied by
# its Kronecker factors.  One BLAS thread, a product of an N x N matrix with
# the frame took 0.49 ms dense against 0.39 ms factored at N = 144, and
# 2.7 against 1.6 ms at N = 256; below the gate the dense products keep
# their bits.
FRAME_MIN_DIM = 100


def label_radius(*states: FaithfulState) -> float:
    """r = 4 EIG_CONTRACT_RTOL sum kappa, the radius of `frequency_labels`
    for the frequencies, or the Choi labels log mu_i - log lambda_a, of the
    given states.  eigh is backward stable, so by Weyl's inequality each
    eigenvalue lies within ~n eps lambda_max of its exact value, inside the
    EIG_CONTRACT_RTOL of `herm_eig`'s contract, and each log lambda within
    EIG_CONTRACT_RTOL kappa of its own: values equal in exact arithmetic,
    of one state or two, lie within r of each other once computed (Davis
    and Kahan 1970, "The rotation of eigenvectors by a perturbation. III")."""
    return 4.0 * EIG_CONTRACT_RTOL * sum(s.kappa for s in states)


def frequency_labels(values: np.ndarray, radius: float) -> np.ndarray:
    """Integer labels 0, 1, ... of reals, in ascending order of value: in
    sorted order a new label starts at every gap above radius, so values
    chained by gaps of at most radius share one (merging is the safe side:
    every sector bound holds for any labels, and only the twirl keeps a
    larger class).  A value's label is the number of label starts at or
    below it.  The one rule by which the package takes two frequencies as
    equal: the sector split, the Choi groups and the twirl read its labels
    at `label_radius`."""
    ranked = np.sort(values)
    return np.searchsorted(ranked[1:][np.diff(ranked) > radius], values, side="right")


def _sandwich_columns(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(b^T kron a) m: each column of m, read as a column-stacked n x n
    matrix C, replaced by vec(a C b).  One batched and one plain GEMM."""
    n, p = len(a), m.shape[1]
    y = a @ m.reshape(n, n, p)  # [j, i', c] = (a C_c)[i', j]
    return (b.T @ y.reshape(n, n * p)).reshape(n * n, p)


def _sandwich_rows(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m (b kron a^T) = ((b^T kron a) m^T)^T: each row of m, read as a
    column-stacked n x n matrix R, replaced by vec(a R b).  One batched and
    one plain GEMM."""
    n, p = len(a), m.shape[0]
    y = b.T @ m.reshape(p, n, n)  # [r, j', i] = (R_r b)[i, j']
    return (y.reshape(p * n, n) @ a.T).reshape(p, n * n)


class ModularData:
    """The full modular package of a faithful state.

    Holds the per-block eigendecomposition of the density and the cyclic
    vector omega = D^{1/2}; the spectrum of the positive modular operator is
    exp(`frequencies`).  Real parts of complex powers are capped at Z_MAX.
    """

    def __init__(self, state: FaithfulState):
        self.state = state
        self.algebra = state.parent
        self.d_eig = list(state.block_eigs)
        self._power_cache: dict[tuple[complex, ...], np.ndarray] = {}

    @cached_property
    def omega(self) -> AlgebraElement:
        """The cyclic vector D^{1/2}."""
        return AlgebraElement(self.algebra, self.d_power_blocks(0.5))

    @cached_property
    def frame(self) -> np.ndarray:
        """Unitary coordinate change into the density eigenbasis,
        blockwise V^T kron V^+ (coords of x |-> coords of V^+ x V), as a dense
        N x N matrix: the products below `FRAME_MIN_DIM` use it, and from
        there on only tests do."""
        return block_diag(
            *[np.kron(e.eigenvectors.T, e.eigenvectors.conj().T) for e in self.d_eig])

    @property
    def factored(self) -> bool:
        """Whether the frame products apply G by its factors (N >= `FRAME_MIN_DIM`)."""
        return self.algebra.coord_dim >= FRAME_MIN_DIM

    def _by_block(self, m: np.ndarray, axis: int, sandwich, factors) -> np.ndarray:
        """sandwich(piece, *factors(V_k)) on the slice of each block k along
        axis of m, assembled in a new array."""
        out = np.empty(m.shape, dtype=np.complex128)
        for off, e in zip(self.algebra.coord_offsets, self.d_eig):
            cut = slice(off, off + e.dim * e.dim)
            if axis == 0:
                out[cut] = sandwich(m[cut], *factors(e.eigenvectors))
            else:
                out[:, cut] = sandwich(m[:, cut], *factors(e.eigenvectors))
        return out

    def frame_left(self, m: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """G m, or G^+ m with adjoint: m's rows are this state's coordinates,
        and each column c of block k becomes vec(V^+ c V) (vec(V c V^+))."""
        if not self.factored:
            return (self.frame.conj().T if adjoint else self.frame) @ m
        factors = (lambda v: (v, v.conj().T)) if adjoint else (lambda v: (v.conj().T, v))
        return self._by_block(m, 0, _sandwich_columns, factors)

    def frame_right(self, m: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """m G, or m G^+ with adjoint: m's columns are this state's
        coordinates, and each row r of block k becomes vec(conj(V) r V^T)
        (vec(V^T r conj(V)))."""
        if not self.factored:
            return m @ (self.frame.conj().T if adjoint else self.frame)
        factors = (lambda v: (v.T, v.conj())) if adjoint else (lambda v: (v.conj(), v.T))
        return self._by_block(m, 1, _sandwich_rows, factors)

    @cached_property
    def lambda_a(self) -> np.ndarray:
        """lambda_a of eigenframe entry (a, b), column-stacked like coords."""
        return np.concatenate([np.tile(e.eigenvalues, e.dim) for e in self.d_eig])

    @cached_property
    def lambda_b(self) -> np.ndarray:
        """lambda_b of eigenframe entry (a, b)."""
        return np.concatenate([np.repeat(e.eigenvalues, e.dim) for e in self.d_eig])

    @cached_property
    def carrier_logs(self) -> np.ndarray:
        """log lambda_p over the carrier C^c, block by block."""
        return np.log(np.concatenate([e.eigenvalues for e in self.d_eig]))

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Flow frequency log lambda_a - log lambda_b of entry (a, b)."""
        return np.log(self.lambda_a) - np.log(self.lambda_b)

    def delta_power_diagonals(self, zs) -> np.ndarray:
        """Eigenframe diagonals of Delta^z, exp(z omega), stacked over zs; |Re z| <= Z_MAX."""
        zs = np.array(zs, dtype=np.complex128)
        if zs.size:
            self._check_range(zs[np.abs(zs.real).argmax()])
        return np.exp(zs[:, None] * self.frequencies)

    @cached_property
    def _carrier_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """The density on the carrier C^c (c = sum n_k) as (V, log w): V the
        block-diagonal eigenvectors, log w the complex logarithms of the
        eigenvalues.  Refuses, with NotPositiveDefinite, a block whose
        spectrum is at or below the floor PD_FLOOR_RTOL * w_max."""
        for e in self.d_eig:
            require_positive_definite(e.eigenvalues)
        logw = np.log(np.concatenate([e.eigenvalues for e in self.d_eig]).astype(np.complex128))
        return block_diag(*[e.eigenvectors for e in self.d_eig]), logw

    def d_power_stack(self, zs) -> np.ndarray:
        """D**z for each z in zs, as block-diagonal carrier matrices stacked
        along a leading axis, shape (len(zs), c, c).  Only the last tuple's
        stack is cached: the one reuse is the gns pass's second call when
        source is target.

        The spectral powers V diag(exp(z log w)) V^+ of every block and every
        z in one batched product; z = 0 gives the identity exactly, and every
        z must satisfy |Re z| <= Z_MAX.  This is the one place the powers are
        formed: `d_power_blocks` (and through it `omega`, `delta_power` and
        `modular_flow`) and `modular_smear` read them from here.
        """
        zs = tuple(zs)
        self._check_range(max(zs, key=lambda z: abs(complex(z).real), default=0))
        hit = self._power_cache.get(zs)
        if hit is None:
            v, logw = self._carrier_eig
            z = np.array(zs, dtype=np.complex128)
            hit = (v * np.exp(z[:, None] * logw)[:, None, :]) @ v.conj().T
            hit[z == 0] = np.eye(len(logw))
            hit.flags.writeable = False
            self._power_cache = {zs: hit}
        return hit

    def d_power_blocks(self, z: complex) -> list[np.ndarray]:
        """Blockwise D**z, the diagonal blocks of `d_power_stack((z,))`."""
        power = self.d_power_stack((z,))[0]
        ends = np.cumsum(self.algebra.block_dims)
        return [power[e - n:e, e - n:e].copy() for e, n in zip(ends, self.algebra.block_dims)]

    def _check_range(self, z: complex) -> complex:
        z = complex(z)
        if abs(z.real) > Z_MAX:
            raise PowerRangeExceeded(f"|Re z| = {abs(z.real)} exceeds Z_MAX = {Z_MAX}")
        return z

    def delta_power(self, z: complex, xi: AlgebraElement) -> AlgebraElement:
        """xi |-> D^z xi D^{-z} for |Re z| <= Z_MAX."""
        if xi.parent != self.algebra:
            raise ShapeMismatch("vector does not live on the state's space")
        z = self._check_range(z)
        dp = self.d_power_blocks(z)
        dm = self.d_power_blocks(-z)
        return AlgebraElement(self.algebra, [p @ b @ m for p, b, m in zip(dp, xi.blocks, dm)])

    def modular_flow(self, t: float, x: AlgebraElement) -> AlgebraElement:
        """sigma_t(x) = D^{it} x D^{-it}, a state-preserving *-automorphism:
        `delta_power` at z = it."""
        if x.parent != self.algebra:
            raise ShapeMismatch("element does not live on the state's algebra")
        return self.delta_power(1j * float(t), x)

    def modular_smear(self, x: AlgebraElement, f, half_width: float,
                      step: float) -> AlgebraElement:
        """Trapezoidal quadrature of integral f(t) sigma_t(x) dt over [-L, L].

        f is sampled on a uniform grid of spacing ~step; no adaptive scheme.
        Each sigma_t(x) is D^{it} x D^{-it}, the powers of the whole +-it grid
        taken from one `d_power_stack` call.  A normalized kernel
        concentrating at t = 0 reproduces x in the limit.
        """
        if x.parent != self.algebra:
            raise ShapeMismatch("element does not live on the state's algebra")
        half_width = float(half_width)
        step = float(step)
        if not (half_width > 0.0 and 0.0 < step < half_width):
            raise BadQuadrature(
                f"need 0 < step < half_width, got step={step}, half_width={half_width}")
        m = int(round(2.0 * half_width / step)) + 1
        ts = np.linspace(-half_width, half_width, m)
        fs = np.asarray([float(f(t)) for t in ts])
        if not np.all(np.isfinite(fs)):
            raise BadQuadrature("kernel samples must be finite")
        powers = self.d_power_stack(tuple(1j * ts) + tuple(-1j * ts))
        ends = np.cumsum(self.algebra.block_dims)
        out = []
        for e, n, b in zip(ends, self.algebra.block_dims, x.blocks):
            p = powers[:, e - n:e, e - n:e]  # D^{it}, then D^{-it}, on block k
            out.append(np.trapezoid(fs[:, None, None] * (p[:m] @ b @ p[m:]), ts, axis=0))
        return AlgebraElement(self.algebra, out)


__all__ = [
    "ModularData",
    "Z_MAX",
    "frequency_labels",
    "label_radius",
]
