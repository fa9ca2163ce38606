"""Block algebras, their elements, and faithful states.

An algebra here is a finite direct sum of full complex matrix blocks with
dimensions [n_1, ..., n_K].  Elements carry one square matrix per block.
A faithful state is stored through its density: a Hermitian positive-definite
block element D with total trace one, paired with elements as
phi(x) = sum_k Tr(D_k x_k).

Coordinates: an element maps to the vector obtained by column-stacking each
block and concatenating the blocks in order.  Everything superoperator-shaped
downstream (channels, modular powers, extensions) acts on these coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NotPositiveDefinite, ShapeMismatch
from .linalg import (
    HERMITICITY_RTOL,
    PD_FLOOR_RTOL,
    HermEig,
    as_cmatrix,
    herm_eig,
)

TRACE_ATOL = 1e-12


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks, identified by its block dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError(f"block dims must be positive integers, got {self.block_dims!r}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def coord_dim(self) -> int:
        """Dimension of the coordinate space, sum of n_k**2."""
        return int(sum(n * n for n in self.block_dims))

    @property
    def carrier_dim(self) -> int:
        """Dimension of the underlying carrier space, sum of n_k."""
        return int(sum(self.block_dims))

    @property
    def coord_offsets(self) -> tuple[int, ...]:
        offs, acc = [], 0
        for n in self.block_dims:
            offs.append(acc)
            acc += n * n
        return tuple(offs)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=np.complex128) for n in self.block_dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), dtype=np.complex128) for n in self.block_dims])


class AlgebraElement:
    """Element of a block algebra: one square complex matrix per block."""

    __slots__ = ("parent", "blocks")

    def __init__(self, parent: BlockAlgebra, blocks):
        mats = [as_cmatrix(b) for b in blocks]
        if len(mats) != parent.num_blocks:
            raise ShapeMismatch(
                f"expected {parent.num_blocks} blocks, got {len(mats)}")
        for b, n in zip(mats, parent.block_dims):
            if b.shape != (n, n):
                raise ShapeMismatch(f"block of shape {b.shape} does not fit dim {n}")
        self.parent = parent
        self.blocks = mats

    def _same_parent(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement) or other.parent != self.parent:
            raise ShapeMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._same_parent(other)
        return AlgebraElement(self.parent, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._same_parent(other)
        return AlgebraElement(self.parent, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement(self.parent, [-a for a in self.blocks])

    def __mul__(self, scalar):
        return AlgebraElement(self.parent, [complex(scalar) * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._same_parent(other)
        return AlgebraElement(self.parent, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, [a.conj().T for a in self.blocks])

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def inner(self, other: "AlgebraElement") -> complex:
        """<self, other> = sum_k Tr(other_k^+ self_k); linear in self."""
        self._same_parent(other)
        return complex(sum(np.vdot(b, a) for a, b in zip(self.blocks, other.blocks)))

    def norm(self) -> float:
        """Frobenius norm across all blocks."""
        return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in self.blocks)))

    def allclose(self, other, atol: float = 1e-12) -> bool:
        self._same_parent(other)
        return all(np.allclose(a, b, rtol=0.0, atol=atol)
                   for a, b in zip(self.blocks, other.blocks))

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, [a.copy() for a in self.blocks])

    def __repr__(self):
        return f"AlgebraElement(dims={self.parent.block_dims}, norm={self.norm():.3e})"


class FaithfulState:
    """Faithful state phi(x) = sum_k Tr(D_k x_k).

    The density D must be Hermitian positive definite blockwise (that is the
    faithfulness) with total trace one.  The per-block eigendecompositions are
    computed once at construction and reused by the modular machinery.
    """

    __slots__ = ("parent", "density", "block_eigs")

    def __init__(self, density: AlgebraElement):
        eigs = [herm_eig(b) for b in density.blocks]
        lam_max = max(float(e.eigenvalues[-1]) for e in eigs)
        lam_min = min(float(e.eigenvalues[0]) for e in eigs)
        if lam_max <= 0.0 or lam_min <= PD_FLOOR_RTOL * lam_max:
            raise NotPositiveDefinite(
                f"density eigenvalue {lam_min:.3e} at or below the faithfulness "
                f"floor {PD_FLOOR_RTOL * lam_max:.3e}")
        tr = density.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density trace {tr} is not 1 within {TRACE_ATOL:.0e}")
        self.parent = density.parent
        self.density = density
        self.block_eigs: list[HermEig] = eigs

    @property
    def kappa(self) -> float:
        """Global eigenvalue ratio lambda_max / lambda_min of the density."""
        lam_max = max(float(e.eigenvalues[-1]) for e in self.block_eigs)
        lam_min = min(float(e.eigenvalues[0]) for e in self.block_eigs)
        return lam_max / lam_min

    def __call__(self, x: AlgebraElement) -> complex:
        return evaluate_state(self, x)

    def __repr__(self):
        return f"FaithfulState(dims={self.parent.block_dims}, kappa={self.kappa:.3g})"


def evaluate_state(s: FaithfulState, x: AlgebraElement) -> complex:
    """The pairing phi(x) = sum_k Tr(D_k x_k)."""
    if x.parent != s.parent:
        raise ShapeMismatch("element does not live on the state's algebra")
    return complex(sum(np.trace(d @ b) for d, b in zip(s.density.blocks, x.blocks)))


def matrix_units(alg: BlockAlgebra) -> Iterator[AlgebraElement]:
    """Spanning basis of matrix units, enumerated in coordinate order.

    Within block k the unit E_ab appears at coordinate offset_k + a + n_k*b
    (column-stacking), so zipping with range(coord_dim) gives each unit's
    coordinate index.
    """
    for k, n in enumerate(alg.block_dims):
        for b in range(n):
            for a in range(n):
                blocks = [np.zeros((m, m), dtype=np.complex128) for m in alg.block_dims]
                blocks[k][a, b] = 1.0
                yield AlgebraElement(alg, blocks)


def to_coords(x) -> np.ndarray:
    """Column-stack each block and concatenate blocks in order."""
    return np.concatenate([b.flatten(order="F") for b in x.blocks])


def blocks_from_coords(alg: BlockAlgebra, vec: np.ndarray) -> list[np.ndarray]:
    v = np.asarray(vec, dtype=np.complex128).ravel()
    if v.shape[0] != alg.coord_dim:
        raise ShapeMismatch(
            f"coordinate vector of length {v.shape[0]} does not fit "
            f"coordinate dimension {alg.coord_dim}")
    out = []
    for off, n in zip(alg.coord_offsets, alg.block_dims):
        out.append(v[off:off + n * n].reshape((n, n), order="F"))
    return out


def element_from_coords(alg: BlockAlgebra, vec: np.ndarray) -> AlgebraElement:
    return AlgebraElement(alg, blocks_from_coords(alg, vec))


def random_element(alg: BlockAlgebra, seed: int, kind: str = "general") -> AlgebraElement:
    """Seeded random element; deterministic per (seed, kind, algebra).

    kinds: general (complex Gaussian entries), hermitian ((G+G^+)/2),
    positive (G G^+ plus a relative floor), unitary (QR with the triangular
    factor's diagonal made positive real).
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for n in alg.block_dims:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        if kind == "general":
            b = g
        elif kind == "hermitian":
            b = (g + g.conj().T) / 2.0
        elif kind == "positive":
            b = g @ g.conj().T
            lam_max = float(np.linalg.eigvalsh(b)[-1])
            b = b + PD_FLOOR_RTOL * max(lam_max, 1.0) * np.eye(n)
        elif kind == "unitary":
            q, r = np.linalg.qr(g)
            d = np.diagonal(r).copy()
            d[np.abs(d) == 0.0] = 1.0
            b = q * (d / np.abs(d))
        else:
            raise ValueError(f"unknown element kind {kind!r}")
        blocks.append(b)
    return AlgebraElement(alg, blocks)


__all__ = [
    "BlockAlgebra",
    "AlgebraElement",
    "FaithfulState",
    "evaluate_state",
    "matrix_units",
    "to_coords",
    "blocks_from_coords",
    "element_from_coords",
    "random_element",
    "HERMITICITY_RTOL",
]
