"""Channels between block algebras and their induced GNS-space contractions.

A channel is carried as a superoperator matrix on the column-stacked block
coordinates of `algebra`, with a (algebra, state) pair on each end.  Kraus
lists and Choi collections are fixed index maps of its blocks: a Kraus list
enters as a sum of krons per block, the Choi collection and its inverse are
block reshapes, and the tensor product is an outer product per block pair.
The superoperator is canonical because membership checks, twirling, and
every verification residual are plain linear algebra on it.  Each channel
caches it once in the density eigenframes, X = G_t S G_s^+
(`Channel.eigen_superop`); the flow check, the twirl and the GNS extension
are masks and reweightings of X.

Orientation, fixed package-wide: a channel maps its source algebra into its
target algebra, state compatibility means target_state(ch(x)) = source_state(x),
and flow compatibility means ch o sigma_t^source = sigma_t^target o ch.
Membership in the compatible class is *reported* (four residuals with
verdicts), never assumed: probing channels that fail the flow condition is
how the verification layer exhibits that the condition carries force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    element_from_coords,
    to_coords,
)
from .errors import (
    BadWeights,
    EmptyKraus,
    NotMarkov,
    NotStatePreserving,
    ShapeMismatch,
)
from .gns import DEFAULT_Z_MAX, ModularData
from .linalg import Tolerance, as_cmatrix, base_tolerance, max_column_norm

DEFAULT_FLOW_SAMPLES = (1.0, -1.0, 0.37, -0.37, 5.0)
STATE_MATCH_ATOL = 1e-12


class System:
    """A block algebra together with a faithful state on it."""

    def __init__(self, state: FaithfulState, z_max: float = DEFAULT_Z_MAX):
        self.state = state
        self.algebra = state.parent
        self.z_max = float(z_max)

    @cached_property
    def modular(self) -> ModularData:
        return ModularData(self.state, self.z_max)

    @property
    def coord_dim(self) -> int:
        return self.algebra.coord_dim

    def __repr__(self):
        return f"System(dims={self.algebra.block_dims}, kappa={self.state.kappa:.3g})"


def same_system(a: System, b: System, atol: float = STATE_MATCH_ATOL) -> bool:
    """Same algebra and same density up to atol (used to gate composition)."""
    return a.algebra == b.algebra and a.state.density.allclose(b.state.density, atol=atol)


# ---------------------------------------------------------------------------
# superoperator building blocks
# ---------------------------------------------------------------------------

def left_mult_superop(x: AlgebraElement) -> np.ndarray:
    """Matrix of v |-> x v on block coordinates (column stacking)."""
    return scipy.linalg.block_diag(
        *[np.kron(np.eye(n), b) for b, n in zip(x.blocks, x.parent.block_dims)])


def right_mult_superop(x: AlgebraElement) -> np.ndarray:
    """Matrix of v |-> v x on block coordinates."""
    return scipy.linalg.block_diag(
        *[np.kron(b.T, np.eye(n)) for b, n in zip(x.blocks, x.parent.block_dims)])


def sandwich_superop(blocks: list[np.ndarray]) -> np.ndarray:
    """Matrix of v |-> a v a for one square matrix a per block."""
    return scipy.linalg.block_diag(*[np.kron(b.T, b) for b in blocks])


def adjoint_index(alg: BlockAlgebra) -> np.ndarray:
    """Index form of the adjoint permutation: coords(x^+) = conj(coords(x))[idx]."""
    return np.concatenate([off + np.arange(n * n).reshape(n, n).T.ravel()
                           for off, n in zip(alg.coord_offsets, alg.block_dims)])


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

class Channel:
    """Linear map from the source algebra to the target algebra."""

    def __init__(self, source: System, target: System, superop):
        sup = as_cmatrix(superop)
        if sup.shape != (target.coord_dim, source.coord_dim):
            raise ShapeMismatch(
                f"superoperator shape {sup.shape} does not fit "
                f"({target.coord_dim}, {source.coord_dim})")
        self.source = source
        self.target = target
        self.superop = sup

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.parent != self.source.algebra:
            raise ShapeMismatch("element does not live on the channel's source")
        return element_from_coords(self.target.algebra, self.superop @ to_coords(x))

    @cached_property
    def eigen_superop(self) -> np.ndarray:
        """X = G_t superop G_s^+, the channel in the density eigenframes,
        always computed from `superop` whatever built the channel."""
        return (self.target.modular.frame @ self.superop
                @ self.source.modular.frame.conj().T)

    def __repr__(self):
        return (f"Channel({self.source.algebra.block_dims} -> "
                f"{self.target.algebra.block_dims})")


def identity_channel(sys: System) -> Channel:
    return Channel(sys, sys, np.eye(sys.coord_dim))


def channel_from_kraus(kraus, source: System, target: System) -> Channel:
    """Channel x |-> sum_i K_i^+ x K_i, compressed to the target blocks.

    Each K_i maps the target carrier into the source carrier (shape
    source.carrier_dim x target.carrier_dim); the final compression onto the
    target block diagonal is a conditional expectation, itself completely
    positive, so the result is completely positive by construction.  It is
    unital exactly when sum_i K_i^+ K_i = 1.

    Superoperator block (j, k) is sum_i kron(A_i^T, A_i^+), A_i the (source
    block k rows, target block j columns) piece of K_i, because column
    stacking gives vec(A^+ x A) = kron(A^T, A^+) vec(x).
    """
    if not kraus:
        raise EmptyKraus("need at least one Kraus operator")
    ns = source.algebra.carrier_dim
    nt = target.algebra.carrier_dim
    ops = [as_cmatrix(k) for k in kraus]
    for m in ops:
        if m.shape != (ns, nt):
            raise ShapeMismatch(
                f"Kraus operator of shape {m.shape} does not fit ({ns}, {nt})")
    ops = np.stack(ops)
    s_cut = np.cumsum((0,) + source.algebra.block_dims)
    t_cut = np.cumsum((0,) + target.algebra.block_dims)
    pieces = [[ops[:, s0:s1, t0:t1] for s0, s1 in zip(s_cut, s_cut[1:])]
              for t0, t1 in zip(t_cut, t_cut[1:])]
    return Channel(source, target, np.block([
        [np.einsum("irp,isq->pqrs", a, a.conj()).reshape(a.shape[2] ** 2, -1)
         for a in row] for row in pieces]))


@dataclass
class ChoiMatrix:
    """Choi collection: one Hermitian-candidate block per (target, source) pair.

    blocks[(j, k)] has shape (m_j n_k, m_j n_k) with row index i*n_k + a for
    target index i and source index a; the channel is completely positive
    exactly when every block is positive semidefinite (up to the singular
    floor).
    """

    source: BlockAlgebra
    target: BlockAlgebra
    blocks: dict[tuple[int, int], np.ndarray]

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0])
                   for b in self.blocks.values())

    def hermiticity_defect(self) -> float:
        return float(np.sqrt(sum(
            np.linalg.norm(b - b.conj().T) ** 2 for b in self.blocks.values())))


def _superop_blocks(ch: Channel) -> list[list[np.ndarray]]:
    """Superoperator block (j, k) as rows[j][k], reshaped to [i', i, b, a].

    Column stacking puts ch(E_ab)[i, i'] (E_ab in source block k, the image
    in target block j) at row i + m_j i' and column a + n_k b of the block.
    """
    src, tgt = ch.source.algebra, ch.target.algebra
    return [[ch.superop[r0:r0 + m * m, c0:c0 + n * n].reshape(m, m, n, n)
             for n, c0 in zip(src.block_dims, src.coord_offsets)]
            for m, r0 in zip(tgt.block_dims, tgt.coord_offsets)]


def to_choi(ch: Channel) -> ChoiMatrix:
    """Choi collection of ch: superoperator block (j, k) as [i', i, b, a]
    holds ch(E_ab)[i, i'], which is Choi entry [(i, a), (i', b)]."""
    blocks = {(j, k): sub.transpose(1, 3, 0, 2).reshape(sub.shape[0] * sub.shape[2], -1)
              for j, row in enumerate(_superop_blocks(ch)) for k, sub in enumerate(row)}
    return ChoiMatrix(ch.source.algebra, ch.target.algebra, blocks)


def choi_to_channel(choi: ChoiMatrix, source: System, target: System) -> Channel:
    """Inverse of `to_choi`: Choi block (j, k) as [i, a, i', b] is
    transposed back to the superoperator block's [i', i, b, a]."""
    if choi.source != source.algebra or choi.target != target.algebra:
        raise ShapeMismatch("Choi collection does not fit the given systems")
    rows = []
    for j, m in enumerate(target.algebra.block_dims):
        rows.append([])
        for k, n in enumerate(source.algebra.block_dims):
            block = choi.blocks.get((j, k))
            if block is None or np.shape(block) != (m * n, m * n):
                raise ShapeMismatch(
                    f"Choi block {(j, k)} is missing or not of shape {(m * n, m * n)}")
            rows[-1].append(np.asarray(block, dtype=np.complex128)
                            .reshape(m, n, m, n).transpose(2, 0, 3, 1).reshape(m * m, -1))
    return Channel(source, target, np.block(rows))


def star_preservation_residual(ch: Channel) -> float:
    """Max defect of ch(x^+) = ch(x)^+ over the matrix-unit basis: the
    adjoint of unit c is unit p_s[c] (p = `adjoint_index`), so the defect
    at unit c is column c of S[:, p_s] - conj(S)[p_t]."""
    sup = ch.superop
    return max_column_norm(sup[:, adjoint_index(ch.source.algebra)]
                           - sup.conj()[adjoint_index(ch.target.algebra)])


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------

def unitality_residual(ch: Channel) -> float:
    one_s = ch.source.algebra.identity()
    one_t = ch.target.algebra.identity()
    return (ch.apply(one_s) - one_t).norm()


def state_residual(ch: Channel) -> float:
    """State compatibility, measured both ways; the two must agree.

    Dual form: |trace_dual(ch)(D_target) - D_source|_F.  Basis form: max of
    |target_state(ch(E)) - source_state(E)| over matrix units.  The dual
    form dominates the basis form entrywise, and the max of the two is
    returned.
    """
    dual = trace_dual(ch)
    r_dual = (dual.apply(ch.target.state.density) - ch.source.state.density).norm()
    return max(r_dual, _state_basis_residual(ch))


def _state_basis_residual(ch: Channel) -> float:
    """All units at once: a state is the row vector coords(D^T), so this is
    the largest entry of |coords(D_target^T) @ superop - coords(D_source^T)|."""
    c_t = to_coords(ch.target.state.density.adjoint()).conj()
    c_s = to_coords(ch.source.state.density.adjoint()).conj()
    return float(np.max(np.abs(c_t @ ch.superop - c_s)))


def cp_min_eigenvalue(ch: Channel) -> tuple[float, float]:
    """(min Choi eigenvalue, Choi hermiticity defect)."""
    choi = to_choi(ch)
    return choi.min_eigenvalue(), choi.hermiticity_defect()


def _preconditions(ch: Channel) -> tuple[float, float, float, float]:
    """(unital residual, min Choi eigenvalue, Choi hermiticity defect, state
    residual): what `check_markov` reports and `precondition_defects` filters."""
    mineig, herm = cp_min_eigenvalue(ch)
    return unitality_residual(ch), mineig, herm, state_residual(ch)


def precondition_defects(ch: Channel,
                         tol: Tolerance | None = None) -> dict[str, float]:
    """The unital, cp and state residuals of ch that exceed tolerance.

    These three are the shared precondition of the GNS extension and the
    twirl; an empty dict means ch meets it.  Each residual is computed once.
    """
    tau = (tol or Tolerance(base_tolerance())).effective(1.0)
    unital, mineig, herm, state = _preconditions(ch)
    residuals = {"unital": unital, "cp": max(0.0, -mineig, herm), "state": state}
    return {name: res for name, res in residuals.items() if res > tau}


def modular_commutation_residual(ch: Channel,
                                 t_samples=DEFAULT_FLOW_SAMPLES) -> float:
    """Flow compatibility, measured through two equivalent routes.

    Generator route: ch([log D_source, x]) = [log D_target, ch(x)] over the
    unit basis.  Flow route: ch(sigma_t^source(x)) = sigma_t^target(ch(x)) at
    the sampled t.  In finite dimensions the two conditions are equivalent.
    Both routes share one eigenframe: with X = `ch.eigen_superop` the defect
    of either is X masked by (w_s - w_t) resp. (exp(it w_s) - exp(it w_t)),
    and its value on a matrix unit is the matching column of (mask * X) G_s.
    The max column norm over both routes is returned.  The per-unit spectral
    calculus that checks this kernel independently lives in the test oracles.
    """
    md_s, md_t = ch.source.modular, ch.target.modular
    pairs = [(md_s.frequencies, md_t.frequencies)] + [
        (md_s.delta_power_diagonal(1j * float(t)), md_t.delta_power_diagonal(1j * float(t)))
        for t in t_samples]
    return max(max_column_norm(((a[None, :] - b[:, None]) * ch.eigen_superop) @ md_s.frame)
               for a, b in pairs)


@dataclass
class MarkovCheck:
    """Membership certificate: four residuals with per-item verdicts."""

    unital_residual: float
    cp_min_eig: float
    choi_hermiticity: float
    state_residual: float
    modular_residual: float
    tolerances: dict[str, float]

    @property
    def residuals(self) -> dict[str, float]:
        return {
            "unital": self.unital_residual,
            "cp": max(0.0, -self.cp_min_eig, self.choi_hermiticity),
            "state": self.state_residual,
            "modular": self.modular_residual,
        }

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: res <= self.tolerances[name]
                for name, res in self.residuals.items()}

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def modular_tolerance_scale(ch: Channel) -> float:
    """|log D| sets the size of the generator commutators being compared."""
    scale = 1.0
    for sys in (ch.source, ch.target):
        for e in sys.state.block_eigs:
            scale = max(scale, float(np.max(np.abs(np.log(e.eigenvalues)))))
    return scale


def check_markov(ch: Channel, t_samples=DEFAULT_FLOW_SAMPLES,
                 tol: Tolerance | None = None) -> MarkovCheck:
    """Report the four membership residuals; never raises on failure."""
    tol = tol or Tolerance(base_tolerance())
    tau = tol.effective(1.0)
    return MarkovCheck(
        *_preconditions(ch),
        modular_residual=modular_commutation_residual(ch, t_samples),
        tolerances={
            "unital": tau,
            "cp": tau,
            "state": tau,
            "modular": tol.effective(modular_tolerance_scale(ch)),
        },
    )


# ---------------------------------------------------------------------------
# duals, adjoints, extension
# ---------------------------------------------------------------------------

def trace_dual(ch: Channel) -> Channel:
    """The map ch^+ with Tr(y^+ ch(x)) = Tr((ch^+(y))^+ x) for all x, y.

    On coordinates this is the conjugate transpose of the superoperator; the
    dual of a unital channel is trace preserving.
    """
    return Channel(ch.target, ch.source, ch.superop.conj().T)


def ac_adjoint(ch: Channel, tol: Tolerance | None = None) -> Channel:
    """State-twisted adjoint ch*(y) = D_source^{-1} ch^+(D_target y).

    This is exactly the linear solution of the defining pairing
    source_state(ch*(y) x) = target_state(y ch(x)); state preservation is
    required for ch* to stand a chance of being unital, and full membership
    (including flow compatibility) is what guarantees it is completely
    positive and coincides with the symmetric form `petz_adjoint`.
    """
    tol = tol or Tolerance(base_tolerance())
    res = state_residual(ch)
    if res > tol.effective(1.0):
        raise NotStatePreserving(
            f"state residual {res:.3e} exceeds {tol.effective(1.0):.3e}; "
            "the defining pairing has no compatible solution guarantee")
    d_s_inv = AlgebraElement(ch.source.algebra, ch.source.modular.d_power_blocks(-1.0))
    return Channel(ch.target, ch.source,
                   left_mult_superop(d_s_inv) @ ch.superop.conj().T
                   @ left_mult_superop(ch.target.state.density))


def petz_adjoint(ch: Channel) -> Channel:
    """Symmetric adjoint y |-> D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2}."""
    half_t = sandwich_superop(ch.target.modular.d_power_blocks(0.5))
    half_s_inv = sandwich_superop(ch.source.modular.d_power_blocks(-0.5))
    return Channel(ch.target, ch.source,
                   half_s_inv @ ch.superop.conj().T @ half_t)


@dataclass
class L2Extension:
    """The GNS-space operator sending x Omega_source to ch(x) Omega_target.

    `matrix` acts on column-stacked coordinates; for a unital completely
    positive state-compatible channel it is a contraction carrying the source
    cyclic vector to the target one.
    """

    source: System
    target: System
    matrix: np.ndarray


def eigen_extension(ch: Channel) -> np.ndarray:
    """G_t T G_s^+ for T = R(D_t^{1/2}) ch R(D_s^{-1/2}), R the right
    multiplication (sqrt(lambda_b) in the frame); checks no precondition."""
    return (np.sqrt(ch.target.modular.lambda_b)[:, None] * ch.eigen_superop
            / np.sqrt(ch.source.modular.lambda_b)[None, :])


def l2_extension(ch: Channel, tol: Tolerance | None = None) -> L2Extension:
    """Build the extension; requires unital + cp + state residuals to pass.

    Those three are what bound the operator norm by one (positivity gives
    ch(x)^+ ch(x) <= ch(x^+ x) for unital cp maps, and state compatibility
    turns that into a norm bound between the GNS spaces); flow compatibility
    is *not* required for the extension to exist and contract.
    """
    bad = precondition_defects(ch, tol)
    if bad:
        raise NotMarkov(f"extension preconditions failed: {bad}; norm bound void")
    return L2Extension(ch.source, ch.target,
                       ch.target.modular.frame.conj().T @ eigen_extension(ch)
                       @ ch.source.modular.frame)


# ---------------------------------------------------------------------------
# composition and tensor
# ---------------------------------------------------------------------------

def compose(f: Channel, g: Channel) -> Channel:
    """f o g (apply g first); needs f.source to match g.target."""
    if not same_system(f.source, g.target):
        raise ShapeMismatch("composition needs f.source = g.target")
    return Channel(g.source, f.target, f.superop @ g.superop)


def tensor_algebra(a: BlockAlgebra, b: BlockAlgebra) -> BlockAlgebra:
    return BlockAlgebra(tuple(n * m for n in a.block_dims for m in b.block_dims))


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    parent = tensor_algebra(x.parent, y.parent)
    return AlgebraElement(
        parent, [np.kron(xb, yb) for xb in x.blocks for yb in y.blocks])


def tensor_state(a: FaithfulState, b: FaithfulState) -> FaithfulState:
    return FaithfulState(tensor_element(a.density, b.density))


def tensor_system(a: System, b: System) -> System:
    return System(tensor_state(a.state, b.state), z_max=min(a.z_max, b.z_max))


def tensor(f: Channel, g: Channel) -> Channel:
    """Blockwise tensor product channel (f tensor g)(x tensor y) = f(x) tensor g(y)."""
    source = tensor_system(f.source, g.source)
    target = tensor_system(f.target, g.target)
    # f(E_ab)[x, y] at [y, x, b, a] times g(E_cd)[X, Y] at [Y, X, d, c] is
    # entry [(xX), (yY)] of the image of E_(ac),(bd), which column stacking
    # puts at row (yY, xX) and column (bd, ac) of the tensor block; the
    # outer product multiplies exactly as np.kron does
    return Channel(source, target, np.block([
        [np.multiply.outer(fb, gb).transpose(0, 4, 1, 5, 2, 6, 3, 7)
         .reshape((len(fb) * len(gb)) ** 2, -1) for fb in f_row for gb in g_row]
        for f_row in _superop_blocks(f) for g_row in _superop_blocks(g)]))


def convex_combine(channels, weights) -> Channel:
    """Weighted superoperator sum; membership is preserved under mixing."""
    chs = list(channels)
    ws = [float(w) for w in weights]
    if not chs or len(chs) != len(ws):
        raise BadWeights("need one weight per channel")
    if any(w < 0.0 for w in ws) or abs(sum(ws) - 1.0) > 1e-12:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got {ws}")
    first = chs[0]
    for ch in chs[1:]:
        if not (same_system(ch.source, first.source) and same_system(ch.target, first.target)):
            raise ShapeMismatch("mixed channels must share source and target")
    sup = sum(w * ch.superop for w, ch in zip(ws, chs))
    return Channel(first.source, first.target, sup)


__all__ = [
    "System",
    "Channel",
    "ChoiMatrix",
    "MarkovCheck",
    "L2Extension",
    "same_system",
    "left_mult_superop",
    "right_mult_superop",
    "sandwich_superop",
    "adjoint_index",
    "channel_from_kraus",
    "identity_channel",
    "to_choi",
    "choi_to_channel",
    "star_preservation_residual",
    "unitality_residual",
    "state_residual",
    "cp_min_eigenvalue",
    "precondition_defects",
    "modular_commutation_residual",
    "check_markov",
    "modular_tolerance_scale",
    "trace_dual",
    "ac_adjoint",
    "petz_adjoint",
    "l2_extension",
    "eigen_extension",
    "compose",
    "tensor",
    "tensor_algebra",
    "tensor_element",
    "tensor_state",
    "tensor_system",
    "convex_combine",
    "DEFAULT_FLOW_SAMPLES",
]
