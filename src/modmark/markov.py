"""Channels between block algebras and their induced GNS-space contractions.

A channel is carried as a superoperator matrix on the column-stacked block
coordinates of `algebra`, with a (algebra, state) pair on each end.  Kraus
lists and Choi collections are fixed index maps of its blocks: a Kraus list
enters as a sum of krons per block, the Choi collection and its inverse are
block reshapes, and the tensor product is an outer product per block pair.
The superoperator is canonical because membership checks, twirling, and
every verification residual are plain linear algebra on it.  Each channel
caches it once in the density eigenframes, X = G_t S G_s^+
(`Channel.eigen_superop`); the flow check, the twirl, the GNS extension and
both adjoints are masks and reweightings of X, carried back to coordinates
by `from_eigenframe`.  Channels meet the modular data only there: no
multiplication superoperator is ever built.  Both apply G through the
`gns` frame helpers, by its Kronecker factors from N = 100 on.

The cp residual reads each Choi block's smallest eigenvalue for its verdict
(`cp_min_eigenvalue`).  From `linalg.LANCZOS_MIN_DIM` on that is a
certified value (`linalg.certified_value`): 0.0 for a block with a Cholesky
factor, a Lanczos upper bound for one that factors only with the
tolerance tau added, and eigvalsh otherwise; so the residual is at or below
the dense one up to rounding, with the dense verdict.

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
from .gns import ModularData
from .linalg import as_cmatrix, certified_value, stack_chunk, tolerance_factor

DEFAULT_FLOW_SAMPLES = (1.0, -1.0, 0.37, -0.37, 5.0)
STATE_MATCH_ATOL = 1e-12
MEMBERSHIP_TOL = 1e-9  # pinned, before the MODMARK_TOL factor


class System:
    """A block algebra together with a faithful state on it."""

    def __init__(self, state: FaithfulState):
        self.state = state
        self.algebra = state.parent

    @cached_property
    def modular(self) -> ModularData:
        return ModularData(self.state)

    @property
    def coord_dim(self) -> int:
        return self.algebra.coord_dim

    def __repr__(self):
        return f"System(dims={self.algebra.block_dims}, kappa={self.state.kappa:.3g})"


def same_system(a: System, b: System) -> bool:
    """Same algebra and same density up to STATE_MATCH_ATOL (gates composition)."""
    return (a.algebra == b.algebra
            and a.state.density.allclose(b.state.density, atol=STATE_MATCH_ATOL))


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
        return self.source.modular.frame_right(
            self.target.modular.frame_left(self.superop), adjoint=True)

    def __repr__(self):
        return (f"Channel({self.source.algebra.block_dims} -> "
                f"{self.target.algebra.block_dims})")


def from_eigenframe(m: np.ndarray, source: System, target: System) -> np.ndarray:
    """G_t^+ m G_s, the inverse of `Channel.eigen_superop`: a matrix on the
    eigenframe coordinates of source and target back on block coordinates."""
    return source.modular.frame_right(target.modular.frame_left(m, adjoint=True))


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
    stacking gives vec(A^+ x A) = kron(A^T, A^+) vec(x).  `kraus` is a
    list of matrices or one stacked (r, ns, nt) array.
    """
    ops = [as_cmatrix(k) for k in kraus]
    if not ops:
        raise EmptyKraus("need at least one Kraus operator")
    ns = source.algebra.carrier_dim
    nt = target.algebra.carrier_dim
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

    def min_eigenvalue(self, tol: float) -> float:
        """Smallest eigenvalue of the blocks' Hermitian parts, taken by
        `linalg.certified_value(h, tol, "min_eig")` for the verdict
        lambda_min >= -tol: eigvalsh below `linalg.LANCZOS_MIN_DIM`, and from
        it on 0.0 for a block with a Cholesky factor and an upper bound for
        one that factors only with tol added."""
        return min(certified_value((b + b.conj().T) / 2.0, tol, "min_eig")
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


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------

def unitality_residual(ch: Channel) -> float:
    one_s = ch.source.algebra.identity()
    one_t = ch.target.algebra.identity()
    return (ch.apply(one_s) - one_t).norm()


def state_residual(ch: Channel) -> float:
    """State compatibility: |trace_dual(ch)(D_target) - D_source|_F.

    With A = trace_dual(ch)(D_target) - D_source, every matrix unit E_ab has
    target_state(ch(E_ab)) - source_state(E_ab) = conj(A_ab), so this norm
    bounds the state defect on each unit, and is its l2 norm over all units.
    """
    dual = trace_dual(ch)
    return (dual.apply(ch.target.state.density) - ch.source.state.density).norm()


def cp_min_eigenvalue(ch: Channel) -> tuple[float, float]:
    """(min Choi eigenvalue, Choi hermiticity defect), the eigenvalue taken
    for the cp verdict against its `membership_tolerances` entry: from
    `linalg.LANCZOS_MIN_DIM` on a certified value (`ChoiMatrix.min_eigenvalue`)."""
    choi = to_choi(ch)
    return choi.min_eigenvalue(_membership_tau()), choi.hermiticity_defect()


def _preconditions(ch: Channel) -> dict[str, float]:
    """The unital, cp and state residuals, each computed once: what
    `check_markov` reports and `precondition_defects` filters."""
    mineig, herm = cp_min_eigenvalue(ch)
    return {"unital": unitality_residual(ch), "cp": max(0.0, -mineig, herm),
            "state": state_residual(ch)}


def precondition_defects(ch: Channel) -> dict[str, float]:
    """The unital, cp and state residuals of ch that exceed their tolerance.

    These three are the shared precondition of the GNS extension and the
    twirl; an empty dict means ch meets it.  The flow residual is not
    computed.
    """
    tol = membership_tolerances(ch)
    return {name: res for name, res in _preconditions(ch).items() if res > tol[name]}


def modular_commutation_residual(ch: Channel,
                                 t_samples=DEFAULT_FLOW_SAMPLES) -> float:
    """Flow compatibility, measured through two equivalent routes.

    Generator route: ch([log D_source, x]) = [log D_target, ch(x)] over the
    unit basis.  Flow route: ch(sigma_t^source(x)) = sigma_t^target(ch(x)) at
    the sampled t.  In finite dimensions the two conditions are equivalent.
    Both routes share one eigenframe: with X = `ch.eigen_superop` the defect
    of either is X masked by (w_s - w_t) resp. (exp(it w_s) - exp(it w_t)),
    and its value on a matrix unit is the matching column of (mask * X) G_s.
    The masks of both routes form one stack, taken in chunks of an eighth
    of `linalg.STACK_ENTRIES` entries with one `frame_column_norms` call per
    chunk (a product by G_s below `gns.FRAME_MIN_DIM`, Gram matrices of the
    factored route from it on); the max column norm over the stack is
    returned.  The per-unit spectral calculus that checks this kernel
    independently lives in the test oracles.
    """
    md_s, md_t = ch.source.modular, ch.target.modular
    zs = [1j * float(t) for t in t_samples]
    # the generator row is real: its zero imaginary parts leave the
    # products' bits as they are for the real mask
    a = np.concatenate([md_s.frequencies[None], md_s.delta_power_diagonals(zs)])
    b = np.concatenate([md_t.frequencies[None], md_t.delta_power_diagonals(zs)])
    x = ch.eigen_superop
    # A chunk keeps four stacks alive (the masked copies, their products by
    # G_s, or the factored route's once-multiplied rows and their transpose,
    # and the norm's two temporaries), so it takes an eighth of the
    # shared cap: at the full cap those stacks reach 1 MB at n = 12 and 8x8,
    # where the check then took ~50% longer than one mask at a time.  The
    # seven masks stay one chunk up to n = 5.
    step = stack_chunk(8 * x.size)
    res = 0.0
    for lo in range(0, len(a), step):
        prod = a[lo:lo + step, None, :] - b[lo:lo + step, :, None]
        np.multiply(prod, x, out=prod)  # the mask is the left operand
        res = max(res, float(md_s.frame_column_norms(prod).max()))
        del prod
    return res


@dataclass
class MarkovCheck:
    """Membership certificate: four residuals with per-item verdicts."""

    residuals: dict[str, float]
    tolerances: dict[str, float]

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: res <= self.tolerances[name]
                for name, res in self.residuals.items()}

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def modular_tolerance_scale(ch: Channel) -> float:
    """|log D| sets the size of the generator commutators being compared;
    `lambda_a` holds every eigenvalue of D."""
    return max(1.0, *(float(np.max(np.abs(np.log(sys.modular.lambda_a))))
                      for sys in (ch.source, ch.target)))


def _membership_tau() -> float:
    """The pinned MEMBERSHIP_TOL times the MODMARK_TOL factor."""
    return MEMBERSHIP_TOL * tolerance_factor()


def membership_tolerances(ch: Channel) -> dict[str, float]:
    """The one tolerance policy of the four membership residuals:
    `_membership_tau()`, and for `modular` also times
    `modular_tolerance_scale(ch)`.  `check_markov`, `precondition_defects`,
    `ac_adjoint` and the report's markov_* entries all read it, and
    `cp_min_eigenvalue` its cp entry, without the modular scale."""
    tau = _membership_tau()
    return {"unital": tau, "cp": tau, "state": tau,
            "modular": tau * modular_tolerance_scale(ch)}


def check_markov(ch: Channel, t_samples=DEFAULT_FLOW_SAMPLES) -> MarkovCheck:
    """Report the four membership residuals (unital, cp = max(0, -min Choi
    eigenvalue, Choi hermiticity defect), state, modular) against
    `membership_tolerances`; never raises on failure."""
    residuals = _preconditions(ch)
    residuals["modular"] = modular_commutation_residual(ch, t_samples)
    return MarkovCheck(residuals, membership_tolerances(ch))


# ---------------------------------------------------------------------------
# duals, adjoints, extension
# ---------------------------------------------------------------------------

def trace_dual(ch: Channel) -> Channel:
    """The map ch^+ with Tr(y^+ ch(x)) = Tr((ch^+(y))^+ x) for all x, y.

    On coordinates this is the conjugate transpose of the superoperator; the
    dual of a unital channel is trace preserving.
    """
    return Channel(ch.target, ch.source, ch.superop.conj().T)


def ac_adjoint(ch: Channel) -> Channel:
    """State-twisted adjoint ch*(y) = D_source^{-1} ch^+(D_target y).

    This is exactly the linear solution of the defining pairing
    source_state(ch*(y) x) = target_state(y ch(x)); state preservation is
    required for ch* to stand a chance of being unital, and full membership
    (including flow compatibility) is what guarantees it is completely
    positive and coincides with the symmetric form `petz_adjoint`.  Left
    multiplication by D^p is lambda_a^p in the eigenframe, so there ch* is
    X^+ (X = `ch.eigen_superop`) weighted by lambda_a,t[j] / lambda_a,s[i]
    at row i (a source coordinate) and column j (a target coordinate).
    """
    res, tol = state_residual(ch), membership_tolerances(ch)["state"]
    if res > tol:
        raise NotStatePreserving(
            f"state residual {res:.3e} exceeds {tol:.3e}; "
            "the defining pairing has no compatible solution guarantee")
    md_s, md_t = ch.source.modular, ch.target.modular
    x_adj = ch.eigen_superop.conj().T * (md_t.lambda_a[None, :] / md_s.lambda_a[:, None])
    return Channel(ch.target, ch.source, from_eigenframe(x_adj, ch.target, ch.source))


def petz_adjoint(ch: Channel) -> Channel:
    """Symmetric adjoint y |-> D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2}:
    the sandwich by D^p is (lambda_a lambda_b)^p in the eigenframe, so this is
    X^+ weighted by sqrt(lambda_a lambda_b)_t[j] / sqrt(lambda_a lambda_b)_s[i]."""
    w_s, w_t = (np.sqrt(sys.modular.lambda_a * sys.modular.lambda_b)
                for sys in (ch.source, ch.target))
    x_adj = ch.eigen_superop.conj().T * (w_t[None, :] / w_s[:, None])
    return Channel(ch.target, ch.source, from_eigenframe(x_adj, ch.target, ch.source))


def eigen_extension(ch: Channel) -> np.ndarray:
    """G_t T G_s^+ for T = R(D_t^{1/2}) ch R(D_s^{-1/2}), R the right
    multiplication (sqrt(lambda_b) in the frame); checks no precondition."""
    return (np.sqrt(ch.target.modular.lambda_b)[:, None] * ch.eigen_superop
            / np.sqrt(ch.source.modular.lambda_b)[None, :])


def l2_extension(ch: Channel) -> np.ndarray:
    """The GNS-space operator T sending x Omega_source to ch(x) Omega_target,
    as a matrix on column-stacked coordinates; requires unital + cp + state
    residuals to pass.

    Those three are what bound the operator norm by one (positivity gives
    ch(x)^+ ch(x) <= ch(x^+ x) for unital cp maps, and state compatibility
    turns that into a norm bound between the GNS spaces); flow compatibility
    is *not* required for the extension to exist and contract.
    """
    bad = precondition_defects(ch)
    if bad:
        raise NotMarkov(f"extension preconditions failed: {bad}; norm bound void")
    return from_eigenframe(eigen_extension(ch), ch.source, ch.target)


# ---------------------------------------------------------------------------
# composition and tensor
# ---------------------------------------------------------------------------

def compose(f: Channel, g: Channel) -> Channel:
    """f o g (apply g first); needs f.source to match g.target."""
    if not same_system(f.source, g.target):
        raise ShapeMismatch("composition needs f.source = g.target")
    return Channel(g.source, f.target, f.superop @ g.superop)


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    parent = BlockAlgebra(tuple(n * m for n in x.parent.block_dims
                                for m in y.parent.block_dims))
    return AlgebraElement(
        parent, [np.kron(xb, yb) for xb in x.blocks for yb in y.blocks])


def tensor_system(a: System, b: System) -> System:
    return System(FaithfulState(tensor_element(a.state.density, b.state.density)))


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
    "same_system",
    "adjoint_index",
    "channel_from_kraus",
    "identity_channel",
    "from_eigenframe",
    "to_choi",
    "choi_to_channel",
    "unitality_residual",
    "state_residual",
    "cp_min_eigenvalue",
    "precondition_defects",
    "modular_commutation_residual",
    "check_markov",
    "membership_tolerances",
    "modular_tolerance_scale",
    "trace_dual",
    "ac_adjoint",
    "petz_adjoint",
    "l2_extension",
    "eigen_extension",
    "compose",
    "tensor",
    "tensor_element",
    "tensor_system",
    "convex_combine",
    "DEFAULT_FLOW_SAMPLES",
    "MEMBERSHIP_TOL",
]
