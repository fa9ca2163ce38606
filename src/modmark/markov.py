"""Channels between block algebras and their induced GNS-space contractions.

A channel is carried as a superoperator matrix on the column-stacked block
coordinates of `algebra`, with a (algebra, state) pair on each end.  Kraus
lists and Choi collections are fixed index maps of its blocks: a Kraus list
enters as a sum of krons per block, the Choi collection and its inverse are
block reshapes, and the tensor product is an outer product per block pair.
The superoperator is canonical because membership checks, twirling, and
every verification residual are plain linear algebra on it.  Each channel
caches it once in the density eigenframes, X = G_t S G_s^+
(`Channel.eigen_superop`); the flow check (the one generator mask
w_s - w_t), the twirl, the GNS extension and both adjoints are masks and
reweightings of X, carried back to coordinates by `from_eigenframe`.
Channels meet the modular data only there: no multiplication
superoperator is ever built.  Both apply G through the `gns` frame
helpers, by its Kronecker factors from N = 100 on.

Both certified membership keys are read by `linalg.settle`'s rule.  The
cp residual's bound is on the smallest eigenvalue of the Choi matrix
(`cp_min_eigenvalue`): written in the density eigenframes its entry
[(i, a), (i', b)] is X[(i, i'), (a, b)], and a Markov map, which commutes
with the modular flow, makes it block-diagonal over the level sets of
l(i, a) = log mu_i - log lambda_a, the Choi form of covariance (Scutaru
1979, Holevo 1993), taken by the one frequency labelling of `gns`;
Weyl's inequality over those sectors, with margins, bounds the dense
lambda_min.  Its fallback takes each Choi block through
`linalg.certified_value`.  The modular residual is |M|_op, M the masked
X: the frames are unitary, so it is the defect map's norm on coordinates,
read by `certified_value` like every norm key, with no frame product.

Orientation, fixed package-wide: a channel maps its source algebra into its
target algebra, state compatibility means target_state(ch(x)) = source_state(x),
and flow compatibility means ch o sigma_t^source = sigma_t^target o ch,
checked in its generator form ch o [log D_source, .] = [log D_target, .] o ch,
which in finite dimensions is the same condition for every t at once.
Membership in the compatible class is *reported* (four residuals with
verdicts), never assumed: probing channels that fail the flow condition is
how the verification layer exhibits that the condition carries force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    element_from_coords,
    to_coords,
)
from .errors import BadWeights, EmptyKraus, NotMarkov, ShapeMismatch
from .gns import ModularData, frequency_labels, label_radius
from .linalg import (EIG_CONTRACT_RTOL, as_cmatrix, certified_value, op_norm, settle,
                     tolerance_factor)

STATE_MATCH_ATOL = 1e-12
MEMBERSHIP_TOL = 1e-9  # pinned, before the MODMARK_TOL factor
# the residuals the GNS extension and the twirl require to pass: what makes
# x Omega_s |-> ch(x) Omega_t a contraction (Kadison's Schwarz inequality)
PRECONDITIONS = ("unital", "cp", "state")
MEMBERSHIP_KEYS = (*PRECONDITIONS, "modular")
_EPS = float(np.finfo(float).eps)


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

    @cached_property
    def frequency_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """(target, source) labels of the frequencies of X's rows and
        columns: one `gns.frequency_labels` call over both ends at their
        `label_radius`, which the sector split and the twirl read."""
        w_t, w_s = self.target.modular.frequencies, self.source.modular.frequencies
        labels = frequency_labels(np.concatenate([w_t, w_s]),
                                  label_radius(self.source.state, self.target.state))
        return labels[:len(w_t)], labels[len(w_t):]

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
        """Smallest eigenvalue of the blocks' Hermitian parts, each read by
        `linalg.certified_value(h, tol, "min_eig")` for the verdict
        lambda_min >= -tol: 0.0 for a block a Cholesky factor certifies
        positive definite, else its `eigvalsh` value.  The fallback of
        `cp_min_eigenvalue`."""
        return min(certified_value((b + b.conj().T) / 2.0, tol, "min_eig")
                   for b in self.blocks.values())


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


@cache
def _unit_table(alg: BlockAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """U[p, p'], the coordinate of the unit E_qq' of block k, for carrier
    indices p and p' at rows q and q' of one block k (an entry across two
    blocks is never read), and its diagonal; read-only, one per block
    shape."""
    dims = alg.block_dims
    q = np.arange(alg.carrier_dim) - np.repeat(np.cumsum((0,) + dims[:-1]), dims)
    table = ((np.repeat(alg.coord_offsets, dims) + q)[:, None]
             + np.repeat(dims, dims)[:, None] * q[None, :])
    diag = np.diagonal(table).copy()
    table.flags.writeable = diag.flags.writeable = False
    return table, diag


@cache
def _block_pairs(target: BlockAlgebra, source: BlockAlgebra) -> np.ndarray:
    """The block pair j K_s + k of each Choi index (i, a) at i c_s + a, i on
    block j of the target carrier and a on block k of the source's;
    read-only, one per pair of block shapes."""
    def blocks(alg):
        return np.repeat(np.arange(alg.num_blocks), alg.block_dims)
    pairs = (blocks(target)[:, None] * source.num_blocks + blocks(source)).ravel()
    pairs.flags.writeable = False
    return pairs


def _frame_rounding(md: ModularData) -> float:
    """A bound, relative in the Frobenius norm, on the rounding of one
    product by the frame G or G^+ (Higham 2002, Accuracy and Stability of
    Numerical Algorithms, section 3.5: |fl(AB) - AB| <= gamma_k |A||B|, k
    the inner length, gamma_k <= 1.01 k eps).  Dense, an entry sums the n^2
    nonzero terms of a block V^T kron V^+, whose entrywise absolute value
    has norm at most |V|_F^2 <= 2n; by its factors, two GEMMs of inner
    length n each multiply by a |V| of norm at most |V|_F <= sqrt(2n)."""
    n = max(md.algebra.block_dims)
    if md.factored:
        return 2.0 * 1.01 * n * math.sqrt(2.0 * n) * _EPS
    return 1.01 * n * n * 2.0 * n * _EPS


def _choi_sectors(ch: Channel) -> tuple[tuple, list, float, int]:
    """The groups of the eigenframe Choi matrix (`_sector_min_eigenvalue`),
    the runs of one block pair and one label of l(i, a) = log mu_i - log
    lambda_a (`gns.frequency_labels` at `gns.label_radius`), sorted on one
    integer key: (units, groups, off, size).  X[units] holds the Choi
    diagonals of every block pair, X on the diagonal units; groups holds,
    per group size above one, the X entries of those groups as (rows,
    cols), each indexed [group, p, q]; off is |X off the groups|_F, its
    in-group entries zeroed in a copy; size is the largest group's."""
    x = ch.eigen_superop
    alg_t, alg_s = ch.target.algebra, ch.source.algebra
    (u_t, diag_t), (u_s, diag_s) = _unit_table(alg_t), _unit_table(alg_s)
    log_t, log_s = ch.target.modular.carrier_logs, ch.source.modular.carrier_logs
    # Choi index (i, a) at i c_s + a, i on the target carrier and a on the
    # source's; one integer key, block pair then label: a group is the
    # indices of one key, in index order, and each key's count its size
    c_s = len(log_s)
    label = frequency_labels((log_t[:, None] - log_s).ravel(),
                             label_radius(ch.source.state, ch.target.state))
    key = _block_pairs(alg_t, alg_s) * len(label) + label
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    units = diag_t[:, None], diag_s[None, :]
    groups = []
    for k in set(sizes.tolist()) - {1}:
        i, a = np.divmod(order[starts[sizes == k][:, None] + np.arange(k)], c_s)
        groups.append((u_t[i[:, :, None], i[:, None, :]], u_s[a[:, :, None], a[:, None, :]]))
    rest = x.copy()
    rest[units] = 0.0
    for rows, cols in groups:
        rest[rows, cols] = 0.0
    return units, groups, math.sqrt(np.vdot(rest, rest).real), int(sizes.max())


def _sector_min_eigenvalue(ch: Channel, tau: float) -> tuple[float, float] | None:
    """A bracket (-inf, hi) on -lambda_min of the Hermitian part of the Choi
    matrix from its frequency sectors, for `linalg.settle`: hi =
    max(-L / s, 0), L / s a lower bound on lambda_min (below); None where
    even its first term cannot certify lambda_min >= -tau.

    Conjugating the channel by the density eigenvectors, x |-> V_t^+
    ch(V_s x V_s^+) V_t, turns its superoperator into X = `ch.eigen_superop`
    and its Choi block C of block pair (j, k) into C' = A^+ C A, A =
    conj(V_s) kron V_t, with entry X[(i, i'), (a, b)] at [(i, a), (i', b)].
    A channel that commutes with the flows has X on w_t(i, i') = w_s(a, b),
    that is l(i, a) = l(i', b) with l(i, a) = log mu_i - log lambda_a (mu
    the target's eigenvalues, lambda the source's), so C' is block-diagonal
    over the groups of Choi indices that share their block pair and l.  Any
    partition serves Weyl's inequality (Bhatia 1997, Matrix Analysis,
    III.2), with H' the Hermitian part of C',

        lambda_min(H') >= min_omega lambda_min(H'_omega) - |H' off the groups|_F,

    so the labelling of l sets only how tight it is: the groups share the
    label of l by the one labelling, `gns.frequency_labels` at
    `gns.label_radius` of the two states, so values of l equal in exact
    arithmetic share a group however the two spectra were computed.  A
    group of one index is a diagonal entry Re X[(i, i), (a, a)], and every
    block pair's diagonal is X on the diagonal units, read at once; a
    larger group (on a generic state, one of n_k indices per diagonal block
    pair, where mu_i = lambda_a) takes one batched eigvalsh per group size.
    The mass off the groups is sqrt(sum |X|^2) with the in-group entries
    zeroed, never a difference of two sums, which cancels.

    With m the smaller of the smallest diagonal entry and the larger groups'
    smallest eigenvalue (a group's is at most its diagonal, so m errs only
    low), the bound L = m - (1 + (N_s N_t + 3) eps) off - e covers the
    rounding: of off's sum (gamma of its length, and 3 eps per squared
    entry), and in e = (2 (r_s + r_t) + (4 g + 1) eps) |X|_F, of X itself,
    r a frame product's (`_frame_rounding`, doubled for the second-order
    terms), and eigvalsh's backward error on a group of at most g indices
    with its Hermitian part formed (p(g) eps |H'_omega|, LAPACK Users'
    Guide section 4.7, p(g) taken as 4 g).  V is unitary only to
    `herm_eig`'s contract |V^+ V - 1|_F <= EIG_CONTRACT_RTOL n, so the
    squared singular values of A lie in [s, 1 / s], s = (1 -
    EIG_CONTRACT_RTOL n_s)(1 - EIG_CONTRACT_RTOL n_t), and by Ostrowski's
    theorem (Horn and Johnson 2013, Matrix Analysis, 4.5.9) lambda_min(H) =
    lambda_min(H') / theta with theta in that range.  So hi is
    max(-L / s, 0), and a pass that reads it puts the verdict's residual
    max(0, -lambda_min) at an upper bound on the dense one.  No group is
    decomposed, and None is returned, when even min(diagonal)
    less off cannot certify (kind sp_ucp, whose off mass, ~0.03, exceeds
    its lambda_min on most instances; at n = 3 and on some 2x2 ones it does
    not, and the groups certify lambda_min >= 0); nothing is factored.  The
    groups come from `_choi_sectors`.
    """
    x = ch.eigen_superop
    units, groups, off, size = _choi_sectors(ch)
    s = ((1.0 - EIG_CONTRACT_RTOL * max(ch.source.algebra.block_dims))
         * (1.0 - EIG_CONTRACT_RTOL * max(ch.target.algebra.block_dims)))
    off *= 1.0 + (x.size + 3) * _EPS
    # a group's lambda_min is at most its smallest diagonal entry, so the
    # smallest diagonal entry stands for the groups of one index
    low = x[units].real.min()
    if not (off - low) / s <= tau:  # nan too
        return None
    for rows, cols in groups:
        c = x[rows, cols]
        low = min(low, np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2.0)[:, 0].min())
    err = (2.0 * (_frame_rounding(ch.source.modular) + _frame_rounding(ch.target.modular))
           + (4 * size + 1) * _EPS) * math.sqrt(np.vdot(x, x).real)
    value = float((low - off - err) / s)
    return -np.inf, max(-value, 0.0)  # a nan value keeps its nan


def _hermiticity_defect(ch: Channel) -> float:
    """|C - C^+|_F over the Choi blocks C of `to_choi(ch)`, none of them
    formed: C as [i, a, i', b] is a transposed view of its superoperator
    block, and each difference is formed once, in C order, with the bits of
    C - C.conj().T.  An overflow reads inf, with no warning."""
    total = 0.0
    with np.errstate(over="ignore"):
        for row in _superop_blocks(ch):
            for sub in row:
                choi = sub.transpose(1, 3, 0, 2)
                d = np.conjugate(choi.transpose(2, 3, 0, 1), order="C")
                np.subtract(choi, d, out=d)
                total += np.linalg.norm(d) ** 2
    return float(np.sqrt(total))


def cp_min_eigenvalue(ch: Channel) -> tuple[float, float]:
    """(min Choi eigenvalue, Choi hermiticity defect), the eigenvalue read
    by `linalg.settle` for the cp verdict -lambda_min <= tau, its
    `membership_tolerances` entry: the sector certificate's lower bound on
    min(0, lambda_min) (`_sector_min_eigenvalue`, no Cholesky factor),
    with `ChoiMatrix.min_eigenvalue` of `to_choi(ch)` its fallback, where
    each Choi block takes a Cholesky factor before `eigvalsh`."""
    tau = _membership_tau()
    value = -settle(tau, [lambda: _sector_min_eigenvalue(ch, tau)],
                    lambda: -to_choi(ch).min_eigenvalue(tau))
    return value, _hermiticity_defect(ch)


def _commutation_defects(ch: Channel, t_samples=()):
    """X = `ch.eigen_superop` masked by the generator row w_s - w_t, then by
    the flow row exp(it w_s) - exp(it w_t) of each t, one at a time."""
    md_s, md_t = ch.source.modular, ch.target.modular
    zs = [1j * float(t) for t in t_samples]
    rows = [(md_s.frequencies, md_t.frequencies),
            *zip(md_s.delta_power_diagonals(zs), md_t.delta_power_diagonals(zs))]
    return ((a[None, :] - b[:, None]) * ch.eigen_superop for a, b in rows)


def modular_commutation_residual(ch: Channel, t_samples=()) -> float:
    """Flow compatibility in its generator form: ch([log D_source, x]) =
    [log D_target, ch(x)] over the unit basis, the finite-dimensional
    statement of ch o sigma_t^source = sigma_t^target o ch for every t.

    With X = `ch.eigen_superop` the defect is M = X masked by w_s - w_t,
    the defect map x |-> ch([log D_s, x]) - [log D_t, ch(x)] in the density
    eigenframes; both frames are unitary, so its operator norm is |M|_op,
    returned dense (the SVD).  `check_markov` reads the same M for its
    verdict by `linalg.certified_value`.

    Each t in the optional t_samples adds the flow row at t, and the max
    runs over every row.  No library path passes samples; the rows remain
    because the benchmark's traced probe times this call with its t grid.
    The per-unit spectral calculus that checks this kernel independently
    lives in the test oracles.
    """
    return max(op_norm(m) for m in _commutation_defects(ch, t_samples))


@dataclass
class MarkovCheck:
    """Membership certificate: the residuals of the keys it was asked for
    (`check_markov`) with their tolerances and per-key verdicts res <= tol
    (a nan residual fails).  `require` is the one refusal of every
    operation that needs the channel in the class."""

    residuals: dict[str, float]
    tolerances: dict[str, float]

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: res <= self.tolerances[name]
                for name, res in self.residuals.items()}

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def require(self, operation: str) -> None:
        """Raise `NotMarkov` naming each residual held whose verdict fails,
        with its value and tolerance; return None when all pass."""
        failing = [k for k, ok in self.verdicts.items() if not ok]
        if failing:
            raise NotMarkov(f"{operation} refuses a channel outside the class: " + ", ".join(
                f"{k} residual {self.residuals[k]:.3e} (tolerance {self.tolerances[k]:.3e})"
                for k in failing))


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
    `modular_tolerance_scale(ch)`.  `check_markov`, and so every
    `MarkovCheck.require` gate and the report's markov_* entries, reads it,
    and `cp_min_eigenvalue` its cp entry, without the modular scale."""
    tau = _membership_tau()
    return {"unital": tau, "cp": tau, "state": tau,
            "modular": tau * modular_tolerance_scale(ch)}


def check_markov(ch: Channel, keys: tuple[str, ...] = MEMBERSHIP_KEYS) -> MarkovCheck:
    """The one place that decides membership: the residuals of keys, among
    unital, cp = max(0, -min Choi eigenvalue, Choi hermiticity defect),
    state and modular, against `membership_tolerances`, each computed once
    and only when asked for.  It never raises on failure; an operation that
    needs the channel in the class asks for the keys it needs and refuses
    it through `MarkovCheck.require`.  Each residual is taken for its
    verdict, by `linalg.settle`'s rule: cp by `cp_min_eigenvalue`, whose
    sector certificate reads `eigen_superop` (cached, and read again by
    the modular key), and modular, the generator row of
    `modular_commutation_residual(ch)`, by `certified_value` of its one
    masked product."""
    tol = membership_tolerances(ch)

    def cp() -> float:
        mineig, herm = cp_min_eigenvalue(ch)
        return max(0.0, -mineig, herm)
    residual = {"unital": lambda: unitality_residual(ch), "cp": cp,
                "state": lambda: state_residual(ch),
                "modular": lambda: certified_value(next(_commutation_defects(ch)),
                                                   tol["modular"])}
    return MarkovCheck({k: residual[k]() for k in keys}, {k: tol[k] for k in keys})


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
    Refuses, by `MarkovCheck.require`, a channel that fails the state key.
    """
    check_markov(ch, ("state",)).require("ac_adjoint")
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
    as a matrix on column-stacked coordinates.  Refuses, by
    `MarkovCheck.require`, a channel that fails a key of `PRECONDITIONS`.

    Those three are what bound the operator norm by one (positivity gives
    ch(x)^+ ch(x) <= ch(x^+ x) for unital cp maps, and state compatibility
    turns that into a norm bound between the GNS spaces); flow compatibility
    is *not* required for the extension to exist and contract.
    """
    check_markov(ch, PRECONDITIONS).require("l2_extension")
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
    "MEMBERSHIP_TOL",
    "MEMBERSHIP_KEYS",
    "PRECONDITIONS",
]
