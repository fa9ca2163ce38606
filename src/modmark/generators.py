"""Instance factory: faithful states and channels for the verification suites.

`KIND_SPECS` is the one table of kinds.  Each row holds the kind's builder
from the seeded source system and its `GenSpec`, the params it reads
besides `min_gap`, whether its channels commute with the modular flow, and
whether it needs a single block.  `build_channel` is a lookup in it, and
`KINDS`, `verify.POSITIVE_KINDS`, `verify.EXPECTED_FAIL_BY_KIND` and the
suite's choice of dims are read from it.

Every kind but `sp_ucp` produces channels passing all four membership
residuals by construction.  Apart from `identity`, `state_to_scalar` and the
`convex` mixes, each is an entrywise (Schur) multiplier in the density
eigenframe, C_k[a, b] on entry (a, b) of block k: a unit-diagonal psd matrix
(`schur`), the 0/1 mask of a partition of the eigen-indices, which is the
state-preserving conditional expectation onto the commutant of its spectral
projections (`pinch`, `block_expectation`), the phases conj(p_a) p_b of a
unitary diagonal in the eigenbasis, which is a state-preserving inner
automorphism (`automorphism`), and the equal-frequency mask (`twirl`).
`sp_ucp` deliberately produces the other thing: unital completely positive
state-compatible channels that generically fail the flow condition, which is
what the negative suites feed on, in closed form on the Choi blocks (a
seeded step from the state-to-scalar channel, derived at `sp_ucp`).  The
`twirl` kind twirls the `sp_ucp` channel of its own spec: the two builders
draw the same seed stream.

Determinism: each generator is a pure function of its seed; sub-streams are
derived through SeedSequence so reports reproduce bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    to_coords,
)
from .errors import BadSchurMatrix, PreconditionFailed, ShapeMismatch
from .linalg import PD_FLOOR_RTOL, block_diag
from .markov import (
    Channel,
    ChoiMatrix,
    System,
    choi_to_channel,
    convex_combine,
    from_eigenframe,
    identity_channel,
    precondition_defects,
)

DEFAULT_MIN_GAP = 0.05
TWIRL_FREQ_TOL = 1e-9


def derive_seed(*parts: int) -> int:
    """Deterministic sub-seed from integer parts (platform independent)."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def random_faithful_state(alg: BlockAlgebra, seed: int,
                          min_gap: float = 0.0) -> FaithfulState:
    """Seeded random density with eigenvalue-ratio control.

    Draws G G^+ per block, normalizes the total trace to one, and when the
    global ratio lambda_min/lambda_max falls below min_gap shifts the whole
    density toward the tracial state by exactly the amount restoring the
    ratio (a shift, not a resample, so one seed gives one state).
    """
    if not 0.0 <= min_gap < 1.0:
        raise ValueError(f"min_gap must be in [0, 1), got {min_gap}")
    rng = np.random.default_rng(seed)
    blocks = []
    for n in alg.block_dims:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        b = g @ g.conj().T
        b = (b + b.conj().T) / 2.0
        lam = np.linalg.eigvalsh(b)
        b = b + max(PD_FLOOR_RTOL * float(lam[-1]), 1e-14) * np.eye(n)
        blocks.append(b)
    total = sum(float(np.trace(b).real) for b in blocks)
    blocks = [b / total for b in blocks]
    if min_gap > 0.0:
        lams = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        lam_min, lam_max = float(lams.min()), float(lams.max())
        if lam_min / lam_max < min_gap:
            c = (min_gap * lam_max - lam_min) / (1.0 - min_gap)
            dim = alg.carrier_dim
            blocks = [(b + c * np.eye(n)) / (1.0 + c * dim)
                      for b, n in zip(blocks, alg.block_dims)]
    return FaithfulState(AlgebraElement(alg, blocks))


# ---------------------------------------------------------------------------
# channels that land in the compatible class by construction
# ---------------------------------------------------------------------------

def _eigen_diagonal_channel(sys: System, diag_blocks: list[np.ndarray]) -> Channel:
    """Channel that multiplies entry (a, b) by diag_blocks[k][a, b] in the
    density eigenbasis of block k: G^+ diag(d) G, by `from_eigenframe` when
    the frame is factored (`ModularData.factored`), else one product per
    diagonal block of the dense frame G."""
    if sys.modular.factored:
        d = np.concatenate([m.flatten(order="F") for m in diag_blocks])
        return Channel(sys, sys, from_eigenframe(np.diag(d), sys, sys))
    g = sys.modular.frame
    parts = []
    for off, n, m in zip(sys.algebra.coord_offsets, sys.algebra.block_dims, diag_blocks):
        g_k = g[off:off + n * n, off:off + n * n]
        parts.append(g_k.conj().T @ (m.flatten(order="F")[:, None] * g_k))
    return Channel(sys, sys, block_diag(*parts))


def schur_channel(sys: System, c) -> Channel:
    """Entrywise multiplier x |-> C * x in the density eigenbasis (one block).

    C must be Hermitian positive semidefinite with unit diagonal, expressed
    in the eigenbasis ordered by ascending eigenvalue.  Unit diagonal keeps
    the map unital and state-compatible, positive semidefiniteness makes it
    completely positive, and entrywise multipliers commute with the flow
    (which is itself entrywise multiplication by phases).
    """
    if sys.algebra.num_blocks != 1:
        raise ShapeMismatch("entrywise multiplier channels need a single block")
    n = sys.algebra.block_dims[0]
    cm = np.ascontiguousarray(c, dtype=np.complex128)
    if cm.shape != (n, n):
        raise BadSchurMatrix(f"multiplier of shape {cm.shape} does not fit dim {n}")
    herm = float(np.linalg.norm(cm - cm.conj().T))
    if herm > 1e-12 * max(1.0, float(np.linalg.norm(cm))):
        raise BadSchurMatrix(f"multiplier is not Hermitian (defect {herm:.3e})")
    w = np.linalg.eigvalsh((cm + cm.conj().T) / 2.0)
    if float(w[0]) < -1e-12 * max(1.0, float(w[-1])):
        raise BadSchurMatrix(f"multiplier has negative eigenvalue {float(w[0]):.3e}")
    if np.max(np.abs(np.diagonal(cm) - 1.0)) > 1e-12:
        raise BadSchurMatrix("multiplier diagonal must be identically 1")
    return _eigen_diagonal_channel(sys, [cm])


def random_unit_diagonal_psd(n: int, seed: int) -> np.ndarray:
    """Random Hermitian psd matrix with unit diagonal (a correlation matrix)."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    a = g @ g.conj().T + 1e-6 * np.eye(n)
    d = np.sqrt(np.diagonal(a).real)
    c = a / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return c


def partition_expectation(sys: System, labels) -> Channel:
    """Conditional expectation onto the eigenframe parts named by `labels`,
    one label per eigen-index, block after block in ascending-eigenvalue
    order: entry (a, b) of block k is kept when a and b carry the same label
    and zeroed otherwise, which is x |-> sum_i P_i x P_i for the spectral
    projections P_i of the parts."""
    labels = np.asarray(labels)
    if labels.shape != (sys.algebra.carrier_dim,):
        raise ShapeMismatch(f"need {sys.algebra.carrier_dim} labels, one per eigen-index, "
                            f"got shape {labels.shape}")
    ends = np.cumsum(sys.algebra.block_dims)
    return _eigen_diagonal_channel(sys, [
        (lab[:, None] == lab[None, :]).astype(np.complex128)
        for lab in np.split(labels, ends[:-1])])


def pinch_channel(sys: System) -> Channel:
    """Full conditional expectation onto the density eigenbasis diagonal, the
    partition into singletons."""
    return partition_expectation(sys, np.arange(sys.algebra.carrier_dim))


def random_partition_expectation(sys: System, seed: int) -> Channel:
    """Conditional expectation onto a random coarsening of the eigenframe."""
    rng = np.random.default_rng(seed)
    size = sys.algebra.carrier_dim
    n_parts = int(rng.integers(1, size + 1))
    return partition_expectation(sys, rng.integers(0, n_parts, size=size))


def state_to_scalar(source: System, target: System) -> Channel:
    """x |-> source_state(x) * identity of the target; compatible for any target."""
    col = to_coords(target.algebra.identity())
    row = to_coords(source.state.density).conj()
    return Channel(source, target, np.outer(col, row))


def random_automorphism(sys: System, seed: int) -> Channel:
    """Inner automorphism x |-> u^+ x u by a unitary diagonal in the density
    eigenbasis, u_k = V_k diag(p_k) V_k^+ with seeded random phases p_k: the
    multiplier conj(p_a) p_b on entry (a, b) of block k."""
    rng = np.random.default_rng(seed)
    phases = [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
              for n in sys.algebra.block_dims]
    return _eigen_diagonal_channel(sys, [np.outer(p.conj(), p) for p in phases])


# ---------------------------------------------------------------------------
# twirl: projection onto the flow-commuting class
# ---------------------------------------------------------------------------

def _bucket_ids(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster reals by chaining gaps <= tol (merging is the conservative
    choice: collisions keep a larger subspace): in sorted order a new id
    starts at every gap above tol."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    ids = np.empty(len(values), dtype=np.int64)
    ids[order] = np.cumsum(np.diff(ranked, prepend=ranked[:1]) > tol)
    return ids


def modular_twirl(ch: Channel) -> Channel:
    """Project a unital cp state-compatible channel onto the flow-commuting class.

    In the density eigenbases the flow multiplies coordinate (a, b) by the
    phase of frequency log(lambda_a) - log(lambda_b); averaging
    sigma_{-t}^target o ch o sigma_t^source over all t therefore zeroes every
    superoperator entry coupling coordinates of different frequencies and
    keeps the rest.  That frequency-matching mask is applied directly (the
    long-time average itself is a test oracle, not the production path).
    Idempotent; fixes channels already flow-commuting; preserves unitality,
    complete positivity, and state compatibility.  Frequencies closer than
    TWIRL_FREQ_TOL count as equal.
    """
    bad = precondition_defects(ch)
    if bad:
        raise PreconditionFailed(f"twirl preconditions failed: {bad}")
    w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
    ids = _bucket_ids(np.concatenate([w_t, w_s]), TWIRL_FREQ_TOL)
    ids_t, ids_s = ids[:len(w_t)], ids[len(w_t):]
    mask = ids_t[:, None] == ids_s[None, :]
    return Channel(ch.source, ch.target,
                   from_eigenframe(ch.eigen_superop * mask, ch.source, ch.target))


# ---------------------------------------------------------------------------
# sp_ucp: a seeded step from an interior point along the feasible affine set
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices by one broadcast product, the same products:
    on 2 x 2 blocks np.kron took ~24 us a call against ~3.5 us for this
    (Python 3.11, numpy 2.4), most of a 2x2x2 sp_ucp build's 27 calls."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _null_projection(z: dict, source: System, target: System) -> dict:
    """Orthogonal projection of a Choi collection onto {Z : Z u = 0,
    d^+ Z = 0}, u = coords(1_source), d = coords(D_target): the directions
    that keep Phi(1) and the target state of Phi(x) fixed.

    Two rank-one deflations, with block (j, k) read as [i, a, i', b] for
    the traces: subtract (Z u)_j kron 1_{n_k} / |u|^2, (Z u)_j = Z(1)_j the
    sum over k of the partial traces over the source index; then subtract
    D_j kron (d^+ Z)_k / |d|^2, (d^+ Z)_k the sum over j of the blocks
    traced against conj(D_j) over the target index (D_j the target density
    blocks).  In superoperator coordinates these are Z (1 - u u^+/|u|^2) and
    (1 - d d^+/|d|^2) Z: they act on opposite sides, so they commute, and
    the Frobenius metric they are orthogonal in is the Choi metric too (the
    Choi vector permutes the superoperator's entries).  The blocks are
    returned Hermitian: the Hermitian parts of the projected ones.
    """
    sdims, d_t = source.algebra.block_dims, target.state.density.blocks
    z = dict(z)
    for j, d in enumerate(d_t):
        zu = sum(np.einsum("iaja->ij", z[(j, k)].reshape(len(d), n, len(d), n))
                 for k, n in enumerate(sdims)) / source.algebra.carrier_dim
        for k, n in enumerate(sdims):
            z[(j, k)] = z[(j, k)] - _kron(zu, np.eye(n))
    d_sq = sum(np.vdot(d, d).real for d in d_t)
    for k, n in enumerate(sdims):
        dz = sum(np.einsum("ij,iajb->ab", d.conj(), z[(j, k)].reshape(len(d), n, len(d), n))
                 for j, d in enumerate(d_t)) / d_sq
        for j, d in enumerate(d_t):
            z[(j, k)] = z[(j, k)] - _kron(d, dz)
    return {key: (c + c.conj().T) / 2.0 for key, c in z.items()}


def sp_ucp(source: System, target: System, seed: int) -> Channel:
    """Unital cp state-compatible channel that is generically not flow-compatible.

    Closed form on the Choi blocks, no iteration.  The base point is the
    Choi collection of `state_to_scalar(source, target)`, block (j, k) equal
    to 1_{m_j} kron D_k^T (D_k the source density blocks, m_j the target
    block dims), whose smallest eigenvalue lambda_min is the smallest source
    density eigenvalue, read from the state's eigendecomposition: the base
    sits strictly inside the psd cone.  A seeded random Hermitian Choi
    collection Z is projected onto the null space of the unital and state
    conditions (`_null_projection`).  The output is base + eps * Z with
    eps = lambda_min / (2 |Z|_op), |Z|_op the largest |eigenvalue| of the
    Hermitian blocks: exactly feasible, and completely positive with Choi
    eigenvalues at least lambda_min / 2.  The base is flow-compatible and a
    generic null-space direction is not, so the output breaks the flow by an
    amount of order eps.  The null space has dimension (T - 1)(S - 1) for
    coordinate dims T and S, so when either is 1 there is no free direction
    and `state_to_scalar(source, target)` itself is returned (decided by the
    dims, not by the size of a roundoff-level Z).  The one change of
    representation is the final `choi_to_channel`.
    """
    if source.coord_dim == 1 or target.coord_dim == 1:
        return state_to_scalar(source, target)
    rng = np.random.default_rng(seed)
    z = {}
    for j, m in enumerate(target.algebra.block_dims):
        for k, n in enumerate(source.algebra.block_dims):
            g = (rng.standard_normal((m * n, m * n))
                 + 1j * rng.standard_normal((m * n, m * n)))
            z[(j, k)] = g + g.conj().T
    z = _null_projection(z, source, target)
    z_norm = max(float(np.abs(np.linalg.eigvalsh(c)).max()) for c in z.values())
    eps = 0.5 * min(float(e.eigenvalues[0]) for e in source.state.block_eigs) / z_norm
    d_s, m = source.state.density.blocks, target.algebra.block_dims
    blocks = {(j, k): _kron(np.eye(m[j]), d_s[k].T) + eps * c for (j, k), c in z.items()}
    return choi_to_channel(
        ChoiMatrix(source.algebra, target.algebra, blocks), source, target)


# ---------------------------------------------------------------------------
# declarative instance specs
# ---------------------------------------------------------------------------

@dataclass
class GenSpec:
    """Declarative channel recipe: kind, block dims, seed, kind params."""

    kind: str
    dims: tuple[int, ...]
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        kind_spec(self.kind)
        self.dims = tuple(int(n) for n in self.dims)


@dataclass
class BuildResult:
    channel: Channel
    flags: tuple[str, ...] = ()


def _build_schur(sys: System, spec: GenSpec) -> Channel:
    c = spec.params.get("c")
    if c is None:
        c = random_unit_diagonal_psd(spec.dims[0], derive_seed(spec.seed, 2))
    return schur_channel(sys, np.asarray(c, dtype=np.complex128))


def _build_state_to_scalar(sys: System, spec: GenSpec) -> Channel:
    tdims = tuple(int(n) for n in spec.params.get("target_dims", spec.dims))
    tstate = random_faithful_state(BlockAlgebra(tdims), derive_seed(spec.seed, 4),
                                   float(spec.params.get("min_gap", DEFAULT_MIN_GAP)))
    return state_to_scalar(sys, System(tstate))


def _build_convex(sys: System, spec: GenSpec) -> Channel:
    parts = [identity_channel(sys), state_to_scalar(sys, sys),
             random_automorphism(sys, derive_seed(spec.seed, 7))]
    raw = np.random.default_rng(derive_seed(spec.seed, 8)).uniform(0.1, 1.0, size=len(parts))
    return convex_combine(parts, raw / raw.sum())


@dataclass(frozen=True)
class KindSpec:
    """One row of `KIND_SPECS`: the builder from the source system and the
    spec, the params read besides `min_gap`, whether the channels commute
    with the modular flow, and whether they need a single block."""

    build: Callable[[System, GenSpec], Channel]
    params: tuple[str, ...] = ()
    flow_compatible: bool = True
    single_block: bool = False

    def fits(self, dims: tuple[int, ...]) -> bool:
        return len(dims) == 1 or not self.single_block


KIND_SPECS = {
    "identity": KindSpec(lambda sys, spec: identity_channel(sys)),
    "schur": KindSpec(_build_schur, params=("c",), single_block=True),
    "pinch": KindSpec(lambda sys, spec: pinch_channel(sys)),
    "block_expectation": KindSpec(
        lambda sys, spec: random_partition_expectation(sys, derive_seed(spec.seed, 3))),
    "state_to_scalar": KindSpec(_build_state_to_scalar, params=("target_dims",)),
    "automorphism": KindSpec(
        lambda sys, spec: random_automorphism(sys, derive_seed(spec.seed, 5))),
    "twirl": KindSpec(
        lambda sys, spec: modular_twirl(sp_ucp(sys, sys, derive_seed(spec.seed, 6)))),
    "sp_ucp": KindSpec(lambda sys, spec: sp_ucp(sys, sys, derive_seed(spec.seed, 6)),
                       flow_compatible=False),
    "convex": KindSpec(_build_convex),
}
KINDS = tuple(KIND_SPECS)


def kind_spec(kind: str) -> KindSpec:
    """`KIND_SPECS[kind]`; an unknown kind, hashable or not, is a ValueError."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; known: {KINDS}")
    return KIND_SPECS[kind]


def build_channel(spec: GenSpec) -> BuildResult:
    """Materialize a GenSpec by its kind's row of `KIND_SPECS`; a param other
    than `min_gap` and the kind's own is a ValueError.  Errors of the builders
    and the numerical routines under them (NoConvergence, say) propagate."""
    kind = kind_spec(spec.kind)
    accepted = ("min_gap",) + kind.params
    unknown = [key for key in spec.params if key not in accepted]
    if unknown:
        raise ValueError(f"kind {spec.kind!r} takes no param {unknown[0]!r}; accepted: {accepted}")
    state = random_faithful_state(BlockAlgebra(spec.dims), derive_seed(spec.seed, 1),
                                  float(spec.params.get("min_gap", DEFAULT_MIN_GAP)))
    return BuildResult(channel=kind.build(System(state), spec))


__all__ = [
    "KINDS",
    "KIND_SPECS",
    "GenSpec",
    "BuildResult",
    "derive_seed",
    "random_faithful_state",
    "schur_channel",
    "random_unit_diagonal_psd",
    "pinch_channel",
    "partition_expectation",
    "random_partition_expectation",
    "state_to_scalar",
    "random_automorphism",
    "modular_twirl",
    "sp_ucp",
    "build_channel",
    "convex_combine",
    "DEFAULT_MIN_GAP",
    "TWIRL_FREQ_TOL",
]
