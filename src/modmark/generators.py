"""Instance factory: faithful states and channels for the verification suites.

Every generator except `sp_ucp` produces channels passing all four membership
residuals by construction (entrywise multipliers in the density eigenbasis,
conditional expectations onto commuting projections, state-to-scalar maps,
inner automorphisms by commuting unitaries, frequency twirls, convex mixes).
`sp_ucp` deliberately produces the other thing: unital completely positive
state-compatible channels that generically fail the flow condition, which is
what the negative suites feed on.  It does so in closed form, stepping from
the strictly interior state-to-scalar Choi collection along a seeded
direction in the null space of the unital and dual-fixed-point constraints,
sized so the smallest Choi eigenvalue keeps at least half its gap.

Determinism: each generator is a pure function of its seed; sub-streams are
derived through SeedSequence so reports reproduce bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    to_coords,
)
from .errors import (
    BadSchurMatrix,
    NoConvergence,
    PreconditionFailed,
    ProjectionsDontCommuteWithDensity,
    ShapeMismatch,
    UnitaryDoesntCommuteWithDensity,
)
from .linalg import PD_FLOOR_RTOL, Tolerance
from .markov import (
    Channel,
    ChoiMatrix,
    System,
    channel_from_kraus,
    choi_to_channel,
    convex_combine,
    identity_channel,
    precondition_defects,
    to_choi,
)

KINDS = (
    "identity",
    "schur",
    "pinch",
    "block_expectation",
    "state_to_scalar",
    "automorphism",
    "twirl",
    "sp_ucp",
    "convex",
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
    density eigenbasis of block k."""
    g = sys.modular.frame
    d = np.concatenate([m.flatten(order="F") for m in diag_blocks])
    sup = g.conj().T @ (d[:, None] * g)
    return Channel(sys, sys, sup)


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


def pinch_channel(sys: System) -> Channel:
    """Full conditional expectation onto the density eigenbasis diagonal."""
    diags = [np.eye(n, dtype=np.complex128) for n in sys.algebra.block_dims]
    return _eigen_diagonal_channel(sys, diags)


def spectral_projections(sys: System, parts: list[list[tuple[int, int]]]) -> list[AlgebraElement]:
    """Projections summing eigenvector dyads; parts list (block, eig index) pairs."""
    md = sys.modular
    out = []
    for part in parts:
        blocks = [np.zeros((n, n), dtype=np.complex128) for n in sys.algebra.block_dims]
        for k, i in part:
            v = md.d_eig[k].eigenvectors[:, i]
            blocks[k] += np.outer(v, v.conj())
        out.append(AlgebraElement(sys.algebra, blocks))
    return out


def block_expectation(sys: System, projections: list[AlgebraElement],
                      atol: float = 1e-12) -> Channel:
    """Conditional expectation x |-> sum_i P_i x P_i, the Kraus channel of
    the block-diagonal projections.

    The projections must be Hermitian idempotents summing to the identity and
    commuting with the density; commutation is what keeps the expectation
    state-compatible and flow-compatible.
    """
    if not projections:
        raise PreconditionFailed("need at least one projection")
    d = sys.state.density
    total = sys.algebra.zero()
    for p in projections:
        if p.parent != sys.algebra:
            raise ShapeMismatch("projection lives on a different algebra")
        if (p @ p - p).norm() > atol or (p - p.adjoint()).norm() > atol:
            raise PreconditionFailed("inputs must be Hermitian idempotents")
        if (p @ d - d @ p).norm() > atol:
            raise ProjectionsDontCommuteWithDensity(
                f"[P, D] has norm {(p @ d - d @ p).norm():.3e}")
        total = total + p
    if (total - sys.algebra.identity()).norm() > atol:
        raise PreconditionFailed("projections must sum to the identity")
    return channel_from_kraus(
        [scipy.linalg.block_diag(*p.blocks) for p in projections], sys, sys)


def random_partition_expectation(sys: System, seed: int) -> Channel:
    """Conditional expectation onto a random coarsening of the eigenframe."""
    rng = np.random.default_rng(seed)
    labels = [(k, i) for k, n in enumerate(sys.algebra.block_dims) for i in range(n)]
    n_parts = int(rng.integers(1, len(labels) + 1))
    assignment = rng.integers(0, n_parts, size=len(labels))
    parts: dict[int, list[tuple[int, int]]] = {}
    for lab, who in zip(labels, assignment):
        parts.setdefault(int(who), []).append(lab)
    return block_expectation(sys, spectral_projections(sys, list(parts.values())))


def state_to_scalar(source: System, target: System) -> Channel:
    """x |-> source_state(x) * identity of the target; compatible for any target."""
    col = to_coords(target.algebra.identity())
    row = to_coords(source.state.density).conj()
    return Channel(source, target, np.outer(col, row))


def automorphism_channel(sys: System, u: AlgebraElement, atol: float = 1e-12) -> Channel:
    """Inner automorphism x |-> u^+ x u for a unitary commuting with the
    density, the Kraus channel of u as one block-diagonal operator."""
    if u.parent != sys.algebra:
        raise ShapeMismatch("unitary lives on a different algebra")
    one = sys.algebra.identity()
    if (u.adjoint() @ u - one).norm() > atol:
        raise PreconditionFailed("input is not unitary")
    d = sys.state.density
    if (u @ d - d @ u).norm() > atol:
        raise UnitaryDoesntCommuteWithDensity(
            f"[U, D] has norm {(u @ d - d @ u).norm():.3e}")
    return channel_from_kraus([scipy.linalg.block_diag(*u.blocks)], sys, sys)


def random_commuting_unitary(sys: System, seed: int) -> AlgebraElement:
    """Unitary diagonal in the density eigenbasis (random phases)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for e in sys.modular.d_eig:
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=e.dim))
        blocks.append((e.eigenvectors * phases) @ e.eigenvectors.conj().T)
    return AlgebraElement(sys.algebra, blocks)


# ---------------------------------------------------------------------------
# twirl: projection onto the flow-commuting class
# ---------------------------------------------------------------------------

def _bucket_ids(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster reals by chaining gaps <= tol (merging is the conservative
    choice: collisions keep a larger subspace)."""
    order = np.argsort(values, kind="stable")
    ids = np.empty(len(values), dtype=np.int64)
    current = 0
    prev = None
    for pos in order:
        v = float(values[pos])
        if prev is not None and v - prev > tol:
            current += 1
        ids[pos] = current
        prev = v
    return ids


def modular_twirl(ch: Channel, freq_tol: float = TWIRL_FREQ_TOL,
                  tol: Tolerance | None = None) -> Channel:
    """Project a unital cp state-compatible channel onto the flow-commuting class.

    In the density eigenbases the flow multiplies coordinate (a, b) by the
    phase of frequency log(lambda_a) - log(lambda_b); averaging
    sigma_{-t}^target o ch o sigma_t^source over all t therefore zeroes every
    superoperator entry coupling coordinates of different frequencies and
    keeps the rest.  That frequency-matching mask is applied directly (the
    long-time average itself is a test oracle, not the production path).
    Idempotent; fixes channels already flow-commuting; preserves unitality,
    complete positivity, and state compatibility.
    """
    bad = precondition_defects(ch, tol)
    if bad:
        raise PreconditionFailed(f"twirl preconditions failed: {bad}")
    md_s, md_t = ch.source.modular, ch.target.modular
    w_s, w_t = md_s.frequencies, md_t.frequencies
    ids = _bucket_ids(np.concatenate([w_t, w_s]), freq_tol)
    ids_t, ids_s = ids[:len(w_t)], ids[len(w_t):]
    mask = ids_t[:, None] == ids_s[None, :]
    return Channel(ch.source, ch.target,
                   md_t.frame.conj().T @ (ch.eigen_superop * mask) @ md_s.frame)


# ---------------------------------------------------------------------------
# sp_ucp: a seeded step from an interior point along the feasible affine set
# ---------------------------------------------------------------------------

def _choi_pairs(source: BlockAlgebra, target: BlockAlgebra):
    return [(j, k, m, n)
            for j, m in enumerate(target.block_dims)
            for k, n in enumerate(source.block_dims)]


def _choi_vec(blocks: dict, pairs) -> np.ndarray:
    return np.concatenate([blocks[(j, k)].ravel() for j, k, _, _ in pairs])


def _choi_unvec(vec: np.ndarray, pairs) -> dict:
    out, off = {}, 0
    for j, k, m, n in pairs:
        sz = (m * n) ** 2
        out[(j, k)] = vec[off:off + sz].reshape(m * n, m * n)
        off += sz
    return out


def _affine_system(source: System, target: System):
    """Constraint matrix A and right-hand side b of the two affine conditions.

    A @ vec(C) - b stacks Phi(1) - 1 (one row block per target block) and
    trace_dual(Phi)(D_target) - D_source (one row block per source block)
    for the channel Phi of a Hermitian Choi collection C.  Block (j, k) read
    as c[i, a, i', b] = Phi(E_ab)[i, i'] feeds unital rows (i, i') through
    the trace over a = b, and dual rows (b, a) through D_target[i', i]; the
    dual rows are written without conjugation so A stays complex-linear.
    """
    pairs = _choi_pairs(source.algebra, target.algebra)
    tdims, sdims = target.algebra.block_dims, source.algebra.block_dims
    row_off = np.cumsum([0] + [m * m for m in tdims] + [n * n for n in sdims])
    a = np.zeros((row_off[-1], sum((m * n) ** 2 for _, _, m, n in pairs)),
                 dtype=np.complex128)
    col = 0
    for j, k, m, n in pairs:
        width = (m * n) ** 2
        eye_m, eye_n = np.eye(m), np.eye(n)
        a[row_off[j]:row_off[j + 1], col:col + width] = np.einsum(
            "pi,qj,ab->pqiajb", eye_m, eye_m, eye_n).reshape(m * m, width)
        u = len(tdims) + k
        a[row_off[u]:row_off[u + 1], col:col + width] = np.einsum(
            "zx,yq,wp->pqxyzw", target.state.density.blocks[j], eye_n,
            eye_n).reshape(n * n, width)
        col += width
    b = np.concatenate(
        [np.eye(m, dtype=np.complex128).ravel() for m in tdims]
        + [blk.ravel() for blk in source.state.density.blocks])
    return a, b


def sp_ucp(source: System, target: System, seed: int,
           start: ChoiMatrix | None = None) -> Channel:
    """Unital cp state-compatible channel that is generically not flow-compatible.

    Closed form, no iteration.  The base point is the Choi collection of
    `state_to_scalar` (or `start`), whose smallest Choi eigenvalue
    lambda_min is the smallest source density eigenvalue, so it sits strictly
    inside the psd cone.  A seeded random
    Hermitian collection Z is projected onto the null space of the unital
    and dual-fixed-point constraints, and the output is base + eps * Z with
    eps = lambda_min / (2 |Z|_op): exactly feasible, and completely positive
    with Choi eigenvalues at least lambda_min / 2.  The base is
    flow-compatible and a generic null-space direction is not, so the
    output breaks the flow by an amount of order eps.

    A `start` must be Hermitian, unital, completely positive and state
    compatible (PreconditionFailed otherwise); one on the cone boundary,
    lambda_min = 0, comes back unchanged.
    """
    pairs = _choi_pairs(source.algebra, target.algebra)
    if start is None:
        start = to_choi(state_to_scalar(source, target))
    else:
        bad = precondition_defects(choi_to_channel(start, source, target))
        if bad:
            raise PreconditionFailed(f"sp_ucp start is not feasible: {bad}")
    a_mat, _ = _affine_system(source, target)
    rng = np.random.default_rng(seed)
    z = {}
    for j, k, m, n in pairs:
        g = (rng.standard_normal((m * n, m * n))
             + 1j * rng.standard_normal((m * n, m * n)))
        z[(j, k)] = g + g.conj().T
    # Null-space projection through the small Gram matrix.  The rows are
    # always rank deficient by one (tr(D_t Phi(1)) = tr(Phi^+(D_t)) ties a
    # unital row combination to a dual one), so the solve drops the
    # numerically zero Gram eigenvalues.
    w, v = np.linalg.eigh(a_mat @ a_mat.conj().T)
    keep = w > 1e-10 * w[-1]
    v, w = v[:, keep], w[keep]
    zvec = _choi_vec(z, pairs)
    zvec = zvec - a_mat.conj().T @ (v @ ((v.conj().T @ (a_mat @ zvec)) / w))
    z = {key: (c + c.conj().T) / 2.0 for key, c in _choi_unvec(zvec, pairs).items()}
    z_norm = max(float(np.linalg.norm(c, 2)) for c in z.values())
    lam = max(start.min_eigenvalue(), 0.0)
    # full column rank (dims (1,)) leaves a null space of {0}: Z is rounding
    eps = 0.5 * lam / z_norm if np.count_nonzero(keep) < a_mat.shape[1] else 0.0
    blocks = {key: start.blocks[key] + eps * z[key] for key in z}
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; known: {KINDS}")
        self.dims = tuple(int(n) for n in self.dims)


@dataclass
class BuildResult:
    channel: Channel
    spec: GenSpec
    flags: tuple[str, ...] = ()


def _source_system(spec: GenSpec) -> System:
    min_gap = float(spec.params.get("min_gap", DEFAULT_MIN_GAP))
    state = random_faithful_state(BlockAlgebra(spec.dims),
                                  derive_seed(spec.seed, 1), min_gap)
    return System(state)


def build_channel(spec: GenSpec) -> BuildResult:
    """Materialize a GenSpec.  A generator raising NoConvergence is
    downgraded to a "no_convergence" flag on the result, its payload (the
    best iterate) standing in as the channel; the CLI maps flagged builds to
    exit 3.  No in-tree generator iterates today, so this is the contract
    for ones that may."""
    flags: tuple[str, ...] = ()
    if spec.kind == "twirl":
        base_params = dict(spec.params.get("base_params", {}))
        base_kind = spec.params.get("base_kind", "sp_ucp")
        base = build_channel(GenSpec(base_kind, spec.dims, spec.seed, base_params))
        return BuildResult(channel=modular_twirl(base.channel), spec=spec,
                           flags=base.flags)
    sys = _source_system(spec)
    if spec.kind == "identity":
        ch = identity_channel(sys)
    elif spec.kind == "schur":
        if len(spec.dims) != 1:
            raise ShapeMismatch("kind 'schur' needs a single-block algebra")
        c = spec.params.get("c")
        if c is None:
            c = random_unit_diagonal_psd(spec.dims[0], derive_seed(spec.seed, 2))
        ch = schur_channel(sys, np.asarray(c, dtype=np.complex128))
    elif spec.kind == "pinch":
        ch = pinch_channel(sys)
    elif spec.kind == "block_expectation":
        ch = random_partition_expectation(sys, derive_seed(spec.seed, 3))
    elif spec.kind == "state_to_scalar":
        tdims = tuple(int(n) for n in spec.params.get("target_dims", spec.dims))
        tstate = random_faithful_state(
            BlockAlgebra(tdims), derive_seed(spec.seed, 4),
            float(spec.params.get("min_gap", DEFAULT_MIN_GAP)))
        ch = state_to_scalar(sys, System(tstate))
    elif spec.kind == "automorphism":
        ch = automorphism_channel(sys, random_commuting_unitary(
            sys, derive_seed(spec.seed, 5)))
    elif spec.kind == "sp_ucp":
        try:
            ch = sp_ucp(sys, sys, derive_seed(spec.seed, 6))
        except NoConvergence as exc:
            ch = exc.payload
            flags = ("no_convergence",)
    elif spec.kind == "convex":
        u = automorphism_channel(sys, random_commuting_unitary(
            sys, derive_seed(spec.seed, 7)))
        parts = [identity_channel(sys), state_to_scalar(sys, sys), u]
        raw = np.random.default_rng(derive_seed(spec.seed, 8)).uniform(
            0.1, 1.0, size=len(parts))
        ch = convex_combine(parts, raw / raw.sum())
    else:  # pragma: no cover - guarded by GenSpec validation
        raise ValueError(f"unhandled kind {spec.kind!r}")
    return BuildResult(channel=ch, spec=spec, flags=flags)


__all__ = [
    "KINDS",
    "GenSpec",
    "BuildResult",
    "derive_seed",
    "random_faithful_state",
    "schur_channel",
    "random_unit_diagonal_psd",
    "pinch_channel",
    "spectral_projections",
    "block_expectation",
    "random_partition_expectation",
    "state_to_scalar",
    "automorphism_channel",
    "random_commuting_unitary",
    "modular_twirl",
    "sp_ucp",
    "build_channel",
    "convex_combine",
    "DEFAULT_MIN_GAP",
    "TWIRL_FREQ_TOL",
]
