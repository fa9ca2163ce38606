"""Residual suites for the GNS-extension identities.

Each suite turns an operator identity into a named nonnegative residual with
a recorded tolerance, so a report reader can audit every pass/fail.  Residual
keys, fixed as the report schema:

    markov_unital / markov_cp / markov_state / markov_modular
        the four membership residuals of the channel itself
    eq32_t         |T U_s(t) - U_t(t) T|  over sampled t (unitary flow level)
    thm_i_s        |Delta_t^{-s} T Delta_s^{s} - T|  over sampled real s
    thm_ii         |J_t T J_s - T|  (conjugation intertwining)
    thm_iii        S_t T S_s = T on the embedded unit basis
    thm_commute_z  |T Delta_s^{z} - Delta_t^{z} T|  over sampled complex z
    kadison_norm   max(0, |T|_op - 1)
    omega_map      |T Omega_source - Omega_target|
    adjoint_consistency  |T^+ - T_{adjoint channel}|
    petz_match     distance between asymmetric and symmetric adjoint forms
    gns_*          modular axioms of the endpoint states themselves, both
                   states in one stacked pass through the spectral powers D^z

Instances that fail the flow condition on purpose (kind sp_ucp) are expected
to fail exactly the flow-dependent keys; those failures are reported in an
expected section and do not count against a suite run.

Every residual is computed in the density eigenframes G (`gns`), where
multiplying by D^p on the left (right) is the diagonal lambda_a^p
(lambda_b^p) and Delta^z is exp(z omega).  Each channel caches one matrix
there, X = G_t ch G_s^+ (`Channel.eigen_superop`), and the extension
T_eig = G_t T G_s^+ is a diagonal reweighting of it (`eigen_extension`).
The flow keys are norms of masked copies of T_eig, thm_ii and thm_iii
come from one adjoint-permuted conjugate of it in one symmetry pass
(`_symmetry_residuals`), and both adjoint keys are norms of X^+ times
eigenvalue weights.  From N = 100 (`gns.FRAME_MIN_DIM`) G is applied by
its Kronecker factors and never formed: X, and thm_iii's and
markov_modular's column norms, which take Gram matrices instead of a
product by G_s (`ModularData.frame_column_norms`).
Below N = 100 (`linalg.LANCZOS_MIN_DIM`) the norms are stacked SVDs under
a fixed cap on entries per call (`linalg.STACK_ENTRIES`).

From N = 100 on, every norm, kadison_norm and markov_cp's Choi eigenvalues
are taken by `linalg.certified_value` instead, each certified against its
key's tolerance.  A norm's Golub-Kahan-Lanczos Ritz value r is a lower
bound on |A|_op and |A|_F an upper bound, so r > tol is a certain fail and
|A|_F <= tol a certain pass.  kadison_norm is max(0, r - 1), r the Ritz
value of T_eig, and a Cholesky factor of (1 + tol)^2 1 - T^+ T certifies
its pass.  A Choi block that has a Cholesky factor keeps markov_cp at its
Hermiticity defect; one that factors only with its tolerance tau added
gives the Lanczos upper bound |C|_F - r' on lambda_min, r' the Ritz value
of |C|_F 1 - C.  A verdict no certificate settles takes the dense SVD or
eigvalsh.  Verdicts are those of the dense route; the residual values
match it to rounding, not bit for bit, and kadison_norm and markov_cp
are bounds on the dense values, from below up to rounding.

The sampled flow keys (eq32_t, thm_commute_z, thm_i_s) are maxima over
their samples, all three from one stack of masks (`_flow_residuals`), and
they bound-and-prune per family: a first pass brackets each masked matrix
A by |A|_F >= |A|_op >= |A u|, u one power step from the largest column,
and only a mask whose Frobenius bound reaches its family's top lower
bound, within a relative slack of 1e-6, takes a norm.  The slack is ~1e7
times the norm's rounding error at these sizes, so the mask holding the
max always survives; LAPACK gives a matrix the same bits whatever its
stack holds, so each max is the same float as over every mask of its
family alone.  Pruning cuts how many norms are taken, and the Lanczos
route how much each one costs.

The gns_* keys alone stay out of the frame: they use the spectral powers,
so they test the modular data the frame is built from.  Both endpoint
states go through one stacked pass (`_modular_axioms`).  Each state's
blocks sit block-diagonally in one carrier matrix (c = sum n_k), and the
smaller state is zero-padded to the larger carrier; zeros stay zero under
J, the powers and both actions, so the padding adds nothing to a norm or an
inner product.  Each state draws its five test elements from one generator,
default_rng(derive_seed(seed, 21)), for all its blocks at once, and its ten
powers D^{+-1/2}, D^{+-1} and D^{+-it} come from one batched product
(`ModularData.d_power_stack`).  A gns_* residual is the larger of the two
states' values.  The explicit kron-product, per-unit and per-vector routes
are kept as test oracles.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NotMarkov
from . import linalg
from .generators import BuildResult, GenSpec, build_channel, derive_seed
from .gns import ModularData
from .linalg import certified_value, power_condition_scale, stack_chunk, tolerance_factor
from .markov import Channel, adjoint_index, check_markov, eigen_extension
from .serialize import genspec_to_json

DEFAULT_EQ32_T = (1.0, -1.0, 0.37, -0.37, 5.0, -5.0)
DEFAULT_S_VALUES = (1.0, -1.0, 0.5, -0.5)
DEFAULT_Z_COUNT = 16

POSITIVE_KINDS = ("identity", "schur", "pinch", "block_expectation",
                  "state_to_scalar", "automorphism", "twirl", "convex")

# Flow-dependent keys: exactly the identities that need the channel to
# intertwine the flows, so deliberately non-commuting instances are expected
# to fail these and only these.
FLOW_DEPENDENT_KEYS = frozenset({
    "markov_modular", "eq32_t", "thm_i_s", "thm_commute_z", "thm_ii",
    "adjoint_consistency", "petz_match",
})

EXPECTED_FAIL_BY_KIND = {"sp_ucp": FLOW_DEPENDENT_KEYS}

# Pinned verdict tolerances: value = pinned base, scaled at report time by
# the MODMARK_TOL factor and by the recorded condition scale.  The markov_*
# keys take `markov.membership_tolerances` instead.
PINNED_TOL = {
    "eq32_t": 1e-10,
    "thm_i_s": 1e-8,
    "thm_ii": 1e-8,
    "thm_iii": 1e-8,
    "thm_commute_z": 1e-8,
    "kadison_norm": 1e-10,
    "omega_map": 1e-10,
    "adjoint_consistency": 1e-9,
    "petz_match": 1e-9,
    "gns": 1e-10,
}


def sample_z(seed: int, count: int = DEFAULT_Z_COUNT) -> list[complex]:
    """Deterministic complex exponent samples with |Re| <= 1, |Im| <= 5."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-1.0, 1.0, size=count)
    im = rng.uniform(-5.0, 5.0, size=count)
    return [complex(a, b) for a, b in zip(re, im)]


def _ensure_markov(ch: Channel) -> None:
    mc = check_markov(ch)
    if not mc.passed:
        failing = {k: v for k, v in mc.residuals.items() if not mc.verdicts[k]}
        raise NotMarkov(f"channel fails membership residuals {failing}")


def verify_crucial(ch: Channel, t_samples=DEFAULT_EQ32_T,
                   require_markov: bool = True) -> float:
    """Max residual of T U_source(t) = U_target(t) T over the sampled t."""
    if require_markov:
        _ensure_markov(ch)
    return _flow_residuals(eigen_extension(ch), ch,
                           commute=[([1j * float(t) for t in t_samples],
                                     _tolerances(ch)["eq32_t"])])[0]


def verify_commute(ch: Channel, z_samples, s_values=DEFAULT_S_VALUES,
                   require_markov: bool = True) -> tuple[float, float]:
    """(complex-power intertwining residual, real-power twist residual).

    First entry: max over sampled z of |T Delta_s^z - Delta_t^z T|.  Second:
    max over sampled real s of |Delta_t^{-s} T Delta_s^{s} - T|, the
    twist-invariance form of the same identity.  Both in one flow pass.
    """
    if require_markov:
        _ensure_markov(ch)
    z_samples, s_values = list(z_samples), list(s_values)
    tol = _tolerances(ch, s_values, z_samples)
    return tuple(_flow_residuals(eigen_extension(ch), ch,
                                 commute=[(z_samples, tol["thm_commute_z"])],
                                 twist=[(s_values, tol["thm_i_s"])]))


# Relative slack of the prune test: ~1e7 times the SVD's backward error
# (~N eps) and the rounding of the bounds, so the mask holding the max
# always reaches the SVD.
_PRUNE_SLACK = 1e-6
# Below this top lower bound every mask reaches the SVD: |A A^+ c|^2 in the
# power step scales as the sixth power of the entries and loses bits to
# underflow near 1e-51, the squared column norms near 1e-154.
_PRUNE_FLOOR = 1e-40
_TINY = np.finfo(float).tiny


def _chunk_size(base: np.ndarray) -> int:
    """Masks per stacked product under `linalg.STACK_ENTRIES`.  Refuses a
    non-finite base, before inf * 0 can warn in a product."""
    if not np.isfinite(base).all():
        raise ValueError("matrix entries must be finite")
    return stack_chunk(base.size)


def _masked_product(base: np.ndarray, masks: Callable, sel) -> np.ndarray:
    """base * masks(sel), formed in the fresh mask stack that masks(sel)
    returns; refuses non-finite entries.  base is the left operand: complex
    products with FMA are not commutative bit for bit."""
    prod = masks(sel)
    np.multiply(base, prod, out=prod)
    if not np.isfinite(prod).all():
        raise ValueError("matrix entries must be finite")
    return prod


def _stack_norms(prod: np.ndarray, tols) -> list[float]:
    """`certified_value(a, tol)` for each matrix a of a stack and its
    tolerance; below `linalg.LANCZOS_MIN_DIM` one stacked SVD."""
    if min(prod.shape[-2:]) < linalg.LANCZOS_MIN_DIM:
        return np.linalg.svd(prod, compute_uv=False)[:, 0].tolist()
    return [certified_value(a, tol) for a, tol in zip(prod, tols)]


def _masked_op_norms(base: np.ndarray, masks: Callable, tols) -> list[float]:
    """`certified_value(base * m, tol)` for the masks m and their tolerances in
    tols, in stacks under the entry cap.  masks(sel) is a fresh complex
    stack of the masks sel, a slice of range(len(tols))."""
    step = _chunk_size(base)
    norms: list[float] = []
    for lo in range(0, len(tols), step):
        prod = _masked_product(base, masks, slice(lo, lo + step))
        norms += _stack_norms(prod, tols[lo:lo + step])
        del prod  # freed before the next chunk is built, not after
    return norms


def _norm_bounds(prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) bounds on the operator norm of each matrix A of a stack:
    |A|_F, and the larger of the largest column norm |c| and |A u|, u the
    unit vector along A^+ c, one power step from that column."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan prune nothing
        sq = np.abs(prod)
        np.square(sq, out=sq)  # |A|^2 in place: no complex or view copies
        col_sq = np.ones(prod.shape[-2]) @ sq
        del sq
        upper = np.sqrt(col_sq.sum(axis=-1))
        rows = np.arange(len(prod))
        best = col_sq.argmax(axis=-1)
        r = prod[rows, :, best].conj()[:, None, :] @ prod  # (A^+ c)^+, a row each
        v = r.conj().swapaxes(-1, -2)
        w = prod @ v                                       # |A u| = |w| / |r|
        r_sq = (r @ v)[:, 0, 0].real
        w_sq = (w.conj().swapaxes(-1, -2) @ w)[:, 0, 0].real
        a_u = np.sqrt(w_sq / np.maximum(r_sq, _TINY))
    return upper, np.maximum(np.sqrt(col_sq[rows, best]), a_u)


def _masked_op_norm_maxima(base: np.ndarray, masks: Callable, counts,
                           tols) -> list[float]:
    """max(`certified_value`(base * m, tols[i])) over the masks m of each family i,
    0.0 for none, bit for bit, with only the masks that can hold a max
    taking a norm.  Family i is the next counts[i] masks of one stack, and
    masks(sel) is a fresh complex stack of the masks sel, an ascending
    index array into range(sum(counts)).

    A bound pass brackets each A = base * m by `_norm_bounds`, one call per
    chunk.  A mask whose upper bound lies below its family's top lower
    bound, by more than `_PRUNE_SLACK` of each, cannot hold that max.  The
    last chunk's survivors move to its front in place and take their norms
    there; earlier survivors are re-formed under the same cap, so one chunk
    of masked copies is alive at a time."""
    family = np.repeat(np.arange(len(counts)), counts)
    total = len(family)
    maxima = np.zeros(len(counts))
    if total == 0:
        return maxima.tolist()
    tol = np.asarray(tols, dtype=float)[family]
    step = _chunk_size(base)
    upper, lower = np.empty(total), np.empty(total)
    for lo in range(0, total, step):
        prod = None  # the last chunk is freed before the next one is built
        prod = _masked_product(base, masks, np.arange(lo, min(lo + step, total)))
        upper[lo:lo + step], lower[lo:lo + step] = _norm_bounds(prod)
    ends = np.cumsum(counts)
    top = np.array([lower[a:b].max(initial=-np.inf) for a, b in zip(ends - counts, ends)])
    top = (top * (1.0 - _PRUNE_SLACK))[family]
    # non-finite or underflowing bounds prune nothing
    trusted = (_PRUNE_FLOOR <= top) & (top < np.inf)
    keep = np.flatnonzero(~(trusted & (upper * (1.0 + _PRUNE_SLACK) < top)))
    held, rest = keep[keep >= lo], keep[keep < lo]
    for dst, src in enumerate(held - lo):
        if dst != src:
            prod[dst] = prod[src]
    np.maximum.at(maxima, family[held], _stack_norms(prod[:len(held)], tol[held]))
    del prod
    np.maximum.at(maxima, family[rest],
                  _masked_op_norms(base, lambda sl: masks(rest[sl]), tol[rest]))
    return maxima.tolist()


def _flow_residuals(t_eig: np.ndarray, ch: Channel, commute=(), twist=()) -> list[float]:
    """In one `_masked_op_norm_maxima` pass, each taken for the verdict
    against its tol: max_z |T_eig * (exp(z w_s)[None, :] - exp(z w_t)[:, None])|
    for each (z samples, tol) in commute, then
    max_s |T_eig * (exp(-s w_t)[:, None] exp(s w_s)[None, :] - 1)| for each
    (s values, tol) in twist.  Each endpoint state gives exp(z w) for every
    exponent in one `delta_power_diagonals` call."""
    fams = ([(list(zs), tol) for zs, tol in commute]
            + [([float(s) for s in ss], tol) for ss, tol in twist])
    counts = [len(f) for f, _ in fams]
    n_commute = sum(counts[:len(commute)])
    exps = [z for f, _ in fams for z in f]
    d_s = ch.source.modular.delta_power_diagonals(exps)
    d_t = ch.target.modular.delta_power_diagonals(
        exps[:n_commute] + [-s for s in exps[n_commute:]])

    def masks(sel: np.ndarray) -> np.ndarray:
        out = np.empty((len(sel), *t_eig.shape), dtype=np.complex128)
        cut = np.searchsorted(sel, n_commute)
        c, t = sel[:cut], sel[cut:]
        np.subtract(d_s[c, None, :], d_t[c, :, None], out=out[:cut])
        np.multiply(d_s[t, None, :], d_t[t, :, None], out=out[cut:])
        np.subtract(out[cut:], 1.0, out=out[cut:])
        return out

    return _masked_op_norm_maxima(t_eig, masks, counts, [tol for _, tol in fams])


def verify_modular_symmetry(ch: Channel,
                            require_markov: bool = True) -> tuple[float, float]:
    """(conjugation intertwining residual, involution intertwining residual),
    as `_symmetry_residuals` gives them at thm_ii's tolerance for
    `DEFAULT_S_VALUES`."""
    if require_markov:
        _ensure_markov(ch)
    return _symmetry_residuals(eigen_extension(ch), ch, _tolerances(ch)["thm_ii"])


def _symmetry_residuals(t_eig: np.ndarray, ch: Channel,
                        tol: float) -> tuple[float, float]:
    """(thm_ii, thm_iii) from one adjoint-permuted conjugate P_t conj(T_eig) P_s.

    thm_ii, J_t T J_s = T, is an operator-norm statement: the linear matrix
    of the conjugate-linear composition is P_t conj(T) P_s, and the adjoint
    permutation P commutes with the frame, V^+ x^+ V = (V^+ x V)^+, so it
    applies to T_eig as to T.  The norm |P_t conj(T_eig) P_s - T_eig| is
    taken for the verdict against tol (`certified_value`).

    thm_iii, S_t T S_s = T, is checked on the embedded unit basis because S
    is conjugate-linear and determined there: the max over source matrix
    units E of |S_t T S_s (E Omega) - T (E Omega)|.  With A = Delta^{1/2},
    S v = P conj(A v), so the defect is the max column norm of
    (P_t conj(A_t T P_s) A_s - T) R_s, R_s the right multiplication by
    D_s^{1/2}.  In the eigenframes A is the diagonal exp(w/2), P A = A^{-1} P
    and R_s is sqrt(lambda_b) on entry (a, b), so the same permuted
    conjugate is reweighted by Delta_t^{-1/2} and Delta_s^{1/2} and only the
    last product leaves the frame.  On a flow-commuting T those weights are
    1 on T's support, which pairs equal frequencies, so swapping the two
    half powers changes nothing there; only a channel off the flow class
    (kind sp_ucp) tells them apart.  The column norms through G_s are
    `ModularData.frame_column_norms`.
    """
    md_s, md_t = ch.source.modular, ch.target.modular
    p_s = adjoint_index(ch.source.algebra)
    p_t = adjoint_index(ch.target.algebra)
    flipped = t_eig.conj()[p_t][:, p_s]
    conjugation = certified_value(flipped - t_eig, tol)
    lhs = (md_t.delta_power_diagonals([-0.5]).T
           * flipped
           * md_s.delta_power_diagonals([0.5]))
    r_s = np.sqrt(md_s.lambda_b)
    return conjugation, float(md_s.frame_column_norms((lhs - t_eig) * r_s[None, :]).max())


def verify_adjoint(ch: Channel,
                   require_markov: bool = True) -> tuple[float, float, float]:
    """(adjoint consistency, symmetric-form match, norm excess).

    adjoint consistency: |T^+ - T_{ch*}| with ch* the state-twisted adjoint.
    symmetric-form match: superoperator distance between the asymmetric
    adjoint and the symmetric (Petz) form; the two coincide exactly on
    flow-commuting channels.  norm excess: max(0, |T|_op - 1).
    """
    if require_markov:
        _ensure_markov(ch)
    return _adjoint_residuals(eigen_extension(ch), ch, _tolerances(ch))


def _adjoint_residuals(t_eig: np.ndarray, ch: Channel,
                       tol: dict[str, float]) -> tuple[float, float, float]:
    """The `verify_adjoint` triple, each taken for its verdict against tol.
    In the frame T^+, the adjoint channel ch* = D_s^{-1} ch^+(D_t .), its
    extension and the Petz form are all X^+ = `ch.eigen_superop`^+ weighted
    by eigenvalues of row i (source) and column j (target).  |T| is 1 on the
    class, so |T|_F cannot certify kadison_norm's |T| <= 1 + tol: from
    `linalg.LANCZOS_MIN_DIM` on a Cholesky factor does (`certified_value`,
    kind "excess")."""
    md_s, md_t = ch.source.modular, ch.target.modular
    x_h = ch.eigen_superop.conj().T
    la_s, rb_s = md_s.lambda_a[:, None], np.sqrt(md_s.lambda_b)[:, None]
    la_t, rb_t = md_t.lambda_a[None, :], np.sqrt(md_t.lambda_b)[None, :]
    # T^+ minus the extension of ch*
    consistency = rb_t / rb_s - (rb_s / la_s) * (la_t / rb_t)
    # ch* minus the Petz form D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2}
    petz = la_t / la_s - np.sqrt(la_t) * rb_t / (np.sqrt(la_s) * rb_s)
    adjc, petz_norm = _masked_op_norms(
        x_h, lambda sl: np.array((consistency, petz)[sl], dtype=np.complex128),
        (tol["adjoint_consistency"], tol["petz_match"]))
    return adjc, petz_norm, certified_value(t_eig, tol["kadison_norm"], "excess")


def _omega_residual(t_eig: np.ndarray, ch: Channel) -> float:
    """|T Omega_s - Omega_t|; in the frame Omega = D^{1/2} is sqrt(lambda_a)
    on the diagonal entries (a, a) and 0 elsewhere."""
    def omega(md: ModularData) -> np.ndarray:
        diag = np.concatenate([np.eye(e.dim).ravel() for e in md.d_eig])
        return diag * np.sqrt(md.lambda_a)
    return float(np.linalg.norm(
        t_eig @ omega(ch.source.modular) - omega(ch.target.modular)))


# ---------------------------------------------------------------------------
# modular axioms of the endpoint states
# ---------------------------------------------------------------------------

_GNS_T = (0.7, -1.0, 5.0)
# exponents of the precomputed powers: D^{1/2}, D, D^{it} for the three t,
# then the same five negated
_GNS_ZS = (0.5, 1.0) + tuple(1j * t for t in _GNS_T)
_GNS_ZS += tuple(-z for z in _GNS_ZS)
# each norm key and its number of rows in the stacked differences
_GNS_NORM_ROWS = {
    "gns_s_polar": 4,
    "gns_j_involution": 2,
    "gns_jdj_inverse": 2,
    "gns_omega_fixed": 4,
    "gns_delta_it_j": 6,
    "gns_commutant": 4,
    "gns_flow_embed": 6,
}
_GNS_KEYS = (*_GNS_NORM_ROWS, "gns_delta_ss", "gns_j_antiunitary")
_GNS_OFFSETS = np.cumsum([0, *_GNS_NORM_ROWS.values()])[:-1]


def _adj(a: np.ndarray) -> np.ndarray:
    """J on a stack of carrier matrices: each conjugate-transposed."""
    return a.conj().swapaxes(-1, -2)


def _gns_draws(md: ModularData, seed: int) -> np.ndarray:
    """The five unit test elements of one state on its carrier, (5, c, c),
    in the order x1, x2 (embedded as x D^{1/2}), xi, eta (GNS vectors) and
    y (acting on the right).

    One generator, default_rng(derive_seed(seed, 21)), draws a standard
    normal array g of shape (2, 5, c, c), c = `carrier_dim`; element i is
    g[0, i] + 1j g[1, i] with every entry outside the diagonal blocks set to
    zero.  x2 is then made Hermitian, (e + e^+)/2, and each element is
    divided by its GNS norm, the Frobenius norm of the carrier matrix (its
    blocks in quadrature).
    """
    alg = md.algebra
    c = alg.carrier_dim
    g = np.random.default_rng(derive_seed(seed, 21)).standard_normal((2, 5, c, c))
    e = g[0] + 1j * g[1]
    if alg.num_blocks > 1:
        labels = np.repeat(np.arange(alg.num_blocks), alg.block_dims)
        e *= labels[:, None] == labels[None, :]
    e[1] = (e[1] + _adj(e[1])) / 2.0
    return e / np.sqrt((e.real ** 2 + e.imag ** 2).sum(axis=(-2, -1)))[:, None, None]


def _pad(stack: np.ndarray, size: int) -> np.ndarray:
    """A stack of carrier matrices zero-padded to size x size."""
    c = stack.shape[-1]
    if c == size:
        return stack
    out = np.zeros(stack.shape[:-2] + (size, size), dtype=np.complex128)
    out[..., :c, :c] = stack
    return out


def _modular_axioms(mds, seeds) -> np.ndarray:
    """Residuals of the modular axioms of several states in one stacked
    pass: row i belongs to mds[i] with test elements drawn from seeds[i],
    the columns are `_GNS_KEYS`.

    Each state's five test elements and ten powers are block-diagonal
    carrier matrices, zero-padded to the largest carrier; the padding stays
    zero under J, the powers and both actions, so it adds nothing to a norm
    or an inner product and a row equals that state's own one-state pass
    up to rounding.
    """
    size = max(md.algebra.carrier_dim for md in mds)
    vecs = np.stack([_pad(_gns_draws(md, seed), size) for md, seed in zip(mds, seeds)])
    pw = np.stack([_pad(md.d_power_stack(_GNS_ZS), size) for md in mds])
    x, v, y = vecs[:, 0:2], vecs[:, 2:4], vecs[:, 4:5]
    # D^{1/2} (also Omega and the embedding), D and their inverses, (p, 1, c, c)
    half, one, m_half, m_one = pw[:, 0:1], pw[:, 1:2], pw[:, 5:6], pw[:, 6:7]
    flow_p, flow_m = pw[:, 2:5, None], pw[:, 7:10, None]  # D^{+-it}, (p, 3, 1, c, c)
    jv = _adj(v)
    s_v = _adj(half @ v @ m_half)  # S = J Delta^{1/2}

    def j_polar(a):  # D^{-1/2} (D^{-1/2} a D^{1/2})^+ D^{1/2}
        return m_half @ _adj(m_half @ a @ half) @ half

    embedded = x @ half
    # Delta^{it} = sigma_t for the three t on everything the flow moves, in
    # one product: Omega, xi and eta, J xi and J eta, the x and x Omega
    moved = flow_p @ np.concatenate([half, v, jv, x, embedded], axis=1)[:, None] @ flow_m
    parts = [
        # gns_s_polar: J Delta^{1/2} = Delta^{-1/2} J, and S sends x Omega
        # to x^+ Omega
        s_v - m_half @ jv @ half,
        _adj(half @ embedded @ m_half) - _adj(x) @ half,
        # gns_j_involution: J_p = Delta^{-1/2} J Delta^{-1/2} (S = J Delta^{1/2})
        j_polar(j_polar(v)) - v,
        # gns_jdj_inverse
        _adj(one @ jv @ m_one) - m_one @ v @ one,
        # gns_omega_fixed
        _adj(half) - half,
        moved[:, :, 0] - half,
        # gns_delta_it_j
        moved[:, :, 3:5] - _adj(moved[:, :, 1:3]),
        # gns_commutant: the left action commutes with J y J (the right one)
        (x[:, :, None] @ _adj(y @ jv)[:, None]
         - _adj(y[:, None] @ _adj(x[:, :, None] @ v[:, None]))),
        # gns_flow_embed: sigma_t(x) Omega = Delta^{it} (x Omega)
        moved[:, :, 5:7] @ half[:, None] - moved[:, :, 7:9],
    ]
    stack = np.concatenate([d.reshape(len(mds), -1, size, size) for d in parts], axis=1)
    flat = stack.view(np.float64).reshape(len(mds), stack.shape[1], -1)
    norms = np.sqrt(np.einsum("pkn,pkn->pk", flat, flat))
    out = np.empty((len(mds), len(_GNS_KEYS)))
    out[:, :len(_GNS_OFFSETS)] = np.maximum.reduceat(norms, _GNS_OFFSETS, axis=1)

    def inner(a, b):  # <b, a> per state, summed over the carrier
        return np.einsum("pij,pij->p", a.conj(), b)
    # <Delta xi, eta> = <S eta, S xi> and <J xi, J eta> = <eta, xi>
    out[:, -2] = abs(inner(v[:, 1], one[:, 0] @ v[:, 0] @ m_one[:, 0])
                     - inner(s_v[:, 0], s_v[:, 1]))
    out[:, -1] = abs(inner(jv[:, 1], jv[:, 0]) - inner(v[:, 0], v[:, 1]))
    return out


def modular_invariants(md: ModularData, seed: int = 0) -> dict[str, float]:
    """Residuals of the modular axioms of one state on seeded unit test
    vectors: the one-state case of the stacked pass `verify_channel` runs
    over both endpoint states.

    The five test elements (two elements x, two vectors xi and eta, and y
    for the right action) come from one generator per state, as described
    in `_gns_draws`, and live on the carrier as block-diagonal matrices.
    J is the conjugate transpose, Delta^z = D^z . D^{-z}, and the powers are
    the spectral ones of `ModularData.d_power_stack`, all ten exponents in
    one batched product, never the eigenframe's, so the axioms do not check
    the frame against itself.  A norm key is the largest GNS norm over its
    stack (for two states, each is padded with zeros to the larger carrier,
    which changes no value).

    `gns_delta_ss` and `gns_jdj_inverse` detect only non-Hermitian or
    mis-paired powers, not a wrong density: were the powers with Re z < 0
    those of another density D', Delta^{1/2} and Delta would still be
    powers of the one positive operator L_D R_D'^{-1} and J Delta J would
    equal the Delta^{-1} so formed, so both keys stay at roundoff.  Such a
    mismatched density is caught by `gns_s_polar`, `gns_j_involution`,
    `gns_omega_fixed`, `gns_delta_it_j` and `gns_flow_embed`.

    `gns_j_involution` takes J_p = Delta^{-1/2} J Delta^{-1/2}, the J of
    the polar decomposition S = J Delta^{1/2}, through the powers: J J xi
    would return xi's bits whatever the powers.
    """
    return dict(zip(_GNS_KEYS, _modular_axioms((md,), (seed,))[0].tolist()))


# ---------------------------------------------------------------------------
# per-instance report and suite driver
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    instance_id: str
    kind: str | None
    seed: int | None
    dims: tuple[int, ...]
    residuals: dict[str, float]
    tolerances: dict[str, float]
    verdicts: dict[str, bool]
    expected_fail: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    genspec: dict | None = None

    @property
    def failed_keys(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]

    @property
    def unexpected_failures(self) -> list[str]:
        return [k for k in self.failed_keys if k not in self.expected_fail]

    @property
    def expected_failures(self) -> list[str]:
        return [k for k in self.failed_keys if k in self.expected_fail]

    @property
    def passed(self) -> bool:
        return not self.failed_keys

    @property
    def acceptable(self) -> bool:
        return not self.unexpected_failures


def _tolerances(ch: Channel, s_values=DEFAULT_S_VALUES,
                z_samples=()) -> dict[str, float]:
    """Verdict tolerances of every key but the markov_* ones, scaled by the
    larger endpoint kappa to the largest sampled |s| and |Re z|; "gns" is
    the tolerance of each gns_* key.  adjoint_consistency and the gns_*
    keys scale by kappa itself: their eigenvalue weights reach kappa, and
    adjoint_consistency's roundoff reached 51 eps kappa on positive kinds
    at min_gap 0, where petz_match, unscaled, stayed below 6e-11."""
    kappa = max(ch.source.state.kappa, ch.target.state.kappa)
    f = tolerance_factor()
    kappa_s = power_condition_scale(
        kappa, max((abs(float(s)) for s in s_values), default=0.0))
    kappa_z = power_condition_scale(
        kappa, max((abs(complex(z).real) for z in z_samples), default=0.0))
    kappa_1 = power_condition_scale(kappa, 1.0)
    tol = {
        "eq32_t": PINNED_TOL["eq32_t"] * f,
        "thm_i_s": PINNED_TOL["thm_i_s"] * f * kappa_s,
        "thm_ii": PINNED_TOL["thm_ii"] * f * kappa_s,
        "thm_iii": PINNED_TOL["thm_iii"] * f * kappa_s,
        "thm_commute_z": PINNED_TOL["thm_commute_z"] * f * kappa_z,
        "kadison_norm": PINNED_TOL["kadison_norm"] * f,
        "omega_map": PINNED_TOL["omega_map"] * f,
        "adjoint_consistency": PINNED_TOL["adjoint_consistency"] * f * kappa_1,
        "petz_match": PINNED_TOL["petz_match"] * f,
        "gns": PINNED_TOL["gns"] * f * kappa_1,
    }
    return tol


def verify_channel(ch: Channel, *, kind: str | None = None,
                   instance_id: str = "instance", seed: int | None = None,
                   flags: tuple[str, ...] = (),
                   t_samples=DEFAULT_EQ32_T, s_values=DEFAULT_S_VALUES,
                   z_samples=None, gns_seed: int = 0) -> VerificationReport:
    """Full per-instance pipeline: membership, every intertwining suite, and
    the modular axioms of both endpoint states.  z_samples defaults to
    `sample_z(0)`."""
    if z_samples is None:
        z_samples = sample_z(0)
    mc = check_markov(ch, t_samples=[t for t in t_samples if t != 0])
    t_eig = eigen_extension(ch)
    md_s, md_t = ch.source.modular, ch.target.modular
    # the norms take their tolerances: from linalg.LANCZOS_MIN_DIM on, a
    # norm's route depends on whether a certificate settles the verdict
    tol = _tolerances(ch, s_values, z_samples)

    residuals: dict[str, float] = {
        "markov_" + k: v for k, v in mc.residuals.items()}
    eq32, commute_z, twist = _flow_residuals(
        t_eig, ch,
        commute=[([1j * float(t) for t in t_samples], tol["eq32_t"]),
                 (z_samples, tol["thm_commute_z"])],
        twist=[(s_values, tol["thm_i_s"])])
    residuals["eq32_t"] = eq32
    residuals["thm_i_s"] = twist
    residuals["thm_ii"], residuals["thm_iii"] = _symmetry_residuals(t_eig, ch, tol["thm_ii"])
    residuals["thm_commute_z"] = commute_z
    adjc, petz, kad = _adjoint_residuals(t_eig, ch, tol)
    residuals["adjoint_consistency"] = adjc
    residuals["petz_match"] = petz
    residuals["kadison_norm"] = kad
    residuals["omega_map"] = _omega_residual(t_eig, ch)

    # both endpoint states in one pass, each key the worse of the two
    inv = _modular_axioms((md_s, md_t), (gns_seed, derive_seed(gns_seed, 1))).max(axis=0)
    gns_keys = sorted(_GNS_KEYS)
    residuals.update(sorted(zip(_GNS_KEYS, inv.tolist())))

    tolerances = {"markov_" + k: v for k, v in mc.tolerances.items()}
    tolerances.update((k, v) for k, v in tol.items() if k != "gns")
    tolerances.update((key, tol["gns"]) for key in gns_keys)
    verdicts = {k: residuals[k] <= tolerances[k] for k in residuals}
    expected = tuple(sorted(EXPECTED_FAIL_BY_KIND.get(kind, frozenset())))
    return VerificationReport(
        instance_id=instance_id,
        kind=kind,
        seed=seed,
        dims=ch.source.algebra.block_dims,
        residuals=residuals,
        tolerances=tolerances,
        verdicts=verdicts,
        expected_fail=expected,
        flags=flags,
    )


@dataclass
class SuiteConfig:
    trials: int = 10
    seed: int = 0
    dims_list: tuple[tuple[int, ...], ...] = ((2,), (3,), (4,), (2, 2), (3, 1))
    kinds: tuple[str, ...] = POSITIVE_KINDS
    min_gap: float = 0.05


@dataclass
class SuiteResult:
    config: SuiteConfig
    reports: list[VerificationReport]
    summary: dict = field(default_factory=dict)

    @property
    def exit_ok(self) -> bool:
        return not self.summary.get("unexpected_failures")


def compatible_dims(kind: str, dims: tuple[int, ...]) -> bool:
    """Whether the suite may draw `dims` for `kind` (schur needs one block)."""
    if kind == "schur":
        return len(dims) == 1
    return True


def _pick_dims(kind: str, index: int, config: SuiteConfig) -> tuple[int, ...]:
    dims_list = config.dims_list
    start = (index // len(config.kinds)) % len(dims_list)
    for step in range(len(dims_list)):
        dims = dims_list[(start + step) % len(dims_list)]
        if compatible_dims(kind, dims):
            return dims
    raise ValueError(f"no dims in {dims_list} compatible with kind {kind!r}")


def run_suite(config: SuiteConfig,
              on_instance: Callable[[BuildResult, VerificationReport], None]
              | None = None) -> SuiteResult:
    """Generate, verify, and summarize `trials` instances.

    Deterministic per (config, seed): instance seeds, sample draws, and
    report assembly order are all derived from the config seed.  If given,
    `on_instance(built, report)` sees each built channel with its report,
    in trial order, before the channel is dropped.
    """
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    reports = []
    for i in range(config.trials):
        kind = config.kinds[i % len(config.kinds)]
        dims = _pick_dims(kind, i, config)
        spec = GenSpec(kind, dims, seed=derive_seed(config.seed, i),
                       params={"min_gap": config.min_gap})
        built = build_channel(spec)
        instance_id = f"{i:04d}-{kind}-{'x'.join(map(str, dims))}"
        report = verify_channel(
            built.channel,
            kind=kind,
            instance_id=instance_id,
            seed=spec.seed,
            flags=built.flags,
            z_samples=sample_z(derive_seed(config.seed, i, 101)),
            gns_seed=derive_seed(config.seed, i, 102),
        )
        report.genspec = genspec_to_json(spec)
        if on_instance is not None:
            on_instance(built, report)
        reports.append(report)
    reports.sort(key=lambda r: r.instance_id)
    return SuiteResult(config, reports, _summarize(reports))


def _summarize(reports: list[VerificationReport]) -> dict:
    """Aggregate reports; "flagged" lists instances whose report carries
    generator flags."""
    keys = sorted({k for r in reports for k in r.residuals})
    max_res = {k: max((r.residuals[k] for r in reports if k in r.residuals),
                      default=0.0) for k in keys}
    unexpected = [{"instance": r.instance_id, "check": k,
                   "residual": r.residuals[k], "tolerance": r.tolerances[k]}
                  for r in reports for k in r.unexpected_failures]
    expected = [{"instance": r.instance_id, "check": k,
                 "residual": r.residuals[k], "tolerance": r.tolerances[k]}
                for r in reports for k in r.expected_failures]
    return {
        "instances": len(reports),
        "max_residuals": max_res,
        "unexpected_failures": unexpected,
        "expected_failures": expected,
        "flagged": [r.instance_id for r in reports if r.flags],
    }


__all__ = [
    "DEFAULT_EQ32_T",
    "DEFAULT_S_VALUES",
    "DEFAULT_Z_COUNT",
    "POSITIVE_KINDS",
    "FLOW_DEPENDENT_KEYS",
    "EXPECTED_FAIL_BY_KIND",
    "PINNED_TOL",
    "sample_z",
    "verify_crucial",
    "verify_commute",
    "verify_modular_symmetry",
    "verify_adjoint",
    "modular_invariants",
    "VerificationReport",
    "verify_channel",
    "SuiteConfig",
    "SuiteResult",
    "compatible_dims",
    "run_suite",
]
