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

A kind that is not flow-compatible in `generators.KIND_SPECS` (`sp_ucp`) is
expected to fail exactly the flow-dependent keys, reported in an expected
section that does not count against a suite run.

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
markov_modular's exact column norms, which take Gram matrices instead of a
product by G_s (`ModularData.frame_column_norms`).
A masked copy is formed only for its norm, one at a time, by one helper
(`_masked_norm`): below `linalg.LANCZOS_MIN_DIM` its value is one SVD.

Every value is the end of its certified bracket on the side of its
verdict.  A certified pass reads the upper bound that proves it, a certain
fail below N = 100 (`linalg.LANCZOS_MIN_DIM`) its dense value and from it
on its Ritz lower bound, and a straddle the dense value, so verdicts are
those of the dense route.  Each key takes one route at every N: first an
O(N^2) certificate, and a key it does not settle takes its fallback:
- a norm (thm_ii, and the adjoint pair by sqrt(sum |X|^2 W^2) with no
  masked copy) with |A|_F <= tol reads |A|_F; else `linalg.certified_value`
  reads the dense SVD below the gate, and from it on a Golub-Kahan-Lanczos
  Ritz value r > tol, or the dense SVD;
- a max column norm of M G_s (thm_iii, markov_modular) with
  |M|_F |G_s| <= tol reads that bound (`ModularData.max_column_norm`),
  with no product by G_s; else the exact column norms of the same M;
- kadison_norm reads max(0, u - 1) when u - 1 <= tol, u the sector bound
  max_omega |T_omega| + |T_eig off the sectors|_F over the equal-frequency
  sectors of T_eig (`_sector_bound`, `_norm_excess`): a Markov map's T
  commutes with Delta, so T_eig lives on them.  Else, as for a sector at
  the gate in both dimensions, it is `certified_value(T_eig, tol,
  "excess")`: the dense excess below the gate, and from it on
  max(0, r - 1), with a Cholesky factor of (1 + tol)^2 1 - T^+ T
  certifying a pass.
markov_cp passes on the frequency sectors of the eigenframe Choi matrix,
whose entry [(i, a), (i', b)] is X[(i, i'), (a, b)]: a Markov map makes
it block-diagonal over the groups of one label log mu_i - log lambda_a,
and Weyl's inequality bounds lambda_min by the groups' less the mass off
them (`markov.cp_min_eigenvalue`); a map that bound does not settle takes
its Choi blocks, where a large one with a Cholesky factor keeps markov_cp
at its Hermiticity defect.

The sampled flow keys (eq32_t, thm_commute_z, thm_i_s) are maxima over
their samples, all three from one set of masks (`_flow_residuals`), by one
route at every N.  Every |A|_F, A a masked copy of T_eig, is bounded from
one GEMM over |T_eig|^2, no masked copy formed (`_flow_bounds`).  A family
whose bounds are all trusted and at most its tolerance is a certain pass
and reads its largest bound (`_bounded_maxima`).  Every other family
bound-and-prunes: it takes the norms of its masks in order of decreasing
bound, and stops at the first bound below the running max by a relative
slack of 1e-6, so each mask is formed at most once.  The slack is ~1e7
times the norm's rounding error at these sizes, so the mask holding the
max is always normed, and each such max is the same float as over every
mask of its family.  On the positive kinds a pass read off a bound is up
to ~7 times the dense norm, which is roundoff.

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

from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NoFittingDims, NotMarkov
from . import linalg
from .generators import KIND_SPECS, BuildResult, GenSpec, build_channel, derive_seed, kind_spec
from .gns import ModularData
from .linalg import certified_value, power_condition_scale, tolerance_factor
from .markov import Channel, adjoint_index, check_markov, eigen_extension
from .serialize import genspec_to_json

# A(t) = U_t(t) T - T U_s(t) has A(-t) = -U_t(-t) A(t) U_s(-t), a product
# with unitaries, so |A(-t)| = |A(t)| for any T and eq32_t samples t > 0
# only.  The twist at -s and Delta^{conj z} have no such symmetry.
DEFAULT_EQ32_T = (1.0, 0.37, 5.0)
DEFAULT_S_VALUES = (1.0, -1.0, 0.5, -0.5)
DEFAULT_Z_COUNT = 16

# Flow-dependent keys: exactly the identities that need the channel to
# intertwine the flows, so a kind that is not flow-compatible is expected to
# fail these and only these.
FLOW_DEPENDENT_KEYS = frozenset({
    "markov_modular", "eq32_t", "thm_i_s", "thm_commute_z", "thm_ii",
    "adjoint_consistency", "petz_match",
})
POSITIVE_KINDS = tuple(kind for kind, spec in KIND_SPECS.items() if spec.flow_compatible)
EXPECTED_FAIL_BY_KIND = {kind: FLOW_DEPENDENT_KEYS for kind, spec in KIND_SPECS.items()
                         if not spec.flow_compatible}

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
# Below this bound a mask always takes a norm.  A bound is the root of sums
# over |T_eig|^2, whose entries underflow from ~1e-154; from 1e-40 the sum
# is at least 1e-80, and what underflow can drop from it (under 1e-307 per
# weighted entry) lies far below its eps-relative margin.
_PRUNE_FLOOR = 1e-40
_EPS = float(np.finfo(float).eps)


def _require_finite(base: np.ndarray) -> None:
    """Refuses a non-finite base, before inf * 0 can warn in a product."""
    if not np.isfinite(base).all():
        raise ValueError("matrix entries must be finite")


def _masked_norm(base: np.ndarray, mask: np.ndarray, tol: float) -> float:
    """|base * mask|_op taken for the verdict against tol, the product
    formed in place of the fresh complex mask; refuses non-finite entries.
    base is the left operand: complex products with FMA are not commutative
    bit for bit.  Below `linalg.LANCZOS_MIN_DIM` it is the dense SVD's
    value, from it on `certified_value`."""
    _require_finite(base)
    prod = np.multiply(base, mask, out=mask)
    _require_finite(prod)
    if min(prod.shape) < linalg.LANCZOS_MIN_DIM:
        return float(np.linalg.svd(prod, compute_uv=False)[0])
    return certified_value(prod, tol)


_SectorSplit = namedtuple("_SectorSplit", "w_s w_t rows cols on off")


def _sector_split(t_eig: np.ndarray, w_s: np.ndarray, w_t: np.ndarray) -> _SectorSplit:
    """P = |t_eig|^2 split at Z = {(i, j) : w_t[i] == w_s[j]}, the union of
    the equal-frequency sectors, where every flow mask vanishes, for
    `_flow_bounds` and `_sector_bound`: Z as (rows, cols), row-major as
    np.nonzero orders it, P on Z in that order, and P zeroed on Z; w_s and
    w_t are the frequencies of t_eig's columns and rows.  An overflow reads
    inf, with no warning: neither consumer certifies from it."""
    rows, cols = np.divmod(np.flatnonzero(w_t[:, None] == w_s[None, :]), len(w_s))
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(t_eig)
        np.square(p, out=p)
    on = p[rows, cols]
    p[rows, cols] = 0.0
    return _SectorSplit(w_s, w_t, rows, cols, on, p)


def _flow_bounds(split: _SectorSplit, d_s: np.ndarray, d_t: np.ndarray,
                 n_commute: int) -> np.ndarray:
    """Upper bounds on |t_eig * m|_F for the flow masks m, none of them
    formed, from t_eig's `_sector_split`, whose frequencies are those behind
    d_s and d_t: mask i < n_commute is d_s[i][None, :] - d_t[i][:, None],
    the rest d_s[i][None, :] d_t[i][:, None] - 1.

    With P = |t_eig|^2, |T * m|_F^2 = sum_ij P_ij |m_ij|^2 is, for a commute
    mask d_s[j] - d_t[i],

        colsum(P).|d_s|^2 + rowsum(P).|d_t|^2 - 2 Re(d_t^+ P d_s),

    and for a twist mask d_t[i] d_s[j] - 1

        (|d_t|^2)^T P |d_s|^2 + sum(P) - 2 Re(d_t^T P d_s),

    every mask from one real GEMM of P with the stacked 1, |d_s|^2, Re d_s
    and Im d_s.  On a flow-commuting T, P is O(1) only on Z = {(i, j) :
    w_t[i] == w_s[j]}, where every commute mask is zero and the expansion
    would cancel to its rounding: the GEMM takes P off Z, and the Z entries
    are summed entrywise instead.  The expansion's rounding is at most
    gamma_n (A + B) (Higham 2002, Accuracy and Stability of Numerical
    Algorithms, section 3.1), n <= N_s + N_t + 3, with A the positive
    terms (Z part included) and B the absolute cross terms, B <= the two
    positive expansion terms by 2|a||b| <= |a|^2 + |b|^2.  Adding the
    margin 4 (N_s + N_t) eps (A + B) makes each value an upper bound, up
    to the relative rounding of the formed product.  A P that over- or
    underflows gives inf, nan or values below `_PRUNE_FLOOR`, which prune
    nothing."""
    k, (n_t, n_s) = len(d_s), split.off.shape
    com, tw = slice(None, n_commute), slice(n_commute, None)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.concatenate([np.ones((1, n_s)), d_s.real ** 2 + d_s.imag ** 2,
                                  d_s.real, d_s.imag])
        q = (split.off @ weights.T).T  # (3k + 1, N_t)
        row_sum, q_abs, q_re, q_im = q[0], q[1:k + 1], q[k + 1:2 * k + 1], q[2 * k + 1:]
        a_t = d_t.real ** 2 + d_t.imag ** 2
        pos = np.empty(k)
        pos[com] = q_abs[com].sum(axis=1) + a_t[com] @ row_sum
        pos[tw] = (a_t[tw] * q_abs[tw]).sum(axis=1) + row_sum.sum()
        re_cross = (d_t.real * q_re).sum(axis=1)
        im_cross = (d_t.imag * q_im).sum(axis=1)
        cross = np.concatenate([re_cross[com] + im_cross[com], re_cross[tw] - im_cross[tw]])
        m_z = np.take(d_s, split.cols, axis=1)  # C order: updated in place, no copies
        m_z[com] -= np.take(d_t[com], split.rows, axis=1)
        m_z[tw] *= np.take(d_t[tw], split.rows, axis=1)
        m_z[tw] -= 1.0
        z_part = (m_z.real ** 2 + m_z.imag ** 2) @ split.on
        margin = 4.0 * (n_s + n_t) * _EPS * (2.0 * pos + z_part)
        return np.sqrt(np.maximum(pos - 2.0 * cross + z_part + margin, 0.0))


def _bounded_maxima(base: np.ndarray, mask: Callable, counts, tols,
                    bounds: np.ndarray) -> list[float]:
    """Each family i's max over its masks m of |base * m|_op, taken for the
    verdict against tols[i], 0.0 for none, given an upper bound on each
    |base * m|_F (`_flow_bounds`).  Family i is the next counts[i] masks,
    and mask(j) a fresh complex copy of mask j.

    A family whose bounds are all trusted (finite, and at least
    `_PRUNE_FLOOR`) and at most its tolerance is a certain pass: its value
    is its largest bound, and none of its masks is formed.  Every other
    family takes max(`certified_value`(base * m, tols[i])), bit for bit:
    it visits its masks in order of decreasing bound, untrusted bounds
    first, each by `_masked_norm`, and stops at the first trusted bound that
    lies below the running max by more than `_PRUNE_SLACK` of each.  That
    mask and every later one cannot hold the max, so each mask is formed at
    most once, one at a time."""
    trusted = np.isfinite(bounds) & (bounds >= _PRUNE_FLOOR)
    order = np.where(trusted, bounds, np.inf)
    maxima, lo = [], 0
    for count, tol in zip(counts, tols):
        fam, lo = slice(lo, lo + count), lo + count
        top = order[fam].max(initial=0.0)
        if top <= tol:  # an empty family too, at 0.0
            maxima.append(float(top))
            continue
        best = 0.0
        for j in fam.start + np.argsort(-order[fam], kind="stable"):
            if order[j] * (1.0 + _PRUNE_SLACK) < best * (1.0 - _PRUNE_SLACK):
                break
            best = max(best, _masked_norm(base, mask(j), tol))
        maxima.append(best)
    return maxima


def _flow_residuals(t_eig: np.ndarray, ch: Channel, commute=(), twist=(),
                    split: _SectorSplit | None = None) -> list[float]:
    """Each taken for the verdict against its tol: max_z |T_eig * (exp(z w_s)[None, :]
    - exp(z w_t)[:, None])| for each (z samples, tol) in commute, then
    max_s |T_eig * (exp(-s w_t)[:, None] exp(s w_s)[None, :] - 1)| for each
    (s values, tol) in twist.  Each endpoint state gives exp(z w) for every
    exponent in one `delta_power_diagonals` call, every mask is bounded by
    `_flow_bounds` from t_eig's split (`_sector_split`, formed here unless
    given), which forms no masked copy, and each family is certified or
    pruned by those bounds in `_bounded_maxima`, which forms a mask, one at
    a time, only for its norm."""
    fams = ([(list(zs), tol) for zs, tol in commute]
            + [([float(s) for s in ss], tol) for ss, tol in twist])
    counts = [len(f) for f, _ in fams]
    tols = [tol for _, tol in fams]
    n_commute = sum(counts[:len(commute)])
    exps = [z for f, _ in fams for z in f]
    md_s, md_t = ch.source.modular, ch.target.modular
    d_s = md_s.delta_power_diagonals(exps)
    d_t = md_t.delta_power_diagonals(exps[:n_commute] + [-s for s in exps[n_commute:]])
    _require_finite(t_eig)
    split = split or _sector_split(t_eig, md_s.frequencies, md_t.frequencies)
    bounds = _flow_bounds(split, d_s, d_t, n_commute)

    def mask(i: int) -> np.ndarray:
        if i < n_commute:
            return np.subtract(d_s[i][None, :], d_t[i][:, None])
        out = np.multiply(d_s[i][None, :], d_t[i][:, None])
        return np.subtract(out, 1.0, out=out)
    return _bounded_maxima(t_eig, mask, counts, tols, bounds)


def verify_modular_symmetry(ch: Channel,
                            require_markov: bool = True) -> tuple[float, float]:
    """(conjugation intertwining residual, involution intertwining residual),
    as `_symmetry_residuals` gives them, each at its own tolerance for
    `DEFAULT_S_VALUES`."""
    if require_markov:
        _ensure_markov(ch)
    return _symmetry_residuals(eigen_extension(ch), ch, _tolerances(ch))


def _symmetry_residuals(t_eig: np.ndarray, ch: Channel,
                        tol: dict[str, float]) -> tuple[float, float]:
    """(thm_ii, thm_iii) from one adjoint-permuted conjugate P_t conj(T_eig) P_s.

    thm_ii, J_t T J_s = T, is an operator-norm statement: the linear matrix
    of the conjugate-linear composition is P_t conj(T) P_s, and the adjoint
    permutation P commutes with the frame, V^+ x^+ V = (V^+ x V)^+, so it
    applies to T_eig as to T.  The norm |P_t conj(T_eig) P_s - T_eig| is
    taken for the verdict against tol["thm_ii"] (`certified_value`).

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
    (kind sp_ucp) tells them apart.  The max is taken for the verdict
    against tol["thm_iii"] by `ModularData.max_column_norm`: the defect's
    `column_norm_bound` at most that tolerance is a certain pass and the
    value, with no product by G_s; otherwise it is the max of the column
    norms through G_s, `frame_column_norms`.
    """
    md_s, md_t = ch.source.modular, ch.target.modular
    p_s = adjoint_index(ch.source.algebra)
    p_t = adjoint_index(ch.target.algebra)
    flipped = t_eig.conj()[p_t][:, p_s]
    conjugation = certified_value(flipped - t_eig, tol["thm_ii"])
    # (Delta_t^{-1/2} flipped Delta_s^{1/2} - T_eig) R_s, in one array
    defect = md_t.delta_power_diagonals([-0.5]).T * flipped
    defect *= md_s.delta_power_diagonals([0.5])
    defect -= t_eig
    defect *= np.sqrt(md_s.lambda_b)[None, :]
    return conjugation, md_s.max_column_norm(defect, tol["thm_iii"])


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


def _adjoint_residuals(t_eig: np.ndarray, ch: Channel, tol: dict[str, float],
                       split: _SectorSplit | None = None) -> tuple[float, float, float]:
    """The `verify_adjoint` triple, each taken for its verdict against tol.
    In the frame T^+, the adjoint channel ch* = D_s^{-1} ch^+(D_t .), its
    extension and the Petz form are all X^+ = `ch.eigen_superop`^+ weighted
    by eigenvalues of row i (source) and column j (target).

    Each pair key first takes |X^+ * W|_F = sqrt(sum |X|^2 W^2), entrywise:
    every term is nonnegative, so nothing cancels, and no masked copy is
    formed.  At most its tolerance, it is a certain pass and the key reads
    it; a key that does not pass forms its one masked copy for its norm
    (`_masked_norm`).  kadison_norm is `_norm_excess`, on t_eig's split
    (`_sector_split`, formed here unless given)."""
    md_s, md_t = ch.source.modular, ch.target.modular
    x = ch.eigen_superop
    # the weights in X's orientation, entry (j, i) for row i of X^+: the
    # same float operations on each entry as in X^+'s own
    la_s, rb_s = md_s.lambda_a[None, :], np.sqrt(md_s.lambda_b)[None, :]
    la_t, rb_t = md_t.lambda_a[:, None], np.sqrt(md_t.lambda_b)[:, None]
    weights = (
        # T^+ minus the extension of ch*
        rb_t / rb_s - (rb_s / la_s) * (la_t / rb_t),
        # ch* minus the Petz form D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2}
        la_t / la_s - np.sqrt(la_t) * rb_t / (np.sqrt(la_s) * rb_s),
    )
    tols = (tol["adjoint_consistency"], tol["petz_match"])
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: no pass
        p = x.real ** 2 + x.imag ** 2
        pair = [float(np.sqrt(np.vdot(p, w * w))) for w in weights]
    for k in range(2):
        if not pair[k] <= tols[k]:
            pair[k] = _masked_norm(x.conj().T, weights[k].T.astype(np.complex128), tols[k])
    split = split or _sector_split(t_eig, md_s.frequencies, md_t.frequencies)
    return (*pair, _norm_excess(t_eig, split, tol["kadison_norm"]))


def _sector_bound(t_eig: np.ndarray, split: _SectorSplit, tol: float) -> float:
    """An upper bound on |t_eig|_op from its equal-frequency sectors, given
    its `_sector_split`; inf where t_eig is not finite, where the term off
    the sectors alone exceeds tol (no sector is then looked at), or where a
    sector reaches `linalg.LANCZOS_MIN_DIM` in both dimensions.

    Sector omega is t_eig on the rows with w_t = omega and the columns with
    w_s = omega, and the sectors tile Z.  Permuted by frequency, t_eig on Z
    is block-diagonal over the sectors, so with the rest of t_eig, the part
    off Z,

        |t_eig| <= max_omega |T_omega| + |t_eig off Z|_F

    for any labels: float equality of frequencies sets only how tight it
    is.  A sector with one row or one column is a vector, its norm the root
    of its sum of |t_eig|^2 (one bincount over Z); every other sector, in
    practice the zero-frequency one (sum n_k square), takes a dense SVD.
    The factor 1 + 4 (N_s + N_t) eps covers the SVD's backward error
    (p(n) eps |T_omega|, LAPACK Users' Guide section 4.9) and the rounding
    of a vector sector's sum (gamma_m, m <= N_s + N_t; Higham 2002, section
    3.1), and off Z the sum of N_s N_t terms gets gamma of its length."""
    n_t, n_s = t_eig.shape
    gamma = 4.0 * (n_s + n_t) * _EPS
    with np.errstate(over="ignore", invalid="ignore"):
        off = (1.0 + gamma + n_s * n_t * _EPS) * float(np.sqrt(split.off.sum()))
    if not off <= tol:  # nan too
        return np.inf
    w_s, w_t, rows, cols = split.w_s, split.w_t, split.rows, split.cols
    freq, sector = np.unique(w_t[rows], return_inverse=True)
    sq = np.bincount(sector, weights=split.on, minlength=len(freq))
    if not np.isfinite(sq).all():
        return np.inf
    # the rows and columns of the sectors: those that meet Z
    meet_t, meet_s = np.bincount(rows, minlength=n_t) > 0, np.bincount(cols, minlength=n_s) > 0
    height = np.bincount(np.searchsorted(freq, w_t[meet_t]), minlength=len(freq))
    width = np.bincount(np.searchsorted(freq, w_s[meet_s]), minlength=len(freq))
    norms = np.sqrt(sq)
    for k in np.flatnonzero((height > 1) & (width > 1)):
        if min(height[k], width[k]) >= linalg.LANCZOS_MIN_DIM:
            return np.inf
        block = t_eig[np.ix_(w_t == freq[k], w_s == freq[k])]
        norms[k] = np.linalg.svd(block, compute_uv=False)[0]
    return float((1.0 + gamma) * norms.max(initial=0.0) + off)


def _norm_excess(t_eig: np.ndarray, split: _SectorSplit, tol: float) -> float:
    """kadison_norm, max(0, |t_eig|_op - 1), taken for its verdict against
    tol, given t_eig's `_sector_split`.

    A Markov map's T commutes with Delta, so T_eig lives on the
    equal-frequency sectors, and Kadison-Schwarz gives |T| <= 1.  u =
    `_sector_bound` with u - 1 <= tol is a certain pass and reads
    max(0, u - 1): no Gram matrix, Cholesky factor or Lanczos step.
    Otherwise it is `certified_value(t_eig, tol, "excess")`, also when the
    term off the sectors alone exceeds tol: a unital T has <Omega_t, T
    Omega_s> = 1 on its zero-frequency sector, so |T_0| >= 1 and u - 1 >
    tol, and no sector is looked at (kind sp_ucp)."""
    upper = _sector_bound(t_eig, split, tol)
    if upper - 1.0 <= tol:
        return max(0.0, upper - 1.0)
    return certified_value(t_eig, tol, "excess")


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
    the modular axioms of both endpoint states.  t_samples feeds eq32_t
    only: markov_modular is `check_markov`'s generator row, which covers
    every t.  z_samples defaults to `sample_z(0)`."""
    if z_samples is None:
        z_samples = sample_z(0)
    mc = check_markov(ch)
    t_eig = eigen_extension(ch)
    md_s, md_t = ch.source.modular, ch.target.modular
    # each key first tries its certificate, whose pass reads the bound that
    # proves it; |T_eig|^2 is split at the equal-frequency sectors once, for
    # the flow bounds and kadison_norm's sector bound
    tol = _tolerances(ch, s_values, z_samples)
    split = _sector_split(t_eig, md_s.frequencies, md_t.frequencies)

    residuals: dict[str, float] = {
        "markov_" + k: v for k, v in mc.residuals.items()}
    eq32, commute_z, twist = _flow_residuals(
        t_eig, ch,
        commute=[([1j * float(t) for t in t_samples], tol["eq32_t"]),
                 (z_samples, tol["thm_commute_z"])],
        twist=[(s_values, tol["thm_i_s"])], split=split)
    residuals["eq32_t"] = eq32
    residuals["thm_i_s"] = twist
    residuals["thm_ii"], residuals["thm_iii"] = _symmetry_residuals(t_eig, ch, tol)
    residuals["thm_commute_z"] = commute_z
    adjc, petz, kad = _adjoint_residuals(t_eig, ch, tol, split)
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


def run_suite(config: SuiteConfig,
              on_instance: Callable[[BuildResult, VerificationReport], None]
              | None = None) -> SuiteResult:
    """Generate, verify, and summarize `trials` instances.

    Deterministic per (config, seed): instance seeds, sample draws, and
    report assembly order are all derived from the config seed.  Trial i
    draws kind i mod K (K kinds) on the first dims its kind fits, from
    round i // K's turn of the dims list on.  A kind that runs and fits none
    of the dims is refused before the first trial (NoFittingDims).  If
    given, `on_instance(built, report)` sees each built channel with its
    report, in trial order, before the channel is dropped.
    """
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    for kind in config.kinds[:config.trials]:
        if not any(map(kind_spec(kind).fits, config.dims_list)):
            text = ",".join("x".join(map(str, dims)) for dims in config.dims_list)
            raise NoFittingDims(f"kind {kind} fits none of the dims {text}")
    reports = []
    for i in range(config.trials):
        kind = config.kinds[i % len(config.kinds)]
        turn = (i // len(config.kinds)) % len(config.dims_list)
        dims = next(filter(KIND_SPECS[kind].fits,
                           config.dims_list[turn:] + config.dims_list[:turn]))
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

    def failures(which: str) -> list[dict]:
        return [{"instance": r.instance_id, "check": k,
                 "residual": r.residuals[k], "tolerance": r.tolerances[k]}
                for r in reports for k in getattr(r, which)]
    return {
        "instances": len(reports),
        "max_residuals": max_res,
        "unexpected_failures": failures("unexpected_failures"),
        "expected_failures": failures("expected_failures"),
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
    "run_suite",
]
