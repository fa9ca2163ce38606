"""Independent routes for the eigenframe kernels and the channel constructions.

The production residuals work on whole matrices in the density eigenframe,
all read off one cached matrix per channel, and every channel construction
is a block reshape, kron or einsum of the superoperator.  The routes below
are the explicit ones they replaced: the GNS extension, the state-twisted
adjoint ch* and its Petz form built from kron-product left, right and
sandwich multiplication superoperators (defined here only: the library reads
both adjoints off the eigenframe), kron-product Delta^z superoperators,
per-matrix-unit loops through the spectral calculus, the per-unit Choi
accumulation and the per-unit state pairing; and, for the constructions, the
per-unit Kraus sum on the carrier space with its embed/compress helpers, the
per-unit Choi inverse, the four-deep tensor loop over unit images, the
per-unit star check, and the block expectation and automorphism as products
of left and right multiplication superoperators, from spectral projections
and a commuting unitary built here.  For the generators:
`sp_ucp`'s step projected through the dense affine constraint system and its
Gram matrix instead of the two rank-one deflations, and the twirl's
frequency buckets chained by a Python loop.  They are kept here only, so
that a check is never the code it checks.  `delta_power_superop`, Delta^z
carried back from the eigenframe, lives here too because only tests read it.
The flow families, thm_ii and the adjoint pair keep their per-sample
`op_norm` loops, one mask and one product each, as the oracles of the
masked norms in `verify` and of the certify, bound and prune max of the
sampled families: bit for bit on a fail, and the lower end of a pass,
which reads the bound that certifies it (`assert_verdict_side`).
Synthetic families (ties, zeros, one dominant mask, equal norms, the slack
boundary, bounds that underflow or overflow) check the max too.  Four one-line compositions that only tests call are helpers here:
`gns_embed` (x D^{1/2}), `apply_S` (J Delta^{1/2}), `commutator` and
`star_preservation_residual`, which the per-unit star loop checks.
The instance files have one more: a hand-written encoder (sorted keys,
two-space indent, repr floats, ASCII escapes) is the oracle of
`dumps_canonical`, which is the json module's; the nested-list reader is
checked against literal matrices and messages, and `matrix_to_json`, the
version "1" writer, lives here because only tests write that format.  The
modular axioms of a state keep their per-vector route, one `AlgebraElement`
per operation on test elements drawn here from the documented layout, as
the oracle of the stacked pass over both endpoint states.  scipy
is a test dependency only: `scipy.linalg.block_diag` assembles the blockwise
superoperators here and is the bit-for-bit oracle of the library's numpy
`linalg.block_diag`, and `scipy.sparse` holds the affine system of the
`sp_ucp` oracle.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse

from modmark.algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    element_from_coords,
    evaluate_state,
    matrix_units,
    random_element,
    to_coords,
)
from modmark.errors import MalformedInstance, PowerRangeExceeded
from modmark.generators import (
    KIND_SPECS,
    TWIRL_FREQ_TOL,
    GenSpec,
    _bucket_ids,
    _null_projection,
    build_channel,
    derive_seed,
    partition_expectation,
    random_automorphism,
    random_faithful_state,
    sp_ucp,
    state_to_scalar,
)
from modmark import gns, linalg, markov, verify
from modmark.gns import Z_MAX, ModularData
from modmark.linalg import matrix_power_from_eig
from modmark.markov import (
    Channel,
    ChoiMatrix,
    System,
    ac_adjoint,
    adjoint_index,
    channel_from_kraus,
    check_markov,
    choi_to_channel,
    cp_min_eigenvalue,
    eigen_extension,
    from_eigenframe,
    l2_extension,
    membership_tolerances,
    modular_commutation_residual,
    petz_adjoint,
    state_residual,
    tensor,
    tensor_element,
    to_choi,
    trace_dual,
)
from modmark.linalg import _top_singular_value, block_diag, frob, op_norm
from modmark.serialize import (
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_binary,
    read_instance,
    report_to_json,
    suite_result_to_json,
    write_instance,
)
from modmark.verify import (
    DEFAULT_EQ32_T,
    DEFAULT_S_VALUES,
    POSITIVE_KINDS,
    SuiteConfig,
    modular_invariants,
    run_suite,
    sample_z,
    verify_adjoint,
    verify_channel,
    verify_commute,
    verify_crucial,
    verify_modular_symmetry,
)

DIMS = [(2,), (3,), (2, 2), (3, 1), (2, 2, 2)]
Z_SAMPLES = sample_z(4)
# t samples of the flow rows `modular_commutation_residual` adds on request
FLOW_SAMPLES = (1.0, -1.0, 0.37, -0.37, 5.0)


# ---------------------------------------------------------------------------
# the explicit routes
# ---------------------------------------------------------------------------

def unit_images(ch):
    """Images of the source matrix units, in coordinate order."""
    return [ch.apply(unit) for unit in matrix_units(ch.source.algebra)]


def gns_embed(md, x):
    """x |-> x D^{1/2}; the identity embeds to omega."""
    return x @ md.omega


def apply_S(md, xi):
    """S = J o Delta^{1/2}, so S(x D^{1/2}) = x^+ D^{1/2}."""
    return md.delta_power(0.5, xi).adjoint()


def star_preservation_residual(ch):
    """Max defect of ch(x^+) = ch(x)^+ over the matrix-unit basis: the
    adjoint of unit c is unit p_s[c] (p = `adjoint_index`), so the defect
    at unit c is column c of S[:, p_s] - conj(S)[p_t]."""
    sup = ch.superop
    defect = sup[:, adjoint_index(ch.source.algebra)] - sup.conj()[adjoint_index(ch.target.algebra)]
    return float(np.max(np.linalg.norm(defect, axis=0)))


def matrix_to_json(m) -> list:
    """Version "1" matrix: row-major nested lists of [re, im] pairs of floats
    (the library reads this format but writes only version "2")."""
    arr = np.asarray(m, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def left_mult_superop(x):
    """Matrix of v |-> x v on block coordinates (column stacking)."""
    return scipy.linalg.block_diag(
        *[np.kron(np.eye(n), b) for b, n in zip(x.blocks, x.parent.block_dims)])


def right_mult_superop(x):
    """Matrix of v |-> v x on block coordinates."""
    return scipy.linalg.block_diag(
        *[np.kron(b.T, np.eye(n)) for b, n in zip(x.blocks, x.parent.block_dims)])


def sandwich_superop(blocks):
    """Matrix of v |-> a v a for one square matrix a per block."""
    return scipy.linalg.block_diag(*[np.kron(b.T, b) for b in blocks])


class TestMultiplicationSuperops:
    def test_left_right_mult(self):
        alg = BlockAlgebra((2, 3))
        x, y = random_element(alg, 1), random_element(alg, 2)
        assert np.allclose(left_mult_superop(x) @ to_coords(y), to_coords(x @ y))
        assert np.allclose(right_mult_superop(x) @ to_coords(y), to_coords(y @ x))

    def test_sandwich(self):
        alg = BlockAlgebra((2, 3))
        x, y = random_element(alg, 1), random_element(alg, 2)
        assert np.allclose(sandwich_superop(x.blocks) @ to_coords(y), to_coords(x @ y @ x))


def oracle_l2(ch):
    """GNS extension R(D_t^{1/2}) ch R(D_s^{-1/2}) by kron right multiplication."""
    r_sqrt_t = right_mult_superop(
        AlgebraElement(ch.target.algebra, ch.target.modular.d_power_blocks(0.5)))
    r_isqrt_s = right_mult_superop(
        AlgebraElement(ch.source.algebra, ch.source.modular.d_power_blocks(-0.5)))
    return r_sqrt_t @ ch.superop @ r_isqrt_s


def oracle_ac_adjoint_superop(ch):
    """D_s^{-1} ch^+(D_t y) by kron left multiplication."""
    d_s_inv = AlgebraElement(ch.source.algebra, ch.source.modular.d_power_blocks(-1.0))
    return (left_mult_superop(d_s_inv) @ ch.superop.conj().T
            @ left_mult_superop(ch.target.state.density))


def oracle_adjoint_consistency(ch):
    adj = Channel(ch.target, ch.source, oracle_ac_adjoint_superop(ch))
    return op_norm(oracle_l2(ch).conj().T - oracle_l2(adj))


def oracle_petz_superop(ch):
    """D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2} by kron sandwiches."""
    return (sandwich_superop(ch.source.modular.d_power_blocks(-0.5)) @ ch.superop.conj().T
            @ sandwich_superop(ch.target.modular.d_power_blocks(0.5)))


def oracle_petz_match(ch):
    return op_norm(oracle_ac_adjoint_superop(ch) - oracle_petz_superop(ch))


def oracle_kadison(ch):
    return max(0.0, op_norm(oracle_l2(ch)) - 1.0)


def oracle_omega_map(ch):
    return float(np.linalg.norm(oracle_l2(ch) @ to_coords(ch.source.modular.omega)
                                - to_coords(ch.target.modular.omega)))


def kron_delta_superop(md, z):
    """Delta^z as blockwise kron(D^{-z}^T, D^z), with the Z_MAX guard."""
    z = complex(z)
    if abs(z.real) > Z_MAX:
        raise PowerRangeExceeded(f"|Re z| = {abs(z.real)} exceeds Z_MAX = {Z_MAX}")
    dp = md.d_power_blocks(z)
    dm = md.d_power_blocks(-z)
    return scipy.linalg.block_diag(*[np.kron(m.T, p) for p, m in zip(dp, dm)])


def delta_power_superop(md, z):
    """Delta^z as the eigenframe diagonal carried back, G^+ exp(z w) G."""
    g = md.frame
    return g.conj().T @ (md.delta_power_diagonals([z]).T * g)


def oracle_commute(t_mat, ch, z_samples):
    res = 0.0
    for z in z_samples:
        d_s = kron_delta_superop(ch.source.modular, z)
        d_t = kron_delta_superop(ch.target.modular, z)
        res = max(res, op_norm(t_mat @ d_s - d_t @ t_mat))
    return res


def oracle_crucial(t_mat, ch, t_samples):
    return oracle_commute(t_mat, ch, [1j * float(t) for t in t_samples])


def oracle_twist(t_mat, ch, s_values):
    res = 0.0
    for s in s_values:
        d_s = kron_delta_superop(ch.source.modular, float(s))
        d_t_inv = kron_delta_superop(ch.target.modular, -float(s))
        res = max(res, op_norm(d_t_inv @ t_mat @ d_s - t_mat))
    return res


def oracle_commute_residual(t_eig, ch, z_samples):
    w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
    res = 0.0
    for z in z_samples:
        mask = np.exp(complex(z) * w_s)[None, :] - np.exp(complex(z) * w_t)[:, None]
        res = max(res, op_norm(t_eig * mask))
    return res


def oracle_twist_residual(t_eig, ch, s_values):
    w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
    res = 0.0
    for s in s_values:
        mask = (np.exp(complex(float(s)) * w_s)[None, :]
                * np.exp(complex(-float(s)) * w_t)[:, None] - 1.0)
        res = max(res, op_norm(t_eig * mask))
    return res


def adjoint_pair_weights(ch):
    """(X^+, the adjoint_consistency weights, the petz_match weights), each
    weight matrix in X^+'s orientation."""
    md_s, md_t = ch.source.modular, ch.target.modular
    x_h = ch.eigen_superop.conj().T
    la_s, rb_s = md_s.lambda_a[:, None], np.sqrt(md_s.lambda_b)[:, None]
    la_t, rb_t = md_t.lambda_a[None, :], np.sqrt(md_t.lambda_b)[None, :]
    consistency = rb_t / rb_s - (rb_s / la_s) * (la_t / rb_t)
    petz = la_t / la_s - np.sqrt(la_t) * rb_t / (np.sqrt(la_s) * rb_s)
    return x_h, consistency, petz


def oracle_adjoint_pair(ch):
    """(adjoint_consistency, petz_match) as two separate `op_norm` calls."""
    x_h, consistency, petz = adjoint_pair_weights(ch)
    return op_norm(x_h * consistency), op_norm(x_h * petz)


def loop_adjoint_permutation(alg):
    """P with coords(x^+) = P @ conj(coords(x)), entry by entry."""
    mats = []
    for n in alg.block_dims:
        p = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                p[i + n * j, j + n * i] = 1.0
        mats.append(p)
    return scipy.linalg.block_diag(*mats)


def oracle_conjugation(t_mat, ch):
    p_s = loop_adjoint_permutation(ch.source.algebra)
    p_t = loop_adjoint_permutation(ch.target.algebra)
    return op_norm(p_t @ t_mat.conj() @ p_s - t_mat)


def oracle_involution(t_mat, ch):
    md_s, md_t = ch.source.modular, ch.target.modular
    tgt = ch.target.algebra
    res = 0.0
    for unit in matrix_units(ch.source.algebra):
        xi = gns_embed(md_s, unit)
        mid = element_from_coords(tgt, t_mat @ to_coords(apply_S(md_s, xi)))
        rhs = element_from_coords(tgt, t_mat @ to_coords(xi))
        res = max(res, (apply_S(md_t, mid) - rhs).norm())
    return res


def commutator(x, y):
    return x @ y - y @ x


def _log_density(md):
    return AlgebraElement(md.algebra, [
        (e.eigenvectors * np.log(e.eigenvalues)) @ e.eigenvectors.conj().T
        for e in md.d_eig])


def oracle_modular(ch, t_samples):
    md_s, md_t = ch.source.modular, ch.target.modular
    log_s, log_t = _log_density(md_s), _log_density(md_t)
    res = 0.0
    for unit, img in zip(matrix_units(ch.source.algebra), unit_images(ch)):
        gen = ch.apply(commutator(log_s, unit)) - commutator(log_t, img)
        res = max(res, gen.norm())
        for t in t_samples:
            flow = ch.apply(md_s.modular_flow(t, unit)) - md_t.modular_flow(t, img)
            res = max(res, flow.norm())
    return res


def oracle_to_choi(ch):
    src, tgt = ch.source.algebra, ch.target.algebra
    blocks = {(j, k): np.zeros((m * n, m * n), dtype=np.complex128)
              for j, m in enumerate(tgt.block_dims)
              for k, n in enumerate(src.block_dims)}
    images = iter(unit_images(ch))
    for k, n in enumerate(src.block_dims):
        for b in range(n):
            for a in range(n):
                unit = np.zeros((n, n), dtype=np.complex128)
                unit[a, b] = 1.0
                img = next(images)
                for j in range(tgt.num_blocks):
                    blocks[(j, k)] += np.kron(img.blocks[j], unit)
    return blocks


def oracle_state_l2(ch):
    """sqrt of sum over units E of |target_state(ch(E)) - source_state(E)|^2."""
    return float(np.sqrt(sum(
        abs(evaluate_state(ch.target.state, img) - evaluate_state(ch.source.state, unit)) ** 2
        for unit, img in zip(matrix_units(ch.source.algebra), unit_images(ch)))))


def embed(x):
    """Element as one block-diagonal matrix on the carrier space."""
    return scipy.linalg.block_diag(*x.blocks)


def compress(alg, big):
    """Diagonal sub-blocks of a carrier-space matrix (the block expectation)."""
    cuts = np.cumsum((0,) + alg.block_dims)
    return AlgebraElement(alg, [big[a:b, a:b] for a, b in zip(cuts, cuts[1:])])


def oracle_kraus_superop(kraus, source, target):
    """Per unit E: sum_i K_i^+ E K_i on the carrier, compressed to the target."""
    return np.stack([to_coords(compress(target.algebra, sum(
        k.conj().T @ embed(unit) @ k for k in kraus)))
        for unit in matrix_units(source.algebra)], axis=1)


def oracle_choi_superop(choi, source, target):
    """Per unit E_ab of source block k: the image has blocks choi[(j, k)][:, a, :, b]."""
    cols = []
    for k, n in enumerate(source.algebra.block_dims):
        resh = {j: choi.blocks[(j, k)].reshape(m, n, m, n)
                for j, m in enumerate(target.algebra.block_dims)}
        for b in range(n):
            for a in range(n):
                cols.append(to_coords(AlgebraElement(
                    target.algebra,
                    [resh[j][:, a, :, b] for j in range(target.algebra.num_blocks)])))
    return np.stack(cols, axis=1)


def _unit_image_table(ch):
    """Unit images indexed as table[k][a][b] for unit E_ab in block k."""
    table = []
    images = iter(unit_images(ch))
    for n in ch.source.algebra.block_dims:
        grid = [[None] * n for _ in range(n)]
        for b in range(n):
            for a in range(n):
                grid[a][b] = next(images)
        table.append(grid)
    return table


def oracle_tensor_superop(f, g):
    """Column of unit E_(ac),(bd) = E_ab tensor E_cd is f(E_ab) tensor g(E_cd)."""
    f_imgs, g_imgs = _unit_image_table(f), _unit_image_table(g)
    cols = []
    for k, n in enumerate(f.source.algebra.block_dims):
        for j, m in enumerate(g.source.algebra.block_dims):
            for col_idx in range(n * m):      # tensor-block column index b*m + d
                b, d = divmod(col_idx, m)
                for row_idx in range(n * m):  # tensor-block row index a*m + c
                    a, c = divmod(row_idx, m)
                    cols.append(to_coords(tensor_element(f_imgs[k][a][b], g_imgs[j][c][d])))
    return np.stack(cols, axis=1)


def oracle_star(ch):
    return max((ch.apply(unit.adjoint()) - img.adjoint()).norm()
               for unit, img in zip(matrix_units(ch.source.algebra), unit_images(ch)))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _cases():
    cases = []
    for kind in POSITIVE_KINDS + ("sp_ucp",):
        for dims in DIMS:
            if kind == "schur" and len(dims) != 1:
                continue
            cases.append((kind, dims, {}))
    cases.append(("state_to_scalar", (2,), {"target_dims": (3,)}))
    # N_s = N_t, but the target's zero frequencies sit where the source's are not
    cases.append(("state_to_scalar", (2,), {"target_dims": (1, 1, 1, 1)}))
    return cases


CASES = _cases()


def _build(kind, dims, params, seed=13):
    return build_channel(GenSpec(kind, dims, seed, dict(params, min_gap=0.05))).channel


def _assert_close(got, ref, kind):
    if kind == "sp_ucp" and ref > 1e-8:
        assert abs(got - ref) <= 1e-10 * ref, (got, ref)
    else:
        assert abs(got - ref) <= 1e-12, (got, ref)


def _case_id(case):
    kind, dims, params = case
    tail = f"->{'x'.join(map(str, params['target_dims']))}" if params else ""
    return f"{kind}-{'x'.join(map(str, dims))}{tail}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
class TestFlowResidualOracles:
    def test_flow_residuals(self, case):
        kind, dims, params = case
        ch = _build(kind, dims, params)
        t_mat = oracle_l2(ch)
        _assert_close(verify_crucial(ch, DEFAULT_EQ32_T, require_markov=False),
                      oracle_crucial(t_mat, ch, DEFAULT_EQ32_T), kind)
        z_res, s_res = verify_commute(ch, Z_SAMPLES, DEFAULT_S_VALUES,
                                      require_markov=False)
        _assert_close(z_res, oracle_commute(t_mat, ch, Z_SAMPLES), kind)
        _assert_close(s_res, oracle_twist(t_mat, ch, DEFAULT_S_VALUES), kind)

    def test_symmetry_residuals(self, case):
        kind, dims, params = case
        ch = _build(kind, dims, params)
        t_mat = oracle_l2(ch)
        thm_ii, thm_iii = verify_modular_symmetry(ch, require_markov=False)
        _assert_close(thm_ii, oracle_conjugation(t_mat, ch), kind)
        _assert_close(thm_iii, oracle_involution(t_mat, ch), kind)

    def test_markov_modular(self, case):
        kind, dims, params = case
        ch = _build(kind, dims, params)
        exact = modular_commutation_residual(ch)
        _assert_close(exact, oracle_modular(ch, ()), kind)
        _assert_close(modular_commutation_residual(ch, FLOW_SAMPLES),
                      oracle_modular(ch, FLOW_SAMPLES), kind)
        # check_markov takes the same generator row for its verdict: the
        # oracle's verdict, a pass on its column-norm bound, a fail exact
        mc = check_markov(ch)
        tol = mc.tolerances["modular"]
        assert mc.verdicts["modular"] == (oracle_modular(ch, ()) <= tol)
        assert_verdict_side(mc.residuals["modular"], exact, tol)

    def test_adjoint_residuals(self, case):
        kind, dims, params = case
        ch = _build(kind, dims, params)
        adjc, petz, kad = verify_adjoint(ch, require_markov=False)
        _assert_close(adjc, oracle_adjoint_consistency(ch), kind)
        _assert_close(petz, oracle_petz_match(ch), kind)
        _assert_close(kad, oracle_kadison(ch), kind)
        _assert_close(verify_channel(ch).residuals["omega_map"], oracle_omega_map(ch), kind)

    def test_l2_extension(self, case):
        kind, dims, params = case
        ch = _build(kind, dims, params)
        assert np.linalg.norm(l2_extension(ch) - oracle_l2(ch)) <= 1e-12

    def test_frame_adjoints(self, case):
        ch = _build(*case)
        _assert_close_op(ac_adjoint(ch).superop, oracle_ac_adjoint_superop(ch))
        _assert_close_op(petz_adjoint(ch).superop, oracle_petz_superop(ch))


OFF_CLASS_PAIRS = [((2,), (2,)), ((2, 2), (2, 2)), ((3, 1), (2,)), ((2,), (3,)),
                   ((2, 2, 2), (3, 1))]


def _off_class_channel(src_dims, tgt_dims):
    """A random complex superoperator: in no membership class at all."""
    src = System(random_faithful_state(BlockAlgebra(src_dims), 71, 0.05))
    tgt = System(random_faithful_state(BlockAlgebra(tgt_dims), 72, 0.05))
    rng = np.random.default_rng(73)
    shape = (tgt.coord_dim, src.coord_dim)
    return Channel(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("src_dims,tgt_dims", OFF_CLASS_PAIRS)
def test_every_residual_off_the_class(src_dims, tgt_dims):
    # a random superoperator is not star preserving, so unlike every
    # generated channel it gives thm_iii (and all the others) O(1) values
    ch = _off_class_channel(src_dims, tgt_dims)
    src, tgt = ch.source, ch.target
    t_mat = oracle_l2(ch)
    z_res, s_res = verify_commute(ch, Z_SAMPLES, DEFAULT_S_VALUES, require_markov=False)
    thm_ii, thm_iii = verify_modular_symmetry(ch, require_markov=False)
    adjc, petz, kad = verify_adjoint(ch, require_markov=False)
    pairs = [
        (verify_crucial(ch, DEFAULT_EQ32_T, require_markov=False),
         oracle_crucial(t_mat, ch, DEFAULT_EQ32_T)),
        (z_res, oracle_commute(t_mat, ch, Z_SAMPLES)),
        (s_res, oracle_twist(t_mat, ch, DEFAULT_S_VALUES)),
        (thm_ii, oracle_conjugation(t_mat, ch)),
        (thm_iii, oracle_involution(t_mat, ch)),
        (modular_commutation_residual(ch), oracle_modular(ch, ())),
        (modular_commutation_residual(ch, FLOW_SAMPLES), oracle_modular(ch, FLOW_SAMPLES)),
        (adjc, oracle_adjoint_consistency(ch)),
        (petz, oracle_petz_match(ch)),
        (kad, oracle_kadison(ch)),
        (verify_channel(ch).residuals["omega_map"], oracle_omega_map(ch)),
    ]
    for got, ref in pairs:
        assert ref > 0.1
        assert abs(got - ref) <= 1e-10 * ref, (got, ref)
    # l2_extension refuses this channel; the frame form it is built from does not
    ref = tgt.modular.frame @ t_mat @ src.modular.frame.conj().T
    assert np.linalg.norm(eigen_extension(ch) - ref) <= 1e-10 * np.linalg.norm(ref)


def _assert_close_op(got, ref):
    """Relative agreement in operator norm."""
    assert op_norm(got - ref) <= 1e-12 * op_norm(ref), (op_norm(got - ref), op_norm(ref))


@pytest.mark.parametrize("src_dims,tgt_dims", OFF_CLASS_PAIRS)
def test_frame_adjoints_off_the_class(src_dims, tgt_dims):
    # the random superoperator shifted onto the state-compatible affine set
    # c_t S = c_s (c the state's row vector), which is all ac_adjoint gates on;
    # it stays far from unital, cp and flow compatible
    ch = _off_class_channel(src_dims, tgt_dims)
    c_t = to_coords(ch.target.state.density).conj()
    c_s = to_coords(ch.source.state.density).conj()
    shift = np.outer(c_t.conj(), c_s - c_t @ ch.superop) / (c_t @ c_t.conj())
    ch = Channel(ch.source, ch.target, ch.superop + shift)
    ac_ref, petz_ref = oracle_ac_adjoint_superop(ch), oracle_petz_superop(ch)
    assert op_norm(ac_ref - petz_ref) > 0.1 * op_norm(ac_ref)
    _assert_close_op(ac_adjoint(ch).superop, ac_ref)
    _assert_close_op(petz_adjoint(ch).superop, petz_ref)


@pytest.mark.parametrize("dims", DIMS)
def test_sp_ucp_breaks_the_flow(dims):
    # TestFlowResidualOracles compares sp_ucp relatively, which only bites
    # if its flow residuals are far from roundoff
    ch = _build("sp_ucp", dims, {})
    assert modular_commutation_residual(ch) > 1e-3
    assert verify_crucial(ch, DEFAULT_EQ32_T, require_markov=False) > 1e-3


# ---------------------------------------------------------------------------
# the flow families against their per-sample oracles
# ---------------------------------------------------------------------------

FLOW_KEYS = ("eq32_t", "thm_i_s", "thm_commute_z", "adjoint_consistency", "petz_match")
# the keys whose pass reads the upper bound that certifies it: a family's
# largest one-GEMM bound, |A|_F (thm_ii, the adjoint pair), the sector bound
# (kadison_norm), |M|_F times the frame's margin (markov_modular, thm_iii)
# or the Choi sector certificate (markov_cp); a fail keeps its value
MOVED_KEYS = ("eq32_t", "thm_commute_z", "thm_i_s", "thm_ii", "adjoint_consistency",
              "petz_match", "kadison_norm", "markov_modular", "thm_iii", "markov_cp")
# how far below the dense SVD's norm of the same matrix a pass may read: a
# one-GEMM bound covers its formed product's norm to this relative rounding
# (`assert_bounds_cover`), and |A|_F >= |A|_op
PASS_RTOL = 1e-13


def assert_verdict_side(got, dense, tol, lanczos=False):
    """A residual taken for its verdict against tol, beside dense, the dense
    SVD's norm of the same matrix (for a family, the max over its masks).
    A fail reads dense bit for bit, or its Ritz value within 1e-13 relative
    where it takes the Lanczos route (lanczos); a pass lies in
    [dense (1 - PASS_RTOL), tol]."""
    if dense <= tol:
        assert dense * (1.0 - PASS_RTOL) <= got <= tol, (got, dense, tol)
    elif lanczos:
        assert abs(got - dense) <= 1e-13 * dense, (got, dense, tol)
    else:
        assert got == dense, (got, dense, tol)


def involution_column_norm(t_eig, ch):
    """thm_iii rebuilt from its definition (`verify._symmetry_residuals`):
    the max column norm of (Delta_t^{-1/2} P_t conj(T_eig) P_s
    Delta_s^{1/2} - T_eig) R_s through G_s, by `frame_column_norms`."""
    md_s, md_t = ch.source.modular, ch.target.modular
    flipped = t_eig.conj()[adjoint_index(ch.target.algebra)][:, adjoint_index(ch.source.algebra)]
    lhs = (md_t.delta_power_diagonals([-0.5]).T * flipped
           * md_s.delta_power_diagonals([0.5]))
    defect = (lhs - t_eig) * np.sqrt(md_s.lambda_b)[None, :]
    return float(md_s.frame_column_norms(defect).max())


def dense_cp_residual(ch):
    """markov_cp by the dense route: max(0, -lambda_min, Hermiticity
    defect) over the Choi blocks of `oracle_to_choi`, by eigvalsh."""
    blocks = oracle_to_choi(ch).values()
    lam = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0]) for b in blocks)
    herm = np.sqrt(sum(np.linalg.norm(b - b.conj().T) ** 2 for b in blocks))
    return max(0.0, -lam, float(herm))


def dense_moved_keys(ch):
    """The `MOVED_KEYS` of `verify_channel(ch)` by the dense routes, each
    the value of the matrix the report bounds: one mask and one `op_norm` at
    a time, the dense excess of T_eig, and the exact column norms of
    markov_modular and thm_iii."""
    t_eig = eigen_extension(ch)
    flipped = t_eig.conj()[adjoint_index(ch.target.algebra)][:, adjoint_index(ch.source.algebra)]
    adjc, petz = oracle_adjoint_pair(ch)
    return {"eq32_t": oracle_commute_residual(t_eig, ch, [1j * float(t) for t in DEFAULT_EQ32_T]),
            "thm_commute_z": oracle_commute_residual(t_eig, ch, sample_z(0)),
            "thm_i_s": oracle_twist_residual(t_eig, ch, DEFAULT_S_VALUES),
            "thm_ii": op_norm(flipped - t_eig),
            "adjoint_consistency": adjc, "petz_match": petz,
            "kadison_norm": max(0.0, op_norm(t_eig) - 1.0),
            "markov_modular": per_mask_modular(ch),
            "thm_iii": involution_column_norm(t_eig, ch),
            "markov_cp": dense_cp_residual(ch)}


def assert_report_on_verdict_side(ch, report):
    """Each `MOVED_KEYS` value of report, `verify_channel(ch)` at its
    default samples, on the side of its verdict of `dense_moved_keys`."""
    lanczos = min(eigen_extension(ch).shape) >= linalg.LANCZOS_MIN_DIM
    for key, dense in dense_moved_keys(ch).items():
        assert_verdict_side(report.residuals[key], dense, report.tolerances[key], lanczos)


def assert_flow_families_on_verdict_side(ch):
    """Every flow family and the adjoint pair against its per-sample
    oracle, on the side of its verdict (`assert_verdict_side`): a pass in
    [dense - rounding, tol], where the adjoint pair's reads
    sqrt(sum |X|^2 W^2), and a fail with == below `linalg.LANCZOS_MIN_DIM`,
    each from the SVD of its one masked copy."""
    t_eig = eigen_extension(ch)
    tol = verify._tolerances(ch, DEFAULT_S_VALUES, Z_SAMPLES)
    lanczos = min(t_eig.shape) >= linalg.LANCZOS_MIN_DIM
    eq32 = [1j * float(t) for t in DEFAULT_EQ32_T]
    z_res, s_res = verify_commute(ch, Z_SAMPLES, DEFAULT_S_VALUES, require_markov=False)
    adjoint = verify_adjoint(ch, require_markov=False)[:2]
    for got, dense, key in [
            (verify_crucial(ch, DEFAULT_EQ32_T, require_markov=False),
             oracle_commute_residual(t_eig, ch, eq32), "eq32_t"),
            (z_res, oracle_commute_residual(t_eig, ch, Z_SAMPLES), "thm_commute_z"),
            (s_res, oracle_twist_residual(t_eig, ch, DEFAULT_S_VALUES), "thm_i_s"),
            *zip(adjoint, oracle_adjoint_pair(ch), ("adjoint_consistency", "petz_match"))]:
        assert_verdict_side(got, dense, tol[key], lanczos)


WIRING_T = (0.3, -2.0, 4.0)
WIRING_S = (0.25, -0.7, 1.5)
WIRING_Z = sample_z(7, 5)


@pytest.mark.parametrize("case", [("sp_ucp", (3,), {}), ("convex", (2, 2), {})],
                         ids=_case_id)
def test_report_takes_the_sampled_keys_over_its_samples(case):
    """eq32_t, thm_commute_z and thm_i_s in the report are the per-sample
    maxima over exactly the samples verify_channel was given, on the side
    of their verdicts."""
    ch = _build(*case)
    report = verify_channel(ch, t_samples=WIRING_T, s_values=WIRING_S,
                            z_samples=WIRING_Z)
    t_eig = eigen_extension(ch)
    eq32 = [1j * t for t in WIRING_T]
    for key, dense in [("eq32_t", oracle_commute_residual(t_eig, ch, eq32)),
                       ("thm_commute_z", oracle_commute_residual(t_eig, ch, WIRING_Z)),
                       ("thm_i_s", oracle_twist_residual(t_eig, ch, WIRING_S))]:
        assert_verdict_side(report.residuals[key], dense, report.tolerances[key])
    report = report.residuals
    if case[0] == "sp_ucp":
        # off the class the samples matter: Re z alone, or the first sample
        # alone, gives another value
        assert report["thm_commute_z"] != oracle_commute_residual(
            t_eig, ch, [z.real for z in WIRING_Z])
        assert report["thm_commute_z"] != oracle_commute_residual(t_eig, ch, WIRING_Z[:1])
        assert report["eq32_t"] != oracle_commute_residual(t_eig, ch, eq32[:1])
        assert report["thm_i_s"] != oracle_twist_residual(t_eig, ch, WIRING_S[:1])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_stacked_flow_norms_bit_identical(case):
    # the name predates the one-masked-copy route: each flow family and the
    # adjoint pair on the side of its verdict, one masked copy at a time
    assert_flow_families_on_verdict_side(_build(*case))


@pytest.mark.parametrize("src_dims,tgt_dims", OFF_CLASS_PAIRS)
def test_stacked_flow_norms_bit_identical_off_the_class(src_dims, tgt_dims):
    assert_flow_families_on_verdict_side(_off_class_channel(src_dims, tgt_dims))


@pytest.mark.parametrize("dims", [(4,), (2, 3), (6,), (12,)], ids=lambda d: "x".join(map(str, d)))
def test_eq32_t_is_even_in_t(dims):
    # A(t) = U_t(t) T - T U_s(t) gives A(-t) = -U_t(-t) A(t) U_s(-t), a
    # product with unitaries, so |A(-t)| = |A(t)| for any T: off the flow
    # class too, where the values are O(1)
    ch = _build("sp_ucp", dims, {})
    t_eig = eigen_extension(ch)
    for t in (1.0, 0.37, 5.0):
        plus = oracle_commute_residual(t_eig, ch, [1j * t])
        minus = oracle_commute_residual(t_eig, ch, [-1j * t])
        assert plus > 1e-3 and abs(plus - minus) <= 1e-12 * plus, (t, plus, minus)


# ---------------------------------------------------------------------------
# the three sampled families in one pass, and markov_modular's rows
# ---------------------------------------------------------------------------

def flow_families(ch):
    """(commute, twist): the report's three sampled families at its
    tolerances, with `Z_SAMPLES`."""
    tol = verify._tolerances(ch, DEFAULT_S_VALUES, Z_SAMPLES)
    return ([([1j * float(t) for t in DEFAULT_EQ32_T], tol["eq32_t"]),
             (Z_SAMPLES, tol["thm_commute_z"])],
            [(DEFAULT_S_VALUES, tol["thm_i_s"])])


# masks in the `flow_families` pass: 3 + 16 + 4
FLOW_MASKS = len(DEFAULT_EQ32_T) + len(Z_SAMPLES) + len(DEFAULT_S_VALUES)


def fused_flow(ch, t_eig=None):
    """(eq32_t, thm_commute_z, thm_i_s) from one `_flow_residuals` pass at
    the report's tolerances, of t_eig (default `eigen_extension(ch)`)."""
    commute, twist = flow_families(ch)
    t_eig = eigen_extension(ch) if t_eig is None else t_eig
    return verify._flow_residuals(t_eig, ch, commute=commute, twist=twist)


def fused_and_alone(ch):
    """`fused_flow`, and the same three keys from one pass per family."""
    t_eig = eigen_extension(ch)
    tol = verify._tolerances(ch, DEFAULT_S_VALUES, Z_SAMPLES)
    eq32 = [1j * float(t) for t in DEFAULT_EQ32_T]
    fused = fused_flow(ch)
    alone = [verify._flow_residuals(t_eig, ch, commute=[(eq32, tol["eq32_t"])])[0],
             verify._flow_residuals(t_eig, ch, commute=[(Z_SAMPLES, tol["thm_commute_z"])])[0],
             verify._flow_residuals(t_eig, ch, twist=[(DEFAULT_S_VALUES, tol["thm_i_s"])])[0]]
    return fused, alone


def per_mask_modular(ch, t_samples=()):
    """`modular_commutation_residual` rebuilt from its definition, so that a
    later restructuring keeps its bits: the max over the generator mask and
    each flow mask of the max column norm of ((a - b) * X) G_s, through
    `frame_column_norms` (the dense product below
    `gns.FRAME_MIN_DIM`; `TestFactoredFrame` checks the factored norms
    against it)."""
    md_s, md_t = ch.source.modular, ch.target.modular
    zs = [1j * float(t) for t in t_samples]
    pairs = [(md_s.frequencies, md_t.frequencies),
             *zip(md_s.delta_power_diagonals(zs), md_t.delta_power_diagonals(zs))]
    return max(float(md_s.frame_column_norms((a[None, :] - b[:, None]) * ch.eigen_superop).max())
               for a, b in pairs)


# below `linalg.LANCZOS_MIN_DIM` at n = 7, 8 and 6x4x2, where a formed mask
# takes one SVD; from n = 10 (N = 100) the survivors take Lanczos norms
FUSED_SIZES = [(7,), (8,), (6, 4, 2), (10,), (12,)]
FUSED_CASES = ([(kind, dims, {}) for kind in ("pinch", "twirl", "sp_ucp")
                for dims in FUSED_SIZES]
               + [("schur", (8,), {}), ("state_to_scalar", (7,), {"target_dims": (8,)})])
FUSED_OFF_CLASS = OFF_CLASS_PAIRS + [((7,), (7,)), ((8,), (6, 4, 2)), ((10,), (10,)),
                                     ((12,), (10,))]


class TestFusedFlowPass:
    """The families of one `_flow_residuals` pass against one pass each,
    and against the per-sample oracle, on the side of their verdicts: a
    fail with ==, a pass in [dense - rounding, tol], where a certified
    pass is its family's largest bound, and the bounds come from one GEMM
    whose width is the pass's."""

    @staticmethod
    def assert_fused_equals_alone(ch):
        ref, alone = fused_and_alone(ch)
        t_eig = eigen_extension(ch)
        commute, twist = flow_families(ch)
        lanczos = min(t_eig.shape) >= linalg.LANCZOS_MIN_DIM
        dense = [oracle_commute_residual(t_eig, ch, [1j * float(t) for t in DEFAULT_EQ32_T]),
                 oracle_commute_residual(t_eig, ch, Z_SAMPLES),
                 oracle_twist_residual(t_eig, ch, DEFAULT_S_VALUES)]
        for got, one, norm, (_, tol) in zip(ref, alone, dense, commute + twist):
            assert_verdict_side(got, norm, tol, lanczos)
            assert_verdict_side(one, norm, tol, lanczos)
            if norm > tol:
                assert got == one

    @pytest.mark.parametrize("case", CASES + FUSED_CASES, ids=_case_id)
    def test_generated(self, case):
        self.assert_fused_equals_alone(_build(*case))

    @pytest.mark.parametrize("src_dims,tgt_dims", FUSED_OFF_CLASS)
    def test_off_the_class(self, src_dims, tgt_dims):
        self.assert_fused_equals_alone(_off_class_channel(src_dims, tgt_dims))

    def test_report_takes_the_fused_pass(self):
        ch = _build("sp_ucp", (8,), {})
        report = verify_channel(ch, z_samples=Z_SAMPLES).residuals
        assert [report[k] for k in ("eq32_t", "thm_commute_z", "thm_i_s")] == fused_flow(ch)

    @pytest.mark.parametrize("case", [("sp_ucp", (3,), {}), ("pinch", (2, 2), {}),
                                      ("twirl", (7,), {})], ids=_case_id)
    def test_each_formed_mask_takes_one_svd_call(self, monkeypatch, svd_shapes, case):
        # below the gate each mask is formed at most once and takes one SVD
        # of its product; each failing family starts at its largest-bound
        # mask, and on a positive every family is a certified pass, which
        # forms no mask and takes no SVD
        ch = _build(*case)
        seen = record_masked_products(monkeypatch)
        fused_flow(ch)
        assert len(seen) == len(set(seen)) <= FLOW_MASKS
        assert svd_shapes == [eigen_extension(ch).shape] * len(seen)
        if case[0] == "sp_ucp":
            # every family fails, and forms its largest-bound mask first
            bounds = bounds_and_norms(ch)[0]
            commute, twist = flow_families(ch)
            counts = np.array([len(samples) for samples, _ in commute + twist])
            for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
                assert next(i for i in seen if lo <= i < hi) == lo + np.argmax(bounds[lo:hi])
        else:
            assert seen == [] and svd_shapes == []

    def test_empty_families_give_zero(self):
        ch = _build("sp_ucp", (3,), {})
        t_eig = eigen_extension(ch)
        got = verify._flow_residuals(t_eig, ch, commute=[([], 1e-8), (Z_SAMPLES, 1e-8)],
                                     twist=[((), 1e-8), (DEFAULT_S_VALUES, 1e-8)])
        assert got == [0.0, oracle_commute_residual(t_eig, ch, Z_SAMPLES), 0.0,
                       oracle_twist_residual(t_eig, ch, DEFAULT_S_VALUES)]

    @pytest.mark.parametrize("case", CASES + FUSED_CASES[:6], ids=_case_id)
    def test_markov_modular_equals_per_mask(self, case):
        # the generator row alone, and with one or five flow rows beside it
        ch = _build(*case)
        for t_samples in ((), (0.4,), FLOW_SAMPLES):
            assert (modular_commutation_residual(ch, t_samples)
                    == per_mask_modular(ch, t_samples)), t_samples

    @pytest.mark.parametrize("src_dims,tgt_dims", FUSED_OFF_CLASS[:7])
    def test_markov_modular_off_the_class(self, src_dims, tgt_dims):
        ch = _off_class_channel(src_dims, tgt_dims)
        assert modular_commutation_residual(ch) == per_mask_modular(ch)


# a `linalg.LANCZOS_MIN_DIM` above every size: every flow norm is dense
DENSE_GATE = 1 << 30


def record_svd_shapes(monkeypatch):
    """Shapes of the stacks handed to np.linalg.svd (`op_norm` goes through
    np.linalg.norm, which does not call the patched name)."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.fixture
def svd_shapes(monkeypatch):
    return record_svd_shapes(monkeypatch)


class TestOneMaskedCopyAtATime:
    def test_empty_samples_give_zero(self):
        ch = _build("schur", (3,), {})
        assert verify_crucial(ch, (), require_markov=False) == 0.0
        assert verify_commute(ch, [], (), require_markov=False) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_t_eig_refused(self, bad):
        ch = _build("pinch", (2, 2), {})
        t_eig = eigen_extension(ch)
        t_eig[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            verify._flow_residuals(t_eig, ch, commute=[(Z_SAMPLES, 1e-8)])[0]
        with pytest.raises(ValueError, match="finite"):
            verify._flow_residuals(t_eig, ch, twist=[(DEFAULT_S_VALUES, 1e-8)])[0]

    # peak bytes of a tolerance-0 pass per t_eig.nbytes: at pinch 8x8 the
    # peak is `_flow_bounds`' arrays over the k flow masks and the |Z| = 368
    # entries on the sectors, 2.87 t_eig.nbytes with or without a mask formed
    @pytest.mark.parametrize("case,budget", [(("schur", (16,), {}), 2), (("pinch", (8, 8), {}), 3)],
                             ids=["schur-16", "pinch-8x8"])
    def test_masks_formed_one_at_a_time(self, monkeypatch, svd_shapes, case, budget):
        # these sizes take the Lanczos route by default; on the dense route
        # each formed mask takes one SVD, counted here
        monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", DENSE_GATE)
        ch = _build(*case)
        verify_channel(ch)
        # eq32_t, thm_commute_z and thm_i_s are certified passes, and so is
        # the adjoint pair on sqrt(sum |X|^2 W^2): no mask formed; the one
        # SVD is kadison_norm's zero-frequency sector, sum n_k = 16 square
        assert svd_shapes == [(16, 16)]
        assert_flow_families_on_verdict_side(ch)
        # at tolerance 0 no family is certified, so its masks are formed,
        # one at a time: a single masked copy is alive at once, not those
        # of the family
        t_eig = eigen_extension(ch)
        svd_shapes.clear()
        tracemalloc.start()
        try:
            verify._flow_residuals(t_eig, ch, commute=[(sample_z(0), 0.0)])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * t_eig.nbytes, peak / t_eig.nbytes
        assert svd_shapes and set(svd_shapes) == {t_eig.shape}
        assert len(svd_shapes) <= len(sample_z(0))

    def test_bounds_build_the_masks_on_z_in_one_buffer(self, svd_shapes):
        # a certified pass forms no mask, so `_flow_bounds` sets the peak:
        # with the k x |Z| masks on the sectors (k = 16, |Z| = 368) built in
        # one buffer it read 2.15 t_eig.nbytes, with their parts gathered
        # into separate copies first 2.87
        ch = _build("pinch", (8, 8), {})
        t_eig = eigen_extension(ch)
        tracemalloc.start()
        try:
            verify._flow_residuals(t_eig, ch, commute=[(sample_z(0), 1e-8)])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * t_eig.nbytes, peak / t_eig.nbytes
        assert svd_shapes == []


def frobenius_bounds(base, stack):
    """|base * m|_F for each mask m of the stack: the bounds the synthetic
    families are pruned by."""
    return np.linalg.norm(base * stack, axis=(-2, -1))


def pruned_maxima(base, stacks, bounds=None, tols=None):
    """`verify._bounded_maxima` over explicit stacks of masks, one family
    each, with the given bounds (default `frobenius_bounds`) and
    tolerances (default 1e-8, which certifies none of the trusted
    families) per stack; each mask is handed over as a fresh copy."""
    stack = np.concatenate(stacks)
    if bounds is None:
        bounds = [frobenius_bounds(base, m) for m in stacks]
    return verify._bounded_maxima(
        base, lambda j: np.array(stack[j], dtype=np.complex128),
        [len(m) for m in stacks], [1e-8] * len(stacks) if tols is None else tols,
        np.concatenate([np.broadcast_to(np.asarray(b, dtype=float), len(m))
                        for b, m in zip(bounds, stacks)]))


def pruned_max(base, stack, bounds=None):
    """The one-family case of `pruned_maxima`."""
    return pruned_maxima(base, [stack], None if bounds is None else [bounds])[0]


def _unit_entry(n, i, value):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, i] = value
    return m


def _slack_family(n=6):
    """Rank-one masks with norm 1, 1 - 1.9 slack and 1 - 2.1 slack: the prune
    test keeps U (1 + slack) >= top (1 - slack), so the boundary sits near
    1 - 2 slack and the last one alone is dropped."""
    slack = verify._PRUNE_SLACK
    return np.ones((n, n), dtype=np.complex128), np.stack([
        _unit_entry(n, 0, 1.0), _unit_entry(n, 1, 1.0 - 1.9 * slack),
        _unit_entry(n, 2, 1.0 - 2.1 * slack)])


def _synthetic_families(n=6):
    rng = np.random.default_rng(29)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    base, m = draw(n, n), draw(n, n)
    ones = np.ones((n, n), dtype=np.complex128)
    dominant = 1e-3 * draw(5, n, n)
    dominant[3] *= 1e3
    x, y = draw(n), draw(n)
    unit = np.outer(x, y.conj()) / (np.linalg.norm(x) * np.linalg.norm(y))
    return {
        "ties": (base, np.stack([m, m, 0.5 * m, m])),
        "all_zero": (base, np.zeros((4, n, n), dtype=np.complex128)),
        "zero_base": (np.zeros((n, n), dtype=np.complex128), draw(3, n, n)),
        "one_dominant": (base, dominant),
        # the same singular values, in different matrices
        "equal_norms": (ones, np.stack([m, m.T, m[::-1], np.exp(0.7j) * m, m.conj()])),
        "slack_boundary": _slack_family(n),
        # rank one, a rounding apart: both take a norm
        "ulp_apart": (ones, np.stack([_unit_entry(n, 0, 1.0),
                                      _unit_entry(n, 1, np.nextafter(1.0, 2.0))])),
        # the largest Frobenius bound on a mask that does not hold the max
        "dense_rank_one": (ones, np.stack([unit, unit * np.nextafter(1.0, 2.0),
                                           0.999 * m / np.linalg.norm(m, 2)])),
        "one_mask": (base, m[None]),
        # untrusted bounds, which prune nothing (`SYNTHETIC_BOUNDS`)
        "below_floor": (base, 1e-50 * draw(3, n, n)),
        "tiny": (base, 1e-160 * draw(3, n, n)),
        "huge": (base, 1e200 * draw(3, n, n)),
        "power_step_overflow": (ones, draw(3, n, n).real
                                * np.array([1e55, 1e60, 1e58])[:, None, None]),
    }


SYNTHETIC = _synthetic_families()
# The untrusted families' bounds, each below or beside their norms, as a
# bound computation that under- or overflows gives them: zero (what
# |T_eig|^2 reads at 1e-160), a value under `verify._PRUNE_FLOOR`, inf, and
# the nan of an inf - inf.  Every other family takes `frobenius_bounds`.
SYNTHETIC_BOUNDS = {"below_floor": 1e-50, "tiny": 0.0, "huge": np.inf,
                    "power_step_overflow": np.nan}
UNTRUSTED = ["all_zero", *SYNTHETIC_BOUNDS]
# the families whose bounds are all trusted, so that a tolerance at or above
# the largest one certifies them
CERTIFIABLE = sorted(k for k, (b, m) in SYNTHETIC.items() if k not in SYNTHETIC_BOUNDS
                     and frobenius_bounds(b, m).min() >= verify._PRUNE_FLOOR)


def synthetic_max(name):
    """`pruned_max` of one synthetic family at its bounds."""
    return pruned_max(*SYNTHETIC[name], SYNTHETIC_BOUNDS.get(name))


def cut_families(names, per_family):
    """The synthetic families on one base, each cut into consecutive
    families of per_family masks (None: left whole), as (stacks, bounds)
    at their bounds."""
    stacks, bounds = [], []
    for k in names:
        base, stack = SYNTHETIC[k]
        b = (np.broadcast_to(SYNTHETIC_BOUNDS[k], len(stack)) if k in SYNTHETIC_BOUNDS
             else frobenius_bounds(base, stack))
        step = per_family or len(stack)
        for lo in range(0, len(stack), step):
            stacks.append(stack[lo:lo + step])
            bounds.append(b[lo:lo + step])
    return stacks, bounds


def cut_maxima(names, per_family):
    """`pruned_maxima` of `cut_families(names, per_family)`, and the max of
    `op_norm` over every mask of each cut family."""
    base = SYNTHETIC[names[0]][0]
    stacks, bounds = cut_families(names, per_family)
    return (pruned_maxima(base, stacks, bounds),
            [max(op_norm(base * m) for m in stack) for stack in stacks])


class TestPrunedMax:
    """The bound-and-prune max equals the max over every per-matrix norm,
    compared with ==: `op_norm` below `linalg.LANCZOS_MIN_DIM`, and each
    mask's own `certified_value` from it on.  A family cut into consecutive
    families of per_family masks keeps, in each, that family's own max:
    the running max and its prune stay inside one family."""

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    @pytest.mark.parametrize("per_family", [1, 2, None])
    def test_equals_the_max_of_every_norm(self, name, per_family):
        got, want = cut_maxima([name], per_family)
        assert got == want

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    @pytest.mark.parametrize("per_family", [1, 2, None])
    def test_equals_the_max_above_the_gate(self, monkeypatch, name, per_family):
        # every norm a certified Lanczos value
        monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", 1)
        base = SYNTHETIC[name][0]
        stacks, bounds = cut_families([name], per_family)
        assert pruned_maxima(base, stacks, bounds) == [
            max(linalg.certified_value(base * m, 1e-8) for m in stack) for stack in stacks]

    @pytest.mark.parametrize("per_family", [1, 2, None])
    def test_families_are_pruned_apart(self, per_family):
        # every synthetic family on one base in one pass: each keeps its own
        # max, the huge and all-zero ones beside roundoff-sized ones
        for base_name in ("ties", "equal_norms"):
            base = SYNTHETIC[base_name][0]
            names = sorted(k for k, (b, _) in SYNTHETIC.items() if b is base)
            got, want = cut_maxima(names, per_family)
            assert got == want

    def test_slack_boundary_prunes_one_mask(self, svd_shapes):
        base, stack = _slack_family()
        assert pruned_max(base, stack) == 1.0
        assert svd_shapes == [base.shape] * 2

    def test_dominant_mask_alone_reaches_the_svd(self, svd_shapes):
        base, stack = SYNTHETIC["one_dominant"]
        pruned_max(base, stack)
        assert svd_shapes == [base.shape]

    @pytest.mark.parametrize("name", UNTRUSTED)
    def test_untrusted_bounds_prune_nothing(self, svd_shapes, name):
        synthetic_max(name)
        assert len(svd_shapes) == len(SYNTHETIC[name][1])

    @pytest.mark.parametrize("name", CERTIFIABLE)
    def test_certified_family_takes_its_largest_bound(self, svd_shapes, name):
        # a tolerance at the largest bound certifies the family: that bound,
        # on the verdict side of the dense max, and no mask formed; one ulp
        # below it, the family takes its norms
        base, stack = SYNTHETIC[name]
        bounds = frobenius_bounds(base, stack)
        tol = float(bounds.max())
        got = pruned_maxima(base, [stack], tols=[tol])[0]
        assert svd_shapes == []
        assert got == tol
        assert_verdict_side(got, max(op_norm(base * m) for m in stack), tol)
        assert pruned_maxima(base, [stack], tols=[np.nextafter(tol, 0.0)])[0] == max(
            op_norm(base * m) for m in stack)
        assert svd_shapes

    @pytest.mark.parametrize("name", UNTRUSTED)
    def test_untrusted_bounds_never_certify(self, svd_shapes, name):
        # whatever the tolerance, every mask of the family takes its norm
        base, stack = SYNTHETIC[name]
        bounds = [SYNTHETIC_BOUNDS[name]] if name in SYNTHETIC_BOUNDS else None
        assert pruned_maxima(base, [stack], bounds, tols=[1e300])[0] == max(
            op_norm(base * m) for m in stack)
        assert len(svd_shapes) == len(stack)

    def test_each_family_against_its_own_tolerance(self, svd_shapes):
        # one family certified by its tolerance beside one that fails its
        # own: the first reads its largest bound, the second its norm, from
        # its dominant mask alone
        base = SYNTHETIC["ties"][0]
        stacks = [SYNTHETIC["ties"][1], SYNTHETIC["one_dominant"][1]]
        tol = float(frobenius_bounds(base, stacks[0]).max())
        assert pruned_maxima(base, stacks, tols=[tol, 1e-8]) == [
            tol, max(op_norm(base * m) for m in stacks[1])]
        assert svd_shapes == [base.shape]


# ---------------------------------------------------------------------------
# norms from linalg.LANCZOS_MIN_DIM on: the Lanczos kernel, certified verdicts
# ---------------------------------------------------------------------------

def _masked_flow_product(ch, sample=0):
    """T_eig times the thm_commute_z mask of one z sample."""
    z = sample_z(0)[sample]
    mask = (np.exp(z * ch.source.modular.frequencies)[None, :]
            - np.exp(z * ch.target.modular.frequencies)[:, None])
    return eigen_extension(ch) * mask


def _lanczos_cases():
    """Flow products at N = 100-576: roundoff-level ones from positives, O(1)
    ones from a flow-breaking channel and from random superoperators."""
    cases = {f"{kind}-{'x'.join(map(str, dims))}": _masked_flow_product(_build(kind, dims, {}))
             for kind, dims in [("pinch", (12,)), ("schur", (16,)),
                                ("automorphism", (8, 8)), ("schur", (24,)),
                                ("sp_ucp", (12,))]}
    cases["random-10"] = _masked_flow_product(_off_class_channel((10,), (10,)))
    cases["random-12-to-10"] = _masked_flow_product(_off_class_channel((12,), (10,)))
    cases["random-24"] = _masked_flow_product(_off_class_channel((24,), (24,)), 3)
    return cases


LANCZOS_CASES = _lanczos_cases()


class TestLanczosKernel:
    """`linalg._top_singular_value` against the dense singular values."""

    @staticmethod
    def assert_matches(a, got):
        for ref in (np.linalg.svd(a, compute_uv=False)[0], scipy.linalg.svdvals(a)[0]):
            assert abs(got - ref) <= 1e-13 * ref, (got, ref)

    @pytest.mark.parametrize("name", sorted(LANCZOS_CASES))
    def test_matches_the_svd(self, name):
        a = LANCZOS_CASES[name]
        got = _top_singular_value(a)
        self.assert_matches(a, got)
        # positives give roundoff-level products, the rest O(1) ones
        assert (got < 1e-12) == (name.split("-")[0] in ("pinch", "schur", "automorphism"))
        assert _top_singular_value(a) == got

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(100) + 1j, rng.standard_normal(150) - 2j
        a = np.outer(x, y.conj())
        self.assert_matches(a, _top_singular_value(a))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_tiny_and_huge_entries(self, scale):
        # squared norms of such steps would under- or overflow unscaled
        a = scale * LANCZOS_CASES["random-10"]
        self.assert_matches(a, _top_singular_value(a))

    def test_zero_matrix_breaks_down_at_step_one(self, svd_shapes):
        assert _top_singular_value(np.zeros((100, 120), dtype=np.complex128)) == 0.0
        assert svd_shapes == [(1, 1)]

    def test_unitary_repeated_top_value(self):
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((128, 128))
                         + 1j * rng.standard_normal((128, 128)))[0]
        assert abs(_top_singular_value(q) - 1.0) <= 1e-13
        self.assert_matches(q, _top_singular_value(q))
        # the scale check reads the entries in memory order, C or F
        self.assert_matches(q, _top_singular_value(np.asfortranarray(q)))
        self.assert_matches(q[:, ::2], _top_singular_value(q[:, ::2]))

    @pytest.mark.parametrize("n", [100, 128])
    def test_reaches_the_step_cap(self, svd_shapes, n):
        # ones on the diagonal and above: the spectrum of B^T B crowds at its
        # ends, and the top Ritz value moves at every step up to N
        a = (np.eye(n) + np.eye(n, k=1)).astype(np.complex128)
        got = _top_singular_value(a)
        assert svd_shapes == [(k, k) for k in range(1, n + 1)]
        self.assert_matches(a, got)

    def test_converges_well_before_the_cap(self, svd_shapes):
        _top_singular_value(LANCZOS_CASES["schur-24"])
        assert len(svd_shapes) < 40

    @pytest.mark.parametrize("gap", [1e-8, 1e-9, 1e-10])
    def test_near_degenerate_top_pair(self, gap):
        # s_1 = 1, s_2 = 1 - gap and the rest <= 0.99: the stop test can fire
        # before the top pair is split, so the value is only bracketed by
        # [s_2, s_1], and `certified_value` must still give the dense verdict for a
        # tolerance inside the gap
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.standard_normal((100, 100))
                             + 1j * rng.standard_normal((100, 100)))[0] for _ in range(2))
        s = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.99, 98)])
        a = (u * s) @ v.conj().T
        dense = np.linalg.svd(a, compute_uv=False)
        got = _top_singular_value(a)
        assert dense[1] - 1e-14 <= got <= dense[0] + 1e-14, (got, dense[:2])
        for frac in (0.1, 0.5, 0.9):
            tol = 1.0 - frac * gap
            assert (linalg.certified_value(a, tol) > tol) == (dense[0] > tol), frac

    def test_no_full_size_temporaries(self):
        # the bases grow with the steps, and a^+ u is formed without a^+
        a = LANCZOS_CASES["random-24"]
        tracemalloc.start()
        try:
            _top_singular_value(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * a.nbytes, peak / a.nbytes


def _parity_cases():
    cases = [(kind, dims, {}) for kind in ("schur", "pinch", "block_expectation",
                                            "automorphism", "convex", "state_to_scalar")
             for dims in [(12,), (16,), (8, 8)] if KIND_SPECS[kind].fits(dims)]
    return cases + [("sp_ucp", (12,), {}), ("sp_ucp", (16,), {})]


def _bracket_id(channel):
    if len(channel) == 3:
        return _case_id(channel)
    return "random-" + "-to-".join("x".join(map(str, d)) for d in channel)


@pytest.mark.parametrize("channel", [*CASES, *OFF_CLASS_PAIRS, *_parity_cases()],
                         ids=_bracket_id)
def test_moved_keys_on_the_verdict_side(channel):
    # every value a certified pass moves lies in [dense - rounding, tol],
    # and every fail is the dense value (below `linalg.LANCZOS_MIN_DIM`, bit
    # for bit) or its Ritz value: on the generated channels, on random
    # superoperators, and on the verify-large kinds at n = 12, 16 and 8x8
    ch = _off_class_channel(*channel) if len(channel) == 2 else _build(*channel)
    assert_report_on_verdict_side(ch, verify_channel(ch))


def _kraus_channel(n, seed=91):
    """x |-> sum_i p_i u_i^+ x u_i for random unitaries: unital and cp, but
    it moves the state and breaks the flow."""
    sys = System(random_faithful_state(BlockAlgebra((n,)), seed, 0.05))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    kraus = [np.sqrt(p) * np.linalg.qr(rng.standard_normal((n, n))
                                       + 1j * rng.standard_normal((n, n)))[0]
             for p in weights]
    return channel_from_kraus(kraus, sys, sys)


# a kadison_norm fail is a certified bound from the gate on, not a value
# within rounding: a Ritz value below |T|, so it may read below the dense
# value (a kadison_norm pass is a `MOVED_KEYS` bracket instead; markov_cp
# takes no Lanczos value)
BOUND_KEYS = ("kadison_norm",)
# how far a Ritz value may lie above the SVD's value of the same matrix
RITZ_ROUNDING = 16 * np.finfo(float).eps


class TestLanczosRoute:
    """verify_channel from `linalg.LANCZOS_MIN_DIM` on against the dense route."""

    @staticmethod
    def assert_same_report(monkeypatch, svd_shapes, ch, kind=None):
        """Verdicts identical; the `MOVED_KEYS` on the side of their
        verdicts of the dense route's values (a certified flow family reads
        the same bound on both), except a `BOUND_KEYS` value that is not a
        moved pass, which is within `RITZ_ROUNDING`; every other key within
        1e-13 relative."""
        lanczos = verify_channel(ch, kind=kind)
        # no full-size SVD: every formed flow mask fails on its Ritz value,
        # and every SVD is a B_k or a sector's
        assert svd_shapes and eigen_extension(ch).shape not in svd_shapes
        monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", DENSE_GATE)
        dense = verify_channel(ch, kind=kind)
        assert lanczos.verdicts == dense.verdicts
        for key, ref in dense.residuals.items():
            got = lanczos.residuals[key]
            if key in BOUND_KEYS and not (key in MOVED_KEYS and dense.verdicts[key]):
                assert got <= ref + RITZ_ROUNDING and abs(got - ref) <= 1e-14, (key, got, ref)
            elif key in MOVED_KEYS:
                assert_verdict_side(got, ref, dense.tolerances[key], lanczos=True)
            else:
                assert abs(got - ref) <= 1e-13 * ref, key
        return dense

    @pytest.mark.parametrize("case", _parity_cases(), ids=_case_id)
    def test_same_verdicts_and_residuals(self, monkeypatch, svd_shapes, case):
        report = self.assert_same_report(monkeypatch, svd_shapes, _build(*case), case[0])
        assert report.acceptable

    def test_flow_breaking_kraus_channel(self, monkeypatch, svd_shapes):
        report = self.assert_same_report(monkeypatch, svd_shapes, _kraus_channel(12))
        assert {"eq32_t", "thm_commute_z", "thm_i_s", "thm_ii"} <= set(report.failed_keys)

    def test_bracket_certifies_or_takes_the_svd(self, svd_shapes):
        a = LANCZOS_CASES["sp_ucp-12"]
        ritz, upper = _top_singular_value(a), frob(a)
        assert ritz < upper
        # a certain fail (ritz > tol) reads its Ritz value
        svd_shapes.clear()
        assert linalg.certified_value(a, 0.5 * ritz) == ritz
        assert a.shape not in svd_shapes
        # a certain pass (|a|_F <= tol) reads |a|_F, and takes no Lanczos step
        svd_shapes.clear()
        assert linalg.certified_value(a, upper) == upper
        assert svd_shapes == []
        # a straddling bracket: one dense SVD, and its value
        ref = np.linalg.svd(a, compute_uv=False)[0]
        svd_shapes.clear()
        assert linalg.certified_value(a, np.sqrt(ritz * upper)) == ref
        assert svd_shapes.count(a.shape) == 1

    def test_only_the_straddling_mask_takes_the_svd(self, svd_shapes):
        # three masks of one family, their tolerances below the Ritz value,
        # inside the bracket and at the Frobenius bound
        a = LANCZOS_CASES["sp_ucp-12"]
        base = np.ones_like(a)
        stack = np.stack([a, 0.5 * a, 0.25 * a])
        ritz, upper = _top_singular_value(a), frob(a)
        tols = (0.5 * ritz, 0.5 * np.sqrt(ritz * upper), 0.25 * upper)
        ref = [ritz, np.linalg.svd(0.5 * a, compute_uv=False)[0], frob(0.25 * a)]
        svd_shapes.clear()
        norms = [verify._masked_norm(base, np.array(m, dtype=np.complex128), tol)
                 for m, tol in zip(stack, tols)]
        assert svd_shapes.count(a.shape) == 1
        assert norms == ref

    def test_masks_stay_within_the_memory_budget(self):
        # on the Lanczos route too, one masked copy is alive at a time; at
        # tolerance 0 no family is certified, so its masks are formed
        ch = _build("schur", (16,), {})
        t_eig = eigen_extension(ch)
        tracemalloc.start()
        try:
            verify._flow_residuals(t_eig, ch, commute=[(sample_z(0), 0.0)])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * t_eig.nbytes, peak / t_eig.nbytes


# ---------------------------------------------------------------------------
# the sector and Frobenius certificates from linalg.LANCZOS_MIN_DIM on
# ---------------------------------------------------------------------------

SECTOR_N = 120  # above linalg.LANCZOS_MIN_DIM
SECTOR_TOL = 1e-10  # kadison_norm's pinned tolerance


def labelled_matrix(seed, n_t, n_s, labels, off_scale):
    """(T, w_s, w_t): frequencies 0.37 k for k drawn from range(labels), so
    ties are exact equalities, and T random complex on their equal-frequency
    set Z and off_scale times random complex off it."""
    rng = np.random.default_rng(seed)
    w_s = 0.37 * rng.integers(0, labels, n_s)
    w_t = 0.37 * rng.integers(0, labels, n_t)
    t = rng.standard_normal((n_t, n_s)) + 1j * rng.standard_normal((n_t, n_s))
    return np.where(w_t[:, None] == w_s[None, :], t, off_scale * t), w_s, w_t


def unit_sectors(n=SECTOR_N):
    """(T, w): distinct frequencies, so every sector is one diagonal entry,
    and T = 1 on them."""
    return np.eye(n, dtype=np.complex128), 0.37 * np.arange(n)


def sector_bound(t, w_s, w_t):
    """`verify._sector_bound` of t, with no tolerance to cut it short, from
    its split at the column and row frequencies w_s and w_t."""
    return verify._sector_bound(t, verify._sector_split(t, w_s, w_t), np.inf)


def norm_excess(t, w_s, w_t, tol):
    """kadison_norm's `verify._norm_excess` of t at the frequencies w_s, w_t."""
    return verify._norm_excess(t, verify._sector_split(t, w_s, w_t), tol)


class TestSectorBound:
    """`verify._sector_bound` and kadison_norm's `_norm_excess` on direct
    matrices; `frame_column_norms`' bound on random block-unitary frames."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n_t=st.integers(1, 130), n_s=st.integers(1, 130),
           labels=st.integers(1, 60), off_scale=st.sampled_from([0.0, 1e-9, 1.0]))
    def test_bounds_the_operator_norm(self, seed, n_t, n_s, labels, off_scale):
        t, w_s, w_t = labelled_matrix(seed, n_t, n_s, labels, off_scale)
        upper, norm = sector_bound(t, w_s, w_t), np.linalg.norm(t, 2)
        assert upper >= norm, (upper, norm)
        if off_scale == 0.0 and np.isfinite(upper):
            # on Z alone it is the largest sector norm, to its margin
            assert upper <= norm * (1.0 + 1e-12), (upper, norm)

    def test_a_sector_at_the_gate_certifies_nothing(self):
        # one frequency: a single SECTOR_N x SECTOR_N sector
        t = _unitary_matrix(21, SECTOR_N)
        w = np.zeros(SECTOR_N)
        assert sector_bound(t, w, w) == np.inf
        assert norm_excess(t, w, w, SECTOR_TOL) == linalg.certified_value(
            t, SECTOR_TOL, "excess")

    def test_non_finite_entries_certify_nothing(self):
        t, w = unit_sectors()
        for bad, where in ((np.nan, (0, 0)), (np.inf, (0, 1))):
            u = t.copy()
            u[where] = bad
            assert sector_bound(u, w, w) == np.inf
            with pytest.raises(ValueError, match="finite"):
                norm_excess(u, w, w, SECTOR_TOL)

    def test_pass_reads_the_sector_bound(self, monkeypatch):
        # unitary sectors of every shape: a certain pass, with no Gram
        # matrix, Cholesky factor or Lanczos step
        w = 0.37 * np.concatenate([np.zeros(6), np.ones(3), np.arange(2, SECTOR_N - 7)])
        t = np.eye(SECTOR_N, dtype=np.complex128)
        t[:6, :6] = _unitary_matrix(22, 6)
        t[6:9, 6:9] = _unitary_matrix(23, 3)
        monkeypatch.setattr(linalg, "_top_singular_value", None)
        monkeypatch.setattr(linalg, "_norm_below", None)
        got = norm_excess(t, w, w, SECTOR_TOL)
        assert got == max(0.0, sector_bound(t, w, w) - 1.0)
        assert 0.0 < got <= 1e-12

    def test_off_sector_mass_counts(self, n=SECTOR_N):
        # unit sectors and one entry 1e-3 off them: |T| = 1 + 5e-4, a fail
        # that the sectors alone would pass
        t, w = unit_sectors(n)
        t[0, 1] = 1e-3
        got = norm_excess(t, w, w, SECTOR_TOL)
        assert got > SECTOR_TOL
        assert got == linalg.certified_value(t, SECTOR_TOL, "excess")

    def test_matrix_sector_takes_its_norm(self, n=SECTOR_N):
        # a 4 x 4 zero-frequency sector 1.01 U, U unitary: every entry of it
        # lies below 1 and its norm above 1 + tol
        t, w = unit_sectors(n)
        w[:4] = 0.0
        t[:4, :4] = 1.01 * _unitary_matrix(24, 4)
        assert np.abs(t[:4, :4]).max() < 1.0
        got = norm_excess(t, w, w, SECTOR_TOL)
        assert got > SECTOR_TOL and abs(got - 0.01) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000),
           dims=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           rows=st.integers(1, 24), aligned=st.booleans())
    def test_column_norm_bound(self, seed, dims, rows, aligned):
        # |m|_F times the frame's margin bounds every column norm of m G,
        # dense or factored; aligned, m = x g_j^+ puts its whole norm in
        # column j, where the bound is tight but for the margin
        md = ModularData(random_faithful_state(BlockAlgebra(tuple(dims)), seed, 0.05))
        rng = np.random.default_rng(seed)
        n = md.algebra.coord_dim
        m = _random_matrix(rng, (rows, n))
        if aligned:
            m = np.outer(m[:, 0], md.frame[:, rng.integers(n)].conj())
        upper = md.column_norm_bound(m)
        assert upper >= md.frame_column_norms(m).max()
        assert upper >= np.linalg.norm(m @ md.frame, axis=0).max()

    def test_report_documents_above_the_gate(self):
        # every value a certificate settles is a Python float, so the
        # verdicts are bools and the report writes
        ch = _build("schur", (12,), {})
        report = verify_channel(ch, kind="schur")
        assert all(type(v) is float for v in report.residuals.values())
        assert all(type(v) is bool for v in report.verdicts.values())
        assert json.loads(dumps_canonical(report_to_json(report)))["verdicts"] == report.verdicts


def _unitary_matrix(seed, n):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def tracial_automorphism(n=12):
    """An inner automorphism of M_n under its tracial state: every
    frequency is 0, so T_eig is one n^2 x n^2 sector."""
    sys = System(FaithfulState(AlgebraElement(BlockAlgebra((n,)), [np.eye(n) / n])))
    return random_automorphism(sys, 5)


def masked_adjoint_pair(ch, tols):
    """The adjoint pair as `verify._masked_norm` takes it on X^+ with
    `adjoint_pair_weights`, both masks formed."""
    x_h, *masks = adjoint_pair_weights(ch)
    return [verify._masked_norm(x_h, np.array(m, dtype=np.complex128), tol)
            for m, tol in zip(masks, tols)]


class TestCertificateFallback:
    """From the gate on, a key whose certificate settles nothing takes the
    route it took before the certificates, bit for bit: a degenerate
    spectrum (one sector at the gate) and a channel off the flow class."""

    def test_tracial_state_keeps_the_excess_route(self):
        ch = tracial_automorphism()
        t_eig = eigen_extension(ch)
        w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
        assert not w_s.any() and sector_bound(t_eig, w_s, w_t) == np.inf
        report = verify_channel(ch)
        tol = report.tolerances["kadison_norm"]
        assert report.residuals["kadison_norm"] == linalg.certified_value(t_eig, tol, "excess")
        assert report.passed

    def test_sp_ucp_16_keeps_its_routes(self):
        ch = _build("sp_ucp", (16,), {})
        t_eig = eigen_extension(ch)
        w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
        report = verify_channel(ch, kind="sp_ucp")
        tol = report.tolerances
        # O(1) mass off the sectors: the bound settles nothing
        assert sector_bound(t_eig, w_s, w_t) - 1.0 > tol["kadison_norm"]
        assert report.residuals["kadison_norm"] == linalg.certified_value(
            t_eig, tol["kadison_norm"], "excess")
        # the failing keys keep their exact routes
        assert not report.verdicts["markov_modular"]
        assert report.residuals["markov_modular"] == per_mask_modular(ch)
        pair = ("adjoint_consistency", "petz_match")
        assert not any(report.verdicts[k] for k in pair)
        assert [report.residuals[k] for k in pair] == masked_adjoint_pair(
            ch, [tol[k] for k in pair])
        assert report.acceptable

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (16,)], ids=lambda d: "x".join(map(str, d)))
    def test_sp_ucp_skips_the_sectors(self, svd_shapes, dims):
        # |T_eig off Z|_F alone exceeds the tolerance, and a unital T has
        # |T_0| >= 1: the sector bound is not formed (no sector SVD), and
        # kadison_norm is the excess route's value, bit for bit
        ch = _build("sp_ucp", dims, {})
        t_eig = eigen_extension(ch)
        split = sector_split(ch, t_eig)
        tol = verify._tolerances(ch)["kadison_norm"]
        assert verify._sector_bound(t_eig, split, np.inf) - 1.0 > tol
        assert svd_shapes  # formed in full, the bound takes its sector SVDs
        svd_shapes.clear()
        assert verify._sector_bound(t_eig, split, tol) == np.inf
        assert svd_shapes == []
        report = verify_channel(ch, kind="sp_ucp")
        assert report.residuals["kadison_norm"] == linalg.certified_value(t_eig, tol, "excess")


class TestAdjointWeights:
    """adjoint_consistency and petz_match on a positive with one entry of X
    moved off the sectors, where the weights of the two keys are far from
    zero: each against its kron-product oracle, on both sides of its
    tolerance."""

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    @pytest.mark.parametrize("n", [3, 12])
    def test_one_off_sector_entry(self, n, scale):
        ch = _build("schur", (n,), {})
        src, tgt = ch.source, ch.target
        # the entry whose frequencies differ the most
        gap = tgt.modular.frequencies[:, None] - src.modular.frequencies[None, :]
        j, i = np.unravel_index(np.argmax(gap), gap.shape)
        x = ch.eigen_superop.copy()
        x[j, i] += 1.0
        unit = Channel(src, tgt, from_eigenframe(x, src, tgt))
        delta = scale * verify._tolerances(unit)["adjoint_consistency"] / (
            oracle_adjoint_consistency(unit) - oracle_adjoint_consistency(ch))
        x = ch.eigen_superop.copy()
        x[j, i] += delta
        moved = Channel(src, tgt, from_eigenframe(x, src, tgt))
        report = verify_channel(moved)
        for key, oracle in (("adjoint_consistency", oracle_adjoint_consistency),
                            ("petz_match", oracle_petz_match)):
            ref, tol = oracle(moved), report.tolerances[key]
            assert abs(report.residuals[key] - ref) <= 1e-6 * ref, (key, report.residuals[key], ref)
            assert report.verdicts[key] == (ref <= tol), key
        assert report.verdicts["adjoint_consistency"] == (scale < 1.0)


# ---------------------------------------------------------------------------
# flow-pass bounds from one GEMM, at every N
# ---------------------------------------------------------------------------

def flow_mask_setup(ch):
    """(mask, n_commute, d_s, d_t) of the `flow_families` masks, as
    `verify._flow_residuals` forms them: mask(i) is the commute mask
    d_s[i][None, :] - d_t[i][:, None] below n_commute, and the twist mask
    d_s[i][None, :] d_t[i][:, None] - 1 from it on."""
    commute, twist = flow_families(ch)
    n_commute = sum(len(zs) for zs, _ in commute)
    exps = [z for zs, _ in commute for z in zs] + [float(s) for ss, _ in twist for s in ss]
    d_s = ch.source.modular.delta_power_diagonals(exps)
    d_t = ch.target.modular.delta_power_diagonals(
        exps[:n_commute] + [-s for s in exps[n_commute:]])

    def mask(i):
        if i < n_commute:
            return d_s[i][None, :] - d_t[i][:, None]
        return d_s[i][None, :] * d_t[i][:, None] - 1.0
    return mask, n_commute, d_s, d_t


def sector_split(ch, t_eig):
    """`verify._sector_split` of t_eig at ch's frequencies."""
    return verify._sector_split(t_eig, ch.source.modular.frequencies,
                                ch.target.modular.frequencies)


def bounds_and_norms(ch, t_eig=None):
    """(`verify._flow_bounds`, the Frobenius norm of each formed t_eig * m)
    over the `flow_families` masks m, formed one at a time."""
    t_eig = eigen_extension(ch) if t_eig is None else t_eig
    mask, n_commute, d_s, d_t = flow_mask_setup(ch)
    bounds = verify._flow_bounds(sector_split(ch, t_eig), d_s, d_t, n_commute)
    norms = np.array([np.linalg.norm(np.multiply(t_eig, mask(i))) for i in range(len(d_s))])
    return bounds, norms


def assert_bounds_cover(ch, t_eig=None):
    """Every bound at or above its formed product's Frobenius norm, to 1e-13
    relative; returns (bounds, norms)."""
    bounds, norms = bounds_and_norms(ch, t_eig)
    assert np.all(bounds >= norms * (1.0 - 1e-13)), np.min(bounds / norms)
    return bounds, norms


def assert_bounds_tight(ch):
    """`assert_bounds_cover`, and every bound within 1e-9 relative of the
    norm: off the cancelling set Z the margin is ~(N_s + N_t) eps of the
    positive terms, at most 9.2e-11 of the norm on the generated channels
    up to n = 24."""
    bounds, norms = assert_bounds_cover(ch)
    assert np.all(bounds <= norms * (1.0 + 1e-9)), np.max(bounds / norms)


def _clustered_channel(n=12, gap=1e-9, seed=7):
    """x |-> w^+ x w on a density whose eigenvalues come in pairs ~gap
    apart (relative), w swapping the eigenvectors of each pair: T_eig is
    O(1) only where the frequencies differ by ~gap, so each mask's
    expansion cancels to far below its rounding and the margin must carry
    the bound."""
    rng = np.random.default_rng(seed)
    lam = np.repeat(np.linspace(1.0, 2.0, n // 2), 2) * (1.0 + gap * np.tile([0.0, 1.0], n // 2))
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    d = (u * (lam / lam.sum())) @ u.conj().T
    sys = System(FaithfulState(AlgebraElement(BlockAlgebra((n,)), [(d + d.conj().T) / 2.0])))
    v = sys.modular.d_eig[0].eigenvectors
    swap = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
    return channel_from_kraus([v[:, swap] @ v.conj().T], sys, sys)


def _large_cases():
    return [(kind, dims, {}) for kind in ("schur", "pinch", "block_expectation", "automorphism",
                                          "convex", "state_to_scalar", "sp_ucp", "twirl")
            for dims in [(12,), (16,), (8, 8), (24,)] if KIND_SPECS[kind].fits(dims)]


class TestFlowBounds:
    """`verify._flow_bounds` against the formed products it bounds."""

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_cases(self, case):
        assert_bounds_tight(_build(*case))

    @pytest.mark.parametrize("src_dims,tgt_dims", OFF_CLASS_PAIRS + [((12,), (10,))])
    def test_off_the_class(self, src_dims, tgt_dims):
        assert_bounds_tight(_off_class_channel(src_dims, tgt_dims))

    @pytest.mark.parametrize("case", _large_cases(), ids=_case_id)
    def test_large_kinds(self, case):
        assert_bounds_tight(_build(*case))

    def test_clustered_frequencies(self):
        # the expansion cancels on every mask: the margin is what keeps each
        # value an upper bound, and it leaves each far above the norm
        bounds, norms = assert_bounds_cover(_clustered_channel())
        assert np.all(bounds > 100.0 * norms)

    def test_zero_base(self):
        ch = _build("pinch", (3,), {})
        bounds, norms = assert_bounds_cover(ch, np.zeros_like(eigen_extension(ch)))
        assert not bounds.any() and not norms.any()


def record_masked_products(monkeypatch):
    """The indices of the masks that `verify._bounded_maxima` forms, in the
    order it asks for them."""
    seen = []
    bounded_maxima = verify._bounded_maxima

    def recording(base, mask, *args):
        def recorded(j):
            seen.append(int(j))
            return mask(j)
        return bounded_maxima(base, recorded, *args)

    monkeypatch.setattr(verify, "_bounded_maxima", recording)
    return seen


def every_mask_maxima(ch, t_eig, norm=None):
    """Each family's max of norm(a, tol) (default `certified_value`) over
    the product a = t_eig * m of every one of its masks m.  np.multiply
    keeps t_eig the left operand: numpy may evaluate `t_eig * mask(i)` in
    the temporary's place as mask(i) * t_eig, and complex products with FMA
    are not commutative bit for bit."""
    norm = norm or linalg.certified_value
    commute, twist = flow_families(ch)
    mask = flow_mask_setup(ch)[0]
    out, start = [], 0
    for samples, tol in commute + twist:
        out.append(max((norm(np.multiply(t_eig, mask(i)), tol)
                        for i in range(start, start + len(samples))), default=0.0))
        start += len(samples)
    return out


def assert_bounded_route(monkeypatch, ch, t_eig=None):
    """The flow pass against every mask of each family.  A family whose
    `verify._flow_bounds` are all trusted and at most its tolerance reads
    its largest bound, on the side of its verdict of the dense max, and
    forms no mask; every other family reads the max of `certified_value`
    over every mask, with ==.  Each mask is formed at most once; returns
    the indices formed."""
    t_eig = eigen_extension(ch) if t_eig is None else t_eig
    commute, twist = flow_families(ch)
    _, n_commute, d_s, d_t = flow_mask_setup(ch)
    bounds = verify._flow_bounds(sector_split(ch, t_eig), d_s, d_t, n_commute)
    ref = every_mask_maxima(ch, t_eig)
    dense = every_mask_maxima(ch, t_eig, lambda a, tol: op_norm(a))
    formed = record_masked_products(monkeypatch)
    got = fused_flow(ch, t_eig)
    assert len(formed) == len(set(formed)), formed
    start = 0
    for value, want, norm, (samples, tol) in zip(got, ref, dense, commute + twist):
        family = bounds[start:start + len(samples)]
        if np.all(np.isfinite(family) & (family >= verify._PRUNE_FLOOR)) and family.max() <= tol:
            assert value == family.max()
            assert_verdict_side(value, norm, tol)
            assert not set(formed) & set(range(start, start + len(samples)))
        else:
            assert value == want
        start += len(samples)
    return formed


def _route_cases():
    return [(kind, dims, {}) for kind in ("schur", "pinch", "automorphism", "convex", "sp_ucp")
            for dims in [(12,), (16,), (8, 8)] if KIND_SPECS[kind].fits(dims)]


class TestBoundedRoute:
    """`verify._bounded_maxima` through `_flow_residuals` against every mask."""

    @pytest.mark.parametrize("case", _route_cases(), ids=_case_id)
    def test_max_of_every_mask(self, monkeypatch, case):
        assert_bounded_route(monkeypatch, _build(*case))

    def test_schur_16_prunes(self, monkeypatch):
        # every family a certified pass: no mask formed
        assert assert_bounded_route(monkeypatch, _build("schur", (16,), {})) == []

    @pytest.mark.parametrize("dims", [(4,), (8,)], ids=lambda d: "x".join(map(str, d)))
    def test_schur_below_the_gate_prunes(self, monkeypatch, dims):
        assert assert_bounded_route(monkeypatch, _build("schur", dims, {})) == []

    def test_clustered_frequencies_prune_nothing_wrongly(self, monkeypatch):
        assert_bounded_route(monkeypatch, _clustered_channel())

    @pytest.mark.parametrize("scale", [1e-160, 1e200], ids=["tiny", "huge"])
    def test_untrusted_bounds_prune_nothing(self, monkeypatch, scale):
        # |T_eig|^2 underflows below the floor, or overflows to inf
        ch = _build("schur", (12,), {})
        formed = assert_bounded_route(monkeypatch, ch, scale * eigen_extension(ch))
        assert sorted(formed) == list(range(FLOW_MASKS))


# ---------------------------------------------------------------------------
# the frame by its Kronecker factors, from gns.FRAME_MIN_DIM on
# ---------------------------------------------------------------------------

def _random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_within_rounding(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


class TestFactoredFrame:
    """`ModularData.frame_left`, `frame_right` and `frame_column_norms`
    against products with the dense frame, and the verify path from
    `gns.FRAME_MIN_DIM` on against the dense route."""

    @pytest.mark.parametrize("dims", [(1,), (2,), (3, 1), (1, 1, 1), (2, 2, 2), (1, 4, 1),
                                      (6, 4, 2), (12,), (8, 8), (9, 5, 1)],
                             ids=lambda d: "x".join(map(str, d)))
    def test_apply_helpers_against_the_dense_frame(self, monkeypatch, dims):
        monkeypatch.setattr(gns, "FRAME_MIN_DIM", 1)  # every dims factored
        md = ModularData(random_faithful_state(BlockAlgebra(dims), 41, 0.05))
        assert md.factored
        g, n = md.frame, md.algebra.coord_dim
        rng = np.random.default_rng(42)
        cols, rows = _random_matrix(rng, (n, 5)), _random_matrix(rng, (7, n))
        _assert_within_rounding(md.frame_left(cols), g @ cols)
        _assert_within_rounding(md.frame_left(cols, adjoint=True), g.conj().T @ cols)
        _assert_within_rounding(md.frame_right(rows), rows @ g)
        _assert_within_rounding(md.frame_right(rows, adjoint=True), rows @ g.conj().T)
        # each adjoint undoes its helper: G is unitary
        _assert_within_rounding(md.frame_left(md.frame_left(cols), adjoint=True), cols)
        _assert_within_rounding(md.frame_right(md.frame_right(rows, adjoint=True)), rows)
        for m in _random_matrix(rng, (3, 6, n)):
            _assert_within_rounding(md.frame_column_norms(m), np.linalg.norm(m @ g, axis=0))
        _assert_within_rounding(md.frame_column_norms(rows), np.linalg.norm(rows @ g, axis=0))

    @pytest.mark.parametrize("dims", [(6, 4, 2), (9,), (2, 2, 2)], ids=lambda d: "x".join(map(str, d)))
    def test_below_the_gate_the_dense_products(self, dims):
        md = ModularData(random_faithful_state(BlockAlgebra(dims), 43, 0.05))
        assert not md.factored
        g, n = md.frame, md.algebra.coord_dim
        rng = np.random.default_rng(44)
        cols, rows = _random_matrix(rng, (n, n)), _random_matrix(rng, (n, n))
        assert np.array_equal(md.frame_left(cols), g @ cols)
        assert np.array_equal(md.frame_left(cols, adjoint=True), g.conj().T @ cols)
        assert np.array_equal(md.frame_right(rows), rows @ g)
        assert np.array_equal(md.frame_right(rows, adjoint=True), rows @ g.conj().T)
        assert np.array_equal(md.frame_column_norms(rows), np.linalg.norm(rows @ g, axis=-2))

    @pytest.mark.parametrize("src_dims,tgt_dims", [((16,), (2,)), ((12,), (8, 8)),
                                                   ((2,), (12,)), ((10, 1), (1, 1, 10))])
    def test_channel_frames_on_mixed_carriers(self, src_dims, tgt_dims):
        # one end factored and the other dense, or both factored on unequal
        # carriers: eigen_superop and from_eigenframe against G_t S G_s^+
        src = System(random_faithful_state(BlockAlgebra(src_dims), 45, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra(tgt_dims), 46, 0.05))
        g_s, g_t = src.modular.frame, tgt.modular.frame
        for ch in (state_to_scalar(src, tgt),
                   Channel(src, tgt, _random_matrix(np.random.default_rng(47),
                                                    (tgt.coord_dim, src.coord_dim)))):
            x = ch.eigen_superop
            _assert_within_rounding(x, g_t @ ch.superop @ g_s.conj().T)
            _assert_within_rounding(from_eigenframe(x, src, tgt), ch.superop)
            # the column norms of markov_modular and thm_iii, through G_s
            _assert_within_rounding(src.modular.frame_column_norms(x),
                                    np.linalg.norm(x @ g_s, axis=0))

    @staticmethod
    def assert_same_report(factored, dense, bound_keys=(), own_passes=()):
        """Verdicts and tolerances identical; a pass of the `own_passes`
        keys left to each route's own dense values
        (`assert_report_on_verdict_side`: each reads a bound of its own
        frame's roundoff), the other `bound_keys` values held to
        `TestLanczosRoute`'s bound, every other value to the frame's."""
        assert factored.verdicts == dense.verdicts
        assert factored.tolerances == dense.tolerances
        for key, ref in dense.residuals.items():
            got = factored.residuals[key]
            if key in own_passes and dense.verdicts[key]:
                continue
            elif key in bound_keys:
                assert got <= ref + RITZ_ROUNDING and abs(got - ref) <= 1e-14, (key, got, ref)
            elif ref > 1e-8:
                assert abs(got - ref) <= 1e-12 * ref, (key, got, ref)
            else:
                # roundoff: both routes' own, within 1e-13 or a millionth of
                # the key's tolerance (thm_i_s of automorphism 8x8 read
                # 1.1e-13 factored and 2.7e-13 dense at seed 1)
                assert abs(got - ref) <= max(1e-13, 1e-6 * dense.tolerances[key]), (key, got, ref)

    @pytest.mark.parametrize("case", _parity_cases(), ids=_case_id)
    def test_same_verdicts_and_residuals(self, monkeypatch, case):
        kind = case[0]
        # test_moved_keys_on_the_verdict_side holds the factored report's
        # passes to its dense values, and this test the dense frame's
        factored = verify_channel(_build(*case), kind=kind)
        monkeypatch.setattr(gns, "FRAME_MIN_DIM", DENSE_GATE)
        ch = _build(*case)
        dense = verify_channel(ch, kind=kind)
        assert_report_on_verdict_side(ch, dense)
        self.assert_same_report(factored, dense, own_passes=MOVED_KEYS)

    @pytest.mark.parametrize("case", [("schur", (24,), {}), ("block_expectation", (12, 12), {})],
                             ids=_case_id)
    def test_n24_and_12x12_against_the_dense_route(self, monkeypatch, case):
        # the factored frame and the certified kernels together, against
        # both gates above N; the certified passes against the default
        # route's own dense values
        kind = case[0]
        ch = _build(*case)
        default = verify_channel(ch, kind=kind)
        assert_report_on_verdict_side(ch, default)
        monkeypatch.setattr(gns, "FRAME_MIN_DIM", DENSE_GATE)
        monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", DENSE_GATE)
        dense = verify_channel(_build(*case), kind=kind)
        assert default.passed
        self.assert_same_report(default, dense, BOUND_KEYS, own_passes=MOVED_KEYS)

    @pytest.mark.parametrize("case", [c for c in _parity_cases() if c[0] != "sp_ucp"],
                             ids=_case_id)
    def test_build_and_verify_never_form_the_frame(self, monkeypatch, case):
        def refuse(md):
            raise AssertionError(f"dense frame formed at N = {md.algebra.coord_dim}")

        monkeypatch.setattr(ModularData, "frame", property(refuse))
        ch = _build(*case)
        ch, _ = instance_from_json(json.loads(dumps_canonical(instance_to_json(ch, {}))))
        assert verify_channel(ch, kind=case[0]).passed


class TestPowerRangeGuard:
    @pytest.fixture(params=["source", "target"])
    def channel(self, request):
        """state_to_scalar with a one-dimensional algebra on the named end:
        the guard reads the exponent against Z_MAX, not either spectrum."""
        dims = {"source": (3,), "target": (3,), request.param: (1,)}
        src = System(random_faithful_state(BlockAlgebra(dims["source"]), 31, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra(dims["target"]), 32, 0.05))
        return state_to_scalar(src, tgt)

    def test_complex_power_out_of_range(self, channel):
        with pytest.raises(PowerRangeExceeded):
            verify_commute(channel, z_samples=[Z_MAX + 0.5 + 0.5j], s_values=(),
                           require_markov=False)

    def test_real_power_out_of_range(self, channel):
        with pytest.raises(PowerRangeExceeded):
            verify_commute(channel, z_samples=[], s_values=(-Z_MAX - 0.5,),
                           require_markov=False)

    def test_in_range_passes(self, channel):
        z_res, s_res = verify_commute(channel, z_samples=[Z_MAX, Z_MAX - 0.1 + 3j],
                                      s_values=(Z_MAX, -Z_MAX), require_markov=False)
        assert z_res <= 1e-12 and s_res <= 1e-12

    def test_unitary_flow_has_no_range(self, channel):
        assert verify_crucial(channel, (5.0, -5.0), require_markov=False) <= 1e-12


class TestChoiOracle:
    @pytest.mark.parametrize("src_dims,tgt_dims", [
        ((2, 2), (2, 2)), ((3, 1), (3, 1)), ((2, 2, 2), (2, 2, 2)), ((2,), (3,)),
        ((3, 1), (2,))])
    def test_bit_identical_on_random_superop(self, src_dims, tgt_dims):
        src = System(random_faithful_state(BlockAlgebra(src_dims), 41, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra(tgt_dims), 42, 0.05))
        rng = np.random.default_rng(43)
        shape = (tgt.coord_dim, src.coord_dim)
        ch = Channel(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = oracle_to_choi(ch)
        got = to_choi(ch).blocks
        assert got.keys() == ref.keys()
        for key in ref:
            assert got[key].shape == ref[key].shape
            assert got[key].tobytes() == ref[key].tobytes()

    @pytest.mark.parametrize("case", [("sp_ucp", (2, 2), {}), ("sp_ucp", (3, 1), {}),
                                      ("convex", (2, 2, 2), {}),
                                      ("state_to_scalar", (2,), {"target_dims": (3,)})],
                             ids=_case_id)
    def test_equal_on_generated_channels(self, case):
        ch = _build(*case)
        ref = oracle_to_choi(ch)
        got = to_choi(ch).blocks
        for key in ref:
            assert got[key].tobytes() == ref[key].tobytes()


# ---------------------------------------------------------------------------
# markov_cp on the frequency sectors of the eigenframe Choi matrix
# ---------------------------------------------------------------------------

def _sector_cases(dims_list, kinds=POSITIVE_KINDS + ("sp_ucp",)):
    return [(kind, dims, {}) for dims in dims_list for kind in kinds
            if KIND_SPECS[kind].fits(dims)]


def eigenframe_choi_blocks(ch):
    """The Choi blocks of ch conjugated by the density eigenvectors, read
    off X = `ch.eigen_superop` entry by entry: [(i, a), (i', b)] of block
    pair (j, k) is X at row i + m_j i' of target block j and column
    a + n_k b of source block k."""
    x = ch.eigen_superop
    src, tgt = ch.source.algebra, ch.target.algebra
    blocks = {}
    for j, (m, r0) in enumerate(zip(tgt.block_dims, tgt.coord_offsets)):
        for k, (n, c0) in enumerate(zip(src.block_dims, src.coord_offsets)):
            i, a, i2, b = np.meshgrid(np.arange(m), np.arange(n), np.arange(m), np.arange(n),
                                      indexing="ij")
            blocks[(j, k)] = x[r0 + i + m * i2, c0 + a + n * b].reshape(m * n, m * n)
    return blocks


def in_group_mask(ch):
    """True at the X entries [(i, i'), (a, b)] whose Choi indices (i, a) and
    (i', b) share their label log mu_i - log lambda_a: both labels read
    from each unit's carrier rows, one coordinate at a time."""
    def rows(sys):
        alg = sys.algebra
        logs = np.concatenate([np.log(e.eigenvalues) for e in sys.modular.d_eig])
        first, second = [], []
        for n, start in zip(alg.block_dims, np.cumsum((0,) + alg.block_dims[:-1])):
            for q2 in range(n):  # column stacking: E_qq2 at q + n q2
                for q in range(n):
                    first.append(logs[start + q])
                    second.append(logs[start + q2])
        return np.array(first), np.array(second)
    (t1, t2), (s1, s2) = rows(ch.target), rows(ch.source)
    return (t1[:, None] - s1[None, :]) == (t2[:, None] - s2[None, :])


def cp_residual(value, herm):
    return max(0.0, -value, herm)


def blockwise_cp(ch):
    """The cp route on the Choi blocks alone: every block through
    `ChoiMatrix.min_eigenvalue`, and the Hermiticity defect as
    |C - C.conj().T|_F over the formed blocks."""
    choi = to_choi(ch)
    herm = np.sqrt(sum(np.linalg.norm(b - b.conj().T) ** 2 for b in choi.blocks.values()))
    return choi.min_eigenvalue(membership_tolerances(ch)["cp"]), herm


class TestChoiSectors:
    """The cp verdict's sector certificate (`markov._sector_min_eigenvalue`)
    against the dense Choi route."""

    @pytest.mark.parametrize("case", _sector_cases([(4,), (16,), (3, 3), (6, 4, 2)]),
                             ids=_case_id)
    def test_eigenframe_choi_has_the_dense_spectrum(self, case):
        ch = _build(*case)
        dense = to_choi(ch).blocks
        for key, block in eigenframe_choi_blocks(ch).items():
            got = scipy.linalg.eigvalsh((block + block.conj().T) / 2.0)
            ref = scipy.linalg.eigvalsh((dense[key] + dense[key].conj().T) / 2.0)
            # the frame's rounding, ~n^1.5 eps of |C|_F
            assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.linalg.norm(ref)), key

    @pytest.mark.parametrize("case", _sector_cases(
        [(5,), (16,), (3, 3), (6, 4, 2)],
        ("schur", "sp_ucp", "twirl", "automorphism", "state_to_scalar")), ids=_case_id)
    def test_off_group_mass_is_the_split_identity(self, case):
        ch = _build(*case)
        x = ch.eigen_superop
        md_s, md_t = ch.source.modular, ch.target.modular
        mask = in_group_mask(ch)
        # on these states the groups are the equal-frequency set Z
        assert np.array_equal(mask, md_t.frequencies[:, None] == md_s.frequencies[None, :])
        split = verify._sector_split(x, md_s.frequencies, md_t.frequencies)
        ref = np.sqrt(split.off.sum())
        off = markov._choi_sectors(ch)[2]
        assert off == pytest.approx(ref, rel=1e-12, abs=1e-300)
        assert off == pytest.approx(np.linalg.norm(np.where(mask, 0.0, x)), rel=1e-12, abs=1e-300)
        if case[0] != "sp_ucp":
            # roundoff: a difference of two sums would read ~1e-8 here
            assert off <= 1e-13

    @pytest.mark.parametrize("case", _sector_cases(
        [(2,), (4,), (2, 2), (3, 1), (8,), (16,), (3, 3)], POSITIVE_KINDS), ids=_case_id)
    def test_certified_pass_on_the_verdict_side(self, case):
        ch = _build(*case)
        tau = membership_tolerances(ch)["cp"]
        value = markov._sector_min_eigenvalue(ch, tau)
        assert value is not None
        got = cp_residual(*cp_min_eigenvalue(ch))
        assert check_markov(ch).residuals["cp"] == got
        assert_verdict_side(got, dense_cp_residual(ch), tau)

    @pytest.mark.parametrize("dims", [(3,), (2, 2, 2), (16,)], ids=lambda d: "x".join(map(str, d)))
    def test_sp_ucp_keeps_its_route(self, monkeypatch, dims):
        ch = _build("sp_ucp", dims, {})
        blocks = blockwise_cp(ch)
        stacked = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            stacked.append(np.ndim(a) > 2)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        got = cp_min_eigenvalue(ch)
        assert got[1] == blocks[1] and cp_residual(*got) == cp_residual(*blocks)
        if dims == (3,):
            # here lambda_min exceeds the mass off the groups: the groups'
            # eigvalsh certifies lambda_min >= 0, which reads 0.0
            assert any(stacked) and got[0] == 0.0 < blocks[0]
        else:
            # the mass off the groups exceeds min(diagonal): no group is
            # decomposed, and the value is the Choi blocks' own
            assert not any(stacked) and got == blocks

    def test_peak_memory(self):
        ch = _build("schur", (16,), {})
        x = ch.eigen_superop
        tracemalloc.start()
        try:
            cp_min_eigenvalue(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes, peak / x.nbytes

    @staticmethod
    def assert_dense_fail(ch):
        """A map that is not cp: the certificate settles nothing, and the
        verdict and value are the dense route's."""
        tau = membership_tolerances(ch)["cp"]
        assert markov._sector_min_eigenvalue(ch, tau) is None
        got = cp_min_eigenvalue(ch)
        assert got == blockwise_cp(ch) and got[0] < -tau
        assert not check_markov(ch).verdicts["cp"]

    @pytest.mark.parametrize("n", [3, 16])
    def test_off_group_mass_counts(self, n):
        # the identity map, whose groups are PSD, plus a Hermitian pair of
        # off-group Choi entries at [(0, 1), (1, 0)]: a principal 2 x 2
        # minor [[0, eps], [eps, 0]], so lambda_min <= -eps
        sys = System(random_faithful_state(BlockAlgebra((n,)), 61, 0.05))
        x = np.eye(n * n, dtype=np.complex128)
        eps = 1e-3
        x[0 + n * 1, 1 + n * 0] += eps  # X[(i, i'), (a, b)] at [(i, a), (i', b)]
        x[1 + n * 0, 0 + n * 1] += eps
        ch = Channel(sys, sys, from_eigenframe(x, sys, sys))
        assert markov._choi_sectors(ch)[2] >= eps
        self.assert_dense_fail(ch)

    @pytest.mark.parametrize("n", [3, 16])
    def test_indefinite_sector_fails(self, n):
        # the Schur multiplier by a unit-diagonal c with lambda_min(c) < 0:
        # its Choi matrix is c on the zero-label group and 0 elsewhere, so
        # every diagonal entry is 0 or 1 and only the group's eigvalsh sees it
        sys = System(random_faithful_state(BlockAlgebra((n,)), 62, 0.05))
        c = np.full((n, n), 0.9)
        c[0, 1] = c[1, 0] = -0.9
        np.fill_diagonal(c, 1.0)
        assert np.linalg.eigvalsh(c)[0] < -0.5
        ch = Channel(sys, sys, from_eigenframe(np.diag(c.T.ravel()).astype(np.complex128),
                                               sys, sys))
        self.assert_dense_fail(ch)

    def test_groups_across_two_states(self):
        # measure and prepare, M_2 onto the tracial M_2: x |-> sum_a
        # <a|x|a> rho_a with rho_0 = |+><+|, rho_1 = |-><-| in the
        # eigenframes.  Every target label is equal, so each group is
        # {(0, a), (1, a)}, and the Choi matrix is rho_0 (+) rho_1 over them
        src = System(random_faithful_state(BlockAlgebra((2,)), 63, 0.05))
        tgt = System(FaithfulState(AlgebraElement(BlockAlgebra((2,)), [np.eye(2) / 2])))
        rho = [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]
        x = np.zeros((4, 4), dtype=np.complex128)
        for a in range(2):
            x[:, a + 2 * a] = rho[a].T.ravel()  # column stacking: (i, i') at i + 2 i'
        ch = Channel(src, tgt, from_eigenframe(x, src, tgt))
        tau = membership_tolerances(ch)["cp"]
        assert markov._choi_sectors(ch)[2] <= 1e-15
        assert markov._sector_min_eigenvalue(ch, tau) is not None
        assert_verdict_side(cp_residual(*cp_min_eigenvalue(ch)), dense_cp_residual(ch), tau)


class TestStateBasisOracle:
    """`state_residual` is the l2 norm of the state defect over matrix units:
    the unit values are the entries of the dual form's matrix, conjugated."""

    @pytest.mark.parametrize("case", CASES[::3], ids=_case_id)
    def test_matches_unit_loop(self, case):
        ch = _build(*case)
        ref = oracle_state_l2(ch)
        assert abs(state_residual(ch) - ref) <= 1e-15 * max(ref, 1.0)

    def test_matches_unit_loop_off_the_state(self):
        # a channel far from state compatibility, so the residual is O(1)
        src = System(random_faithful_state(BlockAlgebra((3, 1)), 51, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra((2,)), 52, 0.05))
        rng = np.random.default_rng(53)
        shape = (tgt.coord_dim, src.coord_dim)
        ch = Channel(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = oracle_state_l2(ch)
        assert ref > 0.1
        assert abs(state_residual(ch) - ref) <= 1e-15 * ref


class TestDeltaSuperop:
    def test_matches_vector_action(self):
        state = random_faithful_state(BlockAlgebra((2, 2)), 3, 0.05)
        md = System(state).modular
        sup = delta_power_superop(md, 0.5 + 2.0j)
        xi = random_element(state.parent, 5)
        direct = md.delta_power(0.5 + 2.0j, xi)
        assert np.linalg.norm(sup @ to_coords(xi) - to_coords(direct)) <= 1e-12
        assert np.linalg.norm(sup - kron_delta_superop(md, 0.5 + 2.0j)) <= 1e-12

    def test_range_guard(self):
        md = System(random_faithful_state(BlockAlgebra((2,)), 4, 0.05)).modular
        with pytest.raises(PowerRangeExceeded):
            delta_power_superop(md, 3.0)


class TestFrameHelpers:
    @pytest.mark.parametrize("dims", DIMS)
    def test_adjoint_permutation_matches_loop(self, dims):
        alg = BlockAlgebra(dims)
        perm = np.eye(alg.coord_dim)[adjoint_index(alg)]
        assert np.array_equal(perm, loop_adjoint_permutation(alg))

    @pytest.mark.parametrize("dims", DIMS)
    def test_frame_diagonalizes_delta(self, dims):
        md = System(random_faithful_state(BlockAlgebra(dims), 61, 0.05)).modular
        g = md.frame
        assert np.linalg.norm(g.conj().T @ g - np.eye(md.algebra.coord_dim)) <= 1e-13
        x = random_element(md.algebra, 62)
        eig_blocks = [e.eigenvectors.conj().T @ b @ e.eigenvectors
                      for e, b in zip(md.d_eig, x.blocks)]
        assert np.linalg.norm(g @ to_coords(x) - np.concatenate(
            [b.flatten(order="F") for b in eig_blocks])) <= 1e-13
        z = 0.7 - 1.3j
        ref = kron_delta_superop(md, z)
        assert np.linalg.norm(
            g @ ref @ g.conj().T - np.diag(md.delta_power_diagonals([z])[0])) <= 1e-12


def _block_diag_cases():
    rng = np.random.default_rng(5)

    def real(*shape):
        return rng.standard_normal(shape)

    def cplx(*shape):
        return real(*shape) + 1j * real(*shape)

    return {
        "one": [cplx(3, 3)],
        "several": [cplx(2, 2), cplx(3, 3), cplx(1, 1), cplx(2, 2)],
        "one_by_one": [real(1, 1), real(1, 1), real(1, 1)],
        "mixed_real_complex": [real(2, 2), cplx(1, 1), real(3, 3)],
        "rectangular": [cplx(2, 3), real(1, 2)],
        "real_only": [real(2, 2), real(2, 2)],
        "frame_blocks": [np.kron(m.T, m.conj().T) for m in (cplx(2, 2), cplx(3, 3))],
    }


@pytest.mark.parametrize("name", sorted(_block_diag_cases()))
def test_block_diag_matches_scipy(name):
    mats = _block_diag_cases()[name]
    assert _bitwise(block_diag(*mats), scipy.linalg.block_diag(*mats))


# ---------------------------------------------------------------------------
# modular axioms of a state
# ---------------------------------------------------------------------------

def oracle_gns_draws(md, seed):
    """The five unit test elements of `modular_invariants` as
    `AlgebraElement`s, read from the documented layout: one generator
    default_rng(derive_seed(seed, 21)) draws g of shape (2, 5, c, c) on the
    carrier, element i takes its diagonal blocks of g[0, i] + 1j g[1, i],
    element 1 is made Hermitian, and each is scaled to GNS norm 1."""
    alg = md.algebra
    c = alg.carrier_dim
    g = np.random.default_rng(derive_seed(seed, 21)).standard_normal((2, 5, c, c))
    out = []
    for i in range(5):
        blocks, start = [], 0
        for n in alg.block_dims:
            part = g[:, i, start:start + n, start:start + n]
            blocks.append(part[0] + 1j * part[1])
            start += n
        e = AlgebraElement(alg, blocks)
        if i == 1:
            e = (e + e.adjoint()) * 0.5
        out.append(e * (1.0 / e.norm()))
    return out


def oracle_modular_invariants(md, seed=0):
    """The per-vector route: every operation builds an `AlgebraElement`."""
    t_samples = (0.7, -1.0, 5.0)
    x1, x2, xi, eta, y = oracle_gns_draws(md, seed)
    xs, vecs = [x1, x2], [xi, eta]
    out = {}

    r = 0.0
    for v in vecs:  # polar pieces agree: J Delta^{1/2} = Delta^{-1/2} J
        r = max(r, (md.delta_power(0.5, v).adjoint()
                    - md.delta_power(-0.5, v.adjoint())).norm())
    for x in xs:    # and S sends x Omega to x^+ Omega
        r = max(r, (apply_S(md, gns_embed(md, x)) - gns_embed(md, x.adjoint())).norm())
    out["gns_s_polar"] = r

    out["gns_delta_ss"] = abs(md.delta_power(1.0, xi).inner(eta)
                              - apply_S(md, eta).inner(apply_S(md, xi)))

    def j_polar(v):  # Delta^{-1/2} J Delta^{-1/2}, the J of S = J Delta^{1/2}
        return md.delta_power(-0.5, md.delta_power(-0.5, v).adjoint())
    out["gns_j_involution"] = max((j_polar(j_polar(v)) - v).norm() for v in vecs)

    out["gns_j_antiunitary"] = abs(
        xi.adjoint().inner(eta.adjoint()) - eta.inner(xi))

    out["gns_jdj_inverse"] = max(
        (md.delta_power(1.0, v.adjoint()).adjoint()
         - md.delta_power(-1.0, v)).norm() for v in vecs)

    r = (md.omega.adjoint() - md.omega).norm()
    for t in t_samples:
        r = max(r, (md.delta_power(1j * t, md.omega) - md.omega).norm())
    out["gns_omega_fixed"] = r

    r = 0.0
    for t in t_samples:
        for v in vecs:
            r = max(r, (md.delta_power(1j * t, v.adjoint())
                        - md.delta_power(1j * t, v).adjoint()).norm())
    out["gns_delta_it_j"] = r

    r = 0.0
    for x in xs:
        for v in vecs:  # left action commutes with J y J (the right action)
            jyj = (y @ v.adjoint()).adjoint()
            lhs = x @ jyj
            rhs = (y @ (x @ v).adjoint()).adjoint()
            r = max(r, (lhs - rhs).norm())
    out["gns_commutant"] = r

    r = 0.0
    for t in t_samples:
        for x in xs:
            r = max(r, (gns_embed(md, md.modular_flow(t, x))
                        - md.delta_power(1j * t, gns_embed(md, x))).norm())
    out["gns_flow_embed"] = r
    return out


class SkewedPowers(ModularData):
    """Modular data whose powers in the lower half-plane (Re z < 0, or
    Re z = 0 > Im z) are D'^z U, D' another density and U a fixed unitary.
    Delta^z = D^z . D'^{-z} U then breaks every axiom that applies Delta,
    S or the flow by O(1), so a dropped or swapped factor shows as an O(1)
    disagreement instead of hiding behind roundoff-level residuals."""

    def __init__(self, state, skew_seed):
        super().__init__(state)
        self.skew_eig = random_faithful_state(state.parent, skew_seed, 0.05).block_eigs
        self.twist = random_element(state.parent, skew_seed, "unitary").blocks

    def d_power_stack(self, zs):
        out = super().d_power_stack(zs).copy()
        for i, z in enumerate(map(complex, zs)):
            if z.real < 0 or (z.real == 0 and z.imag < 0):
                out[i] = scipy.linalg.block_diag(*[
                    matrix_power_from_eig(e, z) @ u for e, u in zip(self.skew_eig, self.twist)])
        return out


class MismatchedDensity(SkewedPowers):
    """`SkewedPowers` without the unitary: Delta^z = D^z . D'^{-z} in the
    upper half-plane and D'^z . D^{-z} in the lower one."""

    def __init__(self, state, skew_seed):
        super().__init__(state, skew_seed)
        self.twist = state.parent.identity().blocks


AXIOM_DIMS = [(1,), (2,), (3,), (2, 2), (3, 1), (2, 2, 2), (8,), (16,), (6, 4, 2)]


def _axiom_dims_id(dims):
    return "x".join(map(str, dims))


# J and the left action never touch a power
SKEW_BROKEN_KEYS = ("gns_s_polar", "gns_delta_ss", "gns_j_involution", "gns_jdj_inverse",
                    "gns_omega_fixed", "gns_delta_it_j", "gns_flow_embed")


DENSITY_BROKEN_KEYS = ("gns_s_polar", "gns_j_involution", "gns_omega_fixed", "gns_delta_it_j",
                       "gns_flow_embed")


class TestModularAxiomsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", AXIOM_DIMS, ids=_axiom_dims_id)
    def test_matches_per_vector_route(self, dims, seed):
        md = ModularData(random_faithful_state(BlockAlgebra(dims), 70 + seed, 0.05))
        got = modular_invariants(md, seed=seed)
        ref = oracle_modular_invariants(md, seed=seed)
        assert got.keys() == ref.keys()
        for key in ref:
            assert abs(got[key] - ref[key]) <= 1e-14, (key, got[key], ref[key])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dims", [(2,), (3,), (3, 1), (2, 2, 2), (8,), (6, 4, 2)],
                             ids=_axiom_dims_id)
    def test_matches_on_skewed_powers(self, dims, seed):
        md = SkewedPowers(random_faithful_state(BlockAlgebra(dims), 80 + seed, 0.05),
                          skew_seed=90 + seed)
        got = modular_invariants(md, seed=seed)
        ref = oracle_modular_invariants(md, seed=seed)
        for key in SKEW_BROKEN_KEYS:
            assert ref[key] > 1e-2, (key, ref[key])
        for key in ref:
            assert abs(got[key] - ref[key]) <= 1e-10 * ref[key] + 1e-14, (
                key, got[key], ref[key])

    @pytest.mark.parametrize("route", [modular_invariants, oracle_modular_invariants],
                             ids=["stacked", "oracle"])
    @pytest.mark.parametrize("dims", [(2,), (3,), (3, 1), (2, 2, 2), (8,)],
                             ids=_axiom_dims_id)
    def test_mismatched_density(self, route, dims):
        # Delta^{1/2} and Delta are powers of the one operator L_D R_D'^{-1},
        # and J Delta J is the Delta^{-1} formed here, so gns_delta_ss and
        # gns_jdj_inverse cannot see the second density
        md = MismatchedDensity(random_faithful_state(BlockAlgebra(dims), 85, 0.05),
                               skew_seed=95)
        got = route(md, seed=3)
        assert {k for k, v in got.items() if v > 1e-2} == set(DENSITY_BROKEN_KEYS)
        assert got["gns_delta_ss"] <= 1e-12
        assert got["gns_jdj_inverse"] <= 1e-12

    @pytest.mark.parametrize("route", [modular_invariants, oracle_modular_invariants],
                             ids=["stacked", "oracle"])
    def test_range_guard(self, route, monkeypatch):
        # the axioms apply Delta^{+-1}: through the guard, which refuses a
        # cap just below 1 and passes one at 1
        md = ModularData(random_faithful_state(BlockAlgebra((3,)), 4, 0.05))
        monkeypatch.setattr(gns, "Z_MAX", 0.99)
        with pytest.raises(PowerRangeExceeded):
            route(md, seed=1)
        monkeypatch.setattr(gns, "Z_MAX", 1.0)
        route(md, seed=1)


# endpoint pairs with different carrier dimensions, and 1-dim blocks
JOINT_PAIRS = [((3,), (1,)), ((6, 4, 2), (2,)), ((1, 1, 1), (2, 1)), ((1,), (3, 1)),
               ((2, 2), (2, 2))]


def _pair_id(pair):
    return "-".join(_axiom_dims_id(d) for d in pair)


def _keyed(row):
    return dict(zip(verify._GNS_KEYS, row.tolist()))


class TestJointModularAxioms:
    """`verify._modular_axioms` runs both endpoint states in one pass,
    zero-padded to the larger carrier; each row must be that state's own
    axioms."""

    @pytest.mark.parametrize("pair", JOINT_PAIRS, ids=_pair_id)
    def test_rows_match_per_vector_route(self, pair):
        mds = [ModularData(random_faithful_state(BlockAlgebra(d), 60 + i, 0.05))
               for i, d in enumerate(pair)]
        seeds = (4, derive_seed(4, 1))
        rows = verify._modular_axioms(mds, seeds)
        assert rows.shape == (2, len(verify._GNS_KEYS))
        for md, seed, row in zip(mds, seeds, rows):
            got, ref = _keyed(row), oracle_modular_invariants(md, seed=seed)
            assert got.keys() == ref.keys()
            for key in ref:
                assert abs(got[key] - ref[key]) <= 1e-14, (key, got[key], ref[key])

    @pytest.mark.parametrize("dims,target", [((3,), [1]), ((6, 4, 2), [2]), ((2, 1), [1, 1, 1])],
                             ids=["3-1", "6x4x2-2", "2x1-1x1x1"])
    def test_report_takes_the_worse_endpoint(self, dims, target):
        ch = build_channel(GenSpec("state_to_scalar", dims, 5, {"target_dims": target})).channel
        rep = verify_channel(ch, gns_seed=2)
        ref_s = oracle_modular_invariants(ch.source.modular, seed=2)
        ref_t = oracle_modular_invariants(ch.target.modular, seed=derive_seed(2, 1))
        for key in ref_s:
            want = max(ref_s[key], ref_t[key])
            assert abs(rep.residuals[key] - want) <= 1e-14, (key, rep.residuals[key], want)

    @pytest.mark.parametrize("double,broken", [(SkewedPowers, SKEW_BROKEN_KEYS),
                                               (MismatchedDensity, DENSITY_BROKEN_KEYS)],
                             ids=["skewed", "mismatched"])
    @pytest.mark.parametrize("pair,at", [(((3,), (1,)), 0), (((6, 4, 2), (2,)), 0),
                                         (((6, 4, 2), (2,)), 1), (((2, 1), (3,)), 0),
                                         (((1,), (2, 2)), 1)],
                             ids=["3-1@s", "6x4x2-2@s", "6x4x2-2@t", "2x1-3@s", "1-2x2@t"])
    def test_broken_endpoint_does_not_leak(self, double, broken, pair, at):
        states = [random_faithful_state(BlockAlgebra(d), 65 + i, 0.05) for i, d in enumerate(pair)]
        mds = [ModularData(st) for st in states]
        mds[at] = double(states[at], skew_seed=97)
        seeds = (6, derive_seed(6, 1))
        rows = verify._modular_axioms(mds, seeds)
        bad = _keyed(rows[at])
        assert {k for k, v in bad.items() if v > 1e-2} == set(broken), bad
        ref = oracle_modular_invariants(mds[at], seed=seeds[at])
        for key in ref:
            assert abs(bad[key] - ref[key]) <= 1e-10 * ref[key] + 1e-14, (key, bad[key], ref[key])
        other = 1 - at
        alone = modular_invariants(mds[other], seed=seeds[other])
        for key, value in _keyed(rows[other]).items():
            assert value <= 1e-13 and abs(value - alone[key]) <= 1e-15, (key, value, alone[key])


# ---------------------------------------------------------------------------
# channel constructions
# ---------------------------------------------------------------------------

CONSTRUCTION_DIMS = [((2,), (2,)), ((3, 1), (2,)), ((2, 2), (3, 1)), ((1,), (2, 3)),
                     ((2, 2, 2), (2, 2, 2))]


def _dims_id(dims):
    return "x".join(map(str, dims))


def _random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_systems(src_dims, tgt_dims, seed):
    return (System(random_faithful_state(BlockAlgebra(src_dims), seed, 0.05)),
            System(random_faithful_state(BlockAlgebra(tgt_dims), seed + 1, 0.05)))


def _random_channel(src_dims, tgt_dims, seed):
    """A superoperator that is neither unital nor star preserving."""
    src, tgt = _random_systems(src_dims, tgt_dims, seed)
    rng = np.random.default_rng(seed + 2)
    return Channel(src, tgt, _random_matrix(rng, (tgt.coord_dim, src.coord_dim)))


@pytest.mark.parametrize("src_dims,tgt_dims", CONSTRUCTION_DIMS,
                         ids=[f"{_dims_id(s)}->{_dims_id(t)}" for s, t in CONSTRUCTION_DIMS])
class TestConstructionOracles:
    def test_kraus_matches_carrier_loop(self, src_dims, tgt_dims):
        src, tgt = _random_systems(src_dims, tgt_dims, 81)
        rng = np.random.default_rng(83)
        shape = (src.algebra.carrier_dim, tgt.algebra.carrier_dim)
        kraus = [_random_matrix(rng, shape) for _ in range(3)]
        got = channel_from_kraus(kraus, src, tgt).superop
        ref = oracle_kraus_superop(kraus, src, tgt)
        # random Kraus operators give a channel that is not unital
        assert np.linalg.norm(ref @ to_coords(src.algebra.identity())
                              - to_coords(tgt.algebra.identity())) > 0.1
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_choi_to_channel_is_bit_identical(self, src_dims, tgt_dims):
        src, tgt = _random_systems(src_dims, tgt_dims, 84)
        rng = np.random.default_rng(86)
        choi = ChoiMatrix(src.algebra, tgt.algebra, {
            (j, k): _random_matrix(rng, (m * n, m * n))
            for j, m in enumerate(tgt_dims) for k, n in enumerate(src_dims)})
        got = choi_to_channel(choi, src, tgt).superop
        assert got.tobytes() == oracle_choi_superop(choi, src, tgt).tobytes()

    def test_star_matches_unit_loop(self, src_dims, tgt_dims):
        ch = _random_channel(src_dims, tgt_dims, 87)
        ref = oracle_star(ch)
        assert ref > 0.1
        assert abs(star_preservation_residual(ch) - ref) <= 1e-14

    def test_tensor_is_bit_identical(self, src_dims, tgt_dims):
        f = _random_channel(src_dims, tgt_dims, 88)
        other = CONSTRUCTION_DIMS[(CONSTRUCTION_DIMS.index((src_dims, tgt_dims)) + 1)
                                  % len(CONSTRUCTION_DIMS)]
        g = _random_channel(*other, 91)
        for a, b in ((f, g), (g, f)):
            assert tensor(a, b).superop.tobytes() == oracle_tensor_superop(a, b).tobytes()


@pytest.mark.parametrize("case", [("sp_ucp", (2, 2), {}), ("convex", (3, 1), {}),
                                  ("block_expectation", (2,), {}),
                                  ("automorphism", (3,), {})], ids=_case_id)
def test_constructions_on_generated_channels(case):
    ch = _build(*case)
    assert star_preservation_residual(ch) <= 1e-14
    assert abs(star_preservation_residual(ch) - oracle_star(ch)) <= 1e-14
    choi = to_choi(ch)
    assert (choi_to_channel(choi, ch.source, ch.target).superop.tobytes()
            == oracle_choi_superop(choi, ch.source, ch.target).tobytes())
    other = _build("pinch", (2,), {})
    assert tensor(ch, other).superop.tobytes() == oracle_tensor_superop(ch, other).tobytes()


def spectral_projections(sys, parts):
    """Projections summing eigenvector dyads; parts list (block, eig index) pairs."""
    out = []
    for part in parts:
        blocks = [np.zeros((n, n), dtype=np.complex128) for n in sys.algebra.block_dims]
        for k, i in part:
            v = sys.modular.d_eig[k].eigenvectors[:, i]
            blocks[k] += np.outer(v, v.conj())
        out.append(AlgebraElement(sys.algebra, blocks))
    return out


def seeded_commuting_unitary(sys, seed):
    """u_k = V_k diag(p_k) V_k^+ from the density eigenvectors, with the
    phases `random_automorphism` draws from the same seed."""
    rng = np.random.default_rng(seed)
    blocks = []
    for e in sys.modular.d_eig:
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=e.dim))
        blocks.append((e.eigenvectors * phases) @ e.eigenvectors.conj().T)
    return AlgebraElement(sys.algebra, blocks)


@pytest.mark.parametrize("dims", DIMS + [(16,), (8, 8), (6, 4, 2)])
class TestGeneratorsAgainstMultiplicationProducts:
    """The eigenframe multipliers against x |-> sum_i P_i x P_i and
    x |-> u^+ x u as products of left and right multiplication
    superoperators, built from the eigenvectors and not from the frame."""

    def test_block_expectation(self, dims):
        sys = System(random_faithful_state(BlockAlgebra(dims), 93, 0.05))
        labels = [(k, i) for k, n in enumerate(dims) for i in range(n)]
        size = len(labels)
        # one part, all singletons, and alternating across the blocks
        for names in (np.zeros(size, dtype=int), np.arange(size), np.arange(size) % 2):
            parts = [[labels[i] for i in np.flatnonzero(names == who)]
                     for who in np.unique(names)]
            ref = sum(left_mult_superop(p) @ right_mult_superop(p)
                      for p in spectral_projections(sys, parts))
            got = partition_expectation(sys, names).superop
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_automorphism(self, dims):
        sys = System(random_faithful_state(BlockAlgebra(dims), 94, 0.05))
        u = seeded_commuting_unitary(sys, 95)
        ref = left_mult_superop(u.adjoint()) @ right_mult_superop(u)
        got = random_automorphism(sys, 95).superop
        assert np.max(np.abs(got - ref)) <= 1e-14


# ---------------------------------------------------------------------------
# sp_ucp: the dense affine system and its Gram projection; twirl buckets
# ---------------------------------------------------------------------------

def _choi_pairs(source, target):
    return [(j, k, m, n)
            for j, m in enumerate(target.block_dims)
            for k, n in enumerate(source.block_dims)]


def oracle_affine_system(source, target):
    """Constraint matrix A and right-hand side b of the two affine conditions.

    A @ vec(C) - b stacks Phi(1) - 1 (one row block per target block) and
    trace_dual(Phi)(D_target) - D_source (one row block per source block)
    for the channel Phi of a Hermitian Choi collection C, vec(C) the
    concatenated raveled blocks in `_choi_pairs` order.  Block (j, k) read
    as c[i, a, i', b] = Phi(E_ab)[i, i'] feeds unital rows (i, i') through
    the trace over a = b, and dual rows (b, a) through D_target[i', i]; the
    dual rows are written without conjugation so A stays complex-linear.
    A is a scipy sparse array: dense it would hold 2N x N^2 entries, 6 GB at
    n = 24.
    """
    pairs = _choi_pairs(source.algebra, target.algebra)
    tdims, sdims = target.algebra.block_dims, source.algebra.block_dims
    row_off = np.cumsum([0] + [m * m for m in tdims] + [n * n for n in sdims])
    rows, cols, vals, col = [], [], [], 0
    for j, k, m, n in pairs:
        # unital row (p, q) reads c[p, a, q, a] for every a
        p, q, a = np.indices((m, m, n)).reshape(3, -1)
        rows.append(row_off[j] + p * m + q)
        cols.append(col + ((p * n + a) * m + q) * n + a)
        vals.append(np.ones(len(p)))
        # dual row (p, q) reads D_target[z, x] c[x, q, z, p] for every x, z
        x, z, p, q = np.indices((m, m, n, n)).reshape(4, -1)
        rows.append(row_off[len(tdims) + k] + p * n + q)
        cols.append(col + ((x * n + q) * m + z) * n + p)
        vals.append(target.state.density.blocks[j][z, x])
        col += (m * n) ** 2
    a = scipy.sparse.csr_array(
        (np.concatenate(vals).astype(np.complex128),
         (np.concatenate(rows), np.concatenate(cols))), shape=(row_off[-1], col))
    b = np.concatenate(
        [np.eye(m, dtype=np.complex128).ravel() for m in tdims]
        + [blk.ravel() for blk in source.state.density.blocks])
    return a, b


def oracle_null_projection(source, target, z):
    """Project a Choi collection onto the null space of `oracle_affine_system`
    through its Gram matrix.  The rows are always rank deficient by one
    (tr(D_t Phi(1)) = tr(Phi^+(D_t)) ties a unital row combination to a dual
    one), so the solve drops the numerically zero Gram eigenvalues.  Returns
    the projected collection and whether a null space is left at all."""
    pairs = _choi_pairs(source.algebra, target.algebra)
    a_mat, _ = oracle_affine_system(source, target)
    w, v = np.linalg.eigh((a_mat @ a_mat.conj().T).toarray())
    keep = w > 1e-10 * w[-1]
    v, w = v[:, keep], w[keep]
    zvec = np.concatenate([z[(j, k)].ravel() for j, k, _, _ in pairs])
    zvec = zvec - a_mat.conj().T @ (v @ ((v.conj().T @ (a_mat @ zvec)) / w))
    out, off = {}, 0
    for j, k, m, n in pairs:
        out[(j, k)] = zvec[off:off + (m * n) ** 2].reshape(m * n, m * n)
        off += (m * n) ** 2
    return out, np.count_nonzero(keep) < a_mat.shape[1]


def _seeded_choi_direction(source, target, seed):
    rng = np.random.default_rng(seed)
    z = {}
    for j, k, m, n in _choi_pairs(source.algebra, target.algebra):
        g = _random_matrix(rng, (m * n, m * n))
        z[(j, k)] = g + g.conj().T
    return z


def oracle_sp_ucp(source, target, seed):
    """sp_ucp through the dense affine system: the same seeded Z, projected
    by `oracle_null_projection` instead of the rank-one deflations."""
    start = to_choi(state_to_scalar(source, target))
    z, free = oracle_null_projection(
        source, target, _seeded_choi_direction(source, target, seed))
    z = {key: (c + c.conj().T) / 2.0 for key, c in z.items()}
    z_norm = max(float(np.linalg.norm(c, 2)) for c in z.values())
    lam_min = min(float(np.linalg.eigvalsh(b)[0]) for b in start.blocks.values())
    eps = 0.5 * max(lam_min, 0.0) / z_norm if free else 0.0
    blocks = {key: start.blocks[key] + eps * z[key] for key in z}
    return choi_to_channel(
        ChoiMatrix(source.algebra, target.algebra, blocks), source, target)


def loop_bucket_ids(values, tol):
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


SP_UCP_DIMS = [((2,), (2,)), ((3,), (3,)), ((4,), (4,)), ((6,), (6,)), ((2, 2), (2, 2)),
               ((3, 1), (3, 1)), ((2, 2, 2), (2, 2, 2)), ((3, 3), (3, 3)), ((2,), (3,)),
               ((3, 1), (2,)), ((1,), (3,)), ((2,), (1,))]
SP_UCP_IDS = [f"{_dims_id(s)}->{_dims_id(t)}" for s, t in SP_UCP_DIMS]


def _sp_ucp_systems(src_dims, tgt_dims, seed):
    if src_dims == tgt_dims:
        src = System(random_faithful_state(BlockAlgebra(src_dims), seed, 0.05))
        return src, src
    return _random_systems(src_dims, tgt_dims, seed)


@pytest.mark.parametrize("src_dims,tgt_dims", SP_UCP_DIMS, ids=SP_UCP_IDS)
class TestSpUcpOracle:
    def test_matches_gram_route(self, src_dims, tgt_dims):
        src, tgt = _sp_ucp_systems(src_dims, tgt_dims, 101)
        for seed in (102, 103):
            got = sp_ucp(src, tgt, seed).superop
            assert np.max(np.abs(got - oracle_sp_ucp(src, tgt, seed).superop)) <= 1e-13

    def test_deflation_is_the_null_space_projection(self, src_dims, tgt_dims):
        src, tgt = _sp_ucp_systems(src_dims, tgt_dims, 107)
        z = _seeded_choi_direction(src, tgt, 108)
        got = _null_projection(z, src, tgt)
        sup = choi_to_channel(ChoiMatrix(src.algebra, tgt.algebra, got), src, tgt).superop
        u = to_coords(src.algebra.identity())
        d = to_coords(tgt.state.density)
        assert np.linalg.norm(sup @ u) <= 1e-13
        assert np.linalg.norm(d.conj() @ sup) <= 1e-13
        again = _null_projection(got, src, tgt)
        assert max(np.max(np.abs(again[key] - c)) for key, c in got.items()) <= 1e-13
        ref, free = oracle_null_projection(src, tgt, z)
        scale = max(np.max(np.abs(c)) for c in z.values())
        assert max(np.max(np.abs(got[key] - c)) for key, c in ref.items()) <= 1e-12 * scale
        assert free == (src.coord_dim > 1 and tgt.coord_dim > 1)

    def test_base_min_eigenvalue_in_closed_form(self, src_dims, tgt_dims):
        # the base Choi block (j, k) is 1 kron D_k^T: its spectrum is the
        # source density's, which sp_ucp reads instead of an eigvalsh.  Both
        # eigensolvers are accurate to ~eps |D|, not eps lambda_min: over 30
        # seeds on these dims and 2x2, 4, 16, 24 the two differ by up to
        # 1.3 eps lambda_max (5.6e-15 relative to lambda_min)
        src, tgt = _sp_ucp_systems(src_dims, tgt_dims, 109)
        closed = min(float(e.eigenvalues[0]) for e in src.state.block_eigs)
        lam_max = max(float(e.eigenvalues[-1]) for e in src.state.block_eigs)
        ref = min(float(np.linalg.eigvalsh(b)[0])
                  for b in to_choi(state_to_scalar(src, tgt)).blocks.values())
        assert abs(closed - ref) <= 4 * np.finfo(float).eps * lam_max


@pytest.mark.parametrize("n", [16, 24])
def test_sp_ucp_matches_gram_route_large(n):
    # the closed form against the sparse affine system at N = 256 and 576
    src, tgt = _sp_ucp_systems((n,), (n,), 111)
    got = sp_ucp(src, tgt, 112).superop
    assert np.max(np.abs(got - oracle_sp_ucp(src, tgt, 112).superop)) <= 1e-13


class TestAffineSystem:
    @pytest.mark.parametrize("src_dims,tgt_dims", [
        ((2,), (2,)), ((3,), (3,)), ((2, 2), (2, 2)), ((3, 1), (3, 1)),
        ((2,), (3,))])
    def test_matches_channel_residuals(self, src_dims, tgt_dims):
        # the constraint values recomputed through the channel view
        src, tgt = _sp_ucp_systems(src_dims, tgt_dims, 40)
        a_mat, b = oracle_affine_system(src, tgt)
        blocks = _seeded_choi_direction(src, tgt, 41)
        vec = np.concatenate([blocks[(j, k)].ravel() for j, k, _, _
                              in _choi_pairs(src.algebra, tgt.algebra)])
        ch = choi_to_channel(ChoiMatrix(src.algebra, tgt.algebra, blocks), src, tgt)
        unital = ch.apply(src.algebra.identity()) - tgt.algebra.identity()
        dual = trace_dual(ch).apply(tgt.state.density) - src.state.density
        expected = np.concatenate([blk.ravel() for blk in unital.blocks]
                                  + [blk.ravel() for blk in dual.blocks])
        assert np.max(np.abs(a_mat @ vec - b - expected)) <= 1e-12


class TestBucketIds:
    TOL = TWIRL_FREQ_TOL

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 0.9e-9, 1.8e-9, 2.7e-9],
        [0.0, 1.1e-9, 2.2e-9],
        [0.0, 0.9e-9, 2.0e-9, 2.9e-9, 4.0e-9],
        [-3.0, -1.0, -1.0 + 5e-10, -2.0, 0.5],
        [-0.5e-9, 0.0, 0.5e-9, 1.6e-9],
        [7.25],
    ])
    def test_matches_loop(self, values):
        v = np.array(values)
        assert np.array_equal(_bucket_ids(v, self.TOL), loop_bucket_ids(v, self.TOL))

    def test_chains_and_splits(self):
        under = np.array([0.0, 0.9e-9, 1.8e-9, 2.7e-9])
        assert _bucket_ids(under, self.TOL).tolist() == [0, 0, 0, 0]
        over = np.array([2.2e-9, 0.0, 1.1e-9])
        assert _bucket_ids(over, self.TOL).tolist() == [2, 0, 1]

    def test_random_near_ties(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            steps = rng.choice([0.0, 0.5, 0.999, 1.001, 2.0, 1e6], size=n) * self.TOL
            v = rng.permutation(rng.normal() + np.cumsum(steps))
            assert np.array_equal(_bucket_ids(v, self.TOL), loop_bucket_ids(v, self.TOL))


# ---------------------------------------------------------------------------
# instance files: the json writer and the per-entry reader
# ---------------------------------------------------------------------------

_STR_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                "\b": "\\b", "\f": "\\f"}


def _oracle_str(text):
    """A JSON string with every character outside printable ASCII escaped."""
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _STR_ESCAPES:
            out.append(_STR_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:  # a UTF-16 surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _oracle_scalar(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (float("inf"), -float("inf")):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _oracle_str(obj)
    raise TypeError(f"not a JSON value: {obj!r}")


def _oracle_key(key):
    return _oracle_str(key if isinstance(key, str) else _oracle_scalar(key))


def _oracle_lines(obj, depth):
    """The pretty-printed text of obj, two spaces per level, keys sorted."""
    pad, inner = "  " * depth, "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_oracle_key(k)}: {_oracle_lines(v, depth + 1)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _oracle_lines(v, depth + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _oracle_scalar(obj)


def oracle_dumps(obj):
    """A hand-written encoder of the canonical text `dumps_canonical` makes
    with the json module: sorted keys, indent 2, repr floats, ASCII only."""
    return _oracle_lines(obj, 0) + "\n"


FILE_CASES = [("pinch", (1,), {}), ("schur", (2,), {}), ("convex", (3, 1), {}),
              ("pinch", (2, 2, 2), {}), ("schur", (8,), {}), ("convex", (6, 4, 2), {}),
              ("state_to_scalar", (2,), {"target_dims": (3,)})]


def _file_instance(kind, dims, params):
    spec = GenSpec(kind, dims, 21, dict(params, min_gap=0.05))
    built = build_channel(spec)
    metadata = {"seed": 21, "genspec": {"kind": kind, "dims": list(dims), "seed": 21,
                                        "params": {"c": [[1, 0.5], [0.5, 1]]}},
                "flags": list(built.flags)}
    return built.channel, metadata


def _file_doc(kind, dims, params):
    return instance_to_json(*_file_instance(kind, dims, params))


def _matrices(doc):
    channel = doc["channel"]
    return [channel["superop"]] + [m for end in ("source", "target")
                                   for m in channel[end]["state"]["density"]]


def _arrays(ch):
    """The matrices of `ch` in the order `_matrices` lists them in its document."""
    return [ch.superop] + [b for end in (ch.source, ch.target)
                           for b in end.state.density.blocks]


def _v1_doc(ch, metadata):
    """The version "1" instance document of `ch`: nested-list matrices."""
    def endpoint(sys):
        return {"algebra": {"blocks": list(sys.algebra.block_dims)},
                "state": {"density": [matrix_to_json(b) for b in sys.state.density.blocks]}}
    return {"version": "1", "metadata": metadata,
            "channel": {"source": endpoint(ch.source), "target": endpoint(ch.target),
                        "superop": matrix_to_json(ch.superop)}}


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 1e-17, 1.0 / 3.0, 1e16]

EDGE_DOCS = {
    "extreme_floats": [[[x, -x] for x in EDGE_FLOATS]],
    "non_finite": {"m": [[[float("nan"), 1.0]], [[float("inf"), -float("inf")]]]},
    "mixed_int_float": {"c": [[1, 0.5], [0.5, 1]], "d": [[[1.0, 0]]]},
    "bool_in_numbers": [[True, 0.5], [0.5, False]],
    "empty": {"a": [], "b": {}, "c": [[], []], "d": [[[]]], "e": [{}]},
    "ragged": [[1.0, 2.0], [3.0]],
    "ragged_deep": [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
    "np_float64": [[np.float64(0.1), 0.2], [0.3, 0.4]],
    "non_ascii": {"ключ": "wert ä €", "𝔐": [["é", "\u2028"]], "a\nb": "c\"d"},
    "flat_floats": [0.1, 0.2],
    "scalars": [None, True, 3, -7, 10 ** 30, "s", 2.5],
    "tuples": {"t": ((1.0, 2.0), (3.0, 4.0))},
    "int_keys": {"outer": {2: [[1.0]], 1: [[2.0]]}},
    "single": [[1.0]],
    "row_vector": [[[0.5, -0.25, 1e-300]]],
}


class TestWriterOracle:
    @pytest.mark.parametrize("case", FILE_CASES, ids=_case_id)
    def test_instance_docs(self, case):
        doc = _file_doc(*case)
        assert dumps_canonical(doc) == oracle_dumps(doc)

    def test_report_and_suite_docs(self):
        config = SuiteConfig(trials=3, seed=5, dims_list=((2,), (2, 2)),
                             kinds=("schur", "pinch", "sp_ucp"))
        result = run_suite(config)
        for report in result.reports:
            doc = report_to_json(report)
            assert dumps_canonical(doc) == oracle_dumps(doc)
        doc = suite_result_to_json(result)
        assert dumps_canonical(doc) == oracle_dumps(doc)

    @pytest.mark.parametrize("name", sorted(EDGE_DOCS))
    def test_edge_docs(self, name):
        doc = EDGE_DOCS[name]
        assert dumps_canonical(doc) == oracle_dumps(doc)
        assert dumps_canonical({"k": [doc, {"x": doc}]}) == oracle_dumps({"k": [doc, {"x": doc}]})

    def test_random_arrays_any_depth(self):
        rng = np.random.default_rng(8)
        for shape in [(1, 1), (2, 3), (3, 1, 2), (2, 2, 2, 2), (1, 4, 1, 2)]:
            doc = {"m": rng.standard_normal(shape).tolist()}
            assert dumps_canonical(doc) == oracle_dumps(doc)
            assert dumps_canonical(doc["m"]) == oracle_dumps(doc["m"])


CANONICAL_DOC = {
    "zeta": [1, -2.5, {"b": None, "a": [True, False]}],
    "alpha": {"y": [], "x": {}, "w": [[0.5, -0.0]]},
    "floats": [5e-324, 1.7976931348623157e308, 1e16, 1.0 / 3.0, 1e-17,
               float("nan"), float("inf"), -float("inf")],
    "text": "\u00e9\n\U0001d510",
}

CANONICAL_TEXT = r"""{
  "alpha": {
    "w": [
      [
        0.5,
        -0.0
      ]
    ],
    "x": {},
    "y": []
  },
  "floats": [
    5e-324,
    1.7976931348623157e+308,
    1e+16,
    0.3333333333333333,
    1e-17,
    NaN,
    Infinity,
    -Infinity
  ],
  "text": "\u00e9\n\ud835\udd10",
  "zeta": [
    1,
    -2.5,
    {
      "a": [
        true,
        false
      ],
      "b": null
    }
  ]
}
"""


def test_dumps_canonical_contract():
    assert dumps_canonical(CANONICAL_DOC) == CANONICAL_TEXT
    assert oracle_dumps(CANONICAL_DOC) == CANONICAL_TEXT


def _bitwise(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ENTRY_ERROR = "complex entry must be [re, im] or a number, got "


class TestReaderOracle:
    """The nested-list reader against literal matrices and literal messages."""

    @pytest.mark.parametrize("case", FILE_CASES, ids=_case_id)
    def test_instance_matrices(self, case):
        ch, _ = _file_instance(*case)
        for a in _arrays(ch):
            got = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
            assert got.flags.c_contiguous
            assert _bitwise(got, a)

    @pytest.mark.parametrize("case", FILE_CASES, ids=_case_id)
    def test_instance_binary_matrices(self, case):
        ch, metadata = _file_instance(*case)
        doc = json.loads(dumps_canonical(instance_to_json(ch, metadata)))
        for m, a in zip(_matrices(doc), _arrays(ch), strict=True):
            got = matrix_from_json(m)
            assert got.flags.c_contiguous and got.flags.writeable
            assert _bitwise(got, a)

    @pytest.mark.parametrize("shape", [(10, 1), (2, 5)])
    def test_binary_edge_floats(self, shape):
        a = np.array([[x, -x] for x in EDGE_FLOATS]).view(np.complex128).reshape(shape)
        got = matrix_from_json(json.loads(json.dumps(matrix_to_binary(a))))
        assert got.flags.writeable
        assert _bitwise(got, a)
        assert _bitwise(matrix_from_json(matrix_to_json(a)), a)

    @pytest.mark.parametrize("m, want", [
        ([[[x, -x] for x in EDGE_FLOATS]], [[complex(x, -x) for x in EDGE_FLOATS]]),
        ([[x] for x in EDGE_FLOATS], [[complex(x, 0.0)] for x in EDGE_FLOATS]),
        ([[1, 0.5], [0.5, 1]], [[1 + 0j, 0.5 + 0j], [0.5 + 0j, 1 + 0j]]),
        ([[[1, 0], [0.5, -2]]], [[1 + 0j, 0.5 - 2j]]),
        # exact ints round to the nearest double
        ([[[2 ** 53 + 1, 2 ** 60 + 2 ** 7 + 1], [10 ** 300, -(10 ** 20 + 1)]]],
         [[complex(9007199254740992.0, 1152921504606847232.0), complex(1e300, -1e20)]]),
        ([[(1.0, 2.0), [3, 4.5]]], [[1 + 2j, 3 + 4.5j]]),
        ([[0]], [[0j]]),
        ([[[0.5, 1.0], 0.5]], [[0.5 + 1j, 0.5 + 0j]]),
    ], ids=["pairs", "bare", "bare_int_float", "int_pairs", "big_ints", "tuples", "zero",
            "pair_and_bare"])
    def test_edge_matrices(self, m, want):
        assert _bitwise(matrix_from_json(m), np.array(want, dtype=np.complex128))

    @pytest.mark.parametrize("m, message", [
        ([[[0.5, 1.0], [True, 0.25]]], ENTRY_ERROR + "[True, 0.25]"),
        ([[[0.5, 1.0], [0.5, False]]], ENTRY_ERROR + "[0.5, False]"),
        ([[0.5, True]], ENTRY_ERROR + "True"),
        ([[[0.5, "1"]]], ENTRY_ERROR + "[0.5, '1']"),
        ([["12"]], ENTRY_ERROR + "'12'"),
        ([[None]], ENTRY_ERROR + "None"),
        ([[[0.5, None]]], ENTRY_ERROR + "[0.5, None]"),
        ([[[0.5]]], ENTRY_ERROR + "[0.5]"),
        ([[[0.5, 1.0, 2.0]]], ENTRY_ERROR + "[0.5, 1.0, 2.0]"),
        ([[[0.5, float("nan")]]], "matrix entries must be finite"),
        ([[float("inf")]], "matrix entries must be finite"),
        ([[[-float("inf"), 0.0]]], "matrix entries must be finite"),
        ([[[[0.5, 1.0], [0.5, 1.0]]]], ENTRY_ERROR + "[[0.5, 1.0], [0.5, 1.0]]"),
        ([[np.array([0.5, 1.0])]], ENTRY_ERROR + repr(np.array([0.5, 1.0]))),
        ([[{"re": 1.0, "im": 0.0}]], ENTRY_ERROR + "{'re': 1.0, 'im': 0.0}"),
    ], ids=["bool_re", "bool_im", "bool_bare", "str_im", "str_bare", "none_bare",
            "none_im", "short_pair", "long_pair", "nan", "inf", "minus_inf",
            "too_deep", "ndarray_pair", "dict"])
    def test_rejections_keep_type_and_message(self, m, message):
        with pytest.raises(MalformedInstance) as got:
            matrix_from_json(m)
        assert type(got.value) is MalformedInstance
        assert str(got.value) == message

    def test_accepted_number_subclasses_match(self):
        m = [[[np.float64(0.25), 1]], [[np.float64(-0.0), np.float64(5e-324)]]]
        want = np.array([[0.25 + 1j], [complex(-0.0, 5e-324)]])
        assert _bitwise(matrix_from_json(m), want)


class TestInstanceFiles:
    @pytest.mark.parametrize("case", FILE_CASES, ids=_case_id)
    def test_written_file_reloads_bit_identically(self, tmp_path, case):
        ch, metadata = _file_instance(*case)
        path = tmp_path / "inst.json"
        write_instance(path, ch, metadata)
        assert json.loads(path.read_text())["version"] == "2"
        back, back_metadata = read_instance(path)
        assert all(_bitwise(x, y) for x, y in zip(_arrays(back), _arrays(ch), strict=True))
        assert back_metadata == metadata

    @pytest.mark.parametrize("case", FILE_CASES, ids=_case_id)
    def test_version_1_file_reads_the_same_channel(self, tmp_path, case):
        ch, metadata = _file_instance(*case)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(_v1_doc(ch, metadata)))
        back, back_metadata = read_instance(path)
        assert all(_bitwise(x, y) for x, y in zip(_arrays(back), _arrays(ch), strict=True))
        assert back_metadata == metadata
