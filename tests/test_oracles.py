"""Independent routes for the eigenframe kernels and the channel constructions.

The production residuals work on whole matrices in the density eigenframe,
all read off one cached matrix per channel, and every channel construction
is a block reshape, kron or einsum of the superoperator.  The routes below
are the explicit ones they replaced: the GNS extension and the adjoint
channels built from kron-product left, right and sandwich multiplication
superoperators, kron-product Delta^z superoperators, per-matrix-unit loops
through the spectral calculus, the per-unit Choi accumulation and the
per-unit state pairing; and, for the constructions, the per-unit Kraus sum
on the carrier space with its embed/compress helpers, the per-unit Choi
inverse, the four-deep tensor loop over unit images, the per-unit star
check, and the block expectation and automorphism as products of left and
right multiplication superoperators.  They are kept here only, so that a
check is never the code it checks.
"""

import numpy as np
import pytest
import scipy.linalg

from modmark.algebra import (
    AlgebraElement,
    BlockAlgebra,
    blocks_from_coords,
    commutator,
    evaluate_state,
    matrix_units,
    random_element,
    to_coords,
)
from modmark.errors import PowerRangeExceeded
from modmark.generators import (
    GenSpec,
    automorphism_channel,
    block_expectation,
    build_channel,
    random_commuting_unitary,
    random_faithful_state,
    spectral_projections,
    state_to_scalar,
)
from modmark.gns import GnsVector
from modmark.markov import (
    DEFAULT_FLOW_SAMPLES,
    Channel,
    ChoiMatrix,
    System,
    _state_basis_residual,
    adjoint_index,
    channel_from_kraus,
    choi_to_channel,
    eigen_extension,
    l2_extension,
    left_mult_superop,
    modular_commutation_residual,
    petz_adjoint,
    right_mult_superop,
    star_preservation_residual,
    tensor,
    tensor_element,
    to_choi,
)
from modmark.linalg import op_norm
from modmark.verify import (
    DEFAULT_EQ32_T,
    DEFAULT_S_VALUES,
    POSITIVE_KINDS,
    sample_z,
    verify_adjoint,
    verify_channel,
    verify_commute,
    verify_crucial,
    verify_modular_symmetry,
)

DIMS = [(2,), (3,), (2, 2), (3, 1), (2, 2, 2)]
Z_SAMPLES = sample_z(4)


# ---------------------------------------------------------------------------
# the explicit routes
# ---------------------------------------------------------------------------

def unit_images(ch):
    """Images of the source matrix units, in coordinate order."""
    return [ch.apply(unit) for unit in matrix_units(ch.source.algebra)]


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


def oracle_petz_match(ch):
    return op_norm(oracle_ac_adjoint_superop(ch) - petz_adjoint(ch).superop)


def oracle_kadison(ch):
    return max(0.0, op_norm(oracle_l2(ch)) - 1.0)


def oracle_omega_map(ch):
    return float(np.linalg.norm(oracle_l2(ch) @ to_coords(ch.source.modular.omega)
                                - to_coords(ch.target.modular.omega)))


def kron_delta_superop(md, z):
    """Delta^z as blockwise kron(D^{-z}^T, D^z), with the z_max guard."""
    z = complex(z)
    if abs(z.real) > md.z_max:
        raise PowerRangeExceeded(f"|Re z| = {abs(z.real)} exceeds z_max = {md.z_max}")
    dp = md.d_power_blocks(z)
    dm = md.d_power_blocks(-z)
    return scipy.linalg.block_diag(*[np.kron(m.T, p) for p, m in zip(dp, dm)])


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
        xi = md_s.embed(unit)
        mid = GnsVector(tgt, blocks_from_coords(tgt, t_mat @ to_coords(md_s.apply_S(xi))))
        rhs = GnsVector(tgt, blocks_from_coords(tgt, t_mat @ to_coords(xi)))
        res = max(res, (md_t.apply_S(mid) - rhs).norm())
    return res


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


def oracle_state_basis(ch):
    return max(abs(evaluate_state(ch.target.state, img)
                   - evaluate_state(ch.source.state, unit))
               for unit, img in zip(matrix_units(ch.source.algebra), unit_images(ch)))


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
        _assert_close(modular_commutation_residual(ch, DEFAULT_FLOW_SAMPLES),
                      oracle_modular(ch, DEFAULT_FLOW_SAMPLES), kind)

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
        assert np.linalg.norm(l2_extension(ch).matrix - oracle_l2(ch)) <= 1e-12


@pytest.mark.parametrize("src_dims,tgt_dims", [
    ((2,), (2,)), ((2, 2), (2, 2)), ((3, 1), (2,)), ((2,), (3,)), ((2, 2, 2), (3, 1))])
def test_every_residual_off_the_class(src_dims, tgt_dims):
    # a random superoperator is not star preserving, so unlike every
    # generated channel it gives thm_iii (and all the others) O(1) values
    src = System(random_faithful_state(BlockAlgebra(src_dims), 71, 0.05))
    tgt = System(random_faithful_state(BlockAlgebra(tgt_dims), 72, 0.05))
    rng = np.random.default_rng(73)
    shape = (tgt.coord_dim, src.coord_dim)
    ch = Channel(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
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
        (modular_commutation_residual(ch), oracle_modular(ch, DEFAULT_FLOW_SAMPLES)),
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


@pytest.mark.parametrize("dims", DIMS)
def test_sp_ucp_breaks_the_flow(dims):
    # TestFlowResidualOracles compares sp_ucp relatively, which only bites
    # if its flow residuals are far from roundoff
    ch = _build("sp_ucp", dims, {})
    assert modular_commutation_residual(ch) > 1e-3
    assert verify_crucial(ch, DEFAULT_EQ32_T, require_markov=False) > 1e-3


class TestPowerRangeGuard:
    @pytest.fixture(params=["source", "target"])
    def narrow(self, request):
        """Channel whose source or target has z_max = 0.5, the other 2."""
        z_max = {"source": 2.0, "target": 2.0, request.param: 0.5}
        src = System(random_faithful_state(BlockAlgebra((2,)), 31, 0.05), z_max["source"])
        tgt = System(random_faithful_state(BlockAlgebra((3,)), 32, 0.05), z_max["target"])
        return state_to_scalar(src, tgt)

    def test_complex_power_out_of_range(self, narrow):
        with pytest.raises(PowerRangeExceeded):
            verify_commute(narrow, z_samples=[1.0 + 0.5j], s_values=(),
                           require_markov=False)

    def test_real_power_out_of_range(self, narrow):
        with pytest.raises(PowerRangeExceeded):
            verify_commute(narrow, z_samples=[], s_values=(-1.0,),
                           require_markov=False)

    def test_in_range_passes(self, narrow):
        z_res, s_res = verify_commute(narrow, z_samples=[0.4 + 3j], s_values=(0.5,),
                                      require_markov=False)
        assert z_res <= 1e-12 and s_res <= 1e-12

    def test_unitary_flow_has_no_range(self, narrow):
        assert verify_crucial(narrow, (5.0, -5.0), require_markov=False) <= 1e-12


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


class TestStateBasisOracle:
    @pytest.mark.parametrize("case", CASES[::3], ids=_case_id)
    def test_matches_unit_loop(self, case):
        ch = _build(*case)
        assert abs(_state_basis_residual(ch) - oracle_state_basis(ch)) <= 1e-15

    def test_matches_unit_loop_off_the_state(self):
        # a channel far from state compatibility, so the residual is O(1)
        src = System(random_faithful_state(BlockAlgebra((3, 1)), 51, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra((2,)), 52, 0.05))
        rng = np.random.default_rng(53)
        shape = (tgt.coord_dim, src.coord_dim)
        ch = Channel(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = oracle_state_basis(ch)
        assert ref > 0.1
        assert abs(_state_basis_residual(ch) - ref) <= 1e-15 * ref


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
            g @ ref @ g.conj().T - np.diag(md.delta_power_diagonal(z))) <= 1e-12


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


@pytest.mark.parametrize("dims", DIMS)
class TestGeneratorsAgainstMultiplicationProducts:
    def test_block_expectation(self, dims):
        sys = System(random_faithful_state(BlockAlgebra(dims), 93, 0.05))
        labels = [(k, i) for k, n in enumerate(dims) for i in range(n)]
        for parts in ([labels], [[lab] for lab in labels], [labels[0::2], labels[1::2]]):
            projs = spectral_projections(sys, parts)
            ref = sum(left_mult_superop(p) @ right_mult_superop(p) for p in projs)
            got = block_expectation(sys, projs).superop
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_automorphism(self, dims):
        sys = System(random_faithful_state(BlockAlgebra(dims), 94, 0.05))
        u = random_commuting_unitary(sys, 95)
        ref = left_mult_superop(u.adjoint()) @ right_mult_superop(u)
        got = automorphism_channel(sys, u).superop
        assert np.max(np.abs(got - ref)) <= 1e-14
