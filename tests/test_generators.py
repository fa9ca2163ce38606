import numpy as np
import pytest

from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState
from modmark.errors import (
    BadSchurMatrix,
    PreconditionFailed,
    ProjectionsDontCommuteWithDensity,
    ShapeMismatch,
    UnitaryDoesntCommuteWithDensity,
)
from modmark.generators import (
    GenSpec,
    automorphism_channel,
    block_expectation,
    build_channel,
    derive_seed,
    modular_twirl,
    pinch_channel,
    random_commuting_unitary,
    random_faithful_state,
    random_partition_expectation,
    random_unit_diagonal_psd,
    schur_channel,
    sp_ucp,
    spectral_projections,
    state_to_scalar,
)
from modmark.generators import _affine_system
from modmark.markov import (
    ChoiMatrix,
    System,
    check_markov,
    choi_to_channel,
    identity_channel,
    to_choi,
    trace_dual,
)
from modmark.verify import verify_modular_symmetry

M2 = BlockAlgebra((2,))


@pytest.fixture
def qubit():
    return System(FaithfulState(AlgebraElement(M2, [np.diag([2 / 3, 1 / 3])])))


class TestRandomFaithfulState:
    def test_trace_and_gap_oracle(self):
        # properties checked through the eigensolver itself
        state = random_faithful_state(M2, 1, min_gap=0.1)
        assert state.density.trace().real == pytest.approx(1.0, abs=1e-12)
        lams = np.concatenate([e.eigenvalues for e in state.block_eigs])
        assert lams.min() / lams.max() >= 0.1 - 1e-12

    def test_zero_gap_allows_any_faithful(self):
        state = random_faithful_state(BlockAlgebra((3, 1)), 2, min_gap=0.0)
        assert state.kappa >= 1.0

    def test_same_seed_identical(self):
        a = random_faithful_state(M2, 33, 0.05)
        b = random_faithful_state(M2, 33, 0.05)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.density.blocks, b.density.blocks))

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            random_faithful_state(M2, 0, min_gap=1.0)


class TestSchur:
    def test_all_ones_is_identity(self, qubit):
        ch = schur_channel(qubit, np.ones((2, 2)))
        assert np.linalg.norm(ch.superop - np.eye(4)) <= 1e-14

    def test_identity_multiplier_is_pinching(self, qubit):
        ch = schur_channel(qubit, np.eye(2))
        assert np.linalg.norm(ch.superop - pinch_channel(qubit).superop) <= 1e-14

    def test_membership(self, qubit):
        c = random_unit_diagonal_psd(2, 4)
        assert check_markov(schur_channel(qubit, c)).passed

    def test_bad_multipliers(self, qubit):
        with pytest.raises(BadSchurMatrix):
            schur_channel(qubit, np.array([[1.0, 2.0], [0.5, 1.0]]))  # not Hermitian
        with pytest.raises(BadSchurMatrix):
            schur_channel(qubit, np.array([[1.0, 2.0], [2.0, 1.0]]))  # not psd
        with pytest.raises(BadSchurMatrix):
            schur_channel(qubit, 0.5 * np.eye(2))  # diagonal not one

    def test_single_block_only(self):
        sys = System(random_faithful_state(BlockAlgebra((2, 2)), 0, 0.05))
        with pytest.raises(ShapeMismatch):
            schur_channel(sys, np.eye(4))


class TestBlockExpectation:
    def test_identity_partition(self, qubit):
        ch = block_expectation(qubit, [M2.identity()])
        assert np.linalg.norm(ch.superop - np.eye(4)) <= 1e-14

    def test_spectral_partition_is_member(self):
        sys = System(random_faithful_state(BlockAlgebra((3, 1)), 5, 0.05))
        parts = spectral_projections(sys, [[(0, 0), (0, 1)], [(0, 2), (1, 0)]])
        assert check_markov(block_expectation(sys, parts)).passed

    def test_random_partition_member(self):
        sys = System(random_faithful_state(BlockAlgebra((4,)), 6, 0.05))
        assert check_markov(random_partition_expectation(sys, 9)).passed

    def test_noncommuting_projections_rejected(self, qubit):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        parts = [AlgebraElement(M2, [np.outer(h[:, i], h[:, i])]) for i in range(2)]
        with pytest.raises(ProjectionsDontCommuteWithDensity):
            block_expectation(qubit, parts)

    def test_incomplete_partition_rejected(self, qubit):
        p = AlgebraElement(M2, [np.diag([1.0, 0.0])])
        with pytest.raises(PreconditionFailed):
            block_expectation(qubit, [p])


class TestStateToScalar:
    def test_cross_dimension_membership(self, qubit):
        target = System(random_faithful_state(BlockAlgebra((3,)), 7, 0.05))
        assert check_markov(state_to_scalar(qubit, target)).passed


class TestAutomorphism:
    def test_commuting_phase_example(self, qubit):
        u = AlgebraElement(M2, [np.diag([1.0, np.exp(1.1j)])])
        mc = check_markov(automorphism_channel(qubit, u))
        assert mc.passed
        assert all(v <= 1e-12 for v in mc.residuals.values())

    def test_random_commuting_unitary_member(self):
        sys = System(random_faithful_state(BlockAlgebra((2, 2)), 8, 0.05))
        u = random_commuting_unitary(sys, 3)
        assert (u.adjoint() @ u - sys.algebra.identity()).norm() <= 1e-12
        assert check_markov(automorphism_channel(sys, u)).passed

    def test_noncommuting_unitary_rejected(self, qubit):
        h = AlgebraElement(M2, [np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)])
        with pytest.raises(UnitaryDoesntCommuteWithDensity):
            automorphism_channel(qubit, h)

    def test_nonunitary_rejected(self, qubit):
        with pytest.raises(PreconditionFailed):
            automorphism_channel(qubit, AlgebraElement(M2, [np.diag([1.0, 0.5])]))


class TestModularTwirl:
    def test_fixes_members(self, qubit):
        ch = schur_channel(qubit, random_unit_diagonal_psd(2, 5))
        tw = modular_twirl(ch)
        assert np.linalg.norm(tw.superop - ch.superop) <= 1e-12

    def test_projects_sp_ucp_onto_members(self):
        sys = System(random_faithful_state(BlockAlgebra((3,)), 10, 0.05))
        rough = sp_ucp(sys, sys, 4)
        assert check_markov(rough).residuals["modular"] > 1e-3
        tw = modular_twirl(rough)
        assert check_markov(tw).passed

    def test_idempotent(self):
        sys = System(random_faithful_state(M2, 11, 0.05))
        tw = modular_twirl(sp_ucp(sys, sys, 5))
        assert np.linalg.norm(modular_twirl(tw).superop - tw.superop) <= 1e-12

    def test_precondition_gate(self, qubit):
        rng = np.random.default_rng(0)
        bogus = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        from modmark.markov import Channel
        with pytest.raises(PreconditionFailed):
            modular_twirl(Channel(qubit, qubit, bogus))

    def test_frequencies_layout(self, qubit):
        w = qubit.modular.frequencies
        # ascending eigenvalues (1/3, 2/3): coordinate (a, b) carries
        # log(lam_a) - log(lam_b), column-stacked
        ln = np.log([1 / 3, 2 / 3])
        expected = np.array([0.0, ln[1] - ln[0], ln[0] - ln[1], 0.0])
        assert np.allclose(w, expected)


class TestSpUcp:
    def test_frozen_qubit_seed(self, qubit):
        ch = sp_ucp(qubit, qubit, 11)
        mc = check_markov(ch)
        assert mc.residuals["unital"] <= 1e-10
        assert mc.residuals["cp"] <= 1e-10
        assert mc.residuals["state"] <= 1e-10
        assert mc.residuals["modular"] > 1e-3

    def test_degenerate_start_returns_it(self, qubit):
        ch = sp_ucp(qubit, qubit, 0, start=to_choi(identity_channel(qubit)))
        assert np.linalg.norm(ch.superop - np.eye(4)) <= 1e-12
        assert check_markov(ch).residuals["modular"] <= 1e-12

    def test_twirled_output_always_member(self):
        for seed in (1, 2, 3):
            sys = System(random_faithful_state(BlockAlgebra((2, 2)), 20 + seed, 0.05))
            assert check_markov(modular_twirl(sp_ucp(sys, sys, seed))).passed

    def test_deterministic(self, qubit):
        a = sp_ucp(qubit, qubit, 7)
        b = sp_ucp(qubit, qubit, 7)
        assert np.array_equal(a.superop, b.superop)


def _system_pair(src_dims, tgt_dims, seed):
    src = System(random_faithful_state(BlockAlgebra(src_dims), seed, 0.05))
    if tgt_dims == src_dims:
        return src, src
    return src, System(random_faithful_state(BlockAlgebra(tgt_dims), seed + 1, 0.05))


class TestAffineSystem:
    @pytest.mark.parametrize("src_dims,tgt_dims", [
        ((2,), (2,)), ((3,), (3,)), ((2, 2), (2, 2)), ((3, 1), (3, 1)),
        ((2,), (3,))])
    def test_matches_channel_residuals(self, src_dims, tgt_dims):
        # oracle: the constraint values recomputed through the channel view
        src, tgt = _system_pair(src_dims, tgt_dims, 40)
        a_mat, b = _affine_system(src, tgt)
        rng = np.random.default_rng(41)
        blocks = {}
        for j, m in enumerate(tgt_dims):
            for k, n in enumerate(src_dims):
                g = (rng.standard_normal((m * n, m * n))
                     + 1j * rng.standard_normal((m * n, m * n)))
                blocks[(j, k)] = g + g.conj().T
        choi = ChoiMatrix(src.algebra, tgt.algebra, blocks)
        vec = np.concatenate([blocks[(j, k)].ravel()
                              for j in range(len(tgt_dims))
                              for k in range(len(src_dims))])
        ch = choi_to_channel(choi, src, tgt)
        unital = ch.apply(src.algebra.identity()) - tgt.algebra.identity()
        dual = trace_dual(ch).apply(tgt.state.density) - src.state.density
        expected = np.concatenate([blk.ravel() for blk in unital.blocks]
                                  + [blk.ravel() for blk in dual.blocks])
        assert np.max(np.abs(a_mat @ vec - b - expected)) <= 1e-12


class TestSpUcpLarge:
    """Sizes where the former alternating-projection solver stalled."""

    CASES = [((6,), (6,)), ((8,), (8,)), ((2, 2, 2), (2, 2, 2)),
             ((3, 3), (3, 3)), ((2,), (3,))]

    @pytest.mark.parametrize("src_dims,tgt_dims", CASES)
    def test_interior_feasible_flow_breaking(self, src_dims, tgt_dims):
        src, tgt = _system_pair(src_dims, tgt_dims, 50)
        ch = sp_ucp(src, tgt, 51)
        mc = check_markov(ch)
        for key in ("unital", "cp", "state"):
            assert mc.residuals[key] <= 1e-10, key
        lam_base = to_choi(state_to_scalar(src, tgt)).min_eigenvalue()
        assert to_choi(ch).min_eigenvalue() >= 0.4 * lam_base
        assert mc.residuals["modular"] > 1e-3
        thm_ii, _ = verify_modular_symmetry(ch, require_markov=False)
        assert thm_ii > 1e-6
        again = sp_ucp(src, tgt, 51)
        assert np.array_equal(ch.superop, again.superop)

    @pytest.mark.parametrize("dims", [(6,), (8,), (2, 2, 2), (3, 3)])
    def test_build_unflagged(self, dims):
        for kind in ("sp_ucp", "twirl"):
            assert build_channel(GenSpec(kind, dims, seed=52)).flags == ()

    def test_no_free_direction_returns_base(self):
        # on C the unique feasible channel is the identity
        sys = System(random_faithful_state(BlockAlgebra((1,)), 55, 0.05))
        assert np.linalg.norm(sp_ucp(sys, sys, 56).superop - 1.0) <= 1e-15

    def test_infeasible_start_rejected(self):
        src, tgt = _system_pair((2,), (3,), 53)
        base = to_choi(state_to_scalar(src, tgt))
        with pytest.raises(PreconditionFailed):  # not unital
            sp_ucp(src, tgt, 0, start=ChoiMatrix(
                src.algebra, tgt.algebra,
                {key: 0.5 * c for key, c in base.blocks.items()}))
        qubit = System(random_faithful_state(M2, 54, 0.05))
        ident = to_choi(identity_channel(qubit)).blocks
        scalar = to_choi(state_to_scalar(qubit, qubit)).blocks
        with pytest.raises(PreconditionFailed):  # unital, state, not cp
            sp_ucp(qubit, qubit, 0, start=ChoiMatrix(
                M2, M2, {key: 2.0 * scalar[key] - ident[key] for key in ident}))

    def test_start_with_missing_or_misshapen_block_is_a_shape_error(self, qubit):
        with pytest.raises(ShapeMismatch):
            sp_ucp(qubit, qubit, 0, start=ChoiMatrix(M2, M2, {}))
        with pytest.raises(ShapeMismatch):
            sp_ucp(qubit, qubit, 0, start=ChoiMatrix(M2, M2, {(0, 0): np.eye(3)}))


class TestGenSpecBuild:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GenSpec("bogus", (2,))

    @pytest.mark.parametrize("kind", ["identity", "schur", "pinch",
                                      "block_expectation", "state_to_scalar",
                                      "automorphism", "twirl", "convex"])
    def test_positive_kinds_are_members(self, kind):
        res = build_channel(GenSpec(kind, (2,), seed=3))
        assert res.flags == ()
        assert check_markov(res.channel).passed

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (3, 1)])
    def test_multiblock_kinds(self, dims):
        for kind in ("pinch", "block_expectation", "convex", "twirl"):
            res = build_channel(GenSpec(kind, dims, seed=5))
            assert check_markov(res.channel).passed

    def test_schur_needs_single_block(self):
        with pytest.raises(ShapeMismatch):
            build_channel(GenSpec("schur", (2, 2), seed=0))

    def test_schur_param_matrix(self):
        res = build_channel(GenSpec("schur", (2,), seed=0,
                                    params={"c": [[1, 0.5], [0.5, 1]]}))
        assert check_markov(res.channel).passed

    def test_state_to_scalar_cross_dims(self):
        res = build_channel(GenSpec("state_to_scalar", (2,), seed=1,
                                    params={"target_dims": [3]}))
        assert res.channel.target.algebra.block_dims == (3,)
        assert check_markov(res.channel).passed

    def test_build_deterministic(self):
        a = build_channel(GenSpec("sp_ucp", (2,), seed=9)).channel
        b = build_channel(GenSpec("sp_ucp", (2,), seed=9)).channel
        assert np.array_equal(a.superop, b.superop)

    def test_derive_seed_stable(self):
        assert derive_seed(4, 2) == derive_seed(4, 2)
        assert derive_seed(4, 2) != derive_seed(4, 3)
