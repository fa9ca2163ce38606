import re

import numpy as np
import pytest

from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState
from modmark import generators, markov
from modmark.errors import BadSchurMatrix, NotMarkov, ShapeMismatch
from modmark.generators import (
    GenSpec,
    build_channel,
    derive_seed,
    modular_twirl,
    partition_expectation,
    pinch_channel,
    random_faithful_state,
    random_partition_expectation,
    random_unit_diagonal_psd,
    schur_channel,
    sp_ucp,
    state_to_scalar,
)
from modmark.markov import System, check_markov, to_choi
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
        ch = partition_expectation(qubit, [0, 0])
        assert np.linalg.norm(ch.superop - np.eye(4)) <= 1e-14

    def test_spectral_partition_is_member(self):
        # one part spans both blocks, as [[(0, 0), (0, 1)], [(0, 2), (1, 0)]]
        sys = System(random_faithful_state(BlockAlgebra((3, 1)), 5, 0.05))
        assert check_markov(partition_expectation(sys, [0, 0, 1, 1])).passed

    def test_one_label_per_eigen_index(self, qubit):
        for labels in ([0], [0, 1, 2], [[0, 1]]):
            with pytest.raises(ShapeMismatch):
                partition_expectation(qubit, labels)

    def test_random_partition_member(self):
        ch = build_channel(GenSpec("block_expectation", (4,), seed=9)).channel
        assert check_markov(ch).passed
        sys = System(random_faithful_state(BlockAlgebra((4,)), 6, 0.05))
        assert check_markov(random_partition_expectation(sys, 9)).passed


MULTIPLIER_KINDS = ("pinch", "block_expectation", "automorphism", "convex")


def multiplier_calls(monkeypatch, kind, dims, seed):
    """(system, diagonal blocks, channel) of every `_eigen_diagonal_channel`
    call that building the kind makes."""
    calls = []
    per_block = generators._eigen_diagonal_channel

    def recording(sys, diag_blocks):
        ch = per_block(sys, diag_blocks)
        calls.append((sys, diag_blocks, ch))
        return ch

    monkeypatch.setattr(generators, "_eigen_diagonal_channel", recording)
    build_channel(GenSpec(kind, dims, seed=seed))
    assert calls
    return calls


def dense_multiplier(sys, diag_blocks):
    """G^+ diag(d) G as one product over the whole frame G."""
    g = sys.modular.frame
    d = np.concatenate([m.flatten(order="F") for m in diag_blocks])
    return g.conj().T @ (d[:, None] * g)


class TestPerBlockMultiplier:
    """`_eigen_diagonal_channel` takes G^+ diag(d) G one diagonal block of
    the dense frame at a time, and from `gns.FRAME_MIN_DIM` on by the
    frame's Kronecker factors."""

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 1), (2, 2, 2), (8, 8), (6, 4, 2),
                                      (16,), (4,)], ids=lambda d: "x".join(map(str, d)))
    @pytest.mark.parametrize("kind", MULTIPLIER_KINDS)
    def test_equals_the_dense_product(self, monkeypatch, kind, dims, seed):
        for sys, blocks, ch in multiplier_calls(monkeypatch, kind, dims, seed):
            dense = dense_multiplier(sys, blocks)
            if sys.modular.factored:
                # 8x8 and 16: other sums than the dense product's, so equal
                # within rounding, and exact zeros between blocks
                assert np.max(np.abs(ch.superop - dense)) <= 1e-15
                assert np.array_equal(ch.superop == 0, dense == 0)
            else:
                assert np.array_equal(ch.superop, dense)

    @pytest.mark.parametrize("dims", [(3, 3), (3, 2, 1), (5, 3), (10, 6), (12, 12)],
                             ids=lambda d: "x".join(map(str, d)))
    @pytest.mark.parametrize("kind", MULTIPLIER_KINDS)
    def test_other_dims_within_rounding(self, monkeypatch, kind, dims):
        # on these multi-block dims BLAS sums a block's products in another
        # order than the whole frame's: the values stay within rounding, and
        # the entries between blocks are exact zeros
        for sys, blocks, ch in multiplier_calls(monkeypatch, kind, dims, 1):
            dense = dense_multiplier(sys, blocks)
            assert np.max(np.abs(ch.superop - dense)) <= 1e-15
            assert np.array_equal(ch.superop == 0, dense == 0)


class TestStateToScalar:
    def test_cross_dimension_membership(self, qubit):
        target = System(random_faithful_state(BlockAlgebra((3,)), 7, 0.05))
        assert check_markov(state_to_scalar(qubit, target)).passed


class TestAutomorphism:
    def test_commuting_phase_example(self):
        mc = check_markov(build_channel(GenSpec("automorphism", (2,), seed=4)).channel)
        assert mc.passed
        assert all(v <= 1e-12 for v in mc.residuals.values())

    def test_random_commuting_unitary_member(self):
        # x |-> u^+ x u is unitary in the Hilbert-Schmidt coordinates
        ch = build_channel(GenSpec("automorphism", (2, 2), seed=3)).channel
        assert check_markov(ch).passed
        sup = ch.superop
        assert np.linalg.norm(sup.conj().T @ sup - np.eye(len(sup))) <= 1e-12


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

    def test_gate_takes_no_modular_kernel(self, monkeypatch):
        # its gate computes the three preconditions only: the flow key,
        # which the twirl is there to establish, is not taken
        sys = System(random_faithful_state(BlockAlgebra((3,)), 10, 0.05))
        rough = sp_ucp(sys, sys, 4)

        def unread(*args):
            raise AssertionError("the gate takes the modular kernel")

        monkeypatch.setattr(markov, "_commutation_defects", unread)
        assert modular_twirl(rough).superop.shape == rough.superop.shape

    def test_idempotent(self):
        sys = System(random_faithful_state(M2, 11, 0.05))
        tw = modular_twirl(sp_ucp(sys, sys, 5))
        assert np.linalg.norm(modular_twirl(tw).superop - tw.superop) <= 1e-12

    def test_precondition_gate(self, qubit):
        rng = np.random.default_rng(0)
        bogus = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        from modmark.markov import Channel
        with pytest.raises(NotMarkov):
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


def _choi_min_eigenvalue(ch):
    return min(float(np.linalg.eigvalsh(b)[0]) for b in to_choi(ch).blocks.values())


class TestSpUcpLarge:
    """Sizes where the former alternating-projection solver stalled, and
    where the former dense affine-system projection cost seconds."""

    CASES = [((6,), (6,)), ((8,), (8,)), ((2, 2, 2), (2, 2, 2)),
             ((3, 3), (3, 3)), ((2,), (3,)), ((12,), (12,)), ((8, 8), (8, 8))]

    @pytest.mark.parametrize("src_dims,tgt_dims", CASES)
    def test_interior_feasible_flow_breaking(self, src_dims, tgt_dims):
        src, tgt = _system_pair(src_dims, tgt_dims, 50)
        ch = sp_ucp(src, tgt, 51)
        mc = check_markov(ch)
        for key in ("unital", "cp", "state"):
            assert mc.residuals[key] <= 1e-10, key
        lam_base = _choi_min_eigenvalue(state_to_scalar(src, tgt))
        assert _choi_min_eigenvalue(ch) >= 0.4 * lam_base
        assert mc.residuals["modular"] > 1e-3
        thm_ii, _ = verify_modular_symmetry(ch, require_markov=False)
        assert thm_ii > 1e-6
        again = sp_ucp(src, tgt, 51)
        assert np.array_equal(ch.superop, again.superop)

    @pytest.mark.parametrize("n", [16, 24])
    def test_keeps_half_the_gap(self, n):
        # eps = lambda_min / (2 |Z|_op) with lambda_min the smallest source
        # density eigenvalue: no Choi eigenvalue falls below half of it
        sys = System(random_faithful_state(BlockAlgebra((n,)), 53, 0.05))
        lam_min = min(float(e.eigenvalues[0]) for e in sys.state.block_eigs)
        assert _choi_min_eigenvalue(sp_ucp(sys, sys, 54)) >= 0.5 * lam_min * (1 - 1e-12)

    @pytest.mark.parametrize("dims", [(6,), (8,), (2, 2, 2), (3, 3)])
    def test_build_unflagged(self, dims):
        for kind in ("sp_ucp", "twirl"):
            assert build_channel(GenSpec(kind, dims, seed=52)).flags == ()

    def test_no_free_direction_returns_base(self):
        # on C the unique feasible channel is the identity
        sys = System(random_faithful_state(BlockAlgebra((1,)), 55, 0.05))
        assert np.linalg.norm(sp_ucp(sys, sys, 56).superop - 1.0) <= 1e-15

    def test_scalar_target_returns_state_to_scalar_exactly(self):
        # a one-dimensional target leaves no free direction whatever the
        # roundoff: the target density 1 + 5e-13 passes the trace check
        # and the output is the base point bit for bit
        src = System(random_faithful_state(M2, 57, 0.05))
        tgt = System(FaithfulState(AlgebraElement(
            BlockAlgebra((1,)), [np.array([[1.0 + 5e-13]])])))
        ch = sp_ucp(src, tgt, 58)
        assert np.array_equal(ch.superop, state_to_scalar(src, tgt).superop)


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

    @pytest.mark.parametrize("dims,seed", [((3,), 4), ((2, 2), 1)])
    @pytest.mark.parametrize("gap", [0.05, 0.5])
    def test_twirl_honours_min_gap(self, dims, seed, gap):
        # twirl and sp_ucp read the same spec: one source state, its
        # eigenvalue ratio the recorded min_gap (these seeds draw densities
        # with a ratio below 0.05, so both gaps shift them)
        twirl = build_channel(GenSpec("twirl", dims, seed, {"min_gap": gap})).channel
        lams = np.concatenate([e.eigenvalues for e in twirl.source.state.block_eigs])
        assert lams.min() / lams.max() == pytest.approx(gap, rel=1e-9)
        base = build_channel(GenSpec("sp_ucp", dims, seed, {"min_gap": gap})).channel
        assert np.array_equal(twirl.superop, modular_twirl(base).superop)

    @pytest.mark.parametrize("kind,params,accepted", [
        ("twirl", {"min-gap": 0.5}, "('min_gap',)"),
        ("twirl", {"min_gap": 0.5, "base_params": {}}, "('min_gap',)"),
        ("pinch", {"c": [[1.0]]}, "('min_gap',)"),
        ("schur", {"target_dims": [2]}, "('min_gap', 'c')"),
        ("state_to_scalar", {"c": None}, "('min_gap', 'target_dims')")])
    def test_param_the_kind_does_not_read_is_refused(self, kind, params, accepted):
        bad = next(key for key in params if key != "min_gap")
        with pytest.raises(ValueError, match=rf"{kind!r} takes no param {bad!r}; "
                                             rf"accepted: {re.escape(accepted)}"):
            build_channel(GenSpec(kind, (2,), seed=0, params=params))

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
