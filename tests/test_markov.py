import math

import numpy as np
import pytest

from modmark.algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    evaluate_state,
    matrix_units,
    random_element,
    to_coords,
)
from modmark.errors import (
    EmptyKraus,
    NotMarkov,
    NotStatePreserving,
    ShapeMismatch,
    BadWeights,
)
from modmark.generators import random_faithful_state, schur_channel, state_to_scalar
from modmark.linalg import op_norm
from modmark.markov import (
    Channel,
    ChoiMatrix,
    System,
    ac_adjoint,
    adjoint_index,
    channel_from_kraus,
    check_markov,
    choi_to_channel,
    compose,
    convex_combine,
    identity_channel,
    l2_extension,
    left_mult_superop,
    petz_adjoint,
    right_mult_superop,
    star_preservation_residual,
    to_choi,
    trace_dual,
    tensor,
    tensor_element,
    tensor_system,
)

M2 = BlockAlgebra((2,))


@pytest.fixture
def qubit():
    return System(FaithfulState(AlgebraElement(M2, [np.diag([2 / 3, 1 / 3])])))


@pytest.fixture
def schur(qubit):
    return schur_channel(qubit, np.array([[1.0, 0.5], [0.5, 1.0]]))


def unit(alg, k, a, b):
    blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
    blocks[k][a, b] = 1.0
    return AlgebraElement(alg, blocks)


def rand_system(dims, seed, min_gap=0.05):
    return System(random_faithful_state(BlockAlgebra(dims), seed, min_gap))


class TestSuperopHelpers:
    def test_left_right_mult(self, qubit):
        x = random_element(M2, 1)
        y = random_element(M2, 2)
        lhs = left_mult_superop(x) @ to_coords(y)
        assert np.allclose(lhs, to_coords(x @ y))
        rhs = right_mult_superop(x) @ to_coords(y)
        assert np.allclose(rhs, to_coords(y @ x))

    def test_adjoint_permutation(self):
        alg = BlockAlgebra((2, 3))
        idx = adjoint_index(alg)
        x = random_element(alg, 3)
        assert np.array_equal(np.conj(to_coords(x))[idx], to_coords(x.adjoint()))
        assert np.array_equal(idx[idx], np.arange(alg.coord_dim))


class TestRepresentations:
    def test_identity_kraus(self, qubit):
        ch = channel_from_kraus([np.eye(2)], qubit, qubit)
        assert np.allclose(ch.superop, np.eye(4))

    def test_dephasing_kraus(self, qubit):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        ch = channel_from_kraus([e11, e22], qubit, qubit)
        x = AlgebraElement(M2, [np.array([[1.0, 2.0], [3.0, 4.0]])])
        assert np.allclose(ch.apply(x).blocks[0], np.diag([1.0, 4.0]))
        choi = to_choi(ch)
        w = np.linalg.eigvalsh(choi.blocks[(0, 0)])
        assert np.sum(w > 1e-12) == 2  # dephasing has rank-two Choi

    def test_empty_kraus(self, qubit):
        with pytest.raises(EmptyKraus):
            channel_from_kraus([], qubit, qubit)

    def test_kraus_shape_guard(self, qubit):
        with pytest.raises(ShapeMismatch):
            channel_from_kraus([np.eye(3)], qubit, qubit)

    def test_superop_choi_round_trip(self, qubit):
        # round-trip oracle: kraus -> superop -> choi -> superop
        rng = np.random.default_rng(5)
        kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(3)]
        ch = channel_from_kraus(kraus, qubit, qubit)
        back = choi_to_channel(to_choi(ch), qubit, qubit)
        assert np.linalg.norm(back.superop - ch.superop) <= 1e-12

    def test_round_trip_multiblock(self):
        src = rand_system((2, 2), 3)
        tgt = rand_system((3, 1), 4)
        rng = np.random.default_rng(9)
        sup = rng.standard_normal((tgt.coord_dim, src.coord_dim)) \
            + 1j * rng.standard_normal((tgt.coord_dim, src.coord_dim))
        ch = Channel(src, tgt, sup)
        back = choi_to_channel(to_choi(ch), src, tgt)
        assert np.linalg.norm(back.superop - ch.superop) <= 1e-12

    def test_choi_block_missing_or_misshapen(self):
        src, tgt = rand_system((2, 1), 5), rand_system((2,), 6)
        blocks = to_choi(identity_channel(tgt)).blocks
        for bad in ({}, {(0, 0): blocks[(0, 0)]},
                    {(0, 0): np.eye(3), (0, 1): np.eye(2)},
                    {(0, 0): np.eye(4), (0, 1): np.eye(2).ravel()}):
            with pytest.raises(ShapeMismatch):
                choi_to_channel(ChoiMatrix(src.algebra, tgt.algebra, bad), src, tgt)

    def test_apply_identity_channel(self, qubit):
        ch = identity_channel(qubit)
        x = random_element(M2, 8)
        assert ch.apply(x).allclose(x, atol=0)

    def test_state_to_scalar_apply(self, qubit):
        tgt = rand_system((3,), 2)
        ch = state_to_scalar(qubit, tgt)
        out = ch.apply(unit(M2, 0, 0, 0))
        assert np.allclose(out.blocks[0], (2 / 3) * np.eye(3))

    def test_apply_shape_guard(self, qubit):
        ch = identity_channel(qubit)
        with pytest.raises(ShapeMismatch):
            ch.apply(random_element(BlockAlgebra((3,)), 0))


class TestCheckMarkov:
    def test_identity_passes_tightly(self, qubit):
        mc = check_markov(identity_channel(qubit))
        assert all(v <= 1e-12 for v in mc.residuals.values())
        assert mc.passed

    def test_state_to_scalar_is_member(self, qubit):
        tgt = rand_system((3,), 6)
        mc = check_markov(state_to_scalar(qubit, tgt))
        assert mc.passed

    def test_hadamard_pinch_breaks_state(self, qubit):
        # oracle: pinching D = diag(2/3, 1/3) in the Hadamard basis moves it
        # to I/2, so the dual defect is |I/2 - D|_F = sqrt(2)/6
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        p_plus = np.outer(h[:, 0], h[:, 0])
        p_minus = np.outer(h[:, 1], h[:, 1])
        ch = channel_from_kraus([p_plus, p_minus], qubit, qubit)
        mc = check_markov(ch)
        assert mc.residuals["state"] > 0.01
        assert mc.residuals["state"] == pytest.approx(math.sqrt(2.0) / 6.0, rel=1e-6)
        assert mc.residuals["unital"] <= 1e-12
        assert mc.residuals["cp"] <= 1e-12
        assert not mc.passed

    def test_schur_member(self, schur):
        mc = check_markov(schur)
        assert mc.passed and mc.cp_min_eig >= -1e-12


class TestTraceDual:
    def test_identity_self_dual(self, qubit):
        ch = identity_channel(qubit)
        assert np.allclose(trace_dual(ch).superop, np.eye(4))

    def test_pinching_self_dual(self, qubit):
        ch = channel_from_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                                qubit, qubit)
        assert np.allclose(trace_dual(ch).superop, ch.superop)

    def test_duality_pairing_over_basis(self):
        # pairing oracle: Tr(y^+ ch(x)) == Tr(dual(y)^+ x) on all unit pairs
        src = rand_system((2, 2), 1)
        tgt = rand_system((3,), 2)
        rng = np.random.default_rng(3)
        sup = rng.standard_normal((tgt.coord_dim, src.coord_dim)) \
            + 1j * rng.standard_normal((tgt.coord_dim, src.coord_dim))
        ch = Channel(src, tgt, sup)
        dual = trace_dual(ch)
        worst = 0.0
        for x in matrix_units(src.algebra):
            chx = ch.apply(x)
            for y in matrix_units(tgt.algebra):
                lhs = (y.adjoint() @ chx).trace()
                rhs = (dual.apply(y).adjoint() @ x).trace()
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_dual_of_unital_is_trace_preserving(self, schur):
        dual = trace_dual(schur)
        x = random_element(M2, 5)
        assert dual.apply(x).trace() == pytest.approx(x.trace(), abs=1e-12)


class TestAcAdjoint:
    def test_identity(self, qubit):
        adj = ac_adjoint(identity_channel(qubit))
        assert np.linalg.norm(adj.superop - np.eye(4)) <= 1e-12

    def test_scalar_channel_adjoint(self, qubit):
        # plugging the scalar channel into the defining pairing with both
        # states gives the scalar channel of the target state
        tgt = rand_system((3,), 10)
        ch = state_to_scalar(qubit, tgt)
        adj = ac_adjoint(ch)
        expected = state_to_scalar(tgt, qubit)
        assert np.linalg.norm(adj.superop - expected.superop) <= 1e-12

    def test_defining_pairing_on_units(self, schur, qubit):
        # oracle: the pairing itself, evaluated on every unit pair
        adj = ac_adjoint(schur)
        worst = 0.0
        for x in matrix_units(M2):
            for y in matrix_units(M2):
                lhs = evaluate_state(qubit.state, adj.apply(y) @ x)
                rhs = evaluate_state(qubit.state, y @ schur.apply(x))
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_schur_channel_self_adjoint(self, schur):
        adj = ac_adjoint(schur)
        assert np.linalg.norm(adj.superop - schur.superop) <= 1e-12

    def test_petz_form_matches_for_members(self, schur):
        assert np.linalg.norm(ac_adjoint(schur).superop
                              - petz_adjoint(schur).superop) <= 1e-12

    def test_adjoint_is_member(self, schur):
        assert check_markov(ac_adjoint(schur)).passed

    def test_involution(self):
        src = rand_system((2, 2), 21)
        ch = state_to_scalar(src, rand_system((2,), 22))
        again = ac_adjoint(ac_adjoint(ch))
        assert np.linalg.norm(again.superop - ch.superop) <= 1e-11

    def test_gate_on_state_preservation(self, qubit):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        ch = channel_from_kraus([np.outer(h[:, 0], h[:, 0]),
                                 np.outer(h[:, 1], h[:, 1])], qubit, qubit)
        with pytest.raises(NotStatePreserving):
            ac_adjoint(ch)


class TestL2Extension:
    def test_identity_channel(self, qubit):
        ext = l2_extension(identity_channel(qubit))
        assert np.linalg.norm(ext.matrix - np.eye(4)) <= 1e-12

    def test_schur_is_diagonal_with_multiplier_entries(self, schur):
        # hand computation: on the unit coordinates the extension multiplies
        # E_ab by C[a, b], so the diagonal is (1, 1/2, 1/2, 1)
        ext = l2_extension(schur)
        assert np.allclose(ext.matrix, np.diag([1.0, 0.5, 0.5, 1.0]), atol=1e-12)

    def test_scalar_channel_rank_one(self, qubit):
        tgt = rand_system((3,), 30)
        ext = l2_extension(state_to_scalar(qubit, tgt))
        expected = np.outer(to_coords(tgt.modular.omega),
                            np.conj(to_coords(qubit.modular.omega)))
        assert np.linalg.norm(ext.matrix - expected) <= 1e-12

    def test_contraction_and_omega(self):
        src = rand_system((2, 2), 31)
        ch = state_to_scalar(src, src)
        ext = l2_extension(ch)
        assert op_norm(ext.matrix) <= 1.0 + 1e-10
        omega_in = to_coords(src.modular.omega)
        assert np.linalg.norm(ext.matrix @ omega_in - omega_in) <= 1e-10

    def test_norm_one_attained(self, schur):
        assert op_norm(l2_extension(schur).matrix) == pytest.approx(1.0, abs=1e-12)

    def test_gate(self, qubit):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        ch = channel_from_kraus([np.outer(h[:, 0], h[:, 0]),
                                 np.outer(h[:, 1], h[:, 1])], qubit, qubit)
        with pytest.raises(NotMarkov):
            l2_extension(ch)

    def test_adjoint_matrix_is_adjoint_extension(self, schur):
        lhs = l2_extension(schur).matrix.conj().T
        rhs = l2_extension(ac_adjoint(schur)).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-12


class TestComposeTensor:
    def test_compose_with_identity(self, qubit, schur):
        assert np.allclose(compose(identity_channel(qubit), schur).superop,
                           schur.superop)
        assert np.allclose(compose(schur, identity_channel(qubit)).superop,
                           schur.superop)

    def test_compose_shape_guard(self, qubit):
        other = rand_system((3,), 5)
        with pytest.raises(ShapeMismatch):
            compose(state_to_scalar(other, other), identity_channel(qubit))

    def test_extension_functorial_under_composition(self, qubit, schur):
        # both sides built independently
        pinch = schur_channel(qubit, np.eye(2))
        both = compose(schur, pinch)
        assert check_markov(both).passed
        lhs = l2_extension(both).matrix
        rhs = l2_extension(schur).matrix @ l2_extension(pinch).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_adjoint_contravariant(self, qubit, schur):
        pinch = schur_channel(qubit, np.eye(2))
        lhs = ac_adjoint(compose(schur, pinch)).superop
        rhs = compose(ac_adjoint(pinch), ac_adjoint(schur)).superop
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_tensor_of_scalar_channels_is_scalar_of_product(self):
        a, b = rand_system((2,), 1), rand_system((2,), 2)
        fa, fb = state_to_scalar(a, a), state_to_scalar(b, b)
        lhs = tensor(fa, fb)
        prod = tensor_system(a, b)
        rhs = state_to_scalar(prod, prod)
        assert np.linalg.norm(lhs.superop - rhs.superop) <= 1e-12

    def test_tensor_preserves_membership_and_extension(self, qubit, schur):
        other = rand_system((2,), 40)
        ch2 = state_to_scalar(other, other)
        prod = tensor(schur, ch2)
        assert check_markov(prod).passed
        # extension functoriality through the coordinate re-indexing
        perm = _tensor_coord_permutation(schur.source, ch2.source)
        lhs = l2_extension(prod).matrix
        rhs = perm @ np.kron(l2_extension(schur).matrix,
                             l2_extension(ch2).matrix) @ perm.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_tensor_apply_factorizes(self, qubit):
        a = rand_system((2,), 51)
        f = identity_channel(qubit)
        g = state_to_scalar(a, a)
        x, y = random_element(M2, 1), random_element(a.algebra, 2)
        out = tensor(f, g).apply(tensor_element(x, y))
        expected = tensor_element(f.apply(x), g.apply(y))
        assert out.allclose(expected, atol=1e-12)


def _tensor_coord_permutation(a, b):
    """Matrix sending coords(x) kron coords(y) to coords(x tensor y)."""
    da, db = a.coord_dim, b.coord_dim
    perm = np.zeros((da * db, da * db))
    units_a = list(matrix_units(a.algebra))
    units_b = list(matrix_units(b.algebra))
    for i, ua in enumerate(units_a):
        for j, ub in enumerate(units_b):
            col = to_coords(tensor_element(ua, ub))
            perm[:, i * db + j] = col.real
    return perm


class TestConvexCombine:
    def test_single_weight_one(self, schur):
        assert np.allclose(convex_combine([schur], [1.0]).superop, schur.superop)

    def test_degenerate_weights_select_second(self, qubit, schur):
        other = identity_channel(qubit)
        mixed = convex_combine([schur, other], [0.0, 1.0])
        assert np.allclose(mixed.superop, other.superop)

    def test_half_identity_half_scalar(self, qubit):
        # extension is linear in the channel: T = I/2 + |omega><omega|/2
        mix = convex_combine([identity_channel(qubit), state_to_scalar(qubit, qubit)],
                             [0.5, 0.5])
        assert check_markov(mix).passed
        omega = to_coords(qubit.modular.omega)
        expected = 0.5 * np.eye(4) + 0.5 * np.outer(omega, omega.conj())
        assert np.linalg.norm(l2_extension(mix).matrix - expected) <= 1e-12

    def test_bad_weights(self, qubit, schur):
        with pytest.raises(BadWeights):
            convex_combine([schur], [0.5])
        with pytest.raises(BadWeights):
            convex_combine([schur, identity_channel(qubit)], [0.7, 0.7])
        with pytest.raises(BadWeights):
            convex_combine([], [])

    def test_source_target_guard(self, qubit, schur):
        other = rand_system((2,), 77)
        with pytest.raises(ShapeMismatch):
            convex_combine([schur, identity_channel(other)], [0.5, 0.5])


class TestRepresentationCoherence:
    def test_superop_kraus_choi_agree_on_basis(self, qubit):
        # three routes to the same action: the stored superoperator, the
        # Kraus formula applied directly, and the Choi reconstruction
        rng = np.random.default_rng(12)
        kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(2)]
        ch = channel_from_kraus(kraus, qubit, qubit)
        back = choi_to_channel(to_choi(ch), qubit, qubit)
        worst = 0.0
        for x in matrix_units(M2):
            via_superop = ch.apply(x)
            via_kraus = AlgebraElement(M2, [sum(
                k.conj().T @ x.blocks[0] @ k for k in kraus)])
            via_choi = back.apply(x)
            worst = max(worst, (via_superop - via_kraus).norm(),
                        (via_superop - via_choi).norm())
        assert worst <= 1e-12


class TestStarPreservation:
    def test_members_preserve_star(self, schur):
        assert star_preservation_residual(schur) <= 1e-12

    def test_generic_superop_does_not(self, qubit):
        rng = np.random.default_rng(6)
        sup = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert star_preservation_residual(Channel(qubit, qubit, sup)) > 1e-3
