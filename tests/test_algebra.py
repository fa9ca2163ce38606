import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmark.algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    blocks_from_coords,
    element_from_coords,
    evaluate_state,
    matrix_units,
    random_element,
    to_coords,
)
from modmark.errors import NotPositiveDefinite, ShapeMismatch

M2 = BlockAlgebra((2,))


def qubit_state(p=2 / 3):
    return FaithfulState(AlgebraElement(M2, [np.diag([p, 1 - p])]))


def unit(alg, k, a, b):
    blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
    blocks[k][a, b] = 1.0
    return AlgebraElement(alg, blocks)


class TestBlockAlgebra:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            BlockAlgebra(())
        with pytest.raises(ValueError):
            BlockAlgebra((2, 0))

    def test_coord_layout(self):
        alg = BlockAlgebra((3, 1))
        assert alg.coord_dim == 10
        assert alg.carrier_dim == 4
        assert alg.coord_offsets == (0, 9)

    def test_identity_blocks(self):
        alg = BlockAlgebra((2, 1))
        one = alg.identity()
        assert np.array_equal(one.blocks[0], np.eye(2))
        assert np.array_equal(one.blocks[1], np.eye(1))


class TestElementOps:
    def test_unit_multiplication(self):
        e12, e21 = unit(M2, 0, 0, 1), unit(M2, 0, 1, 0)
        assert (e12 @ e21).allclose(unit(M2, 0, 0, 0))

    def test_adjoint_of_unit(self):
        assert unit(M2, 0, 0, 1).adjoint().allclose(unit(M2, 0, 1, 0))

    def test_product_adjoint_rule(self):
        x = random_element(M2, 1)
        y = random_element(M2, 2)
        assert ((x @ y).adjoint()).allclose(y.adjoint() @ x.adjoint(), atol=1e-12)

    def test_shape_mismatch(self):
        other = random_element(BlockAlgebra((3,)), 0)
        with pytest.raises(ShapeMismatch):
            random_element(M2, 0) @ other
        with pytest.raises(ShapeMismatch):
            AlgebraElement(M2, [np.eye(3)])

    def test_inner_is_the_coordinate_inner_product(self):
        alg = BlockAlgebra((2, 3))
        x, y = random_element(alg, 3), random_element(alg, 4)
        assert x.inner(y) == pytest.approx(np.vdot(to_coords(y), to_coords(x)), abs=1e-13)
        assert (2j * x).inner(y) == pytest.approx(2j * x.inner(y), abs=1e-13)
        assert x.inner(x).real == pytest.approx(x.norm() ** 2, rel=1e-14)
        with pytest.raises(ShapeMismatch):
            x.inner(random_element(M2, 5))

    def test_coords_round_trip(self):
        alg = BlockAlgebra((2, 3))
        x = random_element(alg, 7)
        assert element_from_coords(alg, to_coords(x)).allclose(x, atol=0)

    def test_coords_are_column_stacked(self):
        # E_ab sits at offset + a + n*b
        alg = BlockAlgebra((2, 2))
        v = to_coords(unit(alg, 1, 0, 1))
        expected = np.zeros(8)
        expected[4 + 0 + 2 * 1] = 1.0
        assert np.array_equal(v, expected)

    def test_matrix_units_enumerates_coords_order(self):
        alg = BlockAlgebra((2, 1))
        for idx, u in enumerate(matrix_units(alg)):
            col = to_coords(u)
            assert col[idx] == 1.0 and np.count_nonzero(col) == 1

    def test_bad_coords_length(self):
        with pytest.raises(ShapeMismatch):
            blocks_from_coords(M2, np.zeros(5))


class TestFaithfulState:
    def test_unit_trace_enforced(self):
        with pytest.raises(ValueError):
            FaithfulState(AlgebraElement(M2, [np.diag([0.5, 0.4])]))

    def test_faithfulness_enforced(self):
        with pytest.raises(NotPositiveDefinite):
            FaithfulState(AlgebraElement(M2, [np.diag([1.0, 0.0])]))

    def test_evaluate_on_diagonal_unit(self):
        s = qubit_state()
        assert evaluate_state(s, unit(M2, 0, 0, 0)) == pytest.approx(2 / 3)

    def test_identity_evaluates_to_one(self):
        alg = BlockAlgebra((2, 2))
        s = FaithfulState(AlgebraElement(
            alg, [np.diag([0.3, 0.2]), np.diag([0.4, 0.1])]))
        assert evaluate_state(s, alg.identity()) == pytest.approx(1.0)

    def test_off_diagonal_kills_diagonal_trace(self):
        s = qubit_state()
        x = AlgebraElement(M2, [np.array([[0, 1], [1, 0]], dtype=complex)])
        assert evaluate_state(s, x) == pytest.approx(0.0, abs=1e-15)

    def test_kappa(self):
        assert qubit_state().kappa == pytest.approx(2.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_positive_and_faithful_on_squares(self, seed):
        alg = BlockAlgebra((2, 2))
        s = FaithfulState(AlgebraElement(alg, _random_density_blocks(seed)))
        x = random_element(alg, seed + 1)
        value = evaluate_state(s, x.adjoint() @ x)
        assert value.real >= 0 and abs(value.imag) <= 1e-12 * max(1.0, value.real)
        # vanishing only at zero, up to tolerance
        if value.real <= 1e-12:
            assert x.norm() <= 1e-5

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linear_and_star_compatible(self, seed):
        s = qubit_state()
        x = random_element(M2, seed)
        y = random_element(M2, seed + 13)
        lhs = evaluate_state(s, x + 2.5 * y)
        rhs = evaluate_state(s, x) + 2.5 * evaluate_state(s, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert evaluate_state(s, x.adjoint()) == pytest.approx(
            np.conj(evaluate_state(s, x)), abs=1e-12)


def _random_density_blocks(seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in (2, 2):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g @ g.conj().T + 0.05 * np.eye(n))
    total = sum(np.trace(b).real for b in blocks)
    return [b / total for b in blocks]


class TestRandomElement:
    def test_hermitian_kind_oracle(self):
        # oracle: the hermiticity residual itself
        h = random_element(M2, 7, "hermitian")
        assert (h - h.adjoint()).norm() == 0.0

    def test_unitary_kind_oracle(self):
        u = random_element(M2, 7, "unitary")
        assert (u.adjoint() @ u - M2.identity()).norm() <= 1e-12

    def test_positive_kind(self):
        p = random_element(BlockAlgebra((3,)), 4, "positive")
        w = np.linalg.eigvalsh(p.blocks[0])
        assert w[0] > 0

    def test_same_seed_identical_bits(self):
        a = random_element(M2, 123, "general")
        b = random_element(M2, 123, "general")
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_element(M2, 0, "bogus")
