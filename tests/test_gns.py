import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from modmark.algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    evaluate_state,
    random_element,
)
from modmark.errors import BadQuadrature, PowerRangeExceeded, ShapeMismatch
from modmark.gns import Z_MAX, ModularData
from modmark.generators import random_faithful_state
from modmark.linalg import base_tolerance, power_condition_scale

from test_oracles import apply_S, gns_embed

M2 = BlockAlgebra((2,))


@pytest.fixture
def md():
    return ModularData(FaithfulState(AlgebraElement(M2, [np.diag([2 / 3, 1 / 3])])))


def unit(alg, k, a, b):
    blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
    blocks[k][a, b] = 1.0
    return AlgebraElement(alg, blocks)


def rand_vector(alg, seed):
    v = random_element(alg, seed)
    return v * (1.0 / v.norm())


class TestEmbed:
    def test_identity_embeds_to_omega(self, md):
        xi = gns_embed(md, M2.identity())
        assert np.allclose(xi.blocks[0], np.diag([math.sqrt(2 / 3), math.sqrt(1 / 3)]))
        assert (xi - md.omega).norm() <= 1e-15
        assert md.omega.norm() == pytest.approx(1.0)

    def test_unit_embeds_scaled(self, md):
        xi = gns_embed(md, unit(M2, 0, 0, 1))
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = math.sqrt(1 / 3)
        assert np.allclose(xi.blocks[0], expected)

    def test_inner_product_matches_state(self, md):
        e11 = unit(M2, 0, 0, 0)
        value = gns_embed(md, e11).inner(gns_embed(md, e11))
        assert value == pytest.approx(2 / 3)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_embedding_is_gns_inner_product(self, seed):
        state = random_faithful_state(BlockAlgebra((2, 2)), seed, 0.05)
        md = ModularData(state)
        x = random_element(state.parent, seed + 1)
        y = random_element(state.parent, seed + 2)
        lhs = gns_embed(md, x).inner(gns_embed(md, y))
        rhs = evaluate_state(state, y.adjoint() @ x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestActions:
    def test_left_action_on_units(self, md):
        c = 0.3 - 0.2j
        xi = c * unit(M2, 0, 1, 0)
        out = unit(M2, 0, 0, 1) @ xi
        assert np.allclose(out.blocks[0], c * unit(M2, 0, 0, 0).blocks[0])

    def test_right_action_by_identity(self, md):
        xi = rand_vector(M2, 3)
        assert (xi @ M2.identity() - xi).norm() == 0.0

    def test_left_right_commute(self):
        # derived by direct evaluation of both orders
        alg = BlockAlgebra((2, 2))
        x = random_element(alg, 11)
        y = random_element(alg, 12)
        xi = random_element(alg, 13)
        lhs = x @ (xi @ y)
        rhs = (x @ xi) @ y
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


class TestModularOperators:
    def test_s_sends_embedded_to_adjoint_embedded(self, md):
        xi = apply_S(md, gns_embed(md, unit(M2, 0, 0, 1)))
        assert (xi - gns_embed(md, unit(M2, 0, 1, 0))).norm() <= 1e-14

    def test_delta_eigenaction_on_units(self, md):
        # eigenvalue ratio (2/3)/(1/3) = 2 on the E12 coordinate
        e12 = unit(M2, 0, 0, 1)
        e21 = unit(M2, 0, 1, 0)
        assert (md.delta_power(1.0, e12) - 2.0 * e12).norm() <= 1e-14
        assert (md.delta_power(1.0, e21) - 0.5 * e21).norm() <= 1e-14

    def test_omega_fixed_by_flow_and_j(self, md):
        assert (md.omega.adjoint() - md.omega).norm() <= 1e-15
        for t in (-1.0, 0.3, 5.0):
            assert (md.delta_power(1j * t, md.omega) - md.omega).norm() <= 1e-14

    def test_jdj_is_inverse_both_paths(self):
        # derived: both sides evaluated independently
        state = random_faithful_state(BlockAlgebra((3,)), 5, 0.05)
        md = ModularData(state)
        xi = rand_vector(state.parent, 17)
        lhs = md.delta_power(1.0, xi.adjoint()).adjoint()
        rhs = md.delta_power(-1.0, xi)
        assert (lhs - rhs).norm() <= 1e-10 * md.state.kappa

    def test_s_factorizations_agree(self):
        state = random_faithful_state(BlockAlgebra((2, 2)), 9, 0.05)
        md = ModularData(state)
        xi = rand_vector(state.parent, 21)
        a = md.delta_power(0.5, xi).adjoint()
        b = md.delta_power(-0.5, xi.adjoint())
        assert (a - b).norm() <= 1e-11 * md.state.kappa
        assert (apply_S(md, xi) - a).norm() == 0.0

    def test_delta_is_s_star_s(self):
        state = random_faithful_state(BlockAlgebra((3,)), 2, 0.05)
        md = ModularData(state)
        xi, eta = rand_vector(state.parent, 31), rand_vector(state.parent, 32)
        lhs = md.delta_power(1.0, xi).inner(eta)
        rhs = apply_S(md, eta).inner(apply_S(md, xi))
        assert lhs == pytest.approx(rhs, abs=1e-10 * md.state.kappa)

    def test_j_involution_and_antiunitarity(self, md):
        xi, eta = rand_vector(M2, 41), rand_vector(M2, 42)
        assert (xi.adjoint().adjoint() - xi).norm() == 0.0
        assert xi.adjoint().inner(eta.adjoint()) == pytest.approx(
            eta.inner(xi), abs=1e-13)

    def test_power_range_guard(self, md):
        xi = rand_vector(M2, 1)
        for z in (2.5, -2.5, 2.5 + 0.5j):
            with pytest.raises(PowerRangeExceeded):
                md.delta_power(z, xi)
        for z in (2.0, -2.0, 1.9 + 3j, 5j):  # at and within Z_MAX = 2
            md.delta_power(z, xi)

    def test_shape_guards(self, md):
        other = rand_vector(BlockAlgebra((3,)), 1)
        with pytest.raises(ShapeMismatch):
            md.delta_power(0.5, other)
        with pytest.raises(ShapeMismatch):
            gns_embed(md, random_element(BlockAlgebra((3,)), 1))


class TestModularFlow:
    def test_diagonal_fixed_points(self, md):
        x = AlgebraElement(M2, [np.diag([0.7, -0.1])])
        for t in (0.5, -2.0):
            assert (md.modular_flow(t, x) - x).norm() <= 1e-14

    def test_unit_is_eigenoperator(self, md):
        # sigma_t(E12) = exp(i t ln 2) E12
        e12 = unit(M2, 0, 0, 1)
        for t in (0.7, -1.3):
            got = md.modular_flow(t, e12)
            phase = np.exp(1j * t * math.log(2.0))
            assert np.allclose(got.blocks[0], phase * e12.blocks[0], atol=1e-14)

    def test_state_invariance(self):
        # derived by direct evaluation
        state = random_faithful_state(BlockAlgebra((2, 2)), 8, 0.05)
        md = ModularData(state)
        x = random_element(state.parent, 3, "hermitian")
        lhs = evaluate_state(state, md.modular_flow(0.7, x))
        rhs = evaluate_state(state, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_group_property_and_star(self):
        state = random_faithful_state(BlockAlgebra((3,)), 4, 0.05)
        md = ModularData(state)
        x = random_element(state.parent, 6)
        s, t = 0.4, -1.1
        lhs = md.modular_flow(s, md.modular_flow(t, x))
        rhs = md.modular_flow(s + t, x)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, x.norm())
        assert (md.modular_flow(0.0, x) - x).norm() <= 1e-13
        assert (md.modular_flow(t, x.adjoint())
                - md.modular_flow(t, x).adjoint()).norm() <= 1e-12

    def test_flow_matches_embedded_power(self, md):
        x = random_element(M2, 19)
        for t in (0.3, -2.2):
            lhs = gns_embed(md, md.modular_flow(t, x))
            rhs = md.delta_power(1j * t, gns_embed(md, x))
            assert (lhs - rhs).norm() <= 1e-13 * max(1.0, x.norm())


class TestModularSmear:
    def test_fixed_point_returns_kernel_mass(self, md):
        x = AlgebraElement(M2, [np.diag([1.0, -0.5])])

        def f(t):
            return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)

        out = md.modular_smear(x, f, half_width=8.0, step=0.05)
        ts = np.linspace(-8.0, 8.0, int(round(16.0 / 0.05)) + 1)
        mass = float(np.trapezoid([f(t) for t in ts], ts))
        assert (out - mass * x).norm() <= 1e-12

    def test_zero_kernel(self, md):
        out = md.modular_smear(random_element(M2, 2), lambda t: 0.0, 1.0, 0.01)
        assert out.norm() == 0.0

    def test_gaussian_against_characteristic_function_oracle(self, md):
        # closed form: integral of the unit Gaussian against exp(i t w)
        # is exp(-w^2 / 2); here the E12 coordinate oscillates at w = ln 2
        x = unit(M2, 0, 0, 1)

        def f(t):
            return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)

        out = md.modular_smear(x, f, half_width=10.0, step=0.02)
        expected = math.exp(-math.log(2.0) ** 2 / 2.0)
        assert abs(out.blocks[0][0, 1] - expected) <= 1e-9
        assert abs(out.blocks[0][1, 0]) <= 1e-15

    def test_multi_block_against_the_flow(self):
        # the trapezoid of sigma_t(x) with each sigma_t taken by modular_flow
        alg = BlockAlgebra((2, 3, 1))
        md = ModularData(random_faithful_state(alg, 23, 0.05))
        x = random_element(alg, 24)

        def f(t):
            return math.exp(-t * t / 2.0)

        out = md.modular_smear(x, f, half_width=3.0, step=0.1)
        ts = np.linspace(-3.0, 3.0, 61)
        flows = [md.modular_flow(t, x) for t in ts]
        for k, block in enumerate(out.blocks):
            ref = np.trapezoid([f(t) * fl.blocks[k] for t, fl in zip(ts, flows)], ts, axis=0)
            assert np.max(np.abs(block - ref)) <= 1e-13

    def test_bad_quadrature(self, md):
        x = random_element(M2, 1)
        with pytest.raises(BadQuadrature):
            md.modular_smear(x, lambda t: 1.0, half_width=1.0, step=1.5)
        with pytest.raises(BadQuadrature):
            md.modular_smear(x, lambda t: float("nan"), half_width=1.0, step=0.1)
        with pytest.raises(BadQuadrature):
            md.modular_smear(x, lambda t: 1.0, half_width=-1.0, step=0.1)


class TestPowerCache:
    def test_flow_sweep_keeps_the_last_tuple_only(self):
        md = ModularData(random_faithful_state(BlockAlgebra((4,)), 61, 0.05))
        zs = (0.5, 1.0, 0.3j, -0.5, -1.0, -0.3j)
        before = md.d_power_stack(zs)
        # a repeated tuple is served from the cache, as the gns pass's
        # second call is when source is target
        assert md.d_power_stack(zs) is before
        x = random_element(md.algebra, 62)
        for t in np.linspace(-5.0, 5.0, 2000):
            md.modular_flow(t, x)
        assert len(md._power_cache) <= 1
        assert np.array_equal(md.d_power_stack(zs), before)


@dataclass
class AnalyticVectorReport:
    """Residuals of the power group law and the imaginary-axis boundary."""

    group_residual: float
    boundary_residual: float
    pairs_checked: int
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.group_residual, self.boundary_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def analytic_vector_check(md, xi, z_samples) -> AnalyticVectorReport:
    """Check the power group law at sampled exponent pairs.

    Every vector of a finite-dimensional GNS space extends analytically to
    all complex powers.  For each ordered pair (z, z') with |Re(z+z')| within
    Z_MAX, the residual of D-power composition against the summed exponent
    is measured; for purely imaginary samples the result is also compared
    against an independent expm/logm evaluation of the unitary flow.  A
    sample beyond Z_MAX is refused by `delta_power`.
    """
    zs = [complex(z) for z in z_samples]
    powered = {z: md.delta_power(z, xi) for z in zs}
    max_re = max((abs(z.real) for z in zs), default=0.0)
    group = 0.0
    pairs = 0
    for z1 in zs:
        for z2 in zs:
            z12 = z1 + z2
            if abs(z12.real) > Z_MAX:
                continue  # out-of-range sums are skipped, not an error
            lhs = md.delta_power(z1, powered[z2])
            group = max(group, (lhs - md.delta_power(z12, xi)).norm())
            pairs += 1
            max_re = max(max_re, abs(z12.real))
    boundary = 0.0
    # independent route: Schur-based logm, Pade expm
    logs = [scipy.linalg.logm(b) for b in md.state.density.blocks]
    for z in zs:
        if abs(z.real) > 1e-14:
            continue
        flows = [scipy.linalg.expm(1j * z.imag * lg) for lg in logs]
        ref = AlgebraElement(md.algebra,
                             [u @ b @ u.conj().T for u, b in zip(flows, xi.blocks)])
        boundary = max(boundary, (powered[z] - ref).norm())
    return AnalyticVectorReport(
        group_residual=group,
        boundary_residual=boundary,
        pairs_checked=pairs,
        tolerance=(base_tolerance() * power_condition_scale(md.state.kappa, max_re)
                   * max(1.0, xi.norm())),
    )


class TestAnalyticVectorCheck:
    def test_omega_single_imaginary_samples(self, md):
        report = analytic_vector_check(md, md.omega, [1j, -0.5j, 2j])
        assert report.max_residual <= 1e-13
        assert report.passed

    def test_imaginary_group_law(self, md):
        xi = rand_vector(M2, 5)
        report = analytic_vector_check(md, xi, [0.25j, 1j, -3j])
        assert report.boundary_residual <= 1e-12
        assert report.passed

    def test_mixed_samples(self):
        state = random_faithful_state(BlockAlgebra((2, 2)), 14, 0.05)
        md = ModularData(state)
        xi = rand_vector(state.parent, 77)
        report = analytic_vector_check(md, xi, [0.5, -0.25 + 2j])
        assert report.pairs_checked == 4
        assert report.passed

    @pytest.mark.parametrize("dims, seed", [((2, 2), 14), ((3,), 3), ((4, 1), 8)])
    def test_boundary_with_rotated_eigenbasis(self, dims, seed):
        # the fixture's density is diagonal, where logm and expm are exact
        state = random_faithful_state(BlockAlgebra(dims), seed, 0.05)
        md = ModularData(state)
        report = analytic_vector_check(md, rand_vector(state.parent, 77), [0.5j, -1j, 2j])
        assert report.boundary_residual <= 1e-12
        assert report.passed

    def test_out_of_range_sample(self, md):
        with pytest.raises(PowerRangeExceeded):
            analytic_vector_check(md, rand_vector(M2, 6), [3.0])
