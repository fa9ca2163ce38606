import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmark import linalg
from modmark.errors import NonHermitian, NotPositiveDefinite
from modmark.linalg import (
    _norm_lower_bound,
    base_tolerance,
    block_diag,
    certified_value,
    frob,
    herm_eig,
    matrix_power,
    op_norm,
    power_condition_scale,
    tolerance_factor,
)


def random_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_pd(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


class TestHermEig:
    def test_diagonal_input(self):
        eig = herm_eig(np.diag([2 / 3, 1 / 3]))
        assert np.allclose(eig.eigenvalues, [1 / 3, 2 / 3])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])

    def test_identity(self):
        eig = herm_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])
        assert np.allclose(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(2))

    def test_pauli_x(self):
        eig = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
        # columns are (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        for col, sign in ((0, -1.0), (1, 1.0)):
            v = eig.eigenvectors[:, col]
            v = v / v[0]
            assert np.allclose(v, [1.0, sign])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitian):
            herm_eig(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic(self):
        a = random_hermitian(5, 4)
        e1, e2 = herm_eig(a), herm_eig(a.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
    def test_reconstruction_contract(self, seed, n):
        a = random_hermitian(seed, n)
        eig = herm_eig(a)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert frob(recon - a) <= 1e-12 * max(1.0, frob(a))
        assert frob(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(n)) <= 1e-12 * n
        assert np.all(np.diff(eig.eigenvalues) >= 0)


class TestMatrixPower:
    def test_sqrt_of_diagonal(self):
        assert np.allclose(matrix_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]))

    def test_zero_power_is_exact_identity(self):
        a = random_pd(0, 3)
        assert np.array_equal(matrix_power(a, 0.0), np.eye(3))

    def test_imaginary_power_against_entrywise_oracle(self):
        # oracle: exp(z * log(lambda)) computed entrywise on the diagonal
        d = np.diag([2 / 3, 1 / 3])
        expected = np.diag([cmath.exp(1j * math.log(2 / 3)),
                            cmath.exp(1j * math.log(1 / 3))])
        got = matrix_power(d, 1j)
        assert np.allclose(got, expected, atol=1e-14)
        assert np.allclose(got @ got.conj().T, np.eye(2), atol=1e-14)

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_power(np.diag([1.0, 0.0]), 0.5)
        with pytest.raises(NotPositiveDefinite):
            matrix_power(np.diag([1.0, -0.5]), 2.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000),
           re1=st.floats(-2, 2), im1=st.floats(-5, 5),
           re2=st.floats(-2, 2), im2=st.floats(-5, 5))
    def test_group_law(self, seed, re1, im1, re2, im2):
        a = random_pd(seed, 3)
        z1, z2 = complex(re1, im1), complex(re2, im2)
        lhs = matrix_power(a, z1) @ matrix_power(a, z2)
        rhs = matrix_power(a, z1 + z2)
        w = np.linalg.eigvalsh(a)
        kappa = float(w[-1] / w[0])
        tol = 1e-9 * power_condition_scale(kappa, abs(re1) + abs(re2))
        assert frob(lhs - rhs) <= tol * max(1.0, frob(lhs), frob(rhs))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.floats(-2, 2))
    def test_inverse_law(self, seed, t):
        a = random_pd(seed, 3)
        prod = matrix_power(a, -t) @ matrix_power(a, t)
        w = np.linalg.eigvalsh(a)
        kappa = float(w[-1] / w[0])
        assert frob(prod - np.eye(3)) <= 1e-9 * power_condition_scale(kappa, abs(t))

    def test_real_power_hermitian_pd(self):
        a = random_pd(2, 4)
        b = matrix_power(a, 0.7)
        assert frob(b - b.conj().T) <= 1e-13 * frob(b)
        assert np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0] > 0


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert op_norm(np.diag([0.5, -2.0])) == pytest.approx(2.0, rel=1e-10)

    def test_nilpotent_shift(self):
        assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-10)


class TestBlockDiag:
    # the values are checked bitwise against scipy in test_oracles.py
    def test_refuses_non_matrices(self):
        with pytest.raises(ValueError):
            block_diag(np.ones(3))
        with pytest.raises(ValueError):
            block_diag(np.eye(2), np.ones((1, 1, 1)))


class TestTolerance:
    def test_effective_scales(self, monkeypatch):
        monkeypatch.delenv("MODMARK_TOL", raising=False)
        assert tolerance_factor() == 1.0
        monkeypatch.setenv("MODMARK_TOL", "1e-8")
        assert tolerance_factor() == pytest.approx(10.0)
        monkeypatch.setenv("MODMARK_TOL", "3e-9")
        assert 1e-9 * tolerance_factor() == pytest.approx(3e-9)

    def test_rejects_bad_values(self, monkeypatch):
        for raw in ("0", "-1e-9", "nan", "loose"):
            monkeypatch.setenv("MODMARK_TOL", raw)
            with pytest.raises(ValueError) as exc:
                base_tolerance()
            assert str(exc.value) == f"MODMARK_TOL must be a positive number, got {raw!r}"

    def test_env_override(self, monkeypatch):
        monkeypatch.delenv("MODMARK_TOL", raising=False)
        assert base_tolerance() == pytest.approx(1e-9)
        monkeypatch.setenv("MODMARK_TOL", "1e-6")
        assert base_tolerance() == pytest.approx(1e-6)

    def test_condition_scale_floor(self):
        assert power_condition_scale(0.5, 2.0) == 1.0
        assert power_condition_scale(10.0, 2.0) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# settle: the one rule that reads a certified value off its brackets
# ---------------------------------------------------------------------------

class TestSettle:
    """`linalg.settle` on direct brackets at tolerance 1, with a fallback
    that reads 7.0 and records its calls."""

    @staticmethod
    def settle(*brackets):
        calls = []

        def dense():
            calls.append("dense")
            return 7.0

        def step(bracket):
            def call():
                calls.append(bracket)
                return bracket
            return call
        return linalg.settle(1.0, [step(b) for b in brackets], dense), calls

    def test_a_pass_reads_the_upper_end(self):
        assert self.settle((0.25, 0.5))[0] == 0.5
        assert self.settle((-np.inf, 0.75))[0] == 0.75

    def test_a_fail_reads_the_lower_end(self):
        assert self.settle((2.0, 3.0))[0] == 2.0
        assert self.settle((1.5, np.inf))[0] == 1.5

    def test_a_bound_at_the_tolerance_passes(self):
        assert self.settle((0.5, 1.0)) == (1.0, [(0.5, 1.0)])

    def test_a_lower_end_at_the_tolerance_straddles(self):
        assert self.settle((1.0, 2.0)) == (7.0, [(1.0, 2.0), "dense"])

    NAN_BRACKETS = {"both": (np.nan, np.nan), "upper": (-np.inf, np.nan),
                    "upper-only": (0.5, np.nan)}

    @pytest.mark.parametrize("name", sorted(NAN_BRACKETS))
    def test_a_nan_never_passes(self, name):
        bracket = self.NAN_BRACKETS[name]
        assert self.settle(bracket, (-np.inf, 0.5))[0] == 0.5
        assert self.settle(bracket) == (7.0, [bracket, "dense"])

    def test_a_nan_upper_end_keeps_a_certain_fail(self):
        assert self.settle((2.0, np.nan))[0] == 2.0

    def test_a_straddle_takes_the_next_step(self):
        got, calls = self.settle((0.5, 2.0), None, (0.0, 0.75), (0.1, 0.2))
        assert got == 0.75 and calls == [(0.5, 2.0), None, (0.0, 0.75)]

    def test_a_straddle_that_no_step_settles_reads_the_fallback(self):
        assert self.settle((0.5, 2.0), (-np.inf, np.inf), None) == (
            7.0, [(0.5, 2.0), (-np.inf, np.inf), None, "dense"])
        assert self.settle() == (7.0, ["dense"])

    def test_no_step_after_the_settling_one_runs(self):
        assert self.settle((2.0, 3.0), (0.0, 0.5)) == (2.0, [(2.0, 3.0)])


# ---------------------------------------------------------------------------
# certified_value: the O(N^2) fail step, the Cholesky certificates, or the
# dense call
# ---------------------------------------------------------------------------

def random_unitary(seed, n):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def hermitian_with_spectrum(seed, w):
    """U diag(w) U^+ for a seeded unitary U."""
    u = random_unitary(seed, len(w))
    h = (u * np.asarray(w)) @ u.conj().T
    return (h + h.conj().T) / 2.0


def record_dense_calls(monkeypatch):
    """Shapes of the matrices handed to np.linalg.svd, eigvalsh and
    cholesky, by name: a full-size svd or eigvalsh is the dense fallback."""
    calls = {"svd": [], "eigvalsh": [], "cholesky": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def dense_calls(monkeypatch):
    return record_dense_calls(monkeypatch)


TOL = 1e-9
N_CERT = 120


class TestCertifiedValue:
    def test_below_the_gate_the_dense_values(self, dense_calls):
        # the name is kept from the size gate the steps once waited for: at
        # N = 60 a failing norm and excess read the fail step's lower bound,
        # and an indefinite min_eig, which has no factor, reads eigvalsh
        a = random_unitary(1, 60) * 1.5
        h = random_hermitian(2, 60)
        b = _norm_lower_bound(a)
        assert certified_value(a, TOL) == b and TOL < b <= op_norm(a)
        assert certified_value(a, TOL, "excess") == b - 1.0
        assert not dense_calls["svd"]
        assert certified_value(h, TOL, "min_eig") == float(np.linalg.eigvalsh(h)[0])

    def test_masked_takes_no_frobenius_step_below_the_gate(self):
        # the name is kept from the kind a masked copy once took: at every
        # size |a|_F <= tol certifies a norm, and the pass reads |a|_F
        for seed, n in ((14, 60), (15, N_CERT)):
            a = random_unitary(seed, n) * 0.5
            assert certified_value(a, 10.0) == frob(a) > op_norm(a)

    @pytest.mark.parametrize("n", [9, 60])
    def test_failing_norm_reads_the_lower_bound(self, dense_calls, n):
        # the fail step at every size: below N = 100 too, a certain fail
        # reads the O(N^2) lower bound and takes no SVD
        a = random_unitary(17, n) * 1.5
        b = _norm_lower_bound(a)
        assert certified_value(a, TOL) == b and TOL < b <= op_norm(a)
        assert not dense_calls["svd"]

    @pytest.mark.parametrize("n", [9, 60])
    def test_straddling_excess_closed_by_a_factor(self, dense_calls, n):
        # |a| = 1 + tol / 2: the fail step's lo lies at or below tol, and a
        # factor of (1 + tol)^2 1 - a^+ a closes the straddle; the pass
        # reads lo, below the dense excess, and takes no SVD
        s = np.concatenate([[1.0 + TOL / 2.0], np.linspace(0.5, 0.9, n - 1)])
        a = (random_unitary(18, n) * s) @ random_unitary(19, n).conj().T
        dense = float(np.linalg.svd(a, compute_uv=False)[0]) - 1.0
        dense_calls["svd"].clear()
        got = certified_value(a, TOL, "excess")
        assert got == max(0.0, _norm_lower_bound(a) - 1.0) < dense <= TOL
        assert dense_calls["cholesky"] == [(n, n)] and not dense_calls["svd"]

    @pytest.mark.parametrize("n", [9, 60])
    def test_positive_definite_min_eig_reads_zero(self, dense_calls, n):
        h = hermitian_with_spectrum(20, np.linspace(1e-3, 1.0, n))
        assert certified_value(h, TOL, "min_eig") == 0.0
        assert dense_calls["cholesky"] == [(n, n)] and not dense_calls["eigvalsh"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            certified_value(np.eye(3), TOL, "max_eig")

    def test_excess_pass_certified_by_a_factor(self, dense_calls):
        # |Q| = 1: the fail step's bound lies below 1, so its lo is 0, and
        # (1 + tol)^2 1 - Q^+ Q factors: the pass reads that lo
        q = random_unitary(3, N_CERT)
        got = certified_value(q, TOL, "excess")
        assert got == max(0.0, _norm_lower_bound(q) - 1.0) == 0.0
        assert (N_CERT, N_CERT) in dense_calls["cholesky"]
        assert (N_CERT, N_CERT) not in dense_calls["svd"]

    def test_excess_fail_from_the_ritz_value(self, dense_calls):
        # the name is kept: the fail reads the fail step's lo, max(0, b - 1)
        # for b the O(N^2) lower bound on the norm, at or below the dense
        # excess and within twice the bound's rounding factor 4 (m + n) eps
        # of it (the row norms of q carry their own rounding)
        q = random_unitary(4, N_CERT) * (1.0 + 10 * TOL)
        got = certified_value(q, TOL, "excess")
        dense = op_norm(q) - 1.0
        assert TOL < got <= dense and dense - got <= 16 * N_CERT * np.finfo(float).eps
        assert not dense_calls["cholesky"] and (N_CERT, N_CERT) not in dense_calls["svd"]

    def test_excess_straddle_takes_the_svd(self, dense_calls):
        # |a| = 1 + 2 tol, and no row, column or power step from a column
        # reaches 1 (the spread spectrum below it weighs them down): the fail
        # step's lo is 0, and the factor fails, so the dense SVD decides
        n = N_CERT
        s = np.concatenate([[1.0 + 2 * TOL], np.linspace(0.5, 1.0 - 1e-6, n - 1)])
        a = (random_unitary(6, n) * s) @ random_unitary(5, n).conj().T
        assert _norm_lower_bound(a) <= 1.0
        dense_calls["svd"].clear()
        got = certified_value(a, TOL, "excess")
        assert dense_calls["svd"].count((n, n)) == 1
        assert got == float(np.linalg.svd(a, compute_uv=False)[0]) - 1.0 and got > TOL

    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_tiny_tolerance_goes_dense(self, dense_calls, tol):
        # below CHOLESKY_MARGIN N eps the factors certify nothing
        q = random_unitary(7, N_CERT) * (1.0 - 1e-12)
        assert certified_value(q, tol, "excess") == max(
            0.0, float(np.linalg.svd(q, compute_uv=False)[0]) - 1.0)
        assert dense_calls["svd"].count((N_CERT, N_CERT)) == 2
        h = hermitian_with_spectrum(8, np.linspace(0.1, 1.0, N_CERT))
        assert certified_value(h, tol, "min_eig") == float(np.linalg.eigvalsh(h)[0])
        assert dense_calls["eigvalsh"].count((N_CERT, N_CERT)) == 2
        assert not dense_calls["cholesky"]

    def test_min_eig_of_a_factored_matrix_reads_zero(self, dense_calls):
        h = hermitian_with_spectrum(9, np.linspace(1e-3, 1.0, N_CERT))
        assert certified_value(h, TOL, "min_eig") == 0.0
        assert dense_calls["cholesky"] == [(N_CERT, N_CERT)] and not dense_calls["eigvalsh"]

    @pytest.mark.parametrize("lam", [0.0, -0.25 * TOL, -0.75 * TOL])
    def test_min_eig_inside_the_shift_is_an_upper_bound(self, dense_calls, lam):
        # rank-deficient or slightly negative, within tol of 0: h has no
        # factor, and the value is the dense one (no shifted factor or
        # lower bound on lambda_min is taken)
        w = np.concatenate([[lam] * 5, np.linspace(0.2, 1.0, N_CERT - 5)])
        h = hermitian_with_spectrum(10, w)
        got = certified_value(h, TOL, "min_eig")
        assert dense_calls["cholesky"] == [(N_CERT, N_CERT)]
        assert dense_calls["eigvalsh"] == [(N_CERT, N_CERT)]
        assert got == float(np.linalg.eigvalsh(h)[0])

    def test_min_eig_below_minus_tol_goes_dense(self, dense_calls):
        w = np.concatenate([[-2 * TOL], np.linspace(0.2, 1.0, N_CERT - 1)])
        h = hermitian_with_spectrum(11, w)
        got = certified_value(h, TOL, "min_eig")
        assert dense_calls["eigvalsh"] == [(N_CERT, N_CERT)]
        assert got == float(np.linalg.eigvalsh(h)[0]) and got < -TOL

    @pytest.mark.parametrize("n", [50, N_CERT])
    def test_underflowing_frobenius_certifies_nothing(self, dense_calls, n):
        # entries ~1e-300: every square underflows and |a|_F reads 0.0, which
        # would certify a pass at tol = s_1 / 2; the step reads inf instead,
        # the fail step's sums underflow too, and the call takes the SVD's
        # fail, at either size
        rng = np.random.default_rng(16)
        a = 1e-300 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        top = float(np.linalg.svd(a, compute_uv=False)[0])
        assert frob(a) == 0.0 < top
        assert certified_value(a, top / 2.0) == top
        assert dense_calls["svd"].count((n, n)) == 2

    def test_gate_is_read_at_call_time(self, monkeypatch, dense_calls):
        # the name is kept from the size gate: the steps are looked up at
        # call time, so with the fail step and the factor patched away, as
        # the dense reference of the oracle tests does, the value is dense
        q = random_unitary(12, N_CERT)
        monkeypatch.setattr(linalg, "_norm_lower_bound", lambda a: None)
        monkeypatch.setattr(linalg, "_has_cholesky", lambda h: False)
        assert certified_value(q, TOL, "excess") == max(0.0, op_norm(q) - 1.0)
        assert dense_calls["svd"] == [(N_CERT, N_CERT)] and not dense_calls["cholesky"]

    def test_min_eig_of_huge_entries_goes_dense(self, dense_calls):
        # entries ~1e160: |h|_F overflows to inf, which certifies nothing,
        # so the call takes eigvalsh with no overflow warning (pytest turns
        # warnings into errors)
        h = hermitian_with_spectrum(13, np.linspace(-1.0, 1.0, N_CERT)) * 1e160
        got = certified_value(h, TOL, "min_eig")
        assert got == float(np.linalg.eigvalsh(h)[0]) and got < -1e159
        assert dense_calls["eigvalsh"].count((N_CERT, N_CERT)) == 2
        assert not dense_calls["cholesky"]
