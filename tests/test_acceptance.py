"""Acceptance suite: ten pinned criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
tolerance is written out literally here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState
from modmark.cli import main
from modmark.generators import (
    GenSpec,
    build_channel,
    modular_twirl,
    random_faithful_state,
    schur_channel,
    sp_ucp,
    state_to_scalar,
)
from modmark.gns import ModularData
from modmark.markov import (
    System,
    ac_adjoint,
    check_markov,
    compose,
)
from modmark.verify import (
    SuiteConfig,
    modular_invariants,
    run_suite,
)

DIMS_POOL = ((2,), (3,), (4,), (2, 2), (3, 1))


@pytest.fixture(scope="session", autouse=True)
def _pinned_tolerances():
    # acceptance always runs at the pinned default tolerances
    import os
    old = os.environ.pop("MODMARK_TOL", None)
    yield
    if old is not None:
        os.environ["MODMARK_TOL"] = old


@pytest.fixture(scope="session")
def positive_suite():
    config = SuiteConfig(trials=200, seed=42)
    t0 = time.perf_counter()
    result = run_suite(config)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def _line(num, ok, text):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_modular_axioms():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        dims = DIMS_POOL[seed % len(DIMS_POOL)]
        state = random_faithful_state(BlockAlgebra(dims), seed, min_gap=0.05)
        md = ModularData(state)
        tol = 1e-10 * md.state.kappa
        for key, value in modular_invariants(md, seed=seed).items():
            worst = max(worst, value / tol)
            assert value <= tol, f"{key} residual {value:.3e} over {tol:.1e} (seed {seed})"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed <= 10.0
    _line(1, ok, f"modular axioms on 50 states, worst residual ratio "
                 f"{worst:.2e}, {elapsed:.1f}s (limit 10s)")


def test_criterion_02_conjugation_and_twist(positive_suite):
    result, elapsed = positive_suite
    assert result.summary["instances"] == 200
    assert not result.summary["flagged"], "no generator may stall here"
    worst = {"thm_i_s": 0.0, "thm_ii": 0.0, "thm_iii": 0.0}
    for rep in result.reports:
        for key in worst:
            assert rep.residuals[key] <= rep.tolerances[key], (
                f"{rep.instance_id} {key} residual {rep.residuals[key]:.3e} "
                f"over {rep.tolerances[key]:.1e}")
            # tolerance recorded in the report is 1e-8 * condition scale
            worst[key] = max(worst[key], rep.residuals[key] / rep.tolerances[key])
    ok = elapsed <= 60.0
    _line(2, ok, f"200 instances: twist/conjugation/involution residuals within "
                 f"1e-8 * condition scale (worst ratios "
                 f"{max(worst.values()):.2e}), {elapsed:.1f}s (limit 60s)")


def test_criterion_03_complex_powers(positive_suite):
    result, _ = positive_suite
    worst = 0.0
    for rep in result.reports:
        assert rep.residuals["thm_commute_z"] <= rep.tolerances["thm_commute_z"]
        worst = max(worst, rep.residuals["thm_commute_z"] / rep.tolerances["thm_commute_z"])
    _line(3, True, f"complex-power intertwining on 16 sampled z per instance, "
                   f"worst ratio {worst:.2e} of 1e-8 * condition scale")


def test_criterion_04_unitary_flow(positive_suite):
    result, _ = positive_suite
    worst = 0.0
    for rep in result.reports:
        assert rep.residuals["eq32_t"] <= 1e-10
        worst = max(worst, rep.residuals["eq32_t"])
    _line(4, True, f"unitary flow intertwining at t in {{+-1, +-0.37, +-5}}, "
                   f"worst residual {worst:.2e} <= 1e-10")


def test_criterion_05_contraction(positive_suite):
    result, _ = positive_suite
    worst_norm = worst_omega = 0.0
    for rep in result.reports:
        assert rep.residuals["kadison_norm"] <= 1e-10
        assert rep.residuals["omega_map"] <= 1e-10
        worst_norm = max(worst_norm, rep.residuals["kadison_norm"])
        worst_omega = max(worst_omega, rep.residuals["omega_map"])
    _line(5, True, f"norm excess {worst_norm:.2e} and cyclic-vector defect "
                   f"{worst_omega:.2e}, both <= 1e-10 on all 200 instances")


def test_criterion_06_adjoints(positive_suite):
    result, _ = positive_suite
    worst = 0.0
    for rep in result.reports:
        assert rep.residuals["adjoint_consistency"] <= 1e-9
        assert rep.residuals["petz_match"] <= 1e-9
        worst = max(worst, rep.residuals["adjoint_consistency"],
                    rep.residuals["petz_match"])
    # involution and contravariance on fresh compositions
    for seed in range(6):
        sys = System(random_faithful_state(BlockAlgebra((2,)), 60 + seed, 0.05))
        f = schur_channel(sys, np.array([[1.0, 0.4], [0.4, 1.0]]))
        g = schur_channel(sys, np.eye(2)) if seed % 2 else state_to_scalar(sys, sys)
        h = compose(f, g)
        back = ac_adjoint(ac_adjoint(h))
        assert np.linalg.norm(back.superop - h.superop, 2) <= 1e-9
        contra = compose(ac_adjoint(g), ac_adjoint(f))
        assert np.linalg.norm(ac_adjoint(h).superop - contra.superop, 2) <= 1e-9
        worst = max(worst,
                    np.linalg.norm(back.superop - h.superop, 2),
                    np.linalg.norm(ac_adjoint(h).superop - contra.superop, 2))
    _line(6, True, f"adjoint consistency, symmetric-form match, involution, "
                   f"contravariance all <= 1e-9 (worst {worst:.2e})")


# --- criterion 7: twirl against the long-time average -----------------------

def _flow_superop_batch(md, ts):
    """sigma_t coordinate matrices for a batch of times, shape (m, d, d)."""
    dim = md.algebra.coord_dim
    out = np.zeros((len(ts), dim, dim), dtype=np.complex128)
    off = 0
    for e in md.d_eig:
        n = e.dim
        lam, v = e.eigenvalues, e.eigenvectors
        phases = np.exp(1j * np.outer(ts, np.log(lam)))
        u = np.einsum("mi,ai,bi->mab", phases, v, v.conj())
        # column-stacked coords: sigma_t acts as kron(conj(U), U)
        block = np.einsum("mab,mcd->macbd", u.conj(), u).reshape(len(ts), n * n, n * n)
        out[:, off:off + n * n, off:off + n * n] = block
        off += n * n
    return out


def _bohr_mean_superop(ch, t_span=200.0, step=0.01):
    """Trapezoid quadrature of the conjugated channel over [-t_span, t_span]."""
    ts = np.linspace(-t_span, t_span, int(round(2 * t_span / step)) + 1)
    weights = np.full(ts.shape, step)
    weights[0] = weights[-1] = step / 2.0
    weights = weights / (2.0 * t_span)
    acc = np.zeros_like(ch.superop)
    chunk = 4096
    for i in range(0, len(ts), chunk):
        tc, wc = ts[i:i + chunk], weights[i:i + chunk]
        gs = _flow_superop_batch(ch.source.modular, tc)
        gt = _flow_superop_batch(ch.target.modular, -tc)
        acc += np.einsum("m,mab,bc,mcd->ad", wc, gt, ch.superop, gs,
                         optimize=True)
    return acc


def _spread_qubit_system(seed):
    """Qubit state with eigenvalue ratio ~15-35, generic eigenbasis."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.93, 0.97)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    d = u @ np.diag([p, 1.0 - p]) @ u.conj().T
    d = (d + d.conj().T) / 2.0
    d = d / np.trace(d).real
    return System(FaithfulState(AlgebraElement(BlockAlgebra((2,)), [d])))


def test_criterion_07_twirl():
    worst_idem = worst_quad = worst_ratio = 0.0
    for seed in range(10):
        sys = _spread_qubit_system(700 + seed)
        rough = sp_ucp(sys, sys, seed)
        tw = modular_twirl(rough)
        idem = np.linalg.norm(modular_twirl(tw).superop - tw.superop, 2)
        assert idem <= 1e-12, f"idempotence defect {idem:.3e} (seed {seed})"
        assert check_markov(tw).passed, f"twirl output not a member (seed {seed})"
        # the window-T average damps an entry at frequency gap w by
        # |sinc(wT)| <= 1 / (|w| T), and a qubit's smallest off-sector gap
        # is ln kappa, so T * gap <= |rough - twirl|_F / ln kappa
        bound = np.linalg.norm(rough.superop - tw.superop) / math.log(sys.state.kappa)
        for window in (25.0, 50.0, 100.0, 200.0):
            gap = np.linalg.norm(_bohr_mean_superop(rough, window) - tw.superop, 2)
            assert window * gap <= bound, (
                f"window {window:g}: window * gap {window * gap:.3e} "
                f"exceeds {bound:.3e} (seed {seed})")
            worst_ratio = max(worst_ratio, window * gap / bound)
        # the last window is 200, `_bohr_mean_superop`'s default span
        assert gap <= 1e-2, f"quadrature mismatch {gap:.3e} (seed {seed})"
        worst_idem = max(worst_idem, idem)
        worst_quad = max(worst_quad, gap)
    _line(7, True, f"twirl idempotent ({worst_idem:.2e} <= 1e-12), member, and "
                   f"within {worst_quad:.2e} <= 1e-2 of the long-time average "
                   f"on 10 instances; window * gap at most {worst_ratio:.3f} "
                   f"of |rough - twirl|_F / ln kappa at windows 25-200")


# --- criterion 8: frozen negative corpus ------------------------------------

NEGATIVE_CORPUS = (
    ((2,), 101), ((2,), 102), ((3,), 103), ((3,), 104), ((2,), 105), ((3,), 106),
)


def test_criterion_08_negative_corpus():
    worst_feas, least_mod, least_ii = 0.0, np.inf, np.inf
    for dims, seed in NEGATIVE_CORPUS:
        built = build_channel(GenSpec("sp_ucp", dims, seed=seed))
        assert built.flags == ()
        mc = check_markov(built.channel)
        for key in ("unital", "cp", "state"):
            assert mc.residuals[key] <= 1e-10, f"{key} residual high (seed {seed})"
            worst_feas = max(worst_feas, mc.residuals[key])
        assert mc.residuals["modular"] > 1e-3, f"not a flow breaker (seed {seed})"
        from modmark.verify import verify_modular_symmetry
        thm_ii, _ = verify_modular_symmetry(built.channel, require_markov=False)
        assert thm_ii > 1e-6, f"conjugation defect too small (seed {seed})"
        least_mod = min(least_mod, mc.residuals["modular"])
        least_ii = min(least_ii, thm_ii)
    # a negative-only batch is reported as expected failures, exit stays 0
    code = main(["suite", "--trials", "5", "--kinds", "sp_ucp", "--dims",
                 "2,3", "--seed", "8"])
    assert code == 0
    _line(8, True, f"{len(NEGATIVE_CORPUS)} frozen instances: feasibility "
                   f"residuals <= {worst_feas:.2e}, flow residual > "
                   f"{least_mod:.2e}, conjugation defect > {least_ii:.2e}, "
                   f"suite exit unaffected")


def test_criterion_09_smearing():
    md = ModularData(FaithfulState(AlgebraElement(
        BlockAlgebra((2,)), [np.diag([2 / 3, 1 / 3])])))
    x = AlgebraElement(BlockAlgebra((2,)), [np.array([[0, 1], [0, 0]], dtype=complex)])
    deviations = []
    for sigma in (1.0, 0.1, 0.01):
        def kernel(t, s=sigma):
            return math.exp(-t * t / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        out = md.modular_smear(x, kernel, half_width=10 * sigma, step=sigma / 50)
        deviations.append((out - x).norm())
        if sigma == 1.0:
            # closed-form kernel transform at the coordinate frequency ln 2
            expected = math.exp(-math.log(2.0) ** 2 / 2.0)
            defect = abs(out.blocks[0][0, 1] - expected)
            assert defect <= 1e-6, f"kernel transform defect {defect:.3e}"
    assert deviations[0] > deviations[1] > deviations[2], deviations
    _line(9, True, f"smearing deviations strictly decreasing "
                   f"({deviations[0]:.2e} > {deviations[1]:.2e} > "
                   f"{deviations[2]:.2e}) and width-1 coefficient matches the "
                   f"closed form within 1e-6")


def test_criterion_10_byte_determinism(capsys):
    args = ["suite", "--trials", "200", "--seed", "42", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 10_000
    _line(10, ok, f"two 200-trial suite runs: byte-identical "
                  f"{len(out1.encode())}-byte JSON reports, exit 0")
