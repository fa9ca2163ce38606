import numpy as np
import pytest

import modmark.generators as gens
from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState
from modmark.errors import NoConvergence, NotMarkov, PowerRangeExceeded
from modmark.generators import (
    GenSpec,
    build_channel,
    derive_seed,
    modular_twirl,
    random_faithful_state,
    schur_channel,
    sp_ucp,
    state_to_scalar,
)
from modmark.linalg import power_condition_scale, tolerance_factor
from modmark.markov import MEMBERSHIP_KEYS, MarkovCheck, System, check_markov, identity_channel
from modmark.serialize import genspec_to_json, suite_result_to_json, dumps_canonical
from modmark.verify import (
    PINNED_TOL,
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

M2 = BlockAlgebra((2,))

REPORT_KEY_ORDER = [
    "markov_unital", "markov_cp", "markov_state", "markov_modular",
    "eq32_t", "thm_i_s", "thm_ii", "thm_iii", "thm_commute_z",
    "adjoint_consistency", "petz_match", "kadison_norm", "omega_map",
    "gns_commutant", "gns_delta_it_j", "gns_delta_ss", "gns_flow_embed",
    "gns_j_antiunitary", "gns_j_involution", "gns_jdj_inverse",
    "gns_omega_fixed", "gns_s_polar",
]


@pytest.fixture
def qubit():
    return System(FaithfulState(AlgebraElement(M2, [np.diag([2 / 3, 1 / 3])])))


@pytest.fixture
def schur(qubit):
    return schur_channel(qubit, np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.fixture
def negative(qubit):
    return sp_ucp(qubit, qubit, 11)


class TestVerifyCrucial:
    def test_identity_exact(self, qubit):
        assert verify_crucial(identity_channel(qubit)) <= 1e-13

    def test_schur_phases_cancel(self, schur):
        # closed form: both sides multiply the off-diagonal coordinates by
        # the same phase exp(i t ln 2), so the residual is roundoff
        assert verify_crucial(schur, t_samples=(1.0, -1.0, 0.37, 5.0)) <= 1e-12

    def test_negative_instance_fails(self, negative):
        res = verify_crucial(negative, require_markov=False)
        assert res > 1e-3
        with pytest.raises(NotMarkov):
            verify_crucial(negative)


class TestVerifyCommute:
    def test_imaginary_axis_matches_crucial(self, schur):
        ts = (1.0, -0.37, 5.0)
        z_res, _ = verify_commute(schur, z_samples=[1j * t for t in ts])
        assert abs(z_res - verify_crucial(schur, t_samples=ts)) <= 1e-12

    def test_scalar_channel_all_z(self, qubit):
        target = System(random_faithful_state(BlockAlgebra((3,)), 4, 0.05))
        ch = state_to_scalar(qubit, target)
        z_res, s_res = verify_commute(ch, z_samples=[0.5, -0.25 + 2j, 1j, 1.0])
        kappa = max(qubit.state.kappa, target.state.kappa)
        assert z_res <= 1e-10 * kappa
        assert s_res <= 1e-10 * kappa

    def test_schur_complex_power(self, schur, qubit):
        z_res, s_res = verify_commute(schur, z_samples=[0.5 + 2j])
        assert z_res <= 1e-10 * qubit.state.kappa
        assert s_res <= 1e-10 * qubit.state.kappa

    def test_range_guard(self, schur):
        with pytest.raises(PowerRangeExceeded):
            verify_commute(schur, z_samples=[2.5])


class TestVerifyModularSymmetry:
    def test_identity(self, qubit):
        thm_ii, thm_iii = verify_modular_symmetry(identity_channel(qubit))
        assert thm_ii <= 1e-13 and thm_iii <= 1e-13

    def test_schur_real_diagonal(self, schur):
        # hand check: the extension is real diagonal on unit coordinates and
        # the multiplier is Hermitian, so conjugation leaves it fixed
        thm_ii, thm_iii = verify_modular_symmetry(schur)
        assert thm_ii <= 1e-12 and thm_iii <= 1e-12

    def test_negative_breaks_conjugation_only(self, negative):
        thm_ii, thm_iii = verify_modular_symmetry(negative, require_markov=False)
        assert thm_ii > 1e-6
        # the involution identity holds on the embedded units for any
        # star-preserving channel, flow-compatible or not
        assert thm_iii <= 1e-10


class TestVerifyAdjoint:
    def test_identity(self, qubit):
        adjc, petz, kad = verify_adjoint(identity_channel(qubit))
        assert max(adjc, petz, kad) <= 1e-12

    def test_scalar_channel_rank_one_adjoint(self, qubit):
        target = System(random_faithful_state(BlockAlgebra((3,)), 8, 0.05))
        adjc, petz, kad = verify_adjoint(state_to_scalar(qubit, target))
        assert adjc <= 1e-12
        assert petz <= 1e-12
        assert kad <= 1e-12

    def test_twirled_random(self):
        sys = System(random_faithful_state(BlockAlgebra((3,)), 12, 0.05))
        ch = modular_twirl(sp_ucp(sys, sys, 3))
        adjc, petz, kad = verify_adjoint(ch)
        assert adjc <= 1e-9 and petz <= 1e-9 and kad <= 1e-9

    @pytest.mark.parametrize("suite_seed,index,kind", [(4, 38, "twirl"), (8, 39, "convex")],
                             ids=["0038-twirl-6", "0039-convex-6"])
    def test_ill_conditioned_positive_passes(self, suite_seed, index, kind):
        # instance `index` of `modmark suite --trials 40 --seed <suite_seed>
        # --dims 6,8,3x3,4x2x1 --min-gap 0`: at kappa ~ 1e5 to 1e6 the
        # adjoint_consistency roundoff, up to ~50 eps kappa, is above 1e-9
        spec = GenSpec(kind, (6,), seed=derive_seed(suite_seed, index),
                       params={"min_gap": 0.0})
        ch = build_channel(spec).channel
        assert max(ch.source.state.kappa, ch.target.state.kappa) > 1e5
        report = verify_channel(ch, kind=kind,
                                z_samples=sample_z(derive_seed(suite_seed, index, 101)),
                                gns_seed=derive_seed(suite_seed, index, 102))
        assert report.residuals["adjoint_consistency"] > PINNED_TOL["adjoint_consistency"]
        assert report.unexpected_failures == []


class TestModularInvariants:
    @pytest.mark.parametrize("dims", [(2,), (4,), (3, 1)])
    def test_axioms_hold(self, dims):
        state = random_faithful_state(BlockAlgebra(dims), 9, 0.05)
        res = modular_invariants(System(state).modular, seed=5)
        tol = 1e-10 * state.kappa
        assert res, "expected a nonempty residual map"
        for key, value in res.items():
            assert value <= tol, f"{key} -> {value}"


class TestVerifyChannel:
    def test_report_structure(self, schur):
        rep = verify_channel(schur, kind="schur", instance_id="x", seed=1)
        assert rep.passed and not rep.failed_keys
        for key in ("eq32_t", "thm_i_s", "thm_ii", "thm_iii", "thm_commute_z",
                    "kadison_norm", "adjoint_consistency", "petz_match",
                    "omega_map", "markov_modular"):
            assert key in rep.residuals and key in rep.tolerances
        assert all(np.isfinite(v) and v >= 0 for v in rep.residuals.values())

    def test_negative_expected_failures(self, negative):
        rep = verify_channel(negative, kind="sp_ucp", instance_id="n", seed=11)
        assert "thm_ii" in rep.expected_failures
        assert "markov_modular" in rep.expected_failures
        assert not rep.unexpected_failures
        assert rep.acceptable and not rep.passed

    def test_unknown_kind_failures_are_unexpected(self, negative):
        rep = verify_channel(negative, kind=None, instance_id="n2", seed=11)
        assert rep.unexpected_failures

    @pytest.mark.parametrize("kind,dims", [("pinch", (2, 2)), ("sp_ucp", (3,))])
    def test_residual_order_is_pinned(self, kind, dims):
        # a suite summary lists each report's failures in this order, so a
        # permutation changes the suite bytes with every value equal
        ch = build_channel(GenSpec(kind, dims, 11, {"min_gap": 0.05})).channel
        rep = verify_channel(ch, kind=kind)
        assert list(rep.residuals) == REPORT_KEY_ORDER
        # failed_keys, and through it both failure lists, walk the verdicts
        assert list(rep.verdicts) == REPORT_KEY_ORDER
        assert rep.tolerances.keys() == rep.residuals.keys()
        if kind == "sp_ucp":
            assert rep.expected_failures == [
                "markov_modular", "eq32_t", "thm_i_s", "thm_ii", "thm_commute_z",
                "adjoint_consistency", "petz_match"]
        else:
            assert rep.passed


class TestRunSuite:
    def test_small_suite_passes(self):
        result = run_suite(SuiteConfig(trials=8, seed=1, dims_list=((2,), (3,))))
        assert result.exit_ok
        assert result.summary["instances"] == 8
        assert not result.summary["unexpected_failures"]

    def test_genspec_is_the_serialized_spec(self):
        config = SuiteConfig(trials=2, seed=4, kinds=("pinch",),
                             dims_list=((2, 2),), min_gap=0.1)
        for i, report in enumerate(run_suite(config).reports):
            spec = GenSpec("pinch", (2, 2), seed=derive_seed(4, i),
                           params={"min_gap": 0.1})
            assert report.genspec == genspec_to_json(spec)

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(trials=0))

    def test_single_identity_trial(self):
        result = run_suite(SuiteConfig(trials=1, seed=0, kinds=("identity",),
                                       dims_list=((2,),)))
        assert result.reports[0].passed

    def test_sp_ucp_suite_expected_failures(self):
        result = run_suite(SuiteConfig(trials=3, seed=2, kinds=("sp_ucp",),
                                       dims_list=((2,), (3,))))
        assert result.exit_ok
        assert result.summary["expected_failures"]
        for rep in result.reports:
            assert set(rep.unexpected_failures) == set()
            assert rep.residuals["markov_unital"] <= 1e-10
            assert rep.residuals["markov_state"] <= 1e-10
            assert rep.residuals["thm_iii"] <= rep.tolerances["thm_iii"]
            assert rep.residuals["kadison_norm"] <= 1e-10

    def test_negative_monotonicity(self):
        # corpus-level link between the flow residual and the conjugation
        # intertwining defect
        result = run_suite(SuiteConfig(trials=5, seed=5, kinds=("sp_ucp",),
                                       dims_list=((2,), (3,))))
        for rep in result.reports:
            if rep.residuals["markov_modular"] > 1e-3:
                assert rep.residuals["thm_ii"] > 1e-6

    def test_schur_dims_compatibility(self):
        result = run_suite(SuiteConfig(trials=6, seed=3, kinds=("schur",),
                                       dims_list=((2, 2), (3,))))
        for rep in result.reports:
            assert len(rep.dims) == 1  # multi-block dims are skipped for schur

    def test_byte_identical_reports(self):
        config = SuiteConfig(trials=6, seed=7)
        a = dumps_canonical(suite_result_to_json(run_suite(config)))
        b = dumps_canonical(suite_result_to_json(run_suite(config)))
        assert a == b

    def test_generator_refusal_propagates(self, monkeypatch):
        def refuse(source, target, seed, **kwargs):
            raise NoConvergence("eigendecomposition misses its accuracy contract")

        monkeypatch.setattr(gens, "sp_ucp", refuse)
        for kind in ("sp_ucp", "twirl"):
            with pytest.raises(NoConvergence):
                build_channel(GenSpec(kind, (2,), seed=0))
            with pytest.raises(NoConvergence):
                run_suite(SuiteConfig(trials=1, seed=0, kinds=(kind,),
                                      dims_list=((2,),)))

    def test_cross_state_and_cross_dims_channels(self):
        # feasibility generator and full pipeline on mismatched endpoints
        src = System(random_faithful_state(BlockAlgebra((2,)), 61, 0.05))
        tgt = System(random_faithful_state(BlockAlgebra((3,)), 62, 0.05))
        ch = sp_ucp(src, tgt, 5)
        rep_neg = verify_channel(ch, kind="sp_ucp", instance_id="cross", seed=5)
        assert rep_neg.residuals["markov_unital"] <= 1e-10
        assert rep_neg.residuals["markov_state"] <= 1e-10
        assert not rep_neg.unexpected_failures
        scalar = state_to_scalar(src, tgt)
        rep = verify_channel(scalar, kind="state_to_scalar",
                             instance_id="cross-scalar", seed=5)
        assert rep.passed

    def test_error_propagation_envelope(self):
        # empirical constant: membership at tolerance tau keeps the
        # flow-dependent residuals within 100 * tau
        result = run_suite(SuiteConfig(trials=10, seed=11))
        for rep in result.reports:
            tau = rep.tolerances["markov_modular"]
            if rep.residuals["markov_modular"] <= tau:
                assert rep.residuals["thm_ii"] <= 100.0 * tau
                assert rep.residuals["eq32_t"] <= 100.0 * tau


class TestSampleZ:
    def test_bounds_and_determinism(self):
        zs = sample_z(3, count=32)
        assert zs == sample_z(3, count=32)
        assert all(abs(z.real) <= 1.0 and abs(z.imag) <= 5.0 for z in zs)
        assert len(zs) == 32


class TestMembershipTolerances:
    """check_markov, its `require` gate and the report's markov_* entries
    read one tolerance per membership residual: the same float, whatever
    MODMARK_TOL says."""

    @pytest.mark.parametrize("env", [None, "3e-9", "1e3"])
    def test_one_definition(self, monkeypatch, env):
        if env is None:
            monkeypatch.delenv("MODMARK_TOL", raising=False)
        else:
            monkeypatch.setenv("MODMARK_TOL", env)
        ch = build_channel(GenSpec("pinch", (3,), seed=4)).channel
        tol = check_markov(ch).tolerances
        report = verify_channel(ch, kind="pinch", instance_id="pinch-3", seed=4)
        for k in ("unital", "cp", "state", "modular"):
            assert report.tolerances["markov_" + k] == tol[k]
        # require refuses a key exactly when its residual is not <= tol[k]:
        # at tol[k] it passes, one ulp above and at nan it refuses, naming it
        MarkovCheck(dict(tol), tol).require("test")
        for k in MEMBERSHIP_KEYS:
            for bad in (float(np.nextafter(tol[k], np.inf)), float("nan")):
                with pytest.raises(NotMarkov, match=f"{k} residual") as err:
                    MarkovCheck({**tol, k: bad}, tol).require("test")
                assert all(f"{j} residual" not in str(err.value)
                           for j in MEMBERSHIP_KEYS if j != k)


class TestMembershipIsSampleFree:
    """markov_modular is `check_markov`'s generator row: the report gives the
    same float whatever t samples eq32_t takes."""

    @pytest.mark.parametrize("kind,dims", [("sp_ucp", (2,)), ("sp_ucp", (2, 2)),
                                           ("twirl", (3,)), ("state_to_scalar", (3, 1))])
    def test_report_equals_check_markov(self, kind, dims):
        ch = build_channel(GenSpec(kind, dims, seed=4)).channel
        want = check_markov(ch).residuals["modular"]
        for ts in [(1.0,), (0.37, 5.0), (1.0, -1.0, 0.37, -0.37, 5.0, -5.0), (0.0, 2.5)]:
            report = verify_channel(ch, t_samples=ts)
            assert report.residuals["markov_modular"] == want, ts


class TestFlowToleranceWiring:
    """Each sampled key's tolerance takes the condition scale of its own
    samples: thm_commute_z kappa**max|Re z|, the real-power keys kappa**max|s|;
    adjoint_consistency takes kappa itself and petz_match no scale."""

    def test_scales_follow_their_samples(self):
        qubit = System(FaithfulState(AlgebraElement(M2, [np.diag([0.999, 0.001])])))
        ch = schur_channel(qubit, np.array([[1.0, 0.5], [0.5, 1.0]]))
        kappa = qubit.state.kappa
        report = verify_channel(ch, s_values=(0.5,), z_samples=[0.4 + 2.0j, -1.5 + 0.3j])
        f = tolerance_factor()
        scale_z, scale_s = power_condition_scale(kappa, 1.5), power_condition_scale(kappa, 0.5)
        assert scale_z > 100 * scale_s  # kappa >> 1: a swapped scale shows
        tol = report.tolerances
        assert tol["thm_commute_z"] == pytest.approx(
            PINNED_TOL["thm_commute_z"] * f * scale_z, rel=1e-12)
        for key in ("thm_i_s", "thm_ii", "thm_iii"):
            assert tol[key] == pytest.approx(PINNED_TOL[key] * f * scale_s, rel=1e-12)
        assert tol["eq32_t"] == pytest.approx(PINNED_TOL["eq32_t"] * f, rel=1e-12)
        assert tol["adjoint_consistency"] == pytest.approx(
            PINNED_TOL["adjoint_consistency"] * f * kappa, rel=1e-12)
        assert tol["petz_match"] == pytest.approx(PINNED_TOL["petz_match"] * f, rel=1e-12)
