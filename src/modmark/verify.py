"""Residual suites for the GNS-extension identities.

Each suite turns an operator identity into a named nonnegative residual with
a recorded tolerance, so a report reader can audit every pass/fail.  Residual
keys, fixed as the report schema:

    markov_unital / markov_cp / markov_state / markov_modular
        the four membership residuals of the channel itself
    eq32_t         |T U_s(t) - U_t(t) T|  over sampled t (unitary flow level)
    thm_i_s        |Delta_t^{-s} T Delta_s^{s} - T|  over sampled real s
    thm_ii         |J_t T J_s - T|  (conjugation intertwining)
    thm_iii        S_t T S_s = T on the embedded unit basis
    thm_commute_z  |T Delta_s^{z} - Delta_t^{z} T|  over sampled complex z
    kadison_norm   max(0, |T|_op - 1)
    omega_map      |T Omega_source - Omega_target|
    adjoint_consistency  |T^+ - T_{adjoint channel}|
    petz_match     distance between asymmetric and symmetric adjoint forms
    gns_*          modular axioms of the endpoint states themselves

Instances that fail the flow condition on purpose (kind sp_ucp) are expected
to fail exactly the flow-dependent keys; those failures are reported in an
expected section and do not count against a suite run.

Every residual is computed in the density eigenframes (`ModularData.frame`),
where multiplying by D^p on the left (right) is the diagonal lambda_a^p
(lambda_b^p) and Delta^z is exp(z omega).  Each channel caches one matrix
there, X = G_t ch G_s^+ (`Channel.eigen_superop`), and the extension
T_eig = G_t T G_s^+ is a diagonal reweighting of it (`eigen_extension`).
The flow keys are norms of masked copies of T_eig, thm_ii permutes its
indices, and both adjoint keys are norms of X^+ times eigenvalue weights.
The explicit kron-product and per-unit routes are kept as test oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import random_element
from .errors import NotMarkov
from .generators import GenSpec, build_channel, derive_seed
from .gns import GnsVector, ModularData, left_act
from .linalg import max_column_norm, op_norm, power_condition_scale, tolerance_factor
from .markov import (
    Channel,
    adjoint_index,
    check_markov,
    eigen_extension,
    modular_tolerance_scale,
)
from .serialize import genspec_to_json

DEFAULT_EQ32_T = (1.0, -1.0, 0.37, -0.37, 5.0, -5.0)
DEFAULT_S_VALUES = (1.0, -1.0, 0.5, -0.5)
DEFAULT_Z_COUNT = 16

POSITIVE_KINDS = ("identity", "schur", "pinch", "block_expectation",
                  "state_to_scalar", "automorphism", "twirl", "convex")

# Flow-dependent keys: exactly the identities that need the channel to
# intertwine the flows, so deliberately non-commuting instances are expected
# to fail these and only these.
FLOW_DEPENDENT_KEYS = frozenset({
    "markov_modular", "eq32_t", "thm_i_s", "thm_commute_z", "thm_ii",
    "adjoint_consistency", "petz_match",
})

EXPECTED_FAIL_BY_KIND = {"sp_ucp": FLOW_DEPENDENT_KEYS}

# Pinned verdict tolerances: value = pinned base, scaled at report time by
# the MODMARK_TOL factor and by the recorded condition scale.
PINNED_TOL = {
    "markov_unital": 1e-9,
    "markov_cp": 1e-9,
    "markov_state": 1e-9,
    "markov_modular": 1e-9,
    "eq32_t": 1e-10,
    "thm_i_s": 1e-8,
    "thm_ii": 1e-8,
    "thm_iii": 1e-8,
    "thm_commute_z": 1e-8,
    "kadison_norm": 1e-10,
    "omega_map": 1e-10,
    "adjoint_consistency": 1e-9,
    "petz_match": 1e-9,
    "gns": 1e-10,
}


def sample_z(seed: int, count: int = DEFAULT_Z_COUNT, re_max: float = 1.0,
             im_max: float = 5.0) -> list[complex]:
    """Deterministic complex exponent samples with |Re| <= re_max, |Im| <= im_max."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-re_max, re_max, size=count)
    im = rng.uniform(-im_max, im_max, size=count)
    return [complex(a, b) for a, b in zip(re, im)]


def delta_power_superop(md: ModularData, z: complex) -> np.ndarray:
    """Explicit coordinate matrix of xi |-> D^z xi D^{-z}, G^+ exp(z w) G."""
    g = md.frame
    return g.conj().T @ (md.delta_power_diagonal(z)[:, None] * g)


def _ensure_markov(ch: Channel) -> None:
    mc = check_markov(ch)
    if not mc.passed:
        failing = {k: v for k, v in mc.residuals.items() if not mc.verdicts[k]}
        raise NotMarkov(f"channel fails membership residuals {failing}")


def verify_crucial(ch: Channel, t_samples=DEFAULT_EQ32_T,
                   require_markov: bool = True) -> float:
    """Max residual of T U_source(t) = U_target(t) T over the sampled t."""
    if require_markov:
        _ensure_markov(ch)
    return _commute_residual(eigen_extension(ch), ch, [1j * float(t) for t in t_samples])


def verify_commute(ch: Channel, z_samples, s_values=DEFAULT_S_VALUES,
                   require_markov: bool = True) -> tuple[float, float]:
    """(complex-power intertwining residual, real-power twist residual).

    First entry: max over sampled z of |T Delta_s^z - Delta_t^z T|.  Second:
    max over sampled real s of |Delta_t^{-s} T Delta_s^{s} - T|, the
    twist-invariance form of the same identity.
    """
    if require_markov:
        _ensure_markov(ch)
    t_eig = eigen_extension(ch)
    return (_commute_residual(t_eig, ch, z_samples),
            _twist_residual(t_eig, ch, s_values))


def _commute_residual(t_eig: np.ndarray, ch: Channel, z_samples) -> float:
    """max_z |T_eig * (exp(z w_s)[None, :] - exp(z w_t)[:, None])|."""
    md_s, md_t = ch.source.modular, ch.target.modular
    res = 0.0
    for z in z_samples:
        mask = (md_s.delta_power_diagonal(z)[None, :]
                - md_t.delta_power_diagonal(z)[:, None])
        res = max(res, op_norm(t_eig * mask))
    return res


def _twist_residual(t_eig: np.ndarray, ch: Channel, s_values) -> float:
    """max_s |T_eig * (exp(-s w_t)[:, None] exp(s w_s)[None, :] - 1)|."""
    md_s, md_t = ch.source.modular, ch.target.modular
    res = 0.0
    for s in s_values:
        mask = (md_s.delta_power_diagonal(float(s))[None, :]
                * md_t.delta_power_diagonal(-float(s))[:, None] - 1.0)
        res = max(res, op_norm(t_eig * mask))
    return res


def verify_modular_symmetry(ch: Channel,
                            require_markov: bool = True) -> tuple[float, float]:
    """(conjugation intertwining residual, involution intertwining residual).

    The conjugation identity J_t T J_s = T is an operator-norm statement: the
    linear matrix of the conjugate-linear composition is P_t conj(T) P_s.
    The involution identity S_t T S_s = T is checked on the embedded unit
    basis because S is conjugate-linear and determined there.
    """
    if require_markov:
        _ensure_markov(ch)
    t_eig = eigen_extension(ch)
    return _conjugation_residual(t_eig, ch), _involution_residual(t_eig, ch)


def _conjugation_residual(t_eig: np.ndarray, ch: Channel) -> float:
    """|P_t conj(T_eig) P_s - T_eig|: the adjoint permutation commutes with
    the frame, V^+ x^+ V = (V^+ x V)^+, so it applies to T_eig as to T."""
    p_s = adjoint_index(ch.source.algebra)
    p_t = adjoint_index(ch.target.algebra)
    return op_norm(t_eig.conj()[p_t][:, p_s] - t_eig)


def _involution_residual(t_eig: np.ndarray, ch: Channel) -> float:
    """max over source matrix units E of |S_t T S_s (E Omega) - T (E Omega)|.

    With A = Delta^{1/2} and P the adjoint permutation, S v = P conj(A v), so
    the defect on the embedded units is the max column norm of
    (P_t conj(A_t T P_s) A_s - T) R_s, R_s the right multiplication by
    D_s^{1/2}.  In the eigenframes A is the diagonal exp(w/2), P A = A^{-1} P
    and R_s is sqrt(lambda_b) on entry (a, b), so only the last product
    leaves the frame.
    """
    md_s, md_t = ch.source.modular, ch.target.modular
    p_s = adjoint_index(ch.source.algebra)
    p_t = adjoint_index(ch.target.algebra)
    lhs = (md_t.delta_power_diagonal(-0.5)[:, None]
           * t_eig.conj()[p_t][:, p_s]
           * md_s.delta_power_diagonal(0.5)[None, :])
    r_s = np.sqrt(md_s.lambda_b)
    return max_column_norm(((lhs - t_eig) * r_s[None, :]) @ md_s.frame)


def verify_adjoint(ch: Channel,
                   require_markov: bool = True) -> tuple[float, float, float]:
    """(adjoint consistency, symmetric-form match, norm excess).

    adjoint consistency: |T^+ - T_{ch*}| with ch* the state-twisted adjoint.
    symmetric-form match: superoperator distance between the asymmetric
    adjoint and the symmetric (Petz) form; the two coincide exactly on
    flow-commuting channels.  norm excess: max(0, |T|_op - 1).
    """
    if require_markov:
        _ensure_markov(ch)
    return _adjoint_residuals(eigen_extension(ch), ch)


def _adjoint_residuals(t_eig: np.ndarray,
                       ch: Channel) -> tuple[float, float, float]:
    """The `verify_adjoint` triple.  In the frame T^+, the adjoint channel
    ch* = D_s^{-1} ch^+(D_t .), its extension and the Petz form are all
    X^+ = `ch.eigen_superop`^+ weighted by eigenvalues of row i (source)
    and column j (target)."""
    md_s, md_t = ch.source.modular, ch.target.modular
    x_h = ch.eigen_superop.conj().T
    la_s, rb_s = md_s.lambda_a[:, None], np.sqrt(md_s.lambda_b)[:, None]
    la_t, rb_t = md_t.lambda_a[None, :], np.sqrt(md_t.lambda_b)[None, :]
    # T^+ minus the extension of ch*
    consistency = rb_t / rb_s - (rb_s / la_s) * (la_t / rb_t)
    # ch* minus the Petz form D_s^{-1/2} ch^+(D_t^{1/2} y D_t^{1/2}) D_s^{-1/2}
    petz = la_t / la_s - np.sqrt(la_t) * rb_t / (np.sqrt(la_s) * rb_s)
    return (op_norm(x_h * consistency), op_norm(x_h * petz),
            max(0.0, op_norm(t_eig) - 1.0))


def _omega_residual(t_eig: np.ndarray, ch: Channel) -> float:
    """|T Omega_s - Omega_t|; in the frame Omega = D^{1/2} is sqrt(lambda_a)
    on the diagonal entries (a, a) and 0 elsewhere."""
    def omega(md: ModularData) -> np.ndarray:
        diag = np.concatenate([np.eye(e.dim).ravel() for e in md.d_eig])
        return diag * np.sqrt(md.lambda_a)
    return float(np.linalg.norm(
        t_eig @ omega(ch.source.modular) - omega(ch.target.modular)))


# ---------------------------------------------------------------------------
# modular axioms of a single state
# ---------------------------------------------------------------------------

def modular_invariants(md: ModularData, seed: int = 0,
                       t_samples=(0.7, -1.0, 5.0)) -> dict[str, float]:
    """Residuals of the modular axioms on seeded unit test vectors."""
    alg = md.algebra
    xs = []
    for i, kind in ((21, "general"), (22, "hermitian")):
        x = random_element(alg, derive_seed(seed, i), kind)
        xs.append(x * (1.0 / x.norm()))
    vecs = []
    for i in (23, 24):
        e = random_element(alg, derive_seed(seed, i), "general")
        v = GnsVector(alg, e.blocks)
        vecs.append(v * (1.0 / v.norm()))
    xi, eta = vecs
    out = {}

    r = 0.0
    for v in vecs:  # polar pieces agree: J Delta^{1/2} = Delta^{-1/2} J
        r = max(r, (md.apply_J(md.delta_power(0.5, v))
                    - md.delta_power(-0.5, md.apply_J(v))).norm())
    for x in xs:    # and S sends x Omega to x^+ Omega
        r = max(r, (md.apply_S(md.embed(x)) - md.embed(x.adjoint())).norm())
    out["gns_s_polar"] = r

    out["gns_delta_ss"] = abs(md.delta_power(1.0, xi).inner(eta)
                              - md.apply_S(eta).inner(md.apply_S(xi)))

    out["gns_j_involution"] = max(
        (md.apply_J(md.apply_J(v)) - v).norm() for v in vecs)

    out["gns_j_antiunitary"] = abs(
        md.apply_J(xi).inner(md.apply_J(eta)) - eta.inner(xi))

    out["gns_jdj_inverse"] = max(
        (md.apply_J(md.delta_power(1.0, md.apply_J(v)))
         - md.delta_power(-1.0, v)).norm() for v in vecs)

    r = (md.apply_J(md.omega) - md.omega).norm()
    for t in t_samples:
        r = max(r, (md.delta_power(1j * t, md.omega) - md.omega).norm())
    out["gns_omega_fixed"] = r

    r = 0.0
    for t in t_samples:
        for v in vecs:
            r = max(r, (md.delta_power(1j * t, md.apply_J(v))
                        - md.apply_J(md.delta_power(1j * t, v))).norm())
    out["gns_delta_it_j"] = r

    y = random_element(alg, derive_seed(seed, 25), "general")
    y = y * (1.0 / y.norm())
    r = 0.0
    for x in xs:
        for v in vecs:  # left action commutes with J y J (the right action)
            jyj = md.apply_J(left_act(y, md.apply_J(v)))
            lhs = left_act(x, jyj)
            rhs = md.apply_J(left_act(y, md.apply_J(left_act(x, v))))
            r = max(r, (lhs - rhs).norm())
    out["gns_commutant"] = r

    r = 0.0
    for t in t_samples:
        for x in xs:
            r = max(r, (md.embed(md.modular_flow(t, x))
                        - md.delta_power(1j * t, md.embed(x))).norm())
    out["gns_flow_embed"] = r
    return out


# ---------------------------------------------------------------------------
# per-instance report and suite driver
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    instance_id: str
    kind: str | None
    seed: int | None
    dims: tuple[int, ...]
    residuals: dict[str, float]
    tolerances: dict[str, float]
    verdicts: dict[str, bool]
    expected_fail: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    genspec: dict | None = None
    timing: float = 0.0

    @property
    def failed_keys(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]

    @property
    def unexpected_failures(self) -> list[str]:
        return [k for k in self.failed_keys if k not in self.expected_fail]

    @property
    def expected_failures(self) -> list[str]:
        return [k for k in self.failed_keys if k in self.expected_fail]

    @property
    def passed(self) -> bool:
        return not self.failed_keys

    @property
    def acceptable(self) -> bool:
        return not self.unexpected_failures


def _report_tolerances(kappa: float, max_s: float, max_re_z: float,
                       modular_scale: float, gns_keys) -> dict[str, float]:
    f = tolerance_factor()
    kappa_s = power_condition_scale(kappa, max_s)
    kappa_z = power_condition_scale(kappa, max_re_z)
    tol = {
        "markov_unital": PINNED_TOL["markov_unital"] * f,
        "markov_cp": PINNED_TOL["markov_cp"] * f,
        "markov_state": PINNED_TOL["markov_state"] * f,
        "markov_modular": PINNED_TOL["markov_modular"] * f * modular_scale,
        "eq32_t": PINNED_TOL["eq32_t"] * f,
        "thm_i_s": PINNED_TOL["thm_i_s"] * f * kappa_s,
        "thm_ii": PINNED_TOL["thm_ii"] * f * kappa_s,
        "thm_iii": PINNED_TOL["thm_iii"] * f * kappa_s,
        "thm_commute_z": PINNED_TOL["thm_commute_z"] * f * kappa_z,
        "kadison_norm": PINNED_TOL["kadison_norm"] * f,
        "omega_map": PINNED_TOL["omega_map"] * f,
        "adjoint_consistency": PINNED_TOL["adjoint_consistency"] * f,
        "petz_match": PINNED_TOL["petz_match"] * f,
    }
    for key in gns_keys:
        tol[key] = PINNED_TOL["gns"] * f * power_condition_scale(kappa, 1.0)
    return tol


def verify_channel(ch: Channel, *, kind: str | None = None,
                   instance_id: str = "instance", seed: int | None = None,
                   flags: tuple[str, ...] = (),
                   t_samples=DEFAULT_EQ32_T, s_values=DEFAULT_S_VALUES,
                   z_samples=None, sample_seed: int = 0,
                   gns_seed: int = 0) -> VerificationReport:
    """Full per-instance pipeline: membership, every intertwining suite, and
    the modular axioms of both endpoint states."""
    t0 = time.perf_counter()
    if z_samples is None:
        z_samples = sample_z(sample_seed)
    mc = check_markov(ch, t_samples=[t for t in t_samples if t != 0])
    t_eig = eigen_extension(ch)
    md_s, md_t = ch.source.modular, ch.target.modular

    residuals: dict[str, float] = {
        "markov_" + k: v for k, v in mc.residuals.items()}
    residuals["eq32_t"] = _commute_residual(t_eig, ch, [1j * float(t) for t in t_samples])
    residuals["thm_i_s"] = _twist_residual(t_eig, ch, s_values)
    residuals["thm_ii"] = _conjugation_residual(t_eig, ch)
    residuals["thm_iii"] = _involution_residual(t_eig, ch)
    residuals["thm_commute_z"] = _commute_residual(t_eig, ch, z_samples)
    adjc, petz, kad = _adjoint_residuals(t_eig, ch)
    residuals["adjoint_consistency"] = adjc
    residuals["petz_match"] = petz
    residuals["kadison_norm"] = kad
    residuals["omega_map"] = _omega_residual(t_eig, ch)

    inv_s = modular_invariants(md_s, seed=gns_seed)
    inv_t = modular_invariants(md_t, seed=derive_seed(gns_seed, 1))
    gns_keys = sorted(inv_s)
    for key in gns_keys:
        residuals[key] = max(inv_s[key], inv_t[key])

    kappa = max(md_s.kappa, md_t.kappa)
    tolerances = _report_tolerances(
        kappa,
        max_s=max((abs(float(s)) for s in s_values), default=0.0),
        max_re_z=max((abs(complex(z).real) for z in z_samples), default=0.0),
        modular_scale=modular_tolerance_scale(ch),
        gns_keys=gns_keys,
    )
    verdicts = {k: residuals[k] <= tolerances[k] for k in residuals}
    expected = tuple(sorted(EXPECTED_FAIL_BY_KIND.get(kind, frozenset())))
    return VerificationReport(
        instance_id=instance_id,
        kind=kind,
        seed=seed,
        dims=ch.source.algebra.block_dims,
        residuals=residuals,
        tolerances=tolerances,
        verdicts=verdicts,
        expected_fail=expected,
        flags=flags,
        timing=time.perf_counter() - t0,
    )


@dataclass
class SuiteConfig:
    trials: int = 10
    seed: int = 0
    dims_list: tuple[tuple[int, ...], ...] = ((2,), (3,), (4,), (2, 2), (3, 1))
    kinds: tuple[str, ...] = POSITIVE_KINDS
    min_gap: float = 0.05
    t_samples: tuple[float, ...] = DEFAULT_EQ32_T
    s_values: tuple[float, ...] = DEFAULT_S_VALUES
    z_count: int = DEFAULT_Z_COUNT


@dataclass
class SuiteResult:
    config: SuiteConfig
    reports: list[VerificationReport]
    summary: dict = field(default_factory=dict)

    @property
    def exit_ok(self) -> bool:
        return not self.summary.get("unexpected_failures")


def _compatible_dims(kind: str, dims: tuple[int, ...]) -> bool:
    if kind == "schur":
        return len(dims) == 1
    return True


def _pick_dims(kind: str, index: int, config: SuiteConfig) -> tuple[int, ...]:
    dims_list = config.dims_list
    start = (index // len(config.kinds)) % len(dims_list)
    for step in range(len(dims_list)):
        dims = dims_list[(start + step) % len(dims_list)]
        if _compatible_dims(kind, dims):
            return dims
    raise ValueError(f"no dims in {dims_list} compatible with kind {kind!r}")


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Generate, verify, and summarize `trials` instances.

    Deterministic per (config, seed): instance seeds, sample draws, and
    report assembly order are all derived from the config seed.
    """
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    reports = []
    for i in range(config.trials):
        kind = config.kinds[i % len(config.kinds)]
        dims = _pick_dims(kind, i, config)
        spec = GenSpec(kind, dims, seed=derive_seed(config.seed, i),
                       params={"min_gap": config.min_gap})
        built = build_channel(spec)
        instance_id = f"{i:04d}-{kind}-{'x'.join(map(str, dims))}"
        report = verify_channel(
            built.channel,
            kind=kind,
            instance_id=instance_id,
            seed=spec.seed,
            flags=built.flags,
            t_samples=config.t_samples,
            s_values=config.s_values,
            z_samples=sample_z(derive_seed(config.seed, i, 101), config.z_count),
            gns_seed=derive_seed(config.seed, i, 102),
        )
        report.genspec = genspec_to_json(spec)
        reports.append(report)
    reports.sort(key=lambda r: r.instance_id)
    return SuiteResult(config, reports, _summarize(reports))


def _summarize(reports: list[VerificationReport]) -> dict:
    """Aggregate reports.  Instances flagged by their generator (iteration
    budget exhausted) are listed under "flagged" and kept out of the
    unexpected-failure accounting: they are flagged, not failed."""
    keys = sorted({k for r in reports for k in r.residuals})
    max_res = {k: max((r.residuals[k] for r in reports if k in r.residuals),
                      default=0.0) for k in keys}
    unexpected = [{"instance": r.instance_id, "check": k,
                   "residual": r.residuals[k], "tolerance": r.tolerances[k]}
                  for r in reports if not r.flags
                  for k in r.unexpected_failures]
    expected = [{"instance": r.instance_id, "check": k,
                 "residual": r.residuals[k], "tolerance": r.tolerances[k]}
                for r in reports for k in r.expected_failures]
    return {
        "instances": len(reports),
        "max_residuals": max_res,
        "unexpected_failures": unexpected,
        "expected_failures": expected,
        "flagged": [r.instance_id for r in reports if r.flags],
    }


__all__ = [
    "DEFAULT_EQ32_T",
    "DEFAULT_S_VALUES",
    "DEFAULT_Z_COUNT",
    "POSITIVE_KINDS",
    "FLOW_DEPENDENT_KEYS",
    "EXPECTED_FAIL_BY_KIND",
    "PINNED_TOL",
    "sample_z",
    "delta_power_superop",
    "verify_crucial",
    "verify_commute",
    "verify_modular_symmetry",
    "verify_adjoint",
    "modular_invariants",
    "VerificationReport",
    "verify_channel",
    "SuiteConfig",
    "SuiteResult",
    "run_suite",
]
