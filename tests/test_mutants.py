"""Mutants of the gns_* layer, of the symmetry pass, of the certificates
of `linalg.certified_value`, of the rule every certified key is read by
(`linalg.settle`), of the flow masks, of the flow-pass bounds and their
pruning rule, of markov_modular's generator row, of kadison_norm's sector
bound and the adjoint pair's weights, of the membership layer, and of the
canonical JSON writer: are the stacked pass over both endpoint states, the
one permuted conjugate behind thm_ii and thm_iii, the Cholesky certificates
behind kadison_norm and sp_ucp's Choi blocks, the Frobenius and fail-step bracket of a norm, the rule
that reads a value off its brackets, the commute and twist masks, the
one-GEMM mask bounds, the certify-and-prune rule, markov_modular's masked rows,
the sector bound, the eigenvalue weights, markov_cp's Choi sectors, the
Choi reshape, the trace dual, the one refusal of a channel outside the
class, and the writer's escape guards, placeholder
count and payload order wired so that a wrong piece shows?

Each mutant replaces one private piece of `verify` or `ModularData` by
monkeypatching and runs `verify_channel`.  A gns_* mutant runs on a fixed
channel whose endpoints have different carrier dimensions (so the target is
zero-padded in the joint pass); it either flips at least one gns_* verdict,
or it is listed as equivalent, with the argument why no gns_* verdict can
move, and then the test holds it to that: every gns_* verdict stays as it
was.  A symmetry mutant runs on a corpus of positives and two sp_ucp
channels and must flip each of its `must_flip` keys on some instance.  A
certificate mutant runs `certified_value` on direct 120 x 120 matrix
cases and must flip a verdict, change a value or change
the number of dense fallbacks (full-size svd or eigvalsh calls) on one.  A
bound mutant edits the source of `verify._flow_bounds` and recompiles it,
and the tests of tests/test_oracles.py it names must then fail.  A prune
mutant does the same to `verify._bounded_maxima`, a norm mutant to
`linalg.certified_value`, a settle mutant to `linalg.settle` (its killers
in tests/test_linalg.py and tests/test_oracles.py), a flow mutant to
`verify._flow_residuals`, a modular mutant to
`markov.modular_commutation_residual`, a sector mutant to
`verify._sector_bound`, `verify._adjoint_residuals` or the radius of the
one frequency labelling, `gns.label_radius` (its killers the relabelled
twins of tests/test_relabel.py and the twirl's membership in
tests/test_generators.py), a membership
mutant to `markov._sector_min_eigenvalue`, `markov._choi_sectors`,
`markov.to_choi`, `markov.trace_dual` or `markov.check_markov`, which
holds the keys each gate asks for and so decides what `MarkovCheck.require`
refuses on (its killers rows of the refusal table in
tests/test_markov.py), and a writer mutant to
`serialize._needs_no_escape`, `serialize._skeleton` or
`serialize.dumps_canonical` (its killers are `TestWriterOracle` cases,
which compare the text with a hand-written encoder); one listed as
equivalent, with the argument why no verdict, or no value or count, can
move, must pass the tests it names instead.
"""

import inspect
import sys
import textwrap
from dataclasses import dataclass

import numpy as np
import pytest

from modmark import gns, linalg, markov, serialize, verify
from modmark.generators import GenSpec, build_channel, derive_seed
from modmark.gns import ModularData
from modmark.verify import verify_channel

import test_generators
import test_linalg
import test_markov
import test_oracles
import test_relabel
from test_oracles import SKEW_BROKEN_KEYS, SkewedPowers

SPEC = GenSpec("state_to_scalar", (3, 1), 3, {"target_dims": [2]})


def _channel(broken_target: bool):
    ch = build_channel(SPEC).channel
    if broken_target:
        ch.target.__dict__["modular"] = SkewedPowers(ch.target.state, skew_seed=97)
    return ch


def _gns_verdicts(ch) -> dict[str, bool]:
    rep = verify_channel(ch, gns_seed=1)
    return {k: v for k, v in rep.verdicts.items() if k.startswith("gns_")}


def _powers_at(mapping):
    """d_power_stack with each exponent z replaced by mapping(z)."""
    original = ModularData.d_power_stack

    def d_power_stack(self, zs):
        return original(self, tuple(mapping(complex(z)) for z in zs))
    return d_power_stack


def _general_draws(md, seed):
    """`_gns_draws` with the Hermitian slot left general."""
    alg = md.algebra
    c = alg.carrier_dim
    g = np.random.default_rng(derive_seed(seed, 21)).standard_normal((2, 5, c, c))
    labels = np.repeat(np.arange(alg.num_blocks), alg.block_dims)
    e = (g[0] + 1j * g[1]) * (labels[:, None] == labels[None, :])
    return e / np.linalg.norm(e, axis=(-2, -1))[:, None, None]


def _identity_pad(stack, size):
    c = stack.shape[-1]
    out = np.broadcast_to(np.eye(size, dtype=np.complex128), stack.shape[:-2] + (size, size)).copy()
    out[..., :c, :c] = stack
    return out


_joint = verify._modular_axioms


@dataclass(frozen=True)
class Mutant:
    target: object          # module or class the attribute lives on
    attribute: str
    replacement: object
    # None: the mutant must flip a gns_* verdict; else why it cannot
    equivalent: str | None = None
    # the fixed channel's target state carries `SkewedPowers`
    broken_target: bool = False
    # gns_* keys this mutant must flip, beside whatever else it flips
    must_flip: tuple[str, ...] = ()


MUTANTS = {
    "adj_without_conj": Mutant(
        verify, "_adj", lambda a: a.swapaxes(-1, -2)),
    "powers_at_conj_z": Mutant(
        ModularData, "d_power_stack", _powers_at(lambda z: z.conjugate()),
        equivalent="conj fixes the real exponents and sends each flow sample t to -t; "
                   "every axiom holds for every real t, so the pass samples the same "
                   "identities at other times"),
    "half_power_as_full": Mutant(
        ModularData, "d_power_stack", _powers_at(lambda z: 2 * z if abs(z) == 0.5 else z)),
    # D^{1/2} taken as D with D^{-1/2} kept: J_p J_p xi = D xi D.  Replacing
    # both powers, as above, leaves J_p = J and the involution intact
    "positive_half_power_as_full": Mutant(
        ModularData, "d_power_stack", _powers_at(lambda z: 2 * z if z == 0.5 else z),
        must_flip=("gns_j_involution",)),
    "hermitian_slot_general": Mutant(
        verify, "_gns_draws", _general_draws,
        equivalent="every axiom is an identity over all elements, not only Hermitian ones; "
                   "the Hermitian slot narrows the sample, no key relies on it"),
    "identity_padding": Mutant(
        verify, "_pad", _identity_pad,
        equivalent="identity on the pad, in the test elements and the powers alike, is the "
                   "modular data of the unnormalised density 1 there, for which every axiom "
                   "holds exactly: the pad adds exact zeros to each norm and the same "
                   "integer to both sides of each inner product"),
    "target_dropped_from_max": Mutant(
        verify, "_modular_axioms", lambda mds, seeds: _joint(mds[:1], seeds[:1]),
        broken_target=True),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant(name, monkeypatch):
    mutant = MUTANTS[name]
    before = _gns_verdicts(_channel(mutant.broken_target))
    if mutant.broken_target:
        assert {k for k, ok in before.items() if not ok} == set(SKEW_BROKEN_KEYS)
    else:
        assert all(before.values())
    monkeypatch.setattr(mutant.target, mutant.attribute, mutant.replacement)
    after = _gns_verdicts(_channel(mutant.broken_target))
    flipped = sorted(k for k in before if before[k] != after[k])
    if mutant.equivalent is None:
        assert flipped, f"mutant {name} survives"
        assert set(mutant.must_flip) <= set(flipped), (name, flipped)
    else:
        assert not flipped, f"'equivalent' mutant {name} flips {flipped}"


# ---------------------------------------------------------------------------
# the symmetry pass: thm_ii and thm_iii from one permuted conjugate
# ---------------------------------------------------------------------------

SYMMETRY_KEYS = ("thm_ii", "thm_iii")


class _NoConj(np.ndarray):
    """An array whose `conj()` is itself: T_eig with `.conj()` dropped."""

    def conj(self):
        return self


_diagonals = ModularData.delta_power_diagonals
_eigen_extension = verify.eigen_extension


def _half_powers_swapped(self, zs):
    """`delta_power_diagonals` with a lone exponent +-1/2, thm_iii's
    Delta_t^{-1/2} and Delta_s^{1/2} weights, negated."""
    zs = list(zs)
    if len(zs) == 1 and zs[0] in (0.5, -0.5):
        zs = [-zs[0]]
    return _diagonals(self, zs)


@dataclass(frozen=True)
class SymmetryMutant:
    target: object
    attribute: str
    replacement: object
    # symmetry keys that must flip on at least one instance of the corpus
    must_flip: tuple[str, ...]
    # None, or why no verdict of a positive kind can move: then the test
    # holds the positives to that and only sp_ucp may flip
    positive_equivalent: str | None = None


SYMMETRY_MUTANTS = {
    "identity_adjoint_index": SymmetryMutant(
        verify, "adjoint_index", lambda alg: np.arange(alg.coord_dim),
        must_flip=SYMMETRY_KEYS),
    "half_powers_swapped": SymmetryMutant(
        ModularData, "delta_power_diagonals", _half_powers_swapped,
        must_flip=("thm_iii",),
        positive_equivalent="a flow-commuting T pairs equal frequencies, where "
                            "Delta_t^{-+1/2} Delta_s^{+-1/2} is 1 either way"),
    "conj_dropped": SymmetryMutant(
        verify, "eigen_extension", lambda ch: _eigen_extension(ch).view(_NoConj),
        must_flip=SYMMETRY_KEYS),
}

# positives of every kind, single- and multi-block, and sp_ucp at 3 and 2x2
SYMMETRY_CORPUS = [
    GenSpec(kind, dims, seed, params) for kind, dims, seed, params in [
        ("identity", (3,), 1, {}),
        ("schur", (3,), 2, {}),
        ("schur", (4,), 2, {}),
        ("pinch", (2, 2), 3, {}),
        ("block_expectation", (3, 1), 4, {}),
        ("block_expectation", (2, 2, 2), 5, {}),
        ("state_to_scalar", (2,), 6, {"target_dims": [3]}),
        ("automorphism", (4,), 7, {}),
        ("automorphism", (2, 2), 8, {}),
        ("twirl", (3,), 9, {}),
        ("convex", (3, 1), 10, {}),
        ("sp_ucp", (3,), 11, {}),
        ("sp_ucp", (2, 2), 12, {}),
    ]]


def _symmetry_verdicts() -> dict[tuple, dict[str, bool]]:
    out = {}
    for spec in SYMMETRY_CORPUS:
        rep = verify_channel(build_channel(spec).channel, kind=spec.kind)
        out[spec.kind, spec.dims] = {k: rep.verdicts[k] for k in SYMMETRY_KEYS}
    return out


@pytest.mark.parametrize("name", sorted(SYMMETRY_MUTANTS))
def test_symmetry_mutant(name, monkeypatch):
    mutant = SYMMETRY_MUTANTS[name]
    before = _symmetry_verdicts()
    # only sp_ucp fails a symmetry key, and only thm_ii
    assert {case: [k for k, ok in v.items() if not ok] for case, v in before.items()
            if not all(v.values())} == {("sp_ucp", (3,)): ["thm_ii"],
                                        ("sp_ucp", (2, 2)): ["thm_ii"]}
    monkeypatch.setattr(mutant.target, mutant.attribute, mutant.replacement)
    after = _symmetry_verdicts()
    flipped = {case: {k for k in SYMMETRY_KEYS if before[case][k] != after[case][k]}
               for case in before}
    assert set(mutant.must_flip) <= set().union(*flipped.values()), (name, flipped)
    if mutant.positive_equivalent is not None:
        assert not any(keys for (kind, _), keys in flipped.items() if kind != "sp_ucp"), (
            f"'positive-equivalent' mutant {name} flips {flipped}")


# ---------------------------------------------------------------------------
# the certificates of linalg.certified_value
# ---------------------------------------------------------------------------

CERT_TOL = 1e-9
CERT_N = 120


def _unitary(seed, n=CERT_N):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _hermitian(seed, w):
    u = _unitary(seed, len(w))
    h = (u * np.asarray(w)) @ u.conj().T
    return (h + h.conj().T) / 2.0


def _spectrum(lowest, count=5):
    """count eigenvalues at lowest, the rest spread over [0.2, 1]."""
    return np.concatenate([[lowest] * count, np.linspace(0.2, 1.0, CERT_N - count)])


# (matrix, kind): a contraction whose excess pass a factor certifies, one
# whose fail step's lower bound fails it, a positive definite Choi-like block (its
# factor certifies), and a rank-deficient, a slightly negative and one
# below -tol (no factor: dense)
CERT_CASES = {
    "excess-pass": (_unitary(51), "excess"),
    "excess-fail": (_unitary(52) * (1.0 + 10 * CERT_TOL), "excess"),
    "min-eig-definite": (_hermitian(53, _spectrum(1e-3)), "min_eig"),
    "min-eig-rank-deficient": (_hermitian(54, _spectrum(0.0)), "min_eig"),
    "min-eig-inside-shift": (_hermitian(55, _spectrum(-0.25 * CERT_TOL)), "min_eig"),
    "min-eig-below-shift": (_hermitian(56, _spectrum(-2 * CERT_TOL)), "min_eig"),
}


def _certified_outcomes() -> dict[str, tuple[bool, float, int]]:
    """(verdict, value, dense fallbacks) of each case."""
    dense = []
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("svd", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                dense.append(np.shape(a) == (CERT_N, CERT_N))
                return _original(a, *args, **kwargs)

            mp.setattr(np.linalg, name, recording)
        for case, (a, kind) in CERT_CASES.items():
            dense.clear()
            value = linalg.certified_value(a, CERT_TOL, kind)
            ok = value >= -CERT_TOL if kind == "min_eig" else value <= CERT_TOL
            out[case] = (ok, value, sum(dense))
    return out


_norm_below = linalg._norm_below


@dataclass(frozen=True)
class CertMutant:
    attribute: str  # of linalg
    replacement: object
    # None: the mutant must change an outcome; else why it cannot
    equivalent: str | None = None


# The min_eig kind no longer factors a + tol 1 or takes a lower bound on
# lambda_min (no recorded suite reached either once markov_cp took its
# sector certificate), so the mutants of those two steps, "tau_dropped" and
# "bottom_sign_flipped", went out with them.
CERT_MUTANTS = {
    # |T| <= 1 - tol asked of a contraction with |T| = 1: its factor fails
    "shift_one_minus_tol": CertMutant(
        "_norm_below", lambda a, bound: _norm_below(a, 2.0 - bound)),
    # every factor taken as a success: no fallback, and a block below -tol
    # reads 0.0
    "failed_factor_skips_dense": CertMutant("_has_cholesky", lambda h: True),
}


@pytest.mark.parametrize("name", sorted(CERT_MUTANTS))
def test_certificate_mutant(name, monkeypatch):
    mutant = CERT_MUTANTS[name]
    before = _certified_outcomes()
    # the unmutated kernel: every min_eig case with no factor goes dense,
    # and only the one below -tol and the excess fail fail their verdicts
    assert {case for case, (_, _, n_dense) in before.items() if n_dense} == {
        "min-eig-rank-deficient", "min-eig-inside-shift", "min-eig-below-shift"}
    assert {case for case, (ok, _, _) in before.items() if not ok} == {
        "excess-fail", "min-eig-below-shift"}
    monkeypatch.setattr(linalg, mutant.attribute, mutant.replacement)
    after = _certified_outcomes()
    changed = sorted(case for case in before if before[case] != after[case])
    if mutant.equivalent is None:
        assert changed, f"certificate mutant {name} survives"
    else:
        assert not changed, f"'equivalent' mutant {name} changes {changed}"


# ---------------------------------------------------------------------------
# the flow-pass bound kernel, verify._flow_bounds
# ---------------------------------------------------------------------------

def _edited(function, edits):
    """A module-level function or a method recompiled from its source, in
    its module's namespace, with each (old, new) text edit applied; each old
    text must occur exactly once."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


_flow_bounds = verify._flow_bounds
_SUM = "pos - 2.0 * cross + z_part + margin"


def _label(arg):
    if arg is None or isinstance(arg, (str, int, float)):
        return str(arg)
    if all(isinstance(d, int) for d in arg):
        return "x".join(map(str, arg))
    return test_oracles._case_id(arg)


def _killer(test_class, method, *args):
    """A named test of a test module, run as a function: (its id, a call)."""
    def run(monkeypatch):
        test = getattr(test_class(), method)
        fixtures = {"monkeypatch": lambda: monkeypatch,
                    "svd_shapes": lambda: test_oracles.record_svd_shapes(monkeypatch),
                    "dense_calls": lambda: test_linalg.record_dense_calls(monkeypatch)}
        return test(*[fixtures[p]() for p in inspect.signature(test).parameters
                      if p in fixtures], *args)
    label = "-".join(_label(a) for a in args)
    return f"{test_class.__name__}::{method}" + (f"[{label}]" if label else ""), run


@dataclass(frozen=True)
class SourceMutant:
    """(old, new) text edits to a function's source, and the tests
    that must fail under them; a mutant listed as equivalent, with why no
    value or count can move, must pass those tests instead."""
    edits: tuple[tuple[str, str], ...]
    tests: tuple[tuple[str, object], ...]  # (test id, run(monkeypatch)) each
    equivalent: str | None = None


# (the function edited, its mutant): the bound kernel, and the split of
# |T_eig|^2 at the equal-frequency set Z that it shares with the sector bound
BOUND_MUTANTS = {
    # the clustered channel's expansion cancels: a bound below its norm, and
    # at or below the tolerance it certifies a pass that reads low
    "margin_dropped": (_flow_bounds, SourceMutant(
        ((_SUM, "pos - 2.0 * cross + z_part"),),
        (_killer(test_oracles.TestFlowBounds, "test_clustered_frequencies"),
         _killer(test_oracles.TestBoundedRoute,
                 "test_clustered_frequencies_prune_nothing_wrongly")))),
    "z_part_dropped": (_flow_bounds, SourceMutant(
        ((_SUM, "pos - 2.0 * cross + margin"),),
        (_killer(test_oracles.TestFlowBounds, "test_large_kinds", ("schur", (12,), {})),))),
    "cross_sign_flipped": (_flow_bounds, SourceMutant(
        ((_SUM, "pos + 2.0 * cross + z_part + margin"),),
        (_killer(test_oracles.TestFlowBounds, "test_large_kinds", ("sp_ucp", (12,), {})),))),
    # each mask class takes the other class's expansion
    "commute_twist_swapped": (_flow_bounds, SourceMutant(
        (("pos[com] = q_abs[com].sum(axis=1) + a_t[com] @ row_sum",
          "pos[com] = (a_t[com] * q_abs[com]).sum(axis=1) + row_sum.sum()"),
         ("pos[tw] = (a_t[tw] * q_abs[tw]).sum(axis=1) + row_sum.sum()",
          "pos[tw] = q_abs[tw].sum(axis=1) + a_t[tw] @ row_sum"),
         ("re_cross[com] + im_cross[com], re_cross[tw] - im_cross[tw]",
          "re_cross[com] - im_cross[com], re_cross[tw] + im_cross[tw]")),
        (_killer(test_oracles.TestFlowBounds, "test_large_kinds", ("sp_ucp", (12,), {})),))),
    # the Z entries counted twice, the expansion's cancelled copy with a
    # margin from their O(1) weight: loose bounds that certify no family
    # of a positive, so its masks are formed
    "p_unzeroed_on_z": (verify._sector_split, SourceMutant(
        (("    p[rows, cols] = 0.0\n", ""),),
        (_killer(test_oracles.TestBoundedRoute, "test_schur_16_prunes"),
         _killer(test_oracles.TestBoundedRoute, "test_schur_below_the_gate_prunes", (4,)),
         _killer(test_oracles.TestBoundedRoute, "test_schur_below_the_gate_prunes", (8,))))),
}


def _assert_source_mutant(name, mutant, monkeypatch, function):
    """Each of the mutant's tests passes on the unmutated function, and
    fails, or for an equivalent mutant passes, with the edited function in
    its place on every module that holds it: its own, and each that
    imported it by name (test_oracles calls some kernels so), or for a
    method on its class."""
    for _, run in mutant.tests:
        with pytest.MonkeyPatch.context() as mp:
            run(mp)
    edited = _edited(function, mutant.edits)
    holders = list(sys.modules.values())
    if "." in function.__qualname__:
        holders.append(getattr(sys.modules[function.__module__],
                               function.__qualname__.rsplit(".", 1)[0]))
    for holder in holders:
        if getattr(holder, "__dict__", {}).get(function.__name__) is function:
            monkeypatch.setattr(holder, function.__name__, edited)
    for test_id, run in mutant.tests:
        with pytest.MonkeyPatch.context() as mp:
            if mutant.equivalent is not None:
                run(mp)
                continue
            try:
                run(mp)
            except AssertionError:
                continue
        pytest.fail(f"mutant {name} survives {test_id}")


@pytest.mark.parametrize("name", sorted(BOUND_MUTANTS))
def test_bound_mutant(name, monkeypatch):
    function, mutant = BOUND_MUTANTS[name]
    _assert_source_mutant(name, mutant, monkeypatch, function)


# ---------------------------------------------------------------------------
# the pruning rule, verify._bounded_maxima
# ---------------------------------------------------------------------------

_bounded_maxima = verify._bounded_maxima
_GUARD = "trusted = np.isfinite(bounds) & (bounds >= _PRUNE_FLOOR)"
_PRUNE = "order[j] * (1.0 + _PRUNE_SLACK) < best * (1.0 - _PRUNE_SLACK)"
_FAMILY_TOP = "order[fam].max(initial=0.0)"
_VISIT = 'np.argsort(-order[fam], kind="stable")'


def _pruned_max_killer(method, *args):
    return _killer(test_oracles.TestPrunedMax, method, *args)


# Masks are formed one at a time, each family's in order of decreasing
# bound, so there is no second pass to norm a family's first mask again in:
# the "first_mask_normed_twice" mutant went out with that pass.
PRUNE_MUTANTS = {
    # every bound trusted: one below the floor prunes against a norm it does
    # not bound
    "floor_and_finiteness_dropped": SourceMutant(
        ((_GUARD, "trusted = np.ones(len(bounds), dtype=bool)"),),
        (_pruned_max_killer("test_untrusted_bounds_prune_nothing", "below_floor"),
         _pruned_max_killer("test_untrusted_bounds_prune_nothing", "tiny"))),
    "finiteness_dropped": SourceMutant(
        ((_GUARD, "trusted = bounds >= _PRUNE_FLOOR"),),
        (_pruned_max_killer("test_untrusted_bounds_prune_nothing", "huge"),
         _pruned_max_killer("test_untrusted_bounds_prune_nothing", "power_step_overflow"),
         _pruned_max_killer("test_equals_the_max_of_every_norm", "huge", None),
         _pruned_max_killer("test_equals_the_max_of_every_norm", "power_step_overflow", None)),
        equivalent="nan fails the floor test already, and an inf bound is visited first and "
                   "never lies below a running max, which `_masked_norm` keeps finite: "
                   "neither can prune"),
    # the huge family's norm prunes every later family before its first mask
    "pruned_against_every_family": SourceMutant(
        (("best * (1.0 - _PRUNE_SLACK)", "max([best, *maxima]) * (1.0 - _PRUNE_SLACK)"),),
        (_pruned_max_killer("test_families_are_pruned_apart", None),)),
    "slack_dropped": SourceMutant(
        ((_PRUNE, "order[j] < best"),),
        (_pruned_max_killer("test_slack_boundary_prunes_one_mask"),)),
    # the smallest bound visited first: the running max grows from the
    # bottom, so nothing lies below it and every mask is formed
    "ascending_visit_order": SourceMutant(
        ((_VISIT, 'np.argsort(order[fam], kind="stable")'),),
        (_pruned_max_killer("test_dominant_mask_alone_reaches_the_svd"),
         _killer(test_oracles.TestFusedFlowPass, "test_each_formed_mask_takes_one_svd_call",
                 ("sp_ucp", (3,), {})))),
    # the certificate read off the raw bounds: one below the floor (an
    # underflowed |T_eig|^2) certifies a pass under the norm it does not bound
    "untrusted_bound_certifies": SourceMutant(
        ((_FAMILY_TOP, "bounds[fam].max(initial=0.0)"),),
        (_pruned_max_killer("test_untrusted_bounds_never_certify", "below_floor"),
         _pruned_max_killer("test_untrusted_bounds_never_certify", "tiny"))),
    # a family certified by, and reading, its smallest bound
    "family_min_bound": SourceMutant(
        ((_FAMILY_TOP, "order[fam].min(initial=np.inf)"),),
        (_pruned_max_killer("test_certified_family_takes_its_largest_bound", "ties"),
         _pruned_max_killer("test_certified_family_takes_its_largest_bound", "one_dominant"))),
    # each family taken against the tolerance of the family before it
    "another_family_tolerance": SourceMutant(
        (("zip(counts, tols)", "zip(counts, np.roll(tols, 1))"),),
        (_pruned_max_killer("test_each_family_against_its_own_tolerance"),)),
}


@pytest.mark.parametrize("name", sorted(PRUNE_MUTANTS))
def test_prune_mutant(name, monkeypatch):
    _assert_source_mutant(name, PRUNE_MUTANTS[name], monkeypatch, _bounded_maxima)


# ---------------------------------------------------------------------------
# the steps of linalg.certified_value, the same at every size
# ---------------------------------------------------------------------------

_certified_value = linalg.certified_value
_FROBENIUS_STEP = "lambda: (-np.inf, _frob_or_inf(a))"
_FAIL_STEP = "return None if b is None else (b, np.inf)"


def _bracket_killer(method):
    return _killer(test_oracles.TestLanczosRoute, method)


_BRACKET_KILLERS = (_bracket_killer("test_bracket_certifies_or_takes_the_svd"),
                    _bracket_killer("test_only_the_straddling_mask_takes_the_svd"))


def _step_killer(method, n):
    return _killer(test_linalg.TestCertifiedValue, method, n)


# below N = 100 the dense value, or for a norm its Frobenius pass: the
# route every kind took while a size gate held its steps back
_GATE = """    if min(a.shape) < 100:
        if kind == "min_eig":
            return float(np.linalg.eigvalsh(a)[0])
        top = float(np.linalg.svd(a, compute_uv=False)[0])
        if kind == "excess":
            return max(0.0, top - 1.0)
        frobenius = _frob_or_inf(a)
        return frobenius if frobenius <= tol else top
"""

# The names of the first two are kept from the Ritz step the fail step
# replaced: they swap and close its bracket the same way.
NORM_MUTANTS = {
    # a certain pass reads the fail step's lower bound, and a certain fail
    # |a|_F
    "ritz_and_frobenius_swapped": SourceMutant(
        ((_FROBENIUS_STEP, "lambda: (-np.inf, _norm_lower_bound(a))"),
         (_FAIL_STEP, "return _frob_or_inf(a), np.inf")),
        _BRACKET_KILLERS),
    # a lower bound at or below tol taken as a pass, with no SVD: the fail
    # step's bracket closed at its lower end
    "straddle_skips_the_svd": SourceMutant(
        ((_FAIL_STEP, "return None if b is None else (b, b)"),),
        _BRACKET_KILLERS),
    # |a|_F, an upper bound, as the fail step's lo: a straddle with
    # s_1 < tol < |a|_F reads a fail where the dense verdict is a pass
    "upper_bound_as_fail_lo": SourceMutant(
        ((_FAIL_STEP, "return None if b is None else (_frob_or_inf(a), np.inf)"),),
        _BRACKET_KILLERS),
    # the steps run only from N = 100: below it a fail reads the SVD, and
    # the factors certify nothing
    "gate_restored": SourceMutant(
        (("    a = as_cmatrix(a)\n", "    a = as_cmatrix(a)\n" + _GATE),),
        tuple(_step_killer(method, n) for n in (9, 60)
              for method in ("test_failing_norm_reads_the_lower_bound",
                             "test_straddling_excess_closed_by_a_factor",
                             "test_positive_definite_min_eig_reads_zero"))),
}


@pytest.mark.parametrize("name", sorted(NORM_MUTANTS))
def test_norm_mutant(name, monkeypatch):
    _assert_source_mutant(name, NORM_MUTANTS[name], monkeypatch, _certified_value)


# ---------------------------------------------------------------------------
# the rule every certified key is read by, linalg.settle
# ---------------------------------------------------------------------------

_settle = linalg.settle


def _settle_killer(method, *args):
    return _killer(test_linalg.TestSettle, method, *args)


# Each killer runs `settle` through the module that calls it: TestSettle on
# direct brackets, and a TestLanczosRoute or TestPrunedMax case through
# `certified_value` or `_bounded_maxima`.
SETTLE_MUTANTS = {
    # a Frobenius pass reads -inf, and a family's certified pass too
    "pass_reads_lo": SourceMutant(
        (("return hi", "return lo"),),
        (_settle_killer("test_a_pass_reads_the_upper_end"),
         _bracket_killer("test_bracket_certifies_or_takes_the_svd"))),
    # a fail on the fail step reads inf
    "fail_reads_hi": SourceMutant(
        (("return lo", "return hi"),),
        (_settle_killer("test_a_fail_reads_the_lower_end"),
         _bracket_killer("test_bracket_certifies_or_takes_the_svd"))),
    # a bound equal to the tolerance no longer certifies: the family at its
    # largest bound forms its masks
    "strict_pass_test": SourceMutant(
        (("if hi <= tol:", "if hi < tol:"),),
        (_settle_killer("test_a_bound_at_the_tolerance_passes"),
         _killer(test_oracles.TestPrunedMax, "test_certified_family_takes_its_largest_bound",
                 "ties"))),
    "nan_passes": SourceMutant(
        (("if hi <= tol:", "if not hi > tol:"),),
        (_settle_killer("test_a_nan_never_passes", "both"),
         _settle_killer("test_a_nan_never_passes", "upper"))),
    # a straddle reads its upper end, and no later step or fallback runs
    "straddle_reads_its_upper_end": SourceMutant(
        (("            if lo > tol:\n                return lo\n",
          "            return lo if lo > tol else hi\n"),),
        (_settle_killer("test_a_straddle_takes_the_next_step"),
         _settle_killer("test_a_straddle_that_no_step_settles_reads_the_fallback"),
         _bracket_killer("test_bracket_certifies_or_takes_the_svd"))),
}


@pytest.mark.parametrize("name", sorted(SETTLE_MUTANTS))
def test_settle_mutant(name, monkeypatch):
    _assert_source_mutant(name, SETTLE_MUTANTS[name], monkeypatch, _settle)


# ---------------------------------------------------------------------------
# the flow masks, verify._flow_residuals
# ---------------------------------------------------------------------------

_flow_residuals = verify._flow_residuals
_COMMUTE_MASK = "np.subtract(d_s[i][None, :], d_t[i][:, None])"
_TWIST_MASK = "np.multiply(d_s[i][None, :], d_t[i][:, None])"


def _fused_killer(method, *args):
    return _killer(test_oracles.TestFusedFlowPass, method, *args)


# The bounds take d_s and d_t from the same two lines, so a mutant of
# d_t's exponents moves the masks and their bounds together, while one of
# a mask alone leaves the bounds on the unmutated masks: a positive's
# families still pass on those, and only a family that forms its masks
# (sp_ucp) shows it.
FLOW_MUTANTS = {
    # Delta_t^{+s} T Delta_s^{s} - T: a positive's twist no longer vanishes
    "twist_target_exponent_plus_s": SourceMutant(
        (("[-s for s in exps[n_commute:]]", "[s for s in exps[n_commute:]]"),),
        (_killer(test_oracles.TestFlowResidualOracles, "test_flow_residuals",
                 ("schur", (3,), {})),
         _fused_killer("test_generated", ("sp_ucp", (3,), {})))),
    # T Delta_s^{s} - T: the twist mask without its target weight
    "twist_mask_without_target_weight": SourceMutant(
        ((_TWIST_MASK, "np.multiply(d_s[i][None, :], np.ones_like(d_t[i])[:, None])"),),
        (_killer(test_oracles.TestFlowResidualOracles, "test_flow_residuals",
                 ("sp_ucp", (3,), {})),
         _fused_killer("test_generated", ("sp_ucp", (3,), {})))),
    # -A for A: |-A| = |A| in exact arithmetic, but the SVD of a negated
    # matrix is not its bits, so a failing family's value moves in its
    # last bits, and the fail tests compare with ==
    "commute_mask_negated": SourceMutant(
        ((_COMMUTE_MASK, "np.subtract(d_t[i][:, None], d_s[i][None, :])"),),
        (_fused_killer("test_generated", ("sp_ucp", (3,), {})),
         _fused_killer("test_off_the_class", (2, 2), (2, 2)))),
}


@pytest.mark.parametrize("name", sorted(FLOW_MUTANTS))
def test_flow_mutant(name, monkeypatch):
    _assert_source_mutant(name, FLOW_MUTANTS[name], monkeypatch, _flow_residuals)


# ---------------------------------------------------------------------------
# markov_modular's generator row, markov.modular_commutation_residual
# ---------------------------------------------------------------------------

_defects = markov._commutation_defects
_GENERATOR_ROW = "(md_s.frequencies, md_t.frequencies)"


def _modular_killer(*case):
    return _killer(test_oracles.TestFlowResidualOracles, "test_markov_modular", case)


# (the function edited, its mutant): the masked rows, which `check_markov`
# takes too, or the operator norm read of them
MODULAR_MUTANTS = {
    # the mask w_s alone: nonzero where X is, for a map that keeps off-diagonal
    # eigenframe entries (not pinch or state_to_scalar, whose X sits on w = 0)
    "target_frequencies_dropped": (_defects, SourceMutant(
        ((_GENERATOR_ROW, "(md_s.frequencies, 0.0 * md_t.frequencies)"),),
        (_modular_killer("schur", (3,), {}),
         _modular_killer("automorphism", (2, 2), {})))),
    # w_s - w_s: zero wherever X is supported if source and target share one
    # algebra, so only a map between different algebras shows it
    "source_frequencies_both_sides": (_defects, SourceMutant(
        ((_GENERATOR_ROW, "(md_s.frequencies, md_s.frequencies)"),),
        (_modular_killer("state_to_scalar", (2,), {"target_dims": (1, 1, 1, 1)}),
         _killer(test_oracles.TestFusedFlowPass, "test_markov_modular_off_the_class",
                 (2,), (2,))))),
    # the mask on the coordinate superoperator, not on its eigenframe
    # matrix G_t S G_s^+: the frame products dropped
    "frame_product_dropped": (_defects, SourceMutant(
        (("* ch.eigen_superop", "* ch.superop"),),
        (_modular_killer("sp_ucp", (3,), {}),
         _modular_killer("sp_ucp", (2, 2), {})))),
    # the largest column norm of the mask times X, the unit-basis maximum
    # the key once read, in place of its operator norm
    "column_norm_read": (markov.modular_commutation_residual, SourceMutant(
        (("op_norm(m)", "float(np.linalg.norm(m, axis=0).max())"),),
        (_modular_killer("sp_ucp", (3,), {}),
         _modular_killer("sp_ucp", (2, 2), {})))),
    "mask_negated": (_defects, SourceMutant(
        (("(a[None, :] - b[:, None])", "(b[:, None] - a[None, :])"),),
        (_killer(test_oracles.TestFusedFlowPass, "test_markov_modular_equals_per_mask",
                 ("sp_ucp", (3,), {})),),
        equivalent="b - a is exactly -(a - b), so mask * X is negated, and its "
                   "singular values and |mask * X|_F keep their bits")),
}


@pytest.mark.parametrize("name", sorted(MODULAR_MUTANTS))
def test_modular_mutant(name, monkeypatch):
    function, mutant = MODULAR_MUTANTS[name]
    _assert_source_mutant(name, mutant, monkeypatch, function)


# ---------------------------------------------------------------------------
# kadison_norm's sector bound, verify._sector_bound, the adjoint pair's
# eigenvalue weights, verify._adjoint_residuals, and the radius of the one
# frequency labelling behind the sectors, gns.label_radius
# ---------------------------------------------------------------------------

_OFF_TERM = "off = (1.0 + gamma + n_s * n_t * _EPS) * float(np.sqrt(split.off.sum()))"
_WEIGHTS = ("la_s, rb_s = md_s.lambda_a[None, :], np.sqrt(md_s.lambda_b)[None, :]",
            "la_t, rb_t = md_t.lambda_a[:, None], np.sqrt(md_t.lambda_b)[:, None]")


def _sector_killer(method, *args):
    return _killer(test_oracles.TestSectorBound, method, *args)


def _weights_killer(n, scale):
    return _killer(test_oracles.TestAdjointWeights, "test_one_off_sector_entry", n, scale)


_RADIUS = "return 4.0 * EIG_CONTRACT_RTOL * sum(s.kappa for s in states)"


def _relabel_killer(kind, dims):
    return _killer(test_relabel.TestRelabelling, "test_same_verdicts_values_and_routes",
                   (kind, dims, {}))


# (the function edited, its mutant)
SECTOR_MUTANTS = {
    # the labelling radius of gns.frequency_labels at 0, exact float
    # equality: a relabelled twin's equal frequencies, computed apart, split
    # into sectors of their own, and its certificates fall back to SVDs
    "label_radius_zero": (gns.label_radius, SourceMutant(
        ((_RADIUS, "return 0.0"),),
        (_relabel_killer("automorphism", (4,)), _relabel_killer("convex", (2, 2)),
         _relabel_killer("block_expectation", (6, 4, 2))))),
    # an over-wide radius merges distinct frequencies: the twirl keeps
    # entries that couple them, and its output fails markov_modular
    "label_radius_over_wide": (gns.label_radius, SourceMutant(
        ((_RADIUS, "return 1.0"),),
        (_killer(test_generators.TestModularTwirl, "test_projects_sp_ucp_onto_members"),
         _killer(test_generators.TestSpUcp, "test_twirled_output_always_member")))),
    # the sectors alone: a T with its mass off them passes at |T| = 1 + 5e-4
    "off_sector_term_dropped": (verify._sector_bound, SourceMutant(
        ((_OFF_TERM, "off = 0.0"),),
        (_sector_killer("test_off_sector_mass_counts"),
         _sector_killer("test_off_sector_mass_counts", 16)))),
    # a sector's largest entry for its norm: 1.01 U passes, its entries
    # all below 1
    "largest_entry_for_norm": (verify._sector_bound, SourceMutant(
        (("np.linalg.svd(block, compute_uv=False)[0]", "np.abs(block).max()"),),
        (_sector_killer("test_matrix_sector_takes_its_norm"),
         _sector_killer("test_matrix_sector_takes_its_norm", 16)))),
    # each weight reads lambda_b where it reads lambda_a and back: the same
    # zeros on the sectors, and off them e^{-(w_t - w_s)/2} times the weight
    # (at the killers' entry 0.05: a pair read at 2 tol reads 0.1 tol, one
    # read at 0.5 tol on its sqrt(sum |X|^2 W^2) certificate 0.025 tol)
    "adjoint_weights_la_rb_swapped": (verify._adjoint_residuals, SourceMutant(
        tuple((old, old.replace("lambda_a", "LAMBDA").replace("lambda_b", "lambda_a")
                      .replace("LAMBDA", "lambda_b")) for old in _WEIGHTS),
        (_weights_killer(3, 0.5), _weights_killer(3, 2.0), _weights_killer(12, 2.0)))),
}


@pytest.mark.parametrize("name", sorted(SECTOR_MUTANTS))
def test_sector_mutant(name, monkeypatch):
    function, mutant = SECTOR_MUTANTS[name]
    _assert_source_mutant(name, mutant, monkeypatch, function)


# ---------------------------------------------------------------------------
# the membership layer: markov_cp's sector certificate,
# markov._sector_min_eigenvalue and the groups it reads (markov._choi_sectors),
# the Choi reshape (markov.to_choi), the trace dual (markov.trace_dual) and
# the keys each check holds for the one refusal (markov.check_markov)
# ---------------------------------------------------------------------------

_OFF = "off *= 1.0 + (x.size + 3) * _EPS"
_GROUP_EIG = "np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2.0)[:, 0].min()"
_VALUE = "value = float((low - off - err) / s)"


def _choi_killer(method, *args):
    return _killer(test_oracles.TestChoiSectors, method, *args)


_BRACKETS = tuple(_choi_killer("test_certified_pass_on_the_verdict_side", case)
                  for case in (("identity", (4,), {}), ("schur", (16,), {}),
                               ("pinch", (3, 3), {}), ("twirl", (2, 2), {})))

_HELD = "return MarkovCheck({k: residual[k]() for k in keys}, {k: tol[k] for k in keys})"


def _refusal_killer(off):
    return _killer(test_markov.TestRefusalTable, "test_each_gate", off, (3,), 0)


# (the function edited, its mutant)
MEMBERSHIP_MUTANTS = {
    # the groups alone: an identity map with an off-group Hermitian pair of
    # Choi entries 1e-3 (lambda_min <= -1e-3) reads a pass
    "off_sector_term_dropped": (markov._sector_min_eigenvalue, SourceMutant(
        ((_OFF, "off = 0.0"),),
        (_choi_killer("test_off_group_mass_counts", 3),
         _choi_killer("test_off_group_mass_counts", 16)))),
    # a group of two or more indices read by its smallest diagonal entry:
    # a Schur multiplier by an indefinite unit-diagonal c reads a pass
    "group_read_by_its_diagonal": (markov._sector_min_eigenvalue, SourceMutant(
        ((_GROUP_EIG, "np.diagonal(c, axis1=1, axis2=2).real.min()"),),
        (_choi_killer("test_indefinite_sector_fails", 3),
         _choi_killer("test_indefinite_sector_fails", 16)))),
    "margin_dropped": (markov._sector_min_eigenvalue, SourceMutant(
        ((_VALUE, "value = float(low - off - err)"),),
        _BRACKETS,
        equivalent="1 / s - 1 is ~1e-11 relative, and divides a value that is itself "
                   "at the rounding level on every map the certificate passes; it covers "
                   "a loss of unitarity of V that herm_eig's contract allows and eigh "
                   "never comes near, so no pass can fall below its dense residual")),
    "backward_error_dropped": (markov._sector_min_eigenvalue, SourceMutant(
        ((_VALUE, "value = float((low - off) / s)"),),
        _BRACKETS,
        equivalent="e bounds the rounding of X and of each group's eigvalsh in the "
                   "worst case, n^1.5 to n^3 eps |X|_F; their actual error stays near "
                   "eps |X|_F, below the dense eigenvalue's own, so a pass without e "
                   "still lies in the dense residual's rounding bracket")),
    # the source's labels on the target side too: on two states the groups
    # split wrongly, the measure-and-prepare map's rho_a entries land off
    # them, and the certificate no longer settles its pass
    "source_labels_both_sides": (markov._choi_sectors, SourceMutant(
        (("log_t, log_s = ch.target.modular.carrier_logs, ch.source.modular.carrier_logs",
          "log_t, log_s = ch.source.modular.carrier_logs, ch.source.modular.carrier_logs"),),
        (_choi_killer("test_groups_across_two_states"),))),
    # the source indices a and b swapped in the transpose: the partial
    # transpose of the Choi block, whose spectrum is another (swapping both
    # pairs instead gives C^T, with the same spectrum)
    "to_choi_transpose_swapped": (markov.to_choi, SourceMutant(
        (("sub.transpose(1, 3, 0, 2)", "sub.transpose(1, 2, 0, 3)"),),
        (_killer(test_oracles.TestChoiOracle, "test_bit_identical_on_random_superop",
                 (2, 2), (2, 2)),
         _choi_killer("test_eigenframe_choi_has_the_dense_spectrum", ("automorphism", (4,), {})),
         _choi_killer("test_eigenframe_choi_has_the_dense_spectrum", ("schur", (16,), {}))))),
    # every check holds all four keys, whatever its gate asks for: every
    # gate refuses on all four, and l2_extension then refuses a channel
    # that fails only the flow key it does not require
    "require_checks_every_key": (markov.check_markov, SourceMutant(
        ((_HELD, "return MarkovCheck({k: residual[k]() for k in MEMBERSHIP_KEYS}, tol)"),),
        (_refusal_killer("modular"),))),
    # the last key asked for is never computed, so never checked:
    # l2_extension and the twirl accept a channel that fails only state,
    # and ac_adjoint checks nothing
    "require_drops_last_key": (markov.check_markov, SourceMutant(
        ((_HELD, "return MarkovCheck({k: residual[k]() for k in keys[:-1]}, "
                 "{k: tol[k] for k in keys[:-1]})"),),
        (_refusal_killer("state"),))),
    # the transpose without the conjugate: a complex superoperator's dual
    # misses the pairing, and its state residual the unit loop
    "trace_dual_without_conj": (markov.trace_dual, SourceMutant(
        (("ch.superop.conj().T", "ch.superop.T"),),
        (_killer(test_markov.TestTraceDual, "test_duality_pairing_over_basis"),
         _killer(test_oracles.TestStateBasisOracle, "test_matches_unit_loop_off_the_state")))),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MUTANTS))
def test_membership_mutant(name, monkeypatch):
    function, mutant = MEMBERSHIP_MUTANTS[name]
    _assert_source_mutant(name, mutant, monkeypatch, function)


# ---------------------------------------------------------------------------
# the canonical writer: serialize._needs_no_escape, which picks the strings
# that are spliced, serialize._skeleton, which collects them, and the splice
# in serialize.dumps_canonical
# ---------------------------------------------------------------------------

def _writer_killer(method, *args):
    return _killer(test_oracles.TestWriterOracle, method, *args)


def _edge_killer(name):
    return _writer_killer("test_edge_docs", name)


# (the function edited, its mutant)
WRITER_MUTANTS = {
    # a long string with a '"' or '\' spliced raw: the text no longer parses
    "quote_backslash_guard_dropped": (serialize._needs_no_escape, SourceMutant(
        ((r""" or '"' in text or "\\" in text""", ""),),
        (_edge_killer("long_quote"), _edge_killer("long_backslash")))),
    # control characters and DEL spliced raw, not as \u00XX escapes
    "control_guard_dropped": (serialize._needs_no_escape, SourceMutant(
        (("return bool(codes.min() >= 0x20 and codes.max() < 0x7F)", "return True"),),
        (_edge_killer("long_nul"), _edge_killer("long_unit_separator"),
         _edge_killer("long_delete")))),
    # a short "\x00" elsewhere adds a placeholder's text: the payloads land
    # on the wrong ones and the text after the last is dropped
    "placeholder_count_fallback_removed": (serialize.dumps_canonical, SourceMutant(
        (("if len(parts) != len(payloads) + 1:", "if False:"),),
        (_edge_killer("short_nul_beside_payload"),
         _edge_killer("short_nul_key_beside_payload")))),
    # payloads collected in insertion order: an instance's "superop" is
    # inserted after the "target" densities but written before them
    "payloads_in_insertion_order": (serialize._skeleton, SourceMutant(
        (("sorted(obj.items())", "obj.items()"),),
        (_edge_killer("int_key_payloads"),
         _writer_killer("test_instance_docs", ("schur", (16,), {}))))),
}


@pytest.mark.parametrize("name", sorted(WRITER_MUTANTS))
def test_writer_mutant(name, monkeypatch):
    function, mutant = WRITER_MUTANTS[name]
    _assert_source_mutant(name, mutant, monkeypatch, function)
