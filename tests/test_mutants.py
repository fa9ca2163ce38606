"""Mutants of the gns_* layer, of the symmetry pass and of the certificates
of `linalg.certified_value`: are the stacked pass over both endpoint
states, the one permuted conjugate behind thm_ii and thm_iii, and the
Cholesky certificates behind kadison_norm and markov_cp wired so that a
wrong piece shows?

Each mutant replaces one private piece of `verify` or `ModularData` by
monkeypatching and runs `verify_channel`.  A gns_* mutant runs on a fixed
channel whose endpoints have different carrier dimensions (so the target is
zero-padded in the joint pass); it either flips at least one gns_* verdict,
or it is listed as equivalent, with the argument why no gns_* verdict can
move, and then the test holds it to that: every gns_* verdict stays as it
was.  A symmetry mutant runs on a corpus of positives and two sp_ucp
channels and must flip each of its `must_flip` keys on some instance.  A
certificate mutant runs `certified_value` on direct matrix cases above
`linalg.LANCZOS_MIN_DIM` and must flip a verdict, change a value or change
the number of dense fallbacks (full-size svd or eigvalsh calls) on one.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from modmark import linalg, verify
from modmark.generators import GenSpec, build_channel, derive_seed
from modmark.gns import ModularData
from modmark.verify import verify_channel

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
CERT_N = 120  # above linalg.LANCZOS_MIN_DIM


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
# whose Ritz value fails it, a positive definite, a rank-deficient and a
# slightly negative Choi-like block (only the tol shift factors these two),
# and one below -tol (dense)
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
_eig_above = linalg._eig_above
_bottom_eigenvalue = linalg._bottom_eigenvalue


@dataclass(frozen=True)
class CertMutant:
    attribute: str  # of linalg
    replacement: object
    # None: the mutant must change an outcome; else why it cannot
    equivalent: str | None = None


CERT_MUTANTS = {
    # |T| <= 1 - tol asked of a contraction with |T| = 1: its factor fails
    "shift_one_minus_tol": CertMutant(
        "_norm_below", lambda a, bound: _norm_below(a, 2.0 - bound)),
    # the Choi block itself factored twice: a rank-deficient or slightly
    # negative block goes dense
    "tau_dropped": CertMutant("_eig_above", lambda h, floor: _eig_above(h, 0.0)),
    # every factor taken as a success: no fallback, and a block below -tol
    # reads 0.0
    "failed_factor_skips_dense": CertMutant("_has_cholesky", lambda h: True),
    "bottom_sign_flipped": CertMutant(
        "_bottom_eigenvalue", lambda h: -_bottom_eigenvalue(h)),
}


@pytest.mark.parametrize("name", sorted(CERT_MUTANTS))
def test_certificate_mutant(name, monkeypatch):
    mutant = CERT_MUTANTS[name]
    before = _certified_outcomes()
    # the unmutated kernel: only the case below the shift goes dense, and
    # only it and the Ritz fail fail their verdicts
    assert {case for case, (_, _, n_dense) in before.items() if n_dense} == {
        "min-eig-below-shift"}
    assert {case for case, (ok, _, _) in before.items() if not ok} == {
        "excess-fail", "min-eig-below-shift"}
    monkeypatch.setattr(linalg, mutant.attribute, mutant.replacement)
    after = _certified_outcomes()
    changed = sorted(case for case in before if before[case] != after[case])
    if mutant.equivalent is None:
        assert changed, f"certificate mutant {name} survives"
    else:
        assert not changed, f"'equivalent' mutant {name} changes {changed}"
