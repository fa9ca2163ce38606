"""Relabelling invariance: a metamorphic test of the one frequency labelling
(Chen, Cheung & Yiu 1998, "Metamorphic testing: a new approach for
generating next test cases").

With U and W block Haar unitaries on the source and target carriers, the
relabelled instance Phi' = Ad_W o Phi o Ad_U, x |-> W Phi(U^+ x U) W^+, is
state-compatible between the densities U D_s U^+ and W D_t W^+; it is built
here from two `channel_from_kraus` maps and `compose`.  Its GNS extension
is T between unitaries that the relabelling induces on the GNS spaces, and
those commute with the modular operators, so every residual that is a norm
of T, or of T against Delta, J or the flow, keeps its value in exact
arithmetic.  In floating point the twin's two spectra are computed apart,
from other matrices: frequencies equal in exact arithmetic, the zero
frequency of every diagonal entry among them, differ in their last bits,
and only the labelling (`gns.frequency_labels` at `gns.label_radius`) puts
them back in one sector.  So for every kind, at each dims, the twin must
give

- the same verdicts and failure lists;
- the same dense values, to rounding: `dense_moved_keys` of
  tests/test_oracles.py for the keys whose report value may be a bound,
  the report's own value for the rest;
- no more calls past the certificates in `verify_channel` than the
  original, SVDs, fail steps and Cholesky factors (`record_routes`): a
  split that missed an equality would lose a certificate, and the twin
  would take those routes.

Every key is compared, markov_modular and thm_iii included: each is the
operator norm of a defect map, which the relabelling's unitaries leave
unchanged, so off the flow class (sp_ucp) their failing values agree too.
"""

import numpy as np
import pytest

from modmark import linalg, verify
from modmark.algebra import AlgebraElement, FaithfulState
from modmark.generators import KIND_SPECS, GenSpec, build_channel
from modmark.linalg import block_diag
from modmark.markov import (System, channel_from_kraus, check_markov, compose,
                            modular_commutation_residual)
from modmark.verify import verify_channel

from test_oracles import _case_id, dense_moved_keys, record_svd_shapes

DIMS = [(2,), (3,), (4,), (2, 2), (3, 1), (6, 4, 2), (12,)]
CASES = [(kind, dims, {}) for kind, spec in KIND_SPECS.items() for dims in DIMS
         if spec.fits(dims)]
# "within rounding": a pass value is roundoff, a fail value an O(1e-2)
# norm; measured at most 3.5e-4 tol and 4e-15 relative on these cases
TOL_SHARE = 1e-2
VALUE_RTOL = 1e-12


def haar_unitary(alg, rng):
    """A block Haar unitary on the carrier of alg, one block per block of
    alg: QR of a complex Gaussian with the phases of R's diagonal fixed."""
    blocks = []
    for n in alg.block_dims:
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        blocks.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return block_diag(*blocks)


def conjugated(sys, v):
    """The system of the density v D v^+, v block-diagonal on the carrier."""
    ends = np.cumsum(sys.algebra.block_dims)
    blocks = []
    for end, n, d in zip(ends, sys.algebra.block_dims, sys.state.density.blocks):
        v_k = v[end - n:end, end - n:end]
        m = v_k @ d @ v_k.conj().T
        blocks.append((m + m.conj().T) / 2.0)
    return System(FaithfulState(AlgebraElement(sys.algebra, blocks)))


def relabel(ch, seed):
    """Ad_W o ch o Ad_U between U D_s U^+ and W D_t W^+, U and W block Haar
    unitaries from default_rng(seed): Ad_U, x |-> U^+ x U, is the Kraus map
    of U and Ad_W, y |-> W y W^+, that of W^+."""
    rng = np.random.default_rng(seed)
    u, w = haar_unitary(ch.source.algebra, rng), haar_unitary(ch.target.algebra, rng)
    source, target = conjugated(ch.source, u), conjugated(ch.target, w)
    return compose(channel_from_kraus([w.conj().T], ch.target, target),
                   compose(ch, channel_from_kraus([u], source, ch.source)))


def record_routes(monkeypatch):
    """One entry per call past the certificates: an SVD (its shape, by
    `record_svd_shapes`), a fail step (`linalg._norm_lower_bound`) or a
    Cholesky factor (`linalg._has_cholesky`), by name."""
    calls = record_svd_shapes(monkeypatch)
    for name in ("_norm_lower_bound", "_has_cholesky"):
        def recording(a, _name=name, _original=getattr(linalg, name)):
            calls.append(_name)
            return _original(a)
        monkeypatch.setattr(linalg, name, recording)
    return calls


def dense_values(ch, report):
    """Each key's dense value: `dense_moved_keys` where the report may read
    a bound, the report's value elsewhere."""
    return dict(report.residuals, **dense_moved_keys(ch))


class TestRelabelling:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_same_verdicts_values_and_routes(self, monkeypatch, case):
        kind, dims, params = case
        ch = build_channel(GenSpec(kind, dims, 0, params)).channel
        twin = relabel(ch, 1)
        routes = record_routes(monkeypatch)
        report = verify_channel(ch, kind=kind)
        calls = len(routes)
        routes.clear()
        moved = verify_channel(twin, kind=kind)
        assert len(routes) <= calls, (routes, calls)
        assert moved.verdicts == report.verdicts
        assert moved.failed_keys == report.failed_keys
        assert moved.expected_failures == report.expected_failures
        assert moved.tolerances.keys() == report.tolerances.keys()
        got, ref = dense_values(twin, moved), dense_values(ch, report)
        for key, tol in report.tolerances.items():
            bound = TOL_SHARE * tol + VALUE_RTOL * max(got[key], ref[key])
            assert abs(got[key] - ref[key]) <= bound, (key, got[key], ref[key], tol)


@pytest.mark.parametrize("dims", [(3,), (6, 4, 2)], ids=lambda d: "x".join(map(str, d)))
def test_sp_ucp_markov_modular_keeps_its_value(dims):
    # off the flow class markov_modular fails with an O(1e-2) value, which
    # the relabelling keeps to rounding: the report's value is the same
    # certified read of the twin's matrix, and the dense norm agrees too
    ch = build_channel(GenSpec("sp_ucp", dims, 0)).channel
    twin = relabel(ch, 1)
    got, ref = check_markov(twin), check_markov(ch)
    assert not got.verdicts["modular"] and not ref.verdicts["modular"]
    pairs = [(got.residuals["modular"], ref.residuals["modular"]),
             (modular_commutation_residual(twin), modular_commutation_residual(ch))]
    for value, reference in pairs:
        assert abs(value - reference) <= VALUE_RTOL * reference, (value, reference)


@pytest.mark.parametrize("seed", [3, 4])
def test_state_to_scalar_shares_the_kappa_frequency(seed):
    # min_gap 0.05 shifts both of these states to kappa = 20 exactly, so
    # +-log 20 is a frequency of each, equal in exact arithmetic; their
    # spectra are computed apart and the two differ in their last bits
    ch = build_channel(GenSpec("state_to_scalar", (3,), seed, {"min_gap": 0.05})).channel
    w_s, w_t = ch.source.modular.frequencies, ch.target.modular.frequencies
    assert ch.source.state.kappa == pytest.approx(20.0, rel=1e-12)
    assert ch.target.state.kappa == pytest.approx(20.0, rel=1e-12)
    labels_t, labels_s = ch.frequency_labels
    split = verify._sector_split(ch.eigen_superop, ch.frequency_labels)
    z = set(zip(split.rows.tolist(), split.cols.tolist()))
    for pick in (np.argmax, np.argmin):
        i, j = int(pick(w_t)), int(pick(w_s))
        assert w_t[i] != w_s[j] and abs(w_t[i] - w_s[j]) <= 1e-13
        assert labels_t[i] == labels_s[j] and (i, j) in z
