"""Mutants of the gns_* layer: is the stacked pass over both endpoint states
wired so that a wrong piece shows?

Each mutant replaces one private piece of `verify` or `ModularData` by
monkeypatching, on a fixed channel whose endpoints have different carrier
dimensions (so the target is zero-padded in the joint pass), and runs
`verify_channel`.  A mutant either flips at least one gns_* verdict, or it is
listed as equivalent, with the argument why no gns_* verdict can move, and
then the test holds it to that: every gns_* verdict stays as it was.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from modmark import verify
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
