#!/usr/bin/env python3
"""Worked qubit example, end to end.

Builds the state with density diag(2/3, 1/3), prints its modular data, runs
an entrywise-multiplier channel through every verification suite, then breaks
the flow condition on purpose and repairs it with the frequency twirl.
"""

import numpy as np

from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState
from modmark.generators import modular_twirl, schur_channel, sp_ucp
from modmark.linalg import op_norm
from modmark.markov import System, check_markov, l2_extension
from modmark.verify import sample_z, verify_channel


def banner(text):
    print(f"\n=== {text} ===")


def print_markov(ch, label):
    mc = check_markov(ch)
    print(f"{label}: " + "  ".join(
        f"{k}={v:.2e}({'ok' if mc.verdicts[k] else 'FAIL'})"
        for k, v in mc.residuals.items()))
    return mc


def main():
    alg = BlockAlgebra((2,))
    sys = System(FaithfulState(AlgebraElement(alg, [np.diag([2 / 3, 1 / 3])])))
    md = sys.modular

    banner("modular data of the state diag(2/3, 1/3)")
    print("density eigenvalues:", md.d_eig[0].eigenvalues)
    print("cyclic vector omega:\n", np.round(md.omega.blocks[0], 6))
    print("positive-operator spectrum (eigenvalue ratios):",
          np.round(np.sort(np.exp(md.frequencies)), 4))

    banner("entrywise multiplier channel, C = [[1, 1/2], [1/2, 1]]")
    ch = schur_channel(sys, np.array([[1.0, 0.5], [0.5, 1.0]]))
    print_markov(ch, "membership residuals")
    ext = l2_extension(ch)
    print("extension on unit coordinates:\n", np.round(ext.real, 6))
    print(f"operator norm: {op_norm(ext):.12f}")

    report = verify_channel(ch, kind="schur", instance_id="demo-schur", seed=0,
                            z_samples=sample_z(0))
    print("full verification verdicts:",
          "all pass" if report.passed else report.failed_keys)

    banner("flow-breaking instance and its twirl repair")
    rough = sp_ucp(sys, sys, seed=11)
    print_markov(rough, "feasible but flow-breaking")
    rep = verify_channel(rough, kind="sp_ucp", instance_id="demo-neg", seed=11)
    print("failing checks (all flow dependent):", rep.failed_keys)

    repaired = modular_twirl(rough)
    print_markov(repaired, "after twirl")
    rep2 = verify_channel(repaired, kind="twirl", instance_id="demo-twirl", seed=11)
    print("verification after twirl:",
          "all pass" if rep2.passed else rep2.failed_keys)
    drift = np.linalg.norm(repaired.superop - rough.superop, 2)
    print(f"superoperator moved by {drift:.3f} under the twirl projection")


if __name__ == "__main__":
    main()
