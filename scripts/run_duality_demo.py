"""Moment-duality demonstration on the two-colony, one-colour system.

Compares the forward Monte Carlo of H(z(t), l) with the dual Monte Carlo of
H(z, L(t)) and the exact generator-exponential value, for one and two active
lineages.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hierfw import dual, forward, params
from hierfw.diffusion import fisher_wright

if __name__ == "__main__":
    mp = params.ModelParams(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,),
                            g=fisher_wright(1.0),
                            init=params.InitSpec.constant(0.5))
    z = forward.SystemState(np.array([0.9, 0.1]), np.array([[0.5, 0.5]]))
    print("z: x = (0.9, 0.1), y_0 = (0.5, 0.5); d = 1")
    for n_lineages in (1, 2):
        cfg = dual.DualConfig.actives(mp, {0: n_lineages})
        print(f"\n{n_lineages} active lineage(s) at colony 0:")
        print(f"{'t':>4s} {'forward':>10s} {'dual':>10s} {'exact':>10s} "
              f"{'gap/3se':>8s}")
        for t in (0.5, 1.0, 2.0):
            rep = dual.duality_estimate(mp, z, cfg, t, 30_000,
                                        seed=5 + n_lineages, dt=0.002)
            ratio = rep.gap / max(3 * rep.combined_se, 1e-12)
            print(f"{t:4.1f} {rep.lhs:10.5f} {rep.rhs:10.5f} "
                  f"{rep.exact_rhs:10.5f} {ratio:8.2f}")
