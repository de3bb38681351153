"""Universality orbit experiment.

Iterates the renormalisation map on g(x) = x^2 (1-x)^2 in a clustering and a
coexistence configuration and prints the scaled sup-distance to the
Fisher-Wright function per level.  Writes orbit CSVs into out/orbit/.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hierfw import params, renorm
from hierfw.diffusion import fisher_wright, grid_from_callable

OUT = pathlib.Path("out/orbit")


def run(name, family, depth, seed):
    mp = params.ModelParams.from_family(
        N=8, levels=depth + 1, family=family, g=fisher_wright(1.0),
        init=params.InitSpec.constant(0.5))
    der = params.derive(mp)
    co = params.compute_A(mp, der, depth + 1)
    g0 = grid_from_callable(lambda x: (x * (1 - x)) ** 2)
    budget = renorm.EquilibriumBudget(n_replicas=96, burn=15, sample=80)
    orbit = renorm.iterate_F_scaled(g0, mp, der, co, depth, budget, seed,
                                    theta_grid=np.linspace(0, 1, 21))
    print(f"\n{name}  (K={family.K}, e={family.e}, c={family.c})")
    print("level   A_n        sup|A_n F^n g - g_FW|")
    for n, a, s in orbit.csv_rows():
        print(f"{n:5d}   {a:9.4f}  {s:.4f}")
    OUT.mkdir(parents=True, exist_ok=True)
    rows = "\n".join(f"{n},{a!r},{s!r}" for n, a, s in orbit.csv_rows())
    (OUT / f"{name}.csv").write_text("level,A_n,sup_distance\n" + rows + "\n")
    return orbit


if __name__ == "__main__":
    run("clustering", params.ExponentialFamily(K=2.0, e=1.0, c=0.25), 8, seed=1)
    run("coexistence", params.ExponentialFamily(K=2.0, e=1.0, c=1.0), 6, seed=2)
