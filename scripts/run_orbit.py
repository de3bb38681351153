"""Universality orbit experiment.

Iterates the renormalisation map exactly on g(x) = x^2 (1-x)^2 in a
clustering and a coexistence configuration and prints the scaled
sup-distance to the Fisher-Wright function per level.  At levels 1 to 3 it
also samples the same F (``renorm.sample_F``), on the same input F^(n-1) g,
and prints the largest |exact - MC| over the nodes next to MC's standard
error at that node.  Writes orbit CSVs into out/orbit/.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hierfw import cli, exact, params, renorm
from hierfw.diffusion import fisher_wright, grid_from_callable

OUT = pathlib.Path("out/orbit")
MC_LEVELS = 3


def run(name, family, depth, seed):
    mp = params.ModelParams.from_family(
        N=8, levels=depth + 1, family=family, g=fisher_wright(1.0),
        init=params.InitSpec.constant(0.5))
    der = params.derive(mp)
    co = params.compute_A(mp, der, depth + 1)
    g0 = grid_from_callable(lambda x: (x * (1 - x)) ** 2)
    budget = renorm.EquilibriumBudget(n_replicas=96, burn=15, sample=80)
    grid = np.linspace(0, 1, 21)
    orbit = renorm.iterate_F_scaled(g0, mp, der, co, depth, grid)
    print(f"\n{name}  (K={family.K}, e={family.e}, c={family.c})")
    print("level   A_n        sup|A_n F^n g - g_FW|  method     "
          "max|exact - MC|  MC SE")
    inputs = [g0] + orbit.grids
    rows = list(zip(orbit.levels.tolist(), orbit.A.tolist(),
                    orbit.sup_distance.tolist()))
    for n, a, s in rows:
        lvl = n - 1
        rates = (float(der.E[lvl]), mp.c[lvl], mp.K[lvl], mp.e[lvl])
        line = (f"{n:5d}   {a:9.4f}  {s:.4f}                 "
                f"{exact.exact_method(*rates):9s}")
        if n <= MC_LEVELS:
            mc = renorm.sample_F(inputs[lvl], *rates, grid, budget, seed)
            gap = np.abs(orbit.grids[lvl](grid) - mc.fn(grid))
            j = int(np.argmax(gap))
            line += f"  {gap[j]:.2e}         {mc.se[j]:.2e}"
        print(line)
    OUT.mkdir(parents=True, exist_ok=True)
    cli.write_csv(OUT / f"{name}.csv", "level,A_n,sup_distance", rows)
    return orbit


if __name__ == "__main__":
    run("clustering", params.ExponentialFamily(K=2.0, e=1.0, c=0.25), 8, seed=1)
    run("coexistence", params.ExponentialFamily(K=2.0, e=1.0, c=1.0), 6, seed=2)
