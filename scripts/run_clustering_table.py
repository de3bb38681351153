"""Clustering phase table.

Sweeps the two coefficient families across their qualitative cells and
prints, per cell, the symbolic verdict, the growth class of the clustering
coefficients, and the numerical hazard-integral diagnostic where it applies.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hierfw import params
from hierfw.diffusion import fisher_wright

E = params.ExponentialFamily
Po = params.PolynomialFamily

CASES = [
    ("exp  Kc<1<K      ", E(K=2, e=1, c=0.25), 64),
    ("exp  Kc=1, K^2e=1", E(K=2, e=0.25, c=0.5), 8),
    ("exp  Kc>1        ", E(K=2, e=1, c=1.0), 8),
    ("exp  K=1, c<1    ", E(K=1, e=1, c=0.5), 8),
    ("exp  K=1, c=1    ", E(K=1, e=1, c=1.0), 8),
    ("exp  K=1, c>1    ", E(K=1, e=1, c=2.0), 8),
    ("exp  K<1, c=1    ", E(K=0.5, e=1, c=1.0), 8),
    ("exp  K<1, c>1    ", E(K=0.5, e=1, c=2.0), 8),
    ("poly -phi<a<1    ", Po(alpha=0.5, beta=1, phi=0.3, B=0.1), 8),
    ("poly -phi=a<1    ", Po(alpha=0.5, beta=1, phi=-0.5, B=0.1), 8),
    ("poly -phi>a      ", Po(alpha=0.5, beta=1, phi=-2.0, B=0.1), 8),
    ("poly a=1, -phi<1 ", Po(alpha=1.0, beta=1, phi=0.0, B=0.1), 8),
    ("poly a=1, -phi=1 ", Po(alpha=1.0, beta=1, phi=-1.0, B=0.1), 8),
    ("poly a>1         ", Po(alpha=2.0, beta=0, phi=0.0), 8),
]

if __name__ == "__main__":
    print(f"{'case':18s} {'verdict':9s} {'A_n class':20s} hazard")
    for name, fam, N in CASES:
        mp = params.ModelParams.from_family(N=N, levels=4, family=fam,
                                            g=fisher_wright(1.0))
        rep = params.classify(mp)
        co = params.compute_A(mp, params.derive(mp), 5)
        if rep.rho_infinite:
            hazard = params.hazard_diagnostic(mp)
        else:
            hazard = "(finite seed-bank)"
        print(f"{name:18s} {rep.clustering:9s} {co.asymptotic.label:20s} {hazard}")
