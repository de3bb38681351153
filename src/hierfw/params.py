"""Model parameters, derived constants and the clustering analysis.

The model is controlled by a group order N, migration coefficients c_k,
seed-bank sizes K_m and exchange speeds e_m.  Everything downstream of those
sequences is deterministic arithmetic collected here:

  * slowing-down constants E_k = 1 / (1 + sum_{m<k} K_m),
  * total exchange rate chi and total seed-bank size rho,
  * the wake-up time law (mixture of exponentials) and its tail exponent,
  * the clustering coefficients A_n, A_m^n and their closed-form
    asymptotics for the polynomial and pure-exponential coefficient families,
  * the clustering / coexistence verdict, and a numerical hazard-integral
    diagnostic cross-checking it at fixed N.

Infinite sums (rho, chi) are evaluated on the stored prefix; divergence is a
declared property of the coefficient family, never "detected" numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import hiergeo
from .diffusion import DiffusionFn


class FamilyError(ValueError):
    """Operation needs a declared coefficient family."""


CLUSTERS = "clusters"
COEXISTS = "coexists"


# ----------------------------------------------------------------------
# Coefficient families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialFamily:
    """Pure exponential coefficients K_m = K^m, e_m = e^m, c_k = c^k."""

    K: float
    e: float
    c: float

    def sequences(self, levels: int):
        m = np.arange(levels + 1, dtype=float)
        return self.c ** m, self.e ** m, self.K ** m

    def rho(self) -> tuple:
        if self.K >= 1:
            return math.inf, True
        return 1.0 / (1.0 - self.K), False


@dataclass(frozen=True)
class PolynomialFamily:
    """Asymptotically polynomial coefficients.

    K_m ~ A m^-alpha, e_m ~ B m^-beta, c_k ~ F k^-phi as the index grows.
    For alpha <= 1 the concrete K-sequence is chosen with exact partial sums
    (sum_{m<k} K_m = (A/(1-alpha)) k^{1-alpha}, resp. A log(k+1)), which pins
    E_k to its asymptotic form and lets the slow logarithmic asymptotics of
    A_n be reached at numerically accessible n.  The asymptotic class is the
    same for any admissible representative.
    """

    alpha: float
    beta: float
    phi: float
    A: float = 1.0
    B: float = 1.0
    F: float = 1.0

    def sequences(self, levels: int):
        m = np.arange(levels + 1, dtype=float)
        c = self.F * np.maximum(m, 1.0) ** (-self.phi)
        e = self.B * (m + 1.0) ** (-self.beta)
        if self.alpha < 1:
            a = 1.0 - self.alpha
            K = (self.A / a) * ((m + 1.0) ** a - m ** a)
        elif self.alpha == 1:
            K = self.A * (np.log(m + 2.0) - np.log(m + 1.0))
        else:
            K = self.A * (m + 1.0) ** (-self.alpha)
        return c, e, K

    def rho(self) -> tuple:
        if self.alpha <= 1:
            return math.inf, True
        from scipy.special import zeta  # scipy.special loads on first use
        return self.A * float(zeta(self.alpha)), False


Family = ExponentialFamily | PolynomialFamily


# ----------------------------------------------------------------------
# Parameters and derived constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InitSpec:
    """Initial law of a colony: component means plus an i.i.d. law shape.

    theta_y may be shorter than the number of colours; missing entries
    repeat its last one.
    """

    theta_x: float
    theta_y: tuple
    law: str = "deterministic"  # deterministic | beta | two-point
    concentration: float = 2.0  # beta law: a = theta * conc, b = (1-theta) * conc

    def __post_init__(self):
        if not 0.0 <= self.theta_x <= 1.0:
            raise ValueError("theta_x must lie in [0,1]")
        if len(self.theta_y) == 0:
            raise ValueError("theta_y needs at least one entry")
        if any(not 0.0 <= t <= 1.0 for t in self.theta_y):
            raise ValueError("theta_y entries must lie in [0,1]")
        if self.law not in ("deterministic", "beta", "two-point"):
            raise ValueError(f"unknown initial law {self.law!r}")
        if not self.concentration > 0.0:
            raise ValueError(f"concentration must be positive, found "
                             f"{self.concentration}")

    def theta_y_full(self, n_colours: int) -> np.ndarray:
        """theta_y over n_colours colours; more entries raise ValueError."""
        if len(self.theta_y) > n_colours:
            raise ValueError(f"init.theta_y lists {len(self.theta_y)} colours, "
                             f"the model has {n_colours}")
        out = np.full(n_colours, self.theta_y[-1], dtype=float)
        out[:len(self.theta_y)] = self.theta_y
        return out

    @classmethod
    def constant(cls, theta: float) -> "InitSpec":
        """Every component starts at theta."""
        return cls(theta, (theta,))


@dataclass(frozen=True)
class ModelParams:
    """Full parameterisation of the truncated hierarchical system.

    ``levels`` = k means colours 0..k and geometry truncated at level k+1
    (N^{k+1} colonies), so c, e, K each hold k+1 entries.
    """

    N: int
    levels: int
    c: tuple
    e: tuple
    K: tuple
    g: DiffusionFn
    init: Optional[InitSpec] = None
    family: Optional[Family] = None

    def __post_init__(self):
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, found {self.levels}")
        n = self.levels + 1
        if not (len(self.c) == len(self.e) == len(self.K) == n):
            raise ValueError("c, e, K must each hold levels+1 entries")
        if any(not v > 0 for seq in (self.c, self.e, self.K) for v in seq):
            raise ValueError("c, e, K must be positive")
        # group order and migration growth condition, checked by KernelSpec
        self.kernel_spec()
        logN = math.log(self.N)
        for m, (Km, em) in enumerate(zip(self.K, self.e)):
            if math.log(Km) + math.log(em) >= (m + 1) * logN:
                raise ValueError(
                    f"K_{m} e_{m} = {Km * em} violates the exchange growth condition"
                )
        if self.init is not None:       # at most one theta_y per colour
            self.init.theta_y_full(n)

    @classmethod
    def from_family(cls, N: int, levels: int, family: Family, g: DiffusionFn,
                    init: Optional[InitSpec] = None) -> "ModelParams":
        if isinstance(family, ExponentialFamily) and not (
                family.c < N and family.K * family.e < N):
            raise ValueError(f"the exponential family needs c < N = {N} and "
                             f"K e < N, found {family}")
        c, e, K = family.sequences(levels)
        return cls(N, levels, tuple(c), tuple(e), tuple(K), g, init, family)

    def kernel_spec(self) -> hiergeo.KernelSpec:
        return hiergeo.KernelSpec(N=self.N, c=tuple(self.c))

    @property
    def n_colonies(self) -> int:
        return self.N ** (self.levels + 1)

    def exchange_rates(self) -> np.ndarray:
        """Wake-up rates e_m / N^m per colour."""
        m = np.arange(self.levels + 1, dtype=float)
        return np.asarray(self.e) / float(self.N) ** m

    def sleep_rates(self) -> np.ndarray:
        """Fall-asleep rates K_m e_m / N^m of an active lineage per colour."""
        return np.asarray(self.K) * self.exchange_rates()


@dataclass(frozen=True)
class DerivedParams:
    rho: float
    rho_infinite: bool
    chi: float
    E: np.ndarray           # E_0 .. E_{levels+1}
    theta_seq: np.ndarray   # vartheta_0 .. vartheta_{levels}


def slowing_constants(K: np.ndarray, upto: int) -> np.ndarray:
    """E_k = 1 / (1 + sum_{m<k} K_m) for k = 0..upto."""
    partial = np.concatenate([[0.0], np.cumsum(K)])[: upto + 1]
    return 1.0 / (1.0 + partial)


def derive(params: ModelParams) -> DerivedParams:
    """All derived constants, exact on the stored prefix."""
    K = np.asarray(params.K, dtype=float)
    chi = float(np.sum(params.sleep_rates()))
    if params.family is not None:
        rho, rho_inf = params.family.rho()
    else:
        rho, rho_inf = float(np.sum(K)), False
    E = slowing_constants(K, params.levels + 1)
    if params.init is not None:
        th_y = params.init.theta_y_full(params.levels + 1)
        csum_K = np.cumsum(K)
        csum_Kth = np.cumsum(K * th_y)
        theta_seq = (params.init.theta_x + csum_Kth) / (1.0 + csum_K)
    else:
        theta_seq = np.full(params.levels + 1, np.nan)
    return DerivedParams(rho=rho, rho_infinite=rho_inf, chi=chi, E=E,
                         theta_seq=theta_seq)


# ----------------------------------------------------------------------
# Wake-up time law
# ----------------------------------------------------------------------


def wakeup_tail(t, params: ModelParams, derived: DerivedParams):
    """P(tau > t): mixture of exponential tails, one per colour."""
    t = np.asarray(t, dtype=float)
    rates = params.exchange_rates()
    w = params.sleep_rates() / derived.chi
    return np.sum(w[:, None] * np.exp(-np.outer(rates, np.atleast_1d(t))), axis=0)


# ----------------------------------------------------------------------
# Regime classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeReport:
    family_kind: str                     # polynomial | exponential | generic
    rho_infinite: bool
    gamma: Optional[float] = None        # wake-up tail exponent
    phi_hat_class: Optional[str] = None  # const | log | log^{1-alpha} | loglog
    delta: Optional[float] = None        # exponential family degree value
    degree: Optional[str] = None         # e.g. "0.50^-", "0^-", "0^+"
    clustering: Optional[str] = None
    criterion_used: Optional[str] = None


def classify(params: ModelParams) -> RegimeReport:
    """Tail exponent, slowly-varying class, random-walk degree and verdict.

    Only the polynomial and pure-exponential families admit closed forms; a
    generic parameter set yields a report with those fields unset.  The
    clustering / coexistence verdict is decided symbolically from the
    family, never from g.  Finite seed-bank: clusters iff sum 1/c_k diverges
    (migration only).  Infinite seed-bank: polynomial clusters iff
    -phi <= alpha <= 1, exponential clusters iff Kc <= 1 <= K; boundary
    equalities cluster.
    """
    fam = params.family
    rho_inf = derive(params).rho_infinite
    if isinstance(fam, ExponentialFamily):
        kind, N, K, e, c = "exponential", params.N, fam.K, fam.e, fam.c
        delta = math.log(c) / math.log(N / c)
        if not rho_inf:
            gamma, phi_hat = None, None
            clusters, criterion = c <= 1, "finite-rho migration sum"
        else:
            gamma = math.log(N / (K * e)) / math.log(N / e)
            phi_hat = "const" if K > 1 else "log"
            clusters = K * c <= 1 <= K
            criterion = "pure-exponential Kc <= 1 <= K"
        sign = "-" if c <= 1 else "+"
        degree = f"{delta:.6g}^{sign}" if c != 1 else "0^-"
    elif isinstance(fam, PolynomialFamily):
        kind, delta = "polynomial", None
        if not rho_inf:
            gamma, phi_hat = None, None
            clusters, criterion = fam.phi >= -1, "finite-rho migration sum"
        else:
            gamma = 1.0
            phi_hat = "log^{1-alpha}" if fam.alpha < 1 else "loglog"
            clusters = -fam.phi <= fam.alpha <= 1
            criterion = "polynomial -phi <= alpha <= 1"
        degree = "0^-" if fam.phi >= -1 else "0^+"
    else:
        return RegimeReport(family_kind="generic", rho_infinite=rho_inf)
    return RegimeReport(
        family_kind=kind, rho_infinite=rho_inf, gamma=gamma,
        phi_hat_class=phi_hat, delta=delta, degree=degree,
        clustering=CLUSTERS if clusters else COEXISTS, criterion_used=criterion)


# ----------------------------------------------------------------------
# Clustering coefficients A_n and their asymptotics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticClass:
    label: str
    constant: Optional[float]
    asymptote: Optional[Callable]   # n -> predicted A_n


@dataclass(frozen=True)
class ClusteringCoefficients:
    terms: np.ndarray        # A_k^k for k = 0..n_max-1
    A: np.ndarray            # A_n = sum_{k<n} A_k^k, n = 0..n_max
    asymptotic: AsymptoticClass

    def A_block(self, m: int, n: int) -> float:
        """A_m^n = (1/2) sum_{k=m}^{n} E_k/c_k * ... (inclusive ends)."""
        if not 0 <= m <= n < len(self.terms):
            raise ValueError("block indices out of stored range")
        return float(np.sum(self.terms[m:n + 1]))


def _dichotomy_class(fam: Optional[Family], rho: float,
                     rho_inf: bool, c_seq: np.ndarray) -> AsymptoticClass:
    if fam is None:
        return AsymptoticClass("generic", None, None)
    if not rho_inf:
        const = 1.0 / (2.0 * (1.0 + rho))
        csum = np.concatenate([[0.0], np.cumsum(1.0 / c_seq)])

        def asym(n, csum=csum, const=const):
            return const * csum[int(n)]

        return AsymptoticClass("finite-rho", const, asym)
    if isinstance(fam, ExponentialFamily):
        K, e, c = fam.K, fam.e, fam.c
        Kc = K * c
        if Kc > 1:
            return AsymptoticClass("bounded", None, None)
        if K == 1:
            if c < 1:
                c1 = 1.0 / (2.0 * (1.0 - c))
                return AsymptoticClass(
                    "exp-K1-power", c1, lambda n: c1 * c ** (-(n - 1)) / n)
            return AsymptoticClass(
                "exp-K1-log", 0.5, lambda n: 0.5 * math.log(n))
        if c < K * e:
            hat = (K - 1) / (2.0 * K * (1.0 - Kc)) if Kc < 1 else None
            bar = (K - 1) / (2.0 * K)
        elif c == K * e:
            # the k-th summand tends to (1/2)(K-1)(Kc)^{-k} * K/(2K-1); the
            # constant is K(K-1)/(2(2K-1)), not (K-1)^2/(2(2K-1))
            hat = K * (K - 1) / (2.0 * (2 * K - 1) * (1.0 - Kc)) if Kc < 1 else None
            bar = K * (K - 1) / (2.0 * (2 * K - 1))
        else:
            hat = (K - 1) / (2.0 * (1.0 - Kc)) if Kc < 1 else None
            bar = (K - 1) / 2.0
        if Kc < 1:
            return AsymptoticClass(
                "exp-power", hat, lambda n: hat * Kc ** (-(n - 1)))
        return AsymptoticClass("exp-linear", bar, lambda n: bar * n)
    alpha, phi, A, F = fam.alpha, fam.phi, fam.A, fam.F
    if -phi > alpha:
        return AsymptoticClass("bounded", None, None)
    if alpha < 1:
        if -phi < alpha:
            c1 = (1 - alpha) / (2 * A * F * (alpha + phi))
            return AsymptoticClass(
                "poly-power", c1, lambda n: c1 * n ** (alpha + phi))
        c2 = (1 - alpha) / (2 * A * F)
        return AsymptoticClass(
            "poly-log", c2, lambda n: c2 * math.log(n))
    if -phi < 1:
        c3 = 1.0 / (2 * A * F * (1 + phi))
        return AsymptoticClass(
            "poly-power-over-log", c3,
            lambda n: c3 * n ** (1 + phi) / math.log(n))
    c4 = 1.0 / (2 * A * F)
    return AsymptoticClass(
        "poly-loglog", c4, lambda n: c4 * math.log(math.log(n)))


def compute_A(params: ModelParams, derived: DerivedParams,
              n_max: int) -> ClusteringCoefficients:
    """Clustering coefficients on the stored prefix.

    A_n = (1/2) sum_{k=0}^{n-1} (E_k / c_k) (E_k c_k + e_k)
          / ((E_k c_k + e_k) + E_k K_k e_k),
    with A_m^n the analogous inclusive block sums.
    """
    if n_max > params.levels + 1:
        raise ValueError("n_max exceeds the stored coefficient range")
    c = np.asarray(params.c, dtype=float)[:n_max]
    e = np.asarray(params.e, dtype=float)[:n_max]
    K = np.asarray(params.K, dtype=float)[:n_max]
    E = derived.E[:n_max]
    denom = (E * c + e) + E * K * e
    terms = 0.5 * (E / c) * (E * c + e) / denom
    A = np.concatenate([[0.0], np.cumsum(terms)])
    asym = _dichotomy_class(params.family, derived.rho, derived.rho_infinite, c)
    return ClusteringCoefficients(terms=terms, A=A, asymptotic=asym)


# ----------------------------------------------------------------------
# Hazard-integral diagnostic
# ----------------------------------------------------------------------

DIVERGENT = "divergent"
CONVERGENT = "convergent"
INCONCLUSIVE = "inconclusive"

_SLOPE_TOL = 0.05    # see hazard_diagnostic


def _log_phi_hat(u: np.ndarray, report: RegimeReport, fam: Family) -> np.ndarray:
    """log phi_hat(t) on a grid of u = log t, per symbolic class."""
    if report.phi_hat_class == "const":
        return np.zeros_like(u)
    if report.phi_hat_class == "log":
        return np.log(u)
    if report.phi_hat_class == "log^{1-alpha}":
        return (1.0 - fam.alpha) * np.log(u)
    if report.phi_hat_class == "loglog":
        return np.log(np.log(u))
    raise FamilyError(f"no phi_hat class for {report.phi_hat_class!r}")


def _expansion_for_horizon(params: ModelParams, log_tmax: float):
    """Kernel expansion deep enough that h_L * T_max stays frozen.

    Returns (expansion, usable log_tmax); the horizon is reduced if the level
    cap cannot cover the request.
    """
    fam = params.family
    base = math.log(params.N)
    if isinstance(fam, ExponentialFamily) and fam.c > 0:
        base = math.log(params.N / fam.c) if fam.c < params.N else base
    guess = int(log_tmax / base * 1.2) + 40
    for L in (guess, int(1.5 * guess), 360):
        L = min(L, 360)
        c_seq = fam.sequences(L - 1)[0]
        spec = hiergeo.KernelSpec(N=params.N, c=tuple(c_seq))
        exp_ = hiergeo.build_expansion(spec)
        if exp_.h[-1] * math.exp(log_tmax) < 0.05:
            return exp_, log_tmax
        if L == 360:
            break
    usable = math.log(0.05 / exp_.h[-1])
    return exp_, usable


def _window_integrals(log_f: Callable, edges: np.ndarray) -> np.ndarray:
    """Integrals of exp(log_f(u)) du over consecutive [edges[i], edges[i+1]],
    by the trapezoidal rule on 33 points each."""
    out = np.empty(len(edges) - 1)
    for i in range(len(edges) - 1):
        u = np.linspace(edges[i], edges[i + 1], 33)
        out[i] = np.trapezoid(np.exp(log_f(u)), u)
    return out


def _fit_slope(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slope plus a curvature indicator (quadratic residual)."""
    coef = np.polyfit(x, y, 1)
    slope = coef[0]
    quad = np.polyfit(x, y, 2)[0] if len(x) >= 4 else 0.0
    curvature = quad * (x[-1] - x[0]) ** 2 / max(abs(y[-1] - y[0]), 1e-12)
    return float(slope), float(curvature)


def hazard_diagnostic(params: ModelParams) -> str:
    """Classify the coalescence-hazard integral as divergent or convergent.

    The integrand phi_hat(t)^{-1/gamma} t^{-(1-gamma)/gamma} a_t(0,0) is
    integrated on a log grid and the growth of doubling-window integrals is
    slope-fitted.  Exponential families give power-law integrands and are
    fitted in log t; polynomial families give slowly-varying integrands and
    are fitted in log u with u = log t (where their windows are power-like),
    with one further log-substitution separating the boundary 1/(u log u)
    growth from genuine convergence.  |slope| < 0.05 reads as "divergent
    like log".  The horizon is t = 1e14 for exponential families and 1e200
    for polynomial ones.  A fit with large curvature where a clean power is
    expected, or an ambiguous final-stage ratio, returns "inconclusive".
    """
    if params.family is None:
        raise FamilyError("hazard diagnostic needs a declared family")
    report = classify(params)
    if not report.rho_infinite:
        raise FamilyError("hazard criterion applies to the infinite seed-bank")
    gamma = report.gamma
    fam = params.family
    exp_kind = isinstance(fam, ExponentialFamily)
    exp_, log_tmax = _expansion_for_horizon(
        params, math.log(1e14 if exp_kind else 1e200))

    def log_f(u):
        """log of the integrand in du, u = log t (the factor t = e^u last)"""
        u = np.asarray(u, dtype=float)
        log_a = hiergeo.log_return_probability(u, exp_)
        return (-(1.0 / gamma) * _log_phi_hat(u, report, fam)
                - ((1.0 - gamma) / gamma) * u + log_a + u)

    if exp_kind:
        # a_t oscillates log-periodically with period log(N/c) around its
        # power-law envelope; windows of exactly that width sample the
        # envelope once per period, so the slope fit sees a clean power.
        period = math.log(params.N / fam.c)
        n_win = int((log_tmax - math.log(10.0)) / period)
        if n_win < 4:
            raise FamilyError("horizon too short for the window fit")
        edges = math.log(10.0) + period * np.arange(n_win + 1)
        abscissa = edges[1:]
    else:
        # polynomial family: windows double in u = log t, fitted in log u
        n_win = int(math.log2(log_tmax / 2.0))
        edges = 2.0 * 2.0 ** np.arange(n_win + 1)
        abscissa = np.log(edges[1:])
    W = _window_integrals(log_f, edges)
    tail = slice(max(0, n_win - 5), n_win)
    slope, curv = _fit_slope(abscissa[tail], np.log(W[tail]))
    if slope >= -_SLOPE_TOL:
        return DIVERGENT
    if exp_kind:
        return INCONCLUSIVE if abs(curv) > 0.35 else CONVERGENT
    # negative u-slope: either genuine convergence (u^{q+1}, q < -1) or the
    # boundary 1/(u log u); one more log-substitution separates them, as the
    # boundary gives near-constant windows in v = log u.
    v_edges = np.geomspace(1.5, math.log(log_tmax), 5)
    Wv = _window_integrals(log_f, np.exp(v_edges))
    ratio = Wv[-1] / Wv[0]
    if ratio > 0.75:
        return DIVERGENT
    if ratio < 0.45:
        return CONVERGENT
    return INCONCLUSIVE
