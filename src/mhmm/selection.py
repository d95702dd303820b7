"""Likelihood-ratio tests, AIC, and comparison tables.

P-values come from a self-contained regularized incomplete-gamma routine
(series expansion below the a+1 crossover, Lentz continued fraction above)
so results are bit-stable across platforms. Caveat: when the restricted
model sits on the boundary of the alternative (common with zeroed
interaction coordinates), the chi-square reference is the conventional
naive choice, not a boundary-corrected mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import check_nested
from .errors import DomainError, NumericalError
from .fit import FitResult

GAMMA_EPS = 1e-16
GAMMA_MAX_TERMS = 10_000


def _gamma_series_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series, x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(GAMMA_MAX_TERMS):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * GAMMA_EPS:
            break
    else:
        raise NumericalError(f"incomplete gamma series failed to converge at a={a}, x={x}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction, x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if abs(b) > tiny else 1.0 / tiny
    h = d
    for i in range(1, GAMMA_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_EPS:
            break
    else:
        raise NumericalError(f"incomplete gamma fraction failed to converge at a={a}, x={x}")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper tail Q(a, x) of the regularized incomplete gamma function."""
    if a <= 0:
        raise DomainError("gamma shape must be positive")
    if x < 0:
        raise DomainError("gamma argument must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_series_lower(a, x)))
    return min(1.0, max(0.0, _gamma_cf_upper(a, x)))


def chi_square_tail(statistic: float, df: int) -> float:
    """P(X > statistic) for X chi-square with df degrees of freedom."""
    if df < 1:
        raise DomainError("chi-square needs at least one degree of freedom")
    if statistic < 0:
        raise DomainError("chi-square statistic must be nonnegative")
    return regularized_gamma_q(df / 2.0, statistic / 2.0)


def chi_square_quantile(df: int, prob: float) -> float:
    """Value x with P(X <= x) = prob, by bisection on the tail."""
    if not 0.0 < prob < 1.0:
        raise DomainError("probability must sit strictly between 0 and 1")
    lo, hi = 0.0, max(10.0 * df, 100.0)
    while chi_square_tail(hi, df) > 1.0 - prob:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("chi-square quantile bracket blew up")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi_square_tail(mid, df) > 1.0 - prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LrtOutcome:
    statistic: float
    df: int
    p_value: float


def lrt(restricted: FitResult, full: FitResult) -> LrtOutcome:
    """Likelihood-ratio test of a restricted model against a nesting one.

    Nesting is constraints.check_nested: both models have the same latent
    and observable schemes and the restricted model zeroes every coordinate
    the full model zeroes (and possibly more). With zero degrees of freedom
    the test is the
    degenerate point mass: p = 1 when the statistic vanishes.
    """
    if restricted.data_fingerprint != full.data_fingerprint:
        raise DomainError("cannot test models fitted to different data")
    check_nested(
        restricted.constraints, full.constraints,
        (restricted.label or "restricted", full.label or "full"),
    )
    df = full.par - restricted.par
    if df < 0:
        raise DomainError("nested model must not have more free parameters")
    statistic = max(0.0, 2.0 * (full.log_lik - restricted.log_lik))
    if df == 0:
        p_value = 1.0 if statistic <= 1e-8 else 0.0
    else:
        p_value = chi_square_tail(statistic, df)
    return LrtOutcome(statistic, df, p_value)


def aic(fit, par: int | None = None) -> float:
    """Akaike criterion -2*loglike + 2*par; accepts a FitResult or a bare pair."""
    if par is None:
        return -2.0 * fit.log_lik + 2.0 * fit.par
    return -2.0 * float(fit) + 2.0 * par


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    statistic: float
    df: int
    p_value: float
    par: int
    log_lik: float
    aic: float
    converged: bool


@dataclass
class ModelComparison:
    reference_label: str
    rows: list[ComparisonRow]

    _COLUMNS = ("model", "LRT", "df", "p-value", "par", "loglike", "AIC", "converged")

    def _cells(self, real: str):
        """Each row's cells, with real numbers in the format spec real."""
        for row in self.rows:
            yield (
                row.label,
                format(row.statistic, real),
                str(row.df),
                format(row.p_value, real),
                str(row.par),
                format(row.log_lik, real),
                format(row.aic, real),
                "yes" if row.converged else "no",
            )

    def render_text(self) -> str:
        table = [self._COLUMNS, *self._cells(".4f")]
        widths = [max(len(r[j]) for r in table) for j in range(len(self._COLUMNS))]
        lines = []
        for i, row in enumerate(table):
            cells = [row[0].ljust(widths[0])]
            cells += [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
            lines.append("  ".join(cells).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"reference: {self.reference_label}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = ["model,lrt,df,p_value,par,loglike,aic,converged"]
        lines += map(",".join, self._cells(".17g"))
        return "\n".join(lines) + "\n"


def model_table(fits: list[FitResult], reference: FitResult) -> ModelComparison:
    """Comparison table of several fits against one nesting reference.

    Rows keep the given order; each is tested against the reference, so the
    df column is par(reference) - par(row), and lrt raises DomainError for a
    fit to other data or one not nested in the reference. The last column
    says whether the fit stopped on its tolerance (FitResult.converged).
    """
    rows = []
    for fit in fits:
        outcome = lrt(fit, reference)
        rows.append(
            ComparisonRow(
                label=fit.label or "model",
                statistic=outcome.statistic,
                df=outcome.df,
                p_value=outcome.p_value,
                par=fit.par,
                log_lik=fit.log_lik,
                aic=aic(fit),
                converged=fit.converged,
            )
        )
    return ModelComparison(reference_label=reference.label or "reference", rows=rows)
