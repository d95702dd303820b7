import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from mhmm import (
    ConstraintSet,
    DomainError,
    FitResult,
    InteractionIndex,
    VariableScheme,
    aic,
    chi_square_quantile,
    chi_square_tail,
    lrt,
    model_table,
    regularized_gamma_q,
)

LAT = VariableScheme.of(("E1", 2))
OBS = VariableScheme.of(("F1", 2))


def test_regularized_gamma_q_matches_scipy():
    for a in (0.5, 1.0, 2.5, 7.0, 40.0, 120.0):
        for x in (0.0, 1e-8, 0.3, a * 0.5, a, a * 1.5, a * 4, a * 12):
            assert regularized_gamma_q(a, x) == approx(
                float(scipy.special.gammaincc(a, x)), abs=1e-12, rel=1e-10
            )


def test_chi_square_tail_matches_scipy():
    for df in (1, 2, 3, 4, 10, 25, 116):
        for stat in (0.0, 0.5, 2.0, df - 1, df + 0.0, 2 * df + 3.4, 5 * df):
            assert chi_square_tail(float(stat), df) == approx(
                float(scipy.stats.chi2.sf(stat, df)), abs=1e-12, rel=1e-9
            )


def test_chi_square_tail_df_two_is_exponential():
    for stat in (0.1, 1.0, 7.5):
        assert chi_square_tail(stat, 2) == approx(math.exp(-stat / 2), rel=1e-12)


def test_chi_square_tail_validation():
    with pytest.raises(DomainError):
        chi_square_tail(1.0, 0)
    with pytest.raises(DomainError):
        chi_square_tail(-0.5, 3)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.01, max_value=0.995),
)
def test_chi_square_quantile_inverts_tail(df, prob):
    q = chi_square_quantile(df, prob)
    assert chi_square_tail(q, df) == approx(1.0 - prob, abs=1e-9)


def test_chi_square_quantile_known_values():
    assert chi_square_quantile(4, 0.99) == approx(13.2767, abs=2e-4)
    assert chi_square_quantile(1, 0.95) == approx(3.8415, abs=2e-4)
    with pytest.raises(DomainError):
        chi_square_quantile(3, 1.0)


def fake_fit(label, log_lik, par, constraints, fingerprint="abc", stop_reason="tol"):
    return FitResult(
        model=None,
        delta=None,
        theta=None,
        constraints=constraints,
        log_lik=log_lik,
        iterations=5,
        stop_reason=stop_reason,
        em_trace=[log_lik],
        par=par,
        data_fingerprint=fingerprint,
        label=label,
        seed=0,
        best_restart=0,
    )


def index_chain(n):
    cs = ConstraintSet(LAT, OBS)
    pool = [
        InteractionIndex("delta", ("E1",), ("E1",), (2,), (2,)),
        InteractionIndex("theta", ("F1",), ("E1",), (2,), (2,)),
        InteractionIndex("theta", ("F1",), (), (2,), ()),
    ]
    for index in pool[:n]:
        cs.add(index, "user")
    return cs


def test_lrt_basic_and_clamping():
    full = fake_fit("full", -100.0, 10, ConstraintSet(LAT, OBS))
    restricted = fake_fit("small", -104.2, 6, index_chain(2))
    out = lrt(restricted, full)
    assert out.statistic == approx(8.4)
    assert out.df == 4
    assert out.p_value == approx(float(scipy.stats.chi2.sf(8.4, 4)), rel=1e-9)
    # a restricted optimum above the full one clamps to zero
    lucky = fake_fit("lucky", -99.9, 6, index_chain(2))
    assert lrt(lucky, full).statistic == 0.0


def test_lrt_degenerate_zero_df():
    full = fake_fit("full", -100.0, 10, ConstraintSet(LAT, OBS))
    same = fake_fit("same", -100.0, 10, ConstraintSet(LAT, OBS))
    out = lrt(same, full)
    assert out.df == 0 and out.p_value == 1.0
    better = fake_fit("better", -90.0, 10, ConstraintSet(LAT, OBS))
    assert lrt(full, better).p_value == 0.0


def test_lrt_rejects_non_nested_and_mismatched_data():
    full = fake_fit("full", -100.0, 10, index_chain(2))
    loose = fake_fit("loose", -99.0, 12, ConstraintSet(LAT, OBS))
    with pytest.raises(DomainError):
        lrt(loose, full)
    other = fake_fit("other", -104.0, 6, index_chain(2), fingerprint="zzz")
    with pytest.raises(DomainError):
        lrt(other, full)
    inflated = fake_fit("inflated", -104.0, 11, index_chain(2))
    with pytest.raises(DomainError):
        lrt(inflated, full)


def test_lrt_rejects_fits_over_other_schemes():
    """Saturated fits zero nothing, so only their schemes tell a 3-state
    latent chain, or a 3-category observable, from the full model's."""
    lat3 = VariableScheme.of(("E1", 3))
    full = fake_fit("big", -100.0, 14, ConstraintSet(lat3, OBS))
    fewer_states = fake_fit("a", -101.0, 4, ConstraintSet(LAT, OBS))
    with pytest.raises(DomainError, match="not nested") as info:
        lrt(fewer_states, full)
    assert str(info.value) == (
        "model 'a' is not nested in 'big': latent E1(2), observed F1(2)"
        " against latent E1(3), observed F1(2)"
    )
    more_categories = fake_fit("b", -101.0, 20, ConstraintSet(lat3, VariableScheme.of(("F1", 3))))
    with pytest.raises(DomainError, match=r"'b' is not nested in 'big': .*observed F1\(3\) "):
        lrt(more_categories, full)


def test_aic_forms():
    assert aic(-739.0426, 17) == approx(1512.0852)
    assert f"{aic(-739.0426, 17):.3f}" == "1512.085"
    assert aic(-2707.883, 22) == approx(5459.766)
    assert abs(aic(-2707.883, 22) - 5459.77) < 0.01
    fit = fake_fit("m", -10.0, 3, ConstraintSet(LAT, OBS))
    assert aic(fit) == approx(26.0)


def test_model_table_renders_aligned_text_and_csv():
    full = fake_fit("saturated", -100.0, 10, ConstraintSet(LAT, OBS))
    small = fake_fit("restricted", -104.2, 6, index_chain(2))
    cmp = model_table([full, small], full)
    text = cmp.render_text()
    lines = text.splitlines()
    assert lines[0].split() == [
        "model", "LRT", "df", "p-value", "par", "loglike", "AIC", "converged"
    ]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("saturated")
    assert lines[-1] == "reference: saturated"
    assert "8.4000" in lines[3]

    csv = cmp.render_csv()
    rows = csv.splitlines()
    assert rows[0] == "model,lrt,df,p_value,par,loglike,aic,converged"
    assert rows[2].split(",")[1] == f"{2.0 * (-100.0 + 104.2):.17g}"
    assert rows[1].split(",")[2] == "0"


def test_model_table_says_which_fits_stopped_short():
    full = fake_fit("saturated", -100.0, 10, ConstraintSet(LAT, OBS))
    capped = fake_fit("capped", -104.2, 6, index_chain(2), stop_reason="max_iter")
    cmp = model_table([full, capped], full)
    assert [row.split(",")[-1] for row in cmp.render_csv().splitlines()] == [
        "converged", "yes", "no"
    ]
    text = cmp.render_text().splitlines()
    assert [line.split()[-1] for line in text[2:4]] == ["yes", "no"]


def test_model_table_validates_membership():
    full = fake_fit("full", -100.0, 10, ConstraintSet(LAT, OBS))
    stray = fake_fit("stray", -90.0, 12, ConstraintSet(LAT, OBS), fingerprint="zzz")
    with pytest.raises(DomainError):
        model_table([full, stray], full)


def test_model_table_rejects_non_nested_fit():
    # zeroes a different coordinate than the reference, with fewer parameters
    sideways = ConstraintSet(LAT, OBS)
    sideways.add(InteractionIndex("theta", ("F1",), ("E1",), (2,), (2,)), "user")
    full = fake_fit("full", -100.0, 10, index_chain(1))
    other = fake_fit("other", -101.0, 9, sideways)
    with pytest.raises(DomainError, match="not nested"):
        model_table([full, other], full)
