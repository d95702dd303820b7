import hashlib
import math

import numpy as np
import pytest
from pytest import approx

from mhmm import (
    DomainError,
    MhmmModel,
    NumericalError,
    ObservedSeries,
    ParseError,
    VariableScheme,
    forward_backward,
    joint_law,
    log_likelihood,
    marginal_model,
    read_model,
    read_series_csv,
    simulate,
    stationary_distribution,
    viterbi,
    write_model,
    write_series_csv,
)
import mhmm.model
from mhmm.model import expected_counts
from helpers import (
    path_sum_log_likelihood,
    brute_posteriors,
    brute_viterbi,
    random_model,
    random_rows,
    random_scheme,
)

LAT1 = VariableScheme.of(("E1", 2))
OBS1 = VariableScheme.of(("F1", 2))


def two_state_model(p_stay=0.9, q_stay=0.8, emit_hi=0.85):
    transition = np.array([[p_stay, 1 - p_stay], [1 - q_stay, q_stay]])
    emission = np.array([[emit_hi, 1 - emit_hi], [1 - emit_hi, emit_hi]])
    return MhmmModel.from_tables(LAT1, OBS1, transition, emission)


def series_of(scheme, rows):
    return ObservedSeries(scheme, np.array(rows, dtype=int))


def test_stationary_distribution_two_state():
    # birth-death chain: pi proportional to (q_leave, p_leave) reversed
    t = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi = stationary_distribution(t)
    assert pi == approx([0.75, 0.25])
    assert pi @ t == approx(pi)


def test_stationary_distribution_validates_rows():
    with pytest.raises(DomainError):
        stationary_distribution(np.array([[0.9, 0.2], [0.3, 0.7]]))
    with pytest.raises(DomainError):
        stationary_distribution(np.array([[1.1, -0.1], [0.3, 0.7]]))


def test_from_tables_sets_stationary_initial():
    m = two_state_model()
    assert m.initial @ m.transition == approx(m.initial)
    assert m.initial.sum() == approx(1.0)


def test_from_tables_validates_shapes():
    with pytest.raises(DomainError):
        MhmmModel.from_tables(LAT1, OBS1, np.eye(3), np.full((2, 2), 0.5))
    with pytest.raises(DomainError):
        MhmmModel.from_tables(
            LAT1, OBS1, np.full((2, 2), 0.5), np.array([[0.6, 0.5], [0.5, 0.5]])
        )


def test_log_likelihood_matches_path_sum(rng):
    for _ in range(10):
        lat = random_scheme(rng, "E", int(rng.integers(1, 3)), max_cats=2)
        obs = random_scheme(rng, "F", int(rng.integers(1, 3)), max_cats=3)
        m = random_model(rng, lat, obs)
        T = int(rng.integers(1, 6))
        _, series = simulate(m, T, seed=int(rng.integers(1 << 30)))
        assert log_likelihood(m, series) == approx(
            path_sum_log_likelihood(m, series), abs=1e-10
        )


def test_log_likelihood_single_state_degenerates_to_emission_product():
    lat = VariableScheme.of(("E1", 2))
    # strictly positive but almost-degenerate second state never visited
    transition = np.array([[1.0, 0.0], [0.0, 1.0]]) * 0.999999 + 0.000001 * 0.5
    emission = np.array([[0.3, 0.7], [0.3, 0.7]])
    m = MhmmModel.from_tables(lat, OBS1, transition, emission)
    s = series_of(OBS1, [[1], [2], [2]])
    assert log_likelihood(m, s) == approx(math.log(0.3) + 2 * math.log(0.7), abs=1e-9)


def test_log_likelihood_length_one():
    m = two_state_model()
    s = series_of(OBS1, [[2]])
    expected = math.log(m.initial @ m.emission[:, 1])
    assert log_likelihood(m, s) == approx(expected, abs=1e-12)


def test_log_likelihood_rejects_wrong_scheme():
    m = two_state_model()
    s = series_of(VariableScheme.of(("G1", 2)), [[1]])
    with pytest.raises(DomainError):
        log_likelihood(m, s)


def test_forward_backward_matches_brute_force(rng):
    for _ in range(5):
        m = random_model(rng, VariableScheme.of(("E1", 2), ("E2", 2)), OBS1)
        _, series = simulate(m, 5, seed=int(rng.integers(1 << 30)))
        gamma, xi, ll = forward_backward(m, series)
        bg, bx = brute_posteriors(m, series)
        assert ll == approx(path_sum_log_likelihood(m, series), abs=1e-10)
        assert gamma == approx(bg, abs=1e-10)
        assert xi == approx(bx, abs=1e-10)
        assert gamma.sum(axis=1) == approx(np.ones(5))
        assert xi.sum(axis=(1, 2)) == approx(np.ones(4))


def counts_from_posteriors(model, series):
    gamma, xi, log_lik = forward_backward(model, series)
    counts_trans = xi.sum(axis=0) if len(xi) else np.ones_like(model.transition)
    counts_emit = np.zeros(model.emission.shape)
    np.add.at(counts_emit.T, series.state_indices, gamma)
    return counts_trans, counts_emit, log_lik


def assert_same_counts(got, expected):
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert got[2] == expected[2]


@pytest.mark.parametrize("latent_counts", [(2, 2), (3, 3), (2, 2, 2, 2)])
def test_batched_e_step_rows_equal_single_model_calls(latent_counts):
    """n = 4, 9, 16 latent states; every row of a stack is bitwise the
    single-model E-step and the counts of forward_backward's posteriors."""
    rng = np.random.default_rng(sum(latent_counts))
    latent = VariableScheme.of(*[(f"E{i}", c) for i, c in enumerate(latent_counts)])
    observed = VariableScheme.of(("F1", 3), ("F2", 2))
    for length in (1, 500):
        models = [random_model(rng, latent, observed) for _ in range(3)]
        _, series = simulate(models[0], length, seed=int(rng.integers(1 << 30)))
        for stack in (models[:1], models):
            rows = expected_counts(stack, series)
            assert len(rows) == len(stack)
            for model, row in zip(stack, rows):
                assert_same_counts(row, expected_counts([model], series)[0])
                assert_same_counts(row, counts_from_posteriors(model, series))


# sha256 of expected_counts over a stack of three models, at lengths on and
# around the pair blocks of the E-step's transition counts, recorded with
# the E-step that summed one whole (T - 1, n, n) pair array
GOLDEN_E_STEP = {
    "2x2-block-50": "2ac72c1b1baa4e4f42b91129fb58b9d81063f2c0818dadf5d6706d11cebd38f9",
    "2x2-default-block": "91b2619ba8f692a02fb73554c94695cca45cb2762742b67eb89bfcee2e46c547",
    "3x3-default-block": "4755a43b1a4371210bd7a89bb7bc4cf0eae17896e33d13da73fab08448a60d82",
}


@pytest.mark.parametrize(
    "name, latent_counts, block, forced",
    [
        ("2x2-block-50", (2, 2), 50, True),
        ("2x2-default-block", (2, 2), 8192, False),
        ("3x3-default-block", (3, 3), 1618, False),
    ],
)
def test_e_step_counts_match_golden_digest_across_pair_blocks(
    name, latent_counts, block, forced, monkeypatch
):
    latent = VariableScheme.of(*[(f"E{i}", c) for i, c in enumerate(latent_counts)])
    observed = VariableScheme.of(("F1", 3), ("F2", 2))
    n = latent.n_states
    if forced:
        monkeypatch.setattr(mhmm.model, "PAIR_BLOCK_BYTES", 8 * n * n * block)
    assert mhmm.model._pair_block(n) == block
    rng = np.random.default_rng(2024 + n)
    models = [random_model(rng, latent, observed) for _ in range(3)]
    digest = hashlib.sha256()
    for length in (1, 2, block - 1, block + 1, block + 2, 3 * block + 1):
        _, series = simulate(models[0], length, seed=length)
        for counts_trans, counts_emit, log_lik in expected_counts(models, series):
            digest.update(counts_trans.tobytes())
            digest.update(counts_emit.tobytes())
            digest.update(np.float64(log_lik).tobytes())
    assert digest.hexdigest() == GOLDEN_E_STEP[name]


def test_batched_e_step_isolates_an_underflowing_row(rng):
    models = [random_model(rng, VariableScheme.of(("E1", 2), ("E2", 2)), OBS1) for _ in range(3)]
    series = series_of(OBS1, [[1]] * 6 + [[2]] + [[1]] * 3)
    emission = models[1].emission.copy()
    emission[:, 1] = 0.0
    emission[:, 0] = 1.0
    models[1] = MhmmModel.from_tables(models[1].latent_scheme, OBS1, models[1].transition, emission)
    with pytest.raises(NumericalError) as single:
        forward_backward(models[1], series)
    assert str(single.value) == "forward recursion underflowed at time 6"
    with pytest.raises(NumericalError, match="at time 6$"):
        log_likelihood(models[1], series)
    rows = expected_counts(models, series)
    assert isinstance(rows[1], NumericalError)
    assert str(rows[1]) == str(single.value)
    for r in (0, 2):
        assert_same_counts(rows[r], expected_counts([models[r]], series)[0])


def test_state_indices_follow_scheme_enumeration(rng):
    scheme = VariableScheme.of(("F1", 3), ("F2", 2), ("F3", 4))
    data = np.column_stack([rng.integers(1, c + 1, 200) for c in scheme.counts])
    series = ObservedSeries(scheme, data)
    assert series.state_indices.tolist() == [scheme.state_index(tuple(row)) for row in data]


def test_viterbi_matches_exhaustive_search(rng):
    for _ in range(10):
        m = random_model(rng, VariableScheme.of(("E1", 2)), VariableScheme.of(("F1", 3)))
        _, series = simulate(m, 5, seed=int(rng.integers(1 << 30)))
        assert np.array_equal(viterbi(m, series), brute_viterbi(m, series))


def test_viterbi_breaks_ties_to_smallest_index():
    lat = VariableScheme.of(("E1", 2))
    m = MhmmModel.from_tables(
        lat, OBS1, np.full((2, 2), 0.5), np.full((2, 2), 0.5)
    )
    s = series_of(OBS1, [[1], [2], [1]])
    assert np.array_equal(viterbi(m, s), np.ones((3, 1), dtype=int))


# sha256 of the path below as little-endian int64, recorded with the
# gather-per-step recursion that the in-place max/argmax loop replaced
GOLDEN_VITERBI_20K = "4f02461fff9b845bfe2873080c1c3f9ad2158f40daf10008871ce5eee2e39fb3"


def test_viterbi_golden_path():
    model = _two_by_two_model()
    _, series = simulate(model, 20_000, seed=7)
    path = viterbi(model, series)
    assert path.shape == (20_000, 2)
    digest = hashlib.sha256(np.ascontiguousarray(path, dtype="<i8").tobytes()).hexdigest()
    assert digest == GOLDEN_VITERBI_20K


def test_simulate_reproducible_and_valid():
    m = two_state_model()
    lat_a, ser_a = simulate(m, 200, seed=42)
    lat_b, ser_b = simulate(m, 200, seed=42)
    assert np.array_equal(ser_a.data, ser_b.data)
    assert np.array_equal(lat_a, lat_b)
    _, ser_c = simulate(m, 200, seed=43)
    assert not np.array_equal(ser_a.data, ser_c.data)
    assert ser_a.data.shape == (200, 1)
    assert set(np.unique(ser_a.data)) <= {1, 2}
    assert lat_a.shape == (200, 1)


def test_simulate_long_run_frequencies():
    m = two_state_model()
    lat, _ = simulate(m, 20_000, seed=5)
    freq = np.mean(lat[:, 0] == 1)
    assert freq == approx(m.initial[0], abs=0.02)


def _simulation_digest(model, length, seed):
    latent, series = simulate(model, length, seed=seed)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(latent, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(series.data, dtype="<i8").tobytes())
    return h.hexdigest()


def _two_by_two_model():
    latent = VariableScheme.of(("E1", 2), ("E2", 2))
    obs = VariableScheme.of(("F1", 3), ("F2", 2))
    transition = np.kron(
        np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([[0.75, 0.25], [0.2, 0.8]])
    )
    emission = np.random.default_rng(99).dirichlet(np.ones(6), size=4)
    return MhmmModel.from_tables(latent, obs, transition, emission)


@pytest.mark.parametrize(
    "make_model, length, seed, digest",
    [
        (two_state_model, 500, 42, "a5fa2a677b975e6b8f62338b638e4e6e20be12063adf549b16430f25a421bd14"),
        (_two_by_two_model, 3000, 2024, "42818a6ffc20f85aefce76b72560772df41cf4c46fa428184e943578dd5668ec"),
    ],
    ids=["two-state", "two-by-two"],
)
def test_simulate_golden_stream(make_model, length, seed, digest):
    """The random stream of simulate is pinned: data sets simulated from a
    seed, and every result fitted on them, depend on it."""
    assert _simulation_digest(make_model(), length, seed) == digest


def test_marginal_model_on_product_chain(rng):
    latent = VariableScheme.of(("E1", 2), ("E2", 2))
    obs = VariableScheme.of(("F1", 2), ("F2", 3))
    t1 = np.array([[0.8, 0.2], [0.3, 0.7]])
    t2 = np.array([[0.6, 0.4], [0.45, 0.55]])
    transition = np.kron(t1, t2)
    e1 = random_rows(rng, 2, 2)
    e2 = random_rows(rng, 2, 3)
    emission = np.vstack([np.kron(e1[i], e2[j]) for i in range(2) for j in range(2)])
    m = MhmmModel.from_tables(latent, obs, transition, emission)

    sub = marginal_model(m, ["E1"], ["F1"])
    assert sub.transition == approx(t1, abs=1e-12)
    assert sub.emission == approx(e1, abs=1e-12)
    law_full = joint_law(m, 3, ["E1"], ["F1"])
    law_sub = joint_law(sub, 3)
    assert law_sub == approx(law_full, abs=1e-12)


def test_marginal_model_check_rejects_entangled_chain(rng):
    latent = VariableScheme.of(("E1", 2), ("E2", 2))
    obs = VariableScheme.of(("F1", 2), ("F2", 2))
    m = random_model(rng, latent, obs)
    with pytest.raises(DomainError):
        marginal_model(m, ["E1"], ["F1"])
    # the weighted average is still computable without the check
    sub = marginal_model(m, ["E1"], ["F1"], check=False)
    assert sub.transition.sum(axis=1) == approx(np.ones(2))


def test_joint_law_sums_to_one(rng):
    m = random_model(rng, VariableScheme.of(("E1", 2)), OBS1)
    law = joint_law(m, 3)
    assert law.shape == (2, 2, 2, 2, 2, 2)
    assert law.sum() == approx(1.0, abs=1e-12)


def test_model_file_round_trip(rng):
    m = random_model(rng, VariableScheme.of(("E1", 2), ("E2", 3)), OBS1)
    text = write_model(m)
    back = read_model(text)
    assert back.latent_scheme == m.latent_scheme
    assert back.obs_scheme == m.obs_scheme
    assert np.array_equal(back.transition, m.transition)
    assert np.array_equal(back.emission, m.emission)
    assert np.array_equal(back.initial, m.initial)
    assert write_model(back) == text


def test_model_file_rejects_tampering(rng):
    m = random_model(rng, LAT1, OBS1)
    text = write_model(m).replace("latent E1 2", "latent E1 3", 1)
    with pytest.raises(DomainError):
        read_model(text)


def test_series_csv_round_trip():
    scheme = VariableScheme.of(("F1", 3), ("F2", 2))
    s = series_of(scheme, [[1, 2], [3, 1], [2, 2]])
    text = write_series_csv(s)
    assert text.splitlines()[0] == "F1,F2"
    back = read_series_csv(text, scheme)
    assert np.array_equal(back.data, s.data)
    assert back.fingerprint == s.fingerprint


CSV_SCHEME = VariableScheme.of(("F1", 12), ("F2", 2))
CSV_ROWS = [[1, 2], [12, 1]]
# what read_series_csv made of each input, recorded with the per-row reader
# that the bulk one replaced
ACCEPTED_CSV = {
    "blank and comma rows": ("F1,F2\n1,2\n\n,\n , \n12,1\n", CSV_ROWS),
    "spaces around cells": (" F1 , F2 \n 1 , 2 \n12,1\n", CSV_ROWS),
    "crlf": ("F1,F2\r\n1,2\r\n12,1\r\n", CSV_ROWS),
    "quoted cells": ('"F1","F2"\n"1","2"\n12,"1"\n', CSV_ROWS),
    "reordered columns": ("F2,F1\n2,1\n1,12\n", CSV_ROWS),
    "int forms": ("F1,F2\n1_0,+2\n011,1\n", [[10, 2], [11, 1]]),
    "utf-8 BOM": ("\ufeffF1,F2\r\n1,2\r\n12,1\r\n", CSV_ROWS),
}
REJECTED_CSV = {
    "ragged short": ("F1,F2\n1,2\n3\n4,1\n", "line 3: expected 2 cells, got 1"),
    "ragged long": ("F1,F2\n1,2\n3,1,1\n", "line 3: expected 2 cells, got 3"),
    "non-integer": ("F1,F2\n1,2\n\n3,x\n", "line 4: categories must be integers"),
    "non-integer before ragged": ("F1,F2\n1.0,2\n3\n", "line 2: categories must be integers"),
    "blank cell": ("F1,F2\n1,\n", "line 2: categories must be integers"),
    "header mismatch": (
        "F1,G2\n1,2\n",
        "series columns ['F1', 'G2'] do not match observable variables ['F1', 'F2']",
    ),
    "empty file": ("", "empty series file"),
    "header only": ("F1,F2\n", "series file has no data rows"),
    "header and blank rows": ("F1,F2\n\n,\n", "series file has no data rows"),
    "beyond int64": ("F1,F2\n1,2\n99999999999999999999,1\n", "line 3: categories exceed the int64 range"),
}


@pytest.mark.parametrize("name", ACCEPTED_CSV)
def test_series_csv_accepted_inputs(name):
    text, rows = ACCEPTED_CSV[name]
    series = read_series_csv(text, CSV_SCHEME)
    assert series.data.tolist() == rows
    assert series.data.dtype == np.dtype(int)


@pytest.mark.parametrize("name", REJECTED_CSV)
def test_series_csv_rejected_inputs(name):
    text, message = REJECTED_CSV[name]
    with pytest.raises(ParseError) as raised:
        read_series_csv(text, CSV_SCHEME)
    assert str(raised.value) == message


@pytest.mark.parametrize("length", [1, 200])
def test_series_csv_write_read_write_is_byte_identical(length):
    # F1 has multi-digit categories
    scheme = VariableScheme.of(("F1", 12), ("G", 2), ("H", 3))
    rng = np.random.default_rng(length)
    data = np.column_stack([rng.integers(1, c + 1, length) for c in scheme.counts])
    text = write_series_csv(ObservedSeries(scheme, data))
    assert text == "F1,G,H\n" + "".join(",".join(map(str, row)) + "\n" for row in data.tolist())
    back = read_series_csv(text, scheme)
    assert np.array_equal(back.data, data)
    assert write_series_csv(back) == text


def test_series_csv_rejects_bad_categories():
    scheme = VariableScheme.of(("F1", 2),)
    with pytest.raises(DomainError):
        read_series_csv("F1\n1\n5\n", scheme)
    with pytest.raises(DomainError):
        read_series_csv("G1\n1\n", scheme)


def test_series_fingerprint_tracks_content():
    scheme = VariableScheme.of(("F1", 2),)
    a = series_of(scheme, [[1], [2]])
    b = series_of(scheme, [[2], [1]])
    assert a.fingerprint != b.fingerprint
