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
    stepwise_counts,
    stepwise_forward,
    stepwise_viterbi,
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


LATENT_2X2 = VariableScheme.of(("E1", 2), ("E2", 2))
OBSERVED_3X2 = VariableScheme.of(("F1", 3), ("F2", 2))


def slow_forgetting_model(rng, latent, observed):
    """Transition diagonal 1 - 1e-4 and nearly flat emissions: the forward
    recursion forgets its start far more slowly than the warm-up of a time
    block."""
    n = latent.n_states
    transition = np.full((n, n), 1e-4 / (n - 1))
    np.fill_diagonal(transition, 1 - 1e-4)
    emission = 1 + 0.01 * rng.uniform(-1, 1, (n, observed.n_states))
    emission /= emission.sum(axis=1, keepdims=True)
    return MhmmModel.from_tables(latent, observed, transition, emission)


def padding(length, width):
    """Steps the last time block of the forward pass runs past the series."""
    blocks, stride, steps = mhmm.model._time_blocks(length, width)
    return (blocks - 1) * stride + steps - length


def lengths_around_blocks(width):
    """Just below and at the blocking threshold, then a length whose blocks
    end exactly at T and the lengths one step either side of it, whose last
    block is short."""
    threshold = mhmm.model.FORWARD_BLOCK_MIN_T
    full = next(t for t in range(threshold + 500, threshold + 2000) if padding(t, width) == 0)
    assert padding(full - 1, width) > 0 and padding(full + 1, width) > 0
    return threshold - 1, threshold, full - 1, full, full + 1


@pytest.mark.parametrize("mixed", [False, True], ids=["R1", "R3-with-slow-row"])
def test_blocked_forward_equals_the_step_loop(mixed, monkeypatch):
    """_forward, log_likelihood and expected_counts are bitwise the step
    loop's around the blocking threshold and the block edges; in the mixed
    stack the slow row misses the check and is rerun."""
    rng = np.random.default_rng(11)
    fast = [random_model(rng, LATENT_2X2, OBSERVED_3X2) for _ in range(2)]
    slow = slow_forgetting_model(rng, LATENT_2X2, OBSERVED_3X2)
    stack = [fast[0], slow, fast[1]] if mixed else fast[:1]
    reruns = []

    def spy(transition, alpha, b, scales, lo, hi):
        # the lock-step pass starts at times 1 and FORWARD_WARMUP; a rerun
        # of one row starts at a later block's entry
        if lo > mhmm.model.FORWARD_WARMUP:
            assert len(transition) == 1
            rows = [r for r, m in enumerate(stack) if np.array_equal(m.transition, transition[0])]
            reruns.extend(rows)
        steps(transition, alpha, b, scales, lo, hi)

    steps = mhmm.model._steps
    monkeypatch.setattr(mhmm.model, "_steps", spy)
    lengths = lengths_around_blocks(len(stack) * LATENT_2X2.n_states)
    for length in lengths:
        _, series = simulate(fast[0], length, seed=length)
        got = mhmm.model._forward(stack, series)
        for got_part, want_part in zip(got, stepwise_forward(stack, series)):
            assert np.array_equal(got_part, want_part)
        want = stepwise_counts(stack, series)
        for got_row, want_row in zip(expected_counts(stack, series), want):
            assert_same_counts(got_row, want_row)
        for model, want_row in zip(stack, want):
            assert log_likelihood(model, series) == want_row[2]
    assert set(reruns) == ({1} if mixed else set())


def test_blocked_forward_reports_underflow_where_the_step_loop_does():
    """Row 0 cannot emit an observation deep in a block, row 2 one inside a
    later block's warm-up window; both fail at the step loop's time, and
    row 1 keeps its counts bitwise."""
    rng = np.random.default_rng(12)
    observed = VariableScheme.of(("F1", 3))
    models = [random_model(rng, LATENT_2X2, observed) for _ in range(3)]
    for r, category in ((0, 1), (2, 2)):
        emission = models[r].emission.copy()
        emission[:, category] = 0.0
        emission /= emission.sum(axis=1, keepdims=True)
        models[r] = MhmmModel.from_tables(LATENT_2X2, observed, models[r].transition, emission)
    length = 3 * mhmm.model.FORWARD_BLOCK_MIN_T
    blocks, stride, _ = mhmm.model._time_blocks(length, 3 * LATENT_2X2.n_states)
    assert blocks >= 3
    warmup = mhmm.model.FORWARD_WARMUP
    deep = stride + warmup + stride // 2
    in_warmup = 2 * stride + warmup // 2
    data = np.ones((length, 1), dtype=int)
    data[deep], data[in_warmup] = 2, 3
    series = ObservedSeries(observed, data)
    rows = expected_counts(models, series)
    want = stepwise_counts(models, series)
    for r, t in ((0, deep), (2, in_warmup)):
        assert str(rows[r]) == str(want[r]) == f"forward recursion underflowed at time {t}"
        with pytest.raises(NumericalError, match=f"at time {t}$"):
            log_likelihood(models[r], series)
    assert_same_counts(rows[1], want[1])
    assert_same_counts(rows[1], expected_counts([models[1]], series)[0])


def test_recursion_beyond_the_size_limit_is_refused(monkeypatch):
    """The limit holds b, alpha and beta of the whole stack, 3 T n floats
    a model."""
    model = two_state_model()
    series = series_of(OBS1, [[1], [2]] * 50)
    assert mhmm.model.recursion_bytes(100, 2, 3) == 3 * 100 * 2 * 3 * 8
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 3 * 100 * 2 * 8)
    log_likelihood(model, series)
    with pytest.raises(DomainError, match="of 2 model.s. over 100 steps .* needs 9,600 bytes"):
        expected_counts([model, model], series)
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 3 * 100 * 2 * 8 - 1)
    with pytest.raises(DomainError, match="needs 4,800 bytes, above the limit of 4,799$"):
        log_likelihood(model, series)


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


def benchmark_generating_model():
    """The benchmark's generating model: two autonomous binary chains with
    sharp emissions over F1 (3) x F2 (2)."""
    transition = np.kron(
        np.array([[0.85, 0.15], [0.25, 0.75]]), np.array([[0.8, 0.2], [0.15, 0.85]])
    )
    emission = np.full((4, 6), 0.044)
    for row, cell in enumerate((0, 3, 4, 5)):
        emission[row, cell] = 0.78
    emission /= emission.sum(axis=1, keepdims=True)
    return MhmmModel.from_tables(LATENT_2X2, OBSERVED_3X2, transition, emission)


def viterbi_case(name, rng):
    """(model, lengths) of one equality case of the blocked Viterbi."""
    n = LATENT_2X2.n_states
    threshold = mhmm.model.FORWARD_BLOCK_MIN_T
    around = sorted(set(lengths_around_blocks(n)) | {threshold + 1})
    if name == "random":
        return random_model(rng, LATENT_2X2, OBSERVED_3X2), around
    if name == "all-tie":
        tables = np.full((n, n), 1 / n), np.full((n, 6), 1 / 6)
    elif name == "partial-tie":
        tables = np.kron(np.full((2, 2), 0.5), [[0.7, 0.3], [0.3, 0.7]]), np.full((n, 6), 1 / 6)
    elif name == "zeros":
        # each state cannot emit one category, so some scores are -inf
        cycle = 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))
        emission = random_model(rng, LATENT_2X2, OBSERVED_3X2).emission.copy()
        emission[np.arange(n), np.arange(n)] = 0.0
        tables = cycle, emission / emission.sum(axis=1, keepdims=True)
    elif name == "crossing":
        # best scores fall about 1.6 a step, through 2^10 .. 2^15 mid-block
        return benchmark_generating_model(), (30_000,)
    else:
        return slow_forgetting_model(rng, LATENT_2X2, OBSERVED_3X2), (threshold, 3000)
    return MhmmModel.from_tables(LATENT_2X2, OBSERVED_3X2, *tables), (threshold - 1, 5000)


def straddles(low, high):
    """Whether magnitudes from low to high leave the open binade of low."""
    fraction, exponent = math.frexp(low)
    return fraction == 0.5 or math.frexp(high)[1] != exponent


@pytest.mark.parametrize(
    "name", ["random", "all-tie", "partial-tie", "zeros", "crossing", "slow"]
)
def test_blocked_viterbi_equals_the_step_loop(name, monkeypatch):
    """The path is bitwise the step loop's; every stored time's scores are
    the step loop's plus one shift, which is what the backtrack relies on;
    and only the expected blocks are rerun: every block of the
    slow-forgetting model, and on the generating model only blocks whose
    scores or candidates, exact or as computed, touch a power of two."""
    model, lengths = viterbi_case(name, np.random.default_rng(13))
    warmup = mhmm.model.FORWARD_WARMUP
    reruns, shifts, stored = [], {}, []

    def spy_steps(log_a, score, log_b, lo, hi):
        if log_a.ndim == 2 and lo > 1:
            reruns.append(lo)
        steps(log_a, score, log_b, lo, hi)

    def spy_shift(guess, exact, scores, addends):
        live = exact > -np.inf
        shifts[len(shifts) + 1] = float(np.max(guess[live] - exact[live]))
        return block_shift(guess, exact, scores, addends)

    def spy_backtrack(score, log_a):
        stored.append(score.copy())
        return backtrack(score, log_a)

    steps, block_shift = mhmm.model._max_steps, mhmm.model._block_shift
    backtrack = mhmm.model._backtrack
    monkeypatch.setattr(mhmm.model, "_max_steps", spy_steps)
    monkeypatch.setattr(mhmm.model, "_block_shift", spy_shift)
    monkeypatch.setattr(mhmm.model, "_backtrack", spy_backtrack)
    for length in lengths:
        reruns.clear()
        shifts.clear()
        stored.clear()
        _, series = simulate(model, length, seed=length)
        want, scores = stepwise_viterbi(model, series)
        assert np.array_equal(viterbi(model, series), want)
        live = scores > -np.inf
        assert np.array_equal(stored[0] > -np.inf, live)
        with np.errstate(invalid="ignore"):
            offsets = np.where(live, stored[0] - scores, np.nan)
        assert (np.nanmax(offsets, 1) == np.nanmin(offsets, 1)).all()
        blocks, stride, _ = mhmm.model._time_blocks(length, model.transition.shape[0])
        rerun = {(lo - warmup) // stride for lo in reruns}
        if name == "slow":
            assert rerun == set(range(1, blocks))
        elif name == "crossing":
            reach = -np.log(np.concatenate((model.transition, model.emission), None)).min()
            expected = set()
            for k in range(1, blocks):
                entry = k * stride + warmup
                magnitudes = -scores[entry - 1 : entry + stride]
                low, high = magnitudes.min(), magnitudes.max() + reach
                if straddles(low, high) or straddles(low - shifts[k], high - shifts[k]):
                    expected.add(k)
            assert len(expected) >= 6
            assert rerun == expected


ULP_1024 = 2.0**-42
EXACT = np.array([-1500.25, -1510.5])
RANGE = np.array([[-1600.0, -1610.0], [-1700.0, -1650.0]])
ADDENDS = np.array([-0.5, -1.25, -3.0])
TIE = -(1 + ULP_1024 / 2)


@pytest.mark.parametrize(
    "guess, exact, scores, addends, shift",
    [
        (EXACT + ULP_1024, EXACT, RANGE, ADDENDS, ULP_1024),
        (EXACT + 2 * ULP_1024, EXACT, RANGE, np.append(ADDENDS, TIE), 2 * ULP_1024),
        (EXACT + ULP_1024, EXACT, RANGE, np.append(ADDENDS, TIE), None),
        (EXACT + [ULP_1024, 2 * ULP_1024], EXACT, RANGE, ADDENDS, None),
        (np.array([-1500.0, -np.inf]), EXACT, RANGE, ADDENDS, None),
        (EXACT + 1, EXACT, np.array([[-1600.0, -2048.0]]), ADDENDS, None),
        (EXACT + 1, EXACT, np.array([[-1600.0, -2046.0]]), ADDENDS, None),
        (EXACT + 1, EXACT, np.array([[-1600.0, -2043.0]]), ADDENDS, 1.0),
        (np.array([-1024.0, -1030.0]), np.array([-1025.0, -1031.0]), RANGE, ADDENDS, None),
        (np.array([-1025.0, -1031.0]), np.array([-1024.0, -1030.0]), RANGE, ADDENDS, None),
        (EXACT + 3, EXACT, np.array([[-1600.0, -2043.0]]), ADDENDS, None),
    ],
    ids=[
        "odd-shift-no-tie",
        "even-shift-tie",
        "odd-shift-tie",
        "unequal-shifts",
        "inf-patterns-differ",
        "score-on-power-of-two",
        "candidate-past-power-of-two",
        "candidate-below-power-of-two",
        "computed-entry-on-power-of-two",
        "exact-entry-on-power-of-two",
        "shifted-candidate-past-power-of-two",
    ],
)
def test_block_shift_rule(guess, exact, scores, addends, shift):
    assert mhmm.model._block_shift(guess, exact, scores, addends) == shift


def test_an_odd_shift_breaks_a_tie_the_other_way():
    """Why the rule refuses an odd shift when an addend lies on a
    half-ulp: the sum of the guess rounds to the other neighbour."""
    guess = EXACT[0] + ULP_1024
    assert (guess + TIE) - ULP_1024 != EXACT[0] + TIE
    assert (guess + ULP_1024 + TIE) - 2 * ULP_1024 == EXACT[0] + TIE


def test_viterbi_refuses_a_series_of_probability_zero():
    """The first time at which every score is -inf is named, as
    log_likelihood names its underflow; in a blocked series also where
    that time lies deep in a block's range or inside a warm-up window."""
    latent = VariableScheme.of(("E1", 2))
    observed = VariableScheme.of(("F1", 3))
    model = MhmmModel.from_tables(
        latent, observed, np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.5, 0.5, 0.0]] * 2)
    )
    series = series_of(observed, [[1], [2], [3], [1], [2]])
    with pytest.raises(NumericalError, match="at time 2$"):
        log_likelihood(model, series)
    with pytest.raises(NumericalError, match="^no latent path has positive probability at time 2$"):
        viterbi(model, series)
    length = 3 * mhmm.model.FORWARD_BLOCK_MIN_T
    blocks, stride, _ = mhmm.model._time_blocks(length, latent.n_states)
    assert blocks >= 3
    warmup = mhmm.model.FORWARD_WARMUP
    for t in (stride + warmup + stride // 2, 2 * stride + warmup // 2, length - 1):
        data = np.ones((length, 1), dtype=int)
        data[t] = 3
        with pytest.raises(NumericalError, match=f"at time {t}$"):
            viterbi(model, ObservedSeries(observed, data))


def test_viterbi_beyond_the_size_limit_is_refused(monkeypatch):
    """viterbi follows log_likelihood's limit and refuses before it
    allocates anything."""
    model = two_state_model()
    series = series_of(OBS1, [[1], [2]] * 50)
    size = mhmm.model.recursion_bytes(100, 2)
    assert size == 4_800
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", size)
    assert viterbi(model, series).shape == (100, 1)
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", size - 1)
    monkeypatch.setattr(mhmm.model, "_emission_columns", None)
    with pytest.raises(
        DomainError,
        match="^Viterbi decoding of 1 model.s. over 100 steps and 2 latent states "
        "needs 4,800 bytes, above the limit of 4,799$",
    ):
        viterbi(model, series)


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
