import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bellsim.bell import (
    BATCH,
    ChainedConfig,
    Classification,
    CorrelationModel,
    boundedness_check,
    chained_I,
    classify,
    deterministic_strategy_model,
    lhv_minimum_I,
    pr_box_model,
    quantum_I_closed_form,
    quantum_model,
    suppressed_nonlocality_model,
)
from bellsim.entangle import (JointDistribution, joint_probabilities, marginal,
                              no_signaling_residual)

PI = math.pi


def deterministic_strategy_value(outcomes) -> float:
    """Oracle: the chained value of a fixed +-1 assignment, the closing
    agreement indicator plus the number of adjacent sign flips."""
    closing = 1.0 if outcomes[0] == outcomes[-1] else 0.0
    return closing + sum(1.0 for x, y in zip(outcomes, outcomes[1:]) if x != y)


def chain_terms(model, cfg: ChainedConfig) -> np.ndarray:
    """Brute-force oracle: the 2N terms of the chain, from one unbatched
    joint_probabilities call over the settings of ``cfg``.  Term 0 is the
    closing concordance (settings 0 and 2N-1), term k >= 1 the discordance
    of the adjacent pair (k-1, k), whose even setting is side A's."""
    settings = np.array(cfg.settings)
    low = np.arange(2 * cfg.n - 1)
    even = low % 2 == 0
    phi_a = np.concatenate(([settings[0]], settings[np.where(even, low, low + 1)]))
    phi_b = np.concatenate(([settings[-1]], settings[np.where(even, low + 1, low)]))
    p = joint_probabilities(model, phi_a, phi_b)
    terms = p[1] + p[2]
    terms[0] = p[0, 0] + p[3, 0]
    return terms


def test_chained_config_settings():
    cfg = ChainedConfig(n=3, theta=PI)
    settings = cfg.settings
    assert len(settings) == 6
    step = PI / 6
    for a, b in zip(settings, settings[1:]):
        assert abs((b - a) - step) <= 1e-15
    assert abs((settings[-1] - settings[0]) - 5 * step) <= 1e-15
    with pytest.raises(ValueError):
        ChainedConfig(n=1, theta=PI)
    for theta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be finite and >= 0"):
            ChainedConfig(n=2, theta=theta)


def test_quantum_chsh_point():
    cfg = ChainedConfig(n=2, theta=PI)
    value = chained_I(quantum_model(), cfg)
    assert type(value) is float
    assert value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert classify(value) is Classification.BOUNDED_NONLOCAL
    terms = chain_terms(quantum_model(), cfg)
    assert len(terms) == 4
    assert value == pytest.approx(sum(terms), abs=1e-15)


def test_quantum_matches_closed_form():
    for n in (2, 3, 5, 10, 100, 1000, 10000):
        for theta in (0.0, PI / 4, PI / 2, PI):
            full = chained_I(quantum_model(), ChainedConfig(n=n, theta=theta))
            closed = quantum_I_closed_form(n, theta)
            assert abs(full - closed) <= 1e-12, (n, theta)


def test_closed_form_values():
    assert quantum_I_closed_form(2, PI) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert quantum_I_closed_form(3, PI) == pytest.approx(3.0 * (1.0 - math.cos(PI / 6)), abs=1e-12)
    # Taylor tail: I(N, pi) = 2N sin^2(pi/4N) ~ pi^2 / (8 N), against mpmath
    with mpmath.workdps(40):
        exact = float(2 * 10 ** 6 * mpmath.sin(mpmath.pi / (4 * 10 ** 6)) ** 2)
    assert quantum_I_closed_form(10 ** 6, PI) == pytest.approx(exact, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        quantum_I_closed_form(1, PI)


def test_quantum_chain_matches_mpmath_at_large_n():
    # the fringe law takes its small probabilities from half-angle sines, so
    # the chained sum keeps full precision; 1 -+ cos(phi) lost 3e-7 at N = 1e5
    for n in (4962, 10 ** 4, 10 ** 5):
        with mpmath.workdps(40):
            a = mpmath.pi / (2 * n)
            exact = float((1 + mpmath.cos((2 * n - 1) * a)) / 2
                          + (2 * n - 1) * (1 - mpmath.cos(a)) / 2)
        got = chained_I(quantum_model(), ChainedConfig(n=n, theta=PI))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0), n


def test_chain_pairs_settings_across_batches():
    # 2N terms span two rule batches; each term must pair the right settings,
    # with the even setting on side A
    n = BATCH // 2 + 3
    cfg = ChainedConfig(n=n, theta=PI)
    seen = []

    def recorder(phi_a, phi_b):
        seen.append((phi_a.copy(), phi_b.copy()))
        return np.full((4, phi_a.size), 0.25)

    chained_I(CorrelationModel("recorder", recorder), cfg)
    assert len(seen) == 2
    low = np.arange(2 * n - 1)
    want_a = np.concatenate(([0], low + low % 2))
    want_b = np.concatenate(([2 * n - 1], low + 1 - low % 2))
    settings = np.array(cfg.settings)
    assert np.array_equal(np.concatenate([a for a, _ in seen]), settings[want_a])
    assert np.array_equal(np.concatenate([b for _, b in seen]), settings[want_b])

    rng = np.random.default_rng(5)
    outcomes = tuple(int(x) for x in rng.choice([-1, 1], size=2 * n))
    model = deterministic_strategy_model(outcomes, cfg)
    terms = chain_terms(model, cfg)
    o = np.array(outcomes)
    assert terms[0] == float(o[0] == o[-1])
    assert np.array_equal(terms[1:], (o[:-1] != o[1:]).astype(float))
    assert chained_I(model, cfg) == deterministic_strategy_value(outcomes)


def test_invalid_term_beyond_first_batch_gets_scalar_diagnostic():
    # term k >= 1 pairs settings k - 1 and k; every term from k = BATCH + 2
    # on (in the second batch) is skewed by its lower setting index
    n = BATCH // 2 + 3
    step = PI / (2 * n)
    first_bad = BATCH + 2

    def probabilities(phi_a, phi_b):
        low = np.rint(np.minimum(phi_a, phi_b) / step)
        p = np.full((4, phi_a.size), 0.25)
        p[0] += np.where(low >= first_bad - 1, low / 2 ** 20, 0.0)
        return p

    with pytest.raises(ValueError) as batch:
        chained_I(CorrelationModel("skewed", probabilities), ChainedConfig(n=n, theta=PI))
    with pytest.raises(ValueError) as scalar:
        JointDistribution(0.25 + (first_bad - 1) / 2 ** 20, 0.25, 0.25, 0.25)
    assert str(batch.value) == str(scalar.value)


def test_quantum_theta_zero_is_local_boundary():
    for n in (2, 17, 10 ** 6):
        assert quantum_I_closed_form(n, 0.0) == 1.0
    value = chained_I(quantum_model(), ChainedConfig(n=4, theta=0.0))
    assert value == pytest.approx(1.0, abs=1e-15)
    assert classify(value) is Classification.LOCAL_COMPATIBLE


def test_limit_reached_beyond_minimal_chain_length():
    # the pi-chain value first reaches 1e-6 at N = 1 233 701 (mpmath:
    # I(1 233 700) = 1.00000045e-6, I(1 233 701) = 0.99999964e-6)
    assert quantum_I_closed_form(1_233_700, PI) > 1e-6 >= quantum_I_closed_form(1_233_701, PI)


def enumerated_lhv_minimum(n: int) -> tuple[float, tuple[int, ...], int]:
    """Brute-force oracle: the chained value of all 2^(2n) deterministic
    strategies (bit i of the word is setting l_i, set bit = +1), and the
    first minimizer in ascending word order."""
    bits = 2 * n
    words = np.arange(1 << bits, dtype=np.uint64)
    one = np.uint64(1)
    flips = np.bitwise_count((words ^ (words >> one)) & np.uint64((1 << (bits - 1)) - 1))
    closing_equal = one - ((words ^ (words >> np.uint64(bits - 1))) & one)
    values = flips + closing_equal
    best = int(np.argmin(values))
    strategy = tuple(1 if (best >> i) & 1 else -1 for i in range(bits))
    return float(values[best]), strategy, int(words.size)


def test_lhv_minimum_is_one():
    for n in range(2, 11):
        result = lhv_minimum_I(n)
        assert (result.value, result.strategy, result.n_strategies) == enumerated_lhv_minimum(n)
        assert result.value == 1.0
        assert result.n_strategies == 2 ** (2 * n)
        assert result.strategy == tuple([-1] * (2 * n))
    # the parity bound holds for every n, not only where enumeration is feasible
    assert lhv_minimum_I(13).value == 1.0
    assert lhv_minimum_I(10 ** 6).n_strategies == 4 ** (10 ** 6)
    with pytest.raises(ValueError):
        lhv_minimum_I(1)


def test_strategy_value_examples():
    assert deterministic_strategy_value((1, 1, 1, 1)) == 1.0  # all-agree: closing term only
    assert deterministic_strategy_value((1, 1, -1, -1)) == 1.0
    assert deterministic_strategy_value((1, -1, 1, -1)) == 3.0


def test_strategy_value_agrees_with_enumeration_formula():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        word = int(rng.integers(0, 2 ** (2 * n)))
        outcomes = tuple(1 if (word >> i) & 1 else -1 for i in range(2 * n))
        flips = bin((word ^ (word >> 1)) & ((1 << (2 * n - 1)) - 1)).count("1")
        closing = 1.0 if ((word >> (2 * n - 1)) & 1) == (word & 1) else 0.0
        assert deterministic_strategy_value(outcomes) == flips + closing


def test_chained_on_deterministic_model_matches_strategy_value():
    rng = np.random.default_rng(7)
    cfg = ChainedConfig(n=3, theta=PI)
    for _ in range(25):
        outcomes = tuple(int(x) for x in rng.choice([-1, 1], size=6))
        model = deterministic_strategy_model(outcomes, cfg)
        value = chained_I(model, cfg)
        assert value == pytest.approx(deterministic_strategy_value(outcomes), abs=1e-12)
        assert value >= 1.0


def test_pr_box_is_maximally_nonlocal_on_pi_chains():
    model = pr_box_model()
    for n in (2, 3, 5, 8):
        value = chained_I(model, ChainedConfig(n=n, theta=PI))
        assert value == 0.0
        assert classify(value) is Classification.MAXIMAL_NONLOCAL
    grid = np.linspace(0.0, 2 * PI, 16)
    assert no_signaling_residual(model, grid, grid) <= 1e-12
    for pa, pb in ((0.0, 0.3), (1.0, 2.9)):
        d = model.rule(pa, pb)
        assert marginal(d, "A") == 0.5
        assert marginal(d, "B") == 0.5


def test_suppressed_nonlocality_value():
    model = suppressed_nonlocality_model()
    value = chained_I(model, ChainedConfig(n=2, theta=PI))
    assert value == 2.0
    assert classify(value) is Classification.LOCAL_COMPATIBLE
    assert model.rule(0.2, 1.9) == JointDistribution(0.25, 0.25, 0.25, 0.25)


def test_hierarchy_at_chsh_point():
    cfg = ChainedConfig(n=2, theta=PI)
    pr = chained_I(pr_box_model(), cfg)
    quantum = chained_I(quantum_model(), cfg)
    lhv = lhv_minimum_I(2).value
    suppressed = chained_I(suppressed_nonlocality_model(), cfg)
    assert pr < quantum < lhv <= suppressed


def test_chained_rejects_invalid_model_distribution():
    def broken(phi_a, phi_b):
        return JointDistribution(0.5, 0.5, 0.5, 0.5)

    with pytest.raises(TypeError):
        chained_I(broken, ChainedConfig(n=2, theta=PI))

    # an array rule gets the diagnostic JointDistribution would give
    def broken_array(phi_a, phi_b):
        return np.full((4, phi_a.size), 0.5)

    with pytest.raises(ValueError, match=r"joint probabilities sum to 2\.0, not 1"):
        chained_I(CorrelationModel("broken", broken_array), ChainedConfig(n=2, theta=PI))
    with pytest.raises(ValueError, match=r"probability -0\.5 outside \[0, 1\]"):
        chained_I(CorrelationModel("negative", lambda a, b: np.tile([[1.0], [0.5], [0.0], [-0.5]], a.size)),
                  ChainedConfig(n=2, theta=PI))
    with pytest.raises(ValueError, match="shape"):
        chained_I(CorrelationModel("flat", lambda a, b: np.full(a.size, 0.25)),
                  ChainedConfig(n=2, theta=PI))


def test_classification_thresholds():
    assert classify(0.0) is Classification.MAXIMAL_NONLOCAL
    assert classify(5e-13) is Classification.MAXIMAL_NONLOCAL
    assert classify(0.5) is Classification.BOUNDED_NONLOCAL
    assert classify(1.0) is Classification.LOCAL_COMPATIBLE
    assert classify(2.0) is Classification.LOCAL_COMPATIBLE


def test_boundedness_check():
    report = boundedness_check(1024)
    assert report.all_positive
    assert report.strictly_decreasing
    assert report.closing_concordance_positive
    assert report.tail_product == pytest.approx(PI ** 2 / 8.0, rel=1e-2)
    assert report.i_values[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert report.i_values[1] == pytest.approx(3.0 * (1.0 - math.cos(PI / 6)), abs=1e-12)
    # at N = 10^6 the steps (~1.2e-12) are far above rounding noise, and
    # N * I = pi^2/8 (1 - pi^2/48N^2 + ...) sits 2.5e-13 below its limit
    report = boundedness_check(10 ** 6)
    assert report.all_positive
    assert report.strictly_decreasing
    assert report.closing_concordance_positive
    assert report.tail_product == pytest.approx(PI ** 2 / 8.0, rel=0.0, abs=1e-12)
    with pytest.raises(ValueError):
        boundedness_check(1)


def test_visibility_degrades_quantum_value():
    # lower fringe contrast pushes the chain value toward the local region
    cfg = ChainedConfig(n=2, theta=PI)
    values = [chained_I(quantum_model(v), cfg) for v in (1.0, 0.9, 0.7, 0.5)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert chained_I(quantum_model(0.0), cfg) == pytest.approx(2.0, abs=1e-12)


def test_i_value_is_the_fsum_of_its_contributions():
    # fsum is correctly rounded, so summing the batches' exact partials or
    # the oracle's unbatched terms gives the same bits.  BATCH // 2 settings
    # fill one batch exactly, one more leaves a 2-term second batch; theta = 0
    # makes every adjacent term zero; the strategy's terms are 0 and 1.
    rng = np.random.default_rng(20)
    for n in (*range(2, 401), BATCH // 2, BATCH // 2 + 1, 10 ** 5):
        cfg = ChainedConfig(n=n, theta=PI)
        strategy = deterministic_strategy_model(rng.choice((1, -1), 2 * n).tolist(), cfg)
        for model, theta in ((quantum_model(), PI), (quantum_model(0.9), PI),
                             (quantum_model(), 0.0), (pr_box_model(), PI),
                             (suppressed_nonlocality_model(), PI), (strategy, PI)):
            cfg = ChainedConfig(n=n, theta=theta)
            assert chained_I(model, cfg) == math.fsum(chain_terms(model, cfg)), (model.name, n, theta)


def test_chained_I_leaves_the_model_array_untouched():
    # the rule hands back one stored array on every call; each of the chain's
    # two full batches is written into an array that chained_I owns
    rng = np.random.default_rng(22)
    stored = rng.dirichlet(np.ones(4), size=BATCH).T.copy()
    before = stored.tobytes()
    calls = []

    def probabilities(phi_a, phi_b):
        calls.append(phi_a.size)
        return stored

    value = chained_I(CorrelationModel("stored", probabilities), ChainedConfig(n=BATCH, theta=PI))
    assert calls == [BATCH, BATCH]
    assert stored.tobytes() == before
    terms = np.tile(stored[1] + stored[2], 2)
    terms[0] = stored[0, 0] + stored[3, 0]
    assert value == math.fsum(terms)


def test_chained_I_memory_stays_within_its_batches():
    # the 2 * 10^6 terms (16 MB) are never held at once: every array lives
    # and dies within its batch of BATCH terms (2.26 MiB peak)
    cfg = ChainedConfig(n=10 ** 6, theta=PI)
    chained_I(quantum_model(), ChainedConfig(n=2, theta=PI))
    tracemalloc.start()
    try:
        chained_I(quantum_model(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
