import hashlib
import math
import re
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
from bellsim.entangle import (JointDistribution, bob_measurement_rule, ideal_joint_probabilities,
                              joint_probabilities, marginal, no_signaling_residual)
from bellsim.extensions import BiasedMarginalModel, find_falsifying_N
from bellsim.measurement import mach_zehnder_effective, symmetric_beam_splitter

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


def batch_path(model: CorrelationModel) -> CorrelationModel:
    """``model`` without its difference law: chained_I evaluates its rule at
    every term, a batch at a time."""
    return CorrelationModel(model.name, model.probabilities)


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


@pytest.mark.parametrize("value", [3.0, 2.5, 10.5, np.float64(4.0), "3", None])
def test_chain_lengths_must_be_integers(value):
    # a float is refused where the chain's length enters, even an integral
    # one, with the argument's name, never from inside numpy or range()
    calls = {"n": (lambda n: ChainedConfig(n=n, theta=PI), lambda n: quantum_I_closed_form(n, PI),
                   lhv_minimum_I),
             "n_max": (boundedness_check,)}
    for name, functions in calls.items():
        message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        for function in functions:
            with pytest.raises(ValueError, match=message):
                function(value)


@pytest.mark.parametrize("value", [1, 0, -3, np.int64(1)])
def test_short_chain_lengths_share_one_text(value):
    # every entry point that takes a chain's length refuses one below 2 with
    # the same text, naming its own argument and the value as an int
    calls = {"n": (lambda n: ChainedConfig(n=n, theta=PI), lambda n: quantum_I_closed_form(n, PI),
                   lhv_minimum_I),
             "n_max": (boundedness_check,),
             "n_cap": (lambda n: find_falsifying_N(0.1, n_cap=n),)}
    for name, functions in calls.items():
        message = f"^{name} must be >= 2, got {int(value)}$"
        for function in functions:
            with pytest.raises(ValueError, match=message):
                function(value)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -1.0])
def test_non_finite_theta_shares_one_text(theta):
    # every entry point that takes a chain's total phase refuses one outside
    # [0, inf) with the same text
    message = f"^theta must be finite and >= 0, got {theta!r}$"
    for function in (lambda t: ChainedConfig(n=2, theta=t), lambda t: quantum_I_closed_form(4, t),
                     lambda t: find_falsifying_N(0.1, theta=t)):
        with pytest.raises(ValueError, match=message):
            function(theta)


def test_chain_lengths_take_numpy_integers():
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert chained_I(quantum_model(), ChainedConfig(n=n, theta=PI)) == \
            chained_I(quantum_model(), ChainedConfig(n=3, theta=PI))
        assert quantum_I_closed_form(n, PI) == quantum_I_closed_form(3, PI)
        assert lhv_minimum_I(n) == lhv_minimum_I(3)
        report = boundedness_check(n)
        assert report.n_max == 3 and report.tail_product == boundedness_check(3).tail_product
    # 4^40 strategies overflow no int64
    assert lhv_minimum_I(np.int64(40)).n_strategies == 4 ** 40


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


def test_strategy_knows_its_settings_by_their_bits():
    # a phase is setting i only if it equals cfg.settings[i]: a phase near
    # setting 0 is none of them, and a step that underflows to 0 leaves the
    # settings degenerate, as theta = 0 does
    outcomes = (1, -1, 1, -1)
    m = deterministic_strategy_model(outcomes, ChainedConfig(2, PI))
    assert m.rule(0.0, PI / 4).p_pm == 1.0
    for phi_a, phi_b, bad in ((1e-12, PI / 4, 1e-12), (0.0, PI, PI), (0.0, math.nan, math.nan)):
        with pytest.raises(ValueError, match=f"^phase {bad!r} is not one of the chain settings$"):
            m.rule(phi_a, phi_b)
    # the first pair with a phase that is no setting names it, side A first
    with pytest.raises(ValueError, match="^phase 2.0 is not one"):
        m.probabilities(np.array([0.0, 1.0]), np.array([2.0, PI / 4]))
    for theta in (0.0, 5e-324):
        with pytest.raises(ValueError, match=f"^setting phases are degenerate at theta = {theta!r}$"):
            deterministic_strategy_model(outcomes, ChainedConfig(2, theta))
    cfg = ChainedConfig(2, 1e-320)  # a subnormal step, but distinct settings
    assert chained_I(deterministic_strategy_model(outcomes, cfg), cfg) == 3.0


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
    # fsum is correctly rounded, and so is the difference path's exact sum
    # by multiplicity, so either path gives the bits of fsum over the
    # oracle's unbatched terms.  BATCH // 2 settings fill one batch exactly,
    # one more leaves a 2-term second batch; theta = 0 makes every adjacent
    # term zero; the strategy's terms are 0 and 1.
    rng = np.random.default_rng(20)
    for n in (*range(2, 401), BATCH // 2, BATCH // 2 + 1, 10 ** 5):
        cfg = ChainedConfig(n=n, theta=PI)
        strategy = deterministic_strategy_model(rng.choice((1, -1), 2 * n).tolist(), cfg)
        for model, theta in ((quantum_model(), PI), (quantum_model(0.9), PI),
                             (quantum_model(), 0.0), (pr_box_model(), PI),
                             (suppressed_nonlocality_model(), PI), (strategy, PI)):
            cfg = ChainedConfig(n=n, theta=theta)
            assert chained_I(model, cfg) == math.fsum(chain_terms(model, cfg)), (model.name, n, theta)


def test_chain_bits_are_pinned():
    # the bits of I at batch edges (BATCH // 2 = 8192 settings fill one
    # batch), at theta != pi and for every provided array model, as one
    # digest of the float.hex texts: models outermost, then n, then theta
    digest = hashlib.sha256()
    for model in (quantum_model(), quantum_model(0.9), pr_box_model(),
                  suppressed_nonlocality_model()):
        for n in (2, 3, 10, 100, 1000, 8191, 8192, 8193, 16384, 50_000, 100_000):
            for theta in (PI, 2.5, 0.0, 1e-3):
                digest.update(float.hex(chained_I(model, ChainedConfig(n, theta))).encode())
    assert digest.hexdigest().startswith("351e76635ee4cee1"), digest.hexdigest()


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
    # and dies within its call, none longer than a batch (peaks of 0.40 MiB
    # summed by difference, 2.13 MiB a batch at a time)
    cfg = ChainedConfig(n=10 ** 6, theta=PI)
    for model, bound in ((quantum_model(), 2 ** 20), (batch_path(quantum_model()), 4 * 2 ** 20)):
        chained_I(model, ChainedConfig(n=2, theta=PI))
        tracemalloc.start()
        try:
            chained_I(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (model.difference, peak)


@pytest.mark.parametrize("n", [2, 3, BATCH // 2, BATCH // 2 + 1, BATCH // 2 + 3, 10 ** 5])
def test_batch_path_sums_the_library_models_without_a_difference_law(n):
    # Bob's terms depend on phi_a + phi_b, so most of them differ (17 206
    # distinct values of 20 000 terms at n = 10^4 and theta = pi behind the
    # Mach-Zehnder splitter, all 20 000 behind the symmetric one), and an
    # inexactly summed batch would show here
    biased = BiasedMarginalModel(quantum_model(), 0.3)
    models = (bob_measurement_rule(mach_zehnder_effective(PI / 2)),
              bob_measurement_rule(symmetric_beam_splitter()),
              biased.subensemble_rule(0), biased.subensemble_rule(1), biased.ensemble_rule())
    for model in models:
        assert model.difference is None
        for theta in (PI, 2.5):
            cfg = ChainedConfig(n, theta)
            want = math.fsum(chain_terms(model, cfg))
            assert float.hex(chained_I(model, cfg)) == float.hex(want), (model.name, theta)


@pytest.mark.parametrize("n", [2, 3, 8191, 8192, 8193, 16384, 10 ** 5, 10 ** 6])
def test_difference_path_gives_the_batch_path_bits(n):
    # one batch, a batch filled exactly, a 2-term second batch, two full
    # batches and many; theta = 0 makes every difference 0.0 and 1e-300
    # makes them subnormal
    models = [quantum_model(v) for v in (1.0, 0.9, 0.5, 0.0)]
    for model in (*models, pr_box_model(), suppressed_nonlocality_model()):
        assert model.difference is not None
        for theta in (PI, 2.5, 0.0, 1e-3, 1e-300, 7.0):
            cfg = ChainedConfig(n, theta)
            fast = chained_I(model, cfg)
            assert float.hex(fast) == float.hex(chained_I(batch_path(model), cfg)), (model.name, theta)


def test_difference_law_is_called_once_on_the_distinct_differences():
    # a silent fall back to the batch path would call the law once a batch,
    # on 16384 phases
    n = 10 ** 5
    calls = []

    def law(phi):
        calls.append(phi.copy())
        return ideal_joint_probabilities(phi)

    value = chained_I(CorrelationModel.of_difference("recording", law), ChainedConfig(n, PI))
    assert len(calls) == 1
    phases = calls[0]
    assert phases.size < 64, phases.size
    assert phases[0] == 0.0 - (2 * n - 1) * (PI / (2 * n))  # the closing pair's
    adjacent = phases[1:].view(np.int64).tolist()
    assert len(set(adjacent)) == len(adjacent)
    assert value == chained_I(quantum_model(), ChainedConfig(n, PI))


@pytest.mark.parametrize("where", ["closing", "adjacent"])
def test_invalid_difference_law_raises_the_batch_diagnostic(where):
    # the terms span two batches; an adjacent pair whose difference is
    # positive (setting k even) is skewed by its difference, so the
    # diagnostic names the first such term, not the first distinct one
    n = BATCH // 2 + 3
    closing = 0.0 - (2 * n - 1) * (PI / (2 * n))

    def law(phi):
        p = np.full((4, phi.size), 0.25)
        p[0] += np.where(phi == closing, 0.5, 0.0) if where == "closing" else np.maximum(phi, 0.0)
        return p

    model = CorrelationModel.of_difference("skewed", law)
    with pytest.raises(ValueError) as fast:
        chained_I(model, ChainedConfig(n, PI))
    with pytest.raises(ValueError) as batch:
        chained_I(batch_path(model), ChainedConfig(n, PI))
    assert str(fast.value) == str(batch.value)
    assert "joint probabilities sum to" in str(fast.value)
    with pytest.raises(ValueError, match=r"returned shape \(16384,\), expected \(4, 16384\)"):
        chained_I(CorrelationModel.of_difference("flat", lambda phi: np.full(phi.size, 0.25)),
                  ChainedConfig(n, PI))
