import math

import numpy as np
import pytest

from bellsim.bell import ChainedConfig, chained_I, quantum_model
from bellsim.entangle import JointDistribution, joint_probabilities, no_signaling_residual
from bellsim.extensions import BiasedMarginalModel
from bellsim.interferometer import DetectionDistribution
from bellsim.probability import check_batch, check_distribution, valid_columns


def test_each_caller_keeps_its_message():
    with pytest.raises(ValueError, match=r"^joint probabilities sum to 1\.2, not 1$"):
        JointDistribution(0.3, 0.3, 0.3, 0.3)
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.2, not 1$"):
        DetectionDistribution(0.3, 0.3, 0.3, 0.3)
    for cls in (JointDistribution, DetectionDistribution):
        with pytest.raises(ValueError, match=r"^probability 1\.5 outside \[0, 1\]$"):
            cls(1.5, -0.5, 0.0, 0.0)


def test_bounds_are_shared():
    check_distribution((1.0 + 1e-15, -1e-15, 0.0, 0.0))
    with pytest.raises(ValueError):
        check_distribution((1.0 + 3e-15, -3e-15, 0.0, 0.0))
    check_distribution((0.25, 0.25, 0.25, 0.25 + 9e-13))
    with pytest.raises(ValueError):
        check_distribution((0.25, 0.25, 0.25, 0.25 + 2e-12))


def test_nan_fails_the_shared_checks():
    # every comparison with NaN is false, so the checks are written to pass
    # only on a comparison that holds
    with pytest.raises(ValueError, match=r"^probability nan outside \[0, 1\]$"):
        check_distribution([math.nan] * 4)
    with pytest.raises(ValueError, match=r"^probability nan outside \[0, 1\]$"):
        check_batch(np.full((4, 3), math.nan))
    p = np.full((4, 3), 0.25)
    p[2, 1] = math.nan
    with pytest.raises(ValueError, match=r"^probability nan outside"):
        check_batch(p)
    with pytest.raises(ValueError, match=r"^probability nan outside"):
        JointDistribution(math.nan, 0.5, 0.5, 0.0)


def test_batch_check_reports_the_first_invalid_column():
    p = np.full((4, 6), 0.25)
    check_batch(p)
    p[:, 2] = (0.5, 0.5, 0.5, 0.5)   # bad sum
    p[:, 4] = (1.5, -0.5, 0.0, 0.0)  # bad entry
    with pytest.raises(ValueError) as batch:
        check_batch(p, "joint probabilities")
    with pytest.raises(ValueError) as scalar:
        JointDistribution(0.5, 0.5, 0.5, 0.5)
    assert str(batch.value) == str(scalar.value)
    p[:, 2] = 0.25
    with pytest.raises(ValueError, match=r"probability 1\.5 outside"):
        check_batch(p)


def test_only_correlation_models_are_accepted():
    # a biased subensemble signals through side B, so the residual is not 0
    model = BiasedMarginalModel(base=quantum_model(), bias=0.2).subensemble_rule(0)
    grid = np.linspace(0.0, 2 * math.pi, 13)
    assert no_signaling_residual(model, grid, grid) > 0.1
    for rule in (model.rule, lambda a, b: JointDistribution(0.25, 0.25, 0.25, 0.25)):
        with pytest.raises(TypeError, match="CorrelationModel"):
            joint_probabilities(rule, grid, grid)
        with pytest.raises(TypeError, match="CorrelationModel"):
            no_signaling_residual(rule, grid, grid)
        with pytest.raises(TypeError, match="CorrelationModel"):
            chained_I(rule, ChainedConfig(n=2, theta=math.pi))


def _around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _edge_groups() -> list[list[list[float]]]:
    """Groups of columns, each at one edge of the two tests: NaN in each
    row; -1e-15 and 1 + 1e-15 with their neighbouring floats, in each row;
    left-to-right sums within a few ulps of 1 - 1e-12 and 1 + 1e-12, with
    the odd entry in each row; and sums whose verdict depends on the order
    of additions."""
    def placed(entry: float, rest: float, row: int) -> list[float]:
        column = [0.0] * 4
        column[row], column[(row + 1) % 4] = entry, rest
        return column

    groups = [[placed(math.nan, 0.0, row) for row in range(4)]]
    for edge, rest in ((-1e-15, 1.0), (1.0 + 1e-15, 0.0)):
        groups.append([placed(e, rest, row) for e in _around(edge) for row in range(4)])
    for total in (1.0 - 1e-12, 1.0 + 1e-12):
        first = total - 0.75
        group = []
        for row in range(4):
            for k in range(-8, 9):
                column = [0.25] * 4
                column[row] = first + k * math.ulp(first)
                group.append(column)
        groups.append(group)
    # Columns at the sum edges whose verdict changes with the order of
    # additions: added left to right they total 0.999999999999 (kept), the
    # float below it and 1.000000000001 (both rejected); added right to left,
    # or compensated, each total lands on the other side of its edge.
    groups.append([[0.19427573715437468, 0.14917011866269503, 0.29406377639823,
                    0.36249036778370025],
                   [0.25403158978000784, 0.09518159498098437, 0.19540004091561658,
                    0.4553867743223912],
                   [0.15394213667878348, 0.1885636309012404, 0.1077463428287319,
                    0.5497478895922442]])
    return groups


def _accepted(column: list[float]) -> bool:
    try:
        check_distribution(column)
    except ValueError:
        return False
    return True


def test_valid_columns_agrees_with_the_scalar_check_at_the_edges():
    groups = _edge_groups()
    columns = sum(groups, [])
    assert valid_columns(np.array(columns).T).tolist() == [_accepted(c) for c in columns]
    # NaN fails in any row; every other group holds both verdicts
    assert not any(map(_accepted, groups[0]))
    for group in groups[1:]:
        verdicts = [_accepted(c) for c in group]
        assert any(verdicts) and not all(verdicts)
    assert [_accepted(c[::-1]) for c in groups[-1]] == [not _accepted(c) for c in groups[-1]]
