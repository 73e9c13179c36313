import math

import numpy as np
import pytest

from bellsim.bell import ChainedConfig, chained_I, quantum_model
from bellsim.entangle import JointDistribution, joint_probabilities, no_signaling_residual
from bellsim.extensions import BiasedMarginalModel
from bellsim.interferometer import DetectionDistribution
from bellsim.probability import check_batch, check_distribution


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
