"""The sample check that every series type runs (series._sampled)."""
import numpy as np
import pytest

from decochaos.errors import DomainError
from decochaos.series import (DecoherenceSeries, DivergenceSeries,
                              DriveDifference, ExpectationSeries, Trajectory)

N = 11
T = np.linspace(0.0, 1.0, N)
# one valid series of each type, as the keyword columns beside T
VALID = {
    Trajectory: {"z": np.zeros((N, 4)), "energy": np.zeros(N)},
    ExpectationSeries: {"mean_q": np.zeros((N, 2)), "var_q": np.ones((N, 2)),
                        "mean_p": np.zeros((N, 2)), "var_p": np.ones((N, 2))},
    DivergenceSeries: {"D": T ** 2, "separation": T,
                       "energy_drift": np.zeros(N)},
    DriveDifference: {"df_x": T, "df_y": -T},
    DecoherenceSeries: {"gamma": T, "source": "asymptotic"},
}


@pytest.mark.parametrize("cls, field", [
    (Trajectory, "z"), (Trajectory, "energy"),
    (ExpectationSeries, "var_q"), (ExpectationSeries, "mean_p"),
    (DivergenceSeries, "D"), (DivergenceSeries, "separation"),
    (DriveDifference, "df_y"), (DecoherenceSeries, "gamma")],
    ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("cut", [
    lambda c: c[:-1], lambda c: np.stack([c, c], axis=-1)],
    ids=["one-sample-short", "extra-axis"])
def test_misshapen_column_is_rejected_by_name(cls, field, cut):
    # mean_p and separation are optional columns
    cls(T, **VALID[cls])
    with pytest.raises(DomainError, match=rf"{cls.__name__}\.{field} "):
        cls(T, **{**VALID[cls], field: cut(VALID[cls][field])})


def test_optional_columns_may_be_absent_and_are_converted_when_given():
    series = ExpectationSeries(T, np.zeros((N, 2)), np.ones((N, 2)))
    assert series.mean_p is None and series.var_p is None
    div = DivergenceSeries(list(T), list(T ** 2), separation=list(T))
    assert div.separation.dtype == float and div.energy_drift is None
    np.testing.assert_array_equal(div.separation, T)


def test_momentum_variances_must_be_non_negative():
    with pytest.raises(DomainError, match="variances"):
        ExpectationSeries(T, np.zeros((N, 2)), np.ones((N, 2)),
                          var_p=-np.ones((N, 2)))
