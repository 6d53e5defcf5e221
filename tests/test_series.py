"""The sample check that every series type runs (series._sampled)."""
import numpy as np
import pytest

from decochaos.bath import (SpectralDensity, decoherence_exponent_oracle,
                            discretize_bath)
from decochaos.classical import propagate
from decochaos.decoherence import asymptotic_exponent, hartree_error
from decochaos.errors import DomainError
from decochaos.models import (HamiltonianModel, Harmonic2D, HenonHeiles,
                              InvertedHarmonic, PhasePoint, PullenEdmonds)
from decochaos.quantum import Grid2D, ehrenfest_break_time
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


DD = DriveDifference(T, T, -T)
MOMENTS = ExpectationSeries(T, np.zeros((N, 2)), np.ones((N, 2)))
# each positive parameter of the library, as the call that checks it
POSITIVE = {
    "dt": lambda v: propagate(Harmonic2D(), PhasePoint(1, 0, 0, 0), v, 10),
    "SpectralDensity.coupling": lambda v: SpectralDensity(v, 1.0),
    "SpectralDensity.omega_max": lambda v: SpectralDensity(1.0, v),
    "oracle.temperature": lambda v: decoherence_exponent_oracle(
        discretize_bath(SpectralDensity(1.0, 1.0), 4), DD, v),
    "asymptotic_exponent.coupling": lambda v: asymptotic_exponent(DD, v, 1.0),
    "asymptotic_exponent.temperature":
        lambda v: asymptotic_exponent(DD, 1.0, v),
    "hartree_error.coupling": lambda v: hartree_error(MOMENTS, v, 1.0, 1.0),
    "hartree_error.omega_max": lambda v: hartree_error(MOMENTS, 1.0, v, 1.0),
    "Grid2D.lx": lambda v: Grid2D(64, 64, v, 10.0),
    "Grid2D.ly": lambda v: Grid2D(64, 64, 10.0, v),
    "Grid2D.hbar_eff": lambda v: Grid2D(64, 64, 10.0, 10.0, v),
    "ehrenfest_break_time.threshold": lambda v: ehrenfest_break_time(
        MOMENTS, Trajectory(T, np.zeros((N, 4)), np.zeros(N)), v),
    "HamiltonianModel.mass": lambda v: HamiltonianModel(v),
    "Harmonic2D.omega_x": lambda v: Harmonic2D(omega_x=v),
    "Harmonic2D.omega_y": lambda v: Harmonic2D(omega_y=v),
    "InvertedHarmonic.k": lambda v: InvertedHarmonic(v),
    "HenonHeiles.lam": lambda v: HenonHeiles(v),
    "PullenEdmonds.alpha": lambda v: PullenEdmonds(v),
}
MODELS = (HamiltonianModel, Harmonic2D, InvertedHarmonic, HenonHeiles,
          PullenEdmonds)


@pytest.mark.parametrize("value", [0, -1.0, np.nan, np.inf, True, "1"],
                         ids=["zero", "negative", "nan", "inf", "bool",
                              "string"])
@pytest.mark.parametrize("site", list(POSITIVE))
def test_positive_parameter_is_rejected_by_name(site, value):
    # one rule (series._check_positive); a model first asks each
    # parameter to be a number (series._check_real)
    owner, _, name = site.rpartition(".")
    wordings = ["must be a positive finite number"]
    if owner in {cls.__name__ for cls in MODELS}:
        wordings.append("must be a finite real number")
    with pytest.raises(DomainError) as caught:
        POSITIVE[site](value)
    assert any(str(caught.value).startswith(f"{name} {wording}, got ")
               for wording in wordings), str(caught.value)
