"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all decochaos errors."""


class DomainError(SimulationError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class EscapeError(SimulationError):
    """A trajectory left the configured simulation domain.

    Carries the last valid sample so a caller can keep partial output.
    """

    def __init__(self, message, time, state, trajectory=None):
        super().__init__(message)
        self.time = time
        self.state = state
        self.trajectory = trajectory

    def __reduce__(self):
        # pickle rebuilds an exception from its constructor's arguments,
        # as a forked child's exception crosses the pipe (harness._beside)
        return type(self), (str(self), self.time, self.state, self.trajectory)


class FitError(SimulationError):
    """A scaling fit could not be performed on the given window."""


class GridError(SimulationError, ValueError):
    """Invalid spatial grid specification."""


class BoundaryLeakError(SimulationError):
    """Wavepacket density at the box edge exceeded the leak tolerance."""


class NormDriftError(SimulationError):
    """Wavefunction norm drifted beyond tolerance during propagation."""


class GridMismatchError(SimulationError):
    """Two sampled series do not live on compatible time grids."""


class ConfigError(SimulationError, ValueError):
    """Experiment configuration failed validation.

    ``errors`` lists every violated constraint, not just the first;
    ``path`` names the config file they were found in, if any.
    """

    def __init__(self, errors, path=None):
        self.errors, self.path = list(errors), path
        where = "" if path is None else f" in {path}"
        super().__init__(f"invalid configuration{where}:\n" + "\n".join(
            f"  - {e}" for e in self.errors))

    def __reduce__(self):
        return type(self), (self.errors, self.path)
