"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all decochaos errors."""


class DomainError(SimulationError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class EscapeError(SimulationError):
    """A trajectory left the configured simulation domain; the message
    names when."""


class FitError(SimulationError):
    """A scaling fit could not be performed on the given window."""


class BoundaryLeakError(SimulationError):
    """Wavepacket density at the box edge exceeded the leak tolerance."""


class NormDriftError(SimulationError):
    """Wavefunction norm drifted beyond tolerance during propagation."""


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
