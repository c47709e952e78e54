"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix dimensions do not satisfy an operation's contract."""


class TrainingAborted(RuntimeError):
    """Training hit a non-finite loss or gradient; message carries diagnostics."""


class SimulationBlowup(RuntimeError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite state at integration step {step}")


class UndefinedRatioError(ValueError):
    """Verification ratio requested on an empty (or all-invalid) sample set."""


class GenerationError(RuntimeError):
    """Synthetic data generation could not satisfy its target statistics."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class InfeasibleSelectionError(ValueError):
    """No sweep record satisfies the requested verification constraint."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or structurally invalid."""


class UnsupportedVersionError(CheckpointError):
    """Checkpoint format version is not supported by this build."""
