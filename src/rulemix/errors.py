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

    def __reduce__(self):  # unpickled from the step, not the message, as in a forked build's worker
        return type(self), (self.step,)


class UndefinedRatioError(ValueError):
    """Verification ratio requested on an empty (or all-invalid) sample set."""


class WorkerDied(RuntimeError):
    """A forked worker process ended without sending its result: killed, say, or out of memory."""


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
