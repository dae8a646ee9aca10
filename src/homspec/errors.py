"""Exception types shared across the library.

Every error that a solver or driver can raise deliberately (as opposed to a
programming bug) has its own class so that the CLI can map failures onto
exit codes and the manifest can record machine-readable warning codes.
"""


class HomspecError(Exception):
    """Base class for all deliberate library errors."""


class ConfigError(HomspecError):
    """Malformed or inconsistent run configuration."""


class NumericalError(HomspecError):
    """Base class for failures of a numerical procedure."""


# --- torus-field solvers -------------------------------------------------

class GridMismatch(HomspecError):
    """Operands live on different grids or have incompatible ranks."""


class NonZeroMean(NumericalError):
    """A source term that must have zero torus mean does not."""


class NotDivergenceFree(NumericalError):
    """Flux handed to the stream-matrix solve has nonzero divergence."""


class NotElliptic(HomspecError):
    """Coefficient matrix is not symmetric positive definite on the grid."""


class SingularSystem(NumericalError):
    """Iterative cell solve failed to converge."""


# --- macroscopic (Hermite) space ------------------------------------------

class NonConfining(HomspecError):
    """Potential lacks a positive definite quadratic leading part."""


class DegreeCapExceeded(HomspecError):
    """Polynomial degree grew beyond the configured cap."""


class TruncationUnsafe(NumericalError):
    """Requested eigenvalues are not converged within the basis size."""


class GapUnresolved(NumericalError):
    """Spectral gap cannot be computed because a neighbor is missing."""


class NotOrthogonal(NumericalError):
    """Resolvent source has a component in the excluded eigenspace."""


# --- expansion engine ------------------------------------------------------

class MeanNotZero(NumericalError):
    """Right-hand side of a corrector cell problem is not mean-free."""


class NotSimple(HomspecError):
    """Eigenvalue has a cluster of size > 1; use the multi-branch recursion."""


class DegenerateD(NumericalError):
    """Coupling matrix has (numerically) repeated eigenvalues."""


class SolvabilityViolated(NumericalError):
    """Macroscopic right-hand side is not orthogonal to the required kernel."""


# --- reference oracle -------------------------------------------------------

class GridTooCoarse(HomspecError):
    """Fine-grid spacing does not resolve the oscillation scale."""


class ConvergenceFailure(NumericalError):
    """Iterative eigensolver on the fine grid did not converge."""


class MatchingAmbiguous(NumericalError):
    """Overlap matrix has no dominant assignment of reference eigenvectors."""


class DegenerateFit(NumericalError):
    """Rate fit attempted on errors at or below the discretization floor."""


class InsufficientPoints(HomspecError):
    """Not enough sweep points for the requested output."""
