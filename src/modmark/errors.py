"""Exception types shared across the package."""


class ModmarkError(Exception):
    """Base class for package errors."""


class ShapeMismatch(ModmarkError):
    """Operands live on different algebras or have inconsistent shapes."""


class NonHermitian(ModmarkError):
    """Input failed the Hermitian symmetry check."""


class NotPositiveDefinite(ModmarkError):
    """An eigenvalue sits at or below the singular floor."""


class NoConvergence(ModmarkError):
    """A numerical routine refused: iteration budget or accuracy contract missed."""


class PowerRangeExceeded(ModmarkError):
    """|Re z| beyond the configured range, tolerance guarantee void."""


class BadQuadrature(ModmarkError):
    """Quadrature grid or samples unusable."""


class EmptyKraus(ModmarkError):
    """A channel needs at least one Kraus operator."""


class NotMarkov(ModmarkError):
    """An operation refused a channel outside the class: raised only by
    `markov.MarkovCheck.require`, naming each membership residual it
    required that failed its verdict."""


class BadSchurMatrix(ModmarkError):
    """Entrywise multiplier must be Hermitian psd with unit diagonal."""


class BadWeights(ModmarkError):
    """Convex weights must be nonnegative and sum to one."""


class MalformedInstance(ModmarkError):
    """Instance file does not parse against the JSON schema."""


class NoFittingDims(ModmarkError, ValueError):
    """A suite kind fits none of the suite's block dims."""
