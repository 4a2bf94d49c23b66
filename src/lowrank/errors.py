"""Exception hierarchy shared across the package."""


class LowRankError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphError(LowRankError):
    """Model graph is malformed: cycles, dangling edges, duplicate names."""


class ShapeError(LowRankError):
    """Tensor or weight shapes do not match the layer description."""


class FormatError(LowRankError):
    """A serialized model or weight container is malformed."""


class RankError(LowRankError):
    """Requested ranks fall outside the admissible range for a method."""


class DecompositionError(LowRankError):
    """Iterative factorization failed to make progress.

    Carries the best factorization found so far in ``best``, a
    ``decompose.FactorizedLayer``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EvaluatorError(LowRankError):
    """An accuracy evaluator crashed or returned an unusable value."""


class ConstraintUnreachableError(LowRankError):
    """Search exhausted every layer without meeting the accuracy bound.

    Carries in ``best`` a (model, weights, audit) triple: the most
    accurate factorized model the search evaluated (the first of them on
    a tie), its weights, and the audit of the whole search.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
