"""Exception hierarchy shared by all modules."""


class GraphonGameError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPartition(GraphonGameError):
    """A step function's breakpoints are not a strictly increasing partition
    of [0, 1], or its values are not one finite number per interval."""


class OutOfDomain(GraphonGameError):
    """A point outside [0, 1] was passed to a kernel or function."""


class NoConvergence(GraphonGameError):
    """An iterative scheme exhausted its iteration cap."""


class ParameterOutOfBox(GraphonGameError):
    """A parameter vector lies outside the admissible box."""


class NotAContraction(GraphonGameError):
    """The best-response map has no positive contraction margin: the
    largest aggregate coefficient |theta2| times the operator's largest
    eigenvalue (or, on a network, its certified bound) is >= 1, at one
    parameter or somewhere in the parameter box."""


class NotInterior(GraphonGameError):
    """Derivative formulas were requested at a projected (non-interior)
    equilibrium, where they are not valid."""


class DegenerateAggregate(GraphonGameError):
    """A community has a non-positive equilibrium aggregate, so the
    identifiability constant is undefined."""


class EmptyGroup(GraphonGameError):
    """Quantile summary requested over an empty record group."""


class ConfigError(GraphonGameError):
    """An experiment configuration is malformed or inconsistent."""
