"""Exception hierarchy shared by all modnod modules.

``ModnodError`` is the base for every domain/numeric failure; the CLI maps
it to exit code 1.  Configuration problems (``ParseError``,
``ValidationError``) map to exit code 2.
"""


class ModnodError(Exception):
    """Base class for all modnod-specific errors."""


# -- spectral ---------------------------------------------------------------

class NonConvergence(ModnodError):
    """The dense eigenvalue iteration failed within its budget."""


class NoStrictLeader(ModnodError):
    """A has no simple real strictly-leading eigenvalue."""


class DegenerateLeader(ModnodError):
    """The leading eigenvalue is not positive; no opinion-forming
    bifurcation occurs at positive attention."""


# -- dynamics ---------------------------------------------------------------

class Diverged(ModnodError):
    """A trajectory norm exceeded the divergence bound (bad input: the
    saturated model itself has bounded solutions)."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NonFinite(ModnodError):
    """A NaN or Inf appeared in a state vector."""


class NotSettled(ModnodError):
    """settle() hit its time budget before the residual tolerance."""

    def __init__(self, message, state=None, residual=None):
        super().__init__(message)
        self.state = state
        self.residual = residual


# -- continuation -----------------------------------------------------------

class NewtonDiverged(ModnodError):
    """Damped Newton ran out of iterations or the damping underflowed."""


class SingularJacobian(ModnodError):
    """The bordered Newton system was singular or gave a non-finite step;
    at fixed u0 that is a singular J, typically at a bifurcation."""


class StallError(ModnodError):
    """A pseudo-arclength correction failed at the minimum step."""


class NoBranchFound(ModnodError):
    """Branch switching found no emanating branch: the event carries no
    kernel direction, or the switch correction failed."""


# -- reduction --------------------------------------------------------------

class ComplementDiverged(ModnodError):
    """The bordered Newton solve for the complement component failed."""


class OutOfDomain(ModnodError):
    """Reduced-map evaluation requested outside its validity neighborhood."""


# -- configuration ----------------------------------------------------------

class ParseError(ModnodError):
    """Malformed configuration text."""


class ValidationError(ModnodError):
    """Structurally valid configuration violating a model invariant."""
