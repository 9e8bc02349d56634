"""Exception types raised by the library."""


class GatherError(Exception):
    """Base class for all library errors."""


class DegenerateAngle(GatherError, ValueError):
    """Angle query where one of the rays has zero length."""


class DegenerateCenter(GatherError, ValueError):
    """Successor query for a robot sitting on the center."""


class NotOccupied(GatherError, ValueError):
    """The queried point is not an occupied location of the configuration."""


class NotLinear(GatherError, ValueError):
    """Median interval requested for a non-linear configuration."""


class LinearInput(GatherError, ValueError):
    """Operation defined only for non-linear configurations."""


class AllAtCenter(GatherError, ValueError):
    """Regularity query with every robot located at the candidate center."""


class WrongClass(GatherError, ValueError):
    """Operation invoked for a configuration class it is not defined on."""


class BivalentInput(GatherError, ValueError):
    """The protocol defines no move for bivalent configurations."""


class BivalentInitial(GatherError, ValueError):
    """Simulation started from a bivalent configuration (gathering impossible)."""


class TooFewRobots(GatherError, ValueError):
    """Simulation requires at least three robots."""


class InvariantViolation(GatherError, RuntimeError):
    """A run-time invariant of the protocol was broken during simulation."""


class AsymmetryViolated(GatherError, RuntimeError):
    """A configuration classified asymmetric breaks a class-A invariant: it has
    a rotational symmetry or no safe point (seen on inputs translated far
    beyond their diameter)."""


class SweepMissed(GatherError, RuntimeError):
    """The class-M side step's successor sweep never left the moving robot's
    ray, though some robot lies off it."""


class OutOfScale(GatherError, ValueError):
    """Classification asked of a configuration whose diameter lies outside
    the range over which its classes are measured to be scale-free."""
