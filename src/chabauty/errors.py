"""Domain exceptions raised across the package."""


class ChabautyError(Exception):
    """Base class for every domain error this package raises."""


class DimensionMismatch(ChabautyError):
    """A vector or matrix does not match the ambient dimension."""


class NonClosedInput(ChabautyError):
    """Discrete generators are dependent over the reals; the generated
    subgroup would not be closed (or the redundancy cannot be told apart
    from a dense winding in floating point)."""


class NonFiniteInput(ChabautyError):
    """A generator has a NaN or infinite entry, or its squared norm
    overflows; or scaling makes the squared norm of a lattice vector
    overflow or fall below the smallest normal float."""


class EnumerationBudgetExceeded(ChabautyError):
    """A lattice search would hold more nodes than the cap allows."""


class SingularMatrix(ChabautyError):
    """The linear map is not invertible within tolerance."""


class InvalidType(ChabautyError):
    """A (p, q) pair with p + q > n or negative entries."""


class WrongAmbientDim(ChabautyError):
    """Operation only defined for a specific ambient dimension."""


class NotDecomposable(ChabautyError):
    """Some norm sits exactly on the scale threshold."""


class FlagsTooFar(ChabautyError):
    """No canonical rotation between the two flags."""


class NotInNeighborhood(ChabautyError):
    """The subgroup fails one of the scale-neighborhood conditions; the
    message names the failing condition."""


class BasePointNotAligned(ChabautyError):
    """The base point is not the axis-aligned representative of its type."""


class InconsistentData(ChabautyError):
    """Decomposition data with incompatible dimensions."""


class OutOfRange(ChabautyError):
    """Parameter outside its admissible interval."""


class InvalidStratum(ChabautyError):
    """The operation is undefined over this stratum."""


class InvalidPair(ChabautyError):
    """The two types are not strictly comparable in the incidence order."""


class Unstable(ChabautyError):
    """A limit classification did not stabilize over the final samples."""


class NotUnitSystole(ChabautyError):
    """The subgroup does not have shortest nonzero vector of length one."""


class NotLattice(ChabautyError):
    """The subgroup is not a full lattice of the plane."""


class NotInC1(ChabautyError):
    """Expected a unit-covolume lattice or a line through the origin."""


class SingularBasePoint(ChabautyError):
    """The cross-section is undefined at the two singular base points."""
