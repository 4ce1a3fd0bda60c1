"""Exception taxonomy. One class per contract violation so callers can react precisely."""


class C0CoverError(Exception):
    """Base class for all library errors."""


# -- pack validation ---------------------------------------------------------

class AsymmetricDistance(C0CoverError):
    pass


class TriangleViolation(C0CoverError):
    def __init__(self, p, q, r, defect):
        self.p, self.q, self.r, self.defect = p, q, r, defect
        super().__init__(f"d({p},{r}) exceeds d({p},{q})+d({q},{r}) by {defect:.3g}")


class EmptySide(C0CoverError):
    """Boundary or interior side of the pack is empty."""


class DegeneratePack(C0CoverError):
    """Zero distance between distinct points, or interior point at distance 0 from the boundary."""


class BadParams(C0CoverError):
    pass


class BadLadder(C0CoverError):
    """Ladder violates its invariants for the given pack."""


class IndexOutOfLadder(C0CoverError):
    pass


class EmptyComplement(C0CoverError):
    """Some scale t < k_sup leaves no point at boundary distance >= t."""


# -- relations ---------------------------------------------------------------

class PackMismatch(C0CoverError):
    pass


class LambdaNotDecaying(C0CoverError):
    pass


class NotCovering(C0CoverError):
    pass


class MissingDiagonal(C0CoverError):
    pass


class NotSymmetric(C0CoverError):
    pass


class KEBallsNotRefining(C0CoverError):
    """Precondition of the shrink operator: the E-ball cover must refine the given cover."""


# -- covers ------------------------------------------------------------------

class MemberOutsideTarget(C0CoverError):
    pass


class EmptyMember(C0CoverError):
    pass


class NotARefinement(C0CoverError):
    def __init__(self, member):
        self.member = member
        super().__init__(f"member {sorted(member)} embeds in no member of the coarser family")


class NotACover(C0CoverError):
    pass


# -- canonical pipeline ------------------------------------------------------

class NotBoundarySubset(C0CoverError):
    pass


class BetaDoesNotCoverBoundary(C0CoverError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"beta family #{n} does not cover the boundary")


class LadderExhausted(C0CoverError):
    """The ladder (or the beta sequence) is too short for the refinement recursion."""


class ProviderMismatch(C0CoverError):
    pass


class UniformityRejected(C0CoverError):
    pass


class C0Rejected(C0CoverError):
    pass


# -- cylinder constructions ---------------------------------------------------

class BoundaryInput(C0CoverError):
    pass


class EmptyOuterSet(C0CoverError):
    pass


class NonCylindricalPack(C0CoverError):
    pass


# -- rendering ----------------------------------------------------------------

class NoCoordinates(C0CoverError):
    pass
