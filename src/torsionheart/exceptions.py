"""Exception types shared across the package."""


class QuiverParseError(ValueError):
    """Malformed quiver file text."""


class AdmissibilityError(ValueError):
    """Relation ideal is not admissible (or does not stabilize below the cap)."""


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded a configured resource gate."""


class IncompleteUniverseError(RuntimeError):
    """An operation requires a complete universe but the closure check failed."""

    def __init__(self, witness: str):
        super().__init__(f"universe incomplete: {witness}")
        self.witness = witness


class NotCotiltingError(ValueError):
    """The torsion pair does not come from a cotilting module; carries the failing condition."""

    def __init__(self, reason: str):
        super().__init__(f"not cotilting: {reason}")
        self.reason = reason
