"""Exception taxonomy.

Input mistakes subclass ValueError, broken internal identities subclass
RuntimeError, so callers can distinguish "you asked wrong" from "the
mathematics did not check out".
"""

from __future__ import annotations


class DynkinlabError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(DynkinlabError, ValueError):
    """Operands have incompatible shapes."""


class RankError(DynkinlabError, ValueError):
    """A matrix does not have the rank profile the operation requires."""


class PoleAtOriginError(DynkinlabError, ValueError):
    """Series expansion requested for a function with den(0) = 0."""


class DomainError(DynkinlabError, ValueError):
    """Argument outside the domain of the operation (e.g. rank too small)."""


class MissingParameterError(DynkinlabError, ValueError):
    """A family needs an extra parameter that was not supplied."""


class UnsupportedFamilyError(DynkinlabError, ValueError):
    """Operation only defined for a subset of diagram families."""


class ExcludedDiagramError(DynkinlabError, ValueError):
    """Diagram lacks the structure the construction needs (e.g. bipartition)."""


class FoldingError(DynkinlabError, ValueError):
    """Orbit partition is not admissible for diagram folding."""


class GeneratorSetError(DynkinlabError, RuntimeError):
    """Group generated from the listed matrices has the wrong order."""


class IdentityViolationError(DynkinlabError, RuntimeError):
    """An identity that should hold exactly failed to hold."""


class CatalogCorruptionError(DynkinlabError, RuntimeError):
    """Internal catalog data failed a consistency check."""
