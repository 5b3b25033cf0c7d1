"""Exception types shared across the package."""


class RslabError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(RslabError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(RslabError):
    """The same unordered pair occurs twice in an edge list."""


class IndexOutOfRangeError(RslabError):
    """An edge endpoint is negative or >= the vertex count."""


class InvalidParameterError(RslabError):
    """A family parameter is outside its valid range."""


class MissingEdgeColourError(RslabError):
    """A colouring does not cover exactly the edge set of its graph."""


class NotRepresentableError(RslabError):
    """The requested order cannot be written in the component sizes."""


class ConstructionInvalidError(RslabError):
    """A built graph failed its own saturation self-check."""


class OracleBudgetExceededError(RslabError):
    """A census left classes Unknown under its budget."""


class RegularGraphError(RslabError):
    """The second-smallest degree is undefined for regular graphs."""


class CacheMismatchError(RslabError):
    """A cached census record disagrees with a freshly computed one."""


class CacheAccessError(RslabError, OSError):
    """The census cache dir or a cache file cannot be read or written."""
