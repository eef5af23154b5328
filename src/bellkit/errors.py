"""Exception types shared across the package."""


class BellkitError(ValueError):
    """Invalid input or violated precondition."""


class CapExceededError(BellkitError):
    """A size/cap limit was exceeded."""
