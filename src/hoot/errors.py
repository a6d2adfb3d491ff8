"""Exception types shared across the package."""


class HootError(Exception):
    """Base class for all protocol-level errors."""


class ConfigError(HootError, ValueError):
    """A configuration object violates its invariants."""


class PlainTagError(HootError, ValueError):
    """A text cannot be a plain tag.

    ``text`` holds the refused text. The message leaves it out, because
    a plain tag is a group's secret; a caller whose texts are public
    may name it.
    """

    def __init__(self, message: str, *, text: str):
        super().__init__(message)
        self.text = text


class CapacityError(HootError, ValueError):
    """Rendering a message would exceed the glyph budget.

    Attributes:
        needed: glyphs the rendering would take.
        budget: the configured glyph limit.
        capacity: largest message byte count that would fit.
    """

    def __init__(self, message: str, *, needed: int, budget: int, capacity: int):
        super().__init__(message)
        self.needed = needed
        self.budget = budget
        self.capacity = capacity


class ParseError(HootError, ValueError):
    """A wire line is not a valid rendering.

    ``kind`` classifies the failure: "too-long", "no-tag", "bad-tag",
    "payload-length", or "bad-alphabet".
    """

    def __init__(self, message: str, *, kind: str):
        super().__init__(message)
        self.kind = kind
