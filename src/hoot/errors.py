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

    ``capacity`` holds the largest message byte count that would fit;
    the message also states the glyphs needed and the budget.
    """

    def __init__(self, message: str, *, capacity: int):
        super().__init__(message)
        self.capacity = capacity


class ParseError(HootError, ValueError):
    """A wire line is not a valid rendering.

    ``kind`` classifies the failure: "too-long", "no-tag", "bad-tag",
    "payload-length", or "bad-alphabet".
    """

    def __init__(self, message: str, *, kind: str):
        super().__init__(message)
        self.kind = kind
