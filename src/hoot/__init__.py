"""Hashtag-keyed group messaging with deliberately colliding short tags.

Groups share a secret hashtag (the plain tag). Its hash yields a short
public identifier that many unrelated groups can be made to share, plus
the key material that lets only real members read the traffic. The
package provides the sealing/opening core, the 140-glyph wire codec,
the collision-search tool, a feed simulator with censor policies, and
the sizing arithmetic behind the design.
"""

from .errors import CapacityError, ConfigError, HootError, ParseError, PlainTagError
from .tagcrypt import (
    DEFAULT_K,
    FAST_KDF,
    MEMORY_HARD_KDF,
    Hoot,
    KdfConfig,
    KdfMode,
    LongTag,
    PlainTag,
    ShortTag,
    TagMaterial,
    derive_long_tag,
    derive_tag_material,
    open_hoot,
    open_with_material,
    seal,
    split_tag,
)
from .wire import WireParams, capacity, encode, parse, seal_to_wire

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "DEFAULT_K",
    "FAST_KDF",
    "Hoot",
    "HootError",
    "KdfConfig",
    "KdfMode",
    "LongTag",
    "MEMORY_HARD_KDF",
    "ParseError",
    "PlainTag",
    "PlainTagError",
    "ShortTag",
    "TagMaterial",
    "WireParams",
    "capacity",
    "derive_long_tag",
    "derive_tag_material",
    "encode",
    "open_hoot",
    "open_with_material",
    "parse",
    "seal",
    "seal_to_wire",
    "split_tag",
    "__version__",
]
