"""Content types and typical transfer sizes.

The type list mirrors the paper's Table 5 (top 12 content types across
35.9M requests).  Typical sizes are drawn from HTTP Archive medians for
each type and drive serialization delay in the page-load simulation.
"""

from __future__ import annotations

import enum
from typing import Dict


class ContentType(enum.Enum):
    """The content types seen in the paper's dataset (Table 5)."""

    APPLICATION_JAVASCRIPT = "application/javascript"
    IMAGE_JPEG = "image/jpeg"
    IMAGE_PNG = "image/png"
    TEXT_HTML = "text/html"
    IMAGE_GIF = "image/gif"
    TEXT_CSS = "text/css"
    TEXT_JAVASCRIPT = "text/javascript"
    APPLICATION_JSON = "application/json"
    APPLICATION_X_JAVASCRIPT = "application/x-javascript"
    FONT_WOFF2 = "font/woff2"
    IMAGE_WEBP = "image/webp"
    TEXT_PLAIN = "text/plain"

    @property
    def is_script(self) -> bool:
        return self in (
            ContentType.APPLICATION_JAVASCRIPT,
            ContentType.TEXT_JAVASCRIPT,
            ContentType.APPLICATION_X_JAVASCRIPT,
        )

    @property
    def is_render_blocking(self) -> bool:
        """Scripts and stylesheets block rendering; they sit on the
        critical path the reconstruction model compacts (§4.1)."""
        return self.is_script or self is ContentType.TEXT_CSS

    @property
    def can_discover_children(self) -> bool:
        """HTML, CSS and scripts can reference further subresources
        (e.g. fonts from CSS, XHR from scripts)."""
        return (
            self is ContentType.TEXT_HTML
            or self is ContentType.TEXT_CSS
            or self.is_script
        )


#: Typical transfer size in bytes per content type (HTTP Archive-like
#: medians); used for serialization-delay modelling.
CONTENT_TYPE_SIZES: Dict[ContentType, int] = {
    ContentType.APPLICATION_JAVASCRIPT: 22_000,
    ContentType.IMAGE_JPEG: 38_000,
    ContentType.IMAGE_PNG: 18_000,
    ContentType.TEXT_HTML: 27_000,
    ContentType.IMAGE_GIF: 2_000,
    ContentType.TEXT_CSS: 14_000,
    ContentType.TEXT_JAVASCRIPT: 20_000,
    ContentType.APPLICATION_JSON: 3_000,
    ContentType.APPLICATION_X_JAVASCRIPT: 21_000,
    ContentType.FONT_WOFF2: 28_000,
    ContentType.IMAGE_WEBP: 15_000,
    ContentType.TEXT_PLAIN: 1_500,
}
