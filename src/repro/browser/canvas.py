"""Canvas 2D simulation.

Several case-study workloads (CamanJS, Harmony, fluidSim, Raytracing, Normal
Mapping, processing.js) are Canvas-centric: they read and write ``ImageData``
pixel buffers or issue large numbers of drawing commands.  The paper flags
Canvas interaction as a potential bottleneck (Figure 2) and as a
parallelization obstacle (non-concurrent Canvas, Section 4.1).

The simulation keeps a real pixel buffer (a row-major RGBA ``bytearray``) so
image workloads compute meaningful results, records every drawing command in a
command log, and reports all guest interaction through
``interp.notify_host_access("canvas", ...)`` so the analysis layer can
attribute Canvas traffic to loop nests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, NamedTuple

from ..jsvm.values import UNDEFINED, JSArray, JSObject, NativeFunction, to_number, to_string
from .dom import Document, DOMElement


@dataclass
class CanvasCommand:
    """One drawing command issued against a 2D context."""

    name: str
    args: tuple
    time_ms: float


@dataclass
class CanvasLog:
    commands: List[CanvasCommand] = field(default_factory=list)
    pixels_read: int = 0
    pixels_written: int = 0

    def record(self, name: str, args: tuple, time_ms: float) -> None:
        self.commands.append(CanvasCommand(name, args, time_ms))

    def count(self) -> int:
        return len(self.commands)


class Pixels(NamedTuple):
    """A ``width`` × ``height`` block of RGBA bytes, row-major."""

    width: int
    height: int
    data: bytearray


def _blank(width: int, height: int, alpha: int = 0) -> bytearray:
    if width < 0 or height < 0:
        raise ValueError("negative dimensions are not allowed")
    return bytearray((0, 0, 0, alpha)) * (width * height)


class HostCanvas:
    """Host-side pixel buffer shared by a canvas element and its 2D context."""

    def __init__(self, width: int = 300, height: int = 150, clock=None) -> None:
        self.clock = clock
        self.resize(width, height)
        self.log = CanvasLog()

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def record(self, name: str, *args) -> None:
        self.log.record(name, args, self._now())

    def resize(self, width: int, height: int) -> None:
        self.width, self.height = int(width), int(height)
        self.buffer = _blank(self.width, self.height, alpha=255)

    def pixel(self, x: int, y: int) -> tuple:
        """The ``(r, g, b, a)`` bytes at column ``x`` of row ``y``."""
        offset = (y * self.width + x) * 4
        return tuple(self.buffer[offset : offset + 4])

    def _write_rows(self, x0: int, y0: int, rows) -> None:
        """Copy byte rows into the buffer, the first at ``(x0, y0)``."""
        for y, row in enumerate(rows, y0):
            offset = (y * self.width + x0) * 4
            self.buffer[offset : offset + len(row)] = row

    def fill_rect(self, x: float, y: float, w: float, h: float, rgba=(0, 0, 0, 255)) -> None:
        x0, y0 = max(int(x), 0), max(int(y), 0)
        x1, y1 = min(int(x + w), self.width), min(int(y + h), self.height)
        if x1 > x0 and y1 > y0:
            if len(rgba) != 4:
                raise ValueError(f"could not broadcast {len(rgba)} channels into RGBA")
            for channel in rgba:
                if not 0 <= channel <= 255:
                    raise OverflowError(f"Python integer {channel} out of bounds for uint8")
            self._write_rows(x0, y0, [bytes(rgba) * (x1 - x0)] * (y1 - y0))
            self.log.pixels_written += (x1 - x0) * (y1 - y0)
        self.record("fillRect", x, y, w, h)

    def clear_rect(self, x: float, y: float, w: float, h: float) -> None:
        self.fill_rect(x, y, w, h, rgba=(0, 0, 0, 0))
        self.record("clearRect", x, y, w, h)

    def get_image_data(self, x: int, y: int, w: int, h: int) -> Pixels:
        x0, y0 = max(int(x), 0), max(int(y), 0)
        x1, y1 = min(int(x + w), self.width), min(int(y + h), self.height)
        self.log.pixels_read += max(0, x1 - x0) * max(0, y1 - y0)
        self.record("getImageData", x, y, w, h)
        # Python slice semantics, so a negative end counts from the far edge.
        columns = range(self.width)[x0:x1]
        rows = range(self.height)[y0:y1]
        data = bytearray()
        for row in rows:
            offset = row * self.width
            data += self.buffer[(offset + columns.start) * 4 : (offset + columns.stop) * 4]
        return Pixels(len(columns), len(rows), data)

    def put_image_data(self, pixels: Pixels, x: int, y: int) -> None:
        x0, y0 = max(int(x), 0), max(int(y), 0)
        x1, y1 = min(x0 + pixels.width, self.width), min(y0 + pixels.height, self.height)
        if x1 > x0 and y1 > y0:
            stride, span = pixels.width * 4, (x1 - x0) * 4
            self._write_rows(
                x0, y0, [pixels.data[row * stride : row * stride + span] for row in range(y1 - y0)]
            )
            self.log.pixels_written += (x1 - x0) * (y1 - y0)
        self.record("putImageData", x, y)


def _dimension(value: float) -> int:
    """Convert a guest width/height value to a non-negative int (NaN -> 0)."""
    if value != value:  # NaN
        return 0
    return max(int(value), 0)


class CanvasElement(DOMElement):
    """A ``<canvas>`` element backed by a :class:`HostCanvas`."""

    __slots__ = ("host_canvas",)

    def __init__(self, document: Document, width: int = 300, height: int = 150) -> None:
        super().__init__("canvas", document, prototype=document.element_prototype)
        self.host_canvas = HostCanvas(width, height, clock=document.clock)
        self.set("width", float(width))
        self.set("height", float(height))

    def set(self, name: str, value: Any) -> None:  # keep buffer in sync with size
        super().set(name, value)
        if name in ("width", "height") and hasattr(self, "host_canvas"):
            width = _dimension(to_number(self.get("width")))
            height = _dimension(to_number(self.get("height")))
            if width > 0 and height > 0 and (width != self.host_canvas.width or height != self.host_canvas.height):
                self.host_canvas.resize(width, height)


def make_image_data(interp, pixels: Pixels) -> JSObject:
    """Wrap a :class:`Pixels` block as a guest ImageData object."""
    image_data = interp.make_object()
    image_data.set("width", float(pixels.width))
    image_data.set("height", float(pixels.height))
    image_data.set("data", interp.make_array(list(map(float, pixels.data))))
    image_data.extra["is_image_data"] = True
    return image_data


def _clamped_byte(value: float) -> int:
    """Clip to 0..255 and truncate toward zero; NaN becomes 0."""
    if not value > 0:  # also NaN
        return 0
    return 255 if value >= 255 else int(value)


def image_data_pixels(image_data: JSObject) -> Pixels:
    """The pixels of a guest ImageData, its ``data`` clamped to bytes.

    ``data`` is repeated cyclically (or zero-filled when empty) to exactly
    ``width * height * 4`` entries, as ``putImageData`` consumes them.
    """
    width = int(to_number(image_data.get("width")))
    height = int(to_number(image_data.get("height")))
    data = image_data.get("data")
    values = bytearray()
    if isinstance(data, JSArray):
        values = bytearray(_clamped_byte(to_number(v)) for v in data.elements)
    blank = _blank(width, height)
    if not values:
        return Pixels(width, height, blank)
    if len(values) != len(blank):
        values = (values * (len(blank) // len(values) + 1))[: len(blank)]
    return Pixels(width, height, values)


def make_context2d(interp, canvas: CanvasElement) -> JSObject:
    """Build the guest-visible ``CanvasRenderingContext2D`` for ``canvas``."""
    host = canvas.host_canvas
    host.clock = interp.clock
    ctx = JSObject(prototype=interp.object_prototype, class_name="CanvasRenderingContext2D")
    ctx.set("canvas", canvas)
    ctx.set("fillStyle", "#000000")
    ctx.set("strokeStyle", "#000000")
    ctx.set("lineWidth", 1.0)
    ctx.set("globalAlpha", 1.0)
    ctx.extra["host_canvas"] = host

    def _rgba_from_style(style: Any) -> tuple:
        text = to_string(style)
        if text.startswith("#") and len(text) == 7:
            return (int(text[1:3], 16), int(text[3:5], 16), int(text[5:7], 16), 255)
        if text.startswith("rgba(") or text.startswith("rgb("):
            inner = text[text.index("(") + 1 : text.rindex(")")]
            parts = [float(p.strip()) for p in inner.split(",")]
            if len(parts) == 3:
                parts.append(1.0)
            return (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3] * 255))
        return (0, 0, 0, 255)

    def simple_command(name):
        def impl(interpreter, this, args):
            interpreter.notify_host_access("canvas", name)
            host.record(name, *[to_number(a) if isinstance(a, (int, float)) else to_string(a) for a in args])
            return UNDEFINED

        return NativeFunction(name, impl)

    def fill_rect(interpreter, this, args):
        interpreter.notify_host_access("canvas", "fillRect")
        rgba = _rgba_from_style(ctx.get("fillStyle"))
        host.fill_rect(
            to_number(args[0]) if len(args) > 0 else 0.0,
            to_number(args[1]) if len(args) > 1 else 0.0,
            to_number(args[2]) if len(args) > 2 else 0.0,
            to_number(args[3]) if len(args) > 3 else 0.0,
            rgba=rgba,
        )
        return UNDEFINED

    def clear_rect(interpreter, this, args):
        interpreter.notify_host_access("canvas", "clearRect")
        host.clear_rect(
            to_number(args[0]) if len(args) > 0 else 0.0,
            to_number(args[1]) if len(args) > 1 else 0.0,
            to_number(args[2]) if len(args) > 2 else 0.0,
            to_number(args[3]) if len(args) > 3 else 0.0,
        )
        return UNDEFINED

    def get_image_data(interpreter, this, args):
        interpreter.notify_host_access("canvas", "getImageData")
        pixels = host.get_image_data(
            int(to_number(args[0])) if len(args) > 0 else 0,
            int(to_number(args[1])) if len(args) > 1 else 0,
            int(to_number(args[2])) if len(args) > 2 else host.width,
            int(to_number(args[3])) if len(args) > 3 else host.height,
        )
        return make_image_data(interpreter, pixels)

    def put_image_data(interpreter, this, args):
        interpreter.notify_host_access("canvas", "putImageData")
        if args and isinstance(args[0], JSObject):
            host.put_image_data(
                image_data_pixels(args[0]),
                int(to_number(args[1])) if len(args) > 1 else 0,
                int(to_number(args[2])) if len(args) > 2 else 0,
            )
        return UNDEFINED

    def create_image_data(interpreter, this, args):
        interpreter.notify_host_access("canvas", "createImageData")
        width = int(to_number(args[0])) if len(args) > 0 else host.width
        height = int(to_number(args[1])) if len(args) > 1 else host.height
        return make_image_data(interpreter, Pixels(width, height, _blank(width, height)))

    ctx.set("fillRect", NativeFunction("fillRect", fill_rect))
    ctx.set("clearRect", NativeFunction("clearRect", clear_rect))
    ctx.set("getImageData", NativeFunction("getImageData", get_image_data))
    ctx.set("putImageData", NativeFunction("putImageData", put_image_data))
    ctx.set("createImageData", NativeFunction("createImageData", create_image_data))
    for name in (
        "beginPath",
        "closePath",
        "moveTo",
        "lineTo",
        "stroke",
        "fill",
        "arc",
        "rect",
        "save",
        "restore",
        "translate",
        "rotate",
        "scale",
        "drawImage",
        "strokeRect",
        "quadraticCurveTo",
        "bezierCurveTo",
        "fillText",
        "setTransform",
    ):
        ctx.set(name, simple_command(name))
    return ctx


def attach_canvas_support(interp, document: Document) -> None:
    """Make ``document.createElement('canvas')`` return canvas elements with
    a working ``getContext('2d')``."""
    proto = document.element_prototype

    def get_context(interpreter, this, args):
        interpreter.notify_host_access("canvas", "getContext")
        if isinstance(this, CanvasElement):
            cached = this.extra.get("context2d")
            if cached is None:
                cached = make_context2d(interpreter, this)
                this.extra["context2d"] = cached
            return cached
        return UNDEFINED

    proto.set("getContext", NativeFunction("getContext", get_context))

    original_create_element = document.create_element

    def create_element(tag_name: str) -> DOMElement:
        if tag_name.lower() == "canvas":
            element = CanvasElement(document)
            document.log_access("createElement", "canvas")
            return element
        return original_create_element(tag_name)

    document.create_element = create_element  # type: ignore[method-assign]
