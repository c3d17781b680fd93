"""Tests for the browser substrate: DOM, Canvas, event loop, clock, profiler."""

import pytest

from repro.browser import BrowserSession, Document, GeckoProfiler, VirtualClock
from repro.browser.canvas import (
    CanvasElement,
    HostCanvas,
    Pixels,
    image_data_pixels,
    make_image_data,
)
from repro.jsvm.hooks import HookBus


class TestVirtualClock:
    def test_advance_and_now(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now() == pytest.approx(7.5)

    def test_tick_op_uses_ms_per_op(self):
        clock = VirtualClock(ms_per_op=0.5)
        clock.tick_op(4)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_listeners_invoked(self):
        clock = VirtualClock()
        seen = []
        clock.add_listener(seen.append)
        clock.advance(1.0)
        clock.advance(1.0)
        assert seen == [1.0, 2.0]

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now() == 0.0


class TestDOM:
    def test_create_and_query_by_id(self):
        document = Document()
        element = document.create_element("div")
        element.set("id", "target")
        document.body.append_child(element)
        assert document.get_element_by_id("target") is element
        assert document.get_element_by_id("missing") is None

    def test_selector_engine(self):
        document = Document()
        for class_name in ("node", "node", "edge"):
            element = document.create_element("span")
            element.set("className", class_name)
            document.body.append_child(element)
        assert len(document.query_selector_all(".node")) == 2
        assert len(document.query_selector_all("span")) == 3
        assert len(document.query_selector_all("#nothing")) == 0

    def test_access_log_records_operations_and_time(self):
        clock = VirtualClock()
        document = Document(clock=clock)
        clock.advance(10.0)
        document.create_element("p")
        assert document.access_log.count() == 1
        access = document.access_log.accesses[0]
        assert access.operation == "createElement" and access.time_ms == pytest.approx(10.0)

    def test_remove_child(self):
        document = Document()
        child = document.create_element("div")
        document.body.append_child(child)
        document.body.remove_child(child)
        assert child.parent is None and child not in document.body.children

    def test_guest_dom_interaction(self):
        session = BrowserSession()
        session.run_script(
            "var el = document.createElement('div');"
            "el.setAttribute('id', 'made');"
            "document.body.appendChild(el);"
            "var found = document.getElementById('made') !== null;"
        )
        assert session.interp.global_env.get("found") is True
        assert session.dom_access_count >= 3

    def test_element_count(self):
        document = Document()
        assert document.element_count() == 2  # head + body
        document.body.append_child(document.create_element("div"))
        assert document.element_count() == 3


class TestCanvas:
    def test_fill_rect_changes_pixels(self):
        session = BrowserSession()
        session.create_canvas("c", 16, 16)
        session.run_script(
            "var ctx = document.getElementById('c').getContext('2d');"
            "ctx.fillStyle = '#ff0000'; ctx.fillRect(0, 0, 8, 8);"
        )
        canvas = session.document.get_element_by_id("c")
        assert isinstance(canvas, CanvasElement)
        host = canvas.host_canvas
        assert host.pixel(0, 0) == (255, 0, 0, 255)
        assert host.pixel(12, 12) == (0, 0, 0, 255)
        assert len(host.buffer) == 16 * 16 * 4

    def test_get_and_put_image_data_round_trip(self):
        session = BrowserSession()
        session.create_canvas("c", 8, 8)
        session.run_script(
            "var ctx = document.getElementById('c').getContext('2d');"
            "ctx.fillStyle = '#102030'; ctx.fillRect(0, 0, 8, 8);"
            "var img = ctx.getImageData(0, 0, 8, 8);"
            "img.data[0] = 250;"
            "ctx.putImageData(img, 0, 0);"
        )
        canvas = session.document.get_element_by_id("c")
        assert canvas.host_canvas.pixel(0, 0) == (250, 0x20, 0x30, 255)
        assert canvas.host_canvas.log.pixels_read == 64
        assert canvas.host_canvas.log.pixels_written >= 64

    def test_command_log_records_path_operations(self):
        session = BrowserSession()
        session.create_canvas("c", 8, 8)
        session.run_script(
            "var ctx = document.getElementById('c').getContext('2d');"
            "ctx.beginPath(); ctx.moveTo(0, 0); ctx.lineTo(5, 5); ctx.stroke();"
        )
        canvas = session.document.get_element_by_id("c")
        names = [command.name for command in canvas.host_canvas.log.commands]
        assert names == ["beginPath", "moveTo", "lineTo", "stroke"]

    def test_image_data_conversion_helpers(self):
        session = BrowserSession()
        pixels = Pixels(3, 2, bytearray((1, 2, 3, 4)) + bytearray(20))
        image_data = make_image_data(session.interp, pixels)
        assert image_data.get("width") == 3.0 and image_data.get("height") == 2.0
        elements = image_data.get("data").elements
        assert all(type(value) is float for value in elements)
        assert image_data_pixels(image_data) == pixels

    def test_canvas_resize_on_dimension_change(self):
        session = BrowserSession()
        canvas = session.create_canvas("c", 4, 4)
        canvas.set("width", 10.0)
        assert canvas.host_canvas.width == 10


#: A 10x4 canvas whose byte ``i`` (row-major RGBA) holds ``(i * 7) % 256``.
GRADIENT = (
    "var ctx = document.getElementById('c').getContext('2d');"
    "var base = ctx.createImageData(10, 4);"
    "for (var i = 0; i < 160; i++) { base.data[i] = (i * 7) % 256; }"
    "ctx.putImageData(base, 0, 0);"
)


def _gradient_session():
    session = BrowserSession()
    session.create_canvas("c", 10, 4)
    session.run_script(GRADIENT)
    return session


def _read(session, expression):
    """``(width, height, data)`` of the guest ImageData ``expression``."""
    session.run_script(f"var out = {expression};")
    image = session.interp.global_env.get("out")
    values = image.get("data").elements
    assert all(type(value) is float for value in values)
    return image.get("width"), image.get("height"), [int(value) for value in values]


class TestCanvasParity:
    """Pixel semantics pinned to the values of the former numpy buffer.

    Every expected value below was computed once by the numpy-backed
    canvas (``uint8`` clip-and-cast, ``np.resize``, ndarray slicing).
    """

    @pytest.mark.parametrize(
        "data, width, height, expected",
        [
            # clip to 0..255, truncate toward zero, NaN -> 0
            ("[NaN, Infinity, -Infinity, -0.5, 255.9, 256, 3.7, 0.2]", 2, 1,
             [0, 255, 0, 0, 255, 255, 3, 0]),
            ("[10, 20, 30]", 2, 1, [10, 20, 30, 10, 20, 30, 10, 20]),  # cyclic fill
            ("[1, 2, 3, 4, 5, 6]", 1, 1, [1, 2, 3, 4]),  # truncated
            ("[]", 2, 1, [0] * 8),  # zeros when empty
            ("5", 2, 1, [0] * 8),  # zeros when data is no array
        ],
        ids=["clamp", "short", "long", "empty", "not-array"],
    )
    def test_put_image_data_clamps_and_resizes(self, data, width, height, expected):
        session = _gradient_session()
        session.run_script(
            f"var img = ctx.createImageData({width}, {height}); img.data = {data};"
            "ctx.putImageData(img, 0, 0);"
        )
        assert _read(session, f"ctx.getImageData(0, 0, {width}, {height})") == (
            float(width), float(height), expected
        )

    @pytest.mark.parametrize(
        "rect, expected",
        [
            ((-1, -1, 3, 3), (2.0, 2.0, [0, 7, 14, 21, 28, 35, 42, 49,
                                         24, 31, 38, 45, 52, 59, 66, 73])),
            # x + w = -7 is a slice end counted from the right edge
            ((-10, 0, 3, 2), (3.0, 2.0, [0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77,
                                         24, 31, 38, 45, 52, 59, 66, 73, 80, 87, 94, 101])),
            ((0, -6, 2, 4), (2.0, 2.0, [0, 7, 14, 21, 28, 35, 42, 49,
                                        24, 31, 38, 45, 52, 59, 66, 73])),
            ((8, 2, 5, 5), (2.0, 2.0, [16, 23, 30, 37, 44, 51, 58, 65,
                                       40, 47, 54, 61, 68, 75, 82, 89])),
            ((11, 0, 2, 2), (0.0, 2.0, [])),
            ((0, 0, 4, 0), (4.0, 0.0, [])),  # a zero-height read keeps its width
            ((2, 1, 0, 2), (0.0, 2.0, [])),
            ((3, 1, -2, 2), (0.0, 2.0, [])),
        ],
        ids=["negative-origin", "negative-end", "above", "overhang", "right-of",
             "zero-height", "zero-width", "negative-width"],
    )
    def test_get_image_data_rectangles(self, rect, expected):
        session = _gradient_session()
        assert _read(session, "ctx.getImageData(%d, %d, %d, %d)" % rect) == expected

    @pytest.mark.parametrize(
        "at, changed, written",
        [
            # a negative origin clamps to 0 and writes the data unshifted
            ((-1, -1), {(0, 0): 200, (1, 0): 204, (2, 0): 208,
                        (0, 1): 212, (1, 1): 216, (2, 1): 220}, 6),
            ((-3, 2), {(0, 2): 200, (1, 2): 204, (2, 2): 208,
                       (0, 3): 212, (1, 3): 216, (2, 3): 220}, 6),
            ((9, 3), {(9, 3): 200}, 1),
            ((10, 0), {}, 0),
        ],
        ids=["negative", "negative-x", "corner", "outside"],
    )
    def test_put_image_data_offsets(self, at, changed, written):
        session = _gradient_session()
        session.run_script(
            "var img = ctx.createImageData(3, 2);"
            "for (var i = 0; i < 24; i++) { img.data[i] = 200 + i; }"
            "ctx.putImageData(img, %d, %d);" % at
        )
        host = session.document.get_element_by_id("c").host_canvas
        for y in range(4):
            for x in range(10):
                first = changed.get((x, y))
                if first is None:
                    first = (y * 10 + x) * 28 % 256
                    expected = tuple((first + 7 * c) % 256 for c in range(4))
                else:
                    expected = tuple(range(first, first + 4))
                assert host.pixel(x, y) == expected, (x, y)
        assert (host.log.pixels_read, host.log.pixels_written) == (0, 40 + written)

    @pytest.mark.parametrize(
        "rgba, error",
        [((256, 0, 0, 255), OverflowError), ((0, -1, 0, 255), OverflowError),
         ((1, 2, 3), ValueError)],
    )
    def test_fill_rect_rejects_what_uint8_rejected(self, rgba, error):
        host = HostCanvas(4, 4)
        with pytest.raises(error):
            host.fill_rect(0, 0, 1, 1, rgba=rgba)
        host.fill_rect(5, 5, 1, 1, rgba=rgba)  # an empty rectangle writes nothing

    def test_guest_alpha_above_one_overflows(self):
        session = _gradient_session()
        with pytest.raises(OverflowError):
            session.run_script("ctx.fillStyle = 'rgba(0, 0, 0, 2)'; ctx.fillRect(0, 0, 1, 1);")

    @pytest.mark.parametrize(
        "script",
        [
            "ctx.createImageData(-1, 2);",
            "var img = ctx.createImageData(2, 2); img.width = -1;",
            "var img = ctx.createImageData(2, 2); img.width = -1; img.height = -1;",
            "var img = ctx.createImageData(2, 2); img.width = -1; img.height = -1;"
            " img.data = [1, 2, 3, 4];",
            "var img = ctx.createImageData(2, 2); img.width = -1; img.height = 0; img.data = [];",
            "var img = ctx.createImageData(2, 2); img.width = 0; img.height = -1;",
            "var img = ctx.createImageData(2, 2); img.width = -1; img.data = 3;",
        ],
    )
    def test_negative_dimensions_raise_value_error(self, script):
        session = _gradient_session()
        with pytest.raises(ValueError):
            session.run_script(script + " if (typeof img !== 'undefined') ctx.putImageData(img, 0, 0);")

    def test_negative_canvas_size_raises_value_error(self):
        for width, height in ((-1, 5), (-2, -2)):
            with pytest.raises(ValueError):
                HostCanvas(width, height)


class TestEventLoop:
    def test_request_animation_frame_runs_callbacks(self):
        session = BrowserSession()
        session.run_script(
            "var frames = 0;"
            "function tick() { frames++; if (frames < 3) requestAnimationFrame(tick); }"
            "requestAnimationFrame(tick);"
        )
        session.run_frames(5)
        assert session.interp.global_env.get("frames") == 3.0

    def test_set_timeout_fires_after_delay(self):
        session = BrowserSession()
        session.run_script("var fired = false; setTimeout(function() { fired = true; }, 40);")
        session.run_frames(1)
        assert session.interp.global_env.get("fired") is False
        session.run_frames(3)
        assert session.interp.global_env.get("fired") is True

    def test_clear_timeout_cancels(self):
        session = BrowserSession()
        session.run_script("var fired = false; var t = setTimeout(function() { fired = true; }, 10); clearTimeout(t);")
        session.run_frames(3)
        assert session.interp.global_env.get("fired") is False

    def test_set_interval_repeats(self):
        session = BrowserSession()
        session.run_script("var n = 0; setInterval(function() { n++; }, 20);")
        session.run_frames(10)
        assert session.interp.global_env.get("n") >= 3.0

    def test_idle_advances_clock_without_work(self):
        session = BrowserSession()
        before = session.clock.now()
        session.idle(500.0)
        assert session.clock.now() - before == pytest.approx(500.0)
        assert session.event_loop.idle_ms >= 500.0

    def test_frames_advance_at_least_frame_interval(self):
        session = BrowserSession()
        session.run_frames(10)
        assert session.clock.now() >= 10 * session.event_loop.frame_interval_ms - 1e-6

    def test_run_until_idle_drains_timers(self):
        session = BrowserSession()
        session.run_script("var done = false; setTimeout(function() { done = true; }, 100);")
        session.event_loop.run_until_idle()
        assert session.interp.global_env.get("done") is True

    def test_performance_now_reflects_clock(self):
        session = BrowserSession()
        session.idle(250.0)
        value = session.run_script("performance.now();")
        assert value >= 250.0


class TestGeckoProfiler:
    def _profiled_session(self, function_granularity=True):
        hooks = HookBus()
        profiler = hooks.attach(GeckoProfiler(function_granularity=function_granularity))
        return BrowserSession(hooks=hooks), profiler

    def test_samples_collected_during_execution(self):
        session, profiler = self._profiled_session()
        session.run_script(
            "function work() { var s = 0; for (var i = 0; i < 400; i++) { s += Math.sqrt(i); } return s; } work();"
        )
        assert profiler.profile.sample_count > 0
        assert profiler.active_seconds() > 0.0

    def test_function_granularity_underreports_tight_loops(self):
        """The paper's anomaly: function-level sampling misses long in-function loops."""
        tight_loop = "var s = 0; for (var i = 0; i < 3000; i++) { s += i; } s;"
        session_fn, profiler_fn = self._profiled_session(function_granularity=True)
        session_fn.run_script(tight_loop)
        session_stmt, profiler_stmt = self._profiled_session(function_granularity=False)
        session_stmt.run_script(tight_loop)
        assert profiler_fn.active_seconds() < profiler_stmt.active_seconds()

    def test_idle_time_produces_no_samples(self):
        session, profiler = self._profiled_session()
        session.run_script("var x = 1;")
        before = profiler.profile.sample_count
        session.idle(1000.0)
        assert profiler.profile.sample_count == before

    def test_reset_clears_samples(self):
        session, profiler = self._profiled_session()
        session.run_script("for (var i = 0; i < 500; i++) { Math.sqrt(i); }")
        profiler.reset()
        assert profiler.profile.sample_count == 0 and profiler.active_seconds() == 0.0
