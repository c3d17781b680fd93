"""Tests for the browser substrate: DOM, Canvas, event loop, clock, profiler."""

import numpy as np
import pytest

from repro.browser import BrowserSession, Document, GeckoProfiler, VirtualClock
from repro.browser.canvas import CanvasElement, image_data_to_array, make_image_data
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
        buffer = canvas.host_canvas.buffer
        assert buffer[0, 0, 0] == 255 and buffer[0, 0, 2] == 0
        assert buffer[12, 12, 0] == 0

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
        assert canvas.host_canvas.buffer[0, 0, 0] == 250
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
        pixels = np.zeros((2, 3, 4), dtype=np.uint8)
        pixels[0, 0] = (1, 2, 3, 4)
        image_data = make_image_data(session.interp, pixels)
        assert image_data.get("width") == 3.0 and image_data.get("height") == 2.0
        back = image_data_to_array(image_data)
        assert back.shape == (2, 3, 4) and tuple(back[0, 0]) == (1, 2, 3, 4)

    def test_canvas_resize_on_dimension_change(self):
        session = BrowserSession()
        canvas = session.create_canvas("c", 4, 4)
        canvas.set("width", 10.0)
        assert canvas.host_canvas.width == 10


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
