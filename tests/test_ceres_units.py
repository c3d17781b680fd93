"""Unit tests for the JS-CERES building blocks: Welford stats, loop stack,
identifiers, warnings rendering."""

import math
import statistics

import pytest

from repro.ceres.ids import IndexRegistry, ProgramIndex
from repro.ceres.loopstack import CharTriple, LoopStack, StackEntry, diff_stamp, is_problematic, render_triples
from repro.ceres.warnings_ import DependenceWarning, RecursionWarning, WarningKind
from repro.ceres.welford import OnlineStats
from repro.jsvm.parser import parse


class TestOnlineStats:
    def test_mean_and_variance_match_population_statistics(self):
        data = [1.0, 4.0, 2.0, 8.0, 5.5, -3.0]
        stats = OnlineStats()
        for value in data:
            stats.push(value)
        assert stats.count == len(data)
        assert stats.mean == pytest.approx(statistics.fmean(data))
        assert stats.variance == pytest.approx(statistics.pvariance(data))
        assert stats.std == pytest.approx(statistics.pstdev(data))

    def test_min_max_total(self):
        stats = OnlineStats()
        for value in (3.0, -1.0, 7.0):
            stats.push(value)
        assert stats.minimum == -1.0 and stats.maximum == 7.0 and stats.total == 9.0

    def test_single_observation_has_zero_variance(self):
        stats = OnlineStats()
        stats.push(42.0)
        assert stats.variance == 0.0 and stats.sample_variance == 0.0

    def test_merge_equals_single_pass(self):
        left, right, combined = OnlineStats(), OnlineStats(), OnlineStats()
        data_left = [1.0, 2.0, 3.0]
        data_right = [10.0, 20.0]
        for value in data_left:
            left.push(value)
            combined.push(value)
        for value in data_right:
            right.push(value)
            combined.push(value)
        left.merge(right)
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)
        assert left.count == combined.count

    def test_merge_with_empty(self):
        stats = OnlineStats()
        stats.push(5.0)
        stats.merge(OnlineStats())
        assert stats.count == 1 and stats.mean == 5.0

    def test_summary_keys(self):
        stats = OnlineStats()
        stats.push(1.0)
        assert set(stats.summary()) == {"count", "total", "mean", "std", "min", "max"}


class TestLoopStack:
    def test_push_iteration_pop(self):
        stack = LoopStack()
        stack.push_loop(10)
        stack.next_iteration(10)
        stack.next_iteration(10)
        entry = stack.innermost()
        assert entry.loop_id == 10 and entry.instance == 1 and entry.iteration == 2
        stack.pop_loop(10)
        assert stack.depth() == 0

    def test_instance_counter_is_global_per_loop(self):
        stack = LoopStack()
        stack.push_loop(10)
        stack.pop_loop(10)
        entry = stack.push_loop(10)
        assert entry.instance == 2

    def test_recursive_reentry_records_warning(self):
        stack = LoopStack()
        stack.push_loop(7)
        stack.push_loop(7)  # the same syntactic loop re-entered via recursion
        assert 7 in stack.recursion_warnings

    def test_snapshot_is_immutable_copy(self):
        stack = LoopStack()
        stack.push_loop(1)
        snapshot = stack.snapshot()
        stack.next_iteration(1)
        assert snapshot[0].iteration == 0 and stack.innermost().iteration == 1

    def test_diff_same_stack_is_all_ok(self):
        stack = LoopStack()
        stack.push_loop(1)
        stack.next_iteration(1)
        stamp = stack.snapshot()
        triples = diff_stamp(stack.entries, stamp)
        assert all(t.instance_private and t.iteration_private for t in triples)

    def test_diff_figure6_com_case(self):
        """Object created inside the while iteration, before the for loop."""
        stack = LoopStack()
        stack.push_loop(24)  # while(line 24)
        stack.next_iteration(24)
        stamp = stack.snapshot()  # com created here
        stack.push_loop(6)  # for(line 6)
        stack.next_iteration(6)
        triples = diff_stamp(stack.entries, stamp)
        assert triples[0] == CharTriple(24, True, True)
        assert triples[1] == CharTriple(6, True, False)

    def test_diff_object_created_before_all_loops(self):
        stack = LoopStack()
        stack.push_loop(24)
        stack.next_iteration(24)
        stack.push_loop(6)
        stack.next_iteration(6)
        triples = diff_stamp(stack.entries, ())
        assert triples[0] == CharTriple(24, False, False)
        assert triples[1] == CharTriple(6, False, False)

    def test_diff_same_instance_different_iteration(self):
        stack = LoopStack()
        stack.push_loop(6)
        stack.next_iteration(6)
        stamp = stack.snapshot()
        stack.next_iteration(6)
        triples = diff_stamp(stack.entries, stamp)
        assert triples[0] == CharTriple(6, True, False)

    def test_dependence_ok_never_produced(self):
        """'dependence ok' is not a valid characterization (paper, Sec 3.3)."""
        stack = LoopStack()
        stack.push_loop(1)
        stack.next_iteration(1)
        stack.push_loop(2)
        stack.next_iteration(2)
        stamps = [(), stack.snapshot(), (StackEntry(1, 99, 5),), (StackEntry(1, 1, 0),)]
        for stamp in stamps:
            for triple in diff_stamp(stack.entries, stamp):
                assert not (not triple.instance_private and triple.iteration_private)

    def test_is_problematic_focus_filter(self):
        triples = [CharTriple(1, True, True), CharTriple(2, True, False)]
        assert is_problematic(triples) is True
        assert is_problematic(triples, focus_loop_id=1) is False
        assert is_problematic(triples, focus_loop_id=2) is True

    def test_render_triples_format(self):
        triples = [CharTriple(1, True, True), CharTriple(2, True, False)]
        rendered = render_triples(triples, lambda loop_id: f"loop{loop_id}")
        assert rendered == "loop1 ok ok -> loop2 ok dependence"


class TestProgramIndex:
    SOURCE = """\
var data = [];
function fill(n) {
  for (var i = 0; i < n; i++) {
    data.push({value: i});
  }
}
function scan() {
  var total = 0;
  while (total < 100) {
    for (var i = 0; i < data.length; i++) { total += data[i].value; }
  }
  return total;
}
"""

    def test_loops_are_indexed_with_labels(self):
        index = ProgramIndex(parse(self.SOURCE, name="app.js"))
        labels = sorted(site.label for site in index.loops.values())
        assert labels == ["for(line 10)", "for(line 3)", "while(line 9)"]

    def test_nesting_relationship_recorded(self):
        index = ProgramIndex(parse(self.SOURCE, name="app.js"))
        inner = index.loop_for_line(10)
        outer = index.loop_for_line(9)
        assert outer.node_id in inner.enclosing and not outer.enclosing

    def test_creation_sites_include_object_literals(self):
        index = ProgramIndex(parse(self.SOURCE, name="app.js"))
        kinds = {site.kind for site in index.creation_sites.values()}
        assert "ObjectLiteral" in kinds and "ArrayLiteral" in kinds and "FunctionDeclaration" in kinds

    def test_registry_lookup_across_programs(self):
        registry = IndexRegistry()
        registry.add(parse("while (a) { a--; }", name="one.js"))
        registry.add(parse("for (var i = 0; i < 2; i++) {}", name="two.js"))
        assert len(registry.all_loops()) == 2
        for site in registry.all_loops():
            assert registry.loop_label(site.node_id) == site.label

    def test_unknown_loop_gets_fallback_label(self):
        assert IndexRegistry().loop_label(12345) == "loop#12345"


class TestWarningRendering:
    def test_warning_render_mentions_kind_and_chain(self):
        warning = DependenceWarning(
            kind=WarningKind.VAR_WRITE,
            name="p",
            triples=(CharTriple(1, True, True), CharTriple(2, True, False)),
            focus_loop_id=2,
        )
        text = warning.render(lambda loop_id: f"loop{loop_id}")
        assert "write to shared variable" in text and "loop2 ok dependence" in text

    def test_dependence_class_mapping(self):
        warning = DependenceWarning(WarningKind.FLOW_READ, "com.m", (), None)
        assert "read-after-write" in warning.dependence_class

    def test_recursion_warning_render(self):
        assert "discarded" in RecursionWarning(3, "for(line 3)").render()
