"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import os
import statistics
import tempfile
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.amdahl import amdahl_speedup, parallel_fraction_needed
from repro.ceres.dependence import DependenceAnalyzer
from repro.ceres.loopstack import LoopStack, StackEntry, diff_stamp, is_problematic
from repro.ceres.welford import OnlineStats
from repro.jsvm.hooks import TR_LOOP_ITER, TR_STATEMENT, Trace
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.lexer import tokenize
from repro.jsvm.tokens import TokenType
from repro.jsvm.tracecodec import BinaryTraceSource, write_binary_trace
from repro.jsvm.values import JSObject
from repro.parallel.partition import assigned_iterations, block_partition, cyclic_partition
from repro.survey.coding import jaccard


# --------------------------------------------------------------------------- Welford
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_welford_matches_population_statistics(data):
    stats = OnlineStats()
    for value in data:
        stats.push(value)
    assert stats.count == len(data)
    assert math.isclose(stats.mean, statistics.fmean(data), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(stats.variance, statistics.pvariance(data), rel_tol=1e-7, abs_tol=1e-5)
    assert stats.minimum == min(data) and stats.maximum == max(data)


@given(
    st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=1, max_size=100),
    st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=1, max_size=100),
)
def test_welford_merge_equivalent_to_concatenation(left_data, right_data):
    left, right, combined = OnlineStats(), OnlineStats(), OnlineStats()
    for value in left_data:
        left.push(value)
        combined.push(value)
    for value in right_data:
        right.push(value)
        combined.push(value)
    left.merge(right)
    assert math.isclose(left.mean, combined.mean, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(left.variance, combined.variance, rel_tol=1e-6, abs_tol=1e-4)


# --------------------------------------------------------------------------- partitioning
@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=64))
def test_block_partition_is_exact_cover(iterations, workers):
    assert assigned_iterations(block_partition(iterations, workers)) == list(range(iterations))


@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=64))
def test_cyclic_partition_is_exact_cover(iterations, workers):
    assert assigned_iterations(cyclic_partition(iterations, workers)) == list(range(iterations))


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=64))
def test_block_partition_is_balanced(iterations, workers):
    sizes = [len(chunk) for chunk in block_partition(iterations, workers)]
    assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------- Amdahl
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=1024))
def test_amdahl_bound_is_monotone_and_bounded(fraction, cores):
    speedup = amdahl_speedup(fraction, cores)
    assert 1.0 <= speedup <= cores + 1e-9
    assert amdahl_speedup(fraction, cores + 1) >= speedup - 1e-12


@given(st.floats(min_value=1.0, max_value=7.5), st.integers(min_value=8, max_value=64))
def test_amdahl_fraction_needed_round_trips(speedup, cores):
    fraction = parallel_fraction_needed(speedup, cores)
    assert 0.0 <= fraction <= 1.0
    assert math.isclose(amdahl_speedup(fraction, cores), speedup, rel_tol=1e-9)


# --------------------------------------------------------------------------- Jaccard
@given(st.sets(st.text(max_size=6), max_size=8), st.sets(st.text(max_size=6), max_size=8))
def test_jaccard_properties(a, b):
    value = jaccard(a, b)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(b, a)
    assert jaccard(a, a) == 1.0
    if a and not b:
        assert value == 0.0


# --------------------------------------------------------------------------- loop stack
@given(st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=30))
def test_loopstack_depth_never_negative_and_diff_never_invalid(loop_events):
    """Random push/iterate sequences keep the stack consistent, and diffing
    any snapshot against the current stack never yields 'dependence ok'."""
    stack = LoopStack()
    snapshots = [stack.snapshot()]
    open_count = 0
    for loop_id in loop_events:
        if stack.contains(loop_id) and open_count % 2:
            stack.next_iteration(loop_id)
        else:
            stack.push_loop(loop_id)
            open_count += 1
        snapshots.append(stack.snapshot())
    for snapshot in snapshots:
        for triple in diff_stamp(stack.entries, snapshot):
            assert not (not triple.instance_private and triple.iteration_private)
    while stack.entries:
        stack.pop_loop(stack.entries[-1].loop_id)
    assert stack.depth() == 0


# --------------------------------------------------------------------------- dependence analyzer
_LOOP_EVENT = st.tuples(st.sampled_from(["enter", "iterate", "exit"]), st.sampled_from([1, 2, 3]))


def _loop_event(analyzer, kind, loop_id):
    node = SimpleNamespace(node_id=loop_id, line=0)
    if kind == "enter":
        analyzer.on_loop_enter(None, node)
    elif kind == "iterate":
        analyzer.on_loop_iteration(None, node, 0)
    else:
        analyzer.on_loop_exit(None, node, 0)


@given(st.lists(_LOOP_EVENT, max_size=40), st.sampled_from([None, 1, 2]))
@example([("enter", 1), ("enter", 2), ("enter", 1), ("exit", 1), ("exit", 2), ("exit", 1)], 1)
def test_dependence_focus_open_count_tracks_the_stack(events, focus):
    """Push/iterate/pop sequences, recursive re-entry and pops of loops that
    are not open included: the O(1) focus count agrees with a stack scan."""
    analyzer = DependenceAnalyzer(focus_loop_id=focus)
    for kind, loop_id in events:
        _loop_event(analyzer, kind, loop_id)
        entries = analyzer.stack.entries
        assert analyzer._focus_open == sum(
            1 for entry in entries if focus is None or entry.loop_id == focus
        )
        if focus is not None:
            assert (analyzer._focus_open > 0) == analyzer.stack.contains(focus)


class _NoEvictionAnalyzer(DependenceAnalyzer):
    """Reference analyzer: keeps every stamp for its whole lifetime."""

    def _evict_closed(self, loop_id):
        pass


class _Env:
    """A stand-in scope: hashed by identity, like a live environment."""


_ACCESS_EVENT = st.one_of(
    _LOOP_EVENT,
    st.tuples(st.sampled_from(["object", "env"])),
    st.tuples(st.sampled_from(["drop_object", "drop_env"]), st.integers(0, 3)),
    st.tuples(st.sampled_from(["var_write", "var_read"]), st.integers(0, 3)),
    # Drawn twice as often: a flow check needs a write and a later read.
    st.tuples(st.sampled_from(["prop_write", "prop_read"]), st.integers(0, 3)),
    st.tuples(st.sampled_from(["prop_write", "prop_read"]), st.integers(0, 3)),
)


def _nest(body):
    """One loop instance: enter, an iterate before each body, exit."""
    return st.builds(
        lambda loop_id, iterations: [("enter", loop_id)]
        + [event for block in iterations for event in [("iterate", loop_id)] + block]
        + [("exit", loop_id)],
        st.sampled_from([1, 2, 3]),
        st.lists(body, max_size=3),
    )


def _concat(blocks):
    return [event for block in blocks for event in block]


#: Flat event sequences: mostly well-nested loops around accesses, plus
#: stray loop events (exits of loops that are not open included).
_EVENTS = st.recursive(
    st.lists(_ACCESS_EVENT, max_size=4),
    lambda blocks: st.lists(st.one_of(blocks, _nest(blocks)), max_size=4).map(_concat),
    max_leaves=40,
)


@given(_EVENTS, st.sampled_from([None, 1, 2]))
@settings(deadline=None, max_examples=300)
@example(  # a flow dependence across iterations, an inner nest closed between
    [("enter", 1), ("iterate", 1), ("prop_write", 0), ("enter", 2), ("exit", 2)]
    + [("iterate", 1), ("prop_read", 0), ("exit", 1)],
    None,
)
@example(  # a scope stamped by an outer loop, written after the focus nest reopens
    [("enter", 1), ("iterate", 1), ("env",), ("enter", 2), ("exit", 2), ("enter", 2)]
    + [("iterate", 2), ("var_write", 1), ("exit", 2), ("exit", 1)],
    2,
)
def test_dependence_eviction_does_not_change_the_report(events, focus):
    """Closed-nest eviction is sound: both analyzers see one event stream
    (the same objects and scopes, some of them dropped by the program
    between events) and report identically."""
    analyzers = [DependenceAnalyzer(focus_loop_id=focus), _NoEvictionAnalyzer(focus_loop_id=focus)]
    objects, envs = [], []
    node = SimpleNamespace(node_id=0, line=7)
    for event in [("object",), ("env",)] + events:
        kind = event[0]
        if kind in ("enter", "iterate", "exit"):
            for analyzer in analyzers:
                _loop_event(analyzer, *event)
        elif kind == "object":
            objects.append(JSObject())
            for analyzer in analyzers:
                analyzer.on_object_created(None, objects[-1], node)
        elif kind == "env":
            envs.append(_Env())
            for analyzer in analyzers:
                analyzer.on_env_created(None, envs[-1], "function")
        elif kind == "drop_object" and objects:
            del objects[event[1] % len(objects)]
        elif kind == "drop_env" and envs:
            del envs[event[1] % len(envs)]
        elif kind.startswith("var_") and envs:
            env = envs[event[1] % len(envs)]
            for analyzer in analyzers:
                if kind == "var_write":
                    analyzer.on_var_write(None, "v", env, None, node)
                else:
                    analyzer.on_var_read(None, "v", env, node)
        elif kind.startswith("prop_") and objects:
            obj = objects[event[1] % len(objects)]
            for analyzer in analyzers:
                if kind == "prop_write":
                    analyzer.on_prop_write(None, obj, "x", None, node)
                else:
                    analyzer.on_prop_read(None, obj, "x", node)
    evicting, reference = analyzers
    assert evicting.report() == reference.report()


def _shifted(entries, bump):
    """A fresh stamp: the current stack with every iteration moved by ``bump``."""
    return tuple([StackEntry(e.loop_id, e.instance, e.iteration + bump) for e in entries])


def _assert_memo_matches_uncached(analyzer, stamp, focus):
    entries = analyzer.stack.entries
    held, triples, problematic = analyzer._diff(stamp)
    assert held is stamp
    assert triples == tuple(diff_stamp(entries, stamp))
    assert problematic == is_problematic(triples, focus)
    assert analyzer._current_snapshot() == analyzer.stack.snapshot()
    if focus is None:
        iteration = entries[-1].iteration if entries else -1
    else:
        iteration = next((e.iteration for e in entries if e.loop_id == focus), -1)
    assert analyzer._focus_iteration() == iteration


@given(st.data(), st.sampled_from([None, 1, 2]))
@settings(deadline=None)
def test_dependence_memoised_diff_matches_uncached(data, focus):
    analyzer = DependenceAnalyzer(focus_loop_id=focus)
    target = JSObject()
    stamps = [()]
    for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
        op = data.draw(st.sampled_from(["loop", "snapshot", "check", "replace"]))
        if op == "loop":
            _loop_event(analyzer, *data.draw(_LOOP_EVENT))
        elif op == "snapshot":
            stamps.append(analyzer.stack.snapshot())
        elif op == "check":
            _assert_memo_matches_uncached(analyzer, data.draw(st.sampled_from(stamps)), focus)
        else:
            # Two writes in one stack state, each replacing the target's
            # stamp: the first stamp is freed unless the memo still holds
            # it, and CPython readily hands its id to the next tuple.
            for bump in (0, 1):
                target.creation_stamp = None
                target.creation_stamp = _shifted(analyzer.stack.entries, bump)
                analyzer.on_prop_write(None, target, "x", None, None)
                _assert_memo_matches_uncached(analyzer, target.creation_stamp, focus)


# --------------------------------------------------------------------------- lexer / interpreter
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False))
def test_number_literals_round_trip_through_lexer(value):
    literal = repr(abs(value))
    tokens = tokenize(literal)
    assert tokens[0].type is TokenType.NUMBER
    assert math.isclose(tokens[0].value, abs(value), rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(["+", "-", "*"]),
)
@settings(max_examples=60, deadline=None)
def test_interpreter_integer_arithmetic_matches_python(a, b, op):
    result = Interpreter().run_source(f"({a}) {op} ({b});")
    assert result == float(eval(f"({a}) {op} ({b})"))


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=20))
@settings(max_examples=40, deadline=None)
def test_guest_array_reduce_matches_python_sum(values):
    literal = "[" + ", ".join(str(v) for v in values) + "]"
    result = Interpreter().run_source(
        f"{literal}.reduce(function(a, b) {{ return a + b; }}, 0);"
    )
    assert result == float(sum(values))


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127), max_size=12))
@settings(max_examples=60, deadline=None)
def test_guest_string_literals_round_trip(text):
    result = Interpreter().run_source(f'"{text}";')
    assert result == text


# --------------------------------------------------------------------------- binary trace codec
@st.composite
def _well_formed_traces(draw):
    """Random multi-chunk-sized traces whose every intern index is in range.

    Clock stamps mix non-round floats with ints, and the free operand slot
    (loop iteration/trip count, branch outcome) mixes ints with bools, so
    the codec's JSON fallback columns run alongside the typed ones.
    """
    strings = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6))
    string_index = st.integers(0, len(strings) - 1)
    nodes = draw(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 500), string_index).map(list),
            min_size=1,
            max_size=6,
        )
    )
    objects = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                string_index,
                st.integers(-1, 10**6),
                st.integers(-1, len(strings) - 1),
            ).map(list),
            min_size=1,
            max_size=6,
        )
    )
    env_count = draw(st.integers(1, 5))
    indexes = {
        "node": st.integers(-1, len(nodes) - 1),
        "obj": st.integers(0, len(objects) - 1),
        "env": st.integers(0, env_count - 1),
        "str": string_index,
    }
    clock = st.one_of(
        st.floats(0.0, 1e9, allow_nan=False).filter(lambda v: v != int(v)),
        st.integers(0, 10**9),
    )
    free = st.one_of(st.integers(-(2**40), 2**40), st.booleans())
    events = []
    for _ in range(draw(st.integers(0, 40))):
        opcode = draw(st.sampled_from(sorted(Trace._RECORD_LAYOUT)))
        arity, node_at, obj_at, env_at, string_at = Trace._RECORD_LAYOUT[opcode]
        record = [opcode, draw(clock)]
        for slot in range(2, arity):
            kind = (
                "node" if slot in node_at
                else "obj" if slot in obj_at
                else "env" if slot in env_at
                else "str" if slot in string_at
                else None
            )
            record.append(draw(indexes[kind] if kind else free))
        events.append(tuple(record))
    return Trace(
        mask=draw(st.integers(0, 511)),
        workload=draw(st.text(max_size=8)),
        fingerprint="fp-property",
        start_ms=0.0,
        end_ms=draw(st.floats(0.0, 1e6, allow_nan=False)),
        strings=strings,
        nodes=nodes,
        objects=objects,
        env_count=env_count,
        events=events,
    )


@given(_well_formed_traces(), st.integers(min_value=1, max_value=6))
@settings(max_examples=80, deadline=None)
def test_binary_round_trip_re_derives_the_header_digest(trace, chunk_events):
    # load() adopts the header digest once the footer hash passes, so this
    # property is what pins that the codec loses no value on the way.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "property.trace.bin")
        write_binary_trace(trace, path, chunk_events=chunk_events)
        source = BinaryTraceSource(path)
        try:
            loaded = source.load()
        finally:
            source.close()
    loaded._digest_cache = None
    assert loaded.digest() == source.digest()


#: Values that compare equal in Python but are different trace content.
_LOOKALIKES = ((1, True, 1.0), (0, False, 0.0, -0.0))


@given(_well_formed_traces(), st.sampled_from(_LOOKALIKES), st.booleans())
@settings(max_examples=40, deadline=None)
def test_digest_tells_equal_comparing_values_apart(trace, values, in_clock_slot):
    digests = set()
    for value in values:
        if in_clock_slot:
            record = (TR_STATEMENT, value, -1)
        else:
            record = (TR_LOOP_ITER, 0.5, -1, value)
        digests.add(replace(trace, events=trace.events + [record]).digest())
    assert len(digests) == len(values)
    # Container types are not content: list-shaped records and table rows
    # hash like the tuples a recorder emits.
    as_lists = replace(trace, events=[list(record) for record in trace.events])
    as_tuples = replace(trace, nodes=[tuple(row) for row in trace.nodes])
    assert as_lists.digest() == as_tuples.digest() == replace(trace).digest()
