"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _self(tree):
    """tree: list of (start, end, parent)."""
    start, end, parent = zip(*tree)
    return spans.self_times(start, end, parent)


def test_self_time_subtracts_children():
    assert _self([(0, 100, -1), (10, 30, 0), (40, 70, 0)]) == [50, 20, 30]


def test_self_time_counts_only_direct_children():
    assert _self([(0, 100, -1), (10, 30, 0), (15, 25, 1)]) == [80, 10, 10]


def test_self_time_covers_overlapping_children_once():
    assert _self([(0, 100, -1), (40, 60, 0), (10, 50, 0)]) == [50, 20, 40]


def test_self_time_clips_children_to_the_parent():
    assert _self([(0, 100, -1), (90, 120, 0)]) == [90, 30]


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 100)
    assert run.tail(list(range(10))) is None


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def _small_texts(seed):
    return [t for t in gen.decode_long(seed, []) if t.spec is None or len(t.spec.nodes) <= 600]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_strings_parse_strictly_to_their_graphs(program, seed):
    mods, _ = program
    valid = [t for t in _small_texts(seed) if t.spec is not None]
    assert {"(raw-1)" in t.text for t in valid} == {True, False}  # both renderings
    for t in valid:
        graph, diags = mods.parse.parse(t.text, strict=True)
        assert graph is not None, (t.key, [d.code for d in diags.errors()])
        assert workloads.graph_key(graph) == t.spec.key(), t.key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_truncations_fail_with_the_expected_code(program, seed):
    mods, _ = program
    for t in _small_texts(seed):
        if t.spec is None:
            graph, diags = mods.parse.parse(t.text, strict=True)
            assert graph is None and diags.errors()[0].code == t.code, t.key


def test_inputs_depend_only_on_the_seed():
    assert gen.plants(7, 50, 10) == gen.plants(7, 50, 10)
    assert gen.scaled(7) == gen.scaled(7)
    assert gen.decode_long(7, []) == gen.decode_long(7, [])
    assert gen.plants(7, 50, 10) != gen.plants(8, 50, 10)


def test_plants_stay_in_their_size_range():
    sizes = [len(gen.plant(random.Random(i)).nodes) for i in range(300)]
    assert min(sizes) >= 3 and max(sizes) <= 15
    assert 5 <= sum(sizes) / len(sizes) <= 9


def test_ring_check_accepts_renumbered_loops_and_rejects_others(program):
    mods, _ = program
    rng = random.Random(0)
    loop = gen.exchanger_loop(8)
    assert workloads.ring_problem(mods.build(gen.renumber(loop.spec, rng)), 8) is None
    broken = gen.Spec(loop.spec.nodes, [e for e in loop.spec.edges if e[:2] != ("hex-1", "hex-2")])
    assert workloads.ring_problem(mods.build(broken), 8) is not None
    assert workloads.ring_problem(mods.build(loop.spec), 10) is not None


def _originals():
    out = {}
    for module, attr, _name, _counter in spans.POINTS:
        owner, last = spans._resolve(module, attr)
        out[(module, attr)] = (owner, last, vars(owner)[last])
    return out


def test_traced_run_restores_every_wrapped_attribute(program, tmp_path):
    mods, corpus = program
    before = _originals()
    tally = workloads.Tally()
    w = workloads.Plants(mods, tally, tmp_path, seed=1, corpus=corpus, count=5)
    tracer = spans.Tracer()
    w.tracer = tracer
    with spans.wrapped(tracer) as installed:
        assert all(vars(o)[a] is not f for o, a, f in before.values())
        w.run_pass()
    assert installed == {name for _m, _a, name, _c in spans.POINTS}
    assert tally.failed == 0, tally.problems
    assert len(tracer) > 0
    for owner, last, original in before.values():
        assert vars(owner)[last] is original


def test_wrappers_are_restored_after_an_exception(program):
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.wrapped(spans.Tracer()):
            raise RuntimeError("boom")
    for owner, last, original in before.values():
        assert vars(owner)[last] is original


def test_spans_record_parents_and_operations(program):
    mods, _ = program
    tracer = spans.Tracer()
    with spans.wrapped(tracer):
        mods.parse.parse("(raw)(v)(prod)")  # outside an operation: not recorded
        with tracer.operation("parse"):
            mods.parse.parse("(raw)(v)(prod)")
    names = [tracer.names[i] for i in tracer.name]
    assert names[:3] == ["bench.parse", "parse.parse", "parse.tokenize"]
    assert list(tracer.parent[:3]) == [-1, 0, 1]
    assert set(tracer.op) == {1}
    assert names.count("model.add_node") == 3
