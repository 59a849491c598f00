"""Call-graph resolution: self-methods, thread/pool edges, reachability."""

import textwrap

from repro.lint.flow.callgraph import EdgeKind, build_call_graph
from repro.lint.flow.symbols import build_symbol_table


def _graph(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return build_call_graph(build_symbol_table([path]))


def _dsts(graph, src, kind=None):
    kinds = {kind} if kind is not None else None
    return {e.dst for e in graph.successors(src, kinds)}


def test_self_method_calls_resolve_through_the_class(tmp_path):
    graph = _graph(
        tmp_path,
        """
        class Sim:
            def run(self):
                self._step()

            def _step(self):
                self._emit()

            def _emit(self):
                pass
        """,
    )
    assert _dsts(graph, "mod:Sim.run") == {"mod:Sim._step"}
    assert _dsts(graph, "mod:Sim._step") == {"mod:Sim._emit"}


def test_self_method_resolves_through_base_class(tmp_path):
    graph = _graph(
        tmp_path,
        """
        class Base:
            def helper(self):
                pass

        class Child(Base):
            def run(self):
                self.helper()
        """,
    )
    assert _dsts(graph, "mod:Child.run") == {"mod:Base.helper"}


def test_thread_target_is_a_reference_call_edge(tmp_path):
    graph = _graph(
        tmp_path,
        """
        import threading

        def work():
            pass

        def spawn():
            t = threading.Thread(target=work, daemon=True)
            t.start()
        """,
    )
    # a target= argument is a callback reference: a plain CALL edge
    assert _dsts(graph, "mod:spawn", EdgeKind.CALL) == {"mod:work"}


def test_pool_submit_and_map_record_pool_edges(tmp_path):
    graph = _graph(
        tmp_path,
        """
        def task(x):
            return x

        def fan(pool, xs):
            pool.submit(task, xs[0])
            pool.map(task, xs)
        """,
    )
    assert _dsts(graph, "mod:fan", EdgeKind.POOL) == {"mod:task"}
    assert {e.dst for e in graph.pool_dispatches} == {"mod:task"}


def test_callback_reference_counts_as_an_edge(tmp_path):
    graph = _graph(
        tmp_path,
        """
        def on_done(x):
            return x

        def schedule(events):
            events.append(on_done)
        """,
    )
    assert "mod:on_done" in _dsts(graph, "mod:schedule")


def test_nested_def_counts_as_potentially_running(tmp_path):
    graph = _graph(
        tmp_path,
        """
        def outer():
            def inner():
                leaf()
            return inner

        def leaf():
            pass
        """,
    )
    reach = graph.reachable(["mod:outer"])
    assert "mod:outer.<locals>.inner" in reach
    assert "mod:leaf" in reach


def test_constructor_call_binds_to_init(tmp_path):
    graph = _graph(
        tmp_path,
        """
        class Thing:
            def __init__(self):
                self.setup()

            def setup(self):
                pass

        def make():
            return Thing()
        """,
    )
    assert _dsts(graph, "mod:make") == {"mod:Thing.__init__"}
    assert "mod:Thing.setup" in graph.reachable(["mod:make"])


def test_chain_renders_root_to_target():
    from repro.lint.flow.callgraph import CallGraph

    parents = {"a": None, "b": "a", "c": "b"}
    assert CallGraph.chain(parents, "c") == ["a", "b", "c"]
