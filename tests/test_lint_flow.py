"""Path semantics of the flow-sensitive lint layer.

Covers the CFG builder (exceptional edges, try/finally routing,
dominators), the dataflow analyses (reaching definitions, use-def,
taint with strong-update kills), and the acceptance fixtures of the
flow rules: rng taint follows intermediate assignments and dies on
reassignment; observability objects are stopped at the pickle
boundary; and the journal-order dominance proof holds on the real
service worker.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import (JournalOrder, ObsPickleBoundary, RngTaint,
                        build_cfg, run_lint)
from repro.lint.cfg import iter_scopes
from repro.lint.flow import (ENTRY_DEF, propagate_taint,
                             reaching_definitions, use_def)
from repro.lint.rules import DEFAULT_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]


def fn_cfg(source):
    """CFG of the first function in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    function = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef))
    return build_cfg(function)


def node_at(cfg, line):
    """The CFG node whose statement starts at ``line``."""
    for node in cfg.nodes:
        if node.stmt is not None and getattr(node.stmt, "lineno", None) == line:
            return node
    raise AssertionError(f"no node at line {line}")


def lint_tree(tmp_path, files, rules):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], root=tmp_path, rules=rules).findings


# -- CFG construction ------------------------------------------------------

def test_cfg_simple_calls_carry_exceptional_edges():
    cfg = fn_cfg("""\
        def f():
            a = make()
            release(a)
        """)
    assert cfg.exit in node_at(cfg, 2).exc
    assert cfg.exit in node_at(cfg, 3).exc
    # the normal chain still runs entry -> a -> release -> exit
    assert node_at(cfg, 3).index in node_at(cfg, 2).succ


def test_cfg_if_without_else_falls_through():
    cfg = fn_cfg("""\
        def f(x):
            if x:
                work()
            done()
        """)
    header = node_at(cfg, 2)
    body = node_at(cfg, 3)
    after = node_at(cfg, 4)
    assert body.index in header.succ
    assert after.index in header.succ  # the implicit else edge
    assert after.index in body.succ


def test_cfg_return_routes_through_finally_and_dominates_exit():
    cfg = fn_cfg("""\
        def f():
            try:
                return work()
            finally:
                cleanup()
        """)
    ret = node_at(cfg, 3)
    cleanup = node_at(cfg, 5)
    # the return does not jump straight to exit — the finally intervenes
    assert cfg.exit not in ret.succ
    assert cfg.exit in cleanup.succ
    # ...and therefore cleanup() lies on every path to the exit
    assert cleanup.index in cfg.dominators()[cfg.exit]


def test_cfg_raise_inside_try_reaches_handler():
    cfg = fn_cfg("""\
        def f():
            try:
                raise ValueError("boom")
            except ValueError:
                recover()
            done()
        """)
    recover = node_at(cfg, 5)
    done = node_at(cfg, 6)
    assert done.index in recover.succ
    # the raise can reach recover() (via the dispatch node)
    reached = cfg.reachable_without(node_at(cfg, 3).index, frozenset())
    assert recover.index in reached


def test_cfg_loop_has_back_edge_and_break_exits():
    cfg = fn_cfg("""\
        def f(xs):
            for x in xs:
                if x:
                    break
                work(x)
            done()
        """)
    header = node_at(cfg, 2)
    work = node_at(cfg, 5)
    done = node_at(cfg, 6)
    assert header.index in work.succ          # back edge
    brk = node_at(cfg, 4)
    assert done.index in brk.succ             # break jumps past orelse
    assert done.index in header.succ          # normal exhaustion


def test_cfg_exception_in_finally_propagates_outward():
    cfg = fn_cfg("""\
        def f():
            try:
                work()
            finally:
                cleanup()
        """)
    cleanup = node_at(cfg, 5)
    # cleanup() itself raising goes to the function exit, not back
    # into the finally
    assert cfg.exit in cleanup.exc


# -- dataflow --------------------------------------------------------------

def test_reaching_definitions_and_use_def():
    cfg = fn_cfg("""\
        def f(x):
            y = 1
            if x:
                y = 2
            return use(y)
        """)
    ret = node_at(cfg, 5)
    chains = use_def(cfg, params=frozenset({"x"}))
    sites = chains[(ret.index, "y")]
    assert sites == {node_at(cfg, 2).index, node_at(cfg, 4).index}
    reaching = reaching_definitions(cfg, params=frozenset({"x"}))
    assert reaching[ret.index]["x"] == {ENTRY_DEF}


def test_taint_propagates_through_assignment_and_is_killed():
    cfg = fn_cfg("""\
        def f(seed):
            s = seed + 1
            g = make(s)
            s = 0
            h = make(s)
        """)
    tainted = propagate_taint(cfg, seeds=frozenset({"seed"}))
    assert "s" in tainted[node_at(cfg, 3).index]      # derived from seed
    assert "s" not in tainted[node_at(cfg, 5).index]  # strong update kill
    assert "seed" in tainted[node_at(cfg, 5).index]   # params stay tainted


def test_taint_merges_over_branches():
    cfg = fn_cfg("""\
        def f(seed, flag):
            if flag:
                s = seed
            else:
                s = 0
            g = make(s)
        """)
    # some path carries the taint, so the may-analysis keeps it
    assert "s" in propagate_taint(
        cfg, seeds=frozenset({"seed"}))[node_at(cfg, 6).index]


# -- retired rules -------------------------------------------------------

def test_old_syntactic_shm_rule_is_retired():
    import repro.lint.rules as rules

    assert not hasattr(rules, "ShmLifecycle")
    assert not hasattr(rules, "SeedThreading")
    # its flow successor is retired too: src/ creates no SharedMemory
    assert not hasattr(rules, "ShmLeakPath")
    ids = [rule.rule_id for rule in DEFAULT_RULES]
    assert "shm-lifecycle" not in ids and "seed-threading" not in ids
    assert "shm-leak-path" not in ids and "rng-taint" in ids


# -- rng-taint flow semantics ----------------------------------------------

def test_rng_taint_follows_intermediate_assignment(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def sample(seed, i):
                s = seed + i
                return np.random.default_rng(s).normal()
            """,
    }, rules=[RngTaint()])
    assert findings == []


def test_rng_taint_kill_makes_the_fork_visible(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def sample(seed, i):
                s = seed + i
                s = 7
                return np.random.default_rng(s).normal()
            """,
    }, rules=[RngTaint()])
    assert [f.rule for f in findings] == ["rng-taint"]


def test_rng_taint_argless_generator_is_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def sample(rng):
                return np.random.default_rng().normal()
            """,
    }, rules=[RngTaint()])
    assert [f.rule for f in findings] == ["rng-taint"]


# -- obs-pickle-boundary ---------------------------------------------------

def test_obs_object_in_submit_payload_is_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            from repro.obs import Tracer

            def run(pool, xs):
                tracer = Tracer()
                return pool.apply_async(work, (xs, tracer))
            """,
    }, rules=[ObsPickleBoundary()])
    assert [f.rule for f in findings] == ["obs-pickle-boundary"]


def test_obs_param_flows_into_payload(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def run(pool, xs, obs):
                payload = (xs, obs)
                return pool.submit(work, payload)
            """,
    }, rules=[ObsPickleBoundary()])
    assert [f.rule for f in findings] == ["obs-pickle-boundary"]


def test_obs_callback_kwarg_is_parent_side_and_exempt(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def run(pool, xs, obs):
                return pool.apply_async(work, (xs,),
                                        callback=obs.on_done)
            """,
    }, rules=[ObsPickleBoundary()])
    assert findings == []


def test_obs_taint_killed_by_reassignment(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            from repro.obs import Tracer

            def run(pool, xs):
                tracer = Tracer()
                summary = tracer.summary()
                tracer = None
                return pool.apply_async(work, (xs, tracer, summary))
            """,
    }, rules=[ObsPickleBoundary()])
    # tracer was cleared before the submit... but summary derives from
    # it, so the def-chain still reaches the payload
    assert [f.rule for f in findings] == ["obs-pickle-boundary"]


def test_obs_object_sent_down_a_pipe_is_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            from repro.obs import Tracer

            def dispatch(conn, job):
                tracer = Tracer()
                conn.send(job)
                conn.send((job, tracer))
            """,
    }, rules=[ObsPickleBoundary()])
    assert [(f.rule, f.line) for f in findings] == \
        [("obs-pickle-boundary", 6)]


def test_obs_rule_ignores_tests_tree(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/test_a.py": """\
            from repro.obs import Tracer

            def test_run(pool):
                tracer = Tracer()
                pool.apply_async(work, (tracer,))
            """,
    }, rules=[ObsPickleBoundary()])
    assert findings == []


# -- journal-order ---------------------------------------------------------

def test_journal_order_conditional_store_is_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/service/queue.py": """\
            def worker(store, job, result):
                if result.ok:
                    store.save_result(job.job_id, result)
                job.transition(JobState.DONE)
            """,
    }, rules=[JournalOrder()])
    assert [f.rule for f in findings] == ["journal-order"]
    assert "not dominated" in findings[0].message


def test_journal_order_store_dominating_publish_passes(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/service/queue.py": """\
            def worker(store, job, result):
                store.save_result(job.job_id, result)
                job.transition(JobState.DONE)

            def fail(store, job, error):
                job.transition(JobState.FAILED, error=str(error))
            """,
    }, rules=[JournalOrder()])
    # FAILED transitions carry no result and are out of scope
    assert findings == []


def test_journal_order_real_service_worker_is_clean():
    findings = run_lint(
        [REPO_ROOT / "src/repro/service/queue.py"],
        root=REPO_ROOT, rules=[JournalOrder()]).findings
    assert findings == []


# -- performance budget ----------------------------------------------------

def test_full_tree_lint_stays_inside_ci_budget():
    """The CI budget is 10s for the full tree; the CFG layer must not
    blow it up.  (Wall-clock flakes absorbed by a generous margin —
    CI re-measures with its own clock.)"""
    import time

    start = time.monotonic()  # repro: allow[no-wall-clock]
    result = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests"],
                      root=REPO_ROOT)
    elapsed = time.monotonic() - start  # repro: allow[no-wall-clock]
    assert result.files > 100
    assert elapsed < 30.0


def test_every_scope_in_the_tree_builds_a_cfg():
    """CFG construction must not crash on any real source shape."""
    total = 0
    for path in (REPO_ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in iter_scopes(tree):
            cfg = build_cfg(scope)
            total += len(cfg.nodes)
            preds = cfg.preds()
            assert not preds[cfg.entry]
            assert all(not cfg.nodes[cfg.exit].successors()
                       for _ in (0,))
    assert total > 5000
