"""The repo-specific invariant rules.

Each rule encodes one contract the reproduction's trustworthiness rests
on — determinism (seeded RNG flow), failure routing (no silent
excepts), and the typed-event protocol (frozen records, every event
known to every consumer).  Rules are
pure AST analyses over a :class:`~repro.lint.project.Project`; none of
them import or execute the code under check.

Two families coexist here:

* **syntactic rules** walk the AST of each module directly
  (``no-global-rng``, ``no-wall-clock``, ...);
* **flow rules** reason about *paths* on the intraprocedural CFGs of
  :mod:`repro.lint.cfg` with the dataflow analyses of
  :mod:`repro.lint.flow` (``rng-taint``, ``obs-pickle-boundary``,
  ``journal-order``) — a violation is a provable path, not a missing
  keyword nearby.

The catalog (rule id → contract) is documented for humans in
``docs/static-analysis.md``; the ``protocol-drift`` rule fails the
build when the two fall out of sync.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .cfg import CFGNode, build_cfg, iter_scopes, shallow_walk
from .findings import Finding, Rule
from .flow import expr_is_tainted, propagate_taint
from .project import Module, Project

__all__ = [
    "DEFAULT_RULES",
    "FrozenRecords",
    "JournalOrder",
    "NoGlobalRng",
    "NoSilentExcept",
    "NoWallClock",
    "ObsPickleBoundary",
    "ProtocolDrift",
    "RngTaint",
    "UnboundedQueue",
]

#: the protocol modules whose dataclasses are wire/event records
EVENTS_MODULE = "src/repro/api/events.py"
RESILIENCE_MODULE = "src/repro/core/resilience.py"
CLI_MODULE = "src/repro/cli.py"
WIRE_MODULE = "src/repro/service/wire.py"
#: the telemetry clock — the only other legitimate monotonic reader
OBS_CLOCK_MODULE = "src/repro/obs/clock.py"
#: trace spans are protocol records too (journaled, rendered)
OBS_SPANS_MODULE = "src/repro/obs/spans.py"

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _finding(module: Module, node: ast.AST, rule_id: str,
             message: str) -> Iterator[Finding]:
    """Yield one finding unless an inline suppression covers it."""
    line = getattr(node, "lineno", 1)
    if not module.suppressed(line, rule_id):
        yield Finding(path=module.relpath, line=line, rule=rule_id,
                      message=message)


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    return {a.arg for a in
            (*args.posonlyargs, *args.args, *args.kwonlyargs)}


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (target.attr if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass: frozen defaults to False
    return any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True for kw in decorator.keywords)


class NoGlobalRng:
    """All randomness must flow through explicitly seeded generators.

    Module-state numpy RNG (``np.random.rand`` and friends, including
    ``np.random.seed``), the stdlib ``random`` module, and argless
    ``default_rng()`` all read or mutate hidden global state, which
    breaks the bit-identical campaign contract the moment execution
    order changes (pool executors, resumed journals).
    """

    rule_id = "no-global-rng"
    summary = ("ban np.random module-state calls, stdlib random, and "
               "argless default_rng()")
    #: shared test fixtures may centralize seeding helpers
    allowed_paths = frozenset({"tests/conftest.py"})
    #: numpy.random attributes that construct explicit, seedable state
    _constructors = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    })

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.relpath in self.allowed_paths:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                canonical = module.resolve(node.func)
                if canonical is None:
                    continue
                if canonical.startswith("random."):
                    yield from _finding(
                        module, node, self.rule_id,
                        f"stdlib {canonical}() uses hidden global RNG "
                        "state; thread a seeded np.random.Generator "
                        "instead")
                elif canonical == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        yield from _finding(
                            module, node, self.rule_id,
                            "argless default_rng() is entropy-seeded and "
                            "unreproducible; pass an explicit seed")
                elif (canonical.startswith("numpy.random.")
                      and canonical.rpartition(".")[2]
                      not in self._constructors):
                    tail = canonical.removeprefix("numpy.")
                    yield from _finding(
                        module, node, self.rule_id,
                        f"{tail}() uses numpy's global RNG state; use a "
                        "seeded np.random.Generator method instead")


class NoWallClock:
    """Deterministic paths must not read the wall clock.

    ``time.time``/``datetime.now`` values leak into results and make
    reruns differ; ``time.monotonic`` is allow-listed in exactly two
    places — the supervision layer (timeouts, stall watchdogs in
    ``core/resilience.py``) and the telemetry clock
    (``obs/clock.py``'s ``SystemClock``, behind the swappable
    :class:`~repro.obs.clock.Clock` abstraction so instrumented runs
    stay replayable under a ``FakeClock``).
    """

    rule_id = "no-wall-clock"
    summary = ("ban time.time/datetime.now everywhere; time.monotonic "
               "outside core/resilience.py and obs/clock.py")
    _banned = frozenset({
        "time.time", "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })
    _monotonic = frozenset({"time.monotonic", "time.monotonic_ns"})
    monotonic_paths = frozenset({RESILIENCE_MODULE, OBS_CLOCK_MODULE})

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                canonical = module.resolve(node.func)
                if canonical in self._banned:
                    yield from _finding(
                        module, node, self.rule_id,
                        f"{canonical}() reads the wall clock in a "
                        "deterministic path; results must be a pure "
                        "function of seeds and inputs")
                elif (canonical in self._monotonic
                      and module.relpath not in self.monotonic_paths):
                    yield from _finding(
                        module, node, self.rule_id,
                        f"{canonical}() is reserved for the supervision "
                        "layer (core/resilience.py) and the telemetry "
                        "clock (obs/clock.py); deterministic code must "
                        "not branch on elapsed time")


def _called_name(call: ast.Call) -> str | None:
    """The bare name a call invokes (``f(...)`` -> ``f``,
    ``o.m(...)`` -> ``m``)."""
    callee = call.func
    return (callee.attr if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name) else None)


class NoSilentExcept:
    """Broad exception handlers must route somewhere observable.

    A bare ``except:`` or ``except Exception:`` whose body is only
    ``pass`` swallows executor failures that the typed-event protocol
    (RunWarning, JobRetried/JobQuarantined) exists to surface.
    Narrow handlers (``except OSError: pass``) stay legal — they
    document exactly what is being ignored.
    """

    rule_id = "no-silent-except"
    summary = "bare/except-Exception handlers must not silently pass"
    _broad = frozenset({"Exception", "BaseException"})

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not self._is_broad(node.type):
                    continue
                if not self._is_silent(node.body):
                    continue
                caught = ("bare except" if node.type is None
                          else f"except {ast.unparse(node.type)}")
                yield from _finding(
                    module, node, self.rule_id,
                    f"{caught}: pass swallows failures silently; narrow "
                    "the exception type or route it through "
                    "on_warning/logging")

    def _is_broad(self, node: ast.expr | None) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        return name in self._broad

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        return all(isinstance(stmt, ast.Pass)
                   or (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Constant))
                   for stmt in body)


class FrozenRecords:
    """Event/record dataclasses must be immutable.

    ``api/events.py``, ``core/resilience.py``, and ``obs/spans.py``
    define the typed records consumers dispatch on; a mutable record
    could change under a subscriber mid-stream (or after a trace sink
    journaled it).  Every dataclass in those modules must be declared
    ``frozen=True``.
    """

    rule_id = "frozen-records"
    summary = ("dataclasses in api/events.py, core/resilience.py, and "
               "obs/spans.py must be frozen=True")
    record_modules = frozenset({EVENTS_MODULE, RESILIENCE_MODULE,
                                OBS_SPANS_MODULE})

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.relpath not in self.record_modules:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                decorator = _dataclass_decorator(node)
                if decorator is None or _is_frozen(decorator):
                    continue
                yield from _finding(
                    module, node, self.rule_id,
                    f"dataclass {node.name} is a protocol record and "
                    "must be @dataclass(frozen=True); consumers rely on "
                    "records never mutating mid-stream")


def _run_event_classes(module: Module) -> dict[str, ast.ClassDef]:
    """RunEvent subclasses defined in ``module`` (transitively, by local
    base name)."""
    event_names = {"RunEvent"}
    found: dict[str, ast.ClassDef] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases
                 if isinstance(base, ast.Name)}
        if bases & event_names:
            event_names.add(node.name)
            found[node.name] = node
    return found


def _imported_from_resilience(module: Module) -> set[str]:
    """Names ``module`` imports from ``core/resilience.py`` (by a
    relative or absolute ``from ... import``)."""
    names: set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").endswith("core.resilience"):
            names.update(alias.name for alias in node.names)
    return names


def _isinstance_targets(module: Module) -> set[str]:
    """Class names checked via ``isinstance(x, T)`` anywhere in the
    module (tuple second arguments included)."""
    targets: set[str] = set()
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2):
            continue
        spec = node.args[1]
        elements = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for element in elements:
            if isinstance(element, ast.Name):
                targets.add(element.id)
            elif isinstance(element, ast.Attribute):
                targets.add(element.attr)
    return targets


class UnboundedQueue:
    """Service-side queues must be bounded.

    The campaign service is a long-lived server: an
    ``asyncio.Queue()`` / ``queue.Queue()`` constructed without a
    ``maxsize`` inside ``src/repro/service/`` grows without limit under
    a fast producer, turning client pressure into server memory
    exhaustion instead of an explicit 503.  Admission control
    (:class:`repro.service.queue.JobQueue`'s bounded buffer) is the
    contract; every queue there must declare its bound.  Other layers
    (e.g. the finite event relay in ``api/handle.py``) drain a known
    number of items and stay exempt.
    """

    rule_id = "no-unbounded-queue"
    summary = ("queue constructors in src/repro/service/ must pass an "
               "explicit maxsize bound")
    service_prefix = "src/repro/service/"
    _queue_types = frozenset({
        "asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue",
        "asyncio.queues.Queue",
        "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
        "queue.SimpleQueue",
        "multiprocessing.Queue", "multiprocessing.SimpleQueue",
    })

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.relpath.startswith(self.service_prefix):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                canonical = module.resolve(node.func)
                if canonical not in self._queue_types:
                    continue
                if self._bounded(node):
                    continue
                yield from _finding(
                    module, node, self.rule_id,
                    f"{canonical}() without maxsize is unbounded; a "
                    "long-lived server must refuse work explicitly "
                    "(bounded queue -> 503) instead of buffering until "
                    "memory runs out")

    @staticmethod
    def _bounded(node: ast.Call) -> bool:
        """True when a positive bound is passed (positionally or as
        ``maxsize=``).  A literal ``0``/``None`` bound — queue-speak for
        "infinite" — counts as unbounded."""
        candidates = list(node.args[:1]) + [kw.value for kw in node.keywords
                                            if kw.arg == "maxsize"]
        if not candidates:
            return False
        bound = candidates[0]
        if isinstance(bound, ast.Constant) and bound.value in (0, None):
            return False
        return True


class RngTaint:
    """Caller-provided randomness must taint every generator built.

    Flow-sensitive successor of the old ``seed-threading`` rule: in a
    public ``src/`` function taking an ``rng``/``seed`` parameter, the
    dataflow from that parameter (via :func:`propagate_taint`) must
    reach the arguments of every ``default_rng``/``Generator``
    construction in the function.  A generator built from values with
    no path back to the caller's seed forks an independent stream —
    exactly the nondeterminism the paper's bit-identical campaigns
    cannot absorb.  Unlike the grep-shaped predecessor this follows the
    seed through intermediate assignments (``s = seed + i``) and kills
    the taint when a name is reassigned from a clean value.
    """

    rule_id = "rng-taint"
    summary = ("in public src/ functions, rng/seed parameters must "
               "taint every generator construction")
    _constructors = frozenset({"numpy.random.default_rng",
                               "numpy.random.Generator"})
    _seed_params = frozenset({"rng", "seed"})

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.relpath.startswith("src/"):
                continue
            for scope in iter_scopes(module.tree):
                if not isinstance(scope, _FUNCTION_NODES):
                    continue
                if scope.name.startswith("_"):
                    continue
                seeds = self._seed_params & _param_names(scope)
                if not seeds:
                    continue
                yield from self._check_function(module, scope,
                                                frozenset(seeds))

    def _check_function(self, module: Module,
                        function: ast.FunctionDef | ast.AsyncFunctionDef,
                        seeds: frozenset[str]) -> Iterator[Finding]:
        cfg = build_cfg(function)
        calls = [
            (node, leaf) for node in cfg.nodes
            for code in node.code for leaf in shallow_walk(code)
            if isinstance(leaf, ast.Call)
            and module.resolve(leaf.func) in self._constructors]
        if not calls:
            return
        tainted = propagate_taint(cfg, seeds)
        for node, call in calls:
            arg_exprs = [*call.args, *(kw.value for kw in call.keywords)]
            if not arg_exprs:
                yield from _finding(
                    module, call, self.rule_id,
                    f"{function.name}() takes {'/'.join(sorted(seeds))} "
                    "but constructs an unseeded generator; the caller's "
                    "stream never reaches it")
                continue
            state = tainted[node.index] | seeds
            if not any(expr_is_tainted(expr, state) for expr in arg_exprs):
                yield from _finding(
                    module, call, self.rule_id,
                    f"{function.name}() takes "
                    f"{'/'.join(sorted(seeds))} but no dataflow from it "
                    "reaches this generator construction; the stream "
                    "forks independently of the caller's seed")


class ObsPickleBoundary:
    """Observability objects must never cross a pickle boundary.

    Tracers, metrics registries, and ``Observability`` bundles hold
    locks, file handles, and callbacks — pickling one into an executor
    payload either crashes the pool or silently forks the telemetry
    state.  This rule taints every value whose def-chain includes a
    ``Tracer``/``MetricsRegistry``/``Observability`` construction (or a
    parameter named/annotated as one) and flags any tainted value in
    the *payload* arguments of ``apply_async``/``submit``/``imap*``, or
    of a pipe's ``send``, which carries the pool's jobs and results.
    Callbacks (``callback=``/``error_callback=``) run parent-side and
    stay exempt.
    """

    rule_id = "obs-pickle-boundary"
    summary = ("no Tracer/MetricsRegistry/Observability value may flow "
               "into executor submit or pipe send payloads")
    _submit_names = frozenset({
        "apply_async", "apply", "submit", "imap", "imap_unordered",
        "map_async", "starmap", "starmap_async", "send",
    })
    _obs_types = frozenset({"Tracer", "MetricsRegistry", "Observability"})
    _obs_factories = frozenset({"get_registry"})
    _parent_side_kwargs = frozenset({"callback", "error_callback"})

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.relpath.startswith("src/"):
                continue
            for scope in iter_scopes(module.tree):
                if not isinstance(scope, _FUNCTION_NODES):
                    continue
                if not any(isinstance(leaf, ast.Call)
                           and isinstance(leaf.func, ast.Attribute)
                           and leaf.func.attr in self._submit_names
                           for stmt in scope.body
                           for leaf in shallow_walk(stmt)):
                    continue
                yield from self._check_function(module, scope)

    def _is_source(self, module: Module, leaf: ast.AST) -> bool:
        if not isinstance(leaf, ast.Call):
            return False
        canonical = module.resolve(leaf.func)
        if canonical is not None:
            tail = canonical.rpartition(".")[2]
            return tail in self._obs_types | self._obs_factories
        called = _called_name(leaf)
        return called in self._obs_types | self._obs_factories

    def _tainted_params(self, function: ast.FunctionDef
                        | ast.AsyncFunctionDef) -> frozenset[str]:
        names: set[str] = set()
        args = function.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("obs", "tracer", "metrics", "observability"):
                names.add(arg.arg)
                continue
            annotation = arg.annotation
            if annotation is not None and any(
                    isinstance(leaf, ast.Name) and leaf.id in self._obs_types
                    or isinstance(leaf, ast.Attribute)
                    and leaf.attr in self._obs_types
                    for leaf in ast.walk(annotation)):
                names.add(arg.arg)
        return frozenset(names)

    def _check_function(self, module: Module,
                        function: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> Iterator[Finding]:
        cfg = build_cfg(function)
        tainted = propagate_taint(
            cfg, self._tainted_params(function),
            lambda leaf: self._is_source(module, leaf))
        for node in cfg.nodes:
            for code in node.code:
                for leaf in shallow_walk(code):
                    if not (isinstance(leaf, ast.Call)
                            and isinstance(leaf.func, ast.Attribute)
                            and leaf.func.attr in self._submit_names):
                        continue
                    state = tainted[node.index]
                    for expr in self._payload_args(leaf):
                        if expr_is_tainted(
                                expr, state,
                                lambda sub: self._is_source(module, sub)):
                            yield from _finding(
                                module, expr, self.rule_id,
                                "observability object (Tracer/Metrics"
                                "Registry/Observability def-chain) flows "
                                f"into .{leaf.func.attr}() payload; it "
                                "cannot cross the pickle boundary into a "
                                "worker process")

    def _payload_args(self, call: ast.Call) -> Iterator[ast.expr]:
        yield from call.args
        for kw in call.keywords:
            if kw.arg not in self._parent_side_kwargs:
                yield kw.value


class JournalOrder:
    """Record-before-progress: the store write must dominate the
    publish.

    In the service worker loop (``service/queue.py``), a job result
    must be durably recorded (``save_result``) before the
    state-transition event that announces completion is published —
    otherwise a crash between publish and write leaves watchers who saw
    ``DONE`` fetching a result that does not exist.  The CFG proof
    obligation: every ``transition(... DONE ...)`` call node must be
    *dominated* by a ``save_result`` call node, so no execution path
    reaches the announcement without passing the write.
    """

    rule_id = "journal-order"
    summary = ("in service/queue.py workers, save_result must dominate "
               "the DONE transition/publish")
    worker_paths = ("src/repro/service/queue.py",)
    _store_calls = frozenset({"save_result"})
    _publish_calls = frozenset({"transition"})

    def check(self, project: Project) -> Iterable[Finding]:
        for path in self.worker_paths:
            module = project.get(path)
            if module is None:
                continue
            for scope in iter_scopes(module.tree):
                if not isinstance(scope, _FUNCTION_NODES):
                    continue
                yield from self._check_function(module, scope)

    def _check_function(self, module: Module,
                        function: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> Iterator[Finding]:
        cfg = build_cfg(function)
        stores: set[int] = set()
        publishes: list[tuple[CFGNode, ast.Call]] = []
        for node in cfg.nodes:
            for code in node.code:
                for leaf in shallow_walk(code):
                    if not isinstance(leaf, ast.Call):
                        continue
                    called = _called_name(leaf)
                    if called in self._store_calls:
                        stores.add(node.index)
                    elif called in self._publish_calls \
                            and self._announces_done(leaf):
                        publishes.append((node, leaf))
        if not publishes:
            return
        dom = cfg.dominators()
        for node, call in publishes:
            if not stores & dom[node.index]:
                yield from _finding(
                    module, call, self.rule_id,
                    f"{function.name}() publishes a DONE transition "
                    "that is not dominated by a save_result() store "
                    "write; a crash after this publish would announce a "
                    "result that was never recorded")

    @staticmethod
    def _announces_done(call: ast.Call) -> bool:
        return any(isinstance(leaf, ast.Attribute) and leaf.attr == "DONE"
                   for arg in (*call.args,
                               *(kw.value for kw in call.keywords))
                   for leaf in ast.walk(arg))


class ProtocolDrift:
    """Every RunEvent must exist consistently across all four layers.

    The event vocabulary is the ``RunEvent`` subclasses ``api/events.py``
    defines plus the engine records it imports from
    ``core/resilience.py`` (``RunWarning`` and the resilience events).
    Every ``RunEvent`` subclass ``core/resilience.py`` defines must be
    imported there: an engine record outside the vocabulary is one the
    wire refuses to encode and the CLI drops.  The vocabulary is
    consumed three more times: the wire codec's ``EVENT_TYPES``
    registry (``service/wire.py``), the CLI renderer's ``isinstance``
    dispatch (``cli.py``), and the human-facing catalogs
    (``docs/api.md`` events table, ``docs/static-analysis.md`` rule
    catalog).  A subclass missing from any layer is protocol drift: the
    wire silently drops it, the CLI swallows it, or the docs lie.  This
    rule reads all four layers and fails on any asymmetry —
    including the reverse direction (a wire entry for an event that no
    longer exists).  Docs layers are read from ``project.root`` and
    skipped when absent, so fixture trees without docs stay checkable.
    """

    rule_id = "protocol-drift"
    summary = ("RunEvent subclasses must agree across events.py (with "
               "the engine records it imports), wire.py EVENT_TYPES, "
               "the CLI renderer, and the docs catalogs")
    docs_api = "docs/api.md"
    docs_lint = "docs/static-analysis.md"

    def check(self, project: Project) -> Iterable[Finding]:
        events = project.get(EVENTS_MODULE)
        if events is None:
            return  # partial lint run without the protocol modules
        vocabulary: dict[str, tuple[Module, ast.ClassDef]] = {
            name: (events, node)
            for name, node in _run_event_classes(events).items()}
        imported = _imported_from_resilience(events)
        resilience = project.get(RESILIENCE_MODULE)
        if resilience is not None:
            for name, node in _run_event_classes(resilience).items():
                if name in imported:
                    vocabulary[name] = (resilience, node)
                    continue
                yield from _finding(
                    resilience, node, self.rule_id,
                    f"engine record {name} is not in api/events.py's "
                    "vocabulary; import it there, or the wire refuses to "
                    "encode it and the CLI drops it")
        yield from self._check_wire(project, vocabulary, imported)
        yield from self._check_cli(project, vocabulary)
        yield from self._check_docs(project, vocabulary)

    def _check_wire(self, project: Project,
                    vocabulary: dict[str, tuple[Module, ast.ClassDef]],
                    imported: set[str]) -> Iterator[Finding]:
        wire = project.get(WIRE_MODULE)
        if wire is None:
            return
        registered = self._event_types_keys(wire)
        if registered is None:
            yield Finding(
                path=wire.relpath, line=1, rule=self.rule_id,
                message="service/wire.py has no parseable EVENT_TYPES "
                        "registry; the wire codec cannot be checked "
                        "against the event vocabulary")
            return
        names, node = registered
        for name, (module, cls) in vocabulary.items():
            if name not in names:
                yield from _finding(
                    module, cls, self.rule_id,
                    f"event {name} is missing from service/wire.py's "
                    "EVENT_TYPES registry; the wire codec would drop it "
                    "on decode")
        # names imported from core/resilience.py count as known even when
        # a partial run leaves that module out
        for name in sorted(names - vocabulary.keys() - imported):
            yield from _finding(
                wire, node, self.rule_id,
                f"wire.py EVENT_TYPES registers {name}, which is not a "
                "RunEvent subclass in api/events.py; stale registry "
                "entry")

    def _check_cli(self, project: Project,
                   vocabulary: dict[str, tuple[Module, ast.ClassDef]]
                   ) -> Iterator[Finding]:
        cli = project.get(CLI_MODULE)
        if cli is None:
            return
        dispatched = _isinstance_targets(cli)
        for name, (module, cls) in vocabulary.items():
            if name not in dispatched:
                yield from _finding(
                    module, cls, self.rule_id,
                    f"event {name} has no isinstance dispatch branch in "
                    "cli.py's renderer; a run emitting it would be "
                    "silently dropped from the CLI")

    def _check_docs(self, project: Project,
                    vocabulary: dict[str, tuple[Module, ast.ClassDef]]
                    ) -> Iterator[Finding]:
        api_text = self._read_doc(project, self.docs_api)
        if api_text is not None:
            for name, (module, cls) in vocabulary.items():
                if name not in api_text:
                    yield from _finding(
                        module, cls, self.rule_id,
                        f"event {name} is not documented in "
                        f"{self.docs_api}'s event catalog; the public "
                        "protocol docs have drifted")
        lint_text = self._read_doc(project, self.docs_lint)
        if lint_text is not None:
            for rule in DEFAULT_RULES:
                if f"`{rule.rule_id}`" not in lint_text:
                    yield Finding(
                        path=self.docs_lint, line=1, rule=self.rule_id,
                        message=f"rule {rule.rule_id} is not documented "
                                f"in {self.docs_lint}'s catalog; the "
                                "rule catalog has drifted")

    @staticmethod
    def _read_doc(project: Project, relpath: str) -> str | None:
        path = project.root / relpath
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None  # fixture trees ship no docs — skip the layer

    @staticmethod
    def _event_types_keys(module: Module) -> tuple[set[str],
                                                   ast.AST] | None:
        """Names registered in the ``EVENT_TYPES`` assignment: dict
        literal keys, or the classes enumerated by the PR 8 dict
        comprehension ``{cls.__name__: cls for cls in (...)}``."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if not any(isinstance(t, ast.Name) and t.id == "EVENT_TYPES"
                       for t in targets):
                continue
            value = node.value
            names: set[str] = set()
            if isinstance(value, ast.Dict):
                for key in value.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        names.add(key.value)
                    elif isinstance(key, ast.Attribute):
                        names.add(key.attr)
                    elif isinstance(key, ast.Name):
                        names.add(key.id)
                return names, node
            if isinstance(value, ast.DictComp) and value.generators:
                source = value.generators[0].iter
                elements = (source.elts
                            if isinstance(source, (ast.Tuple, ast.List))
                            else [])
                for element in elements:
                    if isinstance(element, ast.Attribute):
                        names.add(element.attr)
                    elif isinstance(element, ast.Name):
                        names.add(element.id)
                return names, node
        return None


DEFAULT_RULES: tuple[Rule, ...] = (
    NoGlobalRng(), NoWallClock(), NoSilentExcept(), FrozenRecords(),
    ProtocolDrift(), UnboundedQueue(), RngTaint(), ObsPickleBoundary(),
    JournalOrder(),
)
