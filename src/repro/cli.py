"""Command-line interface to the FLIM platform.

Usage::

    python -m repro <command> [options]

Commands
--------
``run``           run any registered experiment (``repro.api``)
``list``          the experiment registry
``describe``      one experiment's parameters + an example invocation
``serve``         run the campaign service (async job server)
``submit``        queue an experiment on a running service
``status``        job records of a running service
``watch``         stream a job's events until it finishes
``fetch``         fetch and print a finished job's report
``cancel``        cancel a queued or running job
``trace``         render a journal's trace spans as a timeline
``report``        mapping report of a model (ops per crossbar, reuse)
``vectors``       generate an annotated fault-vector file for a model
``inspect``       print the contents of a fault-vector file
``scenarios``     scenario zoo listing (``list``; run one with
                  ``run <scenario-name>``)
``lint``          the repository's static invariant checker
``cost``          per-layer LIM energy/latency estimate of a model

Every experiment — the paper's figures and tables, the ad-hoc ``sweep``
and the scenario stories — runs through ``run <entry>``.

Exit codes are uniform across every subcommand:

* ``0`` — success;
* ``2`` — usage/validation error (unknown experiment, malformed
  ``--param`` or scenario spec, a journal that does not match the
  requested campaign, argparse usage errors);
* ``1`` — runtime failure inside a valid request.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import markdown_table
from .core import (FaultGenerator, FaultSpec, FaultType, load_fault_vectors)
from .models import build_lenet, build_model, model_names

__all__ = ["main"]


def _resolve_model(name: str, seed: int = 0):
    if name == "lenet":
        return build_lenet(seed=seed)
    return build_model(name, seed=seed)


# -- the one event renderer every streaming command shares ----------------

def _event_renderer(show_cells: bool, stream=None):
    """A RunHandle subscriber rendering typed events to ``stream``.

    This replaces the per-subcommand ``progress`` closures: warnings are
    always surfaced; per-cell lines only when the caller asked
    (``show_cells`` — journaled or ``--progress`` runs).
    """
    from .api import (CellDone, CheckpointDone, ExecutorDegraded,
                      JobQuarantined, JobRetried, JobStateChanged,
                      RunFinished, RunStarted, RunWarning,
                      TelemetrySnapshot, WorkerLost)
    out = stream or sys.stderr

    def render(event):
        if isinstance(event, RunStarted):
            if show_cells:
                print(f"run: {event.experiment}", file=out)
        elif isinstance(event, RunFinished):
            return  # the command prints the assembled report itself
        elif isinstance(event, CellDone) and show_cells:
            print(f"[{event.done}/{event.total}] {event.series} "
                  f"point {event.point} repeat {event.repeat}: "
                  f"{100 * event.accuracy:.1f}%", file=out)
        elif isinstance(event, CheckpointDone) and show_cells:
            print(f"checkpoint {event.index + 1}/{event.total} "
                  f"(age {event.age:g}) complete", file=out)
        elif isinstance(event, RunWarning):
            print(f"warning: {event.message}", file=out)
        elif isinstance(event, JobRetried):
            print(f"retry: cell ({event.point}, {event.repeat}) "
                  f"attempt {event.attempt} failed ({event.cause}); "
                  f"retrying in {event.delay:g}s", file=out)
        elif isinstance(event, JobQuarantined):
            print(f"quarantined: cell ({event.point}, {event.repeat}) "
                  f"failed {event.attempts} attempt(s); its accuracy "
                  "is NaN", file=out)
        elif isinstance(event, WorkerLost):
            print(f"worker lost: {event.reason}; worker re-forked, "
                  f"{event.in_flight} in-flight job(s) re-dispatched",
                  file=out)
        elif isinstance(event, ExecutorDegraded):
            print(f"degrading executor: {event.from_mode} -> "
                  f"{event.to_mode} ({event.reason})", file=out)
        elif isinstance(event, JobStateChanged):
            line = f"job {event.job_id}: {event.state}"
            if event.error:
                line += f" ({event.error})"
            print(line, file=out)
        elif isinstance(event, TelemetrySnapshot) and show_cells:
            phases = " ".join(f"{name}={seconds:.2f}s" for name, seconds
                              in sorted(event.phases.items()))
            print(f"telemetry: {phases}", file=out)
    return render


def _default_executor(args) -> str:
    if args.executor is not None:
        return args.executor
    serial = args.jobs is None or args.jobs == 1
    return "serial" if serial else "shared_memory"


def _request(args, **extra):
    """The RunRequest of ``run``/``submit`` from the shared engine flags
    (see :func:`_add_engine_arguments`); ``extra`` adds the rest."""
    from . import api
    return api.RunRequest(
        experiment=args.experiment,
        params=_parse_param_tokens(args.param),
        executor=_default_executor(args), n_jobs=args.jobs or None,
        backend=args.backend,
        cache_bytes=(args.cache_cap * 2 ** 20
                     if args.cache_cap is not None else None),
        quick=args.quick, retries=args.retries,
        job_timeout=args.job_timeout, degrade=not args.no_degrade, **extra)


# -- registry commands: run / list / describe -----------------------------

def _parse_param_tokens(tokens) -> dict:
    from .api import ApiError
    params = {}
    for token in tokens or ():
        name, separator, value = token.partition("=")
        if not separator or not name:
            raise ApiError(f"malformed --param {token!r}; expected "
                           "--param name=value")
        params[name] = value
    return params


def _cmd_run(args) -> int:
    from . import api
    handle = api.submit(_request(args, journal=args.journal,
                                 resume=args.resume))
    handle.subscribe(_event_renderer(
        show_cells=args.progress or bool(args.journal)))
    report = handle.run()
    _print_report(report)
    if args.out:
        path = report.save(args.out)
        print(f"[report] {path}")
    return 0


def _print_report(report) -> None:
    engine = report.engine
    header = f"experiment: {report.experiment}"
    if report.baseline is not None:
        header += f"  baseline: {100 * report.baseline:.1f}%"
    header += f"  [{engine['executor']}/{engine['backend']}]"
    print(header)
    resumed = report.meta.get("resumed_cells")
    for name, path in sorted(report.artifacts.items()):
        if name.startswith("journal"):
            print(f"{name}: {path}"
                  + (f" ({resumed} cells resumed)"
                     if resumed is not None else ""))
    if report.series:
        rows = []
        for series in report.series:
            for x, mean, std in zip(series.xs, series.mean, series.std):
                rows.append((series.label, f"{x:g}", f"{100 * mean:.1f}",
                             f"{100 * std:.1f}"))
        print(markdown_table(["series", "x", "accuracy %", "std %"], rows))
    for name, payload in report.tables.items():
        print(f"\n[{name}]")
        if isinstance(payload, dict) and "columns" in payload:
            print(markdown_table(payload["columns"],
                                 [tuple(row) for row in payload["rows"]]))
        else:
            import json
            print(json.dumps(payload, indent=2, default=str))


def _cmd_list(args) -> int:
    from . import api
    if args.names:
        for name in api.experiment_names():
            print(name)
        return 0
    rows = []
    for name in api.experiment_names():
        info = api.describe(name)
        description = info["description"]
        if len(description) > 56:
            description = description[:53] + "..."
        rows.append((name, len(info["params"]),
                     "yes" if info["supports_journal"] else "no",
                     description))
    print(markdown_table(["experiment", "params", "journal", "description"],
                         rows))
    return 0


def _format_param_value(kind: str, value) -> str:
    """CLI text for one param value (delegates to Param.format — the
    single source of truth for the ``--param`` syntax)."""
    from .api import Param
    return Param("_", kind).format(value)


def _cmd_describe(args) -> int:
    from . import api
    info = api.describe(args.experiment)
    print(f"{info['name']} — {info['description']}")
    if info["aliases"]:
        print(f"aliases: {', '.join(info['aliases'])}")
    print(f"journal support: {'yes' if info['supports_journal'] else 'no'}")
    if info["params"]:
        rows = []
        for param in info["params"]:
            default = ("" if param["default"] is None
                       else _format_param_value(param["kind"],
                                                param["default"]))
            quick = info["quick"].get(param["name"])
            rows.append((param["name"], param["kind"], default,
                         "" if quick is None
                         else _format_param_value(param["kind"], quick),
                         param.get("help", "")))
        print(markdown_table(["param", "kind", "default", "quick", "help"],
                             rows))
    # params without a default (e.g. scenario's name/spec) fall back to
    # their quick value so the printed invocation actually runs
    tokens = []
    for param in info["params"]:
        value = param["default"]
        if value is None:
            value = info["quick"].get(param["name"])
        if value is not None:
            tokens.append(f"--param {param['name']}="
                          f"{_format_param_value(param['kind'], value)}")
    print("invocation:")
    print(f"  python -m repro run {info['name']} " + " ".join(tokens))
    return 0


# -- campaign service: serve / submit / status / watch / fetch / cancel ---

def _service_client(args):
    from .service import ServiceClient
    return ServiceClient(host=args.host, port=args.port, client=args.client)


def _cmd_serve(args) -> int:
    from .service.server import serve_from_args
    return serve_from_args(args)


def _cmd_submit(args) -> int:
    """Submit an experiment to a running service; prints the job id
    (bare, on stdout) so shells can capture it."""
    record = _service_client(args).submit(_request(args),
                                          durable=args.durable)
    print(f"queued {record.request.experiment} as {record.job_id}"
          + (" (durable)" if record.durable else ""), file=sys.stderr)
    print(record.job_id)
    return 0


def _job_row(record) -> tuple:
    return (record.job_id, record.request.experiment,
            record.state.value, "yes" if record.durable else "no",
            record.resumes, record.error)


def _cmd_status(args) -> int:
    client = _service_client(args)
    header = ["job", "experiment", "state", "durable", "resumes", "error"]
    if args.job:
        records = [client.job(args.job)]
    else:
        records = client.jobs()
    print(markdown_table(header, [_job_row(record) for record in records]))
    return 0


def _cmd_watch(args) -> int:
    """Stream a job's events until it reaches a terminal state;
    exit 0 only for ``done``."""
    from .service.jobs import JobState
    client = _service_client(args)
    record = client.watch(args.job,
                          on_event=_event_renderer(show_cells=True))
    line = f"job {record.job_id}: {record.state.value}"
    if record.error:
        line += f" ({record.error})"
    print(line)
    return 0 if record.state is JobState.DONE else 1


def _cmd_fetch(args) -> int:
    """Fetch a finished job's report and print it like ``repro run``."""
    from .service import wire
    payload = _service_client(args).result(args.job)
    report = wire.decode_report(payload)
    _print_report(report)
    if args.out:
        path = report.save(args.out)
        print(f"[report] {path}")
    return 0


def _cmd_cancel(args) -> int:
    record = _service_client(args).cancel(args.job)
    print(f"job {record.job_id}: {record.state.value}")
    return 0


def _cmd_trace(args) -> int:
    """Render the trace spans of a campaign journal as a timeline."""
    from .obs.trace import load_trace, render_timeline
    spans = load_trace(args.journal)
    print(render_timeline(spans), end="")
    return 0


# -- standalone inspection commands ---------------------------------------

def _cmd_report(args) -> int:
    model = _resolve_model(args.model)
    generator = FaultGenerator(FaultSpec.bitflip(0.0),
                               rows=args.rows, cols=args.cols)
    entries = generator.report(model)
    header = ["layer", "crossbar", "parallel ops", "XNOR ops/image", "reuse"]
    rows = [(e["layer"], f"{e['crossbar'][0]}x{e['crossbar'][1]}",
             e["parallel_xnor_ops"], e["xnor_ops_per_image"], e["cell_reuse"])
            for e in entries]
    print(markdown_table(header, rows))
    return 0


def _build_spec(args) -> FaultSpec:
    kind = FaultType(args.fault)
    if kind == FaultType.BITFLIP:
        return FaultSpec.bitflip(args.rate, period=args.period)
    if kind == FaultType.STUCK_AT:
        return FaultSpec.stuck_at(args.rate)
    if kind == FaultType.FAULTY_ROWS:
        return FaultSpec.faulty_rows(args.count)
    return FaultSpec.faulty_columns(args.count)


def _cmd_vectors(args) -> int:
    model = _resolve_model(args.model)
    generator = FaultGenerator(_build_spec(args), rows=args.rows,
                               cols=args.cols, seed=args.seed)
    plan = generator.generate(model)
    generator.extract_vectors(plan, args.output)
    total = sum(masks.fault_counts()["bitflips"] + masks.fault_counts()["stuck"]
                for masks in plan.values())
    print(f"wrote {len(plan)} layer records ({total} faulty cells) "
          f"to {args.output}")
    return 0


def _cmd_inspect(args) -> int:
    plan = load_fault_vectors(args.path)
    header = ["layer", "crossbar", "bitflips", "period", "stuck",
              "flip semantics", "stuck semantics"]
    rows = []
    for name, masks in plan.items():
        counts = masks.fault_counts()
        rows.append((name, f"{masks.rows}x{masks.cols}", counts["bitflips"],
                     masks.flip_period, counts["stuck"],
                     masks.flip_semantics, masks.stuck_semantics))
    print(markdown_table(header, rows))
    return 0


def _cmd_scenarios_list(args) -> int:
    from .scenarios import get_scenario, scenario_names
    header = ["name", "checkpoints", "environments", "clauses", "story"]
    rows = []
    for name in scenario_names():
        scenario = get_scenario(name)
        clauses = (len(scenario.clauses)
                   + sum(len(e.clauses) for e in scenario.episodes))
        story = scenario.description
        if len(story) > 64:
            story = story[:61] + "..."
        rows.append((name, len(scenario.timeline.ages),
                     "+".join(scenario.episode_names()), clauses, story))
    print(markdown_table(header, rows))
    return 0


def _cmd_cost(args) -> int:
    from .lim import estimate_model_cost
    model = _resolve_model(args.model)
    costs = estimate_model_cost(model, rows=args.rows, cols=args.cols,
                                gate_family=args.gate)
    header = ["layer", "XNOR ops", "driver steps", "energy nJ", "latency us"]
    print(markdown_table(header, [c.row() for c in costs]))
    total_e = sum(c.energy_nj for c in costs)
    total_l = sum(c.latency_us for c in costs)
    print(f"\ntotal per image ({args.gate}): {total_e:.2f} nJ, "
          f"{total_l:.2f} us")
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine options ``repro run`` and ``repro submit`` share."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run the campaign on N worker processes "
                             "(default: 1 = in-process serial; 0 = all "
                             "cores)")
    parser.add_argument("--executor", default=None,
                        choices=["serial", "shared_memory"],
                        help="executor override (default: serial for "
                             "--jobs<=1, shared_memory otherwise, whose "
                             "forked workers share the parent's test set "
                             "and caches)")
    parser.add_argument("--backend", default="float",
                        choices=["float", "packed"],
                        help="inference backend: float GEMM or packed "
                             "uint64 XNOR/popcount (bit-identical)")
    parser.add_argument("--cache-cap", type=int, default=None,
                        metavar="MiB",
                        help="byte cap (in MiB) on the campaign's whole "
                             "per-batch memo (split-layer outputs, or "
                             "im2col / packed words, of the batches it "
                             "replays); default 256")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="extra attempts per campaign cell before it "
                             "is quarantined as NaN (default 2; 0 still "
                             "recovers lost workers, it just never "
                             "re-attempts a failing cell)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; a cell "
                             "exceeding it counts as a failed attempt "
                             "and its worker is re-forked (default: "
                             "none)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="fail instead of degrading the executor "
                             "(shared_memory -> serial) when the pool "
                             "keeps failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FLIM fault-injection platform (DAC'23 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    model_choices = ["lenet"] + model_names()

    p_run = sub.add_parser(
        "run", help="run a registered experiment (see: repro list)")
    p_run.add_argument("experiment",
                       help="registry name (repro list) — fig4a..fig4f, "
                            "fig5a..fig5c, sweep, table1/2, scenario, or "
                            "a zoo scenario name")
    p_run.add_argument("--param", action="append", default=[],
                       metavar="K=V",
                       help="experiment parameter override (repeatable); "
                            "see: repro describe <experiment>")
    p_run.add_argument("--quick", action="store_true",
                       help="apply the experiment's tiny smoke-test "
                            "parameter overrides")
    p_run.add_argument("--progress", action="store_true",
                       help="stream per-cell progress lines to stderr")
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="write the RunReport JSON to PATH")
    _add_engine_arguments(p_run)
    p_run.add_argument("--journal", default=None, metavar="PATH",
                       help="stream completed cells into a JSONL "
                            "journal; rerun with --resume to continue "
                            "an interrupted campaign (multi-series "
                            "experiments derive one sibling file per "
                            "series)")
    p_run.add_argument("--resume", action="store_true",
                       help="allow continuing existing --journal files")
    p_run.set_defaults(func=_cmd_run)

    def _add_service_arguments(p, with_job: bool = True) -> None:
        """Connection options every service client command shares."""
        if with_job:
            p.add_argument("job", help="job id (from repro submit)")
        p.add_argument("--host", default="127.0.0.1",
                       help="service host (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=8642,
                       help="service port (default 8642)")
        p.add_argument("--client", default="cli", metavar="NAME",
                       help="client identity for the per-client cache "
                            "budget (default: cli)")

    p_serve = sub.add_parser(
        "serve", help="run the campaign service (async job server over "
                      "the registry)")
    from .service.server import add_serve_arguments
    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit an experiment to a running service; "
                       "prints the job id")
    p_submit.add_argument("experiment",
                          help="registry name (repro list)")
    p_submit.add_argument("--param", action="append", default=[],
                          metavar="K=V",
                          help="experiment parameter override (repeatable)")
    p_submit.add_argument("--quick", action="store_true",
                          help="apply the experiment's quick overrides")
    p_submit.add_argument("--durable", action="store_true",
                          help="journal the campaign in the server's "
                               "store so a killed server resumes it")
    _add_service_arguments(p_submit, with_job=False)
    _add_engine_arguments(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="one job's record, or the whole job table")
    p_status.add_argument("job", nargs="?", default=None,
                          help="job id (omit to list every job)")
    _add_service_arguments(p_status, with_job=False)
    p_status.set_defaults(func=_cmd_status)

    p_watch = sub.add_parser(
        "watch", help="stream a job's events until it finishes "
                      "(reconnects across server restarts)")
    _add_service_arguments(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_fetch = sub.add_parser(
        "fetch", help="fetch and print a finished job's report")
    _add_service_arguments(p_fetch)
    p_fetch.add_argument("--out", default=None, metavar="PATH",
                         help="also write the report JSON to PATH")
    p_fetch.set_defaults(func=_cmd_fetch)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job")
    _add_service_arguments(p_cancel)
    p_cancel.set_defaults(func=_cmd_cancel)

    p_trace = sub.add_parser(
        "trace", help="render a campaign journal's trace spans as a "
                      "span-tree timeline with per-phase totals")
    p_trace.add_argument("journal", metavar="JOURNAL",
                         help="journal JSONL written by an observed run")
    p_trace.set_defaults(func=_cmd_trace)

    p_list = sub.add_parser("list", help="the experiment registry")
    p_list.add_argument("--names", action="store_true",
                        help="bare names only (one per line, for scripts)")
    p_list.set_defaults(func=_cmd_list)

    p_desc = sub.add_parser(
        "describe", help="one experiment's parameters + example invocation")
    p_desc.add_argument("experiment")
    p_desc.set_defaults(func=_cmd_describe)

    p_report = sub.add_parser("report", help="crossbar mapping report")
    p_report.add_argument("--model", default="lenet", choices=model_choices)
    p_report.add_argument("--rows", type=int, default=40)
    p_report.add_argument("--cols", type=int, default=10)
    p_report.set_defaults(func=_cmd_report)

    p_vec = sub.add_parser("vectors", help="generate a fault-vector file")
    p_vec.add_argument("output")
    p_vec.add_argument("--model", default="lenet", choices=model_choices)
    p_vec.add_argument("--fault", default="bitflip",
                       choices=[k.value for k in FaultType])
    p_vec.add_argument("--rate", type=float, default=0.1)
    p_vec.add_argument("--count", type=int, default=1)
    p_vec.add_argument("--period", type=int, default=0)
    p_vec.add_argument("--rows", type=int, default=40)
    p_vec.add_argument("--cols", type=int, default=10)
    p_vec.add_argument("--seed", type=int, default=0)
    p_vec.set_defaults(func=_cmd_vectors)

    p_ins = sub.add_parser("inspect", help="print a fault-vector file")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=_cmd_inspect)

    p_scen = sub.add_parser(
        "scenarios", help="declarative lifetime/environment fault scenarios")
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    p_slist = scen_sub.add_parser("list", help="the scenario zoo")
    p_slist.set_defaults(func=_cmd_scenarios_list)
    # listed for `repro --help` only: main() hands every `repro lint`
    # argument to repro.lint.runner.main, which defines the lint flags
    sub.add_parser("lint", help="AST-based invariant checker (determinism, "
                                "typed failures, event protocol)")

    p_cost = sub.add_parser("cost", help="LIM energy/latency estimate")
    p_cost.add_argument("--model", default="lenet", choices=model_choices)
    p_cost.add_argument("--gate", default="imply", choices=["imply", "magic"])
    p_cost.add_argument("--rows", type=int, default=40)
    p_cost.add_argument("--cols", type=int, default=10)
    p_cost.set_defaults(func=_cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Dispatch a CLI invocation; exit codes are uniform (see module
    docstring): validation errors (any :class:`ValueError`, which
    includes ``ApiError`` and ``ScenarioError``) exit 2, runtime
    failures exit 1."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # one definition of the lint flags, shared with python -m repro.lint
        from .lint.runner import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # downstream pipe closed (e.g. `| head`)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # uniform runtime-failure exit code
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
