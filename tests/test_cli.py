"""Tests for the command-line interface.

Exit codes are asserted per the uniform contract: 0 success, 2
usage/validation (malformed spec or --param, unknown experiment,
mismatched journal), 1 runtime failure — for every subcommand including
the registry-backed ``run`` / ``list`` / ``describe``.
"""

import re

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


#: a tiny MNIST campaign for the run smoke tests
TINY_GRID = ["--param", "images=60", "--param", "rows=8", "--param", "cols=4"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_lenet(capsys):
    code, out = run_cli(capsys, "report", "--model", "lenet",
                        "--rows", "8", "--cols", "4")
    assert code == 0
    for name in ("conv1", "conv2", "dense0", "dense1"):
        assert name in out
    assert "reuse" in out


def test_vectors_and_inspect_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "plan.flim")
    code, out = run_cli(capsys, "vectors", path, "--model", "lenet",
                        "--fault", "bitflip", "--rate", "0.2",
                        "--rows", "8", "--cols", "4", "--seed", "3")
    assert code == 0
    assert "4 layer records" in out

    code, out = run_cli(capsys, "inspect", path)
    assert code == 0
    assert "conv1" in out
    assert "8x4" in out


def test_vectors_stuck_at(capsys, tmp_path):
    path = str(tmp_path / "stuck.flim")
    code, out = run_cli(capsys, "vectors", path, "--fault", "stuck_at",
                        "--rate", "0.1", "--rows", "8", "--cols", "4")
    assert code == 0
    from repro.core import load_fault_vectors
    plan = load_fault_vectors(path)
    assert all(m.stuck_mask.sum() == round(0.1 * 32) for m in plan.values())


def test_vectors_faulty_columns(capsys, tmp_path):
    path = str(tmp_path / "cols.flim")
    code, _ = run_cli(capsys, "vectors", path, "--fault", "faulty_columns",
                      "--count", "2", "--rows", "8", "--cols", "4")
    assert code == 0
    from repro.core import load_fault_vectors
    plan = load_fault_vectors(path)
    assert all(m.flip_mask.sum() == 2 * 8 for m in plan.values())


def test_table1(capsys):
    code, out = run_cli(capsys, "run", "table1")
    assert code == 0
    assert "CPU" in out
    assert "numpy" in out


def test_cost_lenet(capsys):
    code, out = run_cli(capsys, "cost", "--model", "lenet", "--gate", "magic")
    assert code == 0
    assert "dense1" in out
    assert "total per image (magic)" in out


def test_cost_gate_families_differ(capsys):
    _, out_imply = run_cli(capsys, "cost", "--model", "lenet",
                           "--gate", "imply")
    _, out_magic = run_cli(capsys, "cost", "--model", "lenet",
                           "--gate", "magic")
    assert out_imply != out_magic


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["report", "--model", "not_a_model"])


def test_sweep_parallel_with_journal_smoke(capsys, tmp_path):
    """End-to-end: pool executor + journal + resume through the CLI."""
    journal = str(tmp_path / "sweep.jsonl")
    argv = ["run", "sweep", "--param", "rates=0.0,0.3",
            "--param", "repeats=2", *TINY_GRID,
            "--jobs", "2", "--journal", journal]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "baseline:" in out
    assert "[shared_memory/float]" in out
    assert "0 cells resumed" in out

    # reusing a journal requires --resume ...
    code, _ = run_cli(capsys, *argv)
    assert code == 2

    # ... and with it the completed journal replays instantly
    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "4 cells resumed" in out


def test_sweep_resume_requires_journal(capsys):
    code = main(["run", "sweep", "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--journal" in captured.err


def test_sweep_shared_memory_executor_smoke(capsys, tmp_path):
    code, out = run_cli(capsys, "run", "sweep", "--param", "rates=0.0,0.3",
                        "--param", "repeats=2", *TINY_GRID,
                        "--jobs", "2", "--executor", "shared_memory")
    assert code == 0
    assert "[shared_memory/float]" in out


def test_fig4f_header_names_the_engine_that_ran(capsys):
    """fig4f ignores --backend packed and times float serially; the
    header says so instead of echoing the request."""
    code, out = run_cli(capsys, "run", "fig4f", "--quick",
                        "--backend", "packed")
    assert code == 0
    assert "[serial/float]" in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["sweep"], ["scenarios", "run", "fresh-device"], ["table1"], ["table2"]])
def test_experiments_run_only_through_run(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_run_and_submit_share_engine_flags():
    """``submit`` takes ``run``'s engine flags, help texts included, and
    builds the same request from them; only ``run`` journals."""
    from repro import cli
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices

    def helps(command):
        return {action.option_strings[0]: action.help
                for action in commands[command]._actions
                if action.option_strings}

    run_helps, submit_helps = helps("run"), helps("submit")
    for flag in ("--jobs", "--executor", "--backend", "--cache-cap",
                 "--retries", "--job-timeout", "--no-degrade"):
        assert submit_helps[flag] and submit_helps[flag] == run_helps[flag]
    assert "--journal" in run_helps and "--journal" not in submit_helps
    flags = ["sweep", "--param", "rates=0.1", "--quick", "--jobs", "2",
             "--backend", "packed", "--cache-cap", "64", "--retries", "0",
             "--job-timeout", "5", "--no-degrade"]
    request = cli._request(parser.parse_args(["run", *flags]))
    assert request == cli._request(parser.parse_args(["submit", *flags]))
    assert (request.executor, request.n_jobs, request.cache_bytes,
            request.degrade) == ("shared_memory", 2, 64 << 20, False)


@pytest.mark.parametrize("executor", ["multiprocessing", "shm"])
def test_removed_executor_names_exit_2(executor):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "sweep", "--executor", executor])
    assert exit_info.value.code == 2


def test_scenarios_list(capsys):
    code, out = run_cli(capsys, "scenarios", "list")
    assert code == 0
    for name in ("fresh-device", "mid-life-drift", "end-of-life",
                 "seu-storm", "clustered-variation-attack",
                 "row-driver-failure"):
        assert name in out


def test_scenarios_run_requires_a_scenario(capsys):
    code = main(["run", "scenario"])
    captured = capsys.readouterr()
    assert code == 2
    assert "scenarios list" in captured.err


def test_scenarios_run_unknown_zoo_name(capsys):
    code = main(["run", "scenario", "--param", "name=mid-life-crisis"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown scenario" in captured.err


def test_scenarios_run_malformed_spec_file(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("{unclosed")
    code = main(["run", "scenario", "--param", f"spec={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_scenarios_run_spec_with_unknown_keys(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text('{"name": "t", "timeline": {"ages": [0.0]}, '
                    '"clauses": [{"kind": "bitflip", "rate": 0.1}], '
                    '"sauces": []}')
    code = main(["run", "scenario", "--param", f"spec={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key" in captured.err


def test_scenarios_run_smoke_and_journal_guards(capsys, tmp_path):
    """End-to-end scenario run + the journal exit-2 contract."""
    journal = str(tmp_path / "scenario.jsonl")
    argv = ["run", "fresh-device", "--param", "repeats=1", *TINY_GRID,
            "--journal", journal]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "fresh-device" in out
    assert "baseline:" in out
    assert "0 cells resumed" in out

    # reusing a journal requires --resume ...
    code, _ = run_cli(capsys, *argv)
    assert code == 2

    # ... and a journal written for a *different* scenario is refused
    code = main(["run", "end-of-life", "--param", "repeats=1", *TINY_GRID,
                 "--journal", journal, "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert "different campaign" in captured.err

    # the matching scenario replays the completed journal instantly
    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "3 cells resumed" in out


def test_scenarios_run_resume_requires_journal(capsys):
    code = main(["run", "fresh-device", "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--journal" in captured.err


def test_scenarios_run_rejects_name_plus_spec(capsys, tmp_path):
    path = tmp_path / "story.json"
    path.write_text('{"name": "s", "timeline": {"ages": [0.0]}, '
                    '"clauses": [{"kind": "bitflip", "rate": 0.1}]}')
    code = main(["run", "scenario", "--param", "name=end-of-life",
                 "--param", f"spec={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exactly one" in captured.err


# -- registry commands: run / list / describe -----------------------------

TINY_SWEEP = ["--param", "rates=0.0,0.3", "--param", "repeats=1",
              "--param", "images=60", "--param", "rows=8",
              "--param", "cols=4"]


def test_run_sweep_quick(capsys):
    code, out = run_cli(capsys, "run", "sweep", "--quick")
    assert code == 0
    assert "experiment: sweep" in out
    assert "baseline:" in out
    assert "[serial/float]" in out
    assert "bitflip" in out


def test_run_accepts_params_and_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "run", "sweep", *TINY_SWEEP,
                        "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "[report]" in out
    import json
    payload = json.loads(out_path.read_text())
    assert payload["experiment"] == "sweep"
    assert payload["params"]["repeats"] == 1


def test_run_scenario_by_zoo_name(capsys):
    code, out = run_cli(capsys, "run", "fresh-device", "--quick")
    assert code == 0
    assert "experiment: fresh-device" in out
    assert "nominal" in out


def test_run_with_journal_streams_and_resumes(capsys, tmp_path):
    journal = str(tmp_path / "run.jsonl")
    argv = ["run", "sweep", *TINY_SWEEP, "--journal", journal]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "0 cells resumed" in out

    # reusing a journal requires --resume (uniform exit 2) ...
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "--resume" in captured.err

    # ... and with it the completed journal replays
    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "2 cells resumed" in out


def test_run_unknown_experiment_exits_2(capsys):
    code = main(["run", "definitely-not-registered"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown experiment" in captured.err


def test_run_unknown_param_exits_2(capsys):
    code = main(["run", "sweep", "--param", "bogus=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown param" in captured.err


def test_run_malformed_param_exits_2(capsys):
    code = main(["run", "sweep", "--param", "rates"])
    captured = capsys.readouterr()
    assert code == 2
    assert "name=value" in captured.err


def test_run_uncoercible_param_exits_2(capsys):
    code = main(["run", "sweep", "--param", "repeats=lots"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_non_finite_job_timeout_exits_2(capsys, value):
    code = main(["run", "sweep", "--quick", "--job-timeout", value])
    captured = capsys.readouterr()
    assert code == 2
    assert "job_timeout" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["run", "sweep", "--quick", "--progress", "--param", "repeats=0"],
     "repeats >= 1"),
    (["run", "sweep", "--quick", "--progress", "--param", "images=0"],
     "test set is empty"),
    (["run", "sweep", "--quick", "--progress", "--param", "images=-5"],
     "n >= 0"),
    (["run", "sweep", "--quick", "--progress", "--param", "rows=0"],
     "rows >= 1"),
    (["vectors", "PLAN", "--rows", "0"], "rows >= 1"),
], ids=["repeats=0", "images=0", "images=-5", "rows=0", "vectors-rows=0"])
def test_degenerate_inputs_exit_2_before_any_cell(capsys, tmp_path, argv,
                                                  message):
    """No repeats, no images, a negative image count or a crossbar
    without rows is refused where the value enters: exit 2 before any
    cell runs (no progress, retry or quarantine line) and before any
    fault file is written."""
    plan = tmp_path / "plan.flim"
    code = main([str(plan) if arg == "PLAN" else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert not re.search(r"^(\[\d+/\d+\]|retry:|quarantined:)", err,
                         re.MULTILINE)
    assert not plan.exists()


def test_refused_geometry_leaves_no_journal(capsys, tmp_path):
    """A crossbar without rows is refused before its journal opens, so
    the corrected run starts afresh on the same path."""
    journal = tmp_path / "sweep.jsonl"
    code = main(["run", "sweep", "--quick", "--param", "rows=0",
                 "--journal", str(journal)])
    assert code == 2
    assert "rows >= 1" in capsys.readouterr().err
    assert not journal.exists()
    assert main(["run", "sweep", "--quick", "--journal", str(journal)]) == 0
    assert journal.exists()


def test_repeated_zoo_model_exits_2(capsys):
    code = main(["run", "fig5a", "--quick", "--param",
                 "models=binary_alexnet,binary_alexnet"])
    assert code == 2
    assert "binary_alexnet given more than once" in capsys.readouterr().err


def test_run_runtime_failure_exits_1(capsys):
    from repro import api

    def explode(ctx):
        raise RuntimeError("injected runtime failure")

    api.REGISTRY.register(api.Experiment(name="boom-cli", func=explode))
    try:
        code = main(["run", "boom-cli"])
    finally:
        api.REGISTRY.unregister("boom-cli")
    captured = capsys.readouterr()
    assert code == 1
    assert "injected runtime failure" in captured.err


def test_list_table_and_names(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("fig4a", "fig5a", "sweep", "table2", "end-of-life"):
        assert name in out

    code, out = run_cli(capsys, "list", "--names")
    assert code == 0
    names = out.split()
    assert "fig4a" in names and "scenario" in names


def test_describe_unknown_experiment_exits_2(capsys):
    code = main(["describe", "not-there"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown experiment" in captured.err


def test_describe_roundtrips_to_a_valid_invocation(capsys):
    """The printed `--param k=v` tokens must parse back into a valid
    request for the same experiment (validated without running)."""
    from repro import api
    for name in ("fig4a", "sweep", "end-of-life", "scenario"):
        code, out = run_cli(capsys, "describe", name)
        assert code == 0
        line = next(l for l in out.splitlines()
                    if l.strip().startswith("python -m repro run"))
        tokens = re.findall(r"--param (\S+)=(\S+)", line)
        assert tokens, line
        params = dict(tokens)
        handle = api.submit(api.RunRequest(name, params=params))
        # resolved values equal the declared defaults they were printed from
        for key, value in handle.params.items():
            default = next(p["default"] for p in api.describe(name)["params"]
                           if p["name"] == key)
            if default is not None:
                assert value == default, (name, key)
