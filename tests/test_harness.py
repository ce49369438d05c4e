"""Tests for the experiment harness, config parsing, CSV output and CLI."""

from __future__ import annotations

import hashlib
import io
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import sosim
from sosim import delay_sources, errors, harness
from sosim.cli import main
from sosim.delay_sources import DelaySourceSpec
from sosim.errors import ConfigError, ValidationError
from sosim.harness import (
    ExperimentConfig,
    MetricsRow,
    improvement_pct,
    parse_config,
    run_experiment,
    run_sweep,
    write_csv,
)
from sosim.simulator import SCHEDULERS, SimConfig

TWO_GAMMA = (
    DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=1.0),
    DelaySourceSpec(kind="gamma", mean_ms=12.0, stddev_ms=5.0),
)

CONFIG_TEXT = """\
# sample experiment
scheduler = sos
epsilon = 0.05
object_size = 20
replications = 50
seed = 11
mode = oracle

[path]
kind = gamma
mean_ms = 10
stddev_ms = 1

[path]
kind = gamma
mean_ms = 12
stddev_ms = 5
propagation_ms = 2
"""


def small(scheduler="sos", **kw):
    defaults = dict(paths=TWO_GAMMA, scheduler=scheduler, object_size=20,
                    replications=50, seed=1)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# -- improvement_pct ---------------------------------------------------------


def test_improvement_examples():
    assert improvement_pct(200.0, 100.0) == pytest.approx(100.0)
    assert improvement_pct(5.0, 5.0) == 0.0
    assert improvement_pct(100.0, 200.0) == pytest.approx(-50.0)


def test_improvement_rejects_nonpositive():
    with pytest.raises(ValidationError):
        improvement_pct(0.0, 1.0)
    with pytest.raises(ValidationError):
        improvement_pct(1.0, -1.0)
    for baseline, candidate in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValidationError):
            improvement_pct(baseline, candidate)


# -- run_experiment ----------------------------------------------------------


def test_deterministic_paths_zero_variance():
    cfg = ExperimentConfig(
        paths=(DelaySourceSpec(kind="deterministic", mean_ms=3.0),
               DelaySourceSpec(kind="deterministic", mean_ms=5.0)),
        scheduler="sos", object_size=10, replications=25, seed=0,
    )
    row = run_experiment(cfg)
    assert row.p95_delay_ms == pytest.approx(row.mean_delay_ms)


def test_same_config_same_row():
    assert run_experiment(small()) == run_experiment(small())


def test_config_validation():
    with pytest.raises(ConfigError):
        small(scheduler="minRTT")
    with pytest.raises(ConfigError):
        ExperimentConfig(paths=TWO_GAMMA, object_size=None, page_spec=None)
    with pytest.raises(ConfigError):
        small(replications=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(paths=(), object_size=5)
    with pytest.raises(ConfigError, match="warmup_packets"):
        small(mode="estimated", warmup_packets=-7)


@pytest.mark.parametrize(
    "field, value",
    [("object_size", 2.5), ("replications", 2.5), ("replications", "3"), ("warmup_packets", 2.5),
     ("seed", 2.5), ("seed", -1)],
)
def test_count_fields_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=field):
        small(mode="estimated", **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("mode", "x"), ("warmup_packets", -1), ("epsilon", 2.0), ("gamma", 1.5), ("ack_return_ms", -1.0)],
)
def test_run_settings_refused_alike_when_built(field, value):
    with pytest.raises(ConfigError, match=field) as direct:
        SimConfig(**{field: value})
    with pytest.raises(ConfigError, match=field) as built:
        small(**{field: value})
    assert str(built.value) == str(direct.value)


def test_error_types_are_the_five():
    def types(module):
        return {n for n, v in vars(module).items() if isinstance(v, type) and issubclass(v, Exception)}

    five = {"SosimError", "ConfigError", "ParseError", "ValidationError", "NoDataError"}
    assert types(errors) == five and types(sosim) == five


def test_count_fields_accept_numpy_integers():
    config = small(object_size=np.int64(5), replications=np.int64(3), warmup_packets=np.int64(0),
                   seed=np.int64(1))
    plain = small(object_size=5, replications=3, warmup_packets=0)
    assert run_experiment(config) == run_experiment(plain)


def test_fec_row_reports_redundancy():
    row = run_experiment(small(scheduler="sos_fec", gamma=0.0,
                               paths=(DelaySourceSpec(kind="gamma", mean_ms=10, stddev_ms=30),
                                      DelaySourceSpec(kind="gamma", mean_ms=12, stddev_ms=1))))
    assert row.redundancy_fraction > 0


# -- run_sweep ---------------------------------------------------------------


def test_sweep_single_value():
    rows = run_sweep(small(), "sigma", [5.0], axis_path=1)
    assert len(rows) == 1 and rows[0].label.startswith("sigma=5.0")


def test_sweep_empty_values():
    with pytest.raises(ConfigError):
        run_sweep(small(), "sigma", [])


def test_sweep_axis_mismatch():
    with pytest.raises(ConfigError):
        run_sweep(small(), "gamma", [0.5])  # gamma sweep on non-FEC scheduler
    with pytest.raises(ConfigError):
        run_sweep(small(), "sigma", [1.0], axis_path=5)
    with pytest.raises(ConfigError):
        run_sweep(small(), "unknown_axis", [1.0])
    with pytest.raises(ConfigError):
        run_sweep(small(), "object_size", [2.5, 7.9])  # no silent truncation


@pytest.mark.parametrize(
    "config, axis, baseline, message",
    [
        (small(paths=(TWO_GAMMA[0], DelaySourceSpec(kind="deterministic", mean_ms=5.0))),
         "sigma", None, "sigma sweeps need a gamma-distributed path"),
        (small(object_size=None, page_spec="page.csv"), "object_size", None,
         "object_size sweeps need a fixed-size workload"),
        (small(), "sigma", "minRTT", "unknown baseline scheduler 'minRTT'"),
    ],
)
def test_sweep_refusals(config, axis, baseline, message):
    with pytest.raises(ConfigError, match=message):
        run_sweep(config, axis, [1], baseline=baseline)


@pytest.mark.parametrize("baseline", [None, "sos"])
def test_sweep_refuses_a_bad_value_before_running_any_point(monkeypatch, baseline):
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    with pytest.raises(ConfigError, match="gamma must lie in"):
        run_sweep(small(scheduler="sos_fec"), "gamma", [0.5, 1.5], baseline=baseline)
    assert runs == []


def test_object_size_sweep():
    rows = run_sweep(small(replications=30), "object_size", [1, 10, 100])
    assert [r.label.split("/")[0] for r in rows] == [
        "object_size=1", "object_size=10", "object_size=100"
    ]
    assert rows[0].p95_delay_ms < rows[2].p95_delay_ms


def test_sweep_baseline_shares_sources():
    rows = run_sweep(small(), "sigma", [1.0], baseline="sos", axis_path=1)
    # candidate vs itself on identical streams: exactly zero improvement
    assert rows[0].improvement_mean_pct == 0.0
    assert rows[0].improvement_p95_pct == 0.0


# -- CSV ---------------------------------------------------------------------


def test_write_csv_header_only(tmp_path):
    out = tmp_path / "r.csv"
    write_csv([], out)
    assert out.read_text().splitlines() == [
        "label,mean_delay_ms,p95_delay_ms,redundancy_fraction,"
        "improvement_mean_pct,improvement_p95_pct"
    ]


def test_write_csv_roundtrip(tmp_path):
    row = MetricsRow("x", 123.4567890123, 200.1, 0.25, None, -12.5)
    out = tmp_path / "r.csv"
    write_csv([row], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "x"
    assert float(cells[1]) == pytest.approx(row.mean_delay_ms, rel=1e-6)
    assert cells[4] == ""
    assert float(cells[5]) == pytest.approx(-12.5, rel=1e-6)


def test_estimated_sigma_cells_csv_is_pinned():
    # Estimated-mode sigma sweeps of all four schedulers against a SEDPF
    # baseline: the window moments, both greedy plans and the SOS splits
    # feed these bytes, so a speed-up of any of them that moves a result
    # bit fails here.
    rows = []
    for scheduler in SCHEDULERS:
        base = small(scheduler, object_size=100, replications=40, seed=23,
                     mode="estimated", warmup_packets=2000)
        rows += run_sweep(base, "sigma", [5.0, 20.0, 50.0], baseline="sedpf")
    out = io.StringIO()
    write_csv(rows, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "908c8f46148d0d5371e83a69d8f3eeb313cb4f21b09d8c22ecf8ca47120b43eb"
    )


def test_oracle_sigma_cells_csv_is_pinned():
    # The oracle counterpart: each cell plans once and draws its replications
    # in plan epochs, several epochs a cell at 2,500 replications.  The pin
    # was recorded with the per-replication loop the epoch runner replaced.
    rows = []
    for scheduler in SCHEDULERS:
        base = small(scheduler, object_size=100, replications=2500, seed=23, mode="oracle")
        rows += run_sweep(base, "sigma", [5.0, 20.0, 50.0], baseline="sedpf")
    out = io.StringIO()
    write_csv(rows, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "8b464ebf460e08de81952dd591a2dfc32d5b83051ba062747a51b3b725c6984a"
    )


def test_oracle_cell_memory_does_not_grow_with_replications():
    # Epochs bound an oracle cell's draws, so its memory is O(n), not
    # O(n * replications): 50 objects of 100,000 packets would need 38 MiB
    # of draws at once.  The per-replication loop peaked at 2.6 MiB here.
    cfg = small(object_size=100_000, replications=50)
    run_experiment(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- config files ------------------------------------------------------------


def test_parse_config(tmp_path):
    # Every key but the file names (test_cli_config_file_names_are_relative_to_the_config
    # covers those), each set to a value other than its field's default.
    f = tmp_path / "exp.cfg"
    f.write_text(
        "scheduler = sos_fec\nepsilon = 0.1\ngamma = 0.25\nobject_size = 20\nreplications = 50\n"
        "seed = 11\nmode = estimated\nwarmup_packets = 300\nack_return_ms = 1.5\n"
        "ordering = fifo\nlabel = every key\n\n"
        "[path]\nkind = deterministic\nmean_ms = 3\n\n"
        "[path]\nkind = gamma\nmean_ms = 12\nstddev_ms = 5\npropagation_ms = 2\nseed = 7\n"
    )
    cfg = parse_config(f)
    assert len(cfg.paths) == 2
    assert cfg.paths[0] == DelaySourceSpec(kind="deterministic", mean_ms=3.0)
    expected = {
        cfg: (dict(scheduler="sos_fec", epsilon=0.1, gamma=0.25, object_size=20, replications=50,
                   seed=11, mode="estimated", warmup_packets=300, ack_return_ms=1.5,
                   ordering="fifo", label="every key"), {"paths", "page_spec"}),
        cfg.paths[1]: (dict(kind="gamma", mean_ms=12.0, stddev_ms=5.0, propagation_ms=2.0, seed=7),
                       {"trace_path"}),
    }
    for built, (values, file_keys) in expected.items():
        assert set(values) == {f.name for f in fields(built)} - file_keys
        for field in fields(built):
            if field.name in values:
                got = getattr(built, field.name)
                assert got != field.default
                assert got == values[field.name] and type(got) is type(values[field.name])


def test_parse_config_unknown_key(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("bogus = 1\n\n[path]\nkind = deterministic\nmean_ms = 1\n")
    with pytest.raises(ConfigError):
        parse_config(f)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


def test_parse_config_bad_value_names_its_line(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(CONFIG_TEXT.replace("replications = 50", "replications = many"))
    with pytest.raises(ConfigError, match=re.escape(f"{f}:5: bad value for replications")):
        parse_config(f)


@pytest.mark.parametrize("old, new, line_no, message", [
    ("epsilon = 0.05", "epsilon 0.05", 3, "expected 'key = value'"),
    ("seed = 11", "sed = 11", 6, "unknown key 'sed'"),
    ("mean_ms = 12\n", "mean_ms = 12\nmean_ms = 30\n", 17,
     "'mean_ms' is already set on line 16 of this section"),
    ("replications = 50", "replications = many", 5, "bad value for replications"),
])
def test_parse_config_faults_carry_their_line(tmp_path, old, new, line_no, message):
    f = tmp_path / "exp.cfg"
    f.write_text(CONFIG_TEXT.replace(old, new))
    with pytest.raises(errors.ParseError) as exc:
        parse_config(f)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"{f}:{line_no}: {message}")


@pytest.mark.parametrize("old, new, where", [
    ("scheduler = sos\n", "scheduler = sos\nscheduler = edf\n", ":3: 'scheduler' is already set on line 2"),
    ("mean_ms = 12\n", "mean_ms = 12\nmean_ms = 30\n", ":17: 'mean_ms' is already set on line 16"),
])
def test_cli_repeated_key_in_one_section_exits_2(tmp_path, capsys, old, new, where):
    # the same key in two [path] sections is fine; CONFIG_TEXT has that
    f = tmp_path / "exp.cfg"
    f.write_text(CONFIG_TEXT.replace(old, new))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}{where} of this section\n"


def test_parse_config_requires_paths(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("object_size = 5\n")
    with pytest.raises(ConfigError):
        parse_config(f)


@pytest.mark.parametrize("scheduler, row", [
    ("sos", "x,29.8598,32.451,0,,"),
    ("sedpf", "x,29.1752,32.451,0,,"),
])
def test_oracle_page_experiment_parses_each_trace_twice(tmp_path, monkeypatch, scheduler, row):
    # once to build the source and once for its true statistics, however
    # many replications run
    paths = []
    for j, step in enumerate((3, 7)):
        trace = tmp_path / f"trace{j}.csv"
        trace.write_text("seq,delay_ms\n" + "".join(
            f"{i},{2.0 + j + (i * step) % 11 * 0.37 + (i % 3) * 0.013}\n" for i in range(300)
        ))
        paths.append(DelaySourceSpec(kind="trace", trace_path=str(trace), propagation_ms=1.0 * j))
    page = tmp_path / "page.csv"
    page.write_text("html,8,1,c1,1,t0\nimg,5,0,c2,0,dep:html:2\ncss,3,1,c1,1,dep:html:4\n")
    parses = []
    parse = delay_sources._parse_trace
    monkeypatch.setattr(delay_sources, "_parse_trace", lambda p: parses.append(p) or parse(p))
    config = ExperimentConfig(paths=tuple(paths), scheduler=scheduler, page_spec=page,
                              replications=5, seed=3, label="x")
    out = io.StringIO()
    write_csv([run_experiment(config)], out)
    assert len(parses) == 4
    assert out.getvalue().splitlines()[1] == row


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def config_file(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(CONFIG_TEXT)
    return f


def test_cli_run(config_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert out.read_text().startswith("label,")


def test_cli_run_stdout(config_file, capsys):
    assert main(["run", "--config", str(config_file)]) == 0
    assert capsys.readouterr().out.startswith("label,")


def test_cli_sweep_deterministic_bytes(config_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--config", str(config_file), "--axis", "sigma",
            "--values", "1,5", "--axis-path", "1", "--baseline", "edf"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_page(config_file, tmp_path):
    page = tmp_path / "page.csv"
    page.write_text("html,2,1,c1,1,t0\nimg,3,0,c2,0,dep:html:1\n")
    out = tmp_path / "out.csv"
    rc = main(["page", "--config", str(config_file), "--page-spec", str(page),
               "--out", str(out), "--ordering", "priority"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def test_cli_page_estimated_mode(config_file, tmp_path):
    page = tmp_path / "page.csv"
    page.write_text("html,2,1,c1,1,t0\nimg,3,0,c2,0,dep:html:1\n")
    out = tmp_path / "out.csv"
    rc = main(["page", "--config", str(config_file), "--page-spec", str(page),
               "--mode", "estimated", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def test_cli_page_estimated_without_warmup_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cold.cfg"
    cfg.write_text(CONFIG_TEXT.replace("mode = oracle", "mode = oracle\nwarmup_packets = 0"))
    page = tmp_path / "page.csv"
    page.write_text("html,2,1,c1,1,t0\nimg,3,0,c2,0,dep:html:1\n")
    out = tmp_path / "out.csv"
    rc = main(["page", "--config", str(cfg), "--page-spec", str(page),
               "--mode", "estimated", "--out", str(out)])
    assert rc == 2
    assert "no window samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    # a malformed line, then a byte that is not UTF-8
    for content, message in ((b"nonsense\n", "error:"),
                             (b"seed = 1\xff\n", "error: cannot read config")):
        f.write_bytes(content)
        assert main(["run", "--config", str(f)]) == 2
        assert capsys.readouterr().err.startswith(message)


def test_cli_missing_page_spec_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"html,2,1,c1,1,t0\xff\n")
    f = tmp_path / "page.cfg"
    for spec in (tmp_path / "absent.csv", undecodable):
        f.write_text(CONFIG_TEXT.replace("object_size = 20", f"page_spec = {spec}"))
        assert main(["page", "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read page spec") and spec.name in err


def test_cli_missing_trace_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"0,2.0\n1,3.0\xff\n")
    f = tmp_path / "trace.cfg"
    for trace in (tmp_path / "absent.csv", undecodable):
        f.write_text(CONFIG_TEXT + f"\n[path]\nkind = trace\ntrace_path = {trace}\n")
        assert main(["run", "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace") and trace.name in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("ack_return_ms = nan", "ack_return_ms"),
        ("warmup_packets = -7", "warmup_packets"),
        ("ordering = bogus", "ordering"),
        ("gamma = 7", "gamma"),
    ],
)
def test_cli_out_of_domain_setting_exits_2(tmp_path, capsys, setting, message):
    f = tmp_path / "bad.cfg"
    f.write_text(CONFIG_TEXT.replace("mode = oracle", f"mode = oracle\n{setting}"))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_cli_path_section_without_kind_exits_2(tmp_path, capsys):
    f = tmp_path / "nokind.cfg"
    f.write_text("object_size = 5\n\n[path]\nmean_ms = 5\n")
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: [path] section:") and "'kind'" in err


def test_cli_path_field_its_kind_never_reads_exits_2(tmp_path, capsys):
    f = tmp_path / "spread.cfg"
    f.write_text("object_size = 5\n\n[path]\nkind = deterministic\nmean_ms = 2\nstddev_ms = 50\n")
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: [path] section:") and "do not read stddev_ms" in err


def test_cli_negative_path_seed_exits_2(tmp_path, capsys):
    f = tmp_path / "seed.cfg"
    f.write_text(CONFIG_TEXT + "seed = -1\n")  # in the last [path] section
    assert main(["run", "--config", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {f}: [path] section: seed must be >= 0, got -1\n"


def test_cli_config_file_names_are_relative_to_the_config(tmp_path, monkeypatch, capsys):
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "t.csv").write_text("0,2.0\n1,3.5\n2,2.5\n")
    (probe / "page.csv").write_text("html,2,1,c1,1,t0\nimg,3,0,c2,0,dep:html:1\n")
    path = "\n[path]\nkind = trace\ntrace_path = t.csv\n"
    (probe / "run.cfg").write_text(CONFIG_TEXT + path)
    (probe / "page.cfg").write_text(CONFIG_TEXT.replace("object_size = 20", "page_spec = page.csv") + path)
    for command in ("run", "page"):
        outs = []
        for cwd, config in ((probe, f"{command}.cfg"), (tmp_path, f"probe/{command}.cfg")):
            monkeypatch.chdir(cwd)
            assert main([command, "--config", config]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("label,")


@pytest.mark.parametrize("out", [".", "missing/f.csv"])
def test_cli_unwritable_out_exits_2_before_running(config_file, tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(harness, "run_experiment", lambda config: ran.append(config))
    assert main(["run", "--config", str(config_file), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {out}: ") and err.count("\n") == 1
    assert ran == []


def test_cli_page_without_page_spec_exits_2(config_file, capsys):
    assert main(["page", "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.startswith("error: page command needs page_spec")


@pytest.mark.parametrize("axis, values", [("object_size", "1.5"), ("sigma", "1,x")])
def test_cli_malformed_sweep_values_exit_2(config_file, capsys, axis, values):
    assert main(["sweep", "--config", str(config_file), "--axis", axis,
                 "--values", values]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--values" in err


def test_epsilon_outside_unit_interval_rejected(tmp_path):
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError):
            SimConfig(epsilon=eps)
    f = tmp_path / "eps.cfg"
    f.write_text(CONFIG_TEXT.replace("epsilon = 0.05", "epsilon = 1.5"))
    assert main(["run", "--config", str(f)]) == 2


def test_cli_run_baseline_matches_separate_run(config_file, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config_file), "--baseline", "edf",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    config = parse_config(config_file)
    cand = run_experiment(config)
    ref = run_experiment(replace(config, scheduler="edf"))
    assert float(row[4]) == pytest.approx(
        improvement_pct(ref.mean_delay_ms, cand.mean_delay_ms), rel=1e-9)
    assert float(row[5]) == pytest.approx(
        improvement_pct(ref.p95_delay_ms, cand.p95_delay_ms), rel=1e-9)


def test_cli_seed_override(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--seed", "99"]) == 0
    out1 = capsys.readouterr().out
    assert main(["run", "--config", str(config_file), "--seed", "99"]) == 0
    assert capsys.readouterr().out == out1
