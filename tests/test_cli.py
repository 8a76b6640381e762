import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spoc
from spoc.battery import run_battery
from spoc.cli import dispatch
from spoc.simulate import load_run


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"name": "mean_field_ou"},
        "schedule": {"kind": "harmonic", "max_n": 1000000},
        "initial": {"kind": "point", "value": 1.0},
        "T": 1.0,
        "M": 30,
        "N": 300,
        "seed": 2024,
        "replications": 2,
        "milestones": [50, 300],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def write_iid_config(tmp_path):
    # rates with no model reads schedule, seed, replications and milestones only
    path = tmp_path / "iid.json"
    path.write_text(json.dumps({"model": None, "schedule": {"kind": "harmonic"}, "seed": 7,
                                "replications": 5, "milestones": [128, 512, 2048]}))
    return path


def test_simulate_writes_manifest_and_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["algorithm"] == "spoc"
    assert (out / "summary.csv").exists()
    # rerun detects completeness and is a no-op
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0


def test_simulate_rerun_reproduces_outputs_bitwise(tmp_path):
    cfg = write_config(tmp_path, measure_backend="full_atoms", store_paths=True)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    files = sorted(str(p.relative_to(out1)) for p in out1.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(out2)) for p in out2.rglob("*") if p.is_file())
    # the paths are the atom store's full grid, in atoms.bin
    assert set(files) == {"manifest.json", "summary.csv", "atoms.bin"}
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_redoes_a_run_of_the_old_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, measure_backend="full_atoms", N=60, milestones=[20, 60])
    paths_cfg = write_config(tmp_path, "paths.json", N=60, milestones=[20, 60],
                             store_paths=True)
    out, paths_out = tmp_path / "run", tmp_path / "paths_run"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert dispatch(["simulate", "--config", str(paths_cfg), "--out", str(paths_out)]) == 0
    fresh = (paths_out / "atoms.bin").read_bytes()
    # the same complete run as spoc-run-v1 left it: one CSV per snapshot, no atoms.bin
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps({**manifest, "schema": "spoc-run-v1"}))
    (out / "atoms.bin").unlink()
    (out / "snapshots").mkdir()
    (out / "snapshots" / "rep0_n20_m30.csv").write_text("x0,weight\n1.0,1.0\n")
    # the paths run as spoc-run-v2 left it: the checkpoint columns in atoms.bin,
    # every grid column in paths.bin
    manifest = json.loads((paths_out / "manifest.json").read_text())
    (paths_out / "manifest.json").write_text(json.dumps({**manifest, "schema": "spoc-run-v2"}))
    (paths_out / "atoms.bin").write_bytes(fresh[:44] + fresh[44:][: len(fresh[44:]) // 31])
    (paths_out / "paths.bin").write_bytes(b"SPOCPATH" + fresh[8:])
    for c, o in ((cfg, out), (paths_cfg, paths_out)):
        capsys.readouterr()
        assert dispatch(["simulate", "--config", str(c), "--out", str(o)]) == 0
        assert "nothing to do" not in capsys.readouterr().out
        manifest = json.loads((o / "manifest.json").read_text())
        assert manifest["schema"] == "spoc-run-v3" and manifest["complete"] is True
        assert sorted(p.name for p in o.iterdir()) == ["atoms.bin", "manifest.json",
                                                       "summary.csv"]
    assert (paths_out / "atoms.bin").read_bytes() == fresh


@pytest.mark.parametrize("damage", ["missing", "truncated", "missing_summary",
                                    "truncated_summary"])
def test_simulate_redoes_a_run_with_a_broken_atom_store(tmp_path, capsys, damage):
    cfg = write_config(tmp_path, N=60, milestones=[20, 60], store_paths=True)
    out = tmp_path / "run"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    fresh = (out / "atoms.bin").read_bytes()
    summary = (out / "summary.csv").read_text()
    if damage == "missing":
        (out / "atoms.bin").unlink()
    elif damage == "truncated":
        (out / "atoms.bin").write_bytes(fresh[:-8])
    elif damage == "missing_summary":
        (out / "summary.csv").unlink()
    else:  # the last row cut off whole
        (out / "summary.csv").write_text(summary[: summary.rstrip("\n").rindex("\n") + 1])
    capsys.readouterr()
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "nothing to do" not in capsys.readouterr().out
    assert (out / "atoms.bin").read_bytes() == fresh
    assert (out / "summary.csv").read_text() == summary
    load_run(out)
    # an intact store is not redone
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_config_error_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus_key=12)
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_config_error_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n broken}')
    code = dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_config_error_type_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, N="many")
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "N" in capsys.readouterr().err


def test_set_overrides_typed(tmp_path):
    cfg = write_config(tmp_path, model={"name": "curie_weiss",
                                        "params": {"beta": 1.0, "K": 0.5, "sigma": 1.0}})
    out = tmp_path / "run"
    code = dispatch([
        "simulate", "--config", str(cfg), "--out", str(out),
        "--set", "model.params.beta=2.0", "--set", "N=100",
        "--set", "milestones=[100]",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["params"]["beta"] == 2.0
    assert manifest["config"]["N"] == 100


def test_set_override_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--set", "nonsense=1"])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("command, sets, key", [
    ("simulate", ["model.name=nope"], "model.name"),
    ("simulate", ['model.params={"gamma": 1.0}'], "model.params"),
    ("simulate", ['model={"name": "curie_weiss", "params": {"beta": "x"}}'], "model.params"),
    ("simulate", ["schedule.kind=geometric"], "schedule.q"),
    ("simulate", ["schedule.kind=power_law"], "schedule.r"),
    ("simulate", ["schedule.kind=geometric", "schedule.q=2"], "schedule"),
    ("simulate", ["schedule.kind=bogus"], "schedule.kind"),
    ("simulate", ['initial={"kind": "point"}'], "initial.value"),
    ("simulate", ["initial.kind=bogus"], "initial.kind"),
    ("simulate", ["initial.value=[1,2]"], "initial.value"),
    ("simulate", ["initial.value=nan"], "initial.value"),
    ("simulate", ["initial.kind=gaussian", "initial.std=nan"], "initial.std"),
    ("simulate", ["initial.kind=gaussian", "initial.std=inf"], "initial.std"),
    ("simulate", ["initial.kind=gaussian", "initial.mean=-inf"], "initial.mean"),
    ("simulate", ["measure_backend=bogus"], "measure_backend"),
    ("simulate", ["algorithm=bogus"], "algorithm"),
    ("simulate", ["n_ref=5"], "n_ref"),
    ("rates", ["algorithm=batch_spoc"], "algorithm"),
    ("rates", ["metric=bogus"], "metric"),
    ("density", ["bins=0"], "bins"),
    ("schedule-diag", ["gamma=-1"], "gamma"),
    ("schedule-diag", ["gamma=0.5", "window=0"], "window"),
    ("simulate", ["M=0"], "M"),
    ("simulate", ["T=inf"], "T"),
    ("density", ["range=[2,-2]"], "range"),
    ("density", ["range=[5,6]"], "range"),
    ("simulate", ["milestones=[]"], "milestones"),
    ("simulate", ["checkpoints=[]"], "checkpoints"),
    ("simulate", ["batch_sizes=[]"], "batch_sizes"),
    ("simulate", ["algorithm=classical_poc", "batch_sizes=[20, 30]"], "batch_sizes"),
    ("rates", ["model=null", "replications=0"], "replications"),
    ("rates", ["model=null", "milestones=[0,100]"], "milestones"),
    ("rates", ["model=null", "milestones=[100,10,50]"], "milestones"),
    ("simulate", ["--workers 0"], "workers"),
    ("simulate", ["--workers -3"], "workers"),
    ("simulate", ['schedule={"kind": "geometric", "q": 1e-10}'], "schedule"),
    ("simulate", ['schedule={"kind": "explicit", "values": [1.0, 0.5], "max_n": 2}'],
     "schedule"),
    ("rates", ['schedule={"kind": "geometric", "q": 1e-10}'], "schedule"),
    ("compare", ['schedule={"kind": "geometric", "q": 1e-10}'], "schedule"),
    ("density", ['schedule={"kind": "geometric", "q": 1e-10}'], "schedule"),
    ("rates", ["model=null", 'schedule={"kind": "geometric", "q": 1e-10, "max_n": 20}'],
     "schedule"),
    ("schedule-diag", ['schedule={"kind": "geometric", "q": 0.4}', "gamma=0.5"], "schedule"),
    ("density", ["checkpoints=[1.0, 0.5]"], "checkpoints"),
    ("simulate", ["checkpoints=[NaN]"], "checkpoints"),
    ("simulate", ["checkpoints=[Infinity]"], "checkpoints"),
    ("density", ["range=[-Infinity, 1]"], "range"),
    ("simulate", ["model.name=curie_weiss", 'model.params={"beta": true}'], "model.params"),
    ("simulate", [], None),
], ids=["unknown_model", "unknown_param", "non_numeric_param", "geometric_without_q",
        "power_law_without_r", "geometric_q_out_of_range", "unknown_schedule_kind",
        "point_without_value", "unknown_initial_kind", "value_of_wrong_dim", "nan_value",
        "nan_std", "infinite_std", "infinite_mean", "unknown_backend",
        "unknown_algorithm", "n_ref", "rates_batch_spoc", "unknown_metric", "zero_bins",
        "negative_gamma", "zero_window", "zero_steps", "infinite_horizon", "reversed_range",
        "empty_range", "empty_milestones", "empty_checkpoints", "empty_batch_sizes",
        "classical_batch_sizes",
        "iid_zero_replications", "iid_zero_milestone", "iid_unordered_milestones",
        "zero_workers", "negative_workers", "geometric_shorter_than_n",
        "explicit_shorter_than_n", "rates_geometric_shorter_than_n",
        "compare_geometric_shorter_than_n", "density_geometric_shorter_than_n",
        "iid_geometric_shorter_than_milestone", "diag_geometric_shorter_than_max_n",
        "unordered_checkpoints", "nan_checkpoint", "infinite_checkpoint", "infinite_range",
        "boolean_param",
        "truncated_manifest"])
def test_config_mistakes_and_truncated_manifest(tmp_path, capsys, command, sets, key):
    if "model=null" in sets:
        cfg = write_iid_config(tmp_path)
    else:
        cfg = write_config(tmp_path, N=50, milestones=[50])
    out = tmp_path / "o"
    if key is None:
        # an interrupted save leaves a truncated manifest: the run is redone
        out.mkdir()
        (out / "manifest.json").write_text('{"schema": "spoc-run-v1", "comp')
    argv = [command, "--config", str(cfg), "--out", str(out)]
    # an entry that starts with "--" is a command-line option, any other a --set
    code = dispatch(argv + [a for s in sets
                            for a in (s.split() if s.startswith("--") else ("--set", s))])
    if key is None:
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["complete"] is True
    else:
        assert code == 2
        assert f"[{key}]" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sets, key", [
    (["N=5", "M=0"], "M"),
    (['initial={"kind": "point", "value": 1.0}'], "initial"),
    (["metric=mean_abs_err"], "metric"),
], ids=["run_keys", "initial", "metric"])
def test_rates_iid_config_mistakes(tmp_path, capsys, sets, key):
    out = tmp_path / "o"
    argv = ["rates", "--config", str(write_iid_config(tmp_path)), "--out", str(out)]
    assert dispatch(argv + [a for s in sets for a in ("--set", s)]) == 2
    assert f"[{key}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, sets, expected", [
    ({"N": 60.0, "M": 30.0}, [], {"N": 60, "M": 30}),
    ({}, ["store_paths=1"], {"store_paths": True, "measure_backend": "full_atoms"}),
    ({}, ["T=.5", "seed=007", "store_paths=false"], {"T": 0.5, "seed": 7, "store_paths": False}),
    ({}, ["model.name=repulsive3d", "initial.value=[1,0,0]"],
     {"initial": {"kind": "point", "value": [1.0, 0.0, 0.0]}}),
    ({"initial": {"kind": "gaussian", "mean": [0, 1, 2], "std": 1}},
     ["model.name=repulsive3d", "initial.mean=1.5"],
     {"initial": {"kind": "gaussian", "mean": [1.5], "std": 1.0}}),
    # a schedule keeps the max_n it is given, and otherwise takes its kind's default
    ({}, ['schedule={"kind": "geometric", "q": 0.5, "max_n": 20}'],
     {"schedule": {"kind": "geometric", "max_n": 20, "q": 0.5}}),
    ({}, ['schedule={"kind": "harmonic"}'], {"schedule": {"kind": "harmonic", "max_n": 1000000}}),
], ids=["integer_valued_floats", "store_paths_1", "number_spellings", "point_vector",
        "gaussian_scalar_mean", "geometric_max_n_below_n", "default_max_n"])
def test_config_spellings(tmp_path, overrides, sets, expected):
    cfg = write_config(tmp_path, **{"N": 60, "milestones": [60], **overrides})
    out = tmp_path / "o"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert dispatch(argv + [a for s in sets for a in ("--set", s)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert json.dumps({k: config[k] for k in expected}) == json.dumps(expected)


def test_cli_imports_without_jsonschema():
    src = str(Path(spoc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = 'import sys; sys.modules["jsonschema"] = None; import spoc.cli'
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_and_simulate_load_no_scipy(tmp_path):
    # scipy is loaded only by the exact transport solvers, the i.i.d. study's
    # default quantile and the theory functions, and the process pool only by
    # runs with workers > 1
    src = str(Path(spoc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg, out = write_config(tmp_path, N=60, milestones=[60]), tmp_path / "o"
    code = (
        "import sys\n"
        "PREFIXES = ('scipy', 'concurrent.futures', 'multiprocessing')\n"
        "def heavy_modules(): return sorted(m for m in sys.modules if m.startswith(PREFIXES))\n"
        "import spoc.cli\n"
        "assert not heavy_modules(), heavy_modules()\n"
        f"assert spoc.cli.dispatch(['simulate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
        "assert not heavy_modules(), heavy_modules()\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.json").exists()


_R3 = dict(model={"name": "repulsive3d"}, initial={"kind": "point", "value": [1.0, 0.0, 0.0]})
_CURIE = dict(model={"name": "curie_weiss"}, initial={"kind": "gaussian", "mean": 0.5, "std": 1.0})


@pytest.mark.parametrize("command, overrides", [
    ("rates", dict(metric="w2_to_reference")),
    ("rates", dict(metric="w2_to_reference", **_R3)),
    ("compare", _CURIE),
    ("rates", None),
], ids=["rates_exact_w2", "rates_sliced_w2", "compare", "rates_iid"])
def test_study_commands_load_no_scipy_stats(tmp_path, command, overrides):
    # the rate fit is numpy's, so studies with a model load no scipy, and the
    # i.i.d. study loads only scipy.special for its default quantile
    src = str(Path(spoc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if overrides is None:
        cfg = write_iid_config(tmp_path)
    else:  # three milestones, so that the command fits a rate
        cfg = write_config(tmp_path, N=60, milestones=[15, 30, 60], **overrides)
    out = tmp_path / "o"
    code = (
        "import json, sys\n"
        "import spoc.cli\n"
        f"assert spoc.cli.dispatch([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "slope" in done.stdout
    loaded = json.loads(done.stdout.splitlines()[-1])
    if overrides is None:
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m.startswith("scipy.stats")], loaded
    else:
        assert loaded == [], loaded


@pytest.mark.parametrize("schedule", [
    {"kind": "geometric", "q": 0.99},
    {"kind": "explicit", "values": [1.0 / n for n in range(1, 61)]},
], ids=["geometric", "explicit"])
@pytest.mark.parametrize("command", ["rates", "compare"])
def test_studies_with_a_surrogate_reference_take_any_schedule(tmp_path, capsys, command,
                                                               schedule):
    # the classical surrogate reference runs 10 N particles but reads no rate
    cfg = write_config(tmp_path, N=60, M=10, milestones=[15, 30, 60], schedule=schedule,
                       metric="mean_abs_err", **_CURIE)
    assert dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "slope" in capsys.readouterr().out


# curie_weiss from 60 blows up in the run, and under rates already in its
# classical surrogate reference; OU at dt = 100 blows up already in its
# moment-closure reference, which rates and compare build first
_CURIE_BLOWUP = dict(
    model={"name": "curie_weiss", "params": {"beta": 1.0, "K": 0.5, "sigma": 1.0}},
    initial={"kind": "point", "value": 60.0},
    N=20, milestones=[20], replications=1,
)
_OU_BLOWUP = dict(T=20000.0, M=200, N=50, milestones=[10, 20, 50])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, overrides, culprit", [
    ("simulate", _CURIE_BLOWUP, "numeric blow-up: particle"),
    ("rates", _OU_BLOWUP, "numeric blow-up: moment-closure reference: particle"),
    ("compare", _OU_BLOWUP, "numeric blow-up: moment-closure reference: particle"),
    ("rates", _CURIE_BLOWUP, "numeric blow-up: surrogate-classical reference: particle"),
], ids=["simulate", "rates", "compare", "rates_surrogate"])
def test_blowup_exit_code(tmp_path, capsys, command, overrides, culprit):
    cfg = write_config(tmp_path, **overrides)
    code = dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(culprit) and "step" in err


def test_rates_iid_mode(tmp_path, capsys):
    cfg = tmp_path / "iid.json"
    cfg.write_text(json.dumps({
        "model": None,
        "schedule": {"kind": "harmonic", "max_n": 100000},
        "seed": 7,
        "replications": 5,
        "milestones": [128, 512, 2048],
    }))
    out = tmp_path / "rates"
    assert dispatch(["rates", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    assert (out / "rates_w2_sq_to_reference.csv").exists()
    assert (out / "rates_w2_sq_to_reference.json").exists()
    svg = (out / "rates_w2_sq_to_reference.svg").read_text()
    assert svg.startswith("<svg") and "slope -0.5" in svg
    assert "slope" in capsys.readouterr().out


def test_rates_sde_mode(tmp_path):
    cfg = write_config(tmp_path, N=600, milestones=[75, 300, 600],
                       replications=3, metric="mean_abs_err",
                       measure_backend="summary_only")
    out = tmp_path / "rates_sde"
    assert dispatch(["rates", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "rates_mean_abs_err.csv").read_text().strip().split("\n")
    assert text[0] == "n,err,ci_lo,ci_hi"
    assert len(text) == 4


def test_compare_outputs_matched_tables(tmp_path):
    cfg = write_config(tmp_path, N=400, milestones=[100, 200, 400], replications=3,
                       measure_backend="summary_only")
    out = tmp_path / "cmp"
    assert dispatch(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    seq = (out / "sequential_mean_abs_err.csv").read_text().strip().split("\n")
    cls = (out / "classical_mean_abs_err.csv").read_text().strip().split("\n")
    seq_ns = [row.split(",")[0] for row in seq[1:]]
    cls_ns = [row.split(",")[0] for row in cls[1:]]
    assert seq_ns == cls_ns == ["100", "200", "400"]
    assert (out / "compare_mean_abs_err.svg").exists()


@pytest.mark.parametrize("command", ["rates", "compare"])
def test_two_milestones_report_no_fit(tmp_path, capsys, command):
    cfg = write_config(tmp_path, N=100, milestones=[50, 100], replications=2,
                       metric="mean_abs_err", measure_backend="summary_only")
    out = tmp_path / command
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert "no fit (fewer than 3 milestones)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["rates", "compare"])
def test_all_zero_errors_write_tables_and_no_plot(tmp_path, capsys, command):
    # at t = 0 every particle sits at the point initial value, as does the
    # reference, so every error is 0 and a log-log plot has nothing to show
    cfg = write_config(tmp_path, N=60, milestones=[15, 30, 60], checkpoints=[0.0])
    out = tmp_path / command
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 0
    tables = sorted(p.name for p in out.iterdir())
    assert tables and all(name.endswith(".csv") for name in tables)
    for name in tables:
        rows = (out / name).read_text().strip().split("\n")[1:]
        assert len(rows) == 3 and all(row.split(",")[1] == "0.0" for row in rows)
    printed = capsys.readouterr().out
    assert "no plot: no error is positive" in printed
    # three milestones, but errors of 0 have no logarithm: no slope, and the reason
    assert "slope" not in printed
    assert "no fit (a milestone's mean error is not positive)" in printed


@pytest.mark.parametrize("command", ["rates", "compare"])
def test_schedule_is_checked_before_the_reference(tmp_path, monkeypatch, capsys, command):
    # a schedule that cannot serve the largest milestone exits before any
    # reference run, whose 10N-particle surrogate would be wasted work
    def no_reference_run(*args, **kwargs):
        raise AssertionError("reference_run called before the schedule check")

    monkeypatch.setattr(spoc.cli, "reference_run", no_reference_run)
    monkeypatch.setattr(spoc.analysis, "reference_run", no_reference_run)
    cfg = write_config(tmp_path, model={"name": "curie_weiss"}, N=60, milestones=[15, 30, 60],
                       schedule={"kind": "geometric", "q": 1e-10})
    out = tmp_path / command
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[schedule]" in capsys.readouterr().err
    assert not out.exists()


def test_density_outputs(tmp_path):
    cfg = write_config(tmp_path, N=500, milestones=[100, 500], replications=1,
                       bins=24, range=[-2.0, 2.0])
    out = tmp_path / "dens"
    assert dispatch(["density", "--config", str(cfg), "--out", str(out)]) == 0
    for n in (100, 500):
        rows = (out / f"density_n{n}.csv").read_text().strip().split("\n")
        assert rows[0] == "bin_lo,bin_hi,density"
        assert len(rows) == 25
    assert (out / "density.svg").exists()


def test_schedule_diag(tmp_path, capsys):
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps({"schedule": {"kind": "power_law", "r": 0.5,
                                            "max_n": 10000}, "gamma": 0.5}))
    out = tmp_path / "diag"
    assert dispatch(["schedule-diag", "--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["regime"] == "rate_alpha_gamma"
    assert (out / "theta.csv").exists()
    assert "rate_alpha_gamma" in capsys.readouterr().out


def test_verify_battery_passes(tmp_path, capsys):
    assert dispatch(["verify", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    results = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(item["passed"] for item in results)


def test_battery_checks_named():
    names = {c.name for c in run_battery()}
    assert {"theta_harmonic_identity", "transport_lp_vs_quantile",
            "f_profile_battery"} <= names


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, N=100, milestones=[100], replications=1)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out_b),
                     "--seed", "999"]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out_c),
                     "--seed", "999"]) == 0
    summary_a = (out_a / "summary.csv").read_text()
    summary_b = (out_b / "summary.csv").read_text()
    assert summary_a != summary_b  # different seed, different draws
    assert summary_b == (out_c / "summary.csv").read_text()
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 999


def test_workers_flag_keeps_outputs_identical(tmp_path):
    cfg = write_config(tmp_path, N=200, milestones=[200], replications=4)
    out_a, out_b = tmp_path / "w1", tmp_path / "w4"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out_a),
                     "--workers", "1"]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out_b),
                     "--workers", "4"]) == 0
    assert (out_a / "summary.csv").read_text() == (out_b / "summary.csv").read_text()


def test_simulate_runs_the_runner_bound_on_the_module(tmp_path, monkeypatch):
    # a wrapper put on spoc.cli after import, as the benchmark's tracer does, sees the run
    calls = []

    def counting_spoc_run(config, workers=1):
        calls.append(config.N)
        return spoc.simulate.spoc_run(config, workers=workers)

    monkeypatch.setattr(spoc.cli, "spoc_run", counting_spoc_run)
    cfg = write_config(tmp_path, N=60, milestones=[60])
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == [60]


def test_density_rejects_a_reversed_range_before_the_run(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_spoc_run(config, workers=1):
        calls.append(config.N)
        return spoc.simulate.spoc_run(config, workers=workers)

    monkeypatch.setattr(spoc.cli, "spoc_run", counting_spoc_run)
    cfg = write_config(tmp_path, N=60, milestones=[60], range=[2.0, -2.0])
    assert dispatch(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[range]" in capsys.readouterr().err
    assert calls == []
