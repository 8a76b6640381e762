"""Command-line front end: simulate | compare | rates | density | schedule-diag | verify.

One table, _CONFIG_TYPES, gives the JSON type of every config key; it types
the dotted --set overrides and then checks the whole config (unknown keys and
wrong types are rejected).  Exit codes: 0 success, 2 config error (with a
line/key diagnostic), 3 numeric blow-up (with particle/step context).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import (
    METRIC_MEAN,
    METRIC_W2,
    METRICS,
    convergence_study,
    density_histogram,
    iid_convergence_study,
)
from .battery import run_battery
from .errors import BlowUpError, ConfigError, SpocError
from .schedules import SCHEDULE_KINDS, UpdateSchedule, schedule_diagnostics, theta_sequence
from .simulate import (
    ALGO_BATCH,
    ALGO_CLASSICAL,
    ALGO_SPOC,
    INITIAL_KINDS,
    MEASURE_BACKENDS,
    RUN_SCHEMA,
    SimConfig,
    batch_spoc_run,
    classical_poc_run,
    reference_run,
    save_run,
    spoc_run,
)
from . import svgplot

NO_FIT = "no fit (fewer than 3 milestones)"

# The JSON type of every config key: a dict is a section, [t] an array of t and
# [t, t] a pair, a tuple lists the types a value may take (None: null) and a set
# the strings it may be.
_CONFIG_TYPES = {
    "model": ({"name": str, "params": dict}, None),
    "schedule": {"kind": set(SCHEDULE_KINDS), "r": float, "q": float, "values": [float],
                 "max_n": int},
    "initial": {"kind": set(INITIAL_KINDS), "value": (float, [float]),
                "mean": (float, [float]), "std": float},
    "T": float, "M": int, "N": int, "seed": int, "replications": int,
    "batch_sizes": ([int], None), "checkpoints": [float], "milestones": [int],
    "measure_backend": set(MEASURE_BACKENDS), "store_paths": bool,
    "algorithm": {ALGO_SPOC, ALGO_BATCH, ALGO_CLASSICAL}, "metric": set(METRICS),
    "gamma": float, "window": int, "bins": int, "range": [float, float],
}
_REQUIRED = {"model": "name", "schedule": "kind", "initial": "kind"}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               set: "a string", dict: "an object", list: "an array", type(None): "null"}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _options(spec) -> tuple:
    return spec if isinstance(spec, tuple) else (spec,)


def _fits(value, spec) -> bool:
    """Whether value has the JSON type of a table entry, as JSON Schema counts
    types: a boolean is no number and 60.0 is an integer."""
    if isinstance(spec, (dict, list, set)):
        spec = str if isinstance(spec, set) else type(spec)
    if isinstance(value, bool) or spec is bool:
        return isinstance(value, bool) and spec is bool
    if spec is int and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, {float: (int, float), None: type(None)}.get(spec, spec))


def _check(value, spec, key: str) -> None:
    """Raise ConfigError naming the key unless value has the type spec gives."""
    fit = [s for s in _options(spec) if _fits(value, s)]
    if not fit:
        want = " or ".join(_TYPE_NAMES[s if isinstance(s, type) else type(s)]
                           for s in _options(spec))
        raise ConfigError(f"config key {key}: {value!r} is not {want}", key=key)
    spec = fit[0]
    if isinstance(spec, set) and value not in spec:
        raise ConfigError(f"config key {key}: {value!r} is not one of {sorted(spec)}", key=key)
    if isinstance(spec, list):
        if len(spec) > 1 and len(value) != len(spec):
            raise ConfigError(f"config key {key} needs {len(spec)} items", key=key)
        for i, item in enumerate(value):
            _check(item, spec[0], f"{key}.{i}")
    if isinstance(spec, dict):
        for k, v in value.items():
            name = f"{key}.{k}" if key else k
            if k not in spec:
                raise ConfigError(f"unknown config key {name!r}", key=name)
            _check(v, spec[k], name)
        need = _REQUIRED.get(key)
        if need is not None and need not in value:
            raise ConfigError(f"config key {key} needs {need!r}", key=f"{key}.{need}")


def _parse(raw: str, spec, key: str):
    """A --set value typed by its table entry; below a free-form object (spec
    None) it is a JSON literal or else the string itself."""
    for s in _options(spec):
        if s is str or isinstance(s, set):
            return raw
        try:
            if s is bool:
                return {"true": True, "1": True, "false": False, "0": False}[raw.lower()]
            return s(raw) if s in (int, float) else json.loads(raw)
        except (KeyError, ValueError):
            pass
    if spec is None:
        return raw
    raise ConfigError(f"override value {raw!r} does not parse as {key}", key=key)


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs KEY=VALUE, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    *path, leaf = key.split(".")
    spec, node = _CONFIG_TYPES, cfg
    for p in path + [leaf]:
        section = next((s for s in _options(spec) if isinstance(s, dict)), None)
        if section is not None and p not in section:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        spec = None if section is None else section[p]
    for p in path:
        if not isinstance(node.get(p), dict):
            node[p] = {}
        node = node[p]
    node[leaf] = _parse(raw, spec, key)


def _require(cfg: dict, keys: list[str]) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}", key=missing[0])


def _build_sim_config(cfg: dict, args) -> SimConfig:
    _require(cfg, ["model", "schedule", "initial", "T", "M", "N", "seed"])
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    return SimConfig.from_dict(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out or "runs/out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _table_outputs(out: Path, stem: str, table, fmt: str) -> None:
    table.to_csv(out / f"{stem}.csv")
    if fmt == "json":
        rows = [
            {"n": r.n, "err": r.estimate, "ci_lo": r.estimate - r.ci_half_width,
             "ci_hi": r.estimate + r.ci_half_width}
            for r in table.rows
        ]
        (out / f"{stem}.json").write_text(json.dumps(rows, indent=2))


def _cmd_simulate(cfg: dict, args) -> int:
    config = _build_sim_config(cfg, args)
    out = _out_dir(args)
    algorithm = cfg.get("algorithm", ALGO_SPOC)
    try:
        previous = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        previous = None  # missing or unreadable: the run is redone
    # a run saved in another schema is redone as well
    if isinstance(previous, dict) and previous.get("schema") == RUN_SCHEMA \
            and previous.get("complete") \
            and previous.get("config") == config.to_dict() \
            and previous.get("algorithm") == algorithm:
        print(f"run already complete in {out}; nothing to do")
        return 0
    # looked up per call, so that a runner replaced on this module is the one run
    runner = {ALGO_SPOC: spoc_run, ALGO_BATCH: batch_spoc_run,
              ALGO_CLASSICAL: classical_poc_run}[algorithm]
    result = runner(config, workers=args.workers)
    save_run(result, out)
    print(
        f"{algorithm}: N={config.N} M={config.M} replications={config.replications} "
        f"-> {out} ({result.wall_time_s:.2f}s, {result.n_steps} steps)"
    )
    return 0


def _cmd_compare(cfg: dict, args) -> int:
    config = _build_sim_config(cfg, args)
    out = _out_dir(args)
    milestones = tuple(cfg.get("milestones") or config.milestones)
    metric = cfg.get("metric", METRIC_MEAN)
    reference = reference_run(config.model, config)
    seq_table, seq_fit = convergence_study(
        config, milestones, metric, reference, algorithm="spoc", workers=args.workers
    )
    cls_table, cls_fit = convergence_study(
        config, milestones, metric, reference, algorithm="classical_poc", workers=args.workers
    )
    _table_outputs(out, f"sequential_{metric}", seq_table, args.format)
    _table_outputs(out, f"classical_{metric}", cls_table, args.format)
    svgplot.loglog_rate_plot(
        out / f"compare_{metric}.svg",
        {"sequential": (seq_table.ns(), seq_table.estimates()),
         "classical": (cls_table.ns(), cls_table.estimates())},
        title=f"sequential vs classical: {metric}",
        ref_slope=-0.5,
    )
    if seq_fit is None:
        print(f"{NO_FIT} -> {out}")
    else:
        print(f"sequential slope {seq_fit.slope:+.3f}, classical slope {cls_fit.slope:+.3f} -> {out}")
    return 0


def _cmd_rates(cfg: dict, args) -> int:
    out = _out_dir(args)
    metric = cfg.get("metric", METRIC_W2)
    milestones = cfg.get("milestones")
    if not milestones:
        raise ConfigError("rates requires milestones", key="milestones")
    if cfg.get("model") is None:
        _require(cfg, ["schedule", "seed"])
        schedule = UpdateSchedule.from_dict({"max_n": max(milestones), **cfg["schedule"]})
        seed = args.seed if args.seed is not None else cfg["seed"]
        table, fit = iid_convergence_study(
            schedule, milestones, int(cfg.get("replications", 20)), int(seed)
        )
    else:
        config = _build_sim_config(cfg, args)
        table, fit = convergence_study(
            config, milestones, metric,
            algorithm=cfg.get("algorithm", "spoc"), workers=args.workers,
        )
    _table_outputs(out, f"rates_{table.metric}", table, args.format)
    svgplot.loglog_rate_plot(
        out / f"rates_{table.metric}.svg",
        {table.metric: (table.ns(), table.estimates())},
        title=f"convergence rate: {table.metric}",
        ref_slope=-0.5,
    )
    if fit is None:
        print(f"{NO_FIT} -> {out}")
    else:
        print(f"fitted slope {fit.slope:+.4f} (stderr {fit.stderr:.4f}, "
              f"R^2 {fit.r_squared:.3f}) -> {out}")
    return 0


def _cmd_density(cfg: dict, args) -> int:
    config = _build_sim_config(cfg, args)
    if config.model.dim != 1:
        raise ConfigError("density requires a 1-d model", key="model")
    bins = int(cfg.get("bins", 40))
    if bins < 1:
        raise ConfigError("density needs bins >= 1", key="bins")
    rng = tuple(cfg["range"]) if cfg.get("range") else None
    config = replace(config, measure_backend="full_atoms")
    out = _out_dir(args)
    result = spoc_run(config, workers=args.workers)
    term = config.checkpoint_indices[-1]
    # every histogram first, so that a range error writes no file
    hists = {n: density_histogram(result.snapshots[(0, n, term)], bins, rng)
             for n in config.milestones}
    curves = {}
    for n, curve in hists.items():
        curve.to_csv(out / f"density_n{n}.csv")
        curves[f"n={n}"] = (curve.centers, curve.density)
    svgplot.density_plot(out / "density.svg", curves,
                         title=f"terminal density ({config.model.name})")
    print(f"densities at milestones {list(config.milestones)} -> {out}")
    return 0


def _cmd_schedule_diag(cfg: dict, args) -> int:
    _require(cfg, ["schedule", "gamma"])
    schedule = UpdateSchedule.from_dict(cfg["schedule"])
    diag = schedule_diagnostics(schedule, float(cfg["gamma"]), cfg.get("window"))
    out = _out_dir(args)
    (out / "diagnostics.json").write_text(json.dumps({
        "alpha_inf_est": diag.alpha_inf_est,
        "abar_est": diag.abar_est,
        "aunder_est": diag.aunder_est,
        "regime": diag.regime,
        "gamma": diag.gamma,
        "window": diag.window,
    }, indent=2))
    n_tab = min(schedule.max_n, 10000)
    theta = theta_sequence(schedule, n_tab)
    alphas = schedule.alphas(n_tab)
    stride = max(1, n_tab // 1000)
    with open(out / "theta.csv", "w") as fh:
        fh.write("n,alpha,theta\n")
        for i in range(0, n_tab, stride):
            fh.write(f"{i + 1},{alphas[i]!r},{theta[i]!r}\n")
    print(f"regime {diag.regime} (abar={diag.abar_est:.4g}, aunder={diag.aunder_est:.4g}, "
          f"alpha_inf={diag.alpha_inf_est:.4g}) -> {out}")
    return 0


def _cmd_verify(cfg: dict, args) -> int:
    checks = run_battery()
    width = max(len(c.name) for c in checks)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok &= c.passed
        print(f"[{status}] {c.name:<{width}}  {c.detail}")
    if args.out:
        out = _out_dir(args)
        (out / "verify.json").write_text(json.dumps(
            [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
            indent=2,
        ))
    return 0 if all_ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "rates": _cmd_rates,
    "density": _cmd_density,
    "schedule-diag": _cmd_schedule_diag,
    "verify": _cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoc",
        description="Sequential particle approximation of McKean-Vlasov dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="dotted-path config override (repeatable)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        for assignment in args.set:
            _apply_override(cfg, assignment)
        _check(cfg, _CONFIG_TYPES, "")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        where = f" [{exc.key}]" if exc.key else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return 3
    except SpocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
