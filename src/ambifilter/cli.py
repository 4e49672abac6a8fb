"""Config-driven experiment runner.

Configuration format: UTF-8 text, one `section.key = value` per line, `#`
comments. Coefficients are preset calls like `tanh(0.2)`. `load_config`
reports every problem in the file and the flags, not just the first. An
`ExperimentConfig` built in the library runs the same converters on its
settings, so it gets the same range checks and raises at the first problem.
A subcommand returns its tables, which are written as CSV into the run
directory (a rerun removes the old ones) only once it has succeeded; then
manifest.json lists them. A directory without a manifest is an incomplete run.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure
(degenerate cloud, ill-conditioned basis, bad data), 3 fixed-point
non-convergence.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import numbers
import re
import resource
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bsde import solve_worst_value
from .errors import AmbiFilterError, ConfigError, InvalidArgumentError
from .features import RegressionBasis
from .filtering import innovation_path, run_filter
from .minimax import (FilterRule, PicardConfig, minimax_gap, picard_solve,
                      saddle_probes)
from .model import ModelSpec, build_time_grid, simulate_bundle
from .oracles import (LinearGaussianSpec, finite_signal_estimates,
                      finite_signal_filter, grid_sup_cost, kalman_bucy,
                      make_finite_surrogate, particle_filter_on_surrogate,
                      sign_pattern_family, simulate_finite_signal)
from .policies import time_table_policy, zero_policy
from .presets import CoefPreset, make_coef

_PRESET_RE = re.compile(r"^([a-z_]+)\s*(?:\(([^)]*)\))?$")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    n_steps: int = 50
    n_paths: int = 2000
    n_particles: int = 500
    seed: int = 12345
    bsde_degree: int = 3
    picard_max_iters: int = PicardConfig.max_iters
    picard_tol: float = PicardConfig.tol
    k_grid: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)
    rule_particles: int = 250
    out_dir: str = "runs"
    label: str = "run"

    def __post_init__(self):
        # each setting goes through its config key's converter: a config built
        # in the library is range-checked like a config line, and the digest,
        # which hashes repr, sees 2000 and np.int64(2000), or a list and a
        # tuple of radii, as one computation
        for key, (name, conv) in _SETTINGS.items():
            if not key.startswith("model."):
                try:
                    object.__setattr__(self, name, conv(getattr(self, name)))
                except ValueError as exc:
                    raise InvalidArgumentError(str(exc)) from None

    @property
    def digest(self) -> str:
        """Hash of the converted settings, defaults included, naming what a
        run computes; out_dir and label only say where its outputs go."""
        named = repr(replace(self, out_dir="", label=""))
        return hashlib.sha256(named.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_digest: str
    seed: int
    version: str
    wall_clock_s: float
    cpu_clock_s: float    # process CPU over all threads; >> wall when BLAS workers spin
    peak_rss_mb: float    # peak resident memory of the process so far, in MiB
    artifacts: tuple[dict, ...]
    status: str
    error: Optional[str] = None
    extras: dict = field(default_factory=dict)
    fp_warnings: tuple[dict, ...] = ()


def _parse_preset(raw: str) -> CoefPreset:
    m = _PRESET_RE.match(raw.strip())
    if not m:
        raise InvalidArgumentError(f"cannot parse preset {raw!r}; expected name(p1, p2, ...)")
    name, args = m.group(1), m.group(2)
    params = []
    if args and args.strip():
        params = [float(tok) for tok in args.split(",")]
    if not all(math.isfinite(v) for v in params):
        raise InvalidArgumentError(f"preset parameters must be finite, got {raw!r}")
    return make_coef(name, *params)


def _int_at_least(name, lo=1):
    def conv(s):
        # int() would truncate a number; only a string or an integral value converts
        if not isinstance(s, (str, numbers.Integral)) and not float(s).is_integer():
            raise ValueError(f"not an integer: {name} got {s!r}")
        v = int(s)
        if v < lo:
            raise ValueError(f"out of range: {name} must be >= {lo}, got {v}")
        return v
    return conv


def _float_in(name, lo, hi):
    def conv(s):
        v = float(s)
        if not (math.isfinite(v) and lo <= v <= hi):
            raise ValueError(f"out of range: {name} must be finite and in "
                             f"[{lo}, {hi}], got {v}")
        return v
    return conv


def _radius_list(s):
    ks = tuple(float(tok) for tok in (s.split(",") if isinstance(s, str) else s))
    if not ks or not all(math.isfinite(v) and v >= 0 for v in ks):
        raise ValueError("out of range: worst_case.k_grid needs one or more "
                         f"entries, each finite and >= 0, got {list(ks)}")
    return ks


# config key -> (field, converter). model.* keys fill ModelSpec fields, the
# rest ExperimentConfig fields; an absent key keeps the field's default.
_SETTINGS = {
    "model.b": ("b", _parse_preset),
    "model.sigma": ("sigma", _parse_preset),
    "model.h": ("h", _parse_preset),
    "model.f": ("f", _parse_preset),
    "model.x0": ("x0", _float_in("model.x0", -math.inf, math.inf)),
    "model.T": ("T", _float_in("model.T", 1e-9, math.inf)),
    "model.k": ("k", _float_in("model.k", 0.0, math.inf)),
    "grid.n_steps": ("n_steps", _int_at_least("grid.n_steps")),
    "mc.n_paths": ("n_paths", _int_at_least("mc.n_paths", lo=2)),  # se needs 2
    "mc.n_particles": ("n_particles", _int_at_least("mc.n_particles", lo=2)),
    "mc.seed": ("seed", _int_at_least("mc.seed", lo=0)),
    "bsde.degree": ("bsde_degree", _int_at_least("bsde.degree")),
    "picard.max_iters": ("picard_max_iters", _int_at_least("picard.max_iters")),
    "picard.tol": ("picard_tol", _float_in("picard.tol", 0.0, 1.0)),
    "worst_case.k_grid": ("k_grid", _radius_list),
    "worst_case.rule_particles": ("rule_particles",
                                  _int_at_least("worst_case.rule_particles", lo=2)),
    "output.dir": ("out_dir", str),
    "output.label": ("label", str),
}
# command-line flag -> the config key it overrides; the value reaches that
# key's converter as typed, so a bad flag reads like a bad config line
_FLAGS = {"--seed": "mc.seed", "--k": "model.k", "--n-paths": "mc.n_paths",
          "--n-particles": "mc.n_particles", "--out-dir": "output.dir"}
_MODEL_DEFAULTS = {"x0": 0.0, "T": 1.0, "k": 0.0}
_REQUIRED = ("model.b", "model.sigma", "model.h", "model.f")
# similarity an unknown key needs for a did-you-mean hint; at difflib's 0.6 a
# removed key such as picard.damping would be sent to picard.max_iters
_HINT_CUTOFF = 0.7


def load_config(path: str | Path, flags: Optional[dict] = None) -> ExperimentConfig:
    """Parse a config file, let each entry of `flags` (a `_FLAGS` flag such
    as "--seed" -> its value as typed) replace the key it names, and validate
    the merged settings; raises ConfigError carrying every problem found in
    the file and the flags, unknown flags included."""
    path = Path(path)
    problems: list[str] = []
    values: dict = {}
    where: dict[str, str] = {}   # key -> where its value came from
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is not part of a key
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file is not UTF-8: {exc}"])
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc.strerror}"])

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'section.key = value', got {stripped!r}")
            continue
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SETTINGS:
            hint = difflib.get_close_matches(key, _SETTINGS, n=1, cutoff=_HINT_CUTOFF)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            problems.append(f"line {lineno}: unknown key {key!r}{suffix}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        values[key] = val
        where[key] = f"line {lineno}: {key}"
    for flag, val in (flags or {}).items():
        if flag not in _FLAGS:
            problems.append(f"unknown flag {flag!r}")
            continue
        values[_FLAGS[flag]] = val
        where[_FLAGS[flag]] = flag

    for key in _REQUIRED:
        if key not in values:
            problems.append(f"missing required key {key!r}")
    model_kw: dict = {}
    config_kw: dict = {}
    for key, (name, conv) in _SETTINGS.items():
        if key not in values:
            continue
        try:
            (model_kw if key.startswith("model.") else config_kw)[name] = conv(values[key])
        except (ValueError, InvalidArgumentError) as exc:
            problems.append(f"{where[key]}: {exc}")

    model = None
    if not problems:  # every required preset is present and parsed
        try:
            model = ModelSpec(**{**_MODEL_DEFAULTS, **model_kw})
        except InvalidArgumentError as exc:
            # x0, T and k are range-checked above, so only sigma can fail here
            problems.append(f"{where['model.sigma']}: {exc}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(model=model, **config_kw)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: Sequence[str], rows) -> dict:
    body = ",".join(header) + "\n"
    body += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    data = body.encode("utf-8")
    path.write_bytes(data)
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def _cmd_simulate(config: ExperimentConfig):
    grid = build_time_grid(config.model.T, config.n_steps)
    bundle = simulate_bundle(config.model, zero_policy(), grid, config.n_paths,
                             config.seed, measure="P")
    rows = []
    for i in range(bundle.n_paths):
        for j, t in enumerate(grid.times):
            rows.append((t, i, bundle.X[i, j], bundle.Y[i, j], bundle.M[i, j],
                         bundle.log_density[i, j]))
    return ([(["t", "path_id", "X", "Y", "M", "log_density"], rows)],
            {"n_paths": config.n_paths})


def _filter_one_path(config: ExperimentConfig, grid):
    """One P path under the zero policy, and the particle filter run on it."""
    bundle = simulate_bundle(config.model, zero_policy(), grid, 1, config.seed,
                             measure="P")
    fp = run_filter(config.model, zero_policy(), bundle.Y[0], config.n_particles,
                    config.seed)
    return bundle, fp


def _cmd_filter(config: ExperimentConfig):
    grid = build_time_grid(config.model.T, config.n_steps)
    bundle, fp = _filter_one_path(config, grid)
    nu = innovation_path(bundle.Y[0], fp.pi_h, grid)
    rows = [(grid.times[j], bundle.X[0, j], bundle.Y[0, j], fp.u[j], fp.pi_h[j],
             nu[j], fp.ess[j]) for j in range(grid.n_steps + 1)]
    return ([(["t", "X", "Y", "u", "pi_h", "nu", "ess"], rows)],
            {"n_particles": config.n_particles})


def _require_bounded(model: ModelSpec, what: str) -> None:
    if not model.h1_compliant:
        raise ConfigError([f"{what} needs bounded model.h and model.f; a sloped "
                           "linear or identity preset is unbounded"])


def _cmd_worst_case(config: ExperimentConfig):
    _require_bounded(config.model, "worst-case")
    grid = build_time_grid(config.model.T, config.n_steps)
    basis = RegressionBasis("poly_xu", config.bsde_degree)
    rule = FilterRule(zero_policy(), config.rule_particles, config.seed)
    # neither the P paths nor the zero-policy filter read the ambiguity radius
    bundle = simulate_bundle(config.model, zero_policy(), grid, config.n_paths,
                             config.seed, measure="P")
    u = rule.evaluate(config.model, grid, bundle.Y)
    rows = []
    for kv in config.k_grid:
        model_k = replace(config.model, k=float(kv))
        sol = solve_worst_value(bundle, u, model_k, basis)
        family = sign_pattern_family(float(kv), 3, model_k.T)
        sup = grid_sup_cost(model_k, rule, family, config.n_paths, config.seed, grid)
        rel = abs(sol.y0 - sup.J_worst) / max(sup.J_worst, 1e-12)
        rows.append((kv, sol.y0, sup.J_worst, sup.se_worst, rel))
    return ([(["k", "J_bsde", "J_grid", "se_grid", "rel_diff"], rows)],
            {"k_grid": list(config.k_grid)})


def _cmd_picard(config: ExperimentConfig):
    if config.model.k > 0:
        _require_bounded(config.model, "picard with model.k > 0")
    pc = PicardConfig(n_paths=config.n_paths, n_particles=config.n_particles,
                      n_steps=config.n_steps, seed=config.seed,
                      max_iters=config.picard_max_iters, tol=config.picard_tol)
    report = picard_solve(config.model, pc)
    probes = saddle_probes(config.model, report, n_policy_probes=10,
                           deltas=(0.05, -0.05, 0.1, -0.1),
                           n_paths=config.n_paths, seed=config.seed,
                           n_steps=config.n_steps)
    tables = [(["iter", "J", "sign_agreement"],
               [(it.index, it.J, it.sign_agreement) for it in report.iterations]),
              (["probe_kind", "probe_id", "J", "se"],
               [(p.kind, p.probe_id, p.report.J, p.report.se) for p in probes])]
    return tables, {"converged": report.converged,
                    "iterations": len(report.iterations),
                    "J_final": report.final_cost.J,
                    "u_digest": report.final_rule.digest()}


def _default_grids(config: ExperimentConfig):
    k, T = config.model.k, config.model.T
    policies = [zero_policy()]
    if k > 0:
        policies += [time_table_policy([k], T, k),
                     time_table_policy([-k], T, k),
                     time_table_policy([k, -k], T, k),
                     time_table_policy([-k, k], T, k)]
    rules = [FilterRule(p, config.rule_particles, config.seed) for p in policies]
    return rules, policies


def _cmd_minimax_gap(config: ExperimentConfig):
    rules, policies = _default_grids(config)
    rep = minimax_gap(config.model, rules, policies, config.n_paths, config.seed,
                      n_steps=config.n_steps)
    rows = [("grid_cell", f"u{i}_th{j}", rep.J[i, j], rep.se[i, j])
            for i in range(rep.J.shape[0]) for j in range(rep.J.shape[1])]
    return ([(["probe_kind", "probe_id", "J", "se"], rows)],
            {"min_sup": rep.min_sup, "sup_min": rep.sup_min, "gap": rep.gap,
             "argmin_control": rep.argmin_control, "argmax_policy": rep.argmax_policy})


def _kalman_compatible(model: ModelSpec) -> Optional[LinearGaussianSpec]:
    b, s, h, f = (c.affine for c in (model.b, model.sigma, model.h, model.f))
    if model.k != 0.0 or None in (b, s, h, f) or b[0] != 0.0 or s[1] != 0.0 \
            or h[0] != 0.0 or f != (0.0, 1.0):
        return None
    return LinearGaussianSpec(a=b[1], sigma=s[0], c=h[1], x0=model.x0, T=model.T)


def _cmd_oracle_check(config: ExperimentConfig):
    model = config.model
    grid = build_time_grid(model.T, config.n_steps)
    spec = _kalman_compatible(model)
    if spec is not None:
        bundle, fp = _filter_one_path(config, grid)
        u_oracle, _ = kalman_bucy(spec, bundle.Y[0], grid)
        u_part = fp.u
        extras = {"oracle": "kalman_bucy",
                  "rmse": float(np.sqrt(np.mean((u_part - u_oracle) ** 2)))}
    elif model.h1_compliant:
        sd = float(model.sigma.value(model.x0)) * np.sqrt(model.T)
        half = max(3.0 * sd, 0.5)
        fspec = make_finite_surrogate(model, 5, model.x0 - half, model.x0 + half)
        _, Y = simulate_finite_signal(fspec, grid, config.seed, model.x0)
        masses = finite_signal_filter(fspec, Y, grid, model.x0)
        u_oracle = finite_signal_estimates(fspec, masses)
        fp = particle_filter_on_surrogate(fspec, Y, grid, config.n_particles,
                                          config.seed, model.x0)
        u_part = fp.u
        extras = {"oracle": "finite_signal",
                  "time_avg_abs_err": float(np.mean(np.abs(u_part - u_oracle)))}
    else:
        raise ConfigError([
            "oracle-check needs either a k=0 linear-Gaussian model (b and h "
            "linear with zero intercepts, sigma constant, f identity) or bounded presets"
        ])
    rows = [(grid.times[j], u_part[j], u_oracle[j], abs(u_part[j] - u_oracle[j]))
            for j in range(grid.n_steps + 1)]
    return [(["t", "u_particle", "u_oracle", "abs_err"], rows)], extras


# subcommand -> (its function, the CSV files it writes). The function returns
# one (header, rows) table per file, in this order, and its manifest extras.
_DISPATCH = {
    "simulate": (_cmd_simulate, ("paths.csv",)),
    "filter": (_cmd_filter, ("filter_path.csv",)),
    "worst-case": (_cmd_worst_case, ("worst_case.csv",)),
    "picard": (_cmd_picard, ("picard.csv", "saddle.csv")),
    "minimax-gap": (_cmd_minimax_gap, ("saddle.csv",)),
    "oracle-check": (_cmd_oracle_check, ("oracle_check.csv",)),
}
SUBCOMMANDS = tuple(_DISPATCH)


def _fp_warnings(caught: Sequence[warnings.WarningMessage]) -> tuple[dict, ...]:
    """The RuntimeWarnings among `caught`, one entry per (message, file:line)
    with its count; every other warning is issued again unchanged."""
    counts: dict[tuple[str, str], int] = {}
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            key = (str(w.message), f"{w.filename}:{w.lineno}")
            counts[key] = counts.get(key, 0) + 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return tuple({"message": msg, "location": loc, "count": n}
                 for (msg, loc), n in counts.items())


def run_subcommand(cmd: str, config: ExperimentConfig,
                   run_dir: Optional[Path] = None) -> RunManifest:
    """Execute one subcommand, write its CSV tables into the run directory
    once it has returned them, and always finish with a manifest, which
    records the failure if the computation raised; an earlier run's manifest
    and CSVs go first, and no other file. Floating-point RuntimeWarnings go
    into the manifest's `fp_warnings`, not to stderr."""
    if cmd not in _DISPATCH:
        raise ConfigError([f"unknown subcommand {cmd!r}; choose from {SUBCOMMANDS}"])
    compute, names = _DISPATCH[cmd]
    if run_dir is None:
        run_dir = Path(config.out_dir) / f"{config.label}-{cmd}"
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in ("manifest.json", *names):
            (run_dir / name).unlink(missing_ok=True)
    except OSError as exc:   # no manifest can be written without the directory
        raise ConfigError([f"output.dir: cannot write to {run_dir}: {exc.strerror}"])
    t0, cpu0 = time.monotonic(), time.process_time()
    artifacts: list[dict] = []
    extras: dict = {}
    status, error = "ok", None
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables, extras = compute(config)
            artifacts = [write_csv(run_dir / name, header, rows)
                         for name, (header, rows) in zip(names, tables, strict=True)]
    except Exception as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        manifest = RunManifest(command=cmd, config_digest=config.digest,
                               seed=config.seed, version=__version__,
                               wall_clock_s=time.monotonic() - t0,
                               cpu_clock_s=time.process_time() - cpu0,
                               peak_rss_mb=rss_kib / 1024,
                               artifacts=tuple(artifacts), status=status,
                               error=error, extras=extras,
                               fp_warnings=_fp_warnings(caught))
        (run_dir / "manifest.json").write_text(
            json.dumps(asdict(manifest), indent=2, sort_keys=True), encoding="utf-8")
    return manifest


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error: exit 1
        raise ConfigError([message])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(
        prog="ambifilter",
        description="Ambiguity-filter experiments: simulation, filtering, "
                    "worst-case evaluation and saddle-point computation.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the config file")
    for flag, key in _FLAGS.items():
        parser.add_argument(flag, help=f"overrides {key}")

    try:
        args = vars(parser.parse_args(argv))
        flags = {flag: args[flag[2:].replace("-", "_")] for flag in _FLAGS}
        config = load_config(args["config"],
                             {flag: v for flag, v in flags.items() if v is not None})
        cmd = args["subcommand"]
        manifest = run_subcommand(cmd, config)
    except AmbiFilterError as exc:
        for line in exc.report_lines():
            print(line, file=sys.stderr)
        return exc.exit_code

    if cmd == "picard" and not manifest.extras.get("converged", True):
        print("picard iteration did not converge within max_iters", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
