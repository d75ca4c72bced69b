"""Command-line interface.

Every command takes an input (a preset name, a chain file, or a profile
file), a seed, and an output path/format, and emits deterministic CSV or
JSON: the same seed produces byte-identical output.  Errors exit nonzero
with a single machine-parseable stderr line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import accel as accel_mod
from . import power_iter as power_mod
from . import thermo as thermo_mod
from .chains import (
    ReversibleChain,
    Tolerances,
    hypercube_profile,
    spectral_decomposition,
)
from .errors import (
    ConfigError,
    InvalidArguments,
    IoError,
    SpecRelaxError,
    TauCollapse,
)
from .first_passage import (
    absorb,
    exponential_tail_bound,
    quasistationary_start,
    restricted_stationary_start,
    tail_coefficients,
    tail_curve,
    uniform_start,
)
from .io import dump_json, fmt, load_input_file, write_csv
from .presets import PRESET_HELP, resolve_preset
from .rigidity import rigidity_time, split_slow_fast
from .trajectory import (
    SpectralProfile,
    hypercube_trajectory,
    ledger_at,
    ledger_block,
    ledger_blocks,
    profile_from_weights,
    project_initial,
)

LEDGER_COLUMNS = ["k", "E", "rho", "d", "alpha2", "S_spec", "Cov", "KL",
                  "G", "A", "B", "Gamma", "Vhat"]


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


# --- argument parsing -------------------------------------------------------

# lets comma lists that start with a negative number pass as values,
# e.g. --alpha -2,-1,0,1,2
_NUMBER_LIST = re.compile(r"^-\d+(\.\d+)?([,e].*)?$")


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._negative_number_matcher = _NUMBER_LIST


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    p = argparse.ArgumentParser(
        prog="specrelax",
        description="Finite-time spectral relaxation analysis of reversible chains",
    )
    p._negative_number_matcher = _NUMBER_LIST
    p.add_argument("--config", help="JSON file of option defaults; flags override")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubParser)
    registry: dict[str, argparse.ArgumentParser] = {}

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        registry[name] = sp
        return sp

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", nargs="?", default=None,
                            help=f"chain/profile file or preset ({PRESET_HELP})")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="key=value", help="tolerance override")

    sp = add_parser("analyze", help="spectral summary of a chain or profile")
    common(sp)

    sp = add_parser("simulate", help="full per-step ledger to a horizon")
    common(sp)
    sp.add_argument("--steps", type=int, default=100)

    sp = add_parser("rigidity", help="rigidity times for a list of deltas")
    common(sp)
    sp.add_argument("--delta", default="0.3,0.1,0.01",
                    help="comma-separated thresholds")
    sp.add_argument("--cap", type=int, default=None)

    sp = add_parser("thermo", help="ledger plus optional per-mode fluxes")
    common(sp)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--fluxes-at", default=None,
                    help="comma-separated steps; emits a flux JSON next to the CSV")

    sp = add_parser("power", help="power iteration with adaptive stopping")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--kmin", type=int, default=3)
    sp.add_argument("--max-iter", type=int, default=200)

    sp = add_parser("accel", help="polynomial acceleration comparison")
    common(sp)
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--interval", default=None, metavar="a,b")
    sp.add_argument("--paper-simple", type=float, default=None,
                    metavar="LAMBDA2", dest="paper_simple")
    sp.add_argument("--compare-plain", action="store_true", dest="compare_plain")
    sp.add_argument("--steps", type=int, default=25)

    sp = add_parser("fpt", help="first-passage tail to an absorbing state")
    common(sp)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--start", default="restricted",
                    help="restricted | uniform | quasistationary | file:PATH")
    sp.add_argument("--kmax", type=int, default=50)
    sp.add_argument("--delta", type=float, default=0.1)

    sp = add_parser("hypercube", help="entropy collapse across the cutoff window")
    common(sp, needs_input=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", default="-2,-1,0,1,2",
                    help="comma-separated window offsets")
    return p, registry


def parse_config(argv=None) -> RunConfig:
    parser, registry = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(args, registry[args.command],
                           list(argv) if argv is not None else sys.argv[1:])
    opts = vars(args).copy()
    opts.pop("config", None)
    command = opts.pop("command")
    tol = {}
    for item in opts.pop("tol", []) or []:
        if "=" not in item:
            raise ConfigError(f"tolerance override must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            tol[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return RunConfig(
        command=command,
        input=opts.pop("input", None),
        seed=opts.pop("seed", 0),
        out=opts.pop("out", None),
        format=opts.pop("format", "csv"),
        tolerances=tol,
        options=opts,
    )


def _apply_config_file(args, subparser, argv):
    """Fill unset options from a JSON config; explicit flags always win."""
    if not os.path.exists(args.config):
        raise IoError(f"config file not found: {args.config}")
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IoError(f"malformed config file {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {a.dest for a in subparser._actions} | {"command"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if data.get("command", args.command) != args.command:
        raise ConfigError(
            f"config is for command {data['command']!r}, not {args.command!r}")
    explicit = set()
    for action in subparser._actions:
        if not action.option_strings:
            if getattr(args, action.dest, None) is not None:
                explicit.add(action.dest)   # positional given on the line
            continue
        for opt in action.option_strings:
            if any(tok == opt or tok.startswith(opt + "=") for tok in argv):
                explicit.add(action.dest)
    for key, value in data.items():
        if key != "command" and key not in explicit:
            setattr(args, key, value)


# --- input resolution -------------------------------------------------------

def resolve_input(config: RunConfig):
    """Return a ReversibleChain or SpectralProfile for the configured input."""
    name = config.input
    if name is None:
        raise ConfigError("this command requires an input")
    if os.path.exists(name):
        return load_input_file(name, _tolerances(config))
    return resolve_preset(name, seed=config.seed)


def _tolerances(config: RunConfig) -> Tolerances:
    return Tolerances().override(**config.tolerances)


def _as_profile(obj, config: RunConfig) -> SpectralProfile:
    """Chains become profiles through a seeded random centered start."""
    if isinstance(obj, SpectralProfile):
        return obj
    chain = obj
    dec = spectral_decomposition(chain, _tolerances(config))
    rng = np.random.default_rng(config.seed)
    g0 = rng.standard_normal(chain.n)
    return project_initial(dec, chain, g0)


def _require_chain(obj, command: str) -> ReversibleChain:
    if not isinstance(obj, ReversibleChain):
        raise ConfigError(f"{command} requires a chain input, got a profile")
    return obj


# --- output helpers ---------------------------------------------------------

def _emit(config: RunConfig, header: list[str], rows: list[list]) -> str:
    if config.format == "json":
        payload = [dict(zip(header, [None if v == "" else v for v in row]))
                   for row in rows]
        text = dump_json(payload, config.out) + "\n"
        if not config.out:
            sys.stdout.write(text)
        return text
    text = write_csv(config.out, header, rows)
    if not config.out:
        sys.stdout.write(text)
    return text


# --- commands ---------------------------------------------------------------

def _profile_summary(profile: SpectralProfile) -> dict:
    split = split_slow_fast(profile)
    lam2, lam3 = split.slow_lambda, split.fast_abs_lambda
    degenerate = split.degenerate and split.fast_weight > 0
    out = {
        "n_modes": profile.n_modes,
        "lambda2": lam2,
        "lambda3_abs": lam3,
        "gap": 1.0 - lam2,
        "ratio": split.ratio,
        "degenerate_slow_pair": degenerate,
        "init_ratio": split.init_ratio,
    }
    if degenerate or lam2 <= 0:
        out["delta_star"] = None
        out["L_0.1"] = math.inf
    else:
        out["delta_star"] = 1.0 - max(0.5, (lam3 / lam2) ** 2) if lam3 > 0 else 0.5
        report = rigidity_time(profile, 0.1, cap=1)
        out["L_0.1"] = report.bound
    return out


def _cmd_analyze(config: RunConfig) -> int:
    obj = resolve_input(config)
    if isinstance(obj, ReversibleChain):
        tol = _tolerances(config)
        dec = spectral_decomposition(obj, tol)
        # weightless summary: every nontrivial mode carries unit weight
        profile = profile_from_weights(
            np.clip(dec.eigenvalues[1:], None, 1.0 - 1e-15),
            np.ones(obj.n - 1))
        summary = _profile_summary(profile)
        if summary["lambda2"] <= tol.eigen_residual:
            # the check certifies each eigenvalue only to eigen_residual, so a
            # lambda2 below it is roundoff and |lambda3|/lambda2 means nothing
            summary["ratio"] = None
        summary["n_states"] = obj.n
        summary["spectrum"] = list(dec.eigenvalues)
    else:
        summary = _profile_summary(obj)
        summary["spectrum"] = list(obj.lambdas)
    if config.format == "json":
        text = dump_json(summary, config.out) + "\n"
        if not config.out:
            sys.stdout.write(text)
        return 0
    keys = sorted(k for k in summary if k != "spectrum")
    _emit(config, keys, [[_scalar(summary[k]) for k in keys]])
    return 0


def _scalar(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    return v


def full_ledger_rows(profile: SpectralProfile, steps: int) -> list[list]:
    """Per-step ledger rows in the canonical column order."""
    if not np.any(profile.lambdas):
        # every mode dies at k = 1: the step identities need a live step k + 1
        led = ledger_at(profile, 0)
        E, S = led.energy, thermo_mod.spectral_entropy(led.p)
        row = [0, E, led.rho, led.d, float(led.p[profile.slow_index()]), S, "", "", E * S]
        return [row + [""] * 4] + [[1, 0.0] + [""] * 11][:steps]
    slow = split_slow_fast(profile).slow_index
    rows = []
    for block in ledger_blocks(profile, range(steps + 2), pairs=True):
        # each row k pairs with k + 1; the block's last row opens the next block
        here = block[:-1]
        A, B = thermo_mod.release_rows(here)    # raises first if some rho_k is 0
        E = np.exp(here.log_energy)
        S = thermo_mod.entropy_rows(here.p)
        rho, rho_next = block.rho[:-1], block.rho[1:]
        columns = [here.ks, E, rho, 1.0 - rho, here.p[:, slow], S,
                   thermo_mod.covariance_rows(here, slow)[0], thermo_mod.kl_rows(block),
                   E * S, A, B, np.maximum(rho_next / rho - 1.0, 0.0),
                   np.maximum(rho * (rho_next - rho), 0.0)]
        rows.extend(map(list, zip(*(c.tolist() for c in columns))))
    return rows


def _cmd_simulate(config: RunConfig) -> int:
    profile = _as_profile(resolve_input(config), config)
    rows = full_ledger_rows(profile, config.options["steps"])
    _emit(config, LEDGER_COLUMNS, rows)
    return 0


def _cmd_thermo(config: RunConfig) -> int:
    profile = _as_profile(resolve_input(config), config)
    rows = full_ledger_rows(profile, config.options["steps"])
    text_target = config.options.get("fluxes_at")
    if text_target:
        steps = _number_list(text_target, "fluxes-at", int)
        fluxes = {}
        for k in steps:
            forms = thermo_mod.canonical_covariance(profile, k)
            fluxes[str(k)] = {
                "cov": forms.cov,
                "fluxes": list(forms.fluxes),
                "affinities": [a if math.isfinite(a) else None
                               for a in forms.affinities],
            }
        path = (config.out + ".fluxes.json") if config.out else None
        text = dump_json(fluxes, path) + "\n"
        if not path:
            sys.stdout.write(text)
    _emit(config, LEDGER_COLUMNS, rows)
    return 0


def _number_list(text, what, kind=float):
    try:
        return [kind(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --{what} list: {text!r}") from exc


def _cmd_rigidity(config: RunConfig) -> int:
    profile = _as_profile(resolve_input(config), config)
    deltas = _number_list(config.options["delta"], "delta")
    rows = []
    for d in deltas:
        report = rigidity_time(profile, d, cap=config.options.get("cap"))
        rows.append([
            d, report.bound,
            report.t_rigid if report.reached else "",
            report.ratio, report.init_ratio,
        ])
    _emit(config, ["delta", "L", "T_rigid", "ratio", "init_ratio"], rows)
    return 0


def _cmd_power(config: RunConfig) -> int:
    chain = _require_chain(resolve_input(config), "power")
    dec = spectral_decomposition(chain, _tolerances(config))
    rng = np.random.default_rng(config.seed)
    g0 = rng.standard_normal(chain.n)
    max_iter = config.options["max_iter"]
    if max_iter < 1:
        raise InvalidArguments("max_iter must be >= 1")
    state = power_mod.StoppingState(
        epsilon=config.options["epsilon"], tau=config.options.get("tau"),
        k_min=config.options["kmin"])
    verdict = {"verdict": "stream-ended", "stopped_at": None}
    rows = []
    pending = None    # step k waits for rho_{k+1} before its row is written
    # after a TauCollapse the stream runs on to max_iter with blank Gamma/Vhat
    for k, (log_E, rho, v) in enumerate(
            itertools.islice(power_mod.power_steps(chain, g0), max_iter)):
        try:
            state.update(rho)
        except TauCollapse as exc:
            verdict = {"verdict": "tau-collapse", "stopped_at": None,
                       "detail": " ".join(str(exc).split())}
        if pending is not None:
            j, E_j, rho_j, v_j = pending
            rows.append([
                j, E_j, rho_j,
                state.gamma_history[j] if j < len(state.gamma_history) else "",
                state.vhat_history[j] if j < len(state.vhat_history) else "",
                state.tau_effective,
                math.sqrt(power_mod.eigenvector_error(chain, dec, v_j)),
            ])
        if state.verdict == "stopped":
            verdict = {"verdict": "stopped", "stopped_at": state.stopped_at}
            break
        pending = (k, math.exp(log_E), rho, v)
    _emit(config, ["k", "E", "rho", "Gamma", "Vhat", "tauhat", "true_error"], rows)
    verdict["epsilon"] = config.options["epsilon"]
    verdict["eta"] = state.eta()
    verdict["tau"] = state.tau_effective
    sys.stdout.write(dump_json(verdict) + "\n")
    return 0


def _cmd_accel(config: RunConfig) -> int:
    profile = _as_profile(resolve_input(config), config)
    m = config.options["degree"]
    split = split_slow_fast(profile)
    if config.options.get("paper_simple") is not None:
        plan = accel_mod.build_Qm(m, lambda2=config.options["paper_simple"])
    elif config.options.get("interval"):
        a, b = _number_list(config.options["interval"], "interval")
        plan = accel_mod.build_Qm(m, a=a, b=b)
    else:
        fast = np.delete(profile.lambdas, split.slow_index)
        if fast.size == 0:
            raise ConfigError("profile has no fast modes to suppress")
        lo, hi = float(fast.min()), float(fast.max())
        if lo >= hi:
            lo, hi = -abs(hi), abs(hi)
        if hi <= lo:
            raise ConfigError("cannot infer a suppression interval; pass --interval")
        plan = accel_mod.build_Qm(m, a=lo, b=hi)
    mapped = accel_mod.accelerated_spectrum(profile, plan)
    steps = range(config.options["steps"] + 1)
    plain = (_slow_shares(profile, [K * m for K in steps])
             if config.options.get("compare_plain", True) else [""] * len(steps))
    rows = [[K * m, a_plain, a_acc]
            for K, a_plain, a_acc in zip(steps, plain, _slow_shares(mapped, steps))]
    _emit(config, ["step_equivalent", "alpha2_plain", "alpha2_accel"], rows)
    return 0


def _slow_shares(profile: SpectralProfile, ks) -> list:
    """Slow-mode energy fraction at each step of ks; blank once every mode is dead."""
    slow = profile.slow_index()
    return ["" if dead else a for block in ledger_blocks(profile, ks)
            for a, dead in zip(block.share(slow).tolist(), block.terminal)]


def _cmd_fpt(config: RunConfig) -> int:
    chain = _require_chain(resolve_input(config), "fpt")
    tol = _tolerances(config)
    lam = spectral_decomposition(chain, tol).eigenvalues
    model = absorb(chain, config.options["target"], tol)
    start_spec = config.options["start"]
    if start_spec == "uniform":
        start = uniform_start(model)
    elif start_spec == "quasistationary":
        start = quasistationary_start(model)
    elif start_spec == "restricted":
        start = restricted_stationary_start(model)
    elif str(start_spec).startswith("file:"):
        path = str(start_spec)[5:]
        if not os.path.exists(path):
            raise IoError(f"start file not found: {path}")
        try:
            start = np.loadtxt(path, delimiter=",", dtype=float)
        except ValueError as exc:
            raise IoError(f"malformed start file {path}: {exc}") from exc
    else:
        raise ConfigError(f"unknown start spec: {start_spec!r}")
    kmax = config.options["kmax"]
    delta = config.options["delta"]
    alpha = tail_coefficients(model, start)
    tails = tail_curve(model, start, kmax)
    lam2 = float(lam[1])
    lam3 = float(np.max(np.abs(lam[2:]))) if chain.n > 2 else 0.0
    nu2 = float(model.nu[0])
    a2 = float(alpha[0])
    init_ratio = (float(np.sum(np.abs(alpha[1:])) / abs(a2))
                  if abs(a2) > 0 else math.inf)
    rows = []
    for k in range(kmax + 1):
        spectral = float(np.sum(alpha * model.nu ** k))
        approx = a2 * nu2 ** k
        rel = abs(tails[k] / approx - 1.0) if approx != 0 else ""
        if 0.0 < lam3 < lam2 and 0 < delta < 0.5 and abs(a2) > 0:
            b = exponential_tail_bound(lam2, lam3, delta, init_ratio, k,
                                       nu2, a2, tails[k])
            bound = b.relative_error_bound
        else:
            bound = ""
        rows.append([k, tails[k], spectral, approx, rel, bound])
    _emit(config, ["k", "tail", "spectral_tail", "exp_approx", "rel_err", "bound"],
          rows)
    return 0


def hypercube_window_step(n: int, alpha: float) -> int:
    """Cutoff-window step round((n/4) ln n + alpha n), floored at zero.

    The window is defined for alpha >= -ln(n)/4 (-1.04 at n = 64, -2 needs
    n >= e^8 ~ 2981); earlier offsets fall before step 0 and clamp to k = 0.
    """
    return max(0, round((n / 4.0) * math.log(n) + alpha * n))


def _cmd_hypercube(config: RunConfig) -> int:
    n = config.options["n"]
    alphas = _number_list(config.options["alpha"], "alpha")
    traj = hypercube_trajectory(hypercube_profile(n))
    block = ledger_block(traj, [hypercube_window_step(n, a) for a in alphas])
    # logE, not E: the energy leaves the double range from n ~ 1030 on
    columns = [alphas, block.ks.tolist(), thermo_mod.entropy_rows(block.p).tolist(),
               block.log_energy.tolist(), block.p[:, traj.slow_index()].tolist()]
    _emit(config, ["alpha", "k", "S_spec", "logE", "alpha2"], list(map(list, zip(*columns))))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "rigidity": _cmd_rigidity,
    "thermo": _cmd_thermo,
    "power": _cmd_power,
    "accel": _cmd_accel,
    "fpt": _cmd_fpt,
    "hypercube": _cmd_hypercube,
}


def run(config: RunConfig) -> int:
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise ConfigError(f"unknown command: {config.command!r}")
    return handler(config)


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except ConfigError as exc:
        _fail(exc)
        return 2
    except IoError as exc:
        _fail(exc)
        return 3
    except SpecRelaxError as exc:
        _fail(exc)
        return 4


def _fail(exc: Exception):
    message = " ".join(str(exc).split())
    sys.stderr.write(f"error: {type(exc).__name__}: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
