"""Command-line interface.

Every command takes an input (a preset name, a chain file, or a profile
file), a seed, and an output path/format, and emits deterministic CSV or
JSON through `io.write_csv` and `io.dump_json`: the same seed produces
byte-identical output.  Errors exit nonzero with a single machine-parseable
stderr line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys

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
from .io import dump_json, load_input_file, write_csv
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


# --- argument parsing -------------------------------------------------------

# lets comma lists that start with a negative number pass as values,
# e.g. --alpha -2,-1,0,1,2
_NUMBER_LIST = re.compile(r"^-\d+(\.\d+)?([,e].*)?$")


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._negative_number_matcher = _NUMBER_LIST


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(
        prog="specrelax",
        description="Finite-time spectral relaxation analysis of reversible chains",
    )
    p._negative_number_matcher = _NUMBER_LIST
    p.add_argument("--config", help="JSON file of option defaults; flags override")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", nargs="?", default=None,
                            help=f"chain/profile file or preset ({PRESET_HELP})")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="key=value", help="tolerance override")

    sp = sub.add_parser("analyze", help="spectral summary of a chain or profile")
    common(sp)

    sp = sub.add_parser("simulate", help="full per-step ledger to a horizon")
    common(sp)
    sp.add_argument("--steps", type=int, default=100)

    sp = sub.add_parser("rigidity", help="rigidity times for a list of deltas")
    common(sp)
    sp.add_argument("--delta", default="0.3,0.1,0.01",
                    help="comma-separated thresholds")
    sp.add_argument("--cap", type=int, default=None)

    sp = sub.add_parser("thermo", help="ledger plus optional per-mode fluxes")
    common(sp)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--fluxes-at", default=None,
                    help="comma-separated steps; emits a flux JSON next to the CSV")

    sp = sub.add_parser("power", help="power iteration with adaptive stopping")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--kmin", type=int, default=3)
    sp.add_argument("--max-iter", type=int, default=200)

    sp = sub.add_parser("accel", help="polynomial acceleration comparison")
    common(sp)
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--interval", default=None, metavar="a,b")
    sp.add_argument("--paper-simple", type=float, default=None,
                    metavar="LAMBDA2", dest="paper_simple")
    sp.add_argument("--compare-plain", action="store_true", dest="compare_plain")
    sp.add_argument("--steps", type=int, default=25)

    sp = sub.add_parser("fpt", help="first-passage tail to an absorbing state")
    common(sp)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--start", default="restricted",
                    help="restricted | uniform | quasistationary | file:PATH")
    sp.add_argument("--kmax", type=int, default=50)
    sp.add_argument("--delta", type=float, default=0.1)

    sp = sub.add_parser("hypercube", help="entropy collapse across the cutoff window")
    common(sp, needs_input=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", default="-2,-1,0,1,2",
                    help="comma-separated window offsets")
    return p, sub.choices


def parse_config(argv=None) -> argparse.Namespace:
    """Parse argv; a --config file's values become the subcommand's defaults.

    Explicit flags and an explicit input win however they are spelled, since
    argparse parses them over the config's defaults.  `args.tol` comes back
    as a Tolerances.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sub = commands[args.command]
        sub.set_defaults(**_config_defaults(args.config, sub, args.command))
        args = parser.parse_args(argv)
    args.tol = Tolerances().override(**dict(map(_tolerance, args.tol)))
    if getattr(args, "steps", 0) < 0:
        raise InvalidArguments("steps must be nonnegative")
    return args


def _tolerance(item: str) -> tuple[str, float]:
    key, eq, val = item.partition("=")
    if not eq:
        raise ConfigError(f"tolerance override must be key=value, got {item!r}")
    try:
        return key, float(val)
    except ValueError as exc:
        raise ConfigError(f"bad tolerance value in {item!r}") from exc


def _config_defaults(path: str, sub: argparse.ArgumentParser, command: str) -> dict:
    """The JSON config's options, each checked as its flag would be."""
    if not os.path.exists(path):
        raise IoError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IoError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    unknown = set(data) - set(actions) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if data.get("command", command) != command:
        raise ConfigError(f"config is for command {data['command']!r}, not {command!r}")
    return {key: _config_value(actions[key], value)
            for key, value in data.items() if key != "command"}


def _config_value(action: argparse.Action, value):
    """A config value with the flag's own type and choices; never null."""
    typed = value
    if action.nargs == 0:                       # a switch: --compare-plain
        ok = isinstance(value, bool)
    elif isinstance(action.default, list):      # --tol: key=value strings
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:                                       # read as the flag's text
        ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        try:
            typed = (action.type or str)(str(value))
        except ValueError:
            ok = False
        ok = ok and (action.choices is None or typed in action.choices)
    if not ok:
        raise ConfigError(f"bad config value for {action.dest}: {json.dumps(value)}")
    return typed


# --- input resolution -------------------------------------------------------

def resolve_input(args: argparse.Namespace):
    """Return a ReversibleChain or SpectralProfile for the given input."""
    name = args.input
    if name is None:
        raise ConfigError("this command requires an input")
    if os.path.exists(name):
        return load_input_file(name, args.tol)
    return resolve_preset(name, seed=args.seed)


def _start(chain: ReversibleChain, args: argparse.Namespace) -> np.ndarray:
    """The seeded random start g0 of a chain."""
    return np.random.default_rng(args.seed).standard_normal(chain.n)


def _as_profile(obj, args: argparse.Namespace) -> SpectralProfile:
    """Chains become profiles through a seeded random centered start."""
    if isinstance(obj, SpectralProfile):
        return obj
    return project_initial(spectral_decomposition(obj, args.tol), obj, _start(obj, args))


def _require_chain(obj, command: str) -> ReversibleChain:
    if not isinstance(obj, ReversibleChain):
        raise ConfigError(f"{command} requires a chain input, got a profile")
    return obj


def _emit(args: argparse.Namespace, header: list[str], rows: list[list]):
    """Rows as CSV, or as JSON records with blank cells null, to --out or stdout."""
    if args.format == "json":
        dump_json([dict(zip(header, [None if v == "" else v for v in row]))
                   for row in rows], args.out)
    else:
        write_csv(args.out, header, rows)


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
        out["delta_star"] = 1.0 - max(0.5, (lam3 / lam2) ** 2)
        report = rigidity_time(profile, 0.1, cap=1)
        out["L_0.1"] = report.bound
    return out


def _cmd_analyze(args: argparse.Namespace):
    obj = resolve_input(args)
    if isinstance(obj, ReversibleChain):
        dec = spectral_decomposition(obj, args.tol)
        # weightless summary: every nontrivial mode carries unit weight
        profile = profile_from_weights(
            np.clip(dec.eigenvalues[1:], None, 1.0 - 1e-15),
            np.ones(obj.n - 1))
        summary = _profile_summary(profile)
        if summary["lambda2"] <= args.tol.eigen_residual:
            # the check certifies each eigenvalue only to eigen_residual, so a
            # lambda2 below it is roundoff and |lambda3|/lambda2 means nothing
            summary["ratio"] = None
        summary["n_states"] = obj.n
        summary["spectrum"] = list(dec.eigenvalues)
    else:
        summary = _profile_summary(obj)
        summary["spectrum"] = list(obj.lambdas)
    if args.format == "json":
        dump_json(summary, args.out)
    else:
        keys = sorted(k for k in summary if k != "spectrum")
        _emit(args, keys, [[_scalar(summary[k]) for k in keys]])


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


def _cmd_simulate(args: argparse.Namespace):
    profile = _as_profile(resolve_input(args), args)
    _emit(args, LEDGER_COLUMNS, full_ledger_rows(profile, args.steps))


def _cmd_thermo(args: argparse.Namespace):
    profile = _as_profile(resolve_input(args), args)
    rows = full_ledger_rows(profile, args.steps)
    if args.fluxes_at:
        fluxes = {}
        for k in _number_list(args.fluxes_at, "fluxes-at", int):
            forms = thermo_mod.canonical_covariance(profile, k)
            fluxes[str(k)] = {
                "cov": forms.cov,
                "fluxes": list(forms.fluxes),
                "affinities": [a if math.isfinite(a) else None
                               for a in forms.affinities],
            }
        dump_json(fluxes, args.out + ".fluxes.json" if args.out else None)
    _emit(args, LEDGER_COLUMNS, rows)


def _number_list(text, what, kind=float):
    try:
        return [kind(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --{what} list: {text!r}") from exc


def _cmd_rigidity(args: argparse.Namespace):
    profile = _as_profile(resolve_input(args), args)
    rows = []
    for d in _number_list(args.delta, "delta"):
        report = rigidity_time(profile, d, cap=args.cap)
        rows.append([d, report.bound, report.t_rigid if report.reached else "",
                     report.ratio, report.init_ratio])
    _emit(args, ["delta", "L", "T_rigid", "ratio", "init_ratio"], rows)


def _cmd_power(args: argparse.Namespace):
    chain = _require_chain(resolve_input(args), "power")
    dec = spectral_decomposition(chain, args.tol)
    if args.max_iter < 1:
        raise InvalidArguments("max_iter must be >= 1")
    state = power_mod.StoppingState(epsilon=args.epsilon, tau=args.tau, k_min=args.kmin)
    verdict = {"verdict": "stream-ended", "stopped_at": None}
    rows = []
    pending = None    # step k waits for rho_{k+1} before its row is written
    # after a TauCollapse the stream runs on to max_iter with blank Gamma/Vhat
    for k, (log_E, rho, v) in enumerate(
            itertools.islice(power_mod.power_steps(chain, _start(chain, args)),
                             args.max_iter)):
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
    _emit(args, ["k", "E", "rho", "Gamma", "Vhat", "tauhat", "true_error"], rows)
    verdict["epsilon"] = args.epsilon
    verdict["eta"] = state.eta()
    verdict["tau"] = state.tau_effective
    dump_json(verdict)


def _cmd_accel(args: argparse.Namespace):
    profile = _as_profile(resolve_input(args), args)
    m = args.degree
    split = split_slow_fast(profile)
    if args.paper_simple is not None:
        plan = accel_mod.build_Qm(m, lambda2=args.paper_simple)
    elif args.interval:
        bounds = _number_list(args.interval, "interval")
        if len(bounds) != 2:
            raise ConfigError(f"--interval takes two numbers a,b, got {args.interval!r}")
        plan = accel_mod.build_Qm(m, a=bounds[0], b=bounds[1])
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
    steps = range(args.steps + 1)
    plain = (_slow_shares(profile, [K * m for K in steps])
             if args.compare_plain else [""] * len(steps))
    rows = [[K * m, a_plain, a_acc]
            for K, a_plain, a_acc in zip(steps, plain, _slow_shares(mapped, steps))]
    _emit(args, ["step_equivalent", "alpha2_plain", "alpha2_accel"], rows)


def _slow_shares(profile: SpectralProfile, ks) -> list:
    """Slow-mode energy fraction at each step of ks; blank once every mode is dead."""
    slow = profile.slow_index()
    return ["" if dead else a for block in ledger_blocks(profile, ks)
            for a, dead in zip(block.share(slow).tolist(), block.terminal)]


def _cmd_fpt(args: argparse.Namespace):
    chain = _require_chain(resolve_input(args), "fpt")
    lam = spectral_decomposition(chain, args.tol).eigenvalues
    model = absorb(chain, args.target, args.tol)
    if args.start == "uniform":
        start = uniform_start(model)
    elif args.start == "quasistationary":
        start = quasistationary_start(model)
    elif args.start == "restricted":
        start = restricted_stationary_start(model)
    elif args.start.startswith("file:"):
        path = args.start[5:]
        if not os.path.exists(path):
            raise IoError(f"start file not found: {path}")
        try:
            start = np.loadtxt(path, delimiter=",", dtype=float)
        except ValueError as exc:
            raise IoError(f"malformed start file {path}: {exc}") from exc
    else:
        raise ConfigError(f"unknown start spec: {args.start!r}")
    kmax, delta = args.kmax, args.delta
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
        bound = ""
        if 0.0 < lam3 < lam2 and 0 < delta < 0.5 and abs(a2) > 0:
            bound = exponential_tail_bound(lam2, lam3, delta, init_ratio, k,
                                           nu2, a2, tails[k]).relative_error_bound
        rows.append([k, tails[k], spectral, approx, rel, bound])
    _emit(args, ["k", "tail", "spectral_tail", "exp_approx", "rel_err", "bound"], rows)


def hypercube_window_step(n: int, alpha: float) -> int:
    """Cutoff-window step round((n/4) ln n + alpha n), floored at zero.

    The window is defined for alpha >= -ln(n)/4 (-1.04 at n = 64, -2 needs
    n >= e^8 ~ 2981); earlier offsets fall before step 0 and clamp to k = 0.
    """
    return max(0, round((n / 4.0) * math.log(n) + alpha * n))


def _cmd_hypercube(args: argparse.Namespace):
    alphas = _number_list(args.alpha, "alpha")
    traj = hypercube_trajectory(hypercube_profile(args.n))
    block = ledger_block(traj, [hypercube_window_step(args.n, a) for a in alphas])
    # logE, not E: the energy leaves the double range from n ~ 1030 on
    columns = [alphas, block.ks.tolist(), thermo_mod.entropy_rows(block.p).tolist(),
               block.log_energy.tolist(), block.p[:, traj.slow_index()].tolist()]
    _emit(args, ["alpha", "k", "S_spec", "logE", "alpha2"], list(map(list, zip(*columns))))


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


def run(args: argparse.Namespace) -> int:
    _COMMANDS[args.command](args)
    return 0


def main(argv=None) -> int:
    """Run one command; an error is one stderr line and exit 2 (arguments),
    3 (files) or 4 (everything else)."""
    try:
        return run(parse_config(argv))
    except SpecRelaxError as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: {type(exc).__name__}: {message}\n")
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, IoError) else 4


if __name__ == "__main__":
    sys.exit(main())
