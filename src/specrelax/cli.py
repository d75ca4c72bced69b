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

# The modules that parsing and input resolution load anyway are imported here.
# Each command imports the others it runs in its own body, so a call loads and
# compiles no module that it does not use.
from .chains import ReversibleChain, Tolerances, chain_spectrum, spectral_decomposition
from .errors import (ConfigError, InvalidArguments, InvalidSize, IoError, OutOfRange,
                     SpecRelaxError)
from .io import dump_json, load_input_file, read_csv, read_json, write_csv
from .presets import PRESET_HELP, resolve_preset
from .trajectory import (SpectralProfile, hypercube_profile, ledger_block, ledger_blocks,
                         profile_from_weights, project_initial)

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

    def error(self, message):
        """A usage error is a ConfigError: one stderr line and exit 2 from `main`."""
        raise ConfigError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    p = _SubParser(prog="specrelax",
                   description="Finite-time spectral relaxation analysis of reversible chains")
    p.add_argument("--config", help="JSON file of option defaults; flags override")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    def command(name, summary, run, needs_input=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if needs_input:
            sp.add_argument("input", nargs="?", default=None,
                            help=f"chain/profile file or preset ({PRESET_HELP})")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="key=value", help="tolerance override")
        # SUPPRESS: a default here would overwrite a --config given before the command
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file of option defaults; flags override")
        return sp

    command("analyze", "spectral summary of a chain or profile", _cmd_analyze)

    sp = command("simulate", "full per-step ledger to a horizon", _cmd_simulate)
    sp.add_argument("--steps", type=int, default=100)

    sp = command("rigidity", "rigidity times for a list of deltas", _cmd_rigidity)
    sp.add_argument("--delta", default="0.3,0.1,0.01",
                    help="comma-separated thresholds")

    sp = command("thermo", "ledger plus optional per-mode fluxes", _cmd_simulate)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--fluxes-at", default=None,
                    help="comma-separated steps; emits a flux JSON next to the CSV")

    sp = command("power", "power iteration with adaptive stopping", _cmd_power)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=200)

    sp = command("accel", "polynomial acceleration comparison", _cmd_accel)
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--interval", default=None, metavar="a,b")
    sp.add_argument("--compare-plain", action="store_true", dest="compare_plain")
    sp.add_argument("--steps", type=int, default=25)

    sp = command("fpt", "first-passage tail to an absorbing state", _cmd_fpt)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--start", default="restricted",
                    help="restricted | uniform | quasistationary | file:PATH")
    sp.add_argument("--kmax", type=int, default=50)

    sp = command("hypercube", "entropy collapse across the cutoff window", _cmd_hypercube,
                 needs_input=False)
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
    data = read_json(path, "config")
    if not isinstance(data, dict):
        sub.error("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest != "config"}
    unknown = set(data) - set(actions) - {"command"}
    if unknown:
        sub.error(f"unknown config keys: {sorted(unknown)}")
    if data.get("command", command) != command:
        sub.error(f"config is for command {data['command']!r}, not {command!r}")
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
    if os.path.exists(name) or name.endswith((".csv", ".json")):
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
    from .rigidity import rigidity_bound, split_slow_fast

    split = split_slow_fast(profile)
    return {
        "n_modes": profile.n_modes,
        "lambda2": split.slow_lambda,
        "lambda3_abs": split.fast_abs_lambda,
        "gap": 1.0 - split.slow_lambda,
        "ratio": split.ratio,
        "degenerate_slow_pair": split.degenerate,
        "init_ratio": split.init_ratio,
        "delta_star": split.delta_star,
        "L_0.1": rigidity_bound(split, 0.1),
    }


def _cmd_analyze(args: argparse.Namespace):
    obj = resolve_input(args)
    if isinstance(obj, ReversibleChain):
        if obj.n < 2:
            raise InvalidSize("analyze needs at least two states: a one-state chain "
                              "has no nontrivial eigenvalue")
        lam = chain_spectrum(obj, args.tol)
        summary = _profile_summary(profile_from_weights(lam[1:], np.ones(lam.size - 1),
                                                        chain_lambda2=float(lam[1])))
        summary["n_states"] = obj.n
        summary["spectrum"] = list(lam)
    else:
        summary = _profile_summary(obj)
        summary["spectrum"] = list(obj.lambdas)
    if args.format == "json":
        dump_json(summary, args.out)
    else:
        keys = sorted(k for k in summary if k != "spectrum")
        _emit(args, keys, [[str(v).lower() if isinstance(v, bool) else v
                            for v in map(summary.get, keys)]])


def full_ledger_rows(profile: SpectralProfile, steps: int) -> list[list]:
    """Per-step ledger rows in the canonical column order."""
    from . import thermo as thermo_mod
    from .power_iter import gamma_vhat
    from .rigidity import split_slow_fast

    slow = split_slow_fast(profile).slow_index
    if not np.any(profile.lambdas):
        # every mode dies at k = 1: the step identities need a live step k + 1
        block = ledger_block(profile, [0])
        E, S, G = (float(c[0]) for c in thermo_mod.G_rows(block))
        row = [0, E, float(block.rho[0]), 1.0 - float(block.rho[0]),
               float(block.p[0, slow]), S, "", "", G]
        return [row + [""] * 4] + [[1, 0.0] + [""] * 11][:steps]
    rows = []
    for block in ledger_blocks(profile, range(steps + 2), pairs=True):
        # each row k pairs with k + 1; the block's last row opens the next block
        here = block[:-1]
        E, S, G = thermo_mod.G_rows(here)       # raises first if E leaves the doubles
        A, B = thermo_mod.release_rows(here)    # raises first if some rho_k is 0
        rho = here.rho
        columns = [here.ks, E, rho, 1.0 - rho, here.p[:, slow], S,
                   thermo_mod.covariance_rows(here, slow)[0], thermo_mod.kl_rows(block),
                   G, A, B, *gamma_vhat(rho, block.rho[1:])]
        rows.extend(map(list, zip(*(c.tolist() for c in columns))))
    return rows


def _cmd_simulate(args: argparse.Namespace):
    """`simulate`, and `thermo` with its one addition --fluxes-at: the ledger
    rows are computed, then the flux JSON at those steps written, then the rows."""
    profile = _as_profile(resolve_input(args), args)
    rows = full_ledger_rows(profile, args.steps)
    if getattr(args, "fluxes_at", None):
        from .rigidity import split_slow_fast
        from .thermo import covariance_rows

        ks = _number_list(args.fluxes_at, "fluxes-at", int)
        cov, J, aff = (c.tolist() for c in covariance_rows(
            ledger_block(profile, ks), split_slow_fast(profile).slow_index))
        fluxes = {str(k): {"cov": c, "fluxes": j,
                           "affinities": [a if math.isfinite(a) else None for a in row]}
                  for k, c, j, row in zip(ks, cov, J, aff)}
        dump_json(fluxes, args.out + ".fluxes.json" if args.out else None)
    _emit(args, LEDGER_COLUMNS, rows)


def _number_list(text, what, kind=float):
    try:
        return [kind(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --{what} list: {text!r}") from exc


def _cmd_rigidity(args: argparse.Namespace):
    from .rigidity import rigidity_time

    profile = _as_profile(resolve_input(args), args)
    rows = []
    for d in _number_list(args.delta, "delta"):
        report = rigidity_time(profile, d)
        rows.append([d, report.bound, report.t_rigid, report.ratio, report.init_ratio])
    _emit(args, ["delta", "L", "T_rigid", "ratio", "init_ratio"], rows)


def _cmd_power(args: argparse.Namespace):
    from . import power_iter as power_mod

    chain = _require_chain(resolve_input(args), "power")
    if args.max_iter < 1:
        raise InvalidArguments("max_iter must be >= 1")
    state = power_mod.StoppingState(epsilon=args.epsilon, tau=args.tau)
    dec = spectral_decomposition(chain, args.tol)   # after every argument check: O(n^3)
    rows = []
    steps = itertools.islice(power_mod.power_steps(chain, _start(chain, args)), args.max_iter)
    # row k needs rho_{k+1}: the last step, paired with None, gets a row only
    # when the stream died (rho_k = 0) before max_iter
    for k, ((log_E, rho, v), nxt) in enumerate(itertools.pairwise(
            itertools.chain(steps, [None]))):
        if nxt is None and k + 1 == args.max_iter:
            break
        pair = None
        if nxt is not None and nxt[1] > 0.0:
            if k == 0:
                state.update(rho)         # the first rho opens the fold
            pair = state.update(nxt[1])   # None once settled: blank Gamma/Vhat
        rows.append([k, math.exp(log_E), rho, *(pair or ("", "")), state.tau_effective,
                     math.sqrt(power_mod.eigenvector_error(chain, dec, v))])
        if state.verdict == "stopped":
            break
    _emit(args, ["k", "E", "rho", "Gamma", "Vhat", "tauhat", "true_error"], rows)
    verdict = {"verdict": "stream-ended" if state.verdict == "running" else state.verdict,
               "stopped_at": state.stopped_at, "epsilon": args.epsilon, "eta": state.eta(),
               "tau": state.tau_effective}
    if state.detail is not None:
        verdict["detail"] = state.detail
    dump_json(verdict)


def _cmd_accel(args: argparse.Namespace):
    from . import accel as accel_mod
    from .rigidity import split_slow_fast

    profile = _as_profile(resolve_input(args), args)
    m = args.degree
    split = split_slow_fast(profile)
    if args.interval:
        bounds = _number_list(args.interval, "interval")
        if len(bounds) != 2:
            raise ConfigError(f"--interval takes two numbers a,b, got {args.interval!r}")
        plan = accel_mod.build_Qm(m, a=bounds[0], b=bounds[1])
    else:
        fast = np.delete(profile.lambdas, split.slow_index)
        if fast.size == 0:
            raise ConfigError("profile has no fast modes to suppress")
        lo, hi = float(fast.min()), float(fast.max())
        if hi - lo <= args.tol.eigen_residual:   # a tie, to the certified accuracy
            lo, hi = -abs(hi), abs(hi)
        if hi <= lo:
            raise ConfigError("cannot infer a suppression interval; pass --interval")
        plan = accel_mod.build_Qm(m, a=lo, b=hi)
    mapped = accel_mod.accelerated_spectrum(profile, plan)
    steps = range(args.steps + 1)
    # both columns follow the profile's slow mode: one outside the interval may map above it
    plain = (_slow_shares(profile, [K * m for K in steps], split.slow_index)
             if args.compare_plain else [""] * len(steps))
    rows = [[K * m, a_plain, a_acc] for K, a_plain, a_acc
            in zip(steps, plain, _slow_shares(mapped, steps, split.slow_index))]
    _emit(args, ["step_equivalent", "alpha2_plain", "alpha2_accel"], rows)


def _slow_shares(profile: SpectralProfile, ks, slow: int) -> list:
    """Mode `slow`'s energy fraction at each step of ks; blank once every mode is dead."""
    return ["" if dead else a for block in ledger_blocks(profile, ks)
            for a, dead in zip(block.p[:, slow].tolist(), block.terminal)]


def _cmd_fpt(args: argparse.Namespace):
    from .first_passage import (absorb, exponential_tail_bound, quasistationary_start,
                                restricted_stationary_start, spectral_tails,
                                tail_coefficients, tail_curve, uniform_start)

    chain = _require_chain(resolve_input(args), "fpt")
    if args.kmax < 0:
        raise InvalidArguments("k_max must be nonnegative")
    starts = {"uniform": uniform_start, "restricted": restricted_stationary_start,
              "quasistationary": lambda model: quasistationary_start(model, args.tol)}
    start = None
    if args.start.startswith("file:"):
        start = read_csv(args.start[5:], "start")
    elif args.start not in starts:
        raise ConfigError(f"unknown start spec: {args.start!r}")
    # absorb checks --target before its solve
    model = absorb(chain, args.target, args.tol)
    if start is None:
        start = starts[args.start](model)
    alpha = tail_coefficients(model, start, args.tol)
    tails = tail_curve(model, start, args.kmax).tolist()
    spectral, approx = (c.tolist() for c in spectral_tails(model, alpha, range(args.kmax + 1)))
    tiny = np.finfo(float).tiny
    rows = []
    for k in range(args.kmax + 1):
        rel = bound = ""
        # below DBL_MIN a tail is quantized in steps of 4.9e-324 (and 0 once it
        # underflows, or when alpha_2 = 0): a ratio there measures the grid
        if tails[k] >= tiny and abs(approx[k]) >= tiny:
            rel = abs(tails[k] / approx[k] - 1.0)
            bound = exponential_tail_bound(model, alpha, k, tails[k], spectral[k], approx[k])
        rows.append([k, tails[k], spectral[k], approx[k], rel, bound])
    _emit(args, ["k", "tail", "spectral_tail", "exp_approx", "rel_err", "bound"], rows)


def hypercube_window_step(n: int, alpha: float) -> int:
    """Cutoff-window step round((n/4) ln n + alpha n), floored at zero.

    The window is defined for alpha >= -ln(n)/4 (-1.04 at n = 64, -2 needs
    n >= e^8 ~ 2981); earlier offsets fall before step 0 and clamp to k = 0.
    OutOfRange refuses an offset whose step is not finite or is beyond int64.
    """
    step = (n / 4.0) * math.log(n) + alpha * n
    if not (math.isfinite(step) and step < 2.0 ** 63):
        raise OutOfRange(f"window offset {alpha!r} at n = {n} gives no step in int64")
    return max(0, round(step))


def _cmd_hypercube(args: argparse.Namespace):
    from .thermo import entropy_rows

    alphas = _number_list(args.alpha, "alpha")
    traj = hypercube_profile(args.n)
    block = ledger_block(traj, [hypercube_window_step(args.n, a) for a in alphas])
    # logE, not E: the energy leaves the double range from n ~ 1030 on
    columns = [alphas, block.ks.tolist(), entropy_rows(block.p).tolist(),
               block.log_energy.tolist(), block.p[:, traj.slow_index()].tolist()]
    _emit(args, ["alpha", "k", "S_spec", "logE", "alpha2"], list(map(list, zip(*columns))))


def main(argv=None) -> int:
    """Run one command; an error is one stderr line and exit 2 (arguments),
    3 (files) or 4 (everything else)."""
    try:
        args = parse_config(argv)
        args.run(args)
        return 0
    except SpecRelaxError as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: {type(exc).__name__}: {message}\n")
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, IoError) else 4


if __name__ == "__main__":
    sys.exit(main())
