"""Command-line interface.

Subcommands:

* ``measures``  -- entropies, mutual information, f-informations, spectrum,
  the Gacs-Korner common part, an upper bound on the Wyner common
  information and bottleneck points for one input distribution; all but
  the entropies are computed on its minimal sufficient reduction;
* ``reduce``    -- minimal sufficient maps and the reduced distribution;
* ``verify``    -- separability battery for given maps or an auto-refined
  instance;
* ``ib-sweep``  -- bottleneck sweep over a multiplier grid, CSV output.

Inputs are JSON distribution files ({"x_labels", "y_labels", "p"}) or
headerless CSV matrices.  Reports are JSON with sorted keys and numbers
rounded to 12 significant digits, so identical input, configuration and
seed reproduce a report byte for byte except for the timestamp field.

Exit codes: 0 success, 2 unreadable or unparseable input, a bad flag value,
a solver size above the limit or a table a solver cannot take, 3 output
write failure, 4 verification failed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import os
import sys

from . import __version__
from .common_info import gacs_korner, wyner_solve
from .dist import (
    MAX_SOLVER_ENTRIES,
    DeterministicMap,
    JointDistribution,
    entropy,
    marginals,
    mutual_information,
    validate_and_trim,
)
from .errors import InfosepError, InsufficientStatistic
from .finfo import BUILTIN_GENERATORS, f_information
from .harness import IB_BETAS, random_refinement, verify_separability
from .ib import _ib_solve, ib_curve
from .modal import (
    check_sufficiency,
    minimal_sufficient_maps,
    modal_decompose,
    reduce_joint,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

SEED_ENV_VAR = "INFOSEP_SEED"


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(code: int, message: str):
    raise _CliFailure(code, message)


def _load_distribution(path: str):
    """Parse a distribution file; returns (joint, its raw bytes).

    The bytes are hashed only by the commands whose report carries the
    digest (see `_base_doc`).
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read input {path!r}: {exc}")
    x_labels = y_labels = None
    try:
        if path.lower().endswith(".csv"):
            rows = [row for row in csv.reader(io.StringIO(blob.decode("utf-8")))
                    if row]
            matrix = [[float(cell) for cell in row] for row in rows]
        else:
            doc = json.loads(blob.decode("utf-8"))
            if not isinstance(doc, dict) or "p" not in doc:
                raise ValueError("JSON input must be an object with a 'p' field")
            matrix = doc["p"]
            x_labels = doc.get("x_labels")
            y_labels = doc.get("y_labels")
        joint = validate_and_trim(matrix, x_labels=x_labels, y_labels=y_labels)
    except (ValueError, TypeError, OverflowError, InfosepError) as exc:
        _fail(EXIT_PARSE, f"cannot parse input {path!r}: {exc}")
    return joint, blob


def _load_maps(path: str):
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
        s = DeterministicMap(doc["s"])
        t = DeterministicMap(doc["t"])
    except (OSError, ValueError, TypeError, KeyError, InfosepError) as exc:
        _fail(EXIT_PARSE, f"cannot parse maps file {path!r}: {exc}")
    return s, t


def _round_floats(obj):
    """Round every float to 12 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(doc: dict, out_path: str | None):
    text = json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n"
    _emit_text(text, out_path)


def _emit_text(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out_path!r}: {exc}")


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            _fail(EXIT_PARSE, f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed < 0:
        _fail(EXIT_PARSE, f"seed must be non-negative, got {seed}")
    return seed


def _check_beta(flag: str, beta: float) -> None:
    if not 0.0 < beta < math.inf:
        _fail(EXIT_PARSE, f"{flag} values must be positive and finite, got {beta:g}")


def _check_flags(args) -> None:
    """Reject flag values that no solver takes, before any input is read."""
    if getattr(args, "restarts", 0) < 0:
        _fail(EXIT_PARSE, f"--restarts must be non-negative, got {args.restarts}")
    for beta in getattr(args, "beta", None) or ():
        _check_beta("--beta", beta)
    # The refined table is built dense, so its size is checked before it is.
    nx, ny = getattr(args, "auto_refine", None) or (0, 0)
    if min(nx, ny) > 0 and nx * ny > MAX_SOLVER_ENTRIES:
        _fail(EXIT_PARSE,
              f"--auto-refine {nx} {ny} asks for {nx * ny} cells, above the "
              f"solver limit of {MAX_SOLVER_ENTRIES} entries")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _base_doc(args, path, blob, joint, seed) -> dict:
    return {
        "tool": {"name": "infosep", "version": __version__},
        "input": {"path": path, "sha256": hashlib.sha256(blob).hexdigest(),
                  "nx": joint.nx, "ny": joint.ny},
        "unit": args.unit,
        "seed": seed,
        "timestamp": _timestamp(),
    }


def _cmd_measures(args) -> int:
    joint, blob = _load_distribution(args.input)
    seed = _resolve_seed(args)
    unit = args.unit
    betas = args.beta or IB_BETAS
    px, py = marginals(joint)
    # Every measure below except the entropies is invariant under sufficient
    # maps, so it is computed on the minimal sufficient alphabet.
    verdict = check_sufficiency(joint, *minimal_sufficient_maps(joint))
    red = verdict.reduced if verdict.sufficient else joint
    md = modal_decompose(red)
    gk = gacs_korner(red, unit=unit)
    wyner = wyner_solve(red, card_w=args.wyner_card, restarts=args.restarts,
                        seed=seed, unit=unit)
    sols = _ib_solve(red, betas, None, args.restarts, seed, unit)
    ib_block = {f"{sol.beta:g}": {"lagrangian": sol.lagrangian.value,
                                  "i_ux": sol.i_ux.value,
                                  "i_uy": sol.i_uy.value,
                                  "converged": sol.converged}
                for sol in sols}
    doc = _base_doc(args, args.input, blob, joint, seed)
    doc["input"].update(reduced_nx=red.nx, reduced_ny=red.ny)
    doc["config"] = {"restarts": args.restarts, "betas": list(betas),
                     "wyner_card": args.wyner_card}
    doc["measures"] = {
        "h_x": entropy(px, unit).value,
        "h_y": entropy(py, unit).value,
        "mi": mutual_information(red, unit).value,
        "f_info": {name: f_information(red, gen, unit).value
                   for name, gen in BUILTIN_GENERATORS.items()},
        "sigmas": [float(s) for s in md.sigmas],
        "gk": {"value": gk.value.value, "k": gk.k,
               "component_count": gk.component_count},
        "wyner": {"value": wyner.value.value,
                  "residual": wyner.markov_residual.value,
                  "converged": wyner.converged,
                  "card_w": wyner.card_w},
        "ib": ib_block,
    }
    _emit_json(doc, args.json_out)
    return EXIT_OK


def _distribution_doc(joint: JointDistribution) -> dict:
    doc = {"p": [[float(v) for v in row] for row in joint.p]}
    if joint.x_labels is not None:
        doc["x_labels"] = list(joint.x_labels)
    if joint.y_labels is not None:
        doc["y_labels"] = list(joint.y_labels)
    return doc


def _cmd_reduce(args) -> int:
    joint = _load_distribution(args.input)[0]
    s, t = minimal_sufficient_maps(joint)
    reduced = reduce_joint(joint, s, t, strict=args.strict)
    dist_doc = _distribution_doc(reduced)
    maps_doc = {"s": [int(v) for v in s.assignment],
                "t": [int(v) for v in t.assignment]}
    if args.out is None and args.maps_out is None:
        _emit_json({"reduced": dist_doc, "maps": maps_doc}, None)
        return EXIT_OK
    _emit_json(dist_doc, args.out)
    maps_out = args.maps_out
    if maps_out is None and args.out is not None:
        root, _ext = os.path.splitext(args.out)
        maps_out = root + ".maps.json"
    _emit_json(maps_doc, maps_out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    joint, blob = _load_distribution(args.input)
    seed = _resolve_seed(args)
    if args.auto_refine is not None:
        nx, ny = args.auto_refine
        try:
            target, s, t = random_refinement(joint, nx, ny, seed=seed)
        except InfosepError as exc:
            _fail(EXIT_PARSE, f"cannot auto-refine: {exc}")
    elif args.maps is not None:
        target = joint
        s, t = _load_maps(args.maps)
    else:
        target = joint
        s, t = minimal_sufficient_maps(joint)
    report = verify_separability(target, s, t, strict=args.strict, seed=seed,
                                 restarts=args.restarts, unit=args.unit,
                                 wyner_card=args.wyner_card)
    doc = _base_doc(args, args.input, blob, target, seed)
    doc["config"] = {"restarts": args.restarts,
                     "auto_refine": list(args.auto_refine) if args.auto_refine else None,
                     "strict": args.strict,
                     "wyner_card": args.wyner_card}
    doc["report"] = report.to_dict()
    _emit_json(doc, args.json_out)
    return EXIT_OK if report.overall else EXIT_VERIFY


def _cmd_ib_sweep(args) -> int:
    try:
        betas = [float(b) for b in args.beta_grid.split(",") if b.strip()]
        if not betas:
            raise ValueError("empty grid")
    except ValueError as exc:
        _fail(EXIT_PARSE, f"bad beta grid {args.beta_grid!r}: {exc}")
    for beta in betas:
        _check_beta("--beta-grid", beta)
    joint = _load_distribution(args.input)[0]
    seed = _resolve_seed(args)
    curve = ib_curve(joint, betas, card_u=args.card_u,
                     restarts=args.restarts, seed=seed, unit=args.unit)
    lines = ["beta,i_ux,i_uy,lagrangian,converged"]
    for sol in curve.solutions:
        lines.append(",".join([
            f"{sol.beta:.12g}",
            f"{sol.i_ux.value:.12g}",
            f"{sol.i_uy.value:.12g}",
            f"{sol.lagrangian.value:.12g}",
            "true" if sol.converged else "false",
        ]))
    for r, v in curve.points:
        lines.append(f"# envelope,{r:.12g},{v:.12g}")
    _emit_text("\n".join(lines) + "\n", args.csv_out)
    return EXIT_OK


# built once per process: a parser holds reference cycles, so building one
# per call leaves garbage that only a full collection frees
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosep",
        description="Information measures on finite joint distributions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="distribution file (JSON or CSV)")
        p.add_argument("--unit", choices=("bits", "nats"), default="bits")
        p.add_argument("--seed", type=int, default=None,
                       help=f"solver seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--restarts", type=int, default=10)

    p = sub.add_parser("measures", help="compute the measure battery")
    common(p)
    p.add_argument("--beta", type=float, action="append", default=None,
                   help="bottleneck multiplier (repeatable)")
    p.add_argument("--wyner-card", type=int, default=None,
                   help="Wyner auxiliary cardinality on the reduced alphabet "
                        "(default: reduced nx*ny)")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("reduce", help="minimal sufficient reduction")
    p.add_argument("input", help="distribution file (JSON or CSV)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None, help="reduced distribution file")
    p.add_argument("--maps-out", default=None, help="maps JSON file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="separability verification battery")
    common(p)
    p.add_argument("--maps", default=None,
                   help="JSON file with fields 's' and 't'")
    p.add_argument("--auto-refine", nargs=2, type=int, metavar=("NX", "NY"),
                   default=None,
                   help="refine the input randomly to NX x NY and verify that")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--wyner-card", type=int, default=None,
                   help="auxiliary cardinality override for the suite")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ib-sweep", help="bottleneck sweep, CSV output")
    common(p)
    p.add_argument("--beta-grid", default="0.5,1.5,2,3,5",
                   help="comma-separated multipliers")
    p.add_argument("--card-u", type=int, default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=_cmd_ib_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except _CliFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except InsufficientStatistic as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    except InfosepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
