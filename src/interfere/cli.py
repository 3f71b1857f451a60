"""Command-line interface.

Subcommands: ``prob`` (one event), ``dist`` (full output distribution),
``scan`` (probability versus a distinguishability parameter), ``decompose``
(interference-order coefficients) and ``scenario`` (preset computations).
Results are emitted as CSV or JSON, byte-stable for identical invocations.
Exit codes: 0 success, 1 usage error, 2 domain error, 3 internal-consistency
or verification failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, decompose, engine, linalg, oracle, scenarios
from .exceptions import ConsistencyError, DomainError
from .model import (
    Statistics,
    _occupation_labels,
    as_integers,
    gram_from_positions,
    uniform_gram,
)

VERIFY_TOL = 1e-9
MAX_GRID_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number_list(text, kind=int):
    try:
        return list(map(kind, text.split(",")))
    except ValueError:
        raise DomainError(f"expected a comma-separated {kind.__name__} list, got {text!r}")


def _parse_grid(text):
    """The grid values of START:STOP:COUNT and their ``meta["grid"]`` echo."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be START:STOP:COUNT, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid must be START:STOP:COUNT, got {text!r}")
    if not 2 <= count <= MAX_GRID_POINTS:  # before np.linspace allocates
        raise DomainError(f"grid needs 2..{MAX_GRID_POINTS} points, got {count}")
    if not math.isfinite(stop - start):
        raise DomainError(f"grid start, stop and their distance must be finite, got {text!r}")
    if not start < stop:
        raise DomainError("grid start must be below stop")
    return np.linspace(start, stop, count).tolist(), {"start": start, "stop": stop, "count": count}


def _read_complex_matrix(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tokens = handle.read().split()
    except OSError as exc:
        raise DomainError(f"cannot read {kind} file {path}: {exc}")
    if not tokens:
        raise DomainError(f"{kind} file {path} is empty")
    try:
        n, pairs = int(tokens[0]), tokens[1:]
        if n < 1 or len(pairs) != n * n or any(pair.count(",") != 1 for pair in pairs):
            raise ValueError
        parts = np.array(list(map(float, ",".join(pairs).split(","))))  # re, im, re, im, ...
    except ValueError:
        raise DomainError(
            f"{kind} file {path} must hold a dimension n >= 1 then n*n 're,im' pairs"
        )
    return parts.view(complex).reshape(n, n)


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser():
    parser = _Parser(prog="interfere", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Option sets that several commands take, each built once as a parent parser.
    formats = _Parser(add_help=False)
    formats.add_argument("--format", choices=["csv", "json"], default="csv")
    formats.add_argument("--out", help="write to this file instead of stdout")

    network = _Parser(add_help=False)
    network.add_argument("--unitary", choices=["fourier", "beamsplitter", "file", "random"], required=True)
    network.add_argument("-m", "--modes", type=int, help="mode count for fourier/random")
    network.add_argument("--transmissivity", type=float, help="beamsplitter transmissivity (default 0.5)")
    network.add_argument("--unitary-file", help="matrix file for --unitary file")
    network.add_argument("--seed", type=int, help="seed for --unitary random (required)")
    network.add_argument("--input", required=True,
                         help="1-based input mode list, e.g. 3,6,9")
    network.add_argument("--stats", choices=["boson", "fermion"], required=True)

    coherence = _Parser(add_help=False)
    coherence.add_argument("--lc", type=float, default=1.0, help="coherence length (default 1.0)")

    gram = _Parser(add_help=False)  # --lc and --kf default to None here: only --positions reads them
    gram.add_argument("--alpha", type=float, help="uniform pairwise overlap")
    gram.add_argument("--positions", help="comma-separated source displacements (--positions=-1,0 if negative)")
    gram.add_argument("--lc", type=float, help="coherence length for --positions (default 1.0)")
    gram.add_argument("--kf", type=float, help="pair-coherence oscillation for --positions (default 0)")
    gram.add_argument("--gram-file", help="overlap matrix file")

    outputs = _Parser(add_help=False)
    outputs.add_argument("--output", action="append", required=True,
                         help="output occupation, comma-separated counts per mode; repeatable")

    verify = _Parser(add_help=False)
    verify.add_argument("--verify", action="store_true",
                        help="cross-check against the first-quantized simulator")

    sub.add_parser("prob", help="probability of one event",
                   parents=[network, gram, outputs, verify, formats])
    sub.add_parser("dist", help="full output distribution", parents=[network, gram, verify, formats])
    p_scan = sub.add_parser("scan", help="probability versus a distinguishability parameter",
                            parents=[network, gram, outputs, formats])
    p_scan.add_argument("--vary", choices=["alpha", "x"], required=True,
                        help="alpha: uniform overlap; x: scale factor on --positions")
    p_scan.add_argument("--grid", required=True, help="START:STOP:COUNT (--grid=-2:2:5 if START < 0)")
    sub.add_parser("decompose", help="interference-order coefficients",
                   parents=[network, outputs, formats])

    presets = sub.add_parser("scenario", help="preset computations").add_subparsers(
        dest="name", required=True
    )

    def add_preset(name, grid, *parents):
        p = presets.add_parser(name, parents=[*parents, formats])
        p.add_argument("--grid", default=grid,
                       help="START:STOP:COUNT parameter grid (default %(default)s; --grid=-2:2:5 if START < 0)")
        return p

    add_preset("doubleslit", f"0:{2.0 * math.pi!r}:201").add_argument(
        "--alpha", type=float, default=1.0, help="coherence (default 1.0)"
    )
    add_preset("hom", "0:5:201", coherence)
    for name, oscillation in (("fermion9", None), ("boson9", 0.0)):
        p = add_preset(name, "0:5:201", coherence)
        p.add_argument("--kf", type=float, default=oscillation,
                       help="pair-coherence oscillation (default 2/l_c for fermion9, 0 for boson9)")
        p.add_argument("--output", action="append",
                       help="restrict to these occupations; repeatable")
    add_preset("bjork", f"0:{math.pi / 2.0!r}:101")

    return parser


def _parse(parser, argv):
    """``parser.parse_args(argv)``, with the second and later pairs of the first run of
    ``--output VALUE`` (a VALUE starting with ``-`` ends the run) appended to the parse of
    the rest, as argparse's cost grows faster than the option count. A parse that fails (as
    one whose first ``--output`` follows ``--`` does) or reads ``--output`` elsewhere too
    (``--output=X``, an abbreviation) is redone on the whole argv, so argparse alone decides
    every error and every form."""
    start = stop = argv.index("--output") + 2 if "--output" in argv else len(argv)
    while stop + 1 < len(argv) and argv[stop] == "--output" and not argv[stop + 1].startswith("-"):
        stop += 2
    if stop > start:
        try:
            args = parser.parse_args(argv[:start] + argv[stop:])
            if len(getattr(args, "output", None) or ()) == 1:
                args.output += argv[start + 1:stop:2]
                return args
        except _UsageError:
            pass
    return parser.parse_args(argv)


# The network options that each --unitary kind reads, as its builder's arguments, with defaults (None: required).
_UNITARY_OPTIONS = {"fourier": {"modes": None}, "random": {"modes": None, "seed": None},
                    "beamsplitter": {"transmissivity": 0.5}, "file": {"unitary_file": None}}


def _reject_unread_options(args):
    """An option that the value of another option leaves unread is a usage error."""
    reads = _UNITARY_OPTIONS[args.unitary]
    read = {name: name in reads for options in _UNITARY_OPTIONS.values() for name in options}
    read["lc"] = read["kf"] = getattr(args, "positions", None) is not None  # decompose takes no overlaps
    for name, used in read.items():
        if not used and getattr(args, name, None) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} has no effect with the other options given")


def _build_unitary(args):
    """The network of ``--unitary`` and its meta, from the options that its kind reads."""
    kind, values = args.unitary, {}
    for name, default in _UNITARY_OPTIONS[kind].items():
        value = getattr(args, name)
        if value is None and default is None:
            raise DomainError(f"--unitary {kind} requires --{name.replace('_', '-')}")
        values[name] = default if value is None else value
    if kind == "file":
        return _read_complex_matrix(args.unitary_file, "unitary"), {"kind": kind, "path": args.unitary_file}
    build = {"fourier": linalg.fourier_unitary, "random": linalg.random_unitary, "beamsplitter": linalg.beamsplitter}
    return build[kind](*values.values()), {"kind": kind, **values}


def _build_gram(args, num_particles):
    missing = [args.alpha, args.positions, args.gram_file].count(None)
    if missing == 3 and getattr(args, "vary", None) == "alpha":  # the grid gives every overlap
        return None, {"kind": "uniform"}
    if missing != 2:
        raise DomainError("give exactly one of --alpha, --positions, --gram-file")
    if args.alpha is not None:
        return uniform_gram(num_particles, args.alpha), {"kind": "uniform", "alpha": args.alpha}
    if args.positions is not None:
        positions = _number_list(args.positions, float)
        if len(positions) != num_particles:
            raise DomainError(f"{num_particles} particles need {num_particles} positions")
        lc, kf = 1.0 if args.lc is None else args.lc, 0.0 if args.kf is None else args.kf
        meta = {"kind": "positions", "positions": positions, "lc": lc, "kf": kf}
        return gram_from_positions(positions, lc, kf), meta
    return _read_complex_matrix(args.gram_file, "overlap"), {"kind": "file", "path": args.gram_file}


def _run_event_command(args):
    unitary, unitary_meta = _build_unitary(args)
    m = unitary.shape[0]
    input_modes = tuple(mode - 1 for mode in as_integers(_number_list(args.input), "1-based input modes", 1))
    statistics = Statistics(args.stats)
    meta = {
        "command": args.command,
        "modes": m,
        "particles": len(input_modes),
        "input": [j + 1 for j in input_modes],
        "stats": statistics.value,
        "unitary": unitary_meta,
    }
    outputs = list(map(_number_list, getattr(args, "output", [])))  # dist has none
    if args.command == "decompose":
        orders = decompose.interference_orders(unitary, input_modes, outputs, statistics)
        labels, rows = _occupation_labels(outputs), [0, *range(2, len(input_modes) + 1)]
        prefixes = [label + ":" for label in labels] if len(outputs) > 1 else [""]
        meta["total_check"] = dict(zip(labels, sum(orders).tolist()))  # adds the rows in order d, not pairwise
        names = [f"{prefix}d{d}" for prefix in prefixes for d in rows]
        return (None, names, [orders[rows].T.ravel().tolist()]), meta

    gram, meta["gram"] = _build_gram(args, len(input_modes))
    grid, grams = None, [gram]
    if args.command == "scan":
        grid, meta["grid"] = _parse_grid(args.grid)
        meta["vary"], spec = args.vary, meta["gram"]
        if args.vary == "alpha" and spec["kind"] != "uniform":
            raise DomainError("--vary alpha takes no --positions or --gram-file")
        if args.vary == "x" and spec["kind"] != "positions":
            raise DomainError("--vary x requires --positions as the gram spec")
        if args.vary == "x":
            curve = scenarios.position_scan(unitary, input_modes, outputs, spec["positions"], grid,
                                            statistics, spec["lc"], spec["kf"])
            return (curve.grid.tolist(), curve.events, curve.table.tolist()), meta
        grams = [uniform_gram(len(input_modes), v) for v in grid]
    if args.command == "dist":
        distribution = engine.full_distribution(unitary, input_modes, gram, statistics)
        outputs, table = list(distribution), [list(distribution.values())]
        labels = engine._distribution_plan(m, len(input_modes))[-1]  # its outputs' labels, made once per size
    else:
        table = engine.probability_table(unitary, input_modes, outputs, grams, statistics).tolist()
        labels = _occupation_labels(outputs)
    if getattr(args, "verify", False):  # the oracle checks the printed rows
        vectors = oracle.internal_vectors_from_gram(gram)
        reference = oracle.first_quantized_distribution(unitary, input_modes, vectors, statistics)
        deviation = max(abs(reference[tuple(occ)] - p) for occ, p in zip(outputs, table[0]))
        if deviation > VERIFY_TOL:
            raise ConsistencyError(f"first-quantized cross-check deviates by {deviation:.3e} (> {VERIFY_TOL})")
        meta["verify_max_deviation"] = deviation
        print(f"verify: max deviation {deviation:.3e}", file=sys.stderr)
    return (grid, labels, table), meta


def _run_scenario(args):
    values, grid = _parse_grid(args.grid)
    meta = {"command": "scenario", "scenario": args.name, "grid": grid}
    if args.name == "doubleslit":
        curve = scenarios.double_slit_scan(values, args.alpha)
        meta["coherence"] = args.alpha
    elif args.name == "hom":
        curve = scenarios.hom_scan(args.lc, values)
        meta["lc"] = args.lc
    elif args.name in ("fermion9", "boson9"):
        events = None if args.output is None else list(map(_number_list, args.output))
        oscillation = scenarios.fermion_scan_oscillation(args.lc) if args.kf is None else args.kf
        scan = scenarios.fermion_fourier_scan if args.name == "fermion9" else scenarios.boson_fourier_scan
        curve = scan(values, events=events, coherence_length=args.lc, oscillation=oscillation)
        if events is not None:
            meta["events"] = list(curve.events)
        meta["lc"] = args.lc
        meta["oscillation"] = oscillation
        meta["nonmonotonic_events"] = scenarios.nonmonotonic_events(curve)
    else:
        curve = scenarios.bjork_scan(values)
    return (curve.grid.tolist(), curve.events, curve.table.tolist()), meta


def emit(grid, labels, table, meta, fmt) -> str:
    """Render one table as CSV or JSON text: ``table[i][k]`` is the
    probability of event ``labels[k]`` at grid value ``grid[i]``, or, with
    ``grid`` None, the one row of a single-point query.

    CSV has the header ``parameter,event,probability`` with floats at 12
    significant digits, one line per (grid value, event), grid-major, and an
    empty parameter for a single-point query; each grid value is formatted
    once and each table row by one format call. JSON carries a ``meta``
    object (configuration echo, tool version) and a ``data`` array of the
    same rows, serialized with sorted keys so that parsing and re-serializing
    reproduces the bytes.
    """
    grid = (None,) if grid is None else grid
    if fmt == "csv":
        text = ["parameter,event,probability\n"]
        if labels:
            cells = [label.replace("%", "%%") for label in labels]
            for parameter, row in zip(grid, table):
                left = "" if parameter is None else f"{parameter:.12g}"
                text.append((left + "," + (",%.12g\n" + left + ",").join(cells) + ",%.12g\n") % tuple(row))
        return "".join(text)
    payload = {
        "meta": dict(meta, version=__version__),
        "data": [
            {"parameter": parameter, "event": label, "probability": probability}
            for parameter, row in zip(grid, table)
            for label, probability in zip(labels, row)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        if args.command == "scenario":
            block, meta = _run_scenario(args)
        else:
            _reject_unread_options(args)
            block, meta = _run_event_command(args)
        text = emit(*block, meta, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write {args.out}: {exc}")
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
