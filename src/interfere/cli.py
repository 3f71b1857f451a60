"""Command-line interface.

Subcommands: ``prob`` (one event), ``dist`` (full output distribution),
``scan`` (probability versus a distinguishability parameter), ``decompose``
(interference-order coefficients) and ``scenario`` (preset computations).
Results are emitted as CSV or JSON, byte-stable for identical invocations.
Exit codes: 0 success, 1 usage error, 2 domain error, 3 internal-consistency
or verification failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, decompose, engine, linalg, oracle, scenarios
from .exceptions import ConsistencyError, DomainError
from .model import (
    SourceConfig,
    Statistics,
    gram_from_positions,
    occupation_label,
    uniform_gram,
    validate_gram,
)

VERIFY_TOL = 1e-9
MAX_GRID_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text):
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise DomainError(f"expected a comma-separated number list, got {text!r}")


def _parse_grid(text):
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
    return start, stop, count


def _read_complex_matrix(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tokens = handle.read().split()
    except OSError as exc:
        raise DomainError(f"cannot read {kind} file {path}: {exc}")
    if not tokens:
        raise DomainError(f"{kind} file {path} is empty")
    try:
        n = int(tokens[0])
        if len(tokens) != 1 + n * n:
            raise ValueError
        values = []
        for tok in tokens[1:]:
            re_part, im_part = tok.split(",")
            values.append(complex(float(re_part), float(im_part)))
    except ValueError:
        raise DomainError(
            f"{kind} file {path} must hold a dimension line then n*n 're,im' pairs"
        )
    return np.array(values, dtype=complex).reshape(n, n)


def _build_parser():
    parser = _Parser(prog="interfere", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Option sets that several commands take, each built once as a parent parser.
    formats = _Parser(add_help=False)
    formats.add_argument("--format", choices=["csv", "json"], default="csv")
    formats.add_argument("--out", help="write to this file instead of stdout")

    network = _Parser(add_help=False)
    network.add_argument("--unitary", choices=["fourier", "beamsplitter", "file", "random"],
                         required=True)
    network.add_argument("-m", "--modes", type=int, help="mode count for fourier/random")
    network.add_argument("--transmissivity", type=float, default=0.5,
                         help="beamsplitter transmissivity (default 0.5)")
    network.add_argument("--unitary-file", help="matrix file for --unitary file")
    network.add_argument("--seed", type=int, help="seed for --unitary random (required)")
    network.add_argument("--input", required=True,
                         help="1-based input mode list, e.g. 3,6,9")
    network.add_argument("--stats", choices=["boson", "fermion"], required=True)

    coherence = _Parser(add_help=False)
    coherence.add_argument("--lc", type=float, default=1.0, help="coherence length (default 1.0)")

    gram = _Parser(add_help=False, parents=[coherence])
    gram.add_argument("--alpha", type=float, help="uniform pairwise overlap")
    gram.add_argument("--positions", help="comma-separated source displacements")
    gram.add_argument("--kf", type=float, default=0.0,
                      help="pair-coherence oscillation wavenumber (default 0)")
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
    p_scan.add_argument("--grid", required=True, help="START:STOP:COUNT")
    sub.add_parser("decompose", help="interference-order coefficients",
                   parents=[network, outputs, formats])

    presets = sub.add_parser("scenario", help="preset computations").add_subparsers(
        dest="name", required=True
    )

    def add_preset(name, grid, *parents):
        p = presets.add_parser(name, parents=[*parents, formats])
        p.add_argument("--grid", default=grid,
                       help="START:STOP:COUNT parameter grid (default %(default)s)")
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


def _zero_based_input(modes):
    converted = []
    for mode in modes:
        if mode < 1:
            raise DomainError(f"input modes are 1-based, got {mode}")
        converted.append(mode - 1)
    return tuple(converted)


def _build_unitary(args):
    if args.unitary == "fourier":
        if args.modes is None:
            raise DomainError("--unitary fourier requires --modes")
        return linalg.fourier_unitary(args.modes), {"kind": "fourier", "modes": args.modes}
    if args.unitary == "beamsplitter":
        return (
            linalg.beamsplitter(args.transmissivity),
            {"kind": "beamsplitter", "transmissivity": args.transmissivity},
        )
    if args.unitary == "random":
        if args.modes is None:
            raise DomainError("--unitary random requires --modes")
        if args.seed is None:
            raise DomainError("--unitary random requires --seed")
        return (
            linalg.random_unitary(args.modes, args.seed),
            {"kind": "random", "modes": args.modes, "seed": args.seed},
        )
    if args.unitary_file is None:
        raise DomainError("--unitary file requires --unitary-file")
    u = _read_complex_matrix(args.unitary_file, "unitary")
    return u, {"kind": "file", "path": args.unitary_file}


def _build_gram(args, num_particles):
    given = [
        name for name, value in (
            ("alpha", args.alpha), ("positions", args.positions), ("gram-file", args.gram_file),
        ) if value is not None
    ]
    if len(given) != 1:
        raise DomainError("give exactly one of --alpha, --positions, --gram-file")
    if args.alpha is not None:
        return uniform_gram(num_particles, args.alpha), {"kind": "uniform", "alpha": args.alpha}
    if args.positions is not None:
        positions = _float_list(args.positions)
        if len(positions) != num_particles:
            raise DomainError(f"{num_particles} particles need {num_particles} positions")
        cfg = SourceConfig(tuple(positions), args.lc, args.kf)
        return gram_from_positions(cfg), {
            "kind": "positions", "positions": positions, "lc": args.lc, "kf": args.kf,
        }
    s = validate_gram(_read_complex_matrix(args.gram_file, "overlap"))
    if s.shape[0] != num_particles:
        raise DomainError(f"overlap matrix is {s.shape[0]}x{s.shape[0]}, need {num_particles}")
    return s, {"kind": "file", "path": args.gram_file}


def _verify_against_oracle(unitary, input_modes, gram, statistics, results):
    vectors = oracle.internal_vectors_from_gram(gram)
    reference = oracle.first_quantized_distribution(unitary, input_modes, vectors, statistics)
    deviation = max(abs(reference[occ] - p) for occ, p in results.items())
    if deviation > VERIFY_TOL:
        raise ConsistencyError(
            f"first-quantized cross-check deviates by {deviation:.3e} (> {VERIFY_TOL})"
        )
    return deviation


def _run_event_command(args):
    unitary, unitary_meta = _build_unitary(args)
    m = unitary.shape[0]
    input_modes = _zero_based_input(_int_list(args.input))
    statistics = Statistics(args.stats)
    meta = {
        "command": args.command,
        "modes": m,
        "particles": len(input_modes),
        "input": [j + 1 for j in input_modes],
        "stats": statistics.value,
        "unitary": unitary_meta,
    }
    outputs = [tuple(_int_list(text)) for text in getattr(args, "output", [])]  # dist has none
    rows = []
    if args.command == "decompose":
        totals = {}
        for occ in outputs:
            result = decompose.interference_orders(unitary, input_modes, occ, statistics)
            prefix = occupation_label(occ) + ":" if len(outputs) > 1 else ""
            for d in sorted(result.coefficients):
                rows.append((None, f"{prefix}d{d}", result.coefficients[d]))
            totals[occupation_label(occ)] = result.total_check
        meta["total_check"] = totals
        return rows, meta

    gram, gram_meta = _build_gram(args, len(input_modes))
    meta["gram"] = gram_meta
    if args.command == "prob" and not args.verify:
        table = engine.probability_table(unitary, input_modes, outputs, [gram], statistics)
        rows = [(None, occupation_label(occ), p) for occ, p in zip(outputs, table[0].tolist())]
    elif args.command != "scan":  # dist, or prob --verify: the oracle needs every output
        if args.command == "prob":
            outputs = engine._validated_event(unitary, input_modes, outputs)[2]
        results = engine.full_distribution(unitary, input_modes, gram, statistics)
        shown = outputs if args.command == "prob" else results
        rows = [(None, occupation_label(occ), results[occ]) for occ in shown]
    else:  # scan
        start, stop, count = _parse_grid(args.grid)
        meta["grid"] = {"start": start, "stop": stop, "count": count}
        meta["vary"] = args.vary
        if args.vary == "alpha" and gram_meta["kind"] != "uniform":
            raise DomainError("--vary alpha requires --alpha as the gram spec")
        if args.vary == "x" and gram_meta["kind"] != "positions":
            raise DomainError("--vary x requires --positions as the gram spec")
        values = [float(v) for v in np.linspace(start, stop, count)]
        if args.vary == "alpha":
            grams = [uniform_gram(len(input_modes), v) for v in values]
        else:
            unit = gram_meta["positions"]
            grams = [gram_from_positions(SourceConfig(tuple(v * p for p in unit), args.lc, args.kf))
                     for v in values]
        table = engine.probability_table(unitary, input_modes, outputs, grams, statistics)
        curve = scenarios.TransitionCurve(
            args.vary, values, [occupation_label(occ) for occ in outputs], table
        )
        return curve.samples, meta

    if args.verify:
        deviation = _verify_against_oracle(unitary, input_modes, gram, statistics, results)
        meta["verify_max_deviation"] = deviation
        print(f"verify: max deviation {deviation:.3e}", file=sys.stderr)
    return rows, meta


def _run_scenario(args):
    start, stop, count = _parse_grid(args.grid)
    values = [float(v) for v in np.linspace(start, stop, count)]
    meta = {
        "command": "scenario",
        "scenario": args.name,
        "grid": {"start": start, "stop": stop, "count": count},
    }
    if args.name == "doubleslit":
        curve = scenarios.double_slit_scan(values, args.alpha)
        meta["coherence"] = args.alpha
    elif args.name == "hom":
        curve = scenarios.hom_scan(args.lc, values)
        meta["lc"] = args.lc
    elif args.name in ("fermion9", "boson9"):
        events = None
        if args.output is not None:
            events = [tuple(_int_list(text)) for text in args.output]
            meta["events"] = [occupation_label(occ) for occ in events]
        oscillation = scenarios.fermion_scan_oscillation(args.lc) if args.kf is None else args.kf
        scan = scenarios.fermion_fourier_scan if args.name == "fermion9" else scenarios.boson_fourier_scan
        curve = scan(values, events=events, coherence_length=args.lc, oscillation=oscillation)
        meta["lc"] = args.lc
        meta["oscillation"] = oscillation
        meta["nonmonotonic_events"] = scenarios.nonmonotonic_events(curve)
    else:
        curve = scenarios.bjork_scan(values)
    return curve.samples, meta


def emit(rows, meta, fmt) -> str:
    """Render result rows as CSV or JSON text.

    CSV has the header ``parameter,event,probability`` with floats at 12
    significant digits; JSON carries a ``meta`` object (configuration echo,
    tool version) and a ``data`` array, serialized with sorted keys so that
    parsing and re-serializing reproduces the bytes.
    """
    if fmt == "csv":
        lines = ["parameter,event,probability"]
        for parameter, event, probability in rows:
            left = "" if parameter is None else f"{parameter:.12g}"
            lines.append(f"{left},{event},{probability:.12g}")
        return "\n".join(lines) + "\n"
    payload = {
        "meta": dict(meta, version=__version__),
        "data": [
            {"parameter": parameter, "event": event, "probability": probability}
            for parameter, event, probability in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    try:
        if args.command == "scenario":
            rows, meta = _run_scenario(args)
        else:
            rows, meta = _run_event_command(args)
        text = emit(rows, meta, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write {args.out}: {exc}")
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
