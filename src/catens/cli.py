"""Command-line front end and experiment runner.

Subcommands: ``cluster`` (one dataset in, labels and optional Newick out),
``experiment`` (replicated method comparison with a mean(sd) results
table), and ``simulate`` (export generated datasets).  The method name alone
picks the pipeline; WOR and WR wrap ENAL in random-subspace ensembling.  A
flag that no part of the run reads (see ``READS``) is refused.  ``main`` returns every
exit code, parser refusals included (only ``--help`` exits): 0 on success, 1 for usage
errors (or out of memory), 2 for data errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import io as catio
from .core import CategoricalMatrix, Clustering, DataError, hamming, relabel_dense
from .ensemble import EnsembleConfig, ensemble_cluster
from .hclust import Dendrogram, agglomerate, check_alpha, cut_with_outlier_deferral
from .kmodes import en_kmodes, kmodes
from .metrics import classification_rate, format_results_table, replicate_summary
from .rng import child_seed
from .simgen import DESIGNS, NUCLEOTIDES, SEQ_DESIGNS, gen_highdim, gen_lowdim, gen_noise
from .subspace import subspace_ensemble, wor_subspaces, wr_subspaces

HC_METHODS = {"HCSL": "SL", "HCAL": "AL", "HCCL": "CL"}
EN_METHODS = {"ENSL": "SL", "ENAL": "AL", "ENCL": "CL"}
METHODS = (*HC_METHODS, *EN_METHODS, "KMODES", "ENKM", "WOR", "WR")
# the refusable flags (by dest) that each part of a run reads: its methods, its
# input file, its simulated source and its output; a part not listed reads none.
# ``seed`` and ``normalize`` are never refused, as --save-dissimilarity reads ``normalize``
READS = {
    **dict.fromkeys(HC_METHODS, {"alpha", "newick"}), **dict.fromkeys(EN_METHODS, {"B", "alpha", "newick"}),
    "KMODES": set(), "ENKM": {"B"}, **dict.fromkeys(("WOR", "WR"), {"B", "alpha", "blocks", "newick"}),
    "FASTA input": {"format", "gap_symbol"},
    "CSV input": {"format", "gap_symbol", "header", "delimiter", "id_column", "truth_column"},
    "--seq-design": {"seq_j", "seq_sizes"}, "FASTA output of --seq-design": {"truth_out"},
    "CSV output": {"delimiter"},
}


@dataclass(frozen=True)
class MethodOptions:
    """Per-run knobs shared by every method."""

    B: int = 25
    alpha: float = 0.0
    seed: int = 0
    blocks: int | None = None
    normalize: bool = False


def check_methods(methods: Sequence[str]) -> list[str]:
    """The method names upper-cased, refused (``ValueError``) if one is unknown or named twice."""
    names = [m.upper() for m in methods]
    if unknown := [m for m in names if m not in METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}; expected one of {', '.join(METHODS)}")
    if twice := [m for at, m in enumerate(names) if m in names[:at]]:
        raise ValueError(f"method {twice[0]!r} is named twice")
    return names


def run_method(
    name: str,
    x: CategoricalMatrix,
    k: int,
    opts: MethodOptions,
) -> tuple[Clustering, Dendrogram | None]:
    """Dispatch one clustering method by its table name."""
    [name] = check_methods([name])
    if not 1 <= k <= x.n:
        raise ValueError(f"cluster count must lie in [1, {x.n}], got {k}")
    if name in ("WOR", "WR"):
        cfg = EnsembleConfig(B=opts.B, seed=child_seed(opts.seed, 2), alpha=opts.alpha)
        subspaces = wor_subspaces if name == "WOR" else wr_subspaces
        return subspace_ensemble(x, subspaces(x.J, opts.blocks, seed=child_seed(opts.seed, 1)), cfg, k)
    if name in HC_METHODS:
        d = hamming(x, normalized=opts.normalize)
        tree = agglomerate(d, HC_METHODS[name])
        return cut_with_outlier_deferral(tree, k, opts.alpha), tree
    if name in EN_METHODS:
        cfg = EnsembleConfig(
            B=opts.B, linkage=EN_METHODS[name], seed=opts.seed, alpha=opts.alpha
        )
        return ensemble_cluster(x, cfg, k)
    if name == "KMODES":
        state = kmodes(x, k, seed=opts.seed)
        return relabel_dense(state.labels), None
    return en_kmodes(x, k, B=opts.B, seed=opts.seed), None


@dataclass(frozen=True)
class ExperimentSpec:
    """A replicated comparison of methods on one data source: a simulated ``design`` (in ``DESIGNS``,
    or in ``SEQ_DESIGNS`` with ``seq_j`` and ``seq_sizes``), or ``data = (name, table, truth)``
    loaded once from a file, whose name heads the results column."""

    methods: tuple[str, ...]
    replicates: int = 1
    k_final: int | None = None
    seed: int = 0
    design: str | None = None
    seq_j: int | None = None
    seq_sizes: tuple[int, ...] | None = None
    data: tuple[str, CategoricalMatrix, Clustering | None] | None = None
    options: MethodOptions = field(default_factory=MethodOptions)
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("at least one method is required")
        check_methods(self.methods)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if (self.design is None) == (self.data is None):
            raise ValueError("exactly one of design or data is required")
        if self.design not in (None, *DESIGNS, *SEQ_DESIGNS):
            raise ValueError(f"unknown design {self.design!r}")
        if self.design not in SEQ_DESIGNS and (self.seq_j, self.seq_sizes) != (None, None):
            raise ValueError("seq_j and seq_sizes apply only to a sequence design")


def _draw(design: str, seq_j: int | None, seq_sizes: tuple[int, ...] | None,
          seed: int, replicate: int) -> tuple[CategoricalMatrix, Clustering]:
    """One replicate of the simulated source ``design``: a low-dimensional design, or a
    sequence design with ``seq_j`` and ``seq_sizes``, when given, in place of its own."""
    if design in DESIGNS:
        return gen_lowdim(DESIGNS[design], seed=seed, replicate=replicate)
    changes = {k: v for k, v in (("J", seq_j), ("sizes", seq_sizes)) if v is not None}
    return gen_highdim(replace(SEQ_DESIGNS[design], **changes), seed=seed, replicate=replicate)


def _replicate_rates(spec: ExperimentSpec, replicate: int) -> dict[str, float]:
    source = (spec.design, spec.seq_j, spec.seq_sizes)
    x, truth = spec.data[1:] if spec.data else _draw(*source, child_seed(spec.seed, 0), replicate)
    if truth is None:
        raise DataError("classification rates need truth labels; none were provided")
    k = truth.K if spec.k_final is None else spec.k_final
    method_seed = child_seed(spec.seed, 1)
    rates: dict[str, float] = {}
    for mi, method in enumerate(spec.methods):
        opts = replace(spec.options, seed=child_seed(method_seed, replicate, mi))
        labels, _ = run_method(method, x, k, opts)
        rates[method] = classification_rate(labels, truth)
    return rates


def run_experiment(spec: ExperimentSpec) -> dict[str, dict[str, tuple[float, float]]]:
    """Replicate x method classification rates, aggregated to mean(sd).

    Results are keyed by replicate index, so any worker scheduling produces
    the same table.
    """
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so a serial run never imports it

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            per_rep = list(pool.map(_replicate_rates, [spec] * spec.replicates, range(spec.replicates)))
    else:
        per_rep = [_replicate_rates(spec, r) for r in range(spec.replicates)]
    column = spec.design or spec.data[0]
    results: dict[str, dict[str, tuple[float, float]]] = {}
    for method in spec.methods:
        results[method] = {column: replicate_summary([rep[method] for rep in per_rep])}
    return results


def _input_kind(args: argparse.Namespace) -> str:
    return args.format or ("fasta" if Path(args.input).suffix.lower() in catio.FASTA_SUFFIXES else "csv")


def _load_input(args: argparse.Namespace) -> tuple[CategoricalMatrix, Clustering | None]:
    """The table named by ``args.input``, read as the I/O flags say."""
    if _input_kind(args) == "fasta":
        gaps = catio.DEFAULT_GAP_SYMBOLS if args.gap_symbol is None else (args.gap_symbol,)
        return catio.load_fasta_matrix(args.input, gap_symbols=gaps), None
    return catio.read_categorical_csv(args.input, delimiter=args.delimiter, header=args.header,
                                      gap_symbol=args.gap_symbol, id_column=args.id_column,
                                      truth_column=args.truth_column)


class _Parser(argparse.ArgumentParser):
    # main returns a usage problem as exit 1 (argparse would exit 2, which we keep for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _one_char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected a single character, got {text!r}")
    return text


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "fasta"], help="input format (default: by extension)")
    p.add_argument("--delimiter", type=_one_char, default=",", help="CSV delimiter (default ',')")
    p.add_argument("--header", action="store_true", help="CSV input has a header row")
    p.add_argument("--gap-symbol", help="symbol marking alignment gaps")
    p.add_argument("--id-column", help="CSV column holding row ids (name or index)")
    p.add_argument("--truth-column", help="CSV column holding true labels (name or index)")


def _integer(low: int) -> Callable[[str], int]:
    """The reader of an integer flag of at least ``low``, in ASCII digits alone (``int`` reads ``1_0``)."""
    def integer(text: str) -> int:  # past Python's digit limit, int raises: "invalid integer value"
        if text.isascii() and text.isdecimal() and int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected a {('non-negative', 'positive')[low]} integer, got {text!r}")
    return integer


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_integer(0), text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _alpha(text: str) -> float:
    try:
        check_alpha(alpha := float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return alpha


def _noise(text: str) -> tuple[int, ...]:
    if len(spec := _sizes(text)) != 3:
        raise argparse.ArgumentTypeError(f"expected N,J,S integers, got {text!r}")
    return spec


def _add_source_flags(p: argparse.ArgumentParser, other: str, **kwargs) -> None:
    """The simulated sources and the command's ``other`` one, exactly one required."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", choices=sorted(DESIGNS, key=lambda s: int(s[1:])),
                     help="low-dimensional simulated design")
    src.add_argument("--seq-design", choices=sorted(SEQ_DESIGNS), help="high-dimensional sequence simulator")
    src.add_argument(other, **kwargs)
    p.add_argument("--seq-j", type=_integer(1), help="total dimension for --seq-design")
    p.add_argument("--seq-sizes", type=_sizes, help="comma-separated cluster sizes for --seq-design")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    default = MethodOptions()
    p.add_argument("--ensemble-size", type=_integer(1), default=default.B, metavar="B", dest="B",
                   help=f"base clusterings per ensemble (default {default.B}; EN methods, ENKM, WOR, WR)")
    p.add_argument("--alpha", type=_alpha, default=default.alpha,
                   help=f"small-cluster deferral fraction (default {default.alpha:g}; HC and EN methods, WOR, WR)")
    p.add_argument("--blocks", type=_integer(1), metavar="M",
                   help="subspace count (WOR, WR; WR default 200, WOR default random lengths)")
    p.add_argument("--seed", type=_integer(0), default=default.seed,
                   help=f"RNG seed (default {default.seed}); allowed with every method, "
                        "though HC methods draw none")
    p.add_argument("--normalize", action="store_true",
                   help="divide mismatch counts by compared positions in HC methods and "
                        "--save-dissimilarity; allowed with every method, though ensemble "
                        "methods always normalize and K-modes counts raw mismatches")
    p.add_argument("--config", help="flat key=value file providing flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catens", description="Ensemble clustering of categorical data and aligned sequences.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("cluster", help="cluster one dataset")
    pc.add_argument("input", help="CSV table or aligned FASTA file")
    pc.add_argument("--method", required=True, help="one of " + ", ".join(METHODS))
    pc.add_argument("--k", type=_integer(1), required=True, help="final cluster count")
    pc.add_argument("--output", help="labels CSV path (default: stdout)")
    pc.add_argument("--newick", help="write the dendrogram to this Newick file")
    pc.add_argument("--save-dissimilarity", help="export the pairwise dissimilarity as square CSV")
    _add_method_flags(pc)
    _add_io_flags(pc)

    pe = sub.add_parser("experiment", help="replicated method comparison")
    _add_source_flags(pe, "--input", help="CSV file with a truth column")
    pe.add_argument("--methods", required=True, help="comma-separated method names",
                    type=lambda text: tuple(m.strip().upper() for m in text.split(",") if m.strip()))
    pe.add_argument("--replicates", type=_integer(1), default=1)
    pe.add_argument("--k", type=_integer(1), help="final cluster count (default: from design/truth)")
    pe.add_argument("--output", help="write the TSV results table here")
    pe.add_argument("--workers", type=_integer(1), default=1, help="parallel replicate workers (default 1)")
    _add_method_flags(pe)
    _add_io_flags(pe)

    ps = sub.add_parser("simulate", help="generate and export a dataset")
    _add_source_flags(ps, "--noise", type=_noise, metavar="N,J,S", help="uniform noise table")
    ps.add_argument("--seed", type=_integer(0), default=0)
    ps.add_argument("--replicate", type=_integer(0), default=0)
    ps.add_argument("--output", required=True, help=".csv or .fasta destination (.fasta: not with --design)")
    ps.add_argument("--truth-out", help="sidecar truth CSV (FASTA output of --seq-design)")
    ps.add_argument("--delimiter", type=_one_char, default=",", help="CSV output delimiter (default ',')")
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Splice ``--config FILE`` or ``--config=FILE`` contents in as flags
    (explicit flags win)."""
    for at, token in enumerate(argv):
        if token == "--config" and at + 1 < len(argv):
            path, rest = argv[at + 1], argv[:at] + argv[at + 2:]
            break
        if token.startswith("--config="):
            path, rest = token.partition("=")[2], argv[:at] + argv[at + 1:]
            break
    else:
        return argv
    flags: list[str] = []
    for key, value in catio.load_config(path).items():
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        else:
            flags.extend([flag, value])
    # config flags go right after the subcommand so explicit ones override
    return rest[:1] + flags + rest[1:]


def _refuse(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Every refusal that the flags alone decide, before any input is read or drawn.  Usage errors (exit 1)
    first: a second ``--config``; an unknown method, which ``READS`` cannot name, or one named twice; a flag
    of ``READS`` that no part of the run reads, unless it holds its default (so one config file serves every
    run); a FASTA output of codes past 9 (``--design``, or ``--noise`` of over 10 symbols); two output flags,
    or an output flag and the input, naming one file.  Then data errors (exit 2): a file to be written into a
    missing directory or over a directory, and ``experiment --input`` without truth labels.  Sets
    ``args.fasta``: whether ``simulate`` writes FASTA."""
    if getattr(args, "config", None) is not None:  # a --config left after the first was spliced in
        raise ValueError("--config may be given once, spelled in full")
    parts = [f"--{s.replace('_', '-')}" for s in ("design", "seq_design", "noise") if getattr(args, s, None)]
    fasta = args.fasta = args.command == "simulate" and Path(args.output).suffix.lower() in catio.FASTA_SUFFIXES
    if args.command == "simulate":
        parts.append(("FASTA output of --seq-design" if args.seq_design else "FASTA output")
                     if fasta else "CSV output")
    else:
        methods = check_methods([args.method] if args.command == "cluster" else args.methods)
        parts = [*methods, *(parts or [f"{_input_kind(args).upper()} input"])]
    unread = set().union(*READS.values()).difference(*(READS.get(p, ()) for p in parts))
    command = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    for action in command._actions:
        if action.dest in unread and getattr(args, action.dest) != action.default:
            raise ValueError(f"{action.option_strings[0]} is not read by {', '.join(parts)}")
    if fasta and (args.design or args.noise and args.noise[2] > 10):
        codes = "--design codes run up to 20" if args.design else f"--noise codes run up to {args.noise[2] - 1}"
        raise ValueError(f"FASTA holds one character per position, but {codes}")
    outputs = {f"--{d.replace('_', '-')}": p for d in ("output", "newick", "save_dissimilarity", "truth_out")
               if (p := getattr(args, d, None))}
    named = {os.path.realpath(args.input): "the input"} if getattr(args, "input", None) else {}
    for flag, path in outputs.items():
        if (first := named.setdefault(os.path.realpath(path), flag)) != flag:
            raise ValueError(f"{first} and {flag} name one file")
    for flag, path in outputs.items():
        if Path(path).is_dir():
            raise DataError(f"{flag}: {path!r} is a directory")
        if not Path(path).parent.is_dir():
            raise DataError(f"{flag}: {str(Path(path).parent)!r} is not a directory")
    if args.command == "experiment" and args.input and (_input_kind(args) == "fasta" or args.truth_column is None):
        raise DataError("experiment --input needs truth labels: a CSV file with --truth-column")


def _options(args: argparse.Namespace) -> MethodOptions:
    return MethodOptions(**{f.name: getattr(args, f.name) for f in fields(MethodOptions)})


def _write_all(writes: dict[str | None, Callable[[str], None]]) -> None:
    """Call each ``write(path)`` of ``writes`` (``None`` paths skipped) so that a failed write
    leaves no output: each new or regular file is written to a sibling temporary file, renamed
    into place once all have succeeded; a device or a pipe is then written in place."""
    regular = [p for p in writes if p and (os.path.isfile(p) or not os.path.exists(p))]
    files = {os.path.realpath(p): writes[p] for p in regular}
    temps = {f: f"{f}.{os.getpid()}.tmp" for f in files}
    try:
        for f, write in files.items():
            write(temps[f])
        for f in files:
            os.replace(temps[f], f)
    finally:
        for temp in temps.values():
            Path(temp).unlink(missing_ok=True)
    for p in [p for p in writes if p and not os.path.isfile(p)]:
        writes[p](p)


def _cmd_cluster(args: argparse.Namespace) -> int:
    x, truth = _load_input(args)
    labels, tree = run_method(args.method, x, args.k, _options(args))
    _write_all({
        args.output: lambda p: catio.write_labels_csv(p, x.row_ids, labels.labels),
        args.newick: lambda p: catio.write_newick(p, tree, labels=x.row_ids),
        args.save_dissimilarity: lambda p: catio.write_dissimilarity_csv(p, hamming(x, normalized=args.normalize)),
    })
    if not args.output:
        catio.write_labels_csv(sys.stdout, x.row_ids, labels.labels)
    if truth is not None:
        sys.stderr.write(f"classification rate: {classification_rate(labels, truth):.4f}\n")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        methods=args.methods,
        replicates=args.replicates,
        k_final=args.k,
        seed=args.seed,
        design=args.design or args.seq_design,
        seq_j=args.seq_j,
        seq_sizes=args.seq_sizes,
        data=(Path(args.input).name, *_load_input(args)) if args.input else None,
        options=_options(args),
        workers=args.workers,
    )
    results = run_experiment(spec)
    table = format_results_table(results)
    _write_all({args.output: lambda p: Path(p).write_text(table, encoding="utf-8")})
    sys.stdout.write(table)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.noise is None:
        x, truth = _draw(args.design or args.seq_design, args.seq_j, args.seq_sizes, args.seed, args.replicate)
    else:
        x, truth = gen_noise(*args.noise, seed=args.seed, replicate=args.replicate), None
    # the generators' symbols: nucleotides for --seq-design, the code itself otherwise
    table = (np.array(NUCLEOTIDES)[x.codes] if args.seq_design else x.codes.astype(str)).tolist()
    ids = [str(i) for i in range(x.n)]
    write = (lambda p: catio.write_fasta(p, list(zip(ids, map("".join, table))))) if args.fasta else (
        lambda p: catio.write_categorical_csv(p, table, truth=truth, delimiter=args.delimiter))
    _write_all({args.output: write, args.truth_out: lambda p: catio.write_labels_csv(p, ids, truth.labels)})
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        _refuse(parser, args)
        commands = {"cluster": _cmd_cluster, "experiment": _cmd_experiment, "simulate": _cmd_simulate}
        return commands[args.command](args)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"catens: data error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"catens: usage error: {exc}\n")
        return 1
    except MemoryError as exc:  # so far always a size flag (--ensemble-size) past memory
        sys.stderr.write(f"catens: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
