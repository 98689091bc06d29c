"""Command-line front end and experiment runner.

Subcommands: ``cluster`` (one dataset in, labels and optional Newick out),
``experiment`` (replicated method comparison with a mean(sd) results
table), and ``simulate`` (export generated datasets).  The method name alone
picks the pipeline; WOR and WR wrap ENAL in random-subspace ensembling.  A
flag that no method of the run reads (see ``READS``) is refused.  Exit
codes: 0 on success, 1 for usage errors (or out of memory), 2 for data errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import io as catio
from .core import CategoricalMatrix, Clustering, DataError, hamming, relabel_dense
from .ensemble import EnsembleConfig, ensemble_cluster
from .hclust import Dendrogram, agglomerate, cut_with_outlier_deferral
from .kmodes import en_kmodes, kmodes
from .metrics import classification_rate, format_results_table, replicate_summary
from .rng import child_seed
from .simgen import (
    DESIGNS, NUCLEOTIDES, SEQ_HIGH_NOISE, SEQ_LOW_NOISE, gen_highdim, gen_lowdim, gen_noise,
)
from .subspace import subspace_ensemble, wor_subspaces, wr_subspaces

HC_METHODS = {"HCSL": "SL", "HCAL": "AL", "HCCL": "CL"}
EN_METHODS = {"ENSL": "SL", "ENAL": "AL", "ENCL": "CL"}
METHODS = (*HC_METHODS, *EN_METHODS, "KMODES", "ENKM", "WOR", "WR")
# which of the refusable options (``_FLAGS``) each method reads; ``seed`` and
# ``normalize`` are never refused, as --save-dissimilarity reads ``normalize``
READS = {
    **dict.fromkeys(HC_METHODS, {"alpha"}), **dict.fromkeys(EN_METHODS, {"B", "alpha"}),
    "KMODES": set(), "ENKM": {"B"}, "WOR": {"B", "alpha", "blocks"}, "WR": {"B", "alpha", "blocks"},
}
_FLAGS = {"B": "--ensemble-size", "alpha": "--alpha", "blocks": "--blocks"}

SEQ_DESIGNS = {"low-noise": SEQ_LOW_NOISE, "high-noise": SEQ_HIGH_NOISE}


@dataclass(frozen=True)
class MethodOptions:
    """Per-run knobs shared by every method."""

    B: int = 25
    alpha: float = 0.0
    seed: int = 0
    blocks: int | None = None
    normalize: bool = False


def run_method(
    name: str,
    x: CategoricalMatrix,
    k: int,
    opts: MethodOptions,
) -> tuple[Clustering, Dendrogram | None]:
    """Dispatch one clustering method by its table name."""
    name = name.upper()
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; expected one of {', '.join(METHODS)}")
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
    """A replicated comparison of methods on one data source: a simulated
    ``design`` or ``seq_design``, or ``data = (name, table, truth)`` loaded
    once from a file, whose name heads the results column."""

    methods: tuple[str, ...]
    replicates: int = 1
    k_final: int | None = None
    seed: int = 0
    design: str | None = None
    seq_design: str | None = None
    seq_j: int | None = None
    seq_sizes: tuple[int, ...] | None = None
    data: tuple[str, CategoricalMatrix, Clustering | None] | None = None
    options: MethodOptions = field(default_factory=MethodOptions)
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m.upper() not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        sources = [s is not None for s in (self.design, self.seq_design, self.data)]
        if sum(sources) != 1:
            raise ValueError("exactly one of design, seq_design or data is required")
        if self.design is not None and self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.seq_design is not None and self.seq_design not in SEQ_DESIGNS:
            raise ValueError(f"unknown sequence design {self.seq_design!r}")
        if self.seq_design is None and (self.seq_j, self.seq_sizes) != (None, None):
            raise ValueError("seq_j and seq_sizes apply only to seq_design")


def _draw(design: str | None, seq_design: str | None, seq_j: int | None, seq_sizes: tuple[int, ...] | None,
          seed: int, replicate: int) -> tuple[CategoricalMatrix, Clustering]:
    """One replicate of a simulated source: the low-dimensional ``design``, or else
    ``seq_design`` with ``seq_j`` and ``seq_sizes``, when given, in place of its own."""
    if design is not None:
        return gen_lowdim(DESIGNS[design], seed=seed, replicate=replicate)
    changes = {k: v for k, v in (("J", seq_j), ("sizes", seq_sizes)) if v is not None}
    return gen_highdim(replace(SEQ_DESIGNS[seq_design], **changes), seed=seed, replicate=replicate)


def _replicate_rates(spec: ExperimentSpec, replicate: int) -> dict[str, float]:
    source = (spec.design, spec.seq_design, spec.seq_j, spec.seq_sizes)
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
    column = spec.design or spec.seq_design or spec.data[0]
    results: dict[str, dict[str, tuple[float, float]]] = {}
    for method in spec.methods:
        results[method] = {column: replicate_summary([rep[method] for rep in per_rep])}
    return results


def _load_input(args: argparse.Namespace) -> tuple[CategoricalMatrix, Clustering | None]:
    """The table named by ``args.input``, read as the I/O flags say."""
    suffix = Path(args.input).suffix.lower()
    kind = args.format or ("fasta" if suffix in catio.FASTA_SUFFIXES else "csv")
    if kind == "fasta":
        csv_only = {"header": False, "delimiter": ",", "id_column": None, "truth_column": None}
        if flags := ["--" + f.replace("_", "-") for f, v in csv_only.items() if getattr(args, f) != v]:
            raise ValueError(f"only CSV input reads {', '.join(flags)}")
        gaps = catio.DEFAULT_GAP_SYMBOLS if args.gap_symbol is None else (args.gap_symbol,)
        return catio.load_fasta_matrix(args.input, gap_symbols=gaps), None
    return catio.read_categorical_csv(
        args.input,
        delimiter=args.delimiter,
        header=args.header,
        gap_symbol=args.gap_symbol,
        id_column=args.id_column,
        truth_column=args.truth_column,
    )


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_source_flags(p: argparse.ArgumentParser, other: str, **kwargs) -> None:
    """The simulated sources and the command's ``other`` one, exactly one required."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", choices=sorted(DESIGNS, key=lambda s: int(s[1:])),
                     help="low-dimensional simulated design")
    src.add_argument("--seq-design", choices=sorted(SEQ_DESIGNS), help="high-dimensional sequence simulator")
    src.add_argument(other, **kwargs)
    p.add_argument("--seq-j", type=int, help="total dimension for --seq-design")
    p.add_argument("--seq-sizes", type=_sizes, help="comma-separated cluster sizes for --seq-design")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    default = MethodOptions()
    p.add_argument("--ensemble-size", type=int, default=default.B, metavar="B", dest="B",
                   help=f"base clusterings per ensemble (default {default.B}; EN methods, ENKM, WOR, WR)")
    p.add_argument("--alpha", type=float, default=default.alpha,
                   help=f"small-cluster deferral fraction (default {default.alpha:g}; HC and EN methods, WOR, WR)")
    p.add_argument("--blocks", type=int, metavar="M",
                   help="subspace count (WOR, WR; WR default 200, WOR default random lengths)")
    p.add_argument("--seed", type=int, default=default.seed,
                   help=f"RNG seed (default {default.seed}); allowed with every method, "
                        "though HC methods draw none")
    p.add_argument("--normalize", action="store_true",
                   help="divide mismatch counts by compared positions in HC methods and "
                        "--save-dissimilarity; allowed with every method, though ensemble "
                        "methods always normalize and K-modes counts raw mismatches")
    p.add_argument("--config", help="flat key=value file providing flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("cluster", help="cluster one dataset")
    pc.add_argument("input", help="CSV table or aligned FASTA file")
    pc.add_argument("--method", required=True, help="one of " + ", ".join(METHODS))
    pc.add_argument("--k", type=int, required=True, help="final cluster count")
    pc.add_argument("--output", help="labels CSV path (default: stdout)")
    pc.add_argument("--newick", help="write the dendrogram to this Newick file")
    pc.add_argument("--save-dissimilarity", help="export the pairwise dissimilarity as square CSV")
    _add_method_flags(pc)
    _add_io_flags(pc)

    pe = sub.add_parser("experiment", help="replicated method comparison")
    _add_source_flags(pe, "--input", help="CSV file with a truth column")
    pe.add_argument("--methods", required=True, help="comma-separated method names")
    pe.add_argument("--replicates", type=int, default=1)
    pe.add_argument("--k", type=int, help="final cluster count (default: from design/truth)")
    pe.add_argument("--output", help="write the TSV results table here")
    pe.add_argument("--workers", type=int, default=1, help="parallel replicate workers (default 1)")
    _add_method_flags(pe)
    _add_io_flags(pe)

    ps = sub.add_parser("simulate", help="generate and export a dataset")
    _add_source_flags(ps, "--noise", metavar="N,J,S", help="uniform noise table")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--replicate", type=int, default=0)
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


def _options(args: argparse.Namespace, methods: tuple[str, ...]) -> MethodOptions:
    """The method flags as options; one set away from its default that no
    method of the run reads is a usage error."""
    opts = MethodOptions(**{f.name: getattr(args, f.name) for f in fields(MethodOptions)})
    read = set().union(*(READS.get(m.upper(), set()) for m in methods))
    for f in fields(MethodOptions):
        if f.name in _FLAGS and f.name not in read and getattr(opts, f.name) != f.default:
            raise ValueError(f"{_FLAGS[f.name]} is not read by {', '.join(methods)}")
    return opts


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.newick and args.method.upper() in ("KMODES", "ENKM"):
        raise ValueError(f"method {args.method} does not produce a dendrogram")
    opts = _options(args, (args.method,))
    x, truth = _load_input(args)
    labels, tree = run_method(args.method, x, args.k, opts)
    ids = x.row_ids or tuple(str(i) for i in range(x.n))
    catio.write_labels_csv(args.output or sys.stdout, ids, labels.labels)
    if args.newick:
        catio.write_newick(args.newick, tree, labels=ids)
    if args.save_dissimilarity:
        catio.write_dissimilarity_csv(args.save_dissimilarity, hamming(x, normalized=args.normalize))
    if truth is not None:
        sys.stderr.write(f"classification rate: {classification_rate(labels, truth):.4f}\n")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    methods = tuple(m.strip().upper() for m in args.methods.split(",") if m.strip())
    options = _options(args, methods)
    spec = ExperimentSpec(
        methods=methods,
        replicates=args.replicates,
        k_final=args.k,
        seed=args.seed,
        design=args.design,
        seq_design=args.seq_design,
        seq_j=args.seq_j,
        seq_sizes=args.seq_sizes,
        data=(Path(args.input).name, *_load_input(args)) if args.input else None,
        options=options,
        workers=args.workers,
    )
    results = run_experiment(spec)
    table = format_results_table(results)
    if args.output:
        Path(args.output).write_text(table, encoding="utf-8")
    sys.stdout.write(table)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.output)
    fasta = out.suffix.lower() in catio.FASTA_SUFFIXES
    if not args.seq_design and (args.seq_j, args.seq_sizes) != (None, None):
        raise ValueError("--seq-j and --seq-sizes apply only to --seq-design")
    if fasta and args.design:
        raise ValueError("FASTA holds one character per position, but --design codes run up to 20")
    if args.truth_out and not (fasta and args.seq_design):
        raise ValueError("--truth-out applies only to FASTA output of --seq-design")
    if fasta and args.delimiter != ",":
        raise ValueError("--delimiter applies only to CSV output")
    if args.noise is None:
        x, truth = _draw(args.design, args.seq_design, args.seq_j, args.seq_sizes, args.seed, args.replicate)
    else:
        try:
            n, j, s = (int(v) for v in args.noise.split(","))
        except ValueError:
            raise ValueError("--noise expects N,J,S integers") from None
        x, truth = gen_noise(n, j, s, seed=args.seed, replicate=args.replicate), None
    # the generators' symbols: nucleotides for --seq-design, the code itself otherwise
    table = (np.array(NUCLEOTIDES)[x.codes] if args.seq_design else x.codes.astype(str)).tolist()
    if not fasta:
        catio.write_categorical_csv(out, table, truth=truth, delimiter=args.delimiter)
        return 0
    if (bad := next((s for row in table for s in row if len(s) != 1), None)) is not None:
        raise ValueError(f"FASTA needs one character per position, got the symbol {bad!r}")
    ids = [str(i) for i in range(x.n)]
    catio.write_fasta(out, list(zip(ids, map("".join, table))))
    if args.truth_out:
        catio.write_labels_csv(args.truth_out, ids, truth.labels)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        if getattr(args, "config", None) is not None:  # a --config left after the first was spliced in
            raise ValueError("--config may be given once, spelled in full")
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_simulate(args)
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
