"""The benchmark's workloads: input generation, one timed pass, output checks.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
phase), runs a fixed amount of work through the public ``catens`` API in
:meth:`run_pass`, and checks what came out in :meth:`check`.  A pass always
repeats the same work on the same inputs, so every pass of a run must give
the same output digest.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np

import catens.cli as cli
import catens.core as core
import catens.io as catio
import catens.metrics as metrics
from catens.rng import child_seed, substream
from catens.simgen import DESIGNS, SEQ_LOW_NOISE, Design, SeqDesign, gen_highdim, gen_lowdim

ORACLE_PAIRS = 24


class Checked:
    """What a pass produced, after its output checks."""

    def __init__(self) -> None:
        self.failed = 0
        self.problems: list[str] = []
        self.crs: list[float] = []
        self._digest = hashlib.sha256()
        self.parts: dict[str, str] = {}

    def record(self, name: str, data: bytes) -> None:
        """Fold one output into the pass digest and keep its own SHA-256."""
        self.parts[name] = hashlib.sha256(data).hexdigest()
        self._digest.update(name.encode() + b"\0" + data + b"\0")

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def check_labels(out: Checked, name: str, labels, n: int, k: int, units: int) -> bool:
    """Every row labelled, labels exactly ``0..k-1``; a failure fails ``units``."""
    arr = np.asarray(labels.labels if isinstance(labels, core.Clustering) else labels)
    if arr.shape != (n,):
        out.fail(units, f"{name}: {arr.size} labels for {n} rows")
        return False
    if sorted(set(arr.tolist())) != list(range(k)):
        out.fail(units, f"{name}: labels are not exactly 0..{k - 1}")
        return False
    out.record(name, arr.astype("<i8").tobytes())
    return True


def oracle_hamming(rows_a, rows_b, gap) -> tuple[int, int]:
    """Mismatches and compared positions of two rows, skipping any position
    where either row holds ``gap``; the reference the kernel is checked
    against."""
    count = compared = 0
    for u, v in zip(rows_a, rows_b):
        if u == gap or v == gap:
            continue
        compared += 1
        if u != v:
            count += 1
    return count, compared


def oracle_problems(rows, gap, d: core.DissimilarityMatrix, seed: int) -> list[str]:
    """Compare ``d`` with :func:`oracle_hamming` on a seeded sample of row
    pairs; ``rows`` are the raw rows ``d`` was computed from."""
    rng = random.Random(seed)
    problems = []
    n = len(rows)
    for _ in range(ORACLE_PAIRS):
        i, k = rng.sample(range(n), 2)
        count, compared = oracle_hamming(rows[i], rows[k], gap)
        expected = count if d.kind == "raw-count" else count / compared
        got = d.values[i, k]
        if got != expected:
            problems.append(f"hamming {d.kind} [{i},{k}] = {got!r}, oracle {expected!r}")
    return problems


def matrix_oracle(x: core.CategoricalMatrix, seed: int, kinds=(False, True)) -> list[str]:
    rows = x.codes.tolist()
    problems = []
    for normalized in kinds:
        problems += oracle_problems(rows, x.gap_code, core.hamming(x, normalized=normalized), seed)
    return problems


# ``required`` lists the layers a traced pass must record calls in;
# ``layer:counter`` asks for a non-zero counter instead of calls

class LowdimReplicates:
    """``cli.run_experiment`` on D1 (alpha 0) and D5 (alpha 0.05), four methods."""

    name = "lowdim-replicates"
    unit = "replicate x method"
    METHODS = ("HCAL", "ENAL", "ENKM", "KMODES")
    REPLICATES = 20
    required = (
        "core.hamming", "hclust.agglomerate", "hclust.cut_with_outlier_deferral",
        "ensemble.build_incidence", "ensemble.ensemble_dissimilarity", "ensemble.IncidenceMatrix.init",
        "core.DissimilarityMatrix.init", "kmodes.kmodes", "kmodes.en_kmodes",
        "metrics.classification_rate", "cli.run_method",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.specs = {
            "D1": cli.ExperimentSpec(
                methods=self.METHODS, replicates=self.REPLICATES, design="D1", seed=seed, workers=1,
            ),
            "D5": cli.ExperimentSpec(
                methods=self.METHODS, replicates=self.REPLICATES, design="D5", seed=seed, workers=1,
                options=cli.MethodOptions(alpha=0.05),
            ),
        }
        self.units = len(self.specs) * len(self.METHODS) * self.REPLICATES

    def run_pass(self) -> dict:
        return {name: cli.run_experiment(spec) for name, spec in self.specs.items()}

    def check(self, outputs: dict) -> Checked:
        out = Checked()
        for design, results in outputs.items():
            for method in self.METHODS:
                cell = results.get(method, {}).get(design)
                if cell is None or not 0.0 <= cell[0] <= 1.0 or not cell[1] >= 0.0:
                    out.fail(self.REPLICATES, f"{design}/{method}: bad result cell {cell!r}")
                    continue
                out.crs += [cell[0]] * self.REPLICATES
            # repr-exact floats: any label change that moves a rate shows
            out.record(f"{design}.results", json.dumps(results, sort_keys=True).encode())
        return out

    def first_replicate(self) -> core.CategoricalMatrix:
        """The D1 table ``run_experiment`` draws for replicate 0."""
        return gen_lowdim(DESIGNS["D1"], seed=child_seed(self.seed, 0), replicate=0)[0]

    def oracle(self) -> list[str]:
        return matrix_oracle(self.first_replicate(), self.seed)


class HighdimWR:
    """WR at the paper's J=50,000, n=50 and B=25, with M=50 subspaces.

    The paper uses M=200. Each subspace does the same work either way, and
    a 200-subspace pass takes about 21 s, long enough for the host's speed
    to drift by a third within it; 50 subspaces keep a pass near 5 s so the
    reference kernel can bracket it.
    """

    name = "highdim-wr"
    unit = "subspace"
    M = 50
    CR_FLOOR = 0.95
    required = (
        "core.hamming", "core.select_columns", "core.CategoricalMatrix.init",
        "subspace.wr_subspaces", "subspace.subspace_ensemble", "hclust.agglomerate",
        "hclust.cut_with_outlier_deferral", "ensemble.build_incidence",
        "metrics.classification_rate", "cli.run_method",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.x, self.truth = gen_highdim(SEQ_LOW_NOISE, seed=seed)
        self.opts = cli.MethodOptions(B=25, seed=seed, blocks=self.M)
        self.units = self.M

    def run_pass(self) -> dict:
        labels, _ = cli.run_method("WR", self.x, 5, self.opts)
        return {"labels": labels, "cr": metrics.classification_rate(labels, self.truth)}

    def check(self, outputs: dict) -> Checked:
        out = Checked()
        if not check_labels(out, "WR.labels", outputs["labels"], self.x.n, 5, self.units):
            return out
        if outputs["cr"] < self.CR_FLOOR:
            out.fail(self.units, f"WR classification rate {outputs['cr']:.4f} < {self.CR_FLOOR}")
        else:
            out.crs.append(outputs["cr"])
        return out

    def oracle(self) -> list[str]:
        return matrix_oracle(self.x, self.seed, kinds=(True,))


class LargeN:
    """HCAL and ENAL on four low-dimensional draws with 5 x 120 rows, J=20.

    Four draws, not one: ENAL's rate and, through ties, agglomeration time
    vary from draw to draw, and the average over four keeps both steady
    across seeds.
    """

    name = "large-n"
    unit = "method run"
    METHODS = ("HCAL", "ENAL")
    DESIGN = Design("N600", 5, (120,) * 5)
    DRAWS = 4
    required = (
        "core.hamming", "hclust.agglomerate", "ensemble.ensemble_dissimilarity",
        "ensemble.IncidenceMatrix.init", "core.DissimilarityMatrix.init",
        "metrics.classification_rate", "cli.run_method",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.draws = [gen_lowdim(self.DESIGN, seed=seed, replicate=r) for r in range(self.DRAWS)]
        self.opts = cli.MethodOptions(B=25, seed=seed)
        self.units = self.DRAWS * len(self.METHODS)

    def run_pass(self) -> dict:
        outputs = {}
        for r, (x, truth) in enumerate(self.draws):
            for method in self.METHODS:
                labels, _ = cli.run_method(method, x, self.DESIGN.K, self.opts)
                outputs[f"{method}.{r}"] = (labels, metrics.classification_rate(labels, truth))
        return outputs

    def check(self, outputs: dict) -> Checked:
        out = Checked()
        for name, (labels, cr) in outputs.items():
            if check_labels(out, f"{name}.labels", labels, self.DESIGN.n, self.DESIGN.K, 1):
                out.crs.append(cr)
        return out

    def oracle(self) -> list[str]:
        return [p for x, _ in self.draws for p in matrix_oracle(x, self.seed)]


_NEWICK_LEAF = re.compile(r"[(,]([^(),:;]+):")


class FastaGapsCli:
    """``catens cluster`` in-process on an aligned FASTA with 5 % gaps."""

    name = "fasta-gaps-cli"
    unit = "CLI run"
    N_PER_CLUSTER = 50
    J = 20_000
    GAP_SHARE = 0.05
    required = (
        "core.hamming", "core.hamming:gap_calls", "io.read_fasta", "core.encode",
        "io.write_newick", "io.write_labels_csv", "metrics.classification_rate", "cli.run_method",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        design = SeqDesign(block_probs=SEQ_LOW_NOISE.block_probs, J=self.J, sizes=(self.N_PER_CLUSTER,) * 5)
        x, self.truth = gen_highdim(design, seed=seed)
        chars = np.frombuffer(b"ATCG", dtype="S1")[x.codes]
        chars[substream(seed, 1).random(chars.shape) < self.GAP_SHARE] = b"-"
        self.ids = [f"seq{i:04d}" for i in range(x.n)]
        self.sequences = [row.tobytes().decode("ascii") for row in chars]
        self.fasta = workdir / "aligned.fasta"
        with open(self.fasta, "w", encoding="ascii") as handle:
            for rid, seq in zip(self.ids, self.sequences):
                handle.write(f">{rid}\n")
                for s in range(0, len(seq), 80):
                    handle.write(seq[s:s + 80] + "\n")
        self.labels_csv = workdir / "labels.csv"
        self.newick = workdir / "tree.nwk"
        self.argv = [
            "cluster", str(self.fasta), "--method", "ENAL", "--k", "5", "--normalize",
            "--seed", str(seed), "--output", str(self.labels_csv), "--newick", str(self.newick),
        ]
        self.units = 1

    def run_pass(self) -> dict:
        for path in (self.labels_csv, self.newick):
            path.unlink(missing_ok=True)
        code = cli.main(list(self.argv))
        if code != 0:
            return {"code": code}
        # keep this pass's bytes: the next pass overwrites the files
        outputs = {
            "code": code,
            "labels.csv": self.labels_csv.read_bytes(),
            "tree.nwk": self.newick.read_bytes(),
        }
        outputs["labels"] = self._parse_labels(outputs["labels.csv"])
        if outputs["labels"] is not None:
            outputs["cr"] = metrics.classification_rate(outputs["labels"], self.truth)
        return outputs

    def _parse_labels(self, data: bytes) -> np.ndarray | None:
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        if rows[:1] != [["id", "cluster"]] or [r[0] for r in rows[1:]] != self.ids:
            return None
        return np.array([int(r[1]) for r in rows[1:]], dtype=np.int64)

    def check(self, outputs: dict) -> Checked:
        out = Checked()
        if outputs["code"] != 0:
            out.fail(1, f"catens cluster exited with {outputs['code']}")
            return out
        if outputs["labels"] is None:
            out.fail(1, "labels CSV does not list every FASTA id in order")
            return out
        if not check_labels(out, "ENAL.labels", outputs["labels"], len(self.ids), 5, 1):
            return out
        leaves = _NEWICK_LEAF.findall(outputs["tree.nwk"].decode("utf-8"))
        if sorted(leaves) != sorted(self.ids):
            out.fail(1, "Newick leaf set differs from the FASTA ids")
            return out
        out.record("labels.csv", outputs["labels.csv"])
        out.record("tree.nwk", outputs["tree.nwk"])
        out.crs.append(outputs["cr"])
        return out

    def oracle(self) -> list[str]:
        x = catio.load_fasta_matrix(self.fasta)
        return oracle_problems(self.sequences, "-", core.hamming(x, normalized=True), self.seed)


WORKLOADS = {w.name: w for w in (LowdimReplicates, HighdimWR, LargeN, FastaGapsCli)}
