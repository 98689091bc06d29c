import argparse
import hashlib
import importlib
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from catens import cli, ensemble
from catens import io as catio
from catens.cli import ExperimentSpec, MethodOptions, build_parser, main, run_experiment, run_method
from catens.core import encode
from catens.metrics import classification_rate
from catens.rng import substream
from catens.simgen import DESIGNS, Design, gen_lowdim


def write_blocks_csv(path, rng, sizes=(8, 8), J=10, shuffle=False):
    """Two well-separated clusters: distinct symbol per block with light noise."""
    rows, truth = [], []
    for label, size in enumerate(sizes):
        base = "ab"[label]
        for _ in range(size):
            row = [base if rng.random() > 0.08 else "z" for _ in range(J)]
            rows.append(row)
            truth.append(label)
    order = list(range(len(rows)))
    if shuffle:
        order = rng.permutation(len(rows)).tolist()
        rows = [rows[i] for i in order]
        truth = [truth[i] for i in order]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    return np.asarray(truth), order


def full_disk(*args, **kwargs):
    """A writer that fails as on a full disk."""
    raise OSError(28, "No space left on device")


# two clusters of five aligned sequences with ``-`` and ``.`` gaps and
# lower-case residues, wrapped over two lines each
GAPPED_FASTA = """\
>s0 sample 0
ACGTTGTAaCTTACCT.-
.-TCA-gATCgA
>s1 sample 1
ACGtT-cAACGTGGCTAG
ACTTACGATCGA
>s2 sample 2
CCGTTGCGAAgTA.CTAG
-CTTACTGTCGA
>s3 sample 3
ACgTT.TATcGTAGCTAG
gC.TA.G.tCGA
>s4 sample 4
ACGTTGCaACGtAGCGAg
gCTTaCGAT.GA
>s5 sample 5
TG.AACGT.GCAtC.A-C
TG-CTGCTACcT
>s6 sample 6
TGCAACGTTgCAtC.ATC
.GAATGCAAGCT
>s7 sample 7
TGCAACGTT.CAtGGaT.
cCAGtGTt.gCT
>s8 sample 8
TGCCACGtTGCATGGACT
CGAATGCTAGCT
>s9 sample 9
TTCAAC.TTGCCtAGTTC
CAaATG.TA-C-
"""


class TestRunMethod:
    @pytest.mark.parametrize(
        "method", ["HCSL", "HCAL", "HCCL", "ENSL", "ENAL", "ENCL", "KMODES", "ENKM", "WOR", "WR"]
    )
    def test_every_method_runs(self, method):
        x, truth = gen_lowdim(DESIGNS["D10"], seed=3)
        opts = MethodOptions(B=6, seed=5, blocks=5)
        labels, tree = run_method(method, x, 2, opts)
        assert labels.n == x.n
        if method in ("KMODES", "ENKM"):
            assert tree is None
        else:
            assert tree is not None and tree.n == x.n

    @pytest.mark.parametrize("method, alpha", [("HCAL", 0.0), ("ENAL", 0.0), ("ENAL", 0.05), ("ENKM", 0.0)])
    def test_one_square_table_per_stage(self, method, alpha):
        # the kernel's float64 counts become the dissimilarity in place, and ENAL
        # drops the base matrix before its second stage, so each stage holds one
        # n x n table beside one working copy: about 2.1 n^2 float64
        x, _ = gen_lowdim(Design("N400", 5, (80,) * 5), seed=7)
        tracemalloc.start()
        try:
            run_method(method, x, 5, MethodOptions(B=25, seed=3, alpha=alpha))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 8 * x.n**2

    def test_unknown_method_rejected(self):
        x, _ = gen_lowdim(DESIGNS["D10"], seed=3)
        with pytest.raises(ValueError):
            run_method("DBSCAN", x, 2, MethodOptions())

    @pytest.mark.parametrize("method", ["HCAL", "ENAL", "WR"])
    def test_cluster_count_out_of_range_is_refused_before_any_work(self, monkeypatch, method):
        # the cut would refuse it too, but only after the Hamming pass, the
        # agglomeration or every WR subspace
        def no_work(*args, **kwargs):
            raise AssertionError("worked on a cluster count that no cut can give")

        for module, name in ((cli, "hamming"), (ensemble, "hamming"), (cli, "wr_subspaces")):
            monkeypatch.setattr(module, name, no_work)
        x, _ = gen_lowdim(DESIGNS["D10"], seed=3)
        for k in (x.n + 1, 0):
            with pytest.raises(ValueError, match=rf"^cluster count must lie in \[1, {x.n}\], got {k}$"):
                run_method(method, x, k, MethodOptions(B=6, seed=5))


class TestClusterCommand:
    def test_labels_roundtrip_and_row_count(self, tmp_path):
        rng = substream(61)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        out = tmp_path / "labels.csv"
        code = main(["cluster", str(data), "--method", "HCAL", "--k", "2", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,cluster"
        assert len(lines) == 17

    def test_stdout_matches_output_file(self, tmp_path, capsys):
        # ids holding a delimiter and a quote must be quoted on stdout as in the file
        data = tmp_path / "quoted.csv"
        data.write_text('"a,1",x,y\nb,x,y\n"c""q",z,w\nd,z,w\n', encoding="utf-8")
        argv = ["cluster", str(data), "--method", "HCAL", "--k", "2", "--id-column", "0"]
        out = tmp_path / "labels.csv"
        assert main(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        assert out.read_text().splitlines()[1] == '"a,1",0'
        assert out.read_text().splitlines()[3] == '"c""q",1'

    @pytest.mark.parametrize(
        "method, flags",
        [("HCAL", []), ("ENAL", ["--ensemble-size", "5"]), ("WR", ["--ensemble-size", "5", "--blocks", "3"])],
        ids=["HCAL", "ENAL", "WR"],
    )
    def test_fasta_newick_leafset(self, tmp_path, method, flags):
        # one method per producer of the tree --newick writes: agglomerate,
        # ensemble_cluster and subspace_ensemble
        fasta = tmp_path / "aln.fasta"
        records = [(f"rec{i}", ("ACGT" if i < 3 else "TGCA") * 3) for i in range(6)]
        catio.write_fasta(fasta, records)
        nwk = tmp_path / "tree.nwk"
        out = tmp_path / "labels.csv"
        code = main([
            "cluster", str(fasta), "--method", method, "--k", "2",
            *flags, "--output", str(out), "--newick", str(nwk),
        ])
        assert code == 0
        leaves = re.findall(r"[(,]([^(),:;]+):", nwk.read_text())
        assert sorted(leaves) == [name for name, _ in records]

    def test_byte_identical_reruns(self, tmp_path):
        rng = substream(62)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        outputs = []
        for run in range(2):
            out = tmp_path / f"labels{run}.csv"
            nwk = tmp_path / f"tree{run}.nwk"
            code = main([
                "cluster", str(data), "--method", "ENAL", "--k", "2",
                "--seed", "11", "--output", str(out), "--newick", str(nwk),
            ])
            assert code == 0
            outputs.append(out.read_bytes() + nwk.read_bytes())
        assert outputs[0] == outputs[1]

    def test_input_order_invariance(self, tmp_path):
        rng = substream(63)
        plain = tmp_path / "plain.csv"
        truth_plain, _ = write_blocks_csv(plain, substream(64))
        shuffled = tmp_path / "shuffled.csv"
        truth_shuffled, order = write_blocks_csv(shuffled, substream(64), shuffle=True)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["cluster", str(plain), "--method", "HCAL", "--k", "2", "--output", str(out_a)]) == 0
        assert main(["cluster", str(shuffled), "--method", "HCAL", "--k", "2", "--output", str(out_b)]) == 0

        def labels_of(path):
            rows = [l.split(",") for l in path.read_text().strip().splitlines()[1:]]
            return np.array([int(c) for _, c in rows])

        a = labels_of(out_a)
        b = labels_of(out_b)
        unshuffled = np.empty_like(b)
        unshuffled[order] = b
        assert classification_rate(unshuffled, a) == 1.0

    @pytest.mark.parametrize("method", ["KMODES", "enkm"])
    def test_kmodes_newick_is_usage_error(self, tmp_path, method):
        # refused before the input is read, so no labels file is written
        rng = substream(65)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        out = tmp_path / "labels.csv"
        code = main([
            "cluster", str(data), "--method", method, "--k", "2",
            "--newick", str(tmp_path / "t.nwk"), "--output", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["cluster", str(tmp_path / "nope.csv"), "--method", "HCAL", "--k", "2"])
        assert code == 2

    def test_ragged_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\nc\n", encoding="utf-8")
        assert main(["cluster", str(bad), "--method", "HCAL", "--k", "2"]) == 2

    @pytest.mark.parametrize("flag", ["--id-column", "--truth-column"])
    def test_ragged_csv_with_extracted_column_is_data_error(self, tmp_path, flag):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\nd\n", encoding="utf-8")
        assert main(["cluster", str(bad), "--method", "HCAL", "--k", "2", flag, "2"]) == 2

    @pytest.mark.parametrize("name", ["bad.csv", "bad.fasta"])
    def test_non_utf8_input_is_data_error(self, tmp_path, name, capsys):
        bad = tmp_path / name
        bad.write_bytes(b">r1\nAC\xff\n>r2\nACG\n" if name.endswith(".fasta") else b"a,\xff\nb,c\n")
        assert main(["cluster", str(bad), "--method", "HCAL", "--k", "2"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_multi_character_delimiter_is_usage_error(self, tmp_path):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(71))
        assert main(["cluster", str(data), "--method", "HCAL", "--k", "2", "--delimiter", ";;"]) == 1

    @pytest.mark.parametrize("method", ["HCAL", "ENAL", "ENKM", "WR", "WOR"])
    def test_one_row_is_data_error(self, tmp_path, method, capsys):
        one = tmp_path / "one.csv"
        one.write_text("a,b,c\n", encoding="utf-8")
        assert main(["cluster", str(one), "--method", method, "--k", "1"]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, k, code, message",
        [
            ("a,b\nb,a\na,a\n", "5", 1, "cluster count must lie in [1, 3], got 5"),
            ("a,b\n-,a\na,a\n", "2", 2, "k-modes requires gap-free data"),
        ],
    )
    def test_enkm_checks_input_as_kmodes_before_any_run(
        self, tmp_path, monkeypatch, capsys, rows, k, code, message
    ):
        data = tmp_path / "three_rows.csv"
        data.write_text(rows, encoding="utf-8")
        runs = []
        monkeypatch.setattr(importlib.import_module("catens.kmodes"), "_runs", lambda *a: runs.append(a))
        errors = []
        for method in ("KMODES", "ENKM"):
            argv = ["cluster", str(data), "--method", method, "--k", k, "--gap-symbol", "-"]
            assert main(argv) == code
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and message in errors[0]
        assert runs == []

    @pytest.mark.parametrize("method", ["WOR", "WR"])
    def test_zero_blocks_is_usage_error(self, tmp_path, method):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(72))
        assert main(["cluster", str(data), "--method", method, "--k", "2", "--blocks", "0"]) == 1

    @pytest.mark.parametrize(
        "flag", [["--header"], ["--delimiter", ";"], ["--id-column", "0"], ["--truth-column", "2"]],
        ids=lambda flag: flag[0],
    )
    def test_csv_only_flag_on_fasta_is_usage_error(self, tmp_path, flag, capsys):
        fasta = tmp_path / "aln.fasta"
        catio.write_fasta(fasta, [("a", "ACGT"), ("b", "ACGA"), ("c", "TTGA")])
        assert main(["cluster", str(fasta), "--method", "HCAL", "--k", "2", *flag]) == 1
        assert f"{flag[0]} is not read by HCAL, FASTA input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["blocks.csv", "--method", "KMODES", "--newick", "t.nwk"],
            ["blocks.csv", "--method", "ENKM", "--alpha", "0.1"],
            ["aln.fasta", "--method", "HCAL", "--truth-column", "2"],
        ],
        ids=["newick-kmodes", "alpha-enkm", "truth-column-fasta"],
    )
    def test_refused_flag_ends_before_the_input_is_read(self, tmp_path, capsys, monkeypatch, argv):
        def no_read(*args, **kwargs):
            raise AssertionError("read the input of a refused run")

        monkeypatch.setattr(catio, "read_categorical_csv", no_read)
        monkeypatch.setattr(catio, "load_fasta_matrix", no_read)
        monkeypatch.chdir(tmp_path)
        assert main(["cluster", *argv, "--k", "2", "--output", "labels.csv"]) == 1
        assert f"{argv[3]} is not read by {argv[2]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_multi_character_fasta_gap_symbol_is_usage_error(self, tmp_path, capsys):
        fasta = tmp_path / "aln.fasta"
        catio.write_fasta(fasta, [("a", "ANNT"), ("b", "ACGA"), ("c", "TTGA")])
        assert main(["cluster", str(fasta), "--method", "HCAL", "--k", "2", "--gap-symbol", "NN"]) == 1
        assert "single characters" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--subspace", "wr"], ["--linkage", "SL"]], ids=lambda flag: flag[0])
    def test_deleted_flags_are_usage_errors(self, tmp_path, flag):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(73))
        assert main(["cluster", str(data), "--method", "ENAL", "--k", "2", *flag]) == 1

    def test_unknown_method_is_usage_error(self, tmp_path):
        rng = substream(66)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        assert main(["cluster", str(data), "--method", "ROCK", "--k", "2"]) == 1

    def test_save_dissimilarity(self, tmp_path):
        rng = substream(67)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng, sizes=(4, 4), J=6)
        dpath = tmp_path / "d.csv"
        code = main([
            "cluster", str(data), "--method", "HCSL", "--k", "2",
            "--output", str(tmp_path / "l.csv"), "--save-dissimilarity", str(dpath),
        ])
        assert code == 0
        rows = dpath.read_text().strip().splitlines()
        assert len(rows) == 8 and len(rows[0].split(",")) == 8
        assert [row.split(",")[i] for i, row in enumerate(rows)] == ["0"] * 8  # never "-0"

    def test_gapped_fasta_outputs_are_pinned(self, tmp_path):
        # SHA-256 of every file a gapped FASTA run writes: a change that
        # moves any of these bytes must update the pins and say why
        fasta = tmp_path / "aln.fasta"
        fasta.write_text(GAPPED_FASTA, encoding="utf-8")
        paths = {name: tmp_path / name for name in ("labels.csv", "tree.nwk", "d.csv")}
        code = main([
            "cluster", str(fasta), "--method", "ENAL", "--k", "2", "--normalize", "--seed", "5",
            "--output", str(paths["labels.csv"]), "--newick", str(paths["tree.nwk"]),
            "--save-dissimilarity", str(paths["d.csv"]),
        ])
        assert code == 0
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert digests == {
            "labels.csv": "69f1d61d16458aa35e45106a714ecdf03b3d9f208a916b67e5332c9c98badbdc",
            "tree.nwk": "62c693068aaa7ba2c12ec075181aa12c67726a8649c5429278a7f293bc3eaf79",
            "d.csv": "12ef27b3df709409f1a41b54ce744ab22652b785e727e384ba71ecb0c2e24ea8",
        }

    def test_failed_newick_write_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the labels come first in the flags and in the run; a full disk at the
        # Newick file must leave neither them nor a temporary file behind
        monkeypatch.setattr(catio, "write_newick", full_disk)
        write_blocks_csv(tmp_path / "blocks.csv", substream(62))
        argv = ["cluster", str(tmp_path / "blocks.csv"), "--method", "HCAL", "--k", "2",
                "--output", str(tmp_path / "labels.csv"), "--newick", str(tmp_path / "tree.nwk")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "No space left on device" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.csv"]

    def test_output_to_a_pipe_is_written_in_place(self, tmp_path):
        # a path that is not a regular file takes no temporary file and no rename
        write_blocks_csv(tmp_path / "blocks.csv", substream(63))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert main(["cluster", str(tmp_path / "blocks.csv"), "--method", "HCAL", "--k", "2",
                     "--output", str(pipe)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert pipe.is_fifo()
        assert read[0].decode().splitlines()[0] == "id,cluster"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.csv", "pipe"]


class TestExperimentCommand:
    def test_design_table(self, tmp_path, capsys):
        out = tmp_path / "table.tsv"
        code = main([
            "experiment", "--design", "D10", "--methods", "HCAL,ENAL",
            "--replicates", "3", "--seed", "2", "--output", str(out),
            "--ensemble-size", "8",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method\tD10"
        assert lines[1].startswith("HCAL\t0.") and lines[2].startswith("ENAL\t0.")

    def test_deterministic_output(self, tmp_path):
        args = [
            "experiment", "--design", "D11", "--methods", "ENAL",
            "--replicates", "2", "--seed", "9", "--ensemble-size", "6",
        ]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_input_with_truth(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(
            "v0,v1,truth\n" + "\n".join(
                f"{'a' if i < 5 else 'b'},{'a' if i < 5 else 'b'},{int(i >= 5)}" for i in range(10)
            ) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "t.tsv"
        code = main([
            "experiment", "--input", str(data), "--header", "--truth-column", "truth",
            "--methods", "HCAL", "--replicates", "1", "--output", str(out),
        ])
        assert code == 0
        assert out.read_text().strip().splitlines()[1] == "HCAL\t1.00"

    def test_sd_zero_formatting_single_replicate(self, tmp_path):
        out = tmp_path / "t.tsv"
        code = main([
            "experiment", "--design", "D10", "--methods", "HCAL",
            "--replicates", "1", "--output", str(out),
        ])
        assert code == 0
        cell = out.read_text().strip().splitlines()[1].split("\t")[1]
        assert "(" not in cell

    def test_missing_truth_is_data_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\nb,a\n", encoding="utf-8")
        code = main([
            "experiment", "--input", str(data), "--methods", "HCAL",
            "--replicates", "1", "--k", "2",
        ])
        assert code == 2

    def test_unknown_method_is_usage_error(self):
        assert main(["experiment", "--design", "D10", "--methods", "NOPE"]) == 1

    def test_a_method_named_twice_is_refused_before_the_draw(self, capsys, monkeypatch):
        # the results table keys rows by method, so a second ENAL row would overwrite the first
        def no_draw(*args, **kwargs):
            raise AssertionError("drew the data of a refused run")

        monkeypatch.setattr(cli, "gen_lowdim", no_draw)
        assert main(["experiment", "--design", "D10", "--methods", "ENAL,enal,HCAL", "--replicates", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage error: method 'ENAL' is named twice" in err
        with pytest.raises(ValueError, match="method 'ENAL' is named twice"):
            ExperimentSpec(methods=("enal", "ENAL"), design="D1")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_workers_is_usage_error(self, workers):
        assert main(["experiment", "--design", "D10", "--methods", "HCAL", "--workers", workers]) == 1

    def test_flag_read_by_any_listed_method(self):
        argv = ["experiment", "--design", "D10", "--alpha", "0.05", "--methods"]
        assert main(argv + ["KMODES"]) == 1
        assert main(argv + ["HCAL,KMODES"]) == 0

    @pytest.mark.parametrize(
        "flag",
        [["--header"], ["--delimiter", ";"], ["--gap-symbol", "-"], ["--format", "fasta"],
         ["--id-column", "3"], ["--truth-column", "2"]],
        ids=lambda flag: flag[0],
    )
    @pytest.mark.parametrize(
        "source", [["--design", "D10"], ["--seq-design", "low-noise", "--seq-j", "200"]], ids=["design", "seq"]
    )
    def test_io_flag_on_a_simulated_source_is_usage_error(self, tmp_path, capsys, source, flag):
        out = tmp_path / "table.tsv"
        assert main(["experiment", *source, "--methods", "HCAL", "--output", str(out), *flag]) == 1
        assert f"{flag[0]} is not read by HCAL, {source[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_flag_on_fasta_input_is_usage_error(self, tmp_path, capsys):
        fasta = tmp_path / "aln.fasta"
        catio.write_fasta(fasta, [("a", "ACGT"), ("b", "ACGA"), ("c", "TTGA")])
        assert main(["experiment", "--input", str(fasta), "--methods", "HCAL,ENAL", "--header"]) == 1
        assert "--header is not read by HCAL, ENAL, FASTA input" in capsys.readouterr().err

    def test_seq_flags_need_seq_design(self):
        assert main(["experiment", "--design", "D1", "--methods", "HCAL", "--seq-j", "5"]) == 1
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("HCAL",), design="D1", seq_sizes=(25, 25))

    def test_non_integer_seq_sizes_is_usage_error(self, capsys):
        assert main(["experiment", "--seq-design", "low-noise", "--seq-sizes", "1,a", "--methods", "HCAL"]) == 1
        assert "--seq-sizes: expected comma-separated integers, got '1,a'" in capsys.readouterr().err

    def test_input_is_read_once(self, tmp_path, monkeypatch):
        data = tmp_path / "d.csv"
        data.write_text("a,a,0\na,a,0\nb,b,1\nb,b,1\n", encoding="utf-8")
        calls = []
        read = catio.read_categorical_csv

        def counting_read(*args, **kwargs):
            calls.append(args)
            return read(*args, **kwargs)

        monkeypatch.setattr(catio, "read_categorical_csv", counting_read)
        code = main([
            "experiment", "--input", str(data), "--truth-column", "2",
            "--methods", "HCAL,KMODES", "--replicates", "3",
        ])
        assert code == 0
        assert len(calls) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(methods=())
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("HCAL",), replicates=0, design="D1")
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentSpec(methods=("HCAL",), workers=0, design="D1")
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("HCAL",))  # no source
        x, truth = gen_lowdim(DESIGNS["D10"], seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("HCAL",), design="D10", data=("d.csv", x, truth))  # two sources

    def test_loaded_data_is_reported_under_its_name(self):
        x, truth = gen_lowdim(DESIGNS["D10"], seed=1)
        results = run_experiment(ExperimentSpec(methods=("HCAL",), replicates=2, data=("mine.csv", x, truth)))
        assert list(results["HCAL"]) == ["mine.csv"]

    def test_parallel_workers_match_serial(self, tmp_path):
        spec = ExperimentSpec(
            methods=("HCAL", "ENAL"), replicates=4, seed=3, design="D10",
            options=MethodOptions(B=6, seed=3),
        )
        serial = run_experiment(spec)
        from dataclasses import replace

        parallel = run_experiment(replace(spec, workers=2))
        assert serial == parallel


class TestSimulateCommand:
    def test_csv_export_ingests_back(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--design", "D11", "--seed", "4", "--output", str(out)]) == 0
        x, truth = catio.read_categorical_csv(out, header=True, truth_column="truth")
        assert x.n == 50 and x.J == 20
        assert np.bincount(truth.labels).tolist() == [15, 35]

    def test_fasta_export(self, tmp_path):
        out = tmp_path / "sim.fasta"
        truth_out = tmp_path / "truth.csv"
        code = main([
            "simulate", "--seq-design", "low-noise", "--seq-j", "200",
            "--seed", "5", "--output", str(out), "--truth-out", str(truth_out),
        ])
        assert code == 0
        x = catio.load_fasta_matrix(out)
        assert x.n == 50 and x.J == 200
        assert len(truth_out.read_text().strip().splitlines()) == 51

    def test_failed_truth_write_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catio, "write_labels_csv", full_disk)
        argv = ["simulate", "--seq-design", "low-noise", "--seq-j", "50",
                "--output", str(tmp_path / "sim.fasta"), "--truth-out", str(tmp_path / "truth.csv")]
        assert main(argv) == 2
        assert not any(tmp_path.iterdir())

    def test_noise_export(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert main(["simulate", "--noise", "6,4,3", "--seed", "6", "--output", str(out)]) == 0
        x, _ = catio.read_categorical_csv(out, header=True)
        assert x.n == 6 and x.J == 4

    @pytest.mark.parametrize(
        "source, written",
        [
            (["--design", "D11", "--seed", "4"], {
                "sim.csv": "8af7b156a9877401904d8c80cc2743243e90b0b8a0d20a4c799abb3c21e32447",
            }),
            (["--seq-design", "low-noise", "--seq-j", "200", "--seed", "5"], {
                "sim.csv": "82046947fcd69f23d8a360de5eb1a259fc37ffd97fa7e471de57fc92a30d6f33",
            }),
            (["--seq-design", "low-noise", "--seq-j", "200", "--seed", "5"], {
                "sim.fasta": "e6435f7322119511336afebfed58a27ade4d7b79c252662f20091cc80467f75d",
                "truth.csv": "96de8a0cef057ab3b550083b4fc17e210c488c60ab5004d0c877ba07b080c585",
            }),
            (["--noise", "6,4,3", "--seed", "6"], {
                "sim.csv": "ead95f96dccabf2fa8b1469cfe35b146f79e50d2b7d5cc325a1cb671816be0dc",
            }),
        ],
        ids=["design-csv", "seq-csv", "seq-fasta", "noise-csv"],
    )
    def test_outputs_are_pinned(self, tmp_path, source, written):
        # SHA-256 of every file simulate writes: a change that moves any of
        # these bytes must update the pins and say why
        output, *truth = written
        argv = ["simulate", *source, "--output", str(tmp_path / output)]
        assert main(argv + [arg for name in truth for arg in ("--truth-out", str(tmp_path / name))]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written} == written

    def test_seq_flags_need_seq_design(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--design", "D1", "--seq-j", "5", "--output", str(out)]) == 1
        assert not out.exists()

    def test_non_integer_seq_sizes_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--seq-design", "low-noise", "--seq-sizes", "1,a", "--output", str(out)]) == 1
        assert "--seq-sizes: expected comma-separated integers, got '1,a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, output, flag",
        [
            (["--design", "D1"], "sim.csv", ["--truth-out", "truth.csv"]),
            (["--noise", "6,4,3"], "sim.csv", ["--truth-out", "truth.csv"]),
            (["--noise", "6,4,3"], "sim.fasta", ["--truth-out", "truth.csv"]),
            (["--seq-design", "low-noise", "--seq-j", "200"], "sim.fasta", ["--delimiter", ";"]),
        ],
        ids=["truth-out-csv", "truth-out-noise-csv", "truth-out-noise-fasta", "delimiter-fasta"],
    )
    def test_flag_the_output_does_not_read_is_usage_error(self, tmp_path, capsys, source, output, flag):
        flag = [str(tmp_path / v) if v.endswith(".csv") else v for v in flag]
        assert main(["simulate", *source, "--output", str(tmp_path / output), *flag]) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--design", "D1", "--output", "sim.csv", "--seq-j", "5"], "--seq-j"),
            (["--noise", "6,4,3", "--output", "sim.fasta", "--truth-out", "truth.csv"], "--truth-out"),
            (["--seq-design", "low-noise", "--output", "sim.fasta", "--delimiter", ";"], "--delimiter"),
        ],
        ids=["seq-j-design", "truth-out-noise", "delimiter-fasta"],
    )
    def test_refused_flag_ends_before_the_draw(self, tmp_path, capsys, monkeypatch, argv, flag):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a table for a refused run")

        for generator in ("gen_lowdim", "gen_highdim", "gen_noise"):
            monkeypatch.setattr(cli, generator, no_draw)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", *argv]) == 1
        assert f"{flag} is not read by {argv[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fasta_of_a_design_is_refused_before_the_draw(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a table for an output that cannot hold it")

        monkeypatch.setattr(cli, "gen_lowdim", no_draw)
        assert main(["simulate", "--design", "D10", "--output", str(tmp_path / "sim.fasta")]) == 1
        assert "FASTA holds one character per position" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fasta_of_noise_past_ten_symbols_is_refused_before_the_draw(self, tmp_path, capsys, monkeypatch):
        # --noise N,J,S draws the codes 0..S-1, one character each only while S <= 10
        draw = cli.gen_noise

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a table for an output that cannot hold it")

        monkeypatch.setattr(cli, "gen_noise", no_draw)
        out = tmp_path / "sim.fasta"
        assert main(["simulate", "--noise", "5,4,12", "--output", str(out)]) == 1
        assert "FASTA holds one character per position, but --noise codes run up to 11" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(cli, "gen_noise", draw)
        assert main(["simulate", "--noise", "5,4,10", "--output", str(out)]) == 0
        records = catio.read_fasta(out)
        assert len(records) == 5 and all(len(seq) == 4 and seq.isdecimal() for _, seq in records)

    @pytest.mark.parametrize(
        "source", [["--design", "D3", "--seed", "5"], ["--noise", "5,4,12"]], ids=["design", "noise"]
    )
    def test_fasta_of_multi_character_codes_is_usage_error(self, tmp_path, capsys, source):
        # codes >= 10 decode to two characters, which would break the alignment
        assert main(["simulate", *source, "--output", str(tmp_path / "sim.fasta")]) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_noise_spec_is_usage_error(self, tmp_path, capsys):
        # a table with no rows or no columns is a bad request, not bad data
        assert main(["simulate", "--noise", "6,4", "--output", str(tmp_path / "x.csv")]) == 1
        assert "argument --noise: expected N,J,S integers, got '6,4'" in capsys.readouterr().err
        for spec in ("0,3,2", "3,0,2"):
            assert main(["simulate", "--noise", spec, "--output", str(tmp_path / "x.csv")]) == 1
        assert list(tmp_path.iterdir()) == []


# which of the refusable flags each method reads
READ_FLAGS = {
    **dict.fromkeys(["HCSL", "HCAL", "HCCL"], {"--alpha"}),
    **dict.fromkeys(["ENSL", "ENAL", "ENCL"], {"--ensemble-size", "--alpha"}),
    "KMODES": set(),
    "ENKM": {"--ensemble-size"},
    "WOR": {"--ensemble-size", "--alpha", "--blocks"},
    "WR": {"--ensemble-size", "--alpha", "--blocks"},
}
FLAG_VALUES = {"--ensemble-size": "5", "--alpha": "0.1", "--blocks": "2"}


class TestMethodFlags:
    @pytest.mark.parametrize(
        "method, flag",
        [(m, f) for m, read in READ_FLAGS.items() for f in FLAG_VALUES if f not in read],
    )
    def test_flag_no_method_reads_is_usage_error(self, tmp_path, capsys, method, flag):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(74))
        argv = ["cluster", str(data), "--method", method, "--k", "2", flag, FLAG_VALUES[flag]]
        assert main(argv) == 1
        assert f"{flag} is not read by {method}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, flag", [("ENAL", "--ensemble-size"), ("HCAL", "--alpha"), ("WR", "--blocks")]
    )
    def test_flag_a_method_reads_is_accepted(self, tmp_path, method, flag):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(75))
        out = tmp_path / "labels.csv"
        argv = ["cluster", str(data), "--method", method, "--k", "2", flag, FLAG_VALUES[flag]]
        assert main(argv + ["--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 17

    def test_default_value_is_not_refused(self, tmp_path):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(76))
        argv = ["cluster", str(data), "--method", "KMODES", "--k", "2", "--output", str(tmp_path / "l.csv")]
        assert main(argv + ["--alpha", "0", "--ensemble-size", "25"]) == 0


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        rng = substream(68)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=HCAL\nk=2\n", encoding="utf-8")
        out = tmp_path / "labels.csv"
        code = main(["cluster", str(data), "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 17

    def test_config_with_byte_order_mark(self, tmp_path):
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, substream(77))
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("method=HCAL\n", encoding="utf-8-sig")
        out = tmp_path / "labels.csv"
        assert main(["cluster", str(data), "--k", "1", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 17

    def test_config_equals_form(self, tmp_path):
        rng = substream(70)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=HCAL\nk=2\nseed=3\n", encoding="utf-8")
        out, spaced = tmp_path / "eq.csv", tmp_path / "spaced.csv"
        assert main(["cluster", str(data), f"--config={cfg}", "--output", str(out)]) == 0
        assert main(["cluster", str(data), "--config", str(cfg), "--output", str(spaced)]) == 0
        assert out.read_bytes() == spaced.read_bytes()

    def test_explicit_flag_wins(self, tmp_path):
        rng = substream(69)
        data = tmp_path / "blocks.csv"
        write_blocks_csv(data, rng)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=KMODES\nk=2\nseed=1\n", encoding="utf-8")
        nwk = tmp_path / "t.nwk"
        # explicit --method overrides the config's KMODES, so newick works
        code = main([
            "cluster", str(data), "--config", str(cfg), "--method", "HCAL",
            "--output", str(tmp_path / "l.csv"), "--newick", str(nwk),
        ])
        assert code == 0
        assert nwk.read_text().endswith(";\n")


    @pytest.mark.parametrize("second", [
        ["--config", "b.cfg"], ["--config=b.cfg"], ["--conf", "b.cfg"], ["--config", "nested.cfg"],
    ])
    @pytest.mark.parametrize("first", [["--config", "a.cfg"], ["--config=a.cfg"]])
    def test_a_config_that_would_go_unread_is_usage_error(self, tmp_path, capsys, monkeypatch, first, second):
        # b.cfg alone fails the run, so a second (or abbreviated, or nested)
        # --config must be refused, not left unread
        monkeypatch.chdir(tmp_path)
        (tmp_path / "four.csv").write_text("v0,v1\na,a\na,b\nb,b\nb,a\n", encoding="utf-8")
        (tmp_path / "a.cfg").write_text("seed=1\n", encoding="utf-8")
        (tmp_path / "b.cfg").write_text("ensemble-size=0\n", encoding="utf-8")
        (tmp_path / "nested.cfg").write_text("config=b.cfg\n", encoding="utf-8")
        argv = ["cluster", "four.csv", "--method", "ENAL", "--k", "2", "--header", "--output", "l.csv"]
        assert main(argv + ["--config", "b.cfg"]) == 1
        assert "argument --ensemble-size: expected a positive integer, got '0'" in capsys.readouterr().err
        assert main(argv + first) == 0
        assert main(argv + first + second) == 1
        assert "--config may be given once, spelled in full" in capsys.readouterr().err


class TestParser:
    def test_usage_error_exit_code(self, capsys):
        assert main(["cluster"]) == 1  # missing required flags
        assert "usage error: the following arguments are required" in capsys.readouterr().err

    def test_help_is_plain_text(self, capsys):
        # the module docstring is for readers of the code, not for --help
        with pytest.raises(SystemExit) as leave:
            main(["--help"])
        assert leave.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: catens") and "``" not in out and "READS" not in out

    def test_every_flag_says_who_reads_it(self):
        # a flag is either read by every run of its command or listed in READS
        # under the parts of a run that read it, so the unread ones can be refused
        always = {
            "help", "config", "seed", "normalize", "k", "output", "method", "methods", "save_dissimilarity",
            "replicates", "workers", "replicate", "design", "seq_design", "input", "noise",
        }
        refusable = set().union(*cli.READS.values())
        assert not refusable & always
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = set()
        for name, command in commands.items():
            for action in command._actions:
                dests.add(action.dest)
                assert not action.option_strings or action.dest in refusable | always, (name, action.dest)
        assert refusable <= dests

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--seed"],
            ["cluster", "in.csv", "--method", "ENAL", "--k", "2", "--seed"],
            ["experiment", "--design", "D10", "--methods", "HCAL", "--seed"],
            ["simulate", "--design", "D10", "--output", "sim.csv", "--seed"],
            ["simulate", "--design", "D10", "--output", "sim.csv", "--replicate"],
        ],
        ids=["cluster-HCAL", "cluster-ENAL", "experiment", "simulate", "simulate-replicate"],
    )
    def test_negative_seed_or_replicate_is_refused_at_parse_time(self, tmp_path, capsys, monkeypatch, argv):
        # HC methods draw nothing, so only the parser refuses a negative seed for every method alike
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "-5"]) == 1
        assert f"argument {argv[-1]}: expected a non-negative integer, got '-5'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "in.csv", "--method", "ENAL", "--k", "0"], "--k: expected a positive integer, got '0'"),
            (["experiment", "--input", "in.csv", "--truth-column", "2", "--methods", "HCAL", "--k", "0"],
             "--k: expected a positive integer, got '0'"),
            (["cluster", "in.csv", "--method", "ENAL", "--k", "2", "--ensemble-size", "0"],
             "--ensemble-size: expected a positive integer, got '0'"),
            (["cluster", "in.csv", "--method", "WR", "--k", "2", "--blocks", "-3"],
             "--blocks: expected a positive integer, got '-3'"),
            (["experiment", "--input", "in.csv", "--truth-column", "2", "--methods", "HCAL", "--replicates", "0"],
             "--replicates: expected a positive integer, got '0'"),
            (["experiment", "--input", "in.csv", "--truth-column", "2", "--methods", "HCAL", "--workers", "0"],
             "--workers: expected a positive integer, got '0'"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--alpha", "0.5"],
             "--alpha: alpha must lie in [0, 0.5), got 0.5"),
            (["experiment", "--input", "in.csv", "--truth-column", "2", "--methods", "ENAL", "--alpha", "-0.1"],
             "--alpha: alpha must lie in [0, 0.5), got -0.1"),
        ],
        ids=["cluster-k", "experiment-k", "ensemble-size", "blocks", "replicates", "workers",
             "cluster-alpha", "experiment-alpha"],
    )
    def test_a_value_out_of_range_is_refused_at_parse_time(self, tmp_path, capsys, monkeypatch, argv, message):
        # in.csv does not exist: reading it first would end in a data error (exit 2)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, stderr = capsys.readouterr()
        assert out == ""
        assert f"argument {message}" in stderr

    @pytest.mark.parametrize("spelling", ["1_0", "+5", " 5", "٥"], ids=["underscore", "plus", "space", "arabic"])
    @pytest.mark.parametrize(
        "argv, template",
        [
            (["cluster", "in.csv", "--method", "HCAL", "--k"], "{}"),
            (["cluster", "in.csv", "--method", "ENAL", "--k", "2", "--ensemble-size"], "{}"),
            (["cluster", "in.csv", "--method", "WR", "--k", "2", "--blocks"], "{}"),
            (["cluster", "in.csv", "--method", "ENAL", "--k", "2", "--seed"], "{}"),
            (["experiment", "--design", "D10", "--methods", "HCAL", "--replicates"], "{}"),
            (["experiment", "--design", "D10", "--methods", "HCAL", "--workers"], "{}"),
            (["experiment", "--seq-design", "low-noise", "--methods", "HCAL", "--seq-j"], "{}"),
            (["simulate", "--seq-design", "low-noise", "--output", "sim.csv", "--seq-sizes"], "10,{},10,10,10"),
            (["simulate", "--output", "sim.csv", "--noise"], "5,{},3"),
            (["simulate", "--design", "D10", "--output", "sim.csv", "--replicate"], "{}"),
        ],
        ids=["k", "ensemble-size", "blocks", "seed", "replicates", "workers", "seq-j", "seq-sizes", "noise",
             "replicate"],
    )
    def test_an_integer_in_other_than_ascii_digits_is_refused(
        self, tmp_path, capsys, monkeypatch, argv, template, spelling
    ):
        # int() reads all of these spellings; no flag takes them
        def no_input(*args, **kwargs):
            raise AssertionError("read or drew the input of a refused run")

        for name in ("read_categorical_csv", "load_fasta_matrix"):
            monkeypatch.setattr(catio, name, no_input)
        for name in ("gen_lowdim", "gen_highdim", "gen_noise"):
            monkeypatch.setattr(cli, name, no_input)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("a,b\nb,a\na,a\n", encoding="utf-8")
        assert main([*argv, template.format(spelling)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage error: argument {argv[-1]}: expected " in err
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["cluster", "in.csv", "--method", "ROCK", "--k", "2", "--alpha", "0.1"], "ROCK"),
            (["experiment", "--design", "D10", "--methods", "NOPE", "--alpha", "0.1"], "NOPE"),
        ],
        ids=["cluster", "experiment"],
    )
    def test_unknown_method_is_named_before_an_unread_flag(self, capsys, argv, name):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"unknown method {name!r}" in err
        assert "is not read" not in err


class TestRefuseBeforeIO:
    """What the flags alone show to be wrong ends the run before any input is
    read or drawn, before anything is written, stdout included."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        def no_input(*args, **kwargs):
            raise AssertionError("read or drew the input of a refused run")

        for name in ("read_categorical_csv", "load_fasta_matrix"):
            monkeypatch.setattr(catio, name, no_input)
        for name in ("gen_lowdim", "gen_highdim", "gen_noise"):
            monkeypatch.setattr(cli, name, no_input)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("a,b,0\nb,a,1\n", encoding="utf-8")
        catio.write_fasta(tmp_path / "in.fasta", [("a", "ACGT"), ("b", "ACGA")])
        return tmp_path

    WRITES = pytest.mark.parametrize(
        "argv, flag",
        [
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "missing/lab.csv"], "--output"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "lab.csv",
              "--newick", "missing/t.nwk"], "--newick"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2",
              "--save-dissimilarity", "missing/d.csv"], "--save-dissimilarity"),
            (["experiment", "--design", "D10", "--methods", "HCAL", "--output", "missing/t.tsv"], "--output"),
            (["simulate", "--seq-design", "low-noise", "--output", "sim.fasta",
              "--truth-out", "missing/truth.csv"], "--truth-out"),
        ],
        ids=["cluster-output", "cluster-newick", "cluster-save-dissimilarity", "experiment-output",
             "simulate-truth-out"],
    )

    @WRITES
    def test_file_into_a_missing_directory_is_data_error(self, workdir, capsys, argv, flag):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag}: 'missing' is not a directory" in err
        assert sorted(p.name for p in workdir.iterdir()) == ["in.csv", "in.fasta"]

    @WRITES
    def test_file_over_an_existing_directory_is_data_error(self, workdir, capsys, argv, flag):
        # the same runs, each with the refused flag naming a directory that exists
        (workdir / "taken").mkdir()
        argv = ["taken" if a.startswith("missing/") else a for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag}: 'taken' is a directory" in err
        assert sorted(p.name for p in workdir.iterdir()) == ["in.csv", "in.fasta", "taken"]
        assert not any((workdir / "taken").iterdir())

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "o.txt", "--newick", "o.txt"],
             "--output and --newick"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "o.txt", "--newick", "./o.txt"],
             "--output and --newick"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "o.txt",
              "--save-dissimilarity", "o.txt"], "--output and --save-dissimilarity"),
            (["simulate", "--seq-design", "low-noise", "--seq-j", "60", "--output", "s.fasta",
              "--truth-out", "s.fasta"], "--output and --truth-out"),
        ],
        ids=["output-newick", "output-newick-other-spelling", "output-save-dissimilarity", "simulate-truth-out"],
    )
    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_two_outputs_naming_one_file_is_usage_error(self, workdir, capsys, argv, flags, exists):
        # one of the two outputs would be lost; an existing file keeps its bytes
        names = ["in.csv", "in.fasta"]
        if exists:
            target = next(a for a in argv if a in ("o.txt", "s.fasta"))
            (workdir / target).write_text("kept\n", encoding="utf-8")
            names = sorted([*names, target])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage error: {flags} name one file" in err
        assert sorted(p.name for p in workdir.iterdir()) == names
        if exists:
            assert (workdir / target).read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "in.csv", "--method", "ROCK", "--k", "2", "--output", "missing/lab.csv"], "unknown method"),
            (["cluster", "in.csv", "--method", "HCAL", "--k", "2", "--output", "missing/o.txt",
              "--newick", "missing/o.txt"], "--output and --newick name one file"),
            (["experiment", "--input", "in.csv", "--methods", "KMODES", "--alpha", "0.1"], "--alpha is not read"),
            (["simulate", "--design", "D1", "--output", "missing/sim.fasta"], "FASTA holds one character"),
        ],
        ids=["unknown-method", "output-clash", "unread-flag", "fasta-of-design"],
    )
    def test_a_usage_error_comes_before_a_data_error(self, workdir, capsys, argv, message):
        # each run also writes into a missing directory or lacks truth labels (exit 2)
        assert main(argv) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["in.csv", "in.fasta"]

    @pytest.mark.parametrize("source", ["in.fasta", "in.csv"], ids=["fasta", "csv-without-truth-column"])
    def test_experiment_on_input_without_truth_is_data_error(self, workdir, capsys, source):
        assert main(["experiment", "--input", source, "--methods", "HCAL", "--output", "t.tsv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "experiment --input needs truth labels" in err
        assert sorted(p.name for p in workdir.iterdir()) == ["in.csv", "in.fasta"]
