import numpy as np
import pytest

from catens import io as catio
from catens.core import DataError, encode, hamming
from catens.hclust import agglomerate
from catens.simgen import DESIGNS, gen_lowdim

from .reference import naive_encode


def encoded_as(x, rows, gap_symbol="-"):
    """Whether ``x`` holds the codes and cardinalities of ``rows`` under the per-cell oracle."""
    want = naive_encode(rows, gap_symbol=gap_symbol)
    return x.codes.tolist() == want.codes.tolist() and x.cardinalities.tolist() == want.cardinalities.tolist()


class TestCsv:
    def test_round_trip_with_header_and_truth(self, tmp_path):
        x, truth = gen_lowdim(DESIGNS["D10"], seed=1)
        rows = x.codes.astype(str).tolist()
        path = tmp_path / "data.csv"
        catio.write_categorical_csv(path, rows, truth=truth)
        loaded, loaded_truth = catio.read_categorical_csv(
            path, header=True, truth_column="truth"
        )
        assert loaded.n == x.n and loaded.J == x.J
        assert np.array_equal(loaded_truth.labels, truth.labels)
        # values survive the string round trip
        assert encoded_as(loaded, rows, gap_symbol=None)

    def test_semicolon_delimiter_and_no_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a;b\nc;b\n", encoding="utf-8")
        x, truth = catio.read_categorical_csv(path, delimiter=";")
        assert truth is None
        assert x.codes.tolist() == [[0, 0], [1, 0]]

    def test_gap_symbol(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,?\nb,c\n", encoding="utf-8")
        x, _ = catio.read_categorical_csv(path, gap_symbol="?")
        assert x.codes[0, 1] == x.gap_code

    def test_id_column_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,v0\nr1,a\nr2,b\n", encoding="utf-8")
        x, _ = catio.read_categorical_csv(path, header=True, id_column="id")
        assert x.row_ids == ("r1", "r2") and x.J == 1

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,v0\nr1,a\nr2,b\n", encoding="utf-8-sig")
        x, _ = catio.read_categorical_csv(path, header=True, id_column="x")
        assert x.row_ids == ("r1", "r2") and x.J == 1

    def test_truth_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,x,0\nb,y,1\n", encoding="utf-8")
        x, truth = catio.read_categorical_csv(path, truth_column=2)
        assert x.J == 2 and truth.labels.tolist() == [0, 1]

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nc\n", encoding="utf-8")
        with pytest.raises(DataError):
            catio.read_categorical_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            catio.read_categorical_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v0,v1\na,b\n", encoding="utf-8")
        with pytest.raises(DataError):
            catio.read_categorical_csv(path, header=True, truth_column="nope")


class TestFasta:
    def test_round_trip_with_gaps(self, tmp_path):
        records = [("s1", "AC-GT-"), ("s2", "ACCGTT"), ("s3", "A--GTT")]
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, records)
        assert catio.read_fasta(path) == records
        x = catio.load_fasta_matrix(path)
        assert x.row_ids == ("s1", "s2", "s3")
        assert x.has_gaps
        assert encoded_as(x, [seq for _, seq in records])

    def test_listed_gap_symbols_fold_into_the_first(self, tmp_path):
        records = [("a", "A-GN"), ("b", "ACG?"), ("c", "ACGT")]
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, records)
        x = catio.load_fasta_matrix(path, gap_symbols=("N", "?"))
        assert x.codes[0, 1] != x.gap_code
        assert x.codes[0, 3] == x.gap_code and x.codes[1, 3] == x.gap_code
        assert encoded_as(x, ["A-GN", "ACGN", "ACGT"], gap_symbol="N")

    def test_multi_character_gap_symbol_rejected(self, tmp_path):
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, [("a", "ANNG"), ("b", "ACGT")])
        with pytest.raises(ValueError, match="single characters"):
            catio.load_fasta_matrix(path, gap_symbols=("NN",))

    def test_dot_gap_normalized(self, tmp_path):
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, [("a", "A.G"), ("b", "ATG")])
        x = catio.load_fasta_matrix(path)
        assert x.codes[0, 1] == x.gap_code
        # a two-byte UTF-8 residue and both default gap symbols
        records = [("a", "A.G"), ("b", "ATG"), ("c", "é-."), ("d", "Aé-")]
        catio.write_fasta(path, records)
        x = catio.load_fasta_matrix(path)
        ids, seqs = zip(*records)
        want = encode([list(s.replace(".", "-")) for s in seqs], gap_symbol="-", row_ids=ids)
        assert x.codes.tolist() == want.codes.tolist()
        assert x.cardinalities.tolist() == want.cardinalities.tolist()
        assert (x.gap_code, x.row_ids) == (want.gap_code, want.row_ids)

    def test_matches_per_character_oracle(self, tmp_path):
        # both default gap symbols, lower-case and non-ASCII residues (two- and
        # four-byte UTF-8): the code-point lookup of str rows must agree with
        # the per-cell oracle on the folded table
        records = [("a", "ac.G-é"), ("b", "AC-g.\U0001d538"), ("c", "a.tgTé"), ("d", "-CTg-a")]
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, records)
        x = catio.load_fasta_matrix(path)
        want = naive_encode([list(s.replace(".", "-")) for _, s in records], "-", [r for r, _ in records])
        assert x.codes.tolist() == want.codes.tolist()
        assert x.cardinalities.tolist() == want.cardinalities.tolist()
        assert (x.gap_code, x.row_ids) == (want.gap_code, want.row_ids)

    def test_spaces_and_tabs_inside_sequence_lines_are_dropped(self, tmp_path):
        path = tmp_path / "aln.fasta"
        path.write_text(">a\nACGT ACGT\n>b\nACG TACGT\n>c\nAC\tG-\n ACGA\n", encoding="utf-8")
        x = catio.load_fasta_matrix(path)
        assert x.J == 8
        assert encoded_as(x, ["ACGTACGT", "ACGTACGT", "ACG-ACGA"])
        assert hamming(x).values[0, 1] == 0
        # a whitespace gap symbol folds into the gap instead of being dropped
        path.write_text(">a\nAC GT\n>b\nACG\tTT\n", encoding="utf-8")
        x = catio.load_fasta_matrix(path, gap_symbols=("-", " "))
        assert encoded_as(x, ["AC-GT", "ACGTT"])
        # lengths are compared once the spaces are gone
        path.write_text(">a\nAC GT\n>b\nACGTT\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"\[4, 5\]"):
            catio.load_fasta_matrix(path)

    def test_byte_order_mark_before_the_first_header(self, tmp_path):
        path = tmp_path / "aln.fasta"
        path.write_text(">a\nAC-T\n>b\nACGA\n", encoding="utf-8-sig")
        assert catio.read_fasta(path) == [("a", "AC-T"), ("b", "ACGA")]

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "aln.fasta"
        catio.write_fasta(path, [("a", "ACGT"), ("b", "ACG")])
        with pytest.raises(DataError):
            catio.load_fasta_matrix(path)

    def test_line_wrapping(self, tmp_path):
        path = tmp_path / "wide.fasta"
        catio.write_fasta(path, [("long", "A" * 150)])
        lines = path.read_text().splitlines()
        assert lines[0] == ">long"
        assert [len(l) for l in lines[1:]] == [60, 60, 30]
        assert catio.read_fasta(path) == [("long", "A" * 150)]

    def test_no_records_rejected(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("just text\n", encoding="utf-8")
        with pytest.raises(DataError):
            catio.read_fasta(path)


class TestExports:
    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        catio.write_labels_csv(path, ["a", "b"], [0, 1])
        assert path.read_text() == "id,cluster\na,0\nb,1\n"

    def test_dissimilarity_csv_is_square(self, tmp_path):
        x = encode([["A", "T"], ["T", "A"], ["A", "A"]])
        d = hamming(x, normalized=True)
        path = tmp_path / "d.csv"
        catio.write_dissimilarity_csv(path, d)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()]
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 0.5

    def test_newick_file(self, tmp_path):
        x = encode([["A", "T"], ["T", "A"], ["A", "A"]], row_ids=["r1", "r2", "r3"])
        tree = agglomerate(hamming(x), "AL")
        path = tmp_path / "t.nwk"
        catio.write_newick(path, tree, labels=x.row_ids)
        text = path.read_text()
        assert text.endswith(";\n")
        for rid in ("r1", "r2", "r3"):
            assert rid in text


class TestConfigFormat:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nmethod=ENAL\n\nseed = 7\n", encoding="utf-8")
        assert catio.load_config(path) == {"method": "ENAL", "seed": "7"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not a pair\n", encoding="utf-8")
        with pytest.raises(DataError, match="config line 1"):
            catio.load_config(path)

    def test_format_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method=ENAL\nk=5\nnormalize=true\n", encoding="utf-8")
        assert catio.load_config(path) == {"method": "ENAL", "k": "5", "normalize": "true"}
