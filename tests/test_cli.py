import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rbmzv import cli, mzv_calculus as mzv, numeric_eval
from rbmzv.cli import canonical_json, main
from rbmzv.corpus import (
    _admissible_compositions, _double_shuffle_pairs, build_corpus, corpus_relations,
)
from rbmzv.letters import COMPOSITION
from rbmzv.mzv_calculus import Relation, composition_str
from rbmzv.numeric_eval import EvalResult
from rbmzv.tensor_algebra import mixable_shuffle


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        got = canonical_json({"b": 1, "a": 0.1})
        assert got == '{"a": 0.10000000000000001, "b": 1}'

    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json([1, "x"]) == '[1, "x"]'

    def test_valid_json(self):
        payload = {"x": [1.5, None, {"k": False}]}
        assert json.loads(canonical_json(payload)) == payload

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"value": [1, value]})

    def test_float_zero_renders_as_an_integer(self):
        # kept as it is: a float form would change the corpus bytes
        assert canonical_json([0.0, -0.0]) == "[0, -0]"


class TestProduct:
    def test_stuffle_two_two(self, capsys):
        code, out, _ = run(capsys, "product", "--mode", "stuffle", "2", "2")
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"coef": "2", "comp": "2,2"},
            {"coef": "1", "comp": "4"},
        ]
        assert data["divergent"] is False

    def test_stuffle_flags_divergent(self, capsys):
        code, out, _ = run(capsys, "product", "--mode", "stuffle", "1,2", "2")
        assert code == 0
        data = json.loads(out)
        assert data["divergent"] is True
        assert any(t.get("divergent") for t in data["terms"])

    def test_shuffle(self, capsys):
        code, out, _ = run(capsys, "product", "--mode", "shuffle", "2", "2")
        data = json.loads(out)
        assert code == 0
        assert {(t["comp"], t["coef"]) for t in data["terms"]} == {
            ("2,2", "2"),
            ("3,1", "4"),
        }

    def test_mixable_symbolic_weight(self, capsys):
        code, out, _ = run(
            capsys, "product", "--mode", "mixable", "--weight", "1-q", "2", "3"
        )
        assert code == 0
        data = json.loads(out)
        coefs = {t["comp"]: t["coef"] for t in data["terms"]}
        assert coefs["5"] == "1 - q"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "product", "2", "2")
        assert code == 0
        assert out.strip() == "2*zeta(2,2) + 1*zeta(4)"

    def test_shuffle_divergent_is_usage_error(self, capsys):
        code, _, err = run(capsys, "product", "--mode", "shuffle", "1,2", "2")
        assert code == 2
        assert "divergent" in err

    def test_malformed_composition(self, capsys):
        code, _, err = run(capsys, "product", "2,x", "2")
        assert code == 2
        assert "error" in err

    def test_too_deep_recursion_is_usage_error(self, capsys):
        # a 1,100-part composition recurses past the interpreter's limit
        code, out, err = run(capsys, "product", ",".join(["1"] * 1100), "2")
        assert (code, out) == (2, "")
        assert err == "error: input too large to compute (RecursionError)\n"

    def test_memory_exhaustion_is_usage_error(self, capsys, monkeypatch):
        def exhausted(a, b):
            raise MemoryError

        monkeypatch.setattr(cli.mzv, "shuffle_zeta", exhausted)
        code, out, err = run(capsys, "product", "--mode", "shuffle", "2", "2")
        assert (code, out) == (2, "")
        assert err == "error: input too large to compute (MemoryError)\n"

    def test_memory_exhaustion_under_an_address_space_limit(self):
        # a real exhaustion, not a patched one: the child caps its own
        # address space at 300 MB, which the Sha power of (2,1,3) at p = 7
        # outgrows within about two seconds
        pytest.importorskip("resource")
        code = (
            "import resource, sys\n"
            "from rbmzv.cli import main\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, hard))\n"
            "sys.exit(main(['relation', '--gen', 'congruence', '--s', '2,1,3',"
            " '--p', '7']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: input too large to compute (MemoryError)\n"

    @pytest.mark.parametrize("weight", ["abc", "1/0"])
    def test_malformed_weight(self, capsys, weight):
        code, out, err = run(
            capsys, "product", "--mode", "mixable", "--weight", weight, "2", "3"
        )
        assert code == 2
        assert out == ""
        assert f"error: malformed weight {weight!r}" in err

    @pytest.mark.parametrize("mode", ["stuffle", "shuffle"])
    @pytest.mark.parametrize("weight", ["abc", "1/0"])
    def test_malformed_weight_in_every_mode(self, capsys, mode, weight):
        code, out, err = run(
            capsys, "product", "--mode", mode, "--weight", weight, "2", "3"
        )
        assert (code, out) == (2, "")
        assert err == f"error: malformed weight {weight!r}\n"

    @pytest.mark.parametrize("mode", ["stuffle", "shuffle"])
    def test_valid_weight_leaves_the_product(self, capsys, mode):
        code, out, err = run(
            capsys, "product", "--mode", mode, "--weight", "0", "2", "3"
        )
        assert (code, err) == (0, "")
        _, ref, _ = run(capsys, "product", "--mode", mode, "2", "3")
        assert out == ref

    def test_rational_weight(self, capsys):
        code, out, _ = run(
            capsys, "product", "--mode", "mixable", "--weight", "1/2", "2,1", "3,4"
        )
        assert code == 0
        expect = mixable_shuffle(COMPOSITION, (2, 1), (3, 4), Fraction(1, 2))
        got = {t["comp"]: t["coef"] for t in json.loads(out)["terms"]}
        assert got == {composition_str(w): str(c) for w, c in expect.items()}
        assert got["5,5"] == "1/4"  # two merges, each weighted 1/2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "product", "2,1", "3")
        _, out2, _ = run(capsys, "product", "2,1", "3")
        assert out1 == out2

    # the largest stuffle of perfbench's symbolic workload but one, and
    # mixable products on its 4- and 5-part arguments
    @pytest.mark.parametrize("argv, digest", [
        (("--mode", "stuffle", "1,2,3,5,7,9", "1,2,4,5,6,7,9"),
         "042e14ac30d40628a675e7cd6e99c61341063575bb102d343aa22b7154adfc2b"),
        (("--mode", "mixable", "--weight", "-1", "1,3,4,6", "2,3,5,7,8"),
         "0e0468471e6bf03f4b2063d678d986249693e164e69c0811a93c9335ff6e2abb"),
        (("--mode", "mixable", "--weight", "1-q", "1,3,4,6", "2,3,5,7,8"),
         "175e54e79872f9d3108e2997f1ae175cb98cc181412b1c3ff86d0d519ddbed16"),
    ], ids=["stuffle-6x7", "mixable-minus-one", "mixable-one-minus-q"])
    def test_json_bytes_pinned_benchmark_size(self, capsys, argv, digest):
        code, out, _ = run(capsys, "product", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRelation:
    def test_doubleshuffle(self, capsys):
        code, out, _ = run(
            capsys, "relation", "--gen", "doubleshuffle", "--a", "2", "--b", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"coef": "-4", "monomial": [[3, 1]]},
            {"coef": "1", "monomial": [[4]]},
        ]

    def test_hoffman_text(self, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "relation", "--gen", "hoffman",
            "--s", "2,3",
        )
        assert code == 0
        assert out.strip().endswith("= 0")
        assert "zeta(2)*zeta(3)" in out

    def test_spitzer(self, capsys):
        code, out, _ = run(
            capsys, "relation", "--gen", "spitzer", "--k", "2", "--order", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["source"] == "spitzer(k=2,order=2)"

    def test_empty_relation(self, capsys):
        argv = ("relation", "--gen", "spitzer", "--k", "2", "--order", "1")
        assert run(capsys, "--format", "text", *argv) == (0, "0 = 0\n", "")
        assert run(capsys, *argv) == (
            0, '{"source": "spitzer(k=2,order=1)", "terms": []}\n', "")

    def test_congruence_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "relation", "--gen", "congruence", "--s", "2", "--p", "3"
        )
        assert code == 0
        assert json.loads(out)["holds"] is True
        code, out, _ = run(
            capsys, "--format", "text", "relation", "--gen", "congruence",
            "--s", "2", "--p", "3",
        )
        assert code == 0
        assert out == "congruence mod 3: holds=True\n"

    def test_congruence_divergent(self, capsys):
        code, _, err = run(
            capsys, "relation", "--gen", "congruence", "--s", "1,2", "--p", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("argv, digest", [
        (("--gen", "doubleshuffle", "--a", "2,1", "--b", "3"),
         "dbaa74aca168928d00e5f8dc8e7c3f6446802f856974ef5497ac1857e86829c1"),
        (("--gen", "hoffman", "--s", "2,3,4"),
         "1e672b114f029af9cf0dcbe21fbc1c5fd986517669fcade682cc3d7d5a04ca5e"),
        (("--gen", "spitzer", "--k", "2", "--order", "3"),
         "ec67f3556e0e56d7fd91017457ee12da4bcbd6384120116a75b65f8895f1a07e"),
        (("--gen", "congruence", "--s", "2,1", "--p", "3"),
         "394ffb2517aac38c52e24ab3849ac914de50124ef4e7cc22f14b7db8435493ec"),
    ], ids=["doubleshuffle", "hoffman", "spitzer", "congruence"])
    def test_json_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "relation", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEval:
    def test_zeta(self, capsys):
        code, out, _ = run(capsys, "eval", "--comp", "2", "--N", "1000")
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 1.6439345666815598) < 1e-12
        assert data["N"] == 1000

    def test_qmzv_branch(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--comp", "2", "--q", "1/2", "--K", "100"
        )
        assert code == 0
        data = json.loads(out)
        assert data["q"] == "1/2" and data["K"] == 100
        assert data["value"] > 0

    def test_qmzv_ignores_n(self, capsys):
        # the q-MZV branch truncates at K, so a valid N leaves its output;
        # an invalid N is an error in both branches
        # (test_flag_the_branch_does_not_read_is_parsed)
        code, out, err = run(capsys, "eval", "--comp", "2", "--q", "1/2", "--N", "20")
        assert (code, err) == (0, "")
        _, ref, _ = run(capsys, "eval", "--comp", "2", "--q", "1/2")
        assert out == ref

    def test_qmzv_huge_k(self, capsys):
        # the walk stops where q^k turns zero, so K = 10^12 visits one leaf
        code, out, _ = run(
            capsys, "eval", "--comp", "2", "--q", "1/2", "--K", "1000000000000"
        )
        assert code == 0
        value = json.loads(out)["value"]
        _, out, _ = run(capsys, "eval", "--comp", "2", "--q", "1/2", "--K", "1000000")
        ref = json.loads(out)["value"]
        assert abs(value - ref) <= 1e-15 * abs(ref)

    def test_divergent_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--comp", "1,2")
        assert code == 2
        assert "divergent" in err

    @pytest.mark.parametrize("flag, value", [
        ("--q", "1/0"), ("--x", "1/0"), ("--q", "abc"), ("--x", "abc"),
    ])
    def test_malformed_fraction(self, capsys, flag, value):
        code, out, err = run(capsys, "eval", "--comp", "2", flag, value)
        assert code == 2
        assert out == ""
        assert f"error: malformed {flag[2:]} {value!r}" in err

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_qmzv_malformed_x(self, capsys, value):
        code, out, err = run(
            capsys, "eval", "--comp", "2", "--q", "1/2", "--x", value
        )
        assert (code, out) == (2, "")
        assert err == f"error: malformed x {value!r}\n"

    def test_qmzv_valid_x_leaves_the_value(self, capsys):
        code, out, err = run(
            capsys, "eval", "--comp", "2", "--q", "1/2", "--x", "1/3"
        )
        assert (code, err) == (0, "")
        _, ref, _ = run(capsys, "eval", "--comp", "2", "--q", "1/2")
        assert out == ref

    def test_non_finite_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(numeric_eval, "zeta_num",
                            lambda s, cfg: EvalResult(float("inf"), 0.0))
        code, out, err = run(capsys, "eval", "--comp", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_overflowing_tail_bound_is_usage_error(self, capsys, fmt):
        # the tail bound's log(N) ** (depth - 1) overflows a float at the
        # default N from depth 292 on
        comp = "2" + ",1" * 300
        code, out, err = run(capsys, "--format", fmt, "eval", "--comp", comp)
        assert (code, out) == (2, "")
        assert err == "error: input too large to compute (OverflowError)\n"

    def test_overflowing_tail_bound_is_refused_before_the_walk(self, capsys, monkeypatch):
        # the bound needs only s and N, so no term is summed first
        def walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(numeric_eval, "_walk", walk)
        comp = "2" + ",1" * 300
        for fmt in ("json", "text"):
            for n in ((), ("--N", "1000000")):
                code, out, err = run(capsys, "--format", fmt, "eval", "--comp", comp, *n)
                assert (code, out) == (2, "")
                assert err == "error: input too large to compute (OverflowError)\n"
        with pytest.raises(OverflowError):
            numeric_eval.mpl_num((2,) + (1,) * 300, (1,) * 301)

    @pytest.mark.parametrize("flag, value, message", [
        ("--x", "1e400", "Hurwitz offset x must round to a finite float"),
        ("--q", "1e-400", "q must round to a float in (0, 1)"),
    ], ids=["x-overflows", "q-underflows"])
    def test_value_without_a_float(self, capsys, flag, value, message):
        code, out, err = run(capsys, "eval", "--comp", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_truncation_k_positive(self, capsys, K):
        code, out, err = run(capsys, "eval", "--comp", "2", "--q", "1/2", "--K", K)
        assert code == 2
        assert out == ""
        assert "error: truncation K must be >= 1" in err

    def test_default_n_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("RBX_DEFAULT_N", "500")
        code, out, _ = run(capsys, "eval", "--comp", "2")
        assert code == 0
        assert json.loads(out)["N"] == 100_000


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "spitzer", "--order", "4"),
            ("verify", "expstar", "--order", "3"),
            ("verify", "bohnenblust", "--n", "3"),
            ("verify", "congruence", "--word", "2,3", "--p", "2"),
            ("verify", "zrb", "--window", "20"),
            ("verify", "integration"),
            ("verify", "jackson"),
        ],
    )
    def test_all_checks_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "equal"

    def test_congruence_seventh_power_of_a_triple(self, capsys):
        # taken in F_p; the integer 7th power of (1, 2, 3) exhausts memory
        code, out, _ = run(capsys, "verify", "congruence", "--word", "1,2,3", "--p", "7")
        assert code == 0
        assert out == (
            '{"lhs": "(1(x)(1, 2, 3))^7 mod 7", "name": "congruence", '
            '"params": {"p": 7, "word": [1, 2, 3]}, '
            '"rhs": "1(x)(7, 14, 21) mod 7", "verdict": "equal"}\n'
        )

    def test_bad_subject_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_verify_report_json(self, capsys):
        code, out, _ = run(capsys, "verify", "spitzer", "--order", "3")
        data = json.loads(out)
        assert data["verdict"] == "equal"

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_empty_window_usage_error(self, capsys, window):
        code, out, err = run(capsys, "verify", "zrb", "--window", window)
        assert code == 2
        assert out == ""
        assert err.startswith("error: window")

    @pytest.mark.parametrize("what, defect", [
        ("zrb", "z_rb_defect"),
        ("integration", "integration_rb_defect"),
        ("jackson", "jackson_defect"),
    ])
    def test_nonzero_defect_fails(self, capsys, monkeypatch, what, defect):
        monkeypatch.setattr(cli.ops, defect, lambda *args: [0, 1])
        code, out, _ = run(capsys, "--format", "text", "verify", what)
        assert code == 1
        assert out == f"{what}: FAILED\n"
        code, out, _ = run(capsys, "verify", what)
        assert code == 1
        assert json.loads(out) == {"name": what, "verdict": "unequal"}


@pytest.mark.parametrize("argv", [
    ("relation", "--gen", "spitzer", "--s", "abc"),
    ("relation", "--gen", "hoffman", "--a", "x,y"),
    ("relation", "--gen", "doubleshuffle", "--s", "0"),
    ("verify", "spitzer", "--order", "2", "--word", "abc"),
    ("verify", "bohnenblust", "--n", "2", "--word", "0,0"),
    ("verify", "jackson", "--window", "0"),
    ("verify", "spitzer", "--window", "-3"),
    ("verify", "jackson", "--p", "4"),
    ("verify", "zrb", "--order", "-1"),
    ("verify", "integration", "--n", "-2"),
    ("relation", "--gen", "hoffman", "--s", "2,3", "--p", "4"),
    ("relation", "--gen", "doubleshuffle", "--k", "-1", "--order", "99"),
    ("eval", "--comp", "2", "--K", "0"),
    ("eval", "--comp", "2", "--q", "1/2", "--N", "5"),
])
def test_flag_the_branch_does_not_read_is_parsed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCorpus:
    def test_build_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "corpus1.jsonl"
        out2 = tmp_path / "corpus2.jsonl"
        for path in (out1, out2):
            code, msg, _ = run(
                capsys, "corpus", "build", "--max-weight", "5",
                "--max-depth", "2", "--out", str(path),
            )
            assert code == 0
            assert "0 failed" in msg
        assert out1.read_bytes() == out2.read_bytes()

    def test_entries_sorted_and_verified(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(
            capsys, "corpus", "build", "--max-weight", "5",
            "--max-depth", "2", "--out", str(path),
        )
        assert code == 0
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries
        keys = [(e["weight"], e["generator"], e["params"]) for e in entries]
        assert keys == sorted(keys)
        assert all(e["verified"] for e in entries)
        assert {e["generator"] for e in entries} >= {
            "doubleshuffle",
            "hoffman",
            "congruence",
        }

    @pytest.mark.parametrize("out", ["missing/c.jsonl", "."],
                             ids=["missing-dir", "directory"])
    def test_unwritable_out_fails_before_build(self, capsys, tmp_path, monkeypatch, out):
        def build(*args):
            raise AssertionError("the build ran before --out was opened")

        monkeypatch.setattr(cli, "build_corpus", build)
        code, msg, err = run(capsys, "corpus", "build", "--out", str(tmp_path / out))
        assert code == 2
        assert msg == ""
        assert err.startswith("error: ")

    def test_failed_build_leaves_the_lines_written(self, capsys, tmp_path, monkeypatch):
        # entries stream to --out, so a build that fails partway leaves the
        # whole lines written before the failure, and no cleanup runs
        entries = [{"params": str(i), "verified": True} for i in range(2)]

        def build(max_weight, max_depth):
            yield from entries
            raise MemoryError

        monkeypatch.setattr(cli, "build_corpus", build)
        path = tmp_path / "c.jsonl"
        code, msg, err = run(capsys, "corpus", "build", "--out", str(path))
        assert (code, msg) == (2, "")
        assert err == "error: input too large to compute (MemoryError)\n"
        assert path.read_text() == "".join(canonical_json(e) + "\n" for e in entries)

    def test_build_is_lazy(self, monkeypatch):
        # one relation alive at a time: listing the keys builds none, and
        # the k-th entry comes after exactly k relations were built
        calls = Counter()

        def counting(name, generator):
            def counted(*args, **memos):  # the double shuffles get the build's memos
                calls[name, args] += 1
                return generator(*args, **memos)
            return counted

        for name in ("double_shuffle_relation", "hoffman_partition_relation",
                     "spitzer_zeta_relation", "congruence_zeta_relation"):
            monkeypatch.setattr(mzv, name, counting(name, getattr(mzv, name)))
        assert len(corpus_relations(12, 5)) == 1066
        assert not calls
        k = 0
        for k, _ in enumerate(build_corpus(12, 5), 1):
            assert calls.total() == k
        assert k == len(calls) == 1066
        assert set(calls.values()) == {1}

    def test_failed_verification_exits_1(self, capsys, tmp_path, monkeypatch):
        def build(max_weight, max_depth):
            return [{"params": str(i), "verified": i != 1} for i in range(3)]

        monkeypatch.setattr(cli, "build_corpus", build)
        path = tmp_path / "c.jsonl"
        code, msg, err = run(capsys, "corpus", "build", "--out", str(path))
        assert (code, err) == (1, "")
        assert msg == f"wrote 3 entries to {path}; 1 failed verification\n"
        assert path.read_text().splitlines() == [
            canonical_json(e) for e in build(6, 3)
        ]

    @pytest.mark.parametrize("bound", [
        ("--max-weight", "-1"), ("--max-weight", "3"), ("--max-depth", "0"),
    ], ids=["weight-minus-1", "weight-3", "depth-0"])
    def test_empty_bounds_usage_error(self, capsys, tmp_path, bound):
        path = tmp_path / "c.jsonl"
        code, msg, err = run(capsys, "corpus", "build", *bound, "--out", str(path))
        assert code == 2
        assert msg == ""
        assert err.startswith("error: the corpus is empty")
        assert not path.exists()

    def test_build_corpus_residuals(self):
        entries = build_corpus(4, 2)
        for e in entries:
            assert e["residual"] <= e["tolerance"]

    @pytest.mark.parametrize("max_weight, max_depth, count, digest", [
        # the corpus bytes as computed one composition at a time; sharing
        # suffixes across a build must not change a single residual bit
        (8, 4, 79, "a41467eb2fe8a500943666f0d5d50241ae66803bb6d423b9893a53ef7b8b7d1c"),
        # the top of the benchmark's corpus builds
        (12, 5, 1066, "0363075b4ab36fcbda6ce4e661f47520a5d954088dbb3cd4ba617545dcebca27"),
        (14, 4, 1157, "0d7e1ac5d25e0b076c04917c7b1f3fe274cb2531284e693c95d43f2c19173999"),
    ], ids=["8-4", "12-5", "14-4"])
    def test_build_corpus_bytes_pinned(self, max_weight, max_depth, count, digest):
        # the bytes `rbmzv corpus build --max-weight W --max-depth D` writes
        entries = list(build_corpus(max_weight, max_depth))
        text = "".join(canonical_json(e) + "\n" for e in entries)
        assert len(entries) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_relation_text_is_canonical_json(self):
        # the C encoder writes canonical_json's bytes for float-free data
        relations = [rel for rel in (make() for *_, make in corpus_relations(12, 5))
                     if isinstance(rel, Relation)]
        assert len(relations) == 1066 - 38  # all but the congruence entries
        for rel in relations:
            t = rel.json_text()
            assert json.dumps(json.loads(t), sort_keys=True,
                              ensure_ascii=False) == t
            assert canonical_json(rel) == t

    def test_double_shuffle_pairs_in_scan_order(self):
        # the direct pairs are the all-index-pairs scan's, in its order
        for max_weight in range(13):
            for max_depth in range(6):
                comps = _admissible_compositions(max_weight, max_depth)
                scan = [(a, b) for i, a in enumerate(comps) for b in comps[i:]
                        if sum(a) + sum(b) <= max_weight
                        and len(a) + len(b) <= max_depth]
                assert _double_shuffle_pairs(
                    comps, max_weight, max_depth) == scan, (max_weight, max_depth)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["eval", "--bogus"]) == 2
