"""Exit codes and byte-exact output of the sft-tensor command line."""

import contextlib
import io
import os
import subprocess
import sys
import time

import sft_tensor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import nested

from sft_tensor.cli import main

ROT_TEXT = "([[3/5 4/5][-4/5 3/5]] * [[1][0]])\n"
TOFFOLI_ARRAY = "width 3\nlevel\ngate toffoli 1 2 3\ninput basis 110\n"


@pytest.fixture
def rot_file(tmp_path):
    path = tmp_path / "rot.formula"
    path.write_text(ROT_TEXT)
    return str(path)


@pytest.fixture
def toffoli_file(tmp_path):
    path = tmp_path / "toffoli.array"
    path.write_text(TOFFOLI_ARRAY)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_report(self, rot_file, capsys):
        assert main(["validate", rot_file]) == 0
        assert capsys.readouterr().out == (
            "order 2x1\nsize 3\ndiameter 2\nsum-free yes\nosl yes\n"
        )

    def test_paper_mode_downgrades_garbage(self, tmp_path, capsys):
        path = write(tmp_path, "bad.formula", "([[1]] +\n")
        assert main(["validate", "--mode", "paper", path]) == 0
        out = capsys.readouterr().out
        assert "order 1x1" in out and "osl no" in out

    def test_strict_mode_fails_on_garbage(self, tmp_path, capsys):
        path = write(tmp_path, "bad.formula", "([[1]] +\n")
        assert main(["validate", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_require_osl(self, tmp_path, capsys):
        path = write(tmp_path, "sq.formula", "[[1 0][0 1]]\n")
        assert main(["validate", path]) == 0
        assert main(["validate", "--require-osl", path]) == 3

    def test_require_osl_names_offenders(self, tmp_path, capsys):
        path = write(tmp_path, "bad.formula", "[[1/2][1/2]]\n")
        assert main(["validate", "--require-osl", path]) == 3
        assert "offending root" in capsys.readouterr().out


class TestEval:
    def test_not_gate(self, tmp_path, capsys):
        path = write(tmp_path, "not.formula", "([[0 1][1 0]] * [[1][0]])")
        assert main(["eval", path]) == 0
        assert capsys.readouterr().out == "[[0][1]]\n"

    def test_rotation(self, rot_file, capsys):
        assert main(["eval", rot_file]) == 0
        assert capsys.readouterr().out == "[[3/5][-4/5]]\n"

    def test_boolean_semiring(self, tmp_path, capsys):
        path = write(tmp_path, "or.formula", "([[1 1][0 1]] + [[0 0][1 0]])")
        assert main(["eval", "--semiring", "bool", path]) == 0
        assert capsys.readouterr().out == "[[1 1][1 1]]\n"

    def test_cap_exceeded_exits_4(self, rot_file, capsys):
        assert main(["eval", "--max-entries", "2", rot_file]) == 4
        assert "exceeding the cap" in capsys.readouterr().err


class TestMaxEntries:
    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("verb", [["eval"], ["sft", "--k", "1"]], ids=lambda v: v[0])
    def test_non_positive_cap_is_usage_error(self, rot_file, capsys, verb, cap):
        # A cap below 1 refuses even a 1x1 atom: a usage error, not exit 4.
        with pytest.raises(SystemExit) as err:
            main([*verb, "--max-entries", cap, rot_file])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert [line for line in stderr.splitlines() if "error:" in line] == [
            f"sft-tensor {verb[0]}: error: argument --max-entries: "
            f"must be at least 1, got {cap}"
        ]


class TestSft:
    def test_accept(self, rot_file, capsys):
        assert main(["sft", "--k", "1", rot_file]) == 0
        assert capsys.readouterr().out == "value 16/25\nverdict accept\n"

    def test_reject_with_band(self, rot_file, capsys):
        code = main(
            ["sft", "--k", "1", "--alpha", "2/3", "--variant", "promise", rot_file]
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "value 16/25\nverdict reject\nin-band yes\n"
        )

    def test_nonzero_variant(self, tmp_path, capsys):
        path = write(tmp_path, "basis.formula", "[[1][0][0][0]]")
        assert main(["sft", "--k", "2", "--variant", "nonzero", path]) == 1
        assert capsys.readouterr().out == "value 0\nverdict reject\n"

    def test_alpha_out_of_range_is_validation_error(self, rot_file):
        assert main(["sft", "--k", "1", "--alpha", "1/4", rot_file]) == 3

    def test_missing_k_is_usage_error(self, rot_file):
        with pytest.raises(SystemExit) as err:
            main(["sft", rot_file])
        assert err.value.code == 2

    def test_malformed_alpha_is_usage_error(self, rot_file):
        with pytest.raises(SystemExit) as err:
            main(["sft", "--k", "1", "--alpha", "zzz", rot_file])
        assert err.value.code == 2

    def test_zero_denominator_alpha_is_usage_error(self, rot_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sft", "--k", "1", "--alpha", "1/0", rot_file])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert stderr.endswith(
            "error: argument --alpha: invalid Fraction value: '1/0'\n"
        )


class TestCompileCircuit:
    def test_single_gate(self, tmp_path, capsys):
        path = write(tmp_path, "not.array", "width 1\nlevel\ngate not 1\n")
        assert main(["compile-circuit", path]) == 0
        assert capsys.readouterr().out == "[[0 1][1 0]]\n"

    def test_declared_input_becomes_product(self, toffoli_file, capsys):
        assert main(["compile-circuit", toffoli_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(") and out.rstrip().endswith(
            "*([[0][1]]#([[0][1]]#[[1][0]])))"
        )

    def test_amplitude_input(self, tmp_path, capsys):
        path = write(
            tmp_path, "amp.array", "width 1\nlevel\ngate not 1\ninput amps [[3/5][4/5]]\n"
        )
        assert main(["compile-circuit", path]) == 0
        assert capsys.readouterr().out == "([[0 1][1 0]]*[[3/5][4/5]])\n"

    def test_round_trip_matches_simulate(self, tmp_path, toffoli_file, capsys):
        assert main(["compile-circuit", toffoli_file]) == 0
        formula_text = capsys.readouterr().out
        formula_file = write(tmp_path, "compiled.formula", formula_text)
        assert main(["eval", formula_file]) == 0
        evaluated = capsys.readouterr().out
        assert main(["simulate", toffoli_file]) == 0
        assert capsys.readouterr().out == "output basis 111\n"
        assert evaluated == "[[0][0][0][0][0][0][0][1]]\n"


class TestCompileFormula:
    def test_rotation_round_trip(self, tmp_path, rot_file, capsys):
        assert main(["compile-formula", rot_file]) == 0
        array_text = capsys.readouterr().out
        assert array_text == "width 1\nlevel\ngate rot35 1\ninput basis 0\n"
        array_file = write(tmp_path, "rot.array", array_text)
        assert main(["simulate", "--k", "1", array_file]) == 0
        assert capsys.readouterr().out == (
            "output amps [[3/5][-4/5]]\nprobability 16/25\n"
        )

    def test_rejects_non_osl(self, tmp_path, capsys):
        path = write(tmp_path, "bad.formula", "[[1/2][1/2]]\n")
        assert main(["compile-formula", path]) == 3

    @pytest.mark.parametrize(
        "verb", [["sft", "--k", "1"], ["compile-formula"]], ids=lambda v: v[0]
    )
    def test_non_column_names_the_order(self, tmp_path, capsys, verb):
        path = write(tmp_path, "wide.formula", "([[1 0][0 1]]#[[1][0]])\n")
        assert main(verb + [path]) == 3
        assert capsys.readouterr() == (
            "",
            "error: formula is not OSL: value is 4x2, not a column\n",
        )

    @pytest.mark.parametrize(
        "verb, path, rows",
        [
            pytest.param(["compile-formula"], "root", 1 << 30, id="compile-formula"),
            pytest.param(["eval"], "/R/R/R/R/R", 1 << 25, id="eval"),
            pytest.param(["sft", "--k", "1"], "/R/R/R/R/R", 1 << 25, id="sft"),
        ],
    )
    def test_wide_chain_past_cap(self, tmp_path, capsys, verb, path, rows):
        # 30 unit columns: the value and the compiled input state would
        # have 2^30 entries, so each verb refuses before building them.
        text = nested("right", ["[[0][1]]"] * 30, "#")
        start = time.perf_counter()
        assert main(verb + [write(tmp_path, "wide.formula", text)]) == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "",
            f"error: subformula at {path} has order {rows}x1 ({rows} entries), "
            "exceeding the cap of 16777216\n",
        )

    @pytest.mark.parametrize("verb", ["simulate", "compile-circuit"])
    @pytest.mark.parametrize("width", [25, 64])
    def test_wide_basis_input_past_cap(self, tmp_path, capsys, verb, width):
        # A one-gate file whose basis input would be a 2^width column is
        # refused before that column is built.
        text = f"width {width}\nlevel\ngate not 1\ninput basis {'0' * width}\n"
        start = time.perf_counter()
        assert main([verb, write(tmp_path, "wide.circuit", text)]) == 4
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: input basis state has order {1 << width}x1")


class TestSimulate:
    def test_golden_output(self, toffoli_file, capsys):
        assert main(["simulate", "--k", "4", toffoli_file]) == 0
        assert capsys.readouterr().out == "output basis 111\nprobability 1\n"

    @pytest.mark.parametrize("semiring", ["q", "qi"])
    def test_destructive_interference(self, tmp_path, capsys, semiring):
        # rot35 sends 3/5 e_0 + 4/5 e_1 to e_0: the e_1 terms cancel.
        text = "width 1\nlevel\ngate rot35 1\ninput amps [[3/5][4/5]]\n"
        path = write(tmp_path, "fold.array", text)
        assert main(["simulate", "--semiring", semiring, path]) == 0
        assert capsys.readouterr().out == "output basis 0\n"

    def test_missing_input_declaration(self, tmp_path, capsys):
        path = write(tmp_path, "noin.array", "width 1\nlevel\ngate not 1\n")
        assert main(["simulate", path]) == 3
        assert "no input" in capsys.readouterr().err

    def test_bad_k(self, toffoli_file, capsys):
        assert main(["simulate", "--k", "0", toffoli_file]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: k must be positive, got 0\n"

    def test_missing_file(self, capsys):
        assert main(["simulate", "/definitely/not/here"]) == 3


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "verb, data",
        [
            ("eval", b"[[1][\xff]]"),
            ("simulate", b"width 1\nlevel\ngate not 1\ninput basis \xff\n"),
        ],
        ids=["formula", "gate-array"],
    )
    def test_input_error_names_file_and_offset(self, tmp_path, capsys, verb, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        assert main([verb, str(path)]) == 3
        out, err = capsys.readouterr()
        offset = data.index(b"\xff")
        assert out == ""
        assert err == (
            f"error: {path}: byte 0xff at byte offset {offset} is not UTF-8\n"
        )


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestParserReuse:
    def test_successive_calls_match_fresh_processes(self, rot_file, capsys):
        # The value is (3/5, -4/5), so k=1 weighs 16/25: alpha 3/4 rejects
        # and the default 1/2 accepts, which a leaked --alpha would flip.
        calls = [
            ["sft", "--k", "1", "--alpha", "3/4", rot_file],
            ["sft", "--k", "1", rot_file],
            ["validate", rot_file],
        ]
        src = os.path.dirname(os.path.dirname(sft_tensor.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            code = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "sft_tensor.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (code, got.out, got.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            )


class TestHugeIntegers:
    DIGITS = "1" * 5000

    def one_error_line(self, capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_formula_token(self, tmp_path, capsys):
        path = write(tmp_path, "big.formula", f"[[{self.DIGITS}]]\n")
        assert main(["eval", path]) == 3
        line = self.one_error_line(capsys)
        assert line.endswith("too long (at offset 2)")

    def test_inline_gate_matrix(self, tmp_path, capsys):
        text = f"width 1\nlevel\ngate [[0 1][{self.DIGITS} 0]] 1\ninput basis 0\n"
        path = write(tmp_path, "big.array", text)
        assert main(["simulate", path]) == 3
        assert "line 3:" in self.one_error_line(capsys)

    @pytest.mark.parametrize(
        "text",
        [
            "width 1\nlevel\ngate not " + DIGITS + "\ninput basis 0\n",
            "width " + DIGITS + "\n",
            "width 1\nlevel\ngate not \u00b2\ninput basis 0\n",
            "width \u00b2\n",
        ],
        ids=["wire", "width", "superscript-wire", "superscript-width"],
    )
    def test_array_integers(self, tmp_path, capsys, text):
        path = write(tmp_path, "big.array", text)
        assert main(["simulate", path]) == 3
        assert "line" in self.one_error_line(capsys)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="the interpreter has no integer digit limit",
    )
    def test_value_past_digit_limit_renders(self, tmp_path, capsys):
        ones = "1" * 3000
        path = write(tmp_path, "square.formula", f"([[{ones}]]*[[{ones}]])\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(int(ones) ** 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(digits) > limit
        assert main(["eval", path]) == 0
        assert capsys.readouterr().out == f"[[{digits}]]\n"


class TestInternalErrors:
    # 3000 NOT gates on e_2: a valid OSL formula whose value is e_2 (accept
    # at k=1), nested deeper than Python's recursion limit.
    DEEP = "([[0 1][1 0]] * " * 3000 + "[[0][1]]" + ")" * 3000
    ANSWERS = {
        "validate": "order 2x1\nsize 6001\ndiameter 2\nsum-free yes\nosl yes\n",
        "eval": "[[0][1]]\n",
        "sft": "value 1\nverdict accept\n",
    }

    @pytest.mark.parametrize(
        "argv", [["validate"], ["eval"], ["sft", "--k", "1"]], ids=lambda a: a[0]
    )
    def test_deep_chain_is_never_a_reject(self, tmp_path, capsys, argv):
        path = write(tmp_path, "deep.formula", self.DEEP)
        assert main(argv + [path]) == 0
        assert capsys.readouterr() == (self.ANSWERS[argv[0]], "")


@pytest.mark.parametrize("side", ["left", "right"])
class TestDeepChains:
    """10^4 NOTs on e_2 answer as e_2 itself does, through every verb."""

    DEPTH = 10_000
    NOT = "[[0 1][1 0]]"

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("deep")
        texts = {"shallow": "[[0][1]]"}
        for side in ("left", "right"):
            texts[side] = nested(side, [self.NOT] * self.DEPTH + ["[[0][1]]"])
            texts[side + "-tensor"] = nested(side, [self.NOT] * self.DEPTH, "#")
        for name, text in texts.items():
            (base / name).write_text(text)
        return base

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "verb", [["eval"], ["sft", "--k", "1"]], ids=lambda v: v[0]
    )
    def test_same_answer_as_shallow(self, files, side, verb):
        deep = self.run(verb + ["--semiring", "bool", str(files / side)])
        assert deep == self.run(verb + ["--semiring", "bool", str(files / "shallow")])
        assert deep[0] == 0

    def test_validate(self, files, side):
        assert self.run(["validate", "--require-osl", str(files / side)]) == (
            0, "order 2x1\nsize 20001\ndiameter 2\nsum-free yes\nosl yes\n", ""
        )

    def test_compile_formula(self, files, side):
        code, out, err = self.run(["compile-formula", str(files / side)])
        levels = "level\ngate not 1\n" * self.DEPTH
        assert (code, out, err) == (0, f"width 1\n{levels}input basis 1\n", "")

    def test_tensor_chain_past_cap(self, files, side):
        # 13 NOTs make the deepest subformula whose order passes 2^24, and
        # post-order reaches it first.
        path = ("/" + side[0].upper()) * (self.DEPTH - 13)
        code, out, err = self.run(["eval", str(files / (side + "-tensor"))])
        assert (code, out) == (4, "")
        assert err == (
            f"error: subformula at {path} has order 8192x8192 (67108864 entries),"
            " exceeding the cap of 16777216\n"
        )


# Entry tokens per semiring; "01" is a packed Boolean run, and the others
# include tokens some semirings refuse.
_TOKENS = {
    "bool": ["0", "1", "01"],
    "qplus": ["0", "1", "1/2", "3/5", "-1"],
    "q": ["0", "1", "-1", "3/5", "-4/5", "1/0"],
    "qi": ["0", "1", "i", "-1/2i", "1/2+1/2i", "3/5-4/5i"],
}
_SHAPES = [(1, 1), (2, 2), (2, 1), (1, 2), (3, 3), (4, 1)]
_NOISE = "[]()+*#01 -/i\t\n\x0b3x"


def _atom_text(draw, semiring):
    tokens = st.sampled_from(_TOKENS[semiring])
    rows, cols = draw(st.sampled_from(_SHAPES))
    return "[%s]" % "".join(
        "[%s]" % " ".join(draw(tokens) for _ in range(cols)) for _ in range(rows)
    )


@st.composite
def fuzzed_formula(draw, semiring):
    """A small rendered formula, kept whole, truncated, mutated at one
    character, or replaced by random text; the noise characters are the
    grammar's own plus a vertical tab, a 3 and an x."""

    def formula(depth):
        if depth == 0 or draw(st.booleans()):
            return _atom_text(draw, semiring)
        op = draw(st.sampled_from("+*#"))
        return "(" + formula(depth - 1) + op + formula(depth - 1) + ")"

    text = formula(3)
    kind = draw(
        st.sampled_from(["keep", "truncate", "delete", "insert", "replace", "random"])
    )
    if kind == "random":
        return draw(st.text(alphabet=_NOISE, max_size=40))
    return _mutated(draw, text, kind)


@st.composite
def deep_fuzzed_formula(draw, semiring):
    """A chain nested 2500-5000 deep to one side, cycling through up to
    three atoms and operators, then kept or mutated like fuzzed_formula."""
    depth = draw(st.integers(2500, 5000))
    atoms = [_atom_text(draw, semiring) for _ in range(draw(st.integers(1, 3)))]
    ops = draw(st.lists(st.sampled_from("+*#"), min_size=1, max_size=3))
    steps = [(ops[i % len(ops)], atoms[i % len(atoms)]) for i in range(1, depth + 1)]
    if draw(st.booleans()):
        text = "(" * depth + atoms[0] + "".join(op + a + ")" for op, a in steps)
    else:
        text = "".join("(" + a + op for op, a in steps) + atoms[0] + ")" * depth
    kind = draw(st.sampled_from(["keep", "truncate", "delete", "insert", "replace"]))
    return _mutated(draw, text, kind)


def _mutated(draw, text, kind):
    if kind == "keep":
        return text
    at = draw(st.integers(0, len(text) - 1))
    noise = draw(st.sampled_from(_NOISE))
    return {
        "truncate": text[:at],
        "delete": text[:at] + text[at + 1 :],
        "insert": text[:at] + noise + text[at:],
        "replace": text[:at] + noise + text[at + 1 :],
    }[kind]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, tmp_path_factory, data):
        semiring = data.draw(st.sampled_from(sorted(_TOKENS)))
        text = data.draw(fuzzed_formula(semiring))
        verb = data.draw(
            st.sampled_from(
                [["validate"], ["eval"], ["eval", "--max-entries", "8"]]
            )
        )
        mode = data.draw(st.sampled_from(["strict", "paper"]))
        path = tmp_path_factory.getbasetemp() / "fuzz.formula"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(verb + ["--semiring", semiring, "--mode", mode, str(path)])
        assert code in (0, 3, 4), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_deep_nesting_exit_code_and_one_error_line(self, tmp_path_factory, data):
        semiring = data.draw(st.sampled_from(sorted(_TOKENS)))
        text = data.draw(deep_fuzzed_formula(semiring))
        verb = data.draw(
            st.sampled_from(
                [
                    ["validate"],
                    ["eval"],
                    ["eval", "--max-entries", "8"],
                    ["sft", "--k", "1"],
                ]
            )
        )
        path = tmp_path_factory.getbasetemp() / "deep-fuzz.formula"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(verb + ["--semiring", semiring, str(path)])
        assert code in (0, 1, 3, 4), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
