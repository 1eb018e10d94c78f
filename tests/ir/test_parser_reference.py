"""The flat-token parser builds what the cursor parser it replaced built.

``tests/parser_reference.py`` keeps the replaced parser as the oracle.
On the validation programs, 100 ``llvm_test_suite`` programs and every
module of the fuzz regression corpus, both parsers must produce modules
that print the same text, have the same fingerprint and keep the same
use lists (the order passes see uses in). On malformed and truncated
text both must fail with the same exception and message.
"""

from pathlib import Path

import pytest

from repro.ir.fingerprint import module_fingerprint
from repro.ir.parser import ParseError, _tokenize, parse_module
from repro.ir.printer import print_module
from repro.testing import load_cases
from repro.workloads import load_suite
from tests import parser_reference
from tests.ir.test_printer_parser import ROUNDTRIP_SOURCES

CORPUS_DIR = Path(__file__).resolve().parent.parent / "testing" / "corpus"


def _texts(source):
    if source == "corpus":
        cases = load_cases(CORPUS_DIR)
        assert cases, f"no fuzz corpus cases under {CORPUS_DIR}"
        return [(case.name, case.module_text) for case in cases]
    if source == "llvm_test_suite":
        suite = load_suite(source)[:100]
        assert len(suite) == 100
    else:
        suite = load_suite(source)
    return [(name, print_module(module)) for name, module in suite]


def _use_lists(module):
    """Every value's uses as ``(user position, operand index)``, in order."""
    values = list(module.globals)
    for fn in module.functions:
        values.append(fn)
        values.extend(fn.args)
        for block in fn.blocks:
            values.append(block)
            values.extend(block.instructions)
    position = {id(value): k for k, value in enumerate(values)}
    return [
        [(position.get(id(use.user)), use.index) for use in value.uses]
        for value in values
    ]


def assert_same_module(name, text):
    fast = parse_module(text)
    reference = parser_reference.parse_module(text)
    assert print_module(fast) == print_module(reference), name
    assert module_fingerprint(fast) == module_fingerprint(reference), name
    assert _use_lists(fast) == _use_lists(reference), name
    assert fast.name == reference.name, name


@pytest.mark.parametrize(
    "source", ["mibench", "spec2006", "spec2017", "llvm_test_suite", "corpus"]
)
def test_parsers_build_the_same_modules(source):
    for name, text in _texts(source):
        assert_same_module(name, text)


def test_validation_suites_have_28_programs():
    suites = ("mibench", "spec2006", "spec2017")
    assert sum(len(load_suite(suite)) for suite in suites) == 28


EDGE_TEXTS = [
    "", "  ", "\n", "x", " x ", "x\n", "; c", "; c\n", "a ; c", "a;c\n b",
    "@g = global i32 1 ; trailing comment", "}\n\n  \t", '"', "a $", "%",
    "-", "...", "..", "c\"ab\\zz\"", "\u0663\u0664 x",
]


def test_same_tokens():
    for name, text in _texts("mibench") + _texts("corpus"):
        assert _tokenize(text) == parser_reference._tokenize(text), name
    for text in EDGE_TEXTS:
        try:
            expected = parser_reference._tokenize(text)
        except ParseError as exc:
            assert _error(_tokenize, text) == str(exc), text
            continue
        assert _tokenize(text) == expected, text


VALID = """\
; module m
@g = internal global [2 x i32] [i32 1, i32 2], align 4
@s = internal constant [3 x i8] c"a\\0Ab"

declare i32 @ext(i32, ...)

define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 %n, i32* %p, align 4
  %v = load i32, i32* %p, align 4
  %c = icmp slt i32 %v, 10
  br i1 %c, label %loop, label %done
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %j = phi i32 [ 1, %entry ], [ %next, %loop ]
  %next = add i32 %i, %j
  %r = call i32 @ext(i32 %next)
  %stop = icmp eq i32 %next, %v
  br i1 %stop, label %done, label %loop
done:
  %out = phi i32 [ %v, %entry ], [ %next, %loop ]
  ret i32 %out
}
"""

VECTORS = """\
define i32 @entry(i32 %n) {
entry:
  %buf = alloca [8 x i32], align 16
  %p0 = gep [8 x i32]* %buf, i32 0, i32 0
  %vp = bitcast i32* %p0 to <4 x i32>*
  %v = load <4 x i32>, <4 x i32>* %vp, align 16
  %w = add <4 x i32> %v, <i32 1, i32 2, i32 3, i32 4>
  %x = insertelement <4 x i32> %w, i32 %n, i32 1
  store <4 x i32> %x, <4 x i32>* %vp, align 16
  %e = extractelement <4 x i32> %x, i32 1
  %f = sitofp i32 %e to double
  %c = fcmp olt double %f, 1.5
  br i1 %c, label %bad, label %ok
bad:
  unreachable
ok:
  %z = select i1 true, i32 %e, i32 undef
  ret i32 %z
}
"""

#: Together these use every instruction form the parser reads.
SAMPLES = {**ROUNDTRIP_SOURCES, "valid": VALID, "vector_constants": VECTORS}
assert len(SAMPLES) == len(ROUNDTRIP_SOURCES) + 2

MALFORMED = {
    "bad character": VALID.replace("%n)", "%n) #"),
    "truncated": VALID[: VALID.index("%stop =")],
    "unterminated string": VALID.replace('c"a\\0Ab"', 'c"a\\0Ab'),
    "unknown opcode": VALID.replace("add i32", "frobnicate i32"),
    "undefined local": VALID.replace("%v, %entry", "%missing, %entry"),
    "redefinition": VALID.replace("%next = add", "%i = add"),
}


def _error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return str(exc.value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_samples_parse_alike(name):
    assert_same_module(name, SAMPLES[name])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parsers_reject_the_same_text(case):
    text = MALFORMED[case]
    assert _error(parse_module, text) == _error(
        parser_reference.parse_module, text
    )


def test_bad_character_offset():
    text = MALFORMED["bad character"]
    message = _error(parse_module, text)
    assert message.startswith(f"bad character at offset {text.index('#')}:")


MALFORMED_OPERANDS = {
    "missing mul operands": (
        "define i32 @f(i32 %n) {\nentry:\n  %inv = mul i32\n}\n",
        "malformed mul at token 13: ValueError: ",
    ),
    "missing callee": (
        "define i32 @f(i32 %n) {\nentry:\n  %a = call i32\n}\n",
        "malformed call at token 13: KeyError: ",
    ),
    "store through a non-pointer": (
        "define void @f(i32 %n) {\nentry:\n"
        "  store i32 %n, i32 %n, align 4\n  ret void\n}\n",
        "malformed store at token 11: TypeError: ",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OPERANDS))
def test_malformed_operands_raise_parse_error(case):
    """Only ParseError leaves ``parse_module``, with the token position
    of the instruction."""
    text, prefix = MALFORMED_OPERANDS[case]
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert str(exc.value).startswith(prefix)


#: What the reference parser raises on some malformed operands.
OPERAND_ERRORS = ("KeyError", "TypeError", "ValueError")


def _outcome(parse, text):
    try:
        return print_module(parse(text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_every_truncation(name):
    """Cut a sample after every character, and again with a closing
    brace added so the cut lands inside a body the parse reaches: both
    parsers build the same module or fail with the same exception and
    message. Where the reference fails an assertion by running off the
    token list, the new parser reads the end of input; where it raises
    ``KeyError``/``TypeError``/``ValueError`` on a malformed operand,
    the new parser raises ``ParseError``."""
    sample = SAMPLES[name]
    for cut in range(len(sample)):
        for text in (sample[:cut], sample[:cut] + "\n}\n"):
            expected = _outcome(parser_reference.parse_module, text)
            got = _outcome(parse_module, text)
            if expected.startswith("AssertionError"):
                expected = "ParseError: unexpected end of input"
            elif expected.startswith(OPERAND_ERRORS):
                # The new parser reports malformed operands as ParseError.
                assert got.startswith("ParseError: malformed "), (cut, text)
                continue
            assert got == expected, (cut, text)
