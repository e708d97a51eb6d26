import ast
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from coqatoo import CoqatooError, detect_unsupported, parse_script, tokenize_script
from coqatoo.diagnostics import Severity
from coqatoo.goal_parser import IDENT
from coqatoo.script_parser import LEMMA_KEYWORDS, PROOF_END_KEYWORDS, ScriptItem, _head

from helpers import (CORPUS, GOLDEN_DIR, PACKAGE, load_script, reference_parse, reference_sentences, script_path,
                     tactic_commands)

LISTING_4_TACTICS = [
    "intros", "split", "intros H HP HQ", "apply H", "apply conj",
    "assumption", "assumption",
    "intros H HPQ", "inversion HPQ", "apply H", "assumption", "assumption",
]


def _tactics_of(src):
    return parse_script(src)[0].tactics


def _sentences_at(src, texts):
    """Each sentence of `src` with its span: texts[k] at its first place after sentence k - 1."""
    spans, pos = [], 0
    for text in texts:
        start = src.index(text, pos)
        spans.append((text, (start, start + len(text))))
        pos = start + len(text)
    return spans


def test_worked_example_tokenization():
    items = tokenize_script(script_path("conj_imp_equiv").read_text())
    assert [it.head for it in items] == ["Lemma", "Proof"] + [_head(t) for t in LISTING_4_TACTICS] + ["Qed"]
    assert len(items) == 15 and all(a.span[1] <= b.span[0] for a, b in zip(items, items[1:]))
    assert tactic_commands(load_script("conj_imp_equiv").tactics) == LISTING_4_TACTICS


def test_empty_proof_body():
    src = "Lemma t : True. Proof. Qed."
    assert [it.head for it in tokenize_script(src)] == ["Lemma", "Proof", "Qed"]
    assert _tactics_of(src) == ()


def test_qualified_name_does_not_split_sentence():
    tactics = _tactics_of("Lemma t : True. Proof. apply Coq.Init.Logic.I. Qed.")
    assert len(tactics) == 1
    assert tactics[0].command == "apply Coq.Init.Logic.I"


@pytest.mark.parametrize("src", ["Lemma t : True. Proof. (* oops", "(* don't use \"quotes *)",
                                 'Lemma t : True. Proof. (* "a"" *) exact I. Qed.',
                                 "Proof. (*) exact I. Qed.", "Proof. (* a (* b *) exact I. Qed."],
                         ids=["comment", "string-in-comment", "string-with-an-escaped-quote",
                              "an-opener-whose-star-ends-nothing", "a-nested-comment-closes-only-itself"])
def test_unterminated_comment(src):
    """A string inside a comment must be closed too: one left open leaves the comment open."""
    with pytest.raises(CoqatooError) as exc:
        tokenize_script(src)
    at = src.index("(*")
    assert (exc.value.diagnostic.code, exc.value.diagnostic.span) == ("UNTERMINATED_COMMENT", (at, len(src)))


def test_no_lemma():
    assert [it.text for it in tokenize_script("split. assumption.")] == ["split.", "assumption."]
    with pytest.raises(CoqatooError) as exc:
        parse_script("split. assumption.")
    assert exc.value.diagnostic.code == "NO_LEMMA"


def test_spans_cover_source(corpus_name):
    src = script_path(corpus_name).read_text()
    items = tokenize_script(src)
    pos = 0
    for it in items:
        assert it.span[0] >= pos
        assert src[pos:it.span[0]].strip() == ""  # gaps are whitespace only
        assert src[it.span[0]:it.span[1]] == it.text
        pos = it.span[1]
    assert src[pos:].strip() == ""


def test_tactic_dot_only_terminal(corpus_name):
    for it in load_script(corpus_name).tactics:
        assert "." not in it.text[:-1]


# --- prover_text: the prover runs auto as info_auto ---

def _prover_spelled(item):
    return item._replace(text=item.prover_text)


def test_auto_head_rewritten():
    tactic, = _tactics_of("Lemma t : True. Proof. auto. Qed.")
    assert tactic.prover_text == "info_auto."
    assert tactic.text == "auto."


def test_auto_with_arguments():
    tactics = _tactics_of("Lemma t : True. Proof. auto with arith. Qed.")
    assert [it.command for it in tactics] == ["auto with arith"]
    assert [_prover_spelled(it).command for it in tactics] == ["info_auto with arith"]


def test_non_auto_unchanged():
    items = tokenize_script("Lemma t : True. Proof. assumption. Qed.")
    assert [_prover_spelled(it) for it in items] == items


@pytest.mark.parametrize("text", ["info_auto.", "assumption.", "autorewrite.", "eauto.", "apply auto."])
def test_prover_text_of_a_tactic_not_led_by_auto_is_its_text(text):
    item = tokenize_script(f"Lemma t : True. Proof. {text} Qed.")[2]
    assert item.prover_text == item.text == text


# --- detect_unsupported ---

def test_chain_operator_rejected():
    diags = detect_unsupported(_tactics_of("Lemma t : True. Proof. split; intros. Qed."))
    assert [d.code for d in diags] == ["UNSUPPORTED_CHAIN"]
    assert diags[0].severity is Severity.ERROR


def test_worked_example_has_no_errors():
    tactics = load_script("conj_imp_equiv").tactics
    assert detect_unsupported(tactics) == []


@pytest.mark.parametrize("command, head", [
    ("apply H", "apply"), ("exact(I)", "exact"), ("intros H'", "intros"), ("τακτική H", "τακτική"),
    ("rewrite_α' -> H", "rewrite_α'"), ("2: auto", "2: auto"),
])
def test_head_is_the_identifier_a_command_starts_with(command, head):
    assert _head(command) == head


@given(st.text(st.sampled_from(["a", "H", "é", "'", "_", "1", ":", ".", "(", "*", ")", " ", "\t", "\u00a0"]),
               max_size=8),
       st.sampled_from(["", " ", "\t\u3000"]), st.sampled_from(["", "."]), st.sampled_from(["", " ", "\n"]))
def test_head_of_a_sentence_is_the_head_of_its_command(command, lead, dot, trail):
    """With or without its "." and its outer blanks, a sentence's head is the
    identifier its command starts with, or the whole command."""
    text = lead + command + dot + trail
    command = ScriptItem(text, (0, len(text))).command
    m = IDENT.match(command)
    assert _head(text) == (m.group(0) if m else command)


@pytest.mark.parametrize("text, argument", [
    ("apply H.", "H"), ("apply (* by H *) H.", "H"), ("apply(* c *)H.", "H"), ("apply (* (* nested *) *) H.", "H"),
    ("inversion (* H0 *) H (* then *).", "H"), ("apply (* no argument *).", None), ("split.", None),
    ('apply "(*" H.', '"(*"'), ("apply (* an unterminated comment hides H", None),
], ids=["plain", "comment", "no-blanks", "nested", "inversion", "only-comment", "no-argument", "string",
        "unterminated"])
def test_argument_is_the_second_word_outside_comments(text, argument):
    assert ScriptItem(text, (0, len(text))).argument == argument


@pytest.mark.parametrize("selector", ["2:", "1-2:", "1, 3:", "1,2-3:", "all:", "par:", "!:", "[H]:", "2 :"])
def test_goal_selector_is_rejected(selector):
    tactics = _tactics_of(f"Lemma t : True. Proof. {selector} assumption. Qed.")
    diags = detect_unsupported(tactics)
    assert [(d.code, d.severity) for d in diags] == [("UNSUPPORTED_SELECTOR", Severity.ERROR)]
    assert diags[0].span == tactics[0].span


def test_colon_equals_and_typed_binders_are_no_selectors():
    tactics = _tactics_of("Lemma t : True. Proof. pose (x := 1). assert (H : True). Qed.")
    assert detect_unsupported(tactics) == []


def test_semicolon_inside_comment_or_string_is_fine():
    tactics = _tactics_of('Lemma t : True. Proof. (* a; b *) idtac "x; y". Qed.')
    assert detect_unsupported(tactics) == []


def test_the_parser_leaves_explaining_to_the_rewriter():
    """Whether a tactic can be explained is `rewrite_step`'s to say: the parser
    flags only what the prover cannot be given, and imports no rewriter."""
    tree = ast.parse((PACKAGE / "script_parser.py").read_text(encoding="utf-8"))
    assert "rewriter" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert detect_unsupported(_tactics_of("Lemma t : True. Proof. ring. τακτική H. Qed.")) == []


# --- parse_script ---

def test_parse_script_keeps_the_first_lemma_and_warns():
    src = "Lemma a : True. Proof. auto. Qed.\nLemma b : True. Proof. ring. Qed.\nLemma c : True.\n"
    script, diags = parse_script(src)
    assert script.lemma.command == "Lemma a : True"
    assert [(it.text, it.prover_text) for it in script.tactics] == [("auto.", "info_auto.")]
    assert [(d.code, d.severity) for d in diags] == [("MULTIPLE_LEMMAS", Severity.WARNING)]
    assert "2 more ignored" in diags[0].message
    assert diags[0].span[0] == src.index("Lemma b")


@pytest.mark.parametrize("source", [script_path(name).read_bytes().decode("utf-8") for name in CORPUS]
                         + ["Lemma t : True.\r\nProof.\r\n  split; trivial.\r\nQed.\r\n"],
                         ids=[*CORPUS, "chain-crlf"])
def test_parse_script_drops_one_leading_byte_order_mark(source):
    """The script, its spans and its diagnostics' spans are those of the text without the mark."""
    assert parse_script("\ufeff" + source) == parse_script(source)


def test_focus_braces_are_skipped():
    src = "Lemma t : True /\\ True.\nProof.\n  split.\n  { exact I. }\n  {split. {assumption. }\n}\nQed."
    assert [(it.text, it.span) for it in tokenize_script(src)] == _sentences_at(
        src, ["Lemma t : True /\\ True.", "Proof.", "split.", "exact I.", "split.", "assumption.", "Qed."])
    script, diags = parse_script(src)
    assert [it.command for it in script.tactics] == ["split", "exact I", "split", "assumption"]
    assert diags == []


# --- property-based lexing ---

_tactic_texts = st.sampled_from(["intros", "apply H", "assumption", "split", "auto", "ring", "intros H HP",
                                 # a ".", "(*" or ";" inside a string or a comment ends nothing
                                 'idtac "a. b"', 'idtac "x (* y"', 'idtac "p; q"', 'idtac "say ""hi"". "',
                                 "apply H (* why. (* nested; *) ok *)", "exact (conj I I) (* . *)"])
_gaps = st.sampled_from([" ", "  ", "\n", "\n  ", "\t\n", "\x0c", "\xa0", "\u2028", "\u3000", "\x1c"])


@st.composite
def _scripts(draw):
    """(source, [(the gap before a piece, the piece, whether it is a sentence)])."""
    pieces = [("Lemma t : True.", True), ("Proof.", True)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            pieces.append(("(* note. (* nested *) *)", False))
        if draw(st.booleans()):
            pieces.append((draw(st.sampled_from(["{", "}", "-", "--", "+"])), False))
        pieces.append((draw(_tactic_texts) + ".", True))
    pieces.append(("Qed.", True))
    unterminated = draw(st.booleans())
    if unterminated:
        pieces.append((draw(_tactic_texts), True))   # a sentence without its ".", which runs to the end
    parts = [(draw(_gaps), piece, sentence) for piece, sentence in pieces]
    # the last sentence may end at the end of the input
    end = "" if unterminated else draw(_gaps | st.just(""))
    return "".join(g + p for g, p, _ in parts) + end, parts


@given(_scripts())
def test_lossless_lexing(drawn):
    src, parts = drawn
    items = tokenize_script(src)
    assert [it.text for it in items] == [piece for _, piece, sentence in parts if sentence]
    # before each sentence: the blanks, comments, bullets and braces drawn there
    between, skipped = [], ""
    for gap, piece, sentence in parts:
        if sentence:
            between.append(skipped + gap)
            skipped = ""
        else:
            skipped += gap + piece
    pos = 0
    for it, gap in zip(items, between):
        assert src[pos:it.span[0]] == gap
        assert src[it.span[0]:it.span[1]] == it.text
        pos = it.span[1]
    assert src[pos:].strip() == ""


def _lexed(tokenize, src):
    """The (text, span) of each sentence `tokenize` finds in `src`, or the diagnostic it raises."""
    try:
        return [(text, span) for text, span in tokenize(src)]
    except CoqatooError as exc:
        return exc.diagnostic


# pieces whose order decides where a comment, a string and a sentence end
_LEXEMES = st.sampled_from(['"', '""', '"*)"', '"(*"', "(*", "*)", "(", ")", "*", ".", ";", "-", "+", "{", "}", "a",
                            "é", " ", "\n", "\u3000"])


@settings(max_examples=500)
@given(_scripts().map(lambda drawn: drawn[0]) | st.lists(_LEXEMES, max_size=24).map("".join))
def test_sentences_are_the_reference_lexers(src):
    assert _lexed(tokenize_script, src) == _lexed(reference_sentences, src)


@pytest.mark.parametrize("src, texts", [
    ("Lemma t : True.\nProof.\n(* a (* b *) c. Qed. *)\nsplit.\nQed.", ["Lemma t : True.", "Proof.", "split.", "Qed."]),
    ('Proof. (* a "*)" b *) exact I. Qed.', ["Proof.", "exact I.", "Qed."]),
    ('Proof. (* "a""*)" *) exact I. Qed.', ["Proof.", "exact I.", "Qed."]),
    ('Proof. (* a (* b "*)" (* c *) *) d *) exact I. Qed.', ["Proof.", "exact I.", "Qed."]),
    ("Proof. exact (* a. b *) I. Qed.", ["Proof.", "exact (* a. b *) I.", "Qed."]),
    ('Lemma t : "(* a. b" = s.\nProof.\nQed.', ['Lemma t : "(* a. b" = s.', "Proof.", "Qed."]),
    ('Lemma t : "a"". b" = s. Proof. Qed.', ['Lemma t : "a"". b" = s.', "Proof.", "Qed."]),
    ("Lemma t : True.\nProof.\nsplit.\n- assumption.\n-- apply x.\n*-x.\nQed.",
     ["Lemma t : True.", "Proof.", "split.", "assumption.", "apply x.", "*-x.", "Qed."]),
    ("Proof. exact I", ["Proof.", "exact I"]),
], ids=["nested-comment", "string-in-a-comment", "escaped-quote-in-a-comments-string", "string-between-nested-comments",
        "comment-in-a-sentence", "comment-opener-in-a-string", "escaped-quote-in-a-string", "bullets",
        "no-final-dot"])
def test_sentences_by_the_manuals_rules(src, texts):
    """Comments nest and may hold strings, whose "*)" ends no comment; a string's "" is
    a quote; a run of "-", "+" or "*" before a blank is a bullet; a sentence ends at a
    "." before a blank, or at the end of the input."""
    assert _lexed(tokenize_script, src) == _lexed(reference_sentences, src) == _sentences_at(src, texts)


@pytest.mark.parametrize("path", [script_path(name) for name in CORPUS] + sorted(GOLDEN_DIR.glob("*.annotated.*")),
                         ids=lambda path: path.name)
def test_a_committed_script_lexes_as_the_reference_reads_it(path):
    """The corpus scripts, and the annotated goldens, whose comments hold goals and prose."""
    src = path.read_bytes().decode("utf-8")
    assert [(it.text, it.span) for it in tokenize_script(src)] == reference_sentences(src)


def test_regex_whitespace_is_str_isspace():
    # the tokenizer finds sentence ends and skips blanks with regex \s
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


@given(_scripts())
def test_the_prover_spelling_is_idempotent(drawn):
    once = [_prover_spelled(it) for it in tokenize_script(drawn[0])]
    assert [_prover_spelled(it) for it in once] == once


# --- a sentence's role: parse_script against the kind-based reference ---

_role_pieces = st.sampled_from(
    [f"{keyword} t : True." for keyword in sorted(LEMMA_KEYWORDS)] + ["Proof.", "Proof using H."]
    + [f"{keyword}." for keyword in sorted(PROOF_END_KEYWORDS)]
    + ["Require Import Arith.", "(* a (* Qed. *) Lemma b. *)", "-", "--", "+", "*", "{", "}",
       "split.", "auto.", "intros H.", "ring.", "2: assumption.", "split; intros.", "Proofs.", "Qed_x."])


@st.composite
def _role_scripts(draw):
    """A script in a proof file's shape: pieces before the lemma, the lemma,
    its proof and pieces after it, any of which may hold another lemma or
    proof end; the lemma may be missing and the last "." too."""
    some = st.lists(_role_pieces, max_size=6)
    parts = draw(some)
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(sorted(LEMMA_KEYWORDS))) + " t : True.")
        parts += draw(st.lists(st.sampled_from(["Proof.", "Proof using H."]), max_size=1)) + draw(some)
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(sorted(PROOF_END_KEYWORDS))) + ".")
        parts += draw(some)
    if parts and parts[-1].endswith(".") and draw(st.booleans()):
        parts[-1] = parts[-1][:-1]
    return "".join(draw(_gaps) + part for part in parts)


def _parsed(parse, src):
    try:
        script, diags = parse(src)
    except CoqatooError as exc:
        return exc.diagnostic
    return ((script.lemma.text, script.lemma.span),
            [(it.text, it.span, it.head, it.prover_text) for it in script.tactics], diags)


@settings(max_examples=500)
@given(_role_scripts())
def test_roles_by_head_match_the_reference(src):
    assert _parsed(parse_script, src) == _parsed(reference_parse, src)
