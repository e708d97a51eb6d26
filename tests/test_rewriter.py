import re

import pytest
from hypothesis import given, settings, strategies as st

from coqatoo import CoqatooError, load_templates, parse_script, parse_state, render, rewrite_step, run_replay
from coqatoo.diagnostics import Severity
from coqatoo.pipeline import diff_states, generate
from coqatoo.rewriter import (_LATEX_SPECIALS, _PLACEHOLDER, ALLOWED_PLACEHOLDERS, REQUIRED_KEYS, RULES,
                              OutputMode, TemplateSet, latex_escape, split_implication)
from coqatoo.script_parser import ScriptItem
from coqatoo.tree_builder import AnalyzedStep, ProofNode

from helpers import (DONE, LISTING_1, LISTING_2, analyzed_steps, conjunction_chain, narrow_chain, output_text,
                     roundtrip_tactics, state, write_replay_pair)

EN = load_templates()
TEMPLATES = {"en": EN, "fr": load_templates(language="fr")}


def _step(text, before, after):
    return AnalyzedStep(ScriptItem(text, (0, len(text))), before, after, diff_states(before, after))


# --- load_templates ---

def test_templates_define_exactly_the_required_keys():
    assert set(EN.entries) == REQUIRED_KEYS


@pytest.mark.parametrize("key", sorted(REQUIRED_KEYS))
def test_missing_key_is_an_error(tmp_path, key):
    src = "\n".join(f"{k} = {v}" for k, v in EN.entries.items() if k != key)
    (tmp_path / "en.properties").write_text(src, encoding="utf-8")
    with pytest.raises(CoqatooError) as exc:
        load_templates(str(tmp_path), "en")
    assert exc.value.diagnostic.code == "TEMPLATE_MISSING_KEY"
    assert repr(key) in exc.value.diagnostic.message


class _RecordingTemplates(TemplateSet):
    """A TemplateSet that notes each key it fills in `filled`."""

    def __init__(self, *fields):
        self.filled = set()

    def fill(self, key, **values):
        self.filled.add(key)
        return super().fill(key, **values)


def test_rules_fill_only_the_keys_of_their_row(corpus_name):
    templates = _RecordingTemplates("en", EN.entries)
    row_keys = {k for _, keys in RULES.values() for k in keys}
    for step in analyzed_steps(corpus_name):
        templates.filled.clear()
        rewrite_step(step, templates)
        # auto, which the prover runs as info_auto, explains the tactics it used with their own rows
        allowed = row_keys if step.item.prover_text.startswith("info_auto") else set(RULES[step.item.head][1])
        assert templates.filled <= allowed, step.item.command


def test_unknown_placeholder_is_an_error(tmp_path):
    src = "\n".join(f"{k} = {v}" for k, v in EN.entries.items()) + "\nextra.key = oops {bogus}\n"
    (tmp_path / "en.properties").write_text(src, encoding="utf-8")
    with pytest.raises(CoqatooError) as exc:
        load_templates(str(tmp_path), "en")
    assert exc.value.diagnostic.code == "TEMPLATE_BAD_PLACEHOLDER"


@pytest.mark.parametrize("layout", [
    lambda directory: directory,
    lambda directory: (directory / "de.properties").mkdir() or directory,
    lambda directory: (directory / "de.properties").symlink_to("nowhere") or directory,
    lambda directory: (directory / "file").touch() or directory / "file",
], ids=["no-file", "a-directory", "a-dangling-link", "templates-names-a-file"])
def test_missing_language_file(tmp_path, layout):
    with pytest.raises(CoqatooError) as exc:
        load_templates(str(layout(tmp_path)), "de")
    assert exc.value.diagnostic.code == "TEMPLATE_MISSING_KEY"


@pytest.mark.parametrize("suffix", ["/", "/./"])
def test_messages_spell_the_template_directory_as_given(tmp_path, suffix):
    """The directory and the file a message names are spelled as the caller spelled the directory."""
    directory = str(tmp_path) + suffix
    with pytest.raises(CoqatooError) as exc:
        load_templates(directory, "de")
    assert exc.value.diagnostic.message == f"no template file for language 'de' in {directory}"
    (tmp_path / "de.properties").write_bytes(b"\xff")
    with pytest.raises(CoqatooError) as exc:
        load_templates(directory, "de")
    assert exc.value.diagnostic.message.startswith(f"{directory}de.properties is not valid UTF-8: ")


# --- split_implication ---

@pytest.mark.parametrize("expr,parts", [
    ("P /\\ Q -> R", ["P /\\ Q", "R"]),
    ("P -> Q -> R", ["P", "Q", "R"]),
    ("(A -> B) -> C", ["(A -> B)", "C"]),
    ("P", ["P"]),
    # a quantifier's scope runs to the end of the type
    ("forall x : A, P x -> Q x", ["forall x : A, P x -> Q x"]),
    ("exists x, P x -> Q", ["exists x, P x -> Q"]),
    ("P -> forall x, Q x -> R x", ["P", "forall x, Q x -> R x"]),
    ("(forall x, P x) -> Q", ["(forall x, P x)", "Q"]),
    ("forall_x -> Q", ["forall_x", "Q"]),
    # the arrow of "<->" is no implication arrow, and "<->" binds tighter than "->"
    ("P <-> Q", ["P <-> Q"]),
    ("P -> Q <-> R", ["P", "Q <-> R"]),
    # the Unicode arrow splits as "->" does, and "↔" holds no arrow
    ("P → Q -> R", ["P", "Q", "R"]),
    ("P → Q ↔ R", ["P", "Q ↔ R"]),
    ("P → ∀ x, Q x → R x", ["P", "∀ x, Q x → R x"]),
])
def test_split_implication(expr, parts):
    assert split_implication(expr) == parts


def _connected(inner):
    return st.one_of(st.builds("{} {} {}".format, inner, st.sampled_from(["->", "<->", "/\\"]), inner),
                     inner.map("~ {}".format), inner.map("({})".format))


_normalized_types = st.recursive(st.sampled_from(["P", "Q", "R x", "True", "forall_x"]), _connected,
                                 max_leaves=8)


@given(_normalized_types)
def test_split_implication_parts_join_back_to_the_type(text):
    parts = split_implication(text)
    assert " -> ".join(parts) == text and "" not in parts


# --- rewrite_step rules ---

_BY_ASSUMPTION = "True, because it is one of our assumptions."


@pytest.mark.parametrize("name, index, sentences", [
    ("conj_imp_equiv", 0, ("Assume that P, Q and R are arbitrary objects of type Prop.",
                           "Let us show that (P /\\ Q -> R) <-> (P -> Q -> R) is true.")),
    ("conj_imp_equiv", 1, ()),
    ("conj_imp_equiv", 2, ("Suppose that P, Q and P /\\ Q -> R are true.", "Let us show that R is true.")),
    ("conj_imp_equiv", 3, ("By our hypothesis P /\\ Q -> R, we know that R is true if P /\\ Q is true.",)),
    ("conj_imp_equiv", 4, ()),
    ("conj_imp_equiv", 5, (_BY_ASSUMPTION,)),
    ("conj_imp_equiv", 8, ("By inversion on P /\\ Q, we know that P and Q are also true.",)),
    ("conj_imp_equiv", 9, ("By our hypothesis P -> Q -> R, we know that R is true if P and Q are true.",)),
    ("modus_ponens", 2, ("By our hypothesis P -> Q, we know that Q is true if P is true.", _BY_ASSUMPTION)),
], ids=["intros-variables", "split-is-silent", "intros-hypotheses", "apply-local-hypothesis",
        "apply-global-constant-is-silent", "assumption", "inversion", "apply-multi-antecedent",
        "info-auto-expands-reported-tactics"])
def test_the_sentences_of_a_fixture_step(name, index, sentences):
    assert rewrite_step(analyzed_steps(name)[index], EN).sentences == sentences


@pytest.mark.parametrize("rest", [
    "Proof completed.\n",
    "1 focused subgoal\n\n  P, Q : Prop\n  HP : P\n  H : P -> Q\n  ============================\n  Q\n",
], ids=["proof_completed", "focused_subgoal"])
def test_auto_trace_ends_where_a_state_starts(rest):
    step = analyzed_steps("modus_ponens")[2]
    raw = "(* info auto: *)\nsimple apply H.\nassumption.\n" + rest
    ann = rewrite_step(step._replace(after=parse_state(raw)), EN)
    assert ann == rewrite_step(step, EN)
    assert ann.sentences and ann.diagnostics == ()


def test_info_auto_reported_by_auto_explains_nothing():
    step = analyzed_steps("modus_ponens")[2]
    raw = "(* info auto: *)\ninfo_auto.\nassumption.\n\nNo more subgoals.\n"
    ann = rewrite_step(step._replace(after=parse_state(raw)), EN)
    assert (ann.sentences, ann.diagnostics) == (("True, because it is one of our assumptions.",), ())


def test_auto_reported_by_auto_explains_nothing():
    step = analyzed_steps("modus_ponens")[2]
    assert (step.item.text, step.item.prover_text) == ("auto.", "info_auto.")
    raw = "(* info auto: *)\nauto.\nassumption.\n\nNo more subgoals.\n"
    ann = rewrite_step(step._replace(after=parse_state(raw)), EN)
    assert (ann.sentences, ann.diagnostics) == (("True, because it is one of our assumptions.",), ())


@pytest.mark.parametrize("head", ["ring", "τακτική"])
def test_a_head_without_a_rule_explains_nothing_and_warns(head):
    """One warning, at the tactic's span, naming its head; `render` prints
    plain.omitted for it unless it branches."""
    text = f"{head} H."
    item = ScriptItem(text, (12, 12 + len(text)))
    ann = rewrite_step(AnalyzedStep(item, parse_state(LISTING_2), parse_state(LISTING_2), ()), EN)
    assert ann.sentences == ()
    assert [(d.code, d.severity, d.message, d.span) for d in ann.diagnostics] == [
        ("UNSUPPORTED_TACTIC", Severity.WARNING, f'no rewriting rule for tactic "{head}"', item.span)]


@pytest.mark.parametrize("head", sorted(RULES))
def test_no_rule_head_warns(head):
    ann = rewrite_step(_step(f"{head} H.", parse_state(LISTING_2), parse_state(LISTING_2)), EN)
    assert ann.diagnostics == ()


def test_mixed_intros_stays_within_two_sentences():
    before = parse_state(LISTING_1)
    after = parse_state(
        "1 subgoal\n\n  P, Q, R : Prop\n  H : P\n  ============================\n"
        "  (P /\\ Q -> R) <-> (P -> Q -> R)\n")
    ann = rewrite_step(_step("intros P Q R H.", before, after), EN)
    assert len(ann.sentences) == 2
    assert "P, Q and R" in ann.sentences[0]
    assert "suppose that P is true" in ann.sentences[0]


_ONE_VARIABLE = {"en": "Assume that {} is an arbitrary object of type Prop",
                 "fr": "Supposons que {} est un objet arbitraire de type Prop"}
_VARIABLES = {"en": "Assume that {} are arbitrary objects of type Prop",
              "fr": "Supposons que {} sont des objets arbitraires de type Prop"}
_ONE_HYPOTHESIS = {"en": " and suppose that {} is true.", "fr": " et que {} est vraie."}
_HYPOTHESES = {"en": " and suppose that {} are true.", "fr": " et que {} sont vraies."}


@pytest.mark.parametrize("lang", ["en", "fr"])
@pytest.mark.parametrize("names, hyps, variables, hypotheses", [
    ("x", ["Hx : x"], _ONE_VARIABLE, _ONE_HYPOTHESIS),
    ("x", ["Hx : x", "Hy : ~ x"], _ONE_VARIABLE, _HYPOTHESES),
    ("a, b", ["Ha : a"], _VARIABLES, _ONE_HYPOTHESIS),
    ("a, b", ["Ha : a", "Hb : b"], _VARIABLES, _HYPOTHESES),
], ids=["one-one", "one-many", "many-one", "many-many"])
def test_mixed_intros_agree_in_number(lang, names, hyps, variables, hypotheses):
    """Each half of the mixed sentence takes the singular for one name, as
    intros.variables_one and intros.hypotheses_one do."""
    before = parse_state("1 subgoal\n\n  ============================\n  G\n")
    after = parse_state("1 subgoal\n\n  " + "\n  ".join([f"{names} : Prop", *hyps])
                        + "\n  ============================\n  G\n")
    templates = load_templates(language=lang)
    sentence = rewrite_step(_step("intros.", before, after), templates).sentences[0]
    hyp_types = templates.join(sorted((h.split(" : ")[1] for h in hyps), key=len))
    names = templates.join(names.split(", "))
    assert sentence == variables[lang].format(names) + hypotheses[lang].format(hyp_types)


# each connective -> the notation of Coq's Utf8_core for it, spelled apart from the rewriter's table
_UTF8_CORE = {"forall": "\u2200", "exists": "\u2203", "->": "\u2192", "<->": "\u2194",
              "/\\": "\u2227", "\\/": "\u2228", "~": "\u00ac", "<>": "\u2260"}
_ASCII_CONNECTIVE = re.compile(r"<->|->|/\\|\\/|<>|~|(?<![\w'])(?:forall|exists)(?![\w'])")


def _in_utf8(text):
    return _ASCII_CONNECTIVE.sub(lambda m: _UTF8_CORE[m.group()], text)


def _logical(inner):
    return st.one_of(st.builds("{} {} {}".format, inner, st.sampled_from(["->", "<->", "/\\", "\\/", "<>"]), inner),
                     inner.map("~ {}".format), inner.map("({})".format),
                     st.builds("{} {}, {}".format, st.sampled_from(["forall", "exists"]),
                               st.sampled_from(["x", "x : A"]), inner))


_logical_types = st.recursive(st.sampled_from(["P", "Q", "R x", "x = y", "nat * nat", "forall_x", "exists'"]),
                              _logical, max_leaves=6)


@given(_logical_types, st.sampled_from(["en", "fr"]))
def test_a_type_in_utf8_notation_reads_as_in_ascii(text, lang):
    """A hypothesis whose connectives are spelled as Coq prints them after `Require
    Import Utf8` gives, when introduced and applied, the sentences of its ASCII
    spelling with the same spelling change, and the same diagnostics."""
    def rewritten(hyp_type):
        goal, ctx = parse_state(state(["P, Q : Prop"], [f"({hyp_type}) -> Q"])), ["P, Q : Prop", f"H : {hyp_type}"]
        introduced, applied = parse_state(state(ctx, ["Q"])), parse_state(state(ctx, ["P"]))
        return [rewrite_step(step, TEMPLATES[lang])
                for step in (_step("intros H.", goal, introduced), _step("apply H.", introduced, applied))]
    assert rewritten(_in_utf8(text)) == [
        (tuple(map(_in_utf8, sentences)), tuple(d._replace(message=_in_utf8(d.message)) for d in diagnostics))
        for sentences, diagnostics in rewritten(text)]


# --- render ---

def test_latex_escape_covers_specials():
    assert latex_escape("a_b%c&d#e$f{g}~h^i\\j") == (
        r"a\_b\%c\&d\#e\$f\{g\}\textasciitilde{}h\textasciicircum{}i\textbackslash{}j")


@given(st.lists(st.sampled_from(sorted(_LATEX_SPECIALS) + ["a", " ", "é", "textbackslash", "\\{"])).map("".join))
def test_latex_escape_is_the_table_applied_per_character(text):
    assert latex_escape(text) == "".join(_LATEX_SPECIALS.get(ch, ch) for ch in text)


_TEMPLATE_PIECES = ["{goal}", "{{goal}}", "{list}", "{hyp}", "{goal", "goal}", "{", "}", "{}", "{go al}", " ",
                    "é"]
_VALUE_PIECES = ["{goal}", "{list}", "{", "}", "x", "\\1", "\\g<0>", "é"]


@given(st.lists(st.sampled_from(_TEMPLATE_PIECES)).map("".join), st.sampled_from(sorted(ALLOWED_PLACEHOLDERS)),
       st.lists(st.sampled_from(_VALUE_PIECES)).map("".join))
def test_fill_with_one_value_is_the_placeholder_pattern(template, name, value):
    values = {name: value}
    expected = _PLACEHOLDER.sub(lambda m: values.get(m.group(1), m.group(0)), template)
    assert TemplateSet("en", {"k": template}).fill("k", **values) == expected


@given(st.lists(st.sampled_from(_TEMPLATE_PIECES)).map("".join))
def test_fill_without_values_is_the_placeholder_pattern(template):
    expected = _PLACEHOLDER.sub(lambda m: m.group(0), template)
    assert TemplateSet("en", {"k": template}).fill("k") == expected


def _render_pair(directory, mode, lemma, initial, steps):
    """The lines and the warnings of a proof written as a replay pair, rendered in `mode`."""
    script_file, trace_file = write_replay_pair(directory, lemma, initial, steps)
    # a step's tactic is as the prover ran it: the script's `auto` runs as `info_auto`
    script, diags = parse_script(script_file.read_text(encoding="utf-8").replace("info_auto.", "auto."))
    lines, warnings = generate(script, run_replay(script, str(trace_file)), EN, mode)
    return lines, [d.code for d in diags + warnings]


# a proof by `<tactic> H`, then `assumption`: its lemma, and the states before and after `<tactic> H`
_BY_H = {
    "apply": ("Lemma t : forall P Q : Prop, (P -> Q) -> P -> Q.",
              state(["P, Q : Prop", "H : P -> Q", "HP : P"], ["Q"]),
              state(["P, Q : Prop", "H : P -> Q", "HP : P"], ["P"])),
    "inversion": ("Lemma t : forall P Q : Prop, P /\\ Q -> P.", state(["P, Q : Prop", "H : P /\\ Q"], ["P"]),
                  state(["P, Q : Prop", "H : P /\\ Q", "H0 : P", "H1 : Q"], ["P"])),
}


@pytest.mark.parametrize("mode", list(OutputMode))
@pytest.mark.parametrize("comment", ["(* by H *)", "(* by (* nested *) H *)"], ids=["plain", "nested"])
@pytest.mark.parametrize("tactic", ["apply", "inversion"])
def test_a_comment_inside_a_tactic_is_a_blank(tmp_path, mode, comment, tactic):
    """`apply (* c *) H` explains what `apply H` explains, and so does `inversion`."""
    lemma, before, after = _BY_H[tactic]
    rendered = [_render_pair(tmp_path, mode, lemma, before, [(text, after), ("assumption", DONE)])
                for text in (f"{tactic} H", f"{tactic} {comment} H")]
    (bare, bare_codes), (commented, codes) = rendered
    assert [line.replace(f"{tactic} {comment} H.", f"{tactic} H.") for line in commented] == bare
    assert (bare_codes, codes) == ([], []) and _OMITTED not in commented


@pytest.mark.parametrize("mode", list(OutputMode))
def test_branching_tactic_without_a_rule_renders_as_split_does(tmp_path, mode):
    """`constructor`, which has no row, splits the goal as `split`, whose rule is
    silent, does: no sentence, and not plain.omitted; only the warning differs."""
    lemma, initial, steps = conjunction_chain(2)
    split_lines, split_codes = _render_pair(tmp_path, mode, lemma, initial, steps)
    steps[1] = ("constructor", steps[1][1])
    lines, codes = _render_pair(tmp_path, mode, lemma, initial, steps)
    assert lines == [line.replace("split.", "constructor.") for line in split_lines]
    assert (codes, split_codes) == (["UNSUPPORTED_TACTIC"], [])
    assert EN.fill("plain.omitted") not in output_text(lines)


def test_apply_of_a_hypothesis_without_an_arrow_is_silent(tmp_path):
    ctx = ["Q : Prop", "H : Q"]
    lines, codes = _render_pair(tmp_path, OutputMode.ANNOTATED, "Lemma t : forall Q : Prop, Q -> Q.",
                                state([], ["forall Q : Prop, Q -> Q"]),
                                [("intros", state(ctx, ["Q"])), ("apply H", DONE)])
    assert (lines[3:], codes) == (["apply H.", "Qed."], [])


@pytest.mark.parametrize("mode", [OutputMode.ANNOTATED, OutputMode.PLAIN])
def test_apply_of_a_quantified_hypothesis_is_silent(tmp_path, mode):
    """The "->" of `forall x : A, P x -> Q x` is inside the binder's scope:
    no antecedent of H is true on its own, so no sentence says one is."""
    ctx = ["A : Type", "P, Q : A -> Prop", "a : A", "H : forall x : A, P x -> Q x", "HP : P a"]
    statement = "forall (A : Type) (P Q : A -> Prop) (a : A), (forall x : A, P x -> Q x) -> P a -> Q a"
    steps = [("intros A P Q a H HP", state(ctx, ["Q a"])), ("apply H", state(ctx, ["P a"])), ("assumption", DONE)]
    lines, codes = _render_pair(tmp_path, mode, f"Lemma t : {statement}.", state([], [statement]), steps)
    silent, _ = _render_pair(tmp_path, mode, f"Lemma t : {statement}.", state([], [statement]),
                             [steps[0], ("apply I", steps[1][1]), steps[2]])
    assert (lines, codes) == ([line.replace("apply I.", "apply H.") for line in silent], [])


def test_plain_proof_of_silent_tactics_prints_the_omission_marker(tmp_path):
    lines, codes = _render_pair(tmp_path, OutputMode.PLAIN, "Lemma t : True.", state([], ["True"]),
                                [("apply I", DONE)])
    assert (output_text(lines), codes) == ("(details omitted)\n", [])


_OMITTED = EN.fill("plain.omitted")
_ASSUMPTION = EN.fill("assumption.default")


@pytest.mark.parametrize("mode", [OutputMode.PLAIN, OutputMode.LATEX])
@pytest.mark.parametrize("lemma, initial, steps, expected, codes", [
    ("Lemma t : True.", state([], ["True"]), [("apply I", DONE)], [_OMITTED], []),
    ("Lemma t : P \\/ Q.", state(["P, Q : Prop", "HP : P"], ["P \\/ Q"]),
     [("apply or_introl", state(["P, Q : Prop", "HP : P"], ["P"])), ("assumption", DONE)],
     [_OMITTED, _ASSUMPTION], []),
    ("Lemma t : P.", state(["HP : P"], ["P"]), [("intros", state(["HP : P"], ["P"])), ("assumption", DONE)],
     [_OMITTED, _ASSUMPTION], []),
    ("Lemma t : True.", state([], ["True"]), [("info_auto", "(* info auto: *)\n\n" + DONE)], [_OMITTED], []),
    ("Lemma t : True.", state(["H : False"], ["True"]), [("inversion H", DONE)], [_OMITTED], []),
    ("Lemma t : 1 + 1 = 2.", state([], ["1 + 1 = 2"]), [("ring", DONE)], [_OMITTED], ["UNSUPPORTED_TACTIC"]),
], ids=["apply-closes", "apply-global-leaves-one-goal", "intros-adds-nothing", "auto-empty-report",
        "inversion-of-false", "unsupported-closes"])
def test_a_step_that_does_not_branch_prints_its_sentence_or_the_marker(tmp_path, mode, lemma, initial, steps,
                                                                       expected, codes):
    lines, warned = _render_pair(tmp_path, mode, lemma, initial, steps)
    if mode is OutputMode.LATEX:
        expected = [r"\begin{proof}", *map(latex_escape, expected), r"\end{proof}"]
    assert (lines, warned) == (expected, codes)


@pytest.mark.parametrize("mode", list(OutputMode))
def test_a_branching_apply_renders_as_split_does(tmp_path, mode):
    """`apply conj` says nothing and branches, so, like `split` and
    `constructor`, it prints no plain.omitted."""
    lemma, initial, steps = conjunction_chain(2)
    split_lines, _ = _render_pair(tmp_path, mode, lemma, initial, steps)
    steps[1] = ("apply conj", steps[1][1])
    lines, codes = _render_pair(tmp_path, mode, lemma, initial, steps)
    assert (lines, codes) == ([line.replace("split.", "apply conj.") for line in split_lines], [])
    assert _OMITTED not in output_text(lines)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([conjunction_chain, narrow_chain]), st.integers(1, 40))
def test_plain_lines_are_the_steps_that_do_not_branch_and_the_case_labels(tmp_path_factory, chain, n):
    lemma, initial, steps = chain(n)
    lines, _ = _render_pair(tmp_path_factory.mktemp("chain"), OutputMode.PLAIN, lemma, initial, steps)
    goals = [len(parse_state(raw).goals) for raw in [initial] + [raw for _, raw in steps]]
    deltas = [after - before for before, after in zip(goals, goals[1:])]
    assert len(lines) == sum(d <= 0 for d in deltas) + sum(d + 1 for d in deltas if d > 0)


def test_empty_proof_render():
    tree = ProofNode()
    out = render(tree, [], OutputMode.ANNOTATED, "Lemma t :\n  True.", EN)
    assert out == ["Lemma t : True.", "Proof.", "Qed."]


def test_round_trip_of_a_goal_holding_a_comment_end_in_a_string(tmp_path):
    """Annotated output prints the goal inside a comment, and the `"*)"` it holds
    is a string there, as in Coq: it ends no comment on the way back."""
    statement = '"*)" = "*)" -> "*)" = "*)"'
    steps = [("intros H", state(['H : "*)" = "*)"'], ['"*)" = "*)"'])), ("assumption", DONE)]
    lines, codes = _render_pair(tmp_path, OutputMode.ANNOTATED, f"Lemma t : {statement}.",
                                state([], [statement]), steps)
    assert codes == [] and '*)" is true.' in lines[2]
    assert roundtrip_tactics(output_text(lines)) == ["intros H", "assumption"]
