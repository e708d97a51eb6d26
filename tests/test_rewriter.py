import pytest
from hypothesis import given, strategies as st

from coqatoo import CoqatooError, load_templates, parse_state, render, rewrite_step
from coqatoo.diff_engine import diff_states
from coqatoo.pipeline import annotate_steps, generate
from coqatoo.rewriter import (_LATEX_SPECIALS, _PLACEHOLDER, ALLOWED_PLACEHOLDERS, REQUIRED_KEYS, RULES,
                              AnnotationKind, OutputMode, TemplateSet, latex_escape, split_implication)
from coqatoo.script_parser import ItemKind, ScriptItem
from coqatoo.tree_builder import AnalyzedStep, ProofNode

from helpers import (GOLDEN_DIR, LISTING_1, LISTING_2, analyzed_steps, load_trace,
                     normalize_rendering, output_text, roundtrip_tactics, script_path, tactic_commands)
from coqatoo import tokenize_script

EN = load_templates()


def _tactic(text, seq=0):
    return ScriptItem(ItemKind.TACTIC, text, (0, len(text)), seq)


def _step(text, before, after):
    return AnalyzedStep(_tactic(text), before, after, diff_states(before, after))


# --- load_templates ---

def test_english_reference_keys():
    assert EN.entries["intros.variables"] == ("Assume that {list} are arbitrary objects of type "
                                              "{type}. Let us show that {goal} is true.")
    assert EN.entries["assumption.default"] == "True, because it is one of our assumptions."


def test_french_is_complete():
    fr = load_templates(language="fr")
    assert set(fr.entries) == set(EN.entries)


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


def test_missing_language_file(tmp_path):
    with pytest.raises(CoqatooError) as exc:
        load_templates(str(tmp_path), "de")
    assert exc.value.diagnostic.code == "TEMPLATE_MISSING_KEY"


# --- split_implication ---

@pytest.mark.parametrize("expr,parts", [
    ("P /\\ Q -> R", ["P /\\ Q", "R"]),
    ("P -> Q -> R", ["P", "Q", "R"]),
    ("(A -> B) -> C", ["(A -> B)", "C"]),
    ("P", ["P"]),
])
def test_split_implication(expr, parts):
    assert split_implication(expr) == parts


# --- rewrite_step rules ---

def test_intros_variables_sentence():
    ann = rewrite_step(_step("intros.", parse_state(LISTING_1), parse_state(LISTING_2)), EN)
    assert " ".join(ann.sentences) == (
        "Assume that P, Q and R are arbitrary objects of type Prop. "
        "Let us show that (P /\\ Q -> R) <-> (P -> Q -> R) is true.")


def test_intros_hypotheses_sentence():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[2]  # intros H HP HQ
    ann = rewrite_step(step, EN)
    assert " ".join(ann.sentences) == (
        "Suppose that P, Q and P /\\ Q -> R are true. Let us show that R is true.")


def test_apply_local_hypothesis_sentence():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[3]  # apply H with H : P /\ Q -> R
    ann = rewrite_step(step, EN)
    assert " ".join(ann.sentences) == (
        "By our hypothesis P /\\ Q -> R, we know that R is true if P /\\ Q is true.")


def test_apply_multi_antecedent_sentence():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[9]  # apply H with H : P -> Q -> R
    ann = rewrite_step(step, EN)
    assert " ".join(ann.sentences) == (
        "By our hypothesis P -> Q -> R, we know that R is true if P and Q are true.")


def test_apply_global_constant_is_silent():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[4]  # apply conj
    assert rewrite_step(step, EN).sentences == ()


def test_assumption_sentence():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[5]
    ann = rewrite_step(step, EN)
    assert ann.sentences == ("True, because it is one of our assumptions.",)


def test_inversion_sentence():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[8]  # inversion HPQ
    ann = rewrite_step(step, EN)
    assert " ".join(ann.sentences) == "By inversion on P /\\ Q, we know that P, Q are also true."


def test_split_is_silent():
    steps = analyzed_steps("conj_imp_equiv")
    step = steps[1]
    assert rewrite_step(step, EN).sentences == ()


def test_info_auto_expands_reported_tactics():
    steps = analyzed_steps("modus_ponens")
    step = steps[2]
    ann = rewrite_step(step, EN)
    assert " ".join(ann.sentences) == (
        "By our hypothesis P -> Q, we know that Q is true if P is true. "
        "True, because it is one of our assumptions.")


@pytest.mark.parametrize("rest", [
    "Proof completed.\n",
    "1 focused subgoal\n\n  P, Q : Prop\n  HP : P\n  H : P -> Q\n  ============================\n  Q\n",
], ids=["proof_completed", "focused_subgoal"])
def test_auto_trace_ends_where_a_state_starts(rest):
    step = analyzed_steps("modus_ponens")[2]
    raw = "(* info auto: *)\nsimple apply H.\nassumption.\n" + rest
    ann = rewrite_step(step._replace(after=step.after._replace(raw=raw)), EN)
    assert ann == rewrite_step(step, EN)
    assert ann.sentences and ann.diagnostics == ()


def test_info_auto_reported_by_auto_explains_nothing():
    step = analyzed_steps("modus_ponens")[2]
    raw = "(* info auto: *)\ninfo_auto.\nassumption.\n\nNo more subgoals.\n"
    ann = rewrite_step(step._replace(after=step.after._replace(raw=raw)), EN)
    assert ann.sentences == ("True, because it is one of our assumptions.",)
    assert ann.kind is AnnotationKind.EXPLAIN and ann.diagnostics == ()


def test_auto_reported_by_auto_explains_nothing():
    step = analyzed_steps("modus_ponens")[2]
    assert (step.item.text, step.item.prover_text) == ("auto.", "info_auto.")
    raw = "(* info auto: *)\nauto.\nassumption.\n\nNo more subgoals.\n"
    ann = rewrite_step(step._replace(after=step.after._replace(raw=raw)), EN)
    assert ann.sentences == ("True, because it is one of our assumptions.",)
    assert ann.kind is AnnotationKind.EXPLAIN and ann.diagnostics == ()


def test_unsupported_tactic_marked_omitted():
    ann = rewrite_step(_step("ring.", parse_state(LISTING_2), parse_state(LISTING_2)), EN)
    assert ann.sentences == ()
    assert ann.kind is AnnotationKind.OMITTED


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


# --- render ---

def _generate(name, mode, lang="en"):
    script, trace = load_trace(name)
    lines, _ = generate(script, trace, load_templates(language=lang), mode)
    return output_text(lines)


def test_annotated_golden_output():
    out = _generate("conj_imp_equiv", OutputMode.ANNOTATED)
    golden = (GOLDEN_DIR / "conj_imp_equiv.annotated.en.txt").read_text()
    assert normalize_rendering(out) == normalize_rendering(golden)


def test_plain_mode_first_line():
    out = _generate("conj_imp_equiv", OutputMode.PLAIN)
    assert out.splitlines()[0] == ("Assume that P, Q and R are arbitrary objects of type Prop. "
                                   "Let us show that (P /\\ Q -> R) <-> (P -> Q -> R) is true.")
    assert "intros" not in out
    assert "Case P:" in out


def test_latex_mode_escapes_and_wraps():
    out = _generate("conj_imp_equiv", OutputMode.LATEX)
    assert out.startswith("\\begin{proof}\n")
    assert out.rstrip().endswith("\\end{proof}")
    assert "/\\textbackslash{}" in out
    assert "\\item" in out


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


def test_empty_proof_render():
    tree = ProofNode(depth=0)
    out = render(tree, {}, OutputMode.ANNOTATED, "Lemma t :\n  True.", EN)
    assert out == ["Lemma t : True.", "Proof.", "Qed."]


def test_french_rendering_completes(corpus_name):
    out = _generate(corpus_name, OutputMode.ANNOTATED, lang="fr")
    assert "Montrons" in out or "Vrai" in out


def test_round_trip_tactic_order(corpus_name):
    out = _generate(corpus_name, OutputMode.ANNOTATED)
    source_tactics = tactic_commands(tokenize_script(script_path(corpus_name).read_text()))
    assert roundtrip_tactics(out) == source_tactics


def test_verbosity_bound(corpus_name):
    annotations = annotate_steps(analyzed_steps(corpus_name), EN)
    for ann in annotations.values():
        assert len(ann.sentences) <= 2


def test_rendering_is_deterministic():
    assert _generate("conj_imp_equiv", OutputMode.ANNOTATED) == _generate(
        "conj_imp_equiv", OutputMode.ANNOTATED)
