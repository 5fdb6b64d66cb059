"""Tests for the inflection rules, the irregular table and analysis."""

import copy
import io
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoqg import morphology
from morphoqg.checks import round_trip_failures
from morphoqg.codec import build_vocabs, encode_example
from morphoqg.errors import DuplicateKeyError, ParseError, UnknownRuleError
from morphoqg.morphology import (
    ALL_TYPES,
    POS_TAG_TO_TYPE,
    TYPE_TO_POS_TAG,
    IrregularTable,
    Morphology,
    TransformationType,
    default_morphology,
    load_irregular_table,
    load_regular_lexicon,
)
from morphoqg.toydata import make_corpus


@pytest.fixture(scope="module")
def morph():
    return default_morphology()


@pytest.fixture(scope="module")
def lexicon():
    return load_regular_lexicon()


class TestTransformationType:
    def test_nine_types_in_canonical_order(self):
        tags = [t.tag for t in ALL_TYPES]
        assert tags == ["##ing", "##vs", "##ed", "##edp", "##ns",
                        "##jer", "##jest", "##ver", "##vest"]
        assert [t.index for t in ALL_TYPES] == list(range(9))

    def test_tags_cannot_collide_with_words(self):
        """The ## prefix keeps tags disjoint from alphabetic tokens."""
        for t in ALL_TYPES:
            assert t.tag.startswith("##")
            assert not t.tag.isalpha()

    def test_from_tag(self):
        assert TransformationType.from_tag("##ed") is TransformationType.ED
        with pytest.raises(ValueError):
            TransformationType.from_tag("##nope")

    def test_pos_tag_dispatch_is_a_bijection_on_inflected_tags(self):
        assert set(POS_TAG_TO_TYPE.values()) == set(ALL_TYPES)
        assert {POS_TAG_TO_TYPE[v]: v for v in POS_TAG_TO_TYPE} == TYPE_TO_POS_TAG


class TestIrregularTableParsing:
    def test_parses_rows_and_skips_comments(self):
        text = "# comment\n\nwent\tgo\t##ed\nchildren\tchild\t##ns\n"
        table = load_irregular_table(io.StringIO(text))
        assert len(table) == 2
        went = Morphology(table).analyze("went", TYPE_TO_POS_TAG[TransformationType.ED])
        assert (went.root, went.transform) == ("go", TransformationType.ED)
        assert table.inflected_for("child", TransformationType.NS) == "children"

    def test_wrong_column_count_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            load_irregular_table(io.StringIO("went\tgo\t##ed\nbad row\n"))
        assert exc.value.line == 2

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError):
            load_irregular_table(io.StringIO("went\tgo\t##past\n"))

    def test_identity_rows_rejected(self):
        """A row mapping a word to itself would break analysis fallback."""
        with pytest.raises(ParseError):
            load_irregular_table(io.StringIO("cut\tcut\t##ed\n"))

    def test_conflicting_analysis_rows_rejected(self):
        text = "went\tgo\t##ed\nwent\twalk\t##ed\n"
        with pytest.raises(DuplicateKeyError):
            load_irregular_table(io.StringIO(text))

    def test_conflicting_generation_rows_rejected(self):
        text = "went\tgo\t##ed\ngoed\tgo\t##ed\n"
        with pytest.raises(DuplicateKeyError):
            load_irregular_table(io.StringIO(text))

    def test_same_surface_under_two_types_is_fine(self):
        """brought serves as both past and participle of bring."""
        text = "brought\tbring\t##ed\nbrought\tbring\t##edp\n"
        table = load_irregular_table(io.StringIO(text))
        morph = Morphology(table)
        for t in (TransformationType.ED, TransformationType.EDP):
            brought = morph.analyze("brought", TYPE_TO_POS_TAG[t])
            assert (brought.root, brought.transform) == ("bring", t)

    def test_bundled_table_loads(self, morph):
        assert len(morph.table) >= 400
        for e in morph.table:
            assert e.inflected != e.root


class TestApplyTransform:
    @pytest.mark.parametrize("root,tag,expected", [
        ("go", "##ed", "went"),
        ("go", "##edp", "gone"),
        ("be", "##ed", "was"),
        ("have", "##vs", "has"),
        ("child", "##ns", "children"),
        ("good", "##jer", "better"),
        ("well", "##ver", "better"),
        ("die", "##ing", "dying"),
    ])
    def test_irregular_entries_take_precedence(self, morph, root, tag, expected):
        assert morph.apply_transform(root, TransformationType.from_tag(tag)) == expected

    @pytest.mark.parametrize("root,tag,expected", [
        ("walk", "##ed", "walked"),
        ("hope", "##ed", "hoped"),
        ("try", "##ed", "tried"),
        ("play", "##ed", "played"),
        ("plan", "##ed", "planned"),
        ("commit", "##ed", "committed"),
        ("free", "##ed", "freed"),
        ("make", "##ing", "making"),
        ("run", "##ing", "running"),
        ("see", "##ing", "seeing"),
        ("tie", "##ing", "tying"),
        ("dye", "##ing", "dyeing"),
        ("watch", "##vs", "watches"),
        ("go", "##vs", "goes"),
        ("try", "##vs", "tries"),
        ("say", "##vs", "says"),
        ("city", "##ns", "cities"),
        ("wolf", "##ns", "wolves"),
        ("roof", "##ns", "roofs"),
        ("hero", "##ns", "heroes"),
        ("photo", "##ns", "photos"),
        ("quit", "##ing", "quitting"),
        ("big", "##jer", "bigger"),
        ("happy", "##jest", "happiest"),
        ("large", "##jer", "larger"),
        ("early", "##ver", "earlier"),
        ("fast", "##vest", "fastest"),
    ])
    def test_orthographic_rules(self, morph, root, tag, expected):
        assert morph.apply_transform(root, TransformationType.from_tag(tag)) == expected

    @pytest.mark.parametrize("bad", ["", "Dog", "DOG", "st. john", "well-known", "3rd"])
    def test_rejects_non_lowercase_words(self, morph, bad):
        with pytest.raises(UnknownRuleError):
            morph.apply_transform(bad, TransformationType.ED)

    def test_matches_curated_lexicon_exactly(self, morph, lexicon):
        """Every hand-curated triple must be reproduced verbatim."""
        bad = [(r, t.tag, i, morph.apply_transform(r, t))
               for r, t, i in lexicon if morph.apply_transform(r, t) != i]
        assert bad == []


class TestAnalyze:
    @pytest.mark.parametrize("word,pos,root,tag", [
        ("went", "VBD", "go", "##ed"),
        ("gone", "VBN", "go", "##edp"),
        ("goes", "VBZ", "go", "##vs"),
        ("going", "VBG", "go", "##ing"),
        ("children", "NNS", "child", "##ns"),
        ("better", "JJR", "good", "##jer"),
        ("best", "JJS", "good", "##jest"),
        ("better", "RBR", "well", "##ver"),
        ("best", "RBS", "well", "##vest"),
    ])
    def test_pos_tag_selects_the_type(self, morph, word, pos, root, tag):
        a = morph.analyze(word, pos)
        assert (a.root, a.transform) == (root, TransformationType.from_tag(tag))

    @pytest.mark.parametrize("word,pos", [
        ("dog", "NN"), ("walk", "VB"), ("walk", "VBP"), ("quickly", "RB"),
        ("good", "JJ"), ("the", "DT"), ("in", "IN"), ("john", "NNP"),
    ])
    def test_uninflected_tags_keep_the_word(self, morph, word, pos):
        a = morph.analyze(word, pos)
        assert a.root == word
        assert a.transform is None

    @pytest.mark.parametrize("word,pos", [
        ("cut", "VBD"), ("put", "VBN"), ("read", "VBD"), ("data", "NNS"),
        ("were", "VBD"), ("sheep", "NNS"),
    ])
    def test_uninvertible_words_fall_back_gracefully(self, morph, word, pos):
        """Words the rules cannot strip come back unchanged, no error."""
        a = morph.analyze(word, pos)
        assert (a.root, a.transform) == (word, None)

    def test_non_alphabetic_tokens_pass_through(self, morph):
        for tok in ["3.5", "1927", "u.s.", "co-op", ","]:
            a = morph.analyze(tok, "NNS")
            assert (a.root, a.transform) == (tok, None)

    def test_input_is_case_insensitive(self, morph):
        assert morph.analyze("Went", "VBD").root == "go"
        assert morph.analyze("CHILDREN", "NNS").root == "child"

    def test_pos_resolves_surface_ambiguity(self, morph):
        """'leaves' splits differently as a noun and as a verb."""
        assert morph.analyze("leaves", "NNS").root == "leaf"
        assert morph.analyze("leaves", "VBZ").root == "leave"
        assert morph.analyze("lives", "NNS").root == "life"
        assert morph.analyze("lives", "VBZ").root == "live"

    def test_unseen_regular_words_still_analyze(self, morph):
        """Productive rules cover vocabulary far beyond the word lists."""
        assert morph.analyze("blorked", "VBD").root == "blork"
        assert morph.analyze("zabs", "NNS").root == "zab"


class TestRoundTrip:
    def test_lexicon_round_trip(self, morph, lexicon):
        bad = round_trip_failures(lexicon, morph)
        assert len(bad) / len(lexicon) <= 0.01, bad[:20]

    def test_irregular_round_trip_is_exact(self, morph):
        assert round_trip_failures([(e.root, e.type, e.inflected) for e in morph.table],
                                   morph) == []

    @given(word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=12),
           pos=st.sampled_from(sorted(POS_TAG_TO_TYPE)))
    @settings(max_examples=300, deadline=None)
    def test_analysis_is_always_consistent(self, word, pos):
        """Whatever root analysis picks must regenerate the surface form.

        This is the invariant the action codec relies on: a recovered
        (root, transform) pair can always be realized back verbatim.
        """
        morph = default_morphology()
        a = morph.analyze(word, pos)
        if a.transform is not None:
            assert morph.apply_transform(a.root, a.transform) == word

    @given(stem=st.text(alphabet=st.characters(categories=("L", "M", "N")), max_size=8),
           suffix=st.sampled_from(["", "s", "es", "ies", "ed", "d", "ing", "er", "est"]))
    @settings(max_examples=500, deadline=None)
    def test_any_unicode_word_analyzes_without_error(self, stem, suffix):
        """Over words of Unicode letters, marks and digits (``中文s``),
        under every POS tag: ``analyze`` never raises, and a
        transform it returns regenerates the lowercased word.  A stem
        without cased letters is not a root ``apply_transform`` takes, so
        such a word falls back to itself."""
        word = stem + suffix
        morph = default_morphology()
        for pos in sorted(POS_TAG_TO_TYPE) + ["NN", "VB"]:
            a = morph.analyze(word, pos)
            if a.transform is not None:
                assert morph.apply_transform(a.root, a.transform) == word.lower()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_applied_forms_reanalyze_consistently(self, data):
        morph = default_morphology()
        lexicon = load_regular_lexicon()
        root, t, _ = data.draw(st.sampled_from(lexicon))
        surface = morph.apply_transform(root, t)
        a = morph.analyze(surface, TYPE_TO_POS_TAG[t])
        assert a.transform is t
        assert morph.apply_transform(a.root, a.transform) == surface


# Mixed-case words, words with non-letters, and inflected surface forms,
# so that one word often analyzes differently under two tags.
_WORDS = st.one_of(
    st.text(alphabet="abcdeilnorstvyAEILNSTV-'.3", min_size=1, max_size=10),
    st.sampled_from(["leaves", "lives", "Leaves", "went", "WENT", "better", "best",
                     "running", "tried", "buses", "3.5", "co-op"]),
    st.sampled_from([inflected for _root, _t, inflected in load_regular_lexicon()]),
)
_TAGS = st.sampled_from(sorted(POS_TAG_TO_TYPE) + ["NN", "VB", "DT", "nns", ""])


class TestAnalyzeMemo:
    """``analyze`` memoises the rule search per instance, keyed by the
    exact (word, pos) arguments and bounded by ANALYZE_MEMO_SIZE."""

    @given(calls=st.lists(st.tuples(_WORDS, st.lists(_TAGS, min_size=1, max_size=4)),
                          min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_memoised_answers_equal_the_rule_search(self, calls):
        """Fails if the memo merges pairs, e.g. keyed on the word alone:
        ("leaves", "NNS") -> leaf would then answer ("leaves", "VBZ")."""
        morph, reference = Morphology(), Morphology()
        pairs = [(word, pos) for word, tags in calls for pos in tags]
        first = [morph.analyze(word, pos) for word, pos in pairs]
        again = [morph.analyze(word, pos) for word, pos in reversed(pairs)][::-1]
        want = [Morphology.analyze(reference, word, pos) for word, pos in pairs]
        assert first == want
        assert again == want

    def test_the_cap_bounds_the_memo(self, monkeypatch):
        """Fails if the memo ignores ANALYZE_MEMO_SIZE (grows past it)."""
        monkeypatch.setattr(morphology, "ANALYZE_MEMO_SIZE", 4)
        morph, reference = Morphology(), Morphology()
        words = ["leaves", "lives", "went", "better", "running", "tried", "buses", "dogs"]
        pairs = [(w, pos) for w in words for pos in ("NNS", "VBZ", "VBD", "JJR", "NN")]
        for round_ in range(2):
            for word, pos in pairs:
                got = morph.analyze(word, pos)
                assert got == Morphology.analyze(reference, word, pos), (round_, word, pos)
                assert morph.analyze.cache_info().currsize <= 4
        assert morph.analyze.cache_info().currsize == 4
        assert morph.analyze("leaves", "NNS").root == "leaf"
        assert morph.analyze("leaves", "VBZ").root == "leave"

    def test_codec_searches_each_distinct_pair_once(self, monkeypatch):
        """build_vocabs plus encode_example over a toy corpus run the rule
        search once per distinct (word, pos) pair they ask for.  Fails
        without the memo, as repeated pairs then search again."""
        searches = Counter()
        search = Morphology.analyze

        def counted(self, word, pos):
            searches[word, pos] += 1
            return search(self, word, pos)

        monkeypatch.setattr(Morphology, "analyze", counted)
        morph = Morphology()
        asked = []
        memoised = morph.analyze

        def asking(word, pos):
            asked.append((word, pos))
            return memoised(word, pos)

        morph.analyze = asking
        corpus = make_corpus(60, seed=1)
        vocab = build_vocabs(corpus, morph)
        for example in corpus:
            encode_example(example, vocab, morph)
        assert len(asked) > 2 * len(set(asked))
        assert searches == Counter(set(asked))

    def test_a_copy_gets_its_own_memo(self):
        """Fails if pickling or deepcopy carries the memo over, which would
        keep it bound to the original instance."""
        morph = Morphology()
        morph.analyze("leaves", "NNS")
        for twin in (pickle.loads(pickle.dumps(morph)), copy.deepcopy(morph)):
            assert twin.analyze.cache_info().currsize == 0
            assert twin.analyze("leaves", "VBZ").root == "leave"
            assert twin.analyze.__wrapped__.__self__ is twin
