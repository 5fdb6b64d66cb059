"""Rule-based English inflection and analysis.

Nine transformation types cover verb tense/participle/3rd-singular/gerund,
noun plurals and adjective/adverb comparison.  Generation applies an
irregular lookup table first and falls back to orthographic rules
(consonant doubling, silent-e drop, y->i, -es after sibilants).  Analysis
inverts the rules by generating candidate roots for a stripped suffix and
keeping the first candidate that regenerates the observed surface form,
so apply/analyze stay mutually consistent by construction.

The candidate ordering encodes the usual orthographic ambiguities
(``batting`` -> bat but ``falling`` -> fall, ``danced`` -> dance but
``walked`` -> walk) with small word lists for the genuinely lexical cases.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterator, Optional, TextIO, Union

from .errors import DuplicateKeyError, ParseError, UnknownRuleError, read_text


class TransformationType(Enum):
    """The nine inflection tags.

    Tag strings carry a ``##`` prefix so they can never collide with an
    English surface word.  Declaration order is the canonical id order
    used everywhere an integer id is needed.
    """

    ING = "##ing"    # verb -> present participle
    VS = "##vs"      # verb -> singular present
    ED = "##ed"      # verb -> past tense
    EDP = "##edp"    # verb -> past participle
    NS = "##ns"      # noun -> plural
    JER = "##jer"    # adjective -> comparative
    JEST = "##jest"  # adjective -> superlative
    VER = "##ver"    # adverb -> comparative
    VEST = "##vest"  # adverb -> superlative

    @property
    def tag(self) -> str:
        return self.value

    @property
    def index(self) -> int:
        return _TYPE_INDEX[self]

    @classmethod
    def from_tag(cls, tag: str) -> "TransformationType":
        try:
            return cls(tag)
        except ValueError:
            raise ValueError(f"unknown transformation tag: {tag!r}") from None


ALL_TYPES = tuple(TransformationType)
TRANS_TAGS = tuple(t.value for t in ALL_TYPES)
_TYPE_INDEX = {t: i for i, t in enumerate(ALL_TYPES)}

# Penn-Treebank tags that select a transformation type during analysis;
# every other tag means "already in root form".
POS_TAG_TO_TYPE = {
    "VBD": TransformationType.ED,
    "VBN": TransformationType.EDP,
    "VBZ": TransformationType.VS,
    "VBG": TransformationType.ING,
    "NNS": TransformationType.NS,
    "JJR": TransformationType.JER,
    "JJS": TransformationType.JEST,
    "RBR": TransformationType.VER,
    "RBS": TransformationType.VEST,
}


@dataclass(frozen=True)
class IrregularEntry:
    inflected: str
    root: str
    type: TransformationType


@dataclass(frozen=True, slots=True)
class MorphAnalysis:
    root: str
    transform: Optional[TransformationType]


VOWELS = "aeiouy"


def _is_vowel(ch: str) -> bool:
    return ch in VOWELS


def _vowel_groups(word: str) -> int:
    n = 0
    prev = False
    for ch in word:
        v = _is_vowel(ch)
        if v and not prev:
            n += 1
        prev = v
    return n


# Multi-syllable roots whose final consonant doubles before a
# vowel-initial suffix (stress on the last syllable).
DOUBLING_ROOTS = frozenset("""
abet acquit admit allot begin commit compel concur confer control debug
defer deter dispel emit equip excel expel forbid forget format handicap
incur infer inter kidnap occur offset omit outfit outwit overlap patrol
permit prefer program propel rebut recap recur refer regret remit repel
rerun reset submit transfer transmit unwrap upset
""".split())

# Roots that legitimately end in a doubled consonant outside the
# ll/ss/ff/zz families, so analysis must not undouble them.
KEEP_DOUBLE_ROOTS = frozenset({"add", "ebb", "egg", "err", "inn", "odd", "purr", "watt"})

_KEEP_DOUBLE_ENDINGS = ("ll", "ss", "ff", "zz")

# Nouns taking -ves in the plural; everything else keeps the f (roofs).
F_TO_VES = {
    "calf": "calves", "elf": "elves", "half": "halves", "hoof": "hooves",
    "knife": "knives", "leaf": "leaves", "life": "lives", "loaf": "loaves",
    "scarf": "scarves", "self": "selves", "sheaf": "sheaves",
    "shelf": "shelves", "thief": "thieves", "wharf": "wharves",
    "wife": "wives", "wolf": "wolves",
}
_VES_TO_F = {v: k for k, v in F_TO_VES.items()}

# Consonant+o nouns that pluralize with a bare -s (default is -es).
O_PLUS_S_NOUNS = frozenset("""
albino auto avocado bamboo burrito casino commando demo disco dynamo ego
euro halo kilo logo macro maestro memo metro micro photo piano pro silo
solo soprano taco tango tempo torso turbo typo zero
""".split())

# Roots whose e-restored form analysis should prefer although the
# orthographic heuristics point the other way.
E_RESTORE_ROOTS = frozenset("""
ache adhere adore arrange avenge bathe binge breathe cache cajole
challenge change clothe complete compete condole connote console create
cringe delete deplete deplore denote devote dissuade escape estrange
evoke excite exchange exhale explode explore fringe hinge ignite ignore
impale implode impinge incite infringe inhale interfere invite invoke
loathe lunge persevere persuade plunge postpone procreate promote
provoke range recite recreate restore reunite revenge revere scavenge
scythe seethe singe soothe sponge strange teethe tinge unite welcome
writhe
""".split())

# Stems analysis should keep bare although the heuristics would restore e.
BARE_STEM_ROOTS = frozenset("""
bias canvas chorus debut focus smooth taxi
""".split())

# i-final roots whose -ied past must not be y-restored (skied -> ski).
BARE_I_ROOTS = frozenset("alibi ski taxi".split())

# Singular nouns ending in a lone sibilant s, so their -es plural strips
# back to the bare stem (buses -> bus, not buse).
ES_SINGULAR_NOUNS = frozenset("""
alias apparatus atlas bias bonus bus campus canvas census chorus circus
consensus crocus focus gas genius iris lens octopus plus pelvis platypus
sinus status surplus thesaurus virus walrus
""".split())

# Nouns ending in -ie whose plural must not be y-restored
# (movies -> movie, not movy).
IE_NOUNS = frozenset("""
auntie birdie bogie brownie budgie calorie collie cookie coterie eerie
genie goalie hippie hoodie junkie kiddie laddie lassie movie newbie
pixie prairie rookie selfie smoothie sortie sweetie townie veggie zombie
""".split())

# Vowel-final singulars ending in -oe (shoes -> shoe, not sho).
OE_NOUNS = frozenset("aloe canoe foe hoe mistletoe oboe shoe tiptoe toe woe".split())


def _wants_double(root: str) -> bool:
    if len(root) < 2:
        return False
    last = root[-1]
    if _is_vowel(last) or last in "wxy":
        return False
    if not _is_vowel(root[-2]):
        return False
    if len(root) >= 3 and _is_vowel(root[-3]):
        # A long vowel (rain, seem) blocks doubling, except for the "qu"
        # digraph which acts as a consonant (quit -> quitting).
        if not (root[-3] == "u" and len(root) >= 4 and root[-4] == "q"):
            return False
    if _vowel_groups(root) == 1:
        return True
    return root in DOUBLING_ROOTS


def _double(root: str) -> str:
    return root + root[-1]


def _inflect_ing(root: str) -> str:
    if root.endswith("ie"):
        return root[:-2] + "ying"
    if root.endswith("e") and len(root) >= 3 and not _is_vowel(root[-2]):
        return root[:-1] + "ing"
    if _wants_double(root):
        return _double(root) + "ing"
    return root + "ing"


def _inflect_ed(root: str) -> str:
    if root.endswith("e"):
        return root + "d"
    if root.endswith("y") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root[:-1] + "ied"
    if _wants_double(root):
        return _double(root) + "ed"
    return root + "ed"


def _sibilant_final(root: str) -> bool:
    return root.endswith(("s", "x", "z", "ch", "sh"))


def _inflect_vs(root: str) -> str:
    if root.endswith("y") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root[:-1] + "ies"
    if _sibilant_final(root):
        return root + "es"
    if root.endswith("o") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root + "es"
    return root + "s"


def _inflect_ns(root: str) -> str:
    if root in F_TO_VES:
        return F_TO_VES[root]
    if root.endswith("y") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root[:-1] + "ies"
    if _sibilant_final(root):
        return root + "es"
    if root.endswith("o") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root + "s" if root in O_PLUS_S_NOUNS else root + "es"
    return root + "s"


def _inflect_grade(root: str, suffix: str) -> str:
    if root.endswith("e"):
        return root + suffix[1:]
    if root.endswith("y") and len(root) >= 2 and not _is_vowel(root[-2]):
        return root[:-1] + "i" + suffix
    if _wants_double(root):
        return _double(root) + suffix
    return root + suffix


_RULES = {
    TransformationType.ING: _inflect_ing,
    TransformationType.VS: _inflect_vs,
    TransformationType.ED: _inflect_ed,
    TransformationType.EDP: _inflect_ed,
    TransformationType.NS: _inflect_ns,
    TransformationType.JER: lambda r: _inflect_grade(r, "er"),
    TransformationType.JEST: lambda r: _inflect_grade(r, "est"),
    TransformationType.VER: lambda r: _inflect_grade(r, "er"),
    TransformationType.VEST: lambda r: _inflect_grade(r, "est"),
}


# -- analysis candidate generation --------------------------------------

def _single_vowel_before_last(stem: str) -> bool:
    """Exactly one vowel letter before the final consonant, so the stem
    ends V+C rather than in a diphthong (decid yes, avoid no).  The "qu"
    digraph counts as a consonant (requir -> require)."""
    if len(stem) < 2 or not _is_vowel(stem[-2]):
        return False
    if len(stem) < 3 or not _is_vowel(stem[-3]):
        return True
    return stem[-3] == "u" and len(stem) >= 4 and stem[-4] == "q"


def _prefer_e(stem: str) -> bool:
    """Whether the e-restored root should be tried before the bare stem.

    Decision list over the final consonant and the vowel before it,
    tuned on the bundled lexicon; genuinely lexical cases go through
    E_RESTORE_ROOTS / BARE_STEM_ROOTS instead.
    """
    if stem + "e" in E_RESTORE_ROOTS:
        return True
    if stem in BARE_STEM_ROOTS:
        return False
    if len(stem) < 2:
        return False
    last, prev = stem[-1], stem[-2]
    if last in "cvzu":
        return True                      # danc, believ, amaz, continu
    if prev == "u" and not _is_vowel(last) and last not in "wxy" \
            and (len(stem) < 3 or not _is_vowel(stem[-3])):
        return True                      # includ, consum, secur; proud stays bare
    if last == "g":
        if _is_vowel(prev):
            return True                  # engag, manag
        if prev in "dlr":
            return True                  # judg, indulg, larg
        return False                     # belong, bang (nge cases via list)
    if last == "s":
        return True                      # sens, rais, promis; focus is listed bare
    if stem.endswith("th"):
        return True                      # breath(e), cloth(e); smooth is listed bare
    if last == "l" and not _is_vowel(prev) and prev not in "rw":
        return True                      # simpl, gentl, cycl; curl/howl stay bare
    if not (_vowel_groups(stem) > 1 and _single_vowel_before_last(stem)):
        return False
    if last == "r":
        return prev in "ia"              # admir, compar; offer/monitor stay bare
    if last == "t":
        return prev == "a"               # creat, locat; visit/budget stay bare
    if last == "d":
        return prev in "ia"              # persuad, decid; avoid guarded above
    if last == "n":
        return prev == "i"               # determin, imagin; reason/happen stay bare
    if last == "l":
        return prev == "i"               # compil, reconcil; travel/signal stay bare
    if last == "b":
        return prev == "i"               # describ, prescrib
    if last == "k":
        return prev == "o"               # evok, invok
    return False


def _doubling_candidates(stem: str) -> list:
    """Root candidates for a stem possibly left doubled by inflection."""
    if len(stem) >= 3 and stem[-1] == stem[-2] and not _is_vowel(stem[-1]):
        undoubled = stem[:-1]
        if undoubled in DOUBLING_ROOTS:
            return [undoubled, stem]
        if stem[-2:] in _KEEP_DOUBLE_ENDINGS or stem in KEEP_DOUBLE_ROOTS:
            return [stem, undoubled]
        return [undoubled, stem]
    return [stem]


def _ordered_with_e(stem: str) -> list:
    doubled = _doubling_candidates(stem)
    if len(doubled) > 1:
        return doubled
    e_restored = stem + "e"
    if _prefer_e(stem):
        return [e_restored, stem]
    return [stem, e_restored]


def _candidates_ing(word: str) -> list:
    if not word.endswith("ing") or len(word) <= 4:
        return []
    stem = word[:-3]
    cands = _ordered_with_e(stem)
    if stem.endswith("y"):
        cands.append(stem[:-1] + "ie")
    return cands


def _candidates_ed(word: str) -> list:
    if not word.endswith("ed") or len(word) <= 3:
        return []
    if word.endswith("ied"):
        core = word[:-3]
        if word[:-2] in BARE_I_ROOTS:
            return [word[:-2], core + "y"]   # skied -> ski
        if len(core) <= 1:
            return [word[:-1]]           # died -> die
        return [core + "y", word[:-1]]   # tried -> try
    return _ordered_with_e(word[:-2])


def _candidates_s(word: str, noun: bool) -> list:
    if not word.endswith("s") or len(word) <= 2 or word.endswith("ss"):
        return []
    cands = []
    if word.endswith("ies"):
        core = word[:-3]
        if word[:-1] in IE_NOUNS:
            cands = [word[:-1], core + "y"]
        elif len(core) <= 1:
            cands = [word[:-1]]          # dies -> die, pies -> pie
        else:
            cands = [core + "y", word[:-1]]
    elif noun and word.endswith("ves"):
        base = _VES_TO_F.get(word)
        cands = [base] if base else []
        cands.append(word[:-1])          # waves -> wave
    elif word.endswith(("sses", "shes", "ches", "xes", "zzes")):
        if word[:-1] in E_RESTORE_ROOTS:
            cands = [word[:-1], word[:-2]]   # aches -> ache
        else:
            cands = [word[:-2], word[:-1]]   # watches -> watch
    elif word.endswith("oes"):
        if word[:-1] in OE_NOUNS:
            cands = [word[:-1], word[:-2]]   # shoes -> shoe
        else:
            cands = [word[:-2], word[:-1]]   # goes -> go, potatoes -> potato
    elif word.endswith("ses"):
        bare = word[:-2]
        if bare in ES_SINGULAR_NOUNS:
            cands = [bare, word[:-1]]        # buses -> bus
        else:
            cands = [word[:-1], bare]        # uses -> use
    else:
        cands = [word[:-1]]
    return cands


def _candidates_grade(word: str, suffix: str) -> list:
    if not word.endswith(suffix) or len(word) <= len(suffix) + 1:
        return []
    n = len(suffix)
    if word.endswith("i" + suffix):
        core = word[: -(n + 1)]
        if len(core) <= 1:
            return [word[:-n]]
        return [core + "y", word[:-n]]
    stem = word[:-n]
    return _ordered_with_e(stem)


# Root candidates per type, in the order analysis tries them.
_CANDIDATES = {
    TransformationType.ING: _candidates_ing,
    TransformationType.VS: lambda w: _candidates_s(w, noun=False),
    TransformationType.ED: _candidates_ed,
    TransformationType.EDP: _candidates_ed,
    TransformationType.NS: lambda w: _candidates_s(w, noun=True),
    TransformationType.JER: lambda w: _candidates_grade(w, "er"),
    TransformationType.JEST: lambda w: _candidates_grade(w, "est"),
    TransformationType.VER: lambda w: _candidates_grade(w, "er"),
    TransformationType.VEST: lambda w: _candidates_grade(w, "est"),
}


# -- irregular table ----------------------------------------------------

class IrregularTable:
    """Bidirectional index over the irregular entries.

    ``(root, type) -> inflected`` serves generation; :class:`Morphology`
    builds its own ``inflected -> root`` map per type for analysis.  Both
    directions must be unambiguous, so duplicate keys on either side raise.
    """

    def __init__(self, entries):
        self._entries = tuple(entries)
        self._to_root = {}
        self._to_inflected = {}
        for e in self._entries:
            key = (e.inflected, e.type)
            if key in self._to_root and self._to_root[key] != e.root:
                raise DuplicateKeyError(
                    f"inflected form {e.inflected!r} mapped to both "
                    f"{self._to_root[key]!r} and {e.root!r} for {e.type.tag}")
            rkey = (e.root, e.type)
            if rkey in self._to_inflected and self._to_inflected[rkey] != e.inflected:
                raise DuplicateKeyError(
                    f"root {e.root!r} mapped to both "
                    f"{self._to_inflected[rkey]!r} and {e.inflected!r} for {e.type.tag}")
            self._to_root[key] = e.root
            self._to_inflected[rkey] = e.inflected

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IrregularEntry]:
        return iter(self._entries)

    def inflected_for(self, root: str, t: TransformationType) -> Optional[str]:
        return self._to_inflected.get((root, t))


def _tsv_rows(source: Union[str, TextIO], what: str, tag_column: int):
    """Yield ``(line number, columns)`` for each row of a three-column TSV.

    ``source`` is a path or an open text file.  Columns are stripped and
    lowercased, and the one at ``tag_column`` becomes its
    ``TransformationType``.  ``#``-prefixed lines and blank lines are
    ignored.
    """
    text = source.read() if hasattr(source, "read") else read_text(source, what)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = [c.strip().lower() for c in line.split("\t")]
        if len(cols) != 3:
            raise ParseError(f"expected 3 tab-separated columns, got {len(cols)}", line=lineno)
        try:
            cols[tag_column] = TransformationType.from_tag(cols[tag_column])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        yield lineno, cols


def load_irregular_table(source: Union[str, TextIO]) -> IrregularTable:
    """Parse a three-column TSV of ``inflected<TAB>root<TAB>type`` rows."""
    entries = []
    for lineno, (inflected, root, t) in _tsv_rows(source, "irregular table", 2):
        if not inflected or not root:
            raise ParseError("empty word field", line=lineno)
        if inflected == root:
            raise ParseError(f"inflected form equals root: {root!r}", line=lineno)
        entries.append(IrregularEntry(inflected, root, t))
    return IrregularTable(entries)


# -- public engine ------------------------------------------------------

# Entries in each Morphology instance's memo of ``analyze``; the least
# recently used entry goes first.
ANALYZE_MEMO_SIZE = 65536


class Morphology:
    """Inflection engine over an irregular table plus orthographic rules.

    The table and rules are immutable after construction.  ``analyze`` is
    a pure function of its arguments, so each instance memoises it, keyed
    by the exact ``(word, pos)`` arguments and bounded by
    ``ANALYZE_MEMO_SIZE``.  Readers fill the memo; a race between two
    readers only computes an entry twice.
    """

    def __init__(self, table: Optional[IrregularTable] = None):
        self._table = table if table is not None else _bundled_table()
        roots = {t: {} for t in ALL_TYPES}
        for e in self._table:
            roots[e.type][e.inflected] = e.root
        # Per inflected POS tag: its type, the table's inflected -> root
        # map for that type and the type's candidate generator.
        self._by_pos = {pos: (t, roots[t], _CANDIDATES[t])
                        for pos, t in POS_TAG_TO_TYPE.items()}
        # The instance attribute shadows the class's rule search, which
        # stays reachable as ``Morphology.analyze`` and ``analyze.__wrapped__``.
        self.analyze = lru_cache(maxsize=ANALYZE_MEMO_SIZE)(self.analyze)

    def __reduce__(self):
        return type(self), (self._table,)

    @property
    def table(self) -> IrregularTable:
        return self._table

    def apply_transform(self, root: str, t: TransformationType) -> str:
        """Inflect ``root`` according to ``t``; irregular entries win."""
        if not root or not root.isalpha() or not root.islower():
            raise UnknownRuleError(f"cannot inflect {root!r}: not a lowercase word")
        irregular = self._table.inflected_for(root, t)
        if irregular is not None:
            return irregular
        return _RULES[t](root)

    def analyze(self, word: str, pos: str) -> MorphAnalysis:
        """Recover ``(root, transform)`` for a surface word.

        The POS tag picks the transformation type (VBD -> past tense and
        so on); any tag outside the inflected set, and any word the rules
        cannot invert, falls back to the word itself with no transform.
        """
        w = word.lower()
        rule = self._by_pos.get(pos)
        if rule is None or not w.isalpha():
            return MorphAnalysis(w, None)
        t, roots, candidates = rule
        root = roots.get(w)
        if root is not None:
            return MorphAnalysis(root, t)
        # A candidate must meet apply_transform's precondition: an
        # alphabetic word with no cased letter (``中文``) is not lowercase.
        for cand in candidates(w):
            if cand != w and len(cand) >= 2 and cand.isalpha() and cand.islower() \
                    and self.apply_transform(cand, t) == w:
                return MorphAnalysis(cand, t)
        return MorphAnalysis(w, None)


def load_regular_lexicon(source: Union[str, TextIO, None] = None):
    """Load a reference lexicon of ``root<TAB>type<TAB>inflected`` rows as
    (root, type, inflected) triples; the bundled one by default."""
    if source is None:
        source = io.StringIO(resources.files("morphoqg.data")
                             .joinpath("regular_lexicon.tsv").read_text("utf-8"))
    return [tuple(cols) for _lineno, cols in _tsv_rows(source, "lexicon", 1)]


# Representative Penn-Treebank tag per type, the inverse of POS_TAG_TO_TYPE.
TYPE_TO_POS_TAG = {t: tag for tag, t in POS_TAG_TO_TYPE.items()}


@lru_cache(maxsize=1)
def _bundled_table() -> IrregularTable:
    text = resources.files("morphoqg.data").joinpath("irregular_en.tsv").read_text("utf-8")
    return load_irregular_table(io.StringIO(text))


@lru_cache(maxsize=1)
def default_morphology() -> Morphology:
    return Morphology()
