import json
import math

import pytest

from crsbench.protocol import build_prompt
from crsbench.rag import (
    B_DEFAULT,
    Bm25Index,
    K1_DEFAULT,
    Passage,
    RagError,
    load_corpus,
    render_passage,
    tokenize,
)


def _passage(pid, text, tag="tag"):
    return Passage(passage_id=pid, source_tag=tag, text=text, token_count=len(tokenize(text)))


@pytest.fixture
def small_index():
    return Bm25Index(
        [
            _passage("a", "sinus surgery improves sinus symptoms"),
            _passage("b", "polyps respond to steroids"),
            _passage("c", "surgery outcome depends on baseline burden and polyps"),
        ]
    )


def test_tokenize_normalizes():
    assert tokenize("SNOT-22, total: 45!") == ["snot", "22", "total", "45"]
    assert tokenize("") == []


def test_idf_formula(small_index):
    # "surgery" appears in 2 of 3 docs
    expected = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
    assert small_index.idf("surgery") == pytest.approx(expected, abs=1e-12)
    # unseen terms get the max idf, never negative
    assert small_index.idf("zzz") == pytest.approx(math.log(1.0 + 3.5 / 0.5))


def test_score_matches_manual_okapi(small_index):
    # score doc "a" for query ["sinus"]: tf=2, len=5, avg=(5+4+8)/3
    avg = (5 + 4 + 8) / 3
    norm = 1 - B_DEFAULT + B_DEFAULT * 5 / avg
    idf = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
    expected = idf * 2 * (K1_DEFAULT + 1) / (2 + K1_DEFAULT * norm)
    assert small_index.score(["sinus"], "a") == pytest.approx(expected, abs=1e-12)


def test_absent_terms_contribute_zero(small_index):
    with_noise = small_index.score(["polyps", "zebra", "quux"], "b")
    assert with_noise == pytest.approx(small_index.score(["polyps"], "b"))


def test_retrieve_ranks_by_score(small_index):
    passages, flagged = small_index.retrieve("sinus surgery", k=2)
    assert [p.passage_id for p in passages] == ["a", "c"]
    assert flagged is False


def test_retrieve_ties_break_by_passage_id():
    index = Bm25Index(
        [_passage("z", "alpha beta"), _passage("m", "alpha beta"), _passage("a", "alpha beta")]
    )
    passages, _ = index.retrieve("alpha", k=3)
    assert [p.passage_id for p in passages] == ["a", "m", "z"]


def test_retrieve_flags_small_corpus(small_index):
    passages, flagged = small_index.retrieve("surgery", k=10)
    assert len(passages) == 3
    assert flagged is True


def test_retrieve_rejects_bad_k(small_index):
    with pytest.raises(RagError):
        small_index.retrieve("surgery", k=0)


def test_score_unknown_passage_is_error(small_index):
    with pytest.raises(RagError):
        small_index.score(["surgery"], "nope")


def test_empty_corpus_and_duplicates_rejected():
    with pytest.raises(RagError):
        Bm25Index([])
    with pytest.raises(RagError):
        Bm25Index([_passage("a", "x y"), _passage("a", "y z")])
    with pytest.raises(RagError):
        _passage("a", "")


def test_packaged_corpus_loads():
    corpus = load_corpus()
    assert len(corpus) >= 5
    ids = [p.passage_id for p in corpus]
    assert len(set(ids)) == len(ids)
    assert all(p.source_tag for p in corpus)
    Bm25Index(corpus)  # builds cleanly


def test_load_corpus_from_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([
        {"passage_id": "p1", "source_tag": "t", "text": "hello world"},
    ]))
    corpus = load_corpus(path)
    assert corpus[0].token_count == 2


def test_render_and_augment():
    p = _passage("p", "some guidance text", tag="guideline-3")
    assert render_passage(p) == "[guideline-3] some guidance text"
    prompt, _ = build_prompt(["CASE"], "BODY", [p])
    assert prompt == "[guideline-3] some guidance text\n\nBODY\n\nCASE"
    assert build_prompt(["CASE"], "BODY", [])[0] == "BODY\n\nCASE"
