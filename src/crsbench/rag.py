"""BM25 retrieval over a small guideline-passage corpus.

The index is an in-memory inverted index rebuilt from the corpus file at
startup; retrieval prepends the top-k passages to the canonical prompt for
the retrieval-augmented condition.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

from .jsondoc import data_file, list_of, load_json, obj, string
from .records import record_type

K1_DEFAULT = 1.2
B_DEFAULT = 0.75

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


class RagError(ValueError):
    pass


@record_type
class Passage(NamedTuple):
    passage_id: str
    source_tag: str
    text: str
    token_count: int

    def _checked(self):
        if not self.text:
            raise RagError(f"passage {self.passage_id} has empty text")
        return self


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop empties."""
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


def render_passage(passage: Passage) -> str:
    return f"[{passage.source_tag}] {passage.text}"


_CORPUS = list_of(obj({"passage_id": string(), "source_tag": string(), "text": string()}))


def load_corpus(path: str | Path | None = None) -> list[Passage]:
    """Load passages from a JSON corpus file (packaged default if omitted)."""
    raw = data_file(path, "corpus.json").read_bytes()
    entries = load_json(raw, _CORPUS, RagError, f"corpus {path or '(packaged)'}")
    return [Passage(e["passage_id"], e["source_tag"], e["text"], len(tokenize(e["text"])))
            for e in entries]


class Bm25Index:
    """Okapi BM25 inverted index with k1 = ``K1_DEFAULT`` and b = ``B_DEFAULT``;
    immutable after build."""

    def __init__(self, passages: list[Passage]):
        if not passages:
            raise RagError("cannot index an empty corpus")
        self.passages = {p.passage_id: p for p in passages}
        if len(self.passages) != len(passages):
            raise RagError("duplicate passage_id in corpus")
        self.doc_lengths = {p.passage_id: p.token_count for p in passages}
        self.avg_doc_length = sum(self.doc_lengths.values()) / len(passages)
        self.postings: dict[str, dict[str, int]] = {}
        for p in passages:
            for term in tokenize(p.text):
                self.postings.setdefault(term, {})
                self.postings[term][p.passage_id] = self.postings[term].get(p.passage_id, 0) + 1

    @property
    def n_docs(self) -> int:
        return len(self.passages)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, {}))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def score(self, query_terms: list[str], passage_id: str) -> float:
        """Okapi BM25 score; terms absent from the corpus contribute 0."""
        if passage_id not in self.passages:
            raise RagError(f"passage not in index: {passage_id}")
        length_norm = 1.0 - B_DEFAULT + B_DEFAULT * self.doc_lengths[passage_id] / self.avg_doc_length
        total = 0.0
        for term in query_terms:
            tf = self.postings.get(term, {}).get(passage_id, 0)
            if tf == 0:
                continue
            total += self.idf(term) * tf * (K1_DEFAULT + 1.0) / (tf + K1_DEFAULT * length_norm)
        return total

    def retrieve(self, query_text: str, k: int = 5) -> tuple[list[Passage], bool]:
        """Top-k passages by score, descending; ties broken by passage_id.

        Returns (passages, truncated_flag); the flag is True when the corpus
        is smaller than k and everything was returned.
        """
        if k < 1:
            raise RagError(f"k must be >= 1, got {k}")
        terms = tokenize(query_text)
        scored = sorted(
            ((self.score(terms, pid), pid) for pid in self.passages),
            key=lambda pair: (-pair[0], pair[1]),
        )
        flagged = len(scored) < k
        top = scored[:k]
        return [self.passages[pid] for _, pid in top], flagged

