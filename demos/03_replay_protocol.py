"""Walkthrough: the LLM trial protocol in replay mode, with retrieval.

Builds a replay store for three synthetic cases, runs k=5 replicate trials
through the deterministic replay client (one case with BM25 passages
prepended), and prints the parsed replicates, votes, and audit trail.

Run:  python3 demos/03_replay_protocol.py
"""

import tempfile
from pathlib import Path

from crsbench.protocol import (
    AuditLog,
    DecodingParams,
    ModelIdentity,
    ReplayClient,
    build_prompt,
    load_prompt_template,
    run_trial,
    serialize_case,
    store_replay_responses,
)
from crsbench.rag import Bm25Index, load_corpus
from crsbench.schema import load_schema
from crsbench.synthetic import generate_synthetic

CANNED = [
    # clean majority for 1
    ["PREDICTION: 1\nCONFIDENCE: very confident"] * 4
    + ["PREDICTION: 0\nCONFIDENCE: somewhat unsure"],
    # a malformed replicate that the parser flags but the vote absorbs
    ["PREDICTION: 0\nCONFIDENCE: neutral"] * 3
    + ["I cannot answer that.", "PREDICTION: maybe\nCONFIDENCE: neutral"],
    # 2-2 tie among valid replicates, broken by the mean proxy score
    ["PREDICTION: 1\nCONFIDENCE: very confident",
     "PREDICTION: 1\nCONFIDENCE: very confident",
     "PREDICTION: 0\nCONFIDENCE: somewhat unsure",
     "PREDICTION: 0\nCONFIDENCE: not at all confident",
     "no structured output"],
]


def main():
    schema = load_schema()
    records = generate_synthetic(3, seed=21)
    template = load_prompt_template()
    index = Bm25Index(load_corpus())

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        audit = AuditLog(Path(tmp) / "audit.jsonl")
        identity = ModelIdentity("demo-vendor", "demo-model", "2025-06-01")
        decoding = DecodingParams(temperature=0.2, top_p=0.9)

        passages_per_case = [None, None,
                             index.retrieve(serialize_case(records[2], schema), k=2)[0]]
        for rec, responses, passages in zip(records, CANNED, passages_per_case):
            _, prompt_hash = build_prompt([serialize_case(rec, schema)], template, passages)
            store_replay_responses(store, prompt_hash, responses)

        client = ReplayClient(store)
        for rec, passages in zip(records, passages_per_case):
            t = run_trial(client, rec, schema, identity, decoding, k=5,
                          template=template, rag_passages=passages, audit_log=audit)
            agg = t.aggregate
            print(f"\ncase {t.case_id}  prompt {t.prompt_hash[:12]}..."
                  + ("  [with retrieved passages]" if passages else ""))
            for raw, parsed in t.replicates:
                label = parsed.prediction if parsed.ok else "-"
                print(f"  [{parsed.parser_status.value:18s}] label={label}  "
                      f"{raw.splitlines()[0][:48]}")
            print(f"  votes 0/1: {agg.vote_counts[0]}/{agg.vote_counts[1]}  "
                  f"final={agg.final_label}  mean_proxy={agg.mean_proxy}  flag={agg.flag}")

        print(f"\naudit log holds {len(audit.read_transcripts())} transcripts "
              f"(replayable byte-for-byte)")


if __name__ == "__main__":
    main()
