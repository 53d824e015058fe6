"""Golden artifacts: every file of a paper-size pass, pinned by SHA-256.

One pass at seed 0, in process, in a fresh working directory with a relative
``out_dir``: ``run`` with all five model kinds (logreg, gnb, focal-loss mlp,
heuristic and one replayed model) on a generated cohort of the paper's 524
rows, then ``genai --rag``, ``compare``, ``importance`` and ``report``. The
replay store is planted before the pass, in a sibling directory. Audit
timestamps are masked; every other byte of every file the pass leaves counts.
"""

import hashlib
import json
import re

import numpy as np
from crsbench.cli import EXIT_OK, _prepare_cohort, main
from crsbench.cohort import serialize_cohort
from crsbench.protocol import build_prompt, case_blocks, load_prompt_template, store_replay_responses
from crsbench.rag import Bm25Index, load_corpus
from crsbench.synthetic import synthetic_table

SEED, N, K = 0, 524, 5
BUILT_WITH_NUMPY = "2.4.6"

# Replicate sets cycled over the test cases: unanimous, split, invalid
# replicates, a proxy-broken tie, a residual tie and nothing parseable.
RESPONSES = [
    ["PREDICTION: 1\nCONFIDENCE: very confident"] * 5,
    ["PREDICTION: 0\nCONFIDENCE: somewhat unsure"] * 3 + ["PREDICTION: 1\nCONFIDENCE: neutral"] * 2,
    ["PREDICTION: maybe\nCONFIDENCE: neutral", "Prediction: 0\nConfidence: Somewhat Confident",
     "PREDICTION: 1", "prediction : 0.\nConfidence:   NOT   AT   ALL   CONFIDENT",
     "PREDICTION: 1\nCONFIDENCE: extremely sure"],
    ["PREDICTION: 1\nCONFIDENCE: very confident", "PREDICTION: 0\nCONFIDENCE: neutral"] * 2
    + ["no answer"],
    ["PREDICTION: 1\nCONFIDENCE: neutral", "PREDICTION: 0\nCONFIDENCE: neutral"] * 2
    + ["I cannot assess this case.\nCONFIDENCE: neutral"],
    ["no answer"] * 5,
]

# SHA-256 of each file the pass leaves, by path relative to the pass
# directory, with audit timestamps masked.
GOLDEN = {
    "compare.json":
        "358ae0aecab280b1ea7a1f78bba718b3c42db5ba2aa15af6a2a262a3aa9a16fb",
    "genai_audit.jsonl":
        "9c712a00980c3a18bc0713e665241b0dcdd9892159d8daf510ffc18b92c8bb0c",
    "genai_predictions.json":
        "ece4a21330778df21a16feb19359998ff71510f2497780d16baf7dc76fe223a9",
    "importance.json":
        "7140630ce347afeba454e5c51b38b0131e2ea86fe42607b528eb1a94393d308b",
    "run/.lock":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run/audit.jsonl":
        "a61788a7ae1b9ad8ea084194ff046420dbcee2379d43eb5c2b3c9a2cf6abace5",
    "run/cohort.csv":
        "5e590fcadcc10a369561190a8eeb72f4139f2e94ea7454a993d6aff9840687c2",
    "run/gnb_model.json":
        "5aed52be6efff04d9c871eaf14b4fa7e9dd502947ef29ca1126aeb66cc94c448",
    "run/gnb_predictions.json":
        "814d01bbcf910ef769cf9d665449b39d8cc7cca8c602979257bd4617bf996483",
    "run/heuristic_predictions.json":
        "a1c137201a7cee559e7a016e93541a8d342fef0569311147cdeca0c46b07cab2",
    "run/heuristic_traces.jsonl":
        "fabdf3390d2bec3f905929dff98f750eff1ac17d694e8d6b548021d455e63927",
    "run/logreg_model.json":
        "b2c887daf1be0db959df72c7a18ea61a40a79a64c2ff9b9a672ff48ebcc9451f",
    "run/logreg_predictions.json":
        "d8eb0ba3b22131cbab76e99f4c8b2c46ff760d752882b8a86283b04074fd445b",
    "run/manifest.json":
        "f284c4d30666a682012a0176e2a35e4b62631e8a226f63150e2b70b536b6c7f3",
    "run/mlp_model.json":
        "1c67a8007c95430032ba45dc987f10db5a303457e1177cf5468430d19abfad3b",
    "run/mlp_predictions.json":
        "fc3390d2ef70b64547fefd9d78ff9bd47258edbe662718c3633afe1224d05f5e",
    "run/reports/curves/gnb_net_benefit.csv":
        "49d6794733d423c8641605f18e47eec98011535ff0588786774aef555adf2ab2",
    "run/reports/curves/gnb_pr.csv":
        "22b995006a5ea4ba557d01b76bfa7ea564cd0c7989a431014a90499798138a3b",
    "run/reports/curves/gnb_reliability.csv":
        "e12ee8b36e42de441c0b38dc6322710ad4c933c5396420821c5b7ec29a9c413a",
    "run/reports/curves/gnb_roc.csv":
        "dd7ee33d9b39bb9a88e6846ff8fa86aee8b55671fd8e494b69e6157ef3621a88",
    "run/reports/curves/heuristic_net_benefit.csv":
        "9a8f76bdd31f066d6528f73f35dc697af9da8f59f094136c85aa65582235ccea",
    "run/reports/curves/heuristic_pr.csv":
        "20109e3e75e66dcbad49a7da702a6518a3b47544af1a5881ad14d9d2ec16cc41",
    "run/reports/curves/heuristic_reliability.csv":
        "b00d2dcb9664f1433d35183d25babf3e03ef60adca3e72c80ee516a3a01632b2",
    "run/reports/curves/heuristic_roc.csv":
        "4d2e86d20013407384c0b149e0aebb7ced6851b90aed1c0ec15c721e4931f2f4",
    "run/reports/curves/logreg_net_benefit.csv":
        "45d23426673c1c88050c9f982209c5aa706506d068f5fb68f7b2d4fef6d6e482",
    "run/reports/curves/logreg_pr.csv":
        "9a032940110f5c03c672388ec32a173e06c03f94d09f333f46352c3af59fcfc8",
    "run/reports/curves/logreg_reliability.csv":
        "b5bbd89274528b2a68c4ec777fdc7af9684c1f289e77fb787d592498a7413d16",
    "run/reports/curves/logreg_roc.csv":
        "a6c0a9dc500fea5358d10277069d646cae8bef36623b14858beaac0e844d81e0",
    "run/reports/curves/mlp_net_benefit.csv":
        "68871897bb93e8f687637d1dc766d16d94f5ab0931ac0fe36d7b63ad7827592b",
    "run/reports/curves/mlp_pr.csv":
        "e2c62273e1b29ec4155db764f99a80a28640f111698de276b889129588ea6305",
    "run/reports/curves/mlp_reliability.csv":
        "a4883a9cba8995bf3d428e3e5dda8dd91c4c35dad574fa6488c330f86eb7307f",
    "run/reports/curves/mlp_roc.csv":
        "4db938d6ecd830ea7c7930fda280eccef5c00de002c117689597848dba821703",
    "run/reports/curves/sim-llm_net_benefit.csv":
        "1bef0500ff71b980af12c4af1f4bfe818b865bbf0b41ef57be13be038945eadd",
    "run/reports/curves/sim-llm_pr.csv":
        "83f5d63d5d281e9b01e9ac31c1c0154298cfd381c5cd1fc8ca650663d6faaa16",
    "run/reports/curves/sim-llm_reliability.csv":
        "a64beb9c3edc958f9fca69c9172404b377fd560977f5833e7d833968679e881a",
    "run/reports/curves/sim-llm_roc.csv":
        "e44b8b9a42f7219256c5a116d73df0ce727af91ac50df5cde0fbdb8e3a8af579",
    "run/reports/gnb_report.json":
        "ef0c7e336cd57990d916d20c392f485f88e744555226a3b344d3544fc5f9247e",
    "run/reports/gnb_report.md":
        "ab61bdbc67cf50d6f8cb31dc586fe5b36f172a19a376521efa40f0a4f0092d0a",
    "run/reports/heuristic_report.json":
        "711c9941e9fecaf32888b17148d2473d474912a0aef88984942f39d8cbe20a09",
    "run/reports/heuristic_report.md":
        "da1da890e7224198eeb2024d0d9f57369cd6527198129e949b1f70d567c8e3c1",
    "run/reports/logreg_report.json":
        "3bffe776cf73ef25316792fe37c72f2bb5e5a951727a615bd17bacf7b1036745",
    "run/reports/logreg_report.md":
        "15fe5504bf87f12218216efb95a2c6b65f47bfb38f32cebfdd93a7d9900fb2ed",
    "run/reports/mlp_report.json":
        "28484f97535232b7c5f364dae0ea3b92525a07740fc97f04a43289371a88910c",
    "run/reports/mlp_report.md":
        "305850f5ed5314efe20c87d866843612e256483df12f9e7158f61e9805a7b04e",
    "run/reports/sim-llm_report.json":
        "75e914ac8247f2d0c6f28b339a07ff199ba777be5c5cf44d21daf433e1f6ec87",
    "run/reports/sim-llm_report.md":
        "b19edefe243423d5bcd4dbd97e368fe079cecab4151aab7fecbc046444ca2822",
    "run/sim-llm_predictions.json":
        "0161f3c860a454ec4f09e71c40712188156de70b074d8d2001156ae20df3e5d5",
    "run/summary.md":
        "2fe0037a3196ea8edde186a69f5fa416e37f85b861e86562ef4ee463371d3dd6",
}


def _plant_store(store, schema, inputs):
    """Replay entries for the test split of ``run``'s cohort, without and with
    retrieved passages, as ``run`` and ``genai --rag`` will hash them."""
    cohort = inputs / "cohort.csv"
    cohort.write_bytes(serialize_cohort(synthetic_table(N, SEED), schema))
    blocks = case_blocks(_prepare_cohort(cohort, schema, 0.2, SEED).test, schema)
    template, index = load_prompt_template(), Bm25Index(load_corpus())
    for i, block in enumerate(blocks):
        for j, passages in enumerate((None, index.retrieve(block, k=K)[0])):
            _, prompt_hash = build_prompt([block], template, passages)
            store_replay_responses(store, prompt_hash, RESPONSES[(i + j) % len(RESPONSES)])


def _digests(pass_dir):
    out = {}
    for path in sorted(p for p in pass_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("audit.jsonl"):
            data = re.sub(rb', "timestamp": [^,]+}\n', b', "timestamp": 0}\n', data)
        out[path.relative_to(pass_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def test_a_paper_size_pass_leaves_the_pinned_bytes(tmp_path, schema, monkeypatch, capsys):
    inputs, pass_dir = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    pass_dir.mkdir()
    _plant_store(inputs / "store", schema, inputs)
    (inputs / "config.json").write_text(json.dumps({
        "seed": SEED, "out_dir": "run", "synthetic": {"n": N}, "loss": "focal", "k": K,
        "models": ["logreg", "gnb", "mlp", "heuristic", "replay:sim-llm"],
        "replay": {"store": "../inputs/store"},
    }))
    monkeypatch.chdir(pass_dir)
    s = str(SEED)
    for argv in (
        ["run", "--config", "../inputs/config.json"],
        ["genai", "--replay-store", "../inputs/store", "--cohort", "run/cohort.csv",
         "--model-id", "sim-llm-rag", "--k", str(K), "--rag", "--audit-log", "genai_audit.jsonl",
         "--seed", s, "--out", "genai_predictions.json"],
        ["compare", "--pred-a", "run/mlp_predictions.json", "--pred-b", "run/sim-llm_predictions.json",
         "--seed", s, "--out", "compare.json"],
        ["importance", "--model-file", "run/mlp_model.json", "--cohort", "run/cohort.csv",
         "--seed", s, "--out", "importance.json"],
        ["report", "--run-dir", "run"],
    ):
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
    digests = _digests(pass_dir)
    changed = {path: digests.get(path) for path in sorted(digests.keys() | GOLDEN.keys())
               if digests.get(path) != GOLDEN.get(path)}
    assert not changed, (
        f"artifacts differ from the pinned digests (new digest, or None where a file is gone): "
        f"{changed}. The table was built with numpy {BUILT_WITH_NUMPY} and is tied to that host's "
        f"numpy and BLAS; this is numpy {np.__version__}.")
