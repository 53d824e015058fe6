"""Golden artifacts: every file of a paper-size pass, pinned by SHA-256.

One pass at seed 0, in process, in a fresh working directory with a relative
``out_dir``: ``run`` with all five model kinds (logreg, gnb, focal-loss mlp,
heuristic and one replayed model) on a generated cohort of the paper's 524
rows, then ``genai --rag``, ``compare``, ``importance`` and ``report``. The
replay store is planted before the pass, in a sibling directory. A second
pass, at seed 1, reads a cohort CSV with defective rows through ``run``'s
``cohort_csv`` and ``preprocess``. Audit timestamps are masked; every other
byte of every file a pass leaves counts.
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
        "6f0770ba1461881c3101c7334d0fcfdaaf9cfe9e4abde29c71ae8c10e77f8df6",
    "run/reports/gnb_report.md":
        "ab61bdbc67cf50d6f8cb31dc586fe5b36f172a19a376521efa40f0a4f0092d0a",
    "run/reports/heuristic_report.json":
        "8b0e36198ad9a49d9b36cf0c053eb5dc947394183bc5cb94ecbd68ce5491982b",
    "run/reports/heuristic_report.md":
        "da1da890e7224198eeb2024d0d9f57369cd6527198129e949b1f70d567c8e3c1",
    "run/reports/logreg_report.json":
        "7276c457b9dc92b20f96b9f85f32e69328832f7622c453ad67b11eb8a953354c",
    "run/reports/logreg_report.md":
        "15fe5504bf87f12218216efb95a2c6b65f47bfb38f32cebfdd93a7d9900fb2ed",
    "run/reports/mlp_report.json":
        "0bdad3000fa332ef30095c095dba3b9ea302b35ee4feeae4c3eeeac8ec9ba776",
    "run/reports/mlp_report.md":
        "305850f5ed5314efe20c87d866843612e256483df12f9e7158f61e9805a7b04e",
    "run/reports/sim-llm_report.json":
        "cf6dfb74e85f7716fd89f548746695a1793577c46bd32c0ebe069318ecfaf02b",
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


def paper_pass(inputs, schema) -> list[list[str]]:
    """Plant the replay store and the run config in ``inputs``; the argv of
    each command of the pass, to run in a sibling of ``inputs``."""
    _plant_store(inputs / "store", schema, inputs)
    (inputs / "config.json").write_text(json.dumps({
        "seed": SEED, "out_dir": "run", "synthetic": {"n": N}, "loss": "focal", "k": K,
        "models": ["logreg", "gnb", "mlp", "heuristic", "replay:sim-llm"],
        "replay": {"store": "../inputs/store"},
    }))
    s = str(SEED)
    return [
        ["run", "--config", "../inputs/config.json"],
        ["genai", "--replay-store", "../inputs/store", "--cohort", "run/cohort.csv",
         "--model-id", "sim-llm-rag", "--k", str(K), "--rag", "--audit-log", "genai_audit.jsonl",
         "--seed", s, "--out", "genai_predictions.json"],
        ["compare", "--pred-a", "run/mlp_predictions.json", "--pred-b", "run/sim-llm_predictions.json",
         "--seed", s, "--out", "compare.json"],
        ["importance", "--model-file", "run/mlp_model.json", "--cohort", "run/cohort.csv",
         "--seed", s, "--out", "importance.json"],
        ["report", "--run-dir", "run"],
    ]


def _assert_pinned(pass_dir, golden):
    digests = _digests(pass_dir)
    changed = {path: digests.get(path) for path in sorted(digests.keys() | golden.keys())
               if digests.get(path) != golden.get(path)}
    assert not changed, (
        f"artifacts differ from the pinned digests (new digest, or None where a file is gone): "
        f"{changed}. The table was built with numpy {BUILT_WITH_NUMPY} and is tied to that host's "
        f"numpy and BLAS; this is numpy {np.__version__}.")


def test_a_paper_size_pass_leaves_the_pinned_bytes(tmp_path, schema, monkeypatch, capsys):
    inputs, pass_dir = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    pass_dir.mkdir()
    commands = paper_pass(inputs, schema)
    monkeypatch.chdir(pass_dir)
    for argv in commands:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
    _assert_pinned(pass_dir, GOLDEN)


CSV_SEED = 1

# SHA-256 of each file the CSV pass leaves, as ``GOLDEN`` holds them.
GOLDEN_CSV = {
    "prep/rejections.json":
        "2fdc4196dbd611e0a10b84e647b019458e2cba4ebd899cd30fde13a1b6f66c57",
    "prep/scaler.json":
        "f9b57146124b22a71aecd8d1c4721cf8359f6a4d13b084cd1b594dc3bd32ea47",
    "prep/split.json":
        "8c18aad06c18fad62c9e7a16e311d60fc9ba5abdd1dd2bf41b48700a520d836e",
    "run/.lock":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run/gnb_model.json":
        "b6690f3492c5f3245dea512a290f379955eaa8b5068cc0d1f4abfa5632327e53",
    "run/gnb_predictions.json":
        "151dcaff0f8ac8e93a27a69b9299d18ce5193280278b9f4ed69207899b6b95b5",
    "run/heuristic_predictions.json":
        "19cf073f2e528d7ce1ed8a7ee1b66b83384afe18dc3f4a902424385424223b01",
    "run/heuristic_traces.jsonl":
        "c1b43c5413b402d8edd7942b486b27f0c240859005dd0c4cde4ce6d5516053db",
    "run/logreg_model.json":
        "909a25d1ccd0f71492219487d9d81b0bd3687abd0fb8de769037393802350679",
    "run/logreg_predictions.json":
        "92b6346558406a0aff2f937081f15bbacd6533b49f6ab23cf90578d31e993d2a",
    "run/manifest.json":
        "8fcb5fb8ab66e1529420900df078a226a8f878313c3bc91f77dca0235bb21975",
    "run/mlp_model.json":
        "7a5a5621b36c0939c5e52930ebd77a71808de8db717175dabdbbcce4e4e20119",
    "run/mlp_predictions.json":
        "c9d1492a3d8a8b8dd9e784342cbf33a6a4bfc16108cc35e4333f12d531eaaa64",
    "run/reports/curves/gnb_net_benefit.csv":
        "dfd7cfffb10d75b3f7ba26b5d801bdc6f823c162e3b56ec1c4fa4582487193a9",
    "run/reports/curves/gnb_pr.csv":
        "28db85be0b8a66b2ae172b9ff78fdbe864f8c312193a5724f42f1acfab895f2c",
    "run/reports/curves/gnb_reliability.csv":
        "52de37fbe3b74399ba83600bcaabbf3cf7a9af06747a9f11751c531164adf5ef",
    "run/reports/curves/gnb_roc.csv":
        "459a41713a811bf3088c06f5de0518e5cf770797a27656a8332d0f5f70178265",
    "run/reports/curves/heuristic_net_benefit.csv":
        "d8987389d5fec3840f1e9fe88885ad72e6eaa0057661ca822fd23aecd7a8dbfd",
    "run/reports/curves/heuristic_pr.csv":
        "e66b9c4e2a3f76c6222367051b14310b3340c056715c4ca1e09609191b0f7d68",
    "run/reports/curves/heuristic_reliability.csv":
        "782af59b9a2043ed5036f4a8f73f62134bb7564c35fa1313e0e2a3d4d04629d0",
    "run/reports/curves/heuristic_roc.csv":
        "fc245c3cf68ed449967c6cce5d664cf40dd411ef47e57c1e42360353c0ad7d7f",
    "run/reports/curves/logreg_net_benefit.csv":
        "fdde74d0b598e900b37b4c4e636299c164f2690044a5e20264297d7e6156d5ea",
    "run/reports/curves/logreg_pr.csv":
        "ce1de12da2c15549513e72b7b03b5ba331cc06ea184de58714fa868f2eae9553",
    "run/reports/curves/logreg_reliability.csv":
        "bcdab54a7f8f857331bb208d103d6b38bb1c176278951668d49ccc4a31b704ff",
    "run/reports/curves/logreg_roc.csv":
        "989003d201350560763650b9f17d79ec99911847431295b3bb4bda04a7599b70",
    "run/reports/curves/mlp_net_benefit.csv":
        "ae15fb4fd2b4609093799b4e6a06554da2beda5999792b3fe49ec6afa6d4d484",
    "run/reports/curves/mlp_pr.csv":
        "d91b27fa9d1ada149c75b033446e3d33a95aa394d7e32e80d88779d174c6e168",
    "run/reports/curves/mlp_reliability.csv":
        "cb14bd906d5c5eb38cfa35108a51c30d01b8922eaa869fcd3b5c4b0d5f02112c",
    "run/reports/curves/mlp_roc.csv":
        "fe1b5f76f168fa6806f7f2558fb652a141764d92bb410e4a0cecb7cc0b34acc5",
    "run/reports/gnb_report.json":
        "263f5dd3c26a3df7fdedd25e2d94969f898027e93529c35393b46cba54cd1df1",
    "run/reports/gnb_report.md":
        "2450f22585897bc5a494e08e8afa1d2a554516096b211a294cf82d594df272fe",
    "run/reports/heuristic_report.json":
        "43a8630649f03ab4836469bf076f3627cc8feef8759fbe91a3481d82076f2f7d",
    "run/reports/heuristic_report.md":
        "b38c5d34f075c3648182efe121ca1fcf829c5b5c65c000141f8da5033350fc24",
    "run/reports/logreg_report.json":
        "23658af438c0d3a2a91f0a88b14af767eae0bddc3aede1939c5c0cdbcd548ad1",
    "run/reports/logreg_report.md":
        "60084b21ee6bc5be600d5b85a94b51e520b7b9f026014c9efb150f7cf500397c",
    "run/reports/mlp_report.json":
        "1b33268f02db91041c8cee6ddedf051a61ed9143bdbeb997c75df0ad14a30d0e",
    "run/reports/mlp_report.md":
        "8863deedd2e97bb4062af396236783fd8a361aff9afeafa5105c1d15876979e2",
}


def _defective_cohort(schema) -> bytes:
    """The paper-size cohort at ``CSV_SEED`` as CSV, with a placeholder in a
    required field, an out-of-range value, a duplicate id, a short row and a
    blank id (which is given a generated id, not rejected)."""
    lines = serialize_cohort(synthetic_table(N, CSV_SEED), schema).decode().splitlines()
    col = {name: j for j, name in enumerate(lines[0].split(","))}
    rows = [line.split(",") for line in lines]
    rows[11][col["SNOT22_BLN_TOTAL"]] = "NA"
    rows[52][col["BLN_CT_TOTAL"]] = "31"
    rows[120][col["PATIENT_ID"]] = rows[3][col["PATIENT_ID"]]
    rows[201] = rows[201][:9]
    rows[300][col["PATIENT_ID"]] = ""
    return "".join(",".join(row) + "\n" for row in rows).encode()


def test_a_pass_over_a_csv_cohort_with_rejected_rows_leaves_the_pinned_bytes(
        tmp_path, schema, monkeypatch, capsys):
    inputs, pass_dir = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    pass_dir.mkdir()
    (inputs / "cohort.csv").write_bytes(_defective_cohort(schema))
    (inputs / "config.json").write_text(json.dumps({
        "seed": CSV_SEED, "out_dir": "run", "cohort_csv": "../inputs/cohort.csv",
        "models": ["logreg", "gnb", "mlp", "heuristic"],
    }))
    monkeypatch.chdir(pass_dir)
    for argv in (
        ["run", "--config", "../inputs/config.json"],
        ["preprocess", "--cohort", "../inputs/cohort.csv", "--seed", str(CSV_SEED), "--out-dir", "prep"],
    ):
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
    rejections = json.loads((pass_dir / "prep" / "rejections.json").read_text())
    assert (rejections["rows_total"], rejections["accepted"]) == (N, N - 4)
    split = json.loads((pass_dir / "prep" / "split.json").read_text())
    assert "case_0299" in split["train_ids"] + split["test_ids"]  # the blank id's
    _assert_pinned(pass_dir, GOLDEN_CSV)
