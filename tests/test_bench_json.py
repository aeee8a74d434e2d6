"""``tools/bench_json.py`` summarises parent and change benchmark records."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)

METRICS = ("wall_ref", "cpu_ref", "objects_per_ref", "peak_rss_mb", "setup_s")


def record(workload: str, wall: float, rss: float = 50.0) -> dict:
    metrics = dict.fromkeys(METRICS, 1.0)
    metrics.update(wall_ref=wall, objects_per_ref=100 / wall, peak_rss_mb=rss)
    return {"workload": workload, "seed": 7, "failed": 0, "wall_s_samples": [wall / 3] * 2,
            "metrics": metrics, "machine": {"nproc": 2}}


def write(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_medians_quartiles_and_pair_wins(tmp_path):
    parent = [record("reduced-words", w) for w in (16.0, 15.0, 17.0, 16.5, 15.5)]
    change = [record("reduced-words", w) for w in (8.0, 9.0, 8.5, 16.5, 7.5)]
    traced = {"workload": "reduced-words", "trace": 1, "machine": {"nproc": 2},
              "traced": [{"words.states": 292864}, {"words.states": 292864}]}
    out = tmp_path / "BENCH.json"
    code = bench_json.main(["--parent", str(write(tmp_path / "p.jsonl", parent)),
                            "--change", str(write(tmp_path / "c.jsonl", change + [traced])),
                            "--out", str(out)])
    assert code == 0
    entry = json.loads(out.read_text())["workloads"]["reduced-words"]
    assert entry["parent"]["end_to_end"]["wall_ref"] == {
        "median": 16.0, "q1": 15.5, "q3": 16.5, "n": 5}
    assert entry["change"]["end_to_end"]["wall_ref"]["median"] == 8.5
    assert entry["pairs"] == 5
    assert entry["change_better_in_pairs"]["wall_ref"] == 4  # a tie is no win
    assert entry["change_better_in_pairs"]["objects_per_ref"] == 4
    assert entry["change_better_in_pairs"]["peak_rss_mb"] == 0
    assert entry["change"]["per_layer_median"] == {"words.states": 292864}
    assert entry["parent"]["runs"] == 10
    assert list(json.loads(out.read_text())["workloads"]) == ["reduced-words"]


def test_no_common_workload_fails(tmp_path, capsys):
    code = bench_json.main(["--parent", str(write(tmp_path / "p.jsonl", [record("poset-edges", 9.0)])),
                            "--change", str(write(tmp_path / "c.jsonl", [record("reduced-words", 8.0)])),
                            "--out", str(tmp_path / "BENCH.json")])
    assert code == 1
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()

