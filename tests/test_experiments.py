"""Smoke tests for every experiment driver at tiny scale.

Full-scale runs live in the benchmark harness; these tests assert that each
driver produces a well-formed table and that the cheap shape invariants
hold even at minimal dataset sizes.
"""


from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.common import ExperimentResult

TINY = 0.15


def _check_table(result: ExperimentResult) -> None:
    assert result.title
    assert result.rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    assert result.render().count("\n") >= len(result.rows)


def test_table3_smoke():
    result = table3.run(scale=TINY, datasets=("iimb",))
    _check_table(result)
    assert "Remp" in result.raw["iimb"]


def test_figure3_smoke():
    result = figure3.run(scale=TINY, datasets=("iimb",), error_rates=(0.05, 0.25))
    _check_table(result)
    assert ("iimb", 0.25) in result.raw


def test_table4_smoke():
    result = table4.run(scale=0.4)
    _check_table(result)
    for values in result.raw.values():
        assert 0.0 <= values["with"].f1 <= 1.0


def test_table5_smoke():
    result = table5.run(scale=TINY, datasets=("iimb", "dblp_acm"))
    _check_table(result)
    for values in result.raw.values():
        assert values["retained"] <= values["candidates"]


def test_figure4_smoke():
    result = figure4.run(scale=TINY, datasets=("iimb",), k_values=(1, 4))
    _check_table(result)
    series = result.raw["iimb"]
    assert series[4] >= series[1] - 1e-9


def test_table6_smoke():
    result = table6.run(scale=TINY, datasets=("iimb",), portions=(0.4, 0.8), repetitions=2)
    _check_table(result)
    scores = result.raw["iimb"]
    assert set(scores) == {"Remp", "PARIS", "SiGMa"}


def test_figure5_smoke():
    result = figure5.run(scale=TINY, datasets=("iimb",), budgets=(1, 4))
    _check_table(result)
    assert set(result.raw["iimb"]) == {"remp", "maxinf", "maxpr"}


def test_table7_smoke():
    result = table7.run(scale=TINY, datasets=("iimb",), mu_values=(1, 10))
    _check_table(result)
    f1_1, _, loops_1 = result.raw["iimb"][1]
    f1_10, _, loops_10 = result.raw["iimb"][10]
    assert loops_10 <= loops_1


def test_table8_smoke():
    result = table8.run(scale=TINY, datasets=("iimb", "imdb_yago"))
    _check_table(result)
    assert result.raw["imdb_yago"]["isolated_share"] > result.raw["iimb"]["isolated_share"]


def test_figure6_smoke():
    result = figure6.run(scale=0.3, portions=(0.5, 1.0))
    _check_table(result)
    assert result.raw["alg1"][1.0] >= 0.0


def test_render_alignment():
    result = ExperimentResult("T", ["a", "bb"], [["x", "y"], ["longer", "z"]])
    rendered = result.render()
    lines = rendered.splitlines()
    assert lines[0] == "T"
    assert len(lines) == 2 + 2 + 2  # title, blank, header, rule, 2 rows


def _relabeled(bundle):
    """``bundle`` with one ``rdfs:label`` literal rewritten: same counts, new content."""
    from dataclasses import replace

    from repro.kb.model import LABEL_ATTRIBUTE

    kb1 = bundle.kb1.copy()
    entity = min(e for e in kb1.entities if kb1.label(e))
    label = kb1.label(entity)
    assert kb1.remove_attribute_triple(entity, LABEL_ATTRIBUTE, label)
    kb1.add_attribute_triple(entity, LABEL_ATTRIBUTE, label + " rewritten")
    counts = (len(kb1), kb1.num_attribute_triples, kb1.num_relationship_triples)
    original = bundle.kb1
    assert counts == (
        len(original), original.num_attribute_triples, original.num_relationship_triples
    )
    return replace(bundle, kb1=kb1)


def test_prepared_state_cache_keys_on_content(monkeypatch):
    from repro.datasets import load_dataset
    from repro.experiments import common

    monkeypatch.delenv("REPRO_STORE", raising=False)
    common._PREPARED_CACHE.clear()
    bundle = load_dataset("iimb", seed=0, scale=0.2)
    first = common.prepared_state(bundle)
    second = common.prepared_state(_relabeled(bundle))
    assert second is not first
    assert common.prepared_state(bundle) is first


def test_store_guard_rejects_same_counts_other_content(tmp_path, monkeypatch):
    from repro.datasets import load_dataset
    from repro.experiments import common
    from repro.substrate import kb_fingerprint

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store.db"))
    monkeypatch.setattr(common, "_ENV_STORE", None)
    bundle = load_dataset("iimb", seed=0, scale=0.2)
    relabeled = _relabeled(bundle)
    common._PREPARED_CACHE.clear()
    try:
        common.prepared_state(bundle)  # persisted under (iimb, 0, 0.2, config)
        common._PREPARED_CACHE.clear()
        state = common.prepared_state(relabeled)
    finally:
        common._ENV_STORE.close()
    assert kb_fingerprint(state.kb1) == kb_fingerprint(relabeled.kb1)
