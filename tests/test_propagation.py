"""Tests for match propagation (Sections V-B, V-C)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.config import RempConfig
from repro.core.consistency import Consistency
from repro.core.er_graph import build_er_graph
from repro.core.propagation import (
    ProbabilisticERGraph,
    build_probabilistic_graph,
    neighbor_marginals,
)
from repro.kb import KnowledgeBase
from repro.obs.runtime import RunScope


class TestNeighborMarginals:
    def test_paper_example(self):
        """Section V-B worked example: Tim directed Cradle and Player.

        With ε₁ = ε₂ = 0.9 and uniform priors 0.5, the consistent pairs
        (Cradle, Cradle) and (Player, Player) should get probability near
        0.99 while the cross pair (Cradle, Player) drops near 0.01 — they
        compete for the same values.
        """
        group = {("yC", "dC"), ("yP", "dP"), ("yC", "dP")}
        priors = {("yC", "dC"): 0.5, ("yP", "dP"): 0.5, ("yC", "dP"): 0.5}
        consistency = Consistency(0.9, 0.9, 10)
        marginals = neighbor_marginals(group, priors, consistency)
        assert marginals[("yC", "dC")] > 0.9
        assert marginals[("yP", "dP")] > 0.9
        assert marginals[("yC", "dP")] < 0.2

    def test_single_functional_pair(self):
        group = {("a", "b")}
        marginals = neighbor_marginals(group, {("a", "b"): 0.5}, Consistency(0.95, 0.95, 5))
        assert marginals[("a", "b")] > 0.9

    def test_low_consistency_blocks_propagation(self):
        group = {("a", "b")}
        marginals = neighbor_marginals(group, {("a", "b"): 0.5}, Consistency(0.05, 0.05, 5))
        assert marginals[("a", "b")] < 0.2

    def test_prior_breaks_ties(self):
        group = {("a", "b1"), ("a", "b2")}
        priors = {("a", "b1"): 0.9, ("a", "b2"): 0.2}
        marginals = neighbor_marginals(group, priors, Consistency(0.9, 0.9, 5))
        assert marginals[("a", "b1")] > marginals[("a", "b2")]

    def test_marginals_in_unit_interval(self):
        group = {(f"a{i}", f"b{j}") for i in range(3) for j in range(3)}
        priors = {p: 0.5 for p in group}
        marginals = neighbor_marginals(group, priors, Consistency(0.8, 0.8, 5))
        for value in marginals.values():
            assert 0.0 <= value <= 1.0

    def test_one_to_one_competition(self):
        """Two left values for one right value cannot both match."""
        group = {("a1", "b"), ("a2", "b")}
        priors = {("a1", "b"): 0.5, ("a2", "b"): 0.5}
        marginals = neighbor_marginals(group, priors, Consistency(0.9, 0.9, 5))
        assert marginals[("a1", "b")] + marginals[("a2", "b")] <= 1.0 + 1e-9

    def test_oversized_group_reduced_not_crashed(self):
        group = {(f"a{i}", f"b{j}") for i in range(8) for j in range(8)}
        priors = {p: 0.4 for p in group}
        config = RempConfig(max_exact_pairs=10, max_candidates_per_value=2)
        scope = RunScope("reduce")
        with scope.activate():
            marginals = neighbor_marginals(
                group, priors, Consistency(0.9, 0.9, 5), config
            )
            # A group within the cap is not reduced and not counted.
            neighbor_marginals(
                {("a0", "b0"), ("a0", "b1")}, priors, Consistency(0.9, 0.9, 5), config
            )
        assert len(marginals) == len(group)
        assert all(0.0 <= v <= 1.0 for v in marginals.values())
        assert scope.metrics.counter("propagation.group.reduced") == 1
        assert scope.metrics.counter("propagation.group.pairs_dropped") == len(group) - 10


class TestProbabilisticGraph:
    def test_set_edge_keeps_max(self):
        graph = ProbabilisticERGraph()
        graph.set_edge(("a", "b"), ("c", "d"), 0.5)
        graph.set_edge(("a", "b"), ("c", "d"), 0.8)
        graph.set_edge(("a", "b"), ("c", "d"), 0.3)
        assert graph.probability(("a", "b"), ("c", "d")) == 0.8

    def test_zero_probability_not_stored(self):
        graph = ProbabilisticERGraph()
        graph.set_edge(("a", "b"), ("c", "d"), 0.0)
        assert graph.num_edges == 0

    def test_self_probability_is_one(self):
        graph = ProbabilisticERGraph()
        assert graph.probability(("a", "b"), ("a", "b")) == 1.0

    def test_missing_edge_zero(self):
        graph = ProbabilisticERGraph()
        assert graph.probability(("a", "b"), ("x", "y")) == 0.0


class TestBuildProbabilisticGraph:
    @pytest.fixture()
    def setup(self):
        kb1, kb2 = KnowledgeBase("x"), KnowledgeBase("y")
        kb1.add_relationship_triple("yTim", "directed", "yCradle")
        kb2.add_relationship_triple("dTim", "directedBy", "dCradle")
        vertices = {("yTim", "dTim"), ("yCradle", "dCradle")}
        graph = build_er_graph(kb1, kb2, vertices)
        priors = {v: 0.5 for v in vertices}
        consistencies = {
            ("directed", "directedBy"): Consistency(0.9, 0.9, 5),
            ("~directed", "~directedBy"): Consistency(0.9, 0.9, 5),
        }
        return kb1, kb2, graph, priors, consistencies

    def test_edges_both_directions(self, setup):
        kb1, kb2, graph, priors, consistencies = setup
        prob = build_probabilistic_graph(graph, kb1, kb2, priors, consistencies)
        forward = prob.probability(("yTim", "dTim"), ("yCradle", "dCradle"))
        backward = prob.probability(("yCradle", "dCradle"), ("yTim", "dTim"))
        assert forward > 0.8
        assert backward > 0.8

    def test_default_consistency_used_for_unknown_labels(self, setup):
        kb1, kb2, graph, priors, _ = setup
        prob = build_probabilistic_graph(graph, kb1, kb2, priors, {})
        # neutral epsilon 0.5 -> gamma 1 -> marginal equals normalized prior
        forward = prob.probability(("yTim", "dTim"), ("yCradle", "dCradle"))
        assert 0.2 < forward < 0.8


def _run_under_hash_seeds(script: str, seeds: tuple[str, ...]) -> list[str]:
    """stdout of ``script`` run in one fresh interpreter per hash seed."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    return outputs


class TestReduceGroupDeterminism:
    def test_tie_break_is_deterministic_across_hash_seeds(self):
        """Equal-prior ties must not fall back to set iteration order.

        The reduction sorts a ``set``; with a prior-only key, the pairs
        cut at ``max_pairs`` would follow hash-seed-dependent set order
        and differ across processes.  Run the same tie-heavy reduction
        in two subprocesses with different ``PYTHONHASHSEED`` values
        and require identical output.
        """
        script = (
            "import json, sys\n"
            "from repro.core.propagation import _reduce_group\n"
            "pairs = [(f'l{i}', f'r{j}') for i in range(6) for j in range(6)]\n"
            "priors = {p: 0.5 for p in pairs}\n"
            "priors[('l0', 'r0')] = 0.9\n"
            "print(json.dumps(_reduce_group(pairs, priors, 12, 3)))\n"
        )
        outputs = _run_under_hash_seeds(script, ("1", "20"))
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == 12


class TestFullLoopDeterminism:
    def test_run_is_independent_of_hash_seed(self):
        """A whole accel run must not follow set iteration order.

        The incremental propagator iterates sets (dirty vertices, the
        sources reached through them), and the askable questions follow
        the order in which propagation handed out new maps; only the
        result may not depend on either.  For each selection strategy,
        compare the result document and every loop's question batch
        across two interpreters with different ``PYTHONHASHSEED`` values.
        """
        script = (
            "import json\n"
            "from repro.core import Remp\n"
            "from repro.crowd import CrowdPlatform\n"
            "from repro.datasets import clustered_bundle\n"
            "from repro.store.serialize import result_to_doc\n"
            "bundle = clustered_bundle(num_clusters=8, movies_per_cluster=4, seed=0,\n"
            "                          label_noise=0.5, critics_per_cluster=1)\n"
            "runs = {}\n"
            "for strategy in ('remp', 'maxinf', 'maxpr'):\n"
            "    platform = CrowdPlatform.with_simulated_workers(\n"
            "        bundle.gold_matches, error_rate=0.1, seed=3)\n"
            "    result = Remp().run(bundle.kb1, bundle.kb2, platform, strategy=strategy)\n"
            "    runs[strategy] = {'result': result_to_doc(result),\n"
            "                      'batches': [r.questions for r in result.history]}\n"
            "print(json.dumps(runs, sort_keys=True))\n"
        )
        outputs = _run_under_hash_seeds(script, ("0", "7"))
        assert outputs[0] == outputs[1]
        runs = json.loads(outputs[0])
        assert len(runs["remp"]["batches"]) >= 5
        assert all(len(run["batches"]) >= 3 for run in runs.values())
