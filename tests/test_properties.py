"""Property tests for the invariants that hold over arbitrary inputs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopflow.agents import (
    ActionCandidate,
    AgentConfig,
    JudgeVerdict,
    apply_flow_rules,
)
from sopflow.evaluation import match_predictions
from sopflow.kb import EmbeddingVector, KnowledgeBase, SopDoc, cosine_similarity
from sopflow.tools import RootCause

from conftest import scripted_backend

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def nonzero_vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).filter(
        lambda vs: math.sqrt(sum(v * v for v in vs)) > 1e-6
    ).map(EmbeddingVector.of)


@given(nonzero_vectors(6), nonzero_vectors(6))
@settings(max_examples=200)
def test_cosine_symmetric_and_bounded(a, b):
    ab = cosine_similarity(a, b)
    assert ab == cosine_similarity(b, a)
    assert -1.0 <= ab <= 1.0


def reference_cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """The dot product and both squared norms summed in one pass."""
    dot = na = nb = 0.0
    for x, y in zip(a.values, b.values):
        dot += x * y
        na += x * x
        nb += y * y
    return max(-1.0, min(1.0, dot / math.sqrt(na * nb)))


@given(st.integers(1, 64).flatmap(lambda dim: st.tuples(nonzero_vectors(dim),
                                                         nonzero_vectors(dim))))
@settings(max_examples=300)
def test_cosine_is_bit_identical_to_the_one_pass_reference(pair):
    a, b = pair
    # twice: the second call reads each vector's cached squared norm
    for _ in range(2):
        assert cosine_similarity(a, b).hex() == reference_cosine(a, b).hex()


@given(nonzero_vectors(6))
@settings(max_examples=100)
def test_cosine_self_similarity_is_one(a):
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-9)


@given(
    st.lists(st.tuples(st.integers(0, 9), nonzero_vectors(4)), min_size=1, max_size=30),
    nonzero_vectors(4),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_retrieval_threshold_and_topk_bounds(docs, query_vec, k, threshold):
    overrides = {"the query": tuple(query_vec.values)}
    names = []
    for i, (tag, vec) in enumerate(docs):
        name = f"doc {tag} {i}"
        overrides[name] = tuple(vec.values)
        names.append(name)
    kb = KnowledgeBase(scripted_backend(overrides=overrides, dim=4))
    for i, name in enumerate(names):
        kb.add_sop(SopDoc(id=f"sop-{i:03d}", name=name, steps=["s"]))

    matches = kb.match_sop("the query", k=k, threshold=threshold)
    assert len(matches) <= k
    scores = [score for _, score in matches]
    assert all(score >= threshold for score in scores)
    assert scores == sorted(scores, reverse=True)
    if len(matches) < k:
        # top-k dominance: nothing above threshold was left behind
        returned = {doc.id for doc, _ in matches}
        for doc in kb.list_sops():
            if doc.id not in returned:
                vectors = kb._vectors(["the query", doc.name])
                score = cosine_similarity(vectors["the query"], vectors[doc.name])
                assert score < threshold


@given(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=6),
    st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=6),
)
@settings(max_examples=200)
def test_match_predictions_conservation(predicted, truth):
    correct, incorrect = match_predictions(tuple(predicted), tuple(truth))
    assert correct + incorrect == len(predicted)
    assert 0 <= correct <= min(len(predicted), len(truth))


_TOOLS = ["collect_trace", "pod_analyze", "node_analyze", "get_all_namespace",
          "service_analyze", "deployment_analyze", "get_relevant_metric"]


@given(
    st.lists(st.sampled_from(_TOOLS), max_size=10),
    st.booleans(),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200)
def test_action_set_bound_and_rule_protection(tools, judge_found, max_size):
    candidates = [ActionCandidate(tool=t, args={"n": i}) for i, t in enumerate(tools)]
    verdict = None
    if judge_found:
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("pod-0", "CpuStress", ""),))
    config = AgentConfig(action_set_size=max_size)
    action_set = apply_flow_rules(0, None, verdict, "alert text", candidates, config)
    assert 1 <= len(action_set.candidates) <= max_size
    # rule-mandated candidates survive any truncation pressure
    rules_present = {c.rule for c in action_set.candidates if c.rule}
    expected = {"R8"} | ({"R7"} if judge_found else set())
    if max_size >= len(expected):
        assert expected <= rules_present
