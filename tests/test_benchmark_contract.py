"""The names the benchmark harness (``perfbench/``) reaches into the program by.

``perfbench/workloads.py`` wraps the plan stage methods it lists in
``CORE_STAGES`` through ``AttentionPlan.__dict__[name]`` and the training
op ``repro.nn.attention_layer.dfss_sparse_attention`` through the module's
namespace, in its untraced pass as much as in its traced one, so deleting
or moving any of them makes every workload exit non-zero.  The list is read
with ``ast`` so the harness's own modules are not imported here.
"""

import ast
from pathlib import Path

import repro.nn.attention_layer as attention_layer
from repro.core import AttentionPlan

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _core_stages():
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "CORE_STAGES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no CORE_STAGES")


def test_every_wrapped_plan_stage_is_an_attention_plan_attribute():
    stages = _core_stages()
    assert stages, "CORE_STAGES is empty"
    for attr, _ in stages:
        assert attr in AttentionPlan.__dict__, attr
        assert callable(AttentionPlan.__dict__[attr]), attr


def test_the_wrapped_training_op_is_in_the_attention_layer_namespace():
    assert callable(attention_layer.__dict__["dfss_sparse_attention"])
