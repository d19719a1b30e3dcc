"""Aliasing analyzer: sinks fire on fixtures, waivers inventory, repo clean."""

from pathlib import Path

from repro.analysis.aliasing import check_aliasing
from repro.analysis.runner import default_aliasing_files, repo_root

FIXTURES = Path(__file__).parent / "fixtures"
BAD_ALIASING = FIXTURES / "bad_aliasing.py"


def _findings():
    findings, _stats = check_aliasing([BAD_ALIASING], root=repo_root())
    return findings


class TestSeededViolations:
    def test_augmented_assignment_on_param(self):
        hits = [f for f in _findings() if f.rule == "AL001" and not f.waived]
        assert {f.message.split(":")[0] for f in hits} == {
            "mutates_param", "derived_alias_mutation", "loop_alias_mutation",
            "comprehension_alias_mutation",
        }

    def test_subscript_assignment_on_param(self):
        hits = [f for f in _findings() if f.rule == "AL002" and not f.waived]
        assert [f.message.split(":")[0] for f in hits] == ["writes_into_param"]

    def test_out_kwarg_on_param(self):
        hits = [f for f in _findings() if f.rule == "AL003" and not f.waived]
        assert [f.message.split(":")[0] for f in hits] == ["ufunc_out_on_param"]

    def test_copyto_into_param(self):
        hits = [f for f in _findings() if f.rule == "AL004" and not f.waived]
        assert [f.message.split(":")[0] for f in hits] == ["copyto_into_param"]

    def test_waiver_is_inventoried_not_hidden(self):
        waived = [f for f in _findings() if f.waived]
        assert len(waived) == 1
        assert waived[0].message.startswith("waived_site")
        assert "documented intentional reuse" in waived[0].waiver_note


class TestTaintSemantics:
    def _run(self, tmp_path, body):
        mod = tmp_path / "probe.py"
        mod.write_text("import numpy as np\n" + body)
        findings, _ = check_aliasing([mod], root=tmp_path)
        return findings

    def test_top_level_fresh_rebind_kills_taint(self, tmp_path):
        findings = self._run(
            tmp_path,
            "def f(values, other):\n"
            "    flat = values[0]\n"
            "    flat = flat - np.repeat(other, 2)\n"
            "    np.exp(flat, out=flat)\n"
            "    return flat\n",
        )
        assert findings == []

    def test_conditional_rebind_keeps_taint(self, tmp_path):
        # the plan.compute_probs shape: a copy taken only on some paths means
        # the original binding may survive — must still flag
        findings = self._run(
            tmp_path,
            "def f(scores, owned):\n"
            "    buf = scores.values\n"
            "    if not owned:\n"
            "        buf = np.array(buf)\n"
            "    np.exp(buf, out=buf)\n"
            "    return buf\n",
        )
        assert [f.rule for f in findings] == ["AL003"]

    def test_view_methods_propagate_taint(self, tmp_path):
        findings = self._run(
            tmp_path,
            "def f(values):\n"
            "    flat = values.reshape(-1)\n"
            "    flat[0] = 1.0\n"
            "    return flat\n",
        )
        assert [f.rule for f in findings] == ["AL002"]

    def test_iterating_builtins_propagate_taint(self, tmp_path):
        findings = self._run(
            tmp_path,
            "def f(planes, keep):\n"
            "    for i, plane in enumerate(planes):\n"
            "        np.exp(plane, out=plane)\n"
            "    for plane in reversed(planes):\n"
            "        plane[0] = 0.0\n"
            "    for plane, kept in zip(keep, planes):\n"
            "        kept *= 2.0\n"
            "    for j, row in enumerate(np.zeros((3, 4))):\n"
            "        row += 1.0\n",
        )
        assert [f.rule for f in findings] == ["AL003", "AL002", "AL001"]

    def test_comprehensions_propagate_taint_from_their_iterables(self, tmp_path):
        findings = self._run(
            tmp_path,
            "def f(bufs, n):\n"
            "    a, b = (x[:n] for x in bufs)\n"
            "    np.copyto(a, 0.0)\n"
            "    c, d = [np.zeros(x.shape) for x in bufs]\n"
            "    np.copyto(c, 0.0)\n"
            "    np.copyto(np.empty(3), bufs[0])\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("AL004", 4)]

    def test_fresh_local_buffers_are_silent(self, tmp_path):
        findings = self._run(
            tmp_path,
            "def f(values):\n"
            "    out = np.empty_like(values)\n"
            "    out[0] = 1.0\n"
            "    np.exp(out, out=out)\n"
            "    out += 1.0\n"
            "    return out\n",
        )
        assert findings == []

    def test_nested_scopes_use_their_own_params(self, tmp_path):
        # closure reads are fine; the nested function's own params are tainted
        findings = self._run(
            tmp_path,
            "def outer(values):\n"
            "    def inner(own):\n"
            "        own += 1.0\n"
            "        return own\n"
            "    return inner\n",
        )
        assert [f.rule for f in findings] == ["AL001"]
        assert findings[0].message.startswith("outer.inner")


class TestRepoWaiverInventory:
    def test_hot_modules_carry_exactly_the_documented_waivers(self):
        root = repo_root()
        findings, _ = check_aliasing(default_aliasing_files(root), root=root)
        active = [f for f in findings if not f.waived]
        assert active == [], "\n".join(f.format() for f in active)
        waived = sorted((f.file, f.line) for f in findings if f.waived)
        files = {file for file, _ in waived}
        # the staged N:M softmax core, and the fused jobs' tile-buffer /
        # own-output writes: the N:M forward's
        # (six of them through per-lane loop targets over its lane planes,
        # four for the statistics it saves for the backward, two masking
        # copies into the lane planes), the recomputing N:M backward's
        # borrowed tiles, dQ row blocks, dK/dV accumulators and write-back,
        # and the row-block jobs' statistics, output and gradient blocks
        assert files == {
            "src/repro/core/nm_attention.py",
            "src/repro/core/row_block.py",
            "src/repro/core/softmax.py",
        }
        assert len(waived) == 39
