"""Lint framework tests: per-rule fixtures, suppressions, CLI, mutation checks.

Each rule gets a positive (flagged) and negative (clean) in-memory fixture;
the suppression machinery is tested both ways (a used ``allow`` silences,
a stale one is itself a finding); and the *mutation checks* prove the gate
has teeth on the real tree — injecting a wall-clock read into
``FleetManager.step`` or an allocation into an incremental kernel must
produce a named finding through the registered hot-path manifest.
"""

from pathlib import Path

import pytest

from repro.analysis import DEFAULT_TARGETS, hot_path, lint_paths, lint_source
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.hotpath import HOT_PATHS
from repro.analysis.lint import FileContext

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint_named(source, path="src/repro/somewhere/module.py"):
    return lint_source(source, path=path)


# ----------------------------------------------------------------------
# determinism rules
# ----------------------------------------------------------------------
class TestWallClock:
    def test_flags_wall_clock_reads(self):
        findings = lint_named("import time\nstart = time.time()\n")
        assert rules_of(findings) == ["wallclock"]
        assert findings[0].line == 2

    def test_flags_datetime_now(self):
        source = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules_of(lint_named(source)) == ["wallclock"]

    def test_monotonic_clocks_are_fine(self):
        source = "import time\nt0 = time.perf_counter()\nt1 = time.monotonic()\n"
        assert lint_named(source) == []


class TestUnseededRng:
    def test_flags_stdlib_random_import(self):
        assert rules_of(lint_named("import random\n")) == ["unseeded-rng"]
        assert rules_of(lint_named("from random import shuffle\n")) == ["unseeded-rng"]

    def test_flags_global_numpy_stream(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(lint_named(source)) == ["unseeded-rng"]

    def test_flags_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_named(source)) == ["unseeded-rng"]

    def test_flags_legacy_random_state(self):
        source = "import numpy as np\nrng = np.random.RandomState(0)\n"
        assert rules_of(lint_named(source)) == ["unseeded-rng"]

    def test_seeded_generator_api_is_fine(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "gen = np.random.Generator(np.random.PCG64(7))\n"
        )
        assert lint_named(source) == []


class TestIdKey:
    def test_flags_id_calls(self):
        source = "cache = {}\ncache[id(obj)] = value\n"
        assert rules_of(lint_named(source)) == ["id-key"]

    def test_attribute_named_id_is_fine(self):
        source = "key = record.id\nother = record.id()\n"
        assert lint_named(source) == []


class TestSetOrder:
    def test_flags_for_loop_over_set(self):
        assert rules_of(lint_named("for x in {1, 2, 3}:\n    pass\n")) == ["set-order"]

    def test_flags_list_of_set_and_join(self):
        source = "names = list({'a', 'b'})\njoined = ','.join(set(items))\n"
        assert rules_of(lint_named(source)) == ["set-order", "set-order"]

    def test_flags_comprehension_over_set_algebra(self):
        source = "out = [x for x in set(a) | set(b)]\n"
        assert rules_of(lint_named(source)) == ["set-order"]

    def test_sorted_set_is_fine(self):
        source = "for x in sorted({1, 2, 3}):\n    pass\nout = sorted(set(a) & set(b))\n"
        assert lint_named(source) == []


# ----------------------------------------------------------------------
# hot-path rules
# ----------------------------------------------------------------------
class TestHotPathRules:
    def test_decorated_function_may_not_allocate(self):
        source = (
            "import numpy as np\n"
            "from repro.analysis import hot_path\n"
            "@hot_path\n"
            "def tick(x):\n"
            "    return np.zeros(4) + x\n"
        )
        assert "hot-alloc" in rules_of(lint_named(source, path="scratch.py"))

    def test_unregistered_function_may_allocate(self):
        source = "import numpy as np\ndef setup():\n    return np.zeros(4)\n"
        assert lint_named(source, path="scratch.py") == []

    def test_nested_function_is_not_hot(self):
        source = (
            "import numpy as np\n"
            "from repro.analysis import hot_path\n"
            "@hot_path\n"
            "def tick(x):\n"
            "    def setup():\n"
            "        return np.zeros(4)\n"
            "    return x\n"
        )
        assert lint_named(source, path="scratch.py") == []

    def test_allocating_methods_flagged(self):
        source = (
            "from repro.analysis import hot_path\n"
            "@hot_path\n"
            "def tick(x):\n"
            "    return x.astype('int64')\n"
        )
        assert rules_of(lint_named(source, path="scratch.py")) == ["hot-alloc"]

    def test_strict_tier_requires_out(self):
        source = (
            "import numpy as np\n"
            "from repro.analysis import hot_path\n"
            "@hot_path(tier='strict')\n"
            "def kernel(a, b, buf):\n"
            "    np.add(a, b, out=buf)\n"
            "    return np.multiply(buf, 2.0)\n"
        )
        findings = lint_named(source, path="scratch.py")
        assert rules_of(findings) == ["hot-ufunc-out"]
        assert "np.multiply" in findings[0].message

    def test_alloc_tier_does_not_require_out(self):
        source = (
            "import numpy as np\n"
            "from repro.analysis import hot_path\n"
            "@hot_path\n"
            "def step(a, b):\n"
            "    return np.add(a, b)\n"
        )
        assert lint_named(source, path="scratch.py") == []

    def test_manifest_matches_by_path_suffix_and_qualname(self):
        # Any file whose path ends in repro/streaming/fleet.py has
        # FleetManager.step registered, whatever directory prefix it's under.
        source = (
            "import numpy as np\n"
            "class FleetManager:\n"
            "    def step(self, rows):\n"
            "        return np.zeros(3)\n"
        )
        findings = lint_source(source, path="anywhere/src/repro/streaming/fleet.py")
        assert rules_of(findings) == ["hot-alloc"]
        assert lint_source(source, path="src/other/fleet.py") == []

    def test_decorator_is_runtime_identity(self):
        @hot_path(tier="strict")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f.__hot_path_tier__ == "strict"
        with pytest.raises(ValueError, match="tier"):
            hot_path(tier="molten")


# ----------------------------------------------------------------------
# numerics rules
# ----------------------------------------------------------------------
class TestNanTransparency:
    def test_flags_nan_to_num(self):
        source = "import numpy as np\nclean = np.nan_to_num(scores)\n"
        assert rules_of(lint_named(source)) == ["nan-transparency"]

    def test_flags_nan_equality(self):
        source = "import numpy as np\nbad = scores == np.nan\nworse = x != float('nan')\n"
        assert rules_of(lint_named(source)) == ["nan-transparency", "nan-transparency"]

    def test_isnan_masking_is_fine(self):
        source = "import numpy as np\nmask = np.isnan(scores)\nok = np.isfinite(scores)\n"
        assert lint_named(source) == []


class TestFloat32Literal:
    def test_flags_float32_in_bit_equality_modules(self):
        source = (
            "import numpy as np\n"
            "a = np.zeros(3, dtype=np.float32)\n"
            "b = x.astype('float32')\n"
            "c = np.float32(1.5)\n"
        )
        findings = lint_source(source, path="src/repro/runtime/custom.py")
        assert rules_of(findings) == ["float32-literal"] * 3

    def test_dtype_resolution_tuple_is_fine(self):
        # compiler.py's `np.dtype(np.float32)` names the dtype without
        # casting anything into it.
        source = "import numpy as np\nSUPPORTED = (np.dtype(np.float64), np.dtype(np.float32))\n"
        assert lint_source(source, path="src/repro/runtime/custom.py") == []

    def test_outside_bit_equality_paths_is_fine(self):
        source = "import numpy as np\na = np.zeros(3, dtype=np.float32)\n"
        assert lint_source(source, path="benchmarks/mem_bench.py") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_allow_silences_same_line_finding(self):
        source = "import time\nstamp = time.time()  # repro: allow[wallclock] -- report stamp\n"
        assert lint_named(source) == []

    def test_allow_takes_multiple_rules(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(int(np.nan_to_num(3.0)))"
            "  # repro: allow[unseeded-rng, nan-transparency] -- fixture\n"
        )
        assert lint_named(source) == []

    def test_allow_for_wrong_rule_does_not_silence(self):
        source = "import time\nstamp = time.time()  # repro: allow[unseeded-rng]\n"
        assert sorted(rules_of(lint_named(source))) == ["unused-suppression", "wallclock"]

    def test_stale_allow_is_a_finding(self):
        source = "x = 1  # repro: allow[wallclock] -- nothing here anymore\n"
        findings = lint_named(source)
        assert rules_of(findings) == ["unused-suppression"]
        assert "allow[wallclock]" in findings[0].message

    def test_allow_inside_string_literal_is_ignored(self):
        source = 'text = "# repro: allow[wallclock]"\n'
        assert lint_named(source) == []

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_named("def broken(:\n")
        assert rules_of(findings) == ["syntax-error"]


# ----------------------------------------------------------------------
# CLI + repo self-check
# ----------------------------------------------------------------------
class TestCli:
    def test_committed_tree_is_clean(self):
        """The blocking CI gate: the repo's own tree must lint clean."""
        targets = [REPO_ROOT / target for target in DEFAULT_TARGETS]
        findings, files_checked = lint_paths([t for t in targets if t.exists()])
        assert files_checked > 50
        assert findings == [], "\n".join(finding.format() for finding in findings)

    def test_main_exits_zero_on_clean_tree(self, capsys):
        targets = [str(REPO_ROOT / target) for target in DEFAULT_TARGETS]
        assert analysis_main(targets) == 0
        assert "clean" in capsys.readouterr().out

    def test_main_reports_findings_and_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        report = tmp_path / "findings.txt"
        assert analysis_main([str(bad), "--report", str(report)]) == 1
        out = capsys.readouterr().out
        assert "wallclock" in out
        assert "bad.py:2" in out
        assert "wallclock" in report.read_text()

    def test_rules_catalogue(self, capsys):
        assert analysis_main(["--rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "wallclock", "unseeded-rng", "id-key", "set-order", "hot-alloc",
            "hot-ufunc-out", "nan-transparency", "float32-literal", "unused-suppression",
        ):
            assert f"{name}:" in out


class TestHotPathManifest:
    def test_every_entry_resolves_to_a_function(self):
        """A stale manifest entry covers nothing: each key must name a real function."""
        stale = []
        for key in HOT_PATHS:
            path, _, qualname = key.partition("::")
            module = REPO_ROOT / "src" / path
            if not module.is_file():
                stale.append(key)
                continue
            context = FileContext(str(module), module.read_text(encoding="utf-8"))
            if qualname not in {name for _, name, _ in context.hot_functions()}:
                stale.append(key)
        assert stale == [], f"HOT_PATHS entries that resolve to no function: {stale}"


class TestMutationChecks:
    """Injected violations into the *real* tree must produce named findings."""

    def _mutate(self, relative, anchor, injected):
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        assert anchor in source, f"anchor not found in {relative}"
        return source.replace(anchor, anchor + "\n" + injected, 1)

    def test_wall_clock_in_fleet_step_is_caught(self):
        mutated = self._mutate(
            "src/repro/streaming/fleet.py",
            "        with self._tracer.span(\"fleet.forward\"):",
            "            _leak = time.time()",
        )
        findings = lint_source(mutated, path="src/repro/streaming/fleet.py")
        assert "wallclock" in rules_of(findings)

    def test_allocation_in_incremental_kernel_is_caught(self):
        mutated = self._mutate(
            "src/repro/runtime/ops.py",
            "    out = ws and ws.get(name, x.shape[:-1] + (weight.shape[-1],), weight.dtype)",
            "    staging = np.empty(x.shape, dtype=x.dtype)",
        )
        findings = lint_source(mutated, path="src/repro/runtime/ops.py")
        assert "hot-alloc" in rules_of(findings)

    def test_out_less_ufunc_in_strict_kernel_is_caught(self):
        mutated = self._mutate(
            "src/repro/runtime/ops.py",
            'def sigmoid(x: np.ndarray, ws=None, name: str = "sigmoid") -> np.ndarray:',
            "    probe = np.exp(x)",
        )
        findings = lint_source(mutated, path="src/repro/runtime/ops.py")
        assert "hot-ufunc-out" in rules_of(findings)
