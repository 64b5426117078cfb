"""The three whole-program analyzers against fixture mini-projects."""

from repro.lint.analyzers.layering import LayeringAnalyzer
from repro.lint.analyzers.pickles import PicklabilityAnalyzer, PklSpec
from repro.lint.analyzers.seeds import SeedTaintAnalyzer


def run(analyzer, project):
    return sorted(analyzer.check(project))


class TestLayering:
    def test_leaf_layer_importing_runner_is_flagged(self, build_tree,
                                                    project_of):
        root = build_tree({
            "repro/uarch/core.py": "import repro.runner\n",
            "repro/runner/api.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        assert any(
            f.rule_id == "LAY001" and "'uarch'" in f.message
            and "'runner'" in f.message for f in findings
        )

    def test_lazy_violation_still_counts_for_layering(self, build_tree,
                                                      project_of):
        root = build_tree({
            "repro/stats/fit.py":
                "def go():\n    from repro import obs\n    return obs\n",
            "repro/obs/probe.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        assert any("even lazily" in f.message for f in findings)

    def test_import_cycle_is_one_finding_with_the_chain(self, build_tree,
                                                        project_of):
        root = build_tree({
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "import repro.a\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        cycle = [f for f in findings if "import cycle" in f.message]
        assert len(cycle) == 1
        assert "repro.a -> repro.b -> repro.a" in cycle[0].message

    def test_examples_must_import_the_facade(self, build_tree, project_of):
        root = build_tree({
            "examples/demo.py": "from repro.uarch import core\n",
            "examples/ok.py": "from repro.api import run_suite\n",
            "repro/uarch/core.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        facade = [f for f in findings if "facade-only" in f.message]
        assert len(facade) == 1
        assert facade[0].path.endswith("examples/demo.py")

    def test_clean_tree_has_no_findings(self, build_tree, project_of):
        root = build_tree({
            "repro/uarch/core.py": "from . import caches\n",
            "repro/uarch/caches.py": "x = 1\n",
        })
        assert run(LayeringAnalyzer(), project_of(root)) == []


class TestSeedTaint:
    def test_unthreaded_parameter_with_no_callers_is_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "no project call site threads a seed" in findings[0].message

    def test_cross_module_threaded_seed_is_clean(self, build_tree,
                                                 project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/app.py": """\
                from repro import gen

                def sweep(seed):
                    return gen.make(seed)
            """,
        })
        assert run(SeedTaintAnalyzer(), project_of(root)) == []

    def test_nondeterministic_argument_across_modules_is_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/app.py": """\
                import time

                from repro import gen

                def sweep():
                    return gen.make(int(time.time()))
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "does not seed it" in findings[0].message
        assert "app.py" in findings[0].message

    def test_no_arg_rng_construction_is_poison(self, build_tree,
                                               project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def fresh():
                    return np.random.default_rng()
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "nondeterministic source" in findings[0].message

    def test_two_hop_threading_is_clean(self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/mid.py": """\
                from repro import gen

                def build(k):
                    return gen.make(k)
            """,
            "repro/app.py": """\
                from repro import mid

                def sweep(seed):
                    return mid.build(seed)
            """,
        })
        assert run(SeedTaintAnalyzer(), project_of(root)) == []


class TestPicklability:
    def test_unannotated_boundary_param_and_return_are_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def _init(config):
                    pass

                def _work(x):
                    return x

                def sweep(n):
                    with ProcessPoolExecutor(
                        max_workers=n, initializer=_init, initargs=(1,)
                    ) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        findings = run(PicklabilityAnalyzer(spec), project_of(root))
        messages = "\n".join(f.message for f in findings)
        assert "'config' is unannotated" in messages
        assert "no return annotation" in messages

    def test_hazard_field_in_the_type_closure_is_flagged(self, build_tree,
                                                         project_of):
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass
                from typing import Callable

                @dataclass
                class Inner:
                    callback: Callable[[], None]

                @dataclass
                class Result:
                    value: float
                    inner: Inner
            """,
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        findings = run(PicklabilityAnalyzer(spec), project_of(root))
        assert len(findings) == 1
        assert "Inner.callback" in findings[0].message
        assert findings[0].path.endswith("repro/results.py")

    def test_exception_with_init_but_no_reduce_is_flagged(self, build_tree,
                                                          project_of):
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass

                class SweepError(Exception):
                    def __init__(self, pair, detail):
                        super().__init__(pair + detail)

                @dataclass
                class Result:
                    err: SweepError
            """,
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        findings = run(PicklabilityAnalyzer(spec), project_of(root))
        assert len(findings) == 1
        assert "__reduce__" in findings[0].message

    def test_clean_value_type_closure_passes(self, build_tree, project_of):
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass
                from typing import Tuple

                @dataclass
                class Result:
                    value: float
                    names: Tuple[str, ...]
            """,
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        assert run(PicklabilityAnalyzer(spec), project_of(root)) == []

    def test_real_repo_boundary_is_clean(self, project_of):
        project = project_of("src")
        assert run(PicklabilityAnalyzer(), project) == []
