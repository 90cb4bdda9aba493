"""Import-level guards.

Every name the package imports is used in its module (a name counts as
used if the module reads it anywhere or lists it in ``__all__``), and every
name the benchmark in ``bench/`` wraps still exists and is still looked up
where the benchmark wraps it.
"""

import ast
import importlib
from pathlib import Path

from annealed_il.config import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "annealed_il"


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    return [f"{path.relative_to(PACKAGE)}:{line} {name}" for name, line in _imported_names(tree) if name not in used]


def test_no_unused_imports_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_benchmark_wraps_names_that_exist_and_are_called(tmp_path, monkeypatch):
    """bench/run.py wraps module globals and class attributes by name; a
    renamed one raises KeyError there, and one bound elsewhere is never
    spanned.  Apply its wrappers, train briefly, then restore everything."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench = importlib.import_module("run")
    spans = importlib.import_module("spans")
    m = bench.import_package()
    owners = [m.runner, m.trainer, m.rollout, m.losses, m.KeyDoorEnv, m.PointReachEnv]
    owners += [m.MLP, m.Adam, m.Dataset, m.MetricsWriter]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    tracer = spans.Tracer()
    try:
        bench.trace_layers(tracer, m)
        probe = bench.Probe(m.runner, m.trainer)
        probe.op = op = bench.Op(seed=0, round=0, out=tmp_path)
        config = TrainConfig(
            algorithm="reinforce", seeds=[0], total_steps=512, rollout_steps=256,
            eval_every=1, eval_episodes=2, out=str(tmp_path),
        )
        m.runner.run(config)
    finally:
        for owner, attrs in saved:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    for owner, attrs in saved:
        assert dict(vars(owner)) == attrs, f"{owner} left patched"
    spanned = {"rollout.sample_action", "rollout.collect", "envs.step", "envs.reset", "nets.forward1"}
    spanned |= {"nets.backward", "nets.adam_step", "trainer.iteration", "evaluate", "nets.checkpoint"}
    assert spanned <= set(tracer.stats)
    # the benchmark's traced check: env.step runs once per rollout and per evaluation step
    assert tracer.stats["envs.step"][0] == op.rollout_steps + op.eval_steps == 512 + op.eval_steps
