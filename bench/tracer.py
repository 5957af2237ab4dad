"""Per-layer spans around the program's callables, installed from outside.

Each traced callable is named ``<layer>.<callable>`` after the package
module it lives in, and found by module and attribute path.  The wrapper
replaces it on its owner (module or class) and in every loaded
``iesdispatch.*`` namespace that imported the same object, so calls made
through ``from .system import power_balance`` are caught too.  A callable
that a later change removes or renames is counted as absent; the run goes
on without it.

Spans are folded into per-callable totals as they close (call count and
self time, which is the span's duration minus the time its traced child
spans cover), because one training round opens about a million spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = (
    # collection
    ("learner.act", "iesdispatch.learner", "GaussianActor.act"),
    ("learner.critic_value", "iesdispatch.learner", "Critic.value"),
    ("env.step", "iesdispatch.env", "DispatchEnv.step"),
    ("env.evaluate_step", "iesdispatch.env", "evaluate_step"),
    ("system.clip_to_limits", "iesdispatch.system", "clip_to_limits"),
    ("system.project_exchanges", "iesdispatch.system", "project_exchanges"),
    ("system.power_balance", "iesdispatch.system", "power_balance"),
    ("system.community_cost", "iesdispatch.system", "community_cost"),
    ("nets.forward", "iesdispatch.nets", "Mlp.forward"),
    # update
    ("nets.backward", "iesdispatch.nets", "Mlp.backward"),
    ("nets.adam_step", "iesdispatch.nets", "Adam.step"),
    ("nets.clip_grads", "iesdispatch.nets", "clip_grads_"),
    ("learner.actor_loss_grads", "iesdispatch.learner", "actor_loss_and_grads"),
    ("learner.critic_loss_grads", "iesdispatch.learner", "critic_loss_and_grads"),
    ("learner.gae", "iesdispatch.learner", "gae_advantages"),
    # I/O inside the training verb
    ("learner.save_checkpoint", "iesdispatch.learner", "save_checkpoint"),
    ("cli.write_training_log", "iesdispatch.cli", "write_training_log"),
    # oracle
    ("system.oracle_dispatch", "iesdispatch.system", "oracle_dispatch"),
    ("cli.write_schedule_csv", "iesdispatch.cli", "write_schedule_csv"),
    # set-up
    ("config.load_config", "iesdispatch.config", "load_config"),
    ("scenario.generate_scenario", "iesdispatch.scenario", "generate_scenario"),
    ("scenario.load_scenario", "iesdispatch.scenario", "load_scenario"),
    # evaluation
    ("learner.load_checkpoint", "iesdispatch.learner", "load_checkpoint"),
    ("learner.greedy_rollout", "iesdispatch.learner", "greedy_rollout"),
    ("cli.evaluate", "iesdispatch.cli", "cmd_evaluate"),
)


class Tracer:
    """Wraps the callables in ``TRACED`` until ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._open: list[float] = []  # child time covered, one entry per open span
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for name, module, path in TRACED:
            try:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "iesdispatch" or mod_name.startswith("iesdispatch."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, had, previous in reversed(self._undo):
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo = []

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        return out

    def _rebind(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        open_spans = self._open
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                self_s[name] += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced
