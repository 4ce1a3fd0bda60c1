"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of c0cover from outside the library.  A
wrapped name is rebound in every loaded ``c0cover`` module whose namespace
holds the original function (for example ``experiment.minimal_canonical``,
``cli.minimal_canonical`` and ``canonical.lebesgue_number``), so calls made
through any import path are recorded.  Spans carry the id of the span that
was open when they started; they stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

# module -> public functions whose calls become spans
WRAPPED = {
    "packs": [
        "generate_pack",
        "default_ladder",
        "h_profile",
        "validate_pack",
        "pack_to_json",
        "pack_from_json",
    ],
    # compose, star and ext: the small kernels verify-sweep calls thousands of times
    "relations": ["controlled_E", "c0_modulus", "full_relation", "ball_cover", "compose"],
    "covers": ["uniformity_verdict", "lebesgue_number", "refines", "mult_witness", "star"],
    "canonical": ["minimal_canonical", "subsequence_indices", "ext_family", "ext"],
    "cylinder": ["lower_bound_check", "random_uniform_candidates"],
    "experiment": ["run_experiment", "report_to_json"],
    "svg": ["emit_svg"],
    "cli": ["main"],
    "verify": [
        "verify_suite",
        "check_identities",
        "check_ext_properties",
        "check_transfer_lemmas",
        "check_star_expansion",
        "check_shrink",
    ],
}
# module -> class -> methods; the pack metric kernels behind lebesgue_number and mesh
WRAPPED_METHODS = {"packs": {"DiscretePack": ["diam", "set_dist"]}}


def _minimal_canonical_counts(result) -> dict:
    report = result[1]
    return {
        "canonical.orphans": report.orphans_completed,
        "canonical.subsequence_len": len(report.subsequence),
        "canonical.ladder_rungs": report.ladder_rungs,
    }


# span name -> counters derived from the call's return value
COUNTERS = {
    "packs.default_ladder": lambda r: {"packs.ladder_rungs": len(r)},
    "packs.pack_to_json": lambda r: {"packs.pack_json_bytes": len(r)},
    "relations.controlled_E": lambda r: {"relations.pairs": len(r)},
    "canonical.subsequence_indices": lambda r: {"canonical.recursion_steps": len(r)},
    "canonical.minimal_canonical": _minimal_canonical_counts,
    "cylinder.lower_bound_check": lambda r: {
        "cylinder.lower_bound_checks": 1,
        "cylinder.lower_bound_holds": int(r.holds),
    },
    "experiment.report_to_json": lambda r: {"experiment.report_bytes": len(r)},
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]
    for mod, classes in WRAPPED_METHODS.items():
        names += [f"{mod}.{cls}.{m}" for cls, methods in classes.items() for m in methods]
    return names


class Tracer:
    """Records one span per wrapped call: id, parent id, name, start, end and self time."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._open: list[list] = []  # [span id, time covered by child spans]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            frame = [next(self._ids), 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans.append((frame[0], parent, name, start, end, end - start - frame[1]))
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped name in every loaded c0cover module."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "c0cover"]
        for mod, fns in WRAPPED.items():
            home = sys.modules[f"c0cover.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                traced = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))
        for mod, classes in WRAPPED_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(sys.modules[f"c0cover.{mod}"], cls_name)
                for m in methods:
                    original = vars(cls)[m]
                    setattr(cls, m, self._wrap(f"{mod}.{cls_name}.{m}", original))
                    self._restore.append((cls, m, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time, and call count."""
        self_s, calls = Counter(), Counter()
        for _, _, name, _, _, own in self.spans:
            self_s[name] += own
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, own in self.spans:
                span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "self": own}
                fh.write(json.dumps(span) + "\n")
